//! What every workload provides, and the serial cell loop they share.

use std::collections::BTreeMap;
use std::io;

use xc_bench::runner::{RunCtl, RunPolicy, Runner};

/// How long a cell took, and where it fell among the pass's host-speed
/// calibration samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// Host (thread CPU) time of the cell's unit call(s), in nanoseconds.
    pub ns: u64,
    /// See [`crate::calib::between_cells`].
    pub calib_mark: usize,
}

/// One completed cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellOut {
    pub timing: Timing,
    /// Simulated operations the cell delivered.
    pub ops: u64,
    /// Digest of the cell's simulated statistics.
    pub digest: u64,
}

/// Per-pass layer counts, keyed by metric name. Every count is a pure
/// function of the seed, so each pass reports the same values.
pub type Counts = BTreeMap<&'static str, f64>;

/// The outcome of one pass over a workload's cells.
#[derive(Debug, Default)]
pub struct Pass {
    /// `cells[i]` is `None` when cell `i` panicked.
    pub cells: Vec<Option<CellOut>>,
    /// Failed cells; a cell may appear more than once.
    pub failures: Failures,
    pub counts: Counts,
}

impl Pass {
    pub fn fail(&mut self, cell: usize, why: String) {
        self.failures.push((cell, why));
    }

    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.counts.entry(key).or_default() += v;
    }

    pub fn ops(&self) -> u64 {
        self.cells.iter().flatten().map(|c| c.ops).sum()
    }
}

/// A benchmark workload: inputs built by its set-up, then any number of
/// identical passes over its cells.
pub trait Workload {
    /// Runs every cell once, checking each output. An error is a
    /// failure of the benchmark's own I/O, not of a cell.
    fn pass(&mut self, tr: &crate::trace::Tracer) -> io::Result<Pass>;

    /// Checks too slow to repeat every pass, made once after the timed
    /// phase against the last pass.
    fn final_checks(&mut self, _last: &Pass) -> Failures {
        Failures::new()
    }
}

/// Failed cells with the reason for each.
pub type Failures = Vec<(usize, String)>;

/// Runs `cell(i)` for every `i` serially through `Runner::new(1)`,
/// timing each call and calibrating the host's speed between calls. A
/// panicking cell is recorded as failed and the loop goes on;
/// `on_success` sees each completed cell in index order.
pub fn run_cells<T, F>(
    cells: usize,
    on_success: &(dyn Fn(usize, &(T, Timing)) + Sync),
    cell: F,
) -> (Vec<Option<(T, Timing)>>, Failures)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let policy = RunPolicy {
        max_attempts: 1,
        ..RunPolicy::default()
    };
    let ctl = RunCtl {
        should_stop: &|| false,
        on_success,
    };
    let report = Runner::new(1)
        .try_run_ctl(cells, policy, ctl, |i| {
            let start = crate::clock::Cpu::start();
            let v = cell(i);
            let ns = start.elapsed_ns();
            let calib_mark = crate::calib::between_cells();
            (v, Timing { ns, calib_mark })
        })
        .report;
    let failures = report
        .failures
        .into_iter()
        .map(|f| (f.index, format!("cell {} panicked: {}", f.index, f.message)))
        .collect();
    (report.results, failures)
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn frac(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}
