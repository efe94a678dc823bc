//! Host-speed calibration.
//!
//! The benchmark's host is a small shared VM whose speed drifts by up to
//! a factor of 1.6 between stretches of a few seconds, as co-tenants come
//! and go. A fixed kernel that uses no code of the program under test —
//! ordered-map churn, a sort and a small bytecode interpreter, the
//! allocation, pointer-chasing and branch mix of the simulator's hot
//! paths — runs between cells, at least every [`EVERY`] of host time,
//! and once before and after each pass. Its median time, against
//! [`NOMINAL_NS`], gives a host-speed factor: over the whole pass for
//! pass times, over the samples around a cell for cell times.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::clock::Cpu;

/// Kernel time that defines factor 1 (about its median on the 2-vCPU
/// Intel Xeon VM the benchmark was tuned on).
pub const NOMINAL_NS: f64 = 230_000.0;

/// Longest stretch of cells (wall time) between two calibration samples.
pub const EVERY: Duration = Duration::from_millis(20);

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One run of the kernel; returns a checksum so nothing is elided.
pub fn kernel() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut map = BTreeMap::new();
    for _ in 0..512 {
        let k = xorshift(&mut x) % 1024;
        *map.entry(k).or_insert(0u64) += 1;
    }
    let mut sum = 0u64;
    for _ in 0..512 {
        let k = xorshift(&mut x) % 1024;
        sum = sum.wrapping_add(map.get(&k).copied().unwrap_or(0));
        map.remove(&(k ^ 1));
    }
    let mut v: Vec<u32> = (0..2048).map(|_| xorshift(&mut x) as u32).collect();
    v.sort_unstable();
    sum = sum.wrapping_add(u64::from(v[1024]));
    let code: Vec<u8> = (0..256).map(|_| (xorshift(&mut x) % 6) as u8).collect();
    let (mut acc, mut pc) = (1u64, 0usize);
    for _ in 0..10_000 {
        acc = match code[pc] {
            0 => acc.wrapping_add(pc as u64),
            1 => acc.rotate_left(7),
            2 => acc ^ (acc >> 3),
            3 => acc.wrapping_mul(0x100_0000_01b3),
            4 => {
                pc = (acc as usize) & 255;
                acc
            }
            _ => acc.wrapping_sub(1),
        };
        pc = (pc + 1) & 255;
    }
    black_box(sum ^ acc)
}

/// Host (thread CPU) time of one kernel run, in nanoseconds.
fn sample_ns() -> u64 {
    let t0 = Cpu::start();
    black_box(kernel());
    t0.elapsed_ns()
}

struct State {
    on: bool,
    last: Option<Instant>,
    samples: Vec<u64>,
    spent_ns: u64,
}

static STATE: Mutex<State> = Mutex::new(State {
    on: false,
    last: None,
    samples: Vec::new(),
    spent_ns: 0,
});

fn state() -> std::sync::MutexGuard<'static, State> {
    // The state stays consistent even if a holder panicked.
    STATE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Calibration of one pass.
#[derive(Debug, Clone, PartialEq)]
pub struct PassCalib {
    /// Kernel times in the order taken, in nanoseconds.
    samples: Vec<u64>,
    /// Thread CPU time the samples taken between cells cost; it lies
    /// inside the pass's measured time and is subtracted from it.
    pub spent_ns: u64,
}

fn factor_of(window: &[u64]) -> f64 {
    let mut w = window.to_vec();
    w.sort_unstable();
    let n = w.len();
    let median = match n {
        0 => return 1.0,
        _ if n % 2 == 1 => w[n / 2] as f64,
        _ => (w[n / 2 - 1] + w[n / 2]) as f64 / 2.0,
    };
    if median > 0.0 {
        NOMINAL_NS / median
    } else {
        1.0
    }
}

impl PassCalib {
    /// The pass's host-speed factor: multiply a host time measured in
    /// this pass by it to normalise the time to the nominal host speed.
    pub fn factor(&self) -> f64 {
        factor_of(&self.samples)
    }

    /// The factor around one cell, from the two samples before it and
    /// the two after it (about ±40 ms): a burst of host noise slows the
    /// cells inside it, not the whole pass. `mark` is what
    /// [`between_cells`] returned for the cell.
    pub fn cell_factor(&self, mark: usize) -> f64 {
        let hi = (mark + 2).min(self.samples.len());
        factor_of(&self.samples[mark.saturating_sub(2).min(hi)..hi])
    }
}

/// Starts calibrating a pass: one sample now, before the pass's clock
/// starts.
pub fn start_pass() {
    let s = sample_ns();
    let mut st = state();
    st.on = true;
    st.samples.clear();
    st.samples.push(s);
    st.spent_ns = 0;
    st.last = Some(Instant::now());
}

/// Called after each cell: samples when [`EVERY`] has passed since the
/// last sample, and returns the cell's mark, the number of samples taken
/// before the cell ended. Does not sample outside a calibrated pass.
pub fn between_cells() -> usize {
    let (mark, due) = {
        let st = state();
        (
            st.samples.len(),
            st.on && st.last.is_none_or(|t| t.elapsed() >= EVERY),
        )
    };
    if !due {
        return mark;
    }
    let t0 = Cpu::start();
    let s = sample_ns();
    let mut st = state();
    st.samples.push(s);
    st.last = Some(Instant::now());
    st.spent_ns += t0.elapsed_ns();
    mark
}

/// Ends the pass (after its clock stopped) with one more sample.
pub fn end_pass() -> PassCalib {
    let s = sample_ns();
    let mut st = state();
    st.on = false;
    st.samples.push(s);
    PassCalib {
        samples: std::mem::take(&mut st.samples),
        spent_ns: st.spent_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_factor_uses_the_samples_around_the_cell() {
        let cal = PassCalib {
            samples: vec![115_000, 115_000, 460_000, 460_000, 460_000, 460_000],
            spent_ns: 0,
        };
        // Two samples before the cell and two after it.
        assert_eq!(cal.cell_factor(1), 2.0);
        assert_eq!(cal.cell_factor(4), 0.5);
        assert_eq!(cal.cell_factor(6), 0.5);
        assert_eq!(cal.factor(), 0.5);
    }
}
