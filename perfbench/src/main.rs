//! One benchmark for the X-Containers model: a workload name and a seed
//! in, every end-to-end metric (or, traced, every per-layer metric) out
//! as the last line of standard output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cluster-open|closed-loop|abom-corpus> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Every cell runs serially in this one process through `Runner::new(1)`.
//! The run builds its inputs (set-up, repeated and timed), runs one
//! untimed warm-up pass, then repeats whole passes over the workload's
//! cells until `--seconds` have elapsed. Each cell's output is checked
//! and digested; a digest that differs between passes, or from the
//! reference digests in `perfbench/digests/` at the default seed, fails
//! the cell. See `perfbench/README.md` for the workloads and metrics.

mod abom;
mod calib;
mod clock;
mod closed;
mod cluster;
mod digest;
mod host;
mod metrics;
mod trace;
mod workload;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::Metric;
use trace::Tracer;
use workload::{Pass, Workload};

const USAGE: &str = "usage: perfbench --workload <cluster-open|closed-loop|abom-corpus> \
--seed <n> [--seconds <s>] [--trace <0|1>] [--write-digests]";

/// Set-ups before the warm-up pass. One more set-up follows every timed
/// pass, so the set-up samples span the same stretch of host time as the
/// passes; `setup_s` is the median of all of them.
const SETUPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ClusterOpen,
    ClosedLoop,
    AbomCorpus,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::ClusterOpen, Kind::ClosedLoop, Kind::AbomCorpus];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ClusterOpen => "cluster-open",
            Kind::ClosedLoop => "closed-loop",
            Kind::AbomCorpus => "abom-corpus",
        }
    }

    fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Builds the workload's inputs. `dir` is the run's scratch directory
    /// (the cluster journal lives there).
    fn setup(self, seed: u64, tr: &Tracer, dir: &Path) -> Box<dyn Workload> {
        match self {
            Kind::ClusterOpen => Box::new(cluster::setup(seed, tr, dir)),
            Kind::ClosedLoop => Box::new(closed::setup(seed, tr)),
            Kind::AbomCorpus => Box::new(abom::setup(seed)),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_digests: bool,
}

impl Args {
    fn parse<I: Iterator<Item = String>>(mut it: I) -> Result<Args, String> {
        let (mut kind, mut seed, mut seconds, mut trace, mut write_digests) =
            (None, None, 10.0, false, false);
        while let Some(flag) = it.next() {
            if flag == "--write-digests" {
                write_digests = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => kind = Some(Kind::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    seconds = value.parse::<f64>().map_err(|_| bad())?;
                    if !(0.0..=3600.0).contains(&seconds) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            kind: kind.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            write_digests,
        })
    }
}

/// Everything one timed phase measured. Times are thread CPU time
/// unless named wall; pass times exclude the calibration samples taken
/// inside the pass.
#[derive(Debug, Default)]
struct Phase {
    pass_ns: Vec<u64>,
    pass_wall_ns: Vec<u64>,
    pass_factor: Vec<f64>,
    pass_ops: Vec<u64>,
    cell_ns: Vec<u64>,
    cell_norm_ns: Vec<u64>,
    pass_cells: Vec<usize>,
    calib_ns: u64,
    attempted: u64,
    failed: u64,
    last: Option<Pass>,
}

/// Decides which cells of a pass failed: the workload's own checks,
/// panics, and digests that differ from the warm-up pass or from the
/// reference file.
struct Checker {
    name: &'static str,
    warm: Vec<Option<u64>>,
    reference: Option<BTreeMap<usize, u64>>,
    messages: BTreeSet<String>,
}

impl Checker {
    fn failed_cells(&mut self, pass: &Pass) -> BTreeSet<usize> {
        let mut failed = BTreeSet::new();
        let mut note = |cell: usize, msg: String| {
            failed.insert(cell);
            self.messages.insert(msg);
        };
        for (i, why) in &pass.failures {
            note(*i, format!("{} cell {i}: {why}", self.name));
        }
        let digests: Vec<Option<u64>> = pass.cells.iter().map(|c| c.map(|c| c.digest)).collect();
        for (i, (now, warm)) in digests.iter().zip(&self.warm).enumerate() {
            match (now, warm) {
                (Some(a), Some(b)) if a != b => {
                    note(
                        i,
                        format!(
                            "{} cell {i}: digest {a:016x} differs from the warm-up pass {b:016x}",
                            self.name
                        ),
                    );
                }
                (None, _) => note(i, format!("{} cell {i}: no result", self.name)),
                _ => {}
            }
        }
        if let Some(reference) = &self.reference {
            for (i, msg) in digest::mismatches(self.name, &digests, reference) {
                note(i, msg);
            }
        }
        failed
    }
}

/// Builds a workload's inputs, timing each set-up.
struct Setups<'a> {
    kind: Kind,
    seed: u64,
    dir: &'a Path,
    ns: Vec<u64>,
    /// Each set-up's time normalised by the host-speed factor in force.
    norm_ns: Vec<u64>,
}

impl Setups<'_> {
    fn build(&mut self, tr: &Tracer, factor: f64) -> Box<dyn Workload> {
        let t0 = clock::Cpu::start();
        let w = tr.span("runner.setup", None, || {
            self.kind.setup(self.seed, tr, self.dir)
        });
        let ns = t0.elapsed_ns();
        self.ns.push(ns);
        self.norm_ns.push((ns as f64 * factor) as u64);
        w
    }
}

/// Repeats whole passes until `budget` has elapsed (at least one). A
/// timed set-up follows each pass, outside the pass's time.
fn run_phase(
    w: &mut dyn Workload,
    tr: &Tracer,
    budget: Duration,
    checker: &mut Checker,
    setups: &mut Setups<'_>,
) -> io::Result<Phase> {
    let mut phase = Phase::default();
    let start = Instant::now();
    loop {
        calib::start_pass();
        let (wall, cpu) = (Instant::now(), clock::Cpu::start());
        let pass = tr.span("runner.pass", None, || w.pass(tr))?;
        let (wall_ns, cpu_ns) = (nanos(wall.elapsed()), cpu.elapsed_ns());
        let cal = calib::end_pass();
        let factor = cal.factor();
        phase.pass_ns.push(cpu_ns.saturating_sub(cal.spent_ns));
        phase
            .pass_wall_ns
            .push(wall_ns.saturating_sub(cal.spent_ns));
        phase.pass_factor.push(factor);
        phase.calib_ns += cal.spent_ns;
        phase.pass_ops.push(pass.ops());
        for c in pass.cells.iter().flatten() {
            let ns = c.timing.ns;
            phase.cell_ns.push(ns);
            let local = cal.cell_factor(c.timing.calib_mark);
            phase.cell_norm_ns.push((ns as f64 * local) as u64);
        }
        phase.pass_cells.push(pass.cells.iter().flatten().count());
        phase.attempted += pass.cells.len() as u64;
        phase.failed += checker.failed_cells(&pass).len() as u64;
        phase.last = Some(pass);
        drop(setups.build(&Tracer::new(false), factor));
        if start.elapsed() >= budget {
            return Ok(phase);
        }
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Root of the checkout this binary was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// The outcome of a whole run, before printing.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    messages: Vec<String>,
    notes: Vec<String>,
    spans: Vec<trace::Span>,
}

fn run(
    args: &Args,
    reference: Option<BTreeMap<usize, u64>>,
    out_dir: &Path,
) -> io::Result<Outcome> {
    let name = args.kind.name();
    let scratch = Scratch(out_dir.join(format!("tmp-{}-{name}", std::process::id())));
    let _ = fs::remove_dir_all(&scratch.0);

    // Set-up, repeated; the traced run keeps these set-ups' spans.
    let setup_tracer = Tracer::new(args.trace);
    let mut setups = Setups {
        kind: args.kind,
        seed: args.seed,
        dir: &scratch.0,
        ns: Vec::new(),
        norm_ns: Vec::new(),
    };
    calib::start_pass();
    let mut built = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        built.push(setups.build(&setup_tracer, 1.0));
    }
    let factor = calib::end_pass().factor();
    for ns in &mut setups.norm_ns {
        *ns = (*ns as f64 * factor) as u64;
    }
    let mut w = built.pop().expect("at least one set-up");
    drop(built);

    // Warm-up: fills thread-local arenas and records each cell's digest.
    let off = Tracer::new(false);
    let warm = w.pass(&off)?;
    let mut checker = Checker {
        name,
        warm: warm.cells.iter().map(|c| c.map(|c| c.digest)).collect(),
        reference,
        messages: BTreeSet::new(),
    };
    let warm_failures = checker.failed_cells(&warm).len();
    // The workload's footprint: set-ups plus one full pass. Later passes
    // recycle the same arenas; reading the mark at the end would add the
    // benchmark's own per-sample bookkeeping, which grows with host speed.
    let rss_mib = host::peak_rss_mib().unwrap_or(0.0);

    let budget = Duration::from_secs_f64(args.seconds);
    let (untraced, traced, traced_spans) = if args.trace {
        let on = Tracer::new(true);
        let untraced = run_phase(w.as_mut(), &off, budget / 2, &mut checker, &mut setups)?;
        let traced = run_phase(w.as_mut(), &on, budget / 2, &mut checker, &mut setups)?;
        (untraced, Some(traced), on.spans())
    } else {
        (
            run_phase(w.as_mut(), &off, budget, &mut checker, &mut setups)?,
            None,
            Vec::new(),
        )
    };

    let measured = traced.as_ref().unwrap_or(&untraced);
    let last = measured
        .last
        .as_ref()
        .expect("a phase runs at least one pass");
    let mut failed = untraced.failed + traced.as_ref().map_or(0, |t| t.failed);
    let attempted = untraced.attempted + traced.as_ref().map_or(0, |t| t.attempted);
    let mut late = BTreeSet::new();
    for (i, why) in w.final_checks(last) {
        checker.messages.insert(format!("{name} cell {i}: {why}"));
        late.insert(i);
    }
    failed = (failed + late.len() as u64).min(attempted);

    let setup_spans = setup_tracer.spans();
    let metrics = match &traced {
        None => metrics::end_to_end(
            &untraced.summary(),
            &setups.norm_ns,
            rss_mib,
            failed,
            attempted,
        ),
        Some(t) => metrics::per_layer(
            &untraced.summary(),
            &t.summary(),
            &traced_spans,
            &setup_spans,
            SETUPS,
            &last.counts,
        ),
    };
    let blocks = metrics::blocks(&measured.pass_cells);
    let fewest = blocks.iter().map(|&(_, n)| n).min().unwrap_or(0);
    let beyond = fewest - metrics::rank(fewest, 0.99);
    let mut notes = vec![format!(
        "passes {} (warm-up excluded), cells timed {}, p99 blocks {} (at least {beyond} cells beyond p99 in each)",
        measured.pass_ns.len(),
        measured.cell_ns.len(),
        blocks.len(),
    )];
    if beyond < 10 {
        notes.push("warning: fewer than ten cells lie beyond p99; raise --seconds".to_owned());
    }
    notes.push(untraced.summary().raw_line(&setups.ns));
    notes.push(format!(
        "peak RSS after the warm-up pass {rss_mib:.3} MiB, at the end {:.3} MiB",
        host::peak_rss_mib().unwrap_or(0.0)
    ));
    if let Some(t) = &traced {
        notes.extend(metrics::share_table(&traced_spans, &t.summary()));
    }
    Ok(Outcome {
        correct: failed == 0 && warm_failures == 0,
        attempted,
        failed,
        metrics,
        messages: checker.messages.into_iter().collect(),
        notes,
        spans: traced_spans,
    })
}

impl Phase {
    fn summary(&self) -> metrics::PhaseSummary<'_> {
        metrics::PhaseSummary {
            pass_ns: &self.pass_ns,
            pass_wall_ns: &self.pass_wall_ns,
            pass_factor: &self.pass_factor,
            pass_ops: &self.pass_ops,
            cell_ns: &self.cell_ns,
            cell_norm_ns: &self.cell_norm_ns,
            pass_cells: &self.pass_cells,
            calib_ns: self.calib_ns,
        }
    }
}

/// Records the reference digests for the default seed.
fn write_digests(args: &Args, dir: &Path, out_dir: &Path) -> io::Result<()> {
    let scratch = Scratch(out_dir.join(format!("tmp-{}-digests", std::process::id())));
    let off = Tracer::new(false);
    let mut w = args.kind.setup(args.seed, &off, &scratch.0);
    let pass = w.pass(&off)?;
    if !pass.failures.is_empty() {
        return Err(io::Error::other(format!(
            "cells failed, digests not written: {:?}",
            pass.failures
        )));
    }
    let digests: Vec<u64> = pass
        .cells
        .iter()
        .map(|c| c.map_or(0, |c| c.digest))
        .collect();
    fs::create_dir_all(dir)?;
    let path = digest::reference_path(dir, args.kind.name());
    digest::store(&path, args.kind.name(), args.seed, &digests)?;
    println!("wrote {} digests to {}", digests.len(), path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = repo_root();
    let out_dir = root.join(".perfbench_out");
    let digest_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("digests");
    if let Err(e) = fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(1);
    }
    if args.write_digests {
        if args.seed != digest::DEFAULT_SEED {
            eprintln!(
                "error: reference digests are recorded at the default seed {}",
                digest::DEFAULT_SEED
            );
            return ExitCode::from(2);
        }
        return match write_digests(&args, &digest_dir, &out_dir) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(1)
            }
        };
    }
    let reference = if args.seed == digest::DEFAULT_SEED {
        match digest::load(&digest::reference_path(&digest_dir, args.kind.name())) {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!("error: reference digests for the default seed: {e}");
                return ExitCode::from(1);
            }
        }
    } else {
        None
    };

    let fingerprint = host::Fingerprint::collect(&root, 1, args.seed);
    println!("# fingerprint {}", fingerprint.to_json());
    let outcome = match run(&args, reference, &out_dir) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for msg in outcome.messages.iter().take(20) {
        eprintln!("FAIL {msg}");
    }
    let result = metrics::result_json(
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        &outcome.metrics,
    );
    let tag = format!(
        "{}-seed{}-trace{}",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    );
    let record = format!(
        "{{\"fingerprint\":{},\"result\":{result}}}\n",
        fingerprint.to_json()
    );
    if let Err(e) = fs::write(out_dir.join(format!("result-{tag}.json")), record) {
        eprintln!("note: cannot write the result record: {e}");
    }
    if args.trace {
        let path = out_dir.join(format!("spans-{}.json", args.kind.name()));
        if let Err(e) = trace::write_spans(&path, &outcome.spans) {
            eprintln!("note: cannot write {}: {e}", path.display());
        }
    }
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload closed-loop --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.kind, Kind::ClosedLoop);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload abom-corpus").is_err());
        assert!(args("--workload abom-corpus --seed 1 --trace 2").is_err());
        assert!(args("--workload abom-corpus --seed 1 --bogus 2").is_err());
    }

    /// A deliberately wrong reference digest fails exactly that cell and
    /// names it.
    #[test]
    fn wrong_reference_digest_fails_and_names_the_cell() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("digests");
        let mut reference = digest::load(&digest::reference_path(&dir, "abom-corpus")).unwrap();
        let clean = run(
            &Args {
                kind: Kind::AbomCorpus,
                seed: digest::DEFAULT_SEED,
                seconds: 0.0,
                trace: false,
                write_digests: false,
            },
            Some(reference.clone()),
            &repo_root().join(".perfbench_out"),
        )
        .unwrap();
        assert!(clean.correct, "{:?}", clean.messages);
        assert_eq!(clean.failed, 0);

        *reference.get_mut(&5).unwrap() ^= 1;
        let broken = run(
            &Args {
                kind: Kind::AbomCorpus,
                seed: digest::DEFAULT_SEED,
                seconds: 0.0,
                trace: false,
                write_digests: false,
            },
            Some(reference),
            &repo_root().join(".perfbench_out"),
        )
        .unwrap();
        assert!(!broken.correct);
        assert_eq!(broken.failed, 1);
        let ok_frac = broken
            .metrics
            .iter()
            .find(|m| m.name == "cell_ok_frac")
            .unwrap()
            .value;
        assert!(ok_frac < 1.0);
        assert!(
            broken
                .messages
                .iter()
                .any(|m| m.starts_with("abom-corpus cell 5:")),
            "{:?}",
            broken.messages
        );
    }
}
