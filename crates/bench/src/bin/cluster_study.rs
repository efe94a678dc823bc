//! Cluster study — per-host container density, tail latency and drop
//! rate for 100+ simulated hosts × 1000+ X-Container/Docker/gVisor
//! domains under open-loop traffic from over a million modelled clients
//! (extension; DESIGN.md §4g).
//!
//! Flags: `--quick` runs the 8-host CI smoke configuration instead of
//! the full 120-host study; `--jobs N` controls the worker pool (the
//! output is byte-identical at every value).
//!
//! Crash-safe flags (DESIGN.md §4j): `--resume` replays completed cells
//! from the journal and executes only the missing ones; `--fresh`
//! discards any journal first. Both checkpoint each cell as it
//! completes and stop gracefully on SIGINT (exit 3, resumable).
//! `--halt-after N` and `--max-wall-ms N` bound a checkpointing run for
//! testing and operations.

use std::path::Path;

use xc_bench::harness::{cluster, Journaled};
use xc_bench::journal::{ResumeArgs, JOURNAL_ROOT};
use xc_bench::record;
use xc_bench::runner::Runner;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let resume = ResumeArgs::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("cluster_study: {e}");
        std::process::exit(2);
    });
    let runner = Runner::from_args();
    let name = if quick {
        "cluster_study_quick"
    } else {
        "cluster_study"
    };

    if resume.journaled() {
        let root = Path::new(JOURNAL_ROOT);
        match cluster::run_journaled(&runner, quick, root, name, &resume) {
            Ok(Journaled::Complete {
                out,
                replayed,
                executed,
            }) => {
                eprintln!(
                    "{name}: {replayed} cells replayed from the journal, {executed} executed"
                );
                print!("{}", out.text);
                record("cluster", &out.findings);
            }
            Ok(Journaled::Interrupted { completed, total }) => {
                eprintln!(
                    "{name}: interrupted after {completed}/{total} cells; \
                     rerun with --resume to continue"
                );
                std::process::exit(3);
            }
            Err(e) => {
                eprintln!("{name}: journal error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let out = cluster::run(&runner, quick);
    print!("{}", out.text);
    record("cluster", &out.findings);
}
