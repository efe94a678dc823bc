//! The combined acceptance pass: every table/figure reduced to its
//! headline paper-vs-measured findings in one summary table, with a
//! nonzero exit status when any finding leaves its acceptance band.
//!
//! The experiment logic lives in [`xc_bench::harness::all_experiments`]
//! and runs through the deterministic parallel [`Runner`] (`--jobs N`,
//! default: available parallelism); stdout is byte-identical at every
//! `--jobs` value (`scripts/check.sh` diffs `--jobs 1` against
//! `--jobs N`).
//!
//! Crash-safe flags (DESIGN.md §4j): `--resume` replays completed
//! measurement groups from the journal, `--fresh` discards it first;
//! both checkpoint each group and stop gracefully on SIGINT (exit 3,
//! resumable), and keep the acceptance-band exit status.

use std::path::Path;

use xc_bench::harness::{all_experiments, Journaled};
use xc_bench::journal::{ResumeArgs, JOURNAL_ROOT};
use xc_bench::record;
use xc_bench::runner::Runner;

fn main() {
    let resume = ResumeArgs::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("all_experiments: {e}");
        std::process::exit(2);
    });
    let runner = Runner::from_args();

    if resume.journaled() {
        let root = Path::new(JOURNAL_ROOT);
        match all_experiments::run_journaled(&runner, root, "all_experiments", &resume) {
            Ok(Journaled::Complete {
                out,
                replayed,
                executed,
            }) => {
                eprintln!(
                    "all_experiments: {replayed} groups replayed from the journal, \
                     {executed} executed"
                );
                print!("{}", out.text);
                record("all_experiments", &out.findings);
                let out_of_band = out.findings.iter().filter(|f| !f.in_band).count();
                if out_of_band > 0 {
                    std::process::exit(1);
                }
            }
            Ok(Journaled::Interrupted { completed, total }) => {
                eprintln!(
                    "all_experiments: interrupted after {completed}/{total} groups; \
                     rerun with --resume to continue"
                );
                std::process::exit(3);
            }
            Err(e) => {
                eprintln!("all_experiments: journal error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let out = all_experiments::run(&runner);
    print!("{}", out.text);
    record("all_experiments", &out.findings);
    let out_of_band = out.findings.iter().filter(|f| !f.in_band).count();
    if out_of_band > 0 {
        std::process::exit(1);
    }
}
