//! Per-cell digests of simulated statistics, and the reference digests
//! kept beside the benchmark for the default seed.
//!
//! A digest is FNV-1a (`xc_bench::journal::fingerprint`) over a cell's
//! counters, histogram buckets and verdict tallies. The model is deterministic, so a change meant only
//! to make it faster must leave every digest unchanged.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use xcontainers::prelude::Histogram;

/// Seed at which the reference digests were recorded.
pub const DEFAULT_SEED: u64 = 2019;

/// Appends a histogram's exact totals and every non-empty bucket to the
/// words a cell digest is taken over.
pub fn push_histogram(words: &mut Vec<u64>, h: &Histogram) {
    let c = h.checkpoint();
    words.extend([c.total, c.sum as u64, (c.sum >> 64) as u64, c.min, c.max]);
    for &(i, n) in &c.counts {
        words.extend([u64::from(i), n]);
    }
}

/// The reference file of one workload.
pub fn reference_path(dir: &Path, workload: &str) -> PathBuf {
    dir.join(format!("{workload}.txt"))
}

/// Reads a reference file.
pub fn load(path: &Path) -> io::Result<BTreeMap<usize, u64>> {
    parse(&std::fs::read_to_string(path)?)
}

/// Parses `<cell> <hex digest>` lines (`#` starts a comment).
fn parse(body: &str) -> io::Result<BTreeMap<usize, u64>> {
    let bad = |line: &str| io::Error::new(io::ErrorKind::InvalidData, format!("bad line {line:?}"));
    let mut out = BTreeMap::new();
    for line in body.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (cell, hex) = line.split_once(' ').ok_or_else(|| bad(line))?;
        let cell = cell.parse().map_err(|_| bad(line))?;
        let digest = u64::from_str_radix(hex.trim(), 16).map_err(|_| bad(line))?;
        out.insert(cell, digest);
    }
    Ok(out)
}

/// Writes the reference file for `digests` (index order).
pub fn store(path: &Path, workload: &str, seed: u64, digests: &[u64]) -> io::Result<()> {
    std::fs::write(path, render(workload, seed, digests))
}

fn render(workload: &str, seed: u64, digests: &[u64]) -> String {
    let mut body = format!(
        "# Per-cell digests of workload {workload} at seed {seed}.\n\
         # Regenerate only when the simulated statistics change on purpose:\n\
         #   cargo run --release --manifest-path perfbench/Cargo.toml -- \\\n\
         #     --workload {workload} --seed {seed} --write-digests\n"
    );
    for (i, d) in digests.iter().enumerate() {
        let _ = writeln!(body, "{i} {d:016x}");
    }
    body
}

/// Cells whose digest differs from the reference, with a message naming
/// the workload and cell. A cell missing from the reference fails too.
pub fn mismatches(
    workload: &str,
    digests: &[Option<u64>],
    reference: &BTreeMap<usize, u64>,
) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (i, d) in digests.iter().enumerate() {
        let Some(d) = d else { continue };
        match reference.get(&i) {
            Some(r) if r == d => {}
            Some(r) => out.push((
                i,
                format!("{workload} cell {i}: digest {d:016x} != reference {r:016x}"),
            )),
            None => out.push((i, format!("{workload} cell {i}: no reference digest"))),
        }
    }
    if reference.len() != digests.len() {
        out.push((
            0,
            format!(
                "{workload}: {} reference digests for {} cells",
                reference.len(),
                digests.len()
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_words_cover_every_bucket() {
        let mut h = Histogram::new();
        h.record(5);
        h.record(5_000_000);
        let mut words = Vec::new();
        push_histogram(&mut words, &h);
        assert_eq!(words.len(), 5 + 2 * 2);
        assert_eq!(words[0], 2);
    }

    #[test]
    fn mismatch_names_the_cell() {
        let reference: BTreeMap<usize, u64> = [(0, 1), (1, 2)].into_iter().collect();
        let m = mismatches("w", &[Some(1), Some(3)], &reference);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].0, 1);
        assert!(m[0].1.contains("w cell 1"));
    }

    #[test]
    fn render_then_parse_round_trips() {
        let loaded = parse(&render("w", 5, &[0xdead, 0xbeef])).unwrap();
        assert_eq!(
            loaded.into_iter().collect::<Vec<_>>(),
            vec![(0, 0xdead), (1, 0xbeef)]
        );
    }
}
