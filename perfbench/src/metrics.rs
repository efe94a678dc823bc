//! The metrics a run reports, computed from its timings, spans and
//! per-pass counts, and the result line that carries them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::{layer_of, self_times, Span};
use crate::workload::{frac, Counts};

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// End-to-end metrics, printed by the untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("sim_ops_per_s", "ops/s"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_p99", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cell_ok_frac", "ratio"),
];

/// Layers whose share of the traced timed phase is reported.
const SHARE_LAYERS: [&str; 10] = [
    "cluster", "stats", "report", "journal", "http", "chaos", "verify", "abom", "runner", "check",
];

/// Per-layer metrics, printed by the traced run; every workload prints
/// all of them (0 on layers it does not cross).
pub const PER_LAYER: [(&str, &str); 53] = [
    ("costs.derive_ms", "ms"),
    ("costs.derives", "count"),
    ("cluster.sim_ms", "ms"),
    ("cluster.requests", "count"),
    ("cluster.dropped", "count"),
    ("cluster.ns_per_request", "ns"),
    ("cluster.arena_reuse_frac", "ratio"),
    ("stats.merge_ms", "ms"),
    ("stats.merges", "count"),
    ("report.render_ms", "ms"),
    ("journal.append_ms", "ms"),
    ("journal.bytes", "bytes"),
    ("journal.replay_ms", "ms"),
    ("journal.replayed", "count"),
    ("http.loop_ms", "ms"),
    ("http.requests", "count"),
    ("http.cache_hits", "count"),
    ("http.cache_misses", "count"),
    ("http.cache_hit_frac", "ratio"),
    ("http.arena_reuse_frac", "ratio"),
    ("chaos.sim_ms", "ms"),
    ("chaos.requests", "count"),
    ("chaos.event_sends", "count"),
    ("chaos.hypercalls", "count"),
    ("chaos.resends", "count"),
    ("chaos.abandoned", "count"),
    ("chaos.arena_reuse_frac", "ratio"),
    ("verify.analyze_ms", "ms"),
    ("verify.sites", "count"),
    ("verify.unknown_sites", "count"),
    ("verify.reverify_ms", "ms"),
    ("verify.cache_hit_frac", "ratio"),
    ("abom.offline_ms", "ms"),
    ("abom.detours", "count"),
    ("abom.online_ms", "ms"),
    ("abom.syscalls", "count"),
    ("abom.ns_per_syscall", "ns"),
    ("abom.patched_frac", "ratio"),
    ("runner.overhead_ms", "ms"),
    ("check.ms", "ms"),
    ("share.cluster", "ratio"),
    ("share.stats", "ratio"),
    ("share.report", "ratio"),
    ("share.journal", "ratio"),
    ("share.http", "ratio"),
    ("share.chaos", "ratio"),
    ("share.verify", "ratio"),
    ("share.abom", "ratio"),
    ("share.runner", "ratio"),
    ("share.check", "ratio"),
    ("trace.overhead_ops_per_s", "ops/s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans_per_pass", "count"),
];

/// The timings of one phase: raw host times, and the host-speed factor
/// of each pass (see `calib`) with the cell times it normalises.
pub struct PhaseSummary<'a> {
    /// Pass times (thread CPU), net of the calibration samples inside them.
    pub pass_ns: &'a [u64],
    /// The same passes in wall time.
    pub pass_wall_ns: &'a [u64],
    pub pass_factor: &'a [f64],
    pub pass_ops: &'a [u64],
    pub cell_ns: &'a [u64],
    pub cell_norm_ns: &'a [u64],
    /// Timed cells of each pass, in pass order.
    pub pass_cells: &'a [usize],
    /// Host time of the calibration samples taken inside the passes.
    pub calib_ns: u64,
}

impl PhaseSummary<'_> {
    /// Median over passes of simulated ops per host second; `normalised`
    /// scales each pass's time by its host-speed factor.
    pub fn ops_per_s(&self, normalised: bool) -> f64 {
        let mut rates: Vec<f64> = self
            .pass_ops
            .iter()
            .zip(self.pass_ns)
            .zip(self.pass_factor)
            .map(|((&ops, &ns), &f)| {
                frac(
                    ops as f64 * 1e9,
                    ns as f64 * if normalised { f } else { 1.0 },
                )
            })
            .collect();
        rates.sort_by(f64::total_cmp);
        median(&rates)
    }

    /// Median host-speed factor over passes.
    pub fn factor(&self) -> f64 {
        let mut f = self.pass_factor.to_vec();
        f.sort_by(f64::total_cmp);
        median(&f)
    }

    /// Human-readable line with the raw (not normalised) end-to-end
    /// timings, and the wall-clock throughput.
    pub fn raw_line(&self, setup_ns: &[u64]) -> String {
        let mut setup: Vec<f64> = setup_ns.iter().map(|&ns| ns as f64 / 1e9).collect();
        setup.sort_by(f64::total_cmp);
        let mut wall: Vec<f64> = self
            .pass_ops
            .iter()
            .zip(self.pass_wall_ns)
            .map(|(&ops, &ns)| frac(ops as f64 * 1e9, ns as f64))
            .collect();
        wall.sort_by(f64::total_cmp);
        format!(
            "raw host time: sim_ops_per_s {:.6e}, cell_ms_p50 {:.4}, cell_ms_p99 {:.4}, setup_s {:.4e}; median host-speed factor {:.4}; wall-clock sim_ops_per_s {:.6e}",
            self.ops_per_s(false),
            quantile_ms(self.cell_ns, 0.50),
            blocked_quantile_ms(self.cell_ns, self.pass_cells, 0.99),
            median(&setup),
            self.factor(),
            median(&wall)
        )
    }
}

fn median(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank position (1-based) of quantile `q` among `n` samples.
pub fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

fn quantile_ms(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_unstable();
    s[rank(s.len(), q) - 1] as f64 / 1e6
}

/// Cells per block for `cell_ms_p99`: enough that ten lie beyond p99.
pub const P99_BLOCK: usize = 1000;

/// Blocks of consecutive whole passes holding at least [`P99_BLOCK`]
/// cells each, as `(first cell, cells)`; cells after the last full block
/// join no block. A run shorter than one block is one block.
pub fn blocks(pass_cells: &[usize]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let (mut start, mut len) = (0, 0);
    for &n in pass_cells {
        len += n;
        if len >= P99_BLOCK {
            out.push((start, len));
            start += len;
            len = 0;
        }
    }
    if out.is_empty() {
        out.push((0, len));
    }
    out
}

/// The median over [`blocks`] of each block's quantile `q`: a burst of
/// host noise moves one block's tail, not the run's.
fn blocked_quantile_ms(samples: &[u64], pass_cells: &[usize], q: f64) -> f64 {
    let mut per_block: Vec<f64> = blocks(pass_cells)
        .into_iter()
        .map(|(start, len)| quantile_ms(&samples[start..start + len], q))
        .collect();
    per_block.sort_by(f64::total_cmp);
    median(&per_block)
}

fn named(table: &[(&'static str, &'static str)], values: &BTreeMap<&str, f64>) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect()
}

/// The six end-to-end metrics of an untraced run. Host times are
/// normalised to the nominal host speed (`setup_norm_ns` already is).
pub fn end_to_end(
    phase: &PhaseSummary<'_>,
    setup_norm_ns: &[u64],
    rss_mib: f64,
    failed: u64,
    attempted: u64,
) -> Vec<Metric> {
    let mut setup: Vec<f64> = setup_norm_ns.iter().map(|&ns| ns as f64 / 1e9).collect();
    setup.sort_by(f64::total_cmp);
    let values = BTreeMap::from([
        ("sim_ops_per_s", phase.ops_per_s(true)),
        ("cell_ms_p50", quantile_ms(phase.cell_norm_ns, 0.50)),
        (
            "cell_ms_p99",
            blocked_quantile_ms(phase.cell_norm_ns, phase.pass_cells, 0.99),
        ),
        ("setup_s", median(&setup)),
        ("peak_rss_mb", rss_mib),
        ("cell_ok_frac", 1.0 - frac(failed as f64, attempted as f64)),
    ]);
    named(&END_TO_END, &values)
}

/// The per-layer metrics of a traced run: self times per pass from the
/// traced phase, set-up self times per set-up, counts per pass, and the
/// tracing overhead against the run's untraced phase.
pub fn per_layer(
    untraced: &PhaseSummary<'_>,
    traced: &PhaseSummary<'_>,
    spans: &[Span],
    setup_spans: &[Span],
    setups: usize,
    counts: &Counts,
) -> Vec<Metric> {
    let passes = traced.pass_ns.len().max(1) as f64;
    let st = self_times(spans);
    let ns = |name: &str| st.get(name).map_or(0.0, |t| t.self_ns as f64);
    let ms = |name: &str| ns(name) / 1e6 / passes;
    let c = |key: &str| counts.get(key).copied().unwrap_or(0.0);
    let setup_st = self_times(setup_spans);
    let derive = setup_st.get("costs.derive").copied().unwrap_or_default();
    let per_setup = setups.max(1) as f64;

    let mut v: BTreeMap<&str, f64> = BTreeMap::new();
    v.insert("costs.derive_ms", derive.self_ns as f64 / 1e6 / per_setup);
    v.insert("costs.derives", derive.count as f64 / per_setup);
    v.insert("cluster.sim_ms", ms("cluster.sim"));
    v.insert(
        "cluster.ns_per_request",
        frac(ns("cluster.sim") / passes, c("cluster.requests")),
    );
    v.insert(
        "cluster.arena_reuse_frac",
        frac(c("cluster.arena_reuses"), c("cluster.arena_worlds")),
    );
    v.insert("stats.merge_ms", ms("stats.merge"));
    v.insert("report.render_ms", ms("report.render"));
    v.insert("journal.append_ms", ms("journal.append"));
    v.insert("journal.replay_ms", ms("journal.replay"));
    v.insert("http.loop_ms", ms("http.loop"));
    v.insert(
        "http.cache_hit_frac",
        frac(
            c("http.cache_hits"),
            c("http.cache_hits") + c("http.cache_misses"),
        ),
    );
    v.insert(
        "http.arena_reuse_frac",
        frac(c("http.arena_reuses"), c("http.arena_worlds")),
    );
    v.insert("chaos.sim_ms", ms("chaos.sim"));
    v.insert(
        "chaos.arena_reuse_frac",
        frac(c("chaos.arena_reuses"), c("chaos.arena_worlds")),
    );
    v.insert("verify.analyze_ms", ms("verify.analyze"));
    v.insert("verify.reverify_ms", ms("verify.reverify"));
    v.insert(
        "verify.cache_hit_frac",
        frac(c("verify.cache_hits"), c("verify.cache_lookups")),
    );
    v.insert("abom.offline_ms", ms("abom.offline"));
    v.insert("abom.online_ms", ms("abom.online"));
    v.insert(
        "abom.ns_per_syscall",
        frac(ns("abom.online") / passes, c("abom.syscalls")),
    );
    v.insert(
        "abom.patched_frac",
        frac(c("abom.patched"), c("verify.sites")),
    );
    // The calibration samples between cells fall inside the pass span.
    v.insert(
        "runner.overhead_ms",
        (ns("runner.pass") - traced.calib_ns as f64).max(0.0) / 1e6 / passes,
    );
    v.insert(
        "check.ms",
        st.iter()
            .filter(|(n, _)| layer_of(n) == "check")
            .map(|(_, t)| t.self_ns as f64)
            .sum::<f64>()
            / 1e6
            / passes,
    );
    for (layer, share) in layer_shares(spans, traced) {
        if let Some(&(name, _)) = PER_LAYER
            .iter()
            .find(|(n, _)| n.strip_prefix("share.") == Some(layer))
        {
            v.insert(name, share);
        }
    }
    let (plain, with_spans) = (untraced.ops_per_s(true), traced.ops_per_s(true));
    v.insert("trace.overhead_ops_per_s", plain - with_spans);
    v.insert("trace.overhead_frac", frac(plain - with_spans, plain));
    v.insert("trace.spans_per_pass", spans.len() as f64 / passes);
    for (&key, &value) in counts {
        if PER_LAYER.iter().any(|(n, _)| *n == key) {
            v.insert(key, value);
        }
    }
    named(&PER_LAYER, &v)
}

/// Each layer's self time as a share of the traced phase's pass time,
/// in [`SHARE_LAYERS`] order. The calibration samples, which fall in the
/// runner's self time, are not part of any layer.
fn layer_shares(spans: &[Span], traced: &PhaseSummary<'_>) -> Vec<(&'static str, f64)> {
    let st = self_times(spans);
    let total: u64 = traced.pass_ns.iter().sum();
    SHARE_LAYERS
        .iter()
        .map(|&layer| {
            let mut ns: u64 = st
                .iter()
                .filter(|(n, _)| layer_of(n) == layer)
                .map(|(_, t)| t.self_ns)
                .sum();
            if layer == "runner" {
                ns = ns.saturating_sub(traced.calib_ns);
            }
            (layer, frac(ns as f64, total as f64))
        })
        .collect()
}

/// Human-readable lines: each layer's measured share of the traced
/// timed phase.
pub fn share_table(spans: &[Span], traced: &PhaseSummary<'_>) -> Vec<String> {
    let total: u64 = traced.pass_ns.iter().sum();
    let mut out = vec![format!(
        "layer self-time shares of the traced phase ({:.1} ms):",
        total as f64 / 1e6
    )];
    for (layer, share) in layer_shares(spans, traced) {
        out.push(format!("  {layer:<8} {:>7.3}%", share * 100.0));
    }
    out
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use xcontainers::prelude::Json;

    #[test]
    fn nearest_rank_quantiles() {
        let samples: Vec<u64> = (1..=1000).map(|i| i * 1_000_000).collect();
        assert_eq!(quantile_ms(&samples, 0.5), 500.0);
        assert_eq!(quantile_ms(&samples, 0.99), 990.0);
        assert_eq!(rank(1000, 0.99), 990);
        assert_eq!(median(&[1.0, 2.0, 4.0, 8.0]), 3.0);
    }

    #[test]
    fn p99_is_the_median_of_block_tails() {
        assert_eq!(
            blocks(&[600, 600, 600, 600, 10]),
            vec![(0, 1200), (1200, 1200)]
        );
        assert_eq!(blocks(&[12, 12]), vec![(0, 24)]);
        // Three blocks of 1000 cells; one has a noisy tail.
        let mut samples: Vec<u64> = Vec::new();
        for tail in [2_000_000, 50_000_000, 2_000_000] {
            samples.extend((0..990).map(|_| 1_000_000));
            samples.extend((0..10).map(|_| tail));
        }
        assert_eq!(
            blocked_quantile_ms(&samples, &[1000, 1000, 1000], 0.99),
            1.0
        );
        assert_eq!(
            blocked_quantile_ms(&samples, &[1000, 1000, 1000], 0.995),
            2.0
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(
            true,
            3,
            0,
            &[Metric {
                name: "setup_s",
                value: 0.5,
                unit: "s",
            }],
        );
        let j = Json::parse(&line).unwrap();
        for key in ["correct", "attempted", "failed", "metrics"] {
            assert!(j.get(key).is_some(), "{key}");
        }
        assert_eq!(
            j.get("metrics")
                .unwrap()
                .get("setup_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_num(),
            Some(0.5)
        );
    }

    /// The metric tables here and in `BENCHMARK.json` name the same
    /// metrics with the same units, in the same order.
    #[test]
    fn tables_match_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let j = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            j.get(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).unwrap().as_str().unwrap().to_owned();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = j
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        let kinds: Vec<&str> = crate::Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(workloads, kinds);
    }
}
