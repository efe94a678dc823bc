//! `closed-loop`: the Figure 3 grid (2 clouds × 3 profiles × the
//! platform matrix, 50 connections, 300 ms) through
//! `ClosedLoopCache::get_or_run` with a fresh cache per pass, then the
//! full chaos sweep (3 platforms × 4 fault rates, 4 s) through
//! `run_chaos` over the xen event channels and grant tables.
//!
//! A cell is one `get_or_run` or one `run_chaos` call; an op is one
//! completed simulated request. A result served from the cache counts,
//! because the user receives it.

use std::io;

use xc_bench::{clouds, platform_matrix};
use xcontainers::faults::chaos::arena_counters as chaos_arena;
use xcontainers::prelude::*;
use xcontainers::workloads::apps::figure3_profiles;
use xcontainers::workloads::http::arena_counters as http_arena;

use crate::digest::push_histogram;
use crate::trace::Tracer;
use crate::workload::{frac, run_cells, CellOut, Failures, Pass, Timing, Workload};
use xc_bench::journal::fingerprint;

const CONNECTIONS: u32 = 50;
const DURATION: Nanos = Nanos::from_millis(300);

/// Chaos sweep shape, as in `chaos_study` (full mode).
const RATES: [f64; 4] = [0.0, 0.002, 0.01, 0.05];
const CHAOS_DURATION: Nanos = Nanos::from_secs(4);
const CORPUS_SITES: u64 = 128;
const SYSCALLS_PER_REQUEST: u64 = 64;
const APP_COMPUTE: Nanos = Nanos::from_micros(20);

/// One Figure 3 deployment: its derived cost table and its role in the
/// (cloud, profile) group it belongs to.
struct Fig3Key {
    group: usize,
    baseline: bool,
    x_container: bool,
    table: PlatformCosts,
}

/// The paper's band for X-Container throughput over patched Docker.
fn band(profile: &str) -> (f64, f64) {
    match profile {
        "nginx-static" => (1.0, 1.9),
        "memcached" => (1.2, 2.6),
        _ => (0.8, 1.5),
    }
}

struct ChaosCell {
    platform: usize,
    rate: f64,
    params: ChaosParams,
    plan: FaultPlan,
    jitter_seed: u64,
}

enum Out {
    Fig3 {
        result: ClosedLoopResult,
        miss: bool,
    },
    Chaos(Box<ChaosResult>),
}

pub struct ClosedLoop {
    seed: u64,
    keys: Vec<Fig3Key>,
    bands: Vec<(String, (f64, f64))>,
    chaos: Vec<ChaosCell>,
}

/// Chaos-world parameters for one platform, as `chaos_study` builds
/// them: service time from the platform's syscall costs, restart priced
/// at its spawn time.
fn chaos_params(platform: &Platform, costs: &CostModel) -> ChaosParams {
    let syscall = platform.syscall_cost(costs);
    let trapped = platform.syscall_cost_trapped(costs);
    ChaosParams {
        connections: 32,
        parallelism: 4,
        duration: CHAOS_DURATION,
        rtt: Nanos::from_millis(1),
        base_service: APP_COMPUTE
            + syscall.saturating_mul(SYSCALLS_PER_REQUEST)
            + platform.event_entry_cost(costs),
        service_jitter: Nanos::from_micros(5),
        corpus_sites: if platform.abom_enabled() {
            CORPUS_SITES
        } else {
            0
        },
        syscalls_per_request: SYSCALLS_PER_REQUEST,
        trap_extra: trapped.saturating_sub(syscall),
        payload_bytes: 4096,
        delay_max: Nanos::from_micros(100),
        resend_timeout: Nanos::from_millis(2),
        retry: RetryPolicy::event_default(),
        watchdog_period: Nanos::from_millis(10),
        watchdog_timeout: Nanos::from_millis(20),
        restart_cost: Container::new("chaos-server", platform.clone()).spawn_time(),
    }
}

/// Derives every Figure 3 cost table and builds the chaos cells.
pub fn setup(seed: u64, tr: &Tracer) -> ClosedLoop {
    let costs = CostModel::skylake_cloud();
    let mut keys = Vec::new();
    let mut bands = Vec::new();
    for cloud in clouds() {
        for profile in figure3_profiles() {
            let group = bands.len();
            bands.push((
                format!("{} {}", cloud.name(), profile.name),
                band(profile.name),
            ));
            // Default images: memcached runs four threads, the others one.
            let workers = if profile.name == "memcached" { 4 } else { 1 };
            let (baseline, matrix) = platform_matrix(cloud);
            let deployments =
                std::iter::once((baseline, true)).chain(matrix.into_iter().map(|p| (p, false)));
            for (platform, is_baseline) in deployments {
                let x_container =
                    platform.kind() == PlatformKind::XContainer && platform.is_patched();
                let server = ServerModel {
                    platform,
                    profile: profile.clone(),
                    workers,
                    cores: 4,
                };
                let table = tr.span("costs.derive", None, || {
                    PlatformCosts::derive(&server, &costs)
                });
                keys.push(Fig3Key {
                    group,
                    baseline: is_baseline,
                    x_container,
                    table,
                });
            }
        }
    }
    let platforms = [
        Platform::x_container(CloudEnv::AmazonEc2, true),
        Platform::x_container_no_abom(CloudEnv::AmazonEc2, true),
        Platform::xen_container(CloudEnv::AmazonEc2, true),
    ];
    let mut chaos = Vec::new();
    for (p, platform) in platforms.iter().enumerate() {
        let params = chaos_params(platform, &costs);
        for rate in RATES {
            let i = chaos.len() as u64;
            chaos.push(ChaosCell {
                platform: p,
                rate,
                params,
                plan: FaultPlan::for_cell(seed, i, FaultRates::scaled(rate)),
                jitter_seed: Rng::substream(seed, 0x1000 + i).next_u64(),
            });
        }
    }
    ClosedLoop {
        seed,
        keys,
        bands,
        chaos,
    }
}

fn loop_digest(r: &ClosedLoopResult) -> u64 {
    let mut words = vec![r.throughput_rps.to_bits()];
    push_histogram(&mut words, &r.latency);
    fingerprint("closed-loop/http", &words)
}

fn chaos_digest(r: &ChaosResult) -> u64 {
    let mut words = vec![
        r.issued,
        r.completed,
        r.abandoned,
        r.in_flight,
        r.resends,
        r.hypercall_retries,
        r.grant_faults,
        r.stalls,
        r.crashes,
        r.restarts,
        r.sends,
        r.deliveries,
        r.drops,
        r.pending,
        r.hypercalls,
        r.hypervisor_ns.as_nanos(),
        r.bytes_copied,
        r.live_grants,
        r.demoted,
        r.corpus_sites,
        r.duration.as_nanos(),
    ];
    words.extend(r.fault_stats.drawn);
    words.extend(r.fault_stats.injected);
    push_histogram(&mut words, &r.latency);
    push_histogram(&mut words, &r.recovery);
    fingerprint("closed-loop/chaos", &words)
}

impl ClosedLoop {
    fn cell(&self, i: usize, cache: &ClosedLoopCache, tr: &Tracer) -> Out {
        if let Some(key) = self.keys.get(i) {
            let misses = cache.misses();
            let result = tr.span("http.loop", Some(i), || {
                cache.get_or_run(&key.table, CONNECTIONS, DURATION, self.seed)
            });
            Out::Fig3 {
                result,
                miss: cache.misses() > misses,
            }
        } else {
            let c = &self.chaos[i - self.keys.len()];
            let r = tr.span("chaos.sim", Some(i), || {
                run_chaos(c.params, c.plan.clone(), c.jitter_seed)
            });
            Out::Chaos(Box::new(r))
        }
    }

    /// Fails the cells whose results break a Figure 3 or chaos finding.
    fn findings(&self, results: &[Option<(Out, Timing)>], pass: &mut Pass) {
        let k = self.keys.len();
        let tput = |i: usize| match &results[i] {
            Some((Out::Fig3 { result, .. }, _)) => Some(result.throughput_rps),
            _ => None,
        };
        for (group, (name, (lo, hi))) in self.bands.iter().enumerate() {
            let members = || {
                self.keys
                    .iter()
                    .enumerate()
                    .filter(move |(_, key)| key.group == group)
            };
            let Some((base_i, _)) = members().find(|(_, key)| key.baseline) else {
                continue;
            };
            for (xc_i, _) in members().filter(|(_, key)| key.x_container) {
                let (Some(base), Some(xc)) = (tput(base_i), tput(xc_i)) else {
                    continue;
                };
                let ratio = xc / base;
                if !(*lo..*hi).contains(&ratio) {
                    let why = format!("paper finding out of band: {name} X-Container/Docker throughput {ratio:.3} outside [{lo}, {hi})");
                    pass.fail(base_i, why.clone());
                    pass.fail(xc_i, why);
                }
            }
        }

        let chaos = |j: usize| match &results[k + j] {
            Some((Out::Chaos(r), _)) => Some(r.as_ref()),
            _ => None,
        };
        let top = RATES.iter().copied().fold(0.0, f64::max);
        for (j, c) in self.chaos.iter().enumerate() {
            let Some(r) = chaos(j) else { continue };
            if c.rate == 0.0
                && (r.abandoned != 0 || r.restarts != 0 || r.fault_stats.injected_total() != 0)
            {
                pass.fail(
                    k + j,
                    "paper finding out of band: healthy baseline degraded".to_owned(),
                );
            }
            if c.rate != top {
                continue;
            }
            let Some(healthy_j) = self
                .chaos
                .iter()
                .position(|h| h.platform == c.platform && h.rate == 0.0)
            else {
                continue;
            };
            let Some(healthy) = chaos(healthy_j) else {
                continue;
            };
            let relative = frac(r.throughput_rps(), healthy.throughput_rps());
            if !((0.0..1.0).contains(&relative) && r.completed + r.abandoned > 0) {
                let why = format!(
                    "paper finding out of band: degraded throughput {relative:.3} not in [0, 1)"
                );
                pass.fail(k + j, why.clone());
                pass.fail(k + healthy_j, why);
            }
        }
    }
}

impl Workload for ClosedLoop {
    fn pass(&mut self, tr: &Tracer) -> io::Result<Pass> {
        let n = self.keys.len() + self.chaos.len();
        let cache = ClosedLoopCache::new();
        let (http_allocs0, http_reuses0) = http_arena();
        let (chaos_allocs0, chaos_reuses0) = chaos_arena();
        let (results, failures) = run_cells(n, &|_, _| (), |i| self.cell(i, &cache, tr));
        let (http_allocs1, http_reuses1) = http_arena();
        let (chaos_allocs1, chaos_reuses1) = chaos_arena();
        let mut pass = Pass {
            failures,
            ..Pass::default()
        };
        tr.span("check.cells", None, || {
            for (i, r) in results.iter().enumerate() {
                let Some((out, timing)) = r else {
                    pass.cells.push(None);
                    continue;
                };
                let (ops, digest) = match out {
                    Out::Fig3 { result, miss } => {
                        let completed = result.latency.count();
                        if completed == 0 {
                            pass.fail(i, "closed loop completed no request".to_owned());
                        }
                        if *miss {
                            pass.add("http.requests", completed as f64);
                        }
                        (completed, loop_digest(result))
                    }
                    Out::Chaos(r) => {
                        if let Err(e) = r.check_conservation() {
                            pass.fail(i, format!("chaos conservation: {e}"));
                        }
                        pass.add("chaos.requests", r.completed as f64);
                        pass.add("chaos.event_sends", r.sends as f64);
                        pass.add("chaos.hypercalls", r.hypercalls as f64);
                        pass.add("chaos.resends", r.resends as f64);
                        pass.add("chaos.abandoned", r.abandoned as f64);
                        (r.completed, chaos_digest(r))
                    }
                };
                pass.cells.push(Some(CellOut {
                    timing: *timing,
                    ops,
                    digest,
                }));
            }
            self.findings(&results, &mut pass);
        });
        pass.add("http.cache_hits", cache.hits() as f64);
        pass.add("http.cache_misses", cache.misses() as f64);
        pass.add("http.arena_reuses", (http_reuses1 - http_reuses0) as f64);
        pass.add(
            "http.arena_worlds",
            (http_allocs1 - http_allocs0 + http_reuses1 - http_reuses0) as f64,
        );
        pass.add("chaos.arena_reuses", (chaos_reuses1 - chaos_reuses0) as f64);
        pass.add(
            "chaos.arena_worlds",
            (chaos_allocs1 - chaos_allocs0 + chaos_reuses1 - chaos_reuses0) as f64,
        );
        Ok(pass)
    }

    /// One key, chosen by the seed: its cached result must equal an
    /// uncached `run_closed_loop_from`.
    fn final_checks(&mut self, last: &Pass) -> Failures {
        let i = (self.seed % self.keys.len() as u64) as usize;
        let uncached = run_closed_loop_from(&self.keys[i].table, CONNECTIONS, DURATION, self.seed);
        match last.cells.get(i).copied().flatten() {
            Some(c) if c.digest == loop_digest(&uncached) => Vec::new(),
            _ => vec![(
                i,
                "cached result differs from uncached run_closed_loop_from".to_owned(),
            )],
        }
    }
}
