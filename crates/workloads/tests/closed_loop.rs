//! The closed loop checked against an independent event-driven oracle
//! and against queueing theory's operational laws.
//!
//! `run_closed_loop_from` computes each worker as a Lindley recursion;
//! [`oracle`] replays the same model event by event on the `xc-sim`
//! engine. The two must agree bit for bit — completed count, latency
//! histogram, throughput — on every Figure 3 table and on the corner
//! cases where event order could matter: a single connection, colliding
//! initial offsets, same-instant ties, and a deadline that lands exactly
//! on a finish.

mod oracle;

use xc_runtimes::cloud::CloudEnv;
use xc_runtimes::platform::Platform;
use xc_sim::cost::CostModel;
use xc_sim::stats::shard_share;
use xc_sim::time::Nanos;
use xc_workloads::apps::figure3_profiles;
use xc_workloads::costs::PlatformCosts;
use xc_workloads::http::{run_closed_loop_from, ServerModel};

/// Figure 3's client side: 50 connections for 300 ms.
const CONNECTIONS: u32 = 50;
const DURATION: Nanos = Nanos::from_millis(300);
const SEEDS: [u64; 2] = [7, 2019];

/// Every Figure 3 deployment's cost table: 2 clouds × 3 profiles × the
/// patched-Docker baseline plus the cloud's platform configurations.
fn figure3_tables() -> Vec<PlatformCosts> {
    let costs = CostModel::skylake_cloud();
    let mut tables = Vec::new();
    for cloud in [CloudEnv::AmazonEc2, CloudEnv::GoogleGce] {
        for profile in figure3_profiles() {
            let workers = if profile.name == "memcached" { 4 } else { 1 };
            let platforms = std::iter::once(Platform::docker(cloud, true))
                .chain(Platform::cloud_configurations(cloud));
            for platform in platforms {
                let server = ServerModel {
                    platform,
                    profile: profile.clone(),
                    workers,
                    cores: 4,
                };
                tables.push(PlatformCosts::derive(&server, &costs));
            }
        }
    }
    tables
}

fn table(service: u64, rtt: u64, parallelism: u32) -> PlatformCosts {
    PlatformCosts {
        service: Nanos::from_nanos(service),
        rtt: Nanos::from_nanos(rtt),
        parallelism,
    }
}

/// Runs both implementations and demands identical output; returns the
/// oracle's observations.
fn assert_matches(
    table: &PlatformCosts,
    connections: u32,
    duration: Nanos,
    seed: u64,
) -> oracle::Reference {
    let got = run_closed_loop_from(table, connections, duration, seed);
    let want = oracle::run(table, connections, duration, seed);
    let ctx = format!("{table:?} connections {connections} duration {duration:?} seed {seed}");
    assert_eq!(got.latency.count(), want.completed, "completed: {ctx}");
    assert_eq!(got.latency, want.latency, "histogram: {ctx}");
    assert_eq!(
        got.throughput_rps.to_bits(),
        (want.completed as f64 / duration.as_secs_f64()).to_bits(),
        "throughput: {ctx}"
    );
    want
}

#[test]
fn figure3_grid_has_sixty_tables() {
    assert_eq!(figure3_tables().len(), 60);
}

#[test]
fn recursion_matches_oracle_on_every_figure3_table() {
    for table in figure3_tables() {
        for seed in SEEDS {
            assert_matches(&table, CONNECTIONS, DURATION, seed);
        }
    }
}

#[test]
fn recursion_matches_oracle_with_one_connection() {
    for table in figure3_tables() {
        assert_matches(&table, 1, Nanos::from_millis(20), 3);
    }
}

#[test]
fn recursion_matches_oracle_when_initial_offsets_collide() {
    // More connections than RTT nanoseconds: `rtt * g / total` maps
    // several connections onto each offset.
    for (rtt, connections) in [(0, 9), (1, 16), (7, 40), (13, 200)] {
        for parallelism in 1..=3 {
            let t = table(50, rtt, parallelism);
            assert_matches(&t, connections, Nanos::from_micros(100), 11);
        }
    }
}

#[test]
fn recursion_matches_oracle_on_same_instant_ties() {
    // Service times of 1–3 ns round back to themselves under the ±15%
    // jitter, so arrivals land exactly on finishes.
    let mut ties = 0;
    for service in 1..=3 {
        for rtt in 0..=4 {
            for connections in [1, 2, 3, 5, 8] {
                for parallelism in [1, 2] {
                    let t = table(service, rtt, parallelism);
                    ties += assert_matches(&t, connections, Nanos::from_nanos(5_000), 5).ties;
                }
            }
        }
    }
    assert!(ties > 0, "the grid must exercise Arrive/Finish ties");
}

#[test]
fn deadline_is_inclusive() {
    // A finish exactly at the deadline counts; one nanosecond earlier
    // it does not.
    let tables = figure3_tables();
    let cases = [
        (tables[0], CONNECTIONS, Nanos::from_millis(5)),
        (tables[13], 1, Nanos::from_millis(5)),
        (tables[27], CONNECTIONS, Nanos::from_millis(5)),
        (table(3, 4, 1), 2, Nanos::from_nanos(1_000)),
    ];
    for (t, connections, horizon) in cases {
        let last = oracle::run(&t, connections, horizon, 9).last_finish;
        assert!(last > Nanos::ZERO, "{t:?} completed nothing");
        let at = assert_matches(&t, connections, last, 9);
        let before = assert_matches(&t, connections, last - Nanos::from_nanos(1), 9);
        assert!(
            at.completed > before.completed,
            "{t:?}: a finish at the deadline must count"
        );
    }
}

/// Operational laws of the closed loop (Denning & Buzen), checked on
/// every Figure 3 table. Service draws lie in `[0.85 s, 1.15 s)` before
/// rounding to whole nanoseconds, so every request's service is within
/// `[0.85 s - 0.5, 1.15 s + 0.5]` ns. A worker serving `n_w`
/// connections in FIFO order finishes a request at most `n_w` services
/// after it arrives, so a connection's cycle (its recorded latency:
/// response plus RTT) is at most `n_w (1.15 s + 0.5) + rtt`. Every
/// tolerance below is one of these terms over the horizon; the `EPS`
/// term only absorbs f64 rounding of the divisions.
#[test]
fn closed_loop_obeys_operational_laws() {
    const EPS: f64 = 1e-12;
    let d = DURATION.as_nanos() as f64;
    let n = f64::from(CONNECTIONS);
    for t in figure3_tables() {
        let s = t.service.as_nanos() as f64;
        let rtt = t.rtt.as_nanos() as f64;
        let (s_min, s_max) = (0.85 * s - 0.5, 1.15 * s + 0.5);
        let p = t.parallelism.max(1);
        let per_worker =
            |w: u32| shard_share(u64::from(CONNECTIONS), u64::from(p), u64::from(w)) as f64;
        let max_cycle = (0..p)
            .map(|w| per_worker(w) * s_max + rtt)
            .fold(0.0, f64::max);
        for seed in SEEDS {
            let r = run_closed_loop_from(&t, CONNECTIONS, DURATION, seed);
            let x = r.throughput_rps / 1e9; // requests per ns
            let ctx = format!("{t:?} seed {seed}");

            // Little's law, N = X R. Each connection's recorded cycles
            // tile [offset, last issue]. The last issue is at most `rtt`
            // past the horizon; it is also within `n_w` services of the
            // horizon (its request did not finish), and the offset is
            // below `rtt`, so the tiling falls short of D by less than
            // one cycle bound.
            let little = x * r.latency.mean() / n;
            assert!(
                little <= 1.0 + rtt / d + EPS,
                "Little: X R / N = {little} above 1 + rtt/D: {ctx}"
            );
            assert!(
                little >= 1.0 - max_cycle / d - EPS,
                "Little: X R / N = {little} below 1 - cycle/D: {ctx}"
            );

            // Utilisation law: each worker serves counted requests one
            // at a time within the horizon, so X <= P / min service.
            let x_max = f64::from(p) / s_min;
            assert!(
                x <= x_max * (1.0 + EPS),
                "utilisation: X {x} > {x_max}: {ctx}"
            );

            // Balanced-job lower bound per worker: every cycle is at most
            // n_w × max service + rtt, so each connection completes more
            // than (D - cycle) / cycle requests.
            let x_min: f64 = (0..p)
                .map(|w| {
                    let n_w = per_worker(w);
                    let cycle = n_w * s_max + rtt;
                    n_w / cycle * (1.0 - cycle / d)
                })
                .sum();
            assert!(
                x >= x_min * (1.0 - EPS),
                "lower bound: X {x} < {x_min}: {ctx}"
            );
        }
    }
}
