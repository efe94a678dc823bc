//! Property-based tests for the sharded closed loop and the derived
//! cost table (enable with `--features proptest`).
//!
//! The always-on unit suites pin these properties at fixed points; the
//! properties here quantify over the interesting inputs: *any* shard
//! count must reproduce the serial reference bit-for-bit, *any*
//! deployment in the evaluation matrix must derive the same costs
//! through [`PlatformCosts`] as through the per-event path, and *any*
//! cost table must run the same through the closed loop's recursion as
//! through the event-driven [`oracle`].

mod oracle;

use proptest::prelude::*;
use xc_runtimes::cloud::CloudEnv;
use xc_runtimes::platform::Platform;
use xc_sim::cost::CostModel;
use xc_sim::time::Nanos;
use xc_workloads::apps;
use xc_workloads::cluster::{run_cluster_range_in, ClusterParams, WorldArena};
use xc_workloads::costs::PlatformCosts;
use xc_workloads::http::{
    run_closed_loop_from, run_closed_loop_from_in, run_closed_loop_sharded, LoopArena, ServerModel,
};

fn arb_cloud() -> impl Strategy<Value = CloudEnv> {
    prop_oneof![
        Just(CloudEnv::AmazonEc2),
        Just(CloudEnv::GoogleGce),
        Just(CloudEnv::LocalCluster),
    ]
}

fn arb_platform() -> impl Strategy<Value = Platform> {
    (arb_cloud(), any::<bool>(), 0u8..4).prop_map(|(cloud, patched, kind)| match kind {
        0 => Platform::docker(cloud, patched),
        1 => Platform::xen_container(cloud, patched),
        2 => Platform::x_container(cloud, patched),
        _ => Platform::gvisor(cloud, patched),
    })
}

fn arb_profile() -> impl Strategy<Value = xc_workloads::http::RequestProfile> {
    prop_oneof![
        Just(apps::nginx_static()),
        Just(apps::memcached()),
        Just(apps::redis()),
        Just(apps::php_page()),
        Just(apps::microservice()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sharding is pure plumbing: any shard count (including counts
    /// above the worker count, which clamp) reproduces the serial
    /// worker-index-order merge bit-for-bit — throughput to the last
    /// mantissa bit, latency histogram bucket-for-bucket.
    #[test]
    fn sharded_closed_loop_matches_serial(
        platform in arb_platform(),
        profile in arb_profile(),
        connections in 1u32..48,
        workers in 1u32..5,
        duration_ms in 5u64..40,
        seed in any::<u64>(),
        shards in 1u32..13,
    ) {
        let costs = CostModel::skylake_cloud();
        let server = ServerModel { platform, profile, workers, cores: 4 };
        let table = PlatformCosts::derive(&server, &costs);
        let duration = Nanos::from_millis(duration_ms);
        let serial = run_closed_loop_from(&table, connections, duration, seed);
        let sharded = run_closed_loop_sharded(&table, connections, duration, seed, shards);
        prop_assert_eq!(
            serial.throughput_rps.to_bits(),
            sharded.throughput_rps.to_bits(),
            "throughput diverged at {} shards", shards
        );
        prop_assert_eq!(serial.latency, sharded.latency, "histogram diverged at {} shards", shards);
    }

    /// The precomputed table is exactly the per-event derivation for
    /// every deployment: same service time, same wire RTT, same
    /// parallelism — so replacing per-event derivation with the table
    /// can never change a simulation result.
    #[test]
    fn platform_costs_match_per_event_derivation(
        platform in arb_platform(),
        profile in arb_profile(),
        workers in 1u32..9,
        cores in 1u32..9,
    ) {
        let costs = CostModel::skylake_cloud();
        let server = ServerModel { platform, profile, workers, cores };
        let table = PlatformCosts::derive(&server, &costs);
        prop_assert_eq!(
            table.service,
            server.profile.service_time(&server.platform, &costs)
        );
        prop_assert_eq!(
            table.rtt,
            server.platform.net_stack(&costs).wire_latency(&costs)
        );
        prop_assert_eq!(table.parallelism, server.parallelism());
        // And the capacity ceiling follows from those fields alone.
        let expect = f64::from(server.parallelism()) / table.service.as_secs_f64();
        prop_assert_eq!(table.capacity_rps().to_bits(), expect.to_bits());
    }

    /// The closed loop's Lindley recursion is the event-driven world,
    /// bit for bit, for any cost table — down to 1 ns services and a
    /// zero RTT, where arrivals tie with finishes and initial offsets
    /// collide — and at a deadline placed exactly on the last finish.
    #[test]
    fn closed_loop_matches_event_driven_oracle(
        service in 1u64..5_000,
        rtt in 0u64..5_000,
        parallelism in 1u32..5,
        connections in 1u32..64,
        horizon in 1u64..200_000,
        seed in any::<u64>(),
    ) {
        let table = PlatformCosts {
            service: Nanos::from_nanos(service),
            rtt: Nanos::from_nanos(rtt),
            parallelism,
        };
        let horizon = Nanos::from_nanos(horizon);
        let first = oracle::run(&table, connections, horizon, seed);
        for duration in [horizon, first.last_finish] {
            let got = run_closed_loop_from(&table, connections, duration, seed);
            let want = oracle::run(&table, connections, duration, seed);
            prop_assert_eq!(got.latency.count(), want.completed);
            prop_assert_eq!(got.latency, want.latency);
            prop_assert_eq!(
                got.throughput_rps.to_bits(),
                (want.completed as f64 / duration.as_secs_f64()).to_bits()
            );
        }
    }

    /// Closed-loop arena recycling is observationally invisible: a
    /// [`LoopArena`] reused across a random sequence of closed-loop
    /// runs reproduces each run's throughput to the last mantissa bit
    /// and its latency histogram bucket-for-bucket, exactly as a fresh
    /// arena per run would — the contract behind the thread-local
    /// arenas inside `run_closed_loop_from` and the sharded workers.
    #[test]
    fn loop_arena_reuse_matches_fresh_worlds(
        runs in proptest::collection::vec(
            (arb_platform(), arb_profile(), 1u32..40, 2u64..25, any::<u64>()),
            1..5,
        ),
    ) {
        let costs = CostModel::skylake_cloud();
        let mut recycled = LoopArena::new();
        for (platform, profile, connections, duration_ms, seed) in runs {
            let server = ServerModel { platform, profile, workers: 2, cores: 4 };
            let table = PlatformCosts::derive(&server, &costs);
            let duration = Nanos::from_millis(duration_ms);
            let reused =
                run_closed_loop_from_in(&mut recycled, &table, connections, duration, seed);
            let fresh =
                run_closed_loop_from_in(&mut LoopArena::new(), &table, connections, duration, seed);
            prop_assert_eq!(reused.throughput_rps.to_bits(), fresh.throughput_rps.to_bits());
            prop_assert_eq!(reused.latency, fresh.latency);
        }
    }

    /// Arena reuse is observationally invisible: running a host range
    /// through one continuously-recycled [`WorldArena`] produces the
    /// same [`ClusterResult`] — every counter and every histogram
    /// bucket — as giving each host a factory-fresh arena, for any
    /// platform, grid shape, and seed. This is the property that makes
    /// the cluster study's thread-local arena safe under work stealing:
    /// whichever worker's arena a cell lands on, the bytes match.
    #[test]
    fn world_arena_reuse_matches_fresh_worlds(
        platform in arb_platform(),
        hosts in 1u32..5,
        domains_per_host in 1u32..5,
        clients in 0u64..2_000,
        duration_ms in 1u64..10,
        queue_cap in 1usize..32,
        seed in any::<u64>(),
    ) {
        let costs = CostModel::skylake_cloud();
        let server = ServerModel {
            platform,
            profile: apps::microservice(),
            workers: 1,
            cores: 1,
        };
        let table = PlatformCosts::derive(&server, &costs);
        let params = ClusterParams {
            hosts,
            domains_per_host,
            clients,
            think_time: Nanos::from_millis(50),
            duration: Nanos::from_millis(duration_ms),
            queue_cap,
            zipf_theta: 0.2,
            host_cores: 4,
            seed,
        };

        // One arena recycled across the whole range…
        let mut reused = WorldArena::new();
        let whole = run_cluster_range_in(&mut reused, &table, &params, 0, hosts);

        // …versus a brand-new arena per host, merged in host order.
        let mut fresh = xc_workloads::cluster::ClusterResult::default();
        for host in 0..hosts {
            let mut arena = WorldArena::new();
            let one = run_cluster_range_in(&mut arena, &table, &params, host, 1);
            fresh.merge(&one);
        }

        prop_assert_eq!(whole, fresh);
    }
}
