//! Property-based tests for the chaos world's arena recycling.
//!
//! The unit suite pins recycling at one fixed configuration; the
//! property here quantifies over plans and shapes: a [`ChaosArena`]
//! recycled across a whole random sequence of runs must reproduce, for
//! every run, the exact [`ChaosResult`] a factory-fresh arena produces —
//! every counter, every histogram bucket, every conservation ledger.
//! That is the contract that makes the thread-local arena in
//! `run_chaos` safe: whatever ran on a worker thread before, the bytes
//! match.

use proptest::prelude::*;
use xc_faults::chaos::{run_chaos_in, ChaosArena, ChaosParams};
use xc_faults::plan::{FaultPlan, FaultRates};
use xc_sim::time::Nanos;

/// A run shape the chaos world's timing asserts always accept: only
/// knobs independent of the resend-timeout inequality vary; delays,
/// retry schedule, and timers stay at their defaults.
fn arb_params() -> impl Strategy<Value = ChaosParams> {
    (
        1usize..24,
        1usize..6,
        2u64..20,
        prop_oneof![Just(0u64), Just(64u64)],
    )
        .prop_map(
            |(connections, parallelism, duration_ms, corpus_sites)| ChaosParams {
                connections,
                parallelism,
                duration: Nanos::from_millis(duration_ms),
                corpus_sites,
                ..ChaosParams::default()
            },
        )
}

fn arb_rate() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(0.002), Just(0.01), Just(0.05)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arena reuse is observationally invisible: replaying a random
    /// sequence of chaos runs through one continuously-recycled arena
    /// yields bit-identical results to giving every run a fresh one.
    #[test]
    fn chaos_arena_reuse_matches_fresh_worlds(
        runs in proptest::collection::vec(
            (arb_params(), arb_rate(), any::<u64>(), any::<u64>()),
            1..5,
        ),
    ) {
        let mut recycled = ChaosArena::new();
        for (params, rate, cell, jitter_seed) in runs {
            let plan = || FaultPlan::for_cell(2019, cell, FaultRates::scaled(rate));
            let reused = run_chaos_in(&mut recycled, params, plan(), jitter_seed);
            let fresh = run_chaos_in(&mut ChaosArena::new(), params, plan(), jitter_seed);
            prop_assert_eq!(&reused, &fresh);
            prop_assert!(reused.check_conservation().is_ok());
        }
    }
}
