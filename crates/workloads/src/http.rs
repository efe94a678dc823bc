//! The request/response service engine.
//!
//! All of the paper's networked benchmarks — `ab` against NGINX, `wrk`
//! against NGINX/PHP, `memtier_benchmark` against memcached/Redis — are
//! closed-loop load generators: a fixed number of connections, each
//! issuing the next request as soon as the previous response returns.
//! This module prices one request on a platform ([`ServerModel`] →
//! [`PlatformCosts`]) and derives closed-loop throughput and latency
//! percentiles from a deterministic queueing simulation. Each worker is
//! one FIFO server whose clients wait a constant RTT between reply and
//! next request, so its run is an exact Lindley recursion over a ring
//! of pending arrivals rather than an event queue (DESIGN.md §4m).
//!
//! # Per-worker decomposition
//!
//! The closed loop is modelled the way the real servers are deployed:
//! each worker process owns its accept queue (`SO_REUSEPORT`-style), so
//! worker `w` of `P` serves a fixed
//! [`shard_share`](xc_sim::stats::shard_share) of the connections with
//! its own RNG substream, independent of every other worker. That makes
//! the whole simulation embarrassingly parallel: the serial path runs
//! the workers one after another and merges their histograms in
//! worker order; [`run_closed_loop_sharded`] runs contiguous worker
//! ranges on OS threads and merges in the same order, so its output is
//! byte-identical to the serial reference at any shard count.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use xc_runtimes::platform::Platform;
use xc_sim::cost::CostModel;
use xc_sim::rng::Rng;
use xc_sim::stats::{shard_share, Histogram};
use xc_sim::time::Nanos;

use crate::costs::PlatformCosts;

/// What one request costs the server, in kernel-visible operations.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestProfile {
    /// Human-readable profile name.
    pub name: &'static str,
    /// Syscalls the server issues per request (accept/epoll share, reads,
    /// writes, timers…).
    pub syscalls: u64,
    /// Bytes received (request).
    pub recv_bytes: u64,
    /// Bytes sent (response).
    pub send_bytes: u64,
    /// User-space compute per request (parsing, hashing, templating) —
    /// unaffected by the platform.
    pub app_compute: Nanos,
    /// In-kernel work beyond the network path (e.g. file I/O for static
    /// pages), priced at the platform's kernel-work multiplier.
    pub kernel_work: Nanos,
    /// Process context switches forced per request (e.g. proxying to a
    /// backend process). Most single-process servers: 0.
    pub process_switches: u64,
    /// Multi-process coordination events per request (POSIX state shared
    /// between workers — where Graphene pays its IPC tax).
    pub coordination_events: u64,
}

impl RequestProfile {
    /// Service time of one request on `platform`: the CPU time the server
    /// burns before the response is on the wire.
    pub fn service_time(&self, platform: &Platform, costs: &CostModel) -> Nanos {
        let net = platform.net_stack(costs);
        let syscalls = platform.syscall_cost(costs) * self.syscalls;
        let rx = net
            .recv_cost(costs, self.recv_bytes)
            .scale(platform.net_work_multiplier());
        let tx = net
            .send_cost(costs, self.send_bytes)
            .scale(platform.net_work_multiplier());
        let kernel = self.kernel_work.scale(platform.kernel_ops_multiplier());
        let switches = platform.context_switch_cost(costs, 4) * self.process_switches;
        let coordination = platform.multiprocess_ipc_cost(costs) * self.coordination_events;
        platform.environment_adjust(
            syscalls + rx + tx + kernel + self.app_compute + switches + coordination,
        )
    }
}

/// A server deployment: a platform, a request profile, and worker
/// parallelism.
#[derive(Debug, Clone)]
pub struct ServerModel {
    /// The platform the server runs on.
    pub platform: Platform,
    /// Per-request costs.
    pub profile: RequestProfile,
    /// Worker processes/threads serving requests in parallel.
    pub workers: u32,
    /// CPU cores available to this server.
    pub cores: u32,
}

impl ServerModel {
    /// Effective parallelism: workers capped by cores, and by one when the
    /// platform cannot run processes concurrently (§2.3).
    pub fn parallelism(&self) -> u32 {
        let hw = self.workers.min(self.cores).max(1);
        if self.platform.supports_multicore() {
            hw
        } else {
            1
        }
    }

    /// Open-loop capacity ceiling in requests/second.
    pub fn capacity_rps(&self, costs: &CostModel) -> f64 {
        PlatformCosts::derive(self, costs).capacity_rps()
    }
}

/// Result of a closed-loop run.
#[derive(Debug, Clone)]
pub struct ClosedLoopResult {
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Per-request latency distribution (nanoseconds).
    pub latency: Histogram,
}

impl ClosedLoopResult {
    /// Mean latency in microseconds.
    pub fn mean_latency_us(&self) -> f64 {
        self.latency.mean() / 1_000.0
    }
}

/// Uniform draws fetched per RNG batch in the closed-loop hot path.
const UNIFORM_SLAB: usize = 64;

/// ±15% uniform service-time variation keeps the histogram honest
/// without changing the mean.
const JITTER: f64 = 0.15;

/// Worker runs served from freshly allocated arena storage.
static ARENA_ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Worker runs served from recycled arena storage.
static ARENA_REUSES: AtomicU64 = AtomicU64::new(0);

/// Cumulative `(allocated, reused)` closed-loop arena counters across
/// every thread's arena, for the bench ledger: a figure grid should
/// report almost all reuses — one allocation per worker thread, not one
/// per simulated worker.
pub fn arena_counters() -> (u64, u64) {
    (
        ARENA_ALLOCS.load(Ordering::Relaxed),
        ARENA_REUSES.load(Ordering::Relaxed),
    )
}

/// Reusable backing storage for closed-loop worker runs: the ring of
/// pending arrivals. Every run starts from a cleared ring, so
/// arena-backed runs are byte-identical to freshly-allocated ones — a
/// feature-gated proptest pins that equivalence.
#[derive(Default)]
pub struct LoopArena {
    pending: VecDeque<Nanos>,
    used: bool,
}

impl LoopArena {
    /// Creates an empty arena; storage is allocated on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the ring and bumps the global alloc/reuse counters.
    fn prepare(&mut self) -> &mut VecDeque<Nanos> {
        if self.used {
            ARENA_REUSES.fetch_add(1, Ordering::Relaxed);
        } else {
            ARENA_ALLOCS.fetch_add(1, Ordering::Relaxed);
            self.used = true;
        }
        self.pending.clear();
        &mut self.pending
    }
}

thread_local! {
    /// One arena per thread: serial figure grids recycle one ring across
    /// every cell, and each shard thread of [`run_closed_loop_sharded`]
    /// recycles across its worker range.
    static ARENA: RefCell<LoopArena> = RefCell::new(LoopArena::new());
}

/// Runs one worker: the contiguous global-connection range
/// `[first, first + count)` of `total` connections, seeded from worker
/// `index`'s RNG substream, drawing storage from `arena`. Pure function
/// of its non-arena arguments — the unit both the serial and the
/// sharded drivers compose from.
///
/// The worker is one FIFO server and every client waits a constant RTT
/// after its reply, so requests return to the server in the order they
/// left it and the run is the Lindley recursion
/// `finish_k = max(arrive_k, finish_{k-1}) + S_k`,
/// `arrive_{k+count} = finish_k + rtt` over a ring of pending arrivals
/// (DESIGN.md §4m). `S_k` is the k-th draw of the worker's stream. A
/// request counts iff `finish_k <= duration`: the deadline is inclusive.
#[allow(clippy::too_many_arguments)]
fn run_worker_in(
    arena: &mut LoopArena,
    table: &PlatformCosts,
    index: u32,
    first: u64,
    count: u64,
    total: u64,
    duration: Nanos,
    seed: u64,
) -> (u64, Histogram) {
    let pending = arena.prepare();
    for g in first..first + count {
        // Stagger initial arrivals across one RTT by *global* connection
        // index, matching the unsharded schedule shape.
        pending.push_back(table.rtt * g / total.max(1));
    }
    let mut rng = Rng::substream(seed, u64::from(index));
    // Slab of pre-drawn uniforms ([`Rng::next_f64_batch`]): the k-th slab
    // value is exactly the k-th `next_f64()` of the un-batched stream.
    let mut uniforms = [0.0; UNIFORM_SLAB];
    let mut next = UNIFORM_SLAB; // first draw triggers a refill
    let mut free_at = Nanos::ZERO;
    let mut completed = 0u64;
    let mut latency = Histogram::new();
    while let Some(arrive) = pending.pop_front() {
        if next == UNIFORM_SLAB {
            rng.next_f64_batch(&mut uniforms);
            next = 0;
        }
        let service = table
            .service
            .scale(1.0 + JITTER * (uniforms[next] * 2.0 - 1.0));
        next += 1;
        let finish = arrive.max(free_at) + service;
        if finish > duration {
            // Finishes never decrease, so no later request counts.
            break;
        }
        completed += 1;
        latency.record_nanos((finish - arrive) + table.rtt);
        free_at = finish;
        // The client issues its next request after a wire RTT.
        pending.push_back(finish + table.rtt);
    }
    (completed, latency)
}

/// [`run_worker_in`] on the calling thread's recycled arena.
fn run_worker(
    table: &PlatformCosts,
    index: u32,
    first: u64,
    count: u64,
    total: u64,
    duration: Nanos,
    seed: u64,
) -> (u64, Histogram) {
    ARENA.with(|arena| {
        run_worker_in(
            &mut arena.borrow_mut(),
            table,
            index,
            first,
            count,
            total,
            duration,
            seed,
        )
    })
}

/// [`run_closed_loop_from`] drawing every worker's storage from
/// `arena` — the seam the recycled-vs-fresh equivalence proptest
/// drives. Byte-identical to a run over a fresh arena.
pub fn run_closed_loop_from_in(
    arena: &mut LoopArena,
    table: &PlatformCosts,
    connections: u32,
    duration: Nanos,
    seed: u64,
) -> ClosedLoopResult {
    let workers = table.parallelism.max(1);
    let total = u64::from(connections);
    let mut completed = 0u64;
    let mut latency = Histogram::new();
    let mut first = 0u64;
    for w in 0..workers {
        let count = shard_share(total, u64::from(workers), u64::from(w));
        let (done, hist) = run_worker_in(arena, table, w, first, count, total, duration, seed);
        completed += done;
        latency.merge(&hist);
        first += count;
    }
    ClosedLoopResult {
        throughput_rps: completed as f64 / duration.as_secs_f64(),
        latency,
    }
}

/// Runs a closed-loop benchmark from a precomputed [`PlatformCosts`]
/// table: `connections` concurrent clients, for `duration` of simulated
/// time. This is the serial golden reference — workers run one
/// after another on the calling thread's recycled arena, results merged
/// in worker-index order.
pub fn run_closed_loop_from(
    table: &PlatformCosts,
    connections: u32,
    duration: Nanos,
    seed: u64,
) -> ClosedLoopResult {
    ARENA.with(|arena| {
        run_closed_loop_from_in(&mut arena.borrow_mut(), table, connections, duration, seed)
    })
}

/// Runs a closed-loop benchmark: `connections` concurrent clients against
/// `server`, for `duration` of simulated time.
pub fn run_closed_loop(
    server: &ServerModel,
    costs: &CostModel,
    connections: u32,
    duration: Nanos,
    seed: u64,
) -> ClosedLoopResult {
    let table = PlatformCosts::derive(server, costs);
    run_closed_loop_from(&table, connections, duration, seed)
}

/// [`run_closed_loop_from`] with workers distributed over `shards`
/// OS threads. Workers are split into contiguous index ranges (the same
/// [`shard_share`] partition the runner uses for cells) and each
/// thread's partial results are merged back in worker-index order, so
/// the output is **byte-identical** to the serial reference at any
/// shard count — `shards` only changes wall-clock time.
pub fn run_closed_loop_sharded(
    table: &PlatformCosts,
    connections: u32,
    duration: Nanos,
    seed: u64,
    shards: u32,
) -> ClosedLoopResult {
    let workers = table.parallelism.max(1);
    let shards = shards.clamp(1, workers);
    if shards == 1 {
        return run_closed_loop_from(table, connections, duration, seed);
    }
    let total = u64::from(connections);
    // Per-worker descriptors in worker order: (index, first, count).
    let mut plan = Vec::with_capacity(workers as usize);
    let mut first = 0u64;
    for w in 0..workers {
        let count = shard_share(total, u64::from(workers), u64::from(w));
        plan.push((w, first, count));
        first += count;
    }
    let mut partials: Vec<Vec<(u64, Histogram)>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(shards as usize);
        let mut start = 0usize;
        for s in 0..shards {
            let len = shard_share(u64::from(workers), u64::from(shards), u64::from(s)) as usize;
            let slice = &plan[start..start + len];
            start += len;
            handles.push(scope.spawn(move || {
                slice
                    .iter()
                    .map(|&(w, first, count)| {
                        run_worker(table, w, first, count, total, duration, seed)
                    })
                    .collect::<Vec<_>>()
            }));
        }
        partials = handles.into_iter().map(|h| h.join().unwrap()).collect();
    });
    let mut completed = 0u64;
    let mut latency = Histogram::new();
    for (done, hist) in partials.iter().flatten() {
        completed += done;
        latency.merge(hist);
    }
    ClosedLoopResult {
        throughput_rps: completed as f64 / duration.as_secs_f64(),
        latency,
    }
}

/// Memoizes closed-loop results by the simulation's *true* inputs.
///
/// A closed-loop run is a pure function of the derived
/// [`PlatformCosts`] table once the client side (connections, duration,
/// seed) is fixed — the platform only enters through those derived
/// parameters. Distinct platforms frequently collapse onto the same
/// table: an X-Container's guest kernel ignores the host patch state,
/// so its patched and unpatched variants price requests identically and
/// need only one simulation between them.
///
/// Interior-mutable and thread-safe, so one cache can be shared across
/// a whole figure grid even when the runner executes cells on worker
/// threads. Concurrent misses on the same key may each run the
/// simulation, but the runs are deterministic and identical, so the
/// race only costs time, never changes a result.
#[derive(Debug, Default)]
pub struct ClosedLoopCache {
    #[allow(clippy::type_complexity)]
    map: Mutex<std::collections::HashMap<(PlatformCosts, u32, u64, u64), ClosedLoopResult>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ClosedLoopCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulations answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Simulations actually run.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Looks up (or runs and memoizes) the closed loop for one derived
    /// table. The key is the full table plus the client-side knobs —
    /// exactly the inputs of the deterministic simulation, so cached
    /// and uncached paths are observationally identical.
    pub fn get_or_run(
        &self,
        table: &PlatformCosts,
        connections: u32,
        duration: Nanos,
        seed: u64,
    ) -> ClosedLoopResult {
        let key = (*table, connections, duration.as_nanos(), seed);
        if let Some(hit) = self.map.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Simulate outside the lock: a long run must not serialize the
        // runner's other cells behind the mutex.
        let result = run_closed_loop_from(table, connections, duration, seed);
        self.map
            .lock()
            .unwrap()
            .entry(key)
            .or_insert_with(|| result.clone());
        result
    }
}

/// [`run_closed_loop`] behind a [`ClosedLoopCache`]: deployments whose
/// derived [`PlatformCosts`] tables coincide share one run. Results are
/// identical to the uncached path — the cache key is exactly the input
/// of the (deterministic) simulation.
pub fn run_closed_loop_cached(
    server: &ServerModel,
    costs: &CostModel,
    connections: u32,
    duration: Nanos,
    seed: u64,
    cache: &ClosedLoopCache,
) -> ClosedLoopResult {
    let table = PlatformCosts::derive(server, costs);
    cache.get_or_run(&table, connections, duration, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xc_runtimes::cloud::CloudEnv;

    fn profile() -> RequestProfile {
        RequestProfile {
            name: "test",
            syscalls: 8,
            recv_bytes: 200,
            send_bytes: 1024,
            app_compute: Nanos::from_micros(3),
            kernel_work: Nanos::from_micros(1),
            process_switches: 0,
            coordination_events: 0,
        }
    }

    fn server(platform: Platform, workers: u32) -> ServerModel {
        ServerModel {
            platform,
            profile: profile(),
            workers,
            cores: 4,
        }
    }

    #[test]
    fn service_time_platform_ordering() {
        let costs = CostModel::skylake_cloud();
        let p = profile();
        let docker = p.service_time(&Platform::docker(CloudEnv::AmazonEc2, true), &costs);
        let xc = p.service_time(&Platform::x_container(CloudEnv::AmazonEc2, true), &costs);
        let gv = p.service_time(&Platform::gvisor(CloudEnv::AmazonEc2, true), &costs);
        assert!(
            xc < docker,
            "X-Container must serve faster than patched Docker"
        );
        assert!(gv > docker * 2, "gVisor interception dominates");
    }

    #[test]
    fn closed_loop_saturates_with_connections() {
        let costs = CostModel::skylake_cloud();
        let s = server(Platform::docker(CloudEnv::AmazonEc2, true), 1);
        let low = run_closed_loop(&s, &costs, 1, Nanos::from_millis(200), 1);
        let high = run_closed_loop(&s, &costs, 64, Nanos::from_millis(200), 1);
        assert!(high.throughput_rps > low.throughput_rps * 2.0);
        // At 64 connections a single worker is saturated: throughput near
        // the capacity ceiling.
        let cap = s.capacity_rps(&costs);
        assert!(high.throughput_rps <= cap * 1.01);
        assert!(high.throughput_rps > cap * 0.85, "high {high:?} cap {cap}");
    }

    #[test]
    fn latency_grows_with_saturation() {
        let costs = CostModel::skylake_cloud();
        let s = server(Platform::docker(CloudEnv::AmazonEc2, true), 1);
        let low = run_closed_loop(&s, &costs, 1, Nanos::from_millis(200), 1);
        let high = run_closed_loop(&s, &costs, 64, Nanos::from_millis(200), 1);
        assert!(high.mean_latency_us() > low.mean_latency_us() * 4.0);
    }

    #[test]
    fn workers_scale_until_cores() {
        let costs = CostModel::skylake_cloud();
        let one = server(Platform::docker(CloudEnv::AmazonEc2, true), 1);
        let four = server(Platform::docker(CloudEnv::AmazonEc2, true), 4);
        let eight = server(Platform::docker(CloudEnv::AmazonEc2, true), 8); // > cores
        assert!(four.capacity_rps(&costs) > one.capacity_rps(&costs) * 3.5);
        assert_eq!(eight.parallelism(), 4, "capped by cores");
    }

    #[test]
    fn multiworker_throughput_scales_in_simulation() {
        // Not just the capacity formula: the per-worker decomposition
        // must actually serve ~4x with 4 workers under saturation.
        let costs = CostModel::skylake_cloud();
        let one = server(Platform::docker(CloudEnv::AmazonEc2, true), 1);
        let four = server(Platform::docker(CloudEnv::AmazonEc2, true), 4);
        let r1 = run_closed_loop(&one, &costs, 64, Nanos::from_millis(200), 1);
        let r4 = run_closed_loop(&four, &costs, 64, Nanos::from_millis(200), 1);
        assert!(
            r4.throughput_rps > r1.throughput_rps * 3.5,
            "one {} four {}",
            r1.throughput_rps,
            r4.throughput_rps
        );
    }

    #[test]
    fn gvisor_cannot_use_multicore() {
        let s = server(Platform::gvisor(CloudEnv::AmazonEc2, true), 4);
        assert_eq!(s.parallelism(), 1);
    }

    #[test]
    fn sharded_matches_serial_reference_exactly() {
        let costs = CostModel::skylake_cloud();
        let s = server(Platform::docker(CloudEnv::AmazonEc2, true), 4);
        let table = PlatformCosts::derive(&s, &costs);
        let serial = run_closed_loop_from(&table, 50, Nanos::from_millis(100), 7);
        for shards in [1, 2, 3, 4, 9] {
            let sharded = run_closed_loop_sharded(&table, 50, Nanos::from_millis(100), 7, shards);
            assert_eq!(
                serial.throughput_rps.to_bits(),
                sharded.throughput_rps.to_bits(),
                "{shards} shards"
            );
            assert_eq!(serial.latency, sharded.latency, "{shards} shards");
        }
    }

    #[test]
    fn cache_returns_identical_results_and_counts() {
        let costs = CostModel::skylake_cloud();
        let s = server(Platform::docker(CloudEnv::AmazonEc2, true), 2);
        let cache = ClosedLoopCache::new();
        let uncached = run_closed_loop(&s, &costs, 16, Nanos::from_millis(100), 7);
        let a = run_closed_loop_cached(&s, &costs, 16, Nanos::from_millis(100), 7, &cache);
        let b = run_closed_loop_cached(&s, &costs, 16, Nanos::from_millis(100), 7, &cache);
        assert_eq!(a.throughput_rps, uncached.throughput_rps);
        assert_eq!(a.latency, uncached.latency);
        assert_eq!(b.throughput_rps, a.throughput_rps);
        assert_eq!(b.latency, a.latency);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // A different seed is a different simulation.
        let _ = run_closed_loop_cached(&s, &costs, 16, Nanos::from_millis(100), 8, &cache);
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn cache_collapses_platforms_with_equal_parameters() {
        // An X-Container's guest kernel ignores the host patch state, so
        // the patched and unpatched deployments derive identical
        // PlatformCosts tables and share one cache entry.
        let costs = CostModel::skylake_cloud();
        let patched = server(Platform::x_container(CloudEnv::AmazonEc2, true), 2);
        let unpatched = server(Platform::x_container(CloudEnv::AmazonEc2, false), 2);
        let cache = ClosedLoopCache::new();
        let a = run_closed_loop_cached(&patched, &costs, 8, Nanos::from_millis(50), 3, &cache);
        let b = run_closed_loop_cached(&unpatched, &costs, 8, Nanos::from_millis(50), 3, &cache);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(a.throughput_rps, b.throughput_rps);
    }

    #[test]
    fn deterministic_given_seed() {
        let costs = CostModel::skylake_cloud();
        let s = server(Platform::docker(CloudEnv::AmazonEc2, true), 2);
        let a = run_closed_loop(&s, &costs, 16, Nanos::from_millis(100), 7);
        let b = run_closed_loop(&s, &costs, 16, Nanos::from_millis(100), 7);
        assert_eq!(a.throughput_rps, b.throughput_rps);
        assert_eq!(a.latency.quantile(0.99), b.latency.quantile(0.99));
    }
}
