//! Cluster-scale open-loop study: hosts × domains × modelled clients.
//!
//! The paper's macrobenchmarks drive one server; this module asks the
//! cloud operator's question instead — how many X-Container domains
//! does a *host* sustain, and what do the tails look like when a whole
//! cluster of them serves an open-loop population of clients? Each
//! simulated host runs `domains_per_host` single-process container
//! domains (one [`microservice`](crate::apps::microservice)-class
//! service each) on `host_cores` cores. A shard of the global client
//! population drives the host with Poisson arrivals (aggregate rate
//! `clients_on_host / think_time`), domain popularity is Zipf-skewed,
//! and every domain owns a bounded FIFO — requests arriving at a full
//! queue are dropped, which is how saturation (gVisor at high density)
//! becomes visible as loss instead of unbounded latency.
//!
//! # Determinism and sharding
//!
//! A host is an independent world seeded by
//! [`Rng::substream`]`(seed, host_index)` serving
//! [`shard_share`]`(clients, hosts, host_index)` clients, so the
//! cluster decomposes exactly like the per-worker closed loop: any
//! contiguous partition of the host range, simulated in any
//! arrangement of threads and merged back in host-index order, yields
//! byte-identical results. The bench harness exploits that by making
//! host chunks its parallel runner cells.
//!
//! # The arrival hot path
//!
//! Arrivals are half of a host's events, so they skip the event queue:
//! the Poisson stream lives in the engine's lane
//! ([`World::handle_lane`]), reserving each next arrival's `(time, seq)`
//! key at the point a queued `Arrive` event used to be scheduled, so
//! every event fires in the same order as before. The domain draw goes
//! through a [`ZipfTable`] built once per `(domains, theta)` and cached
//! in the [`WorldArena`]; it returns exactly the rank [`Rng::zipf`]
//! would from the same draw.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use xc_sim::engine::{EventQueue, Simulation, World};
use xc_sim::rng::{Rng, ZipfTable};
use xc_sim::stats::{shard_share, Histogram};
use xc_sim::time::Nanos;

use crate::costs::PlatformCosts;

/// Shape of one cluster experiment (everything but the platform, which
/// enters through the derived [`PlatformCosts`] table).
#[derive(Debug, Clone)]
pub struct ClusterParams {
    /// Simulated hosts in the cluster.
    pub hosts: u32,
    /// Container domains packed onto each host.
    pub domains_per_host: u32,
    /// Modelled clients across the whole cluster (each host serves its
    /// [`shard_share`]).
    pub clients: u64,
    /// Mean client think time between a response and the next request.
    pub think_time: Nanos,
    /// Simulated duration per host.
    pub duration: Nanos,
    /// Per-domain pending-request cap; arrivals beyond it are dropped.
    pub queue_cap: usize,
    /// Zipf skew of domain popularity in `[0, 1)` (0 = uniform).
    pub zipf_theta: f64,
    /// CPU cores per host.
    pub host_cores: u32,
    /// Master seed; host `h` uses substream `h`.
    pub seed: u64,
}

impl ClusterParams {
    /// Total domains across the cluster.
    pub fn total_domains(&self) -> u64 {
        u64::from(self.hosts) * u64::from(self.domains_per_host)
    }

    /// Aggregate offered load in requests/second.
    pub fn offered_rps(&self) -> f64 {
        self.clients as f64 / self.think_time.as_secs_f64()
    }
}

/// Relative half-width of the uniform jitter on every service time.
const SERVICE_JITTER: f64 = 0.15;

/// Flat per-domain bounded FIFOs plus in-service flags.
///
/// Every domain used to own a `VecDeque` (cap-bounded by the drop
/// check), so a 2 880-domain host world was 2 880 separate ring
/// buffers. This packs them into **one** slab: `stride` slots per
/// domain (the queue cap rounded up to a power of two) with per-domain
/// wrapping `u32` head/tail counters, so `len = tail - head` and the
/// slot index is `d * stride + (counter & (stride - 1))`. The logical
/// queue discipline — FIFO order, drop when `len >= queue_cap` — is
/// exactly the old per-deque behaviour (a unit test pins the cap-64
/// drop boundary against a `VecDeque` model).
#[derive(Default)]
struct DomainFifos {
    /// All domains' ring storage, `stride` slots each. Slack beyond the
    /// live `domains * stride` prefix (from a larger earlier grid) is
    /// dead data — indexing never leaves a domain's own window.
    slots: Vec<Nanos>,
    /// Per-domain head counters (wrapping).
    heads: Vec<u32>,
    /// Per-domain tail counters (wrapping).
    tails: Vec<u32>,
    /// Whether each domain has a request on a core.
    in_service: Vec<bool>,
    /// Power-of-two slots per domain (≥ the logical queue cap).
    stride: usize,
}

impl DomainFifos {
    /// Number of domains currently configured.
    #[cfg(test)]
    fn domains(&self) -> usize {
        self.heads.len()
    }

    /// Queued requests in domain `d`'s FIFO.
    #[inline]
    fn len(&self, d: usize) -> usize {
        self.tails[d].wrapping_sub(self.heads[d]) as usize
    }

    /// Whether domain `d`'s FIFO is empty.
    #[inline]
    fn is_empty(&self, d: usize) -> bool {
        self.heads[d] == self.tails[d]
    }

    /// Appends an arrival timestamp to domain `d`'s FIFO. The caller
    /// enforces the logical cap; the ring itself never overflows
    /// because `len <= queue_cap <= stride`.
    #[inline]
    fn push(&mut self, d: usize, v: Nanos) {
        debug_assert!(self.len(d) < self.stride, "ring overfull");
        let t = self.tails[d];
        self.slots[d * self.stride + (t as usize & (self.stride - 1))] = v;
        self.tails[d] = t.wrapping_add(1);
    }

    /// Pops the oldest arrival from domain `d`'s FIFO.
    #[inline]
    fn pop(&mut self, d: usize) -> Nanos {
        debug_assert!(!self.is_empty(d), "ready domain has pending work");
        let h = self.heads[d];
        let v = self.slots[d * self.stride + (h as usize & (self.stride - 1))];
        self.heads[d] = h.wrapping_add(1);
        v
    }

    /// Whether domain `d` has a request on a core.
    #[inline]
    fn in_service(&self, d: usize) -> bool {
        self.in_service[d]
    }

    #[inline]
    fn set_in_service(&mut self, d: usize, v: bool) {
        self.in_service[d] = v;
    }

    /// Reconfigures for `domains` domains with logical cap `queue_cap`,
    /// emptying every FIFO (counters to zero) while keeping the slab
    /// allocation when it is already large enough. Stale slot contents
    /// are unreachable once `head == tail`, so they are left in place.
    fn reset(&mut self, domains: usize, queue_cap: usize) {
        self.stride = queue_cap.max(1).next_power_of_two();
        let need = domains * self.stride;
        if self.slots.len() < need {
            self.slots.resize(need, Nanos::ZERO);
        }
        self.heads.clear();
        self.heads.resize(domains, 0);
        self.tails.clear();
        self.tails.resize(domains, 0);
        self.in_service.clear();
        self.in_service.resize(domains, false);
    }

    /// Whether the slab already covers `domains` domains at `queue_cap`
    /// (i.e. a [`DomainFifos::reset`] would not allocate).
    fn covers(&self, domains: usize, queue_cap: usize) -> bool {
        let stride = queue_cap.max(1).next_power_of_two();
        self.slots.len() >= domains * stride && self.heads.capacity() >= domains
    }
}

/// One host's world: open-loop Poisson arrivals over Zipf-ranked
/// domains, cores as the shared bottleneck.
///
/// The domain FIFOs, the core run queue and the Zipf table are
/// *borrowed* from a [`WorldArena`] so the cluster grid reuses one set
/// across hosts and cells instead of rebuilding them per host. The
/// latency histogram is borrowed from the caller's [`ClusterResult`],
/// which it doubles as the range accumulator for (integer bucket adds
/// are order-independent, so recording hosts straight into one
/// histogram is byte-identical to merging per-host ones).
///
/// Arrivals fire from the engine's lane ([`World::handle_lane`]); the
/// queue holds only [`Finish`] events, one per busy core.
struct HostWorld<'a> {
    table: PlatformCosts,
    jitter: f64,
    arrival_mean_ns: f64,
    /// Domain popularity over this host's domains (the ring slab's
    /// configured domain count always matches its range).
    zipf: &'a ZipfTable,
    queue_cap: usize,
    cores: u32,
    busy_cores: u32,
    fifos: &'a mut DomainFifos,
    /// Domains ready to serve (idle, pending non-empty) waiting for a
    /// free core, FIFO. A domain is queued at most once: it enters only
    /// on its idle-with-work transition and leaves when started.
    core_queue: &'a mut VecDeque<u32>,
    /// Requests the lane has delivered (the conservation ledger's
    /// left-hand side).
    arrivals: u64,
    completed: u64,
    dropped: u64,
    latency: &'a mut Histogram,
    /// Total core-time consumed by completed-or-running service.
    busy_ns: u64,
    rng: Rng,
}

/// Domain `domain` finishes the request that arrived at `issued`.
struct Finish {
    domain: u32,
    issued: Nanos,
}

impl HostWorld<'_> {
    #[inline]
    fn sample_service(&mut self) -> Nanos {
        let f = 1.0 + self.jitter * (self.rng.next_f64() * 2.0 - 1.0);
        self.table.service.scale(f)
    }

    /// Puts ready domain `d` on a core, or in line for one.
    fn dispatch(&mut self, d: u32, queue: &mut EventQueue<Finish>) {
        if self.busy_cores < self.cores {
            self.start(d, queue);
        } else {
            self.core_queue.push_back(d);
        }
    }

    fn start(&mut self, d: u32, queue: &mut EventQueue<Finish>) {
        let issued = self.fifos.pop(d as usize);
        self.fifos.set_in_service(d as usize, true);
        self.busy_cores += 1;
        let st = self.sample_service();
        self.busy_ns += st.as_nanos();
        queue.schedule_in(st, Finish { domain: d, issued });
    }
}

impl World for HostWorld<'_> {
    type Event = Finish;

    fn handle(&mut self, now: Nanos, event: Finish, queue: &mut EventQueue<Finish>) {
        let Finish { domain, issued } = event;
        self.completed += 1;
        self.latency.record_nanos((now - issued) + self.table.rtt);
        self.fifos.set_in_service(domain as usize, false);
        self.busy_cores -= 1;
        if !self.fifos.is_empty(domain as usize) {
            // Re-compete for a core behind anyone already waiting.
            self.core_queue.push_back(domain);
        }
        while self.busy_cores < self.cores {
            let Some(next) = self.core_queue.pop_front() else {
                break;
            };
            self.start(next, queue);
        }
    }

    /// The next client request reaches the host.
    fn handle_lane(&mut self, now: Nanos, queue: &mut EventQueue<Finish>) {
        // Self-perpetuating Poisson process: draw the next inter-arrival
        // first so the stream's RNG usage is independent of what this
        // arrival does.
        let gap = self.rng.exponential(self.arrival_mean_ns);
        queue.reserve_lane_in(Nanos::from_nanos(gap as u64));
        self.arrivals += 1;
        let d = self.zipf.sample(&mut self.rng) as u32;
        let du = d as usize;
        if self.fifos.in_service(du) || !self.fifos.is_empty(du) {
            // Busy or already in line: join the domain FIFO.
            if self.fifos.len(du) >= self.queue_cap {
                self.dropped += 1;
            } else {
                self.fifos.push(du, now);
            }
        } else {
            self.fifos.push(du, now);
            self.dispatch(d, queue);
        }
    }
}

/// One host's contribution to a cluster run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HostResult {
    /// Requests served to completion.
    pub completed: u64,
    /// Requests dropped at a full domain queue.
    pub dropped: u64,
    /// Completed-request latency distribution (nanoseconds).
    pub latency: Histogram,
    /// Core-nanoseconds of service consumed.
    pub busy_ns: u64,
}

/// Merged results of a host range (or the whole cluster).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterResult {
    /// Hosts merged into this result.
    pub hosts: u32,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests dropped at a full domain queue.
    pub dropped: u64,
    /// Completed-request latency distribution (nanoseconds).
    pub latency: Histogram,
    /// Core-nanoseconds of service consumed across the range.
    pub busy_ns: u64,
}

impl ClusterResult {
    /// Folds `host` in. Callers must merge in host-index order — the
    /// histogram merge is exact, so order only matters for keeping the
    /// float throughput sums bit-identical across run arrangements.
    pub fn absorb(&mut self, host: &HostResult) {
        self.hosts += 1;
        self.completed += host.completed;
        self.dropped += host.dropped;
        self.latency.merge(&host.latency);
        self.busy_ns += host.busy_ns;
    }

    /// Folds another merged range in (same ordering contract).
    pub fn merge(&mut self, other: &ClusterResult) {
        self.hosts += other.hosts;
        self.completed += other.completed;
        self.dropped += other.dropped;
        self.latency.merge(&other.latency);
        self.busy_ns += other.busy_ns;
    }

    /// Folds a whole slice of merged ranges in with a single pass over
    /// the latency buckets ([`Histogram::merge_many`]). The scalar
    /// counters are integer sums, so this is byte-identical to calling
    /// [`merge`](Self::merge) once per element in order — the bench
    /// harness uses it to reduce a platform's host chunks in one go.
    pub fn merge_many(&mut self, others: &[&ClusterResult]) {
        for other in others {
            self.hosts += other.hosts;
            self.completed += other.completed;
            self.dropped += other.dropped;
            self.busy_ns += other.busy_ns;
        }
        let hists: Vec<&Histogram> = others.iter().map(|o| &o.latency).collect();
        self.latency.merge_many(&hists);
    }

    /// Served requests per second across the merged hosts.
    pub fn throughput_rps(&self, duration: Nanos) -> f64 {
        self.completed as f64 / duration.as_secs_f64()
    }

    /// Fraction of arrivals dropped at full queues.
    pub fn drop_rate(&self) -> f64 {
        let offered = self.completed + self.dropped;
        if offered == 0 {
            0.0
        } else {
            self.dropped as f64 / offered as f64
        }
    }

    /// Mean core utilization over the merged hosts.
    pub fn utilization(&self, host_cores: u32, duration: Nanos) -> f64 {
        let capacity = u64::from(self.hosts) * u64::from(host_cores) * duration.as_nanos();
        if capacity == 0 {
            0.0
        } else {
            self.busy_ns as f64 / capacity as f64
        }
    }

    /// Latency quantile in milliseconds.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.latency.quantile(q) as f64 / 1_000_000.0
    }

    /// Per-host density: how many domains of this load class one host
    /// sustains at full cores, from the observed mean service time and
    /// the per-domain offered rate. The headline "containers per host"
    /// number the platform comparison is about.
    pub fn density_domains_per_host(&self, params: &ClusterParams) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        let mean_service_ns = self.busy_ns as f64 / self.completed as f64;
        let per_domain_rps =
            params.offered_rps() / params.hosts as f64 / f64::from(params.domains_per_host);
        let cores_per_domain = per_domain_rps * mean_service_ns / 1e9;
        f64::from(params.host_cores) / cores_per_domain
    }
}

/// Worlds assembled from freshly allocated (or grown) storage.
static ARENA_ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Worlds assembled entirely from recycled arena storage.
static ARENA_REUSES: AtomicU64 = AtomicU64::new(0);

/// Cumulative `(allocated, reused)` world-construction counters across
/// every thread's arena, for the bench ledger: in steady state the grid
/// should report almost all reuses — one allocation per worker thread
/// per storage growth, not one per host.
pub fn arena_counters() -> (u64, u64) {
    (
        ARENA_ALLOCS.load(Ordering::Relaxed),
        ARENA_REUSES.load(Ordering::Relaxed),
    )
}

/// Reusable backing storage for [`HostWorld`]s and their event queues.
///
/// Every host in the cluster grid needs the same heap structure — the
/// flat [`DomainFifos`] ring slab, a core run queue and a calendar-queue
/// wheel — so the arena keeps one set alive and hands it out reset
/// instead of letting each host reallocate it. The resets restore the
/// exact logical state of fresh storage ([`EventQueue::reset`] rewinds
/// even the adaptive bucket width and the lane), so arena-backed runs
/// are byte-identical to freshly-allocated ones — a feature-gated
/// proptest pins that equivalence. The arena also caches the
/// [`ZipfTable`] of the last `(domains, theta)` it served, which every
/// host of a grid shares; it is built on first use, inside the first
/// cell that needs it.
#[derive(Default)]
pub struct WorldArena {
    fifos: DomainFifos,
    core_queue: VecDeque<u32>,
    queue: Option<EventQueue<Finish>>,
    zipf: Option<ZipfTable>,
}

impl WorldArena {
    /// Creates an empty arena; storage is allocated on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the pooled storage for a world of `domains` domains with
    /// per-domain queue cap `queue_cap` and Zipf skew `theta`, and bumps
    /// the global alloc/reuse counters. The ring slab keeps its buffer
    /// whenever it already covers the requested geometry; the Zipf table
    /// is rebuilt only when `domains` or `theta` differs from the cached
    /// one.
    fn prepare(
        &mut self,
        domains: usize,
        queue_cap: usize,
        theta: f64,
        queue_capacity: usize,
    ) -> EventQueue<Finish> {
        let reused = self.queue.is_some() && self.fifos.covers(domains, queue_cap);
        if reused {
            ARENA_REUSES.fetch_add(1, Ordering::Relaxed);
        } else {
            ARENA_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        self.fifos.reset(domains, queue_cap);
        self.core_queue.clear();
        let n = domains as u64;
        let stale = self
            .zipf
            .as_ref()
            .is_none_or(|t| t.n() != n || t.theta().to_bits() != theta.to_bits());
        if stale {
            self.zipf = Some(ZipfTable::new(n, theta));
        }
        match self.queue.take() {
            Some(mut q) => {
                q.reset();
                q
            }
            None => EventQueue::with_capacity(queue_capacity),
        }
    }
}

thread_local! {
    /// One arena per worker thread: the parallel runner hands each
    /// thread a stream of grid cells, and every cell on that thread
    /// reuses the same world storage.
    static ARENA: RefCell<WorldArena> = RefCell::new(WorldArena::new());
}

/// Simulates one host of the cluster. Pure function of
/// `(table, params, host_index)` — the unit every driver composes from.
pub fn simulate_host(table: &PlatformCosts, params: &ClusterParams, host: u32) -> HostResult {
    let mut arena = WorldArena::new();
    let r = run_cluster_range_in(&mut arena, table, params, host, 1);
    HostResult {
        completed: r.completed,
        dropped: r.dropped,
        latency: r.latency,
        busy_ns: r.busy_ns,
    }
}

/// Simulates the contiguous host range `[first, first + count)` into a
/// single [`ClusterResult`], drawing world storage from `arena`.
///
/// Byte-identical to simulating each host with fresh storage and
/// merging in host-index order: the resets restore fresh logical state,
/// and the shared latency histogram accumulates integer bucket counts,
/// which sum the same whether recorded directly or merged per host.
pub fn run_cluster_range_in(
    arena: &mut WorldArena,
    table: &PlatformCosts,
    params: &ClusterParams,
    first: u32,
    count: u32,
) -> ClusterResult {
    let mut out = ClusterResult::default();
    for host in first..first + count {
        out.hosts += 1;
        if let Some(ledger) = run_host(arena, table, params, host, &mut out.latency) {
            out.completed += ledger.completed;
            out.dropped += ledger.dropped;
            out.busy_ns += ledger.busy_ns;
        }
    }
    out
}

/// Where one host's requests stand at the horizon.
#[derive(Debug, Clone, Copy)]
struct HostLedger {
    /// Requests that reached the host.
    arrivals: u64,
    /// Requests served to completion.
    completed: u64,
    /// Requests dropped at a full domain queue.
    dropped: u64,
    /// Requests waiting in domain FIFOs.
    queued: u64,
    /// Requests on a core.
    in_service: u64,
    /// Core-nanoseconds of service started, in-flight service included.
    busy_ns: u64,
}

/// Simulates host `host` to the horizon, recording its latencies into
/// `latency`. `None` when the host has no clients or no domains.
fn run_host(
    arena: &mut WorldArena,
    table: &PlatformCosts,
    params: &ClusterParams,
    host: u32,
    latency: &mut Histogram,
) -> Option<HostLedger> {
    let clients = shard_share(params.clients, u64::from(params.hosts), u64::from(host));
    if clients == 0 || params.domains_per_host == 0 {
        return None;
    }
    let n = params.domains_per_host as usize;
    let queue_cap = params.queue_cap.max(1);
    let queue = arena.prepare(n, queue_cap, params.zipf_theta, n + 2);
    let world = HostWorld {
        table: *table,
        jitter: SERVICE_JITTER,
        arrival_mean_ns: params.think_time.as_nanos() as f64 / clients as f64,
        zipf: arena.zipf.as_ref().expect("prepare builds the table"),
        queue_cap,
        cores: params.host_cores.max(1),
        busy_cores: 0,
        fifos: &mut arena.fifos,
        core_queue: &mut arena.core_queue,
        arrivals: 0,
        completed: 0,
        dropped: 0,
        latency,
        busy_ns: 0,
        rng: Rng::substream(params.seed, u64::from(host)),
    };
    let mut sim = Simulation::from_parts(world, queue);
    sim.queue_mut().reserve_lane_at(Nanos::ZERO);
    sim.run_until(params.duration);
    let (world, queue) = sim.into_parts();
    let ledger = HostLedger {
        arrivals: world.arrivals,
        completed: world.completed,
        dropped: world.dropped,
        queued: (0..n).map(|d| world.fifos.len(d) as u64).sum(),
        in_service: u64::from(world.busy_cores),
        busy_ns: world.busy_ns,
    };
    debug_assert_eq!(
        ledger.arrivals,
        ledger.completed + ledger.dropped + ledger.queued + ledger.in_service,
        "host {host} lost or invented requests: {ledger:?}"
    );
    arena.queue = Some(queue);
    Some(ledger)
}

/// Simulates the contiguous host range `[first, first + count)` and
/// merges in host-index order, using the calling thread's arena (world
/// storage is recycled across every range this thread simulates).
pub fn run_cluster_range(
    table: &PlatformCosts,
    params: &ClusterParams,
    first: u32,
    count: u32,
) -> ClusterResult {
    ARENA.with(|arena| run_cluster_range_in(&mut arena.borrow_mut(), table, params, first, count))
}

/// Simulates the whole cluster serially — the golden reference the
/// parallel harness cells must reproduce byte-for-byte.
pub fn run_cluster(table: &PlatformCosts, params: &ClusterParams) -> ClusterResult {
    run_cluster_range(table, params, 0, params.hosts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;
    use crate::http::ServerModel;
    use xc_runtimes::cloud::CloudEnv;
    use xc_runtimes::platform::Platform;
    use xc_sim::cost::CostModel;

    fn table(platform: Platform) -> PlatformCosts {
        let costs = CostModel::skylake_cloud();
        PlatformCosts::derive(
            &ServerModel {
                platform,
                profile: apps::microservice(),
                workers: 1,
                cores: 1,
            },
            &costs,
        )
    }

    fn params() -> ClusterParams {
        ClusterParams {
            hosts: 4,
            domains_per_host: 6,
            clients: 20_000,
            think_time: Nanos::from_secs(1),
            duration: Nanos::from_millis(80),
            queue_cap: 64,
            zipf_theta: 0.4,
            host_cores: 16,
            seed: 11,
        }
    }

    #[test]
    fn fifo_ring_matches_vecdeque_at_cap_64_drop_boundary() {
        // Drive the flat ring and a per-domain VecDeque model through an
        // identical operation stream with the production drop rule
        // (`len >= cap` ⇒ drop) at the study's cap of 64, crossing the
        // boundary repeatedly: fill past full, drain partially, refill.
        const CAP: usize = 64;
        const DOMS: usize = 3;
        let mut ring = DomainFifos::default();
        ring.reset(DOMS, CAP);
        assert_eq!(ring.domains(), DOMS);
        let mut model: Vec<VecDeque<Nanos>> = vec![VecDeque::new(); DOMS];
        let mut rng = Rng::new(7);
        let mut drops = (0u64, 0u64);
        for step in 0..10_000u64 {
            let d = (rng.next_u64() % DOMS as u64) as usize;
            let push = !rng.next_u64().is_multiple_of(3); // pushes outnumber pops
            if push {
                let v = Nanos::from_nanos(step);
                if ring.len(d) >= CAP {
                    drops.0 += 1;
                } else {
                    ring.push(d, v);
                }
                if model[d].len() >= CAP {
                    drops.1 += 1;
                } else {
                    model[d].push_back(v);
                }
            } else if !ring.is_empty(d) {
                assert_eq!(Some(ring.pop(d)), model[d].pop_front());
            } else {
                assert!(model[d].is_empty());
            }
            assert_eq!(ring.len(d), model[d].len());
            assert_eq!(ring.is_empty(d), model[d].is_empty());
        }
        assert_eq!(drops.0, drops.1);
        assert!(drops.0 > 0, "stream must actually hit the drop boundary");
        // Residual contents drain in identical FIFO order.
        for (d, m) in model.iter_mut().enumerate() {
            while let Some(v) = m.pop_front() {
                assert_eq!(ring.pop(d), v);
            }
            assert!(ring.is_empty(d));
        }
        // A reset empties every FIFO without reallocating the slab.
        ring.push(1, Nanos::from_nanos(9));
        ring.set_in_service(2, true);
        assert!(ring.covers(DOMS, CAP));
        ring.reset(DOMS, CAP);
        assert!(ring.is_empty(1) && !ring.in_service(2));
    }

    #[test]
    fn deterministic_and_range_merge_invariant() {
        let t = table(Platform::docker(CloudEnv::LocalCluster, true));
        let p = params();
        let a = run_cluster(&t, &p);
        let b = run_cluster(&t, &p);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.latency, b.latency);
        // Splitting the host range anywhere and merging in order is the
        // same computation.
        for split in [1, 2, 3] {
            let mut merged = run_cluster_range(&t, &p, 0, split);
            merged.merge(&run_cluster_range(&t, &p, split, p.hosts - split));
            assert_eq!(merged.hosts, a.hosts);
            assert_eq!(merged.completed, a.completed);
            assert_eq!(merged.dropped, a.dropped);
            assert_eq!(merged.latency, a.latency);
            assert_eq!(merged.busy_ns, a.busy_ns);
        }
    }

    #[test]
    fn hosts_differ_but_all_serve() {
        // Substream seeding: hosts are distinct worlds, none degenerate.
        let t = table(Platform::docker(CloudEnv::LocalCluster, true));
        let p = params();
        let h0 = simulate_host(&t, &p, 0);
        let h1 = simulate_host(&t, &p, 1);
        assert!(h0.completed > 0 && h1.completed > 0);
        assert_ne!(
            h0.latency, h1.latency,
            "distinct substreams must decorrelate hosts"
        );
    }

    #[test]
    fn slow_platform_saturates_first() {
        let p = params();
        let docker = run_cluster(&table(Platform::docker(CloudEnv::LocalCluster, true)), &p);
        let gvisor = run_cluster(&table(Platform::gvisor(CloudEnv::LocalCluster, true)), &p);
        assert!(
            gvisor.completed < docker.completed,
            "gvisor {} vs docker {}",
            gvisor.completed,
            docker.completed
        );
        assert!(
            gvisor.quantile_ms(0.99) > docker.quantile_ms(0.99),
            "gvisor p99 {} vs docker p99 {}",
            gvisor.quantile_ms(0.99),
            docker.quantile_ms(0.99)
        );
        assert!(
            gvisor.density_domains_per_host(&p) < docker.density_domains_per_host(&p),
            "density must favor the faster platform"
        );
    }

    #[test]
    fn load_drives_utilization_and_drops() {
        let t = table(Platform::docker(CloudEnv::LocalCluster, true));
        let mut light = params();
        light.clients = 4_000;
        let mut heavy = params();
        heavy.clients = 200_000;
        let l = run_cluster(&t, &light);
        let h = run_cluster(&t, &heavy);
        assert!(h.utilization(16, heavy.duration) > l.utilization(16, light.duration) * 2.0);
        assert!(h.drop_rate() > l.drop_rate());
        assert!(h.quantile_ms(0.99) > l.quantile_ms(0.99));
    }

    /// Conservation at the horizon, per host: every arrival the lane
    /// fired is completed, dropped, queued or on a core, and the core
    /// time started fits the host's capacity plus what is still in
    /// flight (at most one maximally jittered service per busy core).
    #[test]
    fn every_host_balances_its_ledger() {
        // The cluster study's quick grid, at normal and at overload.
        let quick = ClusterParams {
            hosts: 8,
            domains_per_host: 6,
            clients: 40_000,
            think_time: Nanos::from_secs(1),
            duration: Nanos::from_millis(120),
            queue_cap: 64,
            zipf_theta: 0.2,
            host_cores: 16,
            seed: 42,
        };
        let overload = ClusterParams {
            clients: 4_000_000,
            ..quick.clone()
        };
        let cloud = CloudEnv::LocalCluster;
        let platforms = [
            Platform::docker(cloud, true),
            Platform::xen_container(cloud, true),
            Platform::x_container(cloud, true),
            Platform::gvisor(cloud, true),
        ];
        let mut arena = WorldArena::new();
        let (mut drops, mut backlog) = (0, 0);
        for p in [&quick, &overload] {
            for platform in &platforms {
                let t = table(platform.clone());
                let max_service = t.service.scale(1.0 + SERVICE_JITTER).as_nanos();
                let capacity = u64::from(p.host_cores) * p.duration.as_nanos();
                let mut whole = ClusterResult::default();
                for host in 0..p.hosts {
                    let name = platform.name();
                    let l = run_host(&mut arena, &t, p, host, &mut whole.latency)
                        .expect("every quick host has clients");
                    assert!(l.arrivals > 0, "{name} host {host}: no arrivals");
                    assert_eq!(
                        l.arrivals,
                        l.completed + l.dropped + l.queued + l.in_service,
                        "{name} host {host}: {l:?}"
                    );
                    assert!(l.in_service <= u64::from(p.host_cores), "{name}: {l:?}");
                    assert!(
                        l.busy_ns <= capacity + l.in_service * max_service,
                        "{name} host {host}: busy {} ns over {capacity} ns + in flight: {l:?}",
                        l.busy_ns
                    );
                    drops += l.dropped;
                    backlog += l.queued;
                    whole.completed += l.completed;
                }
                assert_eq!(whole.latency.count(), whole.completed);
            }
        }
        assert!(drops > 0 && backlog > 0, "overload must queue and drop");
    }
}
