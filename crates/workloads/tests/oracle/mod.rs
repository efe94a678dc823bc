//! Event-driven reference for the closed loop: the per-worker world
//! the http module ran on the `xc-sim` engine before it became a
//! Lindley recursion, kept here as an independent oracle.
//!
//! Each worker is a DES world with two events per request — an
//! `Arrive` at the server and a `Finish` of its service — driven by
//! the calendar queue in `(time, seq)` order. Service draws come from
//! the un-batched `Rng::next_f64` stream, one per service start, so the
//! oracle also checks that the recursion's uniform slab changes no draw.

// Each test crate that includes this module reads a different subset.
#![allow(dead_code)]

use std::collections::VecDeque;

use xc_sim::engine::{EventQueue, Simulation, World};
use xc_sim::rng::Rng;
use xc_sim::stats::{shard_share, Histogram};
use xc_sim::time::Nanos;
use xc_workloads::costs::PlatformCosts;

/// What the reference run observed.
pub struct Reference {
    /// Requests whose service finished by the deadline.
    pub completed: u64,
    /// Their latencies, merged in worker order.
    pub latency: Histogram,
    /// Instant of the latest counted finish (zero if none).
    pub last_finish: Nanos,
    /// `Arrive`/`Finish` events that fired at the same instant on one
    /// worker, in either order — the ties whose order must not matter.
    pub ties: u64,
}

enum Ev {
    Arrive { issued_at: Nanos },
    Finish { issued_at: Nanos },
}

struct WorkerLoop {
    service: Nanos,
    rtt: Nanos,
    busy: bool,
    completed: u64,
    latency: Histogram,
    rng: Rng,
    waiting: VecDeque<Nanos>,
    last_finish: Option<Nanos>,
    last_arrive: Option<Nanos>,
    ties: u64,
}

impl WorkerLoop {
    fn sample_service(&mut self) -> Nanos {
        let f = 1.0 + 0.15 * (self.rng.next_f64() * 2.0 - 1.0);
        self.service.scale(f)
    }
}

impl World for WorkerLoop {
    type Event = Ev;

    fn handle(&mut self, now: Nanos, event: Ev, queue: &mut EventQueue<Ev>) {
        match event {
            Ev::Arrive { issued_at } => {
                if self.last_finish == Some(now) {
                    self.ties += 1;
                }
                self.last_arrive = Some(now);
                if self.busy {
                    self.waiting.push_back(issued_at);
                } else {
                    self.busy = true;
                    let st = self.sample_service();
                    queue.schedule_in(st, Ev::Finish { issued_at });
                }
            }
            Ev::Finish { issued_at } => {
                if self.last_arrive == Some(now) {
                    self.ties += 1;
                }
                self.last_finish = Some(now);
                self.completed += 1;
                self.latency.record_nanos((now - issued_at) + self.rtt);
                queue.schedule_in(
                    self.rtt,
                    Ev::Arrive {
                        issued_at: now + self.rtt,
                    },
                );
                if let Some(waiting_since) = self.waiting.pop_front() {
                    let st = self.sample_service();
                    queue.schedule_in(
                        st,
                        Ev::Finish {
                            issued_at: waiting_since,
                        },
                    );
                } else {
                    self.busy = false;
                }
            }
        }
    }
}

/// Runs the closed loop event by event: the same per-worker split,
/// RNG substreams, arrival stagger and inclusive deadline as
/// `run_closed_loop_from`.
pub fn run(table: &PlatformCosts, connections: u32, duration: Nanos, seed: u64) -> Reference {
    let workers = table.parallelism.max(1);
    let total = u64::from(connections);
    let mut out = Reference {
        completed: 0,
        latency: Histogram::new(),
        last_finish: Nanos::ZERO,
        ties: 0,
    };
    let mut first = 0u64;
    for w in 0..workers {
        let count = shard_share(total, u64::from(workers), u64::from(w));
        let mut sim = Simulation::new(WorkerLoop {
            service: table.service,
            rtt: table.rtt,
            busy: false,
            completed: 0,
            latency: Histogram::new(),
            rng: Rng::substream(seed, u64::from(w)),
            waiting: VecDeque::new(),
            last_finish: None,
            last_arrive: None,
            ties: 0,
        });
        for g in first..first + count {
            let offset = table.rtt * g / total.max(1);
            sim.queue_mut()
                .schedule_at(offset, Ev::Arrive { issued_at: offset });
        }
        sim.run_until(duration);
        let world = sim.into_world();
        out.completed += world.completed;
        out.latency.merge(&world.latency);
        out.last_finish = out
            .last_finish
            .max(world.last_finish.unwrap_or(Nanos::ZERO));
        out.ties += world.ties;
        first += count;
    }
    out
}
