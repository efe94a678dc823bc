//! Deterministic discrete-event simulation engine.
//!
//! The engine is a classic event-queue DES specialised for determinism:
//! events scheduled for the same instant fire in insertion order (a strictly
//! monotonic sequence number breaks ties), so a simulation is a pure function
//! of its inputs.
//!
//! Ownership is structured to fit Rust: the *world* (all mutable simulation
//! state) is a single value implementing [`World`]; events are plain data
//! (usually an enum); and the engine hands the world each event together with
//! a mutable [`EventQueue`] through which it may schedule more events. No
//! `Rc<RefCell<…>>` webs, no trait-object callbacks.
//!
//! # The lane
//!
//! A world may also keep one self-perpetuating event stream — an
//! open-loop arrival process, say — *outside* the queue. Each firing
//! reserves the stream's next instant with [`EventQueue::reserve_lane_in`],
//! which takes a `(time, seq)` key from the queue's own sequence counter
//! exactly as [`EventQueue::schedule_in`] would, and parks it in a single
//! slot. The run loop merges that key with the queue front under the same
//! total order and calls [`World::handle_lane`] when it wins. Keys are
//! unique, so a lane-driven stream fires in exactly the order it would
//! have as ordinary events; it just skips a push and a pop per firing.
//!
//! # Example
//!
//! ```
//! use xc_sim::engine::{EventQueue, Simulation, World};
//! use xc_sim::time::Nanos;
//!
//! struct Counter { fired: u32 }
//! enum Ev { Tick }
//!
//! impl World for Counter {
//!     type Event = Ev;
//!     fn handle(&mut self, now: Nanos, _ev: Ev, queue: &mut EventQueue<Ev>) {
//!         self.fired += 1;
//!         if self.fired < 3 {
//!             queue.schedule_in(Nanos::from_nanos(10), Ev::Tick);
//!         }
//!         let _ = now;
//!     }
//! }
//!
//! let mut sim = Simulation::new(Counter { fired: 0 });
//! sim.queue_mut().schedule_at(Nanos::ZERO, Ev::Tick);
//! sim.run();
//! assert_eq!(sim.world().fired, 3);
//! assert_eq!(sim.now(), Nanos::from_nanos(20));
//! ```

use crate::calendar::{key, key_time, CalendarQueue};
use crate::time::Nanos;

/// Simulation state that reacts to events.
///
/// Implementors own *all* mutable state of a simulation; the engine owns the
/// clock and the pending-event queue.
pub trait World: Sized {
    /// The event type driving this world (usually an enum).
    type Event;

    /// Handles one event at simulated time `now`.
    ///
    /// The handler may schedule follow-up events through `queue`; it must not
    /// assume any particular ordering among events scheduled for the same
    /// instant other than insertion order.
    fn handle(&mut self, now: Nanos, event: Self::Event, queue: &mut EventQueue<Self::Event>);

    /// Handles one firing of the lane (see the [module docs](self)) at
    /// simulated time `now`. The lane is empty on entry; a stream that
    /// continues reserves its next instant through `queue`.
    ///
    /// Only worlds that call [`EventQueue::reserve_lane_at`] or
    /// [`EventQueue::reserve_lane_in`] are ever asked to handle the lane.
    fn handle_lane(&mut self, now: Nanos, queue: &mut EventQueue<Self::Event>) {
        let _ = (now, queue);
        unreachable!("the lane fired in a world that never reserved it");
    }
}

/// The pending-event queue handed to [`World::handle`].
///
/// Events may be scheduled for the current instant or any future instant;
/// scheduling into the past is a logic error and panics, because it would
/// silently corrupt causality.
///
/// Storage is a [`CalendarQueue`] (see [`crate::calendar`]): events are
/// keyed by `(time, seq)` packed into a `u128`, and the wheel pops keys
/// in the same strictly ascending order the previous binary heap did,
/// with O(1) amortised push/pop instead of O(log n). The lane's reserved
/// key, if any, sits beside the calendar and counts as one pending event.
#[derive(Default)]
pub struct EventQueue<E> {
    cal: CalendarQueue<E>,
    /// The lane's next `(time, seq)` key.
    lane: Option<u128>,
    seq: u64,
    now: Nanos,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            cal: CalendarQueue::new(),
            lane: None,
            seq: 0,
            now: Nanos::ZERO,
        }
    }

    /// Creates an empty queue with room for `capacity` pending events
    /// before the open bucket reallocates.
    ///
    /// Closed-loop workloads know their steady-state queue depth up front
    /// (roughly one in-flight event per connection plus one per busy
    /// worker); pre-sizing removes every mid-run growth.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            cal: CalendarQueue::with_capacity(capacity),
            lane: None,
            seq: 0,
            now: Nanos::ZERO,
        }
    }

    /// Reserves room for at least `additional` more pending events.
    pub fn reserve(&mut self, additional: usize) {
        self.cal.reserve(additional);
    }

    /// Clears pending events (the lane too) and rewinds the clock and
    /// sequence counter to zero, keeping the calendar queue's allocations (see
    /// [`CalendarQueue::reset`]). A reset queue behaves exactly like a
    /// fresh one, which is what lets world arenas recycle it across
    /// simulations without perturbing determinism.
    pub fn reset(&mut self) {
        self.cal.reset();
        self.lane = None;
        self.seq = 0;
        self.now = Nanos::ZERO;
    }

    /// Current simulated time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Number of pending events, a reserved lane instant included.
    pub fn len(&self) -> usize {
        self.cal.len() + usize::from(self.lane.is_some())
    }

    /// Whether no events are pending and the lane is empty.
    pub fn is_empty(&self) -> bool {
        self.cal.is_empty() && self.lane.is_none()
    }

    /// Takes the next sequence number for an event at `at`.
    #[inline]
    fn next_key(&mut self, at: Nanos) -> u128 {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at}, now={}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        key(at, seq)
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time.
    #[inline]
    pub fn schedule_at(&mut self, at: Nanos, event: E) {
        let key = self.next_key(at);
        self.cal.push(key, event);
    }

    /// Schedules `event` after a relative `delay`.
    #[inline]
    pub fn schedule_in(&mut self, delay: Nanos, event: E) {
        let at = self.now.saturating_add(delay);
        self.schedule_at(at, event);
    }

    /// Reserves the lane's next firing at the absolute instant `at`
    /// (see the [module docs](self)). The key takes the next sequence
    /// number, exactly as [`schedule_at`](Self::schedule_at) would.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time or the lane
    /// already holds a reserved instant.
    #[inline]
    pub fn reserve_lane_at(&mut self, at: Nanos) {
        assert!(self.lane.is_none(), "the lane is already reserved");
        self.lane = Some(self.next_key(at));
    }

    /// Reserves the lane's next firing after a relative `delay`.
    #[inline]
    pub fn reserve_lane_in(&mut self, delay: Nanos) {
        let at = self.now.saturating_add(delay);
        self.reserve_lane_at(at);
    }

    /// The instant of the next pending event or lane firing, if any.
    /// Takes `&mut self` because finding the front may advance the wheel
    /// cursor; the visible state (pending events, `now`) is unchanged.
    #[inline]
    pub fn peek_at(&mut self) -> Option<Nanos> {
        let front = match (self.cal.peek_key(), self.lane) {
            (Some(k), Some(lane)) => Some(k.min(lane)),
            (k, lane) => k.or(lane),
        };
        front.map(key_time)
    }

    #[inline]
    fn pop(&mut self) -> Option<Due<E>> {
        self.pop_due(Nanos::MAX)
    }

    /// Pops the next event or lane firing iff it is due at or before
    /// `deadline` — a fused peek-then-pop so bounded drains touch the
    /// calendar front once per event.
    #[inline]
    fn pop_due(&mut self, deadline: Nanos) -> Option<Due<E>> {
        // Every seq at time `deadline` qualifies, so the limit key is
        // (deadline, u64::MAX).
        let limit = key(deadline, u64::MAX);
        let Some(lane) = self.lane else {
            return self.cal.pop_due(limit).map(|(key, event)| {
                self.advance_to(key);
                Due::Event(key_time(key), event)
            });
        };
        // Keys are unique, so the calendar front wins iff it is below
        // the lane's key; a lane at (0, 0) has nothing below it.
        if let Some(below) = lane.checked_sub(1) {
            if let Some((key, event)) = self.cal.pop_due(limit.min(below)) {
                self.advance_to(key);
                return Some(Due::Event(key_time(key), event));
            }
        }
        if lane > limit {
            return None;
        }
        self.lane = None;
        self.advance_to(lane);
        Some(Due::Lane(key_time(lane)))
    }

    #[inline]
    fn advance_to(&mut self, key: u128) {
        let at = key_time(key);
        debug_assert!(at >= self.now);
        self.now = at;
    }
}

/// What the run loop pops next: a queued event or a lane firing.
#[derive(Debug, PartialEq)]
enum Due<E> {
    Event(Nanos, E),
    Lane(Nanos),
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .finish()
    }
}

/// A running simulation: a [`World`] plus its event queue and clock.
#[derive(Debug)]
pub struct Simulation<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    steps: u64,
}

impl<W: World> Simulation<W> {
    /// Wraps a world with an empty event queue at time zero.
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            queue: EventQueue::new(),
            steps: 0,
        }
    }

    /// Like [`Simulation::new`], with the event queue pre-sized for
    /// `capacity` pending events (see [`EventQueue::with_capacity`]).
    pub fn with_capacity(world: W, capacity: usize) -> Self {
        Simulation {
            world,
            queue: EventQueue::with_capacity(capacity),
            steps: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Nanos {
        self.queue.now()
    }

    /// Total number of events processed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world (e.g. to inspect or seed state between
    /// phases).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Mutable access to the event queue (e.g. to schedule initial events).
    pub fn queue_mut(&mut self) -> &mut EventQueue<W::Event> {
        &mut self.queue
    }

    /// Wraps a world around an existing — typically recycled — event
    /// queue. For a reproducible run the queue should be in its reset
    /// state (time zero, no pending events, see [`EventQueue::reset`]);
    /// the step counter starts at zero either way.
    pub fn from_parts(world: W, queue: EventQueue<W::Event>) -> Self {
        Simulation {
            world,
            queue,
            steps: 0,
        }
    }

    /// Consumes the simulation, returning the final world state.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Consumes the simulation, returning both the world and the event
    /// queue so callers can recycle the queue's allocations (the
    /// counterpart to [`Simulation::from_parts`]).
    pub fn into_parts(self) -> (W, EventQueue<W::Event>) {
        (self.world, self.queue)
    }

    /// Processes a single event or lane firing. Returns `false` when
    /// nothing is pending.
    #[inline]
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some(due) => {
                self.dispatch(due);
                true
            }
            None => false,
        }
    }

    #[inline]
    fn dispatch(&mut self, due: Due<W::Event>) {
        self.steps += 1;
        match due {
            Due::Event(at, event) => self.world.handle(at, event, &mut self.queue),
            Due::Lane(at) => self.world.handle_lane(at, &mut self.queue),
        }
    }

    /// Runs until the event queue drains. Returns the finishing time.
    pub fn run(&mut self) -> Nanos {
        while self.step() {}
        self.now()
    }

    /// Runs until the queue drains or the clock passes `deadline`, whichever
    /// comes first. Events scheduled at exactly `deadline` are processed.
    pub fn run_until(&mut self, deadline: Nanos) -> Nanos {
        while let Some(due) = self.queue.pop_due(deadline) {
            self.dispatch(due);
        }
        // Advance the clock to the deadline even if the queue drained early,
        // so measurement windows have a well-defined length.
        if self.queue.now < deadline {
            self.queue.now = deadline;
        }
        self.now()
    }

    /// Runs for at most `max_steps` additional events (a runaway backstop for
    /// property tests). Returns the number of events processed.
    pub fn run_steps(&mut self, max_steps: u64) -> u64 {
        let mut n = 0;
        while n < max_steps && self.step() {
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Recorder {
        log: Vec<(u64, u32)>,
    }

    enum Ev {
        Mark(u32),
        Chain(u32),
    }

    impl World for Recorder {
        type Event = Ev;
        fn handle(&mut self, now: Nanos, event: Ev, queue: &mut EventQueue<Ev>) {
            match event {
                Ev::Mark(id) => self.log.push((now.as_nanos(), id)),
                Ev::Chain(depth) => {
                    self.log.push((now.as_nanos(), depth));
                    if depth > 0 {
                        queue.schedule_in(Nanos::from_nanos(5), Ev::Chain(depth - 1));
                    }
                }
            }
        }
    }

    fn sim() -> Simulation<Recorder> {
        Simulation::new(Recorder { log: Vec::new() })
    }

    /// Pops the next queued event, which must not be a lane firing.
    fn pop<E>(q: &mut EventQueue<E>) -> Option<(Nanos, E)> {
        match q.pop()? {
            Due::Event(at, event) => Some((at, event)),
            Due::Lane(at) => panic!("unexpected lane firing at {at}"),
        }
    }

    #[test]
    fn fires_in_time_order() {
        let mut s = sim();
        s.queue_mut()
            .schedule_at(Nanos::from_nanos(30), Ev::Mark(3));
        s.queue_mut()
            .schedule_at(Nanos::from_nanos(10), Ev::Mark(1));
        s.queue_mut()
            .schedule_at(Nanos::from_nanos(20), Ev::Mark(2));
        s.run();
        assert_eq!(s.world().log, vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn simultaneous_events_fire_in_insertion_order() {
        let mut s = sim();
        for id in 0..10 {
            s.queue_mut()
                .schedule_at(Nanos::from_nanos(50), Ev::Mark(id));
        }
        s.run();
        let ids: Vec<u32> = s.world().log.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn chained_events_advance_clock() {
        let mut s = sim();
        s.queue_mut().schedule_at(Nanos::ZERO, Ev::Chain(4));
        let end = s.run();
        assert_eq!(end, Nanos::from_nanos(20));
        assert_eq!(s.steps(), 5);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut s = sim();
        s.queue_mut().schedule_at(Nanos::ZERO, Ev::Chain(100));
        s.run_until(Nanos::from_nanos(23));
        // Events at t=0,5,10,15,20 fire; t=25 does not.
        assert_eq!(s.world().log.len(), 5);
        assert_eq!(s.now(), Nanos::from_nanos(23));
        // Remaining events still fire afterwards.
        s.run_until(Nanos::from_nanos(25));
        assert_eq!(s.world().log.len(), 6);
    }

    #[test]
    fn run_until_advances_clock_when_drained() {
        let mut s = sim();
        s.queue_mut().schedule_at(Nanos::from_nanos(5), Ev::Mark(1));
        s.run_until(Nanos::from_nanos(1_000));
        assert_eq!(s.now(), Nanos::from_nanos(1_000));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut s = sim();
        s.queue_mut()
            .schedule_at(Nanos::from_nanos(10), Ev::Mark(1));
        s.run();
        s.queue_mut().schedule_at(Nanos::from_nanos(5), Ev::Mark(2));
    }

    #[test]
    fn run_steps_backstop() {
        let mut s = sim();
        s.queue_mut().schedule_at(Nanos::ZERO, Ev::Chain(u32::MAX));
        let n = s.run_steps(100);
        assert_eq!(n, 100);
        assert!(!s.queue.is_empty());
    }

    /// A handler that reschedules at the *current* instant mid-drain must
    /// see its follow-up fire after all other events at that instant that
    /// were already pending, in insertion order.
    #[test]
    fn schedule_at_now_during_drain_fires_last_in_insertion_order() {
        struct Requeue {
            log: Vec<u32>,
        }
        impl World for Requeue {
            type Event = u32;
            fn handle(&mut self, now: Nanos, id: u32, queue: &mut EventQueue<u32>) {
                self.log.push(id);
                if id == 0 {
                    queue.schedule_at(now, 100);
                }
            }
        }
        let mut s = Simulation::new(Requeue { log: Vec::new() });
        for id in 0..3 {
            s.queue_mut().schedule_at(Nanos::from_nanos(7), id);
        }
        s.run();
        assert_eq!(s.world().log, vec![0, 1, 2, 100]);
        assert_eq!(s.now(), Nanos::from_nanos(7));
    }

    #[test]
    fn schedules_at_nanos_max() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.schedule_at(Nanos::from_nanos(3), 1);
        q.schedule_at(Nanos::MAX, 2);
        q.schedule_in(Nanos::MAX, 3); // saturates to MAX, fires after 2
        assert_eq!(pop(&mut q), Some((Nanos::from_nanos(3), 1)));
        assert_eq!(q.peek_at(), Some(Nanos::MAX));
        assert_eq!(pop(&mut q), Some((Nanos::MAX, 2)));
        assert_eq!(pop(&mut q), Some((Nanos::MAX, 3)));
        assert_eq!(pop(&mut q), None);
        // At now == MAX, scheduling "later" still works (saturating).
        q.schedule_in(Nanos::from_nanos(1), 4);
        assert_eq!(pop(&mut q), Some((Nanos::MAX, 4)));
    }

    /// Events whose epochs collide on the same wheel residue (exactly one
    /// window apart) must still fire in time order across the rollover.
    #[test]
    fn wheel_epoch_rollover_preserves_order() {
        let mut s = sim();
        // ~4.2 ms apart: same ring residue at 4 µs × 1024 buckets.
        let window = Nanos::from_nanos((1 << 12) * 1024);
        s.queue_mut()
            .schedule_at(Nanos::from_nanos(100), Ev::Mark(1));
        s.queue_mut()
            .schedule_at(Nanos::from_nanos(100) + window, Ev::Mark(2));
        s.queue_mut()
            .schedule_at(Nanos::from_nanos(100) + window * 2, Ev::Mark(3));
        s.run();
        let ids: Vec<u32> = s.world().log.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn peek_at_reports_next_event_without_popping() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert_eq!(q.peek_at(), None);
        q.schedule_at(Nanos::from_nanos(9), 1);
        q.schedule_at(Nanos::from_nanos(4), 2);
        assert_eq!(q.peek_at(), Some(Nanos::from_nanos(4)));
        assert_eq!(q.len(), 2, "peek must not consume");
        assert_eq!(pop(&mut q), Some((Nanos::from_nanos(4), 2)));
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut a: EventQueue<u8> = EventQueue::with_capacity(64);
        let mut b: EventQueue<u8> = EventQueue::new();
        for q in [&mut a, &mut b] {
            q.schedule_at(Nanos::from_nanos(3), 1);
            q.schedule_at(Nanos::from_nanos(1), 2);
            q.reserve(16);
        }
        assert_eq!(pop(&mut a), pop(&mut b));
        assert_eq!(pop(&mut a), Some((Nanos::from_nanos(3), 1)));
    }

    #[test]
    fn reset_rewinds_clock_seq_and_pending() {
        let mut q: EventQueue<u8> = EventQueue::with_capacity(8);
        q.schedule_at(Nanos::from_nanos(3), 1);
        q.schedule_at(Nanos::from_nanos(9), 2);
        assert_eq!(pop(&mut q), Some((Nanos::from_nanos(3), 1)));
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.now(), Nanos::ZERO);
        // Scheduling at time zero is legal again and insertion order
        // restarts from seq 0 — a recycled queue is a fresh queue.
        q.schedule_at(Nanos::ZERO, 7);
        q.schedule_at(Nanos::ZERO, 8);
        assert_eq!(pop(&mut q), Some((Nanos::ZERO, 7)));
        assert_eq!(pop(&mut q), Some((Nanos::ZERO, 8)));
    }

    #[test]
    fn from_parts_recycles_a_reset_queue() {
        let mut s = sim();
        s.queue_mut().schedule_at(Nanos::ZERO, Ev::Chain(4));
        s.run();
        let (_, mut queue) = s.into_parts();
        queue.reset();
        let mut s2 = Simulation::from_parts(Recorder { log: Vec::new() }, queue);
        assert_eq!(s2.steps(), 0);
        s2.queue_mut().schedule_at(Nanos::ZERO, Ev::Chain(4));
        let end = s2.run();
        assert_eq!(end, Nanos::from_nanos(20));
        assert_eq!(s2.steps(), 5);
    }

    #[test]
    fn queue_len_tracking() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_in(Nanos::from_nanos(1), 1);
        q.schedule_in(Nanos::from_nanos(2), 2);
        assert_eq!(q.len(), 2);
    }

    /// Logs queued marks and lane firings; each lane firing reserves
    /// the next one `gap` later while `remaining` lasts.
    struct Laned {
        log: Vec<(u64, u32)>,
        gap: Nanos,
        remaining: u32,
    }

    /// The id [`Laned`] logs for a lane firing.
    const LANE: u32 = u32::MAX;

    impl World for Laned {
        type Event = u32;
        fn handle(&mut self, now: Nanos, id: u32, _queue: &mut EventQueue<u32>) {
            self.log.push((now.as_nanos(), id));
        }
        fn handle_lane(&mut self, now: Nanos, queue: &mut EventQueue<u32>) {
            self.log.push((now.as_nanos(), LANE));
            if self.remaining > 0 {
                self.remaining -= 1;
                queue.reserve_lane_in(self.gap);
            }
        }
    }

    fn laned(gap: u64, remaining: u32) -> Simulation<Laned> {
        Simulation::new(Laned {
            log: Vec::new(),
            gap: Nanos::from_nanos(gap),
            remaining,
        })
    }

    #[test]
    fn lane_ties_fire_in_reservation_order() {
        let mut s = laned(0, 1);
        let t = Nanos::from_nanos(10);
        s.queue_mut().schedule_at(t, 1);
        s.queue_mut().reserve_lane_at(t);
        s.queue_mut().schedule_at(t, 2);
        assert_eq!(s.queue_mut().len(), 3);
        assert_eq!(s.queue_mut().peek_at(), Some(t));
        s.run();
        // The first firing re-reserves at the same instant, behind the
        // already-queued mark 2.
        assert_eq!(
            s.world().log,
            vec![(10, 1), (10, LANE), (10, 2), (10, LANE)]
        );
        assert_eq!(s.steps(), 4);
        assert!(s.queue_mut().is_empty());
    }

    #[test]
    fn lane_at_the_deadline_fires_and_one_past_does_not() {
        let mut s = laned(5, u32::MAX);
        s.queue_mut().reserve_lane_at(Nanos::ZERO);
        s.run_until(Nanos::from_nanos(20));
        let times: Vec<u64> = s.world().log.iter().map(|&(t, _)| t).collect();
        assert_eq!(times, vec![0, 5, 10, 15, 20]);
        assert_eq!(s.queue_mut().peek_at(), Some(Nanos::from_nanos(25)));
        s.run_until(Nanos::from_nanos(24));
        assert_eq!(s.world().log.len(), 5, "an instant past the deadline waits");
        assert_eq!(s.now(), Nanos::from_nanos(24));
        s.run_until(Nanos::from_nanos(25));
        assert_eq!(s.world().log.len(), 6);
    }

    #[test]
    fn reset_clears_the_lane() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.reserve_lane_at(Nanos::from_nanos(4));
        assert!(!q.is_empty());
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.peek_at(), None);
        q.reserve_lane_at(Nanos::ZERO);
        assert_eq!(q.pop(), Some(Due::Lane(Nanos::ZERO)));
    }

    #[test]
    #[should_panic(expected = "the lane is already reserved")]
    fn reserving_a_held_lane_panics() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.reserve_lane_at(Nanos::from_nanos(1));
        q.reserve_lane_at(Nanos::from_nanos(2));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn reserving_the_lane_in_the_past_panics() {
        let mut s = laned(0, 0);
        s.queue_mut().schedule_at(Nanos::from_nanos(10), 1);
        s.run();
        s.queue_mut().reserve_lane_at(Nanos::from_nanos(5));
    }

    /// A seeded stream that spawns jobs, driven either as an ordinary
    /// self-scheduling event or through the lane. Gaps and delays are
    /// drawn from a few nanoseconds so instants collide often.
    struct Stream {
        rng: crate::rng::Rng,
        through_lane: bool,
        next_job: u32,
        log: Vec<(u64, u32)>,
    }

    impl Stream {
        fn fire(&mut self, now: Nanos, queue: &mut EventQueue<u32>) {
            self.log.push((now.as_nanos(), LANE));
            let gap = Nanos::from_nanos(self.rng.next_below(4));
            if self.through_lane {
                queue.reserve_lane_in(gap);
            } else {
                queue.schedule_in(gap, LANE);
            }
            for _ in 0..self.rng.next_below(3) {
                let delay = Nanos::from_nanos(self.rng.next_below(6));
                queue.schedule_in(delay, self.next_job);
                self.next_job += 1;
            }
        }
    }

    impl World for Stream {
        type Event = u32;
        fn handle(&mut self, now: Nanos, id: u32, queue: &mut EventQueue<u32>) {
            if id == LANE {
                self.fire(now, queue);
            } else {
                self.log.push((now.as_nanos(), id));
                if self.rng.chance(0.3) {
                    let delay = Nanos::from_nanos(self.rng.next_below(3));
                    queue.schedule_in(delay, self.next_job);
                    self.next_job += 1;
                }
            }
        }
        fn handle_lane(&mut self, now: Nanos, queue: &mut EventQueue<u32>) {
            self.fire(now, queue);
        }
    }

    #[test]
    fn lane_pops_the_same_sequence_as_plain_scheduling() {
        for seed in 0..20 {
            let run = |through_lane: bool| {
                let mut s = Simulation::new(Stream {
                    rng: crate::rng::Rng::new(seed),
                    through_lane,
                    next_job: 0,
                    log: Vec::new(),
                });
                s.queue_mut().schedule_at(Nanos::ZERO, 0);
                if through_lane {
                    s.queue_mut().reserve_lane_at(Nanos::ZERO);
                } else {
                    s.queue_mut().schedule_at(Nanos::ZERO, LANE);
                }
                s.queue_mut().schedule_at(Nanos::ZERO, 1);
                s.world_mut().next_job = 2;
                for deadline in [0, 7, 7, 50, 400] {
                    s.run_until(Nanos::from_nanos(deadline));
                }
                let steps = s.run_steps(100);
                (s.steps(), steps, s.now(), s.into_world().log)
            };
            let plain = run(false);
            let laned = run(true);
            assert!(plain.3.len() > 300, "seed {seed}: stream too short");
            assert_eq!(plain, laned, "seed {seed}");
        }
    }
}
