//! The discrete-event engine.

use crate::simtime::SimTime;
use sb_types::Millis;
use std::collections::BinaryHeap;

type EventFn<S> = Box<dyn FnOnce(&mut Simulator<S>, &mut S)>;

struct Scheduled<S> {
    at: SimTime,
    seq: u64,
    run: EventFn<S>,
}

impl<S> PartialEq for Scheduled<S> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<S> Eq for Scheduled<S> {}
impl<S> PartialOrd for Scheduled<S> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<S> Ord for Scheduled<S> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we pop the earliest event.
        // Ties break by insertion order (seq) for determinism.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event simulator over a state type `S`.
///
/// Events are closures receiving the simulator (to schedule follow-up
/// events and read the clock) and the mutable state. Events at equal times
/// fire in scheduling order, so runs are fully deterministic.
///
/// # Examples
///
/// A two-event ping/pong:
///
/// ```
/// use sb_netsim::{SimTime, Simulator};
/// use sb_types::Millis;
///
/// let mut sim: Simulator<Vec<&'static str>> = Simulator::new();
/// sim.schedule_in(Millis::new(1.0), |sim, log: &mut Vec<&'static str>| {
///     log.push("ping");
///     sim.schedule_in(Millis::new(1.0), |_, log: &mut Vec<&'static str>| {
///         log.push("pong");
///     });
/// });
/// let mut log = Vec::new();
/// sim.run(&mut log);
/// assert_eq!(log, vec!["ping", "pong"]);
/// ```
pub struct Simulator<S> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Scheduled<S>>,
    executed: u64,
    peak_pending: usize,
}

impl<S> Default for Simulator<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> std::fmt::Debug for Simulator<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("executed", &self.executed)
            .finish()
    }
}

impl<S> Simulator<S> {
    /// Creates a simulator at time zero with an empty event queue.
    #[must_use]
    pub fn new() -> Self {
        Self {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            executed: 0,
            peak_pending: 0,
        }
    }

    /// The current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    #[must_use]
    pub fn executed_events(&self) -> u64 {
        self.executed
    }

    /// The deepest the pending-event queue has ever been. A scheduler
    /// profile signal: heap operations cost `O(log depth)`, so a small
    /// peak means the binary heap cannot dominate a run (see the
    /// calendar-queue discussion in EXPERIMENTS.md).
    #[must_use]
    pub fn peak_pending_events(&self) -> usize {
        self.peak_pending
    }

    /// Schedules `event` at absolute time `at`. Events scheduled in the past
    /// fire "now" (they are clamped to the current clock).
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        event: impl FnOnce(&mut Simulator<S>, &mut S) + 'static,
    ) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled {
            at,
            seq,
            run: Box::new(event),
        });
        self.peak_pending = self.peak_pending.max(self.queue.len());
    }

    /// Schedules `event` after a relative delay.
    pub fn schedule_in(
        &mut self,
        delay: Millis,
        event: impl FnOnce(&mut Simulator<S>, &mut S) + 'static,
    ) {
        self.schedule_at(self.now + delay, event);
    }

    /// Runs events until the queue is empty. Returns the final clock value.
    pub fn run(&mut self, state: &mut S) -> SimTime {
        while self.step(state) {}
        self.now
    }

    /// Executes the single earliest pending event; returns `false` when the
    /// queue is empty.
    pub fn step(&mut self, state: &mut S) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "event from the past");
        self.now = ev.at;
        self.executed += 1;
        (ev.run)(self, state);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim: Simulator<Vec<u32>> = Simulator::new();
        sim.schedule_at(SimTime::from_millis(3.0), |_, log| log.push(3));
        sim.schedule_at(SimTime::from_millis(1.0), |_, log| log.push(1));
        sim.schedule_at(SimTime::from_millis(2.0), |_, log| log.push(2));
        let mut log = Vec::new();
        let end = sim.run(&mut log);
        assert_eq!(log, vec![1, 2, 3]);
        assert_eq!(end, SimTime::from_millis(3.0));
        assert_eq!(sim.executed_events(), 3);
    }

    #[test]
    fn equal_time_events_fire_in_schedule_order() {
        let mut sim: Simulator<Vec<u32>> = Simulator::new();
        for i in 0..10 {
            sim.schedule_at(SimTime::from_millis(1.0), move |_, log: &mut Vec<u32>| {
                log.push(i);
            });
        }
        let mut log = Vec::new();
        sim.run(&mut log);
        assert_eq!(log, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_followups() {
        let mut sim: Simulator<u32> = Simulator::new();
        fn tick(sim: &mut Simulator<u32>, count: &mut u32) {
            *count += 1;
            if *count < 5 {
                sim.schedule_in(Millis::new(10.0), tick);
            }
        }
        sim.schedule_in(Millis::new(10.0), tick);
        let mut count = 0;
        let end = sim.run(&mut count);
        assert_eq!(count, 5);
        assert_eq!(end, SimTime::from_millis(50.0));
    }

    #[test]
    fn past_events_are_clamped_to_now() {
        let mut sim: Simulator<Vec<u64>> = Simulator::new();
        sim.schedule_at(SimTime::from_millis(5.0), |sim, _log: &mut Vec<u64>| {
            // Schedule "in the past": fires immediately at t=5ms.
            sim.schedule_at(SimTime::from_millis(1.0), |sim, log: &mut Vec<u64>| {
                log.push(sim.now().as_nanos());
            });
        });
        let mut log = Vec::new();
        sim.run(&mut log);
        assert_eq!(log, vec![5_000_000]);
    }

    #[test]
    fn peak_pending_tracks_the_deepest_queue() {
        let mut sim: Simulator<()> = Simulator::new();
        for i in 0..4 {
            sim.schedule_at(SimTime::from_millis(f64::from(i)), |_, ()| {});
        }
        assert_eq!(sim.peak_pending_events(), 4);
        sim.run(&mut ());
        // The peak survives the drain.
        assert_eq!(sim.peak_pending_events(), 4);
    }

    #[test]
    fn empty_run_is_a_noop() {
        let mut sim: Simulator<()> = Simulator::new();
        assert_eq!(sim.run(&mut ()), SimTime::ZERO);
        assert!(!sim.step(&mut ()));
    }
}
