//! Deterministic fault injection for the pipeline runtime.
//!
//! A [`FaultPlan`] describes a script of failures — "panic on worker 1 at
//! its 3rd packet", "refuse the next 5 pushes to worker 0's ring",
//! "advance the eviction clock by two minutes" — that the pipeline
//! consults at well-defined points. Because every trigger is keyed on a
//! per-worker packet sequence number (packets are popped from a FIFO ring,
//! so a worker's processing order *is* the dispatch order restricted to
//! that worker), a plan reproduces the same failure at the same point on
//! every run, independent of thread scheduling.
//!
//! A pipeline holds a plan only when [`crate::ScannerBuilder::fault_plan`]
//! attached one; without it no hook is reached, so a production pipeline
//! takes no lock and reads no extra clock for the harness.
//!
//! Faults are **one-shot**: once a trigger fires it is removed from the
//! plan, so a respawned worker (whose packet sequence restarts at zero)
//! does not re-trip the same fault in an infinite supervision loop.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A deterministic script of injected failures, shared (via `Arc`)
/// between the test driving the faults and the pipeline under test.
///
/// All mutation goes through `&self` so a single plan can be armed
/// from the test thread while the dispatcher and workers consult it.
/// The lock `expect`s can never see poison: the one panicking path
/// (`maybe_panic`) drops its guard before unwinding.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// One-shot (worker, packet-seq) pairs that panic the worker.
    panics: Mutex<Vec<(usize, u64)>>,
    /// One-shot (worker, packet-seq) pairs that make the worker exit
    /// silently (no death report — models a hard crash).
    exits: Mutex<Vec<(usize, u64)>>,
    /// Per-worker budget of dispatch pushes to refuse as if the job
    /// ring were full. `u64::MAX` is effectively "refuse forever".
    ring_full: Mutex<HashMap<usize, u64>>,
    /// Nanoseconds added to the eviction clock.
    clock_offset: AtomicU64,
}

impl FaultPlan {
    /// Creates an empty plan (no faults armed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms a one-shot panic on `worker` when it processes its
    /// `packet`-th packet (1-based, counted per worker lifetime).
    #[must_use]
    pub fn panic_on(self, worker: usize, packet: u64) -> Self {
        self.panics
            .lock()
            .expect("fault plan lock")
            .push((worker, packet));
        self
    }

    /// Arms a one-shot silent exit (no death report) on `worker` when
    /// it receives its `packet`-th packet.
    #[must_use]
    pub fn exit_on(self, worker: usize, packet: u64) -> Self {
        self.exits
            .lock()
            .expect("fault plan lock")
            .push((worker, packet));
        self
    }

    /// Makes the next `count` dispatch pushes to `worker` behave as if
    /// the job ring were full. `count == 0` disarms; `u64::MAX` is
    /// effectively unbounded. Only a push with a patience to run out
    /// consults this — packets under `Shed`/`BlockTimeout`; an endless
    /// wait (`Block` and every control job)
    /// would hang on an unbounded refusal.
    pub fn force_ring_full(&self, worker: usize, count: u64) {
        let mut map = self.ring_full.lock().expect("fault plan lock");
        if count == 0 {
            map.remove(&worker);
        } else {
            map.insert(worker, count);
        }
    }

    /// Advances the mock eviction clock by `delta`. Only idle-eviction
    /// timestamps observe the offset; latency/throughput telemetry
    /// stays on the real clock.
    pub fn advance_clock(&self, delta: Duration) {
        let nanos = u64::try_from(delta.as_nanos()).unwrap_or(u64::MAX);
        self.clock_offset.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Worker-side hook: panics iff a `panic_on` trigger matches
    /// (one-shot — the trigger is consumed).
    pub(crate) fn maybe_panic(&self, worker: usize, packet: u64) {
        let mut panics = self.panics.lock().expect("fault plan lock");
        if let Some(pos) = panics.iter().position(|&(w, n)| w == worker && n == packet) {
            panics.swap_remove(pos);
            drop(panics);
            panic!("fault-inject: forced panic on worker {worker} at packet {packet}");
        }
    }

    /// Worker-side hook: true iff an `exit_on` trigger matches
    /// (one-shot — the trigger is consumed).
    pub(crate) fn should_exit(&self, worker: usize, packet: u64) -> bool {
        let mut exits = self.exits.lock().expect("fault plan lock");
        if let Some(pos) = exits.iter().position(|&(w, n)| w == worker && n == packet) {
            exits.swap_remove(pos);
            true
        } else {
            false
        }
    }

    /// Worker-side hook: true iff a `panic_on` or `exit_on` trigger is
    /// waiting for this packet. Consumes nothing: a worker that scans
    /// several waiting packets as one run asks this to end the run
    /// before such a packet, which then meets `should_exit` and
    /// `maybe_panic` on its own, at the count the plan names.
    pub(crate) fn armed(&self, worker: usize, packet: u64) -> bool {
        [&self.panics, &self.exits].into_iter().any(|triggers| {
            triggers
                .lock()
                .expect("fault plan lock")
                .contains(&(worker, packet))
        })
    }

    /// Dispatcher-side hook: true iff this push should be refused as
    /// ring-full. Decrements the worker's refusal budget.
    pub(crate) fn refuse_push(&self, worker: usize) -> bool {
        let mut map = self.ring_full.lock().expect("fault plan lock");
        match map.get_mut(&worker) {
            Some(budget) => {
                if *budget != u64::MAX {
                    *budget -= 1;
                    if *budget == 0 {
                        map.remove(&worker);
                    }
                }
                true
            }
            None => false,
        }
    }

    /// Shifts a real timestamp by the mock clock offset. The result
    /// feeds `last_seen`/idle-eviction comparisons only.
    pub(crate) fn clock(&self, real: Instant) -> Instant {
        let offset = self.clock_offset.load(Ordering::Relaxed);
        real + Duration::from_nanos(offset)
    }
}

#[cfg(test)]
mod tests {
    use super::FaultPlan;
    use std::time::{Duration, Instant};

    #[test]
    fn triggers_are_one_shot() {
        let plan = FaultPlan::new().exit_on(1, 3);
        assert!(!plan.should_exit(1, 2));
        assert!(plan.should_exit(1, 3));
        assert!(!plan.should_exit(1, 3), "trigger must be consumed");
    }

    #[test]
    fn armed_sees_a_trigger_without_consuming_it() {
        let plan = FaultPlan::new().exit_on(1, 3).panic_on(0, 2);
        assert!(plan.armed(1, 3) && plan.armed(1, 3));
        assert!(plan.armed(0, 2));
        assert!(!plan.armed(0, 3) && !plan.armed(1, 2));
        assert!(plan.should_exit(1, 3));
        assert!(!plan.armed(1, 3), "a fired trigger is gone");
    }

    #[test]
    fn ring_full_budget_is_exact_and_disarmable() {
        let plan = FaultPlan::new();
        plan.force_ring_full(0, 2);
        assert!(plan.refuse_push(0));
        assert!(plan.refuse_push(0));
        assert!(!plan.refuse_push(0), "budget exhausted");
        plan.force_ring_full(0, 5);
        plan.force_ring_full(0, 0);
        assert!(!plan.refuse_push(0), "zero disarms");
        assert!(!plan.refuse_push(7), "unarmed worker never refuses");
    }

    #[test]
    fn clock_offset_accumulates() {
        let plan = FaultPlan::new();
        let base = Instant::now();
        assert_eq!(plan.clock(base), base);
        plan.advance_clock(Duration::from_secs(30));
        plan.advance_clock(Duration::from_secs(30));
        assert_eq!(plan.clock(base), base + Duration::from_secs(60));
    }
}
