//! [`ScannerBuilder`]: one entry point for every multi-core scanner
//! configuration.
//!
//! The builder's axes are orthogonal — *what to scan with*
//! ([`ScannerBuilder::engine`] / [`ScannerBuilder::rules`] /
//! [`ScannerBuilder::groups`]), *how wide* ([`ScannerBuilder::workers`],
//! [`ScannerBuilder::ring_capacity`]), *how long flows live*
//! ([`ScannerBuilder::max_flows`], [`ScannerBuilder::idle_after`]), and *how
//! overload and memory pressure are handled*
//! ([`ScannerBuilder::backpressure`], [`ScannerBuilder::max_flow_buffer`])
//! — and [`ScannerBuilder::build`] turns them into the continuously-running
//! [`PipelineScanner`].
//!
//! Configuration mistakes are reported as a typed [`BuildError`] from
//! `build`, not mid-setter panics: setters store what they are given, the
//! build validates the combination. The two exceptions stay
//! panics deliberately, because they are caller bugs no match arm should
//! ever route around: setting two scan sources, and pairing an engine with
//! a pattern set it was not compiled for.

use crate::fault::FaultPlan;
use crate::group::GroupedEngineSet;
use crate::pipeline::{Limits, PipelineScanner};
use crate::rules::RuleStreamScanner;
use crate::stream::{SharedMatcher, StreamScanner};
use crate::worker::{flow_cap_share, WorkerMode};
use mpm_patterns::rule::RuleSet;
use mpm_patterns::PatternSet;
use std::sync::Arc;
use std::time::Duration;

/// What [`PipelineScanner::dispatch`](crate::PipelineScanner::dispatch)
/// does when the target worker's job ring is full: how long it may wait
/// for a slot before it sheds the packet. The three policies are three
/// spellings of that one patience — for ever, at most a bound, not at all
/// — and one bounded-wait push serves them all.
///
/// `Block` is the default and the only policy with the full determinism
/// contract: no packet is ever dropped, so each stretch of a flow between
/// its mint and its close or eviction reports what one scan of those bytes
/// reports. `Shed` and `BlockTimeout` trade completeness for bounded
/// dispatch latency — the NIDS stance that under overload a predictable
/// drop beats stalling the capture loop. Shed packets are counted per
/// worker ([`crate::PipelineStats::shed_packets`]), never silently lost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Wait for ring space, pumping the worker's output ring meanwhile
    /// (cannot deadlock). Lossless; the default.
    #[default]
    Block,
    /// Wait like [`BackpressurePolicy::Block`] for at most this long, then
    /// shed the packet.
    BlockTimeout(Duration),
    /// One push attempt; a full ring sheds the packet immediately.
    Shed,
}

/// A configuration rejected by [`ScannerBuilder::build`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// No scan source: call one of `engine()`/`rules()`/`groups()` first.
    NoSource,
    /// `workers(0)`: at least one worker thread is required.
    ZeroWorkers,
    /// `ring_capacity(0)`: rings need at least one slot.
    ZeroRingCapacity,
    /// Ring capacities must be powers of two (the rings use masked
    /// indices; rounding silently would make the backpressure point differ
    /// from the configured one).
    RingCapacityNotPowerOfTwo {
        /// The rejected capacity.
        requested: usize,
    },
    /// `max_flows` of zero: a scanner that can hold no flow scans nothing.
    ZeroMaxFlows,
    /// `max_flow_buffer(0)`: a zero-byte buffer would degrade every rule
    /// flow on its first payload byte.
    ZeroMaxFlowBuffer,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::NoSource => {
                f.write_str("no scan source: call one of engine()/rules()/groups() before building")
            }
            BuildError::ZeroWorkers => f.write_str("need at least one worker"),
            BuildError::ZeroRingCapacity => f.write_str("ring capacity must be at least 1"),
            BuildError::RingCapacityNotPowerOfTwo { requested } => {
                write!(f, "ring capacity must be a power of two, got {requested}")
            }
            BuildError::ZeroMaxFlows => f.write_str("max_flows must be at least 1"),
            BuildError::ZeroMaxFlowBuffer => f.write_str("max_flow_buffer must be at least 1"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Builder for the multi-core scanner; see the module docs.
///
/// ```
/// use mpm_patterns::{NaiveMatcher, PatternSet};
/// use mpm_stream::{Packet, ScannerBuilder};
/// use std::sync::Arc;
///
/// let set = PatternSet::from_literals(&["needle"]);
/// let engine: mpm_stream::SharedMatcher = Arc::from(NaiveMatcher::new(&set));
/// let mut pipeline = ScannerBuilder::new()
///     .engine(engine, &set)
///     .workers(4)
///     .max_flows(100_000)
///     .build()
///     .expect("valid configuration");
/// pipeline.dispatch(Packet::new(1, b"..needle..".to_vec()));
/// assert_eq!(pipeline.drain().expect("workers alive").matches.len(), 1);
/// ```
pub struct ScannerBuilder {
    /// What the scanner scans with — set exactly once, by `engine`, `rules`
    /// or `groups`.
    source: Option<WorkerMode>,
    workers: usize,
    ring_capacity: usize,
    max_flows: Option<usize>,
    idle_after: Option<Duration>,
    backpressure: BackpressurePolicy,
    max_flow_buffer: Option<usize>,
    plan: Option<Arc<FaultPlan>>,
}

impl Default for ScannerBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ScannerBuilder {
    /// Starts a builder with defaults: 1 worker, 1024-slot job rings, no
    /// eviction, blocking backpressure, unbounded rule buffers.
    pub fn new() -> Self {
        ScannerBuilder {
            source: None,
            workers: 1,
            ring_capacity: 1024,
            max_flows: None,
            idle_after: None,
            backpressure: BackpressurePolicy::Block,
            max_flow_buffer: None,
            plan: None,
        }
    }

    /// Scan every flow with one pattern engine (pattern matches only, no
    /// rule confirmation). `set` must be the pattern set `engine` was
    /// compiled for.
    ///
    /// # Panics
    /// Panics if a source was already set, or the engine/set disagree about
    /// the longest pattern.
    pub fn engine(mut self, engine: SharedMatcher, set: &PatternSet) -> Self {
        self.set_source(WorkerMode::Plain(StreamScanner::new(engine, set)));
        self
    }

    /// Scan every flow in monolithic **rule mode**: `engine` (compiled for
    /// `set.anchors()`) finds anchors, and rules are confirmed per flow
    /// with positional constraints across packet boundaries.
    ///
    /// # Panics
    /// Panics if a source was already set, or the engine/anchor-set
    /// disagree about the longest pattern.
    pub fn rules(mut self, engine: SharedMatcher, set: &RuleSet) -> Self {
        self.set_source(WorkerMode::Rules(RuleStreamScanner::new(engine, set)));
        self
    }

    /// Scan flows in **port-grouped rule mode**: rule mode over the one
    /// engine of `engines`, where each flow confirms only the rules whose
    /// headers apply to its [`crate::Packet::tuple`].
    ///
    /// # Panics
    /// Panics if a source was already set.
    pub fn groups(mut self, engines: Arc<GroupedEngineSet>) -> Self {
        self.set_source(WorkerMode::Rules(engines.prototype().clone()));
        self
    }

    /// Number of worker threads (default 1). Zero is rejected at build time
    /// ([`BuildError::ZeroWorkers`]).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Per-worker job-ring capacity in packets (default 1024; must be a
    /// power of two, checked at build time). Smaller rings bound latency
    /// and memory tighter but engage backpressure sooner.
    pub fn ring_capacity(mut self, ring_capacity: usize) -> Self {
        self.ring_capacity = ring_capacity;
        self
    }

    /// Caps resident flows at `max_flows` across all workers (rounded up to
    /// a whole number per worker); at the cap the least-recently-pushed
    /// flow on the receiving worker is evicted. Zero is rejected at build
    /// time ([`BuildError::ZeroMaxFlows`]).
    pub fn max_flows(mut self, max_flows: usize) -> Self {
        self.max_flows = Some(max_flows);
        self
    }

    /// Retires a flow once no packet has arrived for it for `idle_after`,
    /// swept lazily on the owning worker. Composes with
    /// [`ScannerBuilder::max_flows`] in either order: the cap bounds
    /// worst-case memory, the timer retires quiet flows long before the cap
    /// forces them out.
    pub fn idle_after(mut self, idle_after: Duration) -> Self {
        self.idle_after = Some(idle_after);
        self
    }

    /// What a full job ring means for
    /// [`PipelineScanner::dispatch`](crate::PipelineScanner::dispatch) —
    /// see [`BackpressurePolicy`]. The default is `Block`.
    pub fn backpressure(mut self, policy: BackpressurePolicy) -> Self {
        self.backpressure = policy;
        self
    }

    /// Caps the rule-confirmation payload buffer of each flow at `bytes`.
    /// Flows that exceed the cap degrade to anchor-only reporting — grouped
    /// flows, which report rules only, stop scanning — see
    /// [`crate::RuleStreamScanner::with_max_buffer`] for the exact
    /// contract, and [`crate::PipelineStats::degraded_flows`] /
    /// [`crate::PipelineStats::truncated_bytes`] for the observability.
    /// Zero is rejected at build time ([`BuildError::ZeroMaxFlowBuffer`]).
    pub fn max_flow_buffer(mut self, bytes: usize) -> Self {
        self.max_flow_buffer = Some(bytes);
        self
    }

    /// Attaches a deterministic fault-injection plan (test harnesses
    /// only; see [`crate::fault`]). A pipeline built without one never
    /// consults the harness.
    pub fn fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Validates the knobs and hands over the scan source.
    fn validate(&mut self) -> Result<WorkerMode, BuildError> {
        let mode = self.source.take().ok_or(BuildError::NoSource)?;
        if self.workers == 0 {
            return Err(BuildError::ZeroWorkers);
        }
        if self.ring_capacity == 0 {
            return Err(BuildError::ZeroRingCapacity);
        }
        if !self.ring_capacity.is_power_of_two() {
            return Err(BuildError::RingCapacityNotPowerOfTwo {
                requested: self.ring_capacity,
            });
        }
        if self.max_flows == Some(0) {
            return Err(BuildError::ZeroMaxFlows);
        }
        if self.max_flow_buffer == Some(0) {
            return Err(BuildError::ZeroMaxFlowBuffer);
        }
        Ok(mode)
    }

    /// Builds the continuously-running [`PipelineScanner`] — bounded SPSC
    /// rings, flow-affine dispatch without a per-batch barrier,
    /// backpressure policies, hybrid eviction, bounded rule buffers,
    /// worker supervision, hot-swap, latency telemetry.
    ///
    /// # Errors
    /// A [`BuildError`] describing the first invalid knob.
    pub fn build(mut self) -> Result<PipelineScanner, BuildError> {
        let mode = self.validate()?;
        let limits = Limits {
            max_flows: flow_cap_share(self.max_flows, self.workers),
            idle_after: self.idle_after,
            max_flow_buffer: self.max_flow_buffer,
            plan: self.plan.take(),
        };
        // How long a dispatch may wait for a slot; `None` waits for ever.
        let patience = match self.backpressure {
            BackpressurePolicy::Block => None,
            BackpressurePolicy::BlockTimeout(limit) => Some(limit),
            BackpressurePolicy::Shed => Some(Duration::ZERO),
        };
        Ok(PipelineScanner::spawn(
            mode,
            self.workers,
            self.ring_capacity,
            patience,
            limits,
        ))
    }

    fn set_source(&mut self, mode: WorkerMode) {
        assert!(
            self.source.is_none(),
            "scan source already set: call exactly one of engine()/rules()/groups()"
        );
        self.source = Some(mode);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpm_patterns::NaiveMatcher;

    fn set_and_engine() -> (PatternSet, SharedMatcher) {
        let set = PatternSet::from_literals(&["needle"]);
        let engine: SharedMatcher = Arc::from(NaiveMatcher::new(&set));
        (set, engine)
    }

    #[test]
    fn building_without_a_source_is_rejected() {
        let err = ScannerBuilder::new().workers(2).build().err();
        assert_eq!(err, Some(BuildError::NoSource));
    }

    #[test]
    #[should_panic(expected = "scan source already set")]
    fn double_source_is_rejected() {
        let (set, engine) = set_and_engine();
        let _ = ScannerBuilder::new()
            .engine(engine.clone(), &set)
            .engine(engine, &set);
    }

    #[test]
    fn zero_workers_rejected_at_build() {
        let (set, engine) = set_and_engine();
        let err = ScannerBuilder::new()
            .engine(engine, &set)
            .workers(0)
            .build()
            .err();
        assert_eq!(err, Some(BuildError::ZeroWorkers));
    }

    #[test]
    fn zero_max_flows_rejected_at_build() {
        let (set, engine) = set_and_engine();
        let err = ScannerBuilder::new()
            .engine(engine, &set)
            .max_flows(0)
            .build()
            .err();
        assert_eq!(err, Some(BuildError::ZeroMaxFlows));
    }

    #[test]
    fn ring_capacity_must_be_a_nonzero_power_of_two() {
        let (set, engine) = set_and_engine();
        let err = ScannerBuilder::new()
            .engine(engine.clone(), &set)
            .ring_capacity(0)
            .build()
            .err();
        assert_eq!(err, Some(BuildError::ZeroRingCapacity));
        let err = ScannerBuilder::new()
            .engine(engine, &set)
            .ring_capacity(24)
            .build()
            .err();
        assert_eq!(
            err,
            Some(BuildError::RingCapacityNotPowerOfTwo { requested: 24 })
        );
    }

    #[test]
    fn zero_max_flow_buffer_rejected_at_build() {
        let (set, engine) = set_and_engine();
        let err = ScannerBuilder::new()
            .engine(engine, &set)
            .max_flow_buffer(0)
            .build()
            .err();
        assert_eq!(err, Some(BuildError::ZeroMaxFlowBuffer));
    }

    #[test]
    fn build_errors_render_their_cause() {
        assert!(BuildError::NoSource.to_string().contains("no scan source"));
        assert!(BuildError::RingCapacityNotPowerOfTwo { requested: 24 }
            .to_string()
            .contains("24"));
    }

    #[test]
    fn flow_limits_compose_in_either_order() {
        let idle = Duration::from_secs(30);
        let cap_first = ScannerBuilder::new().max_flows(64).idle_after(idle);
        let idle_first = ScannerBuilder::new().idle_after(idle).max_flows(64);
        for builder in [cap_first, idle_first] {
            assert_eq!(builder.max_flows, Some(64));
            assert_eq!(builder.idle_after, Some(idle));
        }
    }

    #[test]
    fn backpressure_defaults_to_block() {
        assert_eq!(BackpressurePolicy::default(), BackpressurePolicy::Block);
    }
}
