//! Streaming and multi-core scanning on top of the `mpm-*` engines.
//!
//! The paper evaluates S-PATCH / V-PATCH on one-shot buffers on a single
//! core. A production NIDS sees neither: payload arrives as a never-ending
//! sequence of reassembled chunks, and serving line-rate traffic means
//! spreading flows across cores. This crate supplies that deployment shape
//! without touching the engines themselves:
//!
//! * [`StreamScanner`] — wraps any [`mpm_patterns::Matcher`] and makes
//!   chunked scanning equivalent to a one-shot scan: between
//!   [`StreamScanner::push`] calls it keeps the stream's live suffix — the
//!   bytes from the engine's resume point on, typically three and never
//!   more than `max_pattern_len - 1` — reports each occurrence once, and
//!   translates match positions to absolute stream offsets. Property-tested: any chunking (down to 1-byte chunks)
//!   reports byte-identical match sets to `find_all` on the whole input.
//! * [`ScannerBuilder`] — the one entry point for multi-core scanning:
//!   pick a source (`engine`/`rules`/`groups`), a width (`workers`,
//!   `ring_capacity`) and flow limits (`max_flows`, `idle_after`), then
//!   [`ScannerBuilder::build`] the continuously-running pipeline.
//!
//! * [`PipelineScanner`] — the production runtime: bounded lock-free SPSC
//!   rings per worker, **flow-affine dispatch with no per-batch barrier**,
//!   a [`BackpressurePolicy`] choosing between lossless blocking and
//!   counted load-shedding on ring-full, time+LRU hybrid flow eviction,
//!   bounded per-flow rule buffers with graceful degradation
//!   ([`ScannerBuilder::max_flow_buffer`]), worker supervision (a
//!   panicking worker is respawned, its flows quarantined as
//!   [`FlowError`]s instead of silently lost), graceful epoch-stamped
//!   ruleset hot-swap, and latency observability (per-packet p50/p99/p999
//!   via a log-bucketed histogram merged across workers, per-worker
//!   utilization and ring-occupancy high-water marks) reported by
//!   [`PipelineStats`].
//!
//! * [`fault`] — a deterministic fault-injection harness (worker panics,
//!   forced ring-full, a mock eviction clock), consulted only by a pipeline
//!   built with [`ScannerBuilder::fault_plan`].
//!
//! * The pipeline's oracle lives in its tests, not here: each flow is cut
//!   into stream segments at its closes and evictions, and each segment is
//!   scanned whole by the naive matcher and rule evaluator. A lossless
//!   pipeline must report exactly those sorted matches and rules, in every
//!   mode and at every worker count (`tests/pipeline_equivalence.rs`,
//!   `tests/shard_determinism.rs`).
//!
//! * [`RuleStreamScanner`] — the same chunking guarantee one level up:
//!   multi-content rules with positional constraints
//!   (`offset`/`depth`/`distance`/`within`) are confirmed over a chunked
//!   flow exactly as `mpm_verify::RuleScanner::scan_rules` would confirm
//!   them over the concatenated payload. Rule mode ([`ScannerBuilder::rules`])
//!   runs it per flow across workers, reporting confirmed rules in
//!   [`PipelineStats::rule_matches`].
//!
//! * [`GroupedEngineSet`] / [`GroupedFlowScanner`] — **port-grouped**
//!   scanning: a `mpm_patterns::GroupedRuleSet` partitions the ruleset by
//!   Snort header (protocol + ports), one engine is compiled over the
//!   distinct anchors of the whole rule set, and each flow is one
//!   rule-mode [`RuleStreamScanner`] with its protocol/port tuple: scanned
//!   once, it confirms a triggered rule only if the rule's header applies.
//!   Grouped mode ([`ScannerBuilder::groups`]) runs it per flow across workers;
//!   results are provably identical to a monolithic scan filtered to each
//!   flow's applicable rules (`tests/grouped_differential.rs`).
//!
//! The pattern layers consult only pattern *lengths*, so they are agnostic
//! to each pattern's case rule — `nocase` sets stream and shard unchanged
//! (property-tested in the workspace's `tests/nocase_differential.rs`). The
//! rule layer buffers each flow's payload (positional windows are
//! unbounded); see the `rules` module docs for the memory contract.
//!
//! Engines are shared across flows and threads as a
//! [`SharedMatcher`] (`Arc<dyn Matcher + Send +
//! Sync>`); pin the backend they compile for with `MPM_FORCE_BACKEND`
//! (see `mpm_simd::forced_backend`) when determinism across machines
//! matters — CI runs the whole test suite once per backend that way.

#![warn(missing_docs)]

pub mod builder;
pub mod fault;
mod flows;
pub mod group;
pub mod pipeline;
pub mod ring;
pub mod rules;
pub mod stream;
pub mod types;
mod worker;

pub use builder::{BackpressurePolicy, BuildError, ScannerBuilder};
pub use fault::FaultPlan;
pub use group::{GroupedEngineSet, GroupedFlowScanner};
pub use pipeline::{
    FlowError, PipelineError, PipelineScanner, PipelineStats, WorkerRestart, WorkerStats,
};
pub use rules::RuleStreamScanner;
pub use stream::{SharedMatcher, StreamScanner};
pub use types::{FlowMatch, FlowRuleMatch, Packet};
