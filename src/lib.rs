//! Umbrella crate for the V-PATCH reproduction suite.
//!
//! This crate re-exports the workspace's public API under one roof so that
//! applications can depend on a single crate, and hosts the runnable
//! examples (`examples/`) and the cross-crate integration tests (`tests/`).
//!
//! ```
//! use vpatch_suite::prelude::*;
//!
//! let rules = PatternSet::from_literals(&["/etc/passwd", "cmd.exe"]);
//! let engine = build_auto(&rules);
//! assert_eq!(engine.count(b"GET /etc/passwd HTTP/1.0"), 1);
//! ```
//!
//! See the individual crates for the full documentation:
//! [`mpm_vpatch`] (the paper's S-PATCH / V-PATCH engines), [`mpm_dfc`] and
//! [`mpm_aho_corasick`] (baselines), [`mpm_patterns`] / [`mpm_traffic`]
//! (workload substrates), [`mpm_simd`] (vector backends), [`mpm_stream`]
//! (streaming + sharded multi-core scanning), [`mpm_verify`] (filters +
//! compact hash tables), [`mpm_graph`] (the chunked two-round scan loop every
//! engine runs) and [`mpm_cachesim`] (locality analysis).

#![warn(missing_docs)]

use std::sync::Arc;

pub use mpm_aho_corasick as aho_corasick;
pub use mpm_cachesim as cachesim;
pub use mpm_dfc as dfc;
pub use mpm_graph as graph;
pub use mpm_patterns as patterns;
pub use mpm_simd as simd;
pub use mpm_stream as stream;
pub use mpm_traffic as traffic;
pub use mpm_verify as verify;
pub use mpm_vpatch as vpatch;
pub use mpm_wu_manber as wu_manber;

/// Compiles a port-grouped ruleset into one auto-selected engine per group
/// (`mpm_vpatch::build_auto_with_arena`: widest available SIMD V-PATCH, or
/// scalar S-PATCH), all sharing one deduplicated pattern arena. The result
/// plugs straight into `mpm_stream::ScannerBuilder::groups` or
/// per-flow `mpm_stream::GroupedFlowScanner`s:
///
/// ```
/// use vpatch_suite::prelude::*;
///
/// let rules = vpatch_suite::patterns::snort::parse_grouped(
///     r#"alert tcp any any -> any 80 (msg:"web"; content:"GET /admin"; sid:1;)"#,
///     Default::default(),
/// )
/// .unwrap();
/// let engines = vpatch_suite::build_grouped_engines(GroupedRuleSet::new(rules));
/// let flow = FlowTuple::new(Proto::Tcp, 40000, 80);
/// let hits = engines.scan_flow(Some(flow), b"GET /admin HTTP/1.1");
/// assert_eq!(hits.len(), 1);
/// ```
pub fn build_grouped_engines(
    grouped: mpm_patterns::GroupedRuleSet,
) -> Arc<mpm_stream::GroupedEngineSet> {
    Arc::new(mpm_stream::GroupedEngineSet::build_with(
        grouped,
        |set, arena| Arc::from(mpm_vpatch::build_auto_with_arena(set, arena)),
    ))
}

/// The most commonly used items, for glob import in applications and
/// examples.
pub mod prelude {
    pub use mpm_aho_corasick::{DfaMatcher, NfaMatcher};
    pub use mpm_dfc::{Dfc, VectorDfc};
    pub use mpm_graph::{Chunk, TwoRound};
    pub use mpm_patterns::{
        ArenaBuilder, Direction, FlowTuple, GroupKey, GroupedRuleSet, MatchEvent, Matcher,
        MatcherStats, MemoryFootprint, NaiveMatcher, Pattern, PatternArena, PatternId, PatternSet,
        PortSpec, PortVars, Proto, ProtocolGroup, Rule, RuleContent, RuleHeader, RuleId, RuleMatch,
        RuleSet, SyntheticRuleset,
    };
    pub use mpm_patterns::{LatencyHistogram, LatencySummary};
    pub use mpm_simd::{
        available_backends, detect_best, forced_backend, BackendKind, VectorBackend,
    };
    pub use mpm_stream::{
        BarrierScanner, FlowRuleMatch, GroupedEngineSet, GroupedFlowScanner, Packet,
        PipelineScanner, PipelineStats, RuleStreamScanner, ScannerBuilder, SharedMatcher,
        StreamScanner, WorkerStats,
    };
    pub use mpm_traffic::{MatchDensityGenerator, TraceGenerator, TraceKind, TraceSpec};
    pub use mpm_verify::{ConfirmProgress, PayloadIndex, RuleConfirmer, RuleScanner};
    pub use mpm_vpatch::{build_auto, build_for, FilterOnlyMode, SPatch, Scratch, VPatch};
    pub use mpm_wu_manber::WuManber;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_a_working_pipeline() {
        let rules = PatternSet::from_literals(&["needle", "GET "]);
        let engine = build_auto(&rules);
        let trace = TraceGenerator::generate(
            &TraceSpec::new(TraceKind::IscxDay2, 64 * 1024),
            Some(&rules),
        );
        let matches = engine.find_all(&trace);
        assert_eq!(matches, mpm_patterns::naive::naive_find_all(&rules, &trace));
    }
}
