//! Shared worker machinery: the per-flow state machine and the immutable
//! compile product both executors scan with.
//!
//! [`WorkerMode`] is the read-only, `Arc`-shared bundle a pipeline worker
//! is handed at spawn and at hot-swap: a never-pushed prototype
//! [`StreamScanner`] (or the grouped engine set) and the rule-confirmation
//! parts. [`FlowScanner`] is the per-flow state machine minted from it —
//! plain streaming, anchors + rule confirmation, or port-grouped
//! confirmation: [`FlowScanner::mint`] is the only place a flow's scanner is
//! created and [`FlowScanner::push`] the only one that knows the three modes
//! apart. The pipeline's worker threads
//! ([`crate::PipelineScanner`]) and the inline oracle
//! ([`crate::BarrierScanner`]) share both, so a mode built once drives
//! either identically.

use crate::group::{GroupedEngineSet, GroupedFlowScanner};
use crate::rules::RuleStreamScanner;
use crate::stream::{SharedMatcher, StreamScanner};
use mpm_patterns::ports::FlowTuple;
use mpm_patterns::rule::{RuleMatch, RuleSet};
use mpm_patterns::{MatchEvent, PatternSet};
use mpm_verify::RuleConfirmer;
use std::sync::Arc;

/// Shared, pre-built rule-mode parts handed to every worker: one confirmer
/// and one anchor→rule mapping serve all flows on all threads.
#[derive(Clone)]
pub(crate) struct RuleParts {
    pub(crate) confirmer: Arc<RuleConfirmer>,
    pub(crate) rule_of: Arc<[u32]>,
}

/// What every worker thread scans with — the shared, read-only compile
/// product its per-flow scanners are minted from.
#[derive(Clone)]
pub(crate) enum WorkerMode {
    /// One engine for every flow: pattern-only, or (with `rules`) anchor +
    /// rule confirmation over one monolithic rule set.
    Plain {
        /// Never pushed; a flow's scanner is a clone of it (two `Arc`
        /// clones and an empty carry).
        prototype: StreamScanner,
        rules: Option<RuleParts>,
    },
    /// Port-grouped rule scanning: each flow is scanned only against the
    /// groups its tuple selects ([`GroupedEngineSet`]).
    Grouped(Arc<GroupedEngineSet>),
}

/// Builds a plain/rule [`WorkerMode`]; [`StreamScanner::new`] validates the
/// engine/set pairing once, on the caller's thread, so a mismatch panics
/// here instead of inside a worker.
pub(crate) fn plain_mode(
    engine: SharedMatcher,
    set: &PatternSet,
    rules: Option<RuleParts>,
) -> WorkerMode {
    WorkerMode::Plain {
        prototype: StreamScanner::new(engine, set),
        rules,
    }
}

/// Builds the shared rule-mode parts once, on the caller's thread.
pub(crate) fn rule_parts(set: &RuleSet) -> RuleParts {
    RuleParts {
        confirmer: Arc::new(RuleConfirmer::build(set)),
        rule_of: set
            .anchors()
            .rule_bindings()
            .expect("RuleSet::anchors is always rule-bound")
            .into(),
    }
}

/// SplitMix64 finalizer: decorrelates adjacent flow ids (sequential ids are
/// common in synthetic batches and would otherwise stripe unevenly).
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The worker a flow is pinned to. Deterministic for a given worker count:
/// a flow's packets always share a worker (and therefore its per-flow
/// stream state), and both executors route alike.
pub(crate) fn worker_of(flow: u64, workers: usize) -> usize {
    (mix64(flow) % workers as u64) as usize
}

/// One worker's share of a flow cap: div_ceil, so the total never rounds
/// below the requested bound for small caps.
pub(crate) fn flow_cap_share(max_flows: Option<usize>, workers: usize) -> Option<usize> {
    max_flows.map(|m| m.div_ceil(workers).max(1))
}

/// One flow's scanning state: pattern-only, anchors + rule confirmation, or
/// port-grouped rule confirmation.
pub(crate) enum FlowScanner {
    Plain(StreamScanner),
    Rules(RuleStreamScanner),
    Grouped(GroupedFlowScanner),
}

impl FlowScanner {
    /// Mints a flow's scanner from the worker's shared mode. `tuple` is the
    /// flow's first packet's tuple; only grouped mode consults it (this is
    /// where per-flow group selection happens). `max_buffer` caps each
    /// rule-confirmation buffer (per group in grouped mode); plain mode has
    /// no flow buffer and ignores it.
    pub(crate) fn mint(
        mode: &WorkerMode,
        tuple: Option<FlowTuple>,
        max_buffer: Option<usize>,
    ) -> Self {
        match mode {
            WorkerMode::Plain { prototype, rules } => match rules {
                Some(parts) => FlowScanner::Rules(RuleStreamScanner::with_parts(
                    prototype.clone(),
                    parts.confirmer.clone(),
                    parts.rule_of.clone(),
                    None,
                    max_buffer,
                )),
                None => FlowScanner::Plain(prototype.clone()),
            },
            WorkerMode::Grouped(engines) => FlowScanner::Grouped(
                GroupedFlowScanner::with_max_buffer(engines.clone(), tuple, max_buffer),
            ),
        }
    }

    /// Pushes the flow's next payload chunk, appending anchor/pattern
    /// matches to `events` and newly confirmed rules to `rule_events` (both
    /// in flow-stream coordinates; the caller hands them over empty).
    /// Returns what the push adds to `MatcherStats::matches`: grouped mode
    /// reports no anchor events (group-local pattern ids would be
    /// ambiguous) and counts confirmed rules instead.
    #[inline]
    pub(crate) fn push(
        &mut self,
        payload: &[u8],
        events: &mut Vec<MatchEvent>,
        rule_events: &mut Vec<RuleMatch>,
    ) -> u64 {
        match self {
            FlowScanner::Plain(scanner) => scanner.push(payload, events),
            FlowScanner::Rules(scanner) => scanner.push(payload, events, rule_events),
            FlowScanner::Grouped(scanner) => {
                scanner.push(payload, rule_events);
                return rule_events.len() as u64;
            }
        }
        events.len() as u64
    }

    /// Bytes buffered for rule confirmation (zero for pattern-only flows
    /// and for degraded flows, whose buffers are released).
    pub(crate) fn buffered_bytes(&self) -> u64 {
        match self {
            FlowScanner::Plain(_) => 0,
            FlowScanner::Rules(s) => s.buffered_bytes() as u64,
            FlowScanner::Grouped(s) => s.buffered_bytes(),
        }
    }

    /// True once any of the flow's rule buffers exceeded the cap and the
    /// flow fell back to anchor-only reporting.
    pub(crate) fn degraded(&self) -> bool {
        match self {
            FlowScanner::Plain(_) => false,
            FlowScanner::Rules(s) => s.degraded(),
            FlowScanner::Grouped(s) => s.degraded(),
        }
    }

    /// Payload bytes never eligible for rule confirmation (past the cap).
    pub(crate) fn truncated_bytes(&self) -> u64 {
        match self {
            FlowScanner::Plain(_) => 0,
            FlowScanner::Rules(s) => s.truncated_bytes(),
            FlowScanner::Grouped(s) => s.truncated_bytes(),
        }
    }
}
