//! Worker machinery: the per-flow state machine and the immutable compile
//! product the pipeline's workers scan with.
//!
//! [`WorkerMode`] is the read-only, `Arc`-shared bundle a pipeline worker
//! is handed at spawn and at hot-swap: a never-pushed prototype
//! [`StreamScanner`] or [`RuleStreamScanner`] — a grouped engine set hands
//! over its rule-mode prototype, which carries the rule headers.
//! [`FlowScanner`] is the per-flow state machine minted from it — plain
//! streaming, or rule confirmation: [`FlowScanner::mint`] is the only
//! place a flow's scanner is created and [`FlowScanner::push`] the only one
//! that knows the two modes apart. Every worker thread of
//! [`crate::PipelineScanner`] scans with both, and a hot-swap hands the
//! workers a new [`WorkerMode`].

use crate::rules::RuleStreamScanner;
use crate::stream::StreamScanner;
use mpm_patterns::ports::FlowTuple;
use mpm_patterns::rule::RuleMatch;
use mpm_patterns::MatchEvent;

/// What every worker thread scans with — the shared, read-only compile
/// product its per-flow scanners are minted from. The prototypes'
/// engine/set pairing was checked when they were built, on the caller's
/// thread, so a mismatch panics there instead of inside a worker.
#[derive(Clone)]
pub(crate) enum WorkerMode {
    /// Pattern-only. Never pushed; a flow's scanner is a clone of it (two
    /// `Arc` clones and an empty carry).
    Plain(StreamScanner),
    /// Anchors + rule confirmation, monolithic or port-grouped. Never
    /// pushed; a flow's scanner is minted from it with the flow's tuple.
    Rules(RuleStreamScanner),
}

impl WorkerMode {
    /// This mode with every flow's rule buffer capped at `cap` (`None`:
    /// unbounded); plain mode has no flow buffer.
    pub(crate) fn with_flow_cap(self, cap: Option<usize>) -> Self {
        match (self, cap) {
            (WorkerMode::Rules(prototype), Some(bytes)) => {
                WorkerMode::Rules(prototype.with_max_buffer(bytes))
            }
            (mode, _) => mode,
        }
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
/// stream state).
pub(crate) fn worker_of(flow: u64, workers: usize) -> usize {
    (mix64(flow) % workers as u64) as usize
}

/// One worker's share of a flow cap: div_ceil, so the total never rounds
/// below the requested bound for small caps.
pub(crate) fn flow_cap_share(max_flows: Option<usize>, workers: usize) -> Option<usize> {
    max_flows.map(|m| m.div_ceil(workers).max(1))
}

/// One flow's scanning state: pattern-only, or rule confirmation (anchors
/// and rules, or rules only for a grouped flow).
pub(crate) enum FlowScanner {
    Plain(StreamScanner),
    Rules(RuleStreamScanner),
}

impl FlowScanner {
    /// Mints a flow's scanner from the worker's shared mode. `tuple` is the
    /// flow's first packet's tuple; only a grouped prototype consults it
    /// (this is where the flow's header check is set up).
    pub(crate) fn mint(mode: &WorkerMode, tuple: Option<FlowTuple>) -> Self {
        match mode {
            WorkerMode::Plain(prototype) => FlowScanner::Plain(prototype.clone()),
            WorkerMode::Rules(prototype) => FlowScanner::Rules(prototype.mint(tuple)),
        }
    }

    /// The flow's rule state, if it confirms rules.
    fn rules(&self) -> Option<&RuleStreamScanner> {
        match self {
            FlowScanner::Plain(_) => None,
            FlowScanner::Rules(scanner) => Some(scanner),
        }
    }

    /// Pushes the flow's next payload chunk, appending anchor/pattern
    /// matches to `events` and newly confirmed rules to `rule_events` (both
    /// in flow-stream coordinates; the caller hands them over empty).
    /// Returns what the push adds to `MatcherStats::matches`: a grouped
    /// flow reports no anchor events (an anchor slot is shared by rules of
    /// many headers) and counts confirmed rules instead.
    #[inline]
    pub(crate) fn push(
        &mut self,
        payload: &[u8],
        events: &mut Vec<MatchEvent>,
        rule_events: &mut Vec<RuleMatch>,
    ) -> u64 {
        match self {
            FlowScanner::Plain(scanner) => {
                scanner.push(payload, events);
                events.len() as u64
            }
            FlowScanner::Rules(scanner) => scanner.push_flow(payload, events, rule_events),
        }
    }

    /// Bytes buffered for rule confirmation (zero for pattern-only flows
    /// and for degraded flows, whose buffers are released).
    pub(crate) fn buffered_bytes(&self) -> u64 {
        self.rules().map_or(0, |s| s.buffered_bytes() as u64)
    }

    /// True once the flow's rule buffer exceeded the cap and the flow
    /// degraded.
    pub(crate) fn degraded(&self) -> bool {
        self.rules().is_some_and(RuleStreamScanner::degraded)
    }

    /// Payload bytes never eligible for rule confirmation (past the cap).
    pub(crate) fn truncated_bytes(&self) -> u64 {
        self.rules().map_or(0, RuleStreamScanner::truncated_bytes)
    }
}
