//! Grouped scanning: one engine per rule set, per-flow header checks.
//!
//! [`GroupedEngineSet`] compiles **one** anchor engine for a whole
//! [`GroupedRuleSet`], over the distinct `(bytes, nocase)` anchor contents
//! of its monolithic rule set: each distinct anchor is one engine pattern,
//! a **slot**, and a slot table maps it to every rule it anchors. A port
//! group is not a compile product but a header check. A flow's state is
//! one rule-mode [`RuleStreamScanner`] minted with the flow's
//! [`FlowTuple`] ([`GroupedFlowScanner`] wraps it): it scans the flow's
//! bytes once, and a rule its anchor triggers becomes pending only if
//! [`GroupedRuleSet::applies_to`] holds for the flow — the exact header
//! check. That makes grouped scanning report **exactly** the rules a
//! monolithic scan filtered post-hoc to the flow's applicable rules would
//! report (property-tested in `tests/grouped_differential.rs`). A flow
//! whose tuple selects no group ([`GroupedRuleSet::groups_for`] is empty)
//! can match no rule and stays inert: it is neither scanned nor buffered.
//! A flow without a tuple is filtered by nothing, which equals a monolithic
//! scan.
//!
//! One [`RuleConfirmer`], built over the monolithic rule set, confirms
//! every rule; it dedups every `(bytes, nocase)` content globally.
//! [`GroupedEngineSet::memory_footprint`] counts the engine, the slot
//! table, the confirmer and the engine's pattern arena once each.
//!
//! [`RuleConfirmer`]: mpm_verify::RuleConfirmer

use crate::rules::RuleStreamScanner;
use crate::stream::{SharedMatcher, StreamScanner};
use mpm_patterns::group::GroupedRuleSet;
use mpm_patterns::ports::FlowTuple;
use mpm_patterns::rule::RuleMatch;
use mpm_patterns::{ArenaBuilder, MatchEvent, MemoryFootprint, PatternArena, PatternSet};
use std::collections::HashMap;
use std::sync::Arc;

/// The compiled engine of a [`GroupedRuleSet`] — the immutable,
/// `Arc`-shared compile product that [`crate::ScannerBuilder::groups`]-built
/// workers and [`GroupedFlowScanner`]s mint their flows from.
pub struct GroupedEngineSet {
    grouped: Arc<GroupedRuleSet>,
    /// The never-pushed rule-mode scanner every grouped flow is a copy of:
    /// the one engine's anchor stream, the slot table, the confirmer and
    /// the rule headers.
    prototype: RuleStreamScanner,
    arena_bytes: usize,
}

impl std::fmt::Debug for GroupedEngineSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupedEngineSet")
            .field("groups", &self.grouped.groups().len())
            .field("prototype", &self.prototype)
            .field("arena_bytes", &self.arena_bytes)
            .finish_non_exhaustive()
    }
}

impl GroupedEngineSet {
    /// Compiles the one anchor engine with `build` (e.g.
    /// `|set, arena| Arc::from(mpm_vpatch::build_auto_with_arena(set, arena))`
    /// — `mpm-stream` does not depend on the engine crates, so the caller
    /// supplies the compiler; the umbrella crate's `build_grouped_engines`
    /// wraps exactly that). `build` runs once, over the distinct
    /// `(bytes, nocase)` anchors of `grouped.monolithic()` in first-use
    /// order, with a [`PatternArena`] that holds their bytes.
    pub fn build_with<F>(grouped: GroupedRuleSet, build: F) -> Self
    where
        F: FnOnce(&PatternSet, &PatternArena) -> SharedMatcher,
    {
        let mut slots: HashMap<(&[u8], bool), u32> = HashMap::new();
        let mut anchors = Vec::new();
        let mut arena = ArenaBuilder::new();
        let mut slot_of = Vec::with_capacity(grouped.len());
        for anchor in grouped.monolithic().anchors().patterns() {
            let slot = *slots
                .entry((anchor.bytes(), anchor.is_nocase()))
                .or_insert_with(|| {
                    arena.intern(anchor.bytes());
                    anchors.push(anchor.clone());
                    anchors.len() as u32 - 1
                });
            slot_of.push(slot);
        }
        // `slots` borrows `grouped`, which moves into an `Arc` below.
        drop(slots);
        let anchors = PatternSet::new(anchors);
        // The arena and its intern index die with this call; only the byte
        // buffer survives, inside the engine tables' `Arc`s.
        let arena = arena.finish();
        let stream = StreamScanner::new(build(&anchors, &arena), &anchors);
        let grouped = Arc::new(grouped);
        GroupedEngineSet {
            prototype: RuleStreamScanner::grouped(stream, &slot_of, grouped.clone()),
            grouped,
            arena_bytes: arena.len(),
        }
    }

    /// The partitioned rule set.
    pub fn grouped(&self) -> &Arc<GroupedRuleSet> {
        &self.grouped
    }

    /// Pattern bytes of the engine's arena, counted once here (the
    /// engine's tables report zero for them).
    pub fn arena_bytes(&self) -> usize {
        self.arena_bytes
    }

    /// Total resident bytes of the grouped compile product (the CI
    /// memory-budget gauge): the engine's
    /// [`mpm_patterns::Matcher::memory_footprint`], plus its arena's bytes
    /// (attributed to `verify_bytes`, since the verification tables are
    /// what read them), plus the anchor lengths, the slot table and the
    /// confirmer's [`mpm_verify::RuleConfirmer::heap_bytes`] (the index
    /// automaton only if something compiled it) in `other_bytes`.
    pub fn memory_footprint(&self) -> MemoryFootprint {
        let mut total = self.prototype.shared_footprint();
        total.verify_bytes += self.arena_bytes;
        total
    }

    /// One-shot grouped scan of a whole flow payload: every confirmed rule
    /// (global ids, deduplicated, exact-header-filtered when `tuple` is
    /// `Some`), sorted. Equivalent to a fresh [`GroupedFlowScanner`] fed
    /// the payload in one push.
    pub fn scan_flow(self: &Arc<Self>, tuple: Option<FlowTuple>, payload: &[u8]) -> Vec<RuleMatch> {
        let mut scanner = GroupedFlowScanner::new(self.clone(), tuple);
        let mut out = Vec::new();
        scanner.push(payload, &mut out);
        out.sort_unstable();
        out
    }

    /// The never-pushed prototype the pipeline's workers mint grouped flows
    /// from ([`RuleStreamScanner`] in rule mode, with the rule headers).
    pub(crate) fn prototype(&self) -> &RuleStreamScanner {
        &self.prototype
    }
}

/// One flow's grouped scanning state: a [`RuleStreamScanner`] minted with
/// the flow's [`FlowTuple`], reporting rules only. A flow without a tuple
/// (`None`) is filtered by nothing, which equals a monolithic scan.
#[derive(Debug)]
pub struct GroupedFlowScanner {
    rules: RuleStreamScanner,
    /// Where the anchor events a push discards pass through.
    scratch: Vec<MatchEvent>,
}

impl GroupedFlowScanner {
    /// Mints the per-flow state from the flow's tuple. The confirmation
    /// buffer is unbounded.
    pub fn new(set: Arc<GroupedEngineSet>, tuple: Option<FlowTuple>) -> Self {
        GroupedFlowScanner {
            rules: set.prototype.mint(tuple),
            scratch: Vec::new(),
        }
    }

    /// Streams the next payload chunk through the one engine, appending
    /// newly confirmed rules as **global** rule ids — each rule at most once
    /// per flow, only if its header exactly applies to the flow's tuple
    /// ([`GroupedRuleSet::applies_to`]; unfiltered when the tuple is
    /// unknown), with [`RuleMatch::end`] the minimal satisfiable prefix of
    /// the flow stream (chunking-independent, exactly as
    /// [`RuleStreamScanner::push`] guarantees).
    pub fn push(&mut self, chunk: &[u8], rules_out: &mut Vec<RuleMatch>) {
        self.rules.push_flow(chunk, &mut self.scratch, rules_out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpm_patterns::ports::Proto;
    use mpm_patterns::rule::RuleId;
    use mpm_patterns::snort::{parse_grouped, ParseOptions};
    use mpm_patterns::NaiveMatcher;

    const RULES: &str = r#"
alert tcp any any -> any 80 (msg:"web"; content:"GET /admin"; sid:1;)
alert tcp any any -> any [80,8080] (msg:"alt"; content:"X-Forward"; sid:2;)
alert udp any any -> any 53 (msg:"dns"; content:"querydata"; sid:3;)
alert tcp any any -> any !80 (msg:"notweb"; content:"tunnelbytes"; sid:4;)
alert ip any any -> any any (msg:"anywhere"; content:"evil-bytes"; sid:5;)
"#;

    fn engines(text: &str) -> Arc<GroupedEngineSet> {
        let grouped = GroupedRuleSet::new(parse_grouped(text, ParseOptions::default()).unwrap());
        Arc::new(GroupedEngineSet::build_with(grouped, |set, _arena| {
            Arc::from(NaiveMatcher::new(set))
        }))
    }

    #[test]
    fn grouped_scan_filters_by_flow_exactly() {
        let set = engines(RULES);
        let payload = b"GET /admin X-Forward querydata tunnelbytes evil-bytes";
        // HTTP flow: web + alt + ip rules apply; notweb (!80) does not.
        let http = set.scan_flow(Some(FlowTuple::new(Proto::Tcp, 40000, 80)), payload);
        let ids: Vec<u32> = http.iter().map(|m| m.rule.0).collect();
        assert_eq!(ids, vec![0, 1, 4]);
        // Non-web tcp flow: notweb + ip.
        let other = set.scan_flow(Some(FlowTuple::new(Proto::Tcp, 40000, 9999)), payload);
        let ids: Vec<u32> = other.iter().map(|m| m.rule.0).collect();
        assert_eq!(ids, vec![3, 4]);
        // UDP 53: dns + ip (dns content present).
        let dns = set.scan_flow(Some(FlowTuple::new(Proto::Udp, 1000, 53)), payload);
        let ids: Vec<u32> = dns.iter().map(|m| m.rule.0).collect();
        assert_eq!(ids, vec![2, 4]);
        // Unknown tuple: everything that matches, unfiltered (== monolithic).
        let unknown = set.scan_flow(None, payload);
        let ids: Vec<u32> = unknown.iter().map(|m| m.rule.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn streamed_grouped_scan_is_chunking_independent() {
        let set = engines(RULES);
        let payload = b"..GET /admin..evil-bytes..";
        let tuple = Some(FlowTuple::new(Proto::Tcp, 1234, 80));
        let expected = set.scan_flow(tuple, payload);
        assert_eq!(expected.len(), 2);
        for cut in 0..=payload.len() {
            let mut scanner = GroupedFlowScanner::new(set.clone(), tuple);
            let mut out = Vec::new();
            scanner.push(&payload[..cut], &mut out);
            scanner.push(&payload[cut..], &mut out);
            out.sort_unstable();
            assert_eq!(out, expected, "diverged at cut {cut}");
        }
    }

    #[test]
    fn rules_in_multiple_selected_groups_report_once() {
        // The ip rule is in Any; a rule for port 80 in Dst(tcp, 80): a flow
        // selecting both groups must report each global rule once even when
        // the same rule would confirm in more than one group (exercised via
        // the 8080 rule present in both Dst(80) and Dst(8080) groups).
        let set = engines(RULES);
        let payload = b"X-Forward X-Forward";
        let m = set.scan_flow(Some(FlowTuple::new(Proto::Tcp, 8080, 80)), payload);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].rule, RuleId(1));
    }

    #[test]
    fn identical_groups_share_one_engine() {
        // Same rule body under many ports and different sids: one engine,
        // built once, over one slot per distinct anchor.
        let text = r#"
alert tcp any any -> any 1001 (content:"same-needle"; sid:100;)
alert tcp any any -> any 1002 (content:"same-needle"; sid:200;)
alert tcp any any -> any 1003 (content:"same-needle"; sid:300;)
alert tcp any any -> any 1004 (content:"other-needle"; sid:400;)
"#;
        let grouped = GroupedRuleSet::new(parse_grouped(text, ParseOptions::default()).unwrap());
        assert_eq!(grouped.groups().len(), 4);
        let mut builds = Vec::new();
        let set = Arc::new(GroupedEngineSet::build_with(grouped, |set, _arena| {
            builds.push(set.len());
            Arc::from(NaiveMatcher::new(set))
        }));
        assert_eq!(builds, vec![2], "one build over the two distinct anchors");
        // Sharing a slot must not change results.
        let m = set.scan_flow(
            Some(FlowTuple::new(Proto::Tcp, 5, 1002)),
            b"..same-needle..",
        );
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].rule, RuleId(1));
    }

    #[test]
    fn footprint_counts_shared_engines_and_arena_once() {
        let text = r#"
alert tcp any any -> any 1001 (content:"same-needle"; sid:100;)
alert tcp any any -> any 1002 (content:"same-needle"; sid:200;)
alert tcp any any -> any 1003 (content:"same-needle"; sid:300;)
"#;
        let grouped = |t| {
            Arc::new(GroupedEngineSet::build_with(
                GroupedRuleSet::new(parse_grouped(t, ParseOptions::default()).unwrap()),
                |set, _| Arc::from(NaiveMatcher::new(set)),
            ))
        };
        let three = grouped(text);
        let one = grouped("alert tcp any any -> any 1001 (content:\"same-needle\"; sid:100;)\n");
        assert_eq!(three.arena_bytes(), "same-needle".len());
        let (fp3, fp1) = (three.memory_footprint(), one.memory_footprint());
        // Three groups whose rules share one anchor pay for one slot's
        // filter and verification tables (and one arena).
        assert_eq!(fp3.filter_bytes, fp1.filter_bytes);
        assert_eq!(fp3.verify_bytes, fp1.verify_bytes);
        // What does scale with the rule count is only the confirmer chains
        // and the slot table: two more one-content rules. The
        // confirmer's index automaton is compiled on first use and grouped
        // scanning never indexes, so it is not resident and not charged.
        assert!(fp3.other_bytes > fp1.other_bytes);
        assert!(fp3.other_bytes - fp1.other_bytes < 256);
    }
}
