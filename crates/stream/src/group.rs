//! Grouped scanning: one engine per port group, per-flow group selection.
//!
//! [`GroupedEngineSet`] compiles one anchor engine per group of a
//! [`GroupedRuleSet`], all referencing one shared [`PatternArena`] so the
//! per-group verification tables do not multiply pattern storage (see
//! `mpm_patterns::arena`). A flow's state is one [`RuleStreamScanner`]
//! ([`GroupedFlowScanner`] wraps it): minted with the flow's [`FlowTuple`],
//! it scans with a clone of the never-pushed anchor stream of each group
//! [`GroupedRuleSet::groups_for`] selects and confirms a triggered rule
//! once, only if its header exactly applies to the flow — which makes
//! grouped scanning report **exactly** the rules a monolithic scan filtered
//! post-hoc to the flow's applicable rules would report (property-tested in
//! `tests/grouped_differential.rs`).
//!
//! Cross-group deduplication, on two levels:
//!
//! - **Confirmer contents**: all groups share **one** [`RuleConfirmer`] built
//!   over the monolithic rule set. Per-group confirmers would each carry
//!   their own rule chains and — once anything indexes a payload — their
//!   own unique-content automaton, measured at ~30× the engine tables on
//!   realistic rulesets, even though the contents they cover overlap almost
//!   entirely across groups. The shared confirmer dedups every
//!   `(bytes, nocase)` content globally; each group's anchor stream maps its
//!   anchors straight to monolithic rule ids, composed once at build.
//!   (Grouped scanning confirms by resumable enumeration and never indexes,
//!   so the automaton, compiled on first use, is not resident here.)
//! - **Engines**: groups whose local rule lists are structurally identical
//!   (same contents and modifiers, in the same order — Snort `sid`s may
//!   differ) share one compiled engine via `Arc`, so N lookup keys pointing
//!   at the same rules cost one set of tables. Engines match contents only,
//!   so nothing else about a rule can tell two such groups apart.
//!
//! [`GroupedEngineSet::memory_footprint`] counts each unique engine once,
//! the shared confirmer once, and the shared arena exactly once.

use crate::rules::{AnchorStream, RuleStreamScanner};
use crate::stream::{SharedMatcher, StreamScanner};
use mpm_patterns::group::GroupedRuleSet;
use mpm_patterns::ports::FlowTuple;
use mpm_patterns::rule::{RuleId, RuleMatch, RuleSet};
use mpm_patterns::{MatchEvent, MemoryFootprint, PatternArena, PatternSet};
use mpm_verify::RuleConfirmer;
use std::sync::Arc;

/// Structural equality of two groups' rule lists for engine sharing: same
/// contents (bytes + modifiers) in the same order. `sid`s are deliberately
/// ignored — two port groups carrying the same rules under different sids
/// still match identically.
fn rules_equal_ignoring_sid(a: &RuleSet, b: &RuleSet) -> bool {
    a.len() == b.len()
        && a.rules()
            .iter()
            .zip(b.rules().iter())
            .all(|(x, y)| x.contents() == y.contents())
}

/// Cheap pre-filter for [`rules_equal_ignoring_sid`]: a hash over the same
/// structural data, so the O(groups²) sharing scan compares byte-for-byte
/// only on hash collisions.
fn rules_signature(set: &RuleSet) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    set.len().hash(&mut h);
    for rule in set.rules() {
        rule.contents().hash(&mut h);
    }
    h.finish()
}

/// All compiled engines of a [`GroupedRuleSet`], plus the shared pattern
/// arena — the immutable, `Arc`-shared compile product that
/// [`crate::ScannerBuilder::groups`]-built workers and
/// [`GroupedFlowScanner`]s hang off.
pub struct GroupedEngineSet {
    grouped: Arc<GroupedRuleSet>,
    /// Index-parallel to `grouped.groups()`: each group's never-pushed
    /// anchor stream, its anchors mapped to monolithic rule ids. A flow
    /// that selects the group scans with a clone; structurally identical
    /// groups share one engine.
    streams: Vec<AnchorStream>,
    /// The ONE confirmer, built over the monolithic rule set and shared by
    /// every group (see the module docs: per-group confirmers are the
    /// dominant memory blow-up, and their contents overlap almost
    /// entirely).
    confirmer: Arc<RuleConfirmer>,
    arena_bytes: usize,
    unique_engines: usize,
}

impl std::fmt::Debug for GroupedEngineSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupedEngineSet")
            .field("groups", &self.streams.len())
            .field("unique_engines", &self.unique_engines)
            .field("arena_bytes", &self.arena_bytes)
            .finish_non_exhaustive()
    }
}

impl GroupedEngineSet {
    /// Compiles one engine per group with `build` (e.g.
    /// `|set, arena| Arc::from(mpm_vpatch::build_auto_with_arena(set, arena))`
    /// — `mpm-stream` does not depend on the engine crates, so the caller
    /// supplies the compiler; the umbrella crate's `build_grouped_engines`
    /// wraps exactly that). The shared [`PatternArena`] is built first from
    /// every content of every rule, so each group's tables reference it by
    /// offset; groups with structurally identical rule lists share one
    /// engine.
    pub fn build_with<F>(grouped: GroupedRuleSet, build: F) -> Self
    where
        F: Fn(&PatternSet, &PatternArena) -> SharedMatcher,
    {
        let arena = grouped.build_arena();
        let signatures: Vec<u64> = grouped
            .groups()
            .iter()
            .map(|g| rules_signature(g.rules()))
            .collect();
        let mut streams: Vec<AnchorStream> = Vec::with_capacity(grouped.groups().len());
        let mut unique_engines = 0usize;
        for (i, group) in grouped.groups().iter().enumerate() {
            let shared = (0..i).find(|&j| {
                signatures[j] == signatures[i]
                    && rules_equal_ignoring_sid(grouped.groups()[j].rules(), group.rules())
            });
            let scanner = match shared {
                Some(j) => streams[j].scanner.clone(),
                None => {
                    unique_engines += 1;
                    let anchors = group.rules().anchors();
                    StreamScanner::new(build(anchors, &arena), anchors)
                }
            };
            streams.push(AnchorStream::new(scanner, group.rules(), |local| {
                group.global_id(RuleId(local)).0
            }));
        }
        let confirmer = Arc::new(RuleConfirmer::build(grouped.monolithic()));
        // The arena's intern index dies here with `arena`; only the byte
        // buffer survives, inside the tables' `Arc`s.
        GroupedEngineSet {
            grouped: Arc::new(grouped),
            streams,
            confirmer,
            arena_bytes: arena.len(),
            unique_engines,
        }
    }

    /// The partitioned rule set.
    pub fn grouped(&self) -> &Arc<GroupedRuleSet> {
        &self.grouped
    }

    /// Number of groups (== `grouped().groups().len()`).
    pub fn group_count(&self) -> usize {
        self.streams.len()
    }

    /// Number of *distinct* compiled engines after identical-group sharing.
    pub fn unique_engine_count(&self) -> usize {
        self.unique_engines
    }

    /// Deduplicated pattern bytes shared by every group's tables, counted
    /// once here (the per-group tables report zero for them).
    pub fn arena_bytes(&self) -> usize {
        self.arena_bytes
    }

    /// Total resident bytes of the grouped compile product, honestly
    /// accounted (the CI memory-budget gauge): each unique engine's
    /// [`mpm_patterns::Matcher::memory_footprint`] counted once — shared
    /// engines are not double-charged — the **one** shared confirmer
    /// counted once (its [`RuleConfirmer::heap_bytes`]: the index automaton
    /// only if something compiled it), plus the shared arena's bytes once
    /// (attributed to `verify_bytes`, since the verification tables are
    /// what read it). Confirmer and id-map bytes land in `other_bytes`.
    pub fn memory_footprint(&self) -> MemoryFootprint {
        let mut total = MemoryFootprint::default();
        let mut seen: Vec<*const ()> = Vec::with_capacity(self.streams.len());
        for stream in &self.streams {
            // Every group's own anchor → rule id map.
            let anchor_bytes = stream.rule_of.len() * std::mem::size_of::<u32>();
            total.other_bytes += anchor_bytes;
            let engine = stream.scanner.engine();
            let ptr = Arc::as_ptr(engine).cast::<()>();
            if seen.contains(&ptr) {
                continue;
            }
            seen.push(ptr);
            let fp = engine.memory_footprint();
            total.filter_bytes += fp.filter_bytes;
            total.verify_bytes += fp.verify_bytes;
            // The engine's prototype keeps one `u32` length per anchor.
            total.other_bytes += fp.other_bytes + anchor_bytes;
        }
        total.other_bytes += self.confirmer.heap_bytes();
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

    /// Mints one flow's rule state: the anchor streams of the groups
    /// `tuple` selects — every group, unfiltered, when it is `None` — and
    /// a payload buffer capped at `cap` bytes (`None`: unbounded).
    pub(crate) fn mint(&self, tuple: Option<FlowTuple>, cap: Option<usize>) -> RuleStreamScanner {
        let streams = match tuple {
            Some(t) => self
                .grouped
                .groups_for(t)
                .into_iter()
                .map(|i| self.streams[i].clone())
                .collect(),
            None => self.streams.clone(),
        };
        let applicable = tuple.map(|t| (self.grouped.clone(), t));
        RuleStreamScanner::with_streams(streams, self.confirmer.clone(), applicable, cap)
    }
}

/// One flow's grouped scanning state: a [`RuleStreamScanner`] over the
/// anchor streams of the groups the flow's [`FlowTuple`] selects, reporting
/// rules only. A flow without a tuple (`None`) is scanned against **every**
/// group with no applicability filter, which by group-membership
/// completeness equals a monolithic scan.
#[derive(Debug)]
pub struct GroupedFlowScanner {
    rules: RuleStreamScanner,
    /// Where the anchor events a push discards pass through.
    scratch: Vec<MatchEvent>,
}

impl GroupedFlowScanner {
    /// Mints the per-flow state: group selection happens here, once per
    /// flow, from its tuple. The confirmation buffer is unbounded.
    pub fn new(set: Arc<GroupedEngineSet>, tuple: Option<FlowTuple>) -> Self {
        GroupedFlowScanner {
            rules: set.mint(tuple, None),
            scratch: Vec::new(),
        }
    }

    /// Streams the next payload chunk through every selected group,
    /// appending newly confirmed rules as **global** rule ids — each rule
    /// at most once per flow, only if its header exactly applies to the
    /// flow's tuple ([`GroupedRuleSet::applies_to`]; unfiltered when the
    /// tuple is unknown), with [`RuleMatch::end`] the minimal satisfiable
    /// prefix of the flow stream (chunking-independent, exactly as
    /// [`RuleStreamScanner::push`] guarantees).
    pub fn push(&mut self, chunk: &[u8], rules_out: &mut Vec<RuleMatch>) {
        self.rules.push_rules(chunk, &mut self.scratch, rules_out);
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
        // Same rule body under many ports and different sids: one engine.
        let text = r#"
alert tcp any any -> any 1001 (content:"same-needle"; sid:100;)
alert tcp any any -> any 1002 (content:"same-needle"; sid:200;)
alert tcp any any -> any 1003 (content:"same-needle"; sid:300;)
alert tcp any any -> any 1004 (content:"other-needle"; sid:400;)
"#;
        let set = engines(text);
        assert_eq!(set.group_count(), 4);
        assert_eq!(
            set.unique_engine_count(),
            2,
            "three same-needle groups share one engine"
        );
        // Sharing must not change results.
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
        assert_eq!(three.unique_engine_count(), 1);
        assert_eq!(three.arena_bytes(), "same-needle".len());
        let (fp3, fp1) = (three.memory_footprint(), one.memory_footprint());
        // Three groups sharing one engine pay for one set of filter and
        // verification tables (and one arena).
        assert_eq!(fp3.filter_bytes, fp1.filter_bytes);
        assert_eq!(fp3.verify_bytes, fp1.verify_bytes);
        // What does scale with group count is only the confirmer chains
        // and the per-group id maps: two more one-content rules. The
        // confirmer's index automaton is compiled on first use and grouped
        // scanning never indexes, so it is not resident and not charged.
        assert!(fp3.other_bytes > fp1.other_bytes);
        assert!(fp3.other_bytes - fp1.other_bytes < 256);
    }
}
