//! [`RuleStreamScanner`]: rule confirmation over a chunked stream.
//!
//! The pattern layer ([`StreamScanner`]) only needs `max_pattern_len - 1`
//! bytes of history, because a pattern occurrence spans at most
//! `max_pattern_len` bytes. Rules are different: `offset`/`distance`
//! windows are unbounded (a rule may pair a content at offset 0 with one a
//! megabyte later), so confirmation is a function of the **whole flow
//! payload seen so far**. `RuleStreamScanner` therefore buffers the flow's
//! payload **once**, while still running its anchor engine incrementally
//! through one [`StreamScanner`] (carry bytes only). The engine's pattern
//! `s` is an anchor **slot**, and a slot table maps it to the confirmer's
//! rules it anchors: one rule per slot in monolithic rule mode, every rule
//! sharing a `(bytes, nocase)` anchor in grouped mode
//! ([`crate::GroupedEngineSet`]). A grouped flow carries its tuple, and a
//! triggered rule becomes pending only if its header applies to the flow.
//!
//! # Per-push cost: O(pending × contents × chunk)
//!
//! A rule whose anchor has fired but which is not yet satisfiable is
//! **pending**, and carries a [`ConfirmProgress`] record: per content, the
//! next start position not examined yet and the occurrence ends found so
//! far. Each push hands every pending rule to
//! [`RuleConfirmer::resume`], which examines only the start positions the
//! new bytes opened up, appends any new occurrences, and re-runs the
//! constraint DP only if a list grew and none is empty. So a push costs
//! O(pending rules × contents × chunk length) — flat along the flow — and
//! over a whole flow every byte is examined once per pending content,
//! instead of once per pending content *per push*. Per-flow state is
//! proportional to the rules the flow has triggered, not to the rule set:
//! a sorted list of triggered slots plus one record per pending rule. The
//! record is dropped when its rule confirms, on
//! [`RuleStreamScanner::reset`] and when the flow degrades.
//!
//! Equivalence guarantee (property-tested in
//! `tests/rule_confirmation_differential.rs` and
//! `crates/stream/tests/rule_stream_equivalence.rs`): for any chunking, the
//! set of confirmed rules and their reported offsets equals
//! `RuleScanner::scan_rules` on the concatenated payload. Resumption is
//! exact — a record's occurrence lists after a push equal a from-scratch
//! enumeration of the buffered payload (see `mpm_verify::confirm`) — so
//! each push decides exactly what re-confirming from scratch would. The
//! confirmer reports the **minimal prefix length** at which a rule is
//! satisfiable — a pure function of the payload bytes, independent of where
//! chunk seams fall — and satisfiability is monotone in the prefix, so a
//! pending rule confirms on exactly the push whose chunk completes that
//! minimal prefix.
//!
//! # Memory contract: bounded buffers and graceful degradation
//!
//! The whole-payload buffer makes an unbounded flow a memory-exhaustion
//! vector: one adversarial elephant flow grows its buffer without limit.
//! [`RuleStreamScanner::with_max_buffer`] caps the buffer at `cap` bytes.
//! While the stream fits the cap, behaviour is byte-identical to the
//! unbounded scanner. On the push that would exceed the cap the flow
//! **degrades**: rules satisfiable within the first `cap` bytes are
//! confirmed one final time (confirmation over a capped flow is exactly
//! `scan_rules` on the first `cap` bytes of the stream, independent of
//! chunk seams), then the buffer is released, confirmation is disabled for
//! the rest of the flow, and the scanner keeps reporting **anchor hits
//! only** over the engine's sliding carry window.
//! [`RuleStreamScanner::degraded`] flags the transition and
//! [`RuleStreamScanner::truncated_bytes`] counts every payload byte that
//! was never eligible for confirmation. A grouped flow reports rules only,
//! so once it degrades it stops scanning altogether.

use crate::stream::{SharedMatcher, StreamScanner};
use mpm_patterns::group::GroupedRuleSet;
use mpm_patterns::ports::FlowTuple;
use mpm_patterns::rule::{RuleId, RuleMatch, RuleSet};
use mpm_patterns::{MatchEvent, MemoryFootprint};
use mpm_verify::{ConfirmProgress, RuleConfirmer};
use std::sync::Arc;

/// Inserts `id` into the sorted set `ids`; false if it was already there.
/// The per-flow slot set is this small sorted vector because a flow
/// triggers a handful of anchors out of thousands.
fn insert_sorted(ids: &mut Vec<u32>, id: u32) -> bool {
    match ids.binary_search(&id) {
        Ok(_) => false,
        Err(at) => {
            ids.insert(at, id);
            true
        }
    }
}

/// A rule whose anchor fired but whose remaining contents/constraints are
/// not yet satisfiable on the payload so far.
#[derive(Clone)]
struct PendingRule {
    /// The confirmer's rule id.
    rule: u32,
    progress: ConfirmProgress,
}

/// What every flow minted from one prototype shares, behind one `Arc` so a
/// flow holds a pointer to it and nothing more.
#[derive(Clone)]
struct RuleTables {
    /// Slot table, compressed sparse rows: the engine's pattern (slot) `s`
    /// anchors the confirmer's rules
    /// `slot_rules[slot_start[s]..slot_start[s + 1]]`, ascending.
    slot_start: Arc<[u32]>,
    slot_rules: Arc<[u32]>,
    confirmer: RuleConfirmer,
    /// A grouped rule set's headers: a flow minted with a tuple admits only
    /// the rules that apply to it, and the flow reports rules only.
    headers: Option<Arc<GroupedRuleSet>>,
    /// Buffer cap in bytes; `None` means unbounded. See the module-level
    /// memory contract.
    max_buffer: Option<usize>,
}

impl RuleTables {
    /// The rules slot `slot` anchors.
    #[inline]
    fn rules_of(&self, slot: usize) -> &[u32] {
        let (start, end) = (self.slot_start[slot], self.slot_start[slot + 1]);
        &self.slot_rules[start as usize..end as usize]
    }
}

/// Where one flow's confirmation stands.
#[derive(Clone)]
enum Confirmation {
    /// Buffering the payload and confirming the rules its anchors trigger.
    Open {
        /// The flow's payload so far (see module docs for why rules need it).
        payload: Vec<u8>,
        /// Every slot whose anchor has fired on this flow, sorted. A rule
        /// of a slot absent from it cannot match (anchor gating is exact);
        /// a slot present is never re-triggered, so a confirmed rule is
        /// never re-reported.
        triggered: Vec<u32>,
        /// The triggered rules not yet confirmed, in trigger order, each
        /// with its resumable confirmation progress.
        pending: Vec<PendingRule>,
    },
    /// Past the buffer cap: anchor-only reporting, the buffer released.
    /// `truncated` counts the payload bytes never eligible for
    /// confirmation (everything past the first `max_buffer` bytes).
    Degraded { truncated: u64 },
    /// A grouped flow whose tuple selects no port group: no rule applies
    /// to it, so it is neither scanned nor buffered.
    Inert,
}

impl Confirmation {
    fn open() -> Self {
        Confirmation::Open {
            payload: Vec::new(),
            triggered: Vec::new(),
            pending: Vec::new(),
        }
    }
}

/// Stateful rule scanning over one logical stream (one flow).
///
/// Runs one anchor stream (a [`StreamScanner`] over anchor patterns) and
/// confirms the rules it triggers with a [`RuleConfirmer`]; the engine, the
/// slot table and the confirmer are shared (`Arc`), so per-flow cost is the
/// buffered payload plus a few words per rule the flow has triggered.
///
/// ```
/// use mpm_patterns::rule::{Rule, RuleContent, RuleSet};
/// use mpm_stream::RuleStreamScanner;
/// use std::sync::Arc;
///
/// let set = RuleSet::new(vec![Rule::new(vec![
///     RuleContent::new(*b"GET "),
///     RuleContent::new(*b"passwd").with_distance(0),
/// ])]);
/// let engine: mpm_stream::SharedMatcher =
///     Arc::from(mpm_patterns::NaiveMatcher::new(set.anchors()));
/// let mut scanner = RuleStreamScanner::new(engine, &set);
///
/// let (mut anchors, mut rules) = (Vec::new(), Vec::new());
/// scanner.push(b"GET /etc/pas", &mut anchors, &mut rules);
/// assert!(rules.is_empty()); // anchor seen, second content incomplete
/// scanner.push(b"swd HTTP/1.1", &mut anchors, &mut rules);
/// assert_eq!(rules.len(), 1);
/// assert_eq!(rules[0].end, 15); // minimal satisfiable prefix, absolute
/// ```
#[derive(Clone)]
pub struct RuleStreamScanner {
    stream: StreamScanner,
    tables: Arc<RuleTables>,
    /// A grouped flow's tuple; `None` admits every rule.
    tuple: Option<FlowTuple>,
    state: Confirmation,
}

impl std::fmt::Debug for RuleStreamScanner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuleStreamScanner")
            .field("slots", &(self.tables.slot_start.len() - 1))
            .field("tuple", &self.tuple)
            .field("buffered_bytes", &self.buffered_bytes())
            .field("degraded", &self.degraded())
            .finish_non_exhaustive()
    }
}

impl RuleStreamScanner {
    /// Creates a rule scanner for one stream.
    ///
    /// `engine` must be compiled for `set.anchors()` (same contract as
    /// [`StreamScanner::new`], which this delegates to).
    ///
    /// # Panics
    /// Panics if the engine disagrees with the anchor set about the longest
    /// pattern.
    pub fn new(engine: SharedMatcher, set: &RuleSet) -> Self {
        let scanner = StreamScanner::new(engine, set.anchors());
        let identity: Vec<u32> = (0..set.len() as u32).collect();
        Self::with_slots(scanner, &identity, RuleConfirmer::build(set), None)
    }

    /// A never-pushed grouped prototype: `stream` scans one slot per
    /// distinct anchor, and `slot_of[r]` is the slot of monolithic rule
    /// `r`'s anchor.
    pub(crate) fn grouped(
        stream: StreamScanner,
        slot_of: &[u32],
        grouped: Arc<GroupedRuleSet>,
    ) -> Self {
        let confirmer = RuleConfirmer::build(grouped.monolithic());
        Self::with_slots(stream, slot_of, confirmer, Some(grouped))
    }

    /// A fresh scanner whose slot table inverts `slot_of` (the confirmer's
    /// rule id → its anchor's slot).
    fn with_slots(
        stream: StreamScanner,
        slot_of: &[u32],
        confirmer: RuleConfirmer,
        headers: Option<Arc<GroupedRuleSet>>,
    ) -> Self {
        // Rule ids sorted by slot, stably: ascending within each slot.
        let mut slot_rules: Vec<u32> = (0..slot_of.len() as u32).collect();
        slot_rules.sort_by_key(|&rule| slot_of[rule as usize]);
        let slots = slot_of.iter().map(|&s| s + 1).max().unwrap_or(0);
        let slot_start = (0..=slots)
            .map(|s| slot_rules.partition_point(|&rule| slot_of[rule as usize] < s) as u32)
            .collect();
        let tables = RuleTables {
            slot_start,
            slot_rules: slot_rules.into(),
            confirmer,
            headers,
            max_buffer: None,
        };
        RuleStreamScanner {
            stream,
            tables: Arc::new(tables),
            tuple: None,
            state: Confirmation::open(),
        }
    }

    /// Caps the confirmation buffer at `bytes`; over the cap the flow
    /// degrades to anchor-only reporting (see the module-level memory
    /// contract). A cap of zero degrades on the first non-empty push. Every
    /// flow minted from a capped prototype shares its cap.
    #[must_use]
    pub fn with_max_buffer(mut self, bytes: usize) -> Self {
        Arc::make_mut(&mut self.tables).max_buffer = Some(bytes);
        self
    }

    /// One flow's copy of this never-pushed prototype. A grouped prototype
    /// keeps `tuple` to admit only the rules that apply to the flow — and a
    /// flow whose tuple selects no group is inert; otherwise `tuple` is
    /// ignored.
    pub(crate) fn mint(&self, tuple: Option<FlowTuple>) -> Self {
        let mut flow = self.clone();
        if let (Some(headers), Some(tuple)) = (&self.tables.headers, tuple) {
            flow.tuple = Some(tuple);
            if headers.groups_for(tuple).is_empty() {
                flow.state = Confirmation::Inert;
            }
        }
        flow
    }

    /// What every flow minted from this prototype shares: the engine's
    /// tables (filter and verify bytes), plus its anchor lengths, the slot
    /// table and the confirmer in `other_bytes`.
    pub(crate) fn shared_footprint(&self) -> MemoryFootprint {
        let tables = &self.tables;
        let mut total = self.stream.engine().memory_footprint();
        // The stream's one `u32` length per slot, and the slot table.
        let words = 2 * tables.slot_start.len() - 1 + tables.slot_rules.len();
        total.other_bytes += words * std::mem::size_of::<u32>() + tables.confirmer.heap_bytes();
        total
    }

    /// Bytes of flow payload currently buffered for confirmation (the whole
    /// stream so far, or zero once the flow degraded — see the module docs
    /// for the memory contract).
    pub fn buffered_bytes(&self) -> usize {
        match &self.state {
            Confirmation::Open { payload, .. } => payload.len(),
            _ => 0,
        }
    }

    /// True once the flow exceeded the buffer cap and fell back to
    /// anchor-only reporting (confirmation disabled, buffer released).
    pub fn degraded(&self) -> bool {
        matches!(self.state, Confirmation::Degraded { .. })
    }

    /// Payload bytes past the first `max_buffer` bytes of the stream —
    /// scanned for anchors but never eligible for rule confirmation.
    pub fn truncated_bytes(&self) -> u64 {
        match self.state {
            Confirmation::Degraded { truncated } => truncated,
            _ => 0,
        }
    }

    /// Resets the scanner for a new stream, keeping the engine and the
    /// shared tables (an inert flow stays inert).
    pub fn reset(&mut self) {
        self.stream.reset();
        if !matches!(self.state, Confirmation::Inert) {
            self.state = Confirmation::open();
        }
    }

    /// Scans the next chunk: anchor-pattern hits are appended to
    /// `anchors_out` (absolute offsets, exactly as [`StreamScanner::push`]
    /// reports them) and newly confirmed rules to `rules_out`, each rule at
    /// most once per stream, with [`RuleMatch::end`] the minimal prefix
    /// length of the stream at which the rule became satisfiable.
    pub fn push(
        &mut self,
        chunk: &[u8],
        anchors_out: &mut Vec<MatchEvent>,
        rules_out: &mut Vec<RuleMatch>,
    ) {
        let RuleStreamScanner {
            stream,
            tables,
            tuple,
            state,
        } = self;
        if chunk.is_empty() {
            return;
        }
        let (payload, triggered, pending) = match state {
            Confirmation::Open {
                payload,
                triggered,
                pending,
            } => (payload, triggered, pending),
            Confirmation::Degraded { truncated } => {
                // Anchor-only fallback: the engine's carry window keeps
                // anchor reporting exact; confirmation state is gone.
                *truncated += chunk.len() as u64;
                stream.push(chunk, anchors_out);
                return;
            }
            Confirmation::Inert => return,
        };
        // Does this push take the stream past the buffer cap? If so, only
        // the prefix that still fits is eligible for confirmation; the rest
        // of the chunk is anchor-scanned but truncated.
        let crossing = tables
            .max_buffer
            .filter(|&cap| payload.len() + chunk.len() > cap);
        let take = crossing.map_or(chunk.len(), |cap| cap - payload.len());
        payload.extend_from_slice(&chunk[..take]);
        let first_new = anchors_out.len();
        stream.push(chunk, anchors_out);
        for event in &anchors_out[first_new..] {
            let slot = event.pattern.0;
            if !insert_sorted(triggered, slot) {
                continue;
            }
            for &rule in tables.rules_of(slot as usize) {
                let admitted = match (&tables.headers, *tuple) {
                    (Some(headers), Some(tuple)) => headers.applies_to(RuleId(rule), tuple),
                    _ => true,
                };
                if admitted {
                    pending.push(PendingRule {
                        rule,
                        progress: ConfirmProgress::default(),
                    });
                }
            }
        }
        // On the crossing push this final resumption runs against exactly
        // the first `cap` bytes of the stream, so a capped flow confirms the
        // same rules as `scan_rules` on that prefix regardless of where the
        // chunk seams fall. (Anchors past the cap may have marked rules
        // pending above; their contents are absent from the capped payload,
        // so they cannot confirm, and pending state is dropped below.)
        pending.retain_mut(|pending| {
            let id = RuleId(pending.rule);
            match tables.confirmer.resume(payload, id, &mut pending.progress) {
                Some(end) => {
                    rules_out.push(RuleMatch::new(id, end));
                    false
                }
                None => true,
            }
        });
        if crossing.is_some() {
            // Release (not just clear) the buffer: the cap exists to bound
            // memory, and this flow will never confirm again.
            *state = Confirmation::Degraded {
                truncated: (chunk.len() - take) as u64,
            };
        }
    }

    /// One pipeline packet through [`RuleStreamScanner::push`]; returns what
    /// it adds to `MatcherStats::matches`: the anchor hits in rule mode.
    /// A grouped flow reports and counts rules only — its anchors are slots
    /// shared across rules, so they pass through `events` and are
    /// discarded — and once degraded, when it could report nothing else, it
    /// is not scanned at all: the chunk only counts as truncated.
    pub(crate) fn push_flow(
        &mut self,
        chunk: &[u8],
        events: &mut Vec<MatchEvent>,
        rules_out: &mut Vec<RuleMatch>,
    ) -> u64 {
        if self.tables.headers.is_none() {
            self.push(chunk, events, rules_out);
            return events.len() as u64;
        }
        if let Confirmation::Degraded { truncated } = &mut self.state {
            *truncated += chunk.len() as u64;
        } else {
            self.push(chunk, events, rules_out);
            events.clear();
        }
        rules_out.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpm_patterns::rule::{naive_rule_find_all, Rule, RuleContent};
    use mpm_patterns::NaiveMatcher;

    fn ruleset(rules: Vec<Vec<RuleContent>>) -> RuleSet {
        RuleSet::new(rules.into_iter().map(Rule::new).collect())
    }

    fn scanner(set: &RuleSet) -> RuleStreamScanner {
        RuleStreamScanner::new(Arc::new(NaiveMatcher::new(set.anchors())), set)
    }

    #[test]
    fn rule_confirmed_on_the_push_that_completes_it() {
        let set = ruleset(vec![vec![
            RuleContent::new(*b"user"),
            RuleContent::new(*b"pass").with_distance(0),
        ]]);
        let mut s = scanner(&set);
        let (mut anchors, mut rules) = (Vec::new(), Vec::new());
        s.push(b"user alice ", &mut anchors, &mut rules);
        assert!(rules.is_empty(), "anchor alone must not confirm");
        s.push(b"pa", &mut anchors, &mut rules);
        assert!(rules.is_empty());
        s.push(b"ss", &mut anchors, &mut rules);
        assert_eq!(rules, vec![RuleMatch::new(RuleId(0), 15)]);
        // Never re-reported.
        s.push(b" pass", &mut anchors, &mut rules);
        assert_eq!(rules.len(), 1);
    }

    #[test]
    fn streamed_equals_one_shot_for_every_two_chunk_cut() {
        let set = ruleset(vec![
            vec![
                RuleContent::new(*b"abcd"),
                RuleContent::new(*b"wxyz").with_distance(1).with_within(12),
            ],
            vec![RuleContent::new(*b"wxyz").with_offset(3)],
        ]);
        let payload = b"..abcd...wxyz...";
        let expected = naive_rule_find_all(&set, payload);
        assert!(!expected.is_empty());
        for cut in 0..=payload.len() {
            let mut s = scanner(&set);
            let (mut anchors, mut rules) = (Vec::new(), Vec::new());
            s.push(&payload[..cut], &mut anchors, &mut rules);
            s.push(&payload[cut..], &mut anchors, &mut rules);
            rules.sort_unstable();
            assert_eq!(rules, expected, "diverged at cut {cut}");
        }
    }

    #[test]
    fn capped_flow_confirms_exactly_the_cap_prefix_for_every_cut() {
        // Rule 0 is satisfiable within the first 16 bytes, rule 1 only
        // beyond them; a 16-byte cap must confirm exactly rule 0 no matter
        // how the stream is chunked.
        let set = ruleset(vec![
            vec![
                RuleContent::new(*b"abcd"),
                RuleContent::new(*b"wxyz").with_distance(0),
            ],
            vec![RuleContent::new(*b"wxyz").with_offset(20)],
        ]);
        let payload = b"..abcd..wxyz....more..wxyz..tail";
        let cap = 16;
        let expected = naive_rule_find_all(&set, &payload[..cap]);
        assert_eq!(expected.len(), 1, "exactly rule 0 within the cap");
        for cut in 0..=payload.len() {
            let mut s = scanner(&set).with_max_buffer(cap);
            let (mut anchors, mut rules) = (Vec::new(), Vec::new());
            s.push(&payload[..cut], &mut anchors, &mut rules);
            s.push(&payload[cut..], &mut anchors, &mut rules);
            rules.sort_unstable();
            assert_eq!(rules, expected, "diverged at cut {cut}");
            assert!(s.degraded());
            assert_eq!(s.buffered_bytes(), 0, "buffer released on degrade");
            assert_eq!(s.truncated_bytes(), (payload.len() - cap) as u64);
            // Anchor reporting survives degradation: rule 1's "wxyz"
            // anchor at 22 lies past the cap and is still reported.
            let starts: Vec<usize> = anchors.iter().map(|e| e.start).collect();
            assert!(starts.contains(&22), "post-cap anchor missing: {starts:?}");
        }
    }

    #[test]
    fn degraded_flow_stops_confirming_but_keeps_reporting_anchors() {
        let set = ruleset(vec![vec![
            RuleContent::new(*b"user"),
            RuleContent::new(*b"pass").with_distance(0),
        ]]);
        let mut s = scanner(&set).with_max_buffer(4);
        let (mut anchors, mut rules) = (Vec::new(), Vec::new());
        s.push(b"......", &mut anchors, &mut rules); // crosses the 4-byte cap
        assert!(s.degraded());
        s.push(b"user pass", &mut anchors, &mut rules);
        assert!(rules.is_empty(), "no confirmation after degradation");
        assert_eq!(anchors.len(), 1, "anchor still reported");
        assert_eq!(s.truncated_bytes(), 2 + 9);
        assert_eq!(s.buffered_bytes(), 0);
    }

    #[test]
    fn reset_clears_degradation() {
        let set = ruleset(vec![vec![RuleContent::new(*b"abcd")]]);
        let mut s = scanner(&set).with_max_buffer(4);
        let (mut anchors, mut rules) = (Vec::new(), Vec::new());
        s.push(b"......", &mut anchors, &mut rules);
        assert!(s.degraded());
        s.reset();
        assert!(!s.degraded());
        assert_eq!(s.truncated_bytes(), 0);
        s.push(b"abcd", &mut anchors, &mut rules);
        assert_eq!(rules.len(), 1, "fresh stream confirms within the cap");
    }

    /// The work bound of resumable confirmation, counted not timed: over a
    /// whole flow a pending rule examines each start position at most once
    /// per content — however many packets the flow arrives in. (Re-walking
    /// the buffered flow on every push, as confirmation once did, examines
    /// ~flow² / (2 · packet) starts per content: 360× this bound here.)
    #[cfg(debug_assertions)]
    #[test]
    fn a_pending_rule_examines_every_flow_byte_once_per_content() {
        const FLOW: usize = 1 << 20;
        const PACKET: usize = 1460;
        // Both anchors (the long first contents) sit at the head of the
        // flow; neither second content ever arrives, so both rules stay
        // pending for the whole megabyte. The filler is made of the second
        // contents' own first and last bytes, in both cases, so the
        // prescreen keeps handing starts to the full compare.
        let set = ruleset(vec![
            vec![
                RuleContent::new(*b"anchor-one"),
                RuleContent::new(*b"xy-z").with_distance(0),
            ],
            vec![
                RuleContent::new(*b"anchor-two"),
                RuleContent::new(*b"Xy-Z")
                    .with_nocase(true)
                    .with_distance(0),
            ],
        ]);
        let mut flow = b"anchor-one anchor-two ".to_vec();
        flow.extend(b"x..zX..Z".iter().cycle().take(FLOW - flow.len()));
        let mut s = scanner(&set);
        let (mut anchors, mut rules) = (Vec::new(), Vec::new());
        for packet in flow.chunks(PACKET) {
            s.push(packet, &mut anchors, &mut rules);
        }
        assert!(rules.is_empty(), "the second contents never arrive");
        let Confirmation::Open { pending, .. } = &s.state else {
            unreachable!("an uncapped flow stays open");
        };
        assert_eq!(pending.len(), 2, "both rules held pending");
        for pending in pending {
            let examined = pending.progress.examined_starts();
            // Two contents each: at most one look per start per content,
            // and no fewer than the whole flow bar the last few starts.
            assert!(
                examined <= 2 * FLOW as u64,
                "rule {}: {examined} starts examined over a {FLOW}-byte flow",
                pending.rule
            );
            assert!(examined >= 2 * (FLOW as u64 - 16), "rule {}", pending.rule);
        }
    }

    #[test]
    fn reset_forgets_payload_and_rule_state() {
        let set = ruleset(vec![vec![
            RuleContent::new(*b"ab"),
            RuleContent::new(*b"cd").with_distance(0),
        ]]);
        let mut s = scanner(&set);
        let (mut anchors, mut rules) = (Vec::new(), Vec::new());
        s.push(b"ab", &mut anchors, &mut rules);
        s.reset();
        assert_eq!(s.buffered_bytes(), 0);
        s.push(b"cd", &mut anchors, &mut rules);
        assert!(rules.is_empty(), "old stream's anchor must not linger");
    }
}
