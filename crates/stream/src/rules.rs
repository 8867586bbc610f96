//! [`RuleStreamScanner`]: rule confirmation over a chunked stream.
//!
//! The pattern layer ([`StreamScanner`]) only needs `max_pattern_len - 1`
//! bytes of history, because a pattern occurrence spans at most
//! `max_pattern_len` bytes. Rules are different: `offset`/`distance`
//! windows are unbounded (a rule may pair a content at offset 0 with one a
//! megabyte later), so confirmation is a function of the **whole flow
//! payload seen so far**. `RuleStreamScanner` therefore buffers the flow's
//! payload, while still running the anchor engine incrementally through the
//! inner [`StreamScanner`] (carry bytes only).
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
//! a sorted list of triggered rule indices plus one record per pending
//! rule. The record is dropped when its rule confirms, on
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
//! was never eligible for confirmation.

use crate::stream::{SharedMatcher, StreamScanner};
use mpm_patterns::rule::{RuleId, RuleMatch, RuleSet};
use mpm_patterns::MatchEvent;
use mpm_verify::{ConfirmProgress, RuleConfirmer};
use std::sync::Arc;

/// Inserts `id` into the sorted set `ids`; false if it was already there.
/// The per-flow rule sets are this small sorted vector because a flow
/// triggers a handful of rules out of thousands.
pub(crate) fn insert_sorted(ids: &mut Vec<u32>, id: u32) -> bool {
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
struct PendingRule {
    /// Scanner-local rule index.
    rule: u32,
    progress: ConfirmProgress,
}

/// Stateful rule scanning over one logical stream (one flow).
///
/// Wraps a [`StreamScanner`] over the rule set's anchor patterns and a
/// [`RuleConfirmer`]; both the engine and the confirmer are shared
/// (`Arc`), so per-flow cost is the buffered payload plus a few words per
/// rule the flow has triggered.
///
/// ```
/// use mpm_patterns::rule::{Rule, RuleContent, RuleSet};
/// use mpm_patterns::ProtocolGroup;
/// use mpm_stream::RuleStreamScanner;
/// use std::sync::Arc;
///
/// let set = RuleSet::new(vec![Rule::new(
///     ProtocolGroup::Any,
///     vec![
///         RuleContent::new(*b"GET "),
///         RuleContent::new(*b"passwd").with_distance(0),
///     ],
/// )]);
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
pub struct RuleStreamScanner {
    inner: StreamScanner,
    confirmer: Arc<RuleConfirmer>,
    /// Pattern index → rule index for the anchor set.
    rule_of: Arc<[u32]>,
    /// When the confirmer covers a *superset* of this scanner's rules (the
    /// grouped path shares one confirmer across every port group), maps the
    /// scanner-local rule index to the confirmer's rule id; `None` means
    /// the identity (the confirmer was built for exactly these rules).
    /// Confirmed rules are reported under the **mapped** id.
    confirm_ids: Option<Arc<[u32]>>,
    /// The flow's payload so far (see module docs for why rules need it).
    payload: Vec<u8>,
    /// Scanner-local indices of every rule whose anchor has fired on this
    /// flow, pending or confirmed, sorted. A rule absent from it cannot
    /// match (anchor gating is exact); one present is never re-triggered,
    /// so a confirmed rule is never re-reported.
    triggered: Vec<u32>,
    /// The triggered rules not yet confirmed, in trigger order, each with
    /// its resumable confirmation progress.
    pending: Vec<PendingRule>,
    /// Buffer cap in bytes; `None` means unbounded (the historical
    /// behaviour). See the module-level memory contract.
    max_buffer: Option<usize>,
    /// True once the flow exceeded `max_buffer` and fell back to
    /// anchor-only reporting.
    degraded: bool,
    /// Payload bytes that were never eligible for confirmation (everything
    /// past the first `max_buffer` bytes of the stream).
    truncated: u64,
}

impl std::fmt::Debug for RuleStreamScanner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuleStreamScanner")
            .field("inner", &self.inner)
            .field("triggered", &self.triggered.len())
            .field("pending", &self.pending.len())
            .field("buffered_bytes", &self.payload.len())
            .field("degraded", &self.degraded)
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
        let inner = StreamScanner::new(engine, set.anchors());
        // Invariant: `RuleSet::anchors()` builds its `PatternSet` with one
        // binding per anchor, so `rule_bindings()` is always `Some` here.
        let rule_of: Arc<[u32]> = set
            .anchors()
            .rule_bindings()
            .expect("RuleSet::anchors is always rule-bound")
            .into();
        Self::with_parts(
            inner,
            Arc::new(RuleConfirmer::build(set)),
            rule_of,
            None,
            None,
        )
    }

    /// Internal constructor used by the multi-core scanners and the grouped
    /// path to mint per-flow scanners from shared, pre-built parts.
    /// `confirm_ids` translates scanner-local rule indices to the
    /// confirmer's ids when the confirmer is shared across groups.
    pub(crate) fn with_parts(
        inner: StreamScanner,
        confirmer: Arc<RuleConfirmer>,
        rule_of: Arc<[u32]>,
        confirm_ids: Option<Arc<[u32]>>,
        max_buffer: Option<usize>,
    ) -> Self {
        RuleStreamScanner {
            inner,
            confirmer,
            rule_of,
            confirm_ids,
            payload: Vec::new(),
            triggered: Vec::new(),
            pending: Vec::new(),
            max_buffer,
            degraded: false,
            truncated: 0,
        }
    }

    /// Caps the confirmation buffer at `bytes`; over the cap the flow
    /// degrades to anchor-only reporting (see the module-level memory
    /// contract). A cap of zero degrades on the first non-empty push.
    #[must_use]
    pub fn with_max_buffer(mut self, bytes: usize) -> Self {
        self.max_buffer = Some(bytes);
        self
    }

    /// Absolute offset of the next byte to be pushed.
    pub fn position(&self) -> usize {
        self.inner.position()
    }

    /// Bytes of flow payload currently buffered for confirmation (the whole
    /// stream so far, or zero once the flow degraded — see the module docs
    /// for the memory contract).
    pub fn buffered_bytes(&self) -> usize {
        self.payload.len()
    }

    /// True once the flow exceeded the buffer cap and fell back to
    /// anchor-only reporting (confirmation disabled, buffer released).
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Payload bytes past the first `max_buffer` bytes of the stream —
    /// scanned for anchors but never eligible for rule confirmation.
    pub fn truncated_bytes(&self) -> u64 {
        self.truncated
    }

    /// Resets the scanner for a new stream, keeping the engine, confirmer
    /// and allocated buffers.
    pub fn reset(&mut self) {
        self.inner.reset();
        self.payload.clear();
        self.triggered.clear();
        self.pending.clear();
        self.degraded = false;
        self.truncated = 0;
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
        if chunk.is_empty() {
            return;
        }
        if self.degraded {
            // Anchor-only fallback: the engine's carry window keeps anchor
            // reporting exact; confirmation state is frozen.
            self.truncated += chunk.len() as u64;
            self.inner.push(chunk, anchors_out);
            return;
        }
        // Does this push take the stream past the buffer cap? If so, only
        // the prefix that still fits is eligible for confirmation; the rest
        // of the chunk is anchor-scanned but truncated.
        let crossing = self
            .max_buffer
            .is_some_and(|cap| self.payload.len() + chunk.len() > cap);
        let take = if crossing {
            self.max_buffer
                .unwrap_or(0)
                .saturating_sub(self.payload.len())
        } else {
            chunk.len()
        };
        self.payload.extend_from_slice(&chunk[..take]);
        let first_new = anchors_out.len();
        self.inner.push(chunk, anchors_out);
        for event in &anchors_out[first_new..] {
            let rule = self.rule_of[event.pattern.index()];
            if insert_sorted(&mut self.triggered, rule) {
                self.pending.push(PendingRule {
                    rule,
                    progress: ConfirmProgress::default(),
                });
            }
        }
        // On the crossing push this final resumption runs against exactly
        // the first `cap` bytes of the stream, so a capped flow confirms the
        // same rules as `scan_rules` on that prefix regardless of where the
        // chunk seams fall. (Anchors past the cap may have marked rules
        // pending above; their contents are absent from the capped payload,
        // so they cannot confirm, and pending state is cleared below.)
        let (confirmer, payload) = (&self.confirmer, &self.payload);
        let confirm_ids = self.confirm_ids.as_deref();
        self.pending.retain_mut(|pending| {
            let id = match confirm_ids {
                Some(ids) => RuleId(ids[pending.rule as usize]),
                None => RuleId(pending.rule),
            };
            match confirmer.resume(payload, id, &mut pending.progress) {
                Some(end) => {
                    rules_out.push(RuleMatch::new(id, end));
                    false
                }
                None => true,
            }
        });
        if crossing {
            self.truncated += (chunk.len() - take) as u64;
            self.pending.clear();
            self.degraded = true;
            // Release (not just clear) the buffer: the cap exists to bound
            // memory, and this flow will never confirm again.
            self.payload = Vec::new();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpm_patterns::rule::{naive_rule_find_all, Rule, RuleContent};
    use mpm_patterns::{NaiveMatcher, ProtocolGroup};

    fn ruleset(rules: Vec<Vec<RuleContent>>) -> RuleSet {
        RuleSet::new(
            rules
                .into_iter()
                .map(|contents| Rule::new(ProtocolGroup::Any, contents))
                .collect(),
        )
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
        assert_eq!(s.pending.len(), 2, "both rules held pending");
        for pending in &s.pending {
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
