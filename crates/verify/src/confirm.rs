//! Rule confirmation: from anchor hits to confirmed multi-content rules.
//!
//! The engines' multi-pattern matchers search only each rule's **anchor**
//! content ([`mpm_patterns::rule::RuleSet::anchors`]). When an anchor fires,
//! [`RuleConfirmer`] decides whether the *whole rule* matches — every
//! content present, every `offset`/`depth`/`distance`/`within` constraint
//! satisfiable — and at which offset, riding the same batched
//! `eq_window`/`eq_window_nocase` backend primitives as the PR 5 verifier so
//! confirmation stays on the SIMD path.
//!
//! # Algorithm
//!
//! Confirmation of one rule against one payload is **resumable**: its state
//! between calls is a [`ConfirmProgress`] record holding, per content, the
//! next start position not yet examined and the sorted occurrence ends found
//! so far. [`RuleConfirmer::resume`] advances the record over whatever the
//! payload has gained since the previous call and runs in two steps:
//!
//! 1. **Occurrence enumeration** — inside one [`VectorBackend::dispatch`]
//!    region, for each content, examine only the starts in
//!    `[max(lo, next_start), hi]` with `(lo, hi) =
//!    RuleContent::scan_range(payload.len())`, the window its
//!    `offset`/`depth` allow. [`VectorBackend::prescreen`] tests the
//!    content's first and last byte over a block of consecutive starts at a
//!    time; one `eq_window[_nocase]` vector compare settles each surviving
//!    start, and confirmed occurrences are appended to the content's list.
//! 2. **Chain DP** — only when some list grew and none is empty: over
//!    contents in rule order, compute for every occurrence the minimal
//!    achievable *maximum occurrence end* of any constraint-satisfying
//!    assignment ending there. The relative constraints couple only adjacent
//!    contents through the previous occurrence's end, so
//!    `g_i(j) = max(end_j, min over feasible k of g_{i-1}(k))`.
//!    The rule is satisfiable iff some `g` survives, and `min g` is the
//!    **minimal prefix length at which the rule matches** — the offset
//!    reported in [`RuleMatch::end`].
//!
//! Resumption is exact, not an approximation. A payload only ever grows by
//! appending, `lo` is fixed and `hi` is monotone in the payload length, so
//! the starts examined across calls partition `[lo, hi]` and the lists after
//! a call equal a from-scratch enumeration of the current payload. The DP is
//! a pure function of the lists, so skipping it when no list grew repeats
//! the previous answer — which was `None`, or the caller would have stopped
//! resuming. Each start of each content is therefore examined **once** per
//! record, however many calls the payload arrives in: a call costs
//! O(contents × bytes gained), not O(contents × payload).
//!
//! [`RuleConfirmer::confirm`] is the same routine with a fresh record, so
//! one-shot and streamed confirmation share one enumeration code path. The
//! reported minimum is a pure function of the payload bytes: it never
//! depends on chunking, which is what lets `mpm-stream` report identical
//! rule matches streamed and one-shot (property-tested in
//! `tests/rule_confirmation_differential.rs` against the naive evaluator in
//! `mpm_patterns::rule`, which uses a deliberately different algorithm —
//! memoized recursion plus binary search).
//!
//! Gating confirmation on anchor hits loses nothing: a satisfying
//! assignment contains a real anchor occurrence, and the anchor MPM is
//! exact, so "rule satisfiable" implies "anchor reported".
//!
//! # Amortizing confirmation: the payload index
//!
//! Step 1 above scans the payload once per content *per triggered rule*.
//! That is the right shape for streaming (few rules are pending at once and
//! each examines only the new bytes), but on a monolithic trace where
//! hundreds of anchors fire it degenerates to `O(rules × payload)`. For that
//! case [`RuleConfirmer::index_payload`] enumerates every occurrence of
//! every *distinct* content in **one** Aho-Corasick pass and
//! [`RuleConfirmer::confirm_indexed`] replaces step 1 with two binary
//! searches per content (slicing the absolute `offset`/`depth` window out
//! of the sorted occurrence list); step 2 is unchanged.
//! [`RuleScanner::scan_rules`] takes this path whenever any rule triggers.
//! The automaton behind the index is compiled on first use — the streaming
//! path never indexes, so it never pays for it.

use mpm_aho_corasick::NfaMatcher;
use mpm_patterns::rule::{RuleContent, RuleId, RuleMatch, RuleSet};
use mpm_patterns::{MatchEvent, Matcher, Pattern, PatternSet};
use mpm_simd::{Avx2Backend, Avx512Backend, BackendKind, ScalarBackend, VectorBackend};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};

/// The rule-confirmation stage: compiled constraint chains for every rule
/// of a [`RuleSet`], evaluated on demand when the rule's anchor fires.
///
/// Stateless per payload (callers own the [`ConfirmProgress`] records);
/// share one confirmer across threads via [`Arc`].
#[derive(Clone, Debug)]
pub struct RuleConfirmer {
    rules: Arc<RuleSet>,
    /// Per rule, the unique-content slot of each of its contents in order.
    slots: Arc<Vec<Vec<u32>>>,
    /// Content length in bytes per unique-content slot.
    slot_len: Arc<Vec<u32>>,
    /// Exact multi-pattern matcher over the distinct `(bytes, nocase)`
    /// contents (one pattern per slot), backing [`Self::index_payload`].
    /// Compiled on first use and shared by every clone.
    contents: Arc<OnceLock<NfaMatcher>>,
    /// The backend [`Self::confirm`] / [`Self::resume`] enumerate with,
    /// resolved once at build (honours `MPM_FORCE_BACKEND`).
    backend: BackendKind,
}

impl RuleConfirmer {
    /// Compiles the confirmation stage for `set`.
    pub fn build(set: &RuleSet) -> Self {
        let mut slot_of: HashMap<(&[u8], bool), u32> = HashMap::new();
        let mut slot_len: Vec<u32> = Vec::new();
        let mut slots: Vec<Vec<u32>> = Vec::with_capacity(set.len());
        for rule in set.rules() {
            slots.push(
                rule.contents()
                    .iter()
                    .map(|content| {
                        let key = (content.bytes(), content.is_nocase());
                        *slot_of.entry(key).or_insert_with(|| {
                            slot_len.push(content.len() as u32);
                            (slot_len.len() - 1) as u32
                        })
                    })
                    .collect(),
            );
        }
        RuleConfirmer {
            rules: Arc::new(set.clone()),
            slots: Arc::new(slots),
            slot_len: Arc::new(slot_len),
            contents: Arc::new(OnceLock::new()),
            backend: mpm_simd::detect_best(),
        }
    }

    /// The underlying rule set.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// Confirms `rule` against `payload` on the backend resolved at build.
    /// Returns the minimal prefix length at which the rule is satisfiable,
    /// or `None`. One-shot form of [`Self::resume`]: the same routine over a
    /// fresh progress record.
    pub fn confirm(&self, payload: &[u8], rule: RuleId) -> Option<usize> {
        self.resume(payload, rule, &mut ConfirmProgress::default())
    }

    /// [`RuleConfirmer::confirm`] monomorphized for one backend (the
    /// engines' usual `B`/`W` shape, so tests can pin a backend directly).
    pub fn confirm_with<B: VectorBackend<W>, const W: usize>(
        &self,
        payload: &[u8],
        rule: RuleId,
    ) -> Option<usize> {
        self.resume_with::<B, W>(payload, rule, &mut ConfirmProgress::default())
    }

    /// Resumes confirmation of `rule` over `payload`, which must extend —
    /// by appending only — the payload of every earlier call made with
    /// `progress` (a fresh record starts from nothing). Examines only the
    /// start positions the record has not covered yet and returns the
    /// minimal prefix length at which the rule is satisfiable, or `None` if
    /// it is not satisfiable yet. See the module docs for why this equals
    /// [`Self::confirm`] on the whole payload.
    ///
    /// Once a call returns `Some` the record has served its purpose: drop
    /// it. (The DP is skipped when no list grew, so a later call would not
    /// repeat the answer.)
    pub fn resume(
        &self,
        payload: &[u8],
        rule: RuleId,
        progress: &mut ConfirmProgress,
    ) -> Option<usize> {
        match self.backend {
            BackendKind::Scalar => self.resume_with::<ScalarBackend, 8>(payload, rule, progress),
            BackendKind::Avx2 => self.resume_with::<Avx2Backend, 8>(payload, rule, progress),
            BackendKind::Avx512 => self.resume_with::<Avx512Backend, 16>(payload, rule, progress),
        }
    }

    /// [`RuleConfirmer::resume`] monomorphized for one backend.
    pub fn resume_with<B: VectorBackend<W>, const W: usize>(
        &self,
        payload: &[u8],
        rule: RuleId,
        progress: &mut ConfirmProgress,
    ) -> Option<usize> {
        let contents = self.rules.get(rule).contents();
        if progress.contents.is_empty() {
            progress
                .contents
                .resize_with(contents.len(), ContentProgress::default);
        }
        assert_eq!(
            progress.contents.len(),
            contents.len(),
            "progress record belongs to a different rule"
        );
        // Step 1: extend each content's occurrence ends over the starts not
        // examined yet. Ends are u64 so the DP sentinel cannot collide.
        let mut grew = false;
        B::dispatch(|| {
            for (content, seen) in contents.iter().zip(&mut progress.contents) {
                let Some((lo, hi)) = content.scan_range(payload.len()) else {
                    continue;
                };
                let from = lo.max(seen.next_start);
                if from > hi {
                    continue;
                }
                let bytes = content.bytes();
                let len = bytes.len();
                let found = seen.ends.as_slice().len();
                let ends = &mut seen.ends;
                if content.is_nocase() {
                    B::prescreen::<true>(payload, from..=hi, bytes, |start| {
                        if B::eq_window_nocase(&payload[start..start + len], bytes) {
                            ends.push((start + len) as u64);
                        }
                    });
                } else {
                    B::prescreen::<false>(payload, from..=hi, bytes, |start| {
                        if B::eq_window(&payload[start..start + len], bytes) {
                            ends.push((start + len) as u64);
                        }
                    });
                }
                grew |= seen.ends.as_slice().len() > found;
                seen.next_start = hi + 1;
                #[cfg(debug_assertions)]
                {
                    progress.examined += (hi + 1 - from) as u64;
                }
            }
        });
        if !grew
            || progress
                .contents
                .iter()
                .any(|seen| seen.ends.as_slice().is_empty())
        {
            return None;
        }
        chain_dp(contents, |i| progress.contents[i].ends.as_slice())
    }

    /// The unique-content automaton, compiled on first use.
    fn contents(&self) -> &NfaMatcher {
        self.contents.get_or_init(|| {
            // `build` numbered the slots in first-seen order over this same
            // walk, so a content opens a new slot iff its slot is the next.
            let mut patterns: Vec<Pattern> = Vec::with_capacity(self.slot_len.len());
            for (rule, slots) in self.rules.rules().iter().zip(self.slots.iter()) {
                for (content, &slot) in rule.contents().iter().zip(slots) {
                    if slot as usize == patterns.len() {
                        patterns.push(
                            Pattern::literal(content.bytes().to_vec())
                                .with_nocase(content.is_nocase()),
                        );
                    }
                }
            }
            NfaMatcher::build(&PatternSet::new(patterns))
        })
    }

    /// Enumerates every occurrence of every distinct rule content in one
    /// Aho-Corasick pass over `payload`. The index amortizes confirmation
    /// across many triggered rules: [`Self::confirm_indexed`] then needs no
    /// byte compares at all, only binary searches into the sorted
    /// occurrence lists.
    pub fn index_payload(&self, payload: &[u8]) -> PayloadIndex {
        let mut ends: Vec<Vec<u64>> = vec![Vec::new(); self.slot_len.len()];
        // NfaMatcher emits events in increasing end order, so per-slot
        // lists arrive sorted — the binary searches below rely on that.
        for event in self.contents().find_all(payload) {
            let slot = event.pattern.index();
            ends[slot].push((event.start + self.slot_len[slot] as usize) as u64);
        }
        PayloadIndex {
            ends,
            payload_len: payload.len(),
        }
    }

    /// [`Self::confirm`] against a prebuilt [`PayloadIndex`] of the same
    /// payload: per-content occurrence lists become window slices of the
    /// index (two binary searches each), then the identical chain DP runs.
    pub fn confirm_indexed(&self, index: &PayloadIndex, rule: RuleId) -> Option<usize> {
        let contents = self.rules.get(rule).contents();
        let slots = &self.slots[rule.index()];
        let mut lists: Vec<&[u64]> = Vec::with_capacity(contents.len());
        for (content, &slot) in contents.iter().zip(slots) {
            let (lo, hi) = content.scan_range(index.payload_len)?;
            let all = index.ends[slot as usize].as_slice();
            let len = content.len() as u64;
            // Starts in [lo, hi] <=> ends in [lo + len, hi + len].
            let from = all.partition_point(|&end| end < lo as u64 + len);
            let to = all.partition_point(|&end| end <= hi as u64 + len);
            if from == to {
                return None;
            }
            lists.push(&all[from..to]);
        }
        chain_dp(contents, |i| lists[i])
    }

    /// Heap bytes of the compiled rule chains and slot tables, plus the
    /// unique-content automaton behind [`Self::index_payload`] once it has
    /// been compiled (it is not resident before the first indexing call;
    /// [`RuleScanner::new`] compiles it up front).
    pub fn heap_bytes(&self) -> usize {
        let chains: usize = self.rules.rules().iter().map(|r| r.heap_bytes()).sum();
        let slots: usize = self
            .slots
            .iter()
            .map(|s| s.len() * std::mem::size_of::<u32>())
            .sum();
        let automaton = self
            .contents
            .get()
            .map_or(0, |contents| contents.automaton().heap_bytes());
        chains + slots + automaton
    }
}

/// Where confirmation of one rule over one growing payload stands: per
/// content, the next start position not examined yet and the sorted
/// occurrence ends found so far. `Default` is the fresh record. Advanced by
/// [`RuleConfirmer::resume`]; valid only for the rule and payload it was
/// first used with.
#[derive(Clone, Debug, Default)]
pub struct ConfirmProgress {
    contents: Vec<ContentProgress>,
    /// Start positions examined so far, summed over contents (debug builds
    /// only; the bounded-work tests read it).
    #[cfg(debug_assertions)]
    examined: u64,
}

/// One content's share of a [`ConfirmProgress`].
#[derive(Clone, Debug, Default)]
struct ContentProgress {
    /// Every start below this has been examined.
    next_start: usize,
    /// Occurrence ends (`start + len`) found so far, ascending.
    ends: Ends,
}

/// How many occurrence ends an [`Ends`] list holds before it moves to the
/// heap.
const INLINE_ENDS: usize = 3;

/// An append-only list of occurrence ends. A content typically occurs a
/// handful of times in a flow, so the first [`INLINE_ENDS`] ends live in the
/// record itself: a pending rule then costs one allocation (its record),
/// not one more per content, and only a longer list moves to the heap.
#[derive(Clone, Debug)]
enum Ends {
    Inline {
        len: usize,
        ends: [u64; INLINE_ENDS],
    },
    Heap(Vec<u64>),
}

impl Default for Ends {
    fn default() -> Self {
        Ends::Inline {
            len: 0,
            ends: [0; INLINE_ENDS],
        }
    }
}

impl Ends {
    fn as_slice(&self) -> &[u64] {
        match self {
            Ends::Inline { len, ends } => &ends[..*len],
            Ends::Heap(ends) => ends,
        }
    }

    fn push(&mut self, end: u64) {
        match self {
            Ends::Inline { len, ends } if *len < INLINE_ENDS => {
                ends[*len] = end;
                *len += 1;
            }
            Ends::Inline { ends, .. } => {
                let mut heap = Vec::with_capacity(4 * INLINE_ENDS);
                heap.extend_from_slice(ends);
                heap.push(end);
                *self = Ends::Heap(heap);
            }
            Ends::Heap(ends) => ends.push(end),
        }
    }
}

impl ConfirmProgress {
    /// Total start positions examined through this record, summed over the
    /// rule's contents. Debug builds only: it exists so tests can bound the
    /// work resumable confirmation does.
    #[cfg(debug_assertions)]
    pub fn examined_starts(&self) -> u64 {
        self.examined
    }
}

thread_local! {
    /// The chain DP's two `g` rows, kept per thread (like the engines' scan
    /// scratch) so the DP allocates nothing once they have grown to the
    /// longest occurrence list seen. Per-flow scanners come and go with
    /// their flows; a thread does not.
    static DP_ROWS: RefCell<(Vec<u64>, Vec<u64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Per-payload occurrence index built by [`RuleConfirmer::index_payload`]:
/// sorted occurrence ends per distinct rule content. Valid only for the
/// exact payload it was built from.
pub struct PayloadIndex {
    /// Sorted occurrence ends (`start + len`) per unique-content slot.
    ends: Vec<Vec<u64>>,
    /// Length of the indexed payload (drives `offset`/`depth` windows).
    payload_len: usize,
}

impl PayloadIndex {
    /// Total number of content occurrences recorded in the index.
    pub fn occurrence_count(&self) -> usize {
        self.ends.iter().map(|e| e.len()).sum()
    }
}

/// Step 2 of confirmation (shared by the scanning and indexed paths): chain
/// DP on the minimal achievable maximum occurrence end, over one sorted,
/// non-empty occurrence-end list per content (`list(i)` for content `i`).
/// The first content's own relative constraints (legal in Snort: relative
/// to payload start) are checked against `prev_end = 0`.
fn chain_dp<'a>(contents: &[RuleContent], list: impl Fn(usize) -> &'a [u64]) -> Option<usize> {
    DP_ROWS.with_borrow_mut(|(g, prev_g)| chain_dp_rows(contents, list, g, prev_g))
}

/// [`chain_dp`] over the thread's two `g` rows (overwritten).
fn chain_dp_rows<'a>(
    contents: &[RuleContent],
    list: impl Fn(usize) -> &'a [u64],
    g: &mut Vec<u64>,
    prev_g: &mut Vec<u64>,
) -> Option<usize> {
    const UNSAT: u64 = u64::MAX;
    g.clear();
    let first = &contents[0];
    let len = first.len() as u64;
    g.extend(list(0).iter().map(|&end| {
        if first.relative_ok((end - len) as usize, 0) {
            end
        } else {
            UNSAT
        }
    }));
    for (i, content) in contents.iter().enumerate().skip(1) {
        let len = content.len() as u64;
        let prev_ends = list(i - 1);
        std::mem::swap(g, prev_g);
        g.clear();
        if content.is_relative() {
            g.extend(list(i).iter().map(|&end| {
                let start = (end - len) as usize;
                let best_prev = prev_ends
                    .iter()
                    .zip(prev_g.iter())
                    .filter(|&(&prev_end, &pg)| {
                        pg != UNSAT && content.relative_ok(start, prev_end as usize)
                    })
                    .map(|(_, &pg)| pg)
                    .min()
                    .unwrap_or(UNSAT);
                if best_prev == UNSAT {
                    UNSAT
                } else {
                    best_prev.max(end)
                }
            }));
        } else {
            // No relative coupling: every occurrence may follow the
            // globally cheapest prefix assignment.
            let best_prev = prev_g.iter().copied().min().unwrap_or(UNSAT);
            g.extend(list(i).iter().map(|&end| {
                if best_prev == UNSAT {
                    UNSAT
                } else {
                    best_prev.max(end)
                }
            }));
        }
    }
    g.iter()
        .copied()
        .filter(|&v| v != UNSAT)
        .min()
        .map(|v| v as usize)
}

/// One-shot rule scanning: an anchor engine plus a [`RuleConfirmer`].
///
/// [`RuleScanner::scan`] keeps reporting plain anchor-pattern hits (the
/// [`Matcher`] view); [`RuleScanner::scan_rules`] reports **confirmed
/// rules**, each at most once per payload, at the minimal prefix length at
/// which its constraints are satisfiable. For streaming and multi-core use
/// see `mpm_stream::RuleStreamScanner` / `ScannerBuilder::rules`.
pub struct RuleScanner {
    engine: Arc<dyn Matcher + Send + Sync>,
    confirmer: RuleConfirmer,
}

impl RuleScanner {
    /// Wraps an engine compiled for `set.anchors()`.
    ///
    /// # Panics
    /// Panics if the engine disagrees with the anchor set about the longest
    /// pattern (the symptom of compiling it for a different set).
    pub fn new(engine: Arc<dyn Matcher + Send + Sync>, set: &RuleSet) -> Self {
        let anchors = set.anchors();
        let max_len = anchors
            .patterns()
            .iter()
            .map(|p| p.len())
            .max()
            .unwrap_or(0);
        assert_eq!(
            engine.max_pattern_len(),
            max_len,
            "engine was compiled for a different anchor set"
        );
        // `scan_rules` indexes every payload an anchor fires on, so pay for
        // the index automaton here, not on the first scan.
        let confirmer = RuleConfirmer::build(set);
        confirmer.contents();
        RuleScanner { engine, confirmer }
    }

    /// The wrapped anchor engine.
    pub fn engine(&self) -> &Arc<dyn Matcher + Send + Sync> {
        &self.engine
    }

    /// The confirmation stage.
    pub fn confirmer(&self) -> &RuleConfirmer {
        &self.confirmer
    }

    /// Anchor-pattern hits, exactly as the wrapped [`Matcher`] reports them.
    pub fn scan(&self, payload: &[u8]) -> Vec<MatchEvent> {
        self.engine.find_all(payload)
    }

    /// Confirmed rules, in rule-id order, each at most once. An anchor hit
    /// on pattern `i` triggers rule `i` ([`RuleSet::anchors`]).
    ///
    /// Confirmation is amortized through one [`RuleConfirmer::index_payload`]
    /// pass shared by every triggered rule, so the cost of dense anchor
    /// traffic scales with the payload, not with `rules × payload`.
    pub fn scan_rules(&self, payload: &[u8]) -> Vec<RuleMatch> {
        let mut triggered: BTreeSet<u32> = BTreeSet::new();
        for event in self.engine.find_all(payload) {
            triggered.insert(event.pattern.0);
        }
        if triggered.is_empty() {
            return Vec::new();
        }
        let index = self.confirmer.index_payload(payload);
        triggered
            .into_iter()
            .filter_map(|rule| {
                let id = RuleId(rule);
                self.confirmer
                    .confirm_indexed(&index, id)
                    .map(|end| RuleMatch::new(id, end))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpm_patterns::rule::{naive_rule_find_all, naive_rule_first_end, Rule, RuleContent};
    use mpm_patterns::NaiveMatcher;

    fn ruleset(rules: Vec<Vec<RuleContent>>) -> RuleSet {
        RuleSet::new(rules.into_iter().map(Rule::new).collect())
    }

    fn scanner(set: &RuleSet) -> RuleScanner {
        RuleScanner::new(Arc::new(NaiveMatcher::new(set.anchors())), set)
    }

    /// Asserts the confirmer agrees with the naive evaluator on every rule
    /// of `set`, on every backend this machine dispatches to.
    fn assert_matches_naive(set: &RuleSet, payload: &[u8]) {
        let confirmer = RuleConfirmer::build(set);
        let index = confirmer.index_payload(payload);
        for (id, rule) in set.iter() {
            let expected = naive_rule_first_end(rule, payload);
            assert_eq!(
                confirmer.confirm_with::<ScalarBackend, 8>(payload, id),
                expected,
                "scalar diverged on rule {id} over {payload:?}"
            );
            assert_eq!(
                confirmer.confirm_indexed(&index, id),
                expected,
                "indexed confirmation diverged on rule {id} over {payload:?}"
            );
            for kind in mpm_simd::available_backends() {
                let got = match kind {
                    BackendKind::Scalar => confirmer.confirm_with::<ScalarBackend, 8>(payload, id),
                    BackendKind::Avx2 => confirmer.confirm_with::<Avx2Backend, 8>(payload, id),
                    BackendKind::Avx512 => confirmer.confirm_with::<Avx512Backend, 16>(payload, id),
                };
                assert_eq!(got, expected, "{kind:?} diverged on rule {id}");
            }
        }
    }

    #[test]
    fn two_content_chain_confirms_at_minimal_end() {
        let set = ruleset(vec![vec![
            RuleContent::new(*b"GET "),
            RuleContent::new(*b"passwd")
                .with_distance(0)
                .with_within(20),
        ]]);
        let payload = b"GET /etc/passwd HTTP/1.1";
        assert_matches_naive(&set, payload);
        let got = scanner(&set).scan_rules(payload);
        assert_eq!(got, vec![RuleMatch::new(RuleId(0), 15)]);
    }

    #[test]
    fn violated_within_window_refutes() {
        let set = ruleset(vec![vec![
            RuleContent::new(*b"GET "),
            RuleContent::new(*b"passwd").with_within(8),
        ]]);
        let payload = b"GET /some/long/prefix/passwd";
        assert_matches_naive(&set, payload);
        assert!(scanner(&set).scan_rules(payload).is_empty());
    }

    #[test]
    fn absolute_offset_depth_windows_are_enforced() {
        let set = ruleset(vec![
            vec![RuleContent::new(*b"ab").with_offset(2).with_depth(4)],
            vec![RuleContent::new(*b"ab").with_offset(6)],
        ]);
        let payload = b"ab..ab..ab";
        assert_matches_naive(&set, payload);
        let got = scanner(&set).scan_rules(payload);
        assert_eq!(
            got,
            vec![RuleMatch::new(RuleId(0), 6), RuleMatch::new(RuleId(1), 10)]
        );
    }

    #[test]
    fn negative_distance_reaches_backwards() {
        // Second content may start up to 3 bytes before the first's end.
        let set = ruleset(vec![vec![
            RuleContent::new(*b"abcd"),
            RuleContent::new(*b"cdx").with_distance(-3),
        ]]);
        let payload = b"..abcdx.";
        assert_matches_naive(&set, payload);
        assert_eq!(scanner(&set).scan_rules(payload).len(), 1);
    }

    #[test]
    fn nocase_contents_confirm_case_insensitively() {
        let set = ruleset(vec![vec![
            RuleContent::new(*b"user").with_nocase(true),
            RuleContent::new(*b"Pass").with_distance(0),
        ]]);
        assert_matches_naive(&set, b"USER x Pass");
        assert_matches_naive(&set, b"USER x pass");
        assert_eq!(scanner(&set).scan_rules(b"UsEr x Pass").len(), 1);
        assert!(
            scanner(&set).scan_rules(b"UsEr x pass").is_empty(),
            "the case-sensitive content must stay byte-exact"
        );
    }

    #[test]
    fn later_anchor_occurrence_rescues_the_chain() {
        // First "ab" is too far from any "cd"; the second works.
        let set = ruleset(vec![vec![
            RuleContent::new(*b"ab"),
            RuleContent::new(*b"cd").with_distance(0).with_within(4),
        ]]);
        let payload = b"ab........ab.cd";
        assert_matches_naive(&set, payload);
        assert_eq!(
            scanner(&set).scan_rules(payload),
            vec![RuleMatch::new(RuleId(0), 15)]
        );
    }

    #[test]
    fn first_content_relative_constraints_anchor_at_payload_start() {
        let set = ruleset(vec![vec![
            RuleContent::new(*b"xy").with_distance(3),
            RuleContent::new(*b"zz").with_distance(0),
        ]]);
        // "xy" must start at >= 3 from payload start.
        assert_matches_naive(&set, b"xy.xy.zz");
        assert_matches_naive(&set, b"xy.zz");
        assert_eq!(scanner(&set).scan_rules(b"xy.xy.zz").len(), 1);
        assert!(scanner(&set).scan_rules(b"xy.zz").is_empty());
    }

    #[test]
    fn scan_rules_reports_each_rule_once_and_scan_reports_anchor_hits() {
        let set = ruleset(vec![vec![RuleContent::new(*b"dup")]]);
        let s = scanner(&set);
        let payload = b"dup dup dup";
        assert_eq!(s.scan(payload).len(), 3, "three anchor hits");
        assert_eq!(
            s.scan_rules(payload),
            vec![RuleMatch::new(RuleId(0), 3)],
            "one confirmed rule, at the minimal end"
        );
        assert_eq!(s.scan_rules(payload), naive_rule_find_all(&set, payload));
    }

    #[test]
    fn empty_payload_and_unsatisfiable_rules() {
        let set = ruleset(vec![vec![
            RuleContent::new(*b"ab"),
            RuleContent::new(*b"missing").with_distance(0),
        ]]);
        assert_matches_naive(&set, b"");
        assert_matches_naive(&set, b"ab but nothing else");
        assert!(scanner(&set).scan_rules(b"ab but nothing else").is_empty());
    }

    #[test]
    fn payload_index_dedups_shared_contents_and_respects_windows() {
        // "ab" appears in three rules (twice case-sensitive, once nocase):
        // two distinct slots, each indexed once regardless of rule count.
        let set = ruleset(vec![
            vec![
                RuleContent::new(*b"ab"),
                RuleContent::new(*b"cd").with_distance(0),
            ],
            vec![RuleContent::new(*b"ab").with_offset(4)],
            vec![RuleContent::new(*b"ab").with_nocase(true)],
        ]);
        let confirmer = RuleConfirmer::build(&set);
        let payload = b"ab..AB..cd";
        let index = confirmer.index_payload(payload);
        // Slots: "ab" exact (1 occurrence), "cd" (1), "ab" nocase (2).
        assert_eq!(index.occurrence_count(), 4);
        assert_matches_naive(&set, payload);
        // The offset:4 window excludes the only exact "ab" at start 0.
        assert_eq!(confirmer.confirm_indexed(&index, RuleId(1)), None);
        assert_eq!(confirmer.confirm_indexed(&index, RuleId(2)), Some(2));
    }

    #[test]
    fn occurrence_lists_past_the_inline_capacity_confirm_identically() {
        // Five "ab"s are too far from the only "cd"; the sixth works. The
        // first content's list outgrows its inline slots on the way.
        let set = ruleset(vec![vec![
            RuleContent::new(*b"ab"),
            RuleContent::new(*b"cd").with_distance(0).with_within(2),
        ]]);
        let payload = b"ab.ab.ab.ab.ab.abcd";
        assert!(payload.len() / 3 > INLINE_ENDS);
        assert_matches_naive(&set, payload);
        let confirmer = RuleConfirmer::build(&set);
        assert_eq!(confirmer.confirm(payload, RuleId(0)), Some(payload.len()));
        // Resumed a byte at a time it stays pending until the last byte.
        let mut progress = ConfirmProgress::default();
        for end in 1..payload.len() {
            assert_eq!(
                confirmer.resume(&payload[..end], RuleId(0), &mut progress),
                None
            );
        }
        assert_eq!(
            confirmer.resume(payload, RuleId(0), &mut progress),
            Some(payload.len())
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    fn resuming_examines_each_start_once() {
        let set = ruleset(vec![vec![
            RuleContent::new(*b"abc"),
            RuleContent::new(*b"z").with_offset(2),
        ]]);
        let payload = b"..abc..abc......";
        let confirmer = RuleConfirmer::build(&set);
        let mut progress = ConfirmProgress::default();
        for end in [0, 1, 5, 5, 9, payload.len()] {
            assert_eq!(
                confirmer.resume(&payload[..end], RuleId(0), &mut progress),
                None
            );
        }
        // Starts 0..=len-3 for "abc", 2..=len-1 for "z": each looked at once.
        let starts = (payload.len() - 2) + (payload.len() - 2);
        assert_eq!(progress.examined_starts(), starts as u64);
    }

    #[test]
    fn index_automaton_is_compiled_on_first_use_and_counted_only_then() {
        let set = ruleset(vec![vec![
            RuleContent::new(*b"GET "),
            RuleContent::new(*b"passwd").with_distance(0),
        ]]);
        let confirmer = RuleConfirmer::build(&set);
        let shared = confirmer.clone();
        let lean = confirmer.heap_bytes();
        // Scanning confirmation never touches the index.
        assert_eq!(confirmer.confirm(b"GET /etc/passwd", RuleId(0)), Some(15));
        assert_eq!(confirmer.heap_bytes(), lean);
        let index = confirmer.index_payload(b"GET /etc/passwd");
        assert_eq!(confirmer.confirm_indexed(&index, RuleId(0)), Some(15));
        let resident = confirmer.heap_bytes();
        assert!(resident > lean, "the compiled automaton is accounted");
        assert_eq!(shared.heap_bytes(), resident, "clones share one automaton");
        // The one-shot scanner always indexes, so it compiles up front.
        assert_eq!(scanner(&set).confirmer().heap_bytes(), resident);
    }

    #[test]
    #[should_panic(expected = "different anchor set")]
    fn mismatched_engine_rejected() {
        let set = ruleset(vec![vec![RuleContent::new(*b"abcdef")]]);
        let other = ruleset(vec![vec![RuleContent::new(*b"ab")]]);
        let _ = RuleScanner::new(Arc::from(NaiveMatcher::new(other.anchors())), &set);
    }
}
