//! First-class multi-content Snort rules with positional constraints.
//!
//! A real Snort rule is not one pattern: it is an ordered list of `content:`
//! strings, each optionally constrained by `offset` / `depth` (absolute
//! positions in the payload) and `distance` / `within` (positions relative
//! to where the *previous* content matched). The multi-pattern matcher only
//! ever searches for one content per rule — the **anchor** — and the
//! remaining contents plus all positional constraints are checked by a
//! confirmation stage when the anchor fires (Snort's "fast pattern" design;
//! the rare-substring anchor selection follows Susik et al., "Multiple
//! pattern matching revisited").
//!
//! This module provides the rule model shared by the whole workspace:
//!
//! * [`RuleContent`] — one content string with its modifiers;
//! * [`Rule`] — an ordered, non-empty list of contents plus metadata;
//! * [`RuleSet`] — a collection of rules with the per-rule anchor selected
//!   over *set statistics* and exposed as a [`PatternSet`]
//!   ([`RuleSet::anchors`], pattern `i` anchors rule `i`) ready for any
//!   engine in the workspace;
//! * [`RuleMatch`] — a confirmed rule occurrence;
//! * a naive, obviously-correct rule evaluator
//!   ([`naive_rule_find_all`] and friends) — the ground truth the
//!   differential suites compare the engine confirmation stage against.
//!
//! # Constraint semantics
//!
//! For a content of length `len` matched at `[start, end)` (`end = start +
//! len`), with `prev_end` the end of the occurrence chosen for the
//! *previous* content of the rule (`0` for the first content):
//!
//! * `offset: o` — `start >= o` (absolute; default 0);
//! * `depth: d` — `end <= o + d` (absolute, counted from `offset` as Snort
//!   does);
//! * `distance: x` — `start >= prev_end + x` (relative; may be negative);
//! * `within: w` — `end <= prev_end + w` (relative). A content carrying
//!   `within` but no `distance` still searches forward from the previous
//!   match (`start >= prev_end`), mirroring Snort's cursor.
//!
//! A rule matches a payload iff there is an **assignment** of one real
//! occurrence per content (in listed order) satisfying every constraint.
//! The reported match offset is the smallest payload prefix length at which
//! the rule becomes satisfiable — i.e. the minimal achievable maximum
//! occurrence end over all satisfying assignments. That quantity depends
//! only on the payload bytes, never on how they were chunked, which is what
//! makes streamed confirmation ≡ one-shot confirmation provable.

use crate::pattern::{Pattern, PatternSet};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a rule inside a [`RuleSet`] (a dense index, like
/// [`crate::pattern::PatternId`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct RuleId(pub u32);

impl RuleId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// One `content:` of a rule, with its per-content modifiers.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct RuleContent {
    bytes: Vec<u8>,
    nocase: bool,
    offset: u32,
    depth: Option<u32>,
    distance: Option<i32>,
    within: Option<u32>,
}

impl RuleContent {
    /// Creates an unconstrained, byte-exact content.
    ///
    /// # Panics
    /// Panics if `bytes` is empty (Snort rejects empty contents too).
    pub fn new(bytes: impl Into<Vec<u8>>) -> Self {
        let bytes = bytes.into();
        assert!(!bytes.is_empty(), "rule contents must be non-empty");
        RuleContent {
            bytes,
            nocase: false,
            offset: 0,
            depth: None,
            distance: None,
            within: None,
        }
    }

    /// Sets the ASCII-case-insensitivity flag (Snort `nocase;`).
    pub fn with_nocase(mut self, nocase: bool) -> Self {
        self.nocase = nocase;
        self
    }

    /// Sets the absolute `offset` modifier (`start >= offset`).
    pub fn with_offset(mut self, offset: u32) -> Self {
        self.offset = offset;
        self
    }

    /// Sets the absolute `depth` modifier (`end <= offset + depth`).
    pub fn with_depth(mut self, depth: u32) -> Self {
        self.depth = Some(depth);
        self
    }

    /// Sets the relative `distance` modifier (`start >= prev_end +
    /// distance`).
    pub fn with_distance(mut self, distance: i32) -> Self {
        self.distance = Some(distance);
        self
    }

    /// Sets the relative `within` modifier (`end <= prev_end + within`).
    pub fn with_within(mut self, within: u32) -> Self {
        self.within = Some(within);
        self
    }

    /// The content bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Content length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Always false: empty contents cannot be constructed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True if this content matches ASCII-case-insensitively.
    #[inline]
    pub fn is_nocase(&self) -> bool {
        self.nocase
    }

    /// The `offset` modifier (0 when unset, Snort's default).
    #[inline]
    pub fn offset(&self) -> u32 {
        self.offset
    }

    /// The `depth` modifier, if present.
    #[inline]
    pub fn depth(&self) -> Option<u32> {
        self.depth
    }

    /// The `distance` modifier, if present.
    #[inline]
    pub fn distance(&self) -> Option<i32> {
        self.distance
    }

    /// The `within` modifier, if present.
    #[inline]
    pub fn within(&self) -> Option<u32> {
        self.within
    }

    /// True if the content carries a relative modifier (`distance` or
    /// `within`) and therefore chains to the previous content's match.
    #[inline]
    pub fn is_relative(&self) -> bool {
        self.distance.is_some() || self.within.is_some()
    }

    /// Tests whether the content's bytes occur at `start` in `payload`,
    /// under the content's own case rule — constraints not included.
    #[inline]
    pub fn occurs_at(&self, payload: &[u8], start: usize) -> bool {
        match payload.get(start..start + self.bytes.len()) {
            Some(window) if self.nocase => window.eq_ignore_ascii_case(&self.bytes),
            Some(window) => window == &self.bytes[..],
            None => false,
        }
    }

    /// Tests the *absolute* constraints (`offset` / `depth`) for a match
    /// starting at `start`.
    #[inline]
    pub fn absolute_ok(&self, start: usize) -> bool {
        if start < self.offset as usize {
            return false;
        }
        match self.depth {
            Some(d) => start + self.bytes.len() <= self.offset as usize + d as usize,
            None => true,
        }
    }

    /// Tests the *relative* constraints (`distance` / `within`) for a match
    /// starting at `start`, given the previous content's match end.
    /// Vacuously true for non-relative contents.
    #[inline]
    pub fn relative_ok(&self, start: usize, prev_end: usize) -> bool {
        if !self.is_relative() {
            return true;
        }
        let start = start as i64;
        let prev_end = prev_end as i64;
        if start < prev_end + self.distance.unwrap_or(0) as i64 {
            return false;
        }
        match self.within {
            Some(w) => start + self.bytes.len() as i64 <= prev_end + w as i64,
            None => true,
        }
    }

    /// All constraints together: `absolute_ok && relative_ok`.
    #[inline]
    pub fn allowed(&self, start: usize, prev_end: usize) -> bool {
        self.absolute_ok(start) && self.relative_ok(start, prev_end)
    }

    /// The inclusive range of start positions worth scanning in a payload of
    /// `payload_len` bytes, per the absolute constraints alone. `None` when
    /// no occurrence can fit.
    pub fn scan_range(&self, payload_len: usize) -> Option<(usize, usize)> {
        let len = self.bytes.len();
        let lo = self.offset as usize;
        let mut hi = payload_len.checked_sub(len)?;
        if let Some(d) = self.depth {
            let window_end = (self.offset as usize + d as usize).checked_sub(len)?;
            hi = hi.min(window_end);
        }
        (lo <= hi).then_some((lo, hi))
    }

    /// Heap bytes owned by this content.
    pub fn heap_bytes(&self) -> usize {
        self.bytes.capacity()
    }
}

impl fmt::Display for RuleContent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "content:\"")?;
        for &b in &self.bytes {
            if (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")?;
        if self.nocase {
            write!(f, " nocase")?;
        }
        if self.offset != 0 {
            write!(f, " offset:{}", self.offset)?;
        }
        if let Some(d) = self.depth {
            write!(f, " depth:{d}")?;
        }
        if let Some(x) = self.distance {
            write!(f, " distance:{x}")?;
        }
        if let Some(w) = self.within {
            write!(f, " within:{w}")?;
        }
        Ok(())
    }
}

/// A multi-content rule: an ordered, non-empty list of [`RuleContent`]s
/// plus an (optional) Snort `sid`. Which flows a rule applies to is its
/// rule header's business ([`crate::ports::RuleHeader`]).
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Rule {
    sid: Option<u32>,
    contents: Vec<RuleContent>,
    /// Index (into `contents`) of the anchor content handed to the
    /// multi-pattern matcher. Chosen by [`RuleSet::new`] over set
    /// statistics; 0 until then.
    anchor: usize,
}

impl Rule {
    /// Creates a rule from its contents, in rule order.
    ///
    /// # Panics
    /// Panics if `contents` is empty — a rule with no content has nothing
    /// for the matcher to anchor on.
    pub fn new(contents: Vec<RuleContent>) -> Self {
        assert!(!contents.is_empty(), "rules must have at least one content");
        Rule {
            sid: None,
            contents,
            anchor: 0,
        }
    }

    /// Sets the Snort `sid` of this rule.
    pub fn with_sid(mut self, sid: Option<u32>) -> Self {
        self.sid = sid;
        self
    }

    /// The Snort `sid`, if the rule text carried one.
    #[inline]
    pub fn sid(&self) -> Option<u32> {
        self.sid
    }

    /// The contents, in rule order.
    #[inline]
    pub fn contents(&self) -> &[RuleContent] {
        &self.contents
    }

    /// Index of the anchor content ([`RuleSet::new`] selects it).
    #[inline]
    pub fn anchor_index(&self) -> usize {
        self.anchor
    }

    /// The anchor content itself.
    #[inline]
    pub fn anchor(&self) -> &RuleContent {
        &self.contents[self.anchor]
    }

    /// Heap bytes owned by this rule.
    pub fn heap_bytes(&self) -> usize {
        self.contents.capacity() * std::mem::size_of::<RuleContent>()
            + self
                .contents
                .iter()
                .map(RuleContent::heap_bytes)
                .sum::<usize>()
    }
}

/// A confirmed rule occurrence.
///
/// `end` is the smallest stream/payload prefix length at which the rule is
/// satisfiable (see the module documentation) — a pure function of the
/// payload bytes, so one-shot and streamed confirmation agree on it. Each
/// rule is reported **at most once** per payload/stream.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RuleMatch {
    /// The confirmed rule.
    pub rule: RuleId,
    /// Minimal prefix length at which the rule's constraints are satisfiable.
    pub end: usize,
}

impl RuleMatch {
    /// Creates a rule match.
    pub fn new(rule: RuleId, end: usize) -> Self {
        RuleMatch { rule, end }
    }
}

impl fmt::Display for RuleMatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.rule, self.end)
    }
}

/// An immutable collection of rules with per-rule anchors selected over set
/// statistics, plus the anchor [`PatternSet`] the engines are compiled for.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct RuleSet {
    rules: Vec<Rule>,
    anchors: PatternSet,
}

impl RuleSet {
    /// Builds a rule set, selecting each rule's anchor content.
    ///
    /// Anchor selection (the rarest/longest heuristic): prefer contents long
    /// enough for the engines' 4-byte filters (`len >= 4`); among those,
    /// prefer the rarest case-folded 2-byte prefix counted across **all**
    /// contents of the whole set (rare prefixes keep the filter hit rate
    /// low); break ties by longest content, then by earliest position in
    /// the rule. Rules with only short contents fall back to the longest
    /// one.
    pub fn new(rules: Vec<Rule>) -> Self {
        // Set statistics: how often each case-folded 2-byte prefix occurs
        // over every content of every rule (1-byte contents count their
        // single byte).
        let mut prefix_freq: HashMap<u16, u32> = HashMap::new();
        for rule in &rules {
            for content in &rule.contents {
                *prefix_freq.entry(two_byte_prefix(content)).or_insert(0) += 1;
            }
        }
        let mut rules = rules;
        for rule in &mut rules {
            rule.anchor = select_anchor(&rule.contents, &prefix_freq);
        }
        let patterns: Vec<Pattern> = rules
            .iter()
            .map(|r| {
                let c = r.anchor();
                Pattern::literal(c.bytes().to_vec()).with_nocase(c.is_nocase())
            })
            .collect();
        RuleSet {
            rules,
            anchors: PatternSet::new(patterns),
        }
    }

    /// Number of rules.
    #[inline]
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if the set contains no rules.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The rule with the given id.
    #[inline]
    pub fn get(&self, id: RuleId) -> &Rule {
        &self.rules[id.index()]
    }

    /// All rules as a slice (index == id).
    #[inline]
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Iterates over `(id, rule)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (RuleId, &Rule)> {
        self.rules
            .iter()
            .enumerate()
            .map(|(i, r)| (RuleId(i as u32), r))
    }

    /// The anchor pattern set the engines are compiled for: one pattern per
    /// rule, its anchor content, in rule order — pattern `i` of this set
    /// anchors rule `i`, so an anchor hit on `PatternId(i)` triggers
    /// `RuleId(i)`.
    #[inline]
    pub fn anchors(&self) -> &PatternSet {
        &self.anchors
    }
}

/// The case-folded 2-byte prefix a content contributes to set statistics
/// (1-byte contents use their single byte).
fn two_byte_prefix(content: &RuleContent) -> u16 {
    let b = content.bytes();
    let fold = |x: u8| x.to_ascii_lowercase();
    if b.len() >= 2 {
        u16::from_le_bytes([fold(b[0]), fold(b[1])])
    } else {
        fold(b[0]) as u16
    }
}

/// Picks the anchor index per the rarest/longest heuristic (see
/// [`RuleSet::new`]).
fn select_anchor(contents: &[RuleContent], prefix_freq: &HashMap<u16, u32>) -> usize {
    let mut best = 0usize;
    let mut best_key = (false, i64::MIN, 0usize);
    for (i, c) in contents.iter().enumerate() {
        let freq = prefix_freq.get(&two_byte_prefix(c)).copied().unwrap_or(0);
        // (long enough for the 4-byte filters, rarer prefix, longer content);
        // strict `>` keeps the earliest content on full ties.
        let key = (c.len() >= 4, -(freq as i64), c.len());
        if key > best_key {
            best_key = key;
            best = i;
        }
    }
    best
}

/// All occurrences of `content` in `payload` satisfying its **absolute**
/// constraints, as `(start, end)` pairs in ascending order — the naive
/// O(n·m) scan the differential suites use as ground truth.
pub fn naive_content_occurrences(content: &RuleContent, payload: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let Some((lo, hi)) = content.scan_range(payload.len()) else {
        return out;
    };
    for start in lo..=hi {
        if content.occurs_at(payload, start) {
            out.push((start, start + content.len()));
        }
    }
    out
}

/// Naive satisfiability: is there an assignment of occurrences (one per
/// content, in order) within `payload` meeting every constraint?
///
/// Plain memoized recursion over `(content index, previous match end)` —
/// deliberately different in shape from the engines' confirmation algorithm
/// so the differential suites compare two independent implementations.
pub fn naive_rule_satisfiable(rule: &Rule, payload: &[u8]) -> bool {
    let occurrences: Vec<Vec<(usize, usize)>> = rule
        .contents()
        .iter()
        .map(|c| naive_content_occurrences(c, payload))
        .collect();
    if occurrences.iter().any(Vec::is_empty) {
        return false;
    }
    let mut memo: HashMap<(usize, usize), bool> = HashMap::new();
    fn sat(
        rule: &Rule,
        occurrences: &[Vec<(usize, usize)>],
        idx: usize,
        prev_end: usize,
        memo: &mut HashMap<(usize, usize), bool>,
    ) -> bool {
        if idx == occurrences.len() {
            return true;
        }
        if let Some(&cached) = memo.get(&(idx, prev_end)) {
            return cached;
        }
        let content = &rule.contents()[idx];
        let ok = occurrences[idx].iter().any(|&(start, end)| {
            content.relative_ok(start, prev_end) && sat(rule, occurrences, idx + 1, end, memo)
        });
        memo.insert((idx, prev_end), ok);
        ok
    }
    sat(rule, &occurrences, 0, 0, &mut memo)
}

/// Naive first-satisfiable prefix length: the smallest `L` such that
/// [`naive_rule_satisfiable`] holds on `&payload[..L]`, or `None`.
///
/// Satisfiability is monotone in `L` (a longer prefix only adds candidate
/// occurrences; no constraint references the payload length) and can only
/// flip at an occurrence end, so a binary search over the sorted occurrence
/// ends finds the minimum.
pub fn naive_rule_first_end(rule: &Rule, payload: &[u8]) -> Option<usize> {
    if !naive_rule_satisfiable(rule, payload) {
        return None;
    }
    let mut ends: Vec<usize> = rule
        .contents()
        .iter()
        .flat_map(|c| naive_content_occurrences(c, payload))
        .map(|(_, end)| end)
        .collect();
    ends.sort_unstable();
    ends.dedup();
    // Invariant: satisfiable at ends[hi], not satisfiable below ends[lo].
    let (mut lo, mut hi) = (0usize, ends.len() - 1);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if naive_rule_satisfiable(rule, &payload[..ends[mid]]) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(ends[hi])
}

/// Naive rule evaluation of a whole set: one [`RuleMatch`] per satisfiable
/// rule, in rule-id order — the ground truth for `scan_rules`.
pub fn naive_rule_find_all(set: &RuleSet, payload: &[u8]) -> Vec<RuleMatch> {
    set.iter()
        .filter_map(|(id, rule)| {
            naive_rule_first_end(rule, payload).map(|end| RuleMatch::new(id, end))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternId;

    #[test]
    fn content_constraint_semantics() {
        let c = RuleContent::new(*b"abc").with_offset(2).with_depth(5);
        // start >= 2 and end <= 2 + 5 = 7 -> start in [2, 4].
        assert!(!c.absolute_ok(1));
        assert!(c.absolute_ok(2));
        assert!(c.absolute_ok(4));
        assert!(!c.absolute_ok(5));
        assert_eq!(c.scan_range(100), Some((2, 4)));
        assert_eq!(c.scan_range(6), Some((2, 3)));
        assert_eq!(c.scan_range(4), None, "no room for the 3 bytes past offset");

        let r = RuleContent::new(*b"xy").with_distance(3).with_within(8);
        // start >= prev_end + 3, end <= prev_end + 8 -> start in [p+3, p+6].
        assert!(!r.relative_ok(12, 10));
        assert!(r.relative_ok(13, 10));
        assert!(r.relative_ok(16, 10));
        assert!(!r.relative_ok(17, 10));

        let neg = RuleContent::new(*b"xy").with_distance(-2);
        assert!(neg.relative_ok(8, 10));
        assert!(!neg.relative_ok(7, 10));

        // within-only still searches forward from the previous match.
        let w = RuleContent::new(*b"xy").with_within(4);
        assert!(w.relative_ok(10, 10));
        assert!(!w.relative_ok(9, 10));
        assert!(!w.relative_ok(13, 10));
    }

    #[test]
    fn occurs_at_honours_nocase() {
        let exact = RuleContent::new(*b"GeT");
        assert!(exact.occurs_at(b"..GeT", 2));
        assert!(!exact.occurs_at(b"..GET", 2));
        assert!(!exact.occurs_at(b"..GeT", 4), "window past end");
        let folded = RuleContent::new(*b"GeT").with_nocase(true);
        assert!(folded.occurs_at(b"..gEt", 2));
    }

    #[test]
    fn anchor_prefers_long_then_rare_then_longest() {
        // "zz..." is rare; "GET" appears in both rules (common prefix) and is
        // short anyway.
        let set = RuleSet::new(vec![
            Rule::new(vec![
                RuleContent::new(*b"GET"),
                RuleContent::new(*b"zzz-rare-needle"),
            ]),
            Rule::new(vec![
                RuleContent::new(*b"GET /index"),
                RuleContent::new(*b"GET /other-longer"),
            ]),
        ]);
        assert_eq!(set.get(RuleId(0)).anchor_index(), 1);
        // Both candidates of rule 1 share the folded prefix "ge" (freq 3);
        // the longer one wins.
        assert_eq!(set.get(RuleId(1)).anchor_index(), 1);
        assert_eq!(set.anchors().len(), 2);
        assert_eq!(set.anchors().get(PatternId(0)).bytes(), b"zzz-rare-needle");
    }

    #[test]
    fn anchor_falls_back_to_longest_short_content() {
        let set = RuleSet::new(vec![Rule::new(vec![
            RuleContent::new(*b"ab"),
            RuleContent::new(*b"cde"),
        ])]);
        assert_eq!(set.get(RuleId(0)).anchor().bytes(), b"cde");
    }

    #[test]
    fn anchors_are_rule_bound_and_keep_nocase() {
        let set = RuleSet::new(vec![
            Rule::new(vec![RuleContent::new(*b"aaaa")]),
            Rule::new(vec![RuleContent::new(*b"folded-anchor").with_nocase(true)]),
        ]);
        assert_eq!(set.anchors().len(), set.len());
        assert_eq!(
            set.anchors().get(PatternId(1)).bytes(),
            set.get(RuleId(1)).anchor().bytes()
        );
        assert!(set.anchors().get(PatternId(1)).is_nocase());
        assert!(set.anchors().has_nocase());
    }

    #[test]
    fn naive_occurrences_respect_absolute_window() {
        let c = RuleContent::new(*b"ab").with_offset(2).with_depth(4);
        // "ab" at 0, 2, 4: offset keeps >= 2, depth keeps end <= 6.
        assert_eq!(
            naive_content_occurrences(&c, b"ababab"),
            vec![(2, 4), (4, 6)]
        );
    }

    #[test]
    fn naive_satisfiability_chains_relative_contents() {
        let r = Rule::new(vec![
            RuleContent::new(*b"ab"),
            RuleContent::new(*b"cd").with_distance(1).with_within(5),
        ]);
        // "ab" ends at 2; "cd" must start >= 3 and end <= 7.
        assert!(naive_rule_satisfiable(&r, b"ab.cd..."));
        assert!(
            !naive_rule_satisfiable(&r, b"abcd...."),
            "distance violated"
        );
        assert!(!naive_rule_satisfiable(&r, b"ab....cd"), "within violated");
        // A later "ab" occurrence can rescue the chain.
        assert!(naive_rule_satisfiable(&r, b"abcd.ab.cd"));
    }

    #[test]
    fn naive_first_end_is_minimal_and_chunking_independent() {
        let r = Rule::new(vec![
            RuleContent::new(*b"ab"),
            RuleContent::new(*b"cd").with_distance(0),
        ]);
        let payload = b"ab..cd....ab.cd";
        // Earliest satisfying assignment: "ab"@0..2, "cd"@4..6 -> L = 6.
        assert_eq!(naive_rule_first_end(&r, payload), Some(6));
        // The reported end is independent of trailing bytes.
        assert_eq!(naive_rule_first_end(&r, &payload[..6]), Some(6));
        assert_eq!(naive_rule_first_end(&r, &payload[..5]), None);
    }

    #[test]
    fn naive_find_all_reports_each_rule_once_in_id_order() {
        let set = RuleSet::new(vec![
            Rule::new(vec![RuleContent::new(*b"one")]),
            Rule::new(vec![RuleContent::new(*b"absent")]),
            Rule::new(vec![
                RuleContent::new(*b"one"),
                RuleContent::new(*b"two").with_distance(0),
            ]),
        ]);
        let got = naive_rule_find_all(&set, b"one two one two");
        assert_eq!(
            got,
            vec![RuleMatch::new(RuleId(0), 3), RuleMatch::new(RuleId(2), 7)]
        );
    }

    #[test]
    #[should_panic(expected = "at least one content")]
    fn empty_rule_rejected() {
        let _ = Rule::new(Vec::new());
    }

    #[test]
    fn display_shapes() {
        let c = RuleContent::new(*b"ab")
            .with_nocase(true)
            .with_offset(1)
            .with_depth(9)
            .with_distance(-2)
            .with_within(7);
        assert_eq!(
            format!("{c}"),
            "content:\"ab\" nocase offset:1 depth:9 distance:-2 within:7"
        );
        assert_eq!(format!("{}", RuleMatch::new(RuleId(3), 17)), "R3@17");
    }
}
