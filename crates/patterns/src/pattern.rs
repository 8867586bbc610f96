//! Core pattern types: [`Pattern`], [`PatternId`] and [`PatternSet`].
//!
//! A pattern is a byte string (a Snort `content:` string), matched either
//! byte-exactly or — when its `nocase` flag is set, mirroring Snort's
//! `nocase;` modifier — ASCII-case-insensitively. The paper's engines are all
//! *exact multiple pattern matchers*: given a set of patterns and an input
//! stream, report every `(pattern, position)` at which the pattern occurs
//! under its own case rule. Engines implement mixed sets with the
//! *filter-folded / verify-exact* design: filter tables are built over
//! ASCII-case-folded bytes whenever the set contains a `nocase` pattern
//! (folding only ever adds candidates), and per-pattern verification
//! ([`Pattern::matches_at`]) restores each pattern's exact semantics.

use std::fmt;

use serde::{Deserialize, Serialize};

/// ASCII-case-folds `b` when `folded` is true; identity otherwise.
///
/// The one case-folding rule of the filter-folded / verify-exact design:
/// every engine's table builder and scan loop folds through this helper, so
/// the filter bytes and the verification tables can never disagree about
/// what "folded" means. Hot loops pass a `const FOLD: bool` straight
/// through — monomorphization constant-folds the branch away.
#[inline(always)]
pub fn fold_byte(b: u8, folded: bool) -> u8 {
    if folded {
        b.to_ascii_lowercase()
    } else {
        b
    }
}

/// Identifier of a pattern inside a [`PatternSet`].
///
/// Ids are dense indices (`0..set.len()`), which lets the engines use them
/// directly as array indices in their verification structures.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct PatternId(pub u32);

impl PatternId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PatternId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A single pattern: a byte string plus its matching rule (byte-exact or
/// ASCII-case-insensitive).
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Pattern {
    /// The literal bytes to search for. Never empty.
    bytes: Vec<u8>,
    /// True if the pattern matches ASCII-case-insensitively (Snort
    /// `nocase;`). False — the default — means byte-exact matching.
    nocase: bool,
}

impl Pattern {
    /// Creates a byte-exact pattern from raw bytes.
    ///
    /// # Panics
    /// Panics if `bytes` is empty — empty patterns match everywhere and are
    /// rejected by Snort as well.
    pub fn literal(bytes: impl Into<Vec<u8>>) -> Self {
        let bytes = bytes.into();
        assert!(!bytes.is_empty(), "patterns must be non-empty");
        Pattern {
            bytes,
            nocase: false,
        }
    }

    /// Creates a case-insensitive pattern (shorthand for
    /// `Pattern::literal(..).with_nocase(true)`).
    pub fn literal_nocase(bytes: impl Into<Vec<u8>>) -> Self {
        Pattern::literal(bytes).with_nocase(true)
    }

    /// Returns the pattern with its case-insensitivity flag set to `nocase`.
    pub fn with_nocase(mut self, nocase: bool) -> Self {
        self.nocase = nocase;
        self
    }

    /// The pattern bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Pattern length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Always false: empty patterns cannot be constructed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True if this pattern matches ASCII-case-insensitively (Snort's
    /// `nocase;` modifier).
    #[inline]
    pub fn is_nocase(&self) -> bool {
        self.nocase
    }

    /// Tests whether this pattern occurs at `pos` in `haystack`, honouring
    /// the pattern's own case rule (byte-exact, or ASCII-case-insensitive
    /// for `nocase` patterns). This is the per-pattern verification step of
    /// the filter-folded / verify-exact design; every engine's verification
    /// phase reduces to it.
    #[inline]
    pub fn matches_at(&self, haystack: &[u8], pos: usize) -> bool {
        match haystack.get(pos..pos + self.bytes.len()) {
            Some(window) => self.matches_window(window),
            None => false,
        }
    }

    /// Tests whether `window` (exactly `self.len()` bytes of input) matches
    /// this pattern under its case rule.
    #[inline]
    pub fn matches_window(&self, window: &[u8]) -> bool {
        debug_assert_eq!(window.len(), self.bytes.len());
        if self.nocase {
            window.eq_ignore_ascii_case(&self.bytes)
        } else {
            window == &self.bytes[..]
        }
    }

    /// True if this is a "short" pattern in the paper's sense (1–3 bytes),
    /// i.e. it is handled by filter 1 of S-PATCH / V-PATCH.
    #[inline]
    pub fn is_short(&self) -> bool {
        self.bytes.len() < 4
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"")?;
        for &b in &self.bytes {
            if (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{:02x}", b)?;
            }
        }
        if self.nocase {
            write!(f, "\" (nocase)")
        } else {
            write!(f, "\"")
        }
    }
}

/// Summary statistics of a pattern set, used by the experiment harness.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PatternSetSummary {
    /// Number of patterns.
    pub count: usize,
    /// Number of short (1–3 byte) patterns.
    pub short_count: usize,
    /// Minimum pattern length.
    pub min_len: usize,
    /// Maximum pattern length.
    pub max_len: usize,
    /// Mean pattern length.
    pub mean_len: f64,
    /// Total bytes over all patterns.
    pub total_bytes: usize,
    /// Number of distinct first-two-byte prefixes (what the 2-byte direct
    /// filters index on; governs the filter hit rate).
    pub distinct_two_byte_prefixes: usize,
}

/// An immutable, validated collection of patterns shared by all engines.
///
/// `PatternSet` deduplicates nothing and preserves insertion order: ids are
/// assigned densely in the order patterns were added, so the same set always
/// produces the same ids (important for comparing engine outputs).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PatternSet {
    patterns: Vec<Pattern>,
}

impl PatternSet {
    /// Creates a pattern set from a list of patterns.
    ///
    /// Duplicate byte strings are allowed (real rulesets contain duplicates in
    /// different rules); every occurrence gets its own id and engines report
    /// matches for each of them.
    pub fn new(patterns: Vec<Pattern>) -> Self {
        PatternSet { patterns }
    }

    /// Builds a set of byte-exact patterns from plain string literals.
    pub fn from_literals<S: AsRef<[u8]>>(literals: &[S]) -> Self {
        PatternSet::new(
            literals
                .iter()
                .map(|s| Pattern::literal(s.as_ref().to_vec()))
                .collect(),
        )
    }

    /// Number of patterns in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// True if the set contains no patterns.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// The pattern with the given id.
    #[inline]
    pub fn get(&self, id: PatternId) -> &Pattern {
        &self.patterns[id.index()]
    }

    /// Iterates over `(id, pattern)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (PatternId, &Pattern)> {
        self.patterns
            .iter()
            .enumerate()
            .map(|(i, p)| (PatternId(i as u32), p))
    }

    /// All patterns as a slice (index == id).
    #[inline]
    pub fn patterns(&self) -> &[Pattern] {
        &self.patterns
    }

    /// True if any pattern in the set matches case-insensitively. Engines
    /// use this at build time to decide whether to compile the folded
    /// (case-insensitive-capable) tables or today's byte-exact fast path —
    /// a case-sensitive-only set never pays for folding.
    pub fn has_nocase(&self) -> bool {
        self.patterns.iter().any(|p| p.is_nocase())
    }

    /// Returns a new set with the first `n` patterns of a deterministic
    /// pseudo-random permutation of this set, as used for the
    /// "effect of the number of patterns" sweeps (Figure 5a/5b).
    ///
    /// The permutation depends only on `seed`, so subsets are reproducible
    /// and nested: the 5 000-pattern subset for a given seed is a superset of
    /// the 2 000-pattern subset for the same seed.
    pub fn random_subset(&self, n: usize, seed: u64) -> PatternSet {
        let mut order: Vec<usize> = (0..self.patterns.len()).collect();
        // Fisher-Yates with SplitMix64: no external dependency needed here and
        // the permutation is stable across platforms.
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for i in (1..order.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let n = n.min(order.len());
        let patterns = order[..n]
            .iter()
            .map(|&i| self.patterns[i].clone())
            .collect();
        PatternSet::new(patterns)
    }

    /// Computes summary statistics of the set.
    pub fn summary(&self) -> PatternSetSummary {
        use std::collections::BTreeSet;
        let mut prefixes = BTreeSet::new();
        let mut total = 0usize;
        let mut min_len = usize::MAX;
        let mut max_len = 0usize;
        let mut short = 0usize;
        for p in &self.patterns {
            total += p.len();
            min_len = min_len.min(p.len());
            max_len = max_len.max(p.len());
            if p.is_short() {
                short += 1;
            }
            let pre = if p.len() >= 2 {
                u16::from_le_bytes([p.bytes()[0], p.bytes()[1]])
            } else {
                p.bytes()[0] as u16
            };
            prefixes.insert((p.len() >= 2, pre));
        }
        if self.patterns.is_empty() {
            min_len = 0;
        }
        PatternSetSummary {
            count: self.patterns.len(),
            short_count: short,
            min_len,
            max_len,
            mean_len: if self.patterns.is_empty() {
                0.0
            } else {
                total as f64 / self.patterns.len() as f64
            },
            total_bytes: total,
            distinct_two_byte_prefixes: prefixes.len(),
        }
    }
}

impl FromIterator<Pattern> for PatternSet {
    fn from_iter<T: IntoIterator<Item = Pattern>>(iter: T) -> Self {
        PatternSet::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_basic_properties() {
        let p = Pattern::literal(*b"GET");
        assert_eq!(p.len(), 3);
        assert!(p.is_short());
        assert!(!p.is_empty());
        assert_eq!(p.bytes(), b"GET");

        let q = Pattern::literal(*b"User-Agent: Mozilla");
        assert!(!q.is_short());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_pattern_rejected() {
        let _ = Pattern::literal(Vec::new());
    }

    #[test]
    fn pattern_display_escapes_binary() {
        let p = Pattern::literal(vec![b'A', 0x00, 0xff, b'"']);
        let s = format!("{p}");
        assert!(s.contains("\\x00"));
        assert!(s.contains("\\xff"));
        assert!(s.contains("\\x22"));
    }

    #[test]
    fn set_ids_are_dense_and_ordered() {
        let set = PatternSet::from_literals(&["abc", "de", "f"]);
        assert_eq!(set.len(), 3);
        let ids: Vec<u32> = set.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(set.get(PatternId(1)).bytes(), b"de");
    }

    #[test]
    fn random_subset_is_deterministic_and_bounded() {
        let lits: Vec<String> = (0..100).map(|i| format!("pattern-{i:04}")).collect();
        let set = PatternSet::from_literals(&lits);
        let a = set.random_subset(10, 42);
        let b = set.random_subset(10, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        let c = set.random_subset(10, 43);
        assert_ne!(a, c, "different seeds should give different subsets");
        // Asking for more than available just returns everything.
        assert_eq!(set.random_subset(1000, 1).len(), 100);
    }

    #[test]
    fn nocase_flag_controls_matching_semantics() {
        let exact = Pattern::literal(*b"GeT");
        assert!(!exact.is_nocase());
        assert!(exact.matches_at(b"..GeT..", 2));
        assert!(!exact.matches_at(b"..GET..", 2));
        assert!(
            !exact.matches_at(b"..GeT", 4),
            "window past end never matches"
        );

        let folded = Pattern::literal_nocase(*b"GeT");
        assert!(folded.is_nocase());
        for hay in [&b"get"[..], b"GET", b"gEt", b"GeT"] {
            assert!(folded.matches_at(hay, 0), "{hay:?}");
        }
        assert!(!folded.matches_at(b"ge7", 0));
    }

    #[test]
    fn nocase_only_folds_ascii_letters() {
        // 0xC0..0xDF must NOT be case-folded: matching is byte-level ASCII,
        // not Unicode-aware.
        let p = Pattern::literal_nocase(vec![0xC0u8, b'A']);
        assert!(p.matches_at(&[0xC0, b'a'], 0));
        assert!(!p.matches_at(&[0xE0, b'a'], 0));
    }

    #[test]
    fn set_has_nocase_reflects_any_flag() {
        let exact_only = PatternSet::from_literals(&["abc", "de"]);
        assert!(!exact_only.has_nocase());
        let mixed = PatternSet::new(vec![
            Pattern::literal(*b"abc"),
            Pattern::literal_nocase(*b"de"),
        ]);
        assert!(mixed.has_nocase());
    }

    #[test]
    fn display_marks_nocase_patterns() {
        let p = Pattern::literal_nocase(*b"GET");
        assert!(format!("{p}").contains("nocase"));
        let q = Pattern::literal(*b"GET");
        assert!(!format!("{q}").contains("nocase"));
    }

    #[test]
    fn summary_counts_are_consistent() {
        let set = PatternSet::new(vec![
            Pattern::literal(*b"ab"),
            Pattern::literal(*b"abcd"),
            Pattern::literal(*b"x"),
        ]);
        let s = set.summary();
        assert_eq!(s.count, 3);
        assert_eq!(s.short_count, 2);
        assert_eq!(s.min_len, 1);
        assert_eq!(s.max_len, 4);
        assert_eq!(s.total_bytes, 7);
    }
}
