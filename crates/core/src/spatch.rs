//! S-PATCH: the scalar, vectorization-friendly two-round engine
//! (Algorithm 1 of the paper) — the [`SPatchTables`] engine with scalar
//! filter lookups.

use crate::scratch::Scratch;
use crate::tables::SPatchTables;
use mpm_graph::{Chunk, TwoRound};
use mpm_patterns::{MatchEvent, Matcher, MatcherStats, MemoryFootprint, PatternSet};
use mpm_simd::ScalarBackend;
use std::ops::Range;

/// Scalar S-PATCH engine.
#[derive(Clone, Debug)]
pub struct SPatch {
    tables: SPatchTables,
}

impl SPatch {
    /// Compiles S-PATCH for `set`.
    pub fn build(set: &PatternSet) -> Self {
        Self::from_tables(SPatchTables::build(set))
    }

    /// Builds from already-compiled tables (shared with V-PATCH in the
    /// benchmark harness so both engines use byte-identical filters).
    pub fn from_tables(tables: SPatchTables) -> Self {
        SPatch { tables }
    }

    /// The compiled tables.
    pub fn tables(&self) -> &SPatchTables {
        &self.tables
    }

    /// **Filtering round** (lines 3–14 of Algorithm 1): sweeps the input
    /// through filters 1–3 one position at a time and records candidate
    /// positions in `scratch.a_short` / `scratch.a_long` — the scalar loop
    /// V-PATCH runs on its tail, here over the whole input.
    pub fn filter_round(&self, haystack: &[u8], scratch: &mut Scratch) {
        self.filter_range(haystack, 0, haystack.len(), scratch);
    }

    /// [`SPatch::filter_round`] restricted to window positions
    /// `start..end`, on the fold variant the tables were built for.
    fn filter_range(&self, haystack: &[u8], start: usize, end: usize, scratch: &mut Scratch) {
        let t = &self.tables;
        if t.folded {
            t.filter_scalar::<true>(haystack, start, end, scratch);
        } else {
            t.filter_scalar::<false>(haystack, start, end, scratch);
        }
    }

    /// **Verification round** (lines 15–20 of Algorithm 1): replays the
    /// candidate arrays against the compact hash tables, batched and
    /// prefetch-pipelined through the scalar backend, and appends confirmed
    /// matches to `out`. Returns the number of pattern comparisons performed.
    pub fn verify_round(
        &self,
        haystack: &[u8],
        scratch: &Scratch,
        out: &mut Vec<MatchEvent>,
    ) -> u64 {
        self.tables
            .verify_round::<ScalarBackend, 8>(haystack, scratch, out)
    }
}

/// The two rounds of Algorithm 1 over one chunk, on a [`Scratch`].
impl TwoRound for SPatch {
    type Pad = Scratch;

    fn filter(&self, chunk: Chunk<'_>, scratch: &mut Scratch, _out: &mut Vec<MatchEvent>) -> u64 {
        scratch.begin_chunk();
        scratch.reserve_for(chunk.len(), self.tables.has_short, self.tables.has_long);
        self.filter_range(chunk.haystack, chunk.start, chunk.end, scratch);
        scratch.candidates()
    }

    fn verify(&self, chunk: Chunk<'_>, scratch: &mut Scratch, out: &mut Vec<MatchEvent>) -> u64 {
        self.verify_round(chunk.haystack, scratch, out)
    }
}

/// The [`SPatchTables`] engine's body (see there).
impl Matcher for SPatch {
    fn name(&self) -> &'static str {
        "S-PATCH"
    }

    fn max_pattern_len(&self) -> usize {
        self.tables.max_pattern_len()
    }

    fn find_into(&self, haystack: &[u8], out: &mut Vec<MatchEvent>) {
        self.tables.find_into(self, haystack, out);
    }

    fn find_in(&self, haystack: &[u8], starts: Range<usize>, out: &mut Vec<MatchEvent>) -> usize {
        self.tables.find_in(self, haystack, starts, out)
    }

    fn find_in_segments(
        &self,
        haystack: &[u8],
        ends: &[usize],
        lengths: &[u32],
        out: &mut Vec<MatchEvent>,
        resumes: &mut Vec<usize>,
    ) {
        self.tables
            .find_in_segments(self, haystack, ends, lengths, out, resumes)
    }

    fn scan_with_stats(&self, haystack: &[u8]) -> MatcherStats {
        self.tables.scan_with_stats(self, haystack)
    }

    fn memory_footprint(&self) -> MemoryFootprint {
        self.tables.memory_footprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpm_graph::DEFAULT_CHUNK;
    use mpm_patterns::naive::naive_find_all;
    use mpm_patterns::synthetic::{RulesetSpec, SyntheticRuleset};

    fn mixed_set() -> PatternSet {
        PatternSet::from_literals(&[
            "a",
            "ab",
            "GET",
            "abcd",
            "attribute",
            "attack",
            "/etc/passwd",
            "xyz",
        ])
    }

    #[test]
    fn matches_naive_on_mixed_lengths_and_overlaps() {
        let set = mixed_set();
        let engine = SPatch::build(&set);
        let hay = b"GET /etc/passwd?attr=attribute attack aabcdxyz a";
        assert_eq!(engine.find_all(hay), naive_find_all(&set, hay));
    }

    #[test]
    fn empty_and_single_byte_inputs() {
        let set = mixed_set();
        let engine = SPatch::build(&set);
        assert!(engine.find_all(b"").is_empty());
        assert_eq!(engine.find_all(b"a"), naive_find_all(&set, b"a"));
        assert_eq!(engine.find_all(b"ab"), naive_find_all(&set, b"ab"));
    }

    #[test]
    fn filter_round_never_misses_a_true_candidate() {
        // Exactness depends on the filtering round being a superset of the
        // true match positions; check it directly.
        let set = mixed_set();
        let engine = SPatch::build(&set);
        let hay = b"zzzGET /etc/passwd attack attribute ab a\x00\xffabcd";
        let mut scratch = Scratch::new();
        engine.filter_round(hay, &mut scratch);
        for m in naive_find_all(&set, hay) {
            let len = set.get(m.pattern).len();
            let arr = if len < 4 {
                &scratch.a_short
            } else {
                &scratch.a_long
            };
            assert!(
                arr.contains(&(m.start as u32)),
                "candidate for match {m:?} missing from the filter output"
            );
        }
    }

    #[test]
    fn two_rounds_are_separated_and_timed() {
        let set = mixed_set();
        let engine = SPatch::build(&set);
        let hay: Vec<u8> = b"GET /etc/passwd attack ".repeat(2000);
        let stats = engine.scan_with_stats(&hay);
        assert!(stats.filter_nanos > 0);
        assert!(stats.verify_nanos > 0);
        assert!(stats.candidates > 0);
        assert_eq!(stats.matches, naive_find_all(&set, &hay).len() as u64);
    }

    #[test]
    fn scratch_reuse_across_scans_gives_identical_results() {
        let set = mixed_set();
        let engine = SPatch::build(&set);
        let mut scratch = Scratch::new();
        let inputs: Vec<&[u8]> = vec![b"GET abcd", b"no hits here!!", b"attack attribute"];
        for hay in inputs {
            let mut out = Vec::new();
            mpm_graph::scan(
                &engine,
                hay,
                0..hay.len(),
                DEFAULT_CHUNK,
                &mut scratch,
                &mut out,
            );
            mpm_patterns::matcher::normalize_matches(&mut out);
            assert_eq!(out, naive_find_all(&set, hay));
        }
    }

    #[test]
    fn only_long_patterns_set_skips_short_work() {
        let set = PatternSet::from_literals(&["abcdef", "ghijkl"]);
        let engine = SPatch::build(&set);
        let mut scratch = Scratch::new();
        engine.filter_round(b"xxabcdefxx", &mut scratch);
        assert!(scratch.a_short.is_empty());
        assert!(!scratch.a_long.is_empty());
    }

    #[test]
    fn nocase_patterns_match_every_case_variant() {
        use mpm_patterns::Pattern;
        let set = PatternSet::new(vec![
            Pattern::literal_nocase(*b"/Etc/Passwd"),
            Pattern::literal(*b"GET"),
            Pattern::literal_nocase(*b"aTk"),
            Pattern::literal_nocase(*b"q"),
        ]);
        let engine = SPatch::build(&set);
        assert!(engine.tables().is_folded());
        let hay = b"get /ETC/PASSWD GET /etc/passwd ATK atk Q q";
        assert_eq!(engine.find_all(hay), naive_find_all(&set, hay));
        // The case-sensitive pattern must not have been folded into matching:
        // "get" occurs but only "GET" may be reported for it.
        let get_hits: Vec<_> = engine
            .find_all(hay)
            .into_iter()
            .filter(|m| m.pattern == mpm_patterns::PatternId(1))
            .collect();
        assert_eq!(get_hits.len(), 1);
        assert_eq!(get_hits[0].start, 16);
    }

    #[test]
    fn case_sensitive_only_sets_stay_unfolded_and_exact() {
        let set = mixed_set();
        let engine = SPatch::build(&set);
        assert!(!engine.tables().is_folded());
        // Upper-cased traffic must NOT match the case-sensitive rules.
        let hay = b"ATTACK ATTRIBUTE /ETC/PASSWD ABCD";
        assert_eq!(engine.find_all(hay), naive_find_all(&set, hay));
    }

    #[test]
    fn synthetic_ruleset_equivalence() {
        let rs = SyntheticRuleset::generate(RulesetSpec::tiny(300, 17));
        let set = rs.http();
        let engine = SPatch::build(&set);
        let mut hay = Vec::new();
        for (_, p) in set.iter().take(40) {
            hay.extend_from_slice(b"GET /index.html ");
            hay.extend_from_slice(p.bytes());
        }
        assert_eq!(engine.find_all(&hay), naive_find_all(&set, &hay));
    }
}
