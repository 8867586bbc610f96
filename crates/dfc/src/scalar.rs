//! The original scalar DFC engine.
//!
//! The filter loop — the part the paper's "DFC" baseline measures against
//! the vectorized engines — is plain scalar code over the initial direct
//! filter. The positions that survive it are buffered per scan chunk and
//! pushed through the batched, prefetch-pipelined compact-hash-table path
//! [`crate::tables::DRAIN_BLOCK`] at a time, instead of being classified and
//! verified one at a time the moment they pass, so the dependent hash-table
//! loads of consecutive candidates overlap instead of serialising.

use crate::graph;
use crate::tables::{with_drain_buffers, DfcTables, DrainBuffers};
use mpm_graph::{Chunk, TwoRound, DEFAULT_CHUNK};
use mpm_patterns::{MatchEvent, Matcher, MatcherStats, PatternSet};
use mpm_simd::ScalarBackend;

/// Scalar DFC, the paper's "DFC" baseline: a scalar sweep through the
/// initial filter, then classification + verification of the survivors
/// (the two [`TwoRound`] rounds, run chunk by chunk).
#[derive(Clone, Debug)]
pub struct Dfc {
    tables: DfcTables,
}

impl Dfc {
    /// Compiles DFC for `set`.
    pub fn build(set: &PatternSet) -> Self {
        Self::from_tables(DfcTables::build(set))
    }

    /// Wraps pre-built tables in the engine.
    pub fn from_tables(tables: DfcTables) -> Self {
        Dfc { tables }
    }

    /// The compiled tables (used by the cache-simulation experiments).
    pub fn tables(&self) -> &DfcTables {
        &self.tables
    }
}

impl TwoRound for Dfc {
    type Pad = DrainBuffers;

    fn filter(&self, chunk: Chunk<'_>, pad: &mut DrainBuffers, _out: &mut Vec<MatchEvent>) -> u64 {
        graph::scalar_filter(&self.tables, chunk, &mut pad.0)
    }

    fn verify(&self, chunk: Chunk<'_>, pad: &mut DrainBuffers, out: &mut Vec<MatchEvent>) -> u64 {
        graph::drain::<ScalarBackend, 8>(&self.tables, chunk, pad, out)
    }
}

impl Matcher for Dfc {
    fn name(&self) -> &'static str {
        "DFC"
    }

    fn max_pattern_len(&self) -> usize {
        self.tables.max_pattern_len
    }

    fn find_into(&self, haystack: &[u8], out: &mut Vec<MatchEvent>) {
        with_drain_buffers(|pad| {
            mpm_graph::scan(self, haystack, 0..haystack.len(), DEFAULT_CHUNK, pad, out)
        });
    }

    fn scan_with_stats(&self, haystack: &[u8]) -> MatcherStats {
        with_drain_buffers(|pad| {
            mpm_graph::scan_with_stats(self, haystack, DEFAULT_CHUNK, pad, &mut Vec::new())
        })
    }

    fn memory_footprint(&self) -> mpm_patterns::MemoryFootprint {
        mpm_patterns::MemoryFootprint {
            filter_bytes: self.tables.filter_bytes(),
            verify_bytes: self.tables.table_bytes(),
            other_bytes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpm_patterns::naive::naive_find_all;
    use mpm_patterns::synthetic::{RulesetSpec, SyntheticRuleset};

    #[test]
    fn matches_naive_on_mixed_length_patterns() {
        let set = PatternSet::from_literals(&["a", "ab", "abc", "abcd", "bcde", "e", "GET /index"]);
        let dfc = Dfc::build(&set);
        let hay = b"xxabcdexx GET /index.html aaab";
        assert_eq!(dfc.find_all(hay), naive_find_all(&set, hay));
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let set = PatternSet::from_literals(&["a", "ab"]);
        let dfc = Dfc::build(&set);
        assert!(dfc.find_all(b"").is_empty());
        assert_eq!(dfc.find_all(b"a").len(), 1);
        assert_eq!(dfc.find_all(b"ab").len(), 2); // "a" and "ab"
    }

    #[test]
    fn filtering_rejects_most_random_input() {
        let rs = SyntheticRuleset::generate(RulesetSpec::tiny(500, 21));
        let set = rs.http();
        let dfc = Dfc::build(&set);
        // Uniformly random bytes: the paper reports ~95%+ of the input is
        // filtered out; check the candidate rate is low.
        let mut hay = vec![0u8; 100_000];
        let mut state = 0x1234_5678_9abc_def0u64;
        for b in hay.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *b = (state >> 33) as u8;
        }
        let stats = dfc.scan_with_stats(&hay);
        let rate = stats.candidates as f64 / stats.bytes_scanned as f64;
        assert!(
            rate < 0.35,
            "candidate rate on random input too high: {rate}"
        );
        assert_eq!(dfc.find_all(&hay), naive_find_all(&set, &hay));
    }

    #[test]
    fn nocase_patterns_match_case_variants_exactly() {
        use mpm_patterns::Pattern;
        let set = PatternSet::new(vec![
            Pattern::literal_nocase(*b"CmD.exe"),
            Pattern::literal(*b"cmd.exe"),
            Pattern::literal_nocase(*b"ab"),
            Pattern::literal_nocase(*b"x"),
            Pattern::literal_nocase(*b"GeT"),
        ]);
        let dfc = Dfc::build(&set);
        assert!(dfc.tables().is_folded());
        let hay = b"CMD.EXE cmd.exe AB aB X x GET get gEt";
        assert_eq!(dfc.find_all(hay), naive_find_all(&set, hay));
    }

    #[test]
    fn case_sensitive_only_sets_stay_byte_exact() {
        let set = PatternSet::from_literals(&["attack", "AbCd"]);
        let dfc = Dfc::build(&set);
        assert!(!dfc.tables().is_folded());
        let hay = b"ATTACK abcd AbCd attack";
        assert_eq!(dfc.find_all(hay), naive_find_all(&set, hay));
    }

    #[test]
    fn stats_report_scanned_bytes_and_matches() {
        let set = PatternSet::from_literals(&["needle"]);
        let dfc = Dfc::build(&set);
        let hay = b"hay needle hay needle";
        let stats = dfc.scan_with_stats(hay);
        assert_eq!(stats.bytes_scanned, hay.len() as u64);
        assert_eq!(stats.matches, 2);
    }

    #[test]
    fn synthetic_ruleset_equivalence() {
        let rs = SyntheticRuleset::generate(RulesetSpec::tiny(200, 33));
        let set = rs.http();
        let dfc = Dfc::build(&set);
        // Compose an input embedding some of the patterns.
        let mut hay = b"GET /index.php?id=1 HTTP/1.1\r\nHost: example\r\n\r\n".to_vec();
        for (_, p) in set.iter().take(30) {
            hay.extend_from_slice(p.bytes());
            hay.extend_from_slice(b" <=> ");
        }
        assert_eq!(dfc.find_all(&hay), naive_find_all(&set, &hay));
    }
}
