//! Full state-transition-table (DFA) execution engine — the Snort `acsmx2`
//! "full" variant the paper uses as its Aho-Corasick baseline.
//!
//! Construction converts the goto/fail automaton into a dense table with one
//! 256-entry row per state, so matching performs exactly one table lookup per
//! input byte and never walks failure links. The price is memory: with
//! thousands of patterns the table spans tens of megabytes — far larger than
//! L2/L3 — which is precisely the cache-locality problem the paper's
//! filtering approaches attack. [`DfaMatcher::memory_footprint`] and
//! [`DfaMatcher::table_rows`] expose that footprint for the memory-growth
//! analysis and the cache-simulation experiments.

use crate::nfa::AcAutomaton;
use mpm_patterns::{MatchEvent, Matcher, MemoryFootprint, PatternId, PatternSet};

/// Dense Aho-Corasick matcher (one 256-wide row per state).
#[derive(Clone, Debug)]
pub struct DfaMatcher {
    /// Row-major transition table: `table[state * 256 + byte] = next state`.
    table: Vec<u32>,
    /// Output lists per state (merged along failure links at construction).
    outputs: Vec<Vec<PatternId>>,
    /// Pattern lengths (indexed by pattern id) so match starts can be
    /// computed without touching the pattern set.
    pattern_lens: Vec<u32>,
    /// Per-pattern `nocase` flags (indexed by pattern id), consulted on the
    /// cold emit path when the table is folded.
    pattern_nocase: Vec<bool>,
    /// True if the dense table was converted from a folded automaton: the
    /// table itself absorbs the input case-fold (its rows were filled
    /// through `AcAutomaton::next_state`, which folds), so the per-byte scan
    /// loop is unchanged and only the emit path verifies case-sensitive
    /// patterns byte-exactly.
    folded: bool,
    set: PatternSet,
}

impl DfaMatcher {
    /// Builds the dense matcher for `set`.
    pub fn build(set: &PatternSet) -> Self {
        let automaton = AcAutomaton::build(set);
        Self::from_automaton(&automaton)
    }

    /// Converts an existing automaton into the dense representation.
    pub fn from_automaton(automaton: &AcAutomaton) -> Self {
        let n = automaton.state_count();
        let mut table = vec![0u32; n * 256];
        let mut outputs = Vec::with_capacity(n);
        for state in 0..n as u32 {
            for byte in 0..=255u8 {
                table[state as usize * 256 + byte as usize] = automaton.next_state(state, byte);
            }
            outputs.push(automaton.outputs(state).to_vec());
        }
        let set = automaton.pattern_set().clone();
        let pattern_lens = set.patterns().iter().map(|p| p.len() as u32).collect();
        let pattern_nocase = set.patterns().iter().map(|p| p.is_nocase()).collect();
        DfaMatcher {
            table,
            outputs,
            pattern_lens,
            pattern_nocase,
            folded: automaton.is_folded(),
            set,
        }
    }

    /// True if the dense table absorbs an ASCII case-fold (built from a
    /// folded automaton because the set contains a `nocase` pattern).
    pub fn is_folded(&self) -> bool {
        self.folded
    }

    /// Number of rows (states) in the dense table.
    pub fn table_rows(&self) -> usize {
        self.outputs.len()
    }

    /// The pattern set this matcher searches for.
    pub fn pattern_set(&self) -> &PatternSet {
        &self.set
    }

    /// Walks the DFA over `haystack`, invoking `on_state` with
    /// `(position, state)` after every byte. This hook is used by the cache
    /// simulator to replay the exact memory-access sequence of a scan.
    pub fn walk<F: FnMut(usize, u32)>(&self, haystack: &[u8], mut on_state: F) {
        let mut state = 0u32;
        for (i, &byte) in haystack.iter().enumerate() {
            state = self.table[state as usize * 256 + byte as usize];
            on_state(i, state);
        }
    }

    /// Byte offset, within the dense table, of the row for `state` —
    /// used by the cache simulator to map accesses to addresses.
    pub fn row_offset_bytes(&self, state: u32) -> usize {
        state as usize * 256 * std::mem::size_of::<u32>()
    }
}

impl Matcher for DfaMatcher {
    fn name(&self) -> &'static str {
        "Aho-Corasick"
    }

    fn max_pattern_len(&self) -> usize {
        self.pattern_lens
            .iter()
            .map(|&l| l as usize)
            .max()
            .unwrap_or(0)
    }

    fn find_into(&self, haystack: &[u8], out: &mut Vec<MatchEvent>) {
        let mut state = 0u32;
        for (i, &byte) in haystack.iter().enumerate() {
            state = self.table[state as usize * 256 + byte as usize];
            let outs = &self.outputs[state as usize];
            if !outs.is_empty() {
                for &id in outs {
                    let len = self.pattern_lens[id.index()] as usize;
                    let start = i + 1 - len;
                    // Folded table = case-insensitive acceptance: confirm
                    // case-sensitive patterns through the shared per-pattern
                    // verification rule before reporting.
                    if self.folded
                        && !self.pattern_nocase[id.index()]
                        && !self.set.get(id).matches_at(haystack, start)
                    {
                        continue;
                    }
                    out.push(MatchEvent::new(start, id));
                }
            }
        }
    }

    fn count(&self, haystack: &[u8]) -> u64 {
        let mut state = 0u32;
        let mut count = 0u64;
        for (i, &byte) in haystack.iter().enumerate() {
            state = self.table[state as usize * 256 + byte as usize];
            let outs = &self.outputs[state as usize];
            if outs.is_empty() {
                continue;
            }
            if self.folded {
                for &id in outs {
                    let len = self.pattern_lens[id.index()] as usize;
                    let start = i + 1 - len;
                    if self.pattern_nocase[id.index()]
                        || self.set.get(id).matches_at(haystack, start)
                    {
                        count += 1;
                    }
                }
            } else {
                count += outs.len() as u64;
            }
        }
        count
    }

    fn memory_footprint(&self) -> MemoryFootprint {
        MemoryFootprint {
            other_bytes: self.table.len() * std::mem::size_of::<u32>()
                + self
                    .outputs
                    .iter()
                    .map(|o| {
                        o.len() * std::mem::size_of::<PatternId>()
                            + std::mem::size_of::<Vec<PatternId>>()
                    })
                    .sum::<usize>()
                + self.pattern_lens.len() * 4
                + self.pattern_nocase.len(),
            ..MemoryFootprint::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::NfaMatcher;
    use mpm_patterns::naive::naive_find_all;
    use mpm_patterns::synthetic::{RulesetSpec, SyntheticRuleset};

    #[test]
    fn dfa_agrees_with_nfa_and_naive() {
        let set = PatternSet::from_literals(&["he", "she", "his", "hers", "r", "use"]);
        let dfa = DfaMatcher::build(&set);
        let nfa = NfaMatcher::build(&set);
        let hay = b"ushers use hearses; she sells seashells";
        let expected = naive_find_all(&set, hay);
        assert_eq!(dfa.find_all(hay), expected);
        assert_eq!(nfa.find_all(hay), expected);
    }

    #[test]
    fn dense_table_has_256_entries_per_state() {
        let set = PatternSet::from_literals(&["ab", "bc"]);
        let dfa = DfaMatcher::build(&set);
        assert_eq!(dfa.table.len(), dfa.table_rows() * 256);
        // Root + a, ab, b, bc = 5 states.
        assert_eq!(dfa.table_rows(), 5);
    }

    #[test]
    fn memory_footprint_grows_much_faster_than_filter_structures() {
        // Reproduces the qualitative claim of paper §II-A: the automaton
        // does not fit in cache once the ruleset is realistic.
        let rs = SyntheticRuleset::generate(RulesetSpec::tiny(2_000, 99));
        let dfa = DfaMatcher::build(rs.full());
        assert!(
            dfa.heap_bytes() > 4 * 1024 * 1024,
            "2k patterns should already exceed typical L2 (got {} bytes)",
            dfa.heap_bytes()
        );
    }

    #[test]
    fn folded_dfa_matches_nocase_semantics_exactly() {
        use mpm_patterns::Pattern;
        let set = PatternSet::new(vec![
            Pattern::literal_nocase(*b"ShE"),
            Pattern::literal(*b"he"),
            Pattern::literal_nocase(*b"HERS"),
            Pattern::literal(*b"His"),
        ]);
        let dfa = DfaMatcher::build(&set);
        let nfa = NfaMatcher::build(&set);
        assert!(dfa.is_folded());
        let hay = b"uSHErs ushers His HIS hE he sHe HeRs";
        let expected = naive_find_all(&set, hay);
        assert_eq!(dfa.find_all(hay), expected);
        assert_eq!(nfa.find_all(hay), expected);
        assert_eq!(dfa.count(hay), expected.len() as u64);
        assert_eq!(nfa.count(hay), expected.len() as u64);
    }

    #[test]
    fn case_variant_duplicates_are_distinguished_by_verification() {
        use mpm_patterns::Pattern;
        // "AB" exact and "ab" nocase share one folded trie path; only the
        // per-pattern check separates them.
        let set = PatternSet::new(vec![
            Pattern::literal(*b"AB"),
            Pattern::literal_nocase(*b"ab"),
        ]);
        let dfa = DfaMatcher::build(&set);
        let hay = b"AB ab Ab";
        let expected = naive_find_all(&set, hay);
        assert_eq!(dfa.find_all(hay), expected);
        // nocase hits all three, exact only the first.
        assert_eq!(expected.len(), 4);
    }

    #[test]
    fn case_sensitive_only_sets_build_unfolded_dfa() {
        let set = PatternSet::from_literals(&["He", "SHE"]);
        let dfa = DfaMatcher::build(&set);
        assert!(!dfa.is_folded());
        let hay = b"He he SHE she";
        assert_eq!(dfa.find_all(hay), naive_find_all(&set, hay));
    }

    #[test]
    fn walk_visits_every_position() {
        let set = PatternSet::from_literals(&["abc"]);
        let dfa = DfaMatcher::build(&set);
        let mut positions = Vec::new();
        dfa.walk(b"xxabcxx", |i, _s| positions.push(i));
        assert_eq!(positions, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn count_matches_on_synthetic_ruleset_and_traffic() {
        let rs = SyntheticRuleset::generate(RulesetSpec::tiny(300, 5));
        let set = rs.http();
        let dfa = DfaMatcher::build(&set);
        // Build an input by concatenating a few patterns with filler.
        let mut hay = Vec::new();
        for (i, (_, p)) in set.iter().enumerate().take(20) {
            hay.extend_from_slice(p.bytes());
            hay.extend_from_slice(format!("--filler{i}--").as_bytes());
        }
        let expected = naive_find_all(&set, &hay);
        assert_eq!(dfa.find_all(&hay), expected);
        assert_eq!(dfa.count(&hay), expected.len() as u64);
    }

    #[test]
    fn single_byte_pattern_at_every_position() {
        let set = PatternSet::from_literals(&["z"]);
        let dfa = DfaMatcher::build(&set);
        let found = dfa.find_all(b"zzz");
        assert_eq!(found.len(), 3);
        assert_eq!(found[2].start, 2);
    }
}
