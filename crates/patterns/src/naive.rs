//! Obviously-correct reference matcher used as ground truth in tests.
//!
//! `NaiveMatcher` checks every pattern at every input position with a direct
//! comparison — byte-exact, or ASCII-case-insensitive for `nocase` patterns
//! (see [`crate::Pattern::matches_at`]). It is O(input × total pattern
//! bytes) and far too slow for the evaluation workloads, but its simplicity
//! makes it the trusted oracle against which Aho-Corasick, DFC, S-PATCH and
//! V-PATCH are all validated, including the case-insensitive semantics.

use crate::matcher::{MatchEvent, Matcher, MemoryFootprint};
use crate::pattern::PatternSet;

/// Brute-force reference matcher.
#[derive(Clone, Debug)]
pub struct NaiveMatcher {
    set: PatternSet,
}

impl NaiveMatcher {
    /// Builds a naive matcher over `set`.
    pub fn new(set: &PatternSet) -> Self {
        NaiveMatcher { set: set.clone() }
    }

    /// The pattern set this matcher searches for.
    pub fn pattern_set(&self) -> &PatternSet {
        &self.set
    }
}

impl Matcher for NaiveMatcher {
    fn name(&self) -> &'static str {
        "Naive"
    }

    fn max_pattern_len(&self) -> usize {
        self.set
            .patterns()
            .iter()
            .map(|p| p.len())
            .max()
            .unwrap_or(0)
    }

    fn find_into(&self, haystack: &[u8], out: &mut Vec<MatchEvent>) {
        for (id, pattern) in self.set.iter() {
            let len = pattern.len();
            if len > haystack.len() {
                continue;
            }
            for start in 0..=(haystack.len() - len) {
                if pattern.matches_window(&haystack[start..start + len]) {
                    out.push(MatchEvent::new(start, id));
                }
            }
        }
    }

    fn memory_footprint(&self) -> MemoryFootprint {
        MemoryFootprint {
            other_bytes: self
                .set
                .patterns()
                .iter()
                .map(|p| p.len() + std::mem::size_of::<crate::pattern::Pattern>())
                .sum(),
            ..MemoryFootprint::default()
        }
    }
}

/// Convenience free function: all matches of `set` in `haystack`, in canonical
/// order, computed naively. Shorthand used throughout the test suites.
pub fn naive_find_all(set: &PatternSet, haystack: &[u8]) -> Vec<MatchEvent> {
    NaiveMatcher::new(set).find_all(haystack)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternId;

    #[test]
    fn finds_overlapping_and_repeated_matches() {
        let set = PatternSet::from_literals(&["aa", "aaa"]);
        let matches = naive_find_all(&set, b"aaaa");
        // "aa" at 0,1,2 and "aaa" at 0,1.
        assert_eq!(matches.len(), 5);
        assert_eq!(
            matches,
            vec![
                MatchEvent::new(0, PatternId(0)),
                MatchEvent::new(0, PatternId(1)),
                MatchEvent::new(1, PatternId(0)),
                MatchEvent::new(1, PatternId(1)),
                MatchEvent::new(2, PatternId(0)),
            ]
        );
    }

    #[test]
    fn handles_patterns_longer_than_input() {
        let set = PatternSet::from_literals(&["looooooooong"]);
        assert!(naive_find_all(&set, b"short").is_empty());
    }

    #[test]
    fn single_byte_patterns() {
        let set = PatternSet::from_literals(&["a"]);
        assert_eq!(naive_find_all(&set, b"banana").len(), 3);
    }

    #[test]
    fn empty_haystack_no_matches() {
        let set = PatternSet::from_literals(&["x"]);
        assert!(naive_find_all(&set, b"").is_empty());
    }

    #[test]
    fn count_matches_default_impl_agrees() {
        let set = PatternSet::from_literals(&["an", "na"]);
        let m = NaiveMatcher::new(&set);
        assert_eq!(m.count(b"banana"), m.find_all(b"banana").len() as u64);
        assert_eq!(m.count(b"banana"), 4);
    }

    #[test]
    fn nocase_patterns_match_all_case_variants() {
        use crate::pattern::Pattern;
        let set = PatternSet::new(vec![
            Pattern::literal_nocase(*b"get"),
            Pattern::literal(*b"get"),
        ]);
        let m = naive_find_all(&set, b"get GET GeT");
        // The nocase pattern hits all three variants; the exact one only the
        // first.
        let nocase_hits = m.iter().filter(|e| e.pattern == PatternId(0)).count();
        let exact_hits = m.iter().filter(|e| e.pattern == PatternId(1)).count();
        assert_eq!(nocase_hits, 3);
        assert_eq!(exact_hits, 1);
    }

    #[test]
    fn binary_patterns_match_exactly() {
        let set = PatternSet::from_literals(&[&[0x00u8, 0xff, 0x00][..]]);
        let hay = [0x01, 0x00, 0xff, 0x00, 0x00, 0xff, 0x00];
        let m = naive_find_all(&set, &hay);
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].start, 1);
        assert_eq!(m[1].start, 4);
    }
}
