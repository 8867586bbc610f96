//! Aho-Corasick trie construction and the goto/fail (NFA) execution engine.

use mpm_patterns::{MatchEvent, Matcher, MemoryFootprint, PatternId, PatternSet};

/// Sentinel for "no state".
const NO_STATE: u32 = u32::MAX;

/// One state of the automaton.
#[derive(Clone, Debug, Default)]
struct State {
    /// Sorted sparse transitions on input bytes.
    transitions: Vec<(u8, u32)>,
    /// Failure link (root for depth-1 states).
    fail: u32,
    /// Patterns ending at this state, including those inherited along the
    /// failure chain (merged during construction so matching never has to
    /// walk failure links to emit outputs).
    outputs: Vec<PatternId>,
    /// Depth of the state in the trie (length of the prefix it represents).
    depth: u32,
}

impl State {
    #[inline]
    fn transition(&self, byte: u8) -> Option<u32> {
        self.transitions
            .binary_search_by_key(&byte, |&(b, _)| b)
            .ok()
            .map(|i| self.transitions[i].1)
    }
}

/// The constructed Aho-Corasick automaton (trie + failure links + merged
/// output sets). This is the shared artefact both execution engines
/// ([`NfaMatcher`], [`crate::DfaMatcher`]) are built from.
///
/// When the pattern set contains a `nocase` pattern the automaton is built
/// in **folded** mode: every trie transition byte is ASCII-case-folded at
/// construction and [`AcAutomaton::next_state`] folds the input byte to
/// match, so the automaton accepts every case variant of every pattern. The
/// execution engines then apply the verify-exact half of the contract: a
/// case-sensitive pattern's occurrence is confirmed byte-exactly against the
/// input before being reported (the automaton is a perfect filter for those
/// patterns — folding only ever adds acceptances), while `nocase` patterns
/// need no check because folded acceptance *is* their match rule.
/// Case-sensitive-only sets build the exact automaton they always had.
#[derive(Clone, Debug)]
pub struct AcAutomaton {
    states: Vec<State>,
    set: PatternSet,
    folded: bool,
}

impl AcAutomaton {
    /// Builds the automaton for `set`.
    pub fn build(set: &PatternSet) -> Self {
        let folded = set.has_nocase();
        let fold = |b: u8| if folded { b.to_ascii_lowercase() } else { b };
        let mut states = vec![State::default()]; // root = 0

        // Phase 1: trie (goto function), over folded bytes when folded.
        for (id, pattern) in set.iter() {
            let mut current = 0u32;
            for (i, &raw) in pattern.bytes().iter().enumerate() {
                let byte = fold(raw);
                current = match states[current as usize].transition(byte) {
                    Some(next) => next,
                    None => {
                        let next = states.len() as u32;
                        states.push(State {
                            depth: i as u32 + 1,
                            ..State::default()
                        });
                        let trans = &mut states[current as usize].transitions;
                        let pos = trans.partition_point(|&(b, _)| b < byte);
                        trans.insert(pos, (byte, next));
                        next
                    }
                };
            }
            states[current as usize].outputs.push(id);
        }

        // Phase 2: failure links via BFS, merging output sets.
        let mut queue = std::collections::VecDeque::new();
        // Depth-1 states fail to the root.
        let root_transitions = states[0].transitions.clone();
        for &(_, s) in &root_transitions {
            states[s as usize].fail = 0;
            queue.push_back(s);
        }
        while let Some(current) = queue.pop_front() {
            let transitions = states[current as usize].transitions.clone();
            for (byte, next) in transitions {
                queue.push_back(next);
                // Follow failure links of the parent until a state with a
                // transition on `byte` is found (or the root).
                let mut fail = states[current as usize].fail;
                let fail_target = loop {
                    if fail == NO_STATE {
                        break 0;
                    }
                    if let Some(t) = states[fail as usize].transition(byte) {
                        break t;
                    }
                    if fail == 0 {
                        break 0;
                    }
                    fail = states[fail as usize].fail;
                };
                states[next as usize].fail = fail_target;
                // Merge outputs so emitting matches never walks the chain.
                let inherited = states[fail_target as usize].outputs.clone();
                states[next as usize].outputs.extend(inherited);
            }
        }
        // Root "fails" to itself.
        states[0].fail = 0;

        AcAutomaton {
            states,
            set: set.clone(),
            folded,
        }
    }

    /// True if the automaton was built over ASCII-case-folded transition
    /// bytes (the set contains a `nocase` pattern).
    pub fn is_folded(&self) -> bool {
        self.folded
    }

    /// Number of states, including the root.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// The pattern set the automaton was built from.
    pub fn pattern_set(&self) -> &PatternSet {
        &self.set
    }

    /// Follows goto/fail transitions from `state` on `byte` and returns the
    /// next state (the deterministic delta function). `byte` is a raw input
    /// byte: in folded mode it is case-folded here, so callers — including
    /// the dense-table construction in [`crate::DfaMatcher`], whose table
    /// thereby absorbs the fold — never fold themselves.
    #[inline]
    pub fn next_state(&self, mut state: u32, byte: u8) -> u32 {
        let byte = if self.folded {
            byte.to_ascii_lowercase()
        } else {
            byte
        };
        loop {
            if let Some(next) = self.states[state as usize].transition(byte) {
                return next;
            }
            if state == 0 {
                return 0;
            }
            state = self.states[state as usize].fail;
        }
    }

    /// Patterns ending at `state`.
    #[inline]
    pub fn outputs(&self, state: u32) -> &[PatternId] {
        &self.states[state as usize].outputs
    }

    /// Depth (matched prefix length) of `state`.
    #[inline]
    pub fn depth(&self, state: u32) -> u32 {
        self.states[state as usize].depth
    }

    /// Approximate heap footprint of the sparse automaton in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.states
            .iter()
            .map(|s| {
                std::mem::size_of::<State>()
                    + s.transitions.len() * std::mem::size_of::<(u8, u32)>()
                    + s.outputs.len() * std::mem::size_of::<PatternId>()
            })
            .sum()
    }
}

/// Goto/fail execution engine over [`AcAutomaton`].
#[derive(Clone, Debug)]
pub struct NfaMatcher {
    automaton: AcAutomaton,
}

impl NfaMatcher {
    /// Builds the matcher for `set`.
    pub fn build(set: &PatternSet) -> Self {
        NfaMatcher {
            automaton: AcAutomaton::build(set),
        }
    }

    /// The underlying automaton.
    pub fn automaton(&self) -> &AcAutomaton {
        &self.automaton
    }
}

impl Matcher for NfaMatcher {
    fn name(&self) -> &'static str {
        "Aho-Corasick (NFA)"
    }

    fn max_pattern_len(&self) -> usize {
        let set = &self.automaton.set;
        set.patterns().iter().map(|p| p.len()).max().unwrap_or(0)
    }

    fn find_into(&self, haystack: &[u8], out: &mut Vec<MatchEvent>) {
        let set = &self.automaton.set;
        let folded = self.automaton.folded;
        let mut state = 0u32;
        for (i, &byte) in haystack.iter().enumerate() {
            state = self.automaton.next_state(state, byte);
            for &id in self.automaton.outputs(state) {
                let pattern = set.get(id);
                let start = i + 1 - pattern.len();
                // Folded automaton = case-insensitive acceptance: confirm
                // case-sensitive patterns through the shared per-pattern
                // verification rule before reporting (`nocase` patterns need
                // no check — folded acceptance *is* their match rule).
                if folded && !pattern.is_nocase() && !pattern.matches_at(haystack, start) {
                    continue;
                }
                out.push(MatchEvent::new(start, id));
            }
        }
    }

    fn count(&self, haystack: &[u8]) -> u64 {
        let set = &self.automaton.set;
        let folded = self.automaton.folded;
        let mut state = 0u32;
        let mut count = 0u64;
        for (i, &byte) in haystack.iter().enumerate() {
            state = self.automaton.next_state(state, byte);
            if folded {
                for &id in self.automaton.outputs(state) {
                    let pattern = set.get(id);
                    let start = i + 1 - pattern.len();
                    if pattern.is_nocase() || pattern.matches_at(haystack, start) {
                        count += 1;
                    }
                }
            } else {
                count += self.automaton.outputs(state).len() as u64;
            }
        }
        count
    }

    fn memory_footprint(&self) -> MemoryFootprint {
        MemoryFootprint {
            other_bytes: self.automaton.heap_bytes(),
            ..MemoryFootprint::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpm_patterns::naive::naive_find_all;

    fn classic_set() -> PatternSet {
        PatternSet::from_literals(&["he", "she", "his", "hers"])
    }

    #[test]
    fn classic_example_matches() {
        let set = classic_set();
        let m = NfaMatcher::build(&set);
        let found = m.find_all(b"ushers");
        assert_eq!(found, naive_find_all(&set, b"ushers"));
        // "she" at 1, "he" at 2, "hers" at 2.
        assert_eq!(found.len(), 3);
    }

    #[test]
    fn state_count_matches_trie_size() {
        let set = classic_set();
        let a = AcAutomaton::build(&set);
        // Prefixes: h, he, her, hers, hi, his, s, sh, she + root = 10.
        assert_eq!(a.state_count(), 10);
    }

    #[test]
    fn folded_nfa_matches_nocase_semantics() {
        use mpm_patterns::Pattern;
        let set = PatternSet::new(vec![
            Pattern::literal_nocase(*b"He"),
            Pattern::literal(*b"she"),
            Pattern::literal_nocase(*b"HERS"),
        ]);
        let m = NfaMatcher::build(&set);
        assert!(m.automaton().is_folded());
        let hay = b"uSHERS ushers SHE she HE he";
        let expected = naive_find_all(&set, hay);
        assert_eq!(m.find_all(hay), expected);
        assert_eq!(m.count(hay), expected.len() as u64);
    }

    #[test]
    fn overlapping_and_nested_patterns() {
        let set = PatternSet::from_literals(&["a", "aa", "aaa", "aaaa"]);
        let m = NfaMatcher::build(&set);
        let hay = b"aaaaa";
        assert_eq!(m.find_all(hay), naive_find_all(&set, hay));
    }

    #[test]
    fn duplicate_patterns_report_both_ids() {
        let set = PatternSet::from_literals(&["dup", "dup"]);
        let m = NfaMatcher::build(&set);
        let found = m.find_all(b"xxdupxx");
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].start, 2);
        assert_eq!(found[1].start, 2);
    }

    #[test]
    fn binary_and_boundary_matches() {
        let set = PatternSet::from_literals(&[&[0x00u8, 0x01][..], &[0xff, 0xff, 0xff][..]]);
        let hay = [0x00, 0x01, 0xff, 0xff, 0xff, 0x00, 0x01];
        let m = NfaMatcher::build(&set);
        assert_eq!(m.find_all(&hay), naive_find_all(&set, &hay));
    }

    #[test]
    fn count_equals_find_all_len() {
        let set = classic_set();
        let m = NfaMatcher::build(&set);
        let hay = b"she sells seashells; he hears hers";
        assert_eq!(m.count(hay), m.find_all(hay).len() as u64);
    }

    #[test]
    fn empty_haystack_and_no_match_input() {
        let set = classic_set();
        let m = NfaMatcher::build(&set);
        assert!(m.find_all(b"").is_empty());
        assert!(m.find_all(b"xyz qqq 123").is_empty());
    }

    #[test]
    fn heap_bytes_grows_with_patterns() {
        let small = NfaMatcher::build(&PatternSet::from_literals(&["ab"]));
        let lits: Vec<String> = (0..500).map(|i| format!("pattern-number-{i}")).collect();
        let big = NfaMatcher::build(&PatternSet::from_literals(&lits));
        assert!(big.heap_bytes() > small.heap_bytes() * 10);
    }
}
