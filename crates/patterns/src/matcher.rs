//! The common [`Matcher`] interface implemented by every engine in the
//! workspace, and the [`MatchEvent`] type they report.
//!
//! The paper's correctness criterion is that every engine "produces the same
//! output as Aho-Corasick": the full set of `(pattern, position)` occurrences
//! — where an occurrence is byte-exact for ordinary patterns and
//! ASCII-case-insensitive for `nocase` ones (see
//! [`crate::Pattern::matches_at`]). Encoding that interface once lets the
//! test suite compare engines byte-for-byte and lets the benchmark harness
//! drive them uniformly.

use crate::pattern::{PatternId, PatternSet};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// A single reported occurrence of a pattern in the input.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct MatchEvent {
    /// Byte offset in the input where the pattern starts.
    pub start: usize,
    /// The pattern that matched.
    pub pattern: PatternId,
}

impl MatchEvent {
    /// Creates a match event.
    #[inline]
    pub fn new(start: usize, pattern: PatternId) -> Self {
        MatchEvent { start, pattern }
    }

    /// End offset (exclusive) of the match in the input, given the set the
    /// pattern belongs to.
    #[inline]
    pub fn end(&self, set: &PatternSet) -> usize {
        self.start + set.get(self.pattern).len()
    }
}

/// Per-scan statistics that engines may expose.
///
/// Only the fields an engine actually tracks are non-zero; they are used by
/// Figure 5b (filtering-time ratio, useful-lane occupancy) and by the cache
/// ablation experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MatcherStats {
    /// Input bytes processed.
    pub bytes_scanned: u64,
    /// Windows (input positions) that passed the filtering phase and were
    /// forwarded to verification.
    pub candidates: u64,
    /// Matches confirmed by verification.
    pub matches: u64,
    /// Comparisons the verification round made: table entries checked
    /// against the input at a candidate position (entries that would run
    /// past the end of the input are not counted). Zero for engines that
    /// verify without a table.
    pub verify_comparisons: u64,
    /// Nanoseconds spent in the filtering phase (engines with a separate
    /// filtering round).
    pub filter_nanos: u64,
    /// Nanoseconds spent in the verification phase.
    pub verify_nanos: u64,
    /// For vectorized engines: number of vector blocks in which the third
    /// filter was evaluated.
    pub filter3_blocks: u64,
    /// For vectorized engines: total useful (active) lanes over all third
    /// filter evaluations. `useful_lanes / (filter3_blocks * W)` is the
    /// "useful elements in vector register" metric of Figure 5b.
    pub useful_lanes: u64,
}

impl MatcherStats {
    /// Fraction of total measured time spent in filtering, in `[0, 1]`.
    /// Returns `None` if the engine did not record phase timings.
    pub fn filtering_time_fraction(&self) -> Option<f64> {
        let total = self.filter_nanos + self.verify_nanos;
        if total == 0 {
            None
        } else {
            Some(self.filter_nanos as f64 / total as f64)
        }
    }

    /// Average fraction of useful lanes per third-filter evaluation, given
    /// the vector width used. Returns `None` for scalar engines.
    pub fn useful_lane_fraction(&self, lanes: usize) -> Option<f64> {
        if self.filter3_blocks == 0 || lanes == 0 {
            None
        } else {
            Some(self.useful_lanes as f64 / (self.filter3_blocks * lanes as u64) as f64)
        }
    }

    /// Merges another stats record into this one (used when scanning an input
    /// in chunks).
    pub fn merge(&mut self, other: &MatcherStats) {
        self.bytes_scanned += other.bytes_scanned;
        self.candidates += other.candidates;
        self.matches += other.matches;
        self.verify_comparisons += other.verify_comparisons;
        self.filter_nanos += other.filter_nanos;
        self.verify_nanos += other.verify_nanos;
        self.filter3_blocks += other.filter3_blocks;
        self.useful_lanes += other.useful_lanes;
    }
}

/// Phase-attributed breakdown of an engine's resident data structures, in
/// bytes ([`Matcher::memory_footprint`]): the split the paper's
/// cache-locality argument is about. The *filtering* structures must stay
/// cache-resident while the *verification* tables may spill to L3 — so a
/// perf snapshot without the split cannot tell whether an engine is fast
/// because its algorithm is good or because its tables happen to be tiny.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryFootprint {
    /// Bytes of the filtering structures the scan loop touches per input
    /// position (direct/hashed bitmap filters, shift tables).
    pub filter_bytes: usize,
    /// Bytes of the verification structures (compact hash tables, candidate
    /// buckets, pattern arenas).
    pub verify_bytes: usize,
    /// Bytes not attributable to either phase (e.g. an automaton that
    /// filters and verifies in one structure).
    pub other_bytes: usize,
}

impl MemoryFootprint {
    /// Total resident bytes (what [`Matcher::heap_bytes`] reports).
    pub fn total(&self) -> usize {
        self.filter_bytes + self.verify_bytes + self.other_bytes
    }
}

/// The interface every multiple-pattern-matching engine implements.
///
/// Engines are constructed from a [`PatternSet`] (a potentially expensive,
/// one-time compilation step — building the automaton, the filters and the
/// hash tables) and then scan arbitrarily many inputs.
pub trait Matcher {
    /// Human-readable engine name, as used in the paper's figures
    /// (e.g. `"Aho-Corasick"`, `"DFC"`, `"V-PATCH"`).
    fn name(&self) -> &'static str;

    /// Length in bytes of the longest pattern this engine was compiled for
    /// (`0` for an empty pattern set).
    ///
    /// Streaming callers need this to bound what they carry between chunks:
    /// a match straddling a chunk boundary starts within the last
    /// `max_pattern_len - 1` bytes of the previous chunk, so those bytes —
    /// or the fewer a resume point allows ([`Matcher::find_in`]) — must be
    /// kept (see `mpm-stream`).
    fn max_pattern_len(&self) -> usize;

    /// Scans `haystack` and appends every occurrence of every pattern to
    /// `out`. Occurrences may be appended in any order; callers that need a
    /// canonical order sort the vector (see [`normalize_matches`]).
    fn find_into(&self, haystack: &[u8], out: &mut Vec<MatchEvent>);

    /// Appends to `out` exactly the occurrences that **start in `starts`**
    /// and lie inside `haystack` (bytes past `starts.end` are read, never
    /// originated from), and returns a **resume point** `r`, in `starts` and
    /// at or after [`resume_horizon`]: whatever bytes are later appended
    /// to `haystack`, no occurrence starts in `starts.start..r` and ends
    /// past `haystack.len()`. A streaming caller therefore only has to keep
    /// `haystack[r..]` to find every occurrence the appended bytes complete
    /// (see `mpm-stream`).
    ///
    /// This default is the definition and is exact for every engine: scan
    /// from `starts.start`, keep the starts below `starts.end`, and return
    /// the horizon `haystack.len() - (max_pattern_len - 1)` (clamped into
    /// `starts`) — the earliest start from which the longest pattern could
    /// still run off the end. No resume point may be earlier than that, so
    /// `haystack[r..]` is at most `max_pattern_len - 1` bytes and callers
    /// may rely on the bound. An engine overrides this method only to
    /// return a later point it can prove from state its scan already holds,
    /// and only with a test against the contract
    /// (`tests/resume_contract.rs`).
    ///
    /// # Panics
    /// Panics unless `starts.start <= starts.end <= haystack.len()`.
    fn find_in(&self, haystack: &[u8], starts: Range<usize>, out: &mut Vec<MatchEvent>) -> usize {
        assert!(starts.start <= starts.end && starts.end <= haystack.len());
        let first = out.len();
        self.find_into(&haystack[starts.start..], out);
        let mut kept = first;
        for i in first..out.len() {
            let start = out[i].start + starts.start;
            if start < starts.end {
                out[kept] = MatchEvent::new(start, out[i].pattern);
                kept += 1;
            }
        }
        out.truncate(kept);
        resume_horizon(haystack.len(), self.max_pattern_len(), &starts)
    }

    /// [`Matcher::find_in`] over several inputs in one call. `haystack` is
    /// the inputs laid back to back and `ends[k]` is where input `k` ends
    /// (ascending, the last one `haystack.len()`; input `k` begins where
    /// input `k - 1` ended, input 0 at 0). Appends to `out`, in no particular
    /// order, what `find_in(input, 0..input.len(), ..)` reports for every
    /// input, and to `resumes` the resume point it returns, one per input in
    /// order — both as offsets into `haystack`. Inputs are independent: an
    /// occurrence that begins in one input and ends in the next is **not**
    /// reported, and a resume point vouches only for bytes appended to its
    /// own input.
    ///
    /// `lengths[id]` is the length of pattern `id`. The filtering engines
    /// index their verification tables by prefix, not by id, and scan the
    /// concatenation as one input; the lengths are what lets them drop an
    /// occurrence that runs over its input's end.
    ///
    /// This default — one `find_in` per input — is the definition and is
    /// exact for every engine. An engine overrides it only to pay its
    /// per-call cost once for a batch of small inputs, and only with a test
    /// against the contract (`tests/segment_contract.rs`).
    ///
    /// # Panics
    /// Panics unless `ends` is ascending and ends at `haystack.len()`
    /// (empty for an empty haystack).
    fn find_in_segments(
        &self,
        haystack: &[u8],
        ends: &[usize],
        lengths: &[u32],
        out: &mut Vec<MatchEvent>,
        resumes: &mut Vec<usize>,
    ) {
        let _ = lengths;
        find_in_each_segment(self, haystack, ends, out, resumes);
    }

    /// Scans `haystack` and returns all matches in canonical
    /// (position, pattern) order.
    fn find_all(&self, haystack: &[u8]) -> Vec<MatchEvent> {
        let mut out = Vec::new();
        self.find_into(haystack, &mut out);
        normalize_matches(&mut out);
        out
    }

    /// Counts the occurrences in `haystack` without materialising them.
    ///
    /// The default implementation goes through [`Matcher::find_into`]; engines
    /// override it with a cheaper counting path where it matters (this is the
    /// operation the paper's throughput experiments perform: "all algorithms
    /// count the number of matches").
    fn count(&self, haystack: &[u8]) -> u64 {
        let mut out = Vec::new();
        self.find_into(haystack, &mut out);
        out.len() as u64
    }

    /// Scans `haystack`, returning per-scan statistics. Engines without
    /// instrumentation return a record with only `bytes_scanned` and
    /// `matches` filled in.
    fn scan_with_stats(&self, haystack: &[u8]) -> MatcherStats {
        let matches = self.count(haystack);
        MatcherStats {
            bytes_scanned: haystack.len() as u64,
            matches,
            ..MatcherStats::default()
        }
    }

    /// The engine's one memory figure: the approximate resident size, in
    /// bytes, of its data structures, attributed to the filtering and
    /// verification phases (an engine without the split — an automaton that
    /// filters and verifies in one structure — reports
    /// [`MemoryFootprint::other_bytes`]). Every engine implements it; the
    /// zero default is for wrappers that own no tables of their own. The
    /// benchmark's `core.filter_bytes` / `verify.table_bytes` rows read
    /// this, so every perf trajectory entry carries its memory cost.
    fn memory_footprint(&self) -> MemoryFootprint {
        MemoryFootprint::default()
    }

    /// Total resident bytes, `memory_footprint().total()`. Used to reproduce
    /// the paper's discussion of why Aho-Corasick's automaton exceeds cache
    /// capacity while the filters stay cache-resident.
    fn heap_bytes(&self) -> usize {
        self.memory_footprint().total()
    }
}

/// The resume point every engine may fall back on (see
/// [`Matcher::find_in`]): the earliest start in `starts` from which a
/// pattern of `max_pattern_len` bytes would run past a haystack of `len`
/// bytes, i.e. `len - (max_pattern_len - 1)` clamped into `starts`.
pub fn resume_horizon(len: usize, max_pattern_len: usize, starts: &Range<usize>) -> usize {
    (len + 1)
        .saturating_sub(max_pattern_len)
        .clamp(starts.start, starts.end)
}

/// [`Matcher::find_in_segments`] by its definition: one
/// [`Matcher::find_in`] per input, matches and resume points translated to
/// offsets into `haystack`. The trait's default, and what an overriding
/// engine falls back on for a haystack it cannot take in one round.
///
/// # Panics
/// Panics unless `ends` is ascending and ends at `haystack.len()`.
pub fn find_in_each_segment<M: Matcher + ?Sized>(
    engine: &M,
    haystack: &[u8],
    ends: &[usize],
    out: &mut Vec<MatchEvent>,
    resumes: &mut Vec<usize>,
) {
    assert_eq!(
        ends.last().copied().unwrap_or(0),
        haystack.len(),
        "the last input must end where the haystack does"
    );
    let mut start = 0;
    for &end in ends {
        let first = out.len();
        let resume = engine.find_in(&haystack[start..end], 0..end - start, out);
        for m in &mut out[first..] {
            m.start += start;
        }
        resumes.push(start + resume);
        start = end;
    }
}

/// Sorts matches into the canonical order and removes duplicates.
///
/// Engines must never report the same `(pattern, start)` twice; deduplication
/// here is a safety net so the equivalence tests detect genuine differences
/// rather than harmless double-reporting, which is separately asserted.
pub fn normalize_matches(matches: &mut Vec<MatchEvent>) {
    matches.sort_unstable();
    matches.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternSet;

    #[test]
    fn match_event_end_uses_pattern_length() {
        let set = PatternSet::from_literals(&["abc", "de"]);
        let m = MatchEvent::new(10, PatternId(0));
        assert_eq!(m.end(&set), 13);
        let m2 = MatchEvent::new(4, PatternId(1));
        assert_eq!(m2.end(&set), 6);
    }

    #[test]
    fn normalize_sorts_and_dedups() {
        let mut v = vec![
            MatchEvent::new(5, PatternId(1)),
            MatchEvent::new(2, PatternId(0)),
            MatchEvent::new(5, PatternId(1)),
            MatchEvent::new(2, PatternId(3)),
        ];
        normalize_matches(&mut v);
        assert_eq!(
            v,
            vec![
                MatchEvent::new(2, PatternId(0)),
                MatchEvent::new(2, PatternId(3)),
                MatchEvent::new(5, PatternId(1)),
            ]
        );
    }

    #[test]
    fn stats_fractions() {
        let s = MatcherStats {
            filter_nanos: 750,
            verify_nanos: 250,
            filter3_blocks: 10,
            useful_lanes: 40,
            ..MatcherStats::default()
        };
        assert!((s.filtering_time_fraction().unwrap() - 0.75).abs() < 1e-9);
        assert!((s.useful_lane_fraction(8).unwrap() - 0.5).abs() < 1e-9);
        assert_eq!(MatcherStats::default().filtering_time_fraction(), None);
        assert_eq!(MatcherStats::default().useful_lane_fraction(8), None);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = MatcherStats {
            bytes_scanned: 10,
            candidates: 1,
            matches: 2,
            verify_comparisons: 9,
            filter_nanos: 5,
            verify_nanos: 6,
            filter3_blocks: 7,
            useful_lanes: 8,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.bytes_scanned, 20);
        assert_eq!(a.useful_lanes, 16);
        assert_eq!(a.verify_comparisons, 18);
        assert_eq!(a.matches, 4);
    }
}
