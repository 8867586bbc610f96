//! Reusable per-scan scratch state: the temporary candidate arrays of
//! Algorithm 1 / Algorithm 2 plus the instrumentation counters.
//!
//! The engines never allocate inside the filtering loop; all growth happens
//! in these vectors, which callers can reuse across chunks of a stream
//! (`Scratch::clear` keeps the capacity). The counters feed Figure 5b
//! (useful-lane occupancy).
//!
//! Two lifecycle methods serve the two reuse patterns:
//!
//! * [`Scratch::clear`] — full reset (candidates **and** counters), the
//!   start-of-measurement entry point;
//! * [`Scratch::begin_chunk`] — clears only the candidate arrays, keeping
//!   the lane counters accumulating. The engines' filter rounds call it once
//!   per chunk, so a scan of many chunks through one scratch reads
//!   whole-scan lane occupancy at the end instead of the last chunk's.
//!
//! Capacity hints are **engine-aware**: the compiled tables know whether a
//! ruleset contains short and/or long patterns, and an array that can never
//! receive a candidate is not pre-reserved (see [`Scratch::reserve_for`]).

use std::cell::RefCell;

/// Temporary arrays and counters for one scan.
#[derive(Clone, Debug, Default)]
pub struct Scratch {
    /// Candidate positions for short patterns (`A_short` in the paper).
    pub a_short: Vec<u32>,
    /// Candidate positions for long patterns (`A_long` in the paper).
    pub a_long: Vec<u32>,
    /// Number of vector blocks in which the third filter was evaluated.
    pub filter3_blocks: u64,
    /// Total lanes that were genuinely active (had passed filter 2) over all
    /// third-filter evaluations.
    pub useful_lanes: u64,
}

/// Fraction of input positions the capacity hints assume can become
/// candidates (a few percent is typical on realistic traffic).
const CANDIDATE_FRACTION_DIV: usize = 32;

impl Scratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a scratch with capacity hints derived from the input length,
    /// assuming both candidate classes can occur.
    pub fn with_capacity_for(input_len: usize) -> Self {
        let mut scratch = Scratch::default();
        scratch.reserve_for(input_len, true, true);
        scratch
    }

    /// Grows the candidate arrays to a capacity hint derived from
    /// `input_len`, without shrinking or discarding anything. Hints are
    /// engine-aware: only the arrays the ruleset can actually populate are
    /// reserved (`expect_short` ⇔ the ruleset has 1–3-byte patterns,
    /// `expect_long` ⇔ it has ≥ 4-byte ones), so a short-only ruleset
    /// allocates nothing for `a_long`, and vice versa. Cheap when the
    /// scratch is already warm — the common case for a cached or streaming
    /// scratch.
    pub fn reserve_for(&mut self, input_len: usize, expect_short: bool, expect_long: bool) {
        let hint = input_len / CANDIDATE_FRACTION_DIV + 16;
        if expect_short && self.a_short.capacity() < hint {
            self.a_short.reserve(hint - self.a_short.len());
        }
        if expect_long && self.a_long.capacity() < hint {
            self.a_long.reserve(hint - self.a_long.len());
        }
    }

    /// Clears candidates and counters but keeps allocated capacity.
    pub fn clear(&mut self) {
        self.begin_chunk();
        self.filter3_blocks = 0;
        self.useful_lanes = 0;
    }

    /// Clears the candidate arrays for the next chunk of a stream while the
    /// lane counters keep accumulating. Capacity is kept.
    pub fn begin_chunk(&mut self) {
        self.a_short.clear();
        self.a_long.clear();
    }

    /// Total candidate positions recorded by the filtering round.
    pub fn candidates(&self) -> u64 {
        (self.a_short.len() + self.a_long.len()) as u64
    }
}

thread_local! {
    /// Per-thread scratch reused by the engines' `find_into` /
    /// `scan_with_stats` entry points, so repeated one-shot scans stop
    /// paying an allocation per call.
    static CACHED_SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// Runs `f` with this thread's cached [`Scratch`] (allocating a transient
/// one only in the re-entrant case, which the engines never hit themselves).
/// The scratch is handed over un-cleared; callers reset whatever state they
/// rely on.
///
/// The cache's footprint is bounded by construction: the engines fill it one
/// [`mpm_graph::DEFAULT_CHUNK`] at a time, so neither candidate array ever
/// holds more than a chunk's positions and (with `Vec`'s doubling growth)
/// neither capacity exceeds `2 * DEFAULT_CHUNK` entries — 512 KiB per array
/// per thread, whatever the largest input ever scanned on the thread.
pub fn with_cached_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    CACHED_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut Scratch::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_keeps_capacity() {
        let mut s = Scratch::with_capacity_for(64 * 1024);
        let cap_short = s.a_short.capacity();
        s.a_short.extend_from_slice(&[1, 2, 3]);
        s.a_long.push(9);
        s.filter3_blocks = 5;
        s.clear();
        assert_eq!(s.candidates(), 0);
        assert_eq!(s.filter3_blocks, 0);
        assert!(s.a_short.capacity() >= cap_short);
    }

    #[test]
    fn candidates_counts_both_arrays() {
        let mut s = Scratch::new();
        s.a_short.extend_from_slice(&[1, 2]);
        s.a_long.extend_from_slice(&[3, 4, 5]);
        assert_eq!(s.candidates(), 5);
    }

    #[test]
    fn hints_skip_impossible_candidate_classes() {
        let mut short_only = Scratch::new();
        short_only.reserve_for(1 << 20, true, false);
        assert!(short_only.a_short.capacity() > 0);
        assert_eq!(short_only.a_long.capacity(), 0);
        let mut long_only = Scratch::new();
        long_only.reserve_for(1 << 20, false, true);
        assert_eq!(long_only.a_short.capacity(), 0);
        assert!(long_only.a_long.capacity() > 0);
    }

    #[test]
    fn reserve_for_grows_without_discarding() {
        let mut s = Scratch::new();
        s.a_short.push(42);
        s.reserve_for(1 << 16, true, true);
        assert_eq!(s.a_short, vec![42]);
        assert!(s.a_short.capacity() >= (1 << 16) / 32);
        let cap = s.a_short.capacity();
        // Re-reserving for a smaller input never shrinks.
        s.reserve_for(64, true, true);
        assert_eq!(s.a_short.capacity(), cap);
    }

    #[test]
    fn begin_chunk_keeps_counters_accumulating() {
        let mut s = Scratch::new();
        s.a_short.push(1);
        s.filter3_blocks = 10;
        s.useful_lanes = 3;
        s.begin_chunk();
        assert_eq!(s.candidates(), 0);
        assert_eq!(s.filter3_blocks, 10);
        assert_eq!(s.useful_lanes, 3);
    }

    #[test]
    fn cached_scratch_footprint_is_bounded() {
        use mpm_patterns::PatternSet;
        // Every position of an all-'a' haystack passes filter 1 ("aa" of
        // "aab") and filters 2 + 3 ("aaaa" of "aaaab"), and none verifies:
        // the worst case for the candidate arrays at zero output cost.
        let set = PatternSet::from_literals(&["aab", "aaaab"]);
        let hay = vec![b'a'; 8 << 20];
        let engine = crate::build_auto(&set);
        let probe = &hay[..1024];
        assert_eq!(engine.scan_with_stats(probe).candidates, 2 * 1024 - 3);
        let mut out = Vec::new();
        engine.find_into(&hay, &mut out);
        assert!(out.is_empty());
        // Chunking keeps each array within one chunk's positions, so the
        // cache never grows past the bound `with_cached_scratch` states.
        with_cached_scratch(|s| {
            let bound = 2 * mpm_graph::DEFAULT_CHUNK;
            assert!(s.a_short.capacity() >= mpm_graph::DEFAULT_CHUNK);
            assert!(s.a_short.capacity() <= bound, "{}", s.a_short.capacity());
            assert!(s.a_long.capacity() <= bound, "{}", s.a_long.capacity());
        });
    }

    #[test]
    fn cached_scratch_is_reused_and_reentrancy_safe() {
        let cap = with_cached_scratch(|s| {
            s.clear();
            s.reserve_for(1 << 16, true, true);
            s.a_short.capacity()
        });
        let (cap_again, nested_ok) = with_cached_scratch(|s| {
            let outer_cap = s.a_short.capacity();
            // A nested borrow must not panic; it falls back to a transient.
            let nested = with_cached_scratch(|inner| inner.a_short.capacity() <= outer_cap);
            (outer_cap, nested)
        });
        assert_eq!(cap, cap_again, "capacity persisted across calls");
        assert!(nested_ok);
    }
}
