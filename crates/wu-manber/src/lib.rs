//! Wu-Manber multi-pattern matcher.
//!
//! The paper's related-work section (§VI-A) discusses Wu-Manber as the main
//! alternative family to Aho-Corasick: a Boyer-Moore-style algorithm that
//! uses a table of safe *shift* distances over blocks of `B = 2` characters
//! to skip input bytes entirely, falling back to a hash bucket of candidate
//! patterns when no skip is possible. Its well-known weakness — and the
//! reason the paper dismisses it for NIDS rulesets — is that the minimum
//! pattern length bounds every shift, so short patterns destroy its
//! advantage. This crate provides a from-scratch implementation so that the
//! claim can be measured rather than cited (see the `short_patterns_ruin_
//! shift_distances` test and the Criterion comparison in `mpm-bench`).
//!
//! The implementation follows the original technical report (Wu & Manber,
//! TR-94-17): SHIFT table indexed by the last `B` bytes of the current
//! `m`-byte window (`m` = shortest pattern length), HASH buckets of patterns
//! for windows whose shift is zero, exact verification against the full
//! pattern. Patterns shorter than `B` (single bytes) cannot participate in
//! the shift machinery at all and are handled by a dedicated scan — the
//! degenerate behaviour the paper alludes to.
//!
//! Case-insensitive (`nocase`) patterns follow the workspace's
//! filter-folded / verify-exact contract — the design the Wu-Manber hardware
//! line (Aldwairi et al.) also adopts for NIDS rulesets: when the set
//! contains any `nocase` pattern, the SHIFT and HASH tables are built over
//! ASCII-case-folded pattern bytes and the scan folds the input block values
//! to match (folding can only shrink shift distances, never skip a true
//! occurrence), while per-pattern verification compares byte-exactly or
//! case-insensitively as each pattern demands. Single-byte `nocase`
//! patterns are simply registered under both case variants of their byte,
//! which is already exact. Case-sensitive-only sets build and scan exactly
//! as before.

#![warn(missing_docs)]

use mpm_graph::{Chunk, TwoRound, DEFAULT_CHUNK};
use mpm_patterns::{fold_byte, MatchEvent, Matcher, MatcherStats, PatternId, PatternSet};
use mpm_simd::{
    prefetch_read, Avx2Backend, Avx512Backend, BackendKind, ScalarBackend, VectorBackend,
};
use std::cell::RefCell;

/// Block size used for the shift table (the classic choice).
const B: usize = 2;

/// Number of entries in the SHIFT/HASH tables (one per 2-byte block value).
const TABLE_SIZE: usize = 1 << 16;

/// Prefetch distance inside the drain: the id storage of candidate `i + K`
/// is requested while candidate `i`'s patterns are compared.
const WM_PREFETCH: usize = 4;

/// The candidate arrays of one scan, `(starts, values)`: the window start
/// and the block value of every zero-shift window of the current chunk.
type Candidates = (Vec<u32>, Vec<u32>);

thread_local! {
    /// Per-thread candidate arrays reused across scans, so `find_into`
    /// allocates nothing once warm. Neither array ever holds more than one
    /// scan chunk's positions.
    static CANDIDATES: RefCell<Candidates> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Runs `f` with this thread's cached candidate arrays (a transient pair
/// only in the re-entrant case, which the engine never hits itself).
fn with_candidates<R>(f: impl FnOnce(&mut Candidates) -> R) -> R {
    CANDIDATES.with(|cell| match cell.try_borrow_mut() {
        Ok(mut pad) => f(&mut pad),
        Err(_) => f(&mut Candidates::default()),
    })
}

/// Wu-Manber matcher.
///
/// The scan is the two [`TwoRound`] rounds, run chunk by chunk: the filter
/// round emits the exact single-byte matches and walks the shift table,
/// buffering the zero-shift windows; the verify round walks their buckets.
#[derive(Clone, Debug)]
pub struct WuManber {
    set: PatternSet,
    /// Shortest pattern length among the patterns handled by the shift
    /// machinery (length ≥ 2). Zero when there are none.
    m: usize,
    /// Safe shift distance per 2-byte block value.
    shift: Vec<u16>,
    /// Candidate pattern ids per 2-byte block value (only populated where
    /// `shift == 0`).
    buckets: Vec<Vec<PatternId>>,
    /// Single-byte patterns, handled by a dedicated pass: `one_byte[b]`
    /// lists the ids of patterns matching byte `b` (a `nocase` letter is
    /// registered under both of its case variants).
    one_byte: Vec<Vec<PatternId>>,
    has_one_byte: bool,
    /// SIMD backend the candidate drain's window compares dispatch to,
    /// resolved once at build time (`MPM_FORCE_BACKEND` pins it, exactly as
    /// for the filtering engines) so the per-scan path allocates nothing.
    backend: BackendKind,
    /// True if the SHIFT/HASH tables were built over ASCII-case-folded
    /// pattern bytes (the set contains a `nocase` pattern); the scan folds
    /// input block values to match.
    folded: bool,
}

#[inline]
fn block_value(a: u8, b: u8) -> usize {
    u16::from_le_bytes([a, b]) as usize
}

impl WuManber {
    /// Compiles the matcher for `set`.
    pub fn build(set: &PatternSet) -> Self {
        let folded = set.has_nocase();
        let fold = |b: u8| fold_byte(b, folded);
        let mut one_byte = vec![Vec::new(); 256];
        let mut has_one_byte = false;
        let mut shift_patterns: Vec<(PatternId, &mpm_patterns::Pattern)> = Vec::new();
        for (id, p) in set.iter() {
            if p.len() < B {
                let b0 = p.bytes()[0];
                one_byte[b0 as usize].push(id);
                if p.is_nocase() && b0.is_ascii_alphabetic() {
                    // Registering both case variants makes the single-byte
                    // pass exact with no verification step.
                    one_byte[(b0 ^ 0x20) as usize].push(id);
                }
                has_one_byte = true;
            } else {
                shift_patterns.push((id, p));
            }
        }

        let m = shift_patterns
            .iter()
            .map(|(_, p)| p.len())
            .min()
            .unwrap_or(0);
        let mut shift = vec![0u16; TABLE_SIZE];
        let mut buckets = vec![Vec::new(); TABLE_SIZE];
        if m >= B {
            // Default shift: the whole window minus one block.
            let default = (m - B + 1) as u16;
            shift.iter_mut().for_each(|s| *s = default);
            for (id, p) in &shift_patterns {
                let bytes = p.bytes();
                // Every block ending at position j (0-based, within the first
                // m bytes) constrains the shift for that block value.
                for j in (B - 1)..m {
                    let value = block_value(fold(bytes[j - 1]), fold(bytes[j]));
                    let safe = (m - 1 - j) as u16;
                    if safe < shift[value] {
                        shift[value] = safe;
                    }
                }
                // Blocks with shift 0 (the block ending the window) get the
                // pattern added to their candidate bucket.
                let value = block_value(fold(bytes[m - 2]), fold(bytes[m - 1]));
                buckets[value].push(*id);
            }
        }

        WuManber {
            set: set.clone(),
            m,
            shift,
            buckets,
            one_byte,
            has_one_byte,
            backend: mpm_simd::detect_best(),
            folded,
        }
    }

    /// True if the tables were built over ASCII-case-folded bytes (the set
    /// contains a `nocase` pattern).
    pub fn is_folded(&self) -> bool {
        self.folded
    }

    /// Shortest shift-eligible pattern length (`0` if all patterns are
    /// single bytes). The average shift — and therefore the throughput — is
    /// bounded by this value, which is the paper's argument against
    /// Wu-Manber for rulesets with short patterns.
    pub fn window_len(&self) -> usize {
        self.m
    }

    /// Average shift value over the whole table (diagnostic; large is good).
    pub fn average_shift(&self) -> f64 {
        if self.m < B {
            return 0.0;
        }
        self.shift.iter().map(|&s| s as f64).sum::<f64>() / self.shift.len() as f64
    }

    /// Emits the single-byte matches whose position lies in `start..end`
    /// (this pass is exact, so its events need no verification round).
    fn scan_one_byte_range(
        &self,
        haystack: &[u8],
        start: usize,
        end: usize,
        out: &mut Vec<MatchEvent>,
    ) {
        for (i, &b) in haystack[start..end].iter().enumerate() {
            for &id in &self.one_byte[b as usize] {
                out.push(MatchEvent::new(start + i, id));
            }
        }
    }

    /// The shift-table walk over window-end positions in `start..end`,
    /// buffering the zero-shift candidate windows as `(window start, block
    /// value)` pairs instead of verifying them inline. The walk restarts at
    /// each range boundary, which can examine a position a continuous walk
    /// would have skipped over — harmless, because the shift invariant
    /// guarantees no true match ends at a skipped position, so any extra
    /// candidate is rejected by verification.
    fn shift_walk_range<const FOLD: bool>(
        &self,
        haystack: &[u8],
        start: usize,
        end: usize,
        starts: &mut Vec<u32>,
        values: &mut Vec<u32>,
    ) {
        let m = self.m;
        if m < B || haystack.len() < m {
            return;
        }
        // `pos` is the index of the last byte of the current m-byte window;
        // the window itself may begin before `start` (in the previous
        // chunk), which is fine — the rounds always see the full haystack.
        let mut pos = start.max(m - 1);
        while pos < end {
            let value = block_value(
                fold_byte(haystack[pos - 1], FOLD),
                fold_byte(haystack[pos], FOLD),
            );
            let shift = self.shift[value] as usize;
            if shift > 0 {
                pos += shift;
                continue;
            }
            // Request the bucket header now, so the pattern-id list is
            // resident by the time the drain walks it.
            prefetch_read(&self.buckets[value]);
            starts.push((pos + 1 - m) as u32);
            values.push(value as u32);
            pos += 1;
        }
    }

    /// Verifies a buffered block of zero-shift candidates: every pattern in
    /// each candidate's bucket is compared against the text at the window
    /// start under its own case rule, via the backend's vector window
    /// comparison. The id storage of candidate `i + K` is prefetched while
    /// candidate `i` is verified.
    fn drain_candidates<S: VectorBackend<W>, const W: usize, const FOLD: bool>(
        &self,
        haystack: &[u8],
        starts: &[u32],
        values: &[u32],
        out: &mut Vec<MatchEvent>,
    ) {
        let n = haystack.len();
        S::dispatch(|| {
            for i in 0..starts.len() {
                if i + WM_PREFETCH < starts.len() {
                    prefetch_read(self.buckets[values[i + WM_PREFETCH] as usize].as_ptr());
                }
                let start = starts[i] as usize;
                for &id in &self.buckets[values[i] as usize] {
                    let pattern = self.set.get(id);
                    let end = start + pattern.len();
                    if end > n {
                        continue;
                    }
                    let window = &haystack[start..end];
                    // `FOLD = false` sets hold no `nocase` patterns, so the
                    // case branch vanishes from the monomorphized kernel.
                    let hit = if FOLD && pattern.is_nocase() {
                        S::eq_window_nocase(window, pattern.bytes())
                    } else {
                        S::eq_window(window, pattern.bytes())
                    };
                    if hit {
                        out.push(MatchEvent::new(start, id));
                    }
                }
            }
        });
    }

    /// Monomorphizes the drain over the fold mode for one backend.
    fn drain_on<S: VectorBackend<W>, const W: usize>(
        &self,
        haystack: &[u8],
        (starts, values): &Candidates,
        out: &mut Vec<MatchEvent>,
    ) {
        if self.folded {
            self.drain_candidates::<S, W, true>(haystack, starts, values, out);
        } else {
            self.drain_candidates::<S, W, false>(haystack, starts, values, out);
        }
    }
}

impl TwoRound for WuManber {
    type Pad = Candidates;

    fn filter(&self, chunk: Chunk<'_>, pad: &mut Self::Pad, out: &mut Vec<MatchEvent>) -> u64 {
        let (starts, values) = pad;
        starts.clear();
        values.clear();
        if self.has_one_byte {
            self.scan_one_byte_range(chunk.haystack, chunk.start, chunk.end, out);
        }
        if self.folded {
            self.shift_walk_range::<true>(chunk.haystack, chunk.start, chunk.end, starts, values);
        } else {
            self.shift_walk_range::<false>(chunk.haystack, chunk.start, chunk.end, starts, values);
        }
        starts.len() as u64
    }

    fn verify(&self, chunk: Chunk<'_>, pad: &mut Self::Pad, out: &mut Vec<MatchEvent>) {
        // The window compares ride the backend resolved at build time; the
        // shift walk itself is scalar.
        match self.backend {
            BackendKind::Scalar => self.drain_on::<ScalarBackend, 8>(chunk.haystack, pad, out),
            BackendKind::Avx2 => self.drain_on::<Avx2Backend, 8>(chunk.haystack, pad, out),
            BackendKind::Avx512 => self.drain_on::<Avx512Backend, 16>(chunk.haystack, pad, out),
        }
    }
}

impl Matcher for WuManber {
    fn name(&self) -> &'static str {
        "Wu-Manber"
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
        with_candidates(|pad| {
            mpm_graph::scan(self, haystack, 0..haystack.len(), DEFAULT_CHUNK, pad, out)
        });
    }

    fn scan_with_stats(&self, haystack: &[u8]) -> MatcherStats {
        with_candidates(|pad| {
            mpm_graph::scan_with_stats(self, haystack, DEFAULT_CHUNK, pad, &mut Vec::new())
        })
    }

    fn memory_footprint(&self) -> mpm_patterns::MemoryFootprint {
        mpm_patterns::MemoryFootprint {
            // The shift table is what the skip loop touches per position —
            // Wu-Manber's analogue of the filtering structures.
            filter_bytes: self.shift.len() * 2,
            // Candidate buckets + the pattern bytes they are compared to.
            verify_bytes: self
                .buckets
                .iter()
                .map(|b| b.len() * std::mem::size_of::<PatternId>())
                .sum::<usize>()
                + self.set.patterns().iter().map(|p| p.len()).sum::<usize>(),
            other_bytes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpm_patterns::naive::naive_find_all;

    #[test]
    fn classic_example_matches_naive() {
        let set = PatternSet::from_literals(&["announce", "annual", "annually"]);
        let wm = WuManber::build(&set);
        let hay = b"CPM_annual_conference announce the annually repeated event";
        assert_eq!(wm.find_all(hay), naive_find_all(&set, hay));
        // m = 6 ("annual"), so shifts can skip up to 5 bytes.
        assert_eq!(wm.window_len(), 6);
        assert!(wm.average_shift() > 4.0);
    }

    #[test]
    fn overlapping_and_repeated_matches() {
        let set = PatternSet::from_literals(&["abab", "baba", "ab"]);
        let wm = WuManber::build(&set);
        let hay = b"abababab";
        assert_eq!(wm.find_all(hay), naive_find_all(&set, hay));
    }

    #[test]
    fn one_byte_patterns_are_still_exact() {
        let set = PatternSet::from_literals(&["x", "longpattern", "yz"]);
        let wm = WuManber::build(&set);
        let hay = b"xx yz longpattern x";
        assert_eq!(wm.find_all(hay), naive_find_all(&set, hay));
    }

    #[test]
    fn short_patterns_ruin_shift_distances() {
        // The paper's argument: one 2-byte pattern caps every shift at 1.
        let long_only = WuManber::build(&PatternSet::from_literals(&[
            "wide-enough-pattern",
            "another-long-pattern",
        ]));
        let with_short = WuManber::build(&PatternSet::from_literals(&[
            "wide-enough-pattern",
            "another-long-pattern",
            "ab",
        ]));
        assert!(long_only.average_shift() > 5.0);
        assert!(with_short.average_shift() <= 1.0);
        assert_eq!(with_short.window_len(), 2);
    }

    #[test]
    fn nocase_patterns_are_found_in_any_case() {
        use mpm_patterns::Pattern;
        let set = PatternSet::new(vec![
            Pattern::literal_nocase(*b"AnnOunce"),
            Pattern::literal(*b"annual"),
            Pattern::literal_nocase(*b"x"),
            Pattern::literal_nocase(*b"aB"),
        ]);
        let wm = WuManber::build(&set);
        assert!(wm.is_folded());
        let hay = b"ANNOUNCE announce ANNUAL annual X x AB ab Ab aB";
        assert_eq!(wm.find_all(hay), naive_find_all(&set, hay));
    }

    #[test]
    fn case_sensitive_only_sets_stay_unfolded() {
        let set = PatternSet::from_literals(&["AnnOunce", "annual"]);
        let wm = WuManber::build(&set);
        assert!(!wm.is_folded());
        let hay = b"ANNOUNCE AnnOunce annual ANNUAL";
        assert_eq!(wm.find_all(hay), naive_find_all(&set, hay));
    }

    #[test]
    fn nocase_single_byte_registers_both_case_variants() {
        use mpm_patterns::Pattern;
        let set = PatternSet::new(vec![
            Pattern::literal_nocase(*b"q"),
            Pattern::literal(*b"q"),
            Pattern::literal_nocase(*b"7"),
        ]);
        let wm = WuManber::build(&set);
        let hay = b"Q q 7";
        assert_eq!(wm.find_all(hay), naive_find_all(&set, hay));
    }

    #[test]
    fn empty_input_and_input_shorter_than_window() {
        let set = PatternSet::from_literals(&["abcdef"]);
        let wm = WuManber::build(&set);
        assert!(wm.find_all(b"").is_empty());
        assert!(wm.find_all(b"abc").is_empty());
        assert_eq!(wm.find_all(b"abcdef").len(), 1);
    }

    #[test]
    fn binary_patterns_and_prefix_collisions() {
        let set = PatternSet::from_literals(&[
            &[0x00u8, 0x01, 0x02, 0x03][..],
            &[0xff, 0xfe, 0x00, 0x01][..],
            b"attack",
            b"attach",
        ]);
        let wm = WuManber::build(&set);
        let mut hay = b"attack attach atta".to_vec();
        hay.extend_from_slice(&[0x00, 0x01, 0x02, 0x03, 0xff, 0xfe, 0x00, 0x01]);
        assert_eq!(wm.find_all(&hay), naive_find_all(&set, &hay));
    }
}
