//! The one S-PATCH / V-PATCH engine: the filters and tables both compile
//! to, the scalar filter loop, the verification round and the
//! [`mpm_patterns::Matcher`] body. [`crate::SPatch`] and [`crate::VPatch`]
//! are its two filter kernels — Algorithm 1's scalar lookups and
//! Algorithm 2's `W`-lane gathers over the same merged filter — and differ
//! in nothing else.

use crate::scratch::{self, Scratch};
use mpm_graph::{TwoRound, DEFAULT_CHUNK};
use mpm_patterns::matcher::{find_in_each_segment, resume_horizon};
use mpm_patterns::{
    fold_byte, MatchEvent, Matcher, MatcherStats, MemoryFootprint, PatternArena, PatternSet,
};
use mpm_simd::VectorBackend;
use std::ops::Range;

use mpm_verify::{
    bucket_bits_for_entries, direct_filter_bits_for, direct_filter_window_count, CompactHashTable,
    DirectFilter, HashedFilter, MergedDirectFilters, DIRECT_FILTER_FULL_BITS,
};

/// Everything S-PATCH / V-PATCH precompute from a pattern set
/// (Figure 1 of the paper).
#[derive(Clone, Debug)]
pub struct SPatchTables {
    /// Filters 1 and 2, interleaved (Figure 3): filter 1 holds the first
    /// two bytes of the short (1–3 byte) patterns — a 1-byte pattern sets
    /// every window starting with its byte — and filter 2 those of the long
    /// (≥ 4 byte) patterns. Both kernels read them here and only here.
    pub(crate) merged: MergedDirectFilters,
    /// Filter 3: hashed bitmap over the first four bytes of the long
    /// patterns.
    pub(crate) filter3: HashedFilter,
    /// Verification table of the short patterns, indexed by their first
    /// byte.
    short: CompactHashTable,
    /// Verification table of the long patterns, indexed by a hash of their
    /// first four bytes.
    long: CompactHashTable,
    /// True if the set contains any short pattern (lets the engines skip
    /// the short path entirely otherwise).
    pub(crate) has_short: bool,
    /// True if the set contains any long pattern.
    pub(crate) has_long: bool,
    /// True if the set contains any `nocase` pattern: the filters and
    /// verification tables were built over ASCII-case-folded bytes and the
    /// engines must fold every input window before the filter lookups
    /// (filter-folded / verify-exact). False keeps the byte-exact fast path.
    pub(crate) folded: bool,
    pattern_count: usize,
    /// Length of the longest pattern (streaming callers overlap chunks by
    /// `max_pattern_len - 1`; see `mpm-stream`).
    max_pattern_len: usize,
}

/// Most tail candidates the resume walk of [`SPatchTables::find_in`] examines
/// before it settles for the first one it has not looked at: bounds a push's resume
/// walk on input built to saturate the filters (a long run of one byte that
/// also heads a pattern), where every tail position is a candidate.
const RESUME_WALK_BUDGET: usize = 16;

impl SPatchTables {
    /// Compiles the filters and verification tables for `set` using the
    /// default filter-3 size ([`HashedFilter::DEFAULT_BITS`]).
    pub fn build(set: &PatternSet) -> Self {
        Self::build_with_filter3_bits(set, HashedFilter::DEFAULT_BITS)
    }

    /// Compiles with an explicit filter-3 size (2^bits bits). Exposed for the
    /// filter-size ablation benchmark: the paper notes the trade-off between
    /// a large filter (fewer collisions ⇒ better filtering rate) and a small
    /// one (fits higher in the cache hierarchy).
    pub fn build_with_filter3_bits(set: &PatternSet, filter3_bits: u32) -> Self {
        Self::build_inner(set, filter3_bits, None)
    }

    /// Compiles tables for one **port group** against a shared
    /// [`PatternArena`]: verification tables reference pattern bytes by
    /// offset into the arena ([`CompactHashTable::build`]) and the
    /// hashed third filter is sized to the group's long-pattern count
    /// ([`SPatchTables::filter3_bits_for`]) instead of the monolithic 16 KB
    /// default — a 40-rule group gets a 128-byte filter 3, which is what
    /// keeps N groups' fixed overhead from multiplying into megabytes.
    /// Match semantics are identical to [`SPatchTables::build`].
    ///
    /// Every pattern of `set` must already be interned in `arena`.
    pub fn build_with_arena(set: &PatternSet, arena: &PatternArena) -> Self {
        let long_count = set.patterns().iter().filter(|p| p.len() >= 4).count();
        Self::build_inner(set, Self::filter3_bits_for(long_count), Some(arena))
    }

    /// Filter-3 sizing for per-group tables: about 8 bits per long pattern
    /// (`ceil_log2(n) + 3`), clamped to `[HashedFilter::MIN_BITS_LOG2 = 10,
    /// DEFAULT_BITS = 17]` — small groups stay selective at a few hundred
    /// bytes, and a group as large as the monolithic set gets the paper's
    /// default size back.
    pub fn filter3_bits_for(long_patterns: usize) -> u32 {
        let n = long_patterns.max(1);
        let ceil_log2 = usize::BITS - n.next_power_of_two().leading_zeros() - 1;
        (ceil_log2 + 3).clamp(10, HashedFilter::DEFAULT_BITS)
    }

    fn build_inner(set: &PatternSet, filter3_bits: u32, arena: Option<&PatternArena>) -> Self {
        let is_short = |p: &mpm_patterns::Pattern| p.len() < 4;
        let is_long = |p: &mpm_patterns::Pattern| p.len() >= 4;
        // Per-group (arena-backed) tables size the direct filters to the
        // group's window population, just as filter 3 is sized to its
        // long-pattern count: a 40-rule port group gets a pair of ~1 KB
        // bitmaps instead of two full 8 KB ones. Both filters share one size
        // because the merged interleaved table requires it (and the engines
        // mask windows once per block). The monolithic path keeps the paper's
        // full 2^16 windows.
        let direct_bits = if arena.is_some() {
            direct_filter_bits_for(direct_filter_window_count(set, is_short)).max(
                direct_filter_bits_for(direct_filter_window_count(set, is_long)),
            )
        } else {
            DIRECT_FILTER_FULL_BITS
        };
        // Every filter and table folds case if (and only if) the set has a
        // `nocase` pattern, so the engines fold input windows on the same
        // condition. The two direct filters live only as long as the merge.
        let merged = MergedDirectFilters::merge(
            &DirectFilter::build(set, direct_bits, is_short),
            &DirectFilter::build(set, direct_bits, is_long),
        );
        // The long table's bucket count follows its entry count; with an
        // arena, both tables reference its bytes instead of owning a copy.
        let long_count = set.patterns().iter().filter(|p| is_long(p)).count();
        SPatchTables {
            merged,
            filter3: HashedFilter::build(set, filter3_bits, is_long),
            short: CompactHashTable::build(set, 1, 8, is_short, arena),
            long: CompactHashTable::build(
                set,
                4,
                bucket_bits_for_entries(long_count),
                is_long,
                arena,
            ),
            has_short: set.patterns().iter().any(is_short),
            has_long: set.patterns().iter().any(is_long),
            folded: set.has_nocase(),
            pattern_count: set.len(),
            max_pattern_len: set.patterns().iter().map(|p| p.len()).max().unwrap_or(0),
        }
    }

    /// True if the tables were built over ASCII-case-folded bytes (the set
    /// contains a `nocase` pattern); the engines fold input windows to match.
    pub fn is_folded(&self) -> bool {
        self.folded
    }

    /// Number of patterns the tables were built from.
    pub fn pattern_count(&self) -> usize {
        self.pattern_count
    }

    /// Length of the longest pattern the tables were built from (`0` for an
    /// empty set). Chunked/streaming callers must overlap consecutive chunks
    /// by `max_pattern_len - 1` bytes to keep boundary matches.
    pub fn max_pattern_len(&self) -> usize {
        self.max_pattern_len
    }

    /// **Filtering round** over window positions `start..end` with scalar
    /// lookups (lines 3–14 of Algorithm 1): each 2-byte window is tested
    /// against filters 1 and 2 in the merged bytes, a filter-2 hit with a
    /// whole 4-byte window against filter 3, and the survivors are appended
    /// to `scratch.a_short` / `scratch.a_long`. Window *bytes* are read
    /// across `end`, so any partition of `0..n` yields the candidate arrays
    /// of one whole-input pass. The final byte has no 2-byte window; only
    /// 1-byte patterns can start there, so it goes straight to the short
    /// array — once, by whichever range ends at the input's end.
    ///
    /// S-PATCH runs it over the whole range, V-PATCH over the positions its
    /// vector blocks leave. `FOLD` (the tables are folded) ASCII-case-folds
    /// the window bytes before every lookup; the two variants are
    /// monomorphized separately so a case-sensitive-only set runs the
    /// byte-exact loop.
    pub(crate) fn filter_scalar<const FOLD: bool>(
        &self,
        haystack: &[u8],
        start: usize,
        end: usize,
        scratch: &mut Scratch,
    ) {
        let n = haystack.len();
        debug_assert!(start <= end && end <= n);
        if start >= end {
            return;
        }
        assert!(
            n < u32::MAX as usize,
            "scan chunks must be smaller than 4 GiB"
        );
        for i in start..end.min(n - 1) {
            let b0 = fold_byte(haystack[i], FOLD);
            let b1 = fold_byte(haystack[i + 1], FOLD);
            let window = u16::from_le_bytes([b0, b1]);
            if self.has_short && self.merged.contains_f1(window) {
                scratch.a_short.push(i as u32);
            }
            if self.has_long && self.merged.contains_f2(window) && i + 4 <= n {
                let window4 = u32::from_le_bytes([
                    b0,
                    b1,
                    fold_byte(haystack[i + 2], FOLD),
                    fold_byte(haystack[i + 3], FOLD),
                ]);
                if self.filter3.contains(window4) {
                    scratch.a_long.push(i as u32);
                }
            }
        }
        if end == n && self.has_short {
            scratch.a_short.push((n - 1) as u32);
        }
    }

    /// **Verification round** (lines 15–20 of Algorithm 1), batched: the
    /// candidate arrays are replayed through the short and the long table's
    /// [`CompactHashTable::verify_batch`] on backend `B` — bucket indices
    /// hashed `W` at a time, the table walk prefetch-pipelined `K`
    /// candidates deep, each bucket tested `W` entries per step — and
    /// confirmed matches are appended to `out`.
    /// Returns the number of pattern comparisons performed (identical, by
    /// construction and by the differential suite, to one table lookup per
    /// candidate).
    ///
    /// V-PATCH verifies on its own backend; S-PATCH stays the paper's scalar
    /// engine on [`mpm_simd::ScalarBackend`] at 8 lanes, whose bucket test
    /// is the per-entry loop. With the tables cache-resident, what a
    /// verification costs is instructions and branches per bucket entry,
    /// not memory latency: the prefetch pipeline hides the loads, and the
    /// vector bucket test is what removes the per-entry branches.
    pub(crate) fn verify_round<B: VectorBackend<W>, const W: usize>(
        &self,
        haystack: &[u8],
        scratch: &Scratch,
        out: &mut Vec<MatchEvent>,
    ) -> u64 {
        self.short
            .verify_batch::<B, W>(haystack, &scratch.a_short, out)
            + self
                .long
                .verify_batch::<B, W>(haystack, &scratch.a_long, out)
    }

    /// [`mpm_patterns::Matcher::find_into`] for `engine`, an engine built on
    /// these tables: the chunked two-round scan on the thread's cached
    /// scratch.
    pub(crate) fn find_into<E: TwoRound<Pad = Scratch>>(
        &self,
        engine: &E,
        haystack: &[u8],
        out: &mut Vec<MatchEvent>,
    ) {
        scratch::with_cached_scratch(|scratch| {
            mpm_graph::scan(
                engine,
                haystack,
                0..haystack.len(),
                DEFAULT_CHUNK,
                scratch,
                out,
            )
        });
    }

    /// [`mpm_patterns::Matcher::scan_with_stats`] for `engine`: the timed
    /// scan, plus the filter-3 lane counters the scan left in the scratch
    /// (V-PATCH's vector blocks count them; S-PATCH's stay zero).
    pub(crate) fn scan_with_stats<E: TwoRound<Pad = Scratch>>(
        &self,
        engine: &E,
        haystack: &[u8],
    ) -> MatcherStats {
        scratch::with_cached_scratch(|scratch| {
            scratch.clear();
            let stats = mpm_graph::scan_with_stats(
                engine,
                haystack,
                DEFAULT_CHUNK,
                scratch,
                &mut Vec::new(),
            );
            MatcherStats {
                filter3_blocks: scratch.filter3_blocks,
                useful_lanes: scratch.useful_lanes,
                ..stats
            }
        })
    }

    /// [`mpm_patterns::Matcher::find_in`] for `engine`, an engine built on
    /// these tables: filters only `starts` in the thread's cached scratch,
    /// then reads the resume point off the candidate array the last chunk
    /// left there (`resume_point`).
    pub(crate) fn find_in<E: TwoRound<Pad = Scratch>>(
        &self,
        engine: &E,
        haystack: &[u8],
        starts: Range<usize>,
        out: &mut Vec<MatchEvent>,
    ) -> usize {
        scratch::with_cached_scratch(|scratch| {
            let last_chunk = mpm_graph::scan(
                engine,
                haystack,
                starts.clone(),
                DEFAULT_CHUNK,
                scratch,
                out,
            );
            self.resume_point(haystack, &starts, last_chunk, &scratch.a_long)
        })
    }

    /// [`mpm_patterns::Matcher::find_in_segments`] for `engine`, an engine
    /// built on these tables: **one** two-round scan over the concatenation
    /// instead of one per input, so a run of packet-sized inputs pays the
    /// scratch borrow, the dispatch region and the verify batch set-up once
    /// and leaves only the run's last few positions to the scalar tail.
    ///
    /// Why one scan is exact. The filters are a superset at every position
    /// whatever the bytes after it are: a position with its whole window
    /// inside its input sees the bytes it would see alone, and one whose
    /// window runs into the next input can only gain candidates (an input's
    /// last byte passes filter 1 for every 1-byte pattern, which marks all
    /// windows that begin with its byte). Verification compares whole
    /// patterns against the concatenation, so what it confirms is a true
    /// occurrence there — inside one input, or running over its end, which
    /// `lengths` tells apart. Each input's resume point is then read off the
    /// same `a_long` array ([`SPatchTables::resume_point`] on the haystack cut at the
    /// input's end), which still holds every input's candidates because the
    /// whole haystack was one chunk; a longer haystack goes input by input.
    pub(crate) fn find_in_segments<E: TwoRound<Pad = Scratch> + Matcher>(
        &self,
        engine: &E,
        haystack: &[u8],
        ends: &[usize],
        lengths: &[u32],
        out: &mut Vec<MatchEvent>,
        resumes: &mut Vec<usize>,
    ) {
        if haystack.len() > DEFAULT_CHUNK {
            return find_in_each_segment(engine, haystack, ends, out, resumes);
        }
        assert_eq!(
            ends.last().copied().unwrap_or(0),
            haystack.len(),
            "the last input must end where the haystack does"
        );
        scratch::with_cached_scratch(|scratch| {
            let first = out.len();
            let last_chunk = mpm_graph::scan(
                engine,
                haystack,
                0..haystack.len(),
                DEFAULT_CHUNK,
                scratch,
                out,
            );
            assert_eq!(last_chunk, 0, "a run is scanned as one chunk");
            let mut kept = first;
            for i in first..out.len() {
                let m = out[i];
                let end = ends[ends.partition_point(|&end| end <= m.start)];
                if m.start + lengths[m.pattern.index()] as usize <= end {
                    out[kept] = m;
                    kept += 1;
                }
            }
            out.truncate(kept);
            let mut start = 0;
            for &end in ends {
                assert!(start <= end, "input ends must ascend");
                let resume = self.resume_point(&haystack[..end], &(start..end), 0, &scratch.a_long);
                resumes.push(resume);
                start = end;
            }
        });
    }

    /// The resume point of [`mpm_patterns::Matcher::find_in`], from what the
    /// scan that just ran over `starts` already knows: `a_long` is the long
    /// candidate array its last chunk (which began at `last_chunk`) left in
    /// the scratch, in ascending order.
    ///
    /// Only starts at or after the horizon `len - (max_pattern_len - 1)` can
    /// run off the end at all. Of those,
    ///
    /// * a start with a whole 4-byte window (`pos + 4 <= len`) can only be a
    ///   long pattern in progress if it passed filters 2 + 3 — so it is in
    ///   `a_long` — **and** a pattern in its verify bucket is longer than
    ///   the bytes left and agrees with all of them
    ///   ([`mpm_verify::CompactHashTable::prefix_live_at`]); short patterns
    ///   (1–3 bytes) reach at most two bytes past their start, so they never
    ///   run off the end from there;
    /// * the last three starts have no whole window and were never filtered
    ///   for long patterns: they always count as in progress.
    ///
    /// The answer is therefore the first live entry of `a_long` at or after
    /// the horizon, else `len - 3`. The walk examines at most
    /// `RESUME_WALK_BUDGET` entries and then returns the first one it did
    /// not examine — earlier than necessary, never later, so the bound costs
    /// carried bytes, not exactness. When the last chunk began after the
    /// horizon, the candidates of the chunk before it are gone and the
    /// horizon itself is returned.
    ///
    /// `a_long` may run on past `haystack` (it does when `haystack` is one
    /// input of a longer scan, [`SPatchTables::find_in_segments`]): the walk
    /// stops at the first entry without a whole window inside `haystack`.
    fn resume_point(
        &self,
        haystack: &[u8],
        starts: &Range<usize>,
        last_chunk: usize,
        a_long: &[u32],
    ) -> usize {
        let horizon = resume_horizon(haystack.len(), self.max_pattern_len, starts);
        // An empty range ran no filter round: `a_long` is another scan's.
        if starts.is_empty() || last_chunk > horizon {
            return horizon;
        }
        let in_tail = a_long.partition_point(|&pos| (pos as usize) < horizon);
        for (examined, &pos) in a_long[in_tail..].iter().enumerate() {
            let pos = pos as usize;
            if pos + 4 > haystack.len() {
                break;
            }
            if examined == RESUME_WALK_BUDGET || self.long.prefix_live_at(haystack, pos) {
                return pos;
            }
        }
        haystack.len().saturating_sub(3).clamp(horizon, starts.end)
    }

    /// Resident size of the filtering-round structures (must stay cache
    /// resident for the design to work; the paper sizes them for L1/L2).
    pub fn filter_bytes(&self) -> usize {
        self.merged.heap_bytes() + self.filter3.heap_bytes()
    }

    /// Resident size of the verification hash tables.
    pub fn table_bytes(&self) -> usize {
        self.short.heap_bytes() + self.long.heap_bytes()
    }

    /// [`mpm_patterns::Matcher::memory_footprint`] of either engine: the
    /// filters, and the verification tables.
    pub(crate) fn memory_footprint(&self) -> MemoryFootprint {
        MemoryFootprint {
            filter_bytes: self.filter_bytes(),
            verify_bytes: self.table_bytes(),
            other_bytes: 0,
        }
    }

    /// The short-pattern verification table, for inspection and cache
    /// replay.
    pub fn short_table(&self) -> &CompactHashTable {
        &self.short
    }

    /// The long-pattern verification table, for inspection and cache
    /// replay.
    pub fn long_table(&self) -> &CompactHashTable {
        &self.long
    }

    /// Filters 1 and 2 (interleaved), for inspection and cache replay.
    pub fn merged(&self) -> &MergedDirectFilters {
        &self.merged
    }

    /// Filter 3 (hashed, long patterns), for inspection and cache replay.
    pub fn filter3(&self) -> &HashedFilter {
        &self.filter3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpm_patterns::PatternSet;

    #[test]
    fn short_long_split_follows_the_four_byte_boundary() {
        let set = PatternSet::from_literals(&["abc", "abcd"]);
        let t = SPatchTables::build(&set);
        assert!(t.has_short);
        assert!(t.has_long);
        // "abc" is short: its prefix lives in filter 1 only.
        assert!(t.merged.contains_f1(u16::from_le_bytes([b'a', b'b'])));
        // "abcd" is long: prefix in filter 2 and its 4-byte head in filter 3.
        assert!(t.merged.contains_f2(u16::from_le_bytes([b'a', b'b'])));
        assert!(t.filter3.contains(u32::from_le_bytes(*b"abcd")));
    }

    #[test]
    fn filters_fit_in_cache_even_for_large_rulesets() {
        let lits: Vec<String> = (0..20_000)
            .map(|i| format!("pattern-{i:06}-payload"))
            .collect();
        let set = PatternSet::from_literals(&lits);
        let t = SPatchTables::build(&set);
        // 16 KB merged direct + 16 KB hashed ≈ 32 KB:
        // the whole filtering working set fits in L1d/L2 as the paper requires.
        assert!(t.filter_bytes() <= 48 * 1024, "got {}", t.filter_bytes());
        assert!(t.table_bytes() > 256 * 1024);
        assert_eq!(t.pattern_count(), 20_000);
    }

    #[test]
    fn only_short_or_only_long_sets() {
        let short_only = SPatchTables::build(&PatternSet::from_literals(&["ab", "c"]));
        assert!(short_only.has_short && !short_only.has_long);
        let long_only = SPatchTables::build(&PatternSet::from_literals(&["abcd", "efghij"]));
        assert!(!long_only.has_short && long_only.has_long);
    }

    #[test]
    fn nocase_sets_build_folded_tables_and_exact_sets_do_not() {
        use mpm_patterns::Pattern;
        let exact = SPatchTables::build(&PatternSet::from_literals(&["GeT", "AbCd"]));
        assert!(!exact.is_folded());
        // Exact tables index on the original bytes.
        assert!(exact.merged.contains_f1(u16::from_le_bytes([b'G', b'e'])));
        assert!(!exact.merged.contains_f1(u16::from_le_bytes([b'g', b'e'])));

        let mixed = SPatchTables::build(&PatternSet::new(vec![
            Pattern::literal_nocase(*b"GeT"),
            Pattern::literal(*b"AbCd"),
        ]));
        assert!(mixed.is_folded());
        // Folded tables index every pattern — nocase or not — on the folded
        // bytes; the engines fold the input windows to match.
        assert!(mixed.merged.contains_f1(u16::from_le_bytes([b'g', b'e'])));
        assert!(mixed.merged.contains_f2(u16::from_le_bytes([b'a', b'b'])));
        assert!(mixed.filter3.contains(u32::from_le_bytes(*b"abcd")));
    }

    #[test]
    fn arena_tables_shrink_the_direct_filters_for_small_groups() {
        use mpm_patterns::ArenaBuilder;
        let lits: Vec<String> = (0..40).map(|i| format!("group-rule-{i:02}")).collect();
        let set = PatternSet::from_literals(&lits);
        let mut b = ArenaBuilder::new();
        for p in set.patterns() {
            b.intern(p.bytes());
        }
        let arena = b.finish();
        let grouped = SPatchTables::build_with_arena(&set, &arena);
        let monolithic = SPatchTables::build(&set);
        // 40 windows ⇒ 10-bit direct filters (128 B payloads) instead of the
        // monolithic 2^16 (8 KB each); the filter working set shrinks by an
        // order of magnitude while the lookups stay a superset-exact mask.
        assert_eq!(grouped.merged.bits_log2(), 10);
        assert!(
            grouped.filter_bytes() * 8 < monolithic.filter_bytes(),
            "grouped {} vs monolithic {}",
            grouped.filter_bytes(),
            monolithic.filter_bytes()
        );

        // A big group saturates back to the full-size filters.
        let many: Vec<String> = (0..20_000).map(|i| format!("pat-{i:05}-xyz")).collect();
        let big_set = PatternSet::from_literals(&many);
        let mut bb = ArenaBuilder::new();
        for p in big_set.patterns() {
            bb.intern(p.bytes());
        }
        let big = SPatchTables::build_with_arena(&big_set, &bb.finish());
        assert_eq!(big.merged.bits_log2(), DIRECT_FILTER_FULL_BITS);
    }

    #[test]
    fn filter3_size_is_configurable() {
        let set = PatternSet::from_literals(&["abcdef"]);
        let small = SPatchTables::build_with_filter3_bits(&set, 12);
        let large = SPatchTables::build_with_filter3_bits(&set, 20);
        assert!(small.filter3().heap_bytes() < large.filter3().heap_bytes());
    }
}
