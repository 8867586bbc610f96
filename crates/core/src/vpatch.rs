//! V-PATCH: the vectorized filtering engine (Algorithm 2 of the paper),
//! generic over the SIMD backend — the [`SPatchTables`] engine with `W`-lane
//! gathers over the merged filter. Its one vector loop leaves the last few
//! positions to the scalar loop S-PATCH runs, and everything past the
//! filtering round is the shared engine's.
//!
//! The filtering pipeline is **register-resident**: every value flowing
//! between the backend ops in `VPatch::process_block` has the backend's
//! native register type (`VectorBackend::Vec`), so the composed
//! `windows2 → gather_u16 → shift/mask → test` chain compiles to one
//! straight-line kernel with no array materialisation between ops. Candidate
//! positions leave the registers through the vectorized
//! [`VectorBackend::compress_store`] primitive (`vpcompressd` on AVX-512, a
//! `vpermd` LUT on AVX2) instead of a scalar bit-drain of the lane mask —
//! the paper's Figure 6 shows those stores are the main cost on top of pure
//! filtering, so they get the same vector treatment as the filters.

use crate::scratch::Scratch;
use crate::tables::SPatchTables;
use mpm_graph::{Chunk, TwoRound};
use mpm_patterns::{MatchEvent, Matcher, MatcherStats, MemoryFootprint, PatternSet};
use mpm_simd::VectorBackend;
use mpm_verify::HASH_MULTIPLIER;
use std::marker::PhantomData;
use std::ops::Range;

/// Which variant of the filtering-only measurement to run
/// (Figure 6 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FilterOnlyMode {
    /// Filtering including the cost of storing candidate positions into the
    /// temporary arrays ("V-PATCH-filtering+stores" in Figure 6).
    WithStores,
    /// Pure filtering: lane masks are computed and counted but candidate
    /// positions are not stored ("V-PATCH-filtering").
    NoStores,
}

/// V-PATCH engine, generic over the SIMD backend `B` and lane count `W`.
///
/// Use the aliases [`crate::VPatchAvx2`] / [`crate::VPatchAvx512`] /
/// [`crate::VPatchScalar8`] or the [`crate::build_auto`] factory.
#[derive(Clone, Debug)]
pub struct VPatch<B: VectorBackend<W>, const W: usize> {
    tables: SPatchTables,
    _backend: PhantomData<B>,
}

impl<B: VectorBackend<W>, const W: usize> VPatch<B, W> {
    /// Compiles V-PATCH for `set`.
    ///
    /// # Panics
    /// Panics if the SIMD backend is not available on this CPU; check
    /// [`VectorBackend::is_available`] or use [`crate::build_auto`].
    pub fn build(set: &PatternSet) -> Self {
        Self::from_tables(SPatchTables::build(set))
    }

    /// Builds from already-compiled tables.
    ///
    /// # Panics
    /// Panics if the SIMD backend is not available on this CPU.
    pub fn from_tables(tables: SPatchTables) -> Self {
        assert!(
            B::is_available(),
            "SIMD backend {} is not available on this CPU",
            B::name()
        );
        VPatch {
            tables,
            _backend: PhantomData,
        }
    }

    /// The compiled tables.
    pub fn tables(&self) -> &SPatchTables {
        &self.tables
    }

    /// Number of lanes processed per vector iteration.
    pub const fn lanes(&self) -> usize {
        W
    }

    /// Processes one vector block of `W` positions starting at `base`.
    ///
    /// Returns `(mask_short, mask_long)`: the lane masks that passed
    /// filter 1 and filters 2+3 respectively. When `STORE` is true the
    /// corresponding positions are appended to the scratch arrays through
    /// the backend's `compress_store`. When `FOLD` is true (folded tables:
    /// the set contains a `nocase` pattern) the window registers are
    /// ASCII-case-folded with [`VectorBackend::to_ascii_lower`] before the
    /// gathers and hashes, matching the folded bytes the tables were built
    /// over; `FOLD = false` compiles to the historical byte-exact kernel.
    ///
    /// Always inlined into the dispatch-wrapped loop so the backend's
    /// intrinsics fuse into one straight-line kernel and every intermediate
    /// `B::Vec` stays in a vector register.
    #[inline(always)]
    fn process_block<const STORE: bool, const FOLD: bool>(
        t: &SPatchTables,
        haystack: &[u8],
        base: usize,
        scratch: &mut Scratch,
    ) -> (u32, u32) {
        // Input transformation (Figure 2): W overlapping 2-byte windows.
        let windows = B::windows2(haystack, base);
        let windows = if FOLD {
            B::to_ascii_lower(windows)
        } else {
            windows
        };
        // Filter merging (Figure 3): one gather serves both filters. The
        // merged layout stores filter-1/filter-2 bytes at 2*((window & mask)
        // >> 3), computed branch-free as (window >> 2) & gather_index_mask —
        // the mask subsumes both the group-adaptive window truncation and
        // the historical !1 byte-pair alignment.
        let merged_idx = B::and_const(B::shr_const(windows, 2), t.merged.gather_index_mask());
        let pair = B::gather_u16(t.merged.bytes(), merged_idx);
        let f1_bytes = B::and_const(pair, 0xff);
        let f2_bytes = B::shr_const(pair, 8);

        let mut mask_short = 0u32;
        if t.has_short {
            mask_short = B::test_window_bits(f1_bytes, windows);
            if STORE && mask_short != 0 {
                B::compress_store(mask_short, base as u32, &mut scratch.a_short);
            }
        }

        let mut mask_long = 0u32;
        if t.has_long {
            let mask2 = B::test_window_bits(f2_bytes, windows);
            // Proceed to the third filter only if at least one lane passed
            // filter 2; the evaluation is then speculative over *all* lanes
            // and masked afterwards (the paper found this cheaper than
            // compacting the register).
            if mask2 != 0 {
                let windows4 = B::windows4(haystack, base);
                let windows4 = if FOLD {
                    B::to_ascii_lower(windows4)
                } else {
                    windows4
                };
                let f3_bits = t.filter3.bits_log2();
                let hashes = B::hash_mul_shift(windows4, HASH_MULTIPLIER, 32 - f3_bits, u32::MAX);
                let f3_idx = B::shr_const(hashes, 3);
                let f3_bytes = B::gather_bytes(t.filter3.bytes(), f3_idx);
                mask_long = B::test_window_bits(f3_bytes, hashes) & mask2;
                scratch.filter3_blocks += 1;
                scratch.useful_lanes += mask2.count_ones() as u64;
                if STORE && mask_long != 0 {
                    B::compress_store(mask_long, base as u32, &mut scratch.a_long);
                }
            }
        }
        (mask_short, mask_long)
    }

    /// **Vectorized filtering round** (Algorithm 2): fills the candidate
    /// arrays in `scratch`. Dispatches to the folded (`nocase`-capable) or
    /// byte-exact kernel depending on how the tables were built, so
    /// case-sensitive-only sets keep the historical code path.
    pub fn filter_round(&self, haystack: &[u8], scratch: &mut Scratch) {
        self.filter_range(haystack, 0, haystack.len(), scratch);
    }

    /// [`VPatch::filter_round`] restricted to window positions
    /// `start..end` — the per-chunk kernel of the engine's [`TwoRound`]
    /// filter round. For any partition of `0..n` into `CHUNK_ALIGN`-aligned
    /// ranges the concatenated candidate arrays (and the filter-3 occupancy
    /// counters) are identical to one whole-input round: windows read
    /// *across* `end` (the haystack is whole, only the window start set is
    /// split), and the vector blocks tile the same `W`-aligned bases.
    fn filter_range(&self, haystack: &[u8], start: usize, end: usize, scratch: &mut Scratch) {
        let t = &self.tables;
        if t.folded {
            Self::filter_range_impl::<true, true>(t, haystack, start, end, scratch);
        } else {
            Self::filter_range_impl::<true, false>(t, haystack, start, end, scratch);
        }
    }

    /// The one vector loop: `W`-lane blocks over `start..end`, two in flight
    /// per iteration, then the scalar loop of [`SPatchTables`] on the
    /// positions no block covered. With `STORE` the blocks append their
    /// candidates to the scratch arrays and the result is 0; without, they
    /// store nothing and the result is the popcount of their lane masks (the
    /// tail still appends, through the caller's scratch).
    fn filter_range_impl<const STORE: bool, const FOLD: bool>(
        t: &SPatchTables,
        haystack: &[u8],
        start: usize,
        end: usize,
        scratch: &mut Scratch,
    ) -> u64 {
        let n = haystack.len();
        debug_assert!(start <= end && end <= n);
        if start >= end {
            return 0;
        }
        assert!(
            n < u32::MAX as usize,
            "scan chunks must be smaller than 4 GiB"
        );
        let mut i = start;
        let mut lanes = 0u64;
        // The whole vector loop runs inside the backend's dispatch trampoline
        // so every gather/shuffle inlines into one kernel (see
        // `VectorBackend::dispatch`).
        B::dispatch(|| {
            // Manual 2× unroll: two independent gathers in flight per
            // iteration, as the paper does to exploit instruction-level
            // parallelism.
            while i + 2 * W <= end && i + 2 * W + 3 <= n {
                let (a1, a2) = Self::process_block::<STORE, FOLD>(t, haystack, i, scratch);
                let (b1, b2) = Self::process_block::<STORE, FOLD>(t, haystack, i + W, scratch);
                if !STORE {
                    lanes += (a1.count_ones() + a2.count_ones() + b1.count_ones() + b2.count_ones())
                        as u64;
                }
                i += 2 * W;
            }
            while i + W <= end && i + W + 3 <= n {
                let (m1, m2) = Self::process_block::<STORE, FOLD>(t, haystack, i, scratch);
                if !STORE {
                    lanes += (m1.count_ones() + m2.count_ones()) as u64;
                }
                i += W;
            }
        });
        t.filter_scalar::<FOLD>(haystack, i, end, scratch);
        lanes
    }

    /// Filtering-only entry point for the Figure 6 experiments: the
    /// filtering round over the whole input, in the caller's `scratch`
    /// (cleared on entry). Returns the candidate count — for
    /// [`FilterOnlyMode::NoStores`] counted off the lane masks, so the
    /// optimizer cannot discard the work, and no candidate position is left
    /// behind.
    pub fn filter_only(&self, haystack: &[u8], mode: FilterOnlyMode, scratch: &mut Scratch) -> u64 {
        scratch.clear();
        if mode == FilterOnlyMode::WithStores {
            self.filter_round(haystack, scratch);
            return scratch.candidates();
        }
        let (t, n) = (&self.tables, haystack.len());
        let lanes = if t.folded {
            Self::filter_range_impl::<false, true>(t, haystack, 0, n, scratch)
        } else {
            Self::filter_range_impl::<false, false>(t, haystack, 0, n, scratch)
        };
        // The scalar tail stored its few candidates; count and drop them.
        let candidates = lanes + scratch.candidates();
        scratch.begin_chunk();
        candidates
    }

    /// **Verification round**, batched on this engine's own backend: the
    /// same registers that filtered the input gather the candidate windows
    /// back and hash the bucket indices `W` at a time. Returns the number of
    /// pattern comparisons performed.
    pub fn verify_round(
        &self,
        haystack: &[u8],
        scratch: &Scratch,
        out: &mut Vec<MatchEvent>,
    ) -> u64 {
        self.tables.verify_round::<B, W>(haystack, scratch, out)
    }
}

/// The two rounds of Algorithm 2 over one chunk, on a [`Scratch`].
impl<B: VectorBackend<W>, const W: usize> TwoRound for VPatch<B, W> {
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
impl<B: VectorBackend<W>, const W: usize> Matcher for VPatch<B, W> {
    fn name(&self) -> &'static str {
        "V-PATCH"
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
    use crate::spatch::SPatch;
    use mpm_patterns::naive::naive_find_all;
    use mpm_simd::{Avx2Backend, Avx512Backend, ScalarBackend};

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
            "\x00\x01",
        ])
    }

    fn sample_input() -> Vec<u8> {
        let mut hay = Vec::new();
        for i in 0..200 {
            hay.extend_from_slice(b"GET /index.php?attr=attribute ");
            if i % 3 == 0 {
                hay.extend_from_slice(b"/etc/passwd attack ");
            }
            hay.push((i % 256) as u8);
            hay.push(0x01);
        }
        hay
    }

    #[test]
    fn scalar_backend_vpatch_equals_naive_and_spatch() {
        let set = mixed_set();
        let hay = sample_input();
        let expected = naive_find_all(&set, &hay);
        let vp = VPatch::<ScalarBackend, 8>::build(&set);
        assert_eq!(vp.find_all(&hay), expected);
        let sp = SPatch::build(&set);
        assert_eq!(sp.find_all(&hay), expected);
    }

    #[test]
    fn avx2_vpatch_equals_naive_when_available() {
        if !<Avx2Backend as VectorBackend<8>>::is_available() {
            return;
        }
        let set = mixed_set();
        let hay = sample_input();
        let vp = VPatch::<Avx2Backend, 8>::build(&set);
        assert_eq!(vp.find_all(&hay), naive_find_all(&set, &hay));
    }

    #[test]
    fn avx512_vpatch_equals_naive_when_available() {
        if !<Avx512Backend as VectorBackend<16>>::is_available() {
            return;
        }
        let set = mixed_set();
        let hay = sample_input();
        let vp = VPatch::<Avx512Backend, 16>::build(&set);
        assert_eq!(vp.find_all(&hay), naive_find_all(&set, &hay));
    }

    #[test]
    fn short_inputs_hit_the_scalar_tail_only() {
        let set = mixed_set();
        let vp = VPatch::<ScalarBackend, 8>::build(&set);
        for hay in [
            &b""[..],
            b"a",
            b"ab",
            b"GET",
            b"abcd",
            b"xyzabc",
            b"0123456789",
            b"GET /etc",
        ] {
            assert_eq!(vp.find_all(hay), naive_find_all(&set, hay), "input {hay:?}");
        }
    }

    #[test]
    fn block_boundaries_do_not_lose_matches() {
        // Place matches exactly around multiples of W and 2W.
        let set = PatternSet::from_literals(&["boundary", "zz"]);
        let vp = VPatch::<ScalarBackend, 8>::build(&set);
        for offset in 0..40 {
            let mut hay = vec![b'.'; 96];
            let start = offset.min(hay.len() - 8);
            hay[start..start + 8].copy_from_slice(b"boundary");
            assert_eq!(
                vp.find_all(&hay),
                naive_find_all(&set, &hay),
                "offset {offset}"
            );
        }
    }

    #[test]
    fn stats_expose_useful_lane_occupancy() {
        let set = mixed_set();
        let vp = VPatch::<ScalarBackend, 8>::build(&set);
        let hay = sample_input();
        let stats = vp.scan_with_stats(&hay);
        assert!(stats.filter3_blocks > 0);
        assert!(stats.useful_lanes > 0);
        let frac = stats.useful_lane_fraction(8).unwrap();
        assert!(frac > 0.0 && frac <= 1.0);
        assert!(stats.filtering_time_fraction().is_some());
    }

    #[test]
    fn stats_are_per_scan_not_accumulated() {
        let set = mixed_set();
        let vp = VPatch::<ScalarBackend, 8>::build(&set);
        let hay = sample_input();
        let first = vp.scan_with_stats(&hay);
        let second = vp.scan_with_stats(&hay);
        // Identical scans through the cached scratch must report identical
        // per-scan counters, not running totals.
        assert_eq!(first.filter3_blocks, second.filter3_blocks);
        assert_eq!(first.useful_lanes, second.useful_lanes);
        assert_eq!(first.candidates, second.candidates);
    }

    #[test]
    fn filter_only_modes_report_consistent_work() {
        let set = mixed_set();
        let vp = VPatch::<ScalarBackend, 8>::build(&set);
        let hay = sample_input();
        let mut scratch = Scratch::new();
        let with_stores = vp.filter_only(&hay, FilterOnlyMode::WithStores, &mut scratch);
        assert_eq!(with_stores, scratch.candidates());
        let mut scratch2 = Scratch::new();
        let no_stores = vp.filter_only(&hay, FilterOnlyMode::NoStores, &mut scratch2);
        // Same lane masks are computed either way, so the checksums agree.
        assert_eq!(no_stores, with_stores);
        // But no positions were stored in NoStores mode.
        assert_eq!(scratch2.candidates(), 0);
    }

    #[test]
    fn filter_only_no_stores_reuses_one_scratch_across_calls() {
        let set = mixed_set();
        let vp = VPatch::<ScalarBackend, 8>::build(&set);
        let hay = sample_input();
        let mut scratch = Scratch::new();
        let first = vp.filter_only(&hay, FilterOnlyMode::NoStores, &mut scratch);
        let again = vp.filter_only(&hay, FilterOnlyMode::NoStores, &mut scratch);
        assert_eq!(first, again, "checksums must not depend on scratch reuse");
        assert_eq!(scratch.candidates(), 0);
    }

    #[test]
    fn wide_scalar_width_sixteen_matches() {
        let set = mixed_set();
        let hay = sample_input();
        let vp = VPatch::<ScalarBackend, 16>::build(&set);
        assert_eq!(vp.find_all(&hay), naive_find_all(&set, &hay));
    }

    fn nocase_set() -> PatternSet {
        use mpm_patterns::Pattern;
        PatternSet::new(vec![
            Pattern::literal_nocase(*b"/Etc/Passwd"),
            Pattern::literal(*b"attribute"),
            Pattern::literal_nocase(*b"AtK"),
            Pattern::literal(*b"GET"),
            Pattern::literal_nocase(*b"z"),
        ])
    }

    fn nocase_input() -> Vec<u8> {
        let mut hay = Vec::new();
        for i in 0..120 {
            hay.extend_from_slice(b"get /ETC/passwd ATTRIBUTE attribute atk ATK Z ");
            if i % 4 == 0 {
                hay.extend_from_slice(b"GET /etc/PASSWD ");
            }
            hay.push(b'A' + (i % 26) as u8);
        }
        hay
    }

    #[test]
    fn nocase_matches_naive_on_scalar_backend() {
        let set = nocase_set();
        let hay = nocase_input();
        let vp = VPatch::<ScalarBackend, 8>::build(&set);
        assert!(vp.tables().is_folded());
        assert_eq!(vp.find_all(&hay), naive_find_all(&set, &hay));
        let vp16 = VPatch::<ScalarBackend, 16>::build(&set);
        assert_eq!(vp16.find_all(&hay), naive_find_all(&set, &hay));
    }

    #[test]
    fn nocase_matches_naive_on_avx2_when_available() {
        if !<Avx2Backend as VectorBackend<8>>::is_available() {
            return;
        }
        let set = nocase_set();
        let hay = nocase_input();
        let vp = VPatch::<Avx2Backend, 8>::build(&set);
        assert_eq!(vp.find_all(&hay), naive_find_all(&set, &hay));
    }

    #[test]
    fn nocase_matches_naive_on_avx512_when_available() {
        if !<Avx512Backend as VectorBackend<16>>::is_available() {
            return;
        }
        let set = nocase_set();
        let hay = nocase_input();
        let vp = VPatch::<Avx512Backend, 16>::build(&set);
        assert_eq!(vp.find_all(&hay), naive_find_all(&set, &hay));
    }

    #[test]
    fn filter_only_modes_agree_on_folded_tables() {
        let set = nocase_set();
        let hay = nocase_input();
        let vp = VPatch::<ScalarBackend, 8>::build(&set);
        let mut scratch = Scratch::new();
        let with_stores = vp.filter_only(&hay, FilterOnlyMode::WithStores, &mut scratch);
        let mut scratch2 = Scratch::new();
        let no_stores = vp.filter_only(&hay, FilterOnlyMode::NoStores, &mut scratch2);
        assert_eq!(with_stores, no_stores);
        assert_eq!(scratch2.candidates(), 0);
    }

    #[test]
    fn long_only_and_short_only_rulesets() {
        let hay = sample_input();
        let long_only = PatternSet::from_literals(&["/etc/passwd", "attribute"]);
        let vp = VPatch::<ScalarBackend, 8>::build(&long_only);
        assert_eq!(vp.find_all(&hay), naive_find_all(&long_only, &hay));
        let short_only = PatternSet::from_literals(&["a", "GE", "xyz"]);
        let vp = VPatch::<ScalarBackend, 8>::build(&short_only);
        assert_eq!(vp.find_all(&hay), naive_find_all(&short_only, &hay));
    }
}
