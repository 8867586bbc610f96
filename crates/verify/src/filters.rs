//! Cache-resident bitmap filters shared by the DFC, S-PATCH and V-PATCH
//! engines.
//!
//! Two kinds of filter appear in the paper:
//!
//! * [`DirectFilter`] — one bit per possible 2-byte window (2^16 bits =
//!   8 KB), indexed directly by the window value. DFC's filters are of this
//!   kind, and S-PATCH's filters 1 and 2 are built as two of them.
//! * [`HashedFilter`] — a bitmap indexed by a multiplicative hash of a
//!   4-byte window. S-PATCH's filter 3 is of this kind; the hash keeps the
//!   filter small enough to stay in L1/L2 while still consulting four bytes
//!   of context.
//!
//! Every filter is built one way, from a pattern set, a size and a
//! selection, and folds ASCII case if and only if the set has a `nocase`
//! pattern. Both kinds expose their backing byte array (padded by the
//! `mpm_simd`-compatible [`FILTER_PADDING`] of 4 bytes) so the vectorized
//! engines can gather from them directly. [`MergedDirectFilters`] implements
//! the paper's filter-merging optimisation: filters 1 and 2 interleaved so
//! one gather fetches both (Figure 3). S-PATCH and V-PATCH keep only the
//! merged form, and their scalar loops read it too.

use mpm_patterns::PatternSet;

/// Extra bytes appended to every filter's backing storage so 4-byte-per-lane
/// hardware gathers never read past the allocation (see `mpm_simd`).
pub const FILTER_PADDING: usize = 4;

/// Full-size direct filter: one bit per possible 2-byte window.
pub const DIRECT_FILTER_FULL_BITS: u32 = 16;

/// Smallest direct filter considered worthwhile (2^10 bits = 128 B). The
/// lower bound also guarantees the index keeps at least the low 3 bits of
/// the window, so the byte/bit split (`window >> 3`, `window & 7`) the SIMD
/// `test_window_bits` contract relies on survives masking.
pub const DIRECT_FILTER_MIN_BITS: u32 = 10;

/// Index bits for a direct filter expected to hold `windows` distinct
/// 2-byte windows: sized so at most ~1/8 of the bits are set (three bits of
/// headroom over ⌈log₂ windows⌉), clamped to
/// [`DIRECT_FILTER_MIN_BITS`]..=[`DIRECT_FILTER_FULL_BITS`]. This is the
/// group-adaptive sizing rule: a port group with a dozen patterns gets a
/// 128 B filter instead of the monolithic 8 KB one.
pub fn direct_filter_bits_for(windows: usize) -> u32 {
    let n = windows.max(1);
    let ceil_log2 = usize::BITS - (n - 1).leading_zeros();
    (ceil_log2 + 3).clamp(DIRECT_FILTER_MIN_BITS, DIRECT_FILTER_FULL_BITS)
}

/// Number of 2-byte windows the selected patterns will set in a direct
/// filter (1-byte patterns set all 256 windows starting with their byte);
/// the sizing input for [`direct_filter_bits_for`]. An over-count from
/// shared prefixes only ever rounds the filter up.
pub fn direct_filter_window_count<F: Fn(&mpm_patterns::Pattern) -> bool>(
    set: &PatternSet,
    select: F,
) -> usize {
    set.iter()
        .filter(|(_, p)| select(p))
        .map(|(_, p)| if p.len() == 1 { 256 } else { 1 })
        .sum()
}

/// A direct-indexed one-bit-per-window filter over the low `bits_log2` bits
/// of a 2-byte window (8 KB + padding at the default full size). Sizes
/// below 16 bits alias windows modulo `2^bits_log2` — strictly more false
/// positives, never a false negative, so exact verification downstream
/// keeps the engine sound.
#[derive(Clone, Debug)]
pub struct DirectFilter {
    bits: Vec<u8>,
    bits_log2: u32,
}

impl DirectFilter {
    /// Creates an empty filter over `2^bits_log2` bits (clamped to
    /// [`DIRECT_FILTER_MIN_BITS`]..=[`DIRECT_FILTER_FULL_BITS`]).
    pub fn with_bits(bits_log2: u32) -> Self {
        let bits_log2 = bits_log2.clamp(DIRECT_FILTER_MIN_BITS, DIRECT_FILTER_FULL_BITS);
        DirectFilter {
            bits: vec![0u8; (1usize << bits_log2) / 8 + FILTER_PADDING],
            bits_log2,
        }
    }

    /// Builds a `2^bits_log2`-bit filter whose bit is set for the first two
    /// bytes of every pattern selected by `select` ([`DIRECT_FILTER_FULL_BITS`]
    /// for the paper's full size; a port group sizes it with
    /// [`direct_filter_bits_for`] over [`direct_filter_window_count`]).
    /// Patterns of length 1 set the bits for **all** 256 windows beginning
    /// with their byte, so a 2-byte sliding window can still detect them
    /// (this is how DFC handles 1-byte patterns).
    ///
    /// The prefix bytes are ASCII-case-folded if and only if `set` contains
    /// a `nocase` pattern (filter-folded / verify-exact: engines fold the
    /// input windows the same way before the lookup, so folding only ever
    /// adds candidates and verification restores per-pattern exactness).
    pub fn build<F: Fn(&mpm_patterns::Pattern) -> bool>(
        set: &PatternSet,
        bits_log2: u32,
        select: F,
    ) -> Self {
        let folded = set.has_nocase();
        let fold = |b: u8| mpm_patterns::fold_byte(b, folded);
        let mut filter = DirectFilter::with_bits(bits_log2);
        for (_, p) in set.iter() {
            if !select(p) {
                continue;
            }
            let bytes = p.bytes();
            if bytes.len() >= 2 {
                filter.set(u16::from_le_bytes([fold(bytes[0]), fold(bytes[1])]));
            } else {
                for second in 0..=255u8 {
                    filter.set(u16::from_le_bytes([fold(bytes[0]), second]));
                }
            }
        }
        filter
    }

    /// Sets the bit for a window value (masked to the filter's index space).
    #[inline]
    pub fn set(&mut self, window: u16) {
        let w = (window as u32) & self.window_mask();
        self.bits[(w >> 3) as usize] |= 1 << (w & 7);
    }

    /// Tests the bit for a window value.
    #[inline]
    pub fn contains(&self, window: u16) -> bool {
        let w = (window as u32) & self.window_mask();
        (self.bits[(w >> 3) as usize] >> (w & 7)) & 1 != 0
    }

    /// Number of index bits (`log2` of the bit count; 16 for a full filter).
    #[inline]
    pub fn bits_log2(&self) -> u32 {
        self.bits_log2
    }

    /// Mask folding a raw window value into this filter's index space.
    /// Always keeps the low 3 bits, so `window & 7` stays the bit index.
    #[inline]
    pub fn window_mask(&self) -> u32 {
        (1u32 << self.bits_log2) - 1
    }

    /// Mask to apply to a raw **byte index** (`window >> 3`) to land inside
    /// this filter's backing array — the SIMD gather form of
    /// [`DirectFilter::window_mask`].
    #[inline]
    pub fn gather_index_mask(&self) -> u32 {
        self.window_mask() >> 3
    }

    /// Number of set bits (used by tests and the filtering-rate analysis).
    pub fn popcount(&self) -> usize {
        self.bits.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// The backing byte array (padded), for gather-based lookups. Index
    /// `window >> 3` selects the byte, bit `window & 7` the bit — exactly
    /// the layout `mpm_simd::VectorBackend::test_window_bits` expects
    /// (`mpm-verify` deliberately does not depend on `mpm-simd`, so this is
    /// a contract in prose rather than an intra-doc link).
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.bits
    }

    /// Resident size in bytes (8 KB + padding at full size).
    pub fn heap_bytes(&self) -> usize {
        self.bits.len()
    }
}

/// A bitmap indexed by a multiplicative hash of a 4-byte window.
#[derive(Clone, Debug)]
pub struct HashedFilter {
    bits: Vec<u8>,
    /// Number of index bits (the table has 2^bits bits).
    bits_log2: u32,
}

impl HashedFilter {
    /// Default size: 2^17 bits (16 KB).
    pub const DEFAULT_BITS: u32 = 17;

    /// Builds a `2^bits_log2`-bit filter from the first four bytes of every
    /// selected pattern, which must all be at least 4 bytes long. The bytes
    /// are ASCII-case-folded if and only if `set` contains a `nocase`
    /// pattern (see [`DirectFilter::build`]); engines fold the input windows
    /// before hashing so the filter stays a superset of the true candidates.
    ///
    /// The paper balances collision rate against cache footprint; the
    /// default used by S-PATCH is [`HashedFilter::DEFAULT_BITS`] (2^17 bits
    /// = 16 KB, fitting L1 together with the 16 KB merged direct filters in
    /// L2).
    pub fn build<F: Fn(&mpm_patterns::Pattern) -> bool>(
        set: &PatternSet,
        bits_log2: u32,
        select: F,
    ) -> Self {
        assert!(
            (10..=24).contains(&bits_log2),
            "unreasonable hashed-filter size"
        );
        let folded = set.has_nocase();
        let fold = |b: u8| mpm_patterns::fold_byte(b, folded);
        let mut filter = HashedFilter {
            bits: vec![0u8; (1usize << bits_log2) / 8 + FILTER_PADDING],
            bits_log2,
        };
        for (_, p) in set.iter() {
            if !select(p) {
                continue;
            }
            let b = p.bytes();
            assert!(b.len() >= 4, "hashed filter requires >= 4-byte patterns");
            filter.insert(u32::from_le_bytes([
                fold(b[0]),
                fold(b[1]),
                fold(b[2]),
                fold(b[3]),
            ]));
        }
        filter
    }

    /// Hash of a 4-byte window into this filter's index space.
    #[inline]
    pub fn hash(&self, window4: u32) -> u32 {
        crate::hash32(window4, self.bits_log2)
    }

    /// Inserts a 4-byte window.
    #[inline]
    pub fn insert(&mut self, window4: u32) {
        let h = self.hash(window4);
        self.bits[(h >> 3) as usize] |= 1 << (h & 7);
    }

    /// Tests a 4-byte window.
    #[inline]
    pub fn contains(&self, window4: u32) -> bool {
        let h = self.hash(window4);
        (self.bits[(h >> 3) as usize] >> (h & 7)) & 1 != 0
    }

    /// Number of index bits (`log2` of the bit count).
    pub fn bits_log2(&self) -> u32 {
        self.bits_log2
    }

    /// Backing byte array (padded) for gather-based lookups; index with the
    /// hash value: byte `h >> 3`, bit `h & 7`.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.bits
    }

    /// Resident size in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.bits.len()
    }
}

/// The paper's filter-merging optimisation (Figure 3): the bytes of filter 1
/// and filter 2 interleaved in one array so a single gather at index
/// `2 * (window >> 3)` brings both filters' bytes into the register
/// (filter 1 in the low byte, filter 2 in the next byte).
#[derive(Clone, Debug)]
pub struct MergedDirectFilters {
    bytes: Vec<u8>,
    bits_log2: u32,
}

impl MergedDirectFilters {
    /// Interleaves two direct filters byte-by-byte. Both filters must be
    /// the same size (build them with the same `bits_log2`).
    pub fn merge(f1: &DirectFilter, f2: &DirectFilter) -> Self {
        assert_eq!(
            f1.bits_log2(),
            f2.bits_log2(),
            "merged filters must be equally sized"
        );
        let payload = (1usize << f1.bits_log2()) / 8;
        let mut bytes = vec![0u8; payload * 2 + FILTER_PADDING];
        for i in 0..payload {
            bytes[2 * i] = f1.bytes()[i];
            bytes[2 * i + 1] = f2.bytes()[i];
        }
        MergedDirectFilters {
            bytes,
            bits_log2: f1.bits_log2(),
        }
    }

    /// Gather index (byte offset) for a window value: both filters' bytes
    /// for `window` live at `2 * ((window & mask) >> 3)` (+0 for filter 1,
    /// +1 for filter 2).
    #[inline]
    pub fn gather_index(&self, window: u32) -> u32 {
        ((window & ((1u32 << self.bits_log2) - 1)) >> 3) * 2
    }

    /// Mask form of [`MergedDirectFilters::gather_index`] for the SIMD
    /// kernels: `gather_index(w) == (w >> 2) & gather_index_mask()`. At the
    /// full 16-bit size this is `0x3ffe` — the even byte offsets of the
    /// interleaved array (the constant the V-PATCH kernel historically
    /// hard-coded as `!1`).
    #[inline]
    pub fn gather_index_mask(&self) -> u32 {
        (((1u32 << self.bits_log2) - 1) >> 2) & !1
    }

    /// Number of index bits of the two merged filters.
    #[inline]
    pub fn bits_log2(&self) -> u32 {
        self.bits_log2
    }

    /// Scalar lookup of filter 1 for a window value.
    #[inline]
    pub fn contains_f1(&self, window: u16) -> bool {
        (self.bytes[self.gather_index(window as u32) as usize] >> (window & 7)) & 1 != 0
    }

    /// Scalar lookup of filter 2 for a window value.
    #[inline]
    pub fn contains_f2(&self, window: u16) -> bool {
        (self.bytes[self.gather_index(window as u32) as usize + 1] >> (window & 7)) & 1 != 0
    }

    /// Backing bytes (padded) for gathers.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Resident size in bytes (16 KB + padding at full size).
    pub fn heap_bytes(&self) -> usize {
        self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpm_patterns::PatternSet;

    #[test]
    fn direct_filter_set_and_test() {
        let mut f = DirectFilter::with_bits(DIRECT_FILTER_FULL_BITS);
        assert_eq!(f.popcount(), 0);
        f.set(0x4142);
        assert!(f.contains(0x4142));
        assert!(!f.contains(0x4143));
        assert_eq!(f.popcount(), 1);
        assert_eq!(f.heap_bytes(), 8192 + FILTER_PADDING);
    }

    #[test]
    fn direct_filter_build_sets_prefix_bits() {
        let set = PatternSet::from_literals(&["GET", "ab"]);
        let f = DirectFilter::build(&set, DIRECT_FILTER_FULL_BITS, |_| true);
        assert!(f.contains(u16::from_le_bytes([b'G', b'E'])));
        assert!(f.contains(u16::from_le_bytes([b'a', b'b'])));
        assert!(!f.contains(u16::from_le_bytes([b'z', b'z'])));
    }

    #[test]
    fn one_byte_patterns_cover_all_second_bytes() {
        let set = PatternSet::from_literals(&["x"]);
        let f = DirectFilter::build(&set, DIRECT_FILTER_FULL_BITS, |_| true);
        for second in 0..=255u8 {
            assert!(f.contains(u16::from_le_bytes([b'x', second])));
        }
        assert_eq!(f.popcount(), 256);
    }

    #[test]
    fn hashed_filter_membership_has_no_false_negatives() {
        let set = PatternSet::from_literals(&["attack-vector", "/etc/passwd", "abcdef"]);
        let f = HashedFilter::build(&set, HashedFilter::DEFAULT_BITS, |_| true);
        for (_, p) in set.iter() {
            let b = p.bytes();
            let w = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            assert!(f.contains(w), "inserted window must be found");
        }
    }

    #[test]
    fn hashed_filter_rejects_most_random_windows() {
        let set = PatternSet::from_literals(&["attack-vector", "/etc/passwd", "abcdef"]);
        let f = HashedFilter::build(&set, HashedFilter::DEFAULT_BITS, |_| true);
        let mut false_positives = 0;
        let total = 10_000u32;
        for i in 0..total {
            let w = i.wrapping_mul(0x0101_0101).wrapping_add(0xdead_beef);
            if f.contains(w) {
                false_positives += 1;
            }
        }
        assert!(
            false_positives < 50,
            "expected < 0.5% false positives with 3 entries, got {false_positives}"
        );
    }

    #[test]
    #[should_panic(expected = ">= 4-byte patterns")]
    fn hashed_filter_rejects_short_patterns() {
        let set = PatternSet::from_literals(&["ab"]);
        let _ = HashedFilter::build(&set, 12, |_| true);
    }

    #[test]
    fn folded_direct_filter_indexes_on_lowercased_prefixes() {
        use mpm_patterns::Pattern;
        let set = PatternSet::new(vec![
            Pattern::literal_nocase(*b"GeT"),
            Pattern::literal(*b"AB"),
        ]);
        let f = DirectFilter::build(&set, DIRECT_FILTER_FULL_BITS, |_| true);
        // Folded build: only the folded window bits are set; engines fold the
        // input windows before the lookup.
        assert!(f.contains(u16::from_le_bytes([b'g', b'e'])));
        assert!(!f.contains(u16::from_le_bytes([b'G', b'E'])));
        assert!(f.contains(u16::from_le_bytes([b'a', b'b'])));
        assert!(!f.contains(u16::from_le_bytes([b'A', b'B'])));
    }

    #[test]
    fn folded_hashed_filter_accepts_folded_prefixes_of_all_patterns() {
        use mpm_patterns::Pattern;
        let set = PatternSet::new(vec![
            Pattern::literal_nocase(*b"PassWord"),
            Pattern::literal(*b"MiXeD-case"),
        ]);
        let f = HashedFilter::build(&set, HashedFilter::DEFAULT_BITS, |_| true);
        assert!(f.contains(u32::from_le_bytes(*b"pass")));
        assert!(f.contains(u32::from_le_bytes(*b"mixe")));
    }

    #[test]
    fn merged_filters_agree_with_separate_lookups() {
        let set1 = PatternSet::from_literals(&["GE", "ab", "zz"]);
        let set2 = PatternSet::from_literals(&["GEToverlong", "qrstuv"]);
        let f1 = DirectFilter::build(&set1, DIRECT_FILTER_FULL_BITS, |_| true);
        let f2 = DirectFilter::build(&set2, DIRECT_FILTER_FULL_BITS, |_| true);
        let merged = MergedDirectFilters::merge(&f1, &f2);
        for w in 0..=u16::MAX {
            assert_eq!(merged.contains_f1(w), f1.contains(w), "f1 mismatch at {w}");
            assert_eq!(merged.contains_f2(w), f2.contains(w), "f2 mismatch at {w}");
        }
        assert_eq!(merged.heap_bytes(), 2 * 8192 + FILTER_PADDING);
    }

    #[test]
    fn adaptive_sizing_rule() {
        // ~1/8 density with clamping at both ends.
        assert_eq!(direct_filter_bits_for(0), DIRECT_FILTER_MIN_BITS);
        assert_eq!(direct_filter_bits_for(1), DIRECT_FILTER_MIN_BITS);
        assert_eq!(direct_filter_bits_for(100), DIRECT_FILTER_MIN_BITS);
        assert_eq!(direct_filter_bits_for(256), 11);
        assert_eq!(direct_filter_bits_for(1 << 12), 15);
        assert_eq!(direct_filter_bits_for(1 << 13), 16);
        assert_eq!(direct_filter_bits_for(1 << 20), DIRECT_FILTER_FULL_BITS);
    }

    #[test]
    fn window_count_expands_one_byte_patterns() {
        let set = PatternSet::from_literals(&["x", "ab", "abcd"]);
        assert_eq!(direct_filter_window_count(&set, |_| true), 258);
        assert_eq!(direct_filter_window_count(&set, |p| p.len() >= 4), 1);
    }

    #[test]
    fn small_filter_is_a_superset_of_the_full_one() {
        // Masked indexing may alias (false positives) but never drops a
        // window the full filter would accept.
        let set = PatternSet::from_literals(&["GET /", "POST /", "ab", "x"]);
        let full = DirectFilter::build(&set, DIRECT_FILTER_FULL_BITS, |_| true);
        let small = DirectFilter::build(&set, 10, |_| true);
        assert_eq!(small.heap_bytes(), 128 + FILTER_PADDING);
        for w in 0..=u16::MAX {
            if full.contains(w) {
                assert!(small.contains(w), "window {w:#06x} lost by downsizing");
            }
        }
    }

    #[test]
    fn small_merged_filters_agree_with_separate_lookups() {
        let set1 = PatternSet::from_literals(&["GE", "ab", "zz"]);
        let set2 = PatternSet::from_literals(&["GEToverlong", "qrstuv"]);
        let f1 = DirectFilter::build(&set1, 11, |_| true);
        let f2 = DirectFilter::build(&set2, 11, |_| true);
        let merged = MergedDirectFilters::merge(&f1, &f2);
        assert_eq!(merged.heap_bytes(), 2 * 256 + FILTER_PADDING);
        for w in 0..=u16::MAX {
            assert_eq!(merged.contains_f1(w), f1.contains(w), "f1 mismatch at {w}");
            assert_eq!(merged.contains_f2(w), f2.contains(w), "f2 mismatch at {w}");
            // The SIMD form of the index matches the scalar one.
            assert_eq!(
                merged.gather_index(w as u32),
                (w as u32 >> 2) & merged.gather_index_mask(),
            );
        }
    }

    #[test]
    fn full_size_gather_mask_matches_the_historical_constant() {
        let set = PatternSet::from_literals(&["ab", "abcd"]);
        let f = DirectFilter::build(&set, DIRECT_FILTER_FULL_BITS, |_| true);
        let merged = MergedDirectFilters::merge(&f, &f);
        assert_eq!(merged.gather_index_mask(), 0x3ffe);
        assert_eq!(f.gather_index_mask(), 0x1fff);
    }

    #[test]
    fn filters_are_cache_sized() {
        // The headline property the paper relies on: the whole filtering
        // working set fits comfortably in L1/L2.
        let set = PatternSet::from_literals(&["GET /", "POST /", "/etc/passwd"]);
        let f1 = DirectFilter::build(&set, DIRECT_FILTER_FULL_BITS, |p| p.len() < 4);
        let f2 = DirectFilter::build(&set, DIRECT_FILTER_FULL_BITS, |p| p.len() >= 4);
        let f3 = HashedFilter::build(&set, HashedFilter::DEFAULT_BITS, |p| p.len() >= 4);
        let total = f1.heap_bytes() + f2.heap_bytes() + f3.heap_bytes();
        assert!(total <= 64 * 1024, "filters must fit in L1/L2, got {total}");
    }
}
