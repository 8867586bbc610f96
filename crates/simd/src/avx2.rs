//! AVX2 backend (8 × 32-bit lanes) — the paper's Haswell configuration.
//!
//! Uses the instructions the paper singles out: `vpgatherdd`
//! (`_mm256_i32gather_epi32`) for the filter lookups, byte shuffles /
//! zero-extensions for the sliding-window transformation, variable per-lane
//! shifts for the bitmap bit test and `movemask` to hand the per-lane
//! results back to scalar control flow. Its register type is `__m256i`, so
//! chained trait ops stay in `ymm` registers with no array spill between
//! them.
//!
//! AVX2 has no compress instruction, so
//! [`VectorBackend::compress_store`] is implemented with the classic
//! left-packing idiom: a 256-entry LUT maps the 8-bit lane mask to a lane
//! permutation, `vpermd` (`_mm256_permutevar8x32_epi32`) packs the surviving
//! `base + lane` positions to the front of the register, and one unaligned
//! store plus a `popcnt` length bump publishes them.
//!
//! # Availability
//! All methods assume the CPU supports AVX2. Engine constructors check
//! [`Avx2Backend::is_available`] once and fall back to the scalar backend
//! otherwise; on non-x86_64 targets every method forwards to the scalar
//! implementation.

#[cfg(not(target_arch = "x86_64"))]
use crate::scalar::ScalarBackend;
use crate::VectorBackend;
#[cfg(all(target_arch = "x86_64", debug_assertions))]
use crate::GATHER_PADDING;

/// Zero-sized marker type selecting the AVX2 implementation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Avx2Backend;

#[cfg(target_arch = "x86_64")]
mod imp {
    use super::*;
    use crate::BUCKET_LEN_MASK;
    use std::arch::x86_64::*;

    #[inline]
    fn to_m256i(v: [u32; 8]) -> __m256i {
        // SAFETY: [u32; 8] and __m256i have the same size; loadu has no
        // alignment requirement.
        unsafe { _mm256_loadu_si256(v.as_ptr() as *const __m256i) }
    }

    #[inline]
    fn from_m256i(v: __m256i) -> [u32; 8] {
        let mut out = [0u32; 8];
        // SAFETY: storeu writes 32 bytes into a 32-byte array.
        unsafe { _mm256_storeu_si256(out.as_mut_ptr() as *mut __m256i, v) };
        out
    }

    /// Lane-permutation LUT for the left-packing `compress_store`: entry `m`
    /// lists, front-packed, the indices of the set bits of `m` (unused tail
    /// lanes repeat 0 and are never published).
    static COMPRESS_LUT: [[u32; 8]; 256] = build_compress_lut();

    const fn build_compress_lut() -> [[u32; 8]; 256] {
        let mut lut = [[0u32; 8]; 256];
        let mut m = 0usize;
        while m < 256 {
            let mut dst = 0usize;
            let mut lane = 0usize;
            while lane < 8 {
                if m & (1 << lane) != 0 {
                    lut[m][dst] = lane as u32;
                    dst += 1;
                }
                lane += 1;
            }
            m += 1;
        }
        lut
    }

    /// Zero-extends the 8 bytes starting at `ptr + offset` into 8 u32 lanes.
    ///
    /// # Safety
    /// Caller must guarantee AVX2 is available and that at least
    /// `offset + 16` bytes are readable from `ptr` (we load 16 bytes and use
    /// the low 8).
    #[target_feature(enable = "avx2")]
    unsafe fn load_bytes_as_u32(ptr: *const u8, offset: usize) -> __m256i {
        let raw = _mm_loadu_si128(ptr.add(offset) as *const __m128i);
        _mm256_cvtepu8_epi32(raw)
    }

    /// # Safety: AVX2 required and `pos + 9 <= input.len()`. Reads either
    /// directly from the input (fast path, when at least 17 bytes remain) or
    /// from a bounded stack copy near the end of the buffer.
    #[target_feature(enable = "avx2")]
    unsafe fn windows2_avx2(input: &[u8], pos: usize) -> __m256i {
        let block;
        let ptr = if pos + 17 <= input.len() {
            input.as_ptr().add(pos)
        } else {
            block = block_at(input, pos, 9);
            block.as_ptr()
        };
        let lo = load_bytes_as_u32(ptr, 0);
        let hi = load_bytes_as_u32(ptr, 1);
        _mm256_or_si256(lo, _mm256_slli_epi32(hi, 8))
    }

    /// # Safety: AVX2 required and `pos + 11 <= input.len()`.
    #[target_feature(enable = "avx2")]
    unsafe fn windows4_avx2(input: &[u8], pos: usize) -> __m256i {
        let block;
        let ptr = if pos + 19 <= input.len() {
            input.as_ptr().add(pos)
        } else {
            block = block_at(input, pos, 11);
            block.as_ptr()
        };
        let b0 = load_bytes_as_u32(ptr, 0);
        let b1 = load_bytes_as_u32(ptr, 1);
        let b2 = load_bytes_as_u32(ptr, 2);
        let b3 = load_bytes_as_u32(ptr, 3);
        _mm256_or_si256(
            _mm256_or_si256(b0, _mm256_slli_epi32(b1, 8)),
            _mm256_or_si256(_mm256_slli_epi32(b2, 16), _mm256_slli_epi32(b3, 24)),
        )
    }

    /// Trampoline that gives the caller's code AVX2 codegen context so the
    /// `#[target_feature]` kernels above can be inlined into it.
    ///
    /// # Safety: AVX2 must be available (checked by the safe `dispatch`).
    #[target_feature(enable = "avx2")]
    unsafe fn dispatch_avx2<R>(f: impl FnOnce() -> R) -> R {
        f()
    }

    /// # Safety: AVX2 required; every `idx[j] + 4 <= table.len()`.
    #[target_feature(enable = "avx2")]
    unsafe fn gather_bytes_avx2(table: &[u8], idx: __m256i) -> __m256i {
        // Scale 1: indices are byte offsets. The gather loads 4 bytes per
        // lane, which is why tables carry GATHER_PADDING trailing bytes.
        let gathered = _mm256_i32gather_epi32(table.as_ptr() as *const i32, idx, 1);
        _mm256_and_si256(gathered, _mm256_set1_epi32(0xff))
    }

    /// # Safety: AVX2 required; every `idx[j] + 4 <= table.len()`.
    #[target_feature(enable = "avx2")]
    unsafe fn gather_u16_avx2(table: &[u8], idx: __m256i) -> __m256i {
        let gathered = _mm256_i32gather_epi32(table.as_ptr() as *const i32, idx, 1);
        _mm256_and_si256(gathered, _mm256_set1_epi32(0xffff))
    }

    /// # Safety: AVX2 required; every `idx[j] + 4 <= table.len()`.
    #[target_feature(enable = "avx2")]
    unsafe fn gather_u32_avx2(table: &[u8], idx: __m256i) -> __m256i {
        _mm256_i32gather_epi32(table.as_ptr() as *const i32, idx, 1)
    }

    /// Masked-load window comparison (see `VectorBackend::eq_window`):
    /// full 32-byte blocks ride `vpcmpeqb` + `vpmovmskb`; the remainder is
    /// read with a dword-granular `vpmaskmovd`, which architecturally does
    /// not access masked-out elements, so the loads never touch bytes past
    /// either slice. The final `len % 4` bytes are compared scalar. With
    /// `FOLD`, both sides pass through the byte-range ASCII fold first, so
    /// the compare is `eq_ignore_ascii_case`.
    ///
    /// # Safety: AVX2 required; `a.len() == b.len()`.
    #[target_feature(enable = "avx2")]
    unsafe fn eq_window_avx2<const FOLD: bool>(a: &[u8], b: &[u8]) -> bool {
        debug_assert_eq!(a.len(), b.len());
        let len = a.len();
        let fold = |v: __m256i| if FOLD { to_ascii_lower_avx2(v) } else { v };
        let mut i = 0usize;
        while i + 32 <= len {
            let va = fold(_mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i));
            let vb = fold(_mm256_loadu_si256(b.as_ptr().add(i) as *const __m256i));
            if _mm256_movemask_epi8(_mm256_cmpeq_epi8(va, vb)) != -1 {
                return false;
            }
            i += 32;
        }
        let dwords = (len - i) / 4;
        if dwords > 0 {
            // Lane j participates iff j < dwords; vpmaskmovd leaves the
            // other lanes zero on both sides, which compare equal.
            let lane_mask = _mm256_cmpgt_epi32(
                _mm256_set1_epi32(dwords as i32),
                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            );
            let va = fold(_mm256_maskload_epi32(
                a.as_ptr().add(i) as *const i32,
                lane_mask,
            ));
            let vb = fold(_mm256_maskload_epi32(
                b.as_ptr().add(i) as *const i32,
                lane_mask,
            ));
            if _mm256_movemask_epi8(_mm256_cmpeq_epi8(va, vb)) != -1 {
                return false;
            }
            i += dwords * 4;
        }
        while i < len {
            let (x, y) = if FOLD {
                (a[i].to_ascii_lowercase(), b[i].to_ascii_lowercase())
            } else {
                (a[i], b[i])
            };
            if x != y {
                return false;
            }
            i += 1;
        }
        true
    }

    /// Byte-granular ASCII lowercasing: the classic range-compare +
    /// `or 0x20` idiom. The signed `vpcmpgtb` compares are safe here because
    /// `'A'-1` and `'Z'+1` are both positive: bytes `0x80..=0xFF` read as
    /// negative, fail the `> 0x40` test and stay untouched.
    ///
    /// # Safety: AVX2 required.
    #[target_feature(enable = "avx2")]
    unsafe fn to_ascii_lower_avx2(v: __m256i) -> __m256i {
        let ge_a = _mm256_cmpgt_epi8(v, _mm256_set1_epi8(0x40)); // byte > '@'
        let le_z = _mm256_cmpgt_epi8(_mm256_set1_epi8(0x5b), v); // byte < '['
        let upper = _mm256_and_si256(ge_a, le_z);
        _mm256_or_si256(v, _mm256_and_si256(upper, _mm256_set1_epi8(0x20)))
    }

    /// Bucket test (see `VectorBackend::bucket_survivors`): both columns
    /// come in through `vpmaskmovd`, which does not access masked-out
    /// dwords; the long entries' words through a masked `vpgatherdd` based
    /// at `haystack[pos..]` with offsets `len − 4`, so a lane reads only
    /// inside the window it fits; the short entries compare one broadcast
    /// word under a per-lane `vpsllvd` byte mask. Lengths and the bytes left
    /// are below 2^31, so the signed compares are exact. Each half is
    /// skipped when no lane needs it.
    ///
    /// # Safety: AVX2 required; `lens.len() <= 8`,
    /// `suffixes.len() == lens.len()` and `pos <= haystack.len()`.
    #[target_feature(enable = "avx2")]
    unsafe fn bucket_survivors_avx2<const FOLD: bool>(
        lens: &[u32],
        suffixes: &[u32],
        haystack: &[u8],
        pos: usize,
    ) -> (u32, u32) {
        let live = _mm256_cmpgt_epi32(
            _mm256_set1_epi32(lens.len() as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        );
        let lens = _mm256_and_si256(
            _mm256_maskload_epi32(lens.as_ptr() as *const i32, live),
            _mm256_set1_epi32(BUCKET_LEN_MASK as i32),
        );
        let suffixes = _mm256_maskload_epi32(suffixes.as_ptr() as *const i32, live);
        let rest = (haystack.len() - pos).min(BUCKET_LEN_MASK as usize) as i32;
        let fit = _mm256_andnot_si256(_mm256_cmpgt_epi32(lens, _mm256_set1_epi32(rest)), live);
        let long = _mm256_and_si256(fit, _mm256_cmpgt_epi32(lens, _mm256_set1_epi32(3)));
        let short = _mm256_andnot_si256(long, fit);
        let fold = |v: __m256i| if FOLD { to_ascii_lower_avx2(v) } else { v };
        let mut pass = _mm256_setzero_si256();
        if _mm256_testz_si256(long, long) == 0 {
            let words = _mm256_mask_i32gather_epi32::<1>(
                _mm256_setzero_si256(),
                haystack.as_ptr().add(pos) as *const i32,
                _mm256_sub_epi32(lens, _mm256_set1_epi32(4)),
                long,
            );
            pass = _mm256_and_si256(_mm256_cmpeq_epi32(fold(words), suffixes), long);
        }
        if _mm256_testz_si256(short, short) == 0 {
            let survivors = match haystack.get(pos..pos + 4) {
                None => short,
                Some(word) => {
                    let word = u32::from_le_bytes(word.try_into().expect("a 4-byte slice"));
                    let word = fold(_mm256_set1_epi32(word as i32));
                    let beyond =
                        _mm256_sllv_epi32(_mm256_set1_epi32(-1), _mm256_slli_epi32::<3>(lens));
                    // (word ^ suffix) & !beyond: the bytes the pattern covers.
                    let diff = _mm256_andnot_si256(beyond, _mm256_xor_si256(word, suffixes));
                    _mm256_and_si256(_mm256_cmpeq_epi32(diff, _mm256_setzero_si256()), short)
                }
            };
            pass = _mm256_or_si256(pass, survivors);
        }
        let bits = |v: __m256i| _mm256_movemask_ps(_mm256_castsi256_ps(v)) as u32;
        (bits(fit), bits(pass))
    }

    /// # Safety: AVX2 required.
    #[target_feature(enable = "avx2")]
    unsafe fn hash_mul_shift_avx2(v: __m256i, mul: u32, shift: u32, mask: u32) -> __m256i {
        let x = _mm256_mullo_epi32(v, _mm256_set1_epi32(mul as i32));
        let x = _mm256_srl_epi32(x, _mm_cvtsi32_si128(shift as i32));
        _mm256_and_si256(x, _mm256_set1_epi32(mask as i32))
    }

    /// # Safety: AVX2 required.
    #[target_feature(enable = "avx2")]
    unsafe fn shr_const_avx2(v: __m256i, n: u32) -> __m256i {
        _mm256_srl_epi32(v, _mm_cvtsi32_si128(n as i32))
    }

    /// # Safety: AVX2 required.
    #[target_feature(enable = "avx2")]
    unsafe fn and_const_avx2(v: __m256i, c: u32) -> __m256i {
        _mm256_and_si256(v, _mm256_set1_epi32(c as i32))
    }

    /// # Safety: AVX2 required.
    #[target_feature(enable = "avx2")]
    unsafe fn test_window_bits_avx2(bytes: __m256i, windows: __m256i) -> u32 {
        let bit = _mm256_and_si256(windows, _mm256_set1_epi32(7));
        let shifted = _mm256_srlv_epi32(bytes, bit);
        let one = _mm256_and_si256(shifted, _mm256_set1_epi32(1));
        let hit = _mm256_cmpeq_epi32(one, _mm256_set1_epi32(1));
        _mm256_movemask_ps(_mm256_castsi256_ps(hit)) as u32
    }

    /// Left-packing candidate store (see the module docs).
    ///
    /// # Safety: AVX2 required.
    #[target_feature(enable = "avx2")]
    unsafe fn compress_store_avx2(mask: u32, base: u32, out: &mut Vec<u32>) {
        let m = (mask & 0xff) as usize;
        let len = out.len();
        if out.capacity() - len < 8 {
            // Cold: Vec::reserve grows amortized, so candidate-dense inputs
            // do not reallocate per block.
            out.reserve(8);
        }
        let positions = _mm256_add_epi32(
            _mm256_set1_epi32(base as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        );
        let perm = _mm256_loadu_si256(COMPRESS_LUT[m].as_ptr() as *const __m256i);
        let packed = _mm256_permutevar8x32_epi32(positions, perm);
        // SAFETY: 8 lanes (32 bytes) of spare capacity were reserved above;
        // only the first popcnt(m) stored lanes are published via set_len.
        _mm256_storeu_si256(out.as_mut_ptr().add(len) as *mut __m256i, packed);
        out.set_len(len + m.count_ones() as usize);
    }

    /// Copies the (up to 24-byte) window block the shuffle kernels read from,
    /// so that loads near the end of the input never run past the slice.
    #[inline]
    fn block_at(input: &[u8], pos: usize, needed: usize) -> [u8; 24] {
        let mut block = [0u8; 24];
        debug_assert!(pos + needed <= input.len());
        if pos + 24 <= input.len() {
            block.copy_from_slice(&input[pos..pos + 24]);
        } else {
            let avail = input.len() - pos;
            block[..avail].copy_from_slice(&input[pos..]);
        }
        block
    }

    impl VectorBackend<8> for Avx2Backend {
        type Vec = __m256i;

        fn name() -> &'static str {
            "avx2"
        }

        fn is_available() -> bool {
            std::arch::is_x86_feature_detected!("avx2")
        }

        #[inline(always)]
        fn dispatch<R>(f: impl FnOnce() -> R) -> R {
            debug_assert!(<Avx2Backend as VectorBackend<8>>::is_available());
            // SAFETY: engines check availability at construction before any
            // dispatch; the trampoline only changes codegen flags.
            unsafe { dispatch_avx2(f) }
        }

        #[inline(always)]
        fn from_array(v: [u32; 8]) -> __m256i {
            to_m256i(v)
        }

        #[inline(always)]
        fn to_array(v: __m256i) -> [u32; 8] {
            from_m256i(v)
        }

        #[inline(always)]
        fn windows2(input: &[u8], pos: usize) -> __m256i {
            assert!(pos + 9 <= input.len(), "windows2 out of bounds");
            // SAFETY: availability is checked at engine construction; the
            // bound above plus the kernel's internal tail copy bound every
            // load.
            unsafe { windows2_avx2(input, pos) }
        }

        #[inline(always)]
        fn windows4(input: &[u8], pos: usize) -> __m256i {
            assert!(pos + 11 <= input.len(), "windows4 out of bounds");
            // SAFETY: as above.
            unsafe { windows4_avx2(input, pos) }
        }

        #[inline(always)]
        fn gather_bytes(table: &[u8], idx: __m256i) -> __m256i {
            #[cfg(debug_assertions)]
            for &i in &from_m256i(idx) {
                assert!(
                    i as usize + GATHER_PADDING <= table.len(),
                    "gather index {i} violates padding requirement"
                );
            }
            // SAFETY: availability checked at engine construction; the
            // padding contract bounds the 4-byte per-lane loads.
            unsafe { gather_bytes_avx2(table, idx) }
        }

        #[inline(always)]
        fn gather_u16(table: &[u8], idx: __m256i) -> __m256i {
            #[cfg(debug_assertions)]
            for &i in &from_m256i(idx) {
                assert!(
                    i as usize + GATHER_PADDING <= table.len(),
                    "gather index {i} violates padding requirement"
                );
            }
            // SAFETY: availability checked at engine construction; padding
            // contract bounds the per-lane 4-byte loads.
            unsafe { gather_u16_avx2(table, idx) }
        }

        #[inline(always)]
        fn gather_u32(table: &[u8], idx: __m256i) -> __m256i {
            #[cfg(debug_assertions)]
            for &i in &from_m256i(idx) {
                assert!(
                    i as usize + GATHER_PADDING <= table.len(),
                    "gather index {i} violates padding requirement"
                );
            }
            // SAFETY: availability checked at engine construction; the
            // padding contract bounds the 4-byte per-lane loads.
            unsafe { gather_u32_avx2(table, idx) }
        }

        #[inline(always)]
        fn eq_window(window: &[u8], pattern: &[u8]) -> bool {
            // SAFETY: availability checked at engine construction; lengths
            // asserted equal inside, masked loads stay inside the slices.
            unsafe { eq_window_avx2::<false>(window, pattern) }
        }

        #[inline(always)]
        fn eq_window_nocase(window: &[u8], pattern: &[u8]) -> bool {
            // SAFETY: as above.
            unsafe { eq_window_avx2::<true>(window, pattern) }
        }

        #[inline(always)]
        fn bucket_survivors<const FOLD: bool>(
            lens: &[u32],
            suffixes: &[u32],
            haystack: &[u8],
            pos: usize,
        ) -> (u32, u32) {
            crate::assert_bucket_args::<8>(lens, suffixes, haystack, pos);
            // SAFETY: availability checked at engine construction; the
            // assertion above bounds the masked loads and the gather.
            unsafe { bucket_survivors_avx2::<FOLD>(lens, suffixes, haystack, pos) }
        }

        #[inline(always)]
        fn to_ascii_lower(v: __m256i) -> __m256i {
            // SAFETY: availability checked at engine construction.
            unsafe { to_ascii_lower_avx2(v) }
        }

        #[inline(always)]
        fn hash_mul_shift(v: __m256i, mul: u32, shift: u32, mask: u32) -> __m256i {
            // SAFETY: availability checked at engine construction.
            unsafe { hash_mul_shift_avx2(v, mul, shift, mask) }
        }

        #[inline(always)]
        fn shr_const(v: __m256i, n: u32) -> __m256i {
            // SAFETY: availability checked at engine construction.
            unsafe { shr_const_avx2(v, n) }
        }

        #[inline(always)]
        fn and_const(v: __m256i, c: u32) -> __m256i {
            // SAFETY: availability checked at engine construction.
            unsafe { and_const_avx2(v, c) }
        }

        #[inline(always)]
        fn test_window_bits(bytes: __m256i, windows: __m256i) -> u32 {
            // SAFETY: availability checked at engine construction.
            unsafe { test_window_bits_avx2(bytes, windows) }
        }

        #[inline(always)]
        fn compress_store(mask: u32, base: u32, out: &mut Vec<u32>) {
            // SAFETY: availability checked at engine construction; the kernel
            // reserves the spare capacity it over-stores into.
            unsafe { compress_store_avx2(mask, base, out) }
        }
    }
}

/// On non-x86_64 targets the AVX2 marker type simply forwards to the scalar
/// semantics so the crate still compiles and tests run everywhere.
#[cfg(not(target_arch = "x86_64"))]
impl VectorBackend<8> for Avx2Backend {
    type Vec = [u32; 8];

    fn name() -> &'static str {
        "avx2(unavailable)"
    }
    fn is_available() -> bool {
        false
    }
    fn from_array(v: [u32; 8]) -> [u32; 8] {
        v
    }
    fn to_array(v: [u32; 8]) -> [u32; 8] {
        v
    }
    fn windows2(input: &[u8], pos: usize) -> [u32; 8] {
        <ScalarBackend as VectorBackend<8>>::windows2(input, pos)
    }
    fn windows4(input: &[u8], pos: usize) -> [u32; 8] {
        <ScalarBackend as VectorBackend<8>>::windows4(input, pos)
    }
    fn gather_bytes(table: &[u8], idx: [u32; 8]) -> [u32; 8] {
        <ScalarBackend as VectorBackend<8>>::gather_bytes(table, idx)
    }
    fn hash_mul_shift(v: [u32; 8], mul: u32, shift: u32, mask: u32) -> [u32; 8] {
        <ScalarBackend as VectorBackend<8>>::hash_mul_shift(v, mul, shift, mask)
    }
    fn shr_const(v: [u32; 8], n: u32) -> [u32; 8] {
        <ScalarBackend as VectorBackend<8>>::shr_const(v, n)
    }
    fn and_const(v: [u32; 8], c: u32) -> [u32; 8] {
        <ScalarBackend as VectorBackend<8>>::and_const(v, c)
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use crate::scalar::ScalarBackend;

    type A8 = Avx2Backend;
    type S8 = ScalarBackend;

    fn skip() -> bool {
        !<A8 as VectorBackend<8>>::is_available()
    }

    fn a(v: <A8 as VectorBackend<8>>::Vec) -> [u32; 8] {
        <A8 as VectorBackend<8>>::to_array(v)
    }

    #[test]
    fn windows_agree_with_scalar() {
        if skip() {
            return;
        }
        let input: Vec<u8> = (0..64u8)
            .map(|i| i.wrapping_mul(37).wrapping_add(11))
            .collect();
        for pos in 0..40 {
            let a2 = a(<A8 as VectorBackend<8>>::windows2(&input, pos));
            let s2 = <S8 as VectorBackend<8>>::windows2(&input, pos);
            assert_eq!(a2, s2, "windows2 mismatch at pos {pos}");
            let a4 = a(<A8 as VectorBackend<8>>::windows4(&input, pos));
            let s4 = <S8 as VectorBackend<8>>::windows4(&input, pos);
            assert_eq!(a4, s4, "windows4 mismatch at pos {pos}");
        }
    }

    #[test]
    fn windows_at_end_of_input_do_not_overread() {
        if skip() {
            return;
        }
        // Exactly the minimum bytes needed: pos + 9 for windows2.
        let input = vec![7u8; 9];
        assert_eq!(
            a(<A8 as VectorBackend<8>>::windows2(&input, 0)),
            <S8 as VectorBackend<8>>::windows2(&input, 0)
        );
        let input4 = vec![9u8; 11];
        assert_eq!(
            a(<A8 as VectorBackend<8>>::windows4(&input4, 0)),
            <S8 as VectorBackend<8>>::windows4(&input4, 0)
        );
    }

    #[test]
    fn gather_agrees_with_scalar() {
        if skip() {
            return;
        }
        let table: Vec<u8> = (0..1024u32).map(|i| (i * 131 % 251) as u8).collect();
        let idx = [0u32, 5, 100, 1019, 512, 7, 999, 1];
        let got = a(<A8 as VectorBackend<8>>::gather_bytes(
            &table,
            <A8 as VectorBackend<8>>::from_array(idx),
        ));
        assert_eq!(got, <S8 as VectorBackend<8>>::gather_bytes(&table, idx));
    }

    #[test]
    fn arithmetic_agrees_with_scalar() {
        if skip() {
            return;
        }
        let v = [1u32, 0xffff_ffff, 12345, 0, 77, 0x8000_0000, 3, 9];
        let reg = <A8 as VectorBackend<8>>::from_array(v);
        assert_eq!(
            a(<A8 as VectorBackend<8>>::hash_mul_shift(
                reg,
                0x9E37_79B1,
                19,
                0x1fff
            )),
            <S8 as VectorBackend<8>>::hash_mul_shift(v, 0x9E37_79B1, 19, 0x1fff)
        );
        assert_eq!(
            a(<A8 as VectorBackend<8>>::shr_const(reg, 3)),
            <S8 as VectorBackend<8>>::shr_const(v, 3)
        );
        assert_eq!(
            a(<A8 as VectorBackend<8>>::and_const(reg, 0xff)),
            <S8 as VectorBackend<8>>::and_const(v, 0xff)
        );
    }

    #[test]
    fn masks_agree_with_scalar() {
        if skip() {
            return;
        }
        let bytes = [0b1000_0001u32, 0, 0xff, 2, 4, 8, 16, 32];
        let windows = [0u32, 1, 7, 1, 2, 3, 4, 5];
        assert_eq!(
            <A8 as VectorBackend<8>>::test_window_bits(
                <A8 as VectorBackend<8>>::from_array(bytes),
                <A8 as VectorBackend<8>>::from_array(windows)
            ),
            <S8 as VectorBackend<8>>::test_window_bits(bytes, windows)
        );
    }

    #[test]
    fn to_ascii_lower_agrees_with_scalar_on_every_byte() {
        if skip() {
            return;
        }
        // Every byte value through every lane byte position.
        for b in 0..=255u32 {
            let v: [u32; 8] = [
                b,
                b << 8,
                b << 16,
                b << 24,
                b.wrapping_mul(0x0101_0101),
                u32::from_le_bytes(*b"GeT "),
                !b,
                b ^ 0x8040_2010,
            ];
            let got = a(<A8 as VectorBackend<8>>::to_ascii_lower(
                <A8 as VectorBackend<8>>::from_array(v),
            ));
            let expected = <S8 as VectorBackend<8>>::to_ascii_lower(v);
            assert_eq!(got, expected, "byte {b:#04x}");
        }
    }

    #[test]
    fn compress_store_agrees_with_scalar_on_every_mask() {
        if skip() {
            return;
        }
        for mask in 0u32..256 {
            let mut expected = vec![0xdead_beef];
            <S8 as VectorBackend<8>>::compress_store(mask, 1000, &mut expected);
            let mut got = vec![0xdead_beef];
            <A8 as VectorBackend<8>>::compress_store(mask, 1000, &mut got);
            assert_eq!(got, expected, "mask {mask:#010b}");
        }
    }

    #[test]
    fn compress_store_grows_from_zero_capacity() {
        if skip() {
            return;
        }
        let mut out = Vec::new();
        <A8 as VectorBackend<8>>::compress_store(0xff, 0, &mut out);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }
}
