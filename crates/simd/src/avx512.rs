//! AVX-512 backend (16 × 32-bit lanes) — models the paper's Xeon-Phi
//! configuration.
//!
//! The Xeon-Phi 3120 used in the paper exposes 512-bit vector registers, so
//! its filtering loop processes 16 sliding windows per iteration instead of
//! the 8 that AVX2 allows. This backend reproduces that width with AVX-512F
//! instructions on CPUs that support them; on CPUs without AVX-512 the
//! 16-lane experiments fall back to [`crate::ScalarBackend`] at width 16, which is
//! functionally identical (the figure-7 harness reports which backend
//! actually ran). Its register type is `__m512i`, so chained trait ops stay
//! in `zmm` registers with no array spill between them.
//!
//! [`VectorBackend::compress_store`] maps directly onto hardware here:
//! `vpaddd` builds `base + lane` for all 16 lanes, `vpcompressd`
//! (`_mm512_maskz_compress_epi32`) packs the masked survivors to the front
//! of the register, and one unaligned store plus a `popcnt` length bump
//! publishes them — no LUT and no per-bit loop.

#[cfg(not(target_arch = "x86_64"))]
use crate::scalar::ScalarBackend;
use crate::VectorBackend;
#[cfg(all(target_arch = "x86_64", debug_assertions))]
use crate::GATHER_PADDING;

/// Zero-sized marker type selecting the AVX-512 implementation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Avx512Backend;

#[cfg(target_arch = "x86_64")]
mod imp {
    use super::*;
    use crate::BUCKET_LEN_MASK;
    use std::arch::x86_64::*;

    #[inline]
    fn to_m512i(v: [u32; 16]) -> __m512i {
        // SAFETY: same size, unaligned load.
        unsafe { _mm512_loadu_si512(v.as_ptr() as *const __m512i) }
    }

    #[inline]
    fn from_m512i(v: __m512i) -> [u32; 16] {
        let mut out = [0u32; 16];
        // SAFETY: storeu writes 64 bytes into a 64-byte array.
        unsafe { _mm512_storeu_si512(out.as_mut_ptr() as *mut __m512i, v) };
        out
    }

    /// # Safety: AVX-512F required; 16 readable bytes at `ptr + offset`.
    #[target_feature(enable = "avx512f")]
    unsafe fn load_bytes_as_u32(ptr: *const u8, offset: usize) -> __m512i {
        let raw = _mm_loadu_si128(ptr.add(offset) as *const __m128i);
        _mm512_cvtepu8_epi32(raw)
    }

    /// # Safety: AVX-512F required and `pos + 17 <= input.len()` (the
    /// wrapper's assertion), which also bounds the two 16-byte loads.
    #[target_feature(enable = "avx512f")]
    unsafe fn windows2_avx512(input: &[u8], pos: usize) -> __m512i {
        let ptr = input.as_ptr().add(pos);
        let lo = load_bytes_as_u32(ptr, 0);
        let hi = load_bytes_as_u32(ptr, 1);
        _mm512_or_si512(lo, _mm512_slli_epi32(hi, 8))
    }

    /// # Safety: AVX-512F required and `pos + 19 <= input.len()`, which
    /// bounds the four 16-byte loads.
    #[target_feature(enable = "avx512f")]
    unsafe fn windows4_avx512(input: &[u8], pos: usize) -> __m512i {
        let ptr = input.as_ptr().add(pos);
        let b0 = load_bytes_as_u32(ptr, 0);
        let b1 = load_bytes_as_u32(ptr, 1);
        let b2 = load_bytes_as_u32(ptr, 2);
        let b3 = load_bytes_as_u32(ptr, 3);
        _mm512_or_si512(
            _mm512_or_si512(b0, _mm512_slli_epi32(b1, 8)),
            _mm512_or_si512(_mm512_slli_epi32(b2, 16), _mm512_slli_epi32(b3, 24)),
        )
    }

    /// Trampoline giving the caller AVX-512 codegen context (see the AVX2
    /// backend's equivalent for why).
    ///
    /// # Safety: AVX-512F must be available (checked by the safe `dispatch`).
    #[target_feature(enable = "avx512f")]
    unsafe fn dispatch_avx512<R>(f: impl FnOnce() -> R) -> R {
        f()
    }

    /// # Safety: AVX-512F required; every `idx[j] + 4 <= table.len()`.
    #[target_feature(enable = "avx512f")]
    unsafe fn gather_bytes_avx512(table: &[u8], idx: __m512i) -> __m512i {
        let gathered = _mm512_i32gather_epi32(idx, table.as_ptr() as *const i32, 1);
        _mm512_and_si512(gathered, _mm512_set1_epi32(0xff))
    }

    /// # Safety: AVX-512F required; every `idx[j] + 4 <= table.len()`.
    #[target_feature(enable = "avx512f")]
    unsafe fn gather_u16_avx512(table: &[u8], idx: __m512i) -> __m512i {
        let gathered = _mm512_i32gather_epi32(idx, table.as_ptr() as *const i32, 1);
        _mm512_and_si512(gathered, _mm512_set1_epi32(0xffff))
    }

    /// # Safety: AVX-512F required; every `idx[j] + 4 <= table.len()`.
    #[target_feature(enable = "avx512f")]
    unsafe fn gather_u32_avx512(table: &[u8], idx: __m512i) -> __m512i {
        _mm512_i32gather_epi32(idx, table.as_ptr() as *const i32, 1)
    }

    /// Masked-load window comparison (see `VectorBackend::eq_window`):
    /// full 64-byte blocks compare with `vpcmpeqd` over unaligned loads
    /// (dword equality ⇔ byte equality); the remainder is read with the
    /// k-masked `vmovdqu32`, whose masked-out dwords are architecturally
    /// not accessed — the loads never touch bytes past either slice. The
    /// final `len % 4` bytes are compared scalar. With `FOLD`, both sides
    /// pass through the 32-bit SWAR ASCII fold first (AVX-512F has no byte
    /// compares, so the fold — like the equality — rides dword ops).
    ///
    /// # Safety: AVX-512F required; `a.len() == b.len()`.
    #[target_feature(enable = "avx512f")]
    unsafe fn eq_window_avx512<const FOLD: bool>(a: &[u8], b: &[u8]) -> bool {
        debug_assert_eq!(a.len(), b.len());
        let len = a.len();
        let fold = |v: __m512i| if FOLD { to_ascii_lower_avx512(v) } else { v };
        let mut i = 0usize;
        while i + 64 <= len {
            let va = fold(_mm512_loadu_si512(a.as_ptr().add(i) as *const __m512i));
            let vb = fold(_mm512_loadu_si512(b.as_ptr().add(i) as *const __m512i));
            if _mm512_cmpeq_epi32_mask(va, vb) != 0xffff {
                return false;
            }
            i += 64;
        }
        let dwords = ((len - i) / 4) as u16;
        if dwords > 0 {
            let k = (1u16 << dwords) - 1;
            // Masked-out dwords load as zero on both sides and compare equal.
            let va = fold(_mm512_maskz_loadu_epi32(k, a.as_ptr().add(i) as *const i32));
            let vb = fold(_mm512_maskz_loadu_epi32(k, b.as_ptr().add(i) as *const i32));
            if _mm512_cmpeq_epi32_mask(va, vb) != 0xffff {
                return false;
            }
            i += dwords as usize * 4;
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

    /// Byte-granular ASCII lowercasing via the 32-bit SWAR form of
    /// `crate::ascii_lower_u32`: AVX-512**F** has no byte compares (those
    /// are AVX-512BW, which this backend deliberately does not require), so
    /// the uppercase-detection carries ride 32-bit adds — the masked bytes
    /// are ≤ `0x7F`, so the per-byte adds cannot carry across byte
    /// boundaries and `vpaddd` is exact.
    ///
    /// # Safety: AVX-512F required.
    #[target_feature(enable = "avx512f")]
    unsafe fn to_ascii_lower_avx512(v: __m512i) -> __m512i {
        let x80 = _mm512_set1_epi32(0x8080_8080u32 as i32);
        let hi = _mm512_and_si512(v, x80);
        let low7 = _mm512_and_si512(v, _mm512_set1_epi32(0x7f7f_7f7f));
        let ge_a = _mm512_and_si512(_mm512_add_epi32(low7, _mm512_set1_epi32(0x3f3f_3f3f)), x80);
        let gt_z = _mm512_and_si512(_mm512_add_epi32(low7, _mm512_set1_epi32(0x2525_2525)), x80);
        // is_upper = ge_a & !(gt_z | hi); vpandnd computes !a & b.
        let is_upper = _mm512_andnot_si512(_mm512_or_si512(gt_z, hi), ge_a);
        _mm512_or_si512(v, _mm512_srli_epi32(is_upper, 2))
    }

    /// Bucket test (see `VectorBackend::bucket_survivors`): both columns
    /// come in through k-masked `vmovdqu32` loads, whose masked-out dwords
    /// are not accessed. The long entries' words: when every long entry
    /// ends within the 64 bytes at `pos` and those bytes lie in the
    /// haystack, from one unaligned load of them — two `vpermd` pick each
    /// lane's two dwords and a `vpsrlvd`/`vpsllvd` funnel shift joins them
    /// (fewer cycles than a gather on the hosts measured: −15% of the long
    /// table's verify time on the `verify_round` bench); otherwise through a
    /// k-masked `vpgatherdd` based at `haystack[pos..]` with offsets
    /// `len − 4`, so a lane reads only inside the window it fits. The short
    /// entries compare one broadcast word under a per-lane `vpsllvd` byte
    /// mask. Each half is skipped when no lane needs it (a table's entries
    /// are all long or all short).
    ///
    /// # Safety: AVX-512F required; `lens.len() <= 16`,
    /// `suffixes.len() == lens.len()` and `pos <= haystack.len()`.
    #[target_feature(enable = "avx512f")]
    unsafe fn bucket_survivors_avx512<const FOLD: bool>(
        lens: &[u32],
        suffixes: &[u32],
        haystack: &[u8],
        pos: usize,
    ) -> (u32, u32) {
        let live = ((1u32 << lens.len()) - 1) as u16;
        let lens = _mm512_maskz_loadu_epi32(live, lens.as_ptr() as *const i32);
        let suffixes = _mm512_maskz_loadu_epi32(live, suffixes.as_ptr() as *const i32);
        let lens = _mm512_and_si512(lens, _mm512_set1_epi32(BUCKET_LEN_MASK as i32));
        let rest = (haystack.len() - pos).min(BUCKET_LEN_MASK as usize) as i32;
        let fit = _mm512_mask_cmple_epu32_mask(live, lens, _mm512_set1_epi32(rest));
        let long = _mm512_mask_cmpgt_epu32_mask(fit, lens, _mm512_set1_epi32(3));
        let short = fit & !long;
        let fold = |v: __m512i| if FOLD { to_ascii_lower_avx512(v) } else { v };
        let mut pass = 0u16;
        if long != 0 {
            let offsets = _mm512_sub_epi32(lens, _mm512_set1_epi32(4));
            let base = haystack.as_ptr().add(pos);
            let far = _mm512_mask_cmpgt_epu32_mask(long, lens, _mm512_set1_epi32(64));
            let words = if far == 0 && pos + 64 <= haystack.len() {
                // Every word lies in the 64 bytes at `pos`, and they are in
                // bounds: lane j's word starts at byte `off = len − 4 <= 60`,
                // so it is dword `off / 4` shifted right by `8 · (off % 4)`
                // bits, joined with dword `off / 4 + 1` (an index of 16 wraps
                // to 0, but then the shift is 0 and `vpsllvd` by 32 clears it).
                let window = _mm512_loadu_si512(base as *const __m512i);
                let dword = _mm512_srli_epi32::<2>(offsets);
                let lo = _mm512_permutexvar_epi32(dword, window);
                let hi =
                    _mm512_permutexvar_epi32(_mm512_add_epi32(dword, _mm512_set1_epi32(1)), window);
                let shift = _mm512_slli_epi32::<3>(_mm512_and_si512(offsets, _mm512_set1_epi32(3)));
                _mm512_or_si512(
                    _mm512_srlv_epi32(lo, shift),
                    _mm512_sllv_epi32(hi, _mm512_sub_epi32(_mm512_set1_epi32(32), shift)),
                )
            } else {
                _mm512_mask_i32gather_epi32::<1>(
                    _mm512_setzero_si512(),
                    long,
                    offsets,
                    base as *const i32,
                )
            };
            pass |= _mm512_mask_cmpeq_epi32_mask(long, fold(words), suffixes);
        }
        if short != 0 {
            pass |= match haystack.get(pos..pos + 4) {
                None => short,
                Some(word) => {
                    let word = u32::from_le_bytes(word.try_into().expect("a 4-byte slice"));
                    let word = fold(_mm512_set1_epi32(word as i32));
                    let beyond =
                        _mm512_sllv_epi32(_mm512_set1_epi32(-1), _mm512_slli_epi32::<3>(lens));
                    // (word ^ suffix) & !beyond: the bytes the pattern covers.
                    let diff = _mm512_andnot_si512(beyond, _mm512_xor_si512(word, suffixes));
                    _mm512_mask_testn_epi32_mask(short, diff, diff)
                }
            };
        }
        (fit as u32, pass as u32)
    }

    /// # Safety: AVX-512F required.
    #[target_feature(enable = "avx512f")]
    unsafe fn hash_mul_shift_avx512(v: __m512i, mul: u32, shift: u32, mask: u32) -> __m512i {
        let x = _mm512_mullo_epi32(v, _mm512_set1_epi32(mul as i32));
        let x = _mm512_srl_epi32(x, _mm_cvtsi32_si128(shift as i32));
        _mm512_and_si512(x, _mm512_set1_epi32(mask as i32))
    }

    /// # Safety: AVX-512F required.
    #[target_feature(enable = "avx512f")]
    unsafe fn shr_const_avx512(v: __m512i, n: u32) -> __m512i {
        _mm512_srl_epi32(v, _mm_cvtsi32_si128(n as i32))
    }

    /// # Safety: AVX-512F required.
    #[target_feature(enable = "avx512f")]
    unsafe fn and_const_avx512(v: __m512i, c: u32) -> __m512i {
        _mm512_and_si512(v, _mm512_set1_epi32(c as i32))
    }

    /// # Safety: AVX-512F required.
    #[target_feature(enable = "avx512f")]
    unsafe fn test_window_bits_avx512(bytes: __m512i, windows: __m512i) -> u32 {
        let bit = _mm512_and_si512(windows, _mm512_set1_epi32(7));
        let shifted = _mm512_srlv_epi32(bytes, bit);
        let mask = _mm512_test_epi32_mask(shifted, _mm512_set1_epi32(1));
        mask as u32
    }

    /// `vpcompressd` candidate store (see the module docs).
    ///
    /// # Safety: AVX-512F required.
    #[target_feature(enable = "avx512f")]
    unsafe fn compress_store_avx512(mask: u32, base: u32, out: &mut Vec<u32>) {
        let m = (mask & 0xffff) as u16;
        let len = out.len();
        if out.capacity() - len < 16 {
            // Cold: Vec::reserve grows amortized, so candidate-dense inputs
            // do not reallocate per block.
            out.reserve(16);
        }
        let positions = _mm512_add_epi32(
            _mm512_set1_epi32(base as i32),
            _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        );
        let packed = _mm512_maskz_compress_epi32(m, positions);
        // SAFETY: 16 lanes (64 bytes) of spare capacity were reserved above;
        // only the first popcnt(m) stored lanes are published via set_len.
        _mm512_storeu_si512(out.as_mut_ptr().add(len) as *mut __m512i, packed);
        out.set_len(len + m.count_ones() as usize);
    }

    impl VectorBackend<16> for Avx512Backend {
        type Vec = __m512i;

        fn name() -> &'static str {
            "avx512"
        }

        fn is_available() -> bool {
            std::arch::is_x86_feature_detected!("avx512f")
        }

        #[inline(always)]
        fn dispatch<R>(f: impl FnOnce() -> R) -> R {
            debug_assert!(<Avx512Backend as VectorBackend<16>>::is_available());
            // SAFETY: engines check availability at construction before any
            // dispatch; the trampoline only changes codegen flags.
            unsafe { dispatch_avx512(f) }
        }

        #[inline(always)]
        fn from_array(v: [u32; 16]) -> __m512i {
            to_m512i(v)
        }

        #[inline(always)]
        fn to_array(v: __m512i) -> [u32; 16] {
            from_m512i(v)
        }

        #[inline(always)]
        fn windows2(input: &[u8], pos: usize) -> __m512i {
            assert!(pos + 17 <= input.len(), "windows2 out of bounds");
            // SAFETY: availability checked at engine construction; the bound
            // above covers both 16-byte loads (offsets 0 and 1).
            unsafe { windows2_avx512(input, pos) }
        }

        #[inline(always)]
        fn windows4(input: &[u8], pos: usize) -> __m512i {
            assert!(pos + 19 <= input.len(), "windows4 out of bounds");
            // SAFETY: as above (offsets 0..=3).
            unsafe { windows4_avx512(input, pos) }
        }

        #[inline(always)]
        fn gather_bytes(table: &[u8], idx: __m512i) -> __m512i {
            #[cfg(debug_assertions)]
            for &i in &from_m512i(idx) {
                assert!(
                    i as usize + GATHER_PADDING <= table.len(),
                    "gather index {i} violates padding requirement"
                );
            }
            // SAFETY: availability checked at engine construction; padding
            // contract bounds the per-lane 4-byte loads.
            unsafe { gather_bytes_avx512(table, idx) }
        }

        #[inline(always)]
        fn gather_u16(table: &[u8], idx: __m512i) -> __m512i {
            #[cfg(debug_assertions)]
            for &i in &from_m512i(idx) {
                assert!(
                    i as usize + GATHER_PADDING <= table.len(),
                    "gather index {i} violates padding requirement"
                );
            }
            // SAFETY: availability checked at engine construction; padding
            // contract bounds the per-lane 4-byte loads.
            unsafe { gather_u16_avx512(table, idx) }
        }

        #[inline(always)]
        fn gather_u32(table: &[u8], idx: __m512i) -> __m512i {
            #[cfg(debug_assertions)]
            for &i in &from_m512i(idx) {
                assert!(
                    i as usize + GATHER_PADDING <= table.len(),
                    "gather index {i} violates padding requirement"
                );
            }
            // SAFETY: availability checked at engine construction; the
            // padding contract bounds the 4-byte per-lane loads.
            unsafe { gather_u32_avx512(table, idx) }
        }

        #[inline(always)]
        fn eq_window(window: &[u8], pattern: &[u8]) -> bool {
            // SAFETY: availability checked at engine construction; lengths
            // asserted equal inside, masked loads stay inside the slices.
            unsafe { eq_window_avx512::<false>(window, pattern) }
        }

        #[inline(always)]
        fn eq_window_nocase(window: &[u8], pattern: &[u8]) -> bool {
            // SAFETY: as above.
            unsafe { eq_window_avx512::<true>(window, pattern) }
        }

        #[inline(always)]
        fn bucket_survivors<const FOLD: bool>(
            lens: &[u32],
            suffixes: &[u32],
            haystack: &[u8],
            pos: usize,
        ) -> (u32, u32) {
            crate::assert_bucket_args::<16>(lens, suffixes, haystack, pos);
            // SAFETY: availability checked at engine construction; the
            // assertion above bounds the masked loads and the gather.
            unsafe { bucket_survivors_avx512::<FOLD>(lens, suffixes, haystack, pos) }
        }

        #[inline(always)]
        fn to_ascii_lower(v: __m512i) -> __m512i {
            // SAFETY: availability checked at engine construction.
            unsafe { to_ascii_lower_avx512(v) }
        }

        #[inline(always)]
        fn hash_mul_shift(v: __m512i, mul: u32, shift: u32, mask: u32) -> __m512i {
            // SAFETY: availability checked at engine construction.
            unsafe { hash_mul_shift_avx512(v, mul, shift, mask) }
        }

        #[inline(always)]
        fn shr_const(v: __m512i, n: u32) -> __m512i {
            // SAFETY: availability checked at engine construction.
            unsafe { shr_const_avx512(v, n) }
        }

        #[inline(always)]
        fn and_const(v: __m512i, c: u32) -> __m512i {
            // SAFETY: availability checked at engine construction.
            unsafe { and_const_avx512(v, c) }
        }

        #[inline(always)]
        fn test_window_bits(bytes: __m512i, windows: __m512i) -> u32 {
            // SAFETY: availability checked at engine construction.
            unsafe { test_window_bits_avx512(bytes, windows) }
        }

        #[inline(always)]
        fn compress_store(mask: u32, base: u32, out: &mut Vec<u32>) {
            // SAFETY: availability checked at engine construction; the kernel
            // reserves the spare capacity it over-stores into.
            unsafe { compress_store_avx512(mask, base, out) }
        }
    }
}

/// Fallback for non-x86_64 targets: scalar semantics at width 16.
#[cfg(not(target_arch = "x86_64"))]
impl VectorBackend<16> for Avx512Backend {
    type Vec = [u32; 16];

    fn name() -> &'static str {
        "avx512(unavailable)"
    }
    fn is_available() -> bool {
        false
    }
    fn from_array(v: [u32; 16]) -> [u32; 16] {
        v
    }
    fn to_array(v: [u32; 16]) -> [u32; 16] {
        v
    }
    fn windows2(input: &[u8], pos: usize) -> [u32; 16] {
        <ScalarBackend as VectorBackend<16>>::windows2(input, pos)
    }
    fn windows4(input: &[u8], pos: usize) -> [u32; 16] {
        <ScalarBackend as VectorBackend<16>>::windows4(input, pos)
    }
    fn gather_bytes(table: &[u8], idx: [u32; 16]) -> [u32; 16] {
        <ScalarBackend as VectorBackend<16>>::gather_bytes(table, idx)
    }
    fn hash_mul_shift(v: [u32; 16], mul: u32, shift: u32, mask: u32) -> [u32; 16] {
        <ScalarBackend as VectorBackend<16>>::hash_mul_shift(v, mul, shift, mask)
    }
    fn shr_const(v: [u32; 16], n: u32) -> [u32; 16] {
        <ScalarBackend as VectorBackend<16>>::shr_const(v, n)
    }
    fn and_const(v: [u32; 16], c: u32) -> [u32; 16] {
        <ScalarBackend as VectorBackend<16>>::and_const(v, c)
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use crate::scalar::ScalarBackend;

    type A16 = Avx512Backend;
    type S16 = ScalarBackend;

    fn skip() -> bool {
        !<A16 as VectorBackend<16>>::is_available()
    }

    fn a(v: <A16 as VectorBackend<16>>::Vec) -> [u32; 16] {
        <A16 as VectorBackend<16>>::to_array(v)
    }

    #[test]
    fn windows_agree_with_scalar() {
        if skip() {
            return;
        }
        let input: Vec<u8> = (0..96u8)
            .map(|i| i.wrapping_mul(73).wrapping_add(5))
            .collect();
        for pos in 0..70 {
            let a2 = a(<A16 as VectorBackend<16>>::windows2(&input, pos));
            let s2 = <S16 as VectorBackend<16>>::windows2(&input, pos);
            assert_eq!(a2, s2, "windows2 mismatch at pos {pos}");
            let a4 = a(<A16 as VectorBackend<16>>::windows4(&input, pos));
            let s4 = <S16 as VectorBackend<16>>::windows4(&input, pos);
            assert_eq!(a4, s4, "windows4 mismatch at pos {pos}");
        }
    }

    #[test]
    fn gather_and_arithmetic_agree_with_scalar() {
        if skip() {
            return;
        }
        let table: Vec<u8> = (0..4096u32).map(|i| (i * 67 % 253) as u8).collect();
        let idx: [u32; 16] = std::array::from_fn(|j| ((j * 251 + 13) % 4090) as u32);
        assert_eq!(
            a(<A16 as VectorBackend<16>>::gather_bytes(
                &table,
                <A16 as VectorBackend<16>>::from_array(idx)
            )),
            <S16 as VectorBackend<16>>::gather_bytes(&table, idx)
        );
        let v: [u32; 16] = std::array::from_fn(|j| (j as u32).wrapping_mul(0x1234_5677));
        let reg = <A16 as VectorBackend<16>>::from_array(v);
        assert_eq!(
            a(<A16 as VectorBackend<16>>::hash_mul_shift(
                reg,
                0x9E37_79B1,
                18,
                0x3fff
            )),
            <S16 as VectorBackend<16>>::hash_mul_shift(v, 0x9E37_79B1, 18, 0x3fff)
        );
        assert_eq!(
            a(<A16 as VectorBackend<16>>::shr_const(reg, 5)),
            <S16 as VectorBackend<16>>::shr_const(v, 5)
        );
        assert_eq!(
            a(<A16 as VectorBackend<16>>::and_const(reg, 0xffff)),
            <S16 as VectorBackend<16>>::and_const(v, 0xffff)
        );
    }

    #[test]
    fn masks_agree_with_scalar() {
        if skip() {
            return;
        }
        let bytes: [u32; 16] = std::array::from_fn(|j| (j as u32 * 0x41) & 0xff);
        let windows: [u32; 16] = std::array::from_fn(|j| j as u32);
        assert_eq!(
            <A16 as VectorBackend<16>>::test_window_bits(
                <A16 as VectorBackend<16>>::from_array(bytes),
                <A16 as VectorBackend<16>>::from_array(windows)
            ),
            <S16 as VectorBackend<16>>::test_window_bits(bytes, windows)
        );
    }

    #[test]
    fn to_ascii_lower_agrees_with_scalar_on_every_byte() {
        if skip() {
            return;
        }
        for b in 0..=255u32 {
            let v: [u32; 16] = std::array::from_fn(|j| match j % 5 {
                0 => b << (8 * (j % 4)),
                1 => b.wrapping_mul(0x0101_0101),
                2 => u32::from_le_bytes(*b"AzZ@"),
                3 => !b,
                _ => b ^ (j as u32).wrapping_mul(0x2041_8010),
            });
            let got = a(<A16 as VectorBackend<16>>::to_ascii_lower(
                <A16 as VectorBackend<16>>::from_array(v),
            ));
            let expected = <S16 as VectorBackend<16>>::to_ascii_lower(v);
            assert_eq!(got, expected, "byte {b:#04x}");
        }
    }

    #[test]
    fn compress_store_agrees_with_scalar_on_structured_masks() {
        if skip() {
            return;
        }
        let masks: Vec<u32> = (0..16)
            .map(|b| 1u32 << b)
            .chain([0, 0xffff, 0x5555, 0xaaaa, 0x00ff, 0xff00, 0x8001, 0x7ffe])
            .chain((0..64).map(|i| (i as u32).wrapping_mul(0x9E37_79B1) >> 16))
            .collect();
        for mask in masks {
            let mut expected = vec![3u32, 1];
            <S16 as VectorBackend<16>>::compress_store(mask, 77_777, &mut expected);
            let mut got = vec![3u32, 1];
            <A16 as VectorBackend<16>>::compress_store(mask, 77_777, &mut got);
            assert_eq!(got, expected, "mask {mask:#018b}");
        }
    }

    #[test]
    fn compress_store_grows_from_zero_capacity() {
        if skip() {
            return;
        }
        let mut out = Vec::new();
        <A16 as VectorBackend<16>>::compress_store(0xffff, 16, &mut out);
        let expected: Vec<u32> = (16..32).collect();
        assert_eq!(out, expected);
    }
}
