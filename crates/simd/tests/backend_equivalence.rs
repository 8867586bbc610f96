//! Property tests: every SIMD backend must agree bit-for-bit with the scalar
//! reference semantics on arbitrary inputs.
//!
//! The trait passes values as each backend's register type
//! (`VectorBackend::Vec`), so the tests convert at the edges with
//! `from_array` / `to_array` — exactly the boundary the register-resident
//! contract reserves for non-hot-loop code.

use mpm_simd::{Avx2Backend, Avx512Backend, ScalarBackend, VectorBackend, GATHER_PADDING};
use proptest::prelude::*;

fn avx2_available() -> bool {
    <Avx2Backend as VectorBackend<8>>::is_available()
}

fn avx512_available() -> bool {
    <Avx512Backend as VectorBackend<16>>::is_available()
}

/// Runs one backend's `windows2`/`windows4` and returns the lanes as arrays.
fn windows_arrays<B: VectorBackend<W>, const W: usize>(
    input: &[u8],
    pos: usize,
) -> ([u32; W], [u32; W]) {
    (
        B::to_array(B::windows2(input, pos)),
        B::to_array(B::windows4(input, pos)),
    )
}

proptest! {
    #[test]
    fn avx2_windows_match_scalar(input in proptest::collection::vec(any::<u8>(), 24..256), pos in 0usize..200) {
        prop_assume!(pos + 11 <= input.len());
        if !avx2_available() { return Ok(()); }
        let (s2, s4) = windows_arrays::<ScalarBackend, 8>(&input, pos);
        let (a2, a4) = windows_arrays::<Avx2Backend, 8>(&input, pos);
        prop_assert_eq!(s2, a2);
        prop_assert_eq!(s4, a4);
    }

    #[test]
    fn avx512_windows_match_scalar(input in proptest::collection::vec(any::<u8>(), 40..256), pos in 0usize..200) {
        prop_assume!(pos + 19 <= input.len());
        if !avx512_available() { return Ok(()); }
        let (s2, s4) = windows_arrays::<ScalarBackend, 16>(&input, pos);
        let (a2, a4) = windows_arrays::<Avx512Backend, 16>(&input, pos);
        prop_assert_eq!(s2, a2);
        prop_assert_eq!(s4, a4);
    }

    #[test]
    fn avx2_gather_matches_scalar(table in proptest::collection::vec(any::<u8>(), 64..2048), raw_idx in proptest::array::uniform8(any::<u32>())) {
        if !avx2_available() { return Ok(()); }
        let limit = (table.len() - GATHER_PADDING) as u32;
        let idx = raw_idx.map(|i| i % limit);
        let s = <ScalarBackend as VectorBackend<8>>::gather_bytes(&table, idx);
        let a = <Avx2Backend as VectorBackend<8>>::to_array(
            <Avx2Backend as VectorBackend<8>>::gather_bytes(
                &table,
                <Avx2Backend as VectorBackend<8>>::from_array(idx),
            ),
        );
        prop_assert_eq!(s, a);
    }

    #[test]
    fn avx512_gather_matches_scalar(table in proptest::collection::vec(any::<u8>(), 64..2048), raw_idx in proptest::array::uniform16(any::<u32>())) {
        if !avx512_available() { return Ok(()); }
        let limit = (table.len() - GATHER_PADDING) as u32;
        let idx = raw_idx.map(|i| i % limit);
        let s = <ScalarBackend as VectorBackend<16>>::gather_bytes(&table, idx);
        let a = <Avx512Backend as VectorBackend<16>>::to_array(
            <Avx512Backend as VectorBackend<16>>::gather_bytes(
                &table,
                <Avx512Backend as VectorBackend<16>>::from_array(idx),
            ),
        );
        prop_assert_eq!(s, a);
    }

    #[test]
    fn avx2_lane_ops_match_scalar(v in proptest::array::uniform8(any::<u32>()), mul in any::<u32>(), shift in 0u32..31, mask in any::<u32>()) {
        if !avx2_available() { return Ok(()); }
        type A8 = Avx2Backend;
        let reg = <A8 as VectorBackend<8>>::from_array(v);
        prop_assert_eq!(
            <ScalarBackend as VectorBackend<8>>::hash_mul_shift(v, mul, shift, mask),
            <A8 as VectorBackend<8>>::to_array(<A8 as VectorBackend<8>>::hash_mul_shift(reg, mul, shift, mask))
        );
        prop_assert_eq!(
            <ScalarBackend as VectorBackend<8>>::shr_const(v, shift),
            <A8 as VectorBackend<8>>::to_array(<A8 as VectorBackend<8>>::shr_const(reg, shift))
        );
        prop_assert_eq!(
            <ScalarBackend as VectorBackend<8>>::and_const(v, mask),
            <A8 as VectorBackend<8>>::to_array(<A8 as VectorBackend<8>>::and_const(reg, mask))
        );
    }

    #[test]
    fn avx512_lane_ops_match_scalar(v in proptest::array::uniform16(any::<u32>()), mul in any::<u32>(), shift in 0u32..31, mask in any::<u32>()) {
        if !avx512_available() { return Ok(()); }
        type A16 = Avx512Backend;
        let reg = <A16 as VectorBackend<16>>::from_array(v);
        prop_assert_eq!(
            <ScalarBackend as VectorBackend<16>>::hash_mul_shift(v, mul, shift, mask),
            <A16 as VectorBackend<16>>::to_array(<A16 as VectorBackend<16>>::hash_mul_shift(reg, mul, shift, mask))
        );
    }

    #[test]
    fn avx2_bit_test_matches_scalar(bytes in proptest::array::uniform8(0u32..256), windows in proptest::array::uniform8(any::<u32>())) {
        if !avx2_available() { return Ok(()); }
        type A8 = Avx2Backend;
        prop_assert_eq!(
            <ScalarBackend as VectorBackend<8>>::test_window_bits(bytes, windows),
            <A8 as VectorBackend<8>>::test_window_bits(
                <A8 as VectorBackend<8>>::from_array(bytes),
                <A8 as VectorBackend<8>>::from_array(windows)
            )
        );
    }

    #[test]
    fn avx512_bit_test_matches_scalar(bytes in proptest::array::uniform16(0u32..256), windows in proptest::array::uniform16(any::<u32>())) {
        if !avx512_available() { return Ok(()); }
        type A16 = Avx512Backend;
        prop_assert_eq!(
            <ScalarBackend as VectorBackend<16>>::test_window_bits(bytes, windows),
            <A16 as VectorBackend<16>>::test_window_bits(
                <A16 as VectorBackend<16>>::from_array(bytes),
                <A16 as VectorBackend<16>>::from_array(windows)
            )
        );
    }
}

proptest! {
    #[test]
    fn gather_u16_matches_scalar_on_all_backends(table in proptest::collection::vec(any::<u8>(), 64..2048), raw_idx in proptest::array::uniform16(any::<u32>())) {
        let limit = (table.len() - GATHER_PADDING) as u32;
        let idx16 = raw_idx.map(|i| i % limit);
        let idx8: [u32; 8] = std::array::from_fn(|j| idx16[j]);
        // Scalar default implementation is the reference.
        let expected8 = <ScalarBackend as VectorBackend<8>>::gather_u16(&table, idx8);
        for (j, &i) in idx8.iter().enumerate() {
            let want = u16::from_le_bytes([table[i as usize], table[i as usize + 1]]) as u32;
            prop_assert_eq!(expected8[j], want);
        }
        if avx2_available() {
            type A8 = Avx2Backend;
            prop_assert_eq!(
                <A8 as VectorBackend<8>>::to_array(<A8 as VectorBackend<8>>::gather_u16(
                    &table,
                    <A8 as VectorBackend<8>>::from_array(idx8)
                )),
                expected8
            );
        }
        if avx512_available() {
            type A16 = Avx512Backend;
            let expected16 = <ScalarBackend as VectorBackend<16>>::gather_u16(&table, idx16);
            prop_assert_eq!(
                <A16 as VectorBackend<16>>::to_array(<A16 as VectorBackend<16>>::gather_u16(
                    &table,
                    <A16 as VectorBackend<16>>::from_array(idx16)
                )),
                expected16
            );
        }
    }
}

// --- compress_store: the vectorized candidate-compaction primitive --------
//
// Scalar (the trait default's bit-loop), AVX2 (vpermd LUT) and AVX-512
// (vpcompressd) must produce byte-identical candidate arrays: same values,
// same order, same count, pre-existing contents untouched.

proptest! {
    #[test]
    fn compress_store_matches_scalar_over_random_masks_and_bases(
        masks in proptest::collection::vec(any::<u32>(), 1..40),
        base in 0u32..0x4000_0000,
        prefix in proptest::collection::vec(any::<u32>(), 0..8),
    ) {
        // Chain many appends so capacity growth and non-empty destinations
        // are exercised, not just the single-call case.
        let mut expected8 = prefix.clone();
        let mut got8 = prefix.clone();
        let mut expected16 = prefix.clone();
        let mut got16 = prefix.clone();
        for (k, &mask) in masks.iter().enumerate() {
            // Walk the base forward as the filtering loop would.
            let b = base.wrapping_add((k * 8) as u32);
            <ScalarBackend as VectorBackend<8>>::compress_store(mask, b, &mut expected8);
            if avx2_available() {
                <Avx2Backend as VectorBackend<8>>::compress_store(mask, b, &mut got8);
            }
            let b16 = base.wrapping_add((k * 16) as u32);
            <ScalarBackend as VectorBackend<16>>::compress_store(mask, b16, &mut expected16);
            if avx512_available() {
                <Avx512Backend as VectorBackend<16>>::compress_store(mask, b16, &mut got16);
            }
        }
        if avx2_available() {
            prop_assert_eq!(&got8, &expected8);
        }
        if avx512_available() {
            prop_assert_eq!(&got16, &expected16);
        }
        // The scalar reference itself: each appended run is sorted, within
        // [b, b + W), and sized by the mask popcount.
        let appended = &expected8[prefix.len()..];
        let total: u32 = masks.iter().map(|m| (m & 0xff).count_ones()).sum();
        prop_assert_eq!(appended.len() as u32, total);
    }

    #[test]
    fn compress_store_popcount_and_order_invariants(mask in any::<u32>(), base in 0u32..0x7fff_0000) {
        let mut out = Vec::new();
        <ScalarBackend as VectorBackend<16>>::compress_store(mask, base, &mut out);
        prop_assert_eq!(out.len() as u32, (mask & 0xffff).count_ones());
        prop_assert!(out.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(out.iter().all(|&p| p >= base && p < base + 16));
    }
}

/// Block-boundary cases: masks emitted by consecutive filter blocks at
/// `base = 0, W, 2*W` must concatenate into the exact candidate array the
/// scalar reference produces — this is the pattern `VPatch::filter_round`
/// relies on (including its 2× unrolled `base` / `base + W` pairs).
#[test]
fn compress_store_block_boundary_cases() {
    fn check<B: VectorBackend<W>, const W: usize>(available: bool) {
        if !available {
            return;
        }
        let interesting = [
            0u32,
            1,
            1 << (W - 1),
            B::full_mask(),
            0x5555_5555 & B::full_mask(),
            0xaaaa_aaaa & B::full_mask(),
            (1 << (W / 2)) | 1,
        ];
        for &m0 in &interesting {
            for &m1 in &interesting {
                for &m2 in &interesting {
                    let mut expected = Vec::new();
                    let mut got = Vec::new();
                    for (block, &mask) in [m0, m1, m2].iter().enumerate() {
                        // Bases at exactly 0, W and 2*W: the boundaries where
                        // the unrolled vector loop stitches blocks together.
                        let base = (block * W) as u32;
                        <ScalarBackend as VectorBackend<W>>::compress_store(
                            mask,
                            base,
                            &mut expected,
                        );
                        B::compress_store(mask, base, &mut got);
                    }
                    assert_eq!(
                        got,
                        expected,
                        "backend {} masks {m0:#x}/{m1:#x}/{m2:#x}",
                        B::name()
                    );
                    // Concatenated blocks must remain strictly increasing:
                    // no duplicated or out-of-order position can cross a
                    // W or 2*W boundary.
                    assert!(got.windows(2).all(|w| w[0] < w[1]));
                }
            }
        }
    }
    check::<ScalarBackend, 8>(true);
    check::<ScalarBackend, 16>(true);
    check::<Avx2Backend, 8>(avx2_available());
    check::<Avx512Backend, 16>(avx512_available());
}

/// `base + lane` wraps modulo 2³² identically on every backend (the hardware
/// adds are wrapping; the scalar default matches). Engines never scan within
/// `W` of `u32::MAX`, but the primitive is total and must stay equivalent.
#[test]
fn compress_store_wraps_identically_near_u32_max() {
    for base in [u32::MAX, u32::MAX - 7, u32::MAX - 15] {
        for mask in [1u32, 0x8001, 0xffff, 0xaaaa] {
            let mut expected8 = Vec::new();
            <ScalarBackend as VectorBackend<8>>::compress_store(mask, base, &mut expected8);
            if avx2_available() {
                let mut got = Vec::new();
                <Avx2Backend as VectorBackend<8>>::compress_store(mask, base, &mut got);
                assert_eq!(got, expected8, "avx2 base {base:#x} mask {mask:#x}");
            }
            let mut expected16 = Vec::new();
            <ScalarBackend as VectorBackend<16>>::compress_store(mask, base, &mut expected16);
            if avx512_available() {
                let mut got = Vec::new();
                <Avx512Backend as VectorBackend<16>>::compress_store(mask, base, &mut got);
                assert_eq!(got, expected16, "avx512 base {base:#x} mask {mask:#x}");
            }
        }
    }
}

// --- gather_u32: 4-byte windows straight from candidate positions ---------

proptest! {
    #[test]
    fn gather_u32_matches_scalar_on_all_backends(table in proptest::collection::vec(any::<u8>(), 64..2048), raw_idx in proptest::array::uniform16(any::<u32>())) {
        let limit = (table.len() - GATHER_PADDING) as u32;
        let idx16 = raw_idx.map(|i| i % limit);
        let idx8: [u32; 8] = std::array::from_fn(|j| idx16[j]);
        // Scalar default implementation is the reference.
        let expected8 = <ScalarBackend as VectorBackend<8>>::gather_u32(&table, idx8);
        for (j, &i) in idx8.iter().enumerate() {
            let i = i as usize;
            let want = u32::from_le_bytes([table[i], table[i + 1], table[i + 2], table[i + 3]]);
            prop_assert_eq!(expected8[j], want);
        }
        if avx2_available() {
            type A8 = Avx2Backend;
            prop_assert_eq!(
                <A8 as VectorBackend<8>>::to_array(<A8 as VectorBackend<8>>::gather_u32(
                    &table,
                    <A8 as VectorBackend<8>>::from_array(idx8)
                )),
                expected8
            );
        }
        if avx512_available() {
            type A16 = Avx512Backend;
            let expected16 = <ScalarBackend as VectorBackend<16>>::gather_u32(&table, idx16);
            prop_assert_eq!(
                <A16 as VectorBackend<16>>::to_array(<A16 as VectorBackend<16>>::gather_u32(
                    &table,
                    <A16 as VectorBackend<16>>::from_array(idx16)
                )),
                expected16
            );
        }
    }
}

// --- eq_window / eq_window_nocase: the batched-verify compare -------------
//
// The scalar defaults (`==` / `eq_ignore_ascii_case`) are the reference
// semantics; the hardware backends' 32/64-byte compare-mask + masked-load
// implementations must agree on every byte value at every position across
// lengths that cover the full-block loop, the masked-dword remainder and the
// final scalar bytes.

/// Asserts every backend agrees with the scalar reference on one pair.
fn assert_eq_window_all_backends(a: &[u8], b: &[u8], context: &str) {
    let exact = <ScalarBackend as VectorBackend<8>>::eq_window(a, b);
    let folded = <ScalarBackend as VectorBackend<8>>::eq_window_nocase(a, b);
    assert_eq!(
        exact,
        a == b,
        "scalar eq_window reference broken: {context}"
    );
    assert_eq!(
        folded,
        a.eq_ignore_ascii_case(b),
        "scalar eq_window_nocase reference broken: {context}"
    );
    if avx2_available() {
        assert_eq!(
            <Avx2Backend as VectorBackend<8>>::eq_window(a, b),
            exact,
            "avx2 eq_window: {context}"
        );
        assert_eq!(
            <Avx2Backend as VectorBackend<8>>::eq_window_nocase(a, b),
            folded,
            "avx2 eq_window_nocase: {context}"
        );
    }
    if avx512_available() {
        assert_eq!(
            <Avx512Backend as VectorBackend<16>>::eq_window(a, b),
            exact,
            "avx512 eq_window: {context}"
        );
        assert_eq!(
            <Avx512Backend as VectorBackend<16>>::eq_window_nocase(a, b),
            folded,
            "avx512 eq_window_nocase: {context}"
        );
    }
}

/// Window lengths covering every code-path split of both hardware kernels:
/// scalar-only (< 4), masked-dword-only (4..32 / 4..64), full blocks with
/// every remainder class, and multi-block.
const EQ_WINDOW_LENGTHS: &[usize] = &[
    1, 2, 3, 4, 5, 6, 7, 8, 11, 15, 16, 19, 28, 31, 32, 33, 35, 36, 47, 48, 63, 64, 65, 67, 96,
    100, 128, 131,
];

#[test]
fn eq_window_byte_exhaustive_at_every_position_class() {
    for &len in EQ_WINDOW_LENGTHS {
        let base: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(37)).collect();
        // Mutation positions: start, every block/tail seam neighbourhood, end.
        let mut positions = vec![0, len / 2, len - 1];
        for seam in [4usize, 32, 64] {
            if len > seam {
                positions.push(seam - 1);
                positions.push(seam);
            }
        }
        positions.retain(|&p| p < len);
        for byte in 0..=255u8 {
            for &pos in &positions {
                // The partner byte sweeps: identical, case-toggled,
                // lowercased, and off-by-one — covering equal, fold-equal
                // and unequal outcomes for every byte value.
                for partner in [
                    byte,
                    byte ^ 0x20,
                    byte.to_ascii_lowercase(),
                    byte.wrapping_add(1),
                ] {
                    let mut a = base.clone();
                    let mut b = base.clone();
                    a[pos] = byte;
                    b[pos] = partner;
                    assert_eq_window_all_backends(
                        &a,
                        &b,
                        &format!("len {len} pos {pos} byte {byte:#04x} partner {partner:#04x}"),
                    );
                }
            }
        }
    }
}

#[test]
fn eq_window_at_the_very_end_of_an_allocation() {
    // The masked-load safety contract: windows ending exactly at the last
    // byte of a heap allocation must compare correctly without reading past
    // it (dword-masked loads + scalar tail never touch bytes outside the
    // slice). Exercised for every remainder class.
    let hay: Vec<u8> = (0..4096).map(|i| (i as u8) ^ 0x5a).collect();
    for &len in EQ_WINDOW_LENGTHS {
        let window = &hay[hay.len() - len..];
        let pattern = window.to_vec();
        assert_eq_window_all_backends(window, &pattern, &format!("end-of-alloc len {len}"));
        let mut unequal = pattern.clone();
        unequal[len - 1] ^= 0xff;
        assert_eq_window_all_backends(window, &unequal, &format!("end-of-alloc-ne len {len}"));
    }
}

proptest! {
    #[test]
    fn eq_window_matches_reference_on_random_pairs(
        a in proptest::collection::vec(any::<u8>(), 0..140),
        flips in proptest::collection::vec(any::<bool>(), 1..8),
        toggle_case in proptest::collection::vec(any::<bool>(), 1..8),
    ) {
        // Derive b from a: random case toggles (fold-equal) plus occasional
        // hard flips (unequal), so all three outcomes appear.
        let mut b = a.clone();
        for (i, byte) in b.iter_mut().enumerate() {
            if toggle_case[i % toggle_case.len()] && byte.is_ascii_alphabetic() {
                *byte ^= 0x20;
            }
            if flips[i % flips.len()] && i % 13 == 0 {
                *byte = byte.wrapping_add(1);
            }
        }
        assert_eq_window_all_backends(&a, &b, "random pair");
        assert_eq_window_all_backends(&a, &a.clone(), "identical pair");
    }
}

// --- to_ascii_lower: the case-folding primitive ---------------------------
//
// Every backend must fold exactly the bytes `b'A'..=b'Z'` (OR 0x20) in every
// packed byte position and leave everything else — digits, punctuation,
// already-lowercase letters, non-ASCII 0x80..=0xFF — untouched. The scalar
// SWAR reference is itself validated byte-exhaustively in the crate's unit
// tests; here the hardware backends are held to it on arbitrary lanes.

proptest! {
    #[test]
    fn to_ascii_lower_matches_scalar_on_random_lanes(
        v8 in proptest::array::uniform8(any::<u32>()),
        v16 in proptest::array::uniform16(any::<u32>()),
    ) {
        // Scalar reference equals the per-byte std fold.
        let expected8 = <ScalarBackend as VectorBackend<8>>::to_ascii_lower(v8);
        for (lane, &x) in v8.iter().enumerate() {
            let want = u32::from_le_bytes(x.to_le_bytes().map(|b| b.to_ascii_lowercase()));
            prop_assert_eq!(expected8[lane], want);
        }
        if avx2_available() {
            type A8 = Avx2Backend;
            prop_assert_eq!(
                <A8 as VectorBackend<8>>::to_array(<A8 as VectorBackend<8>>::to_ascii_lower(
                    <A8 as VectorBackend<8>>::from_array(v8)
                )),
                expected8
            );
        }
        let expected16 = <ScalarBackend as VectorBackend<16>>::to_ascii_lower(v16);
        if avx512_available() {
            type A16 = Avx512Backend;
            prop_assert_eq!(
                <A16 as VectorBackend<16>>::to_array(<A16 as VectorBackend<16>>::to_ascii_lower(
                    <A16 as VectorBackend<16>>::from_array(v16)
                )),
                expected16
            );
        }
    }
}

// --- occurrence prescreen ------------------------------------------------
//
// `prescreen` must report exactly the starts whose first and last pattern
// byte match — the definition below, written independently of the blocked
// implementation — on every backend, inside that backend's `dispatch`
// region (where the default compiles to the backend's vector compares).

/// The starts `prescreen` must report, by definition.
fn prescreen_reference(
    hay: &[u8],
    starts: std::ops::RangeInclusive<usize>,
    pattern: &[u8],
    fold: bool,
) -> Vec<usize> {
    let norm = |b: u8| if fold { b.to_ascii_lowercase() } else { b };
    let gap = pattern.len() - 1;
    starts
        .filter(|&s| norm(hay[s]) == norm(pattern[0]) && norm(hay[s + gap]) == norm(pattern[gap]))
        .collect()
}

fn prescreen_on<B: VectorBackend<W>, const W: usize>(
    hay: &[u8],
    starts: std::ops::RangeInclusive<usize>,
    pattern: &[u8],
    fold: bool,
) -> Vec<usize> {
    let mut got = Vec::new();
    B::dispatch(|| {
        if fold {
            B::prescreen::<true>(hay, starts, pattern, |start| got.push(start));
        } else {
            B::prescreen::<false>(hay, starts, pattern, |start| got.push(start));
        }
    });
    got
}

/// Asserts every available backend reports the reference starts, exact and
/// folded.
fn assert_prescreen_all_backends(
    hay: &[u8],
    starts: std::ops::RangeInclusive<usize>,
    pattern: &[u8],
    context: &str,
) {
    for fold in [false, true] {
        let expected = prescreen_reference(hay, starts.clone(), pattern, fold);
        assert_eq!(
            prescreen_on::<ScalarBackend, 8>(hay, starts.clone(), pattern, fold),
            expected,
            "scalar prescreen (fold {fold}): {context}"
        );
        if avx2_available() {
            assert_eq!(
                prescreen_on::<Avx2Backend, 8>(hay, starts.clone(), pattern, fold),
                expected,
                "avx2 prescreen (fold {fold}): {context}"
            );
        }
        if avx512_available() {
            assert_eq!(
                prescreen_on::<Avx512Backend, 16>(hay, starts.clone(), pattern, fold),
                expected,
                "avx512 prescreen (fold {fold}): {context}"
            );
        }
    }
}

#[test]
fn prescreen_on_exact_size_allocations_at_every_tail_and_pattern_length() {
    // The haystack is a boxed slice of exactly the bytes the call may read,
    // so a load past the last start's last byte leaves the allocation (and,
    // in the safe default, panics on the slice bound). Every number of
    // starts from none to two blocks — whole blocks, every scalar-tail
    // length, both — against every pattern length from one byte (first and
    // last byte coincide) to one longer than a block, with the one
    // occurrence at the first or at the last start.
    const BLOCK: usize = mpm_simd::PRESCREEN_BLOCK;
    for starts in 0..=2 * BLOCK {
        for len in 1..=BLOCK + 1 {
            let pattern: Vec<u8> = (0..len).map(|i| b'A' + (i % 23) as u8).collect();
            let context = format!("{starts} starts, pattern length {len}");
            if starts == 0 {
                // An empty range reads nothing, even from an empty haystack.
                let hay: Box<[u8]> = Box::new([]);
                #[allow(clippy::reversed_empty_ranges)]
                assert_prescreen_all_backends(&hay, 1..=0, &pattern, &context);
                continue;
            }
            for planted in [0, starts - 1] {
                // Lowercase filler: no filler byte equals a pattern byte
                // exactly, but the folded prescreen sees near-misses.
                let mut hay = vec![b'q'; starts + len - 1];
                hay[planted..planted + len].copy_from_slice(&pattern);
                let hay: Box<[u8]> = hay.into_boxed_slice();
                let context = format!("{context}, occurrence at {planted}");
                assert_eq!(
                    prescreen_reference(&hay, 0..=starts - 1, &pattern, false),
                    vec![planted],
                    "fixture: {context}"
                );
                assert_prescreen_all_backends(&hay, 0..=starts - 1, &pattern, &context);
            }
        }
    }
}

proptest! {
    #[test]
    fn prescreen_matches_reference_on_random_windows(
        hay in proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'A'), Just(b'b'), Just(0xC1u8), any::<u8>()], 1..400),
        pattern in proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'A'), Just(b'b'), any::<u8>()], 1..70),
        lo in any::<usize>(),
        span in any::<usize>(),
    ) {
        prop_assume!(pattern.len() <= hay.len());
        let last_start = hay.len() - pattern.len();
        let lo = lo % (last_start + 1);
        let hi = lo + span % (last_start - lo + 1);
        assert_prescreen_all_backends(&hay, lo..=hi, &pattern, &format!("starts {lo}..={hi}"));
    }
}

// --- bucket_survivors: the verification round's bucket test --------------
//
// Every backend must report the entries that fit and the entries whose
// suffix fingerprint passes exactly as the definition below — written
// independently of every implementation — on exact-size allocations, so a
// column load past a slice or a haystack word read past the end leaves the
// allocation.

/// The `(fit, pass)` masks of `bucket_survivors`, by definition.
fn bucket_reference(
    lens: &[u32],
    suffixes: &[u32],
    hay: &[u8],
    pos: usize,
    fold: bool,
) -> (u32, u32) {
    let norm = |b: u8| if fold { b.to_ascii_lowercase() } else { b };
    let (mut fit, mut pass) = (0u32, 0u32);
    for (j, (&len, &suffix)) in lens.iter().zip(suffixes).enumerate() {
        let len = (len & mpm_simd::BUCKET_LEN_MASK) as usize;
        if pos + len > hay.len() {
            continue;
        }
        fit |= 1 << j;
        let suffix = suffix.to_le_bytes();
        let passes = if len >= 4 {
            (0..4).all(|k| norm(hay[pos + len - 4 + k]) == suffix[k])
        } else {
            pos + 4 > hay.len() || (0..len).all(|k| norm(hay[pos + k]) == suffix[k])
        };
        if passes {
            pass |= 1 << j;
        }
    }
    (fit, pass)
}

fn survivors_on<B: VectorBackend<W>, const W: usize>(
    lens: &[u32],
    suffixes: &[u32],
    hay: &[u8],
    pos: usize,
    fold: bool,
) -> (u32, u32) {
    B::dispatch(|| {
        if fold {
            B::bucket_survivors::<true>(lens, suffixes, hay, pos)
        } else {
            B::bucket_survivors::<false>(lens, suffixes, hay, pos)
        }
    })
}

/// Pattern lengths of the test buckets: empty, short, exactly one word,
/// long, ones with the caller's flag bit set, ones that end at and just past
/// the 64 bytes at `pos` (the AVX-512 backend reads words inside that
/// window without a gather), and one no haystack holds.
const BUCKET_LENS: [u32; 16] = [
    3,
    5,
    1,
    4,
    0x8000_0002,
    9,
    64,
    2,
    0,
    0x8000_0006,
    17,
    65,
    1 << 20,
    4,
    0x8000_0040,
    61,
];

/// The fingerprint entry `j` of length `len` needs to pass at `pos` (its
/// last `min(len, 4)` haystack bytes, the uncovered bytes junk), spoiled in
/// a covered byte for every third entry; junk where it does not fit.
fn suffix_for(j: usize, len: usize, hay: &[u8], pos: usize, fold: bool) -> u32 {
    if pos + len > hay.len() {
        return 0x5a5a_5a5a ^ j as u32;
    }
    let covered = len.min(4);
    let mut word = [0xA5u8, 0xC3, 0x5A, 0x3C];
    for k in 0..covered {
        let b = hay[pos + len - covered + k];
        word[k] = if fold { b.to_ascii_lowercase() } else { b };
    }
    if j % 3 == 2 && covered > 0 {
        word[covered - 1] ^= 0x01;
    }
    u32::from_le_bytes(word)
}

#[test]
fn bucket_survivors_on_exact_size_allocations_at_every_tail_and_bucket_size() {
    let text =
        b"GeT /aBc HTTP/1.1\r\nHost: X.example\r\nUser-Agent: Mozilla/5.0\r\nAccept: */*\r\n\r\n";
    let (mut fits, mut passes) = (0u32, 0u32);
    for hay_len in 0..=text.len() {
        let hay: Box<[u8]> = text[..hay_len].to_vec().into_boxed_slice();
        for pos in 0..=hay_len {
            for fold in [false, true] {
                for n in 0..=16usize {
                    let lens: Box<[u32]> = (0..n)
                        .map(|j| BUCKET_LENS[(j + pos) % BUCKET_LENS.len()])
                        .collect();
                    let suffixes: Box<[u32]> = lens
                        .iter()
                        .enumerate()
                        .map(|(j, &len)| {
                            let len = (len & mpm_simd::BUCKET_LEN_MASK) as usize;
                            suffix_for(j, len, &hay, pos, fold)
                        })
                        .collect();
                    let expected = bucket_reference(&lens, &suffixes, &hay, pos, fold);
                    fits += expected.0.count_ones();
                    passes += expected.1.count_ones();
                    let context = format!("hay {hay_len} pos {pos} fold {fold} entries {n}");
                    assert_eq!(
                        survivors_on::<ScalarBackend, 16>(&lens, &suffixes, &hay, pos, fold),
                        expected,
                        "scalar: {context}"
                    );
                    if n <= 8 {
                        assert_eq!(
                            survivors_on::<ScalarBackend, 8>(&lens, &suffixes, &hay, pos, fold),
                            expected,
                            "scalar/8: {context}"
                        );
                        if avx2_available() {
                            assert_eq!(
                                survivors_on::<Avx2Backend, 8>(&lens, &suffixes, &hay, pos, fold),
                                expected,
                                "avx2: {context}"
                            );
                        }
                    }
                    if avx512_available() {
                        assert_eq!(
                            survivors_on::<Avx512Backend, 16>(&lens, &suffixes, &hay, pos, fold),
                            expected,
                            "avx512: {context}"
                        );
                    }
                }
            }
        }
    }
    // Not vacuous: entries fit, pass, and are rejected by their fingerprint.
    assert!(
        passes > 10_000 && fits > passes + 10_000,
        "{fits} fit, {passes} pass"
    );
}

proptest! {
    #[test]
    fn bucket_survivors_match_reference_on_random_buckets(
        hay in proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'A'), Just(0xC1u8), any::<u8>()], 0..160),
        raw_lens in proptest::collection::vec(any::<u32>(), 0..17),
        raw_suffixes in proptest::array::uniform16(any::<u32>()),
        pos in any::<usize>(),
        fold in any::<bool>(),
    ) {
        let pos = pos % (hay.len() + 1);
        // Lengths that mostly fit, keeping the caller's flag bit.
        let lens: Vec<u32> = raw_lens.iter().map(|&l| (l & 0x8000_0000) | ((l & 0x7fff_ffff) % 70)).collect();
        let suffixes: Vec<u32> = raw_suffixes[..lens.len()]
            .iter()
            .enumerate()
            .map(|(j, &s)| {
                let len = (lens[j] & mpm_simd::BUCKET_LEN_MASK) as usize;
                if s % 2 == 0 { suffix_for(j, len, &hay, pos, fold) } else { s }
            })
            .collect();
        let expected = bucket_reference(&lens, &suffixes, &hay, pos, fold);
        prop_assert_eq!(survivors_on::<ScalarBackend, 16>(&lens, &suffixes, &hay, pos, fold), expected);
        if avx512_available() {
            prop_assert_eq!(survivors_on::<Avx512Backend, 16>(&lens, &suffixes, &hay, pos, fold), expected);
        }
        if lens.len() <= 8 && avx2_available() {
            prop_assert_eq!(survivors_on::<Avx2Backend, 8>(&lens, &suffixes, &hay, pos, fold), expected);
        }
    }
}

#[test]
#[should_panic(expected = "bucket_survivors")]
fn bucket_survivors_rejects_more_entries_than_lanes() {
    let _ =
        <ScalarBackend as VectorBackend<8>>::bucket_survivors::<false>(&[1; 9], &[0; 9], b"abc", 0);
}
