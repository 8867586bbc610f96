//! Portable scalar implementation of [`VectorBackend`].
//!
//! This backend defines the reference semantics every SIMD backend must
//! reproduce, and is the fallback used on CPUs without AVX2. It is also the
//! "S-PATCH run through the vector interface" used by some ablation benches:
//! plain loops over `W`-element arrays, which the compiler may or may not
//! auto-vectorize, but which never use gather hardware.
//!
//! Its register type [`VectorBackend::Vec`] is the plain `[u32; W]` lane
//! array, so the trait's array-based default implementations (`gather_u16`,
//! `test_window_bits`, `compress_store`) *are* the scalar
//! implementations.

use crate::{VectorBackend, GATHER_PADDING};

/// Scalar backend generic over the lane count.
///
/// Use the [`ScalarWide8`] / [`ScalarWide16`] aliases when a concrete width
/// is needed (e.g. to emulate the AVX2 / Xeon-Phi widths on machines without
/// those instruction sets).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScalarBackend;

/// Scalar backend at the AVX2 width (8 lanes).
pub type ScalarWide8 = ScalarBackend;
/// Scalar backend at the AVX-512 / Xeon-Phi width (16 lanes).
pub type ScalarWide16 = ScalarBackend;

impl<const W: usize> VectorBackend<W> for ScalarBackend {
    type Vec = [u32; W];

    fn name() -> &'static str {
        "scalar"
    }

    fn is_available() -> bool {
        true
    }

    #[inline(always)]
    fn from_array(v: [u32; W]) -> [u32; W] {
        v
    }

    #[inline(always)]
    fn to_array(v: [u32; W]) -> [u32; W] {
        v
    }

    #[inline]
    fn windows2(input: &[u8], pos: usize) -> [u32; W] {
        assert!(
            pos + W < input.len(),
            "windows2 needs {} bytes at pos {pos}, input has {}",
            W + 1,
            input.len()
        );
        let mut out = [0u32; W];
        for (j, slot) in out.iter_mut().enumerate() {
            *slot = u16::from_le_bytes([input[pos + j], input[pos + j + 1]]) as u32;
        }
        out
    }

    #[inline]
    fn windows4(input: &[u8], pos: usize) -> [u32; W] {
        assert!(
            pos + W + 3 <= input.len(),
            "windows4 needs {} bytes at pos {pos}, input has {}",
            W + 3,
            input.len()
        );
        let mut out = [0u32; W];
        for (j, slot) in out.iter_mut().enumerate() {
            *slot = u32::from_le_bytes([
                input[pos + j],
                input[pos + j + 1],
                input[pos + j + 2],
                input[pos + j + 3],
            ]);
        }
        out
    }

    #[inline]
    fn gather_bytes(table: &[u8], idx: [u32; W]) -> [u32; W] {
        let mut out = [0u32; W];
        for (j, slot) in out.iter_mut().enumerate() {
            let i = idx[j] as usize;
            debug_assert!(
                i + GATHER_PADDING <= table.len(),
                "gather index {i} violates the padding requirement (table len {})",
                table.len()
            );
            *slot = table[i] as u32;
        }
        out
    }

    #[inline]
    fn hash_mul_shift(v: [u32; W], mul: u32, shift: u32, mask: u32) -> [u32; W] {
        let mut out = [0u32; W];
        for (j, slot) in out.iter_mut().enumerate() {
            *slot = (v[j].wrapping_mul(mul) >> shift) & mask;
        }
        out
    }

    #[inline]
    fn shr_const(v: [u32; W], n: u32) -> [u32; W] {
        let mut out = [0u32; W];
        for (j, slot) in out.iter_mut().enumerate() {
            *slot = v[j] >> n;
        }
        out
    }

    #[inline]
    fn and_const(v: [u32; W], c: u32) -> [u32; W] {
        let mut out = [0u32; W];
        for (j, slot) in out.iter_mut().enumerate() {
            *slot = v[j] & c;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type S8 = ScalarBackend;

    #[test]
    fn windows2_builds_overlapping_pairs() {
        let input = b"ABCDEFGHIJ";
        let w: [u32; 8] = <S8 as VectorBackend<8>>::windows2(input, 0);
        assert_eq!(w[0], u16::from_le_bytes([b'A', b'B']) as u32);
        assert_eq!(w[1], u16::from_le_bytes([b'B', b'C']) as u32);
        assert_eq!(w[7], u16::from_le_bytes([b'H', b'I']) as u32);
        let w1: [u32; 4] = <S8 as VectorBackend<4>>::windows2(input, 3);
        assert_eq!(w1[0], u16::from_le_bytes([b'D', b'E']) as u32);
    }

    #[test]
    fn windows4_builds_overlapping_quads() {
        let input = b"ABCDEFGHIJKL";
        let w: [u32; 8] = <S8 as VectorBackend<8>>::windows4(input, 1);
        assert_eq!(w[0], u32::from_le_bytes(*b"BCDE"));
        assert_eq!(w[7], u32::from_le_bytes(*b"IJKL"));
    }

    #[test]
    #[should_panic(expected = "windows2 needs")]
    fn windows2_out_of_bounds_panics() {
        let input = b"short";
        let _: [u32; 8] = <S8 as VectorBackend<8>>::windows2(input, 0);
    }

    #[test]
    fn gather_reads_single_bytes() {
        let mut table = vec![0u8; 64];
        table[3] = 0xaa;
        table[17] = 0x5b;
        let idx = [3u32, 17, 0, 3, 17, 0, 3, 17];
        let got: [u32; 8] = <S8 as VectorBackend<8>>::gather_bytes(&table, idx);
        assert_eq!(got, [0xaa, 0x5b, 0, 0xaa, 0x5b, 0, 0xaa, 0x5b]);
    }

    #[test]
    fn hash_mul_shift_matches_scalar_formula() {
        let v = [0x1234_5678u32, 0, 1, u32::MAX, 42, 7, 8, 9];
        let out: [u32; 8] = <S8 as VectorBackend<8>>::hash_mul_shift(v, 0x9E37_79B1, 20, 0xfff);
        for j in 0..8 {
            assert_eq!(out[j], (v[j].wrapping_mul(0x9E37_79B1) >> 20) & 0xfff);
        }
    }

    #[test]
    fn shift_and_and() {
        let v = [0b1011u32; 8];
        assert_eq!(<S8 as VectorBackend<8>>::shr_const(v, 1)[0], 0b101);
        assert_eq!(<S8 as VectorBackend<8>>::and_const(v, 0b10)[0], 0b10);
    }

    #[test]
    fn compress_store_drains_mask_in_lane_order() {
        let mut out = Vec::new();
        <S8 as VectorBackend<8>>::compress_store(0b0101_0110, 40, &mut out);
        assert_eq!(out, vec![41, 42, 44, 46]);
        <S8 as VectorBackend<8>>::compress_store(0, 99, &mut out);
        assert_eq!(out.len(), 4);
    }
}
