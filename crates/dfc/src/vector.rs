//! Vector-DFC: the direct vectorization of DFC's filtering loop.
//!
//! This is the "Vector-DFC" configuration of the paper's evaluation: the
//! initial-filter lookups are performed `W` positions at a time with the
//! gather instruction, but the structure of the algorithm is unchanged —
//! classification and verification still happen inline, in scalar code, the
//! moment a window passes the initial filter. Because on realistic traffic a
//! large share of DFC's time is spent in that scalar tail, the speedup over
//! scalar DFC is modest (the paper measures 1.03×–1.23× on Haswell); the
//! point of reproducing it is to show *why* S-PATCH's restructuring is
//! needed before vectorization pays off.
//!
//! The filter lookups ride the register-resident `VectorBackend` API: the
//! `windows2 → shr → gather → test` chain stays in `B::Vec` registers, and
//! the surviving lane masks leave the registers through `compress_store`
//! into the pending buffer, which is drained through the batched,
//! prefetch-pipelined verification path
//! (`DfcTables::classify_and_verify_batch`) rather than each lane being
//! classified and verified inline the moment its bit pops out of the mask.
//! Only the memory scheduling of the verification tail — which dominates
//! Vector-DFC's runtime on realistic traffic, which is the paper's whole
//! point about this engine — differs from the paper's description; the
//! candidate set, match set and comparison counts do not.

use crate::graph;
use crate::tables::{with_drain_buffers, DfcTables, DrainBuffers};
use mpm_graph::{Chunk, TwoRound, DEFAULT_CHUNK};
use mpm_patterns::{MatchEvent, Matcher, MatcherStats, PatternSet};
use mpm_simd::VectorBackend;
use std::marker::PhantomData;

/// Vector-DFC, generic over the SIMD backend and lane count: DFC with the
/// initial-filter sweep vectorized (the two [`TwoRound`] rounds, run chunk
/// by chunk).
#[derive(Clone, Debug)]
pub struct VectorDfc<B: VectorBackend<W>, const W: usize> {
    tables: DfcTables,
    _backend: PhantomData<B>,
}

impl<B: VectorBackend<W>, const W: usize> VectorDfc<B, W> {
    /// Compiles Vector-DFC for `set`.
    ///
    /// # Panics
    /// Panics if the backend is not available on this CPU (check
    /// [`VectorBackend::is_available`] first, or use the scalar backend which
    /// is always available).
    pub fn build(set: &PatternSet) -> Self {
        assert!(
            B::is_available(),
            "SIMD backend {} is not available on this CPU",
            B::name()
        );
        Self::from_tables(DfcTables::build(set))
    }

    /// Wraps pre-built tables in the engine. The backend-availability check
    /// is the caller's responsibility here; [`VectorDfc::build`] performs
    /// it.
    pub fn from_tables(tables: DfcTables) -> Self {
        VectorDfc {
            tables,
            _backend: PhantomData,
        }
    }

    /// The compiled tables (exposed for the cache-simulation experiments and
    /// the memory-footprint reporting).
    pub fn tables(&self) -> &DfcTables {
        &self.tables
    }
}

impl<B: VectorBackend<W>, const W: usize> TwoRound for VectorDfc<B, W> {
    type Pad = DrainBuffers;

    fn filter(&self, chunk: Chunk<'_>, pad: &mut DrainBuffers, _out: &mut Vec<MatchEvent>) -> u64 {
        graph::vector_filter::<B, W>(&self.tables, chunk, &mut pad.0)
    }

    fn verify(&self, chunk: Chunk<'_>, pad: &mut DrainBuffers, out: &mut Vec<MatchEvent>) -> u64 {
        graph::drain::<B, W>(&self.tables, chunk, pad, out)
    }
}

impl<B: VectorBackend<W>, const W: usize> Matcher for VectorDfc<B, W> {
    fn name(&self) -> &'static str {
        "Vector-DFC"
    }

    fn max_pattern_len(&self) -> usize {
        self.tables.max_pattern_len
    }

    fn find_into(&self, haystack: &[u8], out: &mut Vec<MatchEvent>) {
        with_drain_buffers(|pad| {
            mpm_graph::scan(self, haystack, 0..haystack.len(), DEFAULT_CHUNK, pad, out)
        });
    }

    fn scan_with_stats(&self, haystack: &[u8]) -> MatcherStats {
        with_drain_buffers(|pad| {
            mpm_graph::scan_with_stats(self, haystack, DEFAULT_CHUNK, pad, &mut Vec::new())
        })
    }

    fn memory_footprint(&self) -> mpm_patterns::MemoryFootprint {
        mpm_patterns::MemoryFootprint {
            filter_bytes: self.tables.filter_bytes(),
            verify_bytes: self.tables.table_bytes(),
            other_bytes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::Dfc;
    use mpm_patterns::naive::naive_find_all;
    use mpm_simd::{Avx2Backend, Avx512Backend, ScalarBackend};

    fn test_set() -> PatternSet {
        PatternSet::from_literals(&[
            "a",
            "ab",
            "GET",
            "abcd",
            "attack-vector",
            "/etc/passwd",
            "xyz",
        ])
    }

    fn test_input() -> Vec<u8> {
        let mut hay = Vec::new();
        for i in 0..50 {
            hay.extend_from_slice(b"GET /etc/passwd HTTP/1.1 ");
            hay.extend_from_slice(format!("filler-{i}-abcd-xyz ").as_bytes());
            if i % 7 == 0 {
                hay.extend_from_slice(b"attack-vector");
            }
        }
        hay
    }

    #[test]
    fn scalar_backend_agrees_with_naive_and_scalar_dfc() {
        let set = test_set();
        let hay = test_input();
        let expected = naive_find_all(&set, &hay);
        let vdfc = VectorDfc::<ScalarBackend, 8>::build(&set);
        assert_eq!(vdfc.find_all(&hay), expected);
        let dfc = Dfc::build(&set);
        assert_eq!(dfc.find_all(&hay), expected);
    }

    #[test]
    fn avx2_backend_agrees_when_available() {
        if !<Avx2Backend as VectorBackend<8>>::is_available() {
            return;
        }
        let set = test_set();
        let hay = test_input();
        let vdfc = VectorDfc::<Avx2Backend, 8>::build(&set);
        assert_eq!(vdfc.find_all(&hay), naive_find_all(&set, &hay));
    }

    #[test]
    fn avx512_backend_agrees_when_available() {
        if !<Avx512Backend as VectorBackend<16>>::is_available() {
            return;
        }
        let set = test_set();
        let hay = test_input();
        let vdfc = VectorDfc::<Avx512Backend, 16>::build(&set);
        assert_eq!(vdfc.find_all(&hay), naive_find_all(&set, &hay));
    }

    #[test]
    fn nocase_sets_match_naive_on_every_available_backend() {
        use mpm_patterns::Pattern;
        let set = PatternSet::new(vec![
            Pattern::literal_nocase(*b"Attack-Vector"),
            Pattern::literal(*b"attack-vector"),
            Pattern::literal_nocase(*b"GeT"),
            Pattern::literal_nocase(*b"z"),
        ]);
        let mut hay = Vec::new();
        for _ in 0..40 {
            hay.extend_from_slice(b"ATTACK-VECTOR attack-vector get GET Z z aTtAcK-vEcToR ");
        }
        let expected = naive_find_all(&set, &hay);
        assert_eq!(
            VectorDfc::<ScalarBackend, 8>::build(&set).find_all(&hay),
            expected
        );
        if <Avx2Backend as VectorBackend<8>>::is_available() {
            assert_eq!(
                VectorDfc::<Avx2Backend, 8>::build(&set).find_all(&hay),
                expected
            );
        }
        if <Avx512Backend as VectorBackend<16>>::is_available() {
            assert_eq!(
                VectorDfc::<Avx512Backend, 16>::build(&set).find_all(&hay),
                expected
            );
        }
    }

    #[test]
    fn inputs_shorter_than_a_vector_block() {
        let set = test_set();
        let vdfc = VectorDfc::<ScalarBackend, 8>::build(&set);
        for hay in [&b""[..], b"a", b"ab", b"GET", b"abcd", b"xyzabc"] {
            assert_eq!(
                vdfc.find_all(hay),
                naive_find_all(&set, hay),
                "input {hay:?}"
            );
        }
    }

    #[test]
    fn wide_scalar_width_matches_too() {
        let set = test_set();
        let hay = test_input();
        let vdfc16 = VectorDfc::<ScalarBackend, 16>::build(&set);
        assert_eq!(vdfc16.find_all(&hay), naive_find_all(&set, &hay));
    }
}
