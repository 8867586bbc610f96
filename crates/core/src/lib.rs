//! **S-PATCH and V-PATCH** — the paper's contribution: cache-local,
//! vectorization-friendly multiple pattern matching for network security
//! applications.
//!
//! # The algorithms
//!
//! **S-PATCH** (§IV-A of the paper, [`SPatch`]) restructures DFC around two
//! strictly separated rounds:
//!
//! 1. a **filtering round** sweeps the whole input through three small,
//!    cache-resident filters —
//!    * *filter 1*: 2-byte direct bitmap of the **short** patterns
//!      (1–3 bytes), which are few but fire often in real traffic;
//!    * *filter 2*: 2-byte direct bitmap of the **long** patterns (≥ 4 bytes);
//!    * *filter 3*: a hashed bitmap over the **first four bytes** of the long
//!      patterns, consulted only when filter 2 hits, to weed out 2-byte
//!      coincidences (e.g. `attribute` vs `attack`) before paying for
//!      verification —
//!
//!    and records candidate positions in two temporary arrays
//!    (`A_short`, `A_long`);
//! 2. a **verification round** replays those arrays against DFC-style
//!    compact hash tables and reports exactly the true matches.
//!
//! **V-PATCH** (§IV-B, [`VPatch`]) vectorizes the filtering round: `W`
//! sliding windows are built with shuffles, both 2-byte filters are fetched
//! with a *single* gather thanks to the merged-filter layout, the third
//! filter is evaluated speculatively for all lanes and masked, and candidate
//! positions are extracted from the lane masks. Verification stays scalar
//! and runs afterwards, so no scalar/vector mixing happens inside the hot
//! loop. The main loop is unrolled two vectors deep, as in the paper.
//!
//! # Choosing an engine
//!
//! ```
//! use mpm_patterns::{Matcher, PatternSet};
//!
//! let rules = PatternSet::from_literals(&["/etc/passwd", "cmd.exe", "GET"]);
//! // Widest SIMD engine the CPU supports (falls back to scalar S-PATCH).
//! let engine = mpm_vpatch::build_auto(&rules);
//! let matches = engine.find_all(b"GET /etc/passwd HTTP/1.1");
//! assert_eq!(matches.len(), 2);
//! ```
//!
//! All engines implement [`mpm_patterns::Matcher`] and report exactly the
//! match set Aho-Corasick reports (the paper's correctness criterion);
//! this is enforced by unit, integration and property tests.

#![warn(missing_docs)]

pub mod scratch;
pub mod spatch;
pub mod tables;
pub mod vpatch;

pub use scratch::Scratch;
pub use spatch::SPatch;
pub use tables::SPatchTables;
pub use vpatch::{FilterOnlyMode, VPatch};

use mpm_patterns::{Matcher, PatternSet};
use mpm_simd::{Avx2Backend, Avx512Backend, BackendKind, ScalarBackend};

/// V-PATCH at the AVX2 width (8 lanes) — the paper's Haswell configuration.
pub type VPatchAvx2 = VPatch<Avx2Backend, 8>;
/// V-PATCH at the AVX-512 width (16 lanes) — the paper's Xeon-Phi width.
pub type VPatchAvx512 = VPatch<Avx512Backend, 16>;
/// V-PATCH compiled against the portable scalar backend at 8 lanes
/// (functionally identical, no SIMD hardware needed).
pub type VPatchScalar8 = VPatch<ScalarBackend, 8>;
/// V-PATCH compiled against the portable scalar backend at 16 lanes.
pub type VPatchScalar16 = VPatch<ScalarBackend, 16>;

/// Builds the fastest engine available on this CPU:
/// AVX-512 V-PATCH ≻ AVX2 V-PATCH ≻ scalar S-PATCH.
///
/// `MPM_FORCE_BACKEND` pins the choice (see [`mpm_simd::forced_backend`]):
/// under `MPM_FORCE_BACKEND=scalar` this returns S-PATCH even on AVX-512
/// hardware, which is how CI deterministically exercises every code path.
pub fn build_auto(set: &PatternSet) -> Box<dyn Matcher + Send + Sync> {
    build_for(set, mpm_simd::detect_best()).expect("detect_best returns an available backend")
}

/// [`build_auto`] for one port group compiled against a shared
/// [`mpm_patterns::PatternArena`]: the engine's verification tables
/// reference the arena by offset and its hashed filter is sized to the
/// group ([`SPatchTables::build_with_arena`]). The returned engine's
/// `memory_footprint` therefore excludes the arena bytes, which the owner
/// of the group collection counts exactly once. Every pattern of `set`
/// must already be interned in `arena`.
pub fn build_auto_with_arena(
    set: &PatternSet,
    arena: &mpm_patterns::PatternArena,
) -> Box<dyn Matcher + Send + Sync> {
    let tables = SPatchTables::build_with_arena(set, arena);
    match mpm_simd::detect_best() {
        BackendKind::Avx512 if BackendKind::Avx512.is_available() => {
            Box::new(VPatchAvx512::from_tables(tables))
        }
        BackendKind::Avx2 if BackendKind::Avx2.is_available() => {
            Box::new(VPatchAvx2::from_tables(tables))
        }
        _ => Box::new(SPatch::from_tables(tables)),
    }
}

/// Builds the paper's engine for an explicit backend choice: V-PATCH at the
/// backend's width for the SIMD backends, scalar S-PATCH for
/// [`BackendKind::Scalar`]. Returns `None` if the backend is unavailable on
/// this CPU. (Use [`build_vpatch_for`] to get V-PATCH compiled against the
/// portable scalar backend instead of S-PATCH.)
pub fn build_for(set: &PatternSet, backend: BackendKind) -> Option<Box<dyn Matcher + Send + Sync>> {
    match backend {
        BackendKind::Avx512 if BackendKind::Avx512.is_available() => {
            Some(Box::new(VPatchAvx512::build(set)))
        }
        BackendKind::Avx2 if BackendKind::Avx2.is_available() => {
            Some(Box::new(VPatchAvx2::build(set)))
        }
        BackendKind::Scalar => Some(Box::new(SPatch::build(set))),
        _ => None,
    }
}

/// Builds the V-PATCH variant for an explicit backend choice (useful for the
/// benchmark harness, which measures every variant regardless of what
/// `detect_best` would pick). Returns `None` if the backend is unavailable
/// on this CPU.
pub fn build_vpatch_for(
    set: &PatternSet,
    backend: BackendKind,
) -> Option<Box<dyn Matcher + Send + Sync>> {
    match backend {
        BackendKind::Avx512 if BackendKind::Avx512.is_available() => {
            Some(Box::new(VPatchAvx512::build(set)))
        }
        BackendKind::Avx2 if BackendKind::Avx2.is_available() => {
            Some(Box::new(VPatchAvx2::build(set)))
        }
        BackendKind::Scalar => Some(Box::new(VPatchScalar8::build(set))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpm_patterns::naive::naive_find_all;

    #[test]
    fn auto_engine_is_exact() {
        let set = PatternSet::from_literals(&["GET", "/etc/passwd", "x"]);
        let engine = build_auto(&set);
        let hay = b"GET /etc/passwd x GET";
        assert_eq!(engine.find_all(hay), naive_find_all(&set, hay));
    }

    #[test]
    fn explicit_backend_construction() {
        let set = PatternSet::from_literals(&["abcd", "zz"]);
        let scalar = build_vpatch_for(&set, BackendKind::Scalar).unwrap();
        assert_eq!(scalar.find_all(b"zzabcd").len(), 2);
        for kind in mpm_simd::available_backends() {
            assert!(build_vpatch_for(&set, kind).is_some());
            let engine = build_for(&set, kind).unwrap();
            assert_eq!(engine.find_all(b"zzabcd").len(), 2);
            assert_eq!(engine.max_pattern_len(), 4);
        }
        // build_for hands out S-PATCH on the scalar path, V-PATCH otherwise.
        assert_eq!(
            build_for(&set, BackendKind::Scalar).unwrap().name(),
            "S-PATCH"
        );
    }

    #[test]
    fn arena_engine_is_exact_smaller_and_honestly_accounted() {
        use mpm_patterns::{assert_footprint_consistent, ArenaBuilder};
        let lits: Vec<String> = (0..500).map(|i| format!("needle-{i:04}-tail")).collect();
        let set = PatternSet::from_literals(&lits);
        let mut builder = ArenaBuilder::new();
        for p in set.patterns() {
            builder.intern(p.bytes());
        }
        let arena = builder.finish();
        let plain = build_auto(&set);
        let grouped = build_auto_with_arena(&set, &arena);
        let hay = b"xx needle-0000-tail .. needle-0499-tail yy needle-0250-tai";
        assert_eq!(grouped.find_all(hay), plain.find_all(hay));
        assert_eq!(grouped.find_all(hay), naive_find_all(&set, hay));
        // The shared build drops the pattern bytes (charged to the arena
        // owner) and shrinks filter 3 + the long table to the set size.
        assert!(grouped.heap_bytes() + arena.len() < plain.heap_bytes());
        assert_footprint_consistent(plain.as_ref());
        assert_footprint_consistent(grouped.as_ref());
    }

    #[test]
    fn filter3_sizing_tracks_group_size() {
        use tables::SPatchTables;
        assert_eq!(SPatchTables::filter3_bits_for(0), 10);
        assert_eq!(SPatchTables::filter3_bits_for(40), 10);
        assert_eq!(SPatchTables::filter3_bits_for(600), 13);
        assert_eq!(SPatchTables::filter3_bits_for(1 << 16), 17, "clamped");
    }
}
