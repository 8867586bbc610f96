//! Differential property suite for the batched, prefetch-pipelined
//! verification path: **batched ≡ one table lookup per candidate**, on every
//! backend this run can dispatch to.
//!
//! For random folded and unfolded pattern sets, and for candidate arrays
//! produced by real filtering rounds as well as hand-clustered ones (around
//! the vector-block boundaries `W` / `2W` and hard against the end of the
//! buffer, where the batched path's gather detour and the bounds-skip
//! semantics engage), the suite asserts that the batched path reports
//!
//! * the same **match set** (element-for-element after normalization),
//! * the same **order after sort** (normalized vectors compared directly),
//! * the same **comparison counts** (the instrumentation the cache model
//!   and the figure-5 analysis consume)
//!
//! as the table-level one-candidate lookups (`Verifier::verify_short` /
//! `verify_long`, `DfcTables::classify_and_verify`), which stay public as
//! this suite's reference: the naive matcher can check match sets, but only
//! a lookup-by-lookup replay can check comparison counts. `MPM_FORCE_BACKEND`
//! narrows `available_backends()`, which is how the CI matrix pins the
//! suite to the scalar, AVX2 and AVX-512 code paths in turn (in `--release`,
//! so the unsafe masked-compare and prefetch paths run with optimizations).

use proptest::prelude::*;
use vpatch_suite::dfc::DfcTables;
use vpatch_suite::patterns::matcher::normalize_matches;
use vpatch_suite::prelude::*;
use vpatch_suite::simd::{Avx2Backend, Avx512Backend, ScalarBackend};
use vpatch_suite::verify::Verifier;
use vpatch_suite::vpatch::Scratch;

/// Pattern bytes over a collision-happy alphabet (shared prefixes, both
/// cases, a non-ASCII byte that must never fold).
fn bytes_strategy(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![
            Just(b'a'),
            Just(b'A'),
            Just(b't'),
            Just(b'T'),
            Just(b'g'),
            Just(b'e'),
            Just(b'0'),
            Just(0xC1u8),
            any::<u8>()
        ],
        1..max_len,
    )
}

/// A random mixed set: each pattern independently `nocase` (folded tables)
/// or byte-exact; sets with no `nocase` pattern exercise the unfolded
/// kernels.
fn mixed_set_strategy() -> impl Strategy<Value = PatternSet> {
    proptest::collection::vec((bytes_strategy(12), any::<bool>()), 1..12).prop_map(|ps| {
        PatternSet::new(
            ps.into_iter()
                .map(|(bytes, nocase)| Pattern::literal(bytes).with_nocase(nocase))
                .collect(),
        )
    })
}

fn haystack_strategy(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    bytes_strategy(max_len)
}

/// One table lookup per candidate of a filtering round's arrays: the
/// reference `(normalized matches, comparisons)` a verification round is
/// held to.
fn lookup_each(v: &Verifier, hay: &[u8], scratch: &Scratch) -> (Vec<MatchEvent>, u64) {
    let mut out = Vec::new();
    let mut comparisons = 0u64;
    for &pos in &scratch.a_short {
        comparisons += v.verify_short(hay, pos as usize, &mut out) as u64;
    }
    for &pos in &scratch.a_long {
        comparisons += v.verify_long(hay, pos as usize, &mut out) as u64;
    }
    normalize_matches(&mut out);
    (out, comparisons)
}

/// Runs one V-PATCH filtering round and returns `(batched, reference)`
/// results as `(normalized matches, comparisons)` pairs.
fn vpatch_both_paths<B: VectorBackend<W>, const W: usize>(
    set: &PatternSet,
    hay: &[u8],
) -> ((Vec<MatchEvent>, u64), (Vec<MatchEvent>, u64)) {
    let engine = VPatch::<B, W>::build(set);
    let mut scratch = Scratch::new();
    engine.filter_round(hay, &mut scratch);
    let mut batched = Vec::new();
    let batched_cmp = engine.verify_round(hay, &scratch, &mut batched);
    normalize_matches(&mut batched);
    let reference = lookup_each(engine.tables().verifier(), hay, &scratch);
    ((batched, batched_cmp), reference)
}

/// Asserts batched ≡ lookup-per-candidate for V-PATCH on every dispatchable
/// backend, and for S-PATCH (scalar-batched).
fn assert_engine_paths_agree(set: &PatternSet, hay: &[u8]) {
    for kind in available_backends() {
        let (batched, reference) = match kind {
            BackendKind::Scalar => vpatch_both_paths::<ScalarBackend, 8>(set, hay),
            BackendKind::Avx2 => vpatch_both_paths::<Avx2Backend, 8>(set, hay),
            BackendKind::Avx512 => vpatch_both_paths::<Avx512Backend, 16>(set, hay),
        };
        assert_eq!(batched.0, reference.0, "V-PATCH/{kind} match set");
        assert_eq!(batched.1, reference.1, "V-PATCH/{kind} comparison count");
        // The verification must also be *correct*, not just self-consistent.
        assert_eq!(
            batched.0,
            vpatch_suite::patterns::naive::naive_find_all(set, hay),
            "V-PATCH/{kind} vs naive"
        );
    }
    let engine = SPatch::build(set);
    let mut scratch = Scratch::new();
    engine.filter_round(hay, &mut scratch);
    let mut batched = Vec::new();
    let batched_cmp = engine.verify_round(hay, &scratch, &mut batched);
    normalize_matches(&mut batched);
    let (reference, reference_cmp) = lookup_each(engine.tables().verifier(), hay, &scratch);
    assert_eq!(batched, reference, "S-PATCH match set");
    assert_eq!(batched_cmp, reference_cmp, "S-PATCH comparison count");
}

/// Asserts `Verifier` batched ≡ lookup-per-candidate for an explicit
/// candidate array on every dispatchable backend.
fn assert_verifier_paths_agree(set: &PatternSet, hay: &[u8], positions: &[u32]) {
    let v = Verifier::build(set);
    let mut expected = Vec::new();
    let mut expected_cmp = 0u64;
    for &p in positions {
        expected_cmp += v.verify_short(hay, p as usize, &mut expected) as u64;
        expected_cmp += v.verify_long(hay, p as usize, &mut expected) as u64;
    }
    normalize_matches(&mut expected);
    for kind in available_backends() {
        let mut got = Vec::new();
        let got_cmp = match kind {
            BackendKind::Scalar => {
                v.verify_short_batch::<ScalarBackend, 8>(hay, positions, &mut got)
                    + v.verify_long_batch::<ScalarBackend, 8>(hay, positions, &mut got)
            }
            BackendKind::Avx2 => {
                v.verify_short_batch::<Avx2Backend, 8>(hay, positions, &mut got)
                    + v.verify_long_batch::<Avx2Backend, 8>(hay, positions, &mut got)
            }
            BackendKind::Avx512 => {
                v.verify_short_batch::<Avx512Backend, 16>(hay, positions, &mut got)
                    + v.verify_long_batch::<Avx512Backend, 16>(hay, positions, &mut got)
            }
        };
        normalize_matches(&mut got);
        assert_eq!(got, expected, "Verifier/{kind} match set");
        assert_eq!(got_cmp, expected_cmp, "Verifier/{kind} comparison count");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batched ≡ lookup-per-candidate for real filtering-round candidate arrays on
    /// random folded/unfolded sets and random traffic.
    #[test]
    fn engine_verify_rounds_agree_on_random_sets(
        set in mixed_set_strategy(),
        hay in haystack_strategy(400),
    ) {
        assert_engine_paths_agree(&set, &hay);
    }

    /// Batched ≡ lookup-per-candidate for arbitrary candidate position arrays —
    /// including duplicates and positions the filters would never emit.
    #[test]
    fn verifier_batch_agrees_on_arbitrary_position_arrays(
        set in mixed_set_strategy(),
        hay in haystack_strategy(300),
        raw in proptest::collection::vec(any::<u32>(), 0..200),
    ) {
        let mut positions: Vec<u32> = raw
            .into_iter()
            .map(|p| p % (hay.len().max(1) as u32))
            .collect();
        positions.sort_unstable();
        assert_verifier_paths_agree(&set, &hay, &positions);
    }
}

/// Candidates clustered at the vector-block boundaries (`W`, `2W` for both
/// widths) and hard against the end of the buffer: the seams where the
/// batched path switches between its SIMD gather, its scalar detour and the
/// bounds-skip semantics.
#[test]
fn clustered_candidates_at_block_boundaries_and_buffer_end() {
    let set = PatternSet::new(vec![
        Pattern::literal(*b"attack"),
        Pattern::literal(*b"attach"),
        Pattern::literal(*b"atta"),
        Pattern::literal_nocase(*b"GeT /x"),
        Pattern::literal(*b"ab"),
        Pattern::literal_nocase(*b"Q"),
    ]);
    let exact_only = PatternSet::from_literals(&["attack", "attach", "atta", "ab", "q"]);
    let mut hay = b"GET /x attack attach ab q ".repeat(12);
    hay.truncate(270);
    hay.extend_from_slice(b"attack"); // a match flush against the end
    let len = hay.len() as u32;
    let mut positions: Vec<u32> = Vec::new();
    for seam in [8u32, 16, 32, 128, 256] {
        for delta in -2i64..=2 {
            let p = seam as i64 + delta;
            if (0..len as i64).contains(&p) {
                positions.push(p as u32);
            }
        }
    }
    // End-of-buffer cluster: every position in the last 8 bytes, duplicated,
    // so entries are skipped by the bounds check on one side of the seam and
    // genuinely compared on the other.
    for p in len.saturating_sub(8)..len {
        positions.push(p);
        positions.push(p);
    }
    positions.sort_unstable();
    for set in [&set, &exact_only] {
        assert_verifier_paths_agree(set, &hay, &positions);
        assert_engine_paths_agree(set, &hay);
    }
}

/// DFC's batched drain (`classify_and_verify_batch`) ≡ one
/// `classify_and_verify` per candidate, including the progressive-filter gate for
/// the long class, on every dispatchable backend.
#[test]
fn dfc_batched_drain_equals_per_candidate_classification() {
    let sets = [
        PatternSet::from_literals(&["a", "bc", "def", "ghij", "attack", "attach", "klmnopqr"]),
        PatternSet::new(vec![
            Pattern::literal_nocase(*b"CmD.exe"),
            Pattern::literal(*b"cmd.exe"),
            Pattern::literal_nocase(*b"aB"),
            Pattern::literal_nocase(*b"x"),
            Pattern::literal(*b"ghij"),
        ]),
    ];
    for set in &sets {
        let tables = DfcTables::build(set);
        let hay = b"a bc def ghij attack attach klmnopqr CMD.EXE cmd.exe AB x gh".repeat(6);
        let positions: Vec<u32> = (0..hay.len() as u32).collect();
        let mut expected = Vec::new();
        let mut expected_cmp = 0u64;
        for &p in &positions {
            expected_cmp += tables.classify_and_verify(&hay, p as usize, &mut expected) as u64;
        }
        normalize_matches(&mut expected);
        let mut long_scratch = Vec::new();
        for kind in available_backends() {
            let mut got = Vec::new();
            let got_cmp = match kind {
                BackendKind::Scalar => tables.classify_and_verify_batch::<ScalarBackend, 8>(
                    &hay,
                    &positions,
                    &mut long_scratch,
                    &mut got,
                ),
                BackendKind::Avx2 => tables.classify_and_verify_batch::<Avx2Backend, 8>(
                    &hay,
                    &positions,
                    &mut long_scratch,
                    &mut got,
                ),
                BackendKind::Avx512 => tables.classify_and_verify_batch::<Avx512Backend, 16>(
                    &hay,
                    &positions,
                    &mut long_scratch,
                    &mut got,
                ),
            };
            normalize_matches(&mut got);
            assert_eq!(got, expected, "DFC/{kind} match set");
            assert_eq!(got_cmp, expected_cmp, "DFC/{kind} comparison count");
        }
    }
}

/// The bounds-skip comparison-count bugfix, observed through the engines'
/// public stats: a candidate whose bucket entries never fit in the buffer
/// contributes zero comparisons on both paths.
#[test]
fn comparison_counts_are_not_inflated_near_buffer_ends() {
    let set = PatternSet::from_literals(&["attack", "attach"]);
    let v = Verifier::build(&set);
    // The last candidate's prefix fits but no full pattern does.
    let hay = b"zz atta";
    let positions = [3u32];
    let mut out = Vec::new();
    let mut per_candidate = 0u64;
    for &p in &positions {
        per_candidate += v.verify_long(hay, p as usize, &mut out) as u64;
    }
    assert_eq!(per_candidate, 0, "skipped entries must not be counted");
    let batched = v.verify_long_batch::<ScalarBackend, 8>(hay, &positions, &mut out);
    assert_eq!(batched, 0);
    assert!(out.is_empty());
}
