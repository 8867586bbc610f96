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
//! * the same **order** (table by table, the batched path appends exactly
//!   what one lookup per candidate appends, in that order),
//! * the same **comparison counts** (the instrumentation the cache model
//!   and the figure-5 analysis consume)
//!
//! as the table-level one-candidate lookups (`CompactHashTable::verify_at`
//! on the short and the long table, `DfcTables::classify_and_verify`), which
//! stay public as this suite's reference: the naive matcher can check match sets, but only
//! a lookup-by-lookup replay can check comparison counts. `MPM_FORCE_BACKEND`
//! narrows `available_backends()`, which is how the CI matrix pins the
//! suite to the scalar, AVX2 and AVX-512 code paths in turn (in `--release`,
//! so the unsafe masked-compare and prefetch paths run with optimizations).

use proptest::prelude::*;
use vpatch_suite::dfc::DfcTables;
use vpatch_suite::patterns::matcher::normalize_matches;
use vpatch_suite::prelude::*;
use vpatch_suite::simd::{Avx2Backend, Avx512Backend, ScalarBackend};
use vpatch_suite::verify::CompactHashTable;
use vpatch_suite::vpatch::{SPatchTables, Scratch};

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
fn lookup_each(tables: &SPatchTables, hay: &[u8], scratch: &Scratch) -> (Vec<MatchEvent>, u64) {
    let mut out = Vec::new();
    let mut comparisons = 0u64;
    for &pos in &scratch.a_short {
        comparisons += tables.short_table().verify_at(hay, pos as usize, &mut out) as u64;
    }
    for &pos in &scratch.a_long {
        comparisons += tables.long_table().verify_at(hay, pos as usize, &mut out) as u64;
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
    let reference = lookup_each(engine.tables(), hay, &scratch);
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
    let (reference, reference_cmp) = lookup_each(engine.tables(), hay, &scratch);
    assert_eq!(batched, reference, "S-PATCH match set");
    assert_eq!(batched_cmp, reference_cmp, "S-PATCH comparison count");
}

/// Both tables' batched passes over `positions` on one backend: the short
/// and long tables' appended matches, unsorted, and the comparisons.
fn verifier_batch<B: VectorBackend<W>, const W: usize>(
    v: &SPatchTables,
    hay: &[u8],
    positions: &[u32],
) -> (Vec<MatchEvent>, Vec<MatchEvent>, u64) {
    let (mut short, mut long) = (Vec::new(), Vec::new());
    let comparisons = v
        .short_table()
        .verify_batch::<B, W>(hay, positions, &mut short)
        + v.long_table()
            .verify_batch::<B, W>(hay, positions, &mut long);
    (short, long, comparisons)
}

/// Asserts the two verification tables' batched path ≡ lookup-per-candidate
/// for an explicit candidate array on every dispatchable backend: per table
/// the same matches in the same append order, and the same comparison count.
fn assert_verifier_paths_agree(set: &PatternSet, hay: &[u8], positions: &[u32]) {
    let v = SPatchTables::build(set);
    let (mut short, mut long) = (Vec::new(), Vec::new());
    let mut comparisons = 0u64;
    for &p in positions {
        comparisons += v.short_table().verify_at(hay, p as usize, &mut short) as u64;
        comparisons += v.long_table().verify_at(hay, p as usize, &mut long) as u64;
    }
    let expected = (short, long, comparisons);
    for kind in available_backends() {
        let got = match kind {
            BackendKind::Scalar => verifier_batch::<ScalarBackend, 8>(&v, hay, positions),
            BackendKind::Avx2 => verifier_batch::<Avx2Backend, 8>(&v, hay, positions),
            BackendKind::Avx512 => verifier_batch::<Avx512Backend, 16>(&v, hay, positions),
        };
        assert_eq!(got, expected, "tables/{kind} (short, long, comparisons)");
    }
}

/// With **every** position a candidate, verification alone must reproduce
/// the naive matcher (the two tables partition the set), and the batched
/// path must agree with the lookups on the way there.
fn assert_all_positions_equal_naive(set: &PatternSet, hay: &[u8]) {
    let positions: Vec<u32> = (0..hay.len() as u32).collect();
    assert_verifier_paths_agree(set, hay, &positions);
    let v = SPatchTables::build(set);
    let mut out = Vec::new();
    for &p in &positions {
        v.short_table().verify_at(hay, p as usize, &mut out);
        v.long_table().verify_at(hay, p as usize, &mut out);
    }
    normalize_matches(&mut out);
    assert_eq!(
        out,
        vpatch_suite::patterns::naive::naive_find_all(set, hay),
        "lookups vs naive on {:?}",
        String::from_utf8_lossy(hay)
    );
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
/// `classify_and_verify` per position, including the progressive-filter
/// gate for the long class, on every dispatchable backend.
fn assert_dfc_paths_agree(set: &PatternSet, hay: &[u8]) {
    let tables = DfcTables::build(set);
    let positions: Vec<u32> = (0..hay.len() as u32).collect();
    let mut expected = Vec::new();
    let mut expected_cmp = 0u64;
    for &p in &positions {
        expected_cmp += tables.classify_and_verify(hay, p as usize, &mut expected) as u64;
    }
    normalize_matches(&mut expected);
    let mut long_scratch = Vec::new();
    for kind in available_backends() {
        let mut got = Vec::new();
        let got_cmp = match kind {
            BackendKind::Scalar => tables.classify_and_verify_batch::<ScalarBackend, 8>(
                hay,
                &positions,
                &mut long_scratch,
                &mut got,
            ),
            BackendKind::Avx2 => tables.classify_and_verify_batch::<Avx2Backend, 8>(
                hay,
                &positions,
                &mut long_scratch,
                &mut got,
            ),
            BackendKind::Avx512 => tables.classify_and_verify_batch::<Avx512Backend, 16>(
                hay,
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
    let hay = b"a bc def ghij attack attach klmnopqr CMD.EXE cmd.exe AB x gh".repeat(6);
    for set in &sets {
        assert_dfc_paths_agree(set, &hay);
    }
}

/// Sets built against the suffix fingerprint in the verification entries,
/// which may reject a candidate but must never decide a match:
///
/// * members sharing their first 4 **and** last 4 bytes and differing only
///   in the middle — every bucket-mate passes the fingerprint and the full
///   compare has to tell them apart;
/// * lengths 1–8, where the fingerprint overlaps the index prefix (below 4
///   bytes it *is* the pattern, and its haystack word reaches past the
///   pattern's end);
/// * a `nocase` pattern beside its case-sensitive twin in a folded table —
///   the fingerprint is folded for both, the compare is not.
fn fingerprint_adversaries() -> Vec<PatternSet> {
    vec![
        PatternSet::from_literals(&[
            "HEADTAIL",
            "HEADxTAIL",
            "HEADyTAIL",
            "HEADxxTAIL",
            "HEADxyTAIL",
            "HEADxxxxxxxxTAIL",
            "HEADxxxxyxxxTAIL",
        ]),
        PatternSet::from_literals(&[
            "a", "ab", "aba", "abab", "ababa", "ababab", "abababa", "abababab", "b", "ba", "bab",
            "abcb", "abcab", "abcbab",
        ]),
        PatternSet::new(vec![
            Pattern::literal_nocase(*b"Content-Type"),
            Pattern::literal(*b"Content-Type"),
            Pattern::literal(*b"content-type"),
            Pattern::literal_nocase(*b"HeadXXTail"),
            Pattern::literal(*b"headxytail"),
            Pattern::literal_nocase(*b"GeT"),
            Pattern::literal(*b"GET"),
            Pattern::literal_nocase(*b"t"),
            Pattern::literal(*b"T"),
        ]),
    ]
}

/// Every adversary pattern, whole and cut short, at every distance 0..=8
/// from the end of an **exact-size** allocation: a fingerprint word read
/// past the slice would leave the allocation (the PR 5 `eq_window` / PR 13
/// `prescreen` pattern). With every position a candidate, batched ≡
/// lookups ≡ naive in matches, order and comparisons on every backend, for
/// the verifier, the engines and DFC's four tables.
#[test]
fn fingerprint_adversaries_hard_against_the_end_of_the_allocation() {
    for set in fingerprint_adversaries() {
        for pattern in set.patterns() {
            let bytes = pattern.bytes();
            for cut in 0..bytes.len().min(5) {
                for distance in 0..=8usize {
                    // A case-flipped twin of the pattern first, so folded
                    // tables see windows only the `nocase` entries accept.
                    let mut hay: Vec<u8> = bytes
                        .iter()
                        .map(|b| {
                            if b.is_ascii_lowercase() {
                                b.to_ascii_uppercase()
                            } else {
                                b.to_ascii_lowercase()
                            }
                        })
                        .collect();
                    hay.extend_from_slice(b"HEADxyxTAIL ab ");
                    hay.extend_from_slice(&bytes[..bytes.len() - cut]);
                    hay.extend_from_slice(&b"TAILabab"[..distance]);
                    let hay: Box<[u8]> = hay.into_boxed_slice();
                    assert_all_positions_equal_naive(&set, &hay);
                    assert_engine_paths_agree(&set, &hay);
                    assert_dfc_paths_agree(&set, &hay);
                }
            }
        }
    }
}

/// The bounds-skip comparison-count bugfix, observed through the engines'
/// public stats: a candidate whose bucket entries never fit in the buffer
/// contributes zero comparisons on both paths.
#[test]
fn comparison_counts_are_not_inflated_near_buffer_ends() {
    let set = PatternSet::from_literals(&["attack", "attach"]);
    let tables = SPatchTables::build(&set);
    let long = tables.long_table();
    // The last candidate's prefix fits but no full pattern does.
    let hay = b"zz atta";
    let positions = [3u32];
    let mut out = Vec::new();
    let mut per_candidate = 0u64;
    for &p in &positions {
        per_candidate += long.verify_at(hay, p as usize, &mut out) as u64;
    }
    assert_eq!(per_candidate, 0, "skipped entries must not be counted");
    let batched = long.verify_batch::<ScalarBackend, 8>(hay, &positions, &mut out);
    assert_eq!(batched, 0);
    assert!(out.is_empty());
}

/// A bucket of exactly `k` entries: every pattern starts with `a` (`A` for
/// the `nocase` ones, which fold into the same bucket), lengths cycle
/// through short (1–3) and long (≥ 4), tails differ, and with `mixed` every
/// third pattern is `nocase`.
fn one_bucket_set(k: usize, mixed: bool) -> PatternSet {
    const LENS: [usize; 12] = [1, 4, 2, 7, 3, 5, 2, 12, 1, 4, 3, 9];
    const TAIL: &[u8] = b"tTaGe0xQ\xc1bKz";
    PatternSet::new(
        (0..k)
            .map(|j| {
                let nocase = mixed && j % 3 == 0;
                let mut bytes = vec![if nocase { b'A' } else { b'a' }];
                bytes.extend((1..LENS[j % LENS.len()]).map(|i| TAIL[(i * 5 + j) % TAIL.len()]));
                Pattern::literal(bytes).with_nocase(nocase)
            })
            .collect(),
    )
}

/// One table's batched pass over `positions` on one backend: the matches
/// in append order, and the comparisons.
fn table_batch<B: VectorBackend<W>, const W: usize>(
    table: &CompactHashTable,
    hay: &[u8],
    positions: &[u32],
) -> (Vec<MatchEvent>, u64) {
    let mut out = Vec::new();
    let comparisons = table.verify_batch::<B, W>(hay, positions, &mut out);
    (out, comparisons)
}

/// Every bucket size from one entry to two steps of the widest backend and
/// one more (`1..=2W+1`, `W = 16`), every candidate distance `0..=max_len`
/// from the end of an **exact-size** allocation: the bucket walk's steps,
/// the masked column loads of a partial step and the gather of the words
/// the long entries end on must give the matches, the append order and the
/// comparison counts of the default walk (`verify_at`, scalar) on every
/// backend — and, since the one table holds the whole set, the naive
/// matcher's matches.
#[test]
fn every_bucket_size_against_the_end_of_the_allocation() {
    const W: usize = 16;
    for k in 1..=2 * W + 1 {
        for mixed in [false, true] {
            let set = one_bucket_set(k, mixed);
            let table = CompactHashTable::build(&set, 1, 8, |_| true, None);
            assert_eq!(table.is_folded(), mixed);
            let max_len = set.patterns().iter().map(|p| p.len()).max().unwrap();
            // Body: every pattern, the `nocase` ones case-flipped, between
            // near-misses; the end: one pattern whole or cut short.
            let mut body = Vec::new();
            for p in set.patterns() {
                let flip = |b: &u8| {
                    if p.is_nocase() {
                        b.to_ascii_uppercase()
                    } else {
                        *b
                    }
                };
                body.extend(p.bytes().iter().map(flip));
                body.extend_from_slice(b"aT");
            }
            for last in [0, k / 2, k - 1] {
                let bytes = set.patterns()[last].bytes();
                for cut in 0..bytes.len().min(4) {
                    let mut hay = body.clone();
                    hay.extend_from_slice(&bytes[..bytes.len() - cut]);
                    let hay: Box<[u8]> = hay.into_boxed_slice();
                    let len = hay.len() as u32;
                    // The body's first patterns, then every distance from
                    // the end.
                    let mut positions: Vec<u32> = (0..len.min(3 * max_len as u32))
                        .chain(len.saturating_sub(max_len as u32)..=len)
                        .collect();
                    positions.sort_unstable();
                    positions.dedup();
                    let mut expected = Vec::new();
                    let mut expected_cmp = 0u64;
                    for &p in &positions {
                        expected_cmp += table.verify_at(&hay, p as usize, &mut expected) as u64;
                    }
                    let context = format!("k {k} mixed {mixed} last {last} cut {cut}");
                    let mut naive = vpatch_suite::patterns::naive::naive_find_all(&set, &hay);
                    naive.retain(|m| positions.contains(&(m.start as u32)));
                    let mut normalized = expected.clone();
                    normalize_matches(&mut normalized);
                    assert_eq!(normalized, naive, "verify_at vs naive: {context}");
                    assert!(!expected.is_empty(), "{context}");
                    let expected = (expected, expected_cmp);
                    assert_eq!(
                        table_batch::<ScalarBackend, 16>(&table, &hay, &positions),
                        expected,
                        "scalar/16: {context}"
                    );
                    for kind in available_backends() {
                        let got = match kind {
                            BackendKind::Scalar => {
                                table_batch::<ScalarBackend, 8>(&table, &hay, &positions)
                            }
                            BackendKind::Avx2 => {
                                table_batch::<Avx2Backend, 8>(&table, &hay, &positions)
                            }
                            BackendKind::Avx512 => {
                                table_batch::<Avx512Backend, 16>(&table, &hay, &positions)
                            }
                        };
                        assert_eq!(got, expected, "{kind}: {context}");
                    }
                }
            }
        }
    }
}
