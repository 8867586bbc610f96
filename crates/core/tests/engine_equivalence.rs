//! Property tests: S-PATCH and V-PATCH (every backend) report exactly the
//! naive / Aho-Corasick match set on arbitrary pattern sets and inputs, and
//! their two filter kernels produce the same candidates.

use mpm_aho_corasick::DfaMatcher;
use mpm_patterns::{naive::naive_find_all, ArenaBuilder, Matcher, Pattern, PatternSet};
use mpm_simd::{Avx2Backend, Avx512Backend, ScalarBackend, VectorBackend};
use mpm_vpatch::{FilterOnlyMode, SPatch, SPatchTables, Scratch, VPatch};
use proptest::prelude::*;

fn bytes_strategy(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![
            4 => Just(b'a'),
            4 => Just(b'b'),
            2 => Just(b'G'),
            2 => Just(b'E'),
            1 => Just(0u8),
            2 => any::<u8>()
        ],
        1..max_len,
    )
}

fn pattern_set_strategy() -> impl Strategy<Value = PatternSet> {
    proptest::collection::vec(bytes_strategy(12), 1..16)
        .prop_map(|ps| PatternSet::new(ps.into_iter().map(Pattern::literal).collect()))
}

/// Sets in which about one pattern in eight is `nocase`, so folded and
/// byte-exact tables both come up.
fn mixed_case_set_strategy() -> impl Strategy<Value = PatternSet> {
    proptest::collection::vec((bytes_strategy(12), 0u8..8), 1..16).prop_map(|ps| {
        let pattern = |(bytes, roll)| match roll {
            0 => Pattern::literal_nocase(bytes),
            _ => Pattern::literal(bytes),
        };
        PatternSet::new(ps.into_iter().map(pattern).collect())
    })
}

/// Mixed-case inputs: empty ones, lengths around `2W + 3` (the shortest
/// input the unrolled vector loop enters, for `W` = 8 and 16), and longer.
fn haystack_strategy() -> impl Strategy<Value = Vec<u8>> {
    let bytes = |len| {
        let byte = prop_oneof![
            4 => Just(b'a'),
            2 => Just(b'A'),
            3 => Just(b'b'),
            2 => Just(b'G'),
            1 => Just(b'e'),
            2 => any::<u8>()
        ];
        proptest::collection::vec(byte, len)
    };
    prop_oneof![1 => bytes(0..1), 4 => bytes(16..40), 2 => bytes(0..300)]
}

/// V-PATCH on `B` at `W` lanes, over `tables`, against the candidate arrays
/// S-PATCH's scalar kernel left in `want`; then the filtering-only entry
/// point in both modes. Skipped when the backend is unavailable.
fn assert_vpatch_filters_like_spatch<B: VectorBackend<W>, const W: usize>(
    tables: &SPatchTables,
    hay: &[u8],
    want: &Scratch,
) -> Result<(), TestCaseError> {
    if !B::is_available() {
        return Ok(());
    }
    let engine = VPatch::<B, W>::from_tables(tables.clone());
    let mut got = Scratch::new();
    engine.filter_round(hay, &mut got);
    prop_assert_eq!(&got.a_short, &want.a_short);
    prop_assert_eq!(&got.a_long, &want.a_long);
    let stored = engine.filter_only(hay, FilterOnlyMode::WithStores, &mut got);
    prop_assert_eq!(stored, want.candidates());
    prop_assert_eq!(
        engine.filter_only(hay, FilterOnlyMode::NoStores, &mut got),
        stored
    );
    prop_assert_eq!(got.candidates(), 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn spatch_and_vpatch_filter_alike(set in mixed_case_set_strategy(), hay in haystack_strategy()) {
        // The same candidates from both kernels, on full-size tables and on
        // a port group's (filters sized to the set, bytes in an arena).
        let mut arena = ArenaBuilder::new();
        for p in set.patterns() {
            arena.intern(p.bytes());
        }
        let arena = arena.finish();
        for tables in [SPatchTables::build(&set), SPatchTables::build_with_arena(&set, &arena)] {
            let mut want = Scratch::new();
            SPatch::from_tables(tables.clone()).filter_round(&hay, &mut want);
            assert_vpatch_filters_like_spatch::<ScalarBackend, 8>(&tables, &hay, &want)?;
            assert_vpatch_filters_like_spatch::<ScalarBackend, 16>(&tables, &hay, &want)?;
            assert_vpatch_filters_like_spatch::<Avx2Backend, 8>(&tables, &hay, &want)?;
            assert_vpatch_filters_like_spatch::<Avx512Backend, 16>(&tables, &hay, &want)?;
        }
    }

    #[test]
    fn spatch_equals_naive_and_ac(set in pattern_set_strategy(), hay in bytes_strategy(500)) {
        let expected = naive_find_all(&set, &hay);
        prop_assert_eq!(SPatch::build(&set).find_all(&hay), expected.clone());
        prop_assert_eq!(DfaMatcher::build(&set).find_all(&hay), expected);
    }

    #[test]
    fn vpatch_scalar_backends_equal_naive(set in pattern_set_strategy(), hay in bytes_strategy(500)) {
        let expected = naive_find_all(&set, &hay);
        prop_assert_eq!(VPatch::<ScalarBackend, 8>::build(&set).find_all(&hay), expected.clone());
        prop_assert_eq!(VPatch::<ScalarBackend, 16>::build(&set).find_all(&hay), expected);
    }

    #[test]
    fn vpatch_hardware_backends_equal_naive(set in pattern_set_strategy(), hay in bytes_strategy(400)) {
        let expected = naive_find_all(&set, &hay);
        if <Avx2Backend as VectorBackend<8>>::is_available() {
            prop_assert_eq!(VPatch::<Avx2Backend, 8>::build(&set).find_all(&hay), expected.clone());
        }
        if <Avx512Backend as VectorBackend<16>>::is_available() {
            prop_assert_eq!(VPatch::<Avx512Backend, 16>::build(&set).find_all(&hay), expected);
        }
    }

    #[test]
    fn auto_engine_equals_naive(set in pattern_set_strategy(), hay in bytes_strategy(400)) {
        let engine = mpm_vpatch::build_auto(&set);
        prop_assert_eq!(engine.find_all(&hay), naive_find_all(&set, &hay));
    }

    #[test]
    fn filtering_round_never_drops_a_true_match(set in pattern_set_strategy(), hay in bytes_strategy(300)) {
        // The invariant exactness rests on: every true match position appears
        // in the candidate arrays of the filtering round.
        let engine = VPatch::<ScalarBackend, 8>::build(&set);
        let mut scratch = mpm_vpatch::Scratch::new();
        engine.filter_round(&hay, &mut scratch);
        for m in naive_find_all(&set, &hay) {
            let len = set.get(m.pattern).len();
            let arr = if len < 4 { &scratch.a_short } else { &scratch.a_long };
            prop_assert!(arr.contains(&(m.start as u32)), "missing candidate for {:?}", m);
        }
    }
}
