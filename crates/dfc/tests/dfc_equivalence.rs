//! Equivalence property tests: DFC and Vector-DFC produce exactly the
//! Aho-Corasick / naive match set on arbitrary inputs, and Vector-DFC's
//! vectorized filter passes exactly the windows DFC's scalar one does.

use mpm_aho_corasick::DfaMatcher;
use mpm_dfc::{Dfc, VectorDfc};
use mpm_patterns::{naive::naive_find_all, Matcher, Pattern, PatternSet};
use mpm_simd::{Avx2Backend, Avx512Backend, ScalarBackend, VectorBackend};
use proptest::prelude::*;

fn bytes_strategy(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![
            Just(b'a'),
            Just(b'b'),
            Just(b'G'),
            Just(b'E'),
            Just(b'T'),
            any::<u8>()
        ],
        1..max_len,
    )
}

fn pattern_set_strategy() -> impl Strategy<Value = PatternSet> {
    proptest::collection::vec(bytes_strategy(10), 1..15)
        .prop_map(|ps| PatternSet::new(ps.into_iter().map(Pattern::literal).collect()))
}

/// A pattern set whose patterns are each `nocase` or byte-exact at random.
fn mixed_set_strategy() -> impl Strategy<Value = PatternSet> {
    proptest::collection::vec((bytes_strategy(10), any::<bool>()), 1..15).prop_map(|ps| {
        PatternSet::new(
            ps.into_iter()
                .map(|(bytes, nocase)| Pattern::literal(bytes).with_nocase(nocase))
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dfc_equals_naive_and_ac(set in pattern_set_strategy(), hay in bytes_strategy(400)) {
        let expected = naive_find_all(&set, &hay);
        let dfc = Dfc::build(&set);
        prop_assert_eq!(dfc.find_all(&hay), expected.clone());
        let ac = DfaMatcher::build(&set);
        prop_assert_eq!(ac.find_all(&hay), expected);
    }

    #[test]
    fn vector_dfc_equals_naive(set in pattern_set_strategy(), hay in bytes_strategy(400)) {
        let expected = naive_find_all(&set, &hay);
        let v8 = VectorDfc::<ScalarBackend, 8>::build(&set);
        prop_assert_eq!(v8.find_all(&hay), expected.clone());
        let v16 = VectorDfc::<ScalarBackend, 16>::build(&set);
        prop_assert_eq!(v16.find_all(&hay), expected);
    }

    #[test]
    fn hardware_backends_equal_naive(set in pattern_set_strategy(), hay in bytes_strategy(300)) {
        let expected = naive_find_all(&set, &hay);
        if <Avx2Backend as VectorBackend<8>>::is_available() {
            let v = VectorDfc::<Avx2Backend, 8>::build(&set);
            prop_assert_eq!(v.find_all(&hay), expected.clone());
        }
        if <Avx512Backend as VectorBackend<16>>::is_available() {
            let v = VectorDfc::<Avx512Backend, 16>::build(&set);
            prop_assert_eq!(v.find_all(&hay), expected);
        }
    }

    /// The paper's Vector-DFC changes how DFC's filter runs, not what it
    /// passes: the same candidates reach verification, on every width and
    /// backend.
    #[test]
    fn vector_dfc_filters_exactly_like_dfc(set in mixed_set_strategy(), hay in bytes_strategy(400)) {
        let dfc = Dfc::build(&set);
        let candidates = dfc.scan_with_stats(&hay).candidates;
        let matches = dfc.find_all(&hay);
        let mut engines: Vec<Box<dyn Matcher>> = vec![
            Box::new(VectorDfc::<ScalarBackend, 8>::build(&set)),
            Box::new(VectorDfc::<ScalarBackend, 16>::build(&set)),
        ];
        if <Avx2Backend as VectorBackend<8>>::is_available() {
            engines.push(Box::new(VectorDfc::<Avx2Backend, 8>::build(&set)));
        }
        if <Avx512Backend as VectorBackend<16>>::is_available() {
            engines.push(Box::new(VectorDfc::<Avx512Backend, 16>::build(&set)));
        }
        for (i, engine) in engines.iter().enumerate() {
            prop_assert_eq!(engine.scan_with_stats(&hay).candidates, candidates, "engine {}", i);
            prop_assert_eq!(engine.find_all(&hay), matches.clone(), "engine {}", i);
        }
    }
}
