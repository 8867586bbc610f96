//! Cross-engine differential property tests for the case-insensitive
//! (`nocase`) matching semantics.
//!
//! Random pattern sets mixing `nocase` and case-sensitive patterns are run
//! over randomly case-mutated traffic through **every engine in the
//! workspace** (`common::all_engines`) — the naive matcher, Aho-Corasick
//! (NFA and dense DFA), Wu-Manber, DFC, Vector-DFC, S-PATCH and V-PATCH on
//! every backend this run can dispatch to — and compared against the naive
//! case-aware reference, both one-shot and streamed under random chunkings.
//! `MPM_FORCE_BACKEND` narrows the backend list, which is how the CI matrix
//! pins these tests to the scalar, AVX2 and AVX-512 code paths in turn.
//!
//! The contract under test (filter-folded / verify-exact): a `nocase`
//! pattern matches every ASCII case variant of itself, a case-sensitive
//! pattern matches byte-exactly only, and mixing the two in one set changes
//! neither.

mod common;

use common::all_engines;
use vpatch_suite::patterns::matcher::normalize_matches;
use vpatch_suite::patterns::naive::naive_find_all;
use vpatch_suite::prelude::*;

use proptest::prelude::*;

/// Pattern bytes over a deliberately collision-happy alphabet: both cases of
/// a few letters (so case-variants of patterns occur in the haystack), a
/// digit, a non-ASCII byte (must never fold) and arbitrary bytes.
fn bytes_strategy(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![
            Just(b'a'),
            Just(b'A'),
            Just(b'b'),
            Just(b'B'),
            Just(b'g'),
            Just(b'G'),
            Just(b'e'),
            Just(b'T'),
            Just(b'0'),
            Just(0xC1u8),
            any::<u8>()
        ],
        1..max_len,
    )
}

/// A random mixed set: each pattern independently `nocase` or byte-exact.
fn mixed_set_strategy() -> impl Strategy<Value = PatternSet> {
    proptest::collection::vec((bytes_strategy(9), any::<bool>()), 1..10).prop_map(|ps| {
        PatternSet::new(
            ps.into_iter()
                .map(|(bytes, nocase)| Pattern::literal(bytes).with_nocase(nocase))
                .collect(),
        )
    })
}

/// A haystack plus per-byte case mutations: `flips[i % flips.len()]` decides
/// whether byte `i` gets its ASCII case toggled, so embedded pattern bytes
/// appear in arbitrary case mixes.
fn mutated_haystack_strategy(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    (
        bytes_strategy(max_len),
        proptest::collection::vec(any::<bool>(), 1..16),
    )
        .prop_map(|(mut hay, flips)| {
            for (i, b) in hay.iter_mut().enumerate() {
                if flips[i % flips.len()] && b.is_ascii_alphabetic() {
                    *b ^= 0x20;
                }
            }
            hay
        })
}

fn chunk_plan_strategy() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..24, 1..12)
}

/// Streams `hay` through a [`StreamScanner`] following `plan` and returns
/// the normalized match set.
fn streamed_matches(
    engine: SharedMatcher,
    set: &PatternSet,
    hay: &[u8],
    plan: &[usize],
) -> Vec<MatchEvent> {
    let mut scanner = StreamScanner::new(engine, set);
    let mut got = Vec::new();
    let mut pos = 0;
    let mut step = 0;
    while pos < hay.len() {
        let take = plan[step % plan.len()].min(hay.len() - pos);
        scanner.push(&hay[pos..pos + take], &mut got);
        pos += take;
        step += 1;
    }
    normalize_matches(&mut got);
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_engine_equals_the_case_aware_reference_one_shot(
        set in mixed_set_strategy(),
        hay in mutated_haystack_strategy(300),
    ) {
        let expected = naive_find_all(&set, &hay);
        for engine in all_engines(&set) {
            prop_assert_eq!(
                &engine.find_all(&hay), &expected,
                "{} diverged from the case-aware reference", engine.name()
            );
            prop_assert_eq!(
                engine.count(&hay), expected.len() as u64,
                "{} count() diverged", engine.name()
            );
        }
    }

    #[test]
    fn every_engine_equals_the_reference_streamed(
        set in mixed_set_strategy(),
        hay in mutated_haystack_strategy(250),
        plan in chunk_plan_strategy(),
    ) {
        let expected = naive_find_all(&set, &hay);
        for engine in all_engines(&set) {
            let name = engine.name();
            let got = streamed_matches(engine, &set, &hay, &plan);
            prop_assert_eq!(
                &got, &expected,
                "{} diverged from one-shot under chunking {:?}", name, &plan
            );
        }
    }
}

/// The motivating false negative from the issue: a `nocase` rule for
/// `GET /etc/passwd` must catch `GET /ETC/PASSWD` in every engine, while a
/// case-sensitive twin must not.
#[test]
fn upper_cased_attack_traffic_no_longer_sails_past_nocase_rules() {
    let rules = PatternSet::new(vec![
        Pattern::literal_nocase(*b"GET /etc/passwd"),
        Pattern::literal(*b"GET /etc/passwd"),
    ]);
    let attack = b"xx GET /ETC/PASSWD HTTP/1.1";
    let benign = b"xx GET /etc/passwd HTTP/1.1";
    for engine in all_engines(&rules) {
        let hits = engine.find_all(attack);
        assert_eq!(
            hits,
            vec![MatchEvent::new(3, PatternId(0))],
            "{}: the nocase rule (and only it) must fire on case-varied traffic",
            engine.name()
        );
        let both = engine.find_all(benign);
        assert_eq!(both.len(), 2, "{}", engine.name());
    }
}

/// Case-sensitive-only sets must keep byte-exact semantics bit-for-bit:
/// the folded machinery may not even engage.
#[test]
fn case_sensitive_only_sets_are_untouched_by_the_nocase_machinery() {
    let rules = PatternSet::from_literals(&["GeT", "attack", "AB"]);
    assert!(!rules.has_nocase());
    let hay = b"GET get GeT ATTACK attack ab AB aB";
    let expected = naive_find_all(&rules, hay);
    for engine in all_engines(&rules) {
        assert_eq!(engine.find_all(hay), expected, "{}", engine.name());
    }
}
