//! Differential property tests for multi-content rule confirmation.
//!
//! Random rulesets — 1–3 contents per rule, independent
//! `nocase`/`offset`/`depth`/`distance`/`within` modifiers — are evaluated
//! over random payloads (with rule contents spliced in so real
//! multi-content matches actually occur) through the anchor-gated
//! confirmation pipeline on **every engine in the workspace**, and compared
//! against the naive O(n·m) evaluator in `mpm_patterns::rule`, which walks
//! every occurrence combination with a deliberately different algorithm
//! (memoized recursion + binary search vs. the engine's min-max-end DP).
//!
//! Both one-shot (`RuleScanner::scan_rules`) and streamed
//! (`RuleStreamScanner` under random chunkings) paths must agree with the
//! oracle exactly: same confirmed rules, same minimal satisfiable prefix
//! lengths. The resumable enumeration underneath both is also driven
//! directly: `RuleConfirmer::resume` over a growing payload — cut at every
//! seam, fed a byte at a time — must decide, call by call, what the naive
//! evaluator decides on each prefix, for contents from one byte (first and
//! last prescreen byte coincide) to longer than a prescreen block.
//! `MPM_FORCE_BACKEND` pins the confirmation backend the same way it pins
//! the engines, which is how the CI matrix drives this suite through the
//! scalar, AVX2 and AVX-512 `prescreen` / `eq_window` paths in turn.

mod common;

use common::{splice, splice_strategy};
use std::sync::Arc;
use vpatch_suite::patterns::rule::{naive_rule_find_all, naive_rule_first_end};
use vpatch_suite::prelude::*;
use vpatch_suite::simd::ScalarBackend;

use proptest::prelude::*;

/// Content bytes over a collision-happy alphabet: repeated letters in both
/// cases so contents overlap each other and the payload, plus arbitrary
/// bytes and a non-ASCII byte that must never case-fold.
fn bytes_strategy(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![
            Just(b'a'),
            Just(b'A'),
            Just(b'b'),
            Just(b'c'),
            Just(b'x'),
            Just(0xC1u8),
            any::<u8>()
        ],
        2..max_len,
    )
}

/// One content with random modifiers. Kept within the shim's arity-4 tuple
/// limit by nesting: `((bytes, nocase), (offset, depth), (distance,
/// within))`. Absolute and relative families are generated independently —
/// the semantics allow mixing even though the Snort parser rejects it, and
/// the oracle implements the same semantics.
#[allow(clippy::type_complexity)]
fn content_strategy() -> impl Strategy<Value = RuleContent> {
    content_strategy_over(bytes_strategy(6))
}

/// Content bytes at the lengths the prescreen treats differently: a single
/// byte, the usual few, and longer than one prescreen block.
fn any_length_bytes_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        bytes_strategy(6).prop_map(|b| b[..1].to_vec()),
        bytes_strategy(6),
        bytes_strategy(6).prop_map(|b| b.iter().copied().cycle().take(64 + b.len()).collect()),
    ]
}

#[allow(clippy::type_complexity)]
fn content_strategy_over(
    bytes: impl Strategy<Value = Vec<u8>>,
) -> impl Strategy<Value = RuleContent> {
    (
        (bytes, any::<bool>()),
        (
            prop_oneof![Just(None), (0u32..40).prop_map(Some)],
            prop_oneof![Just(None), (2u32..48).prop_map(Some)],
        ),
        (
            prop_oneof![Just(None), (0u32..36).prop_map(|v| Some(v as i32 - 6))],
            prop_oneof![Just(None), (2u32..40).prop_map(Some)],
        ),
    )
        .prop_map(|((bytes, nocase), (offset, depth), (distance, within))| {
            let mut c = RuleContent::new(bytes).with_nocase(nocase);
            if let Some(o) = offset {
                c = c.with_offset(o);
            }
            if let Some(d) = depth {
                c = c.with_depth(d);
            }
            if let Some(x) = distance {
                c = c.with_distance(x);
            }
            if let Some(w) = within {
                c = c.with_within(w);
            }
            c
        })
}

fn ruleset_strategy() -> impl Strategy<Value = RuleSet> {
    ruleset_strategy_over(content_strategy())
}

/// Rule sets whose contents span every prescreen length class.
fn any_length_ruleset_strategy() -> impl Strategy<Value = RuleSet> {
    ruleset_strategy_over(content_strategy_over(any_length_bytes_strategy()))
}

fn ruleset_strategy_over(
    content: impl Strategy<Value = RuleContent>,
) -> impl Strategy<Value = RuleSet> {
    proptest::collection::vec(proptest::collection::vec(content, 1..4), 1..5)
        .prop_map(|rules| RuleSet::new(rules.into_iter().map(Rule::new).collect()))
}

fn chunk_plan_strategy() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..24, 1..12)
}

/// Every engine family, compiled for the rule set's anchor patterns.
/// `build_auto` resolves per `MPM_FORCE_BACKEND`, so the CI matrix runs
/// each forced backend's V-PATCH (and confirmation path) in turn.
fn anchor_engines(set: &RuleSet) -> Vec<SharedMatcher> {
    let anchors = set.anchors();
    vec![
        Arc::new(NaiveMatcher::new(anchors)),
        Arc::from(NfaMatcher::build(anchors)),
        Arc::from(DfaMatcher::build(anchors)),
        Arc::from(WuManber::build(anchors)),
        Arc::from(Dfc::build(anchors)),
        Arc::from(SPatch::build(anchors)),
        Arc::from(VPatch::<ScalarBackend, 8>::build(anchors)),
        Arc::from(build_auto(anchors)),
    ]
}

/// Streams `payload` through a [`RuleStreamScanner`] following `plan` and
/// returns the confirmed rules in rule-id order.
fn streamed_rules(
    engine: SharedMatcher,
    set: &RuleSet,
    payload: &[u8],
    plan: &[usize],
) -> Vec<RuleMatch> {
    let mut scanner = RuleStreamScanner::new(engine, set);
    let (mut anchors, mut rules) = (Vec::new(), Vec::new());
    let mut pos = 0;
    let mut step = 0;
    while pos < payload.len() {
        let take = plan[step % plan.len()].min(payload.len() - pos);
        scanner.push(&payload[pos..pos + take], &mut anchors, &mut rules);
        pos += take;
        step += 1;
    }
    rules.sort_unstable();
    rules
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_engine_confirms_exactly_the_naive_rule_matches_one_shot(
        set in ruleset_strategy(),
        payload in bytes_strategy(140),
        plan in splice_strategy(),
    ) {
        let mut payload = payload;
        splice(&set, &mut payload, &plan);
        let expected = naive_rule_find_all(&set, &payload);
        for engine in anchor_engines(&set) {
            let name = engine.name();
            let scanner = RuleScanner::new(engine, &set);
            prop_assert_eq!(
                &scanner.scan_rules(&payload), &expected,
                "{} diverged from the naive rule evaluator", name
            );
        }
    }

    #[test]
    fn streamed_confirmation_equals_one_shot_under_random_chunkings(
        set in ruleset_strategy(),
        payload in bytes_strategy(120),
        plan in splice_strategy(),
        chunks in chunk_plan_strategy(),
    ) {
        let mut payload = payload;
        splice(&set, &mut payload, &plan);
        let expected = naive_rule_find_all(&set, &payload);
        for engine in anchor_engines(&set) {
            let name = engine.name();
            let got = streamed_rules(engine, &set, &payload, &chunks);
            prop_assert_eq!(
                &got, &expected,
                "{} streamed confirmation diverged under chunking {:?}",
                name, &chunks
            );
        }
    }

    #[test]
    fn resumed_confirmation_decides_every_prefix_like_the_naive_evaluator(
        set in any_length_ruleset_strategy(),
        payload in bytes_strategy(260),
        plan in splice_strategy(),
    ) {
        let mut payload = payload;
        splice(&set, &mut payload, &plan);
        let confirmer = RuleConfirmer::build(&set);
        for (id, rule) in set.iter() {
            let expected = naive_rule_first_end(rule, &payload);
            prop_assert_eq!(confirmer.confirm(&payload, id), expected, "one-shot, rule {}", id);
            // Two calls, cut at every seam: the first decides the prefix,
            // and a rule still pending after it is decided by the second.
            for cut in 0..=payload.len() {
                let mut progress = ConfirmProgress::default();
                let early = confirmer.resume(&payload[..cut], id, &mut progress);
                prop_assert_eq!(
                    early, naive_rule_first_end(rule, &payload[..cut]),
                    "rule {} on the prefix cut at {}", id, cut
                );
                if early.is_none() {
                    prop_assert_eq!(
                        confirmer.resume(&payload, id, &mut progress), expected,
                        "rule {} resumed past the cut at {}", id, cut
                    );
                }
            }
            // A byte at a time: pending until the call that completes the
            // minimal prefix, which reports exactly that prefix.
            let mut progress = ConfirmProgress::default();
            let mut confirmed = None;
            for end in 1..=payload.len() {
                if let Some(at) = confirmer.resume(&payload[..end], id, &mut progress) {
                    prop_assert_eq!(at, end, "rule {} confirmed late", id);
                    confirmed = Some(at);
                    break;
                }
            }
            prop_assert_eq!(confirmed, expected, "rule {} a byte at a time", id);
        }
    }

    #[test]
    fn sharded_rule_mode_equals_the_naive_evaluator_per_flow(
        set in ruleset_strategy(),
        payload in bytes_strategy(100),
        plan in splice_strategy(),
        cut in any::<usize>(),
    ) {
        let mut payload = payload;
        splice(&set, &mut payload, &plan);
        let expected = naive_rule_find_all(&set, &payload);
        let engine: SharedMatcher = Arc::from(build_auto(set.anchors()));
        let mut scanner = ScannerBuilder::new()
            .rules(engine, &set)
            .workers(3)
            .build().expect("valid build");
        // Two flows carrying the same payload, each cut once at a random
        // seam; both must report the same confirmed rules.
        let cut = cut % (payload.len() + 1);
        let result = scanner.scan_batch(vec![
            Packet::new(11, payload[..cut].to_vec()),
            Packet::new(22, payload.to_vec()),
            Packet::new(11, payload[cut..].to_vec()),
        ]).expect("workers alive");
        for flow in [11u64, 22] {
            let got: Vec<RuleMatch> = result
                .rule_matches
                .iter()
                .filter(|m| m.flow == flow)
                .map(|m| RuleMatch::new(m.rule, m.end))
                .collect();
            prop_assert_eq!(
                &got, &expected,
                "flow {} diverged (cut at {})", flow, cut
            );
        }
    }
}

/// Pinned regression: the worked example from the issue — a rule whose
/// secondary content is constrained relative to the anchor — one-shot,
/// streamed byte-by-byte, and parsed from real Snort syntax.
#[test]
fn get_etc_passwd_with_window_is_confirmed_everywhere() {
    let text = r#"alert tcp any any -> any 80 (msg:"traversal"; content:"GET "; content:"passwd"; distance:0; within:20; sid:9001;)"#;
    let set = vpatch_suite::patterns::snort::parse_ruleset(
        text,
        vpatch_suite::patterns::snort::ParseOptions::default(),
    )
    .expect("rule parses");
    let hit = b"GET /etc/passwd HTTP/1.1";
    let miss = b"GET /some/very/long/path/passwd";
    let expected = naive_rule_find_all(&set, hit);
    assert_eq!(expected.len(), 1);
    for engine in anchor_engines(&set) {
        let name = engine.name();
        let scanner = RuleScanner::new(engine.clone(), &set);
        assert_eq!(scanner.scan_rules(hit), expected, "{name} one-shot");
        assert!(
            scanner.scan_rules(miss).is_empty(),
            "{name} window violated"
        );
        let plan = [1usize];
        assert_eq!(
            streamed_rules(engine, &set, hit, &plan),
            expected,
            "{name} streamed"
        );
    }
}
