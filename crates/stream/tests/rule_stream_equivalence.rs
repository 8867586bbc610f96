//! The rule-confirmation streaming invariant: for any chunking of any flow,
//! [`RuleStreamScanner`] confirms exactly the rules (at exactly the
//! offsets) that `naive_rule_find_all` reports for the concatenated
//! payload — in particular when a **secondary** content, or the positional
//! window tying it to the anchor, straddles a chunk seam. Deterministic
//! every-cut-point sweeps complement the random-chunking property tests in
//! the workspace's `tests/rule_confirmation_differential.rs`.
//!
//! Confirmation is resumable — each pending rule remembers how far each of
//! its contents has been examined and what it found — so every sweep here
//! also checks that what a rule carries across a seam (or across a
//! `reset()`, or up to a buffer cap) is exactly what a fresh confirmation
//! of the buffered flow would compute. The fixture's contents run from one
//! byte to longer than a prescreen block, and the random suite draws rules
//! over the same range.

mod common;

use common::worker_counts;
use mpm_patterns::rule::{naive_rule_find_all, Rule, RuleContent, RuleId, RuleSet};
use mpm_patterns::NaiveMatcher;
use mpm_simd::{Avx2Backend, Avx512Backend, BackendKind, ScalarBackend};
use mpm_stream::{Packet, RuleStreamScanner, ScannerBuilder, SharedMatcher};
use mpm_vpatch::{SPatch, VPatch};
use proptest::prelude::*;
use std::sync::Arc;

fn ruleset(rules: Vec<Vec<RuleContent>>) -> RuleSet {
    RuleSet::new(rules.into_iter().map(Rule::new).collect())
}

/// Anchor engines spanning the engine families, plus every backend this
/// run can dispatch to (`MPM_FORCE_BACKEND` narrows the list).
fn engines(set: &RuleSet) -> Vec<SharedMatcher> {
    let anchors = set.anchors();
    let mut engines: Vec<SharedMatcher> = vec![
        Arc::new(NaiveMatcher::new(anchors)),
        Arc::from(SPatch::build(anchors)),
        Arc::from(VPatch::<ScalarBackend, 8>::build(anchors)),
    ];
    for kind in mpm_simd::available_backends() {
        match kind {
            BackendKind::Scalar => {}
            BackendKind::Avx2 => {
                engines.push(Arc::from(VPatch::<Avx2Backend, 8>::build(anchors)));
            }
            BackendKind::Avx512 => {
                engines.push(Arc::from(VPatch::<Avx512Backend, 16>::build(anchors)));
            }
        }
    }
    engines
}

/// Rules whose secondary contents and windows exercise every constraint
/// kind, paired with a payload on which they all confirm.
fn seam_fixture() -> (RuleSet, Vec<u8>) {
    let set = ruleset(vec![
        // Chained relative windows: anchor .. distance .. within.
        vec![
            RuleContent::new(*b"GET "),
            RuleContent::new(*b"/etc/").with_distance(0),
            RuleContent::new(*b"passwd")
                .with_distance(0)
                .with_within(10),
        ],
        // Negative distance: secondary overlaps the anchor's tail.
        vec![
            RuleContent::new(*b"abcd"),
            RuleContent::new(*b"cdef").with_distance(-2),
        ],
        // Absolute window on the secondary content.
        vec![
            RuleContent::new(*b"HTTP"),
            RuleContent::new(*b"Host").with_offset(20).with_depth(24),
        ],
        // nocase secondary.
        vec![
            RuleContent::new(*b"user"),
            RuleContent::new(*b"PASS")
                .with_nocase(true)
                .with_distance(1),
        ],
        // A content longer than a prescreen block (and than any chunk of
        // the 1-byte sweep), case-folded, then a one-byte content whose
        // first and last prescreen byte coincide.
        vec![
            RuleContent::new(LONG.to_ascii_uppercase()).with_nocase(true),
            RuleContent::new(*b"!").with_distance(2).with_within(4),
        ],
        // Relative constraints on the first content anchor at stream start.
        vec![
            RuleContent::new(*b"pass").with_distance(40),
            RuleContent::new(*b"=").with_distance(-70).with_within(70),
        ],
    ]);
    let mut payload = b"GET /etc/passwd abcdef HTTP/1.1 ..Host user: pass ".to_vec();
    payload.extend_from_slice(LONG);
    payload.extend_from_slice(b"..! key=value");
    (set, payload)
}

/// 70 bytes: longer than one 64-start prescreen block.
const LONG: &[u8; 70] = b"Cookie: session=0123456789abcdef0123456789abcdef0123456789abcdef; x=yz";

/// Every two-chunk split of the payload — every possible seam, including
/// ones inside each secondary content and inside each constraint window —
/// must confirm the same rules at the same offsets as one-shot.
#[test]
fn every_cut_point_confirms_the_same_rules() {
    let (set, payload) = seam_fixture();
    let expected = naive_rule_find_all(&set, &payload);
    assert_eq!(expected.len(), set.len(), "fixture: every rule confirms");
    for engine in engines(&set) {
        let name = engine.name();
        for cut in 0..=payload.len() {
            let mut scanner = RuleStreamScanner::new(engine.clone(), &set);
            let (mut anchors, mut rules) = (Vec::new(), Vec::new());
            scanner.push(&payload[..cut], &mut anchors, &mut rules);
            scanner.push(&payload[cut..], &mut anchors, &mut rules);
            rules.sort_unstable();
            assert_eq!(rules, expected, "{name}: cut at {cut} diverged");
        }
    }
}

/// 1-byte chunks: the most seams a stream can have.
#[test]
fn one_byte_chunks_confirm_the_same_rules() {
    let (set, payload) = seam_fixture();
    let expected = naive_rule_find_all(&set, &payload);
    for engine in engines(&set) {
        let name = engine.name();
        let mut scanner = RuleStreamScanner::new(engine, &set);
        let (mut anchors, mut rules) = (Vec::new(), Vec::new());
        for &b in &payload {
            scanner.push(&[b], &mut anchors, &mut rules);
        }
        rules.sort_unstable();
        assert_eq!(rules, expected, "{name}: 1-byte chunks diverged");
    }
}

/// A rule must confirm on exactly the push whose bytes complete its minimal
/// satisfiable prefix — never earlier (the window is still open) and never
/// twice.
#[test]
fn confirmation_lands_on_the_completing_push() {
    let set = ruleset(vec![vec![
        RuleContent::new(*b"head"),
        RuleContent::new(*b"tail").with_distance(2).with_within(10),
    ]]);
    let payload = b"..head..xx..tail..";
    let expected = naive_rule_find_all(&set, payload);
    assert_eq!(expected.len(), 1);
    let minimal_end = expected[0].end;
    for engine in engines(&set) {
        let name = engine.name();
        let mut scanner = RuleStreamScanner::new(engine, &set);
        let (mut anchors, mut rules) = (Vec::new(), Vec::new());
        for (i, &b) in payload.iter().enumerate() {
            let before = rules.len();
            scanner.push(&[b], &mut anchors, &mut rules);
            if i + 1 == minimal_end {
                assert_eq!(rules.len(), before + 1, "{name}: late at byte {i}");
            } else {
                assert_eq!(rules.len(), before, "{name}: early/duplicate at byte {i}");
            }
        }
        assert_eq!(rules, expected, "{name}");
    }
}

/// Sharded rule mode: packets of one flow cut at every seam across *two
/// batches* still confirm, and worker count never changes the result. A
/// third batch repeats the whole payload: every rule already confirmed, so
/// the flow's stream confirms nothing more — a rule confirms once per flow,
/// however many drains its contents recur in.
#[test]
fn sharded_rule_confirmation_survives_every_packet_seam() {
    let (set, payload) = seam_fixture();
    let expected: Vec<(u64, RuleId, usize)> = naive_rule_find_all(&set, &payload.repeat(2))
        .into_iter()
        .map(|m| (5u64, m.rule, m.end))
        .collect();
    let engine: SharedMatcher = Arc::new(NaiveMatcher::new(set.anchors()));
    for cut in 0..=payload.len() {
        for workers in worker_counts(&[1, 4]) {
            let mut scanner = ScannerBuilder::new()
                .rules(engine.clone(), &set)
                .workers(workers)
                .build()
                .expect("valid build");
            let mut scan = |payload: &[u8]| {
                let batch = vec![Packet::new(5, payload.to_vec())];
                scanner
                    .scan_batch(batch)
                    .expect("workers alive")
                    .rule_matches
            };
            let mut confirmed = scan(&payload[..cut]);
            confirmed.extend(scan(&payload[cut..]));
            confirmed.extend(scan(&payload));
            // Rule-id order, as the oracle reports: a rule confirmed by the
            // first batch may have a higher id than one confirmed later.
            let mut got: Vec<(u64, RuleId, usize)> =
                confirmed.iter().map(|m| (m.flow, m.rule, m.end)).collect();
            got.sort_unstable();
            assert_eq!(
                got, expected,
                "cut at {cut} with {workers} workers diverged"
            );
        }
    }
}

/// A buffer cap anywhere in the flow: for every cut, the capped scanner
/// confirms exactly what the naive evaluator finds in the first `cap`
/// bytes — the progress carried up to the crossing push plus that push's
/// final resumption over the capped prefix add up to one confirmation of
/// that prefix.
#[test]
fn every_cut_point_confirms_the_cap_prefix_across_a_buffer_crossing() {
    let (set, payload) = seam_fixture();
    let engine: SharedMatcher = Arc::from(mpm_vpatch::build_auto(set.anchors()));
    for cap in [0, 16, 23, 49, 50 + LONG.len(), payload.len() - 1] {
        let expected = naive_rule_find_all(&set, &payload[..cap]);
        for cut in 0..=payload.len() {
            let mut scanner = RuleStreamScanner::new(engine.clone(), &set).with_max_buffer(cap);
            let (mut anchors, mut rules) = (Vec::new(), Vec::new());
            scanner.push(&payload[..cut], &mut anchors, &mut rules);
            scanner.push(&payload[cut..], &mut anchors, &mut rules);
            rules.sort_unstable();
            assert_eq!(rules, expected, "cap {cap}, cut at {cut}");
            assert!(scanner.degraded(), "cap {cap} lies inside the flow");
        }
    }
}

/// `reset()` must drop every pending rule's progress: neither the
/// occurrences found in the previous flow nor how far it had been examined
/// may leak into the next one.
#[test]
fn reset_leaks_no_confirmation_progress_into_the_next_flow() {
    let set = ruleset(vec![vec![
        RuleContent::new(*b"anchor"),
        RuleContent::new(*b"wxyz").with_distance(0),
        RuleContent::new(*b"mnop").with_distance(0),
    ]]);
    // Flow A leaves the rule pending with "anchor" and "wxyz" found and 20
    // bytes examined.
    let flow_a = b"anchor wxyz ........";
    // Flow B has no "wxyz", and its "mnop" lies past where A stopped: it
    // confirms only if A's record, occurrences and all, survived.
    let flow_b = b"anchor .............. mnop";
    // Flow C is complete but shorter than A: it confirms only if every
    // content is examined again from the start of the stream.
    let flow_c = b"anchor wxyz mnop";
    for engine in engines(&set) {
        let name = engine.name();
        let mut scanner = RuleStreamScanner::new(engine, &set);
        let (mut anchors, mut rules) = (Vec::new(), Vec::new());
        for chunk in flow_a.chunks(7) {
            scanner.push(chunk, &mut anchors, &mut rules);
        }
        assert!(rules.is_empty(), "{name}: flow A lacks the third content");
        scanner.reset();
        for chunk in flow_b.chunks(7) {
            scanner.push(chunk, &mut anchors, &mut rules);
        }
        assert!(rules.is_empty(), "{name}: flow A's occurrences leaked");
        scanner.reset();
        for chunk in flow_c.chunks(7) {
            scanner.push(chunk, &mut anchors, &mut rules);
        }
        assert_eq!(
            rules,
            naive_rule_find_all(&set, flow_c),
            "{name}: flow A's examined range leaked"
        );
        assert_eq!(rules.len(), 1);
    }
}

/// Content bytes over a collision-happy alphabet, at the lengths the
/// occurrence prescreen treats differently: one byte, a few, and longer
/// than a prescreen block.
fn content_bytes() -> impl Strategy<Value = Vec<u8>> {
    let few = || {
        proptest::collection::vec(
            prop_oneof![Just(b'a'), Just(b'A'), Just(b'b'), Just(b'x'), any::<u8>()],
            2..6,
        )
    };
    prop_oneof![
        few().prop_map(|b| b[..1].to_vec()),
        few(),
        few().prop_map(|b| b.iter().copied().cycle().take(64 + b.len()).collect()),
    ]
}

/// One content with independent random modifiers (negative `distance`
/// included; a first content's relative modifiers anchor at stream start).
#[allow(clippy::type_complexity)]
fn content() -> impl Strategy<Value = RuleContent> {
    (
        (content_bytes(), any::<bool>()),
        (
            prop_oneof![Just(None), (0u32..40).prop_map(Some)],
            prop_oneof![Just(None), (2u32..120).prop_map(Some)],
        ),
        (
            prop_oneof![Just(None), (0u32..36).prop_map(|v| Some(v as i32 - 6))],
            prop_oneof![Just(None), (2u32..120).prop_map(Some)],
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random multi-content rules over a payload with their contents
    /// spliced in: the naive evaluator, the streamed scanner at every
    /// two-chunk cut, at 1-byte chunks, and across a buffer cap all agree.
    #[test]
    fn random_rules_stream_like_the_naive_evaluator(
        rules in proptest::collection::vec(proptest::collection::vec(content(), 1..4), 1..4),
        filler in proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'B'), any::<u8>()], 40..260),
        splices in proptest::collection::vec((any::<usize>(), any::<usize>(), any::<usize>()), 0..8),
        cap in any::<usize>(),
    ) {
        let set = ruleset(rules);
        let mut payload = filler;
        for (r, c, at) in splices {
            let rule = set.get(RuleId((r % set.len()) as u32));
            let bytes = rule.contents()[c % rule.contents().len()].bytes();
            if bytes.len() <= payload.len() {
                let at = at % (payload.len() - bytes.len() + 1);
                payload[at..at + bytes.len()].copy_from_slice(bytes);
            }
        }
        let expected = naive_rule_find_all(&set, &payload);
        let cap = cap % (payload.len() + 1);
        let capped = naive_rule_find_all(&set, &payload[..cap]);
        let engine: SharedMatcher = Arc::from(mpm_vpatch::build_auto(set.anchors()));
        let stream = |cap: Option<usize>, chunks: &[&[u8]]| {
            let mut scanner = RuleStreamScanner::new(engine.clone(), &set);
            if let Some(cap) = cap {
                scanner = scanner.with_max_buffer(cap);
            }
            let (mut anchors, mut rules) = (Vec::new(), Vec::new());
            for chunk in chunks {
                scanner.push(chunk, &mut anchors, &mut rules);
            }
            rules.sort_unstable();
            rules
        };
        for cut in 0..=payload.len() {
            let halves = [&payload[..cut], &payload[cut..]];
            prop_assert_eq!(&stream(None, &halves), &expected, "cut at {}", cut);
            prop_assert_eq!(&stream(Some(cap), &halves), &capped, "cap {}, cut at {}", cap, cut);
        }
        let bytes: Vec<&[u8]> = payload.chunks(1).collect();
        prop_assert_eq!(&stream(None, &bytes), &expected, "1-byte chunks");
        prop_assert_eq!(&stream(Some(cap), &bytes), &capped, "cap {}, 1-byte chunks", cap);
    }
}
