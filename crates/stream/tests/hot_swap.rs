//! Hot-swap differential suite: scan a spliced traffic trace while swapping
//! rulesets mid-stream and assert every flow is confirmed against **exactly
//! one** epoch's ruleset — flows minted before the swap keep scanning under
//! the old ruleset until they close (graceful drain, no torn reads), flows
//! minted after see only the new one, and the outcome is deterministic
//! across 1/2/4 workers.
//!
//! The two epochs use disjoint rules ("alpha" vs "bravo") and every flow
//! receives the identical byte stream containing both, so the reported
//! [`mpm_stream::FlowRuleMatch::end`] offset alone identifies which epoch
//! confirmed the flow: `end == 7` ⇒ epoch A, `end == 16` ⇒ epoch B. A torn
//! read (a flow scanned partly under each ruleset) would surface as a flow
//! with both ends, or with the wrong one for its mint time.
//!
//! The grouped test swaps whole port-group engine sets built from rule text:
//! the two epochs give "alpha" and "bravo" to opposite services, so the rule
//! id and the offset a flow confirms at together name the epoch.
//!
//! The last test swaps a *plain* engine while small packets of old and new
//! flows wait in one backed-up ring, where the worker scans runs of flows in
//! one engine call: a run belongs to one engine, so an old flow's packet
//! must not be staged into it.

mod common;

use common::{worker_counts, Gated, HOLD_FLOW};
use mpm_patterns::rule::{Rule, RuleContent, RuleSet};
use mpm_patterns::snort::{parse_grouped, ParseOptions};
use mpm_patterns::{FlowTuple, GroupedRuleSet, NaiveMatcher, PatternSet, Proto};
use mpm_stream::{
    FlowRuleMatch, GroupedEngineSet, Packet, PipelineScanner, ScannerBuilder, SharedMatcher,
};
use std::sync::Arc;

fn single_rule_set(needle: [u8; 5]) -> RuleSet {
    RuleSet::new(vec![Rule::new(vec![RuleContent::new(needle)])])
}

/// Every flow gets the same spliced stream: "--alpha--" then "--bravo--".
/// Epoch A's ruleset can only confirm at prefix 7; epoch B's only at 16.
const PACKET_A: &[u8] = b"--alpha--";
const PACKET_B: &[u8] = b"--bravo--";
const END_ALPHA: usize = 7;
const END_BRAVO: usize = 16;

fn build(workers: usize) -> (PipelineScanner, SharedMatcher, RuleSet) {
    let set_a = single_rule_set(*b"alpha");
    let set_b = single_rule_set(*b"bravo");
    let engine_a: SharedMatcher = Arc::new(NaiveMatcher::new(set_a.anchors()));
    let engine_b: SharedMatcher = Arc::new(NaiveMatcher::new(set_b.anchors()));
    let pipeline = ScannerBuilder::new()
        .rules(engine_a, &set_a)
        .workers(workers)
        .build()
        .expect("valid build");
    (pipeline, engine_b, set_b)
}

/// Runs the spliced scenario and returns the confirmed rule matches plus
/// the post-swap old-epoch flow count.
fn run_spliced(workers: usize, old_flows: u64, new_flows: u64) -> (Vec<FlowRuleMatch>, usize) {
    let (mut pipeline, engine_b, set_b) = build(workers);
    assert_eq!(pipeline.epoch(), 0);

    // Mint `old_flows` flows under epoch A with the first splice.
    for f in 0..old_flows {
        pipeline.dispatch(Packet::new(f, PACKET_A.to_vec()));
    }
    // Swap rulesets mid-stream. The marker rides the same FIFO job rings
    // as the packets, so "before"/"after" is exact per flow.
    assert_eq!(pipeline.swap_rules(engine_b, &set_b), 1);
    // Old flows continue their stream past the swap; new flows are minted
    // after it and must see only epoch B.
    for f in 0..old_flows {
        pipeline.dispatch(Packet::new(f, PACKET_B.to_vec()));
    }
    for f in old_flows..old_flows + new_flows {
        pipeline.dispatch(Packet::new(f, PACKET_A.to_vec()));
        pipeline.dispatch(Packet::new(f, PACKET_B.to_vec()));
    }
    let stats = pipeline.drain().expect("workers alive");
    assert_eq!(stats.epoch, 1);
    let old_epoch_flows = stats.old_epoch_flows;

    // Graceful drain: closing the pre-swap flows retires the last
    // old-epoch scanners.
    for f in 0..old_flows {
        pipeline.close_flow(f);
    }
    let after_close = pipeline.drain().expect("workers alive");
    assert_eq!(after_close.old_epoch_flows, 0, "old epoch fully drained");
    assert_eq!(after_close.resident_flows, new_flows as usize);

    (stats.rule_matches, old_epoch_flows)
}

#[test]
fn each_flow_confirms_against_exactly_one_epoch() {
    for workers in worker_counts(&[1, 2, 4]) {
        let (matches, old_epoch_flows) = run_spliced(workers, 12, 12);
        assert_eq!(
            old_epoch_flows, 12,
            "{workers} workers: every pre-swap flow still on epoch A"
        );
        assert_eq!(matches.len(), 24, "{workers} workers: one rule per flow");
        for m in &matches {
            let minted_pre_swap = m.flow < 12;
            let expected_end = if minted_pre_swap {
                END_ALPHA
            } else {
                END_BRAVO
            };
            assert_eq!(
                m.end, expected_end,
                "{workers} workers: flow {} confirmed by the wrong epoch",
                m.flow
            );
        }
        // Exactly one confirmation per flow — a torn read would double up.
        let mut flows: Vec<u64> = matches.iter().map(|m| m.flow).collect();
        flows.sort_unstable();
        flows.dedup();
        assert_eq!(flows.len(), 24);
    }
}

#[test]
fn swap_outcome_is_identical_across_worker_counts() {
    let (reference, _) = run_spliced(1, 9, 7);
    for workers in worker_counts(&[2, 4]) {
        let (matches, _) = run_spliced(workers, 9, 7);
        assert_eq!(
            matches, reference,
            "{workers} workers diverge from the single-worker reference"
        );
    }
}

#[test]
fn swapped_in_ruleset_governs_flows_that_outlive_several_epochs() {
    // Three epochs: alpha → bravo → alpha again. A flow minted in each
    // epoch keeps its mint-time ruleset for its whole life, so the epoch-0
    // and epoch-2 flows confirm "alpha" and the epoch-1 flow "bravo" —
    // even though all three receive both needles.
    let set_a = single_rule_set(*b"alpha");
    let set_b = single_rule_set(*b"bravo");
    let engine_a: SharedMatcher = Arc::new(NaiveMatcher::new(set_a.anchors()));
    let engine_b: SharedMatcher = Arc::new(NaiveMatcher::new(set_b.anchors()));
    let mut pipeline = ScannerBuilder::new()
        .rules(engine_a.clone(), &set_a)
        .workers(2)
        .build()
        .expect("valid build");
    let feed = |p: &mut PipelineScanner, flow: u64| {
        p.dispatch(Packet::new(flow, PACKET_A.to_vec()));
        p.dispatch(Packet::new(flow, PACKET_B.to_vec()));
    };
    feed(&mut pipeline, 0);
    assert_eq!(pipeline.swap_rules(engine_b, &set_b), 1);
    feed(&mut pipeline, 1);
    assert_eq!(pipeline.swap_rules(engine_a, &set_a), 2);
    feed(&mut pipeline, 2);
    let mut matches = pipeline.drain().expect("workers alive").rule_matches;
    matches.sort_by_key(|m| m.flow);
    let ends: Vec<(u64, usize)> = matches.iter().map(|m| (m.flow, m.end)).collect();
    assert_eq!(ends, vec![(0, END_ALPHA), (1, END_BRAVO), (2, END_ALPHA)]);
}

/// Epoch A of the grouped swap: "alpha" is a web rule, "bravo" a mail rule.
const GROUPS_A: &str = r#"
alert tcp any any -> any 80 (msg:"web alpha"; content:"alpha"; sid:1;)
alert tcp any any -> any 25 (msg:"mail bravo"; content:"bravo"; sid:2;)
"#;

/// Epoch B gives each needle to the other service.
const GROUPS_B: &str = r#"
alert tcp any any -> any 25 (msg:"mail alpha"; content:"alpha"; sid:3;)
alert tcp any any -> any 80 (msg:"web bravo"; content:"bravo"; sid:4;)
"#;

fn grouped_engines(text: &str) -> Arc<GroupedEngineSet> {
    let rules = parse_grouped(text, ParseOptions::default()).expect("rules parse");
    Arc::new(GroupedEngineSet::build_with(
        GroupedRuleSet::new(rules),
        |set, arena| Arc::from(mpm_vpatch::build_auto_with_arena(set, arena)),
    ))
}

/// `swap_groups` between two port-grouped rule sets: a flow minted before
/// the swap keeps confirming against the old groups for the packets it
/// receives after it, a flow first seen after the swap confirms against the
/// new ones only — the exact rule ids per flow, at every worker count.
#[test]
fn grouped_swap_confirms_each_flow_against_its_mint_time_groups() {
    // Per epoch; even flows go to port 80 (web), odd ones to port 25 (mail).
    const FLOWS: u64 = 8;
    let packet = |flow: u64, payload: &[u8]| {
        let port = if flow.is_multiple_of(2) { 80 } else { 25 };
        let tuple = FlowTuple::new(Proto::Tcp, 40_000 + flow as u16, port);
        Packet::new_with_tuple(flow, payload.to_vec(), tuple)
    };
    // Epoch A's rule 0 is web "alpha" and rule 1 mail "bravo"; epoch B's
    // rule 0 is mail "alpha" and rule 1 web "bravo".
    let expected: Vec<(u64, u32, usize)> = (0..2 * FLOWS)
        .map(|f| match (f < FLOWS, f.is_multiple_of(2)) {
            (true, true) => (f, 0, END_ALPHA),
            (true, false) => (f, 1, END_BRAVO),
            (false, true) => (f, 1, END_BRAVO),
            (false, false) => (f, 0, END_ALPHA),
        })
        .collect();
    for workers in worker_counts(&[1, 2, 4]) {
        let mut pipeline = ScannerBuilder::new()
            .groups(grouped_engines(GROUPS_A))
            .workers(workers)
            .build()
            .expect("valid build");
        for f in 0..FLOWS {
            pipeline.dispatch(packet(f, PACKET_A));
        }
        assert_eq!(pipeline.swap_groups(grouped_engines(GROUPS_B)), 1);
        for f in 0..FLOWS {
            pipeline.dispatch(packet(f, PACKET_B));
        }
        for f in FLOWS..2 * FLOWS {
            pipeline.dispatch(packet(f, PACKET_A));
            pipeline.dispatch(packet(f, PACKET_B));
        }
        let stats = pipeline.drain().expect("workers alive");
        assert_eq!(stats.epoch, 1);
        assert_eq!(
            stats.old_epoch_flows, FLOWS as usize,
            "{workers} workers: every pre-swap flow still on epoch A"
        );
        let mut got: Vec<(u64, u32, usize)> = stats
            .rule_matches
            .iter()
            .map(|m| (m.flow, m.rule.0, m.end))
            .collect();
        got.sort_unstable();
        assert_eq!(got, expected, "{workers} workers");
    }
}

/// Old-epoch and new-epoch flows interleaved in one backlog, behind the swap
/// marker: the old flows finish under the engine they were minted with, one
/// packet at a time; the new flows are scanned as runs of the new engine —
/// which is handed the new flows' bytes and not one byte more.
#[test]
fn an_old_epoch_flow_in_the_backlog_never_joins_a_run_of_the_new_engine() {
    const FLOWS: u64 = 6;
    let set_a = PatternSet::from_literals(&["alpha"]);
    let set_b = PatternSet::from_literals(&["bravo"]);
    let engine_a = Gated::open(Arc::from(mpm_vpatch::build_auto(&set_a)));
    let engine_b = Gated::open(Arc::from(mpm_vpatch::build_auto(&set_b)));
    let mut pipeline = ScannerBuilder::new()
        .engine(engine_a.clone(), &set_a)
        .workers(1)
        .ring_capacity(64)
        .build()
        .expect("valid build");
    let hold = engine_a.arm();
    hold.hold(&mut pipeline);
    for f in 0..FLOWS {
        pipeline.dispatch(Packet::new(f, PACKET_A.to_vec()));
    }
    assert_eq!(pipeline.swap_engine(engine_b.clone(), &set_b), 1);
    let whole = [PACKET_A, PACKET_B].concat();
    for f in 0..FLOWS {
        pipeline.dispatch(Packet::new(f, PACKET_B.to_vec()));
        pipeline.dispatch(Packet::new(100 + f, whole.clone()));
    }
    hold.release();
    let stats = pipeline.drain().expect("workers alive");
    assert_eq!(
        stats.old_epoch_flows as u64,
        FLOWS + 1,
        "the old flows and the hold"
    );
    // Both sets name their one pattern 0; the offset tells them apart.
    let got: Vec<(u64, usize)> = stats
        .matches
        .iter()
        .filter(|m| m.flow != HOLD_FLOW)
        .map(|m| (m.flow, m.event.start))
        .collect();
    let expected: Vec<(u64, usize)> = (0..FLOWS)
        .map(|f| (f, END_ALPHA - 5))
        .chain((0..FLOWS).map(|f| (100 + f, END_BRAVO - 5)))
        .collect();
    assert_eq!(got, expected);
    assert_eq!(
        engine_b.handed.load(std::sync::atomic::Ordering::Relaxed),
        FLOWS as usize * whole.len(),
        "the new engine saw bytes of a flow that is not its own"
    );
}
