//! Sharding must not change results: the same packet batch scanned by a
//! pipeline of 1 worker and of N workers yields an identical merged match
//! set and identical summed (deterministic) statistics, in every mode, and
//! the merged set equals the naive per-flow scan of the flows' streams.

mod common;

use common::{naive_per_flow, worker_counts, Mode, Step};
use mpm_patterns::group::GroupedRuleSet;
use mpm_patterns::ports::{FlowTuple, Proto};
use mpm_patterns::rule::{Rule, RuleContent, RuleSet};
use mpm_patterns::snort::{parse_grouped, ParseOptions};
use mpm_patterns::{NaiveMatcher, PatternSet};
use mpm_stream::{FlowMatch, GroupedEngineSet, Packet, ScannerBuilder, SharedMatcher};
use mpm_traffic::{TraceGenerator, TraceKind, TraceSpec};
use mpm_vpatch::build_auto;
use std::sync::Arc;

/// A deterministic, realistic packet batch: one ISCX-like trace (with
/// injected rule occurrences) cut into variable-size packets striped over
/// `flows` flows.
fn packet_batch(rules: &PatternSet, bytes: usize, flows: u64) -> Vec<Packet> {
    let trace = TraceGenerator::generate(&TraceSpec::new(TraceKind::IscxDay2, bytes), Some(rules));
    let mut packets = Vec::new();
    let mut pos = 0;
    let mut n = 0u64;
    // Vary packet sizes so cuts land inside patterns; keep them deterministic.
    let sizes = [301, 17, 997, 64, 1460, 5, 233];
    while pos < trace.len() {
        let take = sizes[(n as usize) % sizes.len()].min(trace.len() - pos);
        packets.push(Packet::new(n % flows, trace[pos..pos + take].to_vec()));
        pos += take;
        n += 1;
    }
    packets
}

#[test]
fn one_worker_and_n_workers_agree() {
    let rules = PatternSet::from_literals(&[
        "GET /",
        "passwd",
        "cmd.exe",
        "needle",
        "ab",
        "User-Agent",
        "aaaa",
    ]);
    let engine: SharedMatcher = Arc::from(build_auto(&rules));
    let packets = packet_batch(&rules, 256 * 1024, 13);
    let total_bytes: u64 = packets.iter().map(|p| p.payload.len() as u64).sum();

    let mut baseline: Option<Vec<FlowMatch>> = None;
    for workers in worker_counts(&[1, 2, 4, 7]) {
        let mut pipeline = ScannerBuilder::new()
            .engine(engine.clone(), &rules)
            .workers(workers)
            .build()
            .expect("valid build");
        let result = pipeline.scan_batch(packets.clone()).expect("workers alive");
        assert_eq!(
            result.stats.bytes_scanned, total_bytes,
            "{workers} workers: every payload byte scanned exactly once"
        );
        assert_eq!(
            result.stats.matches,
            result.matches.len() as u64,
            "{workers} workers: stats.matches consistent with the match set"
        );
        assert_eq!(result.latency.count, packets.len() as u64);
        match &baseline {
            None => baseline = Some(result.matches),
            Some(expected) => assert_eq!(
                &result.matches, expected,
                "{workers} workers changed the merged match set"
            ),
        }
    }

    // The merged set is also exactly what one-shot per-flow scans report
    // (no cap, so no flow is cut and the worker mapping is moot).
    let script = packets.into_iter().map(Step::Packet);
    let expected = naive_per_flow(script, |_| 0, None, Mode::Plain(&rules));
    assert_eq!(baseline.unwrap(), expected.matches);
}

#[test]
fn repeated_batches_are_deterministic_and_stateful() {
    let rules = PatternSet::from_literals(&["splitme", "GET /"]);
    let engine: SharedMatcher = Arc::from(build_auto(&rules));
    // Two batches; "splitme" is cut across the batch boundary within flow 3.
    let first = vec![
        Packet::new(3, b"...spli".to_vec()),
        Packet::new(4, b"GET /index".to_vec()),
    ];
    let second = vec![Packet::new(3, b"tme...".to_vec())];

    for workers in worker_counts(&[1, 4]) {
        let mut scanner = ScannerBuilder::new()
            .engine(engine.clone(), &rules)
            .workers(workers)
            .build()
            .expect("valid build");
        let a = scanner.scan_batch(first.clone()).expect("workers alive");
        assert_eq!(a.matches.len(), 1, "{workers} workers");
        assert_eq!(a.matches[0].flow, 4);
        let b = scanner.scan_batch(second.clone()).expect("workers alive");
        assert_eq!(b.matches.len(), 1, "{workers} workers");
        assert_eq!(b.matches[0].flow, 3);
        assert_eq!(b.matches[0].event.start, 3);
        assert_eq!(engine.max_pattern_len(), 7);
    }
}

#[test]
fn rule_mode_determinism_across_worker_counts() {
    let set = RuleSet::new(vec![Rule::new(vec![
        RuleContent::new(*b"attack"),
        RuleContent::new(*b"body").with_distance(0),
    ])]);
    let packets: Vec<Packet> = (0..20u64)
        .map(|f| Packet::new(f, format!("attack {f} body").into_bytes()))
        .collect();
    let run = |workers: usize| {
        let mut scanner = ScannerBuilder::new()
            .rules(Arc::new(NaiveMatcher::new(set.anchors())), &set)
            .workers(workers)
            .build()
            .expect("valid build");
        scanner.scan_batch(packets.clone()).expect("workers alive")
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one.rule_matches, four.rule_matches);
    assert_eq!(one.matches, four.matches);
    assert_eq!(one.rule_matches.len(), 20);
}

#[test]
fn grouped_mode_determinism_across_worker_counts() {
    let text = r#"
alert tcp any any -> any 80 (msg:"web"; content:"GET /admin"; sid:1;)
alert udp any any -> any 53 (msg:"dns"; content:"querydata"; sid:2;)
alert ip any any -> any any (msg:"any"; content:"evil-bytes"; sid:3;)
"#;
    let grouped = GroupedRuleSet::new(parse_grouped(text, ParseOptions::default()).unwrap());
    let engines = Arc::new(GroupedEngineSet::build_with(grouped, |set, _| {
        Arc::from(NaiveMatcher::new(set))
    }));
    let packets: Vec<Packet> = (0..24u64)
        .map(|f| {
            let tuple = if f % 2 == 0 {
                FlowTuple::new(Proto::Tcp, 40000 + f as u16, 80)
            } else {
                FlowTuple::new(Proto::Udp, 1000 + f as u16, 53)
            };
            Packet::new_with_tuple(f, b"GET /admin querydata evil-bytes".to_vec(), tuple)
        })
        .collect();
    let run = |workers: usize| {
        let mut scanner = ScannerBuilder::new()
            .groups(engines.clone())
            .workers(workers)
            .build()
            .expect("valid build");
        scanner.scan_batch(packets.clone()).expect("workers alive")
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one.rule_matches, four.rule_matches);
    // Every flow fires its protocol's rule plus the ip-any rule.
    assert_eq!(one.rule_matches.len(), 48);
}
