//! A miniature network-intrusion-detection pipeline on the **continuously
//! running streaming path**: a synthetic ruleset is matched against HTTP
//! traffic that arrives as per-flow packets, dispatched into per-worker
//! lock-free rings — the way a production NIDS actually deploys the
//! paper's engines.
//!
//! Demonstrates: synthetic rulesets, protocol-group selection, trace
//! generation, `ScannerBuilder` → `PipelineScanner` (flow-affine dispatch
//! with per-flow `StreamScanner` state, so no match is lost at a packet
//! boundary), per-packet latency percentiles and per-worker utilization
//! from `PipelineStats`, backend pinning via `MPM_FORCE_BACKEND`, and —
//! stage two — **multi-content rule confirmation**: Snort rules whose
//! several `content:`s are tied together by `offset`/`depth`/`distance`/
//! `within` are confirmed per flow even when the contents arrive in
//! different packets.
//!
//! ```text
//! cargo run --release --example nids_pipeline
//! MPM_FORCE_BACKEND=scalar cargo run --release --example nids_pipeline
//! ```

use std::sync::Arc;
use vpatch_suite::prelude::*;

/// True when the examples smoke test asks for a quickly-finishing run
/// (`VPATCH_EXAMPLE_FAST=1`); sizes below scale down accordingly.
fn fast_mode() -> bool {
    std::env::var_os("VPATCH_EXAMPLE_FAST").is_some()
}

/// Ethernet-MSS-sized reassembly chunks.
const PACKET_LEN: usize = 1460;
/// Concurrent flows the traffic is spread over.
const FLOWS: u64 = 32;
/// Worker threads draining the flows.
const WORKERS: usize = 4;

fn main() {
    // Build the Snort-like S1 ruleset and keep the HTTP-relevant patterns,
    // as the paper does when pairing HTTP traffic with HTTP rules.
    let ruleset = SyntheticRuleset::snort_like_s1();
    let rules = ruleset.http();
    println!(
        "ruleset: {} patterns total, {} HTTP-relevant, {} short (1-3 bytes)",
        ruleset.full().len(),
        rules.len(),
        rules.summary().short_count
    );

    // Generate ISCX-like HTTP traffic containing rule occurrences, and cut
    // it into per-flow packet streams (flow = contiguous slice of the trace).
    // Each flow is an independent byte stream: an injected occurrence that
    // happens to straddle a flow-slice boundary belongs to neither flow and
    // is correctly not reported — within a flow, packet boundaries lose
    // nothing (that is the StreamScanner live-suffix invariant).
    let trace_len = if fast_mode() {
        512 * 1024
    } else {
        16 * 1024 * 1024
    };
    let trace = TraceGenerator::generate(
        &TraceSpec::new(TraceKind::IscxDay2, trace_len),
        Some(&rules),
    );
    let flow_len = trace.len().div_ceil(FLOWS as usize);
    let packets: Vec<Packet> = trace
        .chunks(flow_len)
        .enumerate()
        .flat_map(|(flow, stream)| {
            stream
                .chunks(PACKET_LEN)
                .map(move |p| Packet::new(flow as u64, p.to_vec()))
        })
        .collect();

    // Compile the engine once (AVX-512 ≻ AVX2 ≻ scalar, or whatever
    // MPM_FORCE_BACKEND pins) and share it across the workers.
    let engine: SharedMatcher = Arc::from(build_auto(&rules));
    println!(
        "engine: {} (backend: {}), max pattern {} bytes, {} workers x {} flows",
        engine.name(),
        detect_best(),
        engine.max_pattern_len(),
        WORKERS,
        FLOWS
    );

    let packet_count = packets.len();
    let mut scanner = ScannerBuilder::new()
        .engine(engine, &rules)
        .workers(WORKERS)
        .max_flows(64 * 1024)
        .build()
        .expect("valid configuration");
    let start = std::time::Instant::now();
    for packet in packets {
        scanner.dispatch(packet);
    }
    let result = scanner.drain().expect("workers alive");
    let elapsed = start.elapsed();

    let gbps = (result.stats.bytes_scanned as f64 * 8.0) / elapsed.as_secs_f64() / 1e9;
    println!(
        "scanned {} MiB in {} packet(s) across {} flows: {} alerts, {:.2} Gbps aggregate",
        result.stats.bytes_scanned / (1024 * 1024),
        packet_count,
        FLOWS,
        result.matches.len(),
        gbps
    );
    // The pipeline's latency SLO view: queueing + scan time per packet,
    // merged across workers, plus how busy each worker actually was.
    println!(
        "latency: p50 {:.1} us, p99 {:.1} us, p99.9 {:.1} us, max {:.1} us",
        result.latency.p50_ns as f64 / 1e3,
        result.latency.p99_ns as f64 / 1e3,
        result.latency.p999_ns as f64 / 1e3,
        result.latency.max_ns as f64 / 1e3,
    );
    for w in &result.workers {
        println!(
            "  worker {}: {:>6} packets, {:>4.1}% busy, ring high-water {}/{}",
            w.worker,
            w.packets,
            w.utilization() * 100.0,
            w.max_ring_occupancy,
            w.ring_capacity
        );
    }

    // Show the first few alerts with flow context (matches arrive merged and
    // sorted by (flow, offset, pattern) — deterministic for any worker count).
    for alert in result.matches.iter().take(5) {
        let pattern = rules.get(alert.event.pattern);
        println!(
            "  alert flow {:>2} @ {:>9}: {}",
            alert.flow, alert.event.start, pattern
        );
    }

    rule_confirmation_stage();
}

/// Stage two: multi-content Snort rules with positional constraints on the
/// same sharded streaming surface. The engines search only each rule's
/// *anchor* content; an anchor hit triggers confirmation of the remaining
/// contents and windows over the flow's payload.
fn rule_confirmation_stage() {
    use vpatch_suite::patterns::snort::{parse_ruleset, ParseOptions};

    let text = r#"
alert tcp any any -> any 80 (msg:"traversal"; content:"GET "; content:"/etc/passwd"; distance:0; within:40; sid:1;)
alert tcp any any -> any 80 (msg:"shellshock UA"; content:"User-Agent:"; content:"() {"; distance:0; sid:2;)
alert tcp any any -> any 80 (msg:"upload probe"; content:"POST"; offset:0; depth:4; content:"upload"; nocase; sid:3;)
"#;
    let set = parse_ruleset(text, ParseOptions::default()).expect("rules parse");
    println!(
        "\nrule confirmation: {} multi-content rules, anchors: {}",
        set.len(),
        set.iter()
            .map(|(_, r)| format!("{:?}", String::from_utf8_lossy(r.anchor().bytes())))
            .collect::<Vec<_>>()
            .join(", ")
    );

    let engine: SharedMatcher = Arc::from(build_auto(set.anchors()));
    let mut scanner = ScannerBuilder::new()
        .rules(engine, &set)
        .workers(2)
        .build()
        .expect("valid configuration");
    // Flow 1 carries a traversal whose second content arrives two packets
    // after the anchor; flow 2 carries an upload probe with a case-varied
    // secondary; flow 3 has the anchor but violates the window.
    let result = scanner
        .scan_batch(vec![
            Packet::new(1, b"GET /cgi".to_vec()),
            Packet::new(2, b"POST /form UP".to_vec()),
            Packet::new(1, b"-bin/../".to_vec()),
            Packet::new(3, b"GET /x ".to_vec()),
            Packet::new(1, b"/etc/passwd HTTP/1.1".to_vec()),
            Packet::new(2, b"LOAD=1".to_vec()),
            Packet::new(3, "y".repeat(60).into_bytes()),
            Packet::new(3, b"/etc/passwd".to_vec()),
        ])
        .expect("workers alive");
    for m in &result.rule_matches {
        let rule = set.get(m.rule);
        println!(
            "  confirmed flow {} @ {:>3}: sid {} ({} contents)",
            m.flow,
            m.end,
            rule.sid().unwrap_or(0),
            rule.contents().len()
        );
    }
    assert_eq!(
        result.rule_matches.len(),
        2,
        "flows 1 and 2 confirm; flow 3's within-window is violated"
    );
}
