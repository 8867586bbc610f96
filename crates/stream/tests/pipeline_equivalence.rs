//! The pipeline's core contract: for the same packets, the
//! continuously-running `PipelineScanner` reports **byte-identical** sorted
//! match sets to the inline `BarrierScanner`, in every mode
//! (plain / rules / grouped), at every worker count, under backpressure
//! (rings far smaller than the batch) and under flow eviction — while also
//! producing the latency and utilization telemetry the barrier scanner
//! cannot. The last test backs the ring up with small packets, which the
//! worker then scans as **runs** (several flows, one engine call), and
//! replays the same script on the barrier scanner, which pushes one packet
//! at a time.

mod common;

use common::{Gated, HOLD_FLOW};
use mpm_patterns::group::GroupedRuleSet;
use mpm_patterns::ports::{FlowTuple, Proto};
use mpm_patterns::rule::{Rule, RuleContent, RuleSet};
use mpm_patterns::snort::{parse_grouped, ParseOptions};
use mpm_patterns::{NaiveMatcher, PatternSet, ProtocolGroup};
use mpm_stream::{BackpressurePolicy, GroupedEngineSet, Packet, ScannerBuilder, SharedMatcher};
use mpm_traffic::{TraceGenerator, TraceKind, TraceSpec};
use mpm_vpatch::build_auto;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn worker_counts(default: &[usize]) -> Vec<usize> {
    match std::env::var("MPM_WORKERS") {
        Ok(v) => vec![v.parse().expect("MPM_WORKERS must be a positive integer")],
        Err(_) => default.to_vec(),
    }
}

/// A deterministic trace cut into packets striped over `flows` flows, with
/// tuples attached so grouped mode selects per-flow groups.
fn packet_batch(rules: &PatternSet, bytes: usize, flows: u64) -> Vec<Packet> {
    let trace = TraceGenerator::generate(&TraceSpec::new(TraceKind::IscxDay2, bytes), Some(rules));
    let mut packets = Vec::new();
    let (mut pos, mut n) = (0, 0u64);
    let sizes = [301, 17, 997, 64, 1460, 5, 233];
    while pos < trace.len() {
        let take = sizes[(n as usize) % sizes.len()].min(trace.len() - pos);
        let flow = n % flows;
        let tuple = match flow % 3 {
            0 => Some(FlowTuple::new(Proto::Tcp, 40000 + flow as u16, 80)),
            1 => Some(FlowTuple::new(Proto::Udp, 1000 + flow as u16, 53)),
            _ => None,
        };
        packets.push(match tuple {
            Some(t) => Packet::new_with_tuple(flow, trace[pos..pos + take].to_vec(), t),
            None => Packet::new(flow, trace[pos..pos + take].to_vec()),
        });
        pos += take;
        n += 1;
    }
    packets
}

#[test]
fn plain_mode_pipeline_equals_barrier_at_every_worker_count() {
    let rules = PatternSet::from_literals(&["GET /", "passwd", "needle", "ab", "aaaa"]);
    let engine: SharedMatcher = Arc::from(build_auto(&rules));
    let packets = packet_batch(&rules, 128 * 1024, 11);
    for workers in worker_counts(&[1, 2, 4]) {
        let mut barrier = ScannerBuilder::new()
            .engine(engine.clone(), &rules)
            .workers(workers)
            .build_barrier()
            .expect("valid build");
        let expected = barrier.scan_batch(packets.clone());
        let mut pipeline = ScannerBuilder::new()
            .engine(engine.clone(), &rules)
            .workers(workers)
            .build()
            .expect("valid build");
        let got = pipeline.scan_batch(packets.clone()).expect("workers alive");
        assert_eq!(got.matches, expected.matches, "{workers} workers");
        assert_eq!(got.stats.bytes_scanned, expected.stats.bytes_scanned);
        assert_eq!(got.stats.matches, expected.stats.matches);
        assert_eq!(got.resident_flows, expected.resident_flows);
        // Telemetry sanity: one latency sample per packet, every packet
        // accounted to exactly one worker, occupancy within the ring.
        assert_eq!(got.latency.count, packets.len() as u64);
        assert!(got.latency.p50_ns <= got.latency.p99_ns);
        assert!(got.latency.p999_ns <= got.latency.max_ns);
        assert_eq!(got.histogram.count(), got.latency.count);
        assert_eq!(got.workers.len(), workers);
        let packets_by_worker: u64 = got.workers.iter().map(|w| w.packets).sum();
        assert_eq!(packets_by_worker, packets.len() as u64);
        for w in &got.workers {
            let u = w.utilization();
            assert!((0.0..=1.0).contains(&u), "utilization {u} out of range");
            assert!(w.max_ring_occupancy <= w.ring_capacity);
            assert_eq!(w.ring_capacity, pipeline.ring_capacity());
        }
    }
}

fn rules_fixture() -> RuleSet {
    RuleSet::new(vec![
        Rule::new(
            ProtocolGroup::Any,
            vec![
                RuleContent::new(*b"attack"),
                RuleContent::new(*b"body").with_distance(0),
            ],
        ),
        Rule::new(ProtocolGroup::Any, vec![RuleContent::new(*b"passwd")]),
    ])
}

#[test]
fn rule_mode_pipeline_equals_barrier() {
    let set = rules_fixture();
    let engine: SharedMatcher = Arc::new(NaiveMatcher::new(set.anchors()));
    let packets: Vec<Packet> = (0..40u64)
        .flat_map(|f| {
            vec![
                Packet::new(f, format!("..atta{f}").into_bytes()),
                Packet::new(f, b"attack passwd ".to_vec()),
                Packet::new(f, b"body..".to_vec()),
            ]
        })
        .collect();
    for workers in worker_counts(&[1, 3]) {
        let mut barrier = ScannerBuilder::new()
            .rules(engine.clone(), &set)
            .workers(workers)
            .build_barrier()
            .expect("valid build");
        let expected = barrier.scan_batch(packets.clone());
        let mut pipeline = ScannerBuilder::new()
            .rules(engine.clone(), &set)
            .workers(workers)
            .build()
            .expect("valid build");
        let got = pipeline.scan_batch(packets.clone()).expect("workers alive");
        assert_eq!(got.matches, expected.matches, "{workers} workers");
        assert_eq!(got.rule_matches, expected.rule_matches);
        assert!(!got.rule_matches.is_empty());
    }
}

fn grouped_engines() -> Arc<GroupedEngineSet> {
    let text = r#"
alert tcp any any -> any 80 (msg:"web"; content:"GET /admin"; sid:1;)
alert udp any any -> any 53 (msg:"dns"; content:"querydata"; sid:2;)
alert ip any any -> any any (msg:"any"; content:"evil-bytes"; sid:3;)
"#;
    let grouped = GroupedRuleSet::new(parse_grouped(text, ParseOptions::default()).unwrap());
    Arc::new(GroupedEngineSet::build_with(grouped, |set, _| {
        Arc::from(NaiveMatcher::new(set))
    }))
}

#[test]
fn grouped_mode_pipeline_equals_barrier() {
    let engines = grouped_engines();
    let packets: Vec<Packet> = (0..30u64)
        .flat_map(|f| {
            let tuple = if f % 2 == 0 {
                FlowTuple::new(Proto::Tcp, 40000 + f as u16, 80)
            } else {
                FlowTuple::new(Proto::Udp, 1000 + f as u16, 53)
            };
            vec![
                Packet::new_with_tuple(f, b"GET /ad".to_vec(), tuple),
                Packet::new(f, b"min querydata evil-bytes".to_vec()),
            ]
        })
        .collect();
    for workers in worker_counts(&[1, 4]) {
        let mut barrier = ScannerBuilder::new()
            .groups(engines.clone())
            .workers(workers)
            .build_barrier()
            .expect("valid build");
        let expected = barrier.scan_batch(packets.clone());
        let mut pipeline = ScannerBuilder::new()
            .groups(engines.clone())
            .workers(workers)
            .build()
            .expect("valid build");
        let got = pipeline.scan_batch(packets.clone()).expect("workers alive");
        assert!(got.matches.is_empty(), "grouped mode reports rules only");
        assert_eq!(got.rule_matches, expected.rule_matches, "{workers} workers");
        assert_eq!(got.stats.matches, expected.stats.matches);
    }
}

#[test]
fn backpressure_on_tiny_rings_loses_nothing() {
    // Rings of 2 slots against a 2000-packet burst: dispatch must engage
    // backpressure (blocking + draining, never dropping or deadlocking) and
    // the result must still be byte-identical to the barrier scan.
    let rules = PatternSet::from_literals(&["needle", "ab"]);
    let engine: SharedMatcher = Arc::from(build_auto(&rules));
    let packets: Vec<Packet> = (0..2000u64)
        .map(|i| Packet::new(i % 17, b"..needle..ab..".to_vec()))
        .collect();
    let mut barrier = ScannerBuilder::new()
        .engine(engine.clone(), &rules)
        .workers(2)
        .build_barrier()
        .expect("valid build");
    let expected = barrier.scan_batch(packets.clone());
    let mut pipeline = ScannerBuilder::new()
        .engine(engine.clone(), &rules)
        .workers(2)
        .ring_capacity(2)
        .build()
        .expect("valid build");
    let got = pipeline.scan_batch(packets.clone()).expect("workers alive");
    assert_eq!(got.matches, expected.matches);
    assert_eq!(got.stats.bytes_scanned, expected.stats.bytes_scanned);
    assert!(
        got.backpressure_waits > 0,
        "2-slot rings under a 2000-packet burst must push back"
    );
}

#[test]
fn shed_drops_whole_packets_counts_them_and_block_drops_none() {
    // 2-slot rings under `Shed`: a full ring drops the packet, `dispatch`
    // says so, and everything else is scanned as if the dropped packets had
    // never been sent. Every packet is the same self-contained payload, so
    // whichever ones a flow loses, what it reports is a prefix of what the
    // barrier reports for the full batch.
    let rules = PatternSet::from_literals(&["needle", "ab"]);
    let inner: SharedMatcher = Arc::from(build_auto(&rules));
    let payload = b"..needle..ab..";
    let packets: Vec<Packet> = (0..3000u64)
        .map(|i| Packet::new(i % 17, payload.to_vec()))
        .collect();
    let build = |engine: SharedMatcher| {
        ScannerBuilder::new()
            .engine(engine, &rules)
            .workers(1)
            .ring_capacity(2)
    };
    let mut barrier = build(inner.clone()).build_barrier().expect("valid build");
    let expected = barrier.scan_batch(packets.clone());

    let engine = Gated::open(inner.clone());
    let mut shedding = build(engine.clone())
        .backpressure(BackpressurePolicy::Shed)
        .build()
        .expect("valid build");
    // With the worker held inside the engine the ring cannot drain: of the
    // first 16 packets at most 2 find a slot, whatever the host does.
    let hold = engine.arm();
    hold.hold(&mut shedding);
    let mut send = |packets: &[Packet]| {
        let sent = packets.iter().filter(|p| shedding.dispatch((*p).clone()));
        sent.count() as u64
    };
    let held = send(&packets[..16]);
    assert!(held <= 2, "{held} packets fit a held 2-slot ring");
    hold.release();
    let accepted = held + send(&packets[16..]);
    let got = shedding.drain().expect("worker alive");
    assert_eq!(got.shed_packets, packets.len() as u64 - accepted);
    assert!(got.shed_packets >= 14);
    // The packet that held the worker is one more byte, and no match.
    assert_eq!(got.stats.bytes_scanned, 1 + accepted * payload.len() as u64);
    assert_eq!(got.latency.count, 1 + accepted);
    assert_eq!(got.matches.len() as u64, 2 * accepted);
    assert!(got
        .matches
        .iter()
        .all(|m| expected.matches.binary_search(m).is_ok()));

    let mut blocking = build(inner).build().expect("valid build");
    for packet in &packets {
        assert!(blocking.dispatch(packet.clone()), "Block never sheds");
    }
    let got = blocking.drain().expect("worker alive");
    assert_eq!(got.shed_packets, 0);
    assert_eq!(got.matches, expected.matches);
    assert_eq!(got.stats.bytes_scanned, expected.stats.bytes_scanned);
}

#[test]
fn a_block_timeout_without_a_representable_deadline_waits_like_block() {
    // `Instant::now() + Duration::MAX` overflows, so "wait as long as it
    // takes, through the timeout path" has no deadline to compute: dispatch
    // must wait like `Block` — on a 2-slot ring it waits often — and shed
    // nothing, not panic the capture thread on its first packet.
    let rules = PatternSet::from_literals(&["needle", "ab"]);
    let engine: SharedMatcher = Arc::from(build_auto(&rules));
    let packets: Vec<Packet> = (0..3000u64)
        .map(|i| Packet::new(i % 17, b"..needle..ab..".to_vec()))
        .collect();
    let build = || {
        ScannerBuilder::new()
            .engine(engine.clone(), &rules)
            .workers(1)
            .ring_capacity(2)
    };
    let expected = build()
        .build_barrier()
        .expect("valid build")
        .scan_batch(packets.clone());
    let mut pipeline = build()
        .backpressure(BackpressurePolicy::BlockTimeout(Duration::MAX))
        .build()
        .expect("valid build");
    for packet in &packets {
        assert!(pipeline.dispatch(packet.clone()), "nothing is shed");
    }
    let got = pipeline.drain().expect("worker alive");
    assert_eq!(got.shed_packets, 0);
    assert_eq!(got.matches, expected.matches);
    assert_eq!(got.stats.bytes_scanned, expected.stats.bytes_scanned);
}

#[test]
fn a_block_timeout_sheds_at_its_deadline_on_a_really_full_ring() {
    // The worker is held inside the engine, so its 2-slot ring (one slot
    // still holding the packet it is scanning) really is full: a dispatch
    // that finds it so waits out its 5 ms and sheds. Released, the worker
    // keeps up and nothing more is shed.
    let rules = PatternSet::from_literals(&["needle", "ab"]);
    let inner: SharedMatcher = Arc::from(build_auto(&rules));
    let packets: Vec<Packet> = (0..64u64)
        .map(|i| Packet::new(i % 17, b"..needle..ab..".to_vec()))
        .collect();
    let build = |engine: SharedMatcher| {
        ScannerBuilder::new()
            .engine(engine, &rules)
            .workers(1)
            .ring_capacity(2)
    };
    let mut barrier = build(inner.clone()).build_barrier().expect("valid build");
    let expected = barrier.scan_batch(packets.clone());
    let patience = Duration::from_millis(5);
    let engine = Gated::open(inner);
    let mut pipeline = build(engine.clone())
        .backpressure(BackpressurePolicy::BlockTimeout(patience))
        .build()
        .expect("valid build");
    let hold = engine.arm();
    hold.hold(&mut pipeline);
    let mut shed = 0;
    for packet in &packets[..4] {
        let started = Instant::now();
        if !pipeline.dispatch(packet.clone()) {
            let waited = started.elapsed();
            assert!(waited >= patience, "shed after {waited:?}");
            assert!(waited < Duration::from_secs(2), "shed after {waited:?}");
            shed += 1;
        }
    }
    assert!(shed >= 2, "at most 2 of 4 packets fit a held 2-slot ring");
    hold.release();
    for packet in &packets[4..] {
        assert!(
            pipeline.dispatch(packet.clone()),
            "a released worker keeps up"
        );
    }
    let got = pipeline.drain().expect("worker alive");
    assert_eq!(got.shed_packets, shed);
    assert_eq!(got.workers[0].shed_packets, shed);
    assert!(got
        .matches
        .iter()
        .all(|m| expected.matches.binary_search(m).is_ok()));
}

#[test]
fn a_one_slot_ring_holds_one_job_and_loses_nothing() {
    // 1 is a power of two, so the builder accepts it: the ring must then
    // hold one job, not silently two, and a burst through it must still
    // equal the barrier.
    let rules = PatternSet::from_literals(&["needle", "ab"]);
    let engine: SharedMatcher = Arc::from(build_auto(&rules));
    let packets: Vec<Packet> = (0..3000u64)
        .map(|i| Packet::new(i % 17, b"..needle..ab..".to_vec()))
        .collect();
    let build = || {
        ScannerBuilder::new()
            .engine(engine.clone(), &rules)
            .workers(1)
            .ring_capacity(1)
    };
    let mut barrier = build().build_barrier().expect("valid build");
    let expected = barrier.scan_batch(packets.clone());
    let mut pipeline = build().build().expect("valid build");
    assert_eq!(pipeline.ring_capacity(), 1);
    let got = pipeline.scan_batch(packets).expect("worker alive");
    assert_eq!(got.matches, expected.matches);
    assert_eq!(got.stats.bytes_scanned, expected.stats.bytes_scanned);
    assert_eq!(got.workers[0].ring_capacity, 1);
    assert!(got.backpressure_waits > 0, "a one-slot ring must push back");
}

#[test]
fn max_flows_lru_eviction_matches_barrier_semantics() {
    let rules = PatternSet::from_literals(&["split"]);
    let engine: SharedMatcher = Arc::from(build_auto(&rules));
    // One worker, two resident flows — the barrier scanner's LRU scenario,
    // replayed on the pipeline (worker(1) keeps dispatch order == scan
    // order, so the eviction sequence is deterministic).
    let build = || {
        ScannerBuilder::new()
            .engine(engine.clone(), &rules)
            .workers(1)
            .max_flows(2)
    };
    let batch1 = || {
        vec![
            Packet::new(1, b"..sp".to_vec()),
            Packet::new(2, b"..sp".to_vec()),
            Packet::new(1, b"spl".to_vec()),
        ]
    };
    let batch2 = || {
        vec![
            Packet::new(3, b"zzz".to_vec()),
            Packet::new(1, b"it!".to_vec()),
            Packet::new(2, b"lit".to_vec()),
        ]
    };
    let mut pipeline = build().build().expect("valid build");
    pipeline.scan_batch(batch1()).expect("workers alive");
    let got = pipeline.scan_batch(batch2()).expect("workers alive");
    let mut barrier = build().build_barrier().expect("valid build");
    barrier.scan_batch(batch1());
    let expected = barrier.scan_batch(batch2());
    assert_eq!(got.matches, expected.matches);
    assert_eq!(got.matches.len(), 1, "only the retained flow straddles");
    assert_eq!(got.matches[0].flow, 1);
    assert!(got.evicted_flows >= 1, "flow 2 was evicted at the cap");
    assert!(got.resident_flows <= 2);
}

#[test]
fn idle_flows_are_swept_and_fresh_flows_are_kept() {
    let rules = PatternSet::from_literals(&["needle"]);
    let engine: SharedMatcher = Arc::from(build_auto(&rules));
    // Evicting side: a 25 ms timeout (room for a descheduled worker between
    // a dispatch and its drain) and a 150 ms quiet period — the next drain
    // must have swept the idle flows.
    let mut fast = ScannerBuilder::new()
        .engine(engine.clone(), &rules)
        .workers(2)
        .idle_after(Duration::from_millis(25))
        .build()
        .expect("valid build");
    for f in 0..10u64 {
        fast.dispatch(Packet::new(f, b"..needle..".to_vec()));
    }
    assert_eq!(fast.drain().expect("workers alive").resident_flows, 10);
    std::thread::sleep(Duration::from_millis(150));
    // A packet on one flow triggers the sweep on its worker; drain flushes
    // (and sweeps) the rest.
    fast.dispatch(Packet::new(0, b"x".to_vec()));
    let after = fast.drain().expect("workers alive");
    assert_eq!(
        after.resident_flows, 1,
        "only the just-touched flow survives the idle sweep"
    );
    assert!(after.evicted_flows >= 9);
    // Non-evicting side: a generous timeout keeps everything resident.
    let mut slow = ScannerBuilder::new()
        .engine(engine.clone(), &rules)
        .workers(2)
        .max_flows(100)
        .idle_after(Duration::from_secs(600))
        .build()
        .expect("valid build");
    for f in 0..10u64 {
        slow.dispatch(Packet::new(f, b"..needle..".to_vec()));
    }
    let kept = slow.drain().expect("workers alive");
    assert_eq!(kept.resident_flows, 10);
    assert_eq!(kept.evicted_flows, 0);
}

#[test]
fn poll_streams_results_without_a_barrier_and_drain_does_not_repeat_them() {
    let rules = PatternSet::from_literals(&["needle"]);
    let engine: SharedMatcher = Arc::from(build_auto(&rules));
    let mut pipeline = ScannerBuilder::new()
        .engine(engine.clone(), &rules)
        .workers(2)
        .build()
        .expect("valid build");
    for f in 0..50u64 {
        pipeline.dispatch(Packet::new(f, b"..needle..".to_vec()));
    }
    // Poll until every match has streamed out — no drain involved.
    let mut streamed = Vec::new();
    while streamed.len() < 50 {
        let (matches, _) = pipeline.poll().expect("workers alive");
        streamed.extend(matches);
        std::thread::yield_now();
    }
    assert_eq!(streamed.len(), 50);
    // Results handed out by poll() are not repeated by drain(), but the
    // interval's stats still cover all 50 packets.
    let stats = pipeline.drain().expect("workers alive");
    assert!(stats.matches.is_empty());
    assert_eq!(stats.stats.matches, 50);
    assert_eq!(stats.latency.count, 50);
}

#[test]
fn zero_idle_timeout_makes_every_packet_a_fresh_stream() {
    // idle_after == ZERO is the degenerate edge of the sweep's `>=`
    // comparison: every resident flow is stale at every sweep, so stream
    // state never survives from one packet to the next.
    let rules = PatternSet::from_literals(&["split"]);
    let engine: SharedMatcher = Arc::from(build_auto(&rules));
    let mut pipeline = ScannerBuilder::new()
        .engine(engine, &rules)
        .workers(1)
        .idle_after(Duration::ZERO)
        .build()
        .expect("valid build");
    pipeline.dispatch(Packet::new(1, b"..spl".to_vec()));
    pipeline.dispatch(Packet::new(1, b"it...".to_vec()));
    pipeline.dispatch(Packet::new(1, b"split".to_vec()));
    let stats = pipeline.drain().expect("workers alive");
    assert_eq!(
        stats.matches.len(),
        1,
        "the straddle is severed; only the single-packet occurrence matches"
    );
    assert_eq!(stats.matches[0].event.start, 0, "fresh stream offsets");
    assert_eq!(stats.resident_flows, 0, "the drain's sweep evicts the rest");
    assert!(stats.evicted_flows >= 2);
}

#[test]
fn lru_eviction_under_backpressure_still_matches_the_barrier() {
    // Eviction churning *while* 2-slot rings push back: the flow cap and
    // the backpressure loop interleave on the hot path, and the result
    // must still be byte-identical to the barrier scanner under the same
    // cap (same per-worker division, same LRU order).
    let rules = PatternSet::from_literals(&["needle"]);
    let engine: SharedMatcher = Arc::from(build_auto(&rules));
    let packets: Vec<Packet> = (0..2000u64)
        .map(|i| {
            let half: &[u8] = if i % 2 == 0 { b"..nee" } else { b"dle.." };
            Packet::new(i % 17, half.to_vec())
        })
        .collect();
    let mut barrier = ScannerBuilder::new()
        .engine(engine.clone(), &rules)
        .workers(2)
        .max_flows(4)
        .build_barrier()
        .expect("valid build");
    let expected = barrier.scan_batch(packets.clone());
    let mut pipeline = ScannerBuilder::new()
        .engine(engine.clone(), &rules)
        .workers(2)
        .ring_capacity(2)
        .max_flows(4)
        .build()
        .expect("valid build");
    let got = pipeline.scan_batch(packets.clone()).expect("workers alive");
    assert_eq!(got.matches, expected.matches);
    assert_eq!(got.stats.bytes_scanned, expected.stats.bytes_scanned);
    assert!(got.backpressure_waits > 0, "2-slot rings must push back");
    assert!(
        got.evicted_flows > 0,
        "17 flows against a cap of 4 must churn"
    );
}

#[test]
fn evicting_a_degraded_flow_releases_its_state() {
    use mpm_patterns::rule::{Rule, RuleContent, RuleSet};
    use mpm_patterns::ProtocolGroup;
    let set = RuleSet::new(vec![Rule::new(
        ProtocolGroup::Any,
        vec![RuleContent::new(*b"pass")],
    )]);
    let engine: SharedMatcher = Arc::new(NaiveMatcher::new(set.anchors()));
    let mut pipeline = ScannerBuilder::new()
        .rules(engine, &set)
        .workers(1)
        .max_flows(1)
        .max_flow_buffer(8)
        .build()
        .expect("valid build");
    // Flow 1 blows through the 8-byte cap and degrades (8 kept, 8
    // truncated, buffer released).
    pipeline.dispatch(Packet::new(1, vec![b'.'; 16]));
    // Flow 2 arrives: the 1-flow cap evicts degraded flow 1.
    pipeline.dispatch(Packet::new(2, b"zz".to_vec()));
    // Flow 1 returns: a *fresh* stream under the cap, which confirms.
    pipeline.dispatch(Packet::new(1, b"..pass..".to_vec()));
    let stats = pipeline.drain().expect("workers alive");
    assert_eq!(stats.evicted_flows, 2, "flow 1 then flow 2 at the cap");
    assert_eq!(stats.resident_flows, 1);
    assert_eq!(stats.truncated_bytes, 8, "only the original over-cap push");
    assert_eq!(
        stats.degraded_flows, 0,
        "the degraded incarnation is gone; the fresh one is healthy"
    );
    assert_eq!(stats.buffered_bytes, 8, "flow 1's fresh 8-byte buffer");
    assert_eq!(stats.rule_matches.len(), 1, "the fresh stream confirms");
    assert_eq!(stats.rule_matches[0].flow, 1);
}

#[test]
fn grouped_mode_counts_a_truncated_byte_once_per_flow() {
    // A tcp:80 flow selects the port-80 group and the `ip any` group; a flow
    // without a tuple selects all three. Every group sees the same 16 bytes
    // under the same 8-byte cap, so each flow truncates 8 bytes, not 8 per
    // group.
    let mut pipeline = ScannerBuilder::new()
        .groups(grouped_engines())
        .workers(1)
        .max_flow_buffer(8)
        .build()
        .expect("valid build");
    let web = FlowTuple::new(Proto::Tcp, 40000, 80);
    pipeline.dispatch(Packet::new_with_tuple(1, vec![b'.'; 16], web));
    pipeline.dispatch(Packet::new(2, vec![b'.'; 16]));
    let stats = pipeline.drain().expect("worker alive");
    assert_eq!(stats.truncated_bytes, 16, "8 bytes past the cap, per flow");
    assert_eq!(stats.degraded_flows, 2);
}

#[test]
fn close_flow_retires_stream_state_in_flight() {
    let rules = PatternSet::from_literals(&["split"]);
    let engine: SharedMatcher = Arc::from(build_auto(&rules));
    let mut pipeline = ScannerBuilder::new()
        .engine(engine, &rules)
        .workers(3)
        .build()
        .expect("valid build");
    pipeline.dispatch(Packet::new(9, b"..spl".to_vec()));
    pipeline.close_flow(9);
    pipeline.dispatch(Packet::new(9, b"it.split".to_vec()));
    let stats = pipeline.drain().expect("workers alive");
    assert_eq!(
        stats.matches.len(),
        1,
        "carry retired, fresh occurrence found"
    );
    assert_eq!(stats.matches[0].event.start, 3);
    assert_eq!(stats.resident_flows, 1);
}

/// 64-byte packets of 40 flows waiting in a backed-up ring — six busy flows
/// that come round every twelfth packet and 34 quiet ones — with everything
/// that ends a run written into the backlog: the same flow twice in a row
/// (and again a few packets on), a `close_flow` between two packets of the
/// flows a run is made of — the closed flow's next packet is already waiting
/// behind it and must start a fresh stream — and, on the second pass,
/// `max_flows` at the cap, so that a quiet flow's mint evicts the least
/// recently pushed flow, which the order of the run's own pushes decides,
/// while the busy flows stay resident and keep joining runs.
#[test]
fn a_backed_up_ring_of_small_packets_equals_the_barrier() {
    enum Step<'a> {
        Packet(u64, &'a [u8]),
        Close(u64),
    }
    let rules = PatternSet::from_literals(&["GET /", "passwd", "needle", "ab", "aaaa", "x"]);
    let inner: SharedMatcher = Arc::from(build_auto(&rules));
    let trace = TraceGenerator::generate(
        &TraceSpec::new(TraceKind::IscxDay2, 12 * 1024),
        Some(&rules),
    );
    let mut script = Vec::new();
    for (n, payload) in trace.chunks(64).enumerate() {
        let flow_of = |n: usize| if n.is_multiple_of(2) { n / 2 % 6 } else { 6 + n / 2 % 34 } as u64;
        script.push(Step::Packet(
            flow_of(if n % 13 == 12 { n - 1 } else { n }),
            payload,
        ));
        if n % 29 == 5 {
            // Its next packet is three jobs behind this one.
            script.push(Step::Close(flow_of(n + 3)));
        }
    }
    let hold_packet = || Packet::new(HOLD_FLOW, b".".to_vec());
    for cap in [None, Some(8)] {
        let build = |engine: SharedMatcher| {
            let builder = ScannerBuilder::new()
                .engine(engine, &rules)
                .workers(1)
                .ring_capacity(256);
            match cap {
                Some(cap) => builder.max_flows(cap),
                None => builder,
            }
        };
        // The barrier sees the packet that holds the pipeline's worker too:
        // its flow takes a slot under the cap.
        let mut barrier = build(inner.clone()).build_barrier().expect("valid build");
        let mut expected = barrier.scan_batch([hold_packet()]);
        for step in &script {
            let result = match *step {
                Step::Packet(flow, payload) => {
                    barrier.scan_batch([Packet::new(flow, payload.to_vec())])
                }
                Step::Close(flow) => {
                    barrier.close_flow(flow);
                    continue;
                }
            };
            expected.matches.extend(result.matches);
            expected.stats.merge(&result.stats);
            expected.resident_flows = result.resident_flows;
        }
        expected.matches.sort_unstable();

        let engine = Gated::open(inner.clone());
        let mut pipeline = build(engine.clone()).build().expect("valid build");
        let hold = engine.arm();
        hold.hold(&mut pipeline);
        engine.reset_counts();
        let mut packets = 0;
        for step in &script {
            match *step {
                Step::Packet(flow, payload) => {
                    packets += 1;
                    pipeline.dispatch(Packet::new(flow, payload.to_vec()));
                }
                Step::Close(flow) => pipeline.close_flow(flow),
            }
        }
        hold.release();
        let got = pipeline.drain().expect("worker alive");
        assert_eq!(got.matches, expected.matches, "cap {cap:?}");
        assert_eq!(got.stats.bytes_scanned, expected.stats.bytes_scanned);
        assert_eq!(got.stats.matches, expected.stats.matches);
        assert_eq!(got.resident_flows, expected.resident_flows, "cap {cap:?}");
        assert_eq!(got.latency.count, packets + 1, "one sample per packet");
        // The backlog really went through runs: far fewer engine calls than
        // packets, even with everything above cutting runs short.
        let calls = engine.calls.load(std::sync::atomic::Ordering::Relaxed);
        if cap.is_some() {
            assert!(got.evicted_flows > 32, "{} evictions", got.evicted_flows);
            assert!(calls < packets as usize, "{calls} calls");
        } else {
            assert!(calls * 3 < packets as usize, "{calls} calls");
        }
    }
}
