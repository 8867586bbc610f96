//! Deterministic fault-injection suite for the pipeline's supervision and
//! overload machinery.
//!
//! Every scenario scripts its failure through a [`FaultPlan`] keyed on
//! per-worker packet sequence numbers, so the same fault fires at the same
//! point on every run: worker panics (caught, reported, respawned, flows
//! quarantined), silent worker exits (surfaced as `PipelineError::WorkerLost`
//! instead of a hang), forced ring-full (exact shed accounting), buffer-cap
//! degradation counters, and idle eviction driven by a mock clock instead
//! of wall-time sleeps. One scenario needs no plan: an engine that really
//! panics while the worker is scanning a *run* of waiting packets.

mod common;

use common::{Gated, HOLD_FLOW};
use mpm_patterns::rule::{Rule, RuleContent, RuleSet};
use mpm_patterns::{MatchEvent, Matcher, NaiveMatcher, PatternSet};
use mpm_stream::{
    BackpressurePolicy, FaultPlan, FlowMatch, Packet, PipelineError, ScannerBuilder, SharedMatcher,
};
use mpm_vpatch::build_auto;
use std::sync::Arc;
use std::time::Duration;

fn engine_for(set: &PatternSet) -> SharedMatcher {
    Arc::from(build_auto(set))
}

/// Matches of one flow, sorted the way `drain` reports them.
fn of_flow(matches: &[FlowMatch], flow: u64) -> Vec<FlowMatch> {
    matches.iter().filter(|m| m.flow == flow).cloned().collect()
}

#[test]
fn panicking_worker_is_respawned_and_its_flows_quarantined() {
    let set = PatternSet::from_literals(&["attack"]);
    let engine = engine_for(&set);
    // Per flow: "..att" + "ack.." + "..attack.." — a straddle match at
    // offset 2 (reported while scanning packet 2) and a second match at
    // offset 12 (packet 3).
    let payloads: [&[u8]; 3] = [b"..att", b"ack..", b"..attack.."];

    // Pick flow ids deterministically: the victim is the first flow id on
    // worker 0, plus seven more flows on either worker.
    let probe = ScannerBuilder::new()
        .engine(engine.clone(), &set)
        .workers(2)
        .build()
        .expect("valid build");
    let victim = (0u64..)
        .find(|&f| probe.worker_of(f) == 0)
        .expect("some flow on worker 0");
    let others: Vec<u64> = (0u64..).filter(|&f| f != victim).take(7).collect();
    drop(probe);

    let dispatch_all = |pipeline: &mut mpm_stream::PipelineScanner| {
        // Victim first: worker 0's packets 1..=3 are the victim's, so the
        // injected panic at packet 3 fires with exactly the victim
        // resident — deterministic quarantine.
        for payload in payloads {
            pipeline.dispatch(Packet::new(victim, payload.to_vec()));
        }
        for &flow in &others {
            for payload in payloads {
                pipeline.dispatch(Packet::new(flow, payload.to_vec()));
            }
        }
    };

    // Fault-free baseline.
    let mut clean = ScannerBuilder::new()
        .engine(engine.clone(), &set)
        .workers(2)
        .build()
        .expect("valid build");
    dispatch_all(&mut clean);
    let baseline = clean.drain().expect("workers alive");
    assert_eq!(baseline.matches.len(), 2 * 8, "two matches per flow");

    // Faulted run: worker 0 panics while handling its 3rd packet.
    let plan = Arc::new(FaultPlan::new().panic_on(0, 3));
    let mut faulted = ScannerBuilder::new()
        .engine(engine.clone(), &set)
        .workers(2)
        .fault_plan(plan)
        .build()
        .expect("valid build");
    dispatch_all(&mut faulted);
    let stats = faulted.drain().expect("supervised drain completes");

    assert_eq!(stats.worker_restarts.len(), 1);
    assert_eq!(stats.worker_restarts[0].worker, 0);
    assert!(
        stats.worker_restarts[0].message.contains("fault-inject"),
        "restart carries the panic message: {}",
        stats.worker_restarts[0].message
    );
    assert_eq!(
        stats.flow_errors.len(),
        1,
        "exactly the victim was resident at death"
    );
    assert_eq!(stats.flow_errors[0].flow, victim);
    assert_eq!(stats.flow_errors[0].worker, 0);

    // The victim's straddle match (packet 2) was reported before the
    // death; the packet-3 match died with the worker.
    let victim_matches = of_flow(&stats.matches, victim);
    assert_eq!(victim_matches.len(), 1);
    assert_eq!(victim_matches[0].event.start, 2);
    // Every other flow — including worker-0 flows replayed from the
    // reclaimed ring onto the fresh worker — is byte-identical to the
    // fault-free run.
    for &flow in &others {
        assert_eq!(
            of_flow(&stats.matches, flow),
            of_flow(&baseline.matches, flow),
            "flow {flow} unaffected by the fault"
        );
    }

    // The pipeline stays functional after recovery.
    faulted.dispatch(Packet::new(victim, b"..attack..".to_vec()));
    let after = faulted.drain().expect("workers alive");
    assert_eq!(after.worker_restarts.len(), 0);
    assert_eq!(after.flow_errors.len(), 0);
    assert_eq!(after.matches.len(), 1, "fresh stream for the victim");
    assert_eq!(after.matches[0].event.start, 2);
}

#[test]
fn silently_exiting_worker_is_surfaced_once_then_pipeline_recovers() {
    let set = PatternSet::from_literals(&["needle"]);
    let engine = engine_for(&set);
    let plan = Arc::new(FaultPlan::new().exit_on(0, 2));
    let mut pipeline = ScannerBuilder::new()
        .engine(engine.clone(), &set)
        .workers(1)
        .fault_plan(plan)
        .build()
        .expect("valid build");
    for f in 0..3u64 {
        pipeline.dispatch(Packet::new(f, b"..needle..".to_vec()));
    }
    // One of the next drains reports the vanished worker — exactly once —
    // and the others succeed (recovery happens either at drain entry or
    // inside the drain wait loop, depending on when the exit lands).
    let mut restarts = Vec::new();
    let mut lost = Vec::new();
    for _ in 0..3 {
        match pipeline.drain() {
            Ok(stats) => restarts.extend(stats.worker_restarts),
            Err(err) => lost.push(err),
        }
    }
    assert_eq!(lost, vec![PipelineError::WorkerLost { worker: 0 }]);
    assert_eq!(restarts.len(), 1);
    assert!(
        restarts[0].message.contains("without a report"),
        "silent exits have no panic message: {}",
        restarts[0].message
    );
    // Fully functional afterwards.
    pipeline.dispatch(Packet::new(9, b"..needle..".to_vec()));
    let after = pipeline.drain().expect("workers alive");
    assert_eq!(after.matches.len(), 1);
    assert!(after.worker_restarts.is_empty());
}

#[test]
fn forced_ring_full_sheds_exactly_the_scripted_count() {
    let set = PatternSet::from_literals(&["needle"]);
    let engine = engine_for(&set);
    let plan = Arc::new(FaultPlan::new());
    let mut pipeline = ScannerBuilder::new()
        .engine(engine.clone(), &set)
        .workers(1)
        .backpressure(BackpressurePolicy::Shed)
        .fault_plan(plan.clone())
        .build()
        .expect("valid build");
    plan.force_ring_full(0, 5);
    let payload = b"..needle..".to_vec();
    let accepted = (0..20)
        .filter(|&i| pipeline.dispatch(Packet::new(i, payload.clone())))
        .count();
    assert_eq!(accepted, 15, "exactly the scripted 5 pushes are refused");
    let stats = pipeline.drain().expect("workers alive");
    assert_eq!(stats.shed_packets, 5);
    assert_eq!(stats.workers[0].shed_packets, 5);
    assert_eq!(
        stats.stats.bytes_scanned,
        15 * payload.len() as u64,
        "shed packets are never scanned"
    );
    // The budget is consumed: subsequent dispatches all land.
    assert!(pipeline.dispatch(Packet::new(99, payload.clone())));
    let after = pipeline.drain().expect("workers alive");
    assert_eq!(after.shed_packets, 0);
}

#[test]
fn block_timeout_sheds_after_the_deadline_and_recovers_on_disarm() {
    let set = PatternSet::from_literals(&["needle"]);
    let engine = engine_for(&set);
    let plan = Arc::new(FaultPlan::new());
    let mut pipeline = ScannerBuilder::new()
        .engine(engine.clone(), &set)
        .workers(1)
        .backpressure(BackpressurePolicy::BlockTimeout(Duration::from_millis(2)))
        .fault_plan(plan.clone())
        .build()
        .expect("valid build");
    // Unbounded refusal: every dispatch waits out its deadline, then sheds.
    plan.force_ring_full(0, u64::MAX);
    let payload = b"..needle..".to_vec();
    for i in 0..3u64 {
        assert!(
            !pipeline.dispatch(Packet::new(i, payload.clone())),
            "dispatch {i} must shed after the timeout"
        );
    }
    plan.force_ring_full(0, 0); // disarm
    assert!(pipeline.dispatch(Packet::new(7, payload.clone())));
    let stats = pipeline.drain().expect("workers alive");
    assert_eq!(stats.shed_packets, 3);
    assert!(
        stats.backpressure_waits > 0,
        "the timeout path counts its waits"
    );
    assert_eq!(stats.stats.bytes_scanned, payload.len() as u64);
}

#[test]
fn buffer_capped_flows_degrade_with_exact_counters() {
    // Rule 0: "attack" then "body" at distance 0; rule 1: "passwd".
    let set = RuleSet::new(vec![
        Rule::new(vec![
            RuleContent::new(*b"attack"),
            RuleContent::new(*b"body").with_distance(0),
        ]),
        Rule::new(vec![RuleContent::new(*b"passwd")]),
    ]);
    let engine: SharedMatcher = Arc::new(NaiveMatcher::new(set.anchors()));
    let mut pipeline = ScannerBuilder::new()
        .rules(engine, &set)
        .workers(1)
        .max_flow_buffer(16)
        .build()
        .expect("valid build");
    // Flow 1 stays under the cap (14 buffered bytes) and confirms rule 0.
    pipeline.dispatch(Packet::new(1, b"..attack".to_vec()));
    pipeline.dispatch(Packet::new(1, b"body..".to_vec()));
    // Flow 2 crosses the cap on its first packet (32 > 16: 16 bytes kept,
    // 16 truncated, buffer released) and then ships a "passwd" the flow
    // can no longer confirm — but whose anchor is still reported.
    pipeline.dispatch(Packet::new(2, vec![b'.'; 32]));
    pipeline.dispatch(Packet::new(2, b"..passwd..".to_vec()));
    let stats = pipeline.drain().expect("workers alive");

    assert_eq!(stats.degraded_flows, 1, "only flow 2 degraded");
    assert_eq!(
        stats.truncated_bytes,
        16 + 10,
        "16 over-cap bytes of packet 3 plus all of packet 4"
    );
    assert_eq!(
        stats.buffered_bytes, 14,
        "flow 1's buffer is live, flow 2's was released"
    );
    let rules_confirmed: Vec<usize> = stats.rule_matches.iter().map(|m| m.rule.index()).collect();
    assert_eq!(rules_confirmed, vec![0], "flow 1 confirms, flow 2 cannot");
    assert!(
        stats
            .matches
            .iter()
            .any(|m| m.flow == 2 && m.event.start == 34),
        "flow 2's post-cap anchor is still visible"
    );
    // A degraded flow keeps counting truncation until closed.
    pipeline.dispatch(Packet::new(2, b"xxxx".to_vec()));
    let more = pipeline.drain().expect("workers alive");
    assert_eq!(more.truncated_bytes, 4);
    assert_eq!(
        more.degraded_flows, 1,
        "gauge: still resident, still degraded"
    );
    // Closing the flow releases the degraded state entirely.
    pipeline.close_flow(2);
    let closed = pipeline.drain().expect("workers alive");
    assert_eq!(closed.degraded_flows, 0);
}

#[test]
fn mock_clock_drives_idle_eviction_without_sleeping() {
    let set = PatternSet::from_literals(&["needle"]);
    let engine = engine_for(&set);
    let plan = Arc::new(FaultPlan::new());
    let mut pipeline = ScannerBuilder::new()
        .engine(engine.clone(), &set)
        .workers(1)
        .idle_after(Duration::from_secs(60))
        .fault_plan(plan.clone())
        .build()
        .expect("valid build");
    for f in 0..5u64 {
        pipeline.dispatch(Packet::new(f, b"..needle..".to_vec()));
    }
    let before = pipeline.drain().expect("workers alive");
    assert_eq!(before.resident_flows, 5);
    assert_eq!(before.evicted_flows, 0);
    // Two simulated minutes pass; no wall-clock sleep involved.
    plan.advance_clock(Duration::from_secs(120));
    let after = pipeline.drain().expect("workers alive");
    assert_eq!(after.evicted_flows, 5, "all flows idle past the timeout");
    assert_eq!(after.resident_flows, 0);
}

/// Forwards to an engine — unless the haystack holds `marker`: then it
/// panics, the way a bug in an engine would, in the middle of a scan.
struct PanicsOn {
    inner: SharedMatcher,
    marker: u8,
}

impl PanicsOn {
    fn check(&self, haystack: &[u8]) {
        assert!(
            !haystack.contains(&self.marker),
            "engine bug on the marker byte"
        );
    }
}

impl Matcher for PanicsOn {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn max_pattern_len(&self) -> usize {
        self.inner.max_pattern_len()
    }

    fn find_into(&self, haystack: &[u8], out: &mut Vec<MatchEvent>) {
        self.check(haystack);
        self.inner.find_into(haystack, out);
    }

    fn find_in(
        &self,
        haystack: &[u8],
        starts: std::ops::Range<usize>,
        out: &mut Vec<MatchEvent>,
    ) -> usize {
        self.check(haystack);
        self.inner.find_in(haystack, starts, out)
    }

    fn find_in_segments(
        &self,
        haystack: &[u8],
        ends: &[usize],
        lengths: &[u32],
        out: &mut Vec<MatchEvent>,
        resumes: &mut Vec<usize>,
    ) {
        self.check(haystack);
        self.inner
            .find_in_segments(haystack, ends, lengths, out, resumes);
    }
}

/// A real panic inside a run. Forty small packets of forty flows wait in the
/// ring; the worker stages the first 32 as one run and the engine panics on
/// the marker in the 21st. The run's jobs were only peeked, so all forty are
/// reclaimed: the 32 flows of the run were resident (minted while the run was
/// staged) and are quarantined with their packets, the other eight are
/// replayed on the fresh worker and report as if nothing had happened — and
/// `drain()` returns.
#[test]
fn a_panic_inside_a_run_quarantines_the_run_and_replays_the_rest() {
    const MARKER: u8 = 0xFF;
    let set = PatternSet::from_literals(&["attack"]);
    let engine = Gated::open(Arc::new(PanicsOn {
        inner: engine_for(&set),
        marker: MARKER,
    }));
    let mut pipeline = ScannerBuilder::new()
        .engine(engine.clone(), &set)
        .workers(1)
        .ring_capacity(64)
        .build()
        .expect("valid build");
    let payload = |flow: u64| {
        let mut bytes = b"..attack..".to_vec();
        bytes.resize(64, if flow == 20 { MARKER } else { b'.' });
        bytes
    };
    let hold = engine.arm();
    hold.hold(&mut pipeline);
    for flow in 0..40 {
        pipeline.dispatch(Packet::new(flow, payload(flow)));
    }
    hold.release();
    let stats = pipeline.drain().expect("supervised drain completes");

    assert_eq!(stats.worker_restarts.len(), 1);
    assert!(
        stats.worker_restarts[0].message.contains("marker byte"),
        "restart carries the panic message: {}",
        stats.worker_restarts[0].message
    );
    let mut quarantined: Vec<u64> = stats.flow_errors.iter().map(|e| e.flow).collect();
    quarantined.sort_unstable();
    let mut expected: Vec<u64> = (0..32).collect();
    expected.push(HOLD_FLOW);
    assert_eq!(quarantined, expected, "every flow of the run, and the hold");
    // Nothing of the run was reported, everything behind it was.
    let reported: Vec<(u64, usize)> = stats
        .matches
        .iter()
        .map(|m| (m.flow, m.event.start))
        .collect();
    let replayed: Vec<(u64, usize)> = (32..40).map(|flow| (flow, 2)).collect();
    assert_eq!(reported, replayed);
    assert_eq!(stats.resident_flows, 8);

    // The pipeline stays functional, and a quarantined flow starts afresh.
    pipeline.dispatch(Packet::new(20, b"..attack..".to_vec()));
    let after = pipeline.drain().expect("workers alive");
    assert!(after.worker_restarts.is_empty());
    assert_eq!(of_flow(&after.matches, 20).len(), 1);
    assert_eq!(after.matches[0].event.start, 2);
}
