//! The load: set-up from rule text, the closed and the open loop, and the
//! resident-memory probe, all through the production shape
//! `ScannerBuilder … .workers(1).build()` →
//! `PipelineScanner::{dispatch, poll, close_flow, drain}`.
//!
//! One process, two threads: the thread that runs these functions generates
//! and dispatches, the pipeline's one worker scans. That is `nproc` on the
//! 2-vCPU reference host; more workers than cores would measure the
//! scheduler.
//!
//! This module and `src/bin/e2e.rs` call nothing of the program beyond the
//! list in `README.md` ("API surface"), so they keep compiling across the
//! roadmap's planned deletions and reshapes.

use crate::inputs::{Inputs, Slot};
use crate::reference::{Reference, Tally};
use crate::spans::{Call, Probe, NONE};
use crate::stats::quantile_sorted;
use mpm_patterns::snort::{parse_grouped, parse_rules, ParseOptions};
use mpm_patterns::GroupedRuleSet;
use mpm_stream::{
    FlowMatch, FlowRuleMatch, GroupedEngineSet, Packet, PipelineScanner, ScannerBuilder,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rule text → running pipeline, the way an application would do it.
pub fn build_pipeline(inputs: &Inputs) -> PipelineScanner {
    let options = ParseOptions::default();
    let builder = if inputs.workload.grouped() {
        let rules = parse_grouped(&inputs.rule_text, options).expect("generated rules parse");
        let engines = GroupedEngineSet::build_with(GroupedRuleSet::new(rules), |set, arena| {
            Arc::from(mpm_vpatch::build_auto_with_arena(set, arena))
        });
        ScannerBuilder::new().groups(Arc::new(engines))
    } else {
        let set = parse_rules(&inputs.rule_text, options).expect("generated rules parse");
        ScannerBuilder::new().engine(Arc::from(mpm_vpatch::build_auto(&set)), &set)
    };
    builder.workers(1).build().expect("valid configuration")
}

/// Builds the packet for `slot` (this is the payload copy the ingest API
/// asks for, and it is part of every timed region) and dispatches it.
/// Returns false if the pipeline refused the packet.
#[inline]
pub fn send(pipeline: &mut PipelineScanner, inputs: &Inputs, slot: &Slot, flow_id: u64) -> bool {
    let payload = inputs.packet_bytes(slot);
    let packet = match inputs.tuple(slot.flow as usize) {
        Some(tuple) => Packet::new_with_tuple(flow_id, payload, tuple),
        None => Packet::new(flow_id, payload),
    };
    pipeline.dispatch(packet)
}

/// Set-up time: rule text → first packet scanned. Parses, compiles, spawns
/// the pipeline, dispatches one packet and drains. Tearing the pipeline
/// down again is not part of it.
pub fn time_setup(inputs: &Inputs) -> f64 {
    let started = Instant::now();
    let mut pipeline = build_pipeline(inputs);
    send(&mut pipeline, inputs, &inputs.schedule[0], 0);
    pipeline.drain().expect("worker alive");
    started.elapsed().as_secs_f64()
}

/// A pipeline under load plus the bookkeeping the loops share.
pub struct Driver<'a> {
    pipeline: PipelineScanner,
    inputs: &'a Inputs,
    reference: &'a Reference,
    tally: Tally,
    /// Flow id of flow 0 of the next pass; advanced by flows-per-pass, so
    /// every pass uses fresh ids and `id % flows` recovers the flow.
    next_base: u64,
    /// Packets handed to `dispatch` so far.
    pub attempted: u64,
    /// Packets refused by `dispatch` plus packets of flows whose reported
    /// alert set differed from the reference.
    pub failed: u64,
}

impl<'a> Driver<'a> {
    /// Wraps a freshly built pipeline.
    pub fn new(pipeline: PipelineScanner, inputs: &'a Inputs, reference: &'a Reference) -> Self {
        Driver {
            pipeline,
            inputs,
            reference,
            tally: Tally::new(inputs.workload.flows()),
            next_base: 0,
            attempted: 0,
            failed: 0,
        }
    }

    fn poll_into_tally(&mut self) -> usize {
        let (matches, rules) = self.pipeline.poll().expect("worker alive");
        self.tally.absorb(&matches, &rules);
        matches.len() + rules.len()
    }

    /// Compares the alerts of the last `passes` passes with the reference
    /// and books every packet of a differing flow as failed.
    fn settle(&mut self, passes: u64) {
        let wrong = self.tally.settle(self.reference, passes);
        self.failed += wrong.len() as u64 * self.inputs.workload.packets_per_flow() as u64 * passes;
    }

    /// One closed-loop pass, lossless (`Block` policy): dispatch every
    /// packet of the schedule as fast as the pipeline takes them, close each
    /// flow after its last packet, then `drain()`. Returns the wall time in
    /// ns; the alert check that follows is outside it.
    ///
    /// The pass ends when the worker has scanned its last packet, so its
    /// time is the worker's: a dispatcher the host held up for less than the
    /// job ring lasts costs nothing, anything else on either thread makes
    /// the pass longer, and nothing makes it shorter. Callers therefore
    /// report the **lower quartile** of the times of many passes, which
    /// needs a quarter of them undisturbed.
    pub fn closed_pass<P: Probe>(&mut self, probe: &mut P) -> f64 {
        let inputs = self.inputs;
        let poll_every = inputs.workload.poll_every;
        let base = self.next_base;
        self.next_base += inputs.workload.flows() as u64;
        let started = Instant::now();
        for (i, slot) in inputs.schedule.iter().enumerate() {
            let flow_id = base + u64::from(slot.flow);
            let t = probe.now();
            let accepted = send(&mut self.pipeline, inputs, slot, flow_id);
            probe.record(Call::Dispatch, t, slot.flow, slot.packet);
            self.failed += u64::from(!accepted);
            if slot.last {
                let t = probe.now();
                self.pipeline.close_flow(flow_id);
                probe.record(Call::CloseFlow, t, slot.flow, NONE);
            }
            if (i + 1) % poll_every == 0 {
                let t = probe.now();
                if self.poll_into_tally() > 0 {
                    probe.record(Call::Poll, t, NONE, NONE);
                }
            }
        }
        let t = probe.now();
        let stats = self.pipeline.drain().expect("worker alive");
        probe.record(Call::Drain, t, NONE, NONE);
        self.tally.absorb(&stats.matches, &stats.rule_matches);
        let elapsed = started.elapsed().as_nanos() as f64;
        self.attempted += inputs.schedule.len() as u64;
        self.settle(1);
        elapsed
    }

    /// The open loop: packets are due on a fixed schedule at the workload's
    /// offered rate whether or not the pipeline keeps up. The generator
    /// polls while it waits for the next due time, and times every alert
    /// from the **due time of the packet that completed it** to the poll
    /// that returned it — measured from outside, so it includes whatever a
    /// stalled generator, a full ring or a busy worker added. Runs whole
    /// passes until `duration` has elapsed. It records no spans: a clock
    /// read per poll would sit inside every latency it measures.
    pub fn open_loop(&mut self, duration: Duration) -> OpenLoop {
        let inputs = self.inputs;
        let w = inputs.workload;
        let flows = w.flows() as u64;
        // Gbit/s is bits per ns.
        let ns_per_byte = 8.0 / w.offered_gbps;
        let mut due = Vec::with_capacity(inputs.schedule.len());
        let mut sent_bytes = 0u64;
        for slot in &inputs.schedule {
            due.push((sent_bytes as f64 * ns_per_byte) as u64);
            sent_bytes += u64::from(slot.len);
        }
        let pass_ns = (sent_bytes as f64 * ns_per_byte) as u64;
        // Schedule position of packet `p` of flow `f`, at `f * per_flow + p`.
        let per_flow = w.packets_per_flow();
        let mut position = vec![0u32; inputs.schedule.len()];
        for (i, slot) in inputs.schedule.iter().enumerate() {
            position[slot.flow as usize * per_flow + slot.packet as usize] = i as u32;
        }
        let expected_passes = duration.as_nanos() as u64 / pass_ns + 2;
        let mut samples =
            Vec::with_capacity((self.reference.alerts_per_pass * expected_passes) as usize + 1024);
        let mut out = OpenLoop {
            samples: Vec::new(),
            packets: 0,
            late_packets: 0,
            passes: 0,
            late_passes: 0,
        };
        let first_base = self.next_base;
        let started = Instant::now();
        // Books the alerts a poll (or the final drain) returned at `now`:
        // one sample each, timed from the due time of the packet that
        // delivered the alert's last byte, keyed by what names the alert in
        // every pass (flows are at most 2^20 bytes, ids below 2^20).
        let (tally, reference) = (&mut self.tally, self.reference);
        let mut absorb = |now: u64, matches: &[FlowMatch], rules: &[FlowRuleMatch]| {
            let mut sample = |flow_id: u64, end: usize, id: u32| {
                let since = flow_id - first_base;
                let (pass, flow) = (since / flows, since % flows);
                let packet = (end - 1) / w.packet_len;
                let due_at =
                    pass * pass_ns + due[position[flow as usize * per_flow + packet] as usize];
                samples.push((
                    flow << 42 | (end as u64) << 20 | u64::from(id),
                    u32::try_from(now.saturating_sub(due_at)).unwrap_or(u32::MAX),
                ));
            };
            for a in rules {
                sample(a.flow, a.end, a.rule.0);
            }
            for a in matches {
                sample(a.flow, reference.match_end(a), a.event.pattern.0);
            }
            tally.absorb(matches, rules);
        };
        loop {
            let base = self.next_base;
            self.next_base += flows;
            let pass_start = out.passes * pass_ns;
            let late_before = out.late_packets;
            for (i, slot) in inputs.schedule.iter().enumerate() {
                let due_at = pass_start + due[i];
                loop {
                    let (matches, rules) = self.pipeline.poll().expect("worker alive");
                    let now = started.elapsed().as_nanos() as u64;
                    if !(matches.is_empty() && rules.is_empty()) {
                        absorb(now, &matches, &rules);
                    }
                    if now >= due_at {
                        // Late = sent more than one inter-packet gap after
                        // it was due.
                        let gap = (f64::from(slot.len) * ns_per_byte) as u64;
                        out.late_packets += u64::from(now > due_at + gap);
                        break;
                    }
                    std::hint::spin_loop();
                }
                let flow_id = base + u64::from(slot.flow);
                let accepted = send(&mut self.pipeline, inputs, slot, flow_id);
                self.failed += u64::from(!accepted);
                if slot.last {
                    self.pipeline.close_flow(flow_id);
                }
            }
            out.passes += 1;
            out.packets += inputs.schedule.len() as u64;
            let late_in_pass = (out.late_packets - late_before) as f64;
            out.late_passes +=
                u64::from(late_in_pass > MAX_LATE_SHARE * inputs.schedule.len() as f64);
            if started.elapsed() >= duration {
                break;
            }
        }
        let stats = self.pipeline.drain().expect("worker alive");
        absorb(
            started.elapsed().as_nanos() as u64,
            &stats.matches,
            &stats.rule_matches,
        );
        out.samples = samples;
        self.attempted += out.packets;
        self.settle(out.passes);
        out
    }
}

/// What the open loop measured.
pub struct OpenLoop {
    /// One sample per alert and pass: a key naming the alert (flow, offset
    /// and pattern or rule — the same in every pass), and the time from the
    /// due time of the packet that completed it to the poll that returned
    /// it, in ns (saturating at ~4.3 s).
    pub samples: Vec<(u64, u32)>,
    /// Packets sent.
    pub packets: u64,
    /// Packets sent more than one inter-packet gap after they were due.
    pub late_packets: u64,
    /// Whole passes sent.
    pub passes: u64,
    /// Passes in which more than [`MAX_LATE_SHARE`] of the packets were
    /// late: the generator did not hold the offered rate there.
    pub late_passes: u64,
}

impl OpenLoop {
    /// Share of all packets the generator sent late.
    pub fn late_share(&self) -> f64 {
        self.late_packets as f64 / self.packets.max(1) as f64
    }

    /// True when the offered rate was held in at least half of the passes.
    /// A host stall makes the generator late for the passes it hits, and the
    /// steady latencies shrug those off; a pipeline that cannot take the
    /// offered rate makes it late in every pass.
    pub fn held_rate(&self) -> bool {
        2 * self.late_passes <= self.passes
    }

    /// One latency per distinct alert, in µs, sorted: the **lower quartile
    /// over passes** of that alert's latency. Every pass raises the same
    /// alerts, so each alert is timed once per pass; a host stall adds to
    /// the passes it hits, never subtracts, and the lower quartile needs a
    /// quarter of an alert's repetitions undisturbed. Percentiles of this
    /// list are the alert latency of the code left alone.
    pub fn steady_latencies_us(&mut self) -> Vec<f64> {
        self.samples.sort_unstable();
        let mut per_alert = Vec::new();
        let mut group: Vec<f64> = Vec::new();
        let mut samples = self.samples.iter().peekable();
        while let Some(&(key, ns)) = samples.next() {
            group.push(f64::from(ns) / 1e3);
            if samples.peek().is_none_or(|&&(next, _)| next != key) {
                per_alert.push(quantile_sorted(&group, 0.25));
                group.clear();
            }
        }
        crate::stats::sort(&mut per_alert);
        per_alert
    }
}

/// Largest share of late packets in a pass that held the offered rate.
pub const MAX_LATE_SHARE: f64 = 0.05;

/// Dispatches the schedule up to the point where `concurrency` flows are
/// open (see [`Inputs::resident_prefix`]) and drains: the flows are
/// resident, each mid-stream, and nothing is in flight. The flows use ids
/// `0..` the returned count.
pub fn park_mid_pass(pipeline: &mut PipelineScanner, inputs: &Inputs) -> u64 {
    for slot in &inputs.schedule[..inputs.resident_prefix()] {
        send(pipeline, inputs, slot, u64::from(slot.flow));
    }
    // The returned alerts are dropped here: they are not resident state.
    pipeline.drain().expect("worker alive");
    inputs.workload.concurrency.min(inputs.workload.flows()) as u64
}
