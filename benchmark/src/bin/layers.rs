//! The traced run: per-layer metrics of one workload.
//!
//! Every probe of the benchmark lives in this file. A waterfall **row** runs
//! the workload's own packets through one more layer of the stack than the
//! row above it, so the rows add up to the pipeline's end-to-end number and
//! `<row>.delta_ns` is the self time of the layer the row adds:
//!
//! ```text
//! simd.filter → core.filter_stores → core.rounds → graph.scan_flow
//!   → graph.scan_packet → stream.push → stream.pipeline
//! rules_ports: verify.scan_rules → stream.group_push → stream.pipeline
//! ```
//!
//! A row is timed as whole passes (one span per pass; the row's number is
//! the lower quartile of the pass times, the same good-side quartile the
//! end-to-end run reports, see `README.md`). Its first pass also records one
//! span per call — those go to `benchmark/out/trace-<workload>.jsonl` — and
//! is kept out of the quartile, so the clock reads around sub-microsecond
//! calls are not part of it. Metrics that do not apply to a workload (the plain rows on
//! `rules_ports`, the rule rows elsewhere, the paper baselines and the cache
//! model anywhere but `bulk_http`) read 0 there.

use mpm_aho_corasick::DfaMatcher;
use mpm_benchmark::alloc;
use mpm_benchmark::args::Args;
use mpm_benchmark::inputs::{Inputs, TRACE_LEN};
use mpm_benchmark::json::push_metric;
use mpm_benchmark::load::{build_pipeline, park_mid_pass, send, Driver};
use mpm_benchmark::reference::Reference;
use mpm_benchmark::spans::{Call, NoProbe, Probe, Spans, NONE};
use mpm_benchmark::stats::{quantile_sorted, sort, Quartiles};
use mpm_cachesim::{replay_aho_corasick, replay_dfc, replay_vpatch, CacheConfig, ReplayOutcome};
use mpm_dfc::Dfc;
use mpm_patterns::snort::{parse_grouped, parse_rules, ParseOptions};
use mpm_patterns::{GroupedRuleSet, Matcher, PatternSet};
use mpm_simd::{Avx2Backend, Avx512Backend, BackendKind, ScalarBackend, VectorBackend};
use mpm_stream::ring;
use mpm_stream::{
    GroupedEngineSet, GroupedFlowScanner, ScannerBuilder, SharedMatcher, StreamScanner,
};
use mpm_verify::RuleConfirmer;
use mpm_vpatch::{FilterOnlyMode, SPatch, Scratch, VPatch};
use mpm_wu_manber::WuManber;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Every per-layer metric with its unit, exactly as declared in
/// `BENCHMARK.json` (`tests/contract.rs` holds the two lists together).
/// All of them are printed on every workload.
const METRICS: &[(&str, &str)] = &[
    ("simd.filter.gbps", "Gbit/s"),
    ("simd.filter.ns_per_packet", "ns/packet"),
    ("simd.filter.delta_ns", "ns/packet"),
    ("core.filter_stores.gbps", "Gbit/s"),
    ("core.filter_stores.ns_per_packet", "ns/packet"),
    ("core.filter_stores.delta_ns", "ns/packet"),
    ("core.rounds.gbps", "Gbit/s"),
    ("core.rounds.ns_per_packet", "ns/packet"),
    ("core.rounds.delta_ns", "ns/packet"),
    ("verify.share", "share"),
    ("core.candidates_per_kib", "count/KiB"),
    ("core.useful_lane_share", "share"),
    ("graph.scan_flow.gbps", "Gbit/s"),
    ("graph.scan_flow.ns_per_packet", "ns/packet"),
    ("graph.scan_flow.delta_ns", "ns/packet"),
    ("graph.scan_packet.gbps", "Gbit/s"),
    ("graph.scan_packet.ns_per_packet", "ns/packet"),
    ("graph.scan_packet.delta_ns", "ns/packet"),
    ("graph.scan_packet.allocs_per_packet", "count/packet"),
    ("stream.push.gbps", "Gbit/s"),
    ("stream.push.ns_per_packet", "ns/packet"),
    ("stream.push.delta_ns", "ns/packet"),
    ("stream.push.allocs_per_packet", "count/packet"),
    ("verify.scan_rules.gbps", "Gbit/s"),
    ("verify.scan_rules.ns_per_packet", "ns/packet"),
    ("verify.scan_rules.delta_ns", "ns/packet"),
    ("verify.index_payload.ns_per_kib", "ns/KiB"),
    ("verify.confirm_indexed.ns_per_call", "ns/call"),
    ("stream.group_push.gbps", "Gbit/s"),
    ("stream.group_push.ns_per_packet", "ns/packet"),
    ("stream.group_push.delta_ns", "ns/packet"),
    ("stream.group_push.allocs_per_packet", "count/packet"),
    ("stream.group_push.late_over_early", "ratio"),
    ("stream.pipeline.gbps", "Gbit/s"),
    ("stream.pipeline.ns_per_packet", "ns/packet"),
    ("stream.pipeline.delta_ns", "ns/packet"),
    ("stream.pipeline.allocs_per_packet", "count/packet"),
    ("stream.pipeline.alloc_bytes_per_packet", "bytes/packet"),
    ("stream.pipeline.dispatch_ns", "ns/packet"),
    ("stream.pipeline.alert_p90_us", "us"),
    ("stream.pipeline.alert_p99_us", "us"),
    ("stream.pipeline.alert_max_us", "us"),
    ("stream.pipeline.late_share", "share"),
    ("stream.ring.ns_per_item", "ns/item"),
    ("dfc.scan.gbps", "Gbit/s"),
    ("aho-corasick.scan.gbps", "Gbit/s"),
    ("wu-manber.scan.gbps", "Gbit/s"),
    ("core.spatch.scan.gbps", "Gbit/s"),
    ("paper.vpatch_over_dfc", "ratio"),
    ("paper.vpatch_over_ac", "ratio"),
    ("paper.vpatch_over_spatch", "ratio"),
    ("cachesim.vpatch.l1_miss_ratio", "ratio"),
    ("cachesim.vpatch.llc_miss_ratio", "ratio"),
    ("cachesim.dfc.l1_miss_ratio", "ratio"),
    ("cachesim.dfc.llc_miss_ratio", "ratio"),
    ("cachesim.ac.l1_miss_ratio", "ratio"),
    ("cachesim.ac.llc_miss_ratio", "ratio"),
    ("patterns.parse_s", "s"),
    ("patterns.compile_sets_s", "s"),
    ("core.build_s", "s"),
    ("verify.confirmer_build_s", "s"),
    ("stream.spawn_s", "s"),
    ("core.filter_bytes", "bytes"),
    ("verify.table_bytes", "bytes"),
    ("verify.confirmer_bytes", "bytes"),
    ("stream.bytes_per_flow", "bytes/flow"),
    ("trace.overhead_share", "share"),
];

/// Shares of `--seconds` given to the phases of a traced run.
const ROW_SHARE: f64 = 0.05;
const PIPELINE_SHARE: f64 = 0.25;
const OPEN_SHARE: f64 = 0.15;

/// State shared by the probes of one traced run.
struct Run<'a> {
    args: Args,
    inputs: &'a Inputs,
    reference: &'a Reference,
    spans: Spans,
    /// The value of every metric, parallel to [`METRICS`].
    values: Vec<f64>,
    /// ns per packet of the last waterfall row, the base of the next delta.
    above_ns: f64,
    /// Cleared when a probe's output disagrees with the reference.
    correct: bool,
}

impl Run<'_> {
    fn set(&mut self, name: &str, value: f64) {
        let index = METRICS
            .iter()
            .position(|(declared, _)| *declared == name)
            .unwrap_or_else(|| panic!("{name} is not a declared metric"));
        self.values[index] = value;
    }

    fn packets(&self) -> f64 {
        self.inputs.schedule.len() as f64
    }

    /// Expects every pass of a row to report exactly the reference's alerts.
    fn check(&mut self, row: &str, alerts: u64) {
        if alerts != self.reference.alerts_per_pass {
            eprintln!(
                "{row}: a pass reported {alerts} alerts, the reference has {}",
                self.reference.alerts_per_pass
            );
            self.correct = false;
        }
    }

    /// Times `pass` as waterfall row `row` and books it: one pass with a
    /// span per call (kept for the trace file, excluded from the quartile;
    /// it also warms caches and scratch), then whole passes for `ROW_SHARE`
    /// of the run. Rows that declare `<row>.allocs_per_packet` get it from
    /// the timed passes.
    fn row(&mut self, row: &'static str, mut pass: impl FnMut(&mut Spans)) {
        self.spans.begin_pass(row, 0, true);
        pass(&mut self.spans);
        self.spans.end_pass(true);
        let budget = self.args.phase(ROW_SHARE);
        let started = Instant::now();
        let mut times = Vec::new();
        // Counted around the pass alone, so that the harness's own vectors
        // stay out and the count per packet repeats exactly.
        let mut allocs = 0.0;
        while times.len() < 3 || started.elapsed() < budget {
            self.spans.begin_pass(row, times.len() as u32 + 1, false);
            let before = alloc::snapshot();
            pass(&mut self.spans);
            allocs += alloc::snapshot().since(before).allocs as f64;
            times.push(self.spans.end_pass(false) as f64);
        }
        let allocs_name = format!("{row}.allocs_per_packet");
        if METRICS.iter().any(|(name, _)| *name == allocs_name) {
            self.set(&allocs_name, allocs / (times.len() as f64 * self.packets()));
        }
        self.waterfall(row, Quartiles::of(&times).q1);
    }

    /// Books a row into the waterfall: throughput, ns per packet and the
    /// distance to the row above.
    fn waterfall(&mut self, row: &str, pass_ns: f64) {
        let ns_per_packet = pass_ns / self.packets();
        self.set(&format!("{row}.gbps"), (TRACE_LEN * 8) as f64 / pass_ns);
        self.set(&format!("{row}.ns_per_packet"), ns_per_packet);
        self.set(&format!("{row}.delta_ns"), ns_per_packet - self.above_ns);
        self.above_ns = ns_per_packet;
    }
}

fn main() -> ExitCode {
    let (args, inputs, reference) = match mpm_benchmark::prepare(true) {
        Ok(prepared) => prepared,
        Err(code) => return code,
    };
    let w = args.workload;
    let mut run = Run {
        args,
        inputs: &inputs,
        reference: &reference,
        // The calls of one pass of each per-packet row, with headroom for
        // the pipeline row's polls and closes.
        spans: Spans::with_capacity(4 * inputs.schedule.len() + (64 << 10)),
        values: vec![0.0; METRICS.len()],
        above_ns: 0.0,
        correct: true,
    };
    alloc::set_counting(true);

    if w.grouped() {
        rule_rows(&mut run);
    } else {
        let set =
            parse_rules(&inputs.rule_text, ParseOptions::default()).expect("generated rules parse");
        match mpm_simd::detect_best() {
            BackendKind::Avx512 => kernel_rows::<Avx512Backend, 16>(&mut run, &set),
            BackendKind::Avx2 => kernel_rows::<Avx2Backend, 8>(&mut run, &set),
            BackendKind::Scalar => kernel_rows::<ScalarBackend, 8>(&mut run, &set),
        }
        engine_rows(&mut run, &set);
        if w.name == "bulk_http" {
            paper_baselines(&mut run, &set);
            cache_model(&mut run, &set);
        }
    }
    pipeline_row(&mut run);
    ring_transfer(&mut run);
    setup_split(&mut run);
    memory_split(&mut run);
    alloc::set_counting(false);

    // All timing has ended: now the spans may touch the disk.
    let path = format!("benchmark/out/trace-{}.jsonl", w.name);
    let written = std::fs::create_dir_all("benchmark/out")
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|file| {
            let mut out = std::io::BufWriter::new(file);
            run.spans.write_jsonl(w.name, &mut out)?;
            std::io::Write::flush(&mut out)
        });
    match written {
        Ok(()) => println!(
            "{}: {} spans written to {path} ({} calls did not fit the buffer)",
            w.name,
            run.spans.len(),
            run.spans.dropped
        ),
        Err(e) => eprintln!("{}: could not write {path}: {e}", w.name),
    }

    let mut metrics = String::new();
    for ((name, unit), value) in METRICS.iter().zip(&run.values) {
        println!("{}: {name:<44} {value:>16.6} {unit}", w.name);
        push_metric(&mut metrics, name, *value, unit);
    }
    let attempted = (run.packets() as u64).max(1);
    let failed = if run.correct { 0 } else { attempted };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        run.correct
    );
    if run.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `simd.filter` → `core.filter_stores` → `core.rounds`: the filter kernel
/// alone, with candidate stores, and with the verification round, each once
/// per whole flow on a caller-owned `Scratch`.
fn kernel_rows<B: VectorBackend<W>, const W: usize>(run: &mut Run, set: &PatternSet) {
    let inputs = run.inputs;
    let flows = inputs.workload.flows();
    let engine = VPatch::<B, W>::build(set);
    let mut scratch = Scratch::new();

    for (mode, row) in [
        (FilterOnlyMode::NoStores, "simd.filter"),
        (FilterOnlyMode::WithStores, "core.filter_stores"),
    ] {
        run.row(row, |probe| {
            let mut checksum = 0u64;
            for flow in 0..flows {
                let t = probe.now();
                checksum += engine.filter_only(inputs.flow_bytes(flow), mode, &mut scratch);
                probe.record(Call::Scan, t, flow as u32, NONE);
            }
            std::hint::black_box(checksum);
        });
    }

    let mut events = Vec::new();
    let mut alerts = 0u64;
    run.row("core.rounds", |probe| {
        alerts = 0;
        for flow in 0..flows {
            let bytes = inputs.flow_bytes(flow);
            let t = probe.now();
            scratch.begin_chunk();
            events.clear();
            engine.filter_round(bytes, &mut scratch);
            engine.verify_round(bytes, &scratch, &mut events);
            probe.record(Call::Scan, t, flow as u32, NONE);
            alerts += events.len() as u64;
        }
    });
    run.check("core.rounds", alerts);

    // The same two calls once more with a clock between them, for the share
    // of the rounds' time that is verification.
    let (mut filter_ns, mut verify_ns) = (0u128, 0u128);
    for _ in 0..3 {
        for flow in 0..flows {
            let bytes = inputs.flow_bytes(flow);
            scratch.begin_chunk();
            events.clear();
            let t0 = Instant::now();
            engine.filter_round(bytes, &mut scratch);
            let t1 = Instant::now();
            engine.verify_round(bytes, &scratch, &mut events);
            filter_ns += (t1 - t0).as_nanos();
            verify_ns += t1.elapsed().as_nanos();
        }
    }
    run.set(
        "verify.share",
        verify_ns as f64 / (filter_ns + verify_ns) as f64,
    );

    // Exact counts from the engine's own statistics.
    let (mut candidates, mut blocks, mut lanes) = (0u64, 0u64, 0u64);
    for flow in 0..flows {
        let stats = engine.scan_with_stats(inputs.flow_bytes(flow));
        candidates += stats.candidates;
        blocks += stats.filter3_blocks;
        lanes += stats.useful_lanes;
    }
    run.set(
        "core.candidates_per_kib",
        candidates as f64 / (TRACE_LEN / 1024) as f64,
    );
    run.set(
        "core.useful_lane_share",
        lanes as f64 / (blocks.max(1) * W as u64) as f64,
    );
}

/// `graph.scan_flow` → `graph.scan_packet` → `stream.push`: the engine the
/// pipeline uses (`build_auto`), through `Matcher::find_into` per whole
/// flow, per packet, and per packet through a per-flow `StreamScanner`.
fn engine_rows(run: &mut Run, set: &PatternSet) {
    let inputs = run.inputs;
    let flows = inputs.workload.flows();
    let engine: SharedMatcher = Arc::from(mpm_vpatch::build_auto(set));
    let mut events = Vec::new();
    let mut alerts = 0u64;

    run.row("graph.scan_flow", |probe| {
        alerts = 0;
        for flow in 0..flows {
            let t = probe.now();
            events.clear();
            engine.find_into(inputs.flow_bytes(flow), &mut events);
            probe.record(Call::Scan, t, flow as u32, NONE);
            alerts += events.len() as u64;
        }
    });
    run.check("graph.scan_flow", alerts);

    // Stateless per-packet scans see no match that crosses a packet
    // boundary, so this row's alert count is not the reference's; it is the
    // per-call fixed cost of the engine that the row shows.
    run.row("graph.scan_packet", |probe| {
        for slot in &inputs.schedule {
            let t = probe.now();
            events.clear();
            engine.find_into(inputs.packet_bytes(slot), &mut events);
            probe.record(Call::Scan, t, slot.flow, slot.packet);
            std::hint::black_box(events.len());
        }
    });

    // One scanner per flow in a plain Vec, minted on the flow's first
    // packet and dropped on its last: the stream layer without the flow
    // table, the rings and the second thread.
    let template = StreamScanner::new(engine.clone(), set);
    let mut scanners: Vec<Option<StreamScanner>> = vec![None; flows];
    run.row("stream.push", |probe| {
        alerts = 0;
        for slot in &inputs.schedule {
            let t = probe.now();
            let scanner = scanners[slot.flow as usize].get_or_insert_with(|| template.clone());
            events.clear();
            scanner.push(inputs.packet_bytes(slot), &mut events);
            if slot.last {
                scanners[slot.flow as usize] = None;
            }
            probe.record(Call::Scan, t, slot.flow, slot.packet);
            alerts += events.len() as u64;
        }
    });
    run.check("stream.push", alerts);
}

/// The `rules_ports` rows: one-shot grouped rule scan per flow, the two
/// halves of confirmation on their own, and the per-flow streaming scanner.
fn rule_rows(run: &mut Run) {
    let inputs = run.inputs;
    let flows = inputs.workload.flows();
    let rules =
        parse_grouped(&inputs.rule_text, ParseOptions::default()).expect("generated rules parse");
    let engines = Arc::new(GroupedEngineSet::build_with(
        GroupedRuleSet::new(rules),
        |set, arena| Arc::from(mpm_vpatch::build_auto_with_arena(set, arena)),
    ));
    let mut alerts = 0u64;

    run.row("verify.scan_rules", |probe| {
        alerts = 0;
        for flow in 0..flows {
            let t = probe.now();
            alerts += engines
                .scan_flow(inputs.tuple(flow), inputs.flow_bytes(flow))
                .len() as u64;
            probe.record(Call::Scan, t, flow as u32, NONE);
        }
    });
    run.check("verify.scan_rules", alerts);

    // Confirmation's two halves: indexing a payload, and confirming one rule
    // against the index — every rule of the flow's group against every flow.
    let grouped = engines.grouped();
    let confirmer = RuleConfirmer::build(grouped.monolithic());
    let (mut index_ns, mut confirm_ns) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let (mut index_total, mut confirm_total, mut calls) = (0u128, 0u128, 0u64);
        for flow in 0..flows {
            let applicable = grouped.applicable_rules(inputs.tuple(flow).expect("tuples"));
            let t0 = Instant::now();
            let index = confirmer.index_payload(inputs.flow_bytes(flow));
            let t1 = Instant::now();
            let mut confirmed = 0usize;
            for &rule in &applicable {
                confirmed += usize::from(confirmer.confirm_indexed(&index, rule).is_some());
            }
            confirm_total += t1.elapsed().as_nanos();
            index_total += (t1 - t0).as_nanos();
            calls += applicable.len() as u64;
            std::hint::black_box(confirmed);
        }
        index_ns.push(index_total as f64 / (TRACE_LEN / 1024) as f64);
        confirm_ns.push(confirm_total as f64 / calls.max(1) as f64);
    }
    run.set(
        "verify.index_payload.ns_per_kib",
        Quartiles::of(&index_ns).median,
    );
    run.set(
        "verify.confirm_indexed.ns_per_call",
        Quartiles::of(&confirm_ns).median,
    );

    let mut scanners: Vec<Option<GroupedFlowScanner>> = (0..flows).map(|_| None).collect();
    let mut confirmed = Vec::new();
    run.row("stream.group_push", |probe| {
        alerts = 0;
        for slot in &inputs.schedule {
            let flow = slot.flow as usize;
            let t = probe.now();
            let scanner = scanners[flow].get_or_insert_with(|| {
                GroupedFlowScanner::new(engines.clone(), inputs.tuple(flow))
            });
            confirmed.clear();
            scanner.push(inputs.packet_bytes(slot), &mut confirmed);
            if slot.last {
                scanners[flow] = None;
            }
            probe.record(Call::Scan, t, slot.flow, slot.packet);
            alerts += confirmed.len() as u64;
        }
    });
    run.check("stream.group_push", alerts);

    // Is the cost of a push flat along a flow? Mean push time over the last
    // quarter of every flow's packets ÷ over the first quarter, from the
    // per-call spans of the row's recorded pass.
    let quarter = (inputs.workload.packets_per_flow() / 4).max(1) as u32;
    let last_from = inputs.workload.packets_per_flow() as u32 - quarter;
    let (mut early, mut late) = ((0u64, 0u64), (0u64, 0u64));
    for span in run.spans.calls("stream.group_push", Call::Scan) {
        let bucket = if span.packet < quarter {
            &mut early
        } else if span.packet >= last_from {
            &mut late
        } else {
            continue;
        };
        bucket.0 += span.end - span.start;
        bucket.1 += 1;
    }
    if early.0 > 0 && late.1 > 0 {
        let mean = |(ns, n): (u64, u64)| ns as f64 / n as f64;
        run.set(
            "stream.group_push.late_over_early",
            mean(late) / mean(early),
        );
    }
}

/// `stream.pipeline`: the closed loop of the end-to-end run, traced (spans
/// on dispatch/close/poll/drain, allocations counted) and, alternating with
/// it, untraced — the ratio of the two is what tracing costs. Then a short
/// open loop (allocations counted, no spans) for the tail of the alert
/// latency.
fn pipeline_row(run: &mut Run) {
    let (inputs, reference) = (run.inputs, run.reference);
    let mut driver = Driver::new(build_pipeline(inputs), inputs, reference);
    alloc::set_counting(false);
    driver.closed_pass(&mut NoProbe);
    let budget = run.args.phase(PIPELINE_SHARE);
    let started = Instant::now();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut allocated = alloc::Snapshot::default();
    while traced.len() < 3 || started.elapsed() < budget {
        untraced.push(driver.closed_pass(&mut NoProbe));
        alloc::set_counting(true);
        let before = alloc::snapshot();
        run.spans
            .begin_pass("stream.pipeline", traced.len() as u32, true);
        // The buffer keeps the calls of the first traced pass only.
        let keep_calls = traced.is_empty();
        traced.push(driver.closed_pass(&mut run.spans));
        run.spans.end_pass(keep_calls);
        let during = alloc::snapshot().since(before);
        alloc::set_counting(false);
        allocated.allocs += during.allocs;
        allocated.bytes += during.bytes;
    }
    alloc::set_counting(true);
    // The same estimate as the end-to-end run's goodput, on both sides.
    let (traced_ns, untraced_ns) = (Quartiles::of(&traced).q1, Quartiles::of(&untraced).q1);
    let packets = traced.len() as f64 * run.packets();
    run.set(
        "stream.pipeline.allocs_per_packet",
        allocated.allocs as f64 / packets,
    );
    run.set(
        "stream.pipeline.alloc_bytes_per_packet",
        allocated.bytes as f64 / packets,
    );
    run.set("trace.overhead_share", 1.0 - untraced_ns / traced_ns);
    run.waterfall("stream.pipeline", traced_ns);
    let (dispatch_ns, dispatches) = run
        .spans
        .calls("stream.pipeline", Call::Dispatch)
        .fold((0, 0), |(ns, n), s| (ns + (s.end - s.start), n + 1));
    if dispatches > 0 {
        run.set(
            "stream.pipeline.dispatch_ns",
            dispatch_ns as f64 / f64::from(dispatches),
        );
    }

    let open = driver.open_loop(run.args.phase(OPEN_SHARE));
    let mut latencies_us: Vec<f64> = open
        .samples
        .iter()
        .map(|&(_, ns)| f64::from(ns) / 1e3)
        .collect();
    sort(&mut latencies_us);
    if let Some(&max) = latencies_us.last() {
        run.set(
            "stream.pipeline.alert_p90_us",
            quantile_sorted(&latencies_us, 0.90),
        );
        run.set(
            "stream.pipeline.alert_p99_us",
            quantile_sorted(&latencies_us, 0.99),
        );
        run.set("stream.pipeline.alert_max_us", max);
    }
    run.set("stream.pipeline.late_share", open.late_share());
    if driver.failed > 0 {
        eprintln!("stream.pipeline: {} packets failed", driver.failed);
        run.correct = false;
    }
}

/// `stream.ring.ns_per_item`: one thread pushes, one pops, through the
/// pipeline's own SPSC ring at its default capacity.
fn ring_transfer(run: &mut Run) {
    const ITEMS: u64 = 2_000_000;
    let mut per_item = Vec::new();
    for _ in 0..5 {
        let (mut tx, mut rx) = ring::spsc::<u64>(1024);
        let started = Instant::now();
        let sum = std::thread::scope(|scope| {
            let consumer = scope.spawn(move || {
                let (mut received, mut sum) = (0u64, 0u64);
                while received < ITEMS {
                    match rx.pop() {
                        Some(item) => {
                            sum = sum.wrapping_add(item);
                            received += 1;
                        }
                        None => std::hint::spin_loop(),
                    }
                }
                sum
            });
            for item in 0..ITEMS {
                let mut item = item;
                while let Err(back) = tx.push(item) {
                    item = back.into_inner();
                    std::hint::spin_loop();
                }
            }
            consumer.join().expect("consumer does not panic")
        });
        per_item.push(started.elapsed().as_nanos() as f64 / ITEMS as f64);
        assert_eq!(
            sum,
            ITEMS * (ITEMS - 1) / 2,
            "the ring lost or repeated an item"
        );
    }
    run.set("stream.ring.ns_per_item", Quartiles::of(&per_item).median);
}

/// The paper's comparison, on `bulk_http`'s ruleset and whole trace: one-shot
/// `count` scans by V-PATCH, scalar S-PATCH, DFC, Aho-Corasick (full DFA,
/// the paper's variant) and Wu-Manber, interleaved, median of each.
fn paper_baselines(run: &mut Run, set: &PatternSet) {
    let trace = run.inputs.trace.as_slice();
    let engines: [(&'static str, Box<dyn Matcher>); 5] = [
        ("vpatch", mpm_vpatch::build_auto(set)),
        ("core.spatch.scan.gbps", Box::new(SPatch::build(set))),
        ("dfc.scan.gbps", Box::new(Dfc::build(set))),
        ("aho-corasick.scan.gbps", Box::new(DfaMatcher::build(set))),
        ("wu-manber.scan.gbps", Box::new(WuManber::build(set))),
    ];
    let mut gbps: Vec<Vec<f64>> = vec![Vec::new(); engines.len()];
    let reps = if run.args.smoke { 1 } else { 5 };
    for _ in 0..reps {
        for (samples, (name, engine)) in gbps.iter_mut().zip(&engines) {
            let started = Instant::now();
            let matches = engine.count(trace);
            samples.push((trace.len() * 8) as f64 / started.elapsed().as_nanos() as f64);
            if matches != run.reference.alerts_per_pass {
                // Matches that straddle a flow boundary exist in the whole
                // trace only, so the one-shot count may exceed the per-flow
                // reference, never fall short of it.
                if matches < run.reference.alerts_per_pass {
                    eprintln!("{name}: {matches} matches, fewer than the reference");
                    run.correct = false;
                }
            }
        }
    }
    let medians: Vec<f64> = gbps.iter().map(|s| Quartiles::of(s).median).collect();
    for ((name, _), median) in engines.iter().zip(&medians).skip(1) {
        run.set(name, *median);
    }
    let vpatch = medians[0];
    for (ratio, base) in [
        ("paper.vpatch_over_spatch", 1),
        ("paper.vpatch_over_dfc", 2),
        ("paper.vpatch_over_ac", 3),
    ] {
        run.set(ratio, vpatch / medians[base]);
        println!(
            "{ratio}: V-PATCH {vpatch:.3} Gbit/s over {:.3} Gbit/s",
            medians[base]
        );
    }
}

/// The cache model's miss ratios on a 1 MiB prefix: a replay of each
/// engine's table accesses, so the numbers repeat exactly.
fn cache_model(run: &mut Run, set: &PatternSet) {
    let prefix = &run.inputs.trace[..1 << 20];
    let config = CacheConfig::haswell;
    let outcomes: [(ReplayOutcome, [&'static str; 2]); 3] = [
        (
            replay_vpatch(&SPatch::build(set), prefix, config()),
            [
                "cachesim.vpatch.l1_miss_ratio",
                "cachesim.vpatch.llc_miss_ratio",
            ],
        ),
        (
            replay_dfc(&Dfc::build(set), prefix, config()),
            ["cachesim.dfc.l1_miss_ratio", "cachesim.dfc.llc_miss_ratio"],
        ),
        (
            replay_aho_corasick(&DfaMatcher::build(set), prefix, config()),
            ["cachesim.ac.l1_miss_ratio", "cachesim.ac.llc_miss_ratio"],
        ),
    ];
    for (outcome, [l1, llc]) in outcomes {
        let report = outcome.report;
        run.set(l1, report.l1_miss_ratio());
        run.set(
            llc,
            report.llc_misses() as f64 / report.accesses.max(1) as f64,
        );
    }
}

/// Median of five timings of `step`, and its last result.
fn timed<T>(mut step: impl FnMut() -> T) -> (f64, T) {
    let mut seconds = Vec::new();
    let mut result = None;
    for _ in 0..5 {
        let started = Instant::now();
        let value = step();
        seconds.push(started.elapsed().as_secs_f64());
        // The previous repetition's result is dropped here, untimed.
        result = Some(value);
    }
    (
        Quartiles::of(&seconds).median,
        result.expect("ran at least once"),
    )
}

/// Where `setup_s` goes: parse, rule-set compile, engine build, confirmer
/// build, and spawn + first packet + drain.
fn setup_split(run: &mut Run) {
    let inputs = run.inputs;
    let options = ParseOptions::default();
    let spawn = |builder: ScannerBuilder| {
        let mut pipeline = builder.workers(1).build().expect("valid configuration");
        send(&mut pipeline, inputs, &inputs.schedule[0], 0);
        pipeline.drain().expect("worker alive");
        pipeline
    };
    if inputs.workload.grouped() {
        let (parse_s, rules) =
            timed(|| parse_grouped(&inputs.rule_text, options).expect("generated rules parse"));
        let (sets_s, grouped) = timed(|| GroupedRuleSet::new(rules.clone()));
        let (build_s, _) = timed(|| {
            let arena = grouped.build_arena();
            grouped
                .groups()
                .iter()
                .map(|g| mpm_vpatch::build_auto_with_arena(g.rules().anchors(), &arena))
                .collect::<Vec<_>>()
        });
        let (confirmer_s, _) = timed(|| RuleConfirmer::build(grouped.monolithic()));
        let engines = Arc::new(GroupedEngineSet::build_with(grouped, |set, arena| {
            Arc::from(mpm_vpatch::build_auto_with_arena(set, arena))
        }));
        let (spawn_s, _) = timed(|| spawn(ScannerBuilder::new().groups(engines.clone())));
        run.set("patterns.parse_s", parse_s);
        run.set("patterns.compile_sets_s", sets_s);
        run.set("core.build_s", build_s);
        run.set("verify.confirmer_build_s", confirmer_s);
        run.set("stream.spawn_s", spawn_s);
    } else {
        let (parse_s, set) =
            timed(|| parse_rules(&inputs.rule_text, options).expect("generated rules parse"));
        let (build_s, engine) =
            timed(|| -> SharedMatcher { Arc::from(mpm_vpatch::build_auto(&set)) });
        let (spawn_s, _) = timed(|| spawn(ScannerBuilder::new().engine(engine.clone(), &set)));
        run.set("patterns.parse_s", parse_s);
        run.set("core.build_s", build_s);
        run.set("stream.spawn_s", spawn_s);
    }
}

/// Where `resident_bytes` goes: the engines' own accounting of their filter
/// and verification tables, the confirmer, and the measured heap per
/// resident flow.
fn memory_split(run: &mut Run) {
    let inputs = run.inputs;
    let options = ParseOptions::default();
    if inputs.workload.grouped() {
        let rules = parse_grouped(&inputs.rule_text, options).expect("generated rules parse");
        let grouped = GroupedRuleSet::new(rules);
        run.set(
            "verify.confirmer_bytes",
            RuleConfirmer::build(grouped.monolithic()).heap_bytes() as f64,
        );
        let engines = GroupedEngineSet::build_with(grouped, |set, arena| {
            Arc::from(mpm_vpatch::build_auto_with_arena(set, arena))
        });
        let footprint = engines.memory_footprint();
        run.set("core.filter_bytes", footprint.filter_bytes as f64);
        run.set("verify.table_bytes", footprint.verify_bytes as f64);
    } else {
        let set = parse_rules(&inputs.rule_text, options).expect("generated rules parse");
        let footprint = mpm_vpatch::build_auto(&set).memory_footprint();
        run.set("core.filter_bytes", footprint.filter_bytes as f64);
        run.set("verify.table_bytes", footprint.verify_bytes as f64);
    }
    // Live heap with the flows resident mid-stream minus live heap once
    // they are closed, per flow. Nothing older than `before` is freed here.
    let mut pipeline = build_pipeline(inputs);
    let resident = park_mid_pass(&mut pipeline, inputs);
    let with_flows = alloc::snapshot();
    for flow in 0..resident {
        pipeline.close_flow(flow);
    }
    pipeline.drain().expect("worker alive");
    let released = with_flows.live - alloc::snapshot().live;
    run.set("stream.bytes_per_flow", released as f64 / resident as f64);
}
