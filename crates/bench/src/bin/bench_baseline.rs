//! Emits the machine-readable perf-trajectory snapshot recorded in the
//! repository's `BENCH_baseline.json`.
//!
//! Measures, for every backend this CPU supports (plus the scalar reference
//! at both widths):
//!
//! * the Figure 6 quantity — V-PATCH filtering-phase throughput with and
//!   without candidate stores — on the canonical fig6 workload (S1-HTTP
//!   ruleset, ISCX-day2-like trace), case-sensitive and mixed-case;
//! * since PR 5, a **verify-heavy** section: end-to-end V-PATCH throughput
//!   (filter round + verification round) on the adversarial
//!   [`Workload::verify_heavy_variant`] workload — hot-prefix patterns, so
//!   candidate density is 10–100× s1-http — each row carrying its
//!   `verify_share` (fraction of scan time spent verifying);
//! * since PR 5, a **memory** section: every engine's
//!   [`mpm_patterns::Matcher::memory_footprint`] (filter vs verifier bytes)
//!   on the s1 ruleset, so perf snapshots carry their memory cost;
//! * since PR 6, a **rule_confirmation** section: the s1-http contents
//!   regrouped into multi-content rules (every content kept, secondaries
//!   tied with `distance:0`), scanned anchors-only vs with anchor-gated
//!   rule confirmation — the cost of promoting patterns to rules.
//!
//! Output is a JSON snapshot in the `vpatch-bench-baseline/v1` shape; the
//! checked-in `BENCH_baseline.json` accumulates one snapshot per
//! optimisation PR so regressions and wins stay diff-able:
//!
//! ```text
//! cargo run --release -p mpm-bench --bin bench_baseline -- --mb 1 --runs 30
//! ```
//!
//! `--mb` / `--runs` tune trace size and repetitions; `--ruleset` switches
//! the sub-figure workload. Each snapshot records its own `source`
//! (methodology); only compare rows whose sources match.
//!
//! The snapshot also carries a `multicore` section: aggregate sharded-scan
//! throughput (full scans over a packetized copy of the same trace) at
//! 1/2/4/8 workers — the multi-core scaling trajectory. Its
//! `available_parallelism` field records how many hardware threads the
//! machine had, so flat scaling on a 1-CPU runner is not misread as a
//! regression. Since PR 8 the section's `latency` subsection adds the
//! continuously-running pipeline's per-packet p50/p99/p99.9 latency,
//! worker utilization and backpressure counters at the same worker counts;
//! `--latency-only` runs just that subsection and emits it as JSON (the CI
//! latency artifact).

use mpm_bench::engines::{build_engine, EngineKind, Platform};
use mpm_bench::measure::measure_closure;
use mpm_bench::{multicore, report, MultiCoreFigure, Options, Workload};
use mpm_patterns::stats::RunningStats;
use mpm_patterns::Matcher;
use mpm_simd::{Avx2Backend, Avx512Backend, ScalarBackend, VectorBackend};
use mpm_traffic::TraceKind;
use mpm_vpatch::{FilterOnlyMode, Scratch, VPatch};
use serde::Serialize;
use std::time::Instant;

/// One measured (backend, configuration) point, in the
/// `vpatch-bench-baseline/v1` row shape.
#[derive(Clone, Debug, Serialize)]
struct BaselineRow {
    /// Backend name as reported by the trait (`scalar` / `avx2` / `avx512`).
    backend: String,
    /// Vector width the engine was instantiated at.
    lanes: usize,
    /// `filtering+stores` or `filtering` (the two V-PATCH bars of Figure 6).
    config: String,
    /// Mean filtering-phase throughput in Gbit/s.
    gbps: f64,
    /// Sample standard deviation of the throughput.
    gbps_std: f64,
}

/// One end-to-end point on the verify-heavy workload: full V-PATCH scan
/// (filter round + verification round).
#[derive(Clone, Debug, Serialize)]
struct VerifyHeavyRow {
    /// Backend name.
    backend: String,
    /// Vector width.
    lanes: usize,
    /// Always `batched`; snapshots up to PR 11 also carry `per-candidate`
    /// rows from the since-removed one-lookup-per-candidate round.
    verify: String,
    /// Mean end-to-end throughput in Gbit/s.
    gbps: f64,
    /// Sample standard deviation.
    gbps_std: f64,
    /// Fraction of scan time spent in the verification round.
    verify_share: f64,
    /// Candidate positions produced per input KiB (workload density check).
    candidates_per_kib: f64,
}

/// One point of the rule-confirmation section: the s1-http contents
/// regrouped into multi-content rules (`longest_content_only: false`
/// semantics — every content kept), scanned with confirmation off
/// (anchors only, the plain `Matcher` path) and on (anchor-gated
/// confirmation of secondary contents + positional windows).
#[derive(Clone, Debug, Serialize)]
struct RulesetRow {
    /// Backend name.
    backend: String,
    /// Vector width.
    lanes: usize,
    /// `anchors-only` or `confirmation`.
    config: String,
    /// Mean end-to-end throughput in Gbit/s.
    gbps: f64,
    /// Sample standard deviation.
    gbps_std: f64,
    /// Rules in the compiled set.
    rules: usize,
    /// Rules confirmed on the trace (identical across backends; a
    /// workload-density check like `candidates_per_kib`).
    confirmed: usize,
}

/// One point of the ruleset-scaling section: a synthetic `scale`×
/// replication of an s1 subset, each replica bound to its own destination
/// port, scanned grouped (per-flow group selection over the
/// `GroupedRuleSet` partitioning, engines sharing one pattern arena) vs
/// monolithic (one engine + confirmer over all `scale × base` rules, every
/// flow scanning everything). `memory_ratio` is gated by the
/// `grouped_memory_stays_under_twice_monolithic` test in `workload.rs`.
#[derive(Clone, Debug, Serialize)]
struct ScalingRow {
    /// Replication factor (== number of single-port groups).
    scale: usize,
    /// Total rules in the scaled set.
    rules: usize,
    /// Port groups the partitioning produced.
    port_groups: usize,
    /// Distinct compiled engines after identical-group sharing.
    unique_engines: usize,
    /// Mean grouped throughput in Gbit/s (per-flow group selection).
    grouped_gbps: f64,
    /// Sample standard deviation of the grouped throughput.
    grouped_gbps_std: f64,
    /// Mean monolithic throughput in Gbit/s (every flow scans every rule).
    monolithic_gbps: f64,
    /// Sample standard deviation of the monolithic throughput.
    monolithic_gbps_std: f64,
    /// `grouped_gbps / monolithic_gbps`.
    speedup: f64,
    /// Grouped resident bytes: unique engines + confirmers + the shared
    /// arena once (`GroupedEngineSet::memory_footprint`).
    grouped_bytes: usize,
    /// Monolithic resident bytes: engine footprint + rule confirmer.
    monolithic_bytes: usize,
    /// `grouped_bytes / monolithic_bytes` — must stay under the budget.
    memory_ratio: f64,
    /// Rules confirmed per pass, grouped path (workload-density check).
    confirmed_grouped: usize,
    /// Rules confirmed per pass, monolithic path filtered post-hoc to the
    /// flows' applicable rules (equals `confirmed_grouped` by the grouped
    /// equivalence property).
    confirmed_monolithic: usize,
}

/// Per-engine resident-size row (s1 ruleset).
#[derive(Clone, Debug, Serialize)]
struct MemoryRow {
    /// Engine label as used in the paper's figures.
    engine: String,
    /// Bytes of the filtering structures (0 when not phase-attributed).
    filter_bytes: usize,
    /// Bytes of the verification structures.
    verify_bytes: usize,
    /// Bytes not attributable to either phase.
    other_bytes: usize,
    /// Total resident bytes (`== Matcher::heap_bytes`).
    total_bytes: usize,
}

/// One snapshot of the perf trajectory (what this binary emits).
#[derive(Clone, Debug, Serialize)]
struct BaselineSnapshot {
    /// Snapshot label; edit when merging into `BENCH_baseline.json`.
    label: String,
    /// Measurement methodology; appended snapshots are only comparable to
    /// entries whose `source` matches.
    source: String,
    /// Ruleset the engines were compiled for.
    ruleset: String,
    /// Trace size in MiB.
    trace_mib: usize,
    /// Measured repetitions per point.
    runs: usize,
    /// One row per backend × configuration (Figure 6 filtering quantity).
    rows: Vec<BaselineRow>,
    /// End-to-end rows on the verify-heavy adversarial workload.
    verify_heavy: Vec<VerifyHeavyRow>,
    /// Rule-confirmation rows: multi-content rules built from the same
    /// contents, anchors-only vs confirmation-on.
    rule_confirmation: Vec<RulesetRow>,
    /// Ruleset-scaling rows: grouped vs monolithic scanning of 10×/30×
    /// port-replicated rulesets (throughput and memory).
    ruleset_scaling: Vec<ScalingRow>,
    /// Per-engine resident table sizes on the s1 ruleset.
    memory: Vec<MemoryRow>,
    /// Multi-core scaling on the same workload: aggregate sharded-scan
    /// throughput (full scans, not filtering-only) vs worker count.
    multicore: MultiCoreFigure,
    /// Overload-resilience rows: bursty flow-skewed dispatch into tiny
    /// rings under `Block` (lossless, backpressured) vs `Shed`
    /// (load-shedding) dispatch policies.
    resilience: Vec<multicore::ResilienceRow>,
}

fn measure_backend<B: VectorBackend<W>, const W: usize>(
    workload: &Workload,
    trace: &[u8],
    runs: usize,
    config_suffix: &str,
    rows: &mut Vec<BaselineRow>,
) {
    if !B::is_available() {
        return;
    }
    let engine = VPatch::<B, W>::build(&workload.patterns);
    let mut scratch = Scratch::with_capacity_for(trace.len());
    for (mode, config) in [
        (FilterOnlyMode::WithStores, "filtering+stores"),
        (FilterOnlyMode::NoStores, "filtering"),
    ] {
        let measurement = measure_closure(trace.len(), runs, || {
            engine.filter_only(trace, mode, &mut scratch)
        });
        rows.push(BaselineRow {
            backend: B::name().to_string(),
            lanes: W,
            config: format!("{config}{config_suffix}"),
            gbps: measurement.gbps_mean,
            gbps_std: measurement.gbps_std,
        });
    }
}

fn measure_all_backends(
    workload: &Workload,
    runs: usize,
    suffix: &str,
    rows: &mut Vec<BaselineRow>,
) {
    let trace = &workload.traces[0].1;
    measure_backend::<ScalarBackend, 8>(workload, trace, runs, suffix, rows);
    measure_backend::<ScalarBackend, 16>(workload, trace, runs, suffix, rows);
    measure_backend::<Avx2Backend, 8>(workload, trace, runs, suffix, rows);
    measure_backend::<Avx512Backend, 16>(workload, trace, runs, suffix, rows);
}

/// Measures one backend's full scan (filter + verify) on the verify-heavy
/// workload. Per-phase times are taken around the two rounds directly, so
/// `verify_share` is measured rather than inferred.
fn measure_verify_heavy<B: VectorBackend<W>, const W: usize>(
    workload: &Workload,
    trace: &[u8],
    runs: usize,
    rows: &mut Vec<VerifyHeavyRow>,
) {
    if !B::is_available() {
        return;
    }
    let engine = VPatch::<B, W>::build(&workload.patterns);
    let mut scratch = Scratch::with_capacity_for(trace.len());
    let mut out = Vec::new();
    // Warm-up pass (tables + trace into cache, scratch to steady state).
    scratch.clear();
    engine.filter_round(trace, &mut scratch);
    let candidates = scratch.candidates();
    let mut stats = RunningStats::new();
    let mut filter_nanos = 0u64;
    let mut verify_nanos = 0u64;
    for _ in 0..runs {
        out.clear();
        scratch.begin_chunk();
        let t0 = Instant::now();
        engine.filter_round(trace, &mut scratch);
        let t1 = Instant::now();
        engine.verify_round(trace, &scratch, &mut out);
        let t2 = Instant::now();
        filter_nanos += (t1 - t0).as_nanos() as u64;
        verify_nanos += (t2 - t1).as_nanos() as u64;
        stats.push(mpm_bench::measure::gbps(
            trace.len(),
            (t2 - t0).as_secs_f64(),
        ));
    }
    rows.push(VerifyHeavyRow {
        backend: B::name().to_string(),
        lanes: W,
        verify: "batched".to_string(),
        gbps: stats.mean(),
        gbps_std: stats.stddev(),
        verify_share: verify_nanos as f64 / (filter_nanos + verify_nanos).max(1) as f64,
        candidates_per_kib: candidates as f64 * 1024.0 / trace.len() as f64,
    });
}

/// Regroups the workload's contents into a multi-content rule set: every
/// run of `contents_per_rule` consecutive patterns becomes one rule, the
/// secondary contents tied to their predecessor with `distance:0` (the
/// commonest Snort idiom). All contents are kept — the rule analogue of
/// `longest_content_only: false` — and the set's anchor selection picks
/// which one the engines search for.
fn ruleset_from_patterns(
    patterns: &mpm_patterns::PatternSet,
    contents_per_rule: usize,
) -> mpm_patterns::RuleSet {
    let rules = patterns
        .patterns()
        .chunks(contents_per_rule)
        .map(|chunk| {
            let contents = chunk
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let c = mpm_patterns::RuleContent::new(p.bytes().to_vec())
                        .with_nocase(p.is_nocase());
                    if i == 0 {
                        c
                    } else {
                        c.with_distance(0)
                    }
                })
                .collect();
            mpm_patterns::Rule::new(chunk[0].group(), contents)
        })
        .collect();
    mpm_patterns::RuleSet::new(rules)
}

/// Measures one backend on the rule workload: anchors-only (plain engine
/// scan of the anchor set — the cost floor) and confirmation-on
/// (anchor-gated `scan_rules`).
fn measure_ruleset<B: VectorBackend<W>, const W: usize>(
    set: &mpm_patterns::RuleSet,
    trace: &[u8],
    runs: usize,
    rows: &mut Vec<RulesetRow>,
) {
    if !B::is_available() {
        return;
    }
    let engine: std::sync::Arc<dyn Matcher + Send + Sync> =
        std::sync::Arc::new(VPatch::<B, W>::build(set.anchors()));
    let anchors_only = measure_closure(trace.len(), runs, || engine.count(trace));
    rows.push(RulesetRow {
        backend: B::name().to_string(),
        lanes: W,
        config: "anchors-only".to_string(),
        gbps: anchors_only.gbps_mean,
        gbps_std: anchors_only.gbps_std,
        rules: set.len(),
        confirmed: 0,
    });
    let scanner = mpm_verify::RuleScanner::new(engine, set);
    let mut confirmed = 0usize;
    let with_confirmation = measure_closure(trace.len(), runs, || {
        let hits = scanner.scan_rules(trace);
        confirmed = hits.len();
        hits.len() as u64
    });
    rows.push(RulesetRow {
        backend: B::name().to_string(),
        lanes: W,
        config: "confirmation".to_string(),
        gbps: with_confirmation.gbps_mean,
        gbps_std: with_confirmation.gbps_std,
        rules: set.len(),
        confirmed,
    });
}

/// Measures grouped vs monolithic scanning of the scaled rulesets. Traffic
/// is the trace cut into one flow per port group, each flow addressed to
/// its group's port — the realistic shape where grouping pays: every flow
/// is scanned against its own replica (plus catch-alls) instead of all
/// `scale` replicas.
fn measure_ruleset_scaling(workload: &Workload, runs: usize) -> Vec<ScalingRow> {
    use mpm_patterns::{FlowTuple, GroupedRuleSet, Proto};
    use mpm_stream::GroupedEngineSet;
    use std::sync::Arc;
    // A 600-pattern base keeps the 30× point (18K rules) tractable while
    // preserving the s1 length/prefix mix.
    let base = workload.pattern_subset(600);
    let trace = &workload.traces[0].1;
    let mut rows = Vec::new();
    for scale in [10usize, 30] {
        let grouped = GroupedRuleSet::new(mpm_bench::workload::scaled_grouped_rules(&base, scale));
        let mono_set = grouped.monolithic().clone();
        let rules = grouped.len();
        let engines = Arc::new(GroupedEngineSet::build_with(grouped, |set, arena| {
            Arc::from(mpm_vpatch::build_auto_with_arena(set, arena))
        }));

        let chunk = trace.len() / scale;
        let flows: Vec<(FlowTuple, &[u8])> = (0..scale)
            .map(|r| {
                (
                    FlowTuple::new(Proto::Tcp, 40000, 2000 + r as u16),
                    &trace[r * chunk..(r + 1) * chunk],
                )
            })
            .collect();
        let total: usize = flows.iter().map(|(_, payload)| payload.len()).sum();

        let mut confirmed_grouped = 0usize;
        let grouped_run = measure_closure(total, runs, || {
            let mut n = 0u64;
            for (tuple, payload) in &flows {
                n += engines.scan_flow(Some(*tuple), payload).len() as u64;
            }
            confirmed_grouped = n as usize;
            n
        });

        let mono_engine: Arc<dyn Matcher + Send + Sync> =
            Arc::from(mpm_vpatch::build_auto(mono_set.anchors()));
        let mono_engine_bytes = mono_engine.memory_footprint().total();
        let scanner = mpm_verify::RuleScanner::new(mono_engine, &mono_set);
        let mut confirmed_monolithic = 0usize;
        let mono_run = measure_closure(total, runs, || {
            let mut n = 0u64;
            for (tuple, payload) in &flows {
                // Post-hoc header filter: what a monolithic deployment must
                // do to report only the flow's applicable rules.
                n += scanner
                    .scan_rules(payload)
                    .iter()
                    .filter(|m| engines.grouped().applies_to(m.rule, *tuple))
                    .count() as u64;
            }
            confirmed_monolithic = n as usize;
            n
        });

        let grouped_bytes = engines.memory_footprint().total();
        let monolithic_bytes = mono_engine_bytes + scanner.confirmer().heap_bytes();
        rows.push(ScalingRow {
            scale,
            rules,
            port_groups: engines.group_count(),
            unique_engines: engines.unique_engine_count(),
            grouped_gbps: grouped_run.gbps_mean,
            grouped_gbps_std: grouped_run.gbps_std,
            monolithic_gbps: mono_run.gbps_mean,
            monolithic_gbps_std: mono_run.gbps_std,
            speedup: grouped_run.gbps_mean / mono_run.gbps_mean.max(f64::MIN_POSITIVE),
            grouped_bytes,
            monolithic_bytes,
            memory_ratio: grouped_bytes as f64 / monolithic_bytes.max(1) as f64,
            confirmed_grouped,
            confirmed_monolithic,
        });
    }
    rows
}

/// Builds the per-engine memory section on the s1 ruleset (the figure
/// engines at the widest platform this machine models, plus Wu-Manber).
fn memory_section(workload: &Workload) -> Vec<MemoryRow> {
    let mut rows = Vec::new();
    let platform = if <Avx512Backend as VectorBackend<16>>::is_available() {
        Platform::XeonPhi
    } else {
        Platform::Haswell
    };
    for kind in EngineKind::ALL {
        let engine = build_engine(kind, &workload.patterns, platform);
        let fp = engine.memory_footprint();
        rows.push(MemoryRow {
            engine: kind.label().to_string(),
            filter_bytes: fp.filter_bytes,
            verify_bytes: fp.verify_bytes,
            other_bytes: fp.other_bytes,
            total_bytes: fp.total(),
        });
    }
    let wm = mpm_wu_manber::WuManber::build(&workload.patterns);
    let fp = wm.memory_footprint();
    rows.push(MemoryRow {
        engine: wm.name().to_string(),
        filter_bytes: fp.filter_bytes,
        verify_bytes: fp.verify_bytes,
        other_bytes: fp.other_bytes,
        total_bytes: fp.total(),
    });
    rows
}

fn main() {
    let options = Options::from_env();
    let workload =
        Workload::build_with_traces(options.ruleset, options.trace_mib, &[TraceKind::IscxDay2]);
    let trace = &workload.traces[0].1;

    if options.latency_only {
        // CI latency artifact: just the pipeline-latency subsection.
        let latency =
            multicore::run_latency_auto(&workload.patterns, trace, &[1, 2, 4, 8], options.runs);
        println!("{}", report::to_json(&latency));
        return;
    }

    if options.resilience_only {
        // Resilience artifact: Block vs Shed dispatch over the bursty
        // flow-skewed packetization at a deliberately tiny ring.
        let resilience =
            multicore::run_resilience_auto(&workload.patterns, trace, 4, 2, options.runs);
        println!("{}", report::to_json(&resilience));
        return;
    }

    let mut rows = Vec::new();
    // Case-sensitive-only rows: the historical byte-exact fast path — these
    // are the rows the zero-regression claim compares across snapshots.
    measure_all_backends(&workload, options.runs, "", &mut rows);
    // Mixed-case rows: ~1/3 of the patterns nocase (folded filters +
    // to_ascii_lower on the window registers) over case-mutated traffic.
    let mixed = workload.mixed_case_variant(0x5eed);
    measure_all_backends(&mixed, options.runs, " (mixed-case)", &mut rows);

    // Verify-heavy adversarial rows: end-to-end scans where verification
    // dominates.
    let heavy = workload.verify_heavy_variant(0x5eed);
    let heavy_trace = &heavy.traces[0].1;
    let mut verify_heavy = Vec::new();
    measure_verify_heavy::<ScalarBackend, 8>(&heavy, heavy_trace, options.runs, &mut verify_heavy);
    measure_verify_heavy::<Avx2Backend, 8>(&heavy, heavy_trace, options.runs, &mut verify_heavy);
    measure_verify_heavy::<Avx512Backend, 16>(&heavy, heavy_trace, options.runs, &mut verify_heavy);

    // Rule-confirmation rows: the same s1-http contents regrouped two per
    // rule, on the same trace, confirmation off vs on.
    let rule_set = ruleset_from_patterns(&workload.patterns, 2);
    let mut rule_confirmation = Vec::new();
    measure_ruleset::<ScalarBackend, 8>(&rule_set, trace, options.runs, &mut rule_confirmation);
    measure_ruleset::<Avx2Backend, 8>(&rule_set, trace, options.runs, &mut rule_confirmation);
    measure_ruleset::<Avx512Backend, 16>(&rule_set, trace, options.runs, &mut rule_confirmation);

    let mut multicore =
        multicore::run_scaling_auto(&workload.patterns, trace, &[1, 2, 4, 8], options.runs);
    multicore.latency =
        multicore::run_latency_auto(&workload.patterns, trace, &[1, 2, 4, 8], options.runs);

    let snapshot = BaselineSnapshot {
        label: "current".to_string(),
        source: format!(
            "bench_baseline bin (filter_only + verify-heavy end-to-end via direct phase timing + resilience Block/Shed A/B on the bursty packetization, {} runs after warm-up)",
            options.runs
        ),
        ruleset: options.ruleset.label().to_string(),
        trace_mib: options.trace_mib,
        runs: options.runs,
        rows,
        verify_heavy,
        rule_confirmation,
        ruleset_scaling: measure_ruleset_scaling(&workload, options.runs),
        memory: memory_section(&workload),
        multicore,
        resilience: multicore::run_resilience_auto(&workload.patterns, trace, 4, 2, options.runs),
    };
    println!("{}", report::to_json(&snapshot));
}
