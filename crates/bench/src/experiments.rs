//! The experiment runners: one function per figure of the paper.
//!
//! Each function returns a serialisable result structure; the figure binaries
//! print them as text tables (or JSON with `--json`); README § "Reproducing
//! the paper's figures" shows how to run them.

use crate::engines::{build_engine, EngineKind, Platform};
use crate::measure::{measure_closure, measure_throughput, Measurement};
use crate::options::Options;
use crate::workload::Workload;
use mpm_cachesim::{replay_aho_corasick, replay_dfc, replay_vpatch, CacheConfig};
use mpm_patterns::Matcher;
use mpm_simd::{Avx2Backend, ScalarBackend, VectorBackend};
use mpm_traffic::{MatchDensityGenerator, TraceKind};
use mpm_vpatch::{FilterOnlyMode, SPatch, Scratch, VPatch};
use serde::Serialize;

/// One bar of Figure 4 / Figure 7: an engine's throughput on one trace.
#[derive(Clone, Debug, Serialize)]
pub struct ThroughputRow {
    /// Trace label ("ISCX day2", ...).
    pub trace: String,
    /// Engine label ("Aho-Corasick", ...).
    pub engine: String,
    /// Measured throughput.
    pub measurement: Measurement,
    /// Throughput relative to DFC on the same trace (the number the paper
    /// prints above each bar).
    pub speedup_vs_dfc: f64,
}

/// Figure 4 / Figure 7 result: all engines × all traces.
#[derive(Clone, Debug, Serialize)]
pub struct ThroughputFigure {
    /// Which figure this reproduces ("4a", "4b", "7a", "7b").
    pub figure: String,
    /// Ruleset description.
    pub ruleset: String,
    /// Platform description (lane count + backend actually used).
    pub platform: String,
    /// Number of patterns handed to the engines.
    pub pattern_count: usize,
    /// One row per (trace, engine).
    pub rows: Vec<ThroughputRow>,
}

/// Runs the Figure 4 (Haswell) or Figure 7 (Xeon-Phi width) experiment.
pub fn run_throughput_figure(options: &Options, platform: Platform) -> ThroughputFigure {
    let workload = Workload::build(options.ruleset, options.trace_mib);
    let figure = match (platform, options.ruleset) {
        (Platform::Haswell, crate::workload::RulesetChoice::S1) => "4a",
        (Platform::Haswell, _) => "4b",
        (Platform::XeonPhi, crate::workload::RulesetChoice::S1) => "7a",
        (Platform::XeonPhi, _) => "7b",
    };
    // Engines are compiled once (construction cost is not part of the
    // figure; the paper measures steady-state scan throughput).
    let engines: Vec<(EngineKind, Box<dyn Matcher + Send + Sync>)> = EngineKind::ALL
        .iter()
        .map(|&k| (k, build_engine(k, &workload.patterns, platform)))
        .collect();
    let mut rows = Vec::new();
    for (kind, trace) in &workload.traces {
        // Measure every engine on this trace, then normalise to DFC.
        let mut measurements = Vec::new();
        for (engine_kind, engine) in &engines {
            let m = measure_throughput(engine.as_ref(), trace, options.runs);
            measurements.push((*engine_kind, m));
        }
        let dfc_gbps = measurements
            .iter()
            .find(|(k, _)| *k == EngineKind::Dfc)
            .map(|(_, m)| m.gbps_mean)
            .unwrap_or(1.0);
        for (engine_kind, m) in measurements {
            rows.push(ThroughputRow {
                trace: kind.label().to_string(),
                engine: engine_kind.label().to_string(),
                measurement: m,
                speedup_vs_dfc: m.gbps_mean / dfc_gbps,
            });
        }
    }
    ThroughputFigure {
        figure: figure.to_string(),
        ruleset: options.ruleset.label().to_string(),
        platform: platform.describe(),
        pattern_count: workload.patterns.len(),
        rows,
    }
}

/// One point of Figure 5a: throughput of S-PATCH and V-PATCH at a pattern
/// count.
#[derive(Clone, Debug, Serialize)]
pub struct ScalingPoint {
    /// Number of patterns.
    pub patterns: usize,
    /// S-PATCH throughput.
    pub spatch: Measurement,
    /// V-PATCH throughput.
    pub vpatch: Measurement,
    /// V-PATCH / S-PATCH speedup (right axis of Figure 5a).
    pub speedup: f64,
}

/// Figure 5a result.
#[derive(Clone, Debug, Serialize)]
pub struct ScalingFigure {
    /// Pattern counts swept.
    pub points: Vec<ScalingPoint>,
    /// Platform description.
    pub platform: String,
}

/// Default pattern-count sweep (the paper sweeps 0–20,000).
pub const PATTERN_SWEEP: [usize; 6] = [1_000, 2_500, 5_000, 10_000, 15_000, 20_000];

/// Runs the Figure 5a experiment: throughput vs number of patterns.
pub fn run_pattern_scaling(options: &Options, sweep: &[usize]) -> ScalingFigure {
    let workload = Workload::build_with_traces(
        crate::workload::RulesetChoice::Full,
        options.trace_mib,
        &[TraceKind::IscxDay2],
    );
    let trace = &workload.traces[0].1;
    let platform = Platform::Haswell;
    let mut points = Vec::new();
    for &n in sweep {
        let subset = workload.pattern_subset(n);
        let spatch = build_engine(EngineKind::SPatch, &subset, platform);
        let vpatch = build_engine(EngineKind::VPatch, &subset, platform);
        let sm = measure_throughput(spatch.as_ref(), trace, options.runs);
        let vm = measure_throughput(vpatch.as_ref(), trace, options.runs);
        points.push(ScalingPoint {
            patterns: n,
            speedup: vm.gbps_mean / sm.gbps_mean,
            spatch: sm,
            vpatch: vm,
        });
    }
    ScalingFigure {
        points,
        platform: platform.describe(),
    }
}

/// One point of Figure 5b: the two instrumentation series.
#[derive(Clone, Debug, Serialize)]
pub struct InstrumentationPoint {
    /// Number of patterns.
    pub patterns: usize,
    /// Percentage of total time spent in the filtering round.
    pub filtering_time_pct: f64,
    /// Percentage of useful (active) lanes when the third filter runs.
    pub useful_lanes_pct: f64,
    /// Fraction of windows forwarded to verification.
    pub candidate_rate: f64,
}

/// Figure 5b result.
#[derive(Clone, Debug, Serialize)]
pub struct InstrumentationFigure {
    /// One point per pattern count.
    pub points: Vec<InstrumentationPoint>,
    /// Lane count used.
    pub lanes: usize,
}

/// Runs the Figure 5b experiment: filtering/total time ratio and useful-lane
/// occupancy vs number of patterns.
pub fn run_instrumentation(options: &Options, sweep: &[usize]) -> InstrumentationFigure {
    let workload = Workload::build_with_traces(
        crate::workload::RulesetChoice::Full,
        options.trace_mib,
        &[TraceKind::IscxDay2],
    );
    let trace = &workload.traces[0].1;
    let mut points = Vec::new();
    const LANES: usize = 8;
    for &n in sweep {
        let subset = workload.pattern_subset(n);
        let stats = if <Avx2Backend as VectorBackend<8>>::is_available() {
            VPatch::<Avx2Backend, LANES>::build(&subset).scan_with_stats(trace)
        } else {
            VPatch::<ScalarBackend, LANES>::build(&subset).scan_with_stats(trace)
        };
        points.push(InstrumentationPoint {
            patterns: n,
            filtering_time_pct: stats.filtering_time_fraction().unwrap_or(0.0) * 100.0,
            useful_lanes_pct: stats.useful_lane_fraction(LANES).unwrap_or(0.0) * 100.0,
            candidate_rate: stats.candidates as f64 / stats.bytes_scanned.max(1) as f64,
        });
    }
    InstrumentationFigure {
        points,
        lanes: LANES,
    }
}

/// One point of Figure 5c.
#[derive(Clone, Debug, Serialize)]
pub struct MatchDensityPoint {
    /// Requested fraction of matching input.
    pub fraction: f64,
    /// S-PATCH throughput.
    pub spatch: Measurement,
    /// V-PATCH throughput.
    pub vpatch: Measurement,
    /// V-PATCH / S-PATCH speedup (the annotated numbers of Figure 5c).
    pub speedup: f64,
}

/// Figure 5c result.
#[derive(Clone, Debug, Serialize)]
pub struct MatchDensityFigure {
    /// One point per match fraction.
    pub points: Vec<MatchDensityPoint>,
    /// Number of patterns in the rule subset (the paper uses 2,000).
    pub patterns: usize,
}

/// Runs the Figure 5c experiment: speedup vs fraction of matching input.
pub fn run_match_density(options: &Options, fractions: &[f64]) -> MatchDensityFigure {
    let workload = Workload::build_with_traces(
        crate::workload::RulesetChoice::Full,
        options.trace_mib,
        &[TraceKind::Random],
    );
    let patterns = workload.pattern_subset(2_000);
    let generator = MatchDensityGenerator::new(options.trace_mib * 1024 * 1024, 0x000f_165c);
    let platform = Platform::Haswell;
    let spatch = build_engine(EngineKind::SPatch, &patterns, platform);
    let vpatch = build_engine(EngineKind::VPatch, &patterns, platform);
    let mut points = Vec::new();
    for &fraction in fractions {
        let input = generator.generate(&patterns, fraction);
        let sm = measure_throughput(spatch.as_ref(), &input, options.runs);
        let vm = measure_throughput(vpatch.as_ref(), &input, options.runs);
        points.push(MatchDensityPoint {
            fraction,
            speedup: vm.gbps_mean / sm.gbps_mean,
            spatch: sm,
            vpatch: vm,
        });
    }
    MatchDensityFigure {
        points,
        patterns: patterns.len(),
    }
}

/// One row of Figure 6: a filtering-only configuration on one trace.
#[derive(Clone, Debug, Serialize)]
pub struct FilteringRow {
    /// Trace label.
    pub trace: String,
    /// Configuration label ("S-PATCH-filtering", "V-PATCH-filtering+stores",
    /// "V-PATCH-filtering").
    pub config: String,
    /// Measured filtering throughput.
    pub measurement: Measurement,
    /// Speedup relative to S-PATCH filtering on the same trace.
    pub speedup_vs_spatch: f64,
}

/// Figure 6 result.
#[derive(Clone, Debug, Serialize)]
pub struct FilteringFigure {
    /// Which sub-figure ("6a", "6b", "6c") based on the ruleset.
    pub figure: String,
    /// Ruleset description.
    pub ruleset: String,
    /// One row per (trace, configuration).
    pub rows: Vec<FilteringRow>,
}

/// Runs the Figure 6 experiment: filtering-phase throughput in isolation.
pub fn run_filtering_only(options: &Options) -> FilteringFigure {
    let workload =
        Workload::build_with_traces(options.ruleset, options.trace_mib, &TraceKind::REALISTIC);
    let figure = match options.ruleset {
        crate::workload::RulesetChoice::S1 => "6a",
        crate::workload::RulesetChoice::S2 => "6b",
        crate::workload::RulesetChoice::Full => "6c",
    };
    let spatch = SPatch::build(&workload.patterns);
    let avx2 = <Avx2Backend as VectorBackend<8>>::is_available();
    let vpatch_avx2;
    let vpatch_scalar;
    let vpatch: &dyn VPatchFilterOnly = if avx2 {
        vpatch_avx2 = VPatch::<Avx2Backend, 8>::build(&workload.patterns);
        &vpatch_avx2
    } else {
        vpatch_scalar = VPatch::<ScalarBackend, 8>::build(&workload.patterns);
        &vpatch_scalar
    };

    let mut rows = Vec::new();
    for (kind, trace) in &workload.traces {
        let mut scratch = Scratch::with_capacity_for(trace.len());
        let s_meas = measure_closure(trace.len(), options.runs, || {
            scratch.clear();
            spatch.filter_round(trace, &mut scratch);
            scratch.candidates()
        });
        let v_store_meas = measure_closure(trace.len(), options.runs, || {
            vpatch.filter_only_dyn(trace, FilterOnlyMode::WithStores, &mut scratch)
        });
        let v_pure_meas = measure_closure(trace.len(), options.runs, || {
            vpatch.filter_only_dyn(trace, FilterOnlyMode::NoStores, &mut scratch)
        });
        for (config, m) in [
            ("S-PATCH-filtering", s_meas),
            ("V-PATCH-filtering+stores", v_store_meas),
            ("V-PATCH-filtering", v_pure_meas),
        ] {
            rows.push(FilteringRow {
                trace: kind.label().to_string(),
                config: config.to_string(),
                speedup_vs_spatch: m.gbps_mean / s_meas.gbps_mean,
                measurement: m,
            });
        }
    }
    FilteringFigure {
        figure: figure.to_string(),
        ruleset: options.ruleset.label().to_string(),
        rows,
    }
}

/// Object-safe shim so `run_filtering_only` can hold either VPatch
/// instantiation behind one reference.
trait VPatchFilterOnly {
    fn filter_only_dyn(&self, input: &[u8], mode: FilterOnlyMode, scratch: &mut Scratch) -> u64;
}

impl<B: VectorBackend<8>> VPatchFilterOnly for VPatch<B, 8> {
    fn filter_only_dyn(&self, input: &[u8], mode: FilterOnlyMode, scratch: &mut Scratch) -> u64 {
        self.filter_only(input, mode, scratch)
    }
}

/// Cache-simulation results for one engine on one hierarchy.
#[derive(Clone, Debug, Serialize)]
pub struct CacheRow {
    /// Engine label.
    pub engine: String,
    /// Hierarchy name ("haswell" / "xeon-phi").
    pub config: String,
    /// Data-structure accesses issued.
    pub accesses: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// Accesses that reached memory.
    pub memory_accesses: u64,
    /// L1 miss ratio.
    pub l1_miss_ratio: f64,
}

/// Cache-ablation result (the §II-B and §V-E claims).
#[derive(Clone, Debug, Serialize)]
pub struct CacheFigure {
    /// One row per engine × hierarchy.
    pub rows: Vec<CacheRow>,
    /// AC-to-DFC L1 miss-*ratio* ratio on Haswell (how much worse AC's
    /// per-access locality is; the paper reports up to 3.8× fewer misses).
    pub ac_over_dfc_l1_misses: f64,
}

/// Runs the cache-locality ablation.
pub fn run_cache_ablation(options: &Options) -> CacheFigure {
    // A smaller trace keeps the replay fast; the ratios stabilise quickly.
    let mib = options.trace_mib.min(4);
    let workload = Workload::build_with_traces(options.ruleset, mib, &[TraceKind::IscxDay2]);
    let trace = &workload.traces[0].1;
    let dfa = mpm_aho_corasick::DfaMatcher::build(&workload.patterns);
    let dfc = mpm_dfc::Dfc::build(&workload.patterns);
    let spatch = SPatch::build(&workload.patterns);

    let mut rows = Vec::new();
    let mut ac_ratio = 0.0f64;
    let mut dfc_ratio = 0.0f64;
    for config in [CacheConfig::haswell(), CacheConfig::xeon_phi()] {
        let ac = replay_aho_corasick(&dfa, trace, config);
        let dfc_r = replay_dfc(&dfc, trace, config);
        let vp = replay_vpatch(&spatch, trace, config);
        if config.name == "haswell" {
            ac_ratio = ac.report.l1_miss_ratio();
            dfc_ratio = dfc_r.report.l1_miss_ratio();
        }
        for (engine, outcome) in [
            ("Aho-Corasick", ac),
            ("DFC", dfc_r),
            ("S-PATCH/V-PATCH", vp),
        ] {
            rows.push(CacheRow {
                engine: engine.to_string(),
                config: config.name.to_string(),
                accesses: outcome.report.accesses,
                l1_misses: outcome.report.l1_misses(),
                memory_accesses: outcome.report.memory_accesses,
                l1_miss_ratio: outcome.report.l1_miss_ratio(),
            });
        }
    }
    CacheFigure {
        rows,
        ac_over_dfc_l1_misses: ac_ratio / dfc_ratio.max(1e-12),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::RulesetChoice;

    fn tiny_options() -> Options {
        Options {
            ruleset: RulesetChoice::S1,
            trace_mib: 1,
            runs: 1,
            json: false,
        }
    }

    #[test]
    fn figure4_smoke_run_produces_all_rows() {
        let fig = run_throughput_figure(&tiny_options(), Platform::Haswell);
        assert_eq!(fig.figure, "4a");
        assert_eq!(fig.rows.len(), 4 * 5);
        // Identical match counts across engines on the same trace.
        for trace in ["ISCX day2", "ISCX day6", "DARPA 2000", "random"] {
            let counts: Vec<u64> = fig
                .rows
                .iter()
                .filter(|r| r.trace == trace)
                .map(|r| r.measurement.matches)
                .collect();
            assert!(
                counts.windows(2).all(|w| w[0] == w[1]),
                "{trace}: {counts:?}"
            );
        }
        // DFC's speedup-vs-DFC is 1 by construction.
        for row in fig.rows.iter().filter(|r| r.engine == "DFC") {
            assert!((row.speedup_vs_dfc - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn figure5_smoke_runs() {
        let options = tiny_options();
        let scaling = run_pattern_scaling(&options, &[500, 1_000]);
        assert_eq!(scaling.points.len(), 2);
        assert!(scaling.points.iter().all(|p| p.speedup > 0.0));

        let instr = run_instrumentation(&options, &[500, 1_000]);
        assert_eq!(instr.points.len(), 2);
        for p in &instr.points {
            assert!(p.filtering_time_pct > 0.0 && p.filtering_time_pct <= 100.0);
            assert!(p.useful_lanes_pct >= 0.0 && p.useful_lanes_pct <= 100.0);
        }

        let density = run_match_density(&options, &[0.0, 0.5]);
        assert_eq!(density.points.len(), 2);
        assert_eq!(density.patterns, 2_000);
    }

    #[test]
    fn figure6_and_cache_smoke_runs() {
        let options = tiny_options();
        let filtering = run_filtering_only(&options);
        assert_eq!(filtering.figure, "6a");
        assert_eq!(filtering.rows.len(), 3 * 3);
        for row in filtering
            .rows
            .iter()
            .filter(|r| r.config == "S-PATCH-filtering")
        {
            assert!((row.speedup_vs_spatch - 1.0).abs() < 1e-9);
        }

        let cache = run_cache_ablation(&options);
        assert_eq!(cache.rows.len(), 6);
        assert!(cache.ac_over_dfc_l1_misses > 1.0);
    }
}
