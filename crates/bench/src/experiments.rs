//! The experiment runners: one function per figure of the paper, each
//! returning its [`Table`], and [`FIGURES`], the list the figure binaries
//! [`run`] by name. README § "Reproducing the paper's figures" shows how to
//! run them.

use crate::engines::{build_engine, with_backend, EngineKind, Platform};
use crate::measure::{measure_closure, measure_throughput};
use crate::options::Options;
use crate::report::{Cell, Table};
use crate::workload::{RulesetChoice, Workload};
use mpm_cachesim::{replay_aho_corasick, replay_dfc, replay_vpatch, CacheConfig};
use mpm_patterns::Matcher;
use mpm_traffic::{MatchDensityGenerator, TraceKind};
use mpm_vpatch::{FilterOnlyMode, SPatch, SPatchTables, Scratch, VPatch};

/// A figure's experiment: options and sweeps in, its table out.
pub type Experiment = fn(&Options, &Sweeps) -> Table;

/// The values the sweeping figures walk.
#[derive(Clone, Copy, Debug)]
pub struct Sweeps {
    /// Pattern counts (Figures 5a and 5b; the paper sweeps 0–20,000).
    pub patterns: &'static [usize],
    /// Fractions of matching input (Figure 5c).
    pub fractions: &'static [f64],
    /// Filter-3 sizes in address bits (the filter ablation).
    pub filter3_bits: &'static [u32],
}

/// The sweeps the figure binaries run.
pub const PAPER_SWEEPS: Sweeps = Sweeps {
    patterns: &[1_000, 2_500, 5_000, 10_000, 15_000, 20_000],
    fractions: &[0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
    filter3_bits: &[12, 14, 16, 17, 20, 22],
};

/// Every figure binary's name and the experiment it runs.
pub const FIGURES: [(&str, Experiment); 8] = [
    ("fig4", |o, _| run_throughput_figure(o, Platform::Haswell)),
    ("fig5a", |o, s| run_pattern_scaling(o, s.patterns)),
    ("fig5b", |o, s| run_instrumentation(o, s.patterns)),
    ("fig5c", |o, s| run_match_density(o, s.fractions)),
    ("fig6", |o, _| run_filtering_only(o)),
    ("fig7", |o, _| run_throughput_figure(o, Platform::XeonPhi)),
    ("cache_ablation", |o, _| run_cache_ablation(o)),
    ("filter_ablation", |o, s| {
        run_filter_ablation(o, s.filter3_bits)
    }),
];

/// Runs the figure `name` of [`FIGURES`] over the paper's sweeps and prints
/// its table: text, or JSON with `--json`.
pub fn run(name: &str, options: &Options) {
    let (_, experiment) = FIGURES
        .iter()
        .find(|(figure, _)| *figure == name)
        .expect("every figure binary is listed in FIGURES");
    let table = experiment(options, &PAPER_SWEEPS);
    if options.json {
        println!("{}", table.to_json());
    } else {
        print!("{}", table.to_text());
    }
}

/// Runs the Figure 4 (Haswell) or Figure 7 (Xeon-Phi width) experiment:
/// every engine's throughput on every trace, and its speedup over DFC on
/// that trace (the number the paper prints above each bar).
pub fn run_throughput_figure(options: &Options, platform: Platform) -> Table {
    let workload = Workload::build(options.ruleset, options.trace_mib);
    let figure = match (platform, options.ruleset) {
        (Platform::Haswell, RulesetChoice::S1) => "4a",
        (Platform::Haswell, _) => "4b",
        (Platform::XeonPhi, RulesetChoice::S1) => "7a",
        (Platform::XeonPhi, _) => "7b",
    };
    let mut table = Table::new(
        format!(
            "Figure {figure}: {} — {} ({} patterns)",
            options.ruleset.label(),
            platform.describe(),
            workload.patterns.len()
        ),
        &[
            "trace",
            "engine",
            "Gbps(mean)",
            "±std",
            "speedup/DFC",
            "matches",
        ],
    );
    // Engines are compiled once (construction cost is not part of the
    // figure; the paper measures steady-state scan throughput).
    let engines: Vec<(EngineKind, Box<dyn Matcher + Send + Sync>)> = EngineKind::ALL
        .iter()
        .map(|&k| (k, build_engine(k, &workload.patterns, platform)))
        .collect();
    for (kind, trace) in &workload.traces {
        // Measure every engine on this trace, then normalise to DFC.
        let measurements: Vec<_> = engines
            .iter()
            .map(|(k, engine)| (*k, measure_throughput(engine.as_ref(), trace, options.runs)))
            .collect();
        let dfc = measurements.iter().find(|(k, _)| *k == EngineKind::Dfc);
        let dfc_gbps = dfc.expect("DFC is one of the engines").1.gbps_mean;
        for (engine, m) in measurements {
            table.rows.push(vec![
                Cell::Text(kind.label().into()),
                Cell::Text(engine.label().into()),
                Cell::Gbps(m.gbps_mean),
                Cell::Gbps(m.gbps_std),
                Cell::Ratio(m.gbps_mean / dfc_gbps, 2),
                Cell::Int(m.matches),
            ]);
        }
    }
    table
}

/// The full 20K-pattern workload over one ISCX-like trace that the
/// pattern-count sweeps (Figures 5a and 5b) draw their subsets from.
fn sweep_workload(options: &Options) -> Workload {
    Workload::build_with_traces(
        RulesetChoice::Full,
        options.trace_mib,
        &[TraceKind::IscxDay2],
    )
}

/// Runs the Figure 5a experiment: throughput vs number of patterns.
pub fn run_pattern_scaling(options: &Options, sweep: &[usize]) -> Table {
    let workload = sweep_workload(options);
    let trace = &workload.traces[0].1;
    let platform = Platform::Haswell;
    let mut table = Table::new(
        format!(
            "Figure 5a: throughput vs number of patterns — {}",
            platform.describe()
        ),
        &["patterns", "S-PATCH (Gbps)", "V-PATCH (Gbps)", "speedup"],
    );
    for &n in sweep {
        let subset = workload.pattern_subset(n);
        let spatch = build_engine(EngineKind::SPatch, &subset, platform);
        let vpatch = build_engine(EngineKind::VPatch, &subset, platform);
        let s = measure_throughput(spatch.as_ref(), trace, options.runs);
        let v = measure_throughput(vpatch.as_ref(), trace, options.runs);
        table.rows.push(vec![
            Cell::Int(n as u64),
            Cell::Gbps(s.gbps_mean),
            Cell::Gbps(v.gbps_mean),
            Cell::Ratio(v.gbps_mean / s.gbps_mean, 2),
        ]);
    }
    table
}

/// Runs the Figure 5b experiment: filtering/total time ratio, useful-lane
/// occupancy of the third filter and the fraction of windows forwarded to
/// verification, vs number of patterns.
pub fn run_instrumentation(options: &Options, sweep: &[usize]) -> Table {
    let workload = sweep_workload(options);
    let trace = &workload.traces[0].1;
    let platform = Platform::Haswell;
    let lanes = platform.lanes();
    let mut table = Table::new(
        format!("Figure 5b: filtering share and vector-lane occupancy ({lanes} lanes)"),
        &[
            "patterns",
            "filtering time (%)",
            "useful lanes (%)",
            "candidate rate",
        ],
    );
    for &n in sweep {
        let vpatch = build_engine(EngineKind::VPatch, &workload.pattern_subset(n), platform);
        let stats = vpatch.scan_with_stats(trace);
        let candidate_rate = stats.candidates as f64 / stats.bytes_scanned.max(1) as f64;
        table.rows.push(vec![
            Cell::Int(n as u64),
            Cell::Percent(stats.filtering_time_fraction().unwrap_or(0.0) * 100.0),
            Cell::Percent(stats.useful_lane_fraction(lanes).unwrap_or(0.0) * 100.0),
            Cell::Ratio(candidate_rate, 4),
        ]);
    }
    table
}

/// Runs the Figure 5c experiment: speedup vs fraction of matching input, on
/// a 2,000-pattern subset (the paper's size).
pub fn run_match_density(options: &Options, fractions: &[f64]) -> Table {
    let patterns = Workload::build_with_traces(RulesetChoice::Full, options.trace_mib, &[])
        .pattern_subset(2_000);
    let generator = MatchDensityGenerator::new(options.trace_mib * 1024 * 1024, 0x000f_165c);
    let platform = Platform::Haswell;
    let spatch = build_engine(EngineKind::SPatch, &patterns, platform);
    let vpatch = build_engine(EngineKind::VPatch, &patterns, platform);
    let mut table = Table::new(
        format!(
            "Figure 5c: speedup vs fraction of matching input ({} patterns)",
            patterns.len()
        ),
        &["fraction", "S-PATCH (Gbps)", "V-PATCH (Gbps)", "speedup"],
    );
    for &fraction in fractions {
        let input = generator.generate(&patterns, fraction);
        let s = measure_throughput(spatch.as_ref(), &input, options.runs);
        let v = measure_throughput(vpatch.as_ref(), &input, options.runs);
        table.rows.push(vec![
            Cell::Text(format!("{:.0}%", fraction * 100.0)),
            Cell::Gbps(s.gbps_mean),
            Cell::Gbps(v.gbps_mean),
            Cell::Ratio(v.gbps_mean / s.gbps_mean, 2),
        ]);
    }
    table
}

/// Runs the Figure 6 experiment: filtering-phase throughput in isolation —
/// S-PATCH filtering, V-PATCH filtering with candidate stores, and pure
/// V-PATCH filtering — with each one's speedup over S-PATCH's.
pub fn run_filtering_only(options: &Options) -> Table {
    let workload =
        Workload::build_with_traces(options.ruleset, options.trace_mib, &TraceKind::REALISTIC);
    let figure = match options.ruleset {
        RulesetChoice::S1 => "6a",
        RulesetChoice::S2 => "6b",
        RulesetChoice::Full => "6c",
    };
    let mut table = Table::new(
        format!(
            "Figure {figure}: filtering-phase throughput — {}",
            options.ruleset.label()
        ),
        &[
            "trace",
            "configuration",
            "Gbps(mean)",
            "±std",
            "speedup/S-PATCH",
        ],
    );
    let spatch = SPatch::build(&workload.patterns);
    with_backend!(Platform::Haswell, |B, W| {
        let vpatch = VPatch::<B, W>::build(&workload.patterns);
        for (kind, trace) in &workload.traces {
            let mut scratch = Scratch::with_capacity_for(trace.len());
            let s = measure_closure(trace.len(), options.runs, || {
                scratch.clear();
                spatch.filter_round(trace, &mut scratch);
                scratch.candidates()
            });
            let [stores, pure] =
                [FilterOnlyMode::WithStores, FilterOnlyMode::NoStores].map(|mode| {
                    measure_closure(trace.len(), options.runs, || {
                        vpatch.filter_only(trace, mode, &mut scratch)
                    })
                });
            for (config, m) in [
                ("S-PATCH-filtering", s),
                ("V-PATCH-filtering+stores", stores),
                ("V-PATCH-filtering", pure),
            ] {
                table.rows.push(vec![
                    Cell::Text(kind.label().into()),
                    Cell::Text(config.into()),
                    Cell::Gbps(m.gbps_mean),
                    Cell::Gbps(m.gbps_std),
                    Cell::Ratio(m.gbps_mean / s.gbps_mean, 2),
                ]);
            }
        }
    });
    table
}

/// Runs the cache-locality ablation (the §II-B and §V-E claims): each
/// engine's data-structure accesses replayed through Haswell-like and
/// Xeon-Phi-like hierarchies. The note gives AC's L1 miss ratio over DFC's
/// on Haswell (the paper reports up to 3.8× fewer misses for DFC).
pub fn run_cache_ablation(options: &Options) -> Table {
    // A smaller trace keeps the replay fast; the ratios stabilise quickly.
    let mib = options.trace_mib.min(4);
    let workload = Workload::build_with_traces(options.ruleset, mib, &[TraceKind::IscxDay2]);
    let trace = &workload.traces[0].1;
    let dfa = mpm_aho_corasick::DfaMatcher::build(&workload.patterns);
    let dfc = mpm_dfc::Dfc::build(&workload.patterns);
    let spatch = SPatch::build(&workload.patterns);

    let mut table = Table::new(
        "Cache-locality ablation (simulated hierarchies)",
        &[
            "engine",
            "config",
            "accesses",
            "L1 misses",
            "mem accesses",
            "L1 miss ratio",
        ],
    );
    for config in [CacheConfig::haswell(), CacheConfig::xeon_phi()] {
        let [ac, dfc_r, vp] = [
            replay_aho_corasick(&dfa, trace, config).report,
            replay_dfc(&dfc, trace, config).report,
            replay_vpatch(&spatch, trace, config).report,
        ];
        if config.name == "haswell" {
            table.notes.push(format!(
                "AC / DFC per-access L1-miss-ratio on the Haswell hierarchy: {:.2}x (paper: up to 3.8x fewer misses for DFC)",
                ac.l1_miss_ratio() / dfc_r.l1_miss_ratio().max(1e-12)
            ));
        }
        for (engine, report) in [
            ("Aho-Corasick", ac),
            ("DFC", dfc_r),
            ("S-PATCH/V-PATCH", vp),
        ] {
            table.rows.push(vec![
                Cell::Text(engine.into()),
                Cell::Text(config.name.into()),
                Cell::Int(report.accesses),
                Cell::Int(report.l1_misses()),
                Cell::Int(report.memory_accesses),
                Cell::Ratio(report.l1_miss_ratio(), 4),
            ]);
        }
    }
    table
}

/// Runs the filter-3 size ablation (the §IV-A trade-off: a larger hashed
/// filter collides less and filters better, a smaller one lives higher in
/// the cache hierarchy): S-PATCH / V-PATCH throughput and the candidate
/// count for each filter-3 size.
pub fn run_filter_ablation(options: &Options, sweep: &[u32]) -> Table {
    let workload =
        Workload::build_with_traces(options.ruleset, options.trace_mib, &[TraceKind::IscxDay2]);
    let trace = &workload.traces[0].1;
    let mut table = Table::new(
        format!(
            "Filter-3 size ablation — {} ({} patterns, {} MiB ISCX-like trace)",
            options.ruleset.label(),
            workload.patterns.len(),
            options.trace_mib
        ),
        &[
            "filter3 bits",
            "filter3 KiB",
            "S-PATCH (Gbps)",
            "V-PATCH (Gbps)",
            "long candidates",
        ],
    );
    for &bits in sweep {
        let tables = SPatchTables::build_with_filter3_bits(&workload.patterns, bits);
        let filter3_kib = tables.filter3().heap_bytes() as f64 / 1024.0;
        let spatch = SPatch::from_tables(tables.clone());
        let vpatch: Box<dyn Matcher + Send + Sync> =
            with_backend!(Platform::Haswell, |B, W| Box::new(
                VPatch::<B, W>::from_tables(tables)
            ));
        let s = measure_throughput(&spatch, trace, options.runs);
        let v = measure_throughput(vpatch.as_ref(), trace, options.runs);
        table.rows.push(vec![
            Cell::Int(bits.into()),
            Cell::Ratio(filter3_kib, 1),
            Cell::Gbps(s.gbps_mean),
            Cell::Gbps(v.gbps_mean),
            Cell::Int(vpatch.scan_with_stats(trace).candidates),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn number(cell: &Cell) -> f64 {
        match cell {
            Cell::Int(n) => *n as f64,
            Cell::Gbps(v) | Cell::Ratio(v, _) | Cell::Percent(v) => *v,
            Cell::Text(text) => panic!("{text:?} is not a number"),
        }
    }

    /// Runs the figure `name` of [`FIGURES`] on a 1 MiB S1 workload over
    /// short sweeps, and checks its table has rows, each as wide as its
    /// header.
    fn run_small(name: &str) -> Table {
        let options = Options {
            ruleset: RulesetChoice::S1,
            trace_mib: 1,
            runs: 1,
            json: false,
        };
        let short = Sweeps {
            patterns: &[500, 1_000],
            fractions: &[0.0, 0.5],
            filter3_bits: &[12, 16],
        };
        let (_, experiment) = FIGURES
            .iter()
            .find(|(figure, _)| *figure == name)
            .expect("the figure is listed in FIGURES");
        let table = experiment(&options, &short);
        assert!(!table.rows.is_empty(), "{name}");
        assert!(
            table
                .rows
                .iter()
                .all(|row| row.len() == table.columns.len()),
            "{name}"
        );
        table
    }

    /// Checks a Figure 4 / Figure 7 table: four traces of five engines each,
    /// equal match counts per trace, and DFC's speedup over itself 1.
    fn check_throughput_table(table: &Table, figure: &str) {
        assert!(table.title.starts_with(figure), "{}", table.title);
        assert_eq!(table.rows.len(), 4 * 5);
        for engines in table.rows.chunks(5) {
            assert!(
                engines.iter().all(|row| row[5] == engines[0][5]),
                "{engines:?}"
            );
            assert_eq!(engines[1][1], Cell::Text("DFC".into()));
            assert_eq!(engines[1][4], Cell::Ratio(1.0, 2));
        }
    }

    #[test]
    fn figure4_smoke_run_produces_all_rows() {
        check_throughput_table(&run_small("fig4"), "Figure 4a:");
    }

    #[test]
    fn figure5_smoke_runs() {
        for name in ["fig5a", "fig5b", "fig5c"] {
            let table = run_small(name);
            assert_eq!(table.rows.len(), 2, "{name}");
            for row in &table.rows {
                if name == "fig5b" {
                    let (filtering, useful) = (number(&row[1]), number(&row[2]));
                    assert!(filtering > 0.0 && filtering <= 100.0, "{row:?}");
                    assert!((0.0..=100.0).contains(&useful), "{row:?}");
                } else {
                    assert!(number(&row[3]) > 0.0, "{name}: {row:?}");
                }
            }
            if name == "fig5c" {
                assert!(table.title.contains("(2000 patterns)"), "{}", table.title);
            }
        }
    }

    #[test]
    fn figure6_and_cache_smoke_runs() {
        let filtering = run_small("fig6");
        assert!(filtering.title.starts_with("Figure 6a:"));
        assert_eq!(filtering.rows.len(), 3 * 3);
        for configs in filtering.rows.chunks(3) {
            assert_eq!(configs[0][1], Cell::Text("S-PATCH-filtering".into()));
            assert_eq!(configs[0][4], Cell::Ratio(1.0, 2));
        }

        // Haswell's Aho-Corasick row first, then its DFC row.
        let cache = run_small("cache_ablation");
        assert_eq!(cache.rows.len(), 6);
        assert!(number(&cache.rows[0][5]) > number(&cache.rows[1][5]));
        assert_eq!(cache.notes.len(), 1);
    }

    #[test]
    fn every_figure_has_one_binary() {
        let bins = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        assert_eq!(std::fs::read_dir(&bins).unwrap().count(), FIGURES.len());
        for (name, _) in FIGURES {
            assert!(bins.join(format!("{name}.rs")).exists(), "{name}");
        }
    }

    #[test]
    fn figure7_and_filter_ablation_smoke_runs() {
        check_throughput_table(&run_small("fig7"), "Figure 7a:");
        // A larger filter 3 is bigger and lets fewer windows through.
        let ablation = run_small("filter_ablation");
        assert_eq!(ablation.rows.len(), 2);
        assert!(number(&ablation.rows[0][1]) < number(&ablation.rows[1][1]));
        assert!(number(&ablation.rows[0][4]) >= number(&ablation.rows[1][4]));
    }
}
