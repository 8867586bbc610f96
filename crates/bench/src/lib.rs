//! Benchmark harness reproducing every figure of the paper's evaluation.
//!
//! Every experiment in [`experiments`] returns one [`report::Table`], which
//! prints as a text table or, with `--json`, as JSON (`title`, `columns`,
//! `rows`, `notes`). Each binary is a one-line `main` handing its name to
//! [`experiments::run`], which looks it up in [`experiments::FIGURES`]:
//!
//! | binary | paper figure | what it prints |
//! |---|---|---|
//! | `fig4`  | Fig. 4a / 4b | throughput (Gbps) of AC, DFC, Vector-DFC, S-PATCH, V-PATCH on the four traces, plus speedups vs DFC |
//! | `fig5a` | Fig. 5a | S-PATCH / V-PATCH throughput and V/S speedup vs number of patterns |
//! | `fig5b` | Fig. 5b | filtering-time share and useful-lane share vs number of patterns |
//! | `fig5c` | Fig. 5c | V/S speedup vs fraction of matching input |
//! | `fig6`  | Fig. 6a/6b/6c | filtering-phase-only throughput (S-PATCH, V-PATCH ± stores) |
//! | `fig7`  | Fig. 7a / 7b | the Figure-4 experiment at the Xeon-Phi vector width (16 lanes) |
//! | `cache_ablation` | §II-B & §V-E claims | simulated cache misses of AC / DFC / V-PATCH on Haswell- and Phi-like hierarchies |
//! | `filter_ablation` | §IV-A trade-off | S-PATCH / V-PATCH throughput and long-candidate rate vs third-filter size |
//!
//! Run e.g. `cargo run --release -p mpm-bench --bin fig4 -- --ruleset s1`.
//! Sizes are scaled down from the paper's 1 GB traces by default so a full
//! figure takes seconds, not hours; use `--mb <N>` and `--runs <N>` to crank
//! them up (results are throughput-normalised, so the shape is unchanged).
//!
//! Criterion micro-benchmarks for the hot kernels live in `benches/`.
//!
//! This crate reproduces figures and times kernels; it tracks nothing. What
//! is compared PR-over-PR — the production pipeline end to end and layer by
//! layer — is the stand-alone `benchmark/` crate at the repository root.

#![warn(missing_docs)]

pub mod engines;
pub mod experiments;
pub mod measure;
pub mod options;
pub mod report;
pub mod workload;

pub use engines::EngineKind;
pub use measure::{measure_throughput, Measurement};
pub use options::Options;
pub use workload::{RulesetChoice, Workload};
