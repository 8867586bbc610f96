//! Ablation of the third-filter size (the trade-off the paper discusses in
//! §IV-A: a larger hashed filter collides less and filters better, a smaller
//! one lives higher in the cache hierarchy).
//!
//! Sweeps the filter-3 size and reports S-PATCH / V-PATCH throughput and the
//! long-candidate rate for each size.

fn main() {
    mpm_bench::experiments::run("filter_ablation", &mpm_bench::Options::from_env());
}
