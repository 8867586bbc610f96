//! Reproduces Figure 6 (a/b/c): throughput of the filtering phase in
//! isolation — S-PATCH filtering, V-PATCH filtering including candidate
//! stores, and pure V-PATCH filtering.
//!
//! `--ruleset s1|s2|full` selects sub-figure 6a/6b/6c.

fn main() {
    mpm_bench::experiments::run("fig6", &mpm_bench::Options::from_env());
}
