//! Reproduces Figure 4 (a/b): overall throughput of the five algorithms on
//! the four traces, Haswell vector width (8 lanes).
//!
//! `--ruleset s1` → Figure 4a, `--ruleset s2` → Figure 4b.

fn main() {
    mpm_bench::experiments::run("fig4", &mpm_bench::Options::from_env());
}
