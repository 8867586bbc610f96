//! Reproduces Figure 7 (a/b): the Figure-4 experiment at the Xeon-Phi vector
//! width (16 lanes / AVX-512).
//!
//! `--ruleset s1` → Figure 7a, `--ruleset s2` → Figure 7b.

fn main() {
    mpm_bench::experiments::run("fig7", &mpm_bench::Options::from_env());
}
