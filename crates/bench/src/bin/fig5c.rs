//! Reproduces Figure 5c: V-PATCH-over-S-PATCH speedup as the fraction of the
//! input covered by pattern occurrences grows from 0% to 100%.

fn main() {
    mpm_bench::experiments::run("fig5c", &mpm_bench::Options::from_env());
}
