//! Reproduces Figure 5a: S-PATCH vs V-PATCH throughput (and their speedup)
//! as the number of patterns grows from 1K to 20K.

fn main() {
    mpm_bench::experiments::run("fig5a", &mpm_bench::Options::from_env());
}
