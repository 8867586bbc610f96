//! Reproduces Figure 5b: share of time spent filtering and useful-lane
//! occupancy of the third filter, as the number of patterns grows.

fn main() {
    mpm_bench::experiments::run("fig5b", &mpm_bench::Options::from_env());
}
