//! Cache-locality ablation: replays the engines' data-structure accesses
//! through Haswell-like and Xeon-Phi-like cache hierarchies, reproducing the
//! paper's §II-B (DFC ≪ AC misses) and §V-E (no L3 on Phi hurts DFC's
//! verification) observations.

fn main() {
    mpm_bench::experiments::run("cache_ablation", &mpm_bench::Options::from_env());
}
