//! Criterion micro-benchmark of the verification round in isolation
//! (SIMD-indexed, prefetch-pipelined, vector-compared), per backend.
//!
//! The candidate arrays are produced once by a real filtering round over the
//! verify-heavy adversarial workload (hot-prefix patterns, so candidate
//! density is 10–100× realistic traffic) and then replayed, so the measured
//! unit is exactly the `verify_round` the engines run — dependent
//! hash-table loads, entry walks, pattern compares — with the filtering cost
//! excluded.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mpm_bench::{RulesetChoice, Workload};
use mpm_simd::{Avx2Backend, Avx512Backend, ScalarBackend, VectorBackend};
use mpm_traffic::TraceKind;
use mpm_vpatch::{Scratch, VPatch};

/// Trace size: 1 MiB keeps a full bench run quick while producing hundreds
/// of thousands of candidates on the adversarial workload.
const TRACE_MIB: usize = 1;

fn bench_backend<B: VectorBackend<W>, const W: usize>(
    group: &mut criterion::BenchmarkGroup<'_>,
    label: &str,
    workload: &Workload,
) {
    if !B::is_available() {
        return;
    }
    let trace = &workload.traces[0].1;
    let engine = VPatch::<B, W>::build(&workload.patterns);
    let mut scratch = Scratch::with_capacity_for(trace.len());
    engine.filter_round(trace, &mut scratch);
    let mut out = Vec::new();
    group.bench_function(BenchmarkId::new(label, "batched"), |b| {
        b.iter(|| {
            out.clear();
            engine.verify_round(trace, &scratch, &mut out)
        })
    });
}

fn bench_verify_round(c: &mut Criterion) {
    let workload =
        Workload::build_with_traces(RulesetChoice::S1, TRACE_MIB, &[TraceKind::IscxDay2])
            .verify_heavy_variant(0x5eed);
    let mut group = c.benchmark_group("verify_round");
    group.throughput(Throughput::Bytes((TRACE_MIB * 1024 * 1024) as u64));
    bench_backend::<ScalarBackend, 8>(&mut group, "scalar/w8", &workload);
    bench_backend::<Avx2Backend, 8>(&mut group, "avx2/w8", &workload);
    bench_backend::<Avx512Backend, 16>(&mut group, "avx512/w16", &workload);
    group.finish();
}

criterion_group!(benches, bench_verify_round);
criterion_main!(benches);
