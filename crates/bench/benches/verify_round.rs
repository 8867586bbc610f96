//! Criterion micro-benchmark of the verification round in isolation
//! (SIMD-indexed, prefetch-pipelined, vector-compared), per backend.
//!
//! The candidate arrays are produced once by a real filtering round and then
//! replayed, so the measured unit is exactly the `verify_round` the engines
//! run — dependent hash-table loads, entry walks, pattern compares — with
//! the filtering cost excluded. Two pattern sets over the same HTTP-like
//! trace, one per regime:
//!
//! * `batched` — the verify-heavy adversary (hot-4-gram heads + random
//!   tails): candidate density 10–100× realistic traffic, a few entries per
//!   bucket, so the per-candidate cost dominates;
//! * `shared_head` — 32 patterns that all start `Content-Type: `: few
//!   candidates, every one walking the same 32-entry bucket, which is how
//!   real HTTP rules load the tables and where the per-entry cost shows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mpm_bench::{RulesetChoice, Workload};
use mpm_patterns::{Pattern, PatternSet};
use mpm_simd::{Avx2Backend, Avx512Backend, ScalarBackend, VectorBackend};
use mpm_traffic::TraceKind;
use mpm_vpatch::{Scratch, VPatch};

/// Trace size: 1 MiB keeps a full bench run quick while producing hundreds
/// of thousands of candidates on the adversarial workload.
const TRACE_MIB: usize = 1;

/// 32 patterns, `Content-Type: ` followed by 6–14 lowercase letters that
/// differ from pattern to pattern (an arithmetic scramble of the indices —
/// the tails only have to be distinct, as real rules' are).
fn shared_head_set() -> PatternSet {
    PatternSet::new(
        (0..32usize)
            .map(|i| {
                let mut bytes = b"Content-Type: ".to_vec();
                bytes.extend((0..6 + i % 9).map(|j| b'a' + ((i * 7 + j * 11) % 26) as u8));
                Pattern::literal(bytes)
            })
            .collect(),
    )
}

fn bench_backend<B: VectorBackend<W>, const W: usize>(
    group: &mut criterion::BenchmarkGroup<'_>,
    label: &str,
    trace: &[u8],
    sets: &[(&str, &PatternSet)],
) {
    if !B::is_available() {
        return;
    }
    for (name, set) in sets {
        let engine = VPatch::<B, W>::build(set);
        let mut scratch = Scratch::with_capacity_for(trace.len());
        engine.filter_round(trace, &mut scratch);
        let mut out = Vec::new();
        group.bench_function(BenchmarkId::new(label, name), |b| {
            b.iter(|| {
                out.clear();
                engine.verify_round(trace, &scratch, &mut out)
            })
        });
    }
}

fn bench_verify_round(c: &mut Criterion) {
    let workload =
        Workload::build_with_traces(RulesetChoice::S1, TRACE_MIB, &[TraceKind::IscxDay2])
            .verify_heavy_variant(0x5eed);
    let trace = &workload.traces[0].1;
    let shared_head = shared_head_set();
    let sets = [
        ("batched", &workload.patterns),
        ("shared_head", &shared_head),
    ];
    let mut group = c.benchmark_group("verify_round");
    group.throughput(Throughput::Bytes((TRACE_MIB * 1024 * 1024) as u64));
    bench_backend::<ScalarBackend, 8>(&mut group, "scalar/w8", trace, &sets);
    bench_backend::<Avx2Backend, 8>(&mut group, "avx2/w8", trace, &sets);
    bench_backend::<Avx512Backend, 16>(&mut group, "avx512/w16", trace, &sets);
    group.finish();
}

criterion_group!(benches, bench_verify_round);
criterion_main!(benches);
