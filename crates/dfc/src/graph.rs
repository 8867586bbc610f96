//! DFC's two rounds over one chunk, shared by the scalar and the vectorized
//! engine.
//!
//! The paper's DFC interleaves filtering and verification in one pass; here
//! the pass is split at its natural seam so it runs as the two rounds of
//! `mpm_graph::TwoRound`: the filter round sweeps one chunk's windows
//! through the initial direct filter, compacting survivors into the
//! `pending` buffer; the verify round drains that buffer through the batched
//! classification/verification path in [`DRAIN_BLOCK`]-sized blocks. The
//! drain blocking only regroups the append order of matches, which no
//! caller observes.

use mpm_graph::Chunk;
use mpm_patterns::{fold_byte, MatchEvent};
use mpm_simd::VectorBackend;

use crate::tables::{DfcTables, DrainBuffers, DRAIN_BLOCK};

/// Scalar DFC initial-filter sweep over window positions `start..end`
/// (clamped to the last 2-byte window).
fn scalar_filter_range<const FOLD: bool>(
    t: &DfcTables,
    haystack: &[u8],
    start: usize,
    end: usize,
    pending: &mut Vec<u32>,
) {
    let n = haystack.len();
    for i in start..end.min(n.saturating_sub(1)) {
        let window = u16::from_le_bytes([
            fold_byte(haystack[i], FOLD),
            fold_byte(haystack[i + 1], FOLD),
        ]);
        if t.df_initial.contains(window) {
            pending.push(i as u32);
        }
    }
}

/// Vectorized initial-filter sweep (Vector-DFC's loop) over
/// `start..end`, with the scalar continuation for the block tail.
fn vector_filter_range<B: VectorBackend<W>, const W: usize, const FOLD: bool>(
    t: &DfcTables,
    haystack: &[u8],
    start: usize,
    end: usize,
    pending: &mut Vec<u32>,
) {
    let n = haystack.len();
    let filter_bytes = t.df_initial.bytes();
    let mut i = start;
    B::dispatch(|| {
        while i + W <= end && i + W < n {
            let windows = B::windows2(haystack, i);
            let windows = if FOLD {
                B::to_ascii_lower(windows)
            } else {
                windows
            };
            let idx = B::shr_const(windows, 3);
            let bytes = B::gather_bytes(filter_bytes, idx);
            let mask = B::test_window_bits(bytes, windows);
            if mask != 0 {
                B::compress_store(mask, i as u32, pending);
            }
            i += W;
        }
    });
    scalar_filter_range::<FOLD>(t, haystack, i, end, pending);
}

/// Filter round of the scalar engine: replaces `pending` with the chunk's
/// initial-filter survivors.
pub(crate) fn scalar_filter(t: &DfcTables, chunk: Chunk<'_>, pending: &mut Vec<u32>) -> u64 {
    pending.clear();
    if t.is_folded() {
        scalar_filter_range::<true>(t, chunk.haystack, chunk.start, chunk.end, pending);
    } else {
        scalar_filter_range::<false>(t, chunk.haystack, chunk.start, chunk.end, pending);
    }
    pending.len() as u64
}

/// Filter round of the vectorized engine on backend `B`.
pub(crate) fn vector_filter<B: VectorBackend<W>, const W: usize>(
    t: &DfcTables,
    chunk: Chunk<'_>,
    pending: &mut Vec<u32>,
) -> u64 {
    pending.clear();
    if t.is_folded() {
        vector_filter_range::<B, W, true>(t, chunk.haystack, chunk.start, chunk.end, pending);
    } else {
        vector_filter_range::<B, W, false>(t, chunk.haystack, chunk.start, chunk.end, pending);
    }
    pending.len() as u64
}

/// Verify round: drains `pending` through the batched classification path
/// in [`DRAIN_BLOCK`]-sized blocks; the last chunk also owns the final byte,
/// which has no 2-byte window. Returns the comparisons made.
pub(crate) fn drain<B: VectorBackend<W>, const W: usize>(
    t: &DfcTables,
    chunk: Chunk<'_>,
    (pending, long_scratch): &mut DrainBuffers,
    out: &mut Vec<MatchEvent>,
) -> u64 {
    let mut comparisons = 0;
    for block in pending.chunks(DRAIN_BLOCK) {
        comparisons +=
            t.classify_and_verify_batch::<B, W>(chunk.haystack, block, long_scratch, out);
    }
    if chunk.is_last() {
        comparisons += t.verify_tail(chunk.haystack, out);
    }
    comparisons
}
