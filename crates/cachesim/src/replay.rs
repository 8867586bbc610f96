//! Replays the matching engines' data-structure access streams through the
//! cache model.
//!
//! The model concentrates on the accesses that differ between the
//! algorithms — the lookups into their matching data structures. Input-bytes
//! accesses are identical (sequential) for every engine and are therefore
//! omitted; this mirrors how the paper discusses cache behaviour purely in
//! terms of the automaton / filters / hash tables.
//!
//! Each data structure is placed in its own region of the simulated address
//! space so structures never falsely share cache lines. S-PATCH and V-PATCH
//! share one replay: both store filters 1 and 2 once, interleaved, and read
//! them there, so their access streams are the same.

use crate::model::{CacheConfig, CacheReport, CacheSim};
use mpm_aho_corasick::DfaMatcher;
use mpm_dfc::Dfc;
use mpm_patterns::Matcher;
use mpm_vpatch::SPatch;

/// Region stride between data structures in the simulated address space
/// (far larger than any structure, so regions never overlap).
const REGION: u64 = 1 << 30;

/// Bytes per compact-hash-table bucket header in the address model. The real
/// DFC implementation keeps a header array of one small record per bucket
/// (2^16 buckets for the long table), which is the part of the verification
/// structure touched on *every* verification, so it dominates the working
/// set; entries and pattern bytes are touched afterwards.
const BUCKET_HEADER_BYTES: u64 = 16;

/// Models one verification access into a compact hash table: the bucket
/// header plus the start of the bucket's entry list.
fn touch_table(
    sim: &mut CacheSim,
    base: u64,
    table: &mpm_verify::CompactHashTable,
    input: &[u8],
    pos: usize,
) {
    if let Some(bucket) = table.bucket_of(input, pos) {
        sim.access_range(base + bucket as u64 * BUCKET_HEADER_BYTES, 16);
        sim.access_range(
            base + REGION / 4 + table.bucket_offset_bytes(bucket) as u64,
            16,
        );
    }
}

/// Result of a replay: the cache report plus the number of matches the
/// engine found (sanity check that the replay executed the real algorithm).
#[derive(Clone, Copy, Debug)]
pub struct ReplayOutcome {
    /// Per-level hit/miss counts of the engine's data-structure accesses.
    pub report: CacheReport,
    /// Matches found during the replay.
    pub matches: u64,
}

/// Replays an Aho-Corasick (full DFA) scan: one transition-table access per
/// input byte, at the address of the current state's row entry.
pub fn replay_aho_corasick(dfa: &DfaMatcher, input: &[u8], config: CacheConfig) -> ReplayOutcome {
    let mut sim = CacheSim::new(config);
    let table_base = 0u64;
    // The engine reads table[state * 256 + byte] (4 bytes inside the current
    // state's row) for every input byte; `walk` hands us the state sequence,
    // from which we reconstruct the address of each lookup.
    let mut prev_state = 0u32;
    dfa.walk(input, |i, state| {
        let byte = input[i];
        let addr = table_base + dfa.row_offset_bytes(prev_state) as u64 + (byte as u64) * 4;
        sim.access_range(addr, 4);
        prev_state = state;
    });
    let matches = dfa.count(input);
    ReplayOutcome {
        report: sim.report(),
        matches,
    }
}

/// Replays a DFC scan: one initial-filter access per window, plus
/// hash-table accesses for windows that pass the filter.
pub fn replay_dfc(dfc: &Dfc, input: &[u8], config: CacheConfig) -> ReplayOutcome {
    let mut sim = CacheSim::new(config);
    let filter_base = REGION;
    let table_base = 2 * REGION;
    let tables = dfc.tables();
    let filter = tables.initial_filter();
    let long_table = tables.long_table();
    if input.is_empty() {
        return ReplayOutcome {
            report: sim.report(),
            matches: 0,
        };
    }
    for i in 0..input.len() - 1 {
        let window = u16::from_le_bytes([input[i], input[i + 1]]);
        // Filter lookup: one byte of the 8 KB bitmap.
        sim.access_range(filter_base + (window >> 3) as u64, 1);
        if filter.contains(window) {
            // Verification: read the bucket of the long-pattern table
            // (the dominant verification structure; short tables are tiny).
            touch_table(&mut sim, table_base, long_table, input, i);
        }
    }
    let matches = dfc.count(input);
    ReplayOutcome {
        report: sim.report(),
        matches,
    }
}

/// Replays an S-PATCH / V-PATCH scan — the two kernels read the same
/// structures in the same order: merged-filter access per window (filters 1
/// and 2 are stored only interleaved), third-filter access for windows that
/// pass filter 2, and verification accesses only for positions that pass
/// the third filter.
pub fn replay_vpatch(engine: &SPatch, input: &[u8], config: CacheConfig) -> ReplayOutcome {
    let mut sim = CacheSim::new(config);
    let merged_base = REGION;
    let filter3_base = 2 * REGION;
    let table_base = 3 * REGION;
    let tables = engine.tables();
    let merged = tables.merged();
    let verifier = tables.verifier();
    if input.is_empty() {
        return ReplayOutcome {
            report: sim.report(),
            matches: 0,
        };
    }
    let n = input.len();
    for i in 0..n - 1 {
        let window = u16::from_le_bytes([input[i], input[i + 1]]);
        // One gather (or one scalar lookup) touches the two interleaved
        // filter bytes.
        sim.access_range(merged_base + 2 * (window >> 3) as u64, 2);
        if merged.contains_f1(window) {
            touch_table(&mut sim, table_base, verifier.short_table(), input, i);
        }
        if merged.contains_f2(window) && i + 4 <= n {
            let w4 = u32::from_le_bytes([input[i], input[i + 1], input[i + 2], input[i + 3]]);
            let h = mpm_verify::hash32(w4, tables.filter3().bits_log2());
            sim.access_range(filter3_base + (h >> 3) as u64, 1);
            if tables.filter3().contains(w4) {
                touch_table(
                    &mut sim,
                    table_base + REGION / 2,
                    verifier.long_table(),
                    input,
                    i,
                );
            }
        }
    }
    let matches = engine.count(input);
    ReplayOutcome {
        report: sim.report(),
        matches,
    }
}
