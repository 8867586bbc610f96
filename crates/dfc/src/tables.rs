//! The filter and hash-table structures DFC builds from a pattern set,
//! shared by the scalar and vectorized execution engines.

use mpm_patterns::{MatchEvent, PatternSet};
use mpm_simd::VectorBackend;
use mpm_verify::{CompactHashTable, DirectFilter, DIRECT_FILTER_FULL_BITS};
use std::cell::RefCell;

/// How many initial-filter survivors the DFC engines hand to the batched
/// verification path at a time (one block per length-class table keeps the
/// candidate positions and the per-table pipeline state hot).
pub const DRAIN_BLOCK: usize = 256;

/// The candidate buffers of one scan, `(pending, long_scratch)`: the
/// initial-filter survivors of the current chunk, and the
/// progressive-filter scratch the long-class drain uses.
pub(crate) type DrainBuffers = (Vec<u32>, Vec<u32>);

thread_local! {
    /// Per-thread drain buffers reused across scans, so the engines stay
    /// allocation-free per scan — streaming callers invoke `find_into` once
    /// per pushed chunk/packet (mirrors the cached scratch in `mpm-vpatch`).
    /// `pending` never holds more than one scan chunk's positions and
    /// `long_scratch` at most [`DRAIN_BLOCK`], so no shrink policy is
    /// needed.
    static DRAIN_BUFFERS: RefCell<DrainBuffers> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Runs `f` with this thread's cached drain buffers, cleared on entry
/// (a transient pair is allocated only in the re-entrant case, which the
/// engines never hit themselves).
pub(crate) fn with_drain_buffers<R>(f: impl FnOnce(&mut DrainBuffers) -> R) -> R {
    DRAIN_BUFFERS.with(|cell| match cell.try_borrow_mut() {
        Ok(mut buffers) => {
            buffers.0.clear();
            buffers.1.clear();
            f(&mut buffers)
        }
        Err(_) => f(&mut DrainBuffers::default()),
    })
}

/// All compiled state of a DFC instance.
#[derive(Clone, Debug)]
pub struct DfcTables {
    /// Initial direct filter over the first two bytes of every pattern
    /// (1-byte patterns set every window starting with their byte).
    pub(crate) df_initial: DirectFilter,
    /// Progressive filter for the long (≥ 4 byte) class, indexed by pattern
    /// bytes 2–3 — consulted with input bytes `i+2 .. i+4` after the initial
    /// filter hits at `i`.
    pub(crate) df_long: DirectFilter,
    /// Compact hash tables per length class.
    pub(crate) ht_len1: CompactHashTable,
    pub(crate) ht_len2: CompactHashTable,
    pub(crate) ht_len3: CompactHashTable,
    pub(crate) ht_long: CompactHashTable,
    /// Length of the longest pattern (useful for chunked/streaming callers
    /// that must overlap chunks by `max_pattern_len - 1`).
    pub max_pattern_len: usize,
    /// True if the set contains a `nocase` pattern: every filter and hash
    /// table is built over ASCII-case-folded bytes and the scan loops fold
    /// input windows to match (filter-folded / verify-exact). False keeps
    /// the byte-exact fast path.
    pub(crate) folded: bool,
    pattern_count: usize,
}

impl DfcTables {
    /// Compiles the DFC structures for `set`.
    pub fn build(set: &PatternSet) -> Self {
        let folded = set.has_nocase();
        let fold = |b: u8| mpm_patterns::fold_byte(b, folded);
        let df_initial = DirectFilter::build(set, DIRECT_FILTER_FULL_BITS, |_| true);

        // Progressive filter for long patterns: indexed by bytes 2..4.
        let mut df_long = DirectFilter::with_bits(DIRECT_FILTER_FULL_BITS);
        for (_, p) in set.iter() {
            if p.len() >= 4 {
                let b = p.bytes();
                df_long.set(u16::from_le_bytes([fold(b[2]), fold(b[3])]));
            }
        }

        let ht_len1 = CompactHashTable::build(set, 1, 8, |p| p.len() == 1, None);
        let ht_len2 = CompactHashTable::build(set, 2, 16, |p| p.len() == 2, None);
        let ht_len3 = CompactHashTable::build(set, 3, 13, |p| p.len() == 3, None);
        let ht_long = CompactHashTable::build(set, 4, 16, |p| p.len() >= 4, None);
        let max_pattern_len = set.patterns().iter().map(|p| p.len()).max().unwrap_or(0);

        DfcTables {
            df_initial,
            df_long,
            ht_len1,
            ht_len2,
            ht_len3,
            ht_long,
            max_pattern_len,
            folded,
            pattern_count: set.len(),
        }
    }

    /// True if the tables were built over ASCII-case-folded bytes (the set
    /// contains a `nocase` pattern); the scan loops fold input to match.
    pub fn is_folded(&self) -> bool {
        self.folded
    }

    /// Number of patterns the tables were built from.
    pub fn pattern_count(&self) -> usize {
        self.pattern_count
    }

    /// Total resident size of the *filtering* structures (the part the paper
    /// argues stays in L1/L2).
    pub fn filter_bytes(&self) -> usize {
        self.df_initial.heap_bytes() + self.df_long.heap_bytes()
    }

    /// Total resident size of the verification hash tables (expected to live
    /// in L3 — or device memory on Xeon-Phi, see Figure 7 discussion).
    pub fn table_bytes(&self) -> usize {
        self.ht_len1.heap_bytes()
            + self.ht_len2.heap_bytes()
            + self.ht_len3.heap_bytes()
            + self.ht_long.heap_bytes()
    }

    /// Runs the classification + verification stage for a position `i` whose
    /// window passed the initial filter. Appends confirmed matches to `out`
    /// and returns the number of pattern comparisons performed.
    ///
    /// The engines drain buffered candidate blocks through
    /// [`DfcTables::classify_and_verify_batch`] instead; this one-position
    /// form stays public as the reference for the batched drain's
    /// *comparison counts*, which no naive matcher can check
    /// (`tests/verify_batch_differential.rs`), and for per-position callers
    /// like the cache simulator's access replay.
    #[inline]
    pub fn classify_and_verify(
        &self,
        haystack: &[u8],
        i: usize,
        out: &mut Vec<MatchEvent>,
    ) -> usize {
        let mut comparisons = 0;
        if !self.ht_len1.is_empty() {
            comparisons += self.ht_len1.verify_at(haystack, i, out);
        }
        if !self.ht_len2.is_empty() {
            comparisons += self.ht_len2.verify_at(haystack, i, out);
        }
        if !self.ht_len3.is_empty() {
            comparisons += self.ht_len3.verify_at(haystack, i, out);
        }
        if !self.ht_long.is_empty() && i + 4 <= haystack.len() {
            let w2 = u16::from_le_bytes([
                mpm_patterns::fold_byte(haystack[i + 2], self.folded),
                mpm_patterns::fold_byte(haystack[i + 3], self.folded),
            ]);
            if self.df_long.contains(w2) {
                comparisons += self.ht_long.verify_at(haystack, i, out);
            }
        }
        comparisons
    }

    /// Batched form of [`DfcTables::classify_and_verify`]: drains a whole
    /// block of initial-filter survivors through every length-class table's
    /// [`CompactHashTable::verify_batch`] (SIMD bucket indexing + K-deep
    /// prefetch pipeline + vector compares) instead of one interleaved
    /// classification per candidate. The long class is still gated per
    /// candidate by the progressive filter `df_long` — a cheap L1-resident
    /// bitmap test — with the survivors collected into `long_scratch` and
    /// batch-verified in one go. Semantically identical to calling
    /// `classify_and_verify` per position in order, modulo the append order
    /// of matches (grouped by length class instead of by position), which no
    /// caller observes ([`mpm_patterns::Matcher::find_into`] output order is
    /// unspecified).
    ///
    /// Returns the number of pattern comparisons performed.
    pub fn classify_and_verify_batch<B: VectorBackend<W>, const W: usize>(
        &self,
        haystack: &[u8],
        positions: &[u32],
        long_scratch: &mut Vec<u32>,
        out: &mut Vec<MatchEvent>,
    ) -> u64 {
        let mut comparisons = 0u64;
        if !self.ht_len1.is_empty() {
            comparisons += self.ht_len1.verify_batch::<B, W>(haystack, positions, out);
        }
        if !self.ht_len2.is_empty() {
            comparisons += self.ht_len2.verify_batch::<B, W>(haystack, positions, out);
        }
        if !self.ht_len3.is_empty() {
            comparisons += self.ht_len3.verify_batch::<B, W>(haystack, positions, out);
        }
        if !self.ht_long.is_empty() {
            long_scratch.clear();
            for &p in positions {
                let i = p as usize;
                if i + 4 <= haystack.len() {
                    let w2 = u16::from_le_bytes([
                        mpm_patterns::fold_byte(haystack[i + 2], self.folded),
                        mpm_patterns::fold_byte(haystack[i + 3], self.folded),
                    ]);
                    if self.df_long.contains(w2) {
                        long_scratch.push(p);
                    }
                }
            }
            comparisons += self
                .ht_long
                .verify_batch::<B, W>(haystack, long_scratch, out);
        }
        comparisons
    }

    /// Handles the final input position, which has no 2-byte window: only
    /// 1-byte patterns can start there.
    #[inline]
    pub(crate) fn verify_tail(&self, haystack: &[u8], out: &mut Vec<MatchEvent>) {
        if !haystack.is_empty() && !self.ht_len1.is_empty() {
            self.ht_len1.verify_at(haystack, haystack.len() - 1, out);
        }
    }

    /// The initial direct filter (exposed for the vectorized engine and for
    /// the cache simulator).
    pub fn initial_filter(&self) -> &DirectFilter {
        &self.df_initial
    }

    /// The long-class compact hash table (exposed for the cache simulator's
    /// verification-access model).
    pub fn long_table(&self) -> &CompactHashTable {
        &self.ht_long
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpm_patterns::PatternSet;

    #[test]
    fn filter_sizes_are_cache_resident_and_tables_are_not_tiny() {
        let lits: Vec<String> = (0..3_000)
            .map(|i| format!("pattern-string-number-{i:05}-with-some-length"))
            .collect();
        let set = PatternSet::from_literals(&lits);
        let t = DfcTables::build(&set);
        assert!(t.filter_bytes() < 32 * 1024, "filters must fit in L1");
        assert!(
            t.table_bytes() > 100 * 1024,
            "hash tables for 3k long patterns should be much larger than the filters"
        );
        assert_eq!(t.pattern_count(), 3_000);
    }

    #[test]
    fn classify_and_verify_finds_all_length_classes() {
        let set = PatternSet::from_literals(&["a", "bc", "def", "ghij", "klmnop"]);
        let t = DfcTables::build(&set);
        let hay = b"a bc def ghij klmnop";
        let mut out = Vec::new();
        for i in 0..hay.len().saturating_sub(1) {
            let w = u16::from_le_bytes([hay[i], hay[i + 1]]);
            if t.df_initial.contains(w) {
                t.classify_and_verify(hay, i, &mut out);
            }
        }
        t.verify_tail(hay, &mut out);
        mpm_patterns::matcher::normalize_matches(&mut out);
        assert_eq!(out, mpm_patterns::naive::naive_find_all(&set, hay));
    }

    #[test]
    fn drain_buffers_are_cached_cleared_and_reentrancy_safe() {
        let cap = with_drain_buffers(|(pending, _)| {
            pending.reserve(128);
            pending.push(7);
            pending.capacity()
        });
        with_drain_buffers(|(pending, long_scratch)| {
            // Cleared on entry, capacity persisted from the previous scan.
            assert!(pending.is_empty());
            assert!(long_scratch.is_empty());
            assert!(pending.capacity() >= cap.min(128));
            // A nested borrow must not panic; it falls back to transients.
            let nested_empty = with_drain_buffers(|(p, l)| p.is_empty() && l.is_empty());
            assert!(nested_empty);
        });
    }

    #[test]
    fn tail_handles_one_byte_pattern_at_last_position() {
        let set = PatternSet::from_literals(&["x"]);
        let t = DfcTables::build(&set);
        let mut out = Vec::new();
        t.verify_tail(b"zzzx", &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].start, 3);
    }
}
