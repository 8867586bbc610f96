//! DFC-style compact hash tables and the exact-verification phase shared by
//! the DFC, S-PATCH and V-PATCH engines.
//!
//! In the filtering family of algorithms (paper §II-B and §IV), the filters
//! only *suspect* a match; the candidate position is then looked up in a
//! **compact hash table** holding references to the full patterns, and each
//! referenced pattern is compared byte-for-byte against the input before a
//! match is reported. This crate implements:
//!
//! * [`CompactHashTable`] — a bucketised table of pattern references indexed
//!   by a fixed-length prefix of the input window (direct-indexed for 1–2
//!   byte prefixes, multiplicative-hash-indexed for 4-byte prefixes), with
//!   the patterns stored contiguously in an arena as in the original DFC
//!   implementation. A bucket is stored as **columns** — lengths, suffix
//!   fingerprints, arena offsets, pattern ids — and verified `W` entries
//!   per step: one [`VectorBackend::bucket_survivors`] tests the lengths
//!   and fingerprints of a whole step against the input at once, and only
//!   the entries that survive are compared against the arena. S-PATCH and
//!   V-PATCH build two: one for short patterns (1–3 bytes, reached through
//!   filter 1) and one for long patterns (≥ 4 bytes, reached through
//!   filters 2+3);
//! * [`hash32`] — the multiplicative hash family used both here and by the
//!   third filter of S-PATCH.
//!
//! Equivalence guarantee: for any candidate position, verification reports
//! exactly the patterns that occur at that position under their own case
//! rule — byte-exactly, or ASCII-case-insensitively for `nocase` patterns —
//! never more (false positives are eliminated by the per-pattern comparison)
//! and never fewer (every pattern of the table's length class is reachable
//! through its index prefix). A table, like every filter, is built one way
//! and is **folded** if and only if its set contains a `nocase` pattern: it
//! then computes its bucket index over ASCII-case-folded bytes, both at
//! build time and at lookup time, so one index serves mixed
//! case-sensitive/`nocase` sets; the per-entry comparison then restores
//! each pattern's exact semantics. The engines' overall exactness then only
//! depends on their filters never dropping a true candidate, which the
//! engine crates test.

#![warn(missing_docs)]

pub mod confirm;
pub mod filters;

pub use confirm::{ConfirmProgress, PayloadIndex, RuleConfirmer, RuleScanner};
pub use filters::{
    direct_filter_bits_for, direct_filter_window_count, DirectFilter, HashedFilter,
    MergedDirectFilters, DIRECT_FILTER_FULL_BITS, DIRECT_FILTER_MIN_BITS, FILTER_PADDING,
};

use mpm_patterns::{MatchEvent, PatternArena, PatternId, PatternSet};
use mpm_simd::{prefetch_read, ScalarBackend, VectorBackend, BUCKET_LEN_MASK, GATHER_PADDING};
use std::sync::Arc;

/// Prefetch distance `K` of the batched verification pipeline: the
/// `bucket_starts` slot of candidate `i + K` is prefetched while candidate
/// `i` is being verified, and the first lines of the bucket's `lens` and
/// `suffixes` column spans at `i + K/2` (its bucket offset is cached by
/// then). The pattern arena, the `offsets` and the `ids` are not
/// prefetched: an entry is rejected from the two columns, by its length and
/// its suffix fingerprint, so only true matches and the rare fingerprint
/// collision read the rest. Eight
/// candidates ahead covers a memory-latency's worth of verification work
/// for typical bucket sizes without evicting lines before use; see
/// DEVELOPMENT.md for the contract.
pub const PREFETCH_DISTANCE: usize = 8;

/// Prefetch distance of the column stage (reads `bucket_starts`, which the
/// [`PREFETCH_DISTANCE`] stage requested earlier).
const COLUMN_PREFETCH_DISTANCE: usize = PREFETCH_DISTANCE / 2;

/// Candidates per index-computation block of the batched verifier: bucket
/// indices for a whole block are computed SIMD-first into a stack buffer,
/// then drained through the prefetch pipeline. 128 keeps the buffer well
/// inside one page while amortising the pipeline prologue.
const BATCH_BLOCK: usize = 128;

/// Bucket sentinel for candidates whose index window does not fit in the
/// haystack (they verify nothing, exactly like [`CompactHashTable::verify_at`]).
const SKIP_BUCKET: u32 = u32::MAX;

/// The multiplier of the multiplicative hash family used by the third filter
/// and the verification tables (2^32 / φ, the usual Fibonacci-hash constant).
/// Exposed so the vectorized engines can compute the identical hash with
/// SIMD multiplies.
pub const HASH_MULTIPLIER: u32 = 0x9E37_79B1;

/// Multiplicative (Fibonacci) hash of a 32-bit value, returning `bits` bits.
///
/// This is the "multiplicative hash function for the four bytes of input"
/// the paper uses to index its third filter; the verification tables use the
/// same family so the two stay consistent.
#[inline]
pub fn hash32(value: u32, bits: u32) -> u32 {
    debug_assert!(bits > 0 && bits <= 32);
    value.wrapping_mul(HASH_MULTIPLIER) >> (32 - bits)
}

/// Bit of a table's length column that marks a `nocase` entry; the length
/// is the 31 bits below it ([`BUCKET_LEN_MASK`], which the bucket test
/// ignores the flag through). Arena offsets are `u32`, so no pattern the
/// table can address is cut short by the flag.
const NOCASE_BIT: u32 = !BUCKET_LEN_MASK;

/// Bytes one entry occupies across the four columns: length, suffix
/// fingerprint, arena offset and pattern id.
const ENTRY_BYTES: usize = 3 * std::mem::size_of::<u32>() + std::mem::size_of::<PatternId>();

/// The length word of `pattern`'s entry: its length, with [`NOCASE_BIT`]
/// set for a `nocase` pattern.
fn len_word(id: PatternId, pattern: &mpm_patterns::Pattern) -> u32 {
    let len = pattern.len();
    assert!(
        len < NOCASE_BIT as usize,
        "pattern {id} does not fit a u32-addressed arena"
    );
    len as u32 | if pattern.is_nocase() { NOCASE_BIT } else { 0 }
}

/// The **suffix fingerprint** of `bytes`: its last `min(len, 4)` bytes,
/// little-endian, ASCII-case-folded in a folded table. The bucket index
/// already vouches for a pattern's first bytes, so the bytes that tell
/// bucket-mates apart are at the other end: rules that share
/// `Content-Type: ` differ in how they finish.
fn suffix_of(bytes: &[u8], folded: bool) -> u32 {
    let mut suffix = [0u8; 4];
    let covered = bytes.len().min(4);
    for (slot, &b) in suffix.iter_mut().zip(&bytes[bytes.len() - covered..]) {
        *slot = mpm_patterns::fold_byte(b, folded);
    }
    u32::from_le_bytes(suffix)
}

/// A table's arena-compare count ([`CompactHashTable::arena_compares`]).
/// Atomic because tables are shared across worker threads; it publishes
/// nothing, so `Relaxed`.
#[cfg(any(test, debug_assertions))]
#[derive(Debug, Default)]
struct WorkCount(std::sync::atomic::AtomicU64);

#[cfg(any(test, debug_assertions))]
impl WorkCount {
    fn add_one(&self) {
        self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    fn get(&self) -> u64 {
        self.0.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(any(test, debug_assertions))]
impl Clone for WorkCount {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// Where a table's pattern bytes live: a private buffer the table owns, or
/// a reference-counted slice of a [`PatternArena`] shared with other tables
/// (the port-group build). Shared storage reports **zero** resident bytes —
/// the owner of the group collection counts the arena's bytes exactly once
/// (see DEVELOPMENT.md "Port groups & shared arenas").
#[derive(Clone, Debug)]
enum ArenaStorage {
    Owned(Vec<u8>),
    Shared(Arc<[u8]>),
}

impl ArenaStorage {
    /// The pattern bytes, wherever they live.
    #[inline]
    fn bytes(&self) -> &[u8] {
        match self {
            ArenaStorage::Owned(v) => v,
            ArenaStorage::Shared(a) => a,
        }
    }

    /// Bytes this table is *charged* for: owned buffers in full, shared
    /// arenas zero (counted once by the collection owner).
    fn resident_bytes(&self) -> usize {
        match self {
            ArenaStorage::Owned(v) => v.len(),
            ArenaStorage::Shared(_) => 0,
        }
    }
}

/// The one bucket-count rule for hashed-prefix verification tables:
/// `ceil_log2(entries) + 1` bits, clamped to `[6, 16]` — at least two
/// **buckets per entry** (a load factor of at most ½; 600 entries get
/// 2 048 buckets) until the clamp at 2^16, so a bucket holds more than one
/// entry only when patterns really share their index prefix. A 30K-pattern
/// set gets 2^16 buckets, the 1 867 long patterns of an HTTP ruleset 2^12
/// (16 KB of offsets instead of 256 KB), a 40-rule port group 2^7 — the
/// bucket array follows the entry count, so neither a small monolithic set
/// nor N port groups pay for buckets no pattern can reach.
pub fn bucket_bits_for_entries(entries: usize) -> u32 {
    let ceil_log2 = usize::BITS - entries.max(1).next_power_of_two().leading_zeros() - 1;
    (ceil_log2 + 1).clamp(6, 16)
}

/// A compact, prefix-indexed table of pattern references with an arena of
/// pattern bytes, as used by DFC's verification phase.
#[derive(Clone, Debug)]
pub struct CompactHashTable {
    /// Number of bytes of the input window used to compute the bucket index.
    prefix_len: usize,
    /// log2 of the number of buckets.
    bucket_bits: u32,
    /// True if the bucket index is computed over ASCII-case-folded bytes
    /// (both at build time and at lookup time): the set it was built from
    /// has a `nocase` pattern.
    folded: bool,
    /// Bucket start offsets into the entry columns (length = buckets + 1),
    /// CSR-style so a lookup touches one contiguous span of each column.
    bucket_starts: Vec<u32>,
    /// The entries, one column per field, in the order `bucket_starts`
    /// defines. The two a bucket test reads are `lens` — the pattern length,
    /// with [`NOCASE_BIT`] set for `nocase` patterns (only ever in a folded
    /// table) — and `suffixes`, the suffix fingerprints ([`suffix_of`]).
    /// Only an entry whose fingerprint passes reads its `offsets` (where its
    /// bytes live in the arena) and `ids` (the pattern to report).
    lens: Vec<u32>,
    suffixes: Vec<u32>,
    offsets: Vec<u32>,
    ids: Vec<PatternId>,
    /// All pattern bytes — owned and concatenated, or a shared arena slice.
    arena: ArenaStorage,
    /// Smallest pattern length stored (for the caller's bookkeeping).
    min_pattern_len: usize,
    #[cfg(any(test, debug_assertions))]
    arena_compares: WorkCount,
}

impl CompactHashTable {
    /// Builds a table over the patterns of `set` selected by `select`
    /// (typically a length-class predicate).
    ///
    /// `prefix_len` must be 1, 2, 3 or 4 and no selected pattern may be
    /// shorter than `prefix_len` (the index is taken from the pattern's first
    /// `prefix_len` bytes). `bucket_bits` controls the table size
    /// (`2^bucket_bits` buckets); for `prefix_len <= 2` the table is
    /// direct-indexed and `bucket_bits` is forced to `8 * prefix_len`.
    ///
    /// The bucket index is computed over **ASCII-case-folded** bytes if and
    /// only if `set` contains a `nocase` pattern, so that a case-variant
    /// input window still reaches the bucket holding the pattern.
    /// [`CompactHashTable::verify_at`] folds the input window the same way;
    /// the per-entry comparison stays byte-exact for case-sensitive patterns
    /// and case-insensitive for `nocase` ones, so folding never introduces
    /// false matches.
    ///
    /// With `shared`, pattern bytes are **offset references into the
    /// [`PatternArena`]** instead of a privately owned buffer: the table
    /// holds a clone of the arena's `Arc` and reports zero arena bytes in
    /// [`CompactHashTable::heap_bytes`]. Lookup semantics are bit-identical
    /// either way.
    ///
    /// # Panics
    /// Panics if a selected pattern is shorter than `prefix_len`, or was
    /// never interned in `shared` (a build-order bug).
    pub fn build<F: Fn(&mpm_patterns::Pattern) -> bool>(
        set: &PatternSet,
        prefix_len: usize,
        bucket_bits: u32,
        select: F,
        shared: Option<&PatternArena>,
    ) -> Self {
        assert!((1..=4).contains(&prefix_len), "prefix_len must be 1..=4");
        let folded = set.has_nocase();
        let bucket_bits = if prefix_len <= 2 {
            (prefix_len as u32) * 8
        } else {
            bucket_bits
        };
        assert!(
            bucket_bits <= 24,
            "bucket_bits too large for a compact table"
        );
        let buckets = 1usize << bucket_bits;

        // First pass: count bucket sizes.
        let mut selected: Vec<(PatternId, &mpm_patterns::Pattern)> = Vec::new();
        for (id, p) in set.iter() {
            if select(p) {
                assert!(
                    p.len() >= prefix_len,
                    "pattern {id} (len {}) shorter than table prefix {prefix_len}",
                    p.len()
                );
                selected.push((id, p));
            }
        }
        let mut counts = vec![0u32; buckets];
        for (_, p) in &selected {
            counts[Self::index_of(p.bytes(), prefix_len, bucket_bits, folded) as usize] += 1;
        }
        let mut bucket_starts = vec![0u32; buckets + 1];
        for i in 0..buckets {
            bucket_starts[i + 1] = bucket_starts[i] + counts[i];
        }

        // Second pass: fill the entry columns and the arena.
        let total: usize = selected.len();
        let mut lens = vec![0u32; total];
        let mut suffixes = vec![0u32; total];
        let mut offsets = vec![0u32; total];
        let mut ids = vec![PatternId(0); total];
        let mut cursor = bucket_starts.clone();
        let mut owned = match shared {
            Some(_) => Vec::new(),
            None => Vec::with_capacity(selected.iter().map(|(_, p)| p.len()).sum()),
        };
        let mut min_pattern_len = usize::MAX;
        for (id, p) in &selected {
            let bucket = Self::index_of(p.bytes(), prefix_len, bucket_bits, folded) as usize;
            let slot = cursor[bucket] as usize;
            cursor[bucket] += 1;
            let offset = match shared {
                Some(arena) => arena
                    .offset_of(p.bytes())
                    .expect("pattern not interned in the shared arena before table build"),
                None => {
                    let offset = owned.len() as u32;
                    owned.extend_from_slice(p.bytes());
                    offset
                }
            };
            lens[slot] = len_word(*id, p);
            suffixes[slot] = suffix_of(p.bytes(), folded);
            offsets[slot] = offset;
            ids[slot] = *id;
            min_pattern_len = min_pattern_len.min(p.len());
        }
        if selected.is_empty() {
            min_pattern_len = 0;
        }

        CompactHashTable {
            prefix_len,
            bucket_bits,
            folded,
            bucket_starts,
            lens,
            suffixes,
            offsets,
            ids,
            arena: match shared {
                Some(arena) => ArenaStorage::Shared(arena.bytes().clone()),
                None => ArenaStorage::Owned(owned),
            },
            min_pattern_len,
            #[cfg(any(test, debug_assertions))]
            arena_compares: WorkCount::default(),
        }
    }

    /// Bucket index for a window starting with `bytes` (at least
    /// `prefix_len` bytes), over ASCII-case-folded bytes when `folded`.
    #[inline]
    fn index_of(bytes: &[u8], prefix_len: usize, bucket_bits: u32, folded: bool) -> u32 {
        use mpm_patterns::fold_byte as fold;
        match prefix_len {
            1 => fold(bytes[0], folded) as u32,
            2 => u16::from_le_bytes([fold(bytes[0], folded), fold(bytes[1], folded)]) as u32,
            3 => {
                let v = u32::from_le_bytes([
                    fold(bytes[0], folded),
                    fold(bytes[1], folded),
                    fold(bytes[2], folded),
                    0,
                ]);
                hash32(v, bucket_bits)
            }
            4 => {
                let v = u32::from_le_bytes([
                    fold(bytes[0], folded),
                    fold(bytes[1], folded),
                    fold(bytes[2], folded),
                    fold(bytes[3], folded),
                ]);
                hash32(v, bucket_bits)
            }
            _ => unreachable!("prefix_len validated at construction"),
        }
    }

    /// Number of patterns stored in the table.
    pub fn pattern_count(&self) -> usize {
        self.lens.len()
    }

    /// True if the table holds no patterns.
    pub fn is_empty(&self) -> bool {
        self.lens.is_empty()
    }

    /// Smallest pattern length stored (0 if empty).
    pub fn min_pattern_len(&self) -> usize {
        self.min_pattern_len
    }

    /// Resident size of the table in bytes. Tables built over a shared
    /// arena ([`CompactHashTable::build`] with `shared`) do **not** count
    /// the arena here — the owner of the group collection counts it exactly
    /// once.
    pub fn heap_bytes(&self) -> usize {
        self.bucket_starts.len() * 4 + self.lens.len() * ENTRY_BYTES + self.arena.resident_bytes()
    }

    /// True if the pattern bytes live in a shared [`PatternArena`] rather
    /// than a buffer this table owns.
    pub fn uses_shared_arena(&self) -> bool {
        matches!(self.arena, ArenaStorage::Shared(_))
    }

    /// log2 of the number of buckets.
    pub fn bucket_bits(&self) -> u32 {
        self.bucket_bits
    }

    /// Verifies the candidate position `pos` in `haystack`: every pattern in
    /// the bucket selected by the window at `pos` is compared against the
    /// input — byte-exactly, or ASCII-case-insensitively for `nocase`
    /// entries — and confirmed matches are appended to `out`.
    ///
    /// Returns the number of pattern comparisons performed (used by the
    /// instrumentation and the cache model).
    #[inline]
    pub fn verify_at(&self, haystack: &[u8], pos: usize, out: &mut Vec<MatchEvent>) -> usize {
        let Some(bucket) = self.bucket_of(haystack, pos) else {
            return 0;
        };
        let entries = self.bucket_entries(bucket);
        (if self.folded {
            self.verify_bucket::<ScalarBackend, 8, true>(haystack, pos, entries, out)
        } else {
            self.verify_bucket::<ScalarBackend, 8, false>(haystack, pos, entries, out)
        }) as usize
    }

    /// The one bucket walk: compares the window at `pos` against every entry
    /// of a bucket (its `entries` span of the columns) and appends the
    /// matches to `out`. Returns the number of
    /// **comparisons** — entries whose length fits the haystack; an entry
    /// that would run off the end is skipped without comparing a byte, so
    /// candidates near the end of the buffer do not inflate the statistic.
    ///
    /// The bucket is walked `W` entries per step, ⌈bucket / W⌉ steps: one
    /// [`VectorBackend::bucket_survivors`] over the step's spans of the
    /// `lens` and `suffixes` columns tests every entry's length against the
    /// haystack and its suffix fingerprint against one haystack word
    /// (folded when `FOLD`, as the fingerprint was) at once, so the walk has
    /// no per-entry branch and no data-dependent trip count inside a step.
    /// A case-sensitive entry in a folded table is tested on folded bytes
    /// too — weaker, still reject-only. Only the entries that pass reach the
    /// full compare ([`CompactHashTable::confirm`]), in ascending entry
    /// order, so matches append in the order the entries are stored.
    #[inline(always)]
    fn verify_bucket<B: VectorBackend<W>, const W: usize, const FOLD: bool>(
        &self,
        haystack: &[u8],
        pos: usize,
        entries: std::ops::Range<usize>,
        out: &mut Vec<MatchEvent>,
    ) -> u64 {
        let std::ops::Range { start, end } = entries;
        // Counted on the rare path (an entry running off the end), so the
        // common step adds nothing and pays no popcount.
        let mut skipped = 0u32;
        // A `while` over the steps, not `chunks(W)` zipped over both
        // columns: the iterator pair cost a fifth more per long candidate.
        let mut first = start;
        while first < end {
            let last = end.min(first + W);
            let (fit, mut pass) = B::bucket_survivors::<FOLD>(
                &self.lens[first..last],
                &self.suffixes[first..last],
                haystack,
                pos,
            );
            let live = u32::MAX >> (32 - (last - first));
            if fit != live {
                skipped += (live & !fit).count_ones();
            }
            while pass != 0 {
                let entry = first + pass.trailing_zeros() as usize;
                self.confirm::<B, W, FOLD>(entry, haystack, pos, out);
                pass &= pass - 1;
            }
            first = last;
        }
        (end - start) as u64 - u64::from(skipped)
    }

    /// The last word on an entry whose fingerprint passed: the full compare
    /// of the window at `pos` against the pattern's bytes in the arena (the
    /// entry fits the haystack, or the bucket test would not have passed
    /// it). Out of line and cold: matches are rare next to candidates, and
    /// with the vector compare inlined the rejecting walk spilled its
    /// counters every entry (`core.rounds.delta_ns` −8% on `bulk_http`,
    /// −10% on `verify_heavy` from this attribute alone).
    #[cold]
    #[inline(never)]
    fn confirm<B: VectorBackend<W>, const W: usize, const FOLD: bool>(
        &self,
        entry: usize,
        haystack: &[u8],
        pos: usize,
        out: &mut Vec<MatchEvent>,
    ) {
        #[cfg(any(test, debug_assertions))]
        self.arena_compares.add_one();
        let len_word = self.lens[entry];
        let len = (len_word & BUCKET_LEN_MASK) as usize;
        let window = &haystack[pos..pos + len];
        let offset = self.offsets[entry] as usize;
        let pattern = &self.arena.bytes()[offset..offset + len];
        let hit = if FOLD && len_word & NOCASE_BIT != 0 {
            B::eq_window_nocase(window, pattern)
        } else {
            B::eq_window(window, pattern)
        };
        if hit {
            out.push(MatchEvent::new(pos, self.ids[entry]));
        }
    }

    /// Entries that passed their fingerprint and were compared against the
    /// pattern arena, over the life of this table (a clone starts from
    /// zero). Test and debug builds only: it exists so tests can bound the
    /// work a false candidate costs, which no timing on a shared host can.
    #[cfg(any(test, debug_assertions))]
    pub fn arena_compares(&self) -> u64 {
        self.arena_compares.get()
    }

    /// True if an occurrence starting at `pos` may still be **in progress**
    /// at the end of `haystack`: some pattern in the bucket the window at
    /// `pos` selects is longer than the `haystack.len() - pos` bytes left
    /// and agrees with all of them under its own case rule (byte-exact, or
    /// ASCII-case-insensitive for `nocase` entries). Appending the rest of
    /// such a pattern completes a match that starts at `pos`; when this
    /// returns false, no appended bytes can (for the patterns this table
    /// holds). The lengths are compared before any byte, so the common
    /// bucket — patterns that would have ended inside the haystack — costs
    /// no byte compare.
    ///
    /// Returns false when the index window at `pos` does not fit in the
    /// haystack: such a position was never indexed, so the caller must treat
    /// it as in progress on its own (as the resume walk in `mpm-vpatch` does).
    #[inline]
    pub fn prefix_live_at(&self, haystack: &[u8], pos: usize) -> bool {
        let Some(bucket) = self.bucket_of(haystack, pos) else {
            return false;
        };
        let start = self.bucket_starts[bucket] as usize;
        let end = self.bucket_starts[bucket + 1] as usize;
        let arena = self.arena.bytes();
        let seen = &haystack[pos..];
        (start..end).any(|entry| {
            let len_word = self.lens[entry];
            if (len_word & BUCKET_LEN_MASK) as usize <= seen.len() {
                return false;
            }
            let offset = self.offsets[entry] as usize;
            let prefix = &arena[offset..offset + seen.len()];
            if len_word & NOCASE_BIT != 0 {
                seen.eq_ignore_ascii_case(prefix)
            } else {
                seen == prefix
            }
        })
    }

    /// **Batched, software-pipelined verification** of a whole candidate
    /// array: semantically identical to calling
    /// [`CompactHashTable::verify_at`] for every position in order (same
    /// matches, same append order, same comparison count — property-tested
    /// in `tests/verify_batch_differential.rs`), but scheduled for the
    /// memory system instead of one dependent-load chain per candidate:
    ///
    /// 1. **SIMD index computation** — the positions (already `u32`, exactly
    ///    as `compress_store` emitted them) are fed back through the
    ///    backend's registers: one [`VectorBackend::gather_u32`] re-reads all
    ///    `W` candidate windows from the haystack, [`VectorBackend::to_ascii_lower`]
    ///    folds them when the table is folded, and
    ///    [`VectorBackend::hash_mul_shift`] computes the bucket indices —
    ///    `W` candidates per iteration, no scalar byte assembly.
    /// 2. **K-deep prefetch pipeline** — while candidate `i` is verified,
    ///    the `bucket_starts` slot of candidate `i + K` and the `lens` /
    ///    `suffixes` spans of candidate `i + K/2`'s bucket are prefetched
    ///    ([`PREFETCH_DISTANCE`]), so the dependent loads of each lookup
    ///    overlap the work on earlier candidates.
    /// 3. **Reject `W` entries per step, confirm with vector compares** —
    ///    [`VectorBackend::bucket_survivors`] tests a step's lengths and
    ///    suffix fingerprints against the haystack at once; the few entries
    ///    that pass are compared against the arena with
    ///    [`VectorBackend::eq_window`] / [`VectorBackend::eq_window_nocase`]
    ///    instead of the byte loop.
    ///
    /// Candidates whose 4-byte gather window would cross the end of the
    /// haystack are detoured through the scalar index computation (and a
    /// candidate whose *prefix* does not fit verifies nothing), so the
    /// batch path is total over arbitrary position arrays.
    ///
    /// Returns the number of pattern comparisons performed.
    pub fn verify_batch<B: VectorBackend<W>, const W: usize>(
        &self,
        haystack: &[u8],
        positions: &[u32],
        out: &mut Vec<MatchEvent>,
    ) -> u64 {
        if self.is_empty() || positions.is_empty() {
            return 0;
        }
        // Monomorphize over the fold mode: case-sensitive-only tables keep a
        // dedicated kernel with no fold instructions and no per-entry case
        // branch, mirroring the engines' `const FOLD` filter kernels.
        if self.folded {
            self.verify_batch_impl::<B, W, true>(haystack, positions, out)
        } else {
            self.verify_batch_impl::<B, W, false>(haystack, positions, out)
        }
    }

    fn verify_batch_impl<B: VectorBackend<W>, const W: usize, const FOLD: bool>(
        &self,
        haystack: &[u8],
        positions: &[u32],
        out: &mut Vec<MatchEvent>,
    ) -> u64 {
        let mut comparisons = 0u64;
        let mut buckets = [0u32; BATCH_BLOCK];
        // The whole batch runs inside the backend's dispatch trampoline so
        // the gathers, folds and bucket tests inline into one kernel. The
        // closure is too large for the inliner to fold into the trampoline
        // on its own, and outside it every backend primitive is a call.
        B::dispatch(
            #[inline(always)]
            || {
                for block in positions.chunks(BATCH_BLOCK) {
                    self.compute_buckets::<B, W, FOLD>(haystack, block, &mut buckets);
                    comparisons += self.drain_pipelined::<B, W, FOLD>(
                        haystack,
                        block,
                        &buckets[..block.len()],
                        out,
                    );
                }
            },
        );
        comparisons
    }

    /// Computes the bucket index of every candidate in `block` into
    /// `buckets`, `W` lanes at a time ([`SKIP_BUCKET`] for candidates whose
    /// prefix window does not fit the haystack).
    #[inline(always)]
    fn compute_buckets<B: VectorBackend<W>, const W: usize, const FOLD: bool>(
        &self,
        haystack: &[u8],
        block: &[u32],
        buckets: &mut [u32; BATCH_BLOCK],
    ) {
        let n = haystack.len();
        let shift = 32 - self.bucket_bits;
        let mut i = 0usize;
        while i + W <= block.len() {
            let chunk: [u32; W] = block[i..i + W].try_into().expect("chunk is W long");
            // The 4-byte gather reads `pos .. pos + 4`; candidates closer
            // than GATHER_PADDING to the end take the scalar detour below.
            if chunk.iter().all(|&p| p as usize + GATHER_PADDING <= n) {
                let windows = B::gather_u32(haystack, B::from_array(chunk));
                let windows = if FOLD {
                    B::to_ascii_lower(windows)
                } else {
                    windows
                };
                let idx = match self.prefix_len {
                    1 => B::and_const(windows, 0xff),
                    2 => B::and_const(windows, 0xffff),
                    3 => B::hash_mul_shift(
                        B::and_const(windows, 0x00ff_ffff),
                        HASH_MULTIPLIER,
                        shift,
                        u32::MAX,
                    ),
                    _ => B::hash_mul_shift(windows, HASH_MULTIPLIER, shift, u32::MAX),
                };
                buckets[i..i + W].copy_from_slice(&B::to_array(idx));
            } else {
                for (j, &p) in chunk.iter().enumerate() {
                    buckets[i + j] = self.scalar_bucket(haystack, p as usize);
                }
            }
            i += W;
        }
        for (j, &p) in block[i..].iter().enumerate() {
            buckets[i + j] = self.scalar_bucket(haystack, p as usize);
        }
    }

    /// Scalar bucket computation for candidates the gather cannot reach
    /// (block tails and positions within [`GATHER_PADDING`] of the end).
    #[inline]
    fn scalar_bucket(&self, haystack: &[u8], pos: usize) -> u32 {
        self.bucket_of(haystack, pos)
            .map_or(SKIP_BUCKET, |bucket| bucket as u32)
    }

    /// Drains one block of candidates through the K-deep prefetch pipeline:
    /// a candidate's bucket-start slot is requested `K` candidates ahead of
    /// its walk; `K/2` ahead, by when the slot has arrived, its entry span
    /// is read into `spans` and the first lines of its `lens` and `suffixes`
    /// spans are requested; the walk then starts from the stored span.
    #[inline(always)]
    fn drain_pipelined<B: VectorBackend<W>, const W: usize, const FOLD: bool>(
        &self,
        haystack: &[u8],
        block: &[u32],
        buckets: &[u32],
        out: &mut Vec<MatchEvent>,
    ) -> u64 {
        // A prefetch never faults, so neither request needs a bounds check
        // (an empty bucket at the end of the columns points one past them).
        let request_starts = |b: u32| {
            if b != SKIP_BUCKET {
                prefetch_read(self.bucket_starts.as_ptr().wrapping_add(b as usize));
            }
        };
        let span_of = |b: u32| -> (u32, u32) {
            if b == SKIP_BUCKET {
                return (0, 0);
            }
            let (start, end) = (
                self.bucket_starts[b as usize],
                self.bucket_starts[b as usize + 1],
            );
            prefetch_read(self.lens.as_ptr().wrapping_add(start as usize));
            prefetch_read(self.suffixes.as_ptr().wrapping_add(start as usize));
            (start, end)
        };
        let mut spans = [(0u32, 0u32); BATCH_BLOCK];
        buckets
            .iter()
            .take(PREFETCH_DISTANCE)
            .for_each(|&b| request_starts(b));
        for (span, &b) in spans.iter_mut().zip(buckets).take(COLUMN_PREFETCH_DISTANCE) {
            *span = span_of(b);
        }
        let mut comparisons = 0u64;
        for (i, &pos) in block.iter().enumerate() {
            if let Some(&b) = buckets.get(i + PREFETCH_DISTANCE) {
                request_starts(b);
            }
            if let Some(&b) = buckets.get(i + COLUMN_PREFETCH_DISTANCE) {
                spans[i + COLUMN_PREFETCH_DISTANCE] = span_of(b);
            }
            let (start, end) = spans[i];
            comparisons += self.verify_bucket::<B, W, FOLD>(
                haystack,
                pos as usize,
                start as usize..end as usize,
                out,
            );
        }
        comparisons
    }

    /// The bucket index touched by a candidate at `pos`, or `None` if the
    /// window does not fit. Exposed for the cache simulator, which needs the
    /// address of the bucket a verification access reads.
    pub fn bucket_of(&self, haystack: &[u8], pos: usize) -> Option<usize> {
        if pos + self.prefix_len > haystack.len() {
            None
        } else {
            Some(Self::index_of(
                &haystack[pos..],
                self.prefix_len,
                self.bucket_bits,
                self.folded,
            ) as usize)
        }
    }

    /// True if the bucket index is computed over ASCII-case-folded bytes.
    pub fn is_folded(&self) -> bool {
        self.folded
    }

    /// The entry indices of `bucket` in the column order: a verification
    /// of the bucket reads slot `bucket` of the `u32` bucket-start array,
    /// then these spans of the `u32` length and fingerprint columns. Exposed
    /// for the cache simulator's address model.
    pub fn bucket_entries(&self, bucket: usize) -> std::ops::Range<usize> {
        self.bucket_starts[bucket] as usize..self.bucket_starts[bucket + 1] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpm_patterns::{naive::naive_find_all, Pattern, PatternSet};

    /// The short and long tables S-PATCH / V-PATCH build over `set`: prefix
    /// 1 at 8 bits for the 1–3 byte patterns, prefix 4 sized by entry count
    /// for the rest.
    fn two_tables(set: &PatternSet, arena: Option<&PatternArena>) -> [CompactHashTable; 2] {
        let long_count = set.patterns().iter().filter(|p| p.len() >= 4).count();
        [
            CompactHashTable::build(set, 1, 8, |p| p.len() < 4, arena),
            CompactHashTable::build(
                set,
                4,
                bucket_bits_for_entries(long_count),
                |p| p.len() >= 4,
                arena,
            ),
        ]
    }

    fn mixed_set() -> PatternSet {
        PatternSet::new(vec![
            Pattern::literal(*b"GET"),
            Pattern::literal(*b"x"),
            Pattern::literal(*b"ab"),
            Pattern::literal(*b"attack-vector"),
            Pattern::literal(*b"attribute"),
            Pattern::literal(*b"/etc/passwd"),
            Pattern::literal(*b"abcd"),
        ])
    }

    #[test]
    fn hash32_is_deterministic_and_bounded() {
        for bits in 1..=24u32 {
            let h = hash32(0xdead_beef, bits);
            assert!(h < (1 << bits));
            assert_eq!(h, hash32(0xdead_beef, bits));
        }
    }

    #[test]
    fn verifier_confirms_exactly_the_true_matches() {
        let set = mixed_set();
        let [short, long] = two_tables(&set, None);
        let hay = b"GET /etc/passwd HTTP/1.1 attribute=abcd x attack-vector";
        // Every position is a candidate: verification alone must reproduce
        // the naive result (filters only ever reduce the candidate set).
        let mut out = Vec::new();
        for pos in 0..hay.len() {
            short.verify_at(hay, pos, &mut out);
            long.verify_at(hay, pos, &mut out);
        }
        mpm_patterns::matcher::normalize_matches(&mut out);
        assert_eq!(out, naive_find_all(&set, hay));
    }

    #[test]
    fn short_and_long_tables_partition_the_set() {
        let set = mixed_set();
        let [short, long] = two_tables(&set, None);
        assert_eq!(short.pattern_count(), 3); // GET, x, ab
        assert_eq!(long.pattern_count(), 4);
        assert_eq!(short.min_pattern_len(), 1);
        assert_eq!(long.min_pattern_len(), 4);
    }

    #[test]
    fn prefix_collisions_are_resolved_by_exact_comparison() {
        // "attribute" and "attack" share the 4-byte prefix "atta": the bucket
        // holds both, but only the pattern actually present is reported.
        let set = PatternSet::from_literals(&["attribute", "attack"]);
        let table = CompactHashTable::build(&set, 4, 10, |_| true, None);
        let hay = b"an attribute is not an attack ";
        let mut out = Vec::new();
        for pos in 0..hay.len() {
            table.verify_at(hay, pos, &mut out);
        }
        mpm_patterns::matcher::normalize_matches(&mut out);
        assert_eq!(out, naive_find_all(&set, hay));
    }

    #[test]
    fn folded_verifier_is_exact_on_mixed_case_sets() {
        // Mixed set: nocase and case-sensitive patterns sharing prefixes.
        let set = PatternSet::new(vec![
            Pattern::literal_nocase(*b"GET /Admin"),
            Pattern::literal(*b"get /admin"),
            Pattern::literal_nocase(*b"XyZ"),
            Pattern::literal(*b"xyz"),
            Pattern::literal_nocase(*b"q"),
        ]);
        let [short, long] = two_tables(&set, None);
        assert!(short.is_folded());
        assert!(long.is_folded());
        let hay = b"GET /ADMIN get /admin XYZ xyz Q q";
        let mut out = Vec::new();
        for pos in 0..hay.len() {
            short.verify_at(hay, pos, &mut out);
            long.verify_at(hay, pos, &mut out);
        }
        mpm_patterns::matcher::normalize_matches(&mut out);
        assert_eq!(out, naive_find_all(&set, hay));
    }

    #[test]
    fn case_sensitive_only_sets_build_unfolded_tables() {
        let [short, long] = two_tables(&mixed_set(), None);
        assert!(!short.is_folded());
        assert!(!long.is_folded());
    }

    #[test]
    fn empty_table_verifies_nothing() {
        let set = PatternSet::from_literals(&["abcd"]);
        let table = CompactHashTable::build(&set, 1, 8, |p| p.len() > 100, None);
        assert!(table.is_empty());
        let mut out = Vec::new();
        assert_eq!(table.verify_at(b"abcd", 0, &mut out), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn candidate_at_end_of_input_is_safe() {
        let set = mixed_set();
        let [short, long] = two_tables(&set, None);
        let hay = b"zzGET";
        let mut out = Vec::new();
        // Positions near/after the end must not panic.
        for pos in 0..=hay.len() + 2 {
            short.verify_at(hay, pos.min(hay.len()), &mut out);
            long.verify_at(hay, pos.min(hay.len()), &mut out);
        }
        mpm_patterns::matcher::normalize_matches(&mut out);
        assert_eq!(out, naive_find_all(&set, hay));
    }

    #[test]
    fn comparisons_counter_counts_bucket_entries() {
        let set = PatternSet::from_literals(&["attribute", "attack", "attach"]);
        let table = CompactHashTable::build(&set, 4, 8, |_| true, None);
        let mut out = Vec::new();
        let n = table.verify_at(b"attack now", 0, &mut out);
        assert_eq!(n, 2, "'attack' and 'attach' share the bucket prefix 'atta'");
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn comparisons_counter_excludes_entries_skipped_at_buffer_end() {
        // "attack" and "attach" share the bucket prefix "atta". On a buffer
        // that ends right after the prefix, neither pattern fits: the bounds
        // check skips both entries without comparing a byte, so the counter
        // must report 0 — not the bucket size.
        let set = PatternSet::from_literals(&["attack", "attach"]);
        let table = CompactHashTable::build(&set, 4, 8, |_| true, None);
        let mut out = Vec::new();
        assert_eq!(table.verify_at(b"zzatta", 2, &mut out), 0);
        assert!(out.is_empty());
        // One byte more and both 6-byte patterns still don't fit.
        assert_eq!(table.verify_at(b"zzattac", 2, &mut out), 0);
        assert!(out.is_empty());
        // With the full window present both entries are genuinely compared.
        assert_eq!(table.verify_at(b"zzattack", 2, &mut out), 2);
        assert_eq!(out.len(), 1);
        // Mixed-length bucket: only the entries that fit are counted.
        let set = PatternSet::from_literals(&["atta", "attack"]);
        let table = CompactHashTable::build(&set, 4, 8, |_| true, None);
        let mut out = Vec::new();
        assert_eq!(
            table.verify_at(b"atta", 0, &mut out),
            1,
            "only the 4-byte pattern fits and is compared"
        );
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn verify_batch_equals_per_candidate_on_every_table_shape() {
        use mpm_simd::ScalarBackend;
        // One table per prefix length, mixed folded/unfolded.
        let exact = PatternSet::from_literals(&[
            "x",
            "ab",
            "abc",
            "abcd",
            "attack",
            "attach",
            "attribute",
            "/etc/passwd",
        ]);
        let folded = PatternSet::new(vec![
            Pattern::literal_nocase(*b"GeT"),
            Pattern::literal(*b"get"),
            Pattern::literal_nocase(*b"AtTaCk"),
            Pattern::literal_nocase(*b"Q"),
            Pattern::literal(*b"abcd"),
        ]);
        let hay = b"GET get attack ATTACK abcd attribute q Q x ab /etc/passwd atta";
        for (set, fold) in [(&exact, false), (&folded, true)] {
            for (prefix_len, bits) in [(1usize, 8u32), (2, 16), (3, 10), (4, 12)] {
                let table =
                    CompactHashTable::build(set, prefix_len, bits, |p| p.len() >= prefix_len, None);
                let positions: Vec<u32> = (0..hay.len() as u32).collect();
                let mut expected = Vec::new();
                let mut expected_cmp = 0u64;
                for &p in &positions {
                    expected_cmp += table.verify_at(hay, p as usize, &mut expected) as u64;
                }
                let mut got = Vec::new();
                let got_cmp = table.verify_batch::<ScalarBackend, 8>(hay, &positions, &mut got);
                assert_eq!(got, expected, "prefix {prefix_len} fold {fold}");
                assert_eq!(got_cmp, expected_cmp, "prefix {prefix_len} fold {fold}");
            }
        }
    }

    #[test]
    fn verify_batch_handles_out_of_gather_range_and_empty_positions() {
        use mpm_simd::ScalarBackend;
        let set = mixed_set();
        let [short, long] = two_tables(&set, None);
        let hay = b"xGET";
        // Positions at and past the last gatherable window, plus pos == len
        // boundary values: the scalar detour must keep the batch total.
        let positions: Vec<u32> = (0..=hay.len() as u32).collect();
        let mut expected = Vec::new();
        for &p in &positions {
            short.verify_at(hay, p as usize, &mut expected);
            long.verify_at(hay, p as usize, &mut expected);
        }
        let mut got = Vec::new();
        short.verify_batch::<ScalarBackend, 8>(hay, &positions, &mut got);
        long.verify_batch::<ScalarBackend, 8>(hay, &positions, &mut got);
        mpm_patterns::matcher::normalize_matches(&mut expected);
        mpm_patterns::matcher::normalize_matches(&mut got);
        assert_eq!(got, expected);
        // Empty candidate arrays are a no-op.
        assert_eq!(
            short.verify_batch::<ScalarBackend, 8>(hay, &[], &mut got),
            0
        );
    }

    #[test]
    fn verify_batch_spans_multiple_blocks() {
        use mpm_simd::ScalarBackend;
        // More candidates than BATCH_BLOCK so block seams are crossed, with
        // matches sprinkled throughout.
        let set = PatternSet::from_literals(&["needle", "ne", "n"]);
        let hay: Vec<u8> = b"a needle in a haystack ".repeat(40);
        let [short, long] = two_tables(&set, None);
        let positions: Vec<u32> = (0..hay.len() as u32).collect();
        assert!(positions.len() > 3 * 128);
        let mut expected = Vec::new();
        let mut expected_cmp = 0u64;
        for &p in &positions {
            expected_cmp += short.verify_at(&hay, p as usize, &mut expected) as u64;
            expected_cmp += long.verify_at(&hay, p as usize, &mut expected) as u64;
        }
        let mut got = Vec::new();
        let mut got_cmp = short.verify_batch::<ScalarBackend, 8>(&hay, &positions, &mut got);
        got_cmp += long.verify_batch::<ScalarBackend, 8>(&hay, &positions, &mut got);
        mpm_patterns::matcher::normalize_matches(&mut expected);
        mpm_patterns::matcher::normalize_matches(&mut got);
        assert_eq!(got, expected);
        assert_eq!(got_cmp, expected_cmp);
    }

    #[test]
    fn direct_indexed_two_byte_table() {
        let set = PatternSet::from_literals(&["ab", "abc", "zz"]);
        let table = CompactHashTable::build(&set, 2, 0, |_| true, None);
        let mut out = Vec::new();
        table.verify_at(b"abc", 0, &mut out);
        assert_eq!(out.len(), 2);
        out.clear();
        table.verify_at(b"zz", 0, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    #[should_panic(expected = "shorter than table prefix")]
    fn building_with_too_short_patterns_panics() {
        let set = PatternSet::from_literals(&["ab"]);
        let _ = CompactHashTable::build(&set, 4, 8, |_| true, None);
    }

    #[test]
    fn heap_bytes_reflects_arena_size() {
        let set = mixed_set();
        let [short, long] = two_tables(&set, None);
        let total_pattern_bytes: usize = set.patterns().iter().map(|p| p.len()).sum();
        assert!(short.heap_bytes() + long.heap_bytes() >= total_pattern_bytes);
    }

    #[test]
    fn bucket_bits_scale_with_entry_count() {
        assert_eq!(bucket_bits_for_entries(0), 6);
        assert_eq!(bucket_bits_for_entries(1), 6);
        assert_eq!(bucket_bits_for_entries(40), 7);
        assert_eq!(bucket_bits_for_entries(600), 11);
        assert_eq!(bucket_bits_for_entries(30_000), 16);
        assert_eq!(bucket_bits_for_entries(1 << 20), 16, "clamped");
    }

    fn arena_for(set: &PatternSet) -> mpm_patterns::PatternArena {
        let mut b = mpm_patterns::ArenaBuilder::new();
        for p in set.patterns() {
            b.intern(p.bytes());
        }
        b.finish()
    }

    #[test]
    fn shared_arena_verifier_matches_owned_verifier_exactly() {
        use mpm_simd::ScalarBackend;
        let sets = [
            mixed_set(),
            PatternSet::new(vec![
                Pattern::literal_nocase(*b"GET /Admin"),
                Pattern::literal(*b"get /admin"),
                Pattern::literal_nocase(*b"XyZ"),
                Pattern::literal(*b"x"),
            ]),
        ];
        let hay = b"GET /ADMIN get /admin XYZ xyz attribute=abcd x attack-vector /etc/passwd";
        for set in &sets {
            let owned = two_tables(set, None);
            let shared = two_tables(set, Some(&arena_for(set)));
            assert!(shared.iter().all(CompactHashTable::uses_shared_arena));
            let positions: Vec<u32> = (0..hay.len() as u32).collect();
            let mut want = Vec::new();
            let mut got = Vec::new();
            for &p in &positions {
                for (owned, shared) in owned.iter().zip(&shared) {
                    owned.verify_at(hay, p as usize, &mut want);
                    shared.verify_at(hay, p as usize, &mut got);
                }
            }
            assert_eq!(got, want);
            // The batched path reads through the shared arena too.
            let mut batch = Vec::new();
            for table in &shared {
                table.verify_batch::<ScalarBackend, 8>(hay, &positions, &mut batch);
            }
            mpm_patterns::matcher::normalize_matches(&mut want);
            mpm_patterns::matcher::normalize_matches(&mut batch);
            assert_eq!(batch, want);
        }
    }

    #[test]
    fn shared_arena_tables_report_zero_arena_bytes() {
        let set = mixed_set();
        let arena = arena_for(&set);
        let [owned_short, owned_long] = two_tables(&set, None);
        let [shared_short, shared_long] = two_tables(&set, Some(&arena));
        let owned_pattern_bytes: usize = set.patterns().iter().map(|p| p.len()).sum();
        // Both builds size their tables by the one rule; the shared build
        // differs by exactly the pattern bytes, which are charged to the
        // arena owner.
        assert_eq!(shared_long.bucket_bits(), owned_long.bucket_bits());
        assert_eq!(
            shared_short.heap_bytes() + shared_long.heap_bytes() + owned_pattern_bytes,
            owned_short.heap_bytes() + owned_long.heap_bytes()
        );
    }

    #[test]
    fn an_entry_is_sixteen_bytes() {
        // Four `u32` columns, nothing kept twice and no padding: the memory
        // rows count a table as its bucket starts, 16 bytes per entry and
        // its owned pattern bytes.
        assert_eq!(ENTRY_BYTES, 16);
        let set = mixed_set();
        let table = CompactHashTable::build(&set, 4, 10, |p| p.len() >= 4, None);
        let pattern_bytes: usize = set
            .patterns()
            .iter()
            .filter(|p| p.len() >= 4)
            .map(|p| p.len())
            .sum();
        assert_eq!(
            table.heap_bytes(),
            ((1 << 10) + 1) * 4 + table.pattern_count() * 16 + pattern_bytes
        );
    }

    /// SplitMix64, for the work-count constructions below.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Verifies every start of `hay` whose 4-byte window heads a pattern of
    /// `set`, batched and one lookup at a time, and asserts the bound this
    /// table exists for: a false candidate is rejected by the bucket test,
    /// from the length and fingerprint columns, so arena compares stay within the matches plus 1% of comparisons.
    /// Returns `(candidates, comparisons)`.
    fn assert_false_candidates_skip_the_arena(set: &PatternSet, hay: &[u8]) -> (usize, u64) {
        let fold = set.has_nocase();
        let head =
            |w: &[u8]| -> [u8; 4] { std::array::from_fn(|i| mpm_patterns::fold_byte(w[i], fold)) };
        let heads: std::collections::HashSet<[u8; 4]> =
            set.patterns().iter().map(|p| head(p.bytes())).collect();
        let positions: Vec<u32> = (0..hay.len() - 3)
            .filter(|&i| heads.contains(&head(&hay[i..])))
            .map(|i| i as u32)
            .collect();
        let [_, long] = two_tables(set, None);
        let mut batched = Vec::new();
        let comparisons = long.verify_batch::<ScalarBackend, 8>(hay, &positions, &mut batched);
        let batch_compares = long.arena_compares();
        assert!(!batched.is_empty(), "the construction plants true matches");
        assert!(
            batch_compares <= batched.len() as u64 + comparisons / 100,
            "{batch_compares} arena compares for {} matches in {comparisons} comparisons",
            batched.len()
        );

        // The one-candidate lookup walks buckets through the same entry
        // test: same matches, same comparisons, same arena compares.
        let mut single = Vec::new();
        let mut single_comparisons = 0u64;
        for &p in &positions {
            single_comparisons += long.verify_at(hay, p as usize, &mut single) as u64;
        }
        assert_eq!(single, batched);
        assert_eq!(single_comparisons, comparisons);
        assert_eq!(long.arena_compares(), 2 * batch_compares);
        (positions.len(), comparisons)
    }

    #[test]
    fn hot_heads_with_random_tails_are_rejected_in_the_entry_row() {
        // The `verify_heavy` shape: traffic made of a small vocabulary, every
        // hot 4-gram heading several patterns whose tails are random bytes —
        // nearly every start is a candidate and nearly none is a match.
        let words: [&[u8]; 8] = [
            b"GET /index.html HTTP/1.1\r\n",
            b"Host: www.example.com\r\n",
            b"Accept-Encoding: gzip, deflate\r\n",
            b"Content-Type: text/html\r\n",
            b"Connection: keep-alive\r\n",
            b"User-Agent: Mozilla/5.0\r\n",
            b"Cache-Control: no-cache\r\n",
            b"Content-Length: 1024\r\n",
        ];
        let mut state = 0x7665_7269_6679u64;
        let mut patterns = Vec::new();
        for word in words {
            for gram in word.windows(4) {
                for _ in 0..4 {
                    let mut bytes = gram.to_vec();
                    for _ in 0..4 + splitmix(&mut state) % 9 {
                        bytes.push(splitmix(&mut state) as u8);
                    }
                    patterns.push(Pattern::literal(bytes));
                }
            }
        }
        let mut hay = Vec::new();
        while hay.len() < 128 * 1024 {
            hay.extend_from_slice(words[(splitmix(&mut state) % 8) as usize]);
            if splitmix(&mut state).is_multiple_of(64) {
                let planted = &patterns[(splitmix(&mut state) as usize) % patterns.len()];
                hay.extend_from_slice(planted.bytes());
            }
        }
        let (candidates, comparisons) =
            assert_false_candidates_skip_the_arena(&PatternSet::new(patterns), &hay);
        assert!(candidates >= 100_000, "{candidates}");
        assert!(comparisons > 3 * candidates as u64, "{comparisons}");
    }

    #[test]
    fn a_shared_header_name_is_rejected_by_the_suffix() {
        // The shape real HTTP rules have: 24 `nocase` patterns sharing their
        // first 14 bytes, so one bucket holds them all and a fingerprint over
        // the bytes after the index prefix ("ent-") could not tell them
        // apart. The suffix can.
        let mut state = 0x636f_6e74_656e_7473_u64;
        let tail = |state: &mut u64| -> Vec<u8> {
            (0..6 + splitmix(state) % 9)
                .map(|_| b'a' + (splitmix(state) % 26) as u8)
                .collect()
        };
        let patterns: Vec<Pattern> = (0..24)
            .map(|_| {
                let mut bytes = b"Content-Type: ".to_vec();
                bytes.extend(tail(&mut state));
                Pattern::literal_nocase(bytes)
            })
            .collect();
        let mut hay = Vec::new();
        for line in 0..6000usize {
            hay.extend_from_slice(if line.is_multiple_of(2) {
                b"Content-Type: "
            } else {
                b"CONTENT-TYPE: "
            });
            if line.is_multiple_of(16) {
                hay.extend_from_slice(&patterns[line / 16 % patterns.len()].bytes()[14..]);
            } else {
                hay.extend(tail(&mut state));
            }
            hay.extend_from_slice(b"\r\nHost: example\r\n");
        }
        let (candidates, comparisons) =
            assert_false_candidates_skip_the_arena(&PatternSet::new(patterns), &hay);
        assert_eq!(candidates, 6000);
        assert_eq!(comparisons, 24 * 6000, "one bucket, every entry walked");
    }

    #[test]
    #[should_panic(expected = "not interned")]
    fn shared_build_requires_interned_patterns() {
        let set = PatternSet::from_literals(&["abcd"]);
        let empty = mpm_patterns::ArenaBuilder::new().finish();
        let _ = two_tables(&set, Some(&empty));
    }
}
