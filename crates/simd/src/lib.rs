//! Vector-engine substrate: the SIMD primitives V-PATCH and Vector-DFC are
//! built on.
//!
//! The paper's vectorized filtering relies on three capabilities of modern
//! SIMD instruction sets (§III of the paper):
//!
//! * **shuffle** — permuting bytes inside a register, used to turn `W + 1`
//!   consecutive input bytes into `W` overlapping 2-byte sliding windows
//!   (Figure 2 of the paper), and likewise 4-byte windows for the third
//!   filter;
//! * **gather** — fetching one value per lane from non-contiguous memory
//!   locations (`_mm256_i32gather_epi32` on Haswell/AVX2, the 512-bit
//!   equivalent on Xeon-Phi), used to look up the cache-resident filters at
//!   `W` independent indices at once;
//! * **mask extraction** (movemask) — turning a per-lane comparison result
//!   into a scalar bitmask so the scalar part of the loop can decide which
//!   lanes passed a filter.
//!
//! [`VectorBackend`] captures those operations behind a width-generic,
//! platform-independent interface with three implementations:
//!
//! | backend | lanes (`W`) | [`VectorBackend::Vec`] | hardware | models |
//! |---|---|---|---|---|
//! | [`ScalarBackend`] | any | `[u32; W]` | none (plain Rust loops) | portable fallback / reference semantics |
//! | [`Avx2Backend`] | 8 | `__m256i` | AVX2 (`vpgatherdd`, `vpshufb`, `vpermd`) | the paper's Haswell platform |
//! | [`Avx512Backend`] | 16 | `__m512i` | AVX-512F (`vpcompressd`) | the paper's Xeon-Phi 512-bit VPU |
//!
//! # Register residency
//!
//! Every operation consumes and produces the backend's **associated register
//! type** [`VectorBackend::Vec`] — `__m256i` / `__m512i` on the hardware
//! backends — rather than `[u32; W]` arrays. Composed operations
//! (`windows2 → gather_u16 → shr_const → test_window_bits`) therefore stay in
//! vector registers end-to-end: there is no array materialisation at the op
//! boundaries for the compiler to spill and reload. The paper's speedups
//! assume exactly this (its Figure 6 isolates the filtering pipeline); the
//! array-based interface this crate used previously forced a store/load pair
//! per op on every backend. Use [`VectorBackend::from_array`] /
//! [`VectorBackend::to_array`] at the edges (tests, debugging) — never inside
//! a hot loop.
//!
//! Every backend produces bit-for-bit identical results (property-tested in
//! this crate); they differ only in speed. Engines are generic over
//! `B: VectorBackend<W>`, so the same V-PATCH source compiles to a scalar,
//! an 8-lane and a 16-lane binary — mirroring how the paper runs one design
//! on both Haswell and Xeon-Phi.
//!
//! # Candidate compaction
//!
//! [`VectorBackend::compress_store`] turns a lane bitmask into appended
//! candidate positions (`base + lane` for every set bit) in one vectorized
//! step — `vpcompressd` on AVX-512, a 256-entry `vpermd` permutation LUT on
//! AVX2, a `trailing_zeros` bit-loop on the scalar backend. Storing
//! candidates is the dominant cost on top of pure filtering
//! ("V-PATCH-filtering+stores" vs "V-PATCH-filtering" in the paper's
//! Figure 6), which is why it gets a dedicated primitive instead of a scalar
//! drain of the mask.
//!
//! # Bucket test
//!
//! [`VectorBackend::bucket_survivors`] is the verification round's inner
//! step: up to `W` entries of a compact-hash-table bucket, stored as a
//! length column and a suffix-fingerprint column, are tested against the
//! haystack at one candidate position at once — masked column loads, a
//! masked gather of the words the long patterns would end on, one broadcast
//! word for the short ones — and leave as two bitmasks (entries that fit,
//! entries that survive). The per-entry loop it replaces had a
//! data-dependent trip count and a data-dependent branch per entry.
//!
//! # Table padding requirement
//!
//! Hardware gathers load 32 bits per lane even when only one byte is needed,
//! so [`VectorBackend::gather_bytes`] requires `table.len() >= max_index + 4`.
//! The filter structures in `mpm-dfc` / `mpm-vpatch` allocate 4 padding bytes
//! at the end of every table; the scalar backend asserts the same requirement
//! in debug builds so a violation cannot hide behind the portable path.

#![warn(missing_docs)]

pub mod avx2;
pub mod avx512;
pub mod dispatch;
pub mod scalar;

pub use avx2::Avx2Backend;
pub use avx512::Avx512Backend;
pub use dispatch::{
    available_backends, detect_best, forced_backend, BackendKind, FORCE_BACKEND_ENV,
};
pub use scalar::{ScalarBackend, ScalarWide16, ScalarWide8};

/// Number of extra bytes every gather table must have after its last
/// addressable index (see the crate-level documentation).
pub const GATHER_PADDING: usize = 4;

/// Number of consecutive start positions one vector step of
/// [`VectorBackend::prescreen`] tests.
pub const PRESCREEN_BLOCK: usize = 64;

/// The bits of a [`VectorBackend::bucket_survivors`] length word that hold
/// the pattern length. The top bit is the caller's flag (the verification
/// tables mark `nocase` entries with it) and is ignored.
pub const BUCKET_LEN_MASK: u32 = 0x7fff_ffff;

/// Haystack-word masks of the suffix fingerprint of a pattern shorter than
/// the word, indexed by its length: the fingerprint covers that many bytes
/// (a pattern of four bytes or more is covered by the whole word).
const SUFFIX_MASK: [u32; 4] = [0, 0xff, 0xffff, 0x00ff_ffff];

/// Packs 64 flag bytes, each `0` or `1`, into a bitmask (bit `j` = flag `j`).
///
/// Eight bytes at a time: with every byte 0 or 1, multiplying the
/// little-endian word by `Σ 2^(56-7i)` lands byte `i`'s flag on bit `56 + i`,
/// and no two partial products share a bit position, so nothing carries.
#[inline(always)]
fn pack_flags(flags: &[u8; PRESCREEN_BLOCK]) -> u64 {
    let mut mask = 0u64;
    for (k, lane) in flags.chunks_exact(8).enumerate() {
        let word = u64::from_le_bytes(lane.try_into().expect("chunks_exact(8) yields 8 bytes"));
        mask |= (word.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * k);
    }
    mask
}

/// The argument contract of [`VectorBackend::bucket_survivors`], checked
/// by every backend before it loads a lane: the hardware backends' masked
/// loads and gather rely on it.
#[inline(always)]
fn assert_bucket_args<const W: usize>(lens: &[u32], suffixes: &[u32], haystack: &[u8], pos: usize) {
    assert!(
        lens.len() <= W && suffixes.len() == lens.len() && pos <= haystack.len(),
        "bucket_survivors: {} lens, {} suffixes (at most {W}), pos {pos} in a haystack of {}",
        lens.len(),
        suffixes.len(),
        haystack.len()
    );
}

/// Issues a best-effort read prefetch for the cache line containing `ptr`
/// (`prefetcht0` on x86-64, a no-op elsewhere).
///
/// This is the scheduling primitive of the batched verification pipeline
/// (`mpm-verify`): the dependent loads of a compact-hash-table lookup —
/// bucket offsets, then the bucket's length and fingerprint columns — are
/// requested `K`
/// candidates ahead of use, so their memory latency overlaps the compares of
/// the current candidate instead of serialising behind them.
///
/// The instruction is architecturally a hint: it never faults, even for a
/// dangling or misaligned address, so the wrapper is safe. It is also not
/// gated on any target feature (`prefetcht0` is baseline x86-64), so callers
/// do not need a [`VectorBackend::dispatch`] region to use it.
#[inline(always)]
pub fn prefetch_read<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint; it performs no architecturally visible
    // memory access and cannot fault regardless of the pointer value.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(ptr as *const i8)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}

/// ASCII-lowercases the four packed bytes of a little-endian `u32` lane
/// without branches (SWAR): every byte in `b'A'..=b'Z'` gets `0x20` OR-ed
/// in, every other byte — including non-ASCII `0x80..=0xFF` — is unchanged.
///
/// This is the scalar reference semantics of
/// [`VectorBackend::to_ascii_lower`] and the building block of the AVX-512
/// implementation (AVX-512**F** has no byte-granular compares — those are
/// AVX-512BW — so the 32-bit SWAR form is what maps onto `vpaddd`/`vpandd`).
///
/// Derivation, per byte `v` with the high bit masked off: `v >= b'A'` ⇔
/// `v + 0x3F` overflows into bit 7, and `v > b'Z'` ⇔ `v + 0x25` does; the
/// adds stay within each byte because the masked inputs are ≤ `0x7F`
/// (`0x7F + 0x3F = 0xBE`). Bytes whose original high bit was set are
/// excluded, and the surviving bit-7 marks shift right by 2 to become the
/// `0x20` case bit.
#[inline]
pub const fn ascii_lower_u32(x: u32) -> u32 {
    let hi = x & 0x8080_8080;
    let low7 = x & 0x7f7f_7f7f;
    let ge_a = low7.wrapping_add(0x3f3f_3f3f) & 0x8080_8080;
    let gt_z = low7.wrapping_add(0x2525_2525) & 0x8080_8080;
    let is_upper = ge_a & !gt_z & !hi;
    x | (is_upper >> 2)
}

/// Width-generic SIMD operations used by the vectorized matching engines.
///
/// `W` is the number of 32-bit lanes (8 for AVX2, 16 for AVX-512 /
/// Xeon-Phi). All operations are pure functions of their inputs; backends
/// hold no state, so the trait is implemented on zero-sized types.
///
/// Operations pass values as the backend's native register type
/// [`Self::Vec`] so that composed ops never round-trip through memory; see
/// the crate-level documentation.
pub trait VectorBackend<const W: usize>: Copy + Clone + Default + Send + Sync + 'static {
    /// The register-resident vector of `W` 32-bit lanes this backend computes
    /// with: `[u32; W]` for the scalar backend, `__m256i` / `__m512i` for the
    /// hardware backends.
    ///
    /// Values of this type are only meaningful while the backend is available
    /// (engines check [`VectorBackend::is_available`] at construction) and
    /// are intended to live inside a [`VectorBackend::dispatch`] region;
    /// convert with [`VectorBackend::from_array`] / [`VectorBackend::to_array`]
    /// at the edges.
    type Vec: Copy;

    /// Human-readable backend name (used in benchmark output).
    fn name() -> &'static str;

    /// True if the current CPU can execute this backend.
    fn is_available() -> bool;

    /// Runs `f` inside a function compiled with this backend's target
    /// features enabled.
    ///
    /// Engines wrap their whole filtering loop in `B::dispatch(...)`. This is
    /// what lets the per-operation intrinsics below inline into the loop:
    /// a `#[target_feature]` function can only be inlined into callers that
    /// also carry the feature, so without the trampoline every `gather` /
    /// `shuffle` would remain an opaque function call, [`Self::Vec`] values
    /// would spill across those calls, and the vectorized loop would lose its
    /// advantage to call overhead.
    ///
    /// The scalar backend's implementation simply calls `f`.
    #[inline(always)]
    fn dispatch<R>(f: impl FnOnce() -> R) -> R {
        f()
    }

    /// Materialises a lane array into a register value.
    fn from_array(v: [u32; W]) -> Self::Vec;

    /// Extracts the lanes of a register value into an array.
    fn to_array(v: Self::Vec) -> [u32; W];

    /// Builds `W` overlapping 2-byte little-endian windows:
    /// `lane[j] = input[pos + j] | input[pos + j + 1] << 8`.
    ///
    /// This is the "input transformation" of Figure 2 in the paper,
    /// implemented with byte shuffles on the SIMD backends.
    ///
    /// # Panics
    /// Panics (at least in debug builds) if `pos + W + 1 > input.len()`.
    fn windows2(input: &[u8], pos: usize) -> Self::Vec;

    /// Builds `W` overlapping 4-byte little-endian windows:
    /// `lane[j] = u32::from_le_bytes(input[pos + j .. pos + j + 4])`.
    ///
    /// # Panics
    /// Panics (at least in debug builds) if `pos + W + 3 > input.len()`.
    fn windows4(input: &[u8], pos: usize) -> Self::Vec;

    /// Gathers one byte per lane: `lane[j] = table[idx[j]] as u32`.
    ///
    /// # Panics / Safety
    /// Requires `idx[j] as usize + GATHER_PADDING <= table.len()` for every
    /// lane. The scalar backend asserts this; the SIMD backends rely on it
    /// (they read 4 bytes per lane) and the debug assertion is kept in their
    /// safe wrappers.
    fn gather_bytes(table: &[u8], idx: Self::Vec) -> Self::Vec;

    /// Gathers two consecutive bytes per lane, little-endian:
    /// `lane[j] = table[idx[j]] as u32 | (table[idx[j] + 1] as u32) << 8`.
    ///
    /// This is what the paper's *filter merging* optimisation needs: with
    /// filters 1 and 2 interleaved in memory, a single gather at
    /// `2 * (window >> 3)` returns filter 1's byte in the low half and
    /// filter 2's byte in the next one (Figure 3). Same padding contract as
    /// [`VectorBackend::gather_bytes`].
    ///
    /// The default implementation performs two scalar loads per lane;
    /// hardware backends override it to reuse their 32-bit gather.
    fn gather_u16(table: &[u8], idx: Self::Vec) -> Self::Vec {
        let idx = Self::to_array(idx);
        let mut out = [0u32; W];
        for (j, slot) in out.iter_mut().enumerate() {
            let i = idx[j] as usize;
            debug_assert!(
                i + GATHER_PADDING <= table.len(),
                "gather index {i} violates the padding requirement (table len {})",
                table.len()
            );
            *slot = u16::from_le_bytes([table[i], table[i + 1]]) as u32;
        }
        Self::from_array(out)
    }

    /// Gathers four consecutive bytes per lane, little-endian:
    /// `lane[j] = u32::from_le_bytes(table[idx[j] .. idx[j] + 4])`.
    ///
    /// This is how the batched verifier re-reads the 4-byte candidate
    /// windows straight out of the haystack: the filter's `compress_store`
    /// output is already a `u32` position array, so feeding it back through
    /// the gather yields all `W` windows in one register with no scalar
    /// re-assembly. Same padding contract as [`VectorBackend::gather_bytes`]:
    /// every `idx[j] as usize + GATHER_PADDING <= table.len()` (here the
    /// "padding" is simply the 4 bytes actually read — callers route
    /// positions closer than 4 bytes to the end through a scalar path).
    ///
    /// The default implementation performs one scalar load per lane;
    /// hardware backends override it with their 32-bit gather.
    fn gather_u32(table: &[u8], idx: Self::Vec) -> Self::Vec {
        let idx = Self::to_array(idx);
        let mut out = [0u32; W];
        for (j, slot) in out.iter_mut().enumerate() {
            let i = idx[j] as usize;
            debug_assert!(
                i + GATHER_PADDING <= table.len(),
                "gather index {i} violates the padding requirement (table len {})",
                table.len()
            );
            *slot = u32::from_le_bytes([table[i], table[i + 1], table[i + 2], table[i + 3]]);
        }
        Self::from_array(out)
    }

    /// Byte-exact window comparison: true iff `window == pattern`.
    ///
    /// `window` and `pattern` must have equal lengths. The hardware backends
    /// compare 32/64-byte blocks with vector compare-mask instructions and
    /// drain the sub-register remainder with **masked vector loads** (dword
    /// granular, so at most 3 trailing bytes fall back to scalar compares);
    /// the scalar default is the plain slice comparison. All backends are
    /// byte-exhaustively tested identical (see `backend_equivalence.rs`).
    ///
    /// This is the compare half of the batched verification design: the
    /// per-entry `==` byte loop of `CompactHashTable::verify_at` becomes one
    /// or two vector compares for typical Snort-length patterns.
    fn eq_window(window: &[u8], pattern: &[u8]) -> bool {
        debug_assert_eq!(window.len(), pattern.len());
        window == pattern
    }

    /// ASCII-case-insensitive window comparison: true iff
    /// `window.eq_ignore_ascii_case(pattern)`.
    ///
    /// Same contract and implementation shape as
    /// [`VectorBackend::eq_window`], with both sides folded through the
    /// backend's ASCII-lowercase primitive before the compare (byte-exact
    /// for non-alphabetic and non-ASCII bytes, exactly like
    /// [`ascii_lower_u32`]).
    fn eq_window_nocase(window: &[u8], pattern: &[u8]) -> bool {
        debug_assert_eq!(window.len(), pattern.len());
        window.eq_ignore_ascii_case(pattern)
    }

    /// Two-byte occurrence prescreen: calls `candidate(start)`, in ascending
    /// order, for every `start` in `starts` where `pattern`'s **first and
    /// last byte** both match `hay` (at `start` and `start + pattern.len()
    /// - 1`), ASCII-case-insensitively when `FOLD`. A superset of the true
    /// occurrence starts; the caller settles each candidate with
    /// [`VectorBackend::eq_window`] / [`VectorBackend::eq_window_nocase`].
    ///
    /// This is the filter half of occurrence enumeration in rule
    /// confirmation (`mpm-verify`): instead of one dependent scalar compare
    /// per start, [`PRESCREEN_BLOCK`] consecutive starts are tested per step
    /// — two byte-compares over the block, AND-ed into flag bytes — and only
    /// blocks with a hit pay for the bitmask and the candidate calls. Two
    /// bytes a pattern length apart reject far more starts than the first
    /// byte alone on text-like payloads. Starts past the last whole block go
    /// through a scalar loop.
    ///
    /// The default is safe Rust written to autovectorise: inside a
    /// [`VectorBackend::dispatch`] region it compiles to that backend's byte
    /// compares (`vpcmpeqb` on 32-byte registers under AVX2 and AVX-512F).
    ///
    /// # Panics
    /// Panics if `pattern` is empty, or if a non-empty `starts` reaches past
    /// `hay.len() - pattern.len()`.
    #[inline(always)]
    fn prescreen<const FOLD: bool>(
        hay: &[u8],
        starts: std::ops::RangeInclusive<usize>,
        pattern: &[u8],
        mut candidate: impl FnMut(usize),
    ) {
        if starts.is_empty() {
            return;
        }
        let (lo, hi) = (*starts.start(), *starts.end());
        let gap = pattern.len() - 1;
        let fold = |b: u8| if FOLD { b.to_ascii_lowercase() } else { b };
        let (first, last) = (fold(pattern[0]), fold(pattern[gap]));
        let heads = &hay[lo..=hi];
        let tails = &hay[lo + gap..=hi + gap];
        let mut base = lo;
        for (h, t) in heads
            .chunks_exact(PRESCREEN_BLOCK)
            .zip(tails.chunks_exact(PRESCREEN_BLOCK))
        {
            let h: &[u8; PRESCREEN_BLOCK] = h.try_into().expect("chunks_exact yields blocks");
            let t: &[u8; PRESCREEN_BLOCK] = t.try_into().expect("chunks_exact yields blocks");
            let mut flags = [0u8; PRESCREEN_BLOCK];
            for j in 0..PRESCREEN_BLOCK {
                flags[j] = u8::from((fold(h[j]) == first) & (fold(t[j]) == last));
            }
            if flags != [0u8; PRESCREEN_BLOCK] {
                let mut mask = pack_flags(&flags);
                while mask != 0 {
                    candidate(base + mask.trailing_zeros() as usize);
                    mask &= mask - 1;
                }
            }
            base += PRESCREEN_BLOCK;
        }
        for (j, (&h, &t)) in heads[base - lo..]
            .iter()
            .zip(&tails[base - lo..])
            .enumerate()
        {
            if fold(h) == first && fold(t) == last {
                candidate(base + j);
            }
        }
    }

    /// Bucket test of the verification tables: which of up to `W` entries
    /// fit the haystack at `pos`, and which of those survive their **suffix
    /// fingerprint**. Returns `(fit, pass)` as lane bitmasks.
    ///
    /// Entry `j` is a pattern of length `lens[j] & BUCKET_LEN_MASK` whose
    /// fingerprint `suffixes[j]` holds its last `min(len, 4)` bytes,
    /// little-endian (ASCII-folded in a folded table). Bit `j` of `fit` is
    /// set iff `pos + len <= haystack.len()` — only those entries count as
    /// compared. Bit `j` of `pass` is set iff the entry fits and its
    /// fingerprint does not reject the window at `pos`:
    ///
    /// * `len >= 4`: the haystack word the pattern would end on,
    ///   `haystack[pos + len - 4 .. pos + len]`, equals the fingerprint;
    /// * `len < 4`: the word at `pos`, under the mask `(1 << 8·len) − 1`,
    ///   equals it — or that word would cross the end of the haystack, and
    ///   the fingerprint is skipped.
    ///
    /// The words are ASCII-lowercased first when `FOLD`. The fingerprint
    /// only ever rejects: a `pass` entry is settled by the caller's full
    /// compare ([`VectorBackend::eq_window`] /
    /// [`VectorBackend::eq_window_nocase`]).
    ///
    /// The default is the per-entry rule, one entry after the other; the
    /// scalar backend uses it. The hardware backends test all entries at
    /// once: masked loads of the two columns (never past either slice), a
    /// masked gather of the long entries' words based at `haystack[pos..]`
    /// with offsets `len − 4` (so no lane reads outside `pos..pos + len`) —
    /// on AVX-512, two permutes of one 64-byte load at `pos` instead, when
    /// the words lie in it — and one broadcast word at `pos` for the short
    /// entries.
    ///
    /// # Panics
    /// Panics if `lens.len() > W`, if `suffixes.len() != lens.len()`, or if
    /// `pos > haystack.len()`.
    #[inline(always)]
    fn bucket_survivors<const FOLD: bool>(
        lens: &[u32],
        suffixes: &[u32],
        haystack: &[u8],
        pos: usize,
    ) -> (u32, u32) {
        assert_bucket_args::<W>(lens, suffixes, haystack, pos);
        let word = |at: usize| -> Option<u32> {
            let bytes = haystack.get(at..at + 4)?;
            let word = u32::from_le_bytes(bytes.try_into().expect("a 4-byte slice"));
            Some(if FOLD { ascii_lower_u32(word) } else { word })
        };
        let rest = haystack.len() - pos;
        let (mut fit, mut pass) = (0u32, 0u32);
        for (j, (&len, &suffix)) in lens.iter().zip(suffixes).enumerate() {
            let len = (len & BUCKET_LEN_MASK) as usize;
            if len > rest {
                continue;
            }
            fit |= 1 << j;
            let rejected = if len >= 4 {
                word(pos + len - 4).is_some_and(|word| word != suffix)
            } else {
                word(pos).is_some_and(|word| (word ^ suffix) & SUFFIX_MASK[len] != 0)
            };
            if !rejected {
                pass |= 1 << j;
            }
        }
        (fit, pass)
    }

    /// ASCII-lowercases every packed byte of every lane: each byte in
    /// `b'A'..=b'Z'` gets `0x20` OR-ed in, all other bytes (including
    /// non-ASCII `0x80..=0xFF`) pass through unchanged.
    ///
    /// This is the **case-folding primitive** of the filter-folded /
    /// verify-exact design: when a pattern set contains `nocase` patterns,
    /// the engines fold the sliding-window registers (`windows2` /
    /// `windows4` output) with this op before the filter gathers and hashes,
    /// matching the case-folded bytes the filter tables were built over.
    /// Zero bytes (the unused high bytes of 2-byte windows) are unaffected,
    /// so the same op serves both window widths.
    ///
    /// Implementations: a byte range-compare + `or 0x20` on AVX2
    /// (`vpcmpgtb`), the 32-bit SWAR form [`ascii_lower_u32`] on AVX-512F
    /// (byte compares are AVX-512BW, which the backend does not require),
    /// and a per-lane scalar loop here in the default.
    fn to_ascii_lower(v: Self::Vec) -> Self::Vec {
        let v = Self::to_array(v);
        let mut out = [0u32; W];
        for (j, slot) in out.iter_mut().enumerate() {
            *slot = ascii_lower_u32(v[j]);
        }
        Self::from_array(out)
    }

    /// Per-lane multiplicative hash: `((v * mul) >> shift) & mask`
    /// (wrapping multiplication), the hash family used by the third filter.
    fn hash_mul_shift(v: Self::Vec, mul: u32, shift: u32, mask: u32) -> Self::Vec;

    /// Per-lane right shift by a constant.
    fn shr_const(v: Self::Vec, n: u32) -> Self::Vec;

    /// Per-lane bitwise AND with a constant.
    fn and_const(v: Self::Vec, c: u32) -> Self::Vec;

    /// Tests, for every lane, bit `windows[j] & 7` of the gathered filter
    /// byte `bytes[j]`, returning a lane bitmask (bit `j` set ⇔ the filter
    /// bit for lane `j` is set).
    ///
    /// This is the standard bitmap-membership idiom the paper adopts from
    /// the vectorized-Bloom-filter literature: the window value selects both
    /// the byte (high bits, via the gather index) and the bit inside that
    /// byte (low 3 bits).
    fn test_window_bits(bytes: Self::Vec, windows: Self::Vec) -> u32 {
        let bytes = Self::to_array(bytes);
        let windows = Self::to_array(windows);
        let mut mask = 0u32;
        for j in 0..W {
            if (bytes[j] >> (windows[j] & 7)) & 1 != 0 {
                mask |= 1 << j;
            }
        }
        mask
    }

    /// Appends `base + j` to `out` for every set bit `j` of
    /// `mask & full_mask()`, in ascending lane order.
    ///
    /// This is the **vectorized candidate compaction** primitive: the lane
    /// bitmask a filter test produced becomes stored candidate positions in
    /// one step. AVX-512 compacts with `vpcompressd` over `base + iota`
    /// (`vpaddd`); AVX2 permutes `base + iota` through a 256-entry
    /// lane-index LUT (`vpermd`); the scalar backend drains the mask with a
    /// `trailing_zeros` bit-loop (this default).
    ///
    /// # Contract
    ///
    /// * Exactly `(mask & full_mask()).count_ones()` elements are appended;
    ///   existing contents of `out` are preserved.
    /// * Backends may *write* up to `W` `u32`s of spare capacity past
    ///   `out.len()` before publishing the true count (an over-store, never
    ///   an over-read of published data). They reserve that spare capacity
    ///   themselves; callers need no pre-reservation, but reserving ahead
    ///   (e.g. via `Scratch` capacity hints) keeps the internal grow branch
    ///   cold.
    /// * `mask == 0` is valid and appends nothing.
    /// * `base + j` wraps modulo 2³² on every backend (the hardware adds are
    ///   wrapping), so backends stay byte-identical even for `base` within
    ///   `W` of `u32::MAX` — engines never get there (scan chunks are
    ///   bounded below 4 GiB), but the primitive itself is total.
    fn compress_store(mask: u32, base: u32, out: &mut Vec<u32>) {
        let mut m = mask & Self::full_mask();
        while m != 0 {
            out.push(base.wrapping_add(m.trailing_zeros()));
            m &= m - 1;
        }
    }

    /// All-lanes mask constant for this width (`W` low bits set).
    #[inline]
    fn full_mask() -> u32 {
        if W >= 32 {
            u32::MAX
        } else {
            (1u32 << W) - 1
        }
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    #[test]
    fn full_mask_matches_width() {
        assert_eq!(<ScalarWide8 as VectorBackend<8>>::full_mask(), 0xff);
        assert_eq!(<ScalarWide16 as VectorBackend<16>>::full_mask(), 0xffff);
    }

    #[test]
    fn default_test_window_bits_checks_low_three_bits() {
        // byte 0b0000_0100 has bit 2 set; window value with low bits = 2 hits.
        let bytes = [0b0000_0100u32; 8];
        let mut windows = [2u32; 8];
        windows[3] = 5; // bit 5 not set in the byte
        let mask = <ScalarWide8 as VectorBackend<8>>::test_window_bits(bytes, windows);
        assert_eq!(mask, 0xff & !(1 << 3));
    }

    #[test]
    fn default_compress_store_appends_set_lanes_in_order() {
        let mut out = vec![7u32];
        <ScalarWide8 as VectorBackend<8>>::compress_store(0b1010_0001, 100, &mut out);
        assert_eq!(out, vec![7, 100, 105, 107]);
        // Bits above the width are ignored; a zero mask appends nothing.
        <ScalarWide8 as VectorBackend<8>>::compress_store(0xffff_ff00, 0, &mut out);
        assert_eq!(out, vec![7, 100, 105, 107]);
    }

    #[test]
    fn compress_store_wraps_at_u32_max() {
        let mut out = Vec::new();
        <ScalarWide8 as VectorBackend<8>>::compress_store(0b1000_0001, u32::MAX, &mut out);
        assert_eq!(out, vec![u32::MAX, 6]);
    }

    #[test]
    fn ascii_lower_u32_folds_exactly_the_uppercase_bytes() {
        // Exhaustive over every byte value in every byte position.
        for b in 0..=255u8 {
            let expected = b.to_ascii_lowercase();
            for pos in 0..4 {
                let x = (b as u32) << (8 * pos);
                let folded = ascii_lower_u32(x);
                let got = ((folded >> (8 * pos)) & 0xff) as u8;
                assert_eq!(got, expected, "byte {b:#04x} at position {pos}");
                // Other byte positions stay zero.
                assert_eq!(folded & !(0xffu32 << (8 * pos)), 0);
            }
        }
    }

    #[test]
    fn default_to_ascii_lower_folds_packed_windows() {
        let v: [u32; 8] = [
            u32::from_le_bytes(*b"GET "),
            u32::from_le_bytes(*b"get "),
            u32::from_le_bytes([b'A', b'Z', 0, 0]), // a 2-byte window shape
            u32::from_le_bytes([b'@', b'[', 0x80, 0xFF]),
            0,
            u32::MAX,
            u32::from_le_bytes(*b"aZ9z"),
            u32::from_le_bytes([0xC0, b'B', 0x5B, 0x40]),
        ];
        let folded = <ScalarWide8 as VectorBackend<8>>::to_ascii_lower(v);
        assert_eq!(folded[0], u32::from_le_bytes(*b"get "));
        assert_eq!(folded[1], u32::from_le_bytes(*b"get "));
        assert_eq!(folded[2], u32::from_le_bytes([b'a', b'z', 0, 0]));
        // '@' (0x40), '[' (0x5B) and non-ASCII bytes are untouched.
        assert_eq!(folded[3], v[3]);
        assert_eq!(folded[4], 0);
        assert_eq!(folded[5], u32::MAX);
        assert_eq!(folded[6], u32::from_le_bytes(*b"az9z"));
        assert_eq!(folded[7], u32::from_le_bytes([0xC0, b'b', 0x5B, 0x40]));
    }

    #[test]
    fn array_round_trip_is_identity() {
        let v: [u32; 8] = std::array::from_fn(|j| j as u32 * 0x0101_0101);
        let reg = <ScalarWide8 as VectorBackend<8>>::from_array(v);
        assert_eq!(<ScalarWide8 as VectorBackend<8>>::to_array(reg), v);
    }
}
