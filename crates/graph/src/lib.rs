//! The chunked two-round scan loop every engine runs.
//!
//! The paper's engines all share one shape — a *filter* round that turns the
//! haystack into candidate position arrays, followed by a *verify* round that
//! confirms candidates against exact pattern tables (Algorithm 2). This crate
//! states that shape once: an engine implements the two rounds over one
//! [`Chunk`] ([`TwoRound`]), and [`scan`] runs them chunk by chunk,
//!
//! ```text
//! for chunk in haystack.chunks(DEFAULT_CHUNK) {
//!     engine.filter(chunk, pad, out);
//!     engine.verify(chunk, pad, out);
//! }
//! ```
//!
//! statically dispatched, with the candidate arrays living in the engine's
//! own typed [`TwoRound::Pad`]. Chunking bounds the candidate arrays (no
//! array outgrows one chunk's positions, whatever the input length) and
//! keeps one chunk's candidates cache-warm for its verify round; for inputs
//! of at most one chunk the loop is exactly one filter round and one verify
//! round. [`scan_with_stats`] is the same loop with the two rounds timed.
//!
//! [`scan`] takes the range of positions to originate matches from
//! (`0..haystack.len()` for a whole-input scan): the chunks tile that range,
//! while every round still sees — and reads into — the whole haystack. That
//! is what lets a streaming caller filter only the few carried-over starts
//! of a staged buffer instead of the buffer (`Matcher::find_in`).
//!
//! See DEVELOPMENT.md § "Scan loop" for the contract and the add-an-engine
//! recipe.

#![warn(missing_docs)]

mod exec;

pub use exec::{scan, scan_with_stats};

use mpm_patterns::MatchEvent;

/// The chunk size the engines scan with: 64 KiB. A multiple of
/// [`CHUNK_ALIGN`], so the vector filter kernels tile chunk interiors
/// exactly as they tile a whole haystack.
pub const DEFAULT_CHUNK: usize = 1 << 16;

/// Chunk sizes must be a multiple of this (the widest backend's unrolled
/// stride, 2 × 16 lanes) so vector block boundaries — and with them the
/// candidate arrays and the filter-3 occupancy counters — never move
/// relative to a whole-input filter round.
pub const CHUNK_ALIGN: usize = 32;

/// One haystack range handed to an engine's rounds. The full haystack is
/// always visible — windows and verifications read past `end` (across the
/// chunk seam) — but the filter round only *originates* candidates at
/// positions in `start..end`.
#[derive(Clone, Copy, Debug)]
pub struct Chunk<'a> {
    /// The complete input being scanned.
    pub haystack: &'a [u8],
    /// First position this chunk owns.
    pub start: usize,
    /// One past the last position this chunk owns.
    pub end: usize,
}

impl Chunk<'_> {
    /// Number of positions the chunk owns.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the chunk owns no positions.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// True for the final chunk, which also owns the input's tail (e.g. the
    /// last byte, which has no 2-byte window).
    pub fn is_last(&self) -> bool {
        self.end == self.haystack.len()
    }
}

/// An engine as the two rounds of Algorithm 2 over one [`Chunk`].
///
/// [`scan`] calls `filter` then `verify` for each chunk in order, with the
/// same `pad`; nothing else touches the pad in between, so `verify` sees
/// exactly what `filter` left for that chunk.
pub trait TwoRound {
    /// The engine's candidate arrays (and any verify-round scratch). The
    /// caller owns it and may reuse it across scans; `filter` resets what it
    /// fills.
    type Pad;

    /// Filter round: replaces the pad's candidate arrays with the candidates
    /// originating in `chunk.start..chunk.end` and returns how many there
    /// are. Matches that need no verification may go straight to `out`.
    fn filter(&self, chunk: Chunk<'_>, pad: &mut Self::Pad, out: &mut Vec<MatchEvent>) -> u64;

    /// Verify round: confirms the candidates `filter` just recorded,
    /// appending the matches to `out`, and returns the comparisons it made
    /// — entries of an exact table checked against the input, each counted
    /// once whether or not it matched (`0` for an engine that verifies
    /// without one).
    fn verify(&self, chunk: Chunk<'_>, pad: &mut Self::Pad, out: &mut Vec<MatchEvent>) -> u64;
}
