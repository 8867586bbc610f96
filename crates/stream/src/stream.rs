//! [`StreamScanner`]: chunk-boundary-correct scanning of a never-ending
//! byte stream.
//!
//! A NIDS never sees a flow as one contiguous buffer: payload arrives in
//! reassembled chunks of arbitrary size. A pattern may straddle any chunk
//! boundary, so per-chunk scanning alone loses matches. `StreamScanner`
//! wraps any [`Matcher`] engine and restores one-shot semantics by
//! **resuming** instead of re-scanning: between [`StreamScanner::push`]
//! calls it keeps the *live suffix* of the stream — the bytes from the
//! engine's last resume point on ([`Matcher::find_in`]), i.e. from the
//! earliest start a pattern can still be in progress over. For the
//! filtering engines that is typically the last three bytes; it is never
//! more than `max_pattern_len - 1`, which is also what an engine without a
//! resume point of its own keeps.
//!
//! A push takes one of two paths, chosen by the chunk's size alone.
//!
//! **A chunk of at most 256 bytes (`STAGE_MAX`) is staged**: `carry ‖ chunk` is
//! written into the thread's staging buffer as one *input* and scanned whole
//! in one engine call ([`Matcher::find_in_segments`]). A match is kept iff it
//! ends in the fresh bytes — one that ends inside the carry was reported by
//! the push that delivered its last byte — and the new carry is the input
//! from its resume point on. A multi-core worker stages the waiting small
//! packets of *several* flows back to back and scans them in the same one
//! call (`Staged`; see DEVELOPMENT.md § "Runtime pipeline"), so a push is
//! the run of one of that path, not a second implementation of it. Inputs
//! are independent by the engine's contract: an occurrence that begins in
//! one flow's bytes and runs into the next flow's is never reported, and
//! each input's resume point vouches only for bytes appended to *it*.
//!
//! **A larger chunk is scanned in place**, in three steps (copying it behind
//! the carry would cost more than the second engine call saves):
//!
//! 1. **Carried starts.** If the carry is non-empty, stage `carry` followed
//!    by the chunk's first `min(len, overlap)` bytes and ask the engine for
//!    the matches that *start in the carry* (`find_in(staged,
//!    0..carry.len())`). Only those starts are filtered — the staged chunk
//!    bytes are read, never originated from. Matches that end inside the
//!    carry are dropped: the push that delivered their last byte reported
//!    them.
//! 2. **Fresh starts.** Scan the chunk in place for the matches that start
//!    in it (`find_in(chunk, 0..len)`), translated to absolute stream
//!    offsets.
//! 3. **New carry.** If a carried start is still in progress (possible only
//!    when the chunk was shorter than `overlap`), keep the carry from that
//!    start on and append the chunk; otherwise keep the chunk from its own
//!    resume point on.
//!
//! Why both are exact: a match that lies wholly inside the stream seen so far
//! starts either in the carry (found, and reported iff this push delivered
//! its last byte) or in the chunk, and a match that starts before the carry
//! ended before the carry did — that is what a resume point promises — so an
//! earlier push reported it. Every match that needs bytes not yet seen
//! starts at or after a resume point, so its start is still in the carry
//! when its last byte arrives.
//!
//! The invariant (property-tested in `tests/stream_equivalence.rs`): for any
//! chunking of any input — including 1-byte chunks and cuts inside every
//! pattern — the union of the events reported by the pushes equals the match
//! set of a one-shot scan of the whole input, and every reported position is
//! an absolute stream offset.

use mpm_patterns::{MatchEvent, Matcher, MatcherStats, PatternSet};
use std::cell::RefCell;
use std::sync::Arc;

/// Largest chunk that is staged behind its carry and scanned in one engine
/// call; a larger one is scanned in place (see the module docs).
pub(crate) const STAGE_MAX: usize = 256;

thread_local! {
    /// The staging area, per thread like the engines' cached scratch: it is
    /// scratch, not flow state.
    static STAGED: RefCell<Staged> = const { RefCell::new(Staged::new()) };
}

/// A run of staged inputs — `carry ‖ chunk` of one small chunk each, back to
/// back — and what one engine call over them found. [`StreamScanner::push`]
/// stages a run of one; a pipeline worker stages the small packets waiting
/// in its ring, one per flow. The protocol is `clear`, [`StreamScanner::stage`]
/// per input, [`Staged::scan`] once, [`StreamScanner::commit`] per input.
///
/// `bytes` doubles as the buffer of the large-chunk path's step 1, where it
/// never holds more than `2 * overlap` bytes.
pub(crate) struct Staged {
    bytes: Vec<u8>,
    /// Where each input ends in `bytes`.
    ends: Vec<usize>,
    /// Each input's resume point, as an offset into `bytes`.
    resumes: Vec<usize>,
    /// The run's matches, starts as offsets into `bytes`, in start order.
    events: Vec<MatchEvent>,
}

impl Staged {
    const fn new() -> Self {
        Staged {
            bytes: Vec::new(),
            ends: Vec::new(),
            resumes: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Runs `f` on this thread's staging area. Not re-entrant: `f` must not
    /// push through a [`StreamScanner`].
    pub(crate) fn with<R>(f: impl FnOnce(&mut Staged) -> R) -> R {
        STAGED.with_borrow_mut(f)
    }

    /// Empties the run, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
        self.resumes.clear();
        self.events.clear();
    }

    /// Bytes staged so far.
    pub(crate) fn len(&self) -> usize {
        self.bytes.len()
    }

    /// The one engine call of the run. Every staged input must belong to a
    /// clone of `scanner` (same engine, same per-pattern lengths).
    pub(crate) fn scan(&mut self, scanner: &StreamScanner) {
        scanner.engine.find_in_segments(
            &self.bytes,
            &self.ends,
            &scanner.lengths,
            &mut self.events,
            &mut self.resumes,
        );
        self.events.sort_unstable_by_key(|m| m.start);
    }
}

/// A shareable, `Send + Sync` matching engine, as produced by
/// `mpm_vpatch::build_auto` and friends.
pub type SharedMatcher = Arc<dyn Matcher + Send + Sync>;

/// Stateful streaming wrapper around a [`Matcher`] engine.
///
/// One `StreamScanner` tracks one logical stream (one flow). The engine
/// itself is stateless per scan and shared via [`Arc`], so any number of
/// scanners — across flows and across threads — reuse one compiled engine.
///
/// ```
/// use mpm_patterns::PatternSet;
/// use mpm_stream::StreamScanner;
/// use std::sync::Arc;
///
/// let rules = PatternSet::from_literals(&["boundary"]);
/// let engine: mpm_stream::SharedMatcher =
///     Arc::from(mpm_patterns::NaiveMatcher::new(&rules));
/// let mut scanner = StreamScanner::new(engine, &rules);
///
/// let mut alerts = Vec::new();
/// scanner.push(b"...boun", &mut alerts); // cut inside the pattern
/// scanner.push(b"dary...", &mut alerts);
/// assert_eq!(alerts.len(), 1);
/// assert_eq!(alerts[0].start, 3); // absolute stream offset
/// ```
#[derive(Clone)]
pub struct StreamScanner {
    engine: SharedMatcher,
    /// Pattern length per [`mpm_patterns::PatternId`] — needed to decide
    /// whether a match that starts in the carry ends in fresh bytes.
    lengths: Arc<[u32]>,
    /// Upper bound of the carry: `max_pattern_len - 1`.
    overlap: usize,
    /// The live suffix of the stream pushed so far: the bytes from the last
    /// resume point on (at most `overlap`). Grows on demand; a flow that
    /// never has a pattern in progress across a push never allocates more
    /// than a few bytes here.
    carry: Vec<u8>,
    /// Absolute stream offset of the next byte to be pushed.
    position: usize,
    stats: MatcherStats,
}

impl std::fmt::Debug for StreamScanner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamScanner")
            .field("engine", &self.engine.name())
            .field("overlap", &self.overlap)
            .field("carried", &self.carry.len())
            .field("position", &self.position)
            .finish_non_exhaustive()
    }
}

impl StreamScanner {
    /// Creates a scanner for one stream.
    ///
    /// `set` must be the pattern set `engine` was compiled for; the scanner
    /// keeps only the per-pattern lengths (to classify matches that start in
    /// the carry) and the maximum length (to bound the carry). A clone of a
    /// never-pushed scanner is a fresh scanner of the same engine (two `Arc`
    /// clones): the multi-core scanners validate one here and clone it per
    /// flow.
    ///
    /// # Panics
    /// Panics if the engine disagrees with `set` about the longest pattern —
    /// the symptom of passing the wrong set, which would silently corrupt
    /// the live-suffix invariant.
    pub fn new(engine: SharedMatcher, set: &PatternSet) -> Self {
        let lengths: Arc<[u32]> = set.patterns().iter().map(|p| p.len() as u32).collect();
        let max_len = lengths.iter().copied().max().unwrap_or(0) as usize;
        assert_eq!(
            engine.max_pattern_len(),
            max_len,
            "engine was compiled for a different pattern set"
        );
        StreamScanner {
            engine,
            lengths,
            overlap: max_len.saturating_sub(1),
            carry: Vec::new(),
            position: 0,
            stats: MatcherStats::default(),
        }
    }

    /// Absolute offset of the next byte to be pushed (= total bytes pushed).
    pub fn position(&self) -> usize {
        self.position
    }

    /// The most history bytes ever carried between pushes
    /// (`max_pattern_len - 1`).
    pub fn overlap(&self) -> usize {
        self.overlap
    }

    /// Bytes carried right now: the length of the stream's live suffix,
    /// at most [`StreamScanner::overlap`].
    pub fn carried(&self) -> usize {
        self.carry.len()
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &SharedMatcher {
        &self.engine
    }

    /// Accumulated whole-stream statistics (`bytes_scanned` counts each
    /// stream byte exactly once; `matches` counts reported events).
    pub fn stats(&self) -> MatcherStats {
        self.stats
    }

    /// Resets the scanner for a new stream, keeping the engine and the
    /// allocated buffers.
    pub fn reset(&mut self) {
        self.carry.clear();
        self.position = 0;
        self.stats = MatcherStats::default();
    }

    /// Scans the next chunk of the stream, appending every *new* match to
    /// `out` with its start translated to the absolute stream offset.
    ///
    /// Matches are appended in no particular order (sort with
    /// [`mpm_patterns::matcher::normalize_matches`] if a canonical order is
    /// needed); across pushes every occurrence is reported exactly once.
    /// The module docs walk through the two paths and why they are exact.
    pub fn push(&mut self, chunk: &[u8], out: &mut Vec<MatchEvent>) {
        if chunk.is_empty() {
            return;
        }
        if chunk.len() <= STAGE_MAX {
            return Staged::with(|run| {
                run.clear();
                self.stage(chunk, run);
                run.scan(self);
                self.commit(run, 0, out);
            });
        }
        let reported_before = out.len();
        let carry_len = self.carry.len();

        // 1. Matches that start in the carry and end in this chunk.
        // `live_from` is the first carried start still in progress after
        // this chunk. A carried start reaches at most `overlap` bytes into
        // the chunk, so there is one only if the chunk is shorter: otherwise
        // the horizon of the staged bytes — which no resume point precedes —
        // is already `carry_len`.
        let mut live_from = carry_len;
        if carry_len > 0 {
            live_from = Staged::with(|staged| {
                let staged = &mut staged.bytes;
                staged.clear();
                staged.extend_from_slice(&self.carry);
                staged.extend_from_slice(&chunk[..chunk.len().min(self.overlap)]);
                self.engine.find_in(staged, 0..carry_len, out)
            });
            let base = self.position - carry_len;
            let mut kept = reported_before;
            for i in reported_before..out.len() {
                let m = out[i];
                if m.start + self.lengths[m.pattern.index()] as usize > carry_len {
                    out[kept] = MatchEvent::new(base + m.start, m.pattern);
                    kept += 1;
                }
            }
            out.truncate(kept);
        }

        // 2. Matches that start in this chunk, scanned in place.
        let fresh = out.len();
        let resume = self.engine.find_in(chunk, 0..chunk.len(), out);
        for m in &mut out[fresh..] {
            m.start += self.position;
        }

        // 3. The new live suffix.
        if live_from < carry_len {
            self.carry.drain(..live_from);
            self.carry.extend_from_slice(chunk);
        } else {
            self.carry.clear();
            self.carry.extend_from_slice(&chunk[resume..]);
        }
        debug_assert!(self.carry.len() <= self.overlap);

        self.position += chunk.len();
        self.stats.bytes_scanned += chunk.len() as u64;
        self.stats.matches += (out.len() - reported_before) as u64;
    }

    /// Stages `carry ‖ chunk` as the next input of `run`. The staging buffer
    /// grows to exactly what the largest run needed, never by doubling.
    pub(crate) fn stage(&self, chunk: &[u8], run: &mut Staged) {
        run.bytes.reserve_exact(self.carry.len() + chunk.len());
        run.bytes.extend_from_slice(&self.carry);
        run.bytes.extend_from_slice(chunk);
        run.ends.push(run.bytes.len());
    }

    /// Takes this scanner's share of a scanned run — it staged input `k` —
    /// appending to `out`, at absolute stream offsets, the input's matches
    /// that end in its fresh bytes, and keeping the input from its resume
    /// point on as the new carry.
    pub(crate) fn commit(&mut self, run: &Staged, k: usize, out: &mut Vec<MatchEvent>) {
        let start = if k == 0 { 0 } else { run.ends[k - 1] };
        let end = run.ends[k];
        let carry_len = self.carry.len();
        let base = self.position - carry_len;
        let reported_before = out.len();
        let first = run.events.partition_point(|m| m.start < start);
        for m in run.events[first..].iter().take_while(|m| m.start < end) {
            let at = m.start - start;
            if at + self.lengths[m.pattern.index()] as usize > carry_len {
                out.push(MatchEvent::new(base + at, m.pattern));
            }
        }
        let fresh = end - start - carry_len;
        self.carry.clear();
        self.carry
            .extend_from_slice(&run.bytes[run.resumes[k]..end]);
        debug_assert!(self.carry.len() <= self.overlap);

        self.position += fresh;
        self.stats.bytes_scanned += fresh as u64;
        self.stats.matches += (out.len() - reported_before) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpm_patterns::naive::naive_find_all;
    use mpm_patterns::{matcher::normalize_matches, NaiveMatcher};

    fn scanner_for(set: &PatternSet) -> StreamScanner {
        StreamScanner::new(Arc::from(NaiveMatcher::new(set)), set)
    }

    #[test]
    fn straddling_match_reported_once_at_absolute_offset() {
        let set = PatternSet::from_literals(&["boundary", "a"]);
        let mut s = scanner_for(&set);
        let mut out = Vec::new();
        s.push(b"xxboun", &mut out);
        s.push(b"dary", &mut out);
        s.push(b"a", &mut out);
        normalize_matches(&mut out);
        let mut stream = Vec::new();
        stream.extend_from_slice(b"xxboundarya");
        assert_eq!(out, naive_find_all(&set, &stream));
        assert_eq!(s.position(), stream.len());
        assert_eq!(s.stats().bytes_scanned, stream.len() as u64);
        assert_eq!(s.stats().matches, out.len() as u64);
    }

    #[test]
    fn one_byte_chunks_equal_one_shot() {
        let set = PatternSet::from_literals(&["abc", "bc", "c", "abca"]);
        let stream = b"abcabcaxbcabca";
        let expected = naive_find_all(&set, stream);
        let mut s = scanner_for(&set);
        let mut out = Vec::new();
        for &b in stream.iter() {
            s.push(&[b], &mut out);
        }
        normalize_matches(&mut out);
        assert_eq!(out, expected);
    }

    #[test]
    fn match_inside_overlap_not_reported_twice() {
        // "aa" at offset 2 lies wholly inside the carry after the first push;
        // the second push must not re-report it.
        let set = PatternSet::from_literals(&["aaaa", "aa"]);
        let mut s = scanner_for(&set);
        let mut out = Vec::new();
        s.push(b"xaaa", &mut out);
        s.push(b"ax", &mut out);
        normalize_matches(&mut out);
        assert_eq!(out, naive_find_all(&set, b"xaaaax"));
    }

    #[test]
    fn single_byte_patterns_need_no_carry() {
        let set = PatternSet::from_literals(&["x", "y"]);
        let mut s = scanner_for(&set);
        assert_eq!(s.overlap(), 0);
        let mut out = Vec::new();
        s.push(b"xy", &mut out);
        s.push(b"yx", &mut out);
        normalize_matches(&mut out);
        assert_eq!(out, naive_find_all(&set, b"xyyx"));
    }

    #[test]
    fn reset_starts_a_fresh_stream() {
        let set = PatternSet::from_literals(&["ab"]);
        let mut s = scanner_for(&set);
        let mut out = Vec::new();
        s.push(b"za", &mut out);
        s.reset();
        assert_eq!(s.position(), 0);
        // The 'a' carried from the old stream must not pair with this 'b'.
        s.push(b"b", &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn empty_push_is_a_no_op() {
        let set = PatternSet::from_literals(&["ab"]);
        let mut s = scanner_for(&set);
        let mut out = Vec::new();
        s.push(b"a", &mut out);
        s.push(b"", &mut out);
        s.push(b"b", &mut out);
        assert_eq!(out, vec![MatchEvent::new(0, mpm_patterns::PatternId(0))]);
    }

    #[test]
    #[should_panic(expected = "different pattern set")]
    fn mismatched_set_rejected() {
        let compiled = PatternSet::from_literals(&["abcdef"]);
        let other = PatternSet::from_literals(&["ab"]);
        let _ = StreamScanner::new(Arc::from(NaiveMatcher::new(&compiled)), &other);
    }
}
