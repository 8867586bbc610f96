//! The scan loop itself.

use std::ops::Range;
use std::time::Instant;

use mpm_patterns::{MatchEvent, MatcherStats};

use crate::{Chunk, TwoRound, CHUNK_ALIGN};

/// Scans the positions `starts` of `haystack` with `engine`, `chunk_size`
/// positions at a time, appending the matches that start there to `out`
/// (`0..haystack.len()` is a whole-input scan; the rounds read past
/// `starts.end` exactly as they read past a chunk seam). Reads no clock and
/// allocates nothing beyond what the engine's rounds push into `pad` and
/// `out`.
///
/// Returns the first position of the last chunk (`starts.start` when there
/// was none): on return `pad` still holds that chunk's candidates, and an
/// engine that reads them back (the resume point of
/// `Matcher::find_in`) needs to know which positions they cover.
///
/// Engines pass [`DEFAULT_CHUNK`](crate::DEFAULT_CHUNK); the seam tests pass
/// small values.
///
/// # Panics
/// Panics if `chunk_size` is not a positive multiple of [`CHUNK_ALIGN`], if
/// `starts` does not lie inside `haystack`, or if `haystack` is too long for
/// `u32` candidate positions.
pub fn scan<E: TwoRound>(
    engine: &E,
    haystack: &[u8],
    starts: Range<usize>,
    chunk_size: usize,
    pad: &mut E::Pad,
    out: &mut Vec<MatchEvent>,
) -> usize {
    run::<E, false>(engine, haystack, starts, chunk_size, pad, out).1
}

/// [`scan`] with the two rounds timed: returns the bytes scanned, the
/// candidates the filter rounds reported, the comparisons the verify rounds
/// made, the matches appended to `out` and the nanoseconds spent in each
/// round (engine-specific fields stay zero).
pub fn scan_with_stats<E: TwoRound>(
    engine: &E,
    haystack: &[u8],
    chunk_size: usize,
    pad: &mut E::Pad,
    out: &mut Vec<MatchEvent>,
) -> MatcherStats {
    run::<E, true>(engine, haystack, 0..haystack.len(), chunk_size, pad, out).0
}

#[inline(always)]
fn run<E: TwoRound, const TIMED: bool>(
    engine: &E,
    haystack: &[u8],
    starts: Range<usize>,
    chunk_size: usize,
    pad: &mut E::Pad,
    out: &mut Vec<MatchEvent>,
) -> (MatcherStats, usize) {
    assert!(
        chunk_size > 0 && chunk_size.is_multiple_of(CHUNK_ALIGN),
        "chunk size {chunk_size} is not a positive multiple of {CHUNK_ALIGN}"
    );
    assert!(
        haystack.len() < u32::MAX as usize,
        "haystack too large for u32 candidate positions"
    );
    assert!(
        starts.start <= starts.end && starts.end <= haystack.len(),
        "start range {starts:?} outside a haystack of {} bytes",
        haystack.len()
    );
    let matches_before = out.len();
    let mut stats = MatcherStats {
        bytes_scanned: starts.len() as u64,
        ..MatcherStats::default()
    };
    let mut start = starts.start;
    let mut last_chunk = start;
    while start < starts.end {
        let end = starts.end.min(start + chunk_size);
        last_chunk = start;
        let chunk = Chunk {
            haystack,
            start,
            end,
        };
        let filter_started = TIMED.then(Instant::now);
        stats.candidates += engine.filter(chunk, pad, out);
        let verify_started = TIMED.then(Instant::now);
        stats.verify_comparisons += engine.verify(chunk, pad, out);
        if let (Some(t0), Some(t1)) = (filter_started, verify_started) {
            stats.filter_nanos += (t1 - t0).as_nanos() as u64;
            stats.verify_nanos += t1.elapsed().as_nanos() as u64;
        }
        start = end;
    }
    stats.matches = (out.len() - matches_before) as u64;
    (stats, last_chunk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpm_patterns::PatternId;

    /// Toy engine: every `x` is a candidate, confirmed when its position is
    /// even; every `!` is reported by the filter round directly.
    struct Toy;

    impl TwoRound for Toy {
        type Pad = Vec<u32>;

        fn filter(&self, chunk: Chunk<'_>, pad: &mut Vec<u32>, out: &mut Vec<MatchEvent>) -> u64 {
            pad.clear();
            for i in chunk.start..chunk.end {
                match chunk.haystack[i] {
                    b'x' => pad.push(i as u32),
                    b'!' => out.push(MatchEvent::new(i, PatternId(7))),
                    _ => {}
                }
            }
            pad.len() as u64
        }

        fn verify(&self, _chunk: Chunk<'_>, pad: &mut Vec<u32>, out: &mut Vec<MatchEvent>) -> u64 {
            for &pos in pad.iter().filter(|&&pos| pos % 2 == 0) {
                out.push(MatchEvent::new(pos as usize, PatternId(1)));
            }
            pad.len() as u64
        }
    }

    fn run_toy(hay: &[u8], chunk_size: usize) -> (Vec<MatchEvent>, MatcherStats) {
        let mut out = Vec::new();
        let stats = scan_with_stats(&Toy, hay, chunk_size, &mut Vec::new(), &mut out);
        let mut untimed = Vec::new();
        scan(
            &Toy,
            hay,
            0..hay.len(),
            chunk_size,
            &mut Vec::new(),
            &mut untimed,
        );
        assert_eq!(untimed, out, "timing must not change the output");
        (out, stats)
    }

    fn hay(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| match i % 97 {
                0 => b'x',
                13 => b'!',
                _ => b'.',
            })
            .collect()
    }

    #[test]
    fn chunking_does_not_change_results() {
        // The raw order interleaves filter-round events per chunk, so
        // compare the normalized match set plus the counters.
        let data = hay(5_000);
        let (mut whole, whole_stats) = run_toy(&data, 1 << 20);
        mpm_patterns::matcher::normalize_matches(&mut whole);
        assert_eq!(whole_stats.bytes_scanned, 5_000);
        assert_eq!(whole_stats.verify_comparisons, whole_stats.candidates);
        assert_eq!(whole_stats.matches as usize, whole.len());
        for chunk_size in [32, 96, 1024] {
            let (mut got, stats) = run_toy(&data, chunk_size);
            mpm_patterns::matcher::normalize_matches(&mut got);
            assert_eq!(got, whole, "chunk={chunk_size}");
            assert_eq!(stats.candidates, whole_stats.candidates);
            assert_eq!(stats.verify_comparisons, whole_stats.verify_comparisons);
            assert_eq!(stats.matches, whole_stats.matches);
        }
    }

    #[test]
    fn events_interleave_in_chunk_order() {
        // A chunk's filter-round events precede its verify-round matches,
        // which precede the next chunk's filter-round events.
        let mut data = vec![b'.'; 96];
        data[2] = b'x'; // chunk 0 verify match (even pos)
        data[5] = b'!'; // chunk 0 direct event
        data[40] = b'x'; // chunk 1 verify match
        data[39] = b'!'; // chunk 1 direct event
        let (got, _) = run_toy(&data, 32);
        let positions: Vec<usize> = got.iter().map(|m| m.start).collect();
        assert_eq!(positions, vec![5, 2, 39, 40]);
    }

    #[test]
    fn empty_input_is_a_no_op() {
        let (got, stats) = run_toy(b"", 64);
        assert!(got.is_empty());
        assert_eq!(stats, MatcherStats::default());
    }

    #[test]
    fn the_last_chunk_owns_the_tail() {
        struct Tails;
        impl TwoRound for Tails {
            type Pad = Vec<(usize, usize, bool)>;
            fn filter(&self, c: Chunk<'_>, pad: &mut Self::Pad, _: &mut Vec<MatchEvent>) -> u64 {
                pad.push((c.start, c.len(), c.is_last()));
                0
            }
            fn verify(&self, _: Chunk<'_>, _: &mut Self::Pad, _: &mut Vec<MatchEvent>) -> u64 {
                0
            }
        }
        let mut seen = Vec::new();
        let last = scan(&Tails, &[0u8; 70], 0..70, 32, &mut seen, &mut Vec::new());
        assert_eq!(seen, vec![(0, 32, false), (32, 32, false), (64, 6, true)]);
        assert_eq!(last, 64);
    }

    #[test]
    fn a_start_range_bounds_what_the_rounds_originate() {
        // Chunks tile the range, not the haystack: nothing before
        // `starts.start` or from `starts.end` on is originated, and a range
        // that stops short of the input's end leaves the tail unowned.
        let data = hay(300);
        let mut got = Vec::new();
        let last = scan(&Toy, &data, 90..200, 32, &mut Vec::new(), &mut got);
        assert_eq!(last, 186);
        let (whole, _) = run_toy(&data, 32);
        let mut expected: Vec<_> = whole
            .into_iter()
            .filter(|m| (90..200).contains(&m.start))
            .collect();
        assert!(!expected.is_empty());
        mpm_patterns::matcher::normalize_matches(&mut expected);
        mpm_patterns::matcher::normalize_matches(&mut got);
        assert_eq!(got, expected);

        struct Tails;
        impl TwoRound for Tails {
            type Pad = Vec<bool>;
            fn filter(&self, c: Chunk<'_>, pad: &mut Self::Pad, _: &mut Vec<MatchEvent>) -> u64 {
                pad.push(c.is_last());
                0
            }
            fn verify(&self, _: Chunk<'_>, _: &mut Self::Pad, _: &mut Vec<MatchEvent>) -> u64 {
                0
            }
        }
        let mut seen = Vec::new();
        let last = scan(&Tails, &[0u8; 70], 10..50, 32, &mut seen, &mut Vec::new());
        assert_eq!((seen, last), (vec![false, false], 42));
        assert_eq!(
            scan(
                &Tails,
                &[0u8; 70],
                7..7,
                32,
                &mut Vec::new(),
                &mut Vec::new()
            ),
            7
        );
    }

    #[test]
    #[should_panic(expected = "not a positive multiple")]
    fn unaligned_chunk_sizes_are_rejected() {
        run_toy(b"xx", 100);
    }
}
