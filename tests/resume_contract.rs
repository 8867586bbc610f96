//! The resume contract of [`Matcher::find_in`], tested directly on every
//! engine in the workspace and every backend this run can dispatch to.
//!
//! For a haystack, a start range and the returned resume point `r`:
//!
//! * the reported matches are exactly the naive matches that start in the
//!   range;
//! * `r` lies in the range, at or after the horizon
//!   `len - (max_pattern_len - 1)`;
//! * appending **any** suffix to the haystack never yields a
//!   [`NaiveMatcher`] match that starts in `starts.start..r` and ends past
//!   the original length. The suffixes tried include every proper tail of
//!   every pattern — which is complete: a start that has seen `k` bytes of a
//!   pattern is completed by that pattern's tail from `k` on — plus
//!   case-flipped tails for `nocase` patterns and a few random ones.
//!
//! The sets mix 1-byte to >64-byte patterns, `nocase` and byte-exact ones,
//! patterns sharing a 4-byte stem (so verify buckets hold several entries)
//! and patterns that are prefixes of longer ones; the haystacks end in a
//! pattern cut at a random byte, in random case.
//!
//! Mutation notes (each was checked to fail this suite): returning
//! `len - 2` instead of `len - 3` from `resume_point` in `mpm-vpatch` (a long
//! pattern three bytes in is lost — `every_cut_of_every_pattern`); comparing
//! `nocase` entries byte-exactly in `CompactHashTable::prefix_live_at` (an
//! upper-cased head of a `nocase` pattern is declared dead — same test);
//! dropping the `last_chunk > horizon` fallback (`the_seam_of_the_last_chunk`).
//!
//! `MPM_FORCE_BACKEND` narrows the backend list; CI runs the suite once per
//! forced backend.

mod common;

use std::ops::Range;

use common::all_engines;
use vpatch_suite::graph::DEFAULT_CHUNK;
use vpatch_suite::patterns::matcher::{normalize_matches, resume_horizon};
use vpatch_suite::patterns::naive::naive_find_all;
use vpatch_suite::prelude::*;

use proptest::prelude::*;

/// A collision-happy alphabet: both cases of a few letters, a digit, a
/// non-ASCII byte (must never fold) and arbitrary bytes.
fn bytes_strategy(len: Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![
            Just(b'a'),
            Just(b'A'),
            Just(b'b'),
            Just(b'g'),
            Just(b'E'),
            Just(b't'),
            Just(b'0'),
            Just(0xC1u8),
            any::<u8>()
        ],
        len,
    )
}

/// Short random patterns, a family on one 4-byte-or-longer stem (the stem
/// itself is a pattern, so it is a prefix of the others), a pattern longer
/// than 64 bytes and a proper prefix of it; each independently `nocase`.
fn set_strategy() -> impl Strategy<Value = PatternSet> {
    (
        proptest::collection::vec((bytes_strategy(1..10), any::<bool>()), 1..8),
        (
            bytes_strategy(4..7),
            proptest::collection::vec((bytes_strategy(1..9), any::<bool>()), 1..4),
        ),
        (bytes_strategy(65..100), 4usize..60, any::<bool>()),
    )
        .prop_map(|(short, (stem, tails), (long, cut, long_nocase))| {
            let mut patterns: Vec<Pattern> = short
                .into_iter()
                .map(|(bytes, nocase)| Pattern::literal(bytes).with_nocase(nocase))
                .collect();
            for (tail, nocase) in tails {
                patterns
                    .push(Pattern::literal([&stem[..], &tail[..]].concat()).with_nocase(nocase));
            }
            patterns.push(Pattern::literal(stem));
            patterns.push(Pattern::literal(long[..cut].to_vec()).with_nocase(!long_nocase));
            patterns.push(Pattern::literal(long).with_nocase(long_nocase));
            PatternSet::new(patterns)
        })
}

fn flip_case(bytes: &[u8]) -> Vec<u8> {
    bytes
        .iter()
        .map(|b| {
            if b.is_ascii_alphabetic() {
                b ^ 0x20
            } else {
                *b
            }
        })
        .collect()
}

/// Every proper tail of every pattern (and its case-flipped twin), plus the
/// caller's extra suffixes.
fn suffixes(set: &PatternSet, extra: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut all: Vec<Vec<u8>> = extra.to_vec();
    for (_, pattern) in set.iter() {
        for cut in 1..pattern.len() {
            all.push(pattern.bytes()[cut..].to_vec());
            all.push(flip_case(&pattern.bytes()[cut..]));
        }
    }
    all.sort_unstable();
    all.dedup();
    all
}

/// The earliest start in `starts` from which some suffix completes a naive
/// match that ends past `hay` — the latest resume point the contract allows
/// (`starts.end` when there is none).
fn first_live_start(
    set: &PatternSet,
    hay: &[u8],
    starts: &Range<usize>,
    suffixes: &[Vec<u8>],
) -> usize {
    let max_len = set.patterns().iter().map(|p| p.len()).max().unwrap_or(0);
    // Earlier starts cannot reach past the end; skipping them keeps the
    // naive scans short.
    let from = resume_horizon(hay.len(), max_len, starts);
    let mut first = starts.end;
    let mut extended = Vec::new();
    for suffix in suffixes {
        extended.clear();
        extended.extend_from_slice(&hay[from..]);
        extended.extend_from_slice(suffix);
        for m in naive_find_all(set, &extended) {
            let start = from + m.start;
            if start < first && start + set.get(m.pattern).len() > hay.len() {
                first = start;
            }
        }
    }
    first
}

/// Checks the whole contract for every engine on one `(hay, starts)`.
fn check_contract(set: &PatternSet, hay: &[u8], starts: Range<usize>, extra: &[Vec<u8>]) {
    let expected: Vec<MatchEvent> = naive_find_all(set, hay)
        .into_iter()
        .filter(|m| starts.contains(&m.start))
        .collect();
    let max_len = set.patterns().iter().map(|p| p.len()).max().unwrap_or(0);
    let horizon = resume_horizon(hay.len(), max_len, &starts);
    let first_live = first_live_start(set, hay, &starts, &suffixes(set, extra));
    for engine in all_engines(set) {
        let what = format!(
            "{} on {} bytes, starts {starts:?}",
            engine.name(),
            hay.len()
        );
        // Pre-existing events must survive untouched.
        let sentinel = MatchEvent::new(usize::MAX, PatternId(0));
        let mut got = vec![sentinel];
        let resume = engine.find_in(hay, starts.clone(), &mut got);
        assert_eq!(got.remove(0), sentinel, "{what}: clobbered `out`");
        normalize_matches(&mut got);
        assert_eq!(got, expected, "{what}: matches");
        assert!(
            (horizon..=starts.end).contains(&resume),
            "{what}: resume point {resume} outside {horizon}..={}",
            starts.end
        );
        assert!(
            resume <= first_live,
            "{what}: resume point {resume} skips the start at {first_live}, \
             which an appended suffix completes"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn resume_point_never_skips_a_start_a_suffix_completes(
        set in set_strategy(),
        body in bytes_strategy(0..300),
        ending in (any::<usize>(), any::<usize>(), any::<bool>()),
        range in (any::<usize>(), any::<usize>(), 0u8..4),
        extra in proptest::collection::vec(bytes_strategy(1..40), 0..4),
    ) {
        // The haystack ends in a pattern cut at a random byte.
        let (which, cut, flip) = ending;
        let pattern = set.patterns()[which % set.len()].bytes();
        let head = &pattern[..cut % (pattern.len() + 1)];
        let mut hay = body;
        hay.extend_from_slice(&if flip { flip_case(head) } else { head.to_vec() });

        // Whole input, a short head (what a stream's step 1 asks for), or
        // an arbitrary range.
        let (a, b, shape) = range;
        let n = hay.len();
        let starts = match shape {
            0 | 1 => 0..n,
            2 => 0..a % (n + 1).min(8),
            _ => {
                let start = a % (n + 1);
                start..start + b % (n - start + 1)
            }
        };
        check_contract(&set, &hay, starts, &extra);
    }
}

fn fixed_set() -> PatternSet {
    PatternSet::new(vec![
        Pattern::literal(*b"x"),
        Pattern::literal_nocase(*b"Qz"),
        Pattern::literal(*b"GET"),
        Pattern::literal_nocase(*b"GeT /"),
        Pattern::literal(*b"GET /index"),
        Pattern::literal_nocase(*b"get /Index.html?"),
        Pattern::literal(*b"passwd"),
        Pattern::literal_nocase(
            *b"User-Agent: Mozilla/5.0 (compatible; a-rather-long-scanner-banner/1.0; +http://x)",
        ),
    ])
}

/// Every pattern cut at every byte ends the haystack, in both cases, for
/// the whole-input range and for ranges that stop just short of the end.
#[test]
fn every_cut_of_every_pattern() {
    let set = fixed_set();
    for (_, pattern) in set.iter() {
        for cut in 0..=pattern.len() {
            for flip in [false, true] {
                let head = &pattern.bytes()[..cut];
                let mut hay = b"Host: a GET /in passw ".to_vec();
                hay.extend_from_slice(&if flip { flip_case(head) } else { head.to_vec() });
                let n = hay.len();
                check_contract(&set, &hay, 0..n, &[]);
                check_contract(&set, &hay, 3..n.saturating_sub(2).max(3), &[]);
                check_contract(&set, &hay, n..n, &[]);
            }
        }
    }
}

/// Haystacks that end 0–3 bytes after a full `DEFAULT_CHUNK`: the last
/// chunk the scan loop ran holds no candidate of the pattern in progress
/// (it began in the chunk before), so the engines must fall back to the
/// horizon instead of reading the short chunk's candidates.
#[test]
fn the_seam_of_the_last_chunk() {
    let set = fixed_set();
    let banner = set.patterns()[7].bytes();
    for past in 0..=3 {
        for seen in [4, 5, 40] {
            let n = DEFAULT_CHUNK + past;
            let mut hay: Vec<u8> = b"GET /index.html?q=passwd x "
                .iter()
                .cycle()
                .take(n - seen)
                .copied()
                .collect();
            hay.extend_from_slice(&banner[..seen]);
            check_contract(&set, &hay, 0..n, &[]);
        }
    }
}
