//! The contract of [`Matcher::find_in_segments`], tested directly on every
//! engine in the workspace and every backend this run can dispatch to.
//!
//! For inputs laid back to back in one haystack:
//!
//! * the reported matches are exactly the naive matches of each input on its
//!   own, at offsets into the haystack — in particular an occurrence that
//!   begins in one input and ends in the next is **not** reported, however
//!   the engine scans the concatenation;
//! * input `k`'s resume point is the one `find_in(input, 0..len)` returns
//!   for the input alone (whose own contract `resume_contract.rs` checks),
//!   at its offset in the haystack — what comes after an input must not
//!   move it.
//!
//! The deterministic half sits on the seams: a pattern split across two
//! adjacent inputs, one that ends on an input's last byte, a 1-byte pattern
//! on an input's last byte, inputs of 0–8 bytes, a `nocase` twin, a pattern
//! in progress at an input's end whatever the next input begins with, and
//! an input whose tail is all filter candidates — so the resume walk of
//! S-/V-PATCH runs to the input's end with budget to spare — followed by an
//! input that begins with the same bytes.
//!
//! Mutation notes (each was checked to fail this suite, in
//! `SPatchTables::find_in_segments` / `resume_point` of `mpm-vpatch`):
//! keeping every match the scan of the concatenation confirms, i.e. dropping
//! the test against the input's end (`a_pattern_split_across_two_inputs_…`,
//! the property test); letting the resume walk run past the input's end by
//! removing its `pos + 4 > len` stop (`a_saturated_tail_…` — the walk spends
//! its budget in the next input and returns a position there).
//!
//! `MPM_FORCE_BACKEND` narrows the backend list; CI runs the suite once per
//! forced backend.

mod common;

use std::ops::Range;

use common::all_engines;
use vpatch_suite::patterns::matcher::normalize_matches;
use vpatch_suite::patterns::naive::naive_find_all;
use vpatch_suite::prelude::*;

use proptest::prelude::*;

/// Checks the whole contract for every engine on `inputs`.
fn check_contract(set: &PatternSet, inputs: &[&[u8]]) {
    let hay = inputs.concat();
    let lengths: Vec<u32> = set.patterns().iter().map(|p| p.len() as u32).collect();
    let mut ends = Vec::new();
    let mut expected = Vec::new();
    let mut start = 0;
    for input in inputs {
        for m in naive_find_all(set, input) {
            expected.push(MatchEvent::new(start + m.start, m.pattern));
        }
        start += input.len();
        ends.push(start);
    }
    normalize_matches(&mut expected);
    for engine in all_engines(set) {
        let what = format!("{} on inputs ending at {ends:?}", engine.name());
        // Pre-existing entries of both vectors must survive untouched.
        let sentinel = MatchEvent::new(usize::MAX, PatternId(0));
        let mut got = vec![sentinel];
        let mut resumes = vec![usize::MAX];
        engine.find_in_segments(&hay, &ends, &lengths, &mut got, &mut resumes);
        assert_eq!(got.remove(0), sentinel, "{what}: clobbered `out`");
        assert_eq!(resumes.remove(0), usize::MAX, "{what}: clobbered `resumes`");
        normalize_matches(&mut got);
        assert_eq!(got, expected, "{what}: matches");
        let mut start = 0;
        let alone: Vec<usize> = inputs
            .iter()
            .map(|input| {
                let resume = engine.find_in(input, 0..input.len(), &mut Vec::new());
                start += input.len();
                start - input.len() + resume
            })
            .collect();
        assert_eq!(resumes, alone, "{what}: resume points");
    }
}

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

/// Short random patterns, two on one 4-byte-or-longer stem and a long one;
/// each independently `nocase`.
fn set_strategy() -> impl Strategy<Value = PatternSet> {
    (
        proptest::collection::vec((bytes_strategy(1..10), any::<bool>()), 1..8),
        (bytes_strategy(4..7), bytes_strategy(1..9), any::<bool>()),
        (bytes_strategy(30..70), any::<bool>()),
    )
        .prop_map(|(short, (stem, tail, stem_nocase), (long, long_nocase))| {
            let mut patterns: Vec<Pattern> = short
                .into_iter()
                .map(|(bytes, nocase)| Pattern::literal(bytes).with_nocase(nocase))
                .collect();
            patterns
                .push(Pattern::literal([&stem[..], &tail[..]].concat()).with_nocase(stem_nocase));
            patterns.push(Pattern::literal(stem));
            patterns.push(Pattern::literal(long).with_nocase(long_nocase));
            PatternSet::new(patterns)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A body with whole patterns spliced in, cut into inputs at random
    /// places — often inside a pattern, often a few bytes apart.
    #[test]
    fn segments_equal_each_input_scanned_alone(
        set in set_strategy(),
        body in bytes_strategy(0..200),
        splices in proptest::collection::vec((any::<usize>(), any::<usize>()), 0..6),
        cuts in proptest::collection::vec((any::<usize>(), 0usize..9), 0..12),
    ) {
        let mut hay = body;
        for (which, at) in splices {
            let pattern = set.patterns()[which % set.len()].bytes();
            let at = at % (hay.len() + 1);
            hay.splice(at..at, pattern.iter().copied());
        }
        // Each cut is followed by a second one 0–8 bytes on: short inputs
        // (and empty ones) next to long ones.
        let mut seams: Vec<usize> = cuts
            .into_iter()
            .flat_map(|(at, gap)| {
                let at = at % (hay.len() + 1);
                [at, (at + gap).min(hay.len())]
            })
            .collect();
        seams.push(hay.len());
        seams.sort_unstable();
        let mut inputs = Vec::new();
        let mut start = 0;
        for seam in seams {
            inputs.push(&hay[start..seam]);
            start = seam;
        }
        check_contract(&set, &inputs);
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

/// Every pattern, in both cases, cut at every byte between two inputs: the
/// halves are never put together, whichever input is the longer one. (The
/// patterns that *are* found in a half — `x`, `GET` inside `GET /index` —
/// show the scan did look there.)
#[test]
fn a_pattern_split_across_two_inputs_is_not_reported() {
    let set = fixed_set();
    for (_, pattern) in set.iter() {
        for bytes in [
            pattern.bytes().to_vec(),
            pattern.bytes().to_ascii_uppercase(),
        ] {
            for cut in 1..bytes.len() {
                let left = [b"Host: a ", &bytes[..cut]].concat();
                let right = [&bytes[cut..], b" HTTP/1.1"].concat();
                check_contract(&set, &[&left, &right]);
                check_contract(&set, &[&bytes[..cut], &bytes[cut..]]);
                check_contract(&set, &[b"..", &left, &right, b"x"]);
            }
        }
    }
}

/// A pattern that ends exactly on an input's last byte is reported — 1 byte
/// long or 80, byte-exact or a `nocase` twin in the other case — and so is
/// one that begins on an input's first byte.
#[test]
fn a_pattern_ending_on_an_inputs_last_byte_is_reported() {
    let set = fixed_set();
    for (_, pattern) in set.iter() {
        for bytes in [
            pattern.bytes().to_vec(),
            pattern.bytes().to_ascii_uppercase(),
        ] {
            let ending = [b"..", &bytes[..]].concat();
            check_contract(&set, &[&ending, &bytes, b"GET /index.html?"]);
            check_contract(&set, &[&bytes, &ending, &bytes]);
        }
    }
    // The shortest case spelled out: a 1-byte pattern that is the whole of
    // an input's last byte, with and without a neighbour.
    let one = PatternSet::from_literals(&["x", "xy", "abcdx"]);
    let engine = build_auto(&one);
    let lengths = [1, 2, 5];
    let (mut got, mut resumes) = (Vec::new(), Vec::new());
    engine.find_in_segments(b"abcdxyabcdx", &[5, 11], &lengths, &mut got, &mut resumes);
    normalize_matches(&mut got);
    let at = |start, id| MatchEvent::new(start, PatternId(id));
    // `xy` at 4 would straddle the seam; `abcdx`, `x` end on it.
    assert_eq!(got, vec![at(0, 2), at(4, 0), at(6, 2), at(10, 0)]);
    check_contract(&one, &[b"abcdx", b"yabcdx"]);
}

/// Inputs of 0–8 bytes, alone and in rows, cut out of text that is dense in
/// matches.
#[test]
fn tiny_inputs() {
    let set = fixed_set();
    let text = b"GET /index.html?x=Qz passwd get /INDEX.HTML?xx";
    for len in 0..=8 {
        let inputs: Vec<&[u8]> = text.chunks(len.max(1)).collect();
        if len == 0 {
            check_contract(&set, &[b"", b"GET", b"", b"", b"x", b""]);
            check_contract(&set, &[]);
        } else {
            check_contract(&set, &inputs);
        }
        for at in 0..text.len() - len {
            check_contract(&set, &[&text[..at], &text[at..at + len], &text[at + len..]]);
        }
    }
}

/// A pattern in progress at an input's end stays in progress — the resume
/// point does not pass its start — whether the next input continues it,
/// breaks it, or is missing; and the next input's own resume point is its
/// own.
#[test]
fn what_follows_an_input_does_not_move_its_resume_point() {
    let set = fixed_set();
    let banner = set.patterns()[7].bytes();
    for seen in [1, 3, 4, 5, 17, banner.len() - 1] {
        let left = [b"Accept: */* ", &banner[..seen]].concat();
        for right in [&banner[seen..], &b"#### GET /ind"[..], b"", b"x"] {
            check_contract(&set, &[&left, right]);
            check_contract(&set, &[&left, right, &left]);
        }
        // Directly: the start of the banner is kept.
        let engine = build_auto(&set);
        let lengths: Vec<u32> = set.patterns().iter().map(|p| p.len() as u32).collect();
        let hay = [&left[..], b"#### GET /ind"].concat();
        let (mut got, mut resumes) = (Vec::new(), Vec::new());
        engine.find_in_segments(
            &hay,
            &[left.len(), hay.len()],
            &lengths,
            &mut got,
            &mut resumes,
        );
        assert!(resumes[0] <= left.len() - seen, "seen {seen}: {resumes:?}");
        assert!(
            (left.len()..=hay.len() - 8).contains(&resumes[1]),
            "{resumes:?}"
        );
    }
}

/// Every position of `ABAB…` is a long-pattern candidate and none is a
/// pattern in progress. An input of it shorter than the resume walk's budget
/// is walked to its end; the walk must stop there — at the last start with a
/// whole window — although the candidate array goes on (the last three
/// starts' windows reach into the next input, which begins with the same
/// bytes and is all candidates too).
#[test]
fn a_saturated_tail_followed_by_the_same_bytes() {
    let set = PatternSet::new(vec![
        Pattern::literal(vec![b'A'; 250]),
        Pattern::literal(*b"ABAB"),
        Pattern::literal(*b"BABA"),
        Pattern::literal_nocase(*b"abba"),
        Pattern::literal(*b"AA"),
        Pattern::literal(*b"B"),
    ]);
    let saturating: Vec<u8> = b"AB".iter().cycle().take(120).copied().collect();
    for len in [5, 8, 12, 15, 19, 40] {
        let inputs: Vec<&[u8]> = saturating.chunks(len).collect();
        check_contract(&set, &inputs);
        check_contract(&set, &[&saturating[..len], &saturating[..len], b"AAAA"]);
        check_contract(&set, &[&saturating[1..len], &saturating[..2 * len]]);
    }
    // And a tail that *is* in progress (the 250-byte pattern), saturated too.
    let all_a = vec![b'A'; 60];
    check_contract(&set, &[&all_a[..7], &all_a[..20], &all_a, &saturating[..9]]);
}

/// The definition is the default: an engine that does not override
/// `find_in_segments` gets one `find_in` per input, and a haystack longer
/// than the engines' chunk — where S-/V-PATCH fall back to it — still
/// honours the contract.
#[test]
fn a_haystack_longer_than_one_chunk() {
    let set = fixed_set();
    let filler: Vec<u8> = b"GET /index.html?q=passwd x "
        .iter()
        .cycle()
        .take(vpatch_suite::graph::DEFAULT_CHUNK)
        .copied()
        .collect();
    check_contract(&set, &[b"GET /ind", &filler, b"ex.html? Qz"]);
}
