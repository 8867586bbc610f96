//! Differential suite for the chunked two-round scan loop: every engine,
//! run through `mpm_graph::scan` at chunk sizes that put a seam every few
//! bytes, must report exactly what [`NaiveMatcher`] reports — one-shot and
//! streamed through a [`StreamScanner`] under random packetisations, for
//! case-sensitive and `nocase` sets, on every backend. Candidate counts
//! must not depend on the chunk size (Wu-Manber excepted: its shift walk
//! restarts at every seam). A last case goes through plain
//! `Matcher::find_into` with patterns cut across the real seam at byte
//! `DEFAULT_CHUNK`.
//!
//! CI runs this suite once per forced backend (`MPM_FORCE_BACKEND=scalar|
//! avx2|avx512`); within one run it additionally iterates every backend
//! available on the host, so the full matrix is covered even locally.

use std::sync::Arc;

use mpm_dfc::{Dfc, VectorDfc};
use mpm_graph::{TwoRound, DEFAULT_CHUNK};
use mpm_patterns::naive::naive_find_all;
use mpm_patterns::{fold_byte, MatchEvent, Matcher, Pattern, PatternSet};
use mpm_simd::BackendKind;
use mpm_stream::StreamScanner;
use mpm_vpatch::{SPatch, Scratch, VPatch};
use mpm_wu_manber::WuManber;

/// Chunk sizes handed to the loop: one vector stride, a few strides, a
/// non-power-of-two, mid-sized, and larger than the input.
const CHUNKS: &[usize] = &[32, 64, 96, 256, 4096, 1 << 20];

fn sorted(mut v: Vec<MatchEvent>) -> Vec<MatchEvent> {
    v.sort_unstable_by_key(|m| (m.start, m.pattern.0));
    v
}

/// Dense near-matches keep the verify round busy on every chunk, plus clean
/// filler so the filter round also rejects.
fn adversarial_haystack(len: usize) -> Vec<u8> {
    let phrase = b"GET /etc/passwd attack attac attach cmd.exe cmd.ex aab ab GET GE ";
    phrase.iter().cycle().take(len).copied().collect()
}

fn rules() -> PatternSet {
    PatternSet::from_literals(&[
        "a",
        "ab",
        "GET",
        "abcd",
        "attack",
        "attach",
        "cmd.exe",
        "/etc/passwd",
    ])
}

fn rules_nocase() -> PatternSet {
    PatternSet::new(vec![
        Pattern::literal_nocase(*b"AtTaCk"),
        Pattern::literal(*b"GET"),
        Pattern::literal_nocase(*b"x"),
        Pattern::literal_nocase(*b"Cmd.Exe"),
        Pattern::literal(*b"ab"),
    ])
}

/// Deterministic xorshift so the "random" packetisations are reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// An engine scanned through the loop at a fixed chunk size, as a
/// [`Matcher`]: what lets a [`StreamScanner`] drive small-chunk scans.
struct Chunked<E> {
    engine: E,
    chunk: usize,
}

impl<E: TwoRound + Matcher> Matcher for Chunked<E>
where
    E::Pad: Default,
{
    fn name(&self) -> &'static str {
        self.engine.name()
    }

    fn max_pattern_len(&self) -> usize {
        self.engine.max_pattern_len()
    }

    fn find_into(&self, haystack: &[u8], out: &mut Vec<MatchEvent>) {
        let mut pad = E::Pad::default();
        mpm_graph::scan(
            &self.engine,
            haystack,
            0..haystack.len(),
            self.chunk,
            &mut pad,
            out,
        );
    }
}

/// Splits `hay` into random packets and pushes them through a
/// [`StreamScanner`] over `engine`.
fn check_streamed(
    engine: impl Matcher + Send + Sync + 'static,
    set: &PatternSet,
    hay: &[u8],
    oracle: &[MatchEvent],
    what: &str,
) {
    let engine: mpm_stream::SharedMatcher = Arc::new(engine);
    let mut rng = Rng(0x9e3779b97f4a7c15);
    for _ in 0..3 {
        let mut scanner = StreamScanner::new(engine.clone(), set);
        let mut got = Vec::new();
        let mut offset = 0;
        while offset < hay.len() {
            let step = 1 + (rng.next() % 1500) as usize;
            let end = (offset + step).min(hay.len());
            scanner.push(&hay[offset..end], &mut got);
            offset = end;
        }
        assert_eq!(sorted(got), oracle, "{what}: streamed != naive");
    }
}

/// The core check for one engine type. `whole_input_candidates` is the
/// engine's candidate count from one unchunked filter pass (`None` when the
/// count legitimately depends on the chunking).
fn check_engine<E>(
    name: &str,
    build: impl Fn() -> E,
    whole_input_candidates: impl Fn(&E, &[u8]) -> Option<u64>,
    set: &PatternSet,
) where
    E: TwoRound + Matcher + Send + Sync + 'static,
    E::Pad: Default,
{
    let hay = adversarial_haystack(48 * 1024 + 37);
    let oracle = naive_find_all(set, &hay);
    assert!(
        !oracle.is_empty(),
        "{name}: naive found nothing — bad setup"
    );
    let engine = build();
    let expected_candidates = whole_input_candidates(&engine, &hay);

    for &chunk in CHUNKS {
        let what = format!("{name} chunk={chunk}");
        let mut pad = E::Pad::default();
        let mut got = Vec::new();
        let stats = mpm_graph::scan_with_stats(&engine, &hay, chunk, &mut pad, &mut got);
        assert_eq!(sorted(got), oracle, "{what}: one-shot != naive");
        assert_eq!(stats.matches as usize, oracle.len(), "{what}: matches");
        assert_eq!(stats.bytes_scanned as usize, hay.len());
        if let Some(expected) = expected_candidates {
            assert_eq!(stats.candidates, expected, "{what}: candidates");
        }
        // The pad is reusable: a second scan on it changes nothing.
        let mut again = Vec::new();
        mpm_graph::scan(&engine, &hay, 0..hay.len(), chunk, &mut pad, &mut again);
        assert_eq!(sorted(again), oracle, "{what}: reused pad");

        let engine = build();
        check_streamed(Chunked { engine, chunk }, set, &hay, &oracle, &what);
    }

    // The engine's own entry points (thread-cached pad, `DEFAULT_CHUNK`).
    assert_eq!(engine.find_all(&hay), oracle, "{name}: find_all != naive");
    let stats = engine.scan_with_stats(&hay);
    assert_eq!(stats.matches as usize, oracle.len(), "{name}: stats");
    if let Some(expected) = expected_candidates {
        assert_eq!(stats.candidates, expected, "{name}: stats.candidates");
    }
    check_streamed(engine, set, &hay, &oracle, name);
}

/// DFC's candidates, counted independently: the windows of the whole input
/// that pass the initial filter.
fn dfc_candidates(tables: &mpm_dfc::DfcTables, hay: &[u8]) -> Option<u64> {
    let fold = tables.is_folded();
    let passes = |w: &[u8]| {
        let window = u16::from_le_bytes([fold_byte(w[0], fold), fold_byte(w[1], fold)]);
        tables.initial_filter().contains(window)
    };
    Some(hay.windows(2).filter(|w| passes(w)).count() as u64)
}

/// Runs the whole engine matrix for one vector backend.
fn run_matrix_for_backend(kind: BackendKind) {
    for set in [rules(), rules_nocase()] {
        // The scalar engines are backend-independent; checking them once per
        // backend anyway is cheap and keeps the loop simple.
        check_engine(
            "S-PATCH",
            || SPatch::build(&set),
            |e, hay| {
                let mut scratch = Scratch::new();
                e.filter_round(hay, &mut scratch);
                Some(scratch.candidates())
            },
            &set,
        );
        check_engine(
            "DFC",
            || Dfc::build(&set),
            |e, hay| dfc_candidates(e.tables(), hay),
            &set,
        );
        check_engine("Wu-Manber", || WuManber::build(&set), |_, _| None, &set);

        macro_rules! vector_engines {
            ($backend:ty, $w:expr) => {{
                check_engine(
                    "V-PATCH",
                    || VPatch::<$backend, $w>::build(&set),
                    |e, hay| {
                        let mut scratch = Scratch::new();
                        e.filter_round(hay, &mut scratch);
                        Some(scratch.candidates())
                    },
                    &set,
                );
                check_engine(
                    "Vector-DFC",
                    || VectorDfc::<$backend, $w>::build(&set),
                    |e, hay| dfc_candidates(e.tables(), hay),
                    &set,
                );
            }};
        }
        match kind {
            BackendKind::Scalar => vector_engines!(mpm_simd::ScalarBackend, 8),
            BackendKind::Avx2 => vector_engines!(mpm_simd::Avx2Backend, 8),
            BackendKind::Avx512 => vector_engines!(mpm_simd::Avx512Backend, 16),
        }
    }
}

#[test]
fn engines_equal_naive_across_chunk_seams_scalar_backend() {
    run_matrix_for_backend(BackendKind::Scalar);
}

#[test]
fn engines_equal_naive_across_chunk_seams_simd_backends() {
    for kind in mpm_simd::available_backends() {
        if kind != BackendKind::Scalar {
            run_matrix_for_backend(kind);
        }
    }
}

/// The scalar-backend V-PATCH at 16 lanes exercises the second unroll
/// width without SIMD hardware.
#[test]
fn wide_scalar_vpatch_equals_naive_across_chunk_seams() {
    let set = rules();
    check_engine(
        "V-PATCH/scalar16",
        || mpm_vpatch::VPatchScalar16::build(&set),
        |e, hay| {
            let mut scratch = Scratch::new();
            e.filter_round(hay, &mut scratch);
            Some(scratch.candidates())
        },
        &set,
    );
}

/// Plain `find_into` on a two-chunk haystack: a long pattern cut at every
/// offset across byte `DEFAULT_CHUNK`, a 2-byte pattern straddling it,
/// 1-byte patterns on both sides of it, and one on the input's last byte.
#[test]
fn find_into_loses_nothing_at_the_default_chunk_seam() {
    let needle = b"seam-needle";
    let set = PatternSet::from_literals(&["seam-needle", "ab", "x"]);
    let mut engines: Vec<Box<dyn Matcher>> = vec![
        Box::new(SPatch::build(&set)),
        Box::new(Dfc::build(&set)),
        Box::new(WuManber::build(&set)),
    ];
    for kind in mpm_simd::available_backends() {
        engines.push(mpm_vpatch::build_vpatch_for(&set, kind).expect("backend is available"));
        match kind {
            BackendKind::Scalar => engines.push(Box::new(mpm_dfc::VectorDfcScalar::build(&set))),
            BackendKind::Avx2 => engines.push(Box::new(mpm_dfc::VectorDfcAvx2::build(&set))),
            BackendKind::Avx512 => engines.push(Box::new(mpm_dfc::VectorDfcAvx512::build(&set))),
        }
    }
    // One haystack per cut of the long pattern, then one each with the
    // 2-byte and the 1-byte pattern on the seam itself.
    let seam = DEFAULT_CHUNK;
    let mut placements: Vec<(usize, &[u8])> = (0..=needle.len())
        .map(|cut| (seam - cut, &needle[..]))
        .collect();
    placements.push((seam - 1, b"ab"));
    placements.push((seam - 1, b"xx"));
    for (at, bytes) in placements {
        let mut hay = vec![b'.'; 2 * DEFAULT_CHUNK];
        hay[at..at + bytes.len()].copy_from_slice(bytes);
        hay[2 * DEFAULT_CHUNK - 1] = b'x';
        let oracle = naive_find_all(&set, &hay);
        assert!(oracle.len() >= 2, "the placed pattern and the last byte");
        for engine in &engines {
            assert_eq!(engine.find_all(&hay), oracle, "{} at={at}", engine.name());
        }
    }
}
