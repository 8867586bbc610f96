//! The streaming invariant, property-tested: for random patterns, random
//! haystacks and random chunkings — including 1-byte chunks and chunk cuts
//! inside every pattern — [`StreamScanner`] over the chunks reports a
//! byte-identical match set to a one-shot scan, for S-PATCH, V-PATCH and
//! DFC on every available backend.
//!
//! The deterministic half looks where random chunkings rarely do: a pattern
//! kept in progress across many pushes, a carry that shrinks and regrows,
//! `reset()`/`clone()` mid-pattern, how few bytes benign traffic carries
//! (so a silent fall-back to the conservative resume point cannot pass), and
//! the adversarial bound — input on which every tail position is a filter
//! candidate still carries at most `overlap` bytes and hands the engine at
//! most `chunk + 2 * overlap` bytes per push.
//!
//! The last part pushes **several flows through runs**: a pipeline worker
//! whose ring is backed up stages the waiting small packets of distinct
//! flows back to back and scans them in one engine call. Any interleaving of
//! the flows must report, per flow, what the flow pushed alone reports and
//! what a one-shot scan does — at every cut, with 1-byte chunks, with chunks
//! on both sides of the staging limit in one flow — and a backlog of N small
//! packets must cost ⌈N/32⌉ engine calls over no more than the payload and
//! carried bytes (work asserted as counts, not nanoseconds).

mod common;

use common::{Gated, HOLD_FLOW};
use mpm_dfc::{Dfc, VectorDfc};
use mpm_patterns::matcher::normalize_matches;
use mpm_patterns::naive::naive_find_all;
use mpm_patterns::{MatchEvent, Matcher, NaiveMatcher, Pattern, PatternSet, SyntheticRuleset};
use mpm_simd::{Avx2Backend, Avx512Backend, BackendKind, ScalarBackend};
use mpm_stream::{Packet, ScannerBuilder, SharedMatcher, StreamScanner};
use mpm_traffic::{TraceGenerator, TraceKind, TraceSpec};
use mpm_vpatch::{SPatch, VPatch};
use proptest::prelude::*;
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn bytes_strategy(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    // Small alphabet plus arbitrary bytes: collisions (and therefore real
    // matches and boundary straddles) happen often.
    proptest::collection::vec(
        prop_oneof![
            Just(b'a'),
            Just(b'b'),
            Just(b'c'),
            Just(b'G'),
            Just(b'E'),
            Just(b'T'),
            any::<u8>()
        ],
        1..max_len,
    )
}

fn pattern_set_strategy() -> impl Strategy<Value = PatternSet> {
    proptest::collection::vec(bytes_strategy(10), 1..12)
        .prop_map(|ps| PatternSet::new(ps.into_iter().map(Pattern::literal).collect()))
}

/// A chunking plan: chunk sizes are taken from this list round-robin, so a
/// plan of `[1]` is pure 1-byte streaming and mixed plans cut at arbitrary
/// offsets (including inside patterns).
fn chunk_plan_strategy() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..24, 1..16)
}

/// Every engine the issue's invariant covers: S-PATCH, V-PATCH and
/// (Vector-)DFC, at both scalar widths and on every backend this run can
/// dispatch to (`MPM_FORCE_BACKEND` narrows the list, pinning the suite).
fn engines(set: &PatternSet) -> Vec<SharedMatcher> {
    let mut engines: Vec<SharedMatcher> = vec![
        Arc::from(SPatch::build(set)),
        Arc::from(Dfc::build(set)),
        Arc::from(VPatch::<ScalarBackend, 8>::build(set)),
        Arc::from(VPatch::<ScalarBackend, 16>::build(set)),
        Arc::from(VectorDfc::<ScalarBackend, 8>::build(set)),
    ];
    for kind in mpm_simd::available_backends() {
        match kind {
            BackendKind::Scalar => {}
            BackendKind::Avx2 => {
                engines.push(Arc::from(VPatch::<Avx2Backend, 8>::build(set)));
                engines.push(Arc::from(VectorDfc::<Avx2Backend, 8>::build(set)));
            }
            BackendKind::Avx512 => {
                engines.push(Arc::from(VPatch::<Avx512Backend, 16>::build(set)));
                engines.push(Arc::from(VectorDfc::<Avx512Backend, 16>::build(set)));
            }
        }
    }
    engines
}

/// Cuts `hay` following the chunking plan (sizes taken round-robin).
fn cut<'a>(hay: &'a [u8], plan: &[usize]) -> Vec<&'a [u8]> {
    let mut chunks = Vec::new();
    let (mut pos, mut step) = (0, 0);
    while pos < hay.len() {
        let take = plan[step % plan.len()].min(hay.len() - pos);
        chunks.push(&hay[pos..pos + take]);
        pos += take;
        step += 1;
    }
    chunks
}

/// Streams `hay` through `scanner` following the chunking plan and returns
/// the normalized match set.
fn streamed_matches(
    engine: SharedMatcher,
    set: &PatternSet,
    hay: &[u8],
    plan: &[usize],
) -> Vec<MatchEvent> {
    let mut scanner = StreamScanner::new(engine, set);
    let mut got = Vec::new();
    for chunk in cut(hay, plan) {
        scanner.push(chunk, &mut got);
    }
    assert_eq!(scanner.position(), hay.len());
    normalize_matches(&mut got);
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn streamed_equals_one_shot_for_random_chunkings(
        set in pattern_set_strategy(),
        hay in bytes_strategy(400),
        plan in chunk_plan_strategy(),
    ) {
        let expected = naive_find_all(&set, &hay);
        for engine in engines(&set) {
            let name = engine.name();
            let got = streamed_matches(engine, &set, &hay, &plan);
            prop_assert_eq!(
                &got, &expected,
                "{} diverged from one-shot scan under plan {:?}",
                name, &plan
            );
        }
    }

    #[test]
    fn one_byte_chunks_equal_one_shot(
        set in pattern_set_strategy(),
        hay in bytes_strategy(200),
    ) {
        let expected = naive_find_all(&set, &hay);
        for engine in engines(&set) {
            let name = engine.name();
            let got = streamed_matches(engine, &set, &hay, &[1]);
            prop_assert_eq!(
                &got, &expected,
                "{} diverged from one-shot scan on 1-byte chunks",
                name
            );
        }
    }
}

/// Exhaustive boundary cuts: for every pattern and every cut position inside
/// it, split the stream exactly there and require the match to be found —
/// the deterministic core of the carry-over invariant.
#[test]
fn every_cut_inside_every_pattern_is_found() {
    let set = PatternSet::from_literals(&["GET /", "passwd", "ab", "aaaa", "x"]);
    for (id, pattern) in set.iter() {
        let needle = pattern.bytes();
        let mut hay = Vec::new();
        hay.extend_from_slice(b"..");
        hay.extend_from_slice(needle);
        hay.extend_from_slice(b"..");
        let expected = naive_find_all(&set, &hay);
        for cut in 1..needle.len() {
            let boundary = 2 + cut; // stream offset of the cut
            for engine in engines(&set) {
                let name = engine.name();
                let mut scanner = StreamScanner::new(engine, &set);
                let mut got = Vec::new();
                scanner.push(&hay[..boundary], &mut got);
                scanner.push(&hay[boundary..], &mut got);
                normalize_matches(&mut got);
                assert_eq!(
                    got, expected,
                    "{name}: pattern {id} cut at {cut} lost a match"
                );
            }
        }
    }
}

/// Pushes `hay` in `packet`-byte pieces, checking after every push that the
/// carry respects its bound and still holds every byte of an occurrence of
/// `live` (at stream offset `live.start`) that has begun but not ended.
fn push_in_packets(
    scanner: &mut StreamScanner,
    hay: &[u8],
    packet: usize,
    live: Range<usize>,
    got: &mut Vec<MatchEvent>,
) {
    for piece in hay.chunks(packet) {
        scanner.push(piece, got);
        assert!(scanner.carried() <= scanner.overlap());
        let seen = scanner.position();
        if live.contains(&seen) {
            assert!(
                scanner.carried() >= seen - live.start,
                "{}: {} bytes of a pattern in progress, {} carried",
                scanner.engine().name(),
                seen - live.start,
                scanner.carried()
            );
        }
    }
}

/// A pattern longer than four packets stays in progress across five or more
/// pushes, and is then completed — or broken on its very last byte.
#[test]
fn a_pattern_longer_than_four_packets_stays_live_until_its_last_byte() {
    let long: Vec<u8> = (0..70u8).map(|i| b'a' + i % 23).collect();
    let set = PatternSet::new(vec![
        Pattern::literal(long.clone()),
        Pattern::literal(long[..9].to_vec()),
        Pattern::literal(*b"GET /"),
        Pattern::literal(*b"jk"),
        Pattern::literal(*b"x"),
    ]);
    for last in [long[69], b'#'] {
        let mut hay = b"..x GET ".to_vec();
        let start = hay.len();
        hay.extend_from_slice(&long[..69]);
        hay.push(last);
        hay.extend_from_slice(b"/x GET /..");
        let expected = naive_find_all(&set, &hay);
        assert_eq!(
            expected.iter().any(|m| m.pattern.index() == 0),
            last == long[69]
        );
        for packet in [16, 13, 5, 1] {
            for engine in engines(&set) {
                let name = engine.name();
                let mut scanner = StreamScanner::new(engine, &set);
                let mut got = Vec::new();
                // In progress from its second byte until its last arrives.
                let live = start + 1..start + 70;
                push_in_packets(&mut scanner, &hay, packet, live, &mut got);
                normalize_matches(&mut got);
                assert_eq!(got, expected, "{name}: {packet}-byte packets");
            }
        }
    }
}

/// Every cut of every pattern, after a long first push and followed by
/// 1-byte pushes: the carry shrinks to the pattern's head, then regrows one
/// byte at a time until the match completes.
#[test]
fn every_cut_survives_a_long_push_followed_by_one_byte_pushes() {
    let set = PatternSet::new(vec![
        Pattern::literal(*b"GET /index.html HTTP/1.1"),
        Pattern::literal_nocase(*b"User-Agent: sqlmap"),
        Pattern::literal(*b"passwd"),
        Pattern::literal(*b"aaaa"),
        Pattern::literal(*b"ab"),
        Pattern::literal(*b"x"),
    ]);
    let filler: Vec<u8> = b"Host: example.org\r\nAccept: */*\r\n"
        .iter()
        .cycle()
        .take(300)
        .copied()
        .collect();
    for (id, pattern) in set.iter() {
        let needle = pattern.bytes().to_ascii_uppercase();
        let needle = if pattern.is_nocase() {
            &needle[..]
        } else {
            pattern.bytes()
        };
        let mut hay = filler.clone();
        hay.extend_from_slice(needle);
        hay.extend_from_slice(b" aaab");
        let expected = naive_find_all(&set, &hay);
        for cut in 1..needle.len() {
            let boundary = filler.len() + cut;
            for engine in engines(&set) {
                let name = engine.name();
                let mut scanner = StreamScanner::new(engine, &set);
                let mut got = Vec::new();
                let live = filler.len() + 1..filler.len() + needle.len();
                push_in_packets(
                    &mut scanner,
                    &hay[..boundary],
                    boundary,
                    live.clone(),
                    &mut got,
                );
                push_in_packets(&mut scanner, &hay[boundary..], 1, live, &mut got);
                normalize_matches(&mut got);
                assert_eq!(
                    got, expected,
                    "{name}: pattern {id} cut at {cut} lost a match"
                );
            }
        }
    }
}

/// `reset()` forgets a pattern in progress and restarts offsets at zero; a
/// clone taken mid-pattern finishes the stream exactly as the original does.
#[test]
fn reset_and_clone_mid_pattern() {
    let set = PatternSet::from_literals(&["GET /index.html", "passwd", "ab"]);
    let stream = b"..GET /index.html?passwd=ab";
    let expected = naive_find_all(&set, stream);
    for engine in engines(&set) {
        let name = engine.name();
        let mut scanner = StreamScanner::new(engine, &set);
        let mut got = Vec::new();
        scanner.push(b"xx GET /ind", &mut got);
        assert!(scanner.carried() >= 8, "{name}");
        scanner.reset();
        assert_eq!((scanner.carried(), scanner.position()), (0, 0), "{name}");
        // The tail of the old stream must not complete against the new one.
        scanner.push(b"ex.html ", &mut got);
        assert!(got.is_empty(), "{name}: {got:?}");

        scanner.reset();
        scanner.push(&stream[..9], &mut got);
        let mut twin = scanner.clone();
        let mut twin_got = got.clone();
        scanner.push(&stream[9..], &mut got);
        twin.push(&stream[9..], &mut twin_got);
        normalize_matches(&mut got);
        normalize_matches(&mut twin_got);
        assert_eq!(got, expected, "{name}");
        assert_eq!(twin_got, expected, "{name}: clone");
        assert!(format!("{scanner:?}").contains("StreamScanner"));
    }
}

/// The engines that read a resume point off their own candidate array
/// (S-PATCH and V-PATCH): what `build_auto` returns and the pipeline runs.
fn patch_engines(set: &PatternSet) -> Vec<SharedMatcher> {
    engines(set)
        .into_iter()
        .filter(|engine| matches!(engine.name(), "S-PATCH" | "V-PATCH"))
        .collect()
}

/// On benign traffic almost no position is a pattern in progress, so the
/// carry is the three unfiltered tail bytes and now and then a pattern's
/// head. An engine that silently fell back to the conservative resume point
/// would carry `overlap` (~250) bytes here.
#[test]
fn benign_traffic_carries_a_few_bytes() {
    let set = SyntheticRuleset::snort_like_s1().http();
    let flow = TraceGenerator::generate(&TraceSpec::new(TraceKind::IscxDay2, 16 << 10), Some(&set));
    for engine in patch_engines(&set) {
        let name = engine.name();
        let mut scanner = StreamScanner::new(engine, &set);
        assert!(scanner.overlap() > 100);
        let mut got = Vec::new();
        let (mut carried, mut pushes) = (0usize, 0usize);
        for packet in flow.chunks(64) {
            scanner.push(packet, &mut got);
            carried += scanner.carried();
            pushes += 1;
        }
        assert!(
            carried < 16 * pushes,
            "{name}: mean carry {:.1} bytes over {pushes} pushes",
            carried as f64 / pushes as f64
        );
        normalize_matches(&mut got);
        assert_eq!(got, naive_find_all(&set, &flow), "{name}");
    }
}

/// The worst case is bounded: a ~250-byte one-letter pattern against a
/// stream of that letter keeps every tail position genuinely in progress,
/// and a stream of 4-byte patterns makes every tail position a filter
/// candidate that is *not* in progress (so the resume walk runs out of
/// budget). Either way the output is the naive one, the carry never exceeds
/// `overlap`, and a push never hands the engine more than the
/// `chunk + 2 * overlap` bytes the re-scanning scanner did.
#[test]
fn saturating_input_stays_within_the_carry_and_work_bounds() {
    let set = PatternSet::new(vec![
        Pattern::literal(vec![b'A'; 250]),
        Pattern::literal(*b"ABAB"),
        Pattern::literal(*b"BABA"),
        Pattern::literal_nocase(*b"abba"),
        Pattern::literal(*b"AA"),
        Pattern::literal(*b"B"),
    ]);
    let all_a = vec![b'A'; 1200];
    let saturating: Vec<u8> = b"AB".iter().cycle().take(1200).copied().collect();
    let mut mixed = saturating[..300].to_vec();
    mixed.extend_from_slice(&all_a[..620]);
    mixed.extend_from_slice(b"BBABBA");
    for hay in [&all_a, &saturating, &mixed] {
        let expected = NaiveMatcher::new(&set).find_all(hay);
        let mut tested: Vec<SharedMatcher> = patch_engines(&set);
        tested.push(Arc::from(NaiveMatcher::new(&set)));
        for engine in tested {
            for packet in [1, 7, 64] {
                let counting = Gated::open(engine.clone());
                let mut scanner = StreamScanner::new(counting.clone(), &set);
                let bound = packet + 2 * scanner.overlap();
                let mut got = Vec::new();
                for piece in hay.chunks(packet) {
                    counting.reset_counts();
                    scanner.push(piece, &mut got);
                    assert!(scanner.carried() <= scanner.overlap());
                    let handed = counting.handed.load(Ordering::Relaxed);
                    assert!(
                        handed <= bound,
                        "{}: {handed} bytes handed over for a {packet}-byte push",
                        engine.name()
                    );
                }
                normalize_matches(&mut got);
                assert_eq!(got, expected, "{}: {packet}-byte packets", engine.name());
            }
        }
    }
}

/// Pushes every flow's chunks through a one-worker pipeline **whose ring is
/// backed up** (the worker is held while everything is dispatched), so the
/// small packets are scanned as runs. `order` names the flow whose next chunk
/// goes next. Returns each flow's normalized match set.
fn through_runs(
    engine: SharedMatcher,
    set: &PatternSet,
    flows: &[Vec<&[u8]>],
    order: impl IntoIterator<Item = usize>,
) -> Vec<Vec<MatchEvent>> {
    let engine = Gated::open(engine);
    let packets: usize = flows.iter().map(Vec::len).sum();
    let mut pipeline = ScannerBuilder::new()
        .engine(engine.clone(), set)
        .workers(1)
        .ring_capacity((packets + 2).next_power_of_two())
        .build()
        .expect("valid build");
    let hold = engine.arm();
    hold.hold(&mut pipeline);
    let mut next = vec![0; flows.len()];
    for flow in order {
        let chunk = flows[flow][next[flow]];
        next[flow] += 1;
        pipeline.dispatch(Packet::new(flow as u64, chunk.to_vec()));
    }
    assert!(
        next.iter().zip(flows).all(|(n, chunks)| *n == chunks.len()),
        "the order must dispatch every chunk"
    );
    hold.release();
    let stats = pipeline.drain().expect("worker alive");
    let mut per_flow = vec![Vec::new(); flows.len()];
    for m in stats.matches {
        if m.flow != HOLD_FLOW {
            per_flow[m.flow as usize].push(m.event);
        }
    }
    per_flow
}

/// Round-robin over the flows that still have a chunk: consecutive packets
/// belong to distinct flows, so runs are as long as they get.
fn round_robin(flows: &[Vec<&[u8]>]) -> Vec<usize> {
    let rounds = flows.iter().map(Vec::len).max().unwrap_or(0);
    (0..rounds)
        .flat_map(|round| (0..flows.len()).filter(move |&f| round < flows[f].len()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any interleaving of a few flows, each with its own chunking.
    #[test]
    fn any_interleaving_through_runs_equals_each_flow_alone(
        set in pattern_set_strategy(),
        streams in proptest::collection::vec((bytes_strategy(300), chunk_plan_strategy()), 2..7),
        picks in proptest::collection::vec(any::<usize>(), 0..400),
    ) {
        let flows: Vec<Vec<&[u8]>> = streams.iter().map(|(hay, plan)| cut(hay, plan)).collect();
        // A random order that keeps each flow's chunks in sequence; what the
        // picks leave over goes round-robin.
        let mut left: Vec<usize> = flows.iter().map(Vec::len).collect();
        let mut order = Vec::new();
        for pick in picks {
            let open: Vec<usize> = (0..flows.len()).filter(|&f| left[f] > 0).collect();
            if open.is_empty() {
                break;
            }
            let flow = open[pick % open.len()];
            left[flow] -= 1;
            order.push(flow);
        }
        let rounds = left.iter().copied().max().unwrap_or(0);
        for round in 0..rounds {
            order.extend((0..flows.len()).filter(|&f| round < left[f]));
        }
        for engine in engines(&set) {
            let name = engine.name();
            let got = through_runs(engine.clone(), &set, &flows, order.iter().copied());
            for (f, (hay, plan)) in streams.iter().enumerate() {
                let expected = naive_find_all(&set, hay);
                let mut flow_got = got[f].clone();
                normalize_matches(&mut flow_got);
                prop_assert_eq!(&flow_got, &expected, "{}: flow {} through runs", name, f);
                let alone = streamed_matches(engine.clone(), &set, hay, plan);
                prop_assert_eq!(&alone, &expected, "{}: flow {} alone", name, f);
            }
        }
    }
}

/// Every cut of every pattern is its own flow, and all of them go through
/// the same backlog: the first halves are scanned as runs of distinct
/// flows, then the second halves. Beside them run a flow of 1-byte chunks
/// and a flow whose chunks lie on both sides of the staging limit (so it
/// leaves and rejoins the runs mid-stream).
#[test]
fn every_cut_through_runs_is_found() {
    let set = PatternSet::new(vec![
        Pattern::literal(*b"GET /index.html HTTP/1.1"),
        Pattern::literal_nocase(*b"User-Agent: sqlmap"),
        Pattern::literal(*b"passwd"),
        Pattern::literal(*b"aaaa"),
        Pattern::literal(*b"ab"),
        Pattern::literal(*b"x"),
    ]);
    let mut streams: Vec<(Vec<u8>, Vec<usize>)> = Vec::new();
    for (_, pattern) in set.iter() {
        let needle = if pattern.is_nocase() {
            pattern.bytes().to_ascii_uppercase()
        } else {
            pattern.bytes().to_vec()
        };
        let hay = [&b"Host: a\r\n"[..], &needle, b" aaab"].concat();
        for at in 1..needle.len() {
            streams.push((hay.clone(), vec![9 + at, hay.len()]));
        }
    }
    let text: Vec<u8> = b"GET /index.html HTTP/1.1\r\nuser-agent: SQLMAP\r\nx=passwd aaaaab\r\n"
        .iter()
        .cycle()
        .take(1500)
        .copied()
        .collect();
    streams.push((text[..150].to_vec(), vec![1]));
    // STAGE_MAX is 256: at it, one past it, far past it, far below it.
    streams.push((text.clone(), vec![200, 256, 257, 1, 300, 255, 3]));
    let flows: Vec<Vec<&[u8]>> = streams.iter().map(|(hay, plan)| cut(hay, plan)).collect();
    for engine in engines(&set) {
        let name = engine.name();
        let got = through_runs(engine, &set, &flows, round_robin(&flows));
        for (f, (hay, _)) in streams.iter().enumerate() {
            let mut flow_got = got[f].clone();
            normalize_matches(&mut flow_got);
            assert_eq!(flow_got, naive_find_all(&set, hay), "{name}: flow {f}");
        }
    }
}

/// What a backlog costs, counted: N small packets of distinct flows waiting
/// in the ring are ⌈N/32⌉ engine calls (two per packet before runs), and the
/// engine is handed each packet's payload and its flow's carried bytes once,
/// nothing more.
#[test]
fn a_backlog_of_small_packets_costs_one_engine_call_per_run() {
    const FLOWS: usize = 100;
    const PACKET: usize = 64;
    let set = SyntheticRuleset::snort_like_s1().http();
    let trace = TraceGenerator::generate(
        &TraceSpec::new(TraceKind::IscxDay2, 2 * FLOWS * PACKET),
        Some(&set),
    );
    let flow_bytes = |f: usize| &trace[2 * f * PACKET..2 * (f + 1) * PACKET];
    let mut tested = patch_engines(&set);
    tested.push(Arc::from(NaiveMatcher::new(&set)));
    for inner in tested {
        let name = inner.name();
        // What each flow carries after its first packet, from the flow alone.
        let carried: usize = (0..FLOWS)
            .map(|f| {
                let mut alone = StreamScanner::new(inner.clone(), &set);
                alone.push(&flow_bytes(f)[..PACKET], &mut Vec::new());
                alone.carried()
            })
            .sum();
        let engine = Gated::open(inner);
        let mut pipeline = ScannerBuilder::new()
            .engine(engine.clone(), &set)
            .workers(1)
            .ring_capacity((2 * FLOWS).next_power_of_two())
            .build()
            .expect("valid build");
        let mut got = Vec::new();
        for wave in 0..2 {
            let hold = engine.arm();
            hold.hold(&mut pipeline);
            engine.reset_counts();
            for f in 0..FLOWS {
                let payload = &flow_bytes(f)[wave * PACKET..(wave + 1) * PACKET];
                pipeline.dispatch(Packet::new(f as u64, payload.to_vec()));
            }
            hold.release();
            got.extend(pipeline.drain().expect("worker alive").matches);
            let calls = engine.calls.load(Ordering::Relaxed);
            assert_eq!(calls, FLOWS.div_ceil(32), "{name}: wave {wave}");
            let handed = engine.handed.load(Ordering::Relaxed);
            let bound = FLOWS * PACKET + wave * carried;
            assert!(
                handed <= bound,
                "{name}: wave {wave} handed {handed} > {bound}"
            );
        }
        let mut expected = Vec::new();
        for f in 0..FLOWS {
            for event in naive_find_all(&set, flow_bytes(f)) {
                expected.push((f as u64, event));
            }
        }
        let mut got: Vec<_> = got
            .into_iter()
            .filter(|m| m.flow != HOLD_FLOW)
            .map(|m| (m.flow, m.event))
            .collect();
        got.sort_unstable();
        expected.sort_unstable();
        assert_eq!(got, expected, "{name}");
    }
}
