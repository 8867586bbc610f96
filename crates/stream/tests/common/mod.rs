//! Shared by the pipeline suites: the worker counts they run at; the one
//! reference every pipeline result is checked against, a naive scan of each
//! flow's stream segments ([`naive_per_flow`]); and, for the suites that
//! need a pipeline worker's job ring **backed up** at a known moment, an
//! engine that holds the worker inside its first engine call while the test
//! dispatches, so the packets are all waiting when it comes back and it
//! scans them as runs — forced with channels, not sleeps.

#![allow(dead_code)]

use mpm_patterns::group::GroupedRuleSet;
use mpm_patterns::naive::naive_find_all;
use mpm_patterns::ports::FlowTuple;
use mpm_patterns::rule::{naive_rule_find_all, RuleSet};
use mpm_patterns::{MatchEvent, Matcher, MatcherStats, PatternSet};
use mpm_stream::{FlowMatch, FlowRuleMatch, Packet, PipelineScanner, SharedMatcher};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

/// A flow id the suites' traffic never uses: the packet that holds the
/// worker.
pub const HOLD_FLOW: u64 = u64::MAX;

/// Worker counts under test: `default`, or exactly the count the CI matrix
/// pins via `MPM_WORKERS`.
pub fn worker_counts(default: &[usize]) -> Vec<usize> {
    match std::env::var("MPM_WORKERS") {
        Ok(v) => vec![v.parse().expect("MPM_WORKERS must be a positive integer")],
        Err(_) => default.to_vec(),
    }
}

/// Forwards to an engine, counting the engine calls and the bytes of every
/// haystack handed over — and, once armed, holding the next call until
/// released.
pub struct Gated {
    inner: SharedMatcher,
    /// Taken by the next engine call: tell the test, then wait for it.
    gate: Mutex<Option<(Sender<()>, Receiver<()>)>>,
    /// Engine calls so far.
    pub calls: AtomicUsize,
    /// Haystack bytes handed to the engine so far.
    pub handed: AtomicUsize,
}

/// The test's end of a [`Gated`] engine's gate.
pub struct Hold {
    held: Receiver<()>,
    release: Sender<()>,
}

impl Gated {
    /// Wraps `inner` with the gate open: only the counters, until
    /// [`Gated::arm`].
    pub fn open(inner: SharedMatcher) -> Arc<Self> {
        Arc::new(Gated {
            inner,
            gate: Mutex::new(None),
            calls: AtomicUsize::new(0),
            handed: AtomicUsize::new(0),
        })
    }

    /// Closes the gate: the next engine call blocks until [`Hold::release`].
    pub fn arm(&self) -> Hold {
        let (held_tx, held) = channel();
        let (release, release_rx) = channel();
        *self.gate.lock().unwrap() = Some((held_tx, release_rx));
        Hold { held, release }
    }

    fn enter(&self, haystack: &[u8]) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.handed.fetch_add(haystack.len(), Ordering::Relaxed);
        let gate = self.gate.lock().unwrap().take();
        if let Some((held, release)) = gate {
            held.send(()).expect("the test holds the other end");
            release.recv().expect("the test releases the gate");
        }
    }

    /// Zeroes the counters.
    pub fn reset_counts(&self) {
        self.calls.store(0, Ordering::Relaxed);
        self.handed.store(0, Ordering::Relaxed);
    }
}

impl Matcher for Gated {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn max_pattern_len(&self) -> usize {
        self.inner.max_pattern_len()
    }

    fn find_into(&self, haystack: &[u8], out: &mut Vec<MatchEvent>) {
        self.enter(haystack);
        self.inner.find_into(haystack, out);
    }

    fn find_in(&self, haystack: &[u8], starts: Range<usize>, out: &mut Vec<MatchEvent>) -> usize {
        self.enter(haystack);
        self.inner.find_in(haystack, starts, out)
    }

    fn find_in_segments(
        &self,
        haystack: &[u8],
        ends: &[usize],
        lengths: &[u32],
        out: &mut Vec<MatchEvent>,
        resumes: &mut Vec<usize>,
    ) {
        self.enter(haystack);
        self.inner
            .find_in_segments(haystack, ends, lengths, out, resumes);
    }
}

impl Hold {
    /// Holds the one worker of `pipeline` inside the engine, on a packet of
    /// [`HOLD_FLOW`]. Until [`Hold::release`], everything the test
    /// dispatches **waits in the ring** — which must have room for it: a
    /// blocked dispatch would wait for the held worker for ever.
    pub fn hold(&self, pipeline: &mut PipelineScanner) {
        assert_eq!(pipeline.workers(), 1, "the gate holds one worker");
        pipeline.dispatch(Packet::new(HOLD_FLOW, b".".to_vec()));
        self.held.recv().expect("the worker reaches the engine");
    }

    /// Lets the worker go on: it finds the backlog waiting.
    pub fn release(self) {
        self.release.send(()).expect("the worker is waiting");
    }
}

/// One step of a dispatch script, in the order the pipeline is handed it.
#[derive(Clone)]
pub enum Step {
    /// `PipelineScanner::dispatch`.
    Packet(Packet),
    /// `PipelineScanner::close_flow`.
    Close(u64),
}

/// What a flow's stream segments are scanned for: the pipeline's three
/// sources, as the naive evaluators take them.
#[derive(Clone, Copy)]
pub enum Mode<'a> {
    /// `ScannerBuilder::engine`: pattern matches.
    Plain(&'a PatternSet),
    /// `ScannerBuilder::rules`: anchor hits and confirmed rules.
    Rules(&'a RuleSet),
    /// `ScannerBuilder::groups`: confirmed rules whose headers apply.
    Grouped(&'a GroupedRuleSet),
}

/// What a lossless pipeline reports for a script: matches and rules sorted
/// as `drain` sorts them, `stats.bytes_scanned` and `stats.matches`, the
/// packet count and the flows resident at the end.
#[derive(Debug, Default)]
pub struct Expected {
    pub matches: Vec<FlowMatch>,
    pub rule_matches: Vec<FlowRuleMatch>,
    pub stats: MatcherStats,
    pub packets: u64,
    pub resident_flows: usize,
}

/// The oracle: cuts each flow of `script` into stream segments and scans
/// each segment whole with the naive evaluators. A segment ends at a close,
/// or when the flow is evicted as the least recently pushed flow of its
/// worker (`worker_of`, the pipeline's mapping) because an unseen flow
/// arrives with `cap` flows resident there — `cap` is one worker's share of
/// `ScannerBuilder::max_flows`, `max_flows.div_ceil(workers).max(1)`.
pub fn naive_per_flow(
    script: impl IntoIterator<Item = Step>,
    worker_of: impl Fn(u64) -> usize,
    cap: Option<usize>,
    mode: Mode,
) -> Expected {
    // Every segment so far: its flow, its first packet's tuple, its bytes.
    let mut segments: Vec<(u64, Option<FlowTuple>, Vec<u8>)> = Vec::new();
    // Resident flows: the open segment and the script position of the
    // flow's latest push; per worker, those positions in push order.
    let mut open: HashMap<u64, (usize, usize)> = HashMap::new();
    let mut recency: HashMap<usize, BTreeMap<usize, u64>> = HashMap::new();
    let mut out = Expected::default();
    for (seq, step) in script.into_iter().enumerate() {
        let packet = match step {
            Step::Packet(packet) => packet,
            Step::Close(flow) => {
                if let Some((_, last)) = open.remove(&flow) {
                    recency.get_mut(&worker_of(flow)).unwrap().remove(&last);
                }
                continue;
            }
        };
        let lru = recency.entry(worker_of(packet.flow)).or_default();
        let segment = match open.get(&packet.flow) {
            Some(&(segment, last)) => {
                lru.remove(&last);
                segment
            }
            None => {
                if cap.is_some_and(|cap| lru.len() >= cap) {
                    let (_, evicted) = lru.pop_first().expect("cap >= 1");
                    open.remove(&evicted);
                }
                segments.push((packet.flow, packet.tuple, Vec::new()));
                segments.len() - 1
            }
        };
        lru.insert(seq, packet.flow);
        open.insert(packet.flow, (segment, seq));
        segments[segment].2.extend_from_slice(&packet.payload);
        out.packets += 1;
        out.stats.bytes_scanned += packet.payload.len() as u64;
    }
    out.resident_flows = open.len();
    for (flow, tuple, bytes) in segments {
        let (events, rules) = match mode {
            Mode::Plain(set) => (naive_find_all(set, &bytes), Vec::new()),
            Mode::Rules(set) => (
                naive_find_all(set.anchors(), &bytes),
                naive_rule_find_all(set, &bytes),
            ),
            Mode::Grouped(grouped) => {
                let mut rules = naive_rule_find_all(grouped.monolithic(), &bytes);
                rules.retain(|m| tuple.is_none_or(|tuple| grouped.applies_to(m.rule, tuple)));
                (Vec::new(), rules)
            }
        };
        // Grouped mode counts confirmed rules; the others count events.
        let counted = if let Mode::Grouped(_) = mode {
            rules.len()
        } else {
            events.len()
        };
        out.stats.matches += counted as u64;
        out.matches
            .extend(events.into_iter().map(|event| FlowMatch { flow, event }));
        let rules = rules.into_iter().map(|m| FlowRuleMatch {
            flow,
            rule: m.rule,
            end: m.end,
        });
        out.rule_matches.extend(rules);
    }
    out.matches.sort_unstable();
    out.rule_matches.sort_unstable();
    out
}
