//! [`BarrierScanner`]: the multi-core scanner's differential oracle.
//!
//! [`crate::PipelineScanner`] spreads flows over worker threads behind
//! rings, runs, backpressure and supervision. This is the same per-flow
//! scanning with all of that taken away, **run inline on the caller's
//! thread**: no thread, no queue, no clock — the oracle is simpler than the
//! thing it checks (`tests/pipeline_equivalence.rs`). What it shares with
//! the pipeline is exactly what the two must agree on: the mixer that sends
//! a flow to a worker index, the split of
//! [`crate::ScannerBuilder::max_flows`] over those indices with
//! least-recently-pushed eviction in each, the `FlowScanner::push` every
//! mode goes through, and results sorted by `(flow, start, pattern)`.

use crate::types::{BatchResult, FlowMatch, FlowRuleMatch, Packet};
use crate::worker::{flow_cap_share, worker_of, FlowScanner, WorkerMode};
use mpm_patterns::rule::RuleMatch;
use mpm_patterns::{MatchEvent, MatcherStats};
use std::collections::{BTreeMap, HashMap};

/// The flows one pipeline worker would own.
#[derive(Default)]
struct Shard {
    /// Each resident flow's stream state and the sequence number of its
    /// latest packet.
    flows: HashMap<u64, (FlowScanner, u64)>,
    /// seq → flow, kept only under a flow cap: the first entry is the
    /// least-recently-pushed flow.
    recency: BTreeMap<u64, u64>,
}

/// Batch scanner with per-flow stream state, run on the caller's thread:
/// every [`BarrierScanner::scan_batch`] scans its packets in order and
/// returns their results as one deterministic unit. The harness for
/// differential testing; a deployment wants [`crate::PipelineScanner`].
///
/// ```
/// use mpm_patterns::{NaiveMatcher, PatternSet};
/// use mpm_stream::{BarrierScanner, Packet, ScannerBuilder};
/// use std::sync::Arc;
///
/// let rules = PatternSet::from_literals(&["attack"]);
/// let engine: mpm_stream::SharedMatcher = Arc::from(NaiveMatcher::new(&rules));
/// let mut scanner: BarrierScanner = ScannerBuilder::new()
///     .engine(engine, &rules)
///     .workers(4)
///     .build_barrier()
///     .expect("valid configuration");
///
/// let batch = vec![
///     Packet::new(7, b"...att".to_vec()),  // flow 7, cut inside the pattern
///     Packet::new(9, b"clean".to_vec()),
///     Packet::new(7, b"ack...".to_vec()),  // same flow => same stream
/// ];
/// let result = scanner.scan_batch(batch);
/// assert_eq!(result.matches.len(), 1);
/// assert_eq!(result.matches[0].flow, 7);
/// assert_eq!(result.matches[0].event.start, 3);
/// ```
pub struct BarrierScanner {
    mode: WorkerMode,
    shards: Vec<Shard>,
    /// Each shard's share of the flow cap.
    max_flows: Option<usize>,
    max_flow_buffer: Option<usize>,
    next_seq: u64,
    /// Results since the last flush.
    matches: Vec<FlowMatch>,
    rule_matches: Vec<FlowRuleMatch>,
    stats: MatcherStats,
    events: Vec<MatchEvent>,
    rule_events: Vec<RuleMatch>,
}

impl BarrierScanner {
    pub(crate) fn new(
        mode: WorkerMode,
        workers: usize,
        max_flows: Option<usize>,
        max_flow_buffer: Option<usize>,
    ) -> Self {
        // Invariant: `ScannerBuilder` validated the count (BuildError::ZeroWorkers).
        assert!(workers > 0, "need at least one worker");
        BarrierScanner {
            mode,
            shards: (0..workers).map(|_| Shard::default()).collect(),
            max_flows: flow_cap_share(max_flows, workers),
            max_flow_buffer,
            next_seq: 0,
            matches: Vec::new(),
            rule_matches: Vec::new(),
            stats: MatcherStats::default(),
            events: Vec::new(),
            rule_events: Vec::new(),
        }
    }

    /// Number of logical workers the flows are sharded over.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// The worker a flow is pinned to — the index
    /// [`crate::PipelineScanner::worker_of`] gives at the same worker count.
    pub fn worker_of(&self, flow: u64) -> usize {
        worker_of(flow, self.shards.len())
    }

    /// Scans a batch of packets in order and returns the merged,
    /// deterministically-ordered result.
    ///
    /// Flow stream state **persists across batches**: a pattern cut between
    /// the last packet of one batch and the first packet of the next (in the
    /// same flow) is still reported, by the later batch.
    pub fn scan_batch(&mut self, packets: impl IntoIterator<Item = Packet>) -> BatchResult {
        for packet in packets {
            self.dispatch(packet);
        }
        self.flush()
    }

    /// Returns everything scanned since the last flush, sorted.
    /// [`BarrierScanner::scan_batch`] calls this; it is public for callers
    /// that hand packets over one by one via [`BarrierScanner::dispatch`].
    pub fn flush(&mut self) -> BatchResult {
        let flows = || self.shards.iter().flat_map(|shard| shard.flows.values());
        let mut result = BatchResult {
            resident_flows: flows().count(),
            buffered_bytes: flows().map(|(scanner, _)| scanner.buffered_bytes()).sum(),
            matches: std::mem::take(&mut self.matches),
            rule_matches: std::mem::take(&mut self.rule_matches),
            stats: std::mem::take(&mut self.stats),
        };
        result.matches.sort_unstable();
        result.rule_matches.sort_unstable();
        result
    }

    /// Scans one packet on its flow's shard. Pair with
    /// [`BarrierScanner::flush`] to collect results.
    pub fn dispatch(&mut self, packet: Packet) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let flow = packet.flow;
        let worker = self.worker_of(flow);
        let shard = &mut self.shards[worker];
        if let Some(cap) = self.max_flows {
            match shard.flows.get(&flow) {
                Some((_, last)) => {
                    shard.recency.remove(last);
                }
                // An unseen flow would push this shard past its share of
                // the cap: retire the least-recently-pushed flow first (same
                // semantics as close_flow — its carry state is dropped and a
                // later packet for it starts a fresh stream).
                None if shard.flows.len() >= cap => {
                    let (_, evicted) = shard
                        .recency
                        .pop_first()
                        .expect("cap >= 1, so map is non-empty");
                    shard.flows.remove(&evicted);
                }
                None => {}
            }
            shard.recency.insert(seq, flow);
        }
        let (scanner, last) = shard.flows.entry(flow).or_insert_with(|| {
            let scanner = FlowScanner::mint(&self.mode, packet.tuple, self.max_flow_buffer);
            (scanner, seq)
        });
        *last = seq;
        self.events.clear();
        self.rule_events.clear();
        self.stats.matches +=
            scanner.push(&packet.payload, &mut self.events, &mut self.rule_events);
        self.stats.bytes_scanned += packet.payload.len() as u64;
        self.matches
            .extend(self.events.drain(..).map(|event| FlowMatch { flow, event }));
        self.rule_matches
            .extend(self.rule_events.drain(..).map(|m| FlowRuleMatch {
                flow,
                rule: m.rule,
                end: m.end,
            }));
    }

    /// Retires a finished flow, freeing its per-flow stream state (carry
    /// bytes and buffers). Packets sent *after* the close start a fresh
    /// stream (offset 0, empty carry). Closing an unknown flow is a no-op.
    pub fn close_flow(&mut self, flow: u64) {
        let worker = self.worker_of(flow);
        let shard = &mut self.shards[worker];
        if let Some((_, last)) = shard.flows.remove(&flow) {
            shard.recency.remove(&last);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ScannerBuilder;
    use crate::group::GroupedEngineSet;
    use crate::stream::SharedMatcher;
    use mpm_patterns::rule::{RuleId, RuleSet};
    use mpm_patterns::{NaiveMatcher, PatternSet};
    use std::sync::Arc;

    fn engine(set: &PatternSet) -> SharedMatcher {
        Arc::from(NaiveMatcher::new(set))
    }

    fn barrier(set: &PatternSet, workers: usize) -> BarrierScanner {
        ScannerBuilder::new()
            .engine(engine(set), set)
            .workers(workers)
            .build_barrier()
            .expect("valid build")
    }

    fn rules_barrier(set: &RuleSet, workers: usize) -> ScannerBuilder {
        ScannerBuilder::new()
            .rules(Arc::new(NaiveMatcher::new(set.anchors())), set)
            .workers(workers)
    }

    #[test]
    fn cross_packet_match_within_a_flow() {
        let set = PatternSet::from_literals(&["needle"]);
        let mut scanner = barrier(&set, 3);
        let result = scanner.scan_batch(vec![
            Packet::new(1, b"xxnee".to_vec()),
            Packet::new(2, b"dle".to_vec()), // different flow: no match
            Packet::new(1, b"dleyy".to_vec()),
        ]);
        assert_eq!(result.matches.len(), 1);
        assert_eq!(result.matches[0].flow, 1);
        assert_eq!(result.matches[0].event.start, 2);
        assert_eq!(result.stats.bytes_scanned, 13);
        assert_eq!(result.stats.matches, 1);
    }

    #[test]
    fn state_persists_across_batches() {
        let set = PatternSet::from_literals(&["split"]);
        let mut scanner = barrier(&set, 2);
        let first = scanner.scan_batch(vec![Packet::new(5, b"..spl".to_vec())]);
        assert!(first.matches.is_empty());
        let second = scanner.scan_batch(vec![Packet::new(5, b"it..".to_vec())]);
        assert_eq!(second.matches.len(), 1);
        assert_eq!(second.matches[0].event.start, 2);
    }

    #[test]
    fn flow_affinity_is_stable() {
        let set = PatternSet::from_literals(&["x"]);
        let scanner = barrier(&set, 4);
        for flow in 0..100 {
            assert_eq!(scanner.worker_of(flow), scanner.worker_of(flow));
        }
        // The mixer should not send every flow to one worker.
        let hit: std::collections::HashSet<usize> =
            (0..100).map(|f| scanner.worker_of(f)).collect();
        assert!(hit.len() > 1);
    }

    #[test]
    fn dispatch_then_flush_equals_scan_batch() {
        let set = PatternSet::from_literals(&["ab", "b"]);
        let packets = vec![
            Packet::new(1, b"zab".to_vec()),
            Packet::new(2, b"ba".to_vec()),
        ];
        let mut a = barrier(&set, 2);
        let batch = a.scan_batch(packets.clone());
        let mut b = barrier(&set, 2);
        for packet in packets {
            b.dispatch(packet);
        }
        let incremental = b.flush();
        assert_eq!(batch.matches, incremental.matches);
        assert_eq!(batch.stats.bytes_scanned, incremental.stats.bytes_scanned);
    }

    #[test]
    fn close_flow_drops_stream_state() {
        let set = PatternSet::from_literals(&["split"]);
        let mut scanner = barrier(&set, 2);
        assert!(scanner
            .scan_batch(vec![Packet::new(9, b"..spl".to_vec())])
            .matches
            .is_empty());
        scanner.close_flow(9);
        // The carried "spl" was retired with the flow: no straddle match,
        // and the flow restarts at offset 0.
        let after = scanner.scan_batch(vec![Packet::new(9, b"it.split".to_vec())]);
        assert_eq!(after.matches.len(), 1);
        assert_eq!(after.matches[0].event.start, 3);
        // Closing an unknown flow is a no-op.
        scanner.close_flow(12345);
        assert!(scanner.flush().matches.is_empty());
    }

    #[test]
    fn million_flow_churn_stays_bounded_and_scans_correctly() {
        let set = PatternSet::from_literals(&["needle"]);
        let cap = 64;
        let workers = 3;
        let mut scanner = ScannerBuilder::new()
            .engine(engine(&set), &set)
            .workers(workers)
            .max_flows(cap)
            .build_barrier()
            .expect("valid build");
        // A million distinct flows, each carrying one complete occurrence:
        // every match must be found (the pattern never straddles packets of
        // different flows) and the resident state must stay at the cap, not
        // at one million scanners.
        let total_flows = 1_000_000u64;
        let batch_size = 50_000u64;
        let mut found = 0u64;
        let mut flow = 0u64;
        while flow < total_flows {
            let packets: Vec<Packet> = (flow..flow + batch_size)
                .map(|f| Packet::new(f, b"..needle..".to_vec()))
                .collect();
            flow += batch_size;
            let result = scanner.scan_batch(packets);
            found += result.matches.len() as u64;
            assert!(
                result.resident_flows <= workers * cap.div_ceil(workers),
                "resident flows {} exceeded the cap",
                result.resident_flows
            );
        }
        assert_eq!(found, total_flows);
    }

    #[test]
    fn eviction_is_least_recently_pushed_and_acts_like_close_flow() {
        let set = PatternSet::from_literals(&["split"]);
        // One worker, two resident flows.
        let mut scanner = ScannerBuilder::new()
            .engine(engine(&set), &set)
            .workers(1)
            .max_flows(2)
            .build_barrier()
            .expect("valid build");
        // Flow 1 and 2 each buffer a half-pattern; pushing flow 1 again
        // makes flow 2 the least-recently-pushed.
        scanner.scan_batch(vec![
            Packet::new(1, b"..sp".to_vec()),
            Packet::new(2, b"..sp".to_vec()),
            Packet::new(1, b"spl".to_vec()),
        ]);
        // Flow 3 arrives at the cap: flow 2 (LRP) is evicted, flow 1 stays.
        let result = scanner.scan_batch(vec![
            Packet::new(3, b"zzz".to_vec()),
            Packet::new(1, b"it!".to_vec()), // completes flow 1's "split"
            Packet::new(2, b"lit".to_vec()), // would complete flow 2's — evicted
        ]);
        let flows_matched: Vec<u64> = result.matches.iter().map(|m| m.flow).collect();
        assert_eq!(flows_matched, vec![1], "only the retained flow straddles");
        assert_eq!(result.matches[0].event.start, 4);
        // Evicted flow restarted at offset 0: a full occurrence still hits.
        let after = scanner.scan_batch(vec![Packet::new(2, b"split".to_vec())]);
        assert_eq!(after.matches.len(), 1);
        assert_eq!(after.matches[0].event.start, 3);
    }

    fn rules_for_shard() -> RuleSet {
        use mpm_patterns::rule::{Rule, RuleContent};
        RuleSet::new(vec![Rule::new(vec![
            RuleContent::new(*b"attack"),
            RuleContent::new(*b"body").with_distance(0),
        ])])
    }

    #[test]
    fn rule_mode_confirms_across_packets_within_a_flow() {
        let set = rules_for_shard();
        let mut scanner = rules_barrier(&set, 3).build_barrier().expect("valid build");
        let result = scanner.scan_batch(vec![
            Packet::new(1, b"..atta".to_vec()),
            Packet::new(2, b"ck body".to_vec()), // other flow: no anchor
            Packet::new(1, b"ck..".to_vec()),
            Packet::new(1, b"body".to_vec()),
        ]);
        assert_eq!(
            result.rule_matches,
            vec![FlowRuleMatch {
                flow: 1,
                rule: RuleId(0),
                end: 14
            }]
        );
        // Anchor hits still reported, in flow-stream coordinates.
        assert_eq!(result.matches.len(), 1);
        assert_eq!(result.matches[0].event.start, 2);
    }

    #[test]
    fn rule_mode_confirms_across_batches_and_reports_once() {
        let set = rules_for_shard();
        let mut scanner = rules_barrier(&set, 2).build_barrier().expect("valid build");
        let first = scanner.scan_batch(vec![Packet::new(7, b"attack..".to_vec())]);
        assert!(
            first.rule_matches.is_empty(),
            "second content still missing"
        );
        let second = scanner.scan_batch(vec![Packet::new(7, b"body".to_vec())]);
        assert_eq!(
            second.rule_matches,
            vec![FlowRuleMatch {
                flow: 7,
                rule: RuleId(0),
                end: 12
            }]
        );
        let third = scanner.scan_batch(vec![Packet::new(7, b"body".to_vec())]);
        assert!(
            third.rule_matches.is_empty(),
            "a rule confirms once per flow"
        );
    }

    #[test]
    fn rule_mode_eviction_retires_buffered_payload() {
        let set = rules_for_shard();
        // One worker, one resident flow: flow 2's arrival evicts flow 1.
        let mut scanner = rules_barrier(&set, 1)
            .max_flows(1)
            .build_barrier()
            .expect("valid build");
        scanner.scan_batch(vec![Packet::new(1, b"attack..".to_vec())]);
        let result = scanner.scan_batch(vec![
            Packet::new(2, b"zz".to_vec()),
            Packet::new(1, b"body".to_vec()), // flow 1 restarted: no anchor
        ]);
        assert!(result.rule_matches.is_empty());
    }

    fn grouped_engines() -> Arc<GroupedEngineSet> {
        use mpm_patterns::group::GroupedRuleSet;
        use mpm_patterns::snort::{parse_grouped, ParseOptions};
        let text = r#"
alert tcp any any -> any 80 (msg:"web"; content:"GET /admin"; sid:1;)
alert udp any any -> any 53 (msg:"dns"; content:"querydata"; sid:2;)
alert ip any any -> any any (msg:"any"; content:"evil-bytes"; sid:3;)
"#;
        let grouped = GroupedRuleSet::new(parse_grouped(text, ParseOptions::default()).unwrap());
        Arc::new(GroupedEngineSet::build_with(grouped, |set, _| {
            Arc::from(NaiveMatcher::new(set))
        }))
    }

    #[test]
    fn grouped_mode_selects_groups_per_flow_and_confirms_across_packets() {
        use mpm_patterns::ports::{FlowTuple, Proto};
        let mut scanner = ScannerBuilder::new()
            .groups(grouped_engines())
            .workers(3)
            .build_barrier()
            .expect("valid build");
        let web = FlowTuple::new(Proto::Tcp, 40000, 80);
        let dns = FlowTuple::new(Proto::Udp, 1000, 53);
        let result = scanner.scan_batch(vec![
            // Flow 1 (HTTP): web rule cut across packets + the ip-any rule.
            Packet::new_with_tuple(1, b"..GET /ad".to_vec(), web),
            Packet::new_with_tuple(2, b"querydata evil-bytes".to_vec(), dns),
            Packet::new(1, b"min evil-bytes".to_vec()),
            // Flow 3 (HTTP): dns content must NOT fire on an HTTP flow.
            Packet::new_with_tuple(3, b"querydata".to_vec(), web),
        ]);
        assert!(result.matches.is_empty(), "grouped mode reports rules only");
        assert_eq!(
            result.rule_matches,
            vec![
                FlowRuleMatch {
                    flow: 1,
                    rule: RuleId(0),
                    end: 12
                },
                FlowRuleMatch {
                    flow: 1,
                    rule: RuleId(2),
                    end: 23
                },
                FlowRuleMatch {
                    flow: 2,
                    rule: RuleId(1),
                    end: 9
                },
                FlowRuleMatch {
                    flow: 2,
                    rule: RuleId(2),
                    end: 20
                },
            ]
        );
        assert_eq!(result.stats.matches, 4);
    }

    #[test]
    fn grouped_mode_eviction_retires_flow_state() {
        use mpm_patterns::ports::{FlowTuple, Proto};
        let web = FlowTuple::new(Proto::Tcp, 9, 80);
        let mut scanner = ScannerBuilder::new()
            .groups(grouped_engines())
            .workers(1)
            .max_flows(1)
            .build_barrier()
            .expect("valid build");
        scanner.scan_batch(vec![Packet::new_with_tuple(1, b"GET /ad".to_vec(), web)]);
        let result = scanner.scan_batch(vec![
            Packet::new_with_tuple(2, b"zz".to_vec(), web), // evicts flow 1
            Packet::new_with_tuple(1, b"min".to_vec(), web), // fresh stream
        ]);
        assert!(result.rule_matches.is_empty());
    }

    #[test]
    fn resident_flows_reported_without_a_cap_too() {
        let set = PatternSet::from_literals(&["x"]);
        let mut scanner = barrier(&set, 2);
        let result = scanner.scan_batch((0..10u64).map(|f| Packet::new(f, b"x".to_vec())));
        assert_eq!(result.resident_flows, 10);
        scanner.close_flow(3);
        assert_eq!(scanner.flush().resident_flows, 9);
    }
}
