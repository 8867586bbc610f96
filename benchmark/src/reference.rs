//! Reference outputs: what every flow of a pass must report.
//!
//! Two independent references, both computed outside timing:
//!
//! * **full coverage** — a one-shot scan of every flow's whole payload by an
//!   engine that shares no filter code with the engines under test: the
//!   Aho-Corasick NFA (`NfaMatcher`); for rules, `RuleScanner::scan_rules`
//!   over that NFA, filtered to the flow's tuple with
//!   `GroupedRuleSet::applies_to`;
//! * **ground truth** — the naive matcher / naive rule evaluator on a prefix
//!   of a fixed 16-flow sample, which the full-coverage reference must agree
//!   with before anything is measured.
//!
//! Alert sets are compared as order-independent digests (count and a sum of
//! mixed keys) so that absorbing an alert is O(1) and needs no buffer.

use crate::inputs::Inputs;
use mpm_aho_corasick::NfaMatcher;
use mpm_patterns::rule::naive_rule_find_all;
use mpm_patterns::snort::{parse_grouped, parse_rules, ParseOptions};
use mpm_patterns::{GroupedRuleSet, MatchEvent, Matcher, NaiveMatcher, RuleMatch};
use mpm_stream::{FlowMatch, FlowRuleMatch};
use mpm_verify::RuleScanner;
use std::sync::Arc;

/// Flows in the ground-truth sample.
const SAMPLE_FLOWS: usize = 16;
/// Budget of naive pattern-at-position comparisons for the plain sample;
/// the per-flow prefix is sized from it (the naive matcher is
/// O(patterns × bytes), and `verify_heavy` has 24 048 patterns).
const NAIVE_BUDGET: usize = 100 << 20;
/// Longest prefix of a sampled flow the plain ground truth covers.
const MAX_PLAIN_PREFIX: usize = 2 << 10;
/// Prefix of a sampled flow the naive rule evaluator covers.
const RULE_PREFIX: usize = 4 << 10;

/// Order-independent digest of a set of alerts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    count: u64,
    sum: u64,
}

impl Digest {
    fn add(&mut self, position: usize, id: u32) {
        // SplitMix64's finaliser over (position, id): distinct alerts get
        // unrelated keys, so a missing, extra or shifted alert moves `sum`.
        let mut z = ((position as u64) << 32 | u64::from(id)).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.count += 1;
        self.sum = self.sum.wrapping_add(z ^ (z >> 31));
    }

    fn times(self, passes: u64) -> Digest {
        Digest {
            count: self.count * passes,
            sum: self.sum.wrapping_mul(passes),
        }
    }
}

/// The expected alerts of one pass.
pub struct Reference {
    /// Per flow, the digest of its alert set.
    digests: Vec<Digest>,
    /// Plain mode: pattern length by pattern id, to turn a match's start
    /// into the offset of the byte that completed it. Empty in rule mode,
    /// where alerts carry that offset themselves.
    pattern_len: Vec<u32>,
    /// Alerts in one pass.
    pub alerts_per_pass: u64,
}

impl Reference {
    /// Computes the full-coverage reference and checks it against ground
    /// truth. An `Err` means the references disagree with each other: the
    /// benchmark cannot tell right from wrong and must not measure.
    pub fn build(inputs: &Inputs) -> Result<Reference, String> {
        let options = ParseOptions::default();
        let flows = inputs.workload.flows();
        let mut digests = vec![Digest::default(); flows];
        let mut pattern_len = Vec::new();
        if inputs.workload.grouped() {
            let rules = parse_grouped(&inputs.rule_text, options).map_err(|e| e.to_string())?;
            let grouped = GroupedRuleSet::new(rules);
            let set = grouped.monolithic();
            let scanner = RuleScanner::new(Arc::new(NfaMatcher::build(set.anchors())), set);
            let applicable = |flow: usize, alerts: Vec<RuleMatch>| -> Vec<RuleMatch> {
                let tuple = inputs.tuple(flow).expect("grouped workloads carry tuples");
                let mut kept: Vec<RuleMatch> = alerts
                    .into_iter()
                    .filter(|m| grouped.applies_to(m.rule, tuple))
                    .collect();
                kept.sort_unstable();
                kept
            };
            let mut per_flow = Vec::with_capacity(flows);
            for (flow, digest) in digests.iter_mut().enumerate() {
                let alerts = applicable(flow, scanner.scan_rules(inputs.flow_bytes(flow)));
                for m in &alerts {
                    digest.add(m.end, m.rule.0);
                }
                per_flow.push(alerts);
            }
            let has_early = |flow: usize| per_flow[flow].iter().any(|m| m.end <= RULE_PREFIX);
            for flow in sample(flows, has_early) {
                let prefix = &inputs.flow_bytes(flow)[..RULE_PREFIX.min(inputs.workload.flow_len)];
                let truth = applicable(flow, naive_rule_find_all(set, prefix));
                let seen: Vec<RuleMatch> = per_flow[flow]
                    .iter()
                    .copied()
                    .filter(|m| m.end <= prefix.len())
                    .collect();
                if truth != seen {
                    return Err(format!(
                        "flow {flow}: rule reference {seen:?} != naive ground truth {truth:?}"
                    ));
                }
            }
        } else {
            let set = parse_rules(&inputs.rule_text, options).map_err(|e| e.to_string())?;
            pattern_len = set.patterns().iter().map(|p| p.len() as u32).collect();
            let nfa = NfaMatcher::build(&set);
            let mut per_flow: Vec<Vec<MatchEvent>> = Vec::with_capacity(flows);
            for (flow, digest) in digests.iter_mut().enumerate() {
                let events = nfa.find_all(inputs.flow_bytes(flow));
                for e in &events {
                    digest.add(e.start, e.pattern.0);
                }
                per_flow.push(events);
            }
            let prefix_len = (NAIVE_BUDGET / SAMPLE_FLOWS / set.len().max(1))
                .clamp(64, MAX_PLAIN_PREFIX)
                .min(inputs.workload.flow_len);
            let ends_within =
                |e: &MatchEvent| e.start + pattern_len[e.pattern.index()] as usize <= prefix_len;
            let has_early = |flow: usize| per_flow[flow].iter().any(ends_within);
            let naive = NaiveMatcher::new(&set);
            for flow in sample(flows, has_early) {
                let truth = naive.find_all(&inputs.flow_bytes(flow)[..prefix_len]);
                let seen: Vec<MatchEvent> =
                    per_flow[flow].iter().copied().filter(ends_within).collect();
                if truth != seen {
                    return Err(format!(
                        "flow {flow}: NFA reference ({} matches in the first {prefix_len} bytes) != naive ground truth ({})",
                        seen.len(),
                        truth.len()
                    ));
                }
            }
        }
        let alerts_per_pass = digests.iter().map(|d| d.count).sum();
        Ok(Reference {
            digests,
            pattern_len,
            alerts_per_pass,
        })
    }

    /// Offset (exclusive) of the byte of its flow that completed `alert`.
    #[inline]
    pub fn match_end(&self, alert: &FlowMatch) -> usize {
        alert.event.start + self.pattern_len[alert.event.pattern.index()] as usize
    }
}

/// The fixed sample: up to [`SAMPLE_FLOWS`] flows spread evenly over the
/// pass, preferring flows the reference reports something for inside the
/// sampled prefix, so the ground truth is not compared on empty sets only.
fn sample(flows: usize, has_early: impl Fn(usize) -> bool) -> Vec<usize> {
    let (preferred, rest): (Vec<usize>, Vec<usize>) = (0..flows).partition(|&f| has_early(f));
    let take = SAMPLE_FLOWS.min(flows);
    if preferred.len() >= take {
        (0..take)
            .map(|i| preferred[i * preferred.len() / take])
            .collect()
    } else {
        preferred.iter().chain(&rest).copied().take(take).collect()
    }
}

/// The alerts the pipeline reported, digested per flow as they arrive.
pub struct Tally {
    observed: Vec<Digest>,
    flows: u64,
}

impl Tally {
    /// An empty tally for passes of `flows` flows.
    pub fn new(flows: usize) -> Tally {
        Tally {
            observed: vec![Digest::default(); flows],
            flows: flows as u64,
        }
    }

    /// Absorbs alerts; flow ids are taken modulo flows-per-pass.
    #[inline]
    pub fn absorb(&mut self, matches: &[FlowMatch], rules: &[FlowRuleMatch]) {
        for a in matches {
            self.observed[(a.flow % self.flows) as usize].add(a.event.start, a.event.pattern.0);
        }
        for a in rules {
            self.observed[(a.flow % self.flows) as usize].add(a.end, a.rule.0);
        }
    }

    /// Compares what was absorbed over `passes` whole passes with the
    /// reference, clears the tally, and returns the flows that differ.
    pub fn settle(&mut self, reference: &Reference, passes: u64) -> Vec<usize> {
        let mut wrong = Vec::new();
        for (flow, (seen, expected)) in self.observed.iter_mut().zip(&reference.digests).enumerate()
        {
            if *seen != expected.times(passes) {
                wrong.push(flow);
            }
            *seen = Digest::default();
        }
        wrong
    }
}
