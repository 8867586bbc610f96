//! Workload construction: rulesets and traces for the experiments.

use mpm_patterns::{Pattern, PatternSet, SyntheticRuleset};
use mpm_traffic::{TraceGenerator, TraceKind, TraceSpec};
use std::collections::HashMap;

/// Which of the paper's rulesets to emulate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RulesetChoice {
    /// Snort-like S1: ~2,500 patterns, HTTP selection ≈ 2K.
    S1,
    /// ET-open-like S2: ~20,000 patterns, HTTP selection ≈ 9K.
    S2,
    /// The full 20K pattern set (Figure 6c and the Figure 5 sweeps).
    Full,
}

impl RulesetChoice {
    /// Label used in figure headers, mirroring the paper's captions.
    pub fn label(self) -> &'static str {
        match self {
            RulesetChoice::S1 => "Snort web traffic patterns (~2K)",
            RulesetChoice::S2 => "ET open web traffic patterns (~9K)",
            RulesetChoice::Full => "Full pattern set (~20K)",
        }
    }
}

/// A fully materialised workload: the pattern selection to match and the
/// traces to run it against.
#[derive(Clone, Debug)]
pub struct Workload {
    /// The pattern set handed to the engines.
    pub patterns: PatternSet,
    /// The full generated ruleset (for subset sweeps).
    pub full_ruleset: PatternSet,
    /// `(trace kind, payload bytes)` pairs, in the paper's presentation
    /// order.
    pub traces: Vec<(TraceKind, Vec<u8>)>,
}

impl Workload {
    /// Builds the workload for one ruleset choice.
    ///
    /// `trace_mib` controls the size of every generated trace. The paper uses
    /// 1 GB (ISCX) / 300 MB (DARPA) captures; the default harness sizes are
    /// far smaller because throughput is size-normalised.
    pub fn build(choice: RulesetChoice, trace_mib: usize) -> Self {
        Self::build_with_traces(choice, trace_mib, &TraceKind::ALL)
    }

    /// Builds the workload restricted to the given traces (the Figure 6
    /// experiments only use the three realistic traces).
    pub fn build_with_traces(choice: RulesetChoice, trace_mib: usize, kinds: &[TraceKind]) -> Self {
        let ruleset = match choice {
            RulesetChoice::S1 => SyntheticRuleset::snort_like_s1(),
            RulesetChoice::S2 | RulesetChoice::Full => SyntheticRuleset::et_open_like_s2(),
        };
        let patterns = match choice {
            RulesetChoice::S1 | RulesetChoice::S2 => ruleset.http(),
            RulesetChoice::Full => ruleset.full().clone(),
        };
        let len = trace_mib * 1024 * 1024;
        let traces = kinds
            .iter()
            .map(|&kind| {
                let spec = TraceSpec::new(kind, len);
                (kind, TraceGenerator::generate(&spec, Some(&patterns)))
            })
            .collect();
        Workload {
            patterns,
            full_ruleset: ruleset.full().clone(),
            traces,
        }
    }

    /// A deterministic subset of the *full* ruleset with `n` patterns, used
    /// by the pattern-count sweeps (Figure 5a/5b).
    pub fn pattern_subset(&self, n: usize) -> PatternSet {
        self.full_ruleset.random_subset(n, 0x5eed)
    }

    /// A **verify-heavy adversarial** variant of this workload: the traces
    /// are unchanged, but the pattern set is replaced with patterns built
    /// from the *hottest 4-grams actually present in the trace*, each
    /// extended with a pseudo-random tail that (almost) never occurs. Every
    /// occurrence of a hot 4-gram passes filters 2+3 exactly (the filter
    /// bits were set by that very 4-gram) but fails verification at the
    /// tail, so candidate density is one to two orders of magnitude above
    /// the realistic s1-http workload while the match count stays tiny — the
    /// regime where the scan rate is governed by the verification stage's
    /// dependent hash-table loads, not by filtering. A second, smaller group
    /// of 3-byte patterns seeded from the hottest first bytes does the same
    /// to the short-pattern table (whose buckets are indexed by one byte, so
    /// the shared-prefix patterns pile into shared buckets and each short
    /// candidate pays multiple comparisons).
    ///
    /// This is the workload the `verify_round` Criterion bench measures the
    /// batched verification path on.
    pub fn verify_heavy_variant(&self, seed: u64) -> Workload {
        const HOT_GRAMS: usize = 6000;
        const LONG_PATTERNS: usize = 24000;
        const SHORT_PATTERNS: usize = 48;
        let trace = &self.traces[0].1;

        // Rank the trace's 4-grams by occurrence count.
        let mut counts: HashMap<[u8; 4], u32> = HashMap::new();
        for w in trace.windows(4) {
            *counts.entry([w[0], w[1], w[2], w[3]]).or_insert(0) += 1;
        }
        let mut ranked: Vec<([u8; 4], u32)> = counts.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(HOT_GRAMS);

        let mut state = seed ^ 0x7665_7269_6679; // "verify"
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };

        let mut patterns: Vec<Pattern> = Vec::with_capacity(LONG_PATTERNS + SHORT_PATTERNS);
        for i in 0..LONG_PATTERNS {
            let (gram, _) = ranked[i % ranked.len()];
            let tail_len = 4 + (next() % 9) as usize;
            let mut bytes = gram.to_vec();
            for _ in 0..tail_len {
                bytes.push((next() % 256) as u8);
            }
            patterns.push(Pattern::literal(bytes));
        }
        // Short adversaries: hot first byte + hot second byte + a byte that
        // rarely follows, so filter 1 fires constantly and the one-byte-
        // indexed short buckets hold many same-prefix entries.
        let mut hot2: Vec<([u8; 2], u32)> = {
            let mut c: HashMap<[u8; 2], u32> = HashMap::new();
            for w in trace.windows(2) {
                *c.entry([w[0], w[1]]).or_insert(0) += 1;
            }
            c.into_iter().collect()
        };
        hot2.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for i in 0..SHORT_PATTERNS {
            let (gram, _) = hot2[i % hot2.len().min(SHORT_PATTERNS)];
            patterns.push(Pattern::literal(vec![
                gram[0],
                gram[1],
                (next() % 256) as u8,
            ]));
        }
        let patterns = PatternSet::new(patterns);
        Workload {
            full_ruleset: patterns.clone(),
            patterns,
            traces: self.traces.clone(),
        }
    }
}

/// Replicates a base pattern subset `scale` times, each replica addressed
/// to its own destination port (`2000 + r`, outside the default
/// `$HTTP_PORTS`). A deterministic ~20% of each replica's contents get a
/// replica-unique tail, so replicas are structurally distinct (no trivial
/// whole-engine sharing) while the remaining ~80% stay byte-identical
/// across replicas — which is exactly the regime the grouped design is
/// for: the shared arena stores those bytes once, and per-group tables
/// keep buckets 1-deep where the monolithic table piles `scale` duplicate
/// entries into every shared bucket. The input of the grouped-memory gate
/// in this module's tests.
pub fn scaled_grouped_rules(
    base: &mpm_patterns::PatternSet,
    scale: usize,
) -> Vec<(mpm_patterns::RuleHeader, mpm_patterns::Rule)> {
    use mpm_patterns::{PortSpec, Proto, RuleHeader};
    let mut out = Vec::with_capacity(base.len() * scale);
    for r in 0..scale {
        let port = 2000 + r as u16;
        for (i, p) in base.patterns().iter().enumerate() {
            let mut bytes = p.bytes().to_vec();
            if i % 5 == 0 {
                bytes.extend_from_slice(&[b'-', b'0' + (r % 10) as u8, b'0' + (r / 10) as u8]);
            }
            let content = mpm_patterns::RuleContent::new(bytes).with_nocase(p.is_nocase());
            out.push((
                RuleHeader::new(Proto::Tcp, PortSpec::any(), PortSpec::single(port)),
                mpm_patterns::Rule::new(vec![content]),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn s1_workload_has_about_2k_http_patterns() {
        let w = Workload::build(RulesetChoice::S1, 1);
        assert!(
            (1_800..=2_300).contains(&w.patterns.len()),
            "{}",
            w.patterns.len()
        );
        assert_eq!(w.traces.len(), 4);
        for (_, t) in &w.traces {
            assert_eq!(t.len(), 1024 * 1024);
        }
    }

    #[test]
    fn full_workload_uses_all_20k_patterns() {
        let w = Workload::build_with_traces(RulesetChoice::Full, 1, &[TraceKind::IscxDay2]);
        assert_eq!(w.patterns.len(), 20_000);
        assert_eq!(w.traces.len(), 1);
    }

    #[test]
    fn pattern_subsets_are_nested_and_deterministic() {
        let w = Workload::build_with_traces(RulesetChoice::S1, 1, &[TraceKind::Random]);
        let a = w.pattern_subset(100);
        let b = w.pattern_subset(100);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        assert_eq!(w.pattern_subset(1_000).len(), 1_000);
    }

    #[test]
    fn verify_heavy_variant_is_candidate_dense_and_deterministic() {
        use mpm_patterns::Matcher;
        let w = Workload::build_with_traces(RulesetChoice::S1, 1, &[TraceKind::IscxDay2]);
        let heavy = w.verify_heavy_variant(7);
        // Deterministic.
        assert_eq!(
            heavy.patterns.patterns(),
            w.verify_heavy_variant(7).patterns.patterns()
        );
        // The traces are untouched; only the pattern set is adversarial.
        assert_eq!(heavy.traces[0].1, w.traces[0].1);
        // Candidate density (the verification load) is at least an order of
        // magnitude above the realistic ruleset on the same trace, while the
        // hot-prefix-plus-random-tail construction keeps confirmed matches
        // rare relative to candidates.
        let base = mpm_vpatch::SPatch::build(&w.patterns);
        let adv = mpm_vpatch::SPatch::build(&heavy.patterns);
        let base_stats = base.scan_with_stats(&w.traces[0].1);
        let adv_stats = adv.scan_with_stats(&heavy.traces[0].1);
        assert!(
            adv_stats.candidates >= 10 * base_stats.candidates.max(1),
            "adversarial candidates {} vs base {}",
            adv_stats.candidates,
            base_stats.candidates
        );
        assert!(
            adv_stats.matches < adv_stats.candidates / 10,
            "matches {} should stay rare vs candidates {}",
            adv_stats.matches,
            adv_stats.candidates
        );
    }

    /// The grouped-memory gate: the port-grouped compile product (one engine
    /// over the distinct anchors + its arena + the slot table + the
    /// confirmer) must stay under the monolithic footprint, whose engine
    /// keeps one anchor per rule, on the 10x and 30x replicated rulesets.
    /// Resident bytes are deterministic, so this is a hard bound, not a
    /// measurement.
    #[test]
    fn grouped_memory_stays_under_monolithic() {
        use mpm_patterns::{GroupedRuleSet, Matcher};
        use mpm_stream::GroupedEngineSet;
        use std::sync::Arc;
        let base = Workload::build_with_traces(RulesetChoice::S1, 1, &[]).pattern_subset(600);
        for scale in [10usize, 30] {
            let grouped = GroupedRuleSet::new(scaled_grouped_rules(&base, scale));
            let mono_set = grouped.monolithic().clone();
            let engines = GroupedEngineSet::build_with(grouped, |set, arena| {
                Arc::from(mpm_vpatch::build_auto_with_arena(set, arena))
            });
            let mono_engine: Arc<dyn Matcher + Send + Sync> =
                Arc::from(mpm_vpatch::build_auto(mono_set.anchors()));
            let monolithic = mono_engine.memory_footprint().total()
                + mpm_verify::RuleScanner::new(mono_engine, &mono_set)
                    .confirmer()
                    .heap_bytes();
            let grouped = engines.memory_footprint().total();
            assert!(
                grouped < monolithic,
                "scale {scale}: grouped {grouped} B vs monolithic {monolithic} B"
            );
        }
    }

    #[test]
    fn labels_cover_all_choices() {
        assert!(RulesetChoice::S1.label().contains("2K"));
        assert!(RulesetChoice::S2.label().contains("9K"));
        assert!(RulesetChoice::Full.label().contains("20K"));
    }
}
