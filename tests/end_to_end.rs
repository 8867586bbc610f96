//! Workspace-level integration tests: the full pipeline
//! (ruleset → traffic → every engine → identical alert streams), exercised
//! through the umbrella crate's public API exactly as an application would.

mod common;

use std::sync::Arc;
use vpatch_suite::prelude::*;

/// Every engine in the workspace over `rules`, plus the auto-selected one.
fn all_engines(rules: &PatternSet) -> Vec<SharedMatcher> {
    let mut engines = common::all_engines(rules);
    engines.push(Arc::from(build_auto(rules)));
    engines
}

#[test]
fn every_engine_reports_identical_alerts_on_realistic_traffic() {
    let ruleset = SyntheticRuleset::generate(vpatch_suite::patterns::synthetic::RulesetSpec::tiny(
        600, 2024,
    ));
    let rules = ruleset.http();
    let trace = TraceGenerator::generate(
        &TraceSpec::new(TraceKind::IscxDay2, 512 * 1024),
        Some(&rules),
    );
    let reference = NaiveMatcher::new(&rules).find_all(&trace);
    assert!(
        !reference.is_empty(),
        "the realistic trace should contain injected rule occurrences"
    );
    for engine in all_engines(&rules) {
        assert_eq!(
            engine.find_all(&trace),
            reference,
            "engine {} diverged from the reference",
            engine.name()
        );
        assert_eq!(
            engine.count(&trace),
            reference.len() as u64,
            "{}",
            engine.name()
        );
    }
}

#[test]
fn every_engine_agrees_on_random_and_adversarial_inputs() {
    let rules = PatternSet::from_literals(&[
        "a",
        "ab",
        "abc",
        "abcd",
        "aaaa",
        "GET ",
        "\x00\x00\x00\x00",
        "attack",
        "attach",
        "attribute",
        "end-of-buffer",
    ]);
    let mut inputs: Vec<Vec<u8>> = vec![
        Vec::new(),
        b"a".to_vec(),
        b"abcdabcdabcd".to_vec(),
        b"aaaaaaaaaaaaaaaaaaaaaaaa".to_vec(),
        vec![0u8; 1000],
        (0..=255u8).cycle().take(4096).collect(),
        b"the pattern sits at the very end-of-buffer".to_vec(),
    ];
    // A match that straddles every power-of-two boundary the vector loop uses.
    for offset in [6usize, 7, 8, 15, 16, 17, 31, 32, 33] {
        let mut v = vec![b'.'; 64];
        v[offset..offset + 6].copy_from_slice(b"attack");
        inputs.push(v);
    }
    let reference_engine = NaiveMatcher::new(&rules);
    let engines = all_engines(&rules);
    for input in &inputs {
        let expected = reference_engine.find_all(input);
        for engine in &engines {
            assert_eq!(
                engine.find_all(input),
                expected,
                "engine {} diverged on input of length {}",
                engine.name(),
                input.len()
            );
        }
    }
}

#[test]
fn engines_are_shareable_across_threads() {
    let rules = PatternSet::from_literals(&["needle", "GET /", "xyz"]);
    let engine = build_auto(&rules);
    let traces: Vec<Vec<u8>> = (0..4)
        .map(|i| {
            TraceGenerator::generate(
                &TraceSpec::new(TraceKind::IscxDay2, 64 * 1024).with_seed(i),
                Some(&rules),
            )
        })
        .collect();
    let expected: Vec<u64> = traces.iter().map(|t| engine.count(t)).collect();

    let counted = std::sync::Mutex::new(vec![0u64; traces.len()]);
    std::thread::scope(|scope| {
        for (i, trace) in traces.iter().enumerate() {
            let engine = engine.as_ref();
            let counted = &counted;
            scope.spawn(move || {
                counted.lock().unwrap()[i] = engine.count(trace);
            });
        }
    });
    assert_eq!(*counted.lock().unwrap(), expected);
}

#[test]
fn match_density_generator_drives_the_expected_verification_load() {
    // Cross-crate sanity for the Figure 5c workload: a higher requested match
    // fraction yields more matches and more candidates for the same engine.
    let rules =
        SyntheticRuleset::generate(vpatch_suite::patterns::synthetic::RulesetSpec::tiny(300, 3))
            .http();
    let engine = SPatch::build(&rules);
    let generator = MatchDensityGenerator::new(128 * 1024, 99);
    let low_input = generator.generate(&rules, 0.05);
    let high_input = generator.generate(&rules, 0.6);
    assert!(
        MatchDensityGenerator::measure_fraction(&rules, &high_input)
            > MatchDensityGenerator::measure_fraction(&rules, &low_input) + 0.3
    );
    let low = engine.scan_with_stats(&low_input);
    let high = engine.scan_with_stats(&high_input);
    // Short patterns also fire accidentally in the filler, so the absolute
    // match counts do not scale linearly with the requested fraction — but
    // a denser input must produce strictly more matches and more candidates.
    assert!(high.matches > low.matches);
    assert!(high.candidates > low.candidates);
}
