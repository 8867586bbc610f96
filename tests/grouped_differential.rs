//! Differential property tests for port-grouped scanning.
//!
//! The central claim of the `GroupedRuleSet` layer is **observational
//! equivalence**: for any ruleset and any flow, grouped scanning (partition
//! by header, scan only the selected groups, re-check exact applicability,
//! dedup across groups) reports *exactly* the rules a monolithic scan of
//! the whole ruleset, filtered post-hoc to the rules whose headers apply to
//! the flow, would report — same rules, same minimal satisfiable prefix
//! lengths. These tests generate random headers (protocols, single ports,
//! lists, ranges, negations, `any`, both directions) crossed with random
//! multi-content rules and random flows, and check that claim on the
//! one-shot, streamed-chunked, and sharded paths.
//!
//! The grouped engine comes from `build_grouped_engines`, which compiles
//! one engine over the distinct anchors through `build_auto_with_arena` —
//! so the CI `MPM_FORCE_BACKEND` matrix drives this suite through the
//! scalar, AVX2 and AVX-512 verification paths in turn, arena included.

mod common;

use common::{splice, splice_strategy};
use vpatch_suite::patterns::rule::naive_rule_find_all;
use vpatch_suite::prelude::*;

use proptest::prelude::*;

/// Ports drawn from a tiny pool so random flows actually hit the specs.
const PORTS: [u16; 6] = [25, 53, 80, 443, 8080, 40000];

fn port_strategy() -> impl Strategy<Value = u16> {
    (0usize..PORTS.len()).prop_map(|i| PORTS[i])
}

fn proto_strategy() -> impl Strategy<Value = Proto> {
    prop_oneof![Just(Proto::Tcp), Just(Proto::Udp), Just(Proto::Ip)]
}

/// A random port spec exercising every syntactic family the parser
/// supports: `any`, a single port, a two-port list, a range, and a negated
/// single port.
fn port_spec_strategy() -> impl Strategy<Value = PortSpec> {
    let vars = || PortVars::default();
    prop_oneof![
        Just(PortSpec::any()),
        port_strategy().prop_map(PortSpec::single),
        (port_strategy(), port_strategy()).prop_map(move |(a, b)| PortSpec::parse(
            &format!("[{a},{b}]"),
            &vars()
        )
        .unwrap()),
        (port_strategy(), port_strategy()).prop_map(move |(a, b)| {
            let (lo, hi) = (a.min(b), a.max(b));
            PortSpec::parse(&format!("{lo}:{hi}"), &vars()).unwrap()
        }),
        port_strategy().prop_map(move |p| PortSpec::parse(&format!("!{p}"), &vars()).unwrap()),
    ]
}

fn header_strategy() -> impl Strategy<Value = RuleHeader> {
    (
        proto_strategy(),
        port_spec_strategy(),
        port_spec_strategy(),
        any::<bool>(),
    )
        .prop_map(|(proto, src, dst, bidir)| {
            let mut header = RuleHeader::new(proto, src, dst);
            if bidir {
                header.direction = Direction::Bidirectional;
            }
            header
        })
}

/// Content bytes over a collision-happy alphabet (shared idiom with the
/// workspace's other differential suites).
fn bytes_strategy(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![
            Just(b'a'),
            Just(b'A'),
            Just(b'b'),
            Just(b'c'),
            Just(b'x'),
            any::<u8>()
        ],
        2..max_len,
    )
}

fn content_strategy() -> impl Strategy<Value = RuleContent> {
    (bytes_strategy(6), any::<bool>(), any::<bool>()).prop_map(|(bytes, nocase, rel)| {
        let c = RuleContent::new(bytes).with_nocase(nocase);
        if rel {
            c.with_distance(0)
        } else {
            c
        }
    })
}

/// `(header, rule)` pairs ready for [`GroupedRuleSet::new`].
fn grouped_rules_strategy() -> impl Strategy<Value = Vec<(RuleHeader, Rule)>> {
    proptest::collection::vec(
        (
            header_strategy(),
            proptest::collection::vec(content_strategy(), 1..3),
        ),
        1..8,
    )
    .prop_map(|rules| {
        rules
            .into_iter()
            .map(|(header, contents)| (header, Rule::new(contents)))
            .collect()
    })
}

fn flow_strategy() -> impl Strategy<Value = FlowTuple> {
    (proto_strategy(), port_strategy(), port_strategy()).prop_map(|(proto, src, dst)| {
        // Flows are concrete transports; Proto::Ip stands in for "a
        // protocol no rule names" here (ICMP-like).
        let proto = if proto == Proto::Ip {
            Proto::Icmp
        } else {
            proto
        };
        FlowTuple::new(proto, src, dst)
    })
}

fn chunk_plan_strategy() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..24, 1..10)
}

/// The oracle: monolithic naive rule evaluation over the whole ruleset,
/// filtered post-hoc to the rules whose headers apply to the flow.
fn monolithic_filtered(
    grouped: &GroupedRuleSet,
    flow: Option<FlowTuple>,
    payload: &[u8],
) -> Vec<RuleMatch> {
    naive_rule_find_all(grouped.monolithic(), payload)
        .into_iter()
        .filter(|m| match flow {
            Some(tuple) => grouped.applies_to(m.rule, tuple),
            None => true,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn grouped_one_shot_equals_monolithic_filtered_post_hoc(
        rules in grouped_rules_strategy(),
        payload in bytes_strategy(120),
        plan in splice_strategy(),
        flow in flow_strategy(),
    ) {
        let grouped = GroupedRuleSet::new(rules);
        let mut payload = payload;
        splice(grouped.monolithic(), &mut payload, &plan);
        let engines = vpatch_suite::build_grouped_engines(grouped);
        for tuple in [Some(flow), None] {
            let expected = monolithic_filtered(engines.grouped(), tuple, &payload);
            let got = engines.scan_flow(tuple, &payload);
            prop_assert_eq!(
                &got, &expected,
                "grouped one-shot diverged for flow {:?}", tuple
            );
        }
    }

    #[test]
    fn grouped_streaming_equals_monolithic_under_random_chunkings(
        rules in grouped_rules_strategy(),
        payload in bytes_strategy(100),
        plan in splice_strategy(),
        flow in flow_strategy(),
        chunks in chunk_plan_strategy(),
    ) {
        let grouped = GroupedRuleSet::new(rules);
        let mut payload = payload;
        splice(grouped.monolithic(), &mut payload, &plan);
        let engines = vpatch_suite::build_grouped_engines(grouped);
        let expected = monolithic_filtered(engines.grouped(), Some(flow), &payload);
        let mut scanner = GroupedFlowScanner::new(engines.clone(), Some(flow));
        let mut got = Vec::new();
        let (mut pos, mut step) = (0, 0);
        while pos < payload.len() {
            let take = chunks[step % chunks.len()].min(payload.len() - pos);
            scanner.push(&payload[pos..pos + take], &mut got);
            pos += take;
            step += 1;
        }
        got.sort_unstable();
        prop_assert_eq!(
            &got, &expected,
            "grouped streaming diverged under chunking {:?}", &chunks
        );
    }

    #[test]
    fn sharded_grouped_mode_equals_monolithic_per_flow(
        rules in grouped_rules_strategy(),
        payload in bytes_strategy(90),
        plan in splice_strategy(),
        flow_a in flow_strategy(),
        cut in any::<usize>(),
    ) {
        let grouped = GroupedRuleSet::new(rules);
        let mut payload = payload;
        splice(grouped.monolithic(), &mut payload, &plan);
        let engines = vpatch_suite::build_grouped_engines(grouped);
        let expected_a = monolithic_filtered(engines.grouped(), Some(flow_a), &payload);
        let expected_none = monolithic_filtered(engines.grouped(), None, &payload);
        let mut scanner = ScannerBuilder::new()
            .groups(engines.clone())
            .workers(3)
            .build().expect("valid build");
        // Flow 11 carries a tuple and is cut at a random seam; flow 22 has
        // no tuple (scanned against every group, unfiltered).
        let cut = cut % (payload.len() + 1);
        let result = scanner.scan_batch(vec![
            Packet::new_with_tuple(11, payload[..cut].to_vec(), flow_a),
            Packet::new(22, payload.to_vec()),
            Packet::new(11, payload[cut..].to_vec()),
        ]).expect("workers alive");
        prop_assert!(result.matches.is_empty(), "grouped mode reports rules only");
        for (flow, expected) in [(11u64, &expected_a), (22, &expected_none)] {
            let got: Vec<RuleMatch> = result
                .rule_matches
                .iter()
                .filter(|m| m.flow == flow)
                .map(|m| RuleMatch::new(m.rule, m.end))
                .collect();
            prop_assert_eq!(
                &got, expected,
                "sharded grouped flow {} diverged (cut at {})", flow, cut
            );
        }
    }
}

/// Pinned end-to-end regression: a small, readable ruleset through the real
/// Snort text path, checking group selection, negation, bidirectionality
/// and the catch-all on concrete flows.
#[test]
fn snort_text_grouped_pipeline_matches_the_oracle() {
    let text = r#"
alert tcp any any -> any $HTTP_PORTS (msg:"web"; content:"GET /admin"; sid:1;)
alert tcp any any -> any !80 (msg:"notweb"; content:"tunnelbytes"; sid:2;)
alert udp any 53 <> any any (msg:"dns-either"; content:"querydata"; sid:3;)
alert ip any any -> any any (msg:"any"; content:"evil-bytes"; sid:4;)
"#;
    let rules = vpatch_suite::patterns::snort::parse_grouped(text, Default::default()).unwrap();
    let engines = vpatch_suite::build_grouped_engines(GroupedRuleSet::new(rules));
    let payload = b"GET /admin tunnelbytes querydata evil-bytes";
    let flows = [
        FlowTuple::new(Proto::Tcp, 40000, 80),   // web + any
        FlowTuple::new(Proto::Tcp, 40000, 9999), // notweb + any
        FlowTuple::new(Proto::Udp, 4000, 53),    // dns (reverse dir) + any
        FlowTuple::new(Proto::Udp, 53, 4000),    // dns (forward) + any
        FlowTuple::new(Proto::Icmp, 1, 2),       // any only
    ];
    for flow in flows {
        let expected: Vec<RuleMatch> = naive_rule_find_all(engines.grouped().monolithic(), payload)
            .into_iter()
            .filter(|m| engines.grouped().applies_to(m.rule, flow))
            .collect();
        let got = engines.scan_flow(Some(flow), payload);
        assert_eq!(got, expected, "flow {flow:?}");
    }
    // Sanity: the selection actually differs per flow (this is the perf
    // point of grouping, not just correctness).
    let web = engines.scan_flow(Some(flows[0]), payload);
    let icmp = engines.scan_flow(Some(flows[4]), payload);
    assert_eq!(web.len(), 2);
    assert_eq!(icmp.len(), 1);
    // And every grouped engine's accounting stays honest under Arc sharing.
    let fp = engines.memory_footprint();
    assert!(fp.total() > 0);
    assert!(fp.verify_bytes >= engines.arena_bytes());
}

/// A header that names a port variable the deployment never defined pins
/// the rule to no port at all, so it stays applicable to every flow: the
/// `!` in front of the variable must not turn "could be any port" into
/// "matches no port" and silently disarm the rule.
#[test]
fn a_rule_behind_an_undefined_port_variable_still_confirms() {
    let text = r#"
alert tcp $EXTERNAL_NET any -> $HOME_NET !$UNDEFINED (msg:"armed"; content:"attack"; content:"body"; distance:0; sid:1;)
alert tcp $EXTERNAL_NET any -> $HOME_NET [$UNDEFINED] (msg:"armed too"; content:"attack"; sid:2;)
"#;
    let rules = vpatch_suite::patterns::snort::parse_grouped(text, Default::default()).unwrap();
    assert_eq!(rules.len(), 2, "neither header is rejected");
    let engines = vpatch_suite::build_grouped_engines(GroupedRuleSet::new(rules));
    for port in [80, 9999] {
        let flow = FlowTuple::new(Proto::Tcp, 40000, port);
        let got = engines.scan_flow(Some(flow), b"..attack..body..");
        let confirmed: Vec<RuleId> = got.iter().map(|m| m.rule).collect();
        assert_eq!(confirmed, vec![RuleId(0), RuleId(1)], "port {port}");
    }
}
