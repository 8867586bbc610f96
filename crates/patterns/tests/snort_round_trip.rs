//! Round trip through the Snort rule parser: random rules are rendered to
//! rule text by a renderer local to this file, and every entry point must
//! read back exactly what was generated.
//!
//! The generator covers the grammar the parser gives meaning to: contents
//! over all 256 byte values (and non-ASCII characters), each unit rendered
//! as a literal, a `\`-escape or hex — spaced or contiguous, either case;
//! `nocase` and either family of positional modifier, in any order; negated
//! contents with trailing modifiers; `msg:"…;…"` with a `;` inside the
//! quotes and other options the parser skips; headers with random
//! whitespace; comment, blank and non-rule lines.

use mpm_patterns::ports::{Direction, PortSpec, Proto, RuleHeader};
use mpm_patterns::rule::{Rule, RuleContent, RuleSet};
use mpm_patterns::snort::{parse_grouped, parse_rules, parse_ruleset, ParseOptions};
use mpm_patterns::{Pattern, PatternSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

/// One unit of a content: a byte, or a non-ASCII character (whose UTF-8
/// bytes are what the content holds, however it is written).
#[derive(Clone, Copy)]
enum Unit {
    Byte(u8),
    Char(char),
}

/// A generated content option: the kept contents carry their modifiers; a
/// negated one carries the modifiers that follow it, which the parser must
/// drop with it.
struct GenContent {
    units: Vec<Unit>,
    negated: bool,
    nocase: bool,
    /// `(name, value)` pairs, rendered in this order.
    modifiers: Vec<(&'static str, i64)>,
}

impl GenContent {
    fn bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        for unit in &self.units {
            match *unit {
                Unit::Byte(b) => bytes.push(b),
                Unit::Char(c) => bytes.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes()),
            }
        }
        bytes
    }

    /// The content the parser should build, or `None` for a negated one.
    fn expected(&self) -> Option<RuleContent> {
        if self.negated {
            return None;
        }
        let mut content = RuleContent::new(self.bytes()).with_nocase(self.nocase);
        for &(name, value) in &self.modifiers {
            content = match name {
                "offset" => content.with_offset(value as u32),
                "depth" => content.with_depth(value as u32),
                "distance" => content.with_distance(value as i32),
                _ => content.with_within(value as u32),
            };
        }
        Some(content)
    }
}

/// A generated rule line.
struct GenRule {
    header_text: String,
    header: RuleHeader,
    sid: Option<u32>,
    contents: Vec<GenContent>,
}

impl GenRule {
    fn kept(&self) -> Vec<RuleContent> {
        self.contents
            .iter()
            .filter_map(GenContent::expected)
            .collect()
    }
}

/// Non-ASCII characters of every UTF-8 width.
const CHARS: &[char] = &['é', 'ß', '中', '€', '\u{fffd}', '🦀', '\u{10ffff}'];

fn gen_units(rng: &mut StdRng) -> Vec<Unit> {
    let len = rng.gen_range(1..12usize);
    (0..len)
        .map(|_| match rng.gen_range(0..10u32) {
            0 => Unit::Char(CHARS[rng.gen_range(0..CHARS.len())]),
            // Bytes the grammar reads, often.
            1 => Unit::Byte(b"\"\\|;:( )!#"[rng.gen_range(0..10usize)]),
            _ => Unit::Byte(rng.gen()),
        })
        .collect()
}

fn gen_content(rng: &mut StdRng, negated: bool) -> GenContent {
    let units = gen_units(rng);
    let len = GenContent {
        units: units.clone(),
        negated,
        nocase: false,
        modifiers: Vec::new(),
    }
    .bytes()
    .len() as i64;
    let mut modifiers: Vec<(&'static str, i64)> = Vec::new();
    match rng.gen_range(0..3u32) {
        0 => {}
        1 => {
            if rng.gen_bool(0.6) {
                modifiers.push(("offset", rng.gen_range(0..1_000i64)));
            }
            if rng.gen_bool(0.6) {
                modifiers.push(("depth", len + rng.gen_range(0..100i64)));
            }
        }
        _ => {
            if rng.gen_bool(0.6) {
                modifiers.push(("distance", rng.gen_range(-50..500i64)));
            }
            if rng.gen_bool(0.6) {
                modifiers.push(("within", len + rng.gen_range(0..100i64)));
            }
        }
    }
    if rng.gen_bool(0.5) {
        modifiers.reverse();
    }
    GenContent {
        units,
        negated,
        nocase: rng.gen_bool(0.4),
        modifiers,
    }
}

fn gen_port(rng: &mut StdRng) -> (String, PortSpec) {
    if rng.gen_bool(0.4) {
        ("any".to_string(), PortSpec::any())
    } else {
        let port: u16 = rng.gen();
        (port.to_string(), PortSpec::single(port))
    }
}

fn gen_rule(rng: &mut StdRng) -> GenRule {
    let action = ["alert", "log", "pass", "drop"][rng.gen_range(0..4usize)];
    let (proto_text, proto) = [
        ("tcp", Proto::Tcp),
        ("UDP", Proto::Udp),
        ("icmp", Proto::Icmp),
        ("ip", Proto::Ip),
    ][rng.gen_range(0..4usize)];
    let (src_text, src) = gen_port(rng);
    let (dst_text, dst) = gen_port(rng);
    let (dir_text, direction) = if rng.gen_bool(0.7) {
        ("->", Direction::Unidirectional)
    } else {
        ("<>", Direction::Bidirectional)
    };
    let fields = [
        action,
        proto_text,
        "$EXTERNAL_NET",
        &src_text,
        dir_text,
        "any",
        &dst_text,
    ];
    let mut header_text = String::new();
    for field in fields {
        header_text.push_str(field);
        header_text.push_str([" ", "  ", "\t"][rng.gen_range(0..3usize)]);
    }
    let header = RuleHeader {
        action: action.to_string(),
        proto,
        src,
        dst,
        direction,
    };
    let contents = (0..rng.gen_range(0..5usize))
        .map(|_| {
            let negated = rng.gen_bool(0.2);
            gen_content(rng, negated)
        })
        .collect();
    GenRule {
        header_text,
        header,
        sid: rng.gen_bool(0.8).then(|| rng.gen()),
        contents,
    }
}

/// Renders one unit of a content into the quoted string, choosing among
/// the spellings the grammar allows for it. Hex bytes are collected in
/// `hex` and flushed as one block when a non-hex unit follows.
fn render_unit(unit: Unit, rng: &mut StdRng, out: &mut String, hex: &mut Vec<u8>) {
    let byte = match unit {
        Unit::Char(c) => {
            flush_hex(rng, out, hex);
            if rng.gen_bool(0.5) {
                out.push('\\');
            }
            out.push(c);
            return;
        }
        Unit::Byte(b) => b,
    };
    // A line ends at '\n' and sheds a '\r' before it, so those two bytes
    // only travel as hex; non-ASCII bytes are not text on their own.
    let textual = byte.is_ascii() && byte != b'\n' && byte != b'\r';
    let special = matches!(byte, b'"' | b'\\' | b'|');
    match rng.gen_range(0..3u32) {
        0 if textual && !special => {
            flush_hex(rng, out, hex);
            out.push(byte as char);
        }
        1 if textual => {
            flush_hex(rng, out, hex);
            out.push('\\');
            out.push(byte as char);
        }
        _ => hex.push(byte),
    }
}

fn flush_hex(rng: &mut StdRng, out: &mut String, hex: &mut Vec<u8>) {
    if hex.is_empty() {
        return;
    }
    let spaced = rng.gen_bool(0.5);
    out.push('|');
    if rng.gen_bool(0.2) {
        out.push(' ');
    }
    for (i, &b) in hex.iter().enumerate() {
        if i > 0 && (spaced || rng.gen_bool(0.2)) {
            out.push_str([" ", "  ", "\t"][rng.gen_range(0..3usize)]);
        }
        if rng.gen_bool(0.5) {
            write!(out, "{b:02X}").unwrap();
        } else {
            write!(out, "{b:02x}").unwrap();
        }
    }
    if rng.gen_bool(0.2) {
        out.push(' ');
    }
    out.push('|');
    hex.clear();
}

/// Whitespace the grammar ignores, sometimes none.
fn space(rng: &mut StdRng) -> &'static str {
    ["", "", " ", "  ", "\t"][rng.gen_range(0..5usize)]
}

/// Options the parser reads past without effect.
fn other_option(rng: &mut StdRng) -> String {
    match rng.gen_range(0..4u32) {
        0 => "msg:\"a;b; (c) \\\"d\\\";\"".to_string(),
        1 => format!("rev:{}", rng.gen_range(0..9u32)),
        2 => "flow:to_server,established".to_string(),
        _ => "classtype:attempted-recon".to_string(),
    }
}

fn render_rule(rule: &GenRule, rng: &mut StdRng) -> String {
    let mut options: Vec<String> = Vec::new();
    if rng.gen_bool(0.7) {
        options.push("msg:\"semi;colon; inside\"".to_string());
    }
    for content in &rule.contents {
        let mut text = format!("content:{}", space(rng));
        if content.negated {
            text.push('!');
        }
        text.push('"');
        let mut hex = Vec::new();
        for &unit in &content.units {
            render_unit(unit, rng, &mut text, &mut hex);
        }
        flush_hex(rng, &mut text, &mut hex);
        text.push('"');
        text.push_str(space(rng));
        options.push(text);
        // Modifiers follow their content, nocase anywhere among them.
        let nocase_at = rng.gen_range(0..=content.modifiers.len());
        for (i, &(name, value)) in content.modifiers.iter().enumerate() {
            if content.nocase && i == nocase_at {
                options.push("nocase".to_string());
            }
            options.push(format!("{name}:{}{value}", space(rng)));
        }
        if content.nocase && nocase_at == content.modifiers.len() {
            options.push("nocase".to_string());
        }
        if rng.gen_bool(0.3) {
            options.push(other_option(rng));
        }
    }
    if let Some(sid) = rule.sid {
        let at = rng.gen_range(0..=options.len());
        // Not between a content and its modifiers: only at option
        // boundaries that start a content, or at the ends.
        let at = (0..=at)
            .rev()
            .find(|&i| i == 0 || i == options.len() || options[i].starts_with("content:"))
            .unwrap_or(0);
        options.insert(at, format!("sid:{sid}"));
    }
    let mut line = format!("{}{}(", space(rng), rule.header_text);
    for option in options {
        write!(line, "{}{option};", space(rng)).unwrap();
    }
    line.push_str(space(rng));
    line.push(')');
    line
}

/// Lines that are not rules.
fn filler(rng: &mut StdRng) -> &'static str {
    [
        "",
        "   ",
        "# alert tcp any any -> any 80 (content:\"commented\"; sid:9;)",
        "  # indented comment with \"quotes\" and ;",
        "var HTTP_PORTS 80",
        "ipvar HOME_NET any",
    ][rng.gen_range(0..6usize)]
}

const OPTIONS: [ParseOptions; 2] = [
    ParseOptions {
        longest_content_only: true,
        min_len: 1,
    },
    ParseOptions {
        longest_content_only: false,
        min_len: 3,
    },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn every_entry_point_reads_back_the_generated_rules(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rules: Vec<GenRule> = (0..rng.gen_range(1..8usize)).map(|_| gen_rule(&mut rng)).collect();
        let mut text = String::new();
        for rule in &rules {
            if rng.gen_bool(0.3) {
                text.push_str(filler(&mut rng));
                text.push('\n');
            }
            text.push_str(&render_rule(rule, &mut rng));
            text.push_str(["\n", "\r\n"][rng.gen_range(0..2usize)]);
        }

        for options in OPTIONS {
            // The rule views: every kept content, none shorter than min_len.
            let mut expected_rules = Vec::new();
            let mut expected_grouped = Vec::new();
            // The pattern view.
            let mut expected_patterns = Vec::new();
            for rule in &rules {
                let kept = rule.kept();
                let pattern = |c: &RuleContent| Pattern::literal(c.bytes()).with_nocase(c.is_nocase());
                if options.longest_content_only {
                    // The first of the longest contents wins.
                    let longest = kept.iter().fold(None::<&RuleContent>, |best, c| match best {
                        Some(b) if b.len() >= c.len() => Some(b),
                        _ => Some(c),
                    });
                    expected_patterns.extend(longest.filter(|c| c.len() >= options.min_len).map(pattern));
                } else {
                    expected_patterns.extend(kept.iter().filter(|c| c.len() >= options.min_len).map(pattern));
                }
                if !kept.is_empty() && kept.iter().all(|c| c.len() >= options.min_len) {
                    let parsed = Rule::new(kept).with_sid(rule.sid);
                    expected_rules.push(parsed.clone());
                    expected_grouped.push((rule.header.clone(), parsed));
                }
            }
            let context = || format!("options {options:?}\n{text}");
            let patterns = parse_rules(&text, options).map_err(|e| TestCaseError::fail(format!("{e}\n{}", context())))?;
            prop_assert_eq!(patterns, PatternSet::new(expected_patterns), "{}", context());
            let ruleset = parse_ruleset(&text, options).map_err(|e| TestCaseError::fail(format!("{e}\n{}", context())))?;
            prop_assert_eq!(ruleset, RuleSet::new(expected_rules), "{}", context());
            let grouped = parse_grouped(&text, options).map_err(|e| TestCaseError::fail(format!("{e}\n{}", context())))?;
            prop_assert_eq!(grouped, expected_grouped, "{}", context());
        }
    }
}
