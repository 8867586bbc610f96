//! Hostile input: an IDS is itself a target, and its rule files and port
//! variables come from outside. Whatever the text parsers are handed — a
//! valid rule with grammar characters spliced into it, numbers no integer
//! holds, bytes that are not ASCII, a line cut off anywhere — they answer
//! `Ok` or a typed `Err`. They never panic.

use mpm_patterns::ports::{PortSpec, PortVars};
use mpm_patterns::snort::{parse_grouped, parse_rules, parse_ruleset, ParseOptions};
use proptest::prelude::*;

/// A valid multi-content rule that uses every part of the grammar the
/// parser gives meaning to: variables, a port list with an exclusion,
/// escapes, a hex block, `nocase` and both families of positional modifier.
const RULE: &str = r#"alert tcp $EXTERNAL_NET any -> $HOME_NET [$HTTP_PORTS,!8080] (msg:"seed"; content:"GET |2F 61|dmin"; nocase; offset:2; depth:64; content:"pass\"w\;d"; distance:4; within:40; content:!"safe"; sid:1000001;)"#;

/// What a mutation splices in: each character the grammar reads, tokens
/// that open something and never close it, numbers past every integer
/// width, and text that is not ASCII.
#[rustfmt::skip]
const SPLICES: &[&str] = &[
    "(", ")", ";", "|", "\"", "\\", "!", "[", "]", "$", ":", ",", " ", "\n", "#", "->", "<>",
    "|4", "|GG|", "content:", "content:\"", "depth:", "within:0;", "offset:-1;", "any", "65536",
    "4294967296", "99999999999999999999999999", "é", "\u{0}", "\u{fffd}\u{1f980}",
];

/// Both parse-option corners: the fast-pattern view and every content.
const OPTIONS: [ParseOptions; 2] = [
    ParseOptions {
        longest_content_only: true,
        min_len: 1,
    },
    ParseOptions {
        longest_content_only: false,
        min_len: 4,
    },
];

/// Hands `text` to every rule-text entry point; only returning matters.
fn parse_all(text: &str) {
    for options in OPTIONS {
        let _ = parse_rules(text, options);
        let _ = parse_ruleset(text, options);
        let _ = parse_grouped(text, options);
    }
}

/// One edit of the rule's bytes: `(kind, position, argument)`, each reduced
/// modulo what it indexes.
fn mutation_strategy() -> impl Strategy<Value = (u8, usize, usize)> {
    (0u8..5, 0usize..4096, 0usize..4096)
}

fn mutate(rule: &mut Vec<u8>, (kind, at, arg): (u8, usize, usize)) {
    let at = at % (rule.len() + 1);
    let end = (at + 1 + arg % 8).min(rule.len());
    match kind {
        0 => {
            let splice = SPLICES[arg % SPLICES.len()].as_bytes();
            rule.splice(at..at, splice.iter().copied());
        }
        1 => drop(rule.drain(at..end)),
        // Any byte, most of them not ASCII.
        2 if at < rule.len() => rule[at] = arg as u8,
        3 => {
            let copy = rule[at..end].to_vec();
            rule.splice(at..at, copy);
        }
        _ => rule.truncate(at),
    }
}

#[test]
fn the_seed_rule_is_valid() {
    let options = ParseOptions::default();
    assert_eq!(parse_rules(RULE, options).expect("patterns").len(), 1);
    assert_eq!(parse_ruleset(RULE, options).expect("rules").len(), 1);
    let grouped = parse_grouped(RULE, options).expect("grouped");
    assert_eq!(grouped.len(), 1);
    // The negated content constrains nothing the engines search for.
    assert_eq!(grouped[0].1.contents().len(), 2);
}

#[test]
fn a_rule_cut_off_at_any_byte_parses_or_errors() {
    for cut in 0..=RULE.len() {
        parse_all(&RULE[..cut]);
        // And as the last line of a file whose first line is whole.
        parse_all(&format!("{RULE}\n{}", &RULE[..cut]));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn mutated_rules_parse_or_error(
        mutations in proptest::collection::vec(mutation_strategy(), 1..6),
    ) {
        let mut rule = RULE.as_bytes().to_vec();
        for mutation in mutations {
            mutate(&mut rule, mutation);
        }
        // Lossy: a stray byte becomes U+FFFD, which is itself non-ASCII
        // input the parsers must slice around without splitting it.
        parse_all(&String::from_utf8_lossy(&rule));
    }

    #[test]
    fn arbitrary_port_specs_parse_or_error(
        pieces in proptest::collection::vec(0usize..PORT_PIECES.len(), 0..10),
    ) {
        let token: String = pieces.iter().map(|&i| PORT_PIECES[i]).collect();
        for vars in [PortVars::default(), PortVars::empty()] {
            if let Ok(spec) = PortSpec::parse(&token, &vars) {
                // A spec that parsed answers for every port.
                let _ = (spec.matches(0), spec.matches(80), spec.matches(u16::MAX));
                let _ = (spec.is_any(), spec.explicit_ports(8));
            }
        }
    }
}

/// The port language's alphabet — digits, its punctuation, lower-case
/// letters — with the digits and separators several times over and a few
/// whole words, so that ranges, lists and variables are common.
#[rustfmt::skip]
const PORT_PIECES: &[&str] = &[
    "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "0", "5", "6", "80", "65535", "65536", ":",
    ",", ":", ",", "!", "[", "]", "$", " ", "any", "$http_ports", "$nope", "a", "b", "c", "d", "e",
    "f", "g", "h", "i", "j", "k", "l", "m", "n", "o", "p", "q", "r", "s", "t", "u", "v", "w", "x",
    "y", "z", "_",
];
