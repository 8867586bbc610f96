//! Minimal Snort rule parser: extracts exact-match `content:` strings.
//!
//! The paper builds its pattern sets from the `content:` options of Snort
//! rules (Snort v2.9.7 for S1, ET-open 2.9.0 for S2). Those rulesets are not
//! redistributable, so the workspace ships synthetic equivalents
//! ([`crate::synthetic`]) — but this parser lets a user who *does* have a
//! ruleset load it and reproduce the experiments on the real patterns.
//!
//! Supported subset of the rule language (sufficient for content extraction):
//!
//! * rule header: `action proto src sport direction dst dport ( options )` —
//!   read only by [`parse_grouped`], which parses it into a [`RuleHeader`]
//!   ([`crate::ports`]); the pattern and rule views ignore it;
//! * `content:"...";` options with Snort escaping: `\"`, `\\`, `\;`, `\:` and
//!   hex blocks — both whitespace-separated (`|41 42 43|`) and contiguous
//!   (`|414243|`) byte pairs, and any mix of the two, as Snort accepts;
//! * `nocase;` — sets the **case-insensitivity flag** of the `content:` it
//!   modifies (the immediately preceding one, per Snort's modifier rules).
//!   The resulting [`Pattern`] reports [`Pattern::is_nocase`]` == true` and
//!   every engine in the workspace matches it ASCII-case-insensitively while
//!   the rest of the set stays byte-exact — see the filter-folded /
//!   verify-exact contract in `DEVELOPMENT.md`. A `nocase` with no preceding
//!   content (or following a negated content) is ignored, as Snort does not
//!   accept such rules anyway;
//! * the positional modifiers `offset:`/`depth:` (absolute) and
//!   `distance:`/`within:` (relative to the previous content's match) —
//!   each binds to the immediately preceding content. A positional modifier
//!   **before any content** is a [`ParseError`] (there is nothing for it to
//!   modify, and silently dropping it would change the rule's meaning); one
//!   following a *negated* content is ignored, mirroring the `nocase`
//!   precedent above. `depth`/`within` smaller than their content, duplicate
//!   modifiers, and mixing the absolute and relative families on one
//!   content are rejected, as Snort rejects them;
//! * `sid:` is recorded on the parsed [`Rule`];
//! * all other options are skipped;
//! * comment lines (`#`) and blank lines are ignored.
//!
//! Three entry points share one parsing path:
//!
//! * [`parse_rules`] — the pattern-set view: each `content:` string becomes
//!   one [`Pattern`] (positional modifiers dropped; the longest content of a
//!   rule is what Snort hands to the multi-pattern matcher, configurable via
//!   [`ParseOptions::longest_content_only`]);
//! * [`parse_ruleset`] — the rule view: every content **with** its
//!   positional constraints becomes part of a [`Rule`], and the returned
//!   [`RuleSet`] carries the per-rule anchor patterns for the engines plus
//!   everything the confirmation stage needs;
//! * [`parse_grouped`] — the rule view plus each rule's parsed header, the
//!   input of port-group scanning ([`crate::group::GroupedRuleSet`]).

use crate::pattern::{Pattern, PatternSet};
use crate::ports::{self, RuleHeader};
use crate::rule::{Rule, RuleContent, RuleSet};
use std::fmt;

/// Options controlling rule parsing.
#[derive(Clone, Copy, Debug)]
pub struct ParseOptions {
    /// If true, only the longest `content:` of each rule is kept (Snort's
    /// "fast pattern" behaviour). If false, every content string becomes a
    /// pattern.
    pub longest_content_only: bool,
    /// Minimum pattern length to keep (Snort never uses empty contents; 1 is
    /// the paper's setting since its rulesets contain 1-byte patterns).
    pub min_len: usize,
}

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions {
            longest_content_only: true,
            min_len: 1,
        }
    }
}

/// A parse error, with the (1-based) line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number in the rule file.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a whole rule file into a [`PatternSet`].
///
/// Lines that are not rules (comments, blanks, preprocessor directives) are
/// skipped. Rules without any `content:` option contribute no patterns.
pub fn parse_rules(text: &str, options: ParseOptions) -> Result<PatternSet, ParseError> {
    let mut patterns = Vec::new();
    for (line_no, line) in rule_lines(text) {
        if let Some(parsed) = parse_rule_body(line, line_no)? {
            // The pattern-set view: contents become patterns, positional
            // modifiers are dropped (they are the confirmation stage's job),
            // short contents are filtered per min_len.
            let mut contents: Vec<RuleContent> = parsed
                .contents
                .into_iter()
                .filter(|c| c.len() >= options.min_len)
                .collect();
            if contents.is_empty() {
                continue;
            }
            if options.longest_content_only {
                contents.sort_by_key(|c| std::cmp::Reverse(c.len()));
                contents.truncate(1);
            }
            patterns.extend(
                contents
                    .into_iter()
                    .map(|c| Pattern::literal(c.bytes().to_vec()).with_nocase(c.is_nocase())),
            );
        }
    }
    Ok(PatternSet::new(patterns))
}

/// Parses a whole rule file into a [`RuleSet`]: every rule keeps **all** of
/// its contents with their positional constraints, anchors are selected over
/// the set's statistics, and [`RuleSet::anchors`] is the rule-bound pattern
/// set to compile an engine for.
///
/// [`ParseOptions::longest_content_only`] is ignored here — evaluating a
/// rule requires all of its contents. A rule with *any* content shorter than
/// [`ParseOptions::min_len`] is skipped entirely (evaluating it without the
/// short content would change its meaning); rules without contents are
/// skipped as in [`parse_rules`].
pub fn parse_ruleset(text: &str, options: ParseOptions) -> Result<RuleSet, ParseError> {
    let mut rules = Vec::new();
    for (line_no, line) in rule_lines(text) {
        if let Some(parsed) = parse_rule_body(line, line_no)? {
            if parsed.contents.is_empty()
                || parsed.contents.iter().any(|c| c.len() < options.min_len)
            {
                continue;
            }
            rules.push(Rule::new(parsed.contents).with_sid(parsed.sid));
        }
    }
    Ok(RuleSet::new(rules))
}

/// Parses a whole rule file into `(header, rule)` pairs — the input of
/// [`crate::group::GroupedRuleSet`]: the rule view of [`parse_ruleset`],
/// keeping each rule's parsed [`RuleHeader`] so the port-group partitioner
/// can place it and per-flow scanning can test applicability exactly.
///
/// This is the one entry point that reads the header, so a rule line whose
/// header does not parse (wrong field count, unknown protocol or direction,
/// malformed port spec) is a [`ParseError`] here and nowhere else: grouped
/// scanning *depends* on the header, so silently guessing one would change
/// which flows a rule fires on.
pub fn parse_grouped(
    text: &str,
    options: ParseOptions,
) -> Result<Vec<(RuleHeader, Rule)>, ParseError> {
    let mut rules = Vec::new();
    for (line_no, line) in rule_lines(text) {
        if let Some(parsed) = parse_rule_body(line, line_no)? {
            if parsed.contents.is_empty()
                || parsed.contents.iter().any(|c| c.len() < options.min_len)
            {
                continue;
            }
            let header = ports::parse_header(parsed.header).map_err(|message| ParseError {
                line: line_no,
                message,
            })?;
            rules.push((header, Rule::new(parsed.contents).with_sid(parsed.sid)));
        }
    }
    Ok(rules)
}

/// The non-comment, non-blank lines of a rule file, 1-based.
fn rule_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines().enumerate().filter_map(|(idx, line)| {
        let trimmed = line.trim();
        (!trimmed.is_empty() && !trimmed.starts_with('#')).then_some((idx + 1, trimmed))
    })
}

/// One parsed rule line, before any view (patterns / rules / grouped) is
/// derived.
struct ParsedRule<'a> {
    /// The header text, left of the option parenthesis; only
    /// [`parse_grouped`] parses it.
    header: &'a str,
    sid: Option<u32>,
    contents: Vec<RuleContent>,
}

/// Which modifiers a content has already received (for duplicate and
/// family-mixing detection; `offset` needs a flag because its default, 0,
/// is also a legal explicit value).
#[derive(Clone, Copy, Default)]
struct ModifierFlags {
    offset: bool,
    depth: bool,
    distance: bool,
    within: bool,
}

/// Parses one rule line into its header text, sid and contents-with-
/// modifiers. Returns `Ok(None)` for lines that are not rules.
fn parse_rule_body(line: &str, line_no: usize) -> Result<Option<ParsedRule<'_>>, ParseError> {
    let open = match line.find('(') {
        Some(i) => i,
        // Not a rule (e.g. a variable definition); ignore.
        None => return Ok(None),
    };
    let header = &line[..open];
    let close = line.rfind(')').ok_or_else(|| ParseError {
        line: line_no,
        message: "missing closing ')' in rule options".to_string(),
    })?;
    if close < open {
        return Err(ParseError {
            line: line_no,
            message: "')' appears before '('".to_string(),
        });
    }
    let body = &line[open + 1..close];

    // Modifier options bind to the content option they follow, so we track
    // the index of the most recent kept content; a negated (skipped) content
    // resets it so its trailing modifiers cannot leak onto the previous
    // content. `any_content` distinguishes "modifier after a negated
    // content" (ignored, like nocase) from "modifier before any content at
    // all" (a hard error: there is nothing it could bind to).
    let mut contents: Vec<RuleContent> = Vec::new();
    let mut flags: Vec<ModifierFlags> = Vec::new();
    let mut last_content: Option<usize> = None;
    let mut any_content = false;
    let mut sid = None;
    for option in split_options(body) {
        let option = option.trim();
        if let Some(rest) = option.strip_prefix("content:") {
            let value = rest.trim();
            // content may be negated: content:!"..."; negated contents are not
            // part of the multi-pattern matching workload.
            if value.starts_with('!') {
                last_content = None;
                any_content = true;
                continue;
            }
            let bytes = parse_content_string(value, line_no)?;
            contents.push(RuleContent::new(bytes));
            flags.push(ModifierFlags::default());
            last_content = Some(contents.len() - 1);
            any_content = true;
        } else if option == "nocase" {
            if let Some(idx) = last_content {
                contents[idx].set_nocase(true);
            }
        } else if let Some((name, value)) = split_modifier(option) {
            apply_positional_modifier(
                name,
                value,
                &mut contents,
                &mut flags,
                last_content,
                any_content,
                line_no,
            )?;
        } else if let Some(rest) = option.strip_prefix("sid:") {
            sid = rest.trim().parse::<u32>().ok();
        }
    }
    Ok(Some(ParsedRule {
        header,
        sid,
        contents,
    }))
}

/// Splits a `name:value` option when `name` is a positional modifier.
fn split_modifier(option: &str) -> Option<(&'static str, &str)> {
    for name in ["offset", "depth", "distance", "within"] {
        if let Some(rest) = option.strip_prefix(name) {
            let rest = rest.trim_start();
            if let Some(value) = rest.strip_prefix(':') {
                return Some((name, value.trim()));
            }
        }
    }
    None
}

/// Attaches one positional modifier to the preceding content, enforcing
/// Snort's binding and validity rules.
fn apply_positional_modifier(
    name: &'static str,
    value: &str,
    contents: &mut [RuleContent],
    flags: &mut [ModifierFlags],
    last_content: Option<usize>,
    any_content: bool,
    line_no: usize,
) -> Result<(), ParseError> {
    let err = |message: String| ParseError {
        line: line_no,
        message,
    };
    let idx = match last_content {
        Some(idx) => idx,
        // Mirrors the nocase rule: a modifier trailing a *negated* content
        // is ignored with the content it modified; one before any content
        // at all has nothing to bind to and the rule is malformed.
        None if any_content => return Ok(()),
        None => {
            return Err(err(format!(
                "{name} before any content: positional modifiers bind to the preceding content"
            )))
        }
    };
    let parsed: i64 = value
        .parse()
        .map_err(|_| err(format!("invalid {name} value {value:?}")))?;
    if name != "distance" && !(0..=u32::MAX as i64).contains(&parsed) {
        return Err(err(format!("{name} value {parsed} out of range")));
    }
    if name == "distance" && i32::try_from(parsed).is_err() {
        return Err(err(format!("distance value {parsed} out of range")));
    }
    let f = &mut flags[idx];
    let duplicate = match name {
        "offset" => f.offset,
        "depth" => f.depth,
        "distance" => f.distance,
        _ => f.within,
    };
    if duplicate {
        return Err(err(format!("duplicate {name} modifier on one content")));
    }
    let absolute = name == "offset" || name == "depth";
    let mixed = if absolute {
        f.distance || f.within
    } else {
        f.offset || f.depth
    };
    if mixed {
        return Err(err(format!(
            "{name} cannot combine with a modifier of the other family \
             (offset/depth are absolute, distance/within are relative)"
        )));
    }
    let len = contents[idx].len() as i64;
    if (name == "depth" || name == "within") && parsed < len {
        return Err(err(format!(
            "{name} {parsed} smaller than its content ({len} bytes)"
        )));
    }
    match name {
        "offset" => {
            f.offset = true;
            contents[idx].set_offset(parsed as u32);
        }
        "depth" => {
            f.depth = true;
            contents[idx].set_depth(parsed as u32);
        }
        "distance" => {
            f.distance = true;
            contents[idx].set_distance(parsed as i32);
        }
        _ => {
            f.within = true;
            contents[idx].set_within(parsed as u32);
        }
    }
    Ok(())
}

/// Splits a rule option body on ';', honouring quoted strings and escapes.
fn split_options(body: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    let mut escape = false;
    for c in body.chars() {
        if escape {
            current.push(c);
            escape = false;
            continue;
        }
        match c {
            '\\' if in_quotes => {
                current.push(c);
                escape = true;
            }
            '"' => {
                current.push(c);
                in_quotes = !in_quotes;
            }
            ';' if !in_quotes => {
                out.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
    }
    if !current.trim().is_empty() {
        out.push(current);
    }
    out
}

/// Parses a Snort content value: a double-quoted string with `\` escapes and
/// `|41 42|` hex blocks.
fn parse_content_string(value: &str, line_no: usize) -> Result<Vec<u8>, ParseError> {
    let value = value.trim();
    let inner = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| ParseError {
            line: line_no,
            message: format!("content value is not quoted: {value:?}"),
        })?;
    let mut bytes = Vec::with_capacity(inner.len());
    let mut chars = inner.chars().peekable();
    let mut in_hex = false;
    let mut hex_buf = String::new();
    while let Some(c) = chars.next() {
        if in_hex {
            if c == '|' {
                // Flush the hex block. Snort accepts both whitespace-
                // separated bytes (`|41 42|`) and contiguous runs of byte
                // pairs (`|4142|`, `|41 4243|`): each whitespace-delimited
                // token must be an even-length run of hex digits and is
                // consumed two digits per byte. Odd-length runs and non-hex
                // characters are still rejected.
                for tok in hex_buf.split_whitespace() {
                    if !tok.bytes().all(|b| b.is_ascii_hexdigit()) {
                        return Err(ParseError {
                            line: line_no,
                            message: format!("invalid hex byte {tok:?} in content"),
                        });
                    }
                    if tok.len() % 2 != 0 {
                        return Err(ParseError {
                            line: line_no,
                            message: format!(
                                "odd-length hex run {tok:?} in content (hex bytes are two digits each)"
                            ),
                        });
                    }
                    for pair in tok.as_bytes().chunks_exact(2) {
                        let hi = (pair[0] as char).to_digit(16).expect("checked hex digit");
                        let lo = (pair[1] as char).to_digit(16).expect("checked hex digit");
                        bytes.push((hi * 16 + lo) as u8);
                    }
                }
                hex_buf.clear();
                in_hex = false;
            } else {
                hex_buf.push(c);
            }
            continue;
        }
        match c {
            '|' => in_hex = true,
            '\\' => {
                let escaped = chars.next().ok_or_else(|| ParseError {
                    line: line_no,
                    message: "dangling escape at end of content".to_string(),
                })?;
                bytes.push(escaped as u8);
            }
            _ => {
                let mut buf = [0u8; 4];
                bytes.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
            }
        }
    }
    if in_hex {
        return Err(ParseError {
            line: line_no,
            message: "unterminated hex block in content".to_string(),
        });
    }
    if bytes.is_empty() {
        return Err(ParseError {
            line: line_no,
            message: "empty content string".to_string(),
        });
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RULE: &str = r#"alert tcp $EXTERNAL_NET any -> $HOME_NET $HTTP_PORTS (msg:"WEB attack"; flow:to_server,established; content:"GET /etc/passwd"; nocase; sid:1001; rev:2;)"#;

    #[test]
    fn parses_simple_http_rule() {
        let set = parse_rules(RULE, ParseOptions::default()).unwrap();
        assert_eq!(set.len(), 1);
        let (_, p) = set.iter().next().unwrap();
        assert_eq!(p.bytes(), b"GET /etc/passwd");
        assert!(p.is_nocase(), "the rule carries a nocase; modifier");
    }

    #[test]
    fn nocase_applies_to_the_preceding_content_only() {
        let rule = r#"alert tcp any any -> any 80 (content:"CaseSensitive"; content:"FoldMe-longer"; nocase; sid:10;)"#;
        let set = parse_rules(
            rule,
            ParseOptions {
                longest_content_only: false,
                ..ParseOptions::default()
            },
        )
        .unwrap();
        assert_eq!(set.len(), 2);
        let flags: Vec<(Vec<u8>, bool)> = set
            .iter()
            .map(|(_, p)| (p.bytes().to_vec(), p.is_nocase()))
            .collect();
        assert_eq!(
            flags,
            vec![
                (b"CaseSensitive".to_vec(), false),
                (b"FoldMe-longer".to_vec(), true),
            ]
        );
    }

    #[test]
    fn nocase_survives_longest_content_selection() {
        let rule = r#"alert tcp any any -> any 80 (content:"short"; content:"the-much-longer-one"; nocase; sid:11;)"#;
        let set = parse_rules(rule, ParseOptions::default()).unwrap();
        assert_eq!(set.len(), 1);
        let (_, p) = set.iter().next().unwrap();
        assert_eq!(p.bytes(), b"the-much-longer-one");
        assert!(p.is_nocase());
    }

    #[test]
    fn nocase_after_negated_content_is_ignored() {
        let rule = r#"alert tcp any any -> any 80 (content:"keepme"; content:!"skipped"; nocase; sid:12;)"#;
        let set = parse_rules(rule, ParseOptions::default()).unwrap();
        assert_eq!(set.len(), 1);
        let (_, p) = set.iter().next().unwrap();
        assert_eq!(p.bytes(), b"keepme");
        assert!(
            !p.is_nocase(),
            "a nocase modifying a negated content must not leak onto the previous pattern"
        );
    }

    #[test]
    fn hex_blocks_and_escapes() {
        let rule = r#"alert tcp any any -> any 445 (content:"|00 01 02|AB\;C|ff|"; sid:1;)"#;
        let set = parse_rules(rule, ParseOptions::default()).unwrap();
        let (_, p) = set.iter().next().unwrap();
        assert_eq!(p.bytes(), &[0x00, 0x01, 0x02, b'A', b'B', b';', b'C', 0xff]);
    }

    #[test]
    fn longest_content_only_vs_all_contents() {
        let rule = r#"alert tcp any any -> any 80 (content:"short"; content:"a much longer content string"; sid:2;)"#;
        let longest = parse_rules(rule, ParseOptions::default()).unwrap();
        assert_eq!(longest.len(), 1);
        assert_eq!(
            longest.iter().next().unwrap().1.bytes(),
            b"a much longer content string"
        );
        let all = parse_rules(
            rule,
            ParseOptions {
                longest_content_only: false,
                ..ParseOptions::default()
            },
        )
        .unwrap();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn contiguous_hex_runs_are_byte_pairs() {
        // `|4142|` is Snort-legal and means the same as `|41 42|`.
        for rule in [
            r#"alert tcp any any -> any 445 (content:"|41 42 43|"; sid:20;)"#,
            r#"alert tcp any any -> any 445 (content:"|414243|"; sid:21;)"#,
            r#"alert tcp any any -> any 445 (content:"|41 4243|"; sid:22;)"#,
            r#"alert tcp any any -> any 445 (content:"|4142 43|"; sid:23;)"#,
        ] {
            let set = parse_rules(rule, ParseOptions::default()).unwrap();
            assert_eq!(set.iter().next().unwrap().1.bytes(), b"ABC", "{rule}");
        }
    }

    #[test]
    fn odd_length_and_garbage_hex_runs_error() {
        let odd = r#"alert tcp any any -> any 80 (content:"|41424|"; sid:24;)"#;
        let err = parse_rules(odd, ParseOptions::default()).unwrap_err();
        assert!(err.message.contains("odd-length"), "{}", err.message);

        let garbage = r#"alert tcp any any -> any 80 (content:"|41zz|"; sid:25;)"#;
        let err = parse_rules(garbage, ParseOptions::default()).unwrap_err();
        assert!(err.message.contains("invalid hex byte"), "{}", err.message);
    }

    #[test]
    fn negated_content_is_skipped() {
        let rule = r#"alert tcp any any -> any 80 (content:!"not this"; content:"this"; sid:3;)"#;
        let set = parse_rules(rule, ParseOptions::default()).unwrap();
        assert_eq!(set.len(), 1);
        assert_eq!(set.iter().next().unwrap().1.bytes(), b"this");
    }

    #[test]
    fn comments_blank_lines_and_non_rules_are_ignored() {
        let text = "# a comment\n\nvar HOME_NET 10.0.0.0/8\n".to_string() + RULE;
        let set = parse_rules(&text, ParseOptions::default()).unwrap();
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn rules_without_content_yield_nothing() {
        let rule = r#"alert icmp any any -> any any (msg:"ping"; itype:8; sid:4;)"#;
        let set = parse_rules(rule, ParseOptions::default()).unwrap();
        assert!(set.is_empty());
    }

    #[test]
    fn semicolons_inside_quotes_do_not_split_options() {
        let rule = r#"alert tcp any any -> any 80 (msg:"has; semicolon"; content:"a;b"; sid:5;)"#;
        let set = parse_rules(rule, ParseOptions::default()).unwrap();
        assert_eq!(set.iter().next().unwrap().1.bytes(), b"a;b");
    }

    #[test]
    fn error_on_unterminated_hex_block() {
        let rule = r#"alert tcp any any -> any 80 (content:"|41 42"; sid:6;)"#;
        let err = parse_rules(rule, ParseOptions::default()).unwrap_err();
        assert!(err.message.contains("unterminated"));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn error_on_missing_close_paren() {
        let rule = r#"alert tcp any any -> any 80 (content:"x"; sid:7;"#;
        assert!(parse_rules(rule, ParseOptions::default()).is_err());
    }

    #[test]
    fn parse_grouped_keeps_headers() {
        use crate::ports::{FlowTuple, Proto};
        let text = r#"
alert tcp any any -> any 80 (msg:"web"; content:"GET /"; sid:50;)
alert udp any any -> any 53 (msg:"dns"; content:"query"; sid:51;)
alert tcp any 445 <> any any (msg:"smb"; content:"|ff|SMB"; sid:52;)
"#;
        let rules = parse_grouped(text, ParseOptions::default()).unwrap();
        assert_eq!(rules.len(), 3);
        let (h, r) = &rules[0];
        assert!(h.applies_to(FlowTuple::new(Proto::Tcp, 40000, 80)));
        assert!(!h.applies_to(FlowTuple::new(Proto::Tcp, 40000, 81)));
        assert_eq!(r.sid(), Some(50));
        let (h, _) = &rules[2];
        assert!(h.applies_to(FlowTuple::new(Proto::Tcp, 1000, 445)));
        assert!(h.applies_to(FlowTuple::new(Proto::Tcp, 445, 1000)));
    }

    #[test]
    fn parse_grouped_rejects_malformed_headers() {
        // 6 header fields: no destination port. The other views never read
        // the header, but the grouped view depends on it, so it must error.
        let text = r#"alert tcp any any -> any (msg:"x"; content:"abcd"; sid:53;)"#;
        let err = parse_grouped(text, ParseOptions::default()).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("header"), "{}", err.message);
        assert_eq!(
            parse_ruleset(text, ParseOptions::default()).unwrap().len(),
            1
        );
        // A malformed port spec in the header errors too.
        let bad_ports = r#"alert tcp any any -> any !any (msg:"x"; content:"abcd"; sid:54;)"#;
        assert!(parse_grouped(bad_ports, ParseOptions::default()).is_err());
    }

    // --- positional modifiers (offset/depth/distance/within) ---

    #[test]
    fn modifiers_bind_to_the_preceding_content() {
        let rule = r#"alert tcp any any -> any 80 (content:"first"; offset:2; depth:10; content:"second"; distance:3; within:9; nocase; sid:30;)"#;
        let set = parse_ruleset(rule, ParseOptions::default()).unwrap();
        assert_eq!(set.len(), 1);
        let contents = set.get(crate::rule::RuleId(0)).contents();
        assert_eq!(contents.len(), 2);
        assert_eq!(contents[0].bytes(), b"first");
        assert_eq!(contents[0].offset(), 2);
        assert_eq!(contents[0].depth(), Some(10));
        assert_eq!(contents[0].distance(), None);
        assert!(!contents[0].is_nocase());
        assert_eq!(contents[1].bytes(), b"second");
        assert_eq!(contents[1].distance(), Some(3));
        assert_eq!(contents[1].within(), Some(9));
        assert_eq!(contents[1].offset(), 0);
        assert!(contents[1].is_nocase());
    }

    #[test]
    fn each_modifier_before_any_content_is_an_error() {
        for modifier in ["offset:1", "depth:5", "distance:2", "within:6"] {
            let rule = format!(
                r#"alert tcp any any -> any 80 (msg:"x"; {modifier}; content:"late"; sid:31;)"#
            );
            let err = parse_ruleset(&rule, ParseOptions::default()).unwrap_err();
            assert!(
                err.message.contains("before any content"),
                "{modifier}: {}",
                err.message
            );
            // Both views share the parsing path, so the pattern view errors
            // identically instead of silently dropping the modifier.
            assert!(
                parse_rules(&rule, ParseOptions::default()).is_err(),
                "{modifier}"
            );
        }
    }

    #[test]
    fn each_modifier_after_negated_content_is_ignored() {
        // Mirrors nocase_after_negated_content_is_ignored: the modifier
        // binds to the negated (dropped) content and vanishes with it.
        for modifier in ["offset:1", "depth:7", "distance:2", "within:8"] {
            let rule = format!(
                r#"alert tcp any any -> any 80 (content:"keepme"; content:!"skipped"; {modifier}; sid:32;)"#
            );
            let set = parse_ruleset(&rule, ParseOptions::default()).unwrap();
            let contents = set.get(crate::rule::RuleId(0)).contents();
            assert_eq!(contents.len(), 1, "{modifier}");
            assert_eq!(contents[0].offset(), 0, "{modifier}");
            assert_eq!(contents[0].depth(), None, "{modifier}");
            assert_eq!(contents[0].distance(), None, "{modifier}");
            assert_eq!(contents[0].within(), None, "{modifier}");
        }
    }

    #[test]
    fn depth_and_within_smaller_than_their_content_error() {
        let depth = r#"alert tcp any any -> any 80 (content:"abcd"; depth:3; sid:33;)"#;
        let err = parse_ruleset(depth, ParseOptions::default()).unwrap_err();
        assert!(
            err.message.contains("smaller than its content"),
            "{}",
            err.message
        );
        let within =
            r#"alert tcp any any -> any 80 (content:"ab"; content:"abcd"; within:3; sid:34;)"#;
        let err = parse_ruleset(within, ParseOptions::default()).unwrap_err();
        assert!(
            err.message.contains("smaller than its content"),
            "{}",
            err.message
        );
    }

    #[test]
    fn duplicate_and_mixed_family_modifiers_error() {
        let dup = r#"alert tcp any any -> any 80 (content:"abcd"; offset:1; offset:2; sid:35;)"#;
        let err = parse_ruleset(dup, ParseOptions::default()).unwrap_err();
        assert!(err.message.contains("duplicate"), "{}", err.message);
        let mixed = r#"alert tcp any any -> any 80 (content:"ab"; content:"cd"; distance:1; depth:8; sid:36;)"#;
        let err = parse_ruleset(mixed, ParseOptions::default()).unwrap_err();
        assert!(err.message.contains("other family"), "{}", err.message);
    }

    #[test]
    fn garbage_and_out_of_range_modifier_values_error() {
        let garbage = r#"alert tcp any any -> any 80 (content:"ab"; offset:abc; sid:37;)"#;
        assert!(parse_ruleset(garbage, ParseOptions::default())
            .unwrap_err()
            .message
            .contains("invalid offset value"));
        let negative = r#"alert tcp any any -> any 80 (content:"ab"; depth:-4; sid:38;)"#;
        assert!(parse_ruleset(negative, ParseOptions::default())
            .unwrap_err()
            .message
            .contains("out of range"));
        // distance may be negative (Snort allows backwards-relative search).
        let back =
            r#"alert tcp any any -> any 80 (content:"ab"; content:"cd"; distance:-2; sid:39;)"#;
        let set = parse_ruleset(back, ParseOptions::default()).unwrap();
        assert_eq!(
            set.get(crate::rule::RuleId(0)).contents()[1].distance(),
            Some(-2)
        );
    }

    #[test]
    fn parse_rules_ignores_positional_modifiers_for_the_pattern_view() {
        let rule = r#"alert tcp any any -> any 80 (content:"short"; offset:4; content:"the-much-longer-one"; distance:1; sid:40;)"#;
        let set = parse_rules(rule, ParseOptions::default()).unwrap();
        assert_eq!(set.len(), 1);
        assert_eq!(set.iter().next().unwrap().1.bytes(), b"the-much-longer-one");
    }

    #[test]
    fn parse_ruleset_keeps_all_contents_and_records_sid() {
        let text = r#"
# two multi-content rules and a content-less one
alert tcp any any -> any 80 (msg:"a"; content:"GET /"; content:"passwd"; distance:0; sid:41;)
alert icmp any any -> any any (msg:"ping"; itype:8; sid:42;)
alert tcp any any -> any 25 (msg:"b"; content:"VRFY"; sid:43;)
"#;
        let set = parse_ruleset(text, ParseOptions::default()).unwrap();
        assert_eq!(set.len(), 2, "the content-less rule contributes nothing");
        assert_eq!(set.get(crate::rule::RuleId(0)).sid(), Some(41));
        assert_eq!(set.get(crate::rule::RuleId(0)).contents().len(), 2);
        assert_eq!(set.get(crate::rule::RuleId(1)).sid(), Some(43));
        assert_eq!(set.anchors().len(), 2);
    }

    #[test]
    fn parse_ruleset_skips_rules_with_sub_min_len_contents() {
        let text = r#"alert tcp any any -> any 80 (content:"ab"; content:"longenough"; sid:44;)"#;
        let set = parse_ruleset(
            text,
            ParseOptions {
                min_len: 3,
                ..ParseOptions::default()
            },
        )
        .unwrap();
        assert!(
            set.is_empty(),
            "a rule missing one of its contents cannot be evaluated faithfully"
        );
    }

    #[test]
    fn min_len_filters_short_contents() {
        let rule = r#"alert tcp any any -> any 80 (content:"ab"; sid:8;)"#;
        let set = parse_rules(
            rule,
            ParseOptions {
                min_len: 3,
                ..ParseOptions::default()
            },
        )
        .unwrap();
        assert!(set.is_empty());
    }
}
