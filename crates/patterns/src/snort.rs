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
//! * options: `name` or `name:value`, separated by `;`. The name is the text
//!   before the first `:` (whitespace around it is ignored); the value runs
//!   to the next `;` that is not inside a double-quoted string;
//! * `content:"...";` options with Snort escaping and hex blocks — both
//!   whitespace-separated (`|41 42 43|`) and contiguous (`|414243|`) byte
//!   pairs, and any mix of the two, as Snort accepts. **Escapes:** inside the
//!   quotes, `\` takes the next character literally and contributes all of
//!   its UTF-8 bytes, exactly as the unescaped character would (`\"`, `\\`,
//!   `\;`, `\:`; `\é` is `C3 A9`, like `é`). The quoted string ends at the
//!   first unescaped `"`, and only whitespace may follow it before the `;`.
//!   Unterminated strings or hex blocks, a `\` with nothing after it, hex
//!   digits that are not pairs, non-hex characters in a hex block and empty
//!   contents are [`ParseError`]s;
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
//! **One pass per rule line.** Each rule line is read once, byte by byte:
//! options are slices of the input, never copied, and a `content:` value is
//! decoded in the same pass that finds its end, into a scratch buffer the
//! whole file shares. Each content a view keeps is then allocated once, at
//! its exact size; parsing allocates nothing per option.
//!
//! Three entry points share that pass:
//!
//! * [`parse_rules`] — the pattern-set view: each `content:` string becomes
//!   one [`Pattern`] (positional modifiers dropped; the longest content of a
//!   rule — the first of them on a tie — is what Snort hands to the
//!   multi-pattern matcher, configurable via
//!   [`ParseOptions::longest_content_only`]);
//! * [`parse_ruleset`] — the rule view: every content **with** its
//!   positional constraints becomes part of a [`Rule`], and the returned
//!   [`RuleSet`] carries the per-rule anchor patterns for the engines plus
//!   everything the confirmation stage needs;
//! * [`parse_grouped`] — the rule view plus each rule's parsed header, the
//!   input of port-group scanning ([`crate::group::GroupedRuleSet`]).

use crate::pattern::{Pattern, PatternSet};
use crate::ports::{self, PortVars, RuleHeader};
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
    let mut parser = LineParser::default();
    let mut patterns = Vec::new();
    for (line_no, line) in rule_lines(text) {
        if parser.parse(line, line_no)?.is_none() {
            continue;
        }
        // The pattern-set view: contents become patterns, positional
        // modifiers are dropped (they are the confirmation stage's job),
        // short contents are filtered per min_len.
        let kept = |c: &&ContentSpan| c.len() >= options.min_len;
        if options.longest_content_only {
            // `max_by_key` keeps the last of equal maxima, so over the
            // reversed contents it keeps the first.
            let longest = parser.contents.iter().rev().max_by_key(|c| c.len());
            patterns.extend(longest.filter(kept).map(|c| c.pattern(&parser.bytes)));
        } else {
            let all = parser.contents.iter().filter(kept);
            patterns.extend(all.map(|c| c.pattern(&parser.bytes)));
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
    let mut parser = LineParser::default();
    let mut rules = Vec::new();
    for (line_no, line) in rule_lines(text) {
        if let Some(parsed) = parser.parse(line, line_no)? {
            if let Some(rule) = parser.rule(parsed.sid, options.min_len) {
                rules.push(rule);
            }
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
/// which flows a rule fires on. `$VAR` ports resolve against the default
/// [`PortVars`] table, built once per file.
pub fn parse_grouped(
    text: &str,
    options: ParseOptions,
) -> Result<Vec<(RuleHeader, Rule)>, ParseError> {
    let vars = PortVars::default();
    let mut parser = LineParser::default();
    let mut rules = Vec::new();
    for (line_no, line) in rule_lines(text) {
        if let Some(parsed) = parser.parse(line, line_no)? {
            if let Some(rule) = parser.rule(parsed.sid, options.min_len) {
                let header =
                    ports::parse_header_with_vars(parsed.header, &vars).map_err(|message| {
                        ParseError {
                            line: line_no,
                            message,
                        }
                    })?;
                rules.push((header, rule));
            }
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

/// What one rule line yields besides its contents, which the parser keeps.
struct RuleLine<'a> {
    /// The header text, left of the option parenthesis; only
    /// [`parse_grouped`] parses it.
    header: &'a str,
    sid: Option<u32>,
}

/// One kept content of the current rule: its decoded bytes are
/// `bytes[start..end]` of the parser's scratch, and the modifiers bound to
/// it so far. A modifier that is `Some` has been seen, which is what the
/// duplicate and family-mixing checks read.
struct ContentSpan {
    start: usize,
    end: usize,
    nocase: bool,
    offset: Option<u32>,
    depth: Option<u32>,
    distance: Option<i32>,
    within: Option<u32>,
}

impl ContentSpan {
    fn len(&self) -> usize {
        self.end - self.start
    }

    /// The content as a pattern: its bytes, allocated once at exact size.
    fn pattern(&self, bytes: &[u8]) -> Pattern {
        Pattern::literal(&bytes[self.start..self.end]).with_nocase(self.nocase)
    }

    /// The content with its modifiers, its bytes allocated once at exact
    /// size.
    fn content(&self, bytes: &[u8]) -> RuleContent {
        let mut content = RuleContent::new(&bytes[self.start..self.end])
            .with_nocase(self.nocase)
            .with_offset(self.offset.unwrap_or(0));
        if let Some(depth) = self.depth {
            content = content.with_depth(depth);
        }
        if let Some(distance) = self.distance {
            content = content.with_distance(distance);
        }
        if let Some(within) = self.within {
            content = content.with_within(within);
        }
        content
    }

    /// Binds the positional modifier `name` (`offset`, `depth`, `distance`
    /// or `within`) with its raw `value`, enforcing Snort's validity rules.
    fn set_modifier(&mut self, name: &str, value: &str) -> Result<(), String> {
        let parsed: i64 = value
            .parse()
            .map_err(|_| format!("invalid {name} value {value:?}"))?;
        let in_range = if name == "distance" {
            i32::try_from(parsed).is_ok()
        } else {
            u32::try_from(parsed).is_ok()
        };
        if !in_range {
            return Err(format!("{name} value {parsed} out of range"));
        }
        let seen = match name {
            "offset" => self.offset.is_some(),
            "depth" => self.depth.is_some(),
            "distance" => self.distance.is_some(),
            _ => self.within.is_some(),
        };
        if seen {
            return Err(format!("duplicate {name} modifier on one content"));
        }
        let absolute = self.offset.is_some() || self.depth.is_some();
        let relative = self.distance.is_some() || self.within.is_some();
        let mixed = if matches!(name, "offset" | "depth") {
            relative
        } else {
            absolute
        };
        if mixed {
            return Err(format!(
                "{name} cannot combine with a modifier of the other family \
                 (offset/depth are absolute, distance/within are relative)"
            ));
        }
        let len = self.len() as i64;
        if matches!(name, "depth" | "within") && parsed < len {
            return Err(format!(
                "{name} {parsed} smaller than its content ({len} bytes)"
            ));
        }
        match name {
            "offset" => self.offset = Some(parsed as u32),
            "depth" => self.depth = Some(parsed as u32),
            "distance" => self.distance = Some(parsed as i32),
            _ => self.within = Some(parsed as u32),
        }
        Ok(())
    }
}

/// What a modifier option binds to: Snort modifiers modify the content
/// immediately before them.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Target {
    /// No content yet: a positional modifier here is an error.
    Nothing,
    /// A negated content, which is not kept: its modifiers are dropped.
    Negated,
    /// The last entry of the parser's contents.
    Last,
}

/// The one-pass rule-line parser. Its buffers hold the current rule and are
/// reused for every line of a file, so a rule costs only the allocations
/// of what the caller keeps.
#[derive(Default)]
struct LineParser {
    /// Decoded bytes of the current rule's kept contents, back to back.
    bytes: Vec<u8>,
    /// The current rule's kept contents, in rule order.
    contents: Vec<ContentSpan>,
}

impl LineParser {
    /// Parses one (trimmed) rule line into `self.contents`. Returns
    /// `Ok(None)` for lines that are not rules.
    fn parse<'a>(
        &mut self,
        line: &'a str,
        line_no: usize,
    ) -> Result<Option<RuleLine<'a>>, ParseError> {
        let err = |message: String| ParseError {
            line: line_no,
            message,
        };
        self.bytes.clear();
        self.contents.clear();
        let open = match line.find('(') {
            Some(i) => i,
            // Not a rule (e.g. a variable definition); ignore.
            None => return Ok(None),
        };
        let close = line
            .rfind(')')
            .ok_or_else(|| err("missing closing ')' in rule options".to_string()))?;
        if close < open {
            return Err(err("')' appears before '('".to_string()));
        }
        let body = &line[open + 1..close];
        let b = body.as_bytes();
        let mut target = Target::Nothing;
        let mut sid = None;
        let mut i = 0;
        while i < b.len() {
            // The name runs to `:` or `;`. A `"` before either makes this an
            // option the parser does not read: it is skipped whole, quotes
            // honoured.
            let name_start = i;
            while i < b.len() && !matches!(b[i], b':' | b';' | b'"') {
                i += 1;
            }
            let name = body[name_start..i].trim_ascii();
            if b.get(i) == Some(&b':') {
                let value_start = i + 1;
                if name == "content" {
                    i = self.content(body, value_start, &mut target).map_err(err)?;
                } else {
                    i = option_end(b, value_start);
                    let value = body[value_start..i].trim_ascii();
                    match name {
                        "offset" | "depth" | "distance" | "within" => match target {
                            Target::Last => {
                                let last = self.contents.last_mut().expect("a kept content");
                                last.set_modifier(name, value).map_err(err)?;
                            }
                            Target::Negated => {}
                            Target::Nothing => {
                                return Err(err(format!(
                                    "{name} before any content: positional modifiers \
                                     bind to the preceding content"
                                )))
                            }
                        },
                        "sid" => sid = value.parse::<u32>().ok(),
                        _ => {}
                    }
                }
            } else {
                if name == "nocase" && b.get(i) != Some(&b'"') && target == Target::Last {
                    self.contents.last_mut().expect("a kept content").nocase = true;
                }
                i = option_end(b, i);
            }
            // Past the `;`.
            i += 1;
        }
        Ok(Some(RuleLine {
            header: &line[..open],
            sid,
        }))
    }

    /// Decodes the `content:` value that starts at `start` into the scratch
    /// and records it (a negated content is only noted in `target`).
    /// Returns the end of the option: the index of its `;`, or the body's
    /// length.
    fn content(&mut self, body: &str, start: usize, target: &mut Target) -> Result<usize, String> {
        let b = body.as_bytes();
        let not_quoted = || {
            let value = body[start..option_end(b, start)].trim_ascii();
            format!("content value is not quoted: {value:?}")
        };
        let mut i = skip_whitespace(body, start);
        match b.get(i) {
            // Negated contents are not part of the multi-pattern matching
            // workload; their modifiers are dropped with them.
            Some(b'!') => {
                *target = Target::Negated;
                return Ok(option_end(b, i));
            }
            Some(b'"') => i += 1,
            _ => return Err(not_quoted()),
        }
        let from = self.bytes.len();
        loop {
            while let Some(&c) = b.get(i) {
                if matches!(c, b'"' | b'\\' | b'|') {
                    break;
                }
                self.bytes.push(c);
                i += 1;
            }
            match b.get(i) {
                Some(b'"') => break,
                // The escaped character's first byte; the rest of its UTF-8
                // bytes, never special, join the next literal run.
                Some(b'\\') => match b.get(i + 1) {
                    Some(&escaped) => {
                        self.bytes.push(escaped);
                        i += 2;
                    }
                    None => return Err("dangling escape at end of content".to_string()),
                },
                Some(_) => i = self.hex_block(body, i + 1)?,
                None => return Err(not_quoted()),
            }
        }
        let end = skip_whitespace(body, i + 1);
        if end < b.len() && b[end] != b';' {
            return Err(not_quoted());
        }
        if self.bytes.len() == from {
            return Err("empty content string".to_string());
        }
        self.contents.push(ContentSpan {
            start: from,
            end: self.bytes.len(),
            nocase: false,
            offset: None,
            depth: None,
            distance: None,
            within: None,
        });
        *target = Target::Last;
        Ok(end)
    }

    /// Decodes the hex block whose first digit is at `start` (just past its
    /// opening `|`) into the scratch. Bytes are pairs of hex digits; pairs
    /// may be contiguous or separated by whitespace, but a whitespace-
    /// delimited run must hold whole pairs. Returns the index just past the
    /// closing `|`.
    fn hex_block(&mut self, body: &str, start: usize) -> Result<usize, String> {
        let b = body.as_bytes();
        let mut high: Option<u8> = None;
        let mut run = start;
        for (i, &c) in b.iter().enumerate().skip(start) {
            if c == b'|' || c.is_ascii_whitespace() {
                if high.is_some() {
                    return Err(format!(
                        "odd-length hex run {:?} in content (hex bytes are two digits each)",
                        &body[run..i]
                    ));
                }
                if c == b'|' {
                    return Ok(i + 1);
                }
                run = i + 1;
                continue;
            }
            if c == b'"' {
                // The string closes inside the block.
                break;
            }
            let Some(digit) = (c as char).to_digit(16) else {
                let end = b[i..]
                    .iter()
                    .position(|&c| matches!(c, b'|' | b'"') || c.is_ascii_whitespace())
                    .map_or(b.len(), |n| i + n);
                return Err(format!("invalid hex byte {:?} in content", &body[run..end]));
            };
            match high.take() {
                Some(h) => self.bytes.push(h << 4 | digit as u8),
                None => high = Some(digit as u8),
            }
        }
        Err("unterminated hex block in content".to_string())
    }

    /// The current rule for the rule views: `None` when it has no content
    /// or one shorter than `min_len`, since evaluating it without that
    /// content would change its meaning. The content list and each
    /// content's bytes are allocated once, at exact size.
    fn rule(&self, sid: Option<u32>, min_len: usize) -> Option<Rule> {
        if self.contents.is_empty() || self.contents.iter().any(|c| c.len() < min_len) {
            return None;
        }
        let contents = self.contents.iter().map(|c| c.content(&self.bytes));
        Some(Rule::new(contents.collect()).with_sid(sid))
    }
}

/// The end of the option whose value starts at `i`: the index of the first
/// `;` outside double quotes, or `b.len()`. Inside quotes `\` escapes the
/// next byte.
fn option_end(b: &[u8], mut i: usize) -> usize {
    let mut quoted = false;
    while i < b.len() {
        match b[i] {
            b'\\' if quoted => i += 1,
            b'"' => quoted = !quoted,
            b';' if !quoted => return i,
            _ => {}
        }
        i += 1;
    }
    b.len()
}

/// The first index at or after `i` that is not whitespace.
fn skip_whitespace(body: &str, i: usize) -> usize {
    body.len() - body[i..].trim_ascii_start().len()
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
    fn an_escaped_character_contributes_its_utf8_bytes() {
        for (content, bytes) in [
            (r"a\中b", &[0x61, 0xE4, 0xB8, 0xAD, 0x62][..]),
            (r"a\é", &[0x61, 0xC3, 0xA9][..]),
            ("a\u{e9}", &[0x61, 0xC3, 0xA9][..]),
            (r#"\"\\\|\;\:\x"#, &b"\"\\|;:x"[..]),
        ] {
            let rule = format!(r#"alert tcp any any -> any 80 (content:"{content}"; sid:1;)"#);
            let set = parse_rules(&rule, ParseOptions::default()).unwrap();
            assert_eq!(set.iter().next().unwrap().1.bytes(), bytes, "{content}");
        }
    }

    #[test]
    fn every_malformed_content_errors_on_its_line() {
        for (body, message) in [
            (r#"content:abc; sid:1;"#, "not quoted"),
            (r#"content:"abc; sid:1;"#, "not quoted"),
            (r#"content:"a"b"c"; sid:1;"#, "not quoted"),
            (r#"content:"ab" x; sid:1;"#, "not quoted"),
            (r#"content:"|41 4|"; sid:1;"#, "odd-length"),
            (r#"content:"|4G|"; sid:1;"#, "invalid hex byte"),
            (r#"content:"|41"; sid:1;"#, "unterminated"),
            (r#"content:""; sid:1;"#, "empty content"),
            (r#"content:"||"; sid:1;"#, "empty content"),
            (r#"content:"ab\"#, "dangling escape"),
        ] {
            let text = format!(
                "# a comment\nalert tcp any any -> any 80 (content:\"fine\"; sid:2;)\n\
                 alert tcp any any -> any 80 ({body})\n"
            );
            let err = parse_ruleset(&text, ParseOptions::default()).unwrap_err();
            assert_eq!(err.line, 3, "{body}");
            assert!(err.message.contains(message), "{body}: {}", err.message);
        }
        // Whitespace around the quoted string is not an error.
        let spaced = r#"alert tcp any any -> any 80 (content:  "ab"  ; sid:3;)"#;
        let set = parse_rules(spaced, ParseOptions::default()).unwrap();
        assert_eq!(set.iter().next().unwrap().1.bytes(), b"ab");
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
