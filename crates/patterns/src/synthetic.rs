//! Deterministic synthetic rulesets reproducing the structure of the
//! paper's pattern sets.
//!
//! The paper uses two rulesets it cannot redistribute:
//!
//! * **S1** — the Snort v2.9.7 distribution ruleset, ~2,500 patterns of which
//!   ~2,000 are HTTP-related;
//! * **S2** — the ET-open 2.9.0 ruleset, ~20,000 patterns of which ~9,000 are
//!   HTTP-related.
//!
//! What the matching engines are sensitive to is the *structure* of those
//! sets, not the exact byte strings: the number of patterns, the length
//! distribution (the paper reports 21% of Snort's patterns are 1–4 bytes
//! long), how many distinct two-byte prefixes exist (this controls the direct
//! filter density and therefore the filtering rate), and how often pattern
//! prefixes collide with common protocol keywords that appear in benign
//! traffic (this is what makes real traffic much harder than random data).
//!
//! The generators below synthesise sets with those properties from a fixed
//! vocabulary of HTTP/attack tokens plus controlled random filler, seeded
//! deterministically so that every run of the benchmarks sees the same set.

use crate::pattern::{Pattern, PatternSet};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::HashSet;

/// HTTP / web-attack vocabulary used to give synthetic patterns realistic
/// prefixes (so that, as in real rulesets, many patterns begin with byte
/// pairs that are frequent in benign HTTP traffic).
const HTTP_TOKENS: &[&str] = &[
    "GET ",
    "POST ",
    "HEAD ",
    "PUT ",
    "OPTIONS ",
    "TRACE ",
    "CONNECT ",
    "HTTP/1.1",
    "HTTP/1.0",
    "Host: ",
    "User-Agent: ",
    "Content-Type: ",
    "Content-Length: ",
    "Cookie: ",
    "Set-Cookie: ",
    "Referer: ",
    "Accept-Encoding: ",
    "X-Forwarded-For: ",
    "Authorization: Basic ",
    "/cgi-bin/",
    "/admin/",
    "/wp-login.php",
    "/phpmyadmin/",
    "/etc/passwd",
    "/bin/sh",
    "cmd.exe",
    "powershell",
    "/index.php?id=",
    "select%20",
    "union+select",
    "or+1=1",
    "../..",
    "%2e%2e%2f",
    "<script>",
    "</script>",
    "javascript:",
    "onerror=",
    "eval(",
    "base64_decode",
    "document.cookie",
    "xp_cmdshell",
    "wget+http",
    "curl+http",
    ".php?",
    ".asp?",
    ".jsp?",
    "Mozilla/4.0",
    "Mozilla/5.0",
    "MSIE 6.0",
    "sqlmap",
    "nikto",
    "nessus",
    "masscan",
    "zgrab",
    "shellshock",
    "() { :;};",
    "Range: bytes=",
    "Transfer-Encoding: chunked",
    "multipart/form-data",
    "boundary=",
    "application/x-www-form-urlencoded",
    "Proxy-Connection: ",
];

/// Tokens used for non-HTTP (DNS/FTP/SMTP/other) pattern heads.
const OTHER_TOKENS: &[&str] = &[
    "USER ",
    "PASS ",
    "RETR ",
    "STOR ",
    "SITE EXEC",
    "MAIL FROM:",
    "RCPT TO:",
    "EHLO ",
    "HELO ",
    "AUTH LOGIN",
    "VRFY ",
    "EXPN ",
    "\\x90\\x90",
    "MZ",
    "PK\x03\x04",
    "SMB",
    "\\\\PIPE\\\\",
    "ADMIN$",
    "IPC$",
    "ncacn_np",
    "DCC SEND",
    "PRIVMSG ",
    "NICK ",
    "JOIN #",
];

/// Specification for a synthetic ruleset. The presets
/// [`RulesetSpec::snort_s1`] and [`RulesetSpec::et_open_s2`] reproduce the
/// paper's two sets; custom specs are useful for the scaling sweeps.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RulesetSpec {
    /// Total number of patterns in the full set.
    pub total_patterns: usize,
    /// Fraction of patterns generated from the HTTP vocabulary.
    pub http_fraction: f64,
    /// Fraction of patterns that are short (1–3 bytes) — the paper reports
    /// 21% of Snort patterns are 1–4 bytes; with a 4-byte boundary between
    /// filter classes we keep the short class slightly smaller.
    pub short_fraction: f64,
    /// RNG seed; the same spec + seed always generates the same set.
    pub seed: u64,
}

impl RulesetSpec {
    /// Preset matching the Snort v2.9.7 ruleset "S1" (~2,500 patterns,
    /// ~2,000 of them web-related).
    pub fn snort_s1() -> Self {
        RulesetSpec {
            total_patterns: 2_500,
            http_fraction: 0.80,
            short_fraction: 0.06,
            seed: 0x51_2017,
        }
    }

    /// Preset matching the ET-open 2.9.0 ruleset "S2" (~20,000 patterns,
    /// ~9,000 of them web-related).
    pub fn et_open_s2() -> Self {
        RulesetSpec {
            total_patterns: 20_000,
            http_fraction: 0.45,
            short_fraction: 0.04,
            seed: 0x52_2017,
        }
    }

    /// A small spec for unit tests and doc examples.
    pub fn tiny(total: usize, seed: u64) -> Self {
        RulesetSpec {
            total_patterns: total,
            http_fraction: 0.7,
            short_fraction: 0.2,
            seed,
        }
    }
}

/// A generated ruleset: the full pattern set plus the HTTP selection the
/// paper's experiments match against HTTP traces.
#[derive(Clone, Debug)]
pub struct SyntheticRuleset {
    spec: RulesetSpec,
    full: PatternSet,
    /// Index-parallel to `full`: true if the pattern is in [`Self::http`].
    in_http: Vec<bool>,
}

impl SyntheticRuleset {
    /// Generates the ruleset described by `spec`.
    pub fn generate(spec: RulesetSpec) -> Self {
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let mut seen: HashSet<Vec<u8>> = HashSet::with_capacity(spec.total_patterns * 2);
        let mut patterns = Vec::with_capacity(spec.total_patterns);
        let mut in_http = Vec::with_capacity(spec.total_patterns);

        let n_http = (spec.total_patterns as f64 * spec.http_fraction).round() as usize;
        while patterns.len() < spec.total_patterns {
            let is_http = patterns.len() < n_http;
            // The remainder is spread over DNS, FTP, SMTP and other services
            // and, on a draw of 6 out of 0..10, protocol-agnostic content,
            // which the HTTP selection keeps. Only non-HTTP patterns draw.
            let selected = is_http || rng.gen_range(0..10) == 6;
            let bytes = generate_pattern_bytes(&mut rng, spec, is_http);
            // Keep patterns distinct: duplicates would only inflate the match
            // counts without changing engine behaviour, and real rulesets are
            // overwhelmingly distinct strings.
            if seen.insert(bytes.clone()) {
                patterns.push(Pattern::literal(bytes));
                in_http.push(selected);
            }
        }
        SyntheticRuleset {
            spec,
            full: PatternSet::new(patterns),
            in_http,
        }
    }

    /// Generates the S1 (Snort-like) ruleset.
    pub fn snort_like_s1() -> Self {
        Self::generate(RulesetSpec::snort_s1())
    }

    /// Generates the S2 (ET-open-like) ruleset.
    pub fn et_open_like_s2() -> Self {
        Self::generate(RulesetSpec::et_open_s2())
    }

    /// The specification this ruleset was generated from.
    pub fn spec(&self) -> RulesetSpec {
        self.spec
    }

    /// The full pattern set (every service).
    pub fn full(&self) -> &PatternSet {
        &self.full
    }

    /// The HTTP selection (HTTP patterns plus protocol-agnostic ones), in
    /// the order of [`Self::full`], which is what the paper matches against
    /// its HTTP-dominated traces.
    pub fn http(&self) -> PatternSet {
        self.full
            .patterns()
            .iter()
            .zip(&self.in_http)
            .filter(|(_, &selected)| selected)
            .map(|(p, _)| p.clone())
            .collect()
    }
}

/// Generates the bytes of one synthetic pattern.
fn generate_pattern_bytes(rng: &mut StdRng, spec: RulesetSpec, http: bool) -> Vec<u8> {
    let tokens = if http { HTTP_TOKENS } else { OTHER_TOKENS };
    let roll: f64 = rng.gen();
    if roll < spec.short_fraction {
        // Short pattern, 2–3 bytes. Real rulesets keep these rare and mostly
        // uncommon byte sequences ("MZ", "|90 90|", protocol opcodes): a
        // short content that appears in every benign request would render the
        // rule useless. Only a small minority are prefixes of common protocol
        // keywords ("GET"), which is what makes the short-pattern filter of
        // S-PATCH fire regularly on real traffic without flooding it.
        let len = if rng.gen_bool(0.15) { 2usize } else { 3 };
        if rng.gen_bool(0.08) {
            let tok = tokens.choose(rng).unwrap().as_bytes();
            let len = len.min(tok.len());
            tok[..len].to_vec()
        } else if rng.gen_bool(0.5) {
            const RARE: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_#@!$^~";
            (0..len)
                .map(|_| RARE[rng.gen_range(0..RARE.len())])
                .collect()
        } else {
            (0..len).map(|_| rng.gen::<u8>()).collect()
        }
    } else {
        // Long pattern: token head (often) + filler tail. Length distribution
        // is a truncated geometric-ish mix: bulk in 5–30 bytes with a tail up
        // to ~250 bytes, mirroring the published CDFs for Snort contents.
        let tail_len = if rng.gen_bool(0.9) {
            rng.gen_range(2..28usize)
        } else {
            rng.gen_range(28..250usize)
        };
        let mut bytes = Vec::with_capacity(tail_len + 16);
        if rng.gen_bool(0.45) {
            bytes.extend_from_slice(tokens.choose(rng).unwrap().as_bytes());
        }
        // Filler: printable URI-ish characters most of the time, raw bytes
        // otherwise (binary shellcode-like patterns).
        let binary = rng.gen_bool(0.15);
        for _ in 0..tail_len {
            let b = if binary {
                rng.gen::<u8>()
            } else {
                const URI: &[u8] =
                    b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-._~/?=&%+";
                URI[rng.gen_range(0..URI.len())]
            };
            bytes.push(b);
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticRuleset::generate(RulesetSpec::tiny(200, 7));
        let b = SyntheticRuleset::generate(RulesetSpec::tiny(200, 7));
        assert_eq!(a.full(), b.full());
        let c = SyntheticRuleset::generate(RulesetSpec::tiny(200, 8));
        assert_ne!(a.full(), c.full());
    }

    #[test]
    fn s1_spec_matches_paper_scale() {
        let rs = SyntheticRuleset::generate(RulesetSpec {
            total_patterns: 2_500,
            ..RulesetSpec::snort_s1()
        });
        assert_eq!(rs.full().len(), 2_500);
        let http = rs.http();
        // Paper: "the HTTP-related patterns of each set gives us 2K patterns
        // from pattern set S1".
        assert!(
            (1_800..=2_300).contains(&http.len()),
            "S1 HTTP selection should be ~2K, got {}",
            http.len()
        );
    }

    #[test]
    fn patterns_are_distinct_and_non_empty() {
        let rs = SyntheticRuleset::generate(RulesetSpec::tiny(500, 3));
        let mut seen = std::collections::HashSet::new();
        for (_, p) in rs.full().iter() {
            assert!(!p.bytes().is_empty());
            assert!(
                seen.insert(p.bytes().to_vec()),
                "duplicate pattern generated"
            );
        }
    }

    #[test]
    fn short_fraction_is_respected_roughly() {
        let spec = RulesetSpec {
            total_patterns: 2_000,
            http_fraction: 0.8,
            short_fraction: 0.2,
            seed: 11,
        };
        let rs = SyntheticRuleset::generate(spec);
        let summary = rs.full().summary();
        let frac = summary.short_count as f64 / summary.count as f64;
        assert!(
            (0.10..=0.30).contains(&frac),
            "short fraction {frac} out of expected band"
        );
    }

    #[test]
    fn length_distribution_has_a_long_tail() {
        let rs = SyntheticRuleset::generate(RulesetSpec::tiny(2_000, 5));
        let summary = rs.full().summary();
        assert!(summary.min_len >= 1);
        assert!(summary.max_len > 60, "expected some long patterns");
        assert!(summary.mean_len > 5.0 && summary.mean_len < 60.0);
    }

    #[test]
    fn http_selection_contains_http_heads() {
        let rs = SyntheticRuleset::snort_like_s1();
        let http = rs.http();
        let with_get = http
            .iter()
            .filter(|(_, p)| p.bytes().starts_with(b"GET") || p.bytes().starts_with(b"POST"))
            .count();
        assert!(
            with_get > 0,
            "HTTP selection should contain method-prefixed patterns"
        );
    }
}
