//! Structured Snort rule-header parsing: protocols, port specifications and
//! the per-flow applicability test that port-group scanning is built on.
//!
//! A Snort rule header has the shape
//!
//! ```text
//! action proto src_ip src_ports direction dst_ip dst_ports
//! ```
//!
//! and the port fields carry a small language of their own: single ports
//! (`80`), ranges (`1:1024`, `:1024`, `1024:`), `any`, negation (`!80`),
//! bracketed lists mixing all of those (`[80,8080,1:100,!90]`) and `$VAR`
//! references resolved against the deployment's variable definitions
//! (`$HTTP_PORTS`). This module parses that language into [`PortSpec`] —
//! normalized inclusive ranges plus a whole-spec negation flag — so that
//! "does this rule apply to a flow with these ports?" is an exact interval
//! query instead of the string heuristics the parser used before (which
//! classified port `8080` as HTTP because `"8080".contains("80")`).
//!
//! [`RuleHeader::applies_to`] is the single source of truth for rule↔flow
//! applicability; the port-group partitioning in [`crate::group`] is an
//! over-approximating index on top of it (a flow's selected groups always
//! contain every rule that applies), and grouped scanning re-checks
//! `applies_to` before reporting so the index never changes semantics.

use std::collections::BTreeMap;
use std::fmt;

/// Transport protocol of a rule header or a flow.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Proto {
    /// TCP.
    Tcp,
    /// UDP.
    Udp,
    /// ICMP (no ports; port specs on icmp rules are accepted and ignored by
    /// Snort, and [`PortSpec::matches`] treats the conventional port 0 the
    /// same way any other number is treated).
    Icmp,
    /// `ip` — matches traffic of any protocol.
    Ip,
}

impl Proto {
    /// Parses a protocol token (`tcp` / `udp` / `icmp` / `ip`,
    /// case-insensitive).
    pub fn parse(token: &str) -> Option<Proto> {
        [Proto::Tcp, Proto::Udp, Proto::Icmp, Proto::Ip]
            .into_iter()
            .find(|proto| token.eq_ignore_ascii_case(proto.keyword()))
    }

    /// The protocol's keyword in rule text.
    fn keyword(self) -> &'static str {
        match self {
            Proto::Tcp => "tcp",
            Proto::Udp => "udp",
            Proto::Icmp => "icmp",
            Proto::Ip => "ip",
        }
    }

    /// True if a rule declared for `self` applies to traffic of
    /// `flow_proto`: `ip` rules apply to everything, otherwise the
    /// protocols must match exactly.
    #[inline]
    pub fn accepts(self, flow_proto: Proto) -> bool {
        self == Proto::Ip || self == flow_proto
    }
}

impl fmt::Display for Proto {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// Direction operator of a rule header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// `->`: source criteria on the left, destination on the right.
    Unidirectional,
    /// `<>`: the rule applies with the criteria in either orientation.
    Bidirectional,
}

/// The transport 5-tuple subset a scanner knows about a flow: protocol and
/// the two ports. This is what [`RuleHeader::applies_to`] and
/// [`crate::group::GroupedRuleSet::groups_for`] select on.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowTuple {
    /// Transport protocol of the flow (a concrete protocol, not `ip`).
    pub proto: Proto,
    /// Source port (0 for port-less protocols).
    pub src_port: u16,
    /// Destination port (0 for port-less protocols).
    pub dst_port: u16,
}

impl FlowTuple {
    /// Creates a flow tuple.
    pub fn new(proto: Proto, src_port: u16, dst_port: u16) -> Self {
        FlowTuple {
            proto,
            src_port,
            dst_port,
        }
    }
}

/// A parsed port specification: normalized inclusive ranges with optional
/// per-item and whole-spec negation.
///
/// Matching semantics (`matches`): a port is matched when it is covered by
/// the included ranges (an empty include list means "any") **and** not
/// covered by the excluded ranges (`[1:100,!80]`); a leading `!` on the
/// whole spec (`!80`, `![80,443]`) then flips the result. `!any` is
/// rejected — it can never match and Snort rejects it too.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PortSpec {
    /// Normalized (sorted, merged) included ranges; empty means `any`.
    included: Vec<(u16, u16)>,
    /// Normalized excluded ranges (from `!item` inside a list).
    excluded: Vec<(u16, u16)>,
    /// Whole-spec negation (`!80`, `![..]`).
    negated: bool,
}

/// Deployment variable table for `$VAR` port references, with Snort-like
/// defaults for the well-known names. Unknown variables resolve to `any` —
/// the conservative choice: a rule whose ports we cannot pin down must stay
/// applicable to every flow rather than silently vanish.
#[derive(Clone, Debug)]
pub struct PortVars {
    vars: BTreeMap<String, Vec<(u16, u16)>>,
}

impl Default for PortVars {
    fn default() -> Self {
        let mut vars = BTreeMap::new();
        let mut def = |name: &str, ports: &[(u16, u16)]| {
            vars.insert(name.to_string(), ports.to_vec());
        };
        // The usual snort.conf defaults (trimmed to the well-known service
        // ports; single ports are degenerate ranges).
        def(
            "http_ports",
            &[
                (80, 80),
                (81, 81),
                (311, 311),
                (591, 591),
                (8000, 8000),
                (8008, 8008),
                (8080, 8080),
                (8888, 8888),
            ],
        );
        def("ftp_ports", &[(21, 21), (2100, 2100)]);
        def("smtp_ports", &[(25, 25), (465, 465), (587, 587)]);
        def("dns_ports", &[(53, 53)]);
        def("ssh_ports", &[(22, 22)]);
        def("sip_ports", &[(5060, 5061)]);
        def("oracle_ports", &[(1521, 1521)]);
        PortVars { vars }
    }
}

impl PortVars {
    /// An empty table: every `$VAR` resolves to `any`.
    pub fn empty() -> Self {
        PortVars {
            vars: BTreeMap::new(),
        }
    }

    /// Defines (or overrides) a variable as a list of inclusive ranges.
    pub fn define(&mut self, name: &str, ranges: &[(u16, u16)]) {
        self.vars.insert(name.to_ascii_lowercase(), ranges.to_vec());
    }

    /// The ranges of a variable, if defined (name is case-insensitive).
    pub fn lookup(&self, name: &str) -> Option<&[(u16, u16)]> {
        self.vars
            .iter()
            .find(|(defined, _)| defined.eq_ignore_ascii_case(name))
            .map(|(_, ranges)| ranges.as_slice())
    }
}

/// Sorts and merges a list of inclusive ranges, in place.
fn normalize(mut ranges: Vec<(u16, u16)>) -> Vec<(u16, u16)> {
    ranges.sort_unstable();
    // Adjacent or overlapping ranges fuse into the earlier one (saturating:
    // 65535 has no successor).
    ranges.dedup_by(|&mut (lo, hi), (_, last_hi)| {
        let fuses = lo <= last_hi.saturating_add(1);
        if fuses {
            *last_hi = (*last_hi).max(hi);
        }
        fuses
    });
    ranges
}

/// True if `port` falls in any of the (normalized) ranges.
fn covers(ranges: &[(u16, u16)], port: u16) -> bool {
    ranges.iter().any(|&(lo, hi)| lo <= port && port <= hi)
}

impl PortSpec {
    /// The `any` specification.
    pub fn any() -> Self {
        PortSpec::default()
    }

    /// A spec matching exactly one port.
    pub fn single(port: u16) -> Self {
        PortSpec {
            included: vec![(port, port)],
            ..PortSpec::default()
        }
    }

    /// Parses a port-field token of a rule header against `vars`.
    ///
    /// Accepted syntax: `any`, `N`, `N:M`, `:M`, `N:`, `$VAR`, `!spec`,
    /// and bracketed comma-separated lists `[item,item,...]` where each
    /// item is any of the above except another list (nesting is rejected).
    /// A spec that names a variable `vars` does not define matches every
    /// port, wherever the variable stands (`!$X`, `[$X]`, `[80,!$X]`).
    pub fn parse(token: &str, vars: &PortVars) -> Result<PortSpec, String> {
        let token = token.trim();
        if token.is_empty() {
            return Err("empty port specification".to_string());
        }
        let (negated, rest) = match token.strip_prefix('!') {
            Some(rest) => (true, rest.trim()),
            None => (false, token),
        };
        if rest.eq_ignore_ascii_case("any") {
            if negated {
                // `!any` matches nothing; Snort rejects it outright.
                return Err("'!any' can never match".to_string());
            }
            return Ok(PortSpec::any());
        }
        let mut included = Vec::new();
        let mut excluded = Vec::new();
        let mut unknown_var = false;
        let list = rest.strip_prefix('[');
        if let Some(inner) = list {
            let inner = inner
                .strip_suffix(']')
                .ok_or_else(|| format!("unterminated port list {token:?}"))?;
            for item in inner.split(',') {
                let item = item.trim();
                if item.is_empty() {
                    return Err(format!("empty item in port list {token:?}"));
                }
                if item.contains('[') {
                    return Err(format!("nested port lists are not supported: {token:?}"));
                }
                let (exclude, item) = match item.strip_prefix('!') {
                    Some(rest) => (true, rest.trim()),
                    None => (false, item),
                };
                let target = if exclude {
                    &mut excluded
                } else {
                    &mut included
                };
                Self::parse_item(item, vars, target, &mut unknown_var)?;
            }
        } else {
            Self::parse_item(rest, vars, &mut included, &mut unknown_var)?;
        }
        if unknown_var {
            // An unresolved variable could stand for any port, so nothing
            // built around it (a negation, an exclusion, a list) may rule a
            // port out — never drop a rule from a flow it might apply to.
            return Ok(PortSpec::any());
        }
        if list.is_some() && included.is_empty() && excluded.is_empty() {
            return Err(format!("empty port list {token:?}"));
        }
        Ok(PortSpec {
            included: normalize(included),
            excluded: normalize(excluded),
            negated,
        })
    }

    /// Parses one atomic item (`N`, `N:M`, `:M`, `N:`, `$VAR`) into `out`,
    /// setting `unknown_var` if the item names a variable `vars` lacks.
    fn parse_item(
        item: &str,
        vars: &PortVars,
        out: &mut Vec<(u16, u16)>,
        unknown_var: &mut bool,
    ) -> Result<(), String> {
        if let Some(name) = item.strip_prefix('$') {
            if name.is_empty() {
                return Err("empty variable name '$'".to_string());
            }
            match vars.lookup(name) {
                Some(ranges) => out.extend_from_slice(ranges),
                // An unknown variable contributes no ranges; `parse` widens
                // a spec that names one to `any`.
                None => *unknown_var = true,
            }
            return Ok(());
        }
        let parse_port = |s: &str| -> Result<u16, String> {
            s.parse::<u16>()
                .map_err(|_| format!("invalid port {s:?} (expected 0..=65535)"))
        };
        if let Some((lo, hi)) = item.split_once(':') {
            let lo = if lo.trim().is_empty() {
                0
            } else {
                parse_port(lo.trim())?
            };
            let hi = if hi.trim().is_empty() {
                u16::MAX
            } else {
                parse_port(hi.trim())?
            };
            if lo > hi {
                return Err(format!("inverted port range {item:?}"));
            }
            out.push((lo, hi));
        } else {
            let p = parse_port(item)?;
            out.push((p, p));
        }
        Ok(())
    }

    /// True if the spec matches `port` (see the type docs for semantics).
    pub fn matches(&self, port: u16) -> bool {
        let base = (self.included.is_empty() || covers(&self.included, port))
            && !covers(&self.excluded, port);
        base != self.negated
    }

    /// True if the spec matches every port (`any`, or an unknown `$VAR`).
    pub fn is_any(&self) -> bool {
        !self.negated && self.included.is_empty() && self.excluded.is_empty()
    }

    /// The explicit ports of a small, non-negated inclusion spec: the exact
    /// set of ports it matches, when that set has at most `max` members.
    /// `None` for `any`, negated specs, and specs wider than `max` — the
    /// cases the port-group partitioner sends to a catch-all group instead.
    pub fn explicit_ports(&self, max: usize) -> Option<Vec<u16>> {
        if self.negated || self.included.is_empty() {
            return None;
        }
        let mut ports = Vec::new();
        for &(lo, hi) in &self.included {
            if (hi - lo) as usize >= max {
                return None;
            }
            for p in lo..=hi {
                if !covers(&self.excluded, p) {
                    ports.push(p);
                }
                if ports.len() > max {
                    return None;
                }
            }
        }
        ports.sort_unstable();
        ports.dedup();
        Some(ports)
    }
}

/// A parsed rule header: everything to the left of the option parenthesis.
#[derive(Clone, PartialEq, Debug)]
pub struct RuleHeader {
    /// The action keyword (`alert`, `log`, ...), kept verbatim.
    pub action: String,
    /// Transport protocol the rule applies to.
    pub proto: Proto,
    /// Source port specification.
    pub src: PortSpec,
    /// Destination port specification.
    pub dst: PortSpec,
    /// `->` or `<>`.
    pub direction: Direction,
}

impl RuleHeader {
    /// A protocol-agnostic catch-all header (`alert ip any any -> any any`),
    /// the header synthetic rules without real headers get.
    pub fn any() -> Self {
        RuleHeader {
            action: "alert".to_string(),
            proto: Proto::Ip,
            src: PortSpec::any(),
            dst: PortSpec::any(),
            direction: Direction::Unidirectional,
        }
    }

    /// Convenience constructor for a unidirectional rule header.
    pub fn new(proto: Proto, src: PortSpec, dst: PortSpec) -> Self {
        RuleHeader {
            action: "alert".to_string(),
            proto,
            src,
            dst,
            direction: Direction::Unidirectional,
        }
    }

    /// **The** rule↔flow applicability test: protocol accepted, and the
    /// port specs matched in the header's orientation (or either
    /// orientation for `<>` rules). Grouped scanning reports a rule only if
    /// this holds, so group selection can over-approximate freely.
    pub fn applies_to(&self, flow: FlowTuple) -> bool {
        if !self.proto.accepts(flow.proto) {
            return false;
        }
        let forward = self.src.matches(flow.src_port) && self.dst.matches(flow.dst_port);
        match self.direction {
            Direction::Unidirectional => forward,
            Direction::Bidirectional => {
                forward || (self.src.matches(flow.dst_port) && self.dst.matches(flow.src_port))
            }
        }
    }
}

/// Parses a rule header (`action proto src_ip src_ports dir dst_ip
/// dst_ports`) with the default variable table.
pub fn parse_header(header: &str) -> Result<RuleHeader, String> {
    parse_header_with_vars(header, &PortVars::default())
}

/// Parses a rule header against an explicit variable table.
pub fn parse_header_with_vars(header: &str, vars: &PortVars) -> Result<RuleHeader, String> {
    let mut tokens = [""; 7];
    let mut fields = 0;
    for token in header.split_whitespace() {
        if let Some(slot) = tokens.get_mut(fields) {
            *slot = token;
        }
        fields += 1;
    }
    if fields != 7 {
        return Err(format!(
            "malformed rule header (expected 'action proto src_ip src_ports direction \
             dst_ip dst_ports', got {fields} fields)"
        ));
    }
    let proto = Proto::parse(tokens[1]).ok_or_else(|| {
        format!(
            "unknown protocol {:?} (expected tcp|udp|icmp|ip)",
            tokens[1]
        )
    })?;
    let src = PortSpec::parse(tokens[3], vars)
        .map_err(|e| format!("bad source ports {:?}: {e}", tokens[3]))?;
    let direction = match tokens[4] {
        "->" => Direction::Unidirectional,
        "<>" => Direction::Bidirectional,
        other => return Err(format!("unknown direction operator {other:?}")),
    };
    let dst = PortSpec::parse(tokens[6], vars)
        .map_err(|e| format!("bad destination ports {:?}: {e}", tokens[6]))?;
    Ok(RuleHeader {
        action: tokens[0].to_string(),
        proto,
        src,
        dst,
        direction,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(token: &str) -> PortSpec {
        PortSpec::parse(token, &PortVars::default()).unwrap()
    }

    #[test]
    fn single_port_and_any() {
        let s = spec("80");
        assert!(s.matches(80));
        assert!(!s.matches(8080));
        assert!(!s.matches(800));
        assert!(!s.matches(1808));
        assert!(spec("any").matches(0));
        assert!(spec("any").matches(65535));
        assert!(spec("any").is_any());
    }

    #[test]
    fn ranges_open_and_closed() {
        let s = spec("1:1024");
        assert!(s.matches(1) && s.matches(1024) && s.matches(512));
        assert!(!s.matches(0) && !s.matches(1025));
        let low = spec(":1024");
        assert!(low.matches(0) && low.matches(1024) && !low.matches(1025));
        let high = spec("1024:");
        assert!(high.matches(1024) && high.matches(65535) && !high.matches(1023));
    }

    #[test]
    fn negation_flips_the_whole_spec() {
        let s = spec("!80");
        assert!(!s.matches(80));
        assert!(s.matches(81) && s.matches(8080));
        let list = spec("![80,443:445]");
        assert!(!list.matches(80) && !list.matches(444));
        assert!(list.matches(442) && list.matches(446));
    }

    #[test]
    fn lists_with_embedded_exclusions() {
        let s = spec("[80,8080]");
        assert!(s.matches(80) && s.matches(8080));
        assert!(!s.matches(81));
        let hole = spec("[1:100,!80]");
        assert!(hole.matches(79) && hole.matches(81) && hole.matches(1));
        assert!(!hole.matches(80) && !hole.matches(101));
    }

    #[test]
    fn http_ports_var_resolves_to_defaults() {
        let s = spec("$HTTP_PORTS");
        for p in [80u16, 8080, 8000, 8888] {
            assert!(s.matches(p), "port {p} is in the default $HTTP_PORTS");
        }
        assert!(!s.matches(25));
    }

    #[test]
    fn unknown_vars_resolve_to_any() {
        let s = spec("$NO_SUCH_VAR");
        assert!(s.is_any());
        assert!(s.matches(80) && s.matches(12345));
    }

    #[test]
    fn an_unknown_var_makes_the_spec_any_wherever_it_stands() {
        for token in [
            "$NOPE",
            "!$NOPE",
            "[$NOPE]",
            "[!$NOPE]",
            "![$NOPE]",
            "[80,$NOPE]",
            "[1:100,!$NOPE]",
            "![$HTTP_PORTS,$NOPE]",
        ] {
            let s = spec(token);
            assert!(s.is_any(), "{token} must not rule any port out");
            assert!(s.matches(0) && s.matches(80) && s.matches(u16::MAX));
        }
        // A resolved variable keeps its negation and its place in a list.
        assert!(!spec("!$HTTP_PORTS").matches(80));
        assert!(!spec("[$HTTP_PORTS,!8080]").matches(8080));
    }

    #[test]
    fn custom_vars_override_defaults() {
        let mut vars = PortVars::default();
        vars.define("HTTP_PORTS", &[(3128, 3128)]);
        let s = PortSpec::parse("$HTTP_PORTS", &vars).unwrap();
        assert!(s.matches(3128));
        assert!(!s.matches(80));
    }

    #[test]
    fn variable_names_are_case_insensitive() {
        let vars = PortVars::default();
        for name in ["$Http_Ports", "$http_ports", "$HTTP_PORTS"] {
            let s = PortSpec::parse(name, &vars).unwrap();
            assert!(s.matches(8080) && !s.matches(22), "{name}");
        }
        assert_eq!(vars.lookup("Ssh_Ports"), Some(&[(22, 22)][..]));
    }

    #[test]
    fn malformed_specs_error() {
        let vars = PortVars::default();
        for bad in [
            "!any", "", "80000", "abc", "10:5", "[80", "[]", "[,]", "[[80]]", "$",
        ] {
            assert!(
                PortSpec::parse(bad, &vars).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn explicit_ports_extraction() {
        assert_eq!(spec("80").explicit_ports(16), Some(vec![80]));
        assert_eq!(spec("[80,8080]").explicit_ports(16), Some(vec![80, 8080]));
        assert_eq!(spec("[1:4,!2]").explicit_ports(16), Some(vec![1, 3, 4]));
        assert_eq!(spec("any").explicit_ports(16), None);
        assert_eq!(spec("!80").explicit_ports(16), None);
        assert_eq!(spec("1:1024").explicit_ports(16), None);
    }

    #[test]
    fn header_parsing_and_applicability() {
        let h = parse_header("alert tcp $EXTERNAL_NET any -> $HOME_NET $HTTP_PORTS").unwrap();
        assert_eq!(h.proto, Proto::Tcp);
        assert_eq!(h.direction, Direction::Unidirectional);
        assert!(h.applies_to(FlowTuple::new(Proto::Tcp, 49152, 80)));
        assert!(h.applies_to(FlowTuple::new(Proto::Tcp, 49152, 8080)));
        assert!(!h.applies_to(FlowTuple::new(Proto::Tcp, 49152, 25)));
        assert!(!h.applies_to(FlowTuple::new(Proto::Udp, 49152, 80)));
        // Unidirectional: the ports do not apply in reverse.
        assert!(!h.applies_to(FlowTuple::new(Proto::Tcp, 80, 49152)));
    }

    #[test]
    fn bidirectional_headers_apply_both_ways() {
        let h = parse_header("alert tcp any 445 <> any any").unwrap();
        assert!(h.applies_to(FlowTuple::new(Proto::Tcp, 445, 1000)));
        assert!(h.applies_to(FlowTuple::new(Proto::Tcp, 1000, 445)));
        assert!(!h.applies_to(FlowTuple::new(Proto::Tcp, 1000, 1001)));
    }

    #[test]
    fn ip_rules_accept_all_protocols() {
        let h = parse_header("alert ip any any -> any any").unwrap();
        for proto in [Proto::Tcp, Proto::Udp, Proto::Icmp] {
            assert!(h.applies_to(FlowTuple::new(proto, 1, 2)));
        }
    }

    #[test]
    fn malformed_headers_error() {
        assert!(parse_header("alert tcp any any ->").is_err());
        assert!(parse_header("alert xyz any any -> any 80").is_err());
        assert!(parse_header("alert tcp any any <- any 80").is_err());
        assert!(parse_header("alert tcp any 10:5 -> any 80").is_err());
        assert!(parse_header("alert tcp any any -> any !any").is_err());
    }
}
