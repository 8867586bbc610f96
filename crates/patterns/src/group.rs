//! [`GroupedRuleSet`]: port/protocol partitioning of a ruleset, so a flow
//! is scanned against only the rules that can match it.
//!
//! Real Snort deployments carry tens of thousands of rules, but any given
//! flow only needs the few hundred whose headers name its protocol and
//! ports — Snort itself builds per-port rule groups for exactly this
//! reason, and keeping per-group pattern sets small is also what keeps the
//! filtering engines selective (Susik et al., "Multiple pattern matching
//! revisited"). This module partitions `(header, rule)` pairs (from
//! [`crate::snort::parse_grouped`]) into groups keyed by destination port,
//! source port, protocol, or the `any` catch-all:
//!
//! * a rule whose **destination** port spec is a small explicit set gets
//!   one [`GroupKey::Dst`] entry per port (`<>` rules additionally get the
//!   matching [`GroupKey::Src`] entries, so either orientation finds them);
//! * otherwise, a small explicit **source** set places it under
//!   [`GroupKey::Src`] the same way;
//! * otherwise it lands in its protocol's catch-all ([`GroupKey::Proto`]),
//!   and `ip` rules land in the global [`GroupKey::Any`] group.
//!
//! [`GroupedRuleSet::groups_for`] then selects, for a flow, its
//! destination-port group, source-port group, protocol catch-all and the
//! `any` group — **group selection over-approximates**: every selected
//! group a rule must be found in, it is in, but a selected group may hold
//! rules that do not apply to the flow (catch-alls, the other port's
//! rules). Scanners therefore check [`GroupedRuleSet::applies_to`] before
//! confirming a rule, which makes grouped scanning *exactly* equivalent to
//! scanning the monolithic set and filtering matches to the flow's
//! applicable rules post-hoc (property-tested in
//! `tests/grouped_differential.rs`).
//!
//! A rule may be a member of several groups; global rule identity lives in
//! [`GroupedRuleSet::monolithic`] order, and each [`RuleGroup`] maps its
//! local ids back through [`RuleGroup::global_id`].

use crate::arena::{ArenaBuilder, PatternArena};
use crate::ports::{Direction, FlowTuple, Proto, RuleHeader};
use crate::rule::{Rule, RuleId, RuleSet};
use std::collections::BTreeMap;
use std::fmt;

/// Largest explicit port set a spec may expand to and still get per-port
/// groups; wider specs go to the catch-all. Snort's own port-group
/// compiler uses a similar cutoff to bound group fan-out.
pub const MAX_GROUP_PORTS: usize = 16;

/// Identity of one port group.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum GroupKey {
    /// Rules whose destination port spec names this port explicitly.
    Dst(Proto, u16),
    /// Rules whose source port spec names this port explicitly (and the
    /// mirrored entries of bidirectional rules).
    Src(Proto, u16),
    /// Per-protocol catch-all: rules of this protocol with `any`, negated
    /// or wide port specs.
    Proto(Proto),
    /// The global catch-all: `ip` rules, merged into every lookup.
    Any,
}

impl fmt::Display for GroupKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroupKey::Dst(proto, port) => write!(f, "{proto}/dst:{port}"),
            GroupKey::Src(proto, port) => write!(f, "{proto}/src:{port}"),
            GroupKey::Proto(proto) => write!(f, "{proto}/any"),
            GroupKey::Any => f.write_str("any"),
        }
    }
}

/// One port group: a local [`RuleSet`] (with its own dense rule ids and
/// anchor pattern set, ready to compile one matcher for) plus the mapping
/// back to global rule ids.
#[derive(Clone, Debug)]
pub struct RuleGroup {
    key: GroupKey,
    set: RuleSet,
    global_ids: Vec<u32>,
}

impl RuleGroup {
    /// The group's key.
    pub fn key(&self) -> GroupKey {
        self.key
    }

    /// The group-local rule set (compile its
    /// [`RuleSet::anchors`] into the group's matcher).
    pub fn rules(&self) -> &RuleSet {
        &self.set
    }

    /// Maps a group-local rule id to the global (monolithic) rule id.
    pub fn global_id(&self, local: RuleId) -> RuleId {
        RuleId(self.global_ids[local.index()])
    }

    /// The full local→global id mapping.
    pub fn global_ids(&self) -> &[u32] {
        &self.global_ids
    }
}

/// A ruleset partitioned into port groups; see the module docs.
#[derive(Clone, Debug)]
pub struct GroupedRuleSet {
    groups: Vec<RuleGroup>,
    index: BTreeMap<GroupKey, usize>,
    headers: Vec<RuleHeader>,
    monolithic: RuleSet,
}

impl GroupedRuleSet {
    /// Partitions `(header, rule)` pairs into port groups. Global rule ids
    /// are the input order (== [`GroupedRuleSet::monolithic`] ids).
    pub fn new(rules: Vec<(RuleHeader, Rule)>) -> Self {
        let mut buckets: BTreeMap<GroupKey, Vec<u32>> = BTreeMap::new();
        for (gid, (header, _)) in rules.iter().enumerate() {
            for key in Self::keys_for(header) {
                let members = buckets.entry(key).or_default();
                // A bidirectional rule can produce the same key twice
                // (e.g. `<>` with port 445 on both sides); one membership
                // per group is enough.
                if members.last() != Some(&(gid as u32)) {
                    members.push(gid as u32);
                }
            }
        }
        let mut groups = Vec::with_capacity(buckets.len());
        let mut index = BTreeMap::new();
        for (key, global_ids) in buckets {
            let local_rules: Vec<Rule> = global_ids
                .iter()
                .map(|&gid| rules[gid as usize].1.clone())
                .collect();
            index.insert(key, groups.len());
            groups.push(RuleGroup {
                key,
                set: RuleSet::new(local_rules),
                global_ids,
            });
        }
        let (headers, monolithic_rules): (Vec<RuleHeader>, Vec<Rule>) = rules.into_iter().unzip();
        GroupedRuleSet {
            groups,
            index,
            headers,
            monolithic: RuleSet::new(monolithic_rules),
        }
    }

    /// The group keys a rule belongs to (deduplicated, deterministic
    /// order). Completeness invariant: for every flow the rule applies to,
    /// at least one of these keys is among the flow's selected keys — the
    /// destination/source cases cover explicit ports in either
    /// orientation, and everything else goes to a catch-all every flow of
    /// its protocol selects.
    fn keys_for(header: &RuleHeader) -> Vec<GroupKey> {
        if header.proto == Proto::Ip {
            // `ip` rules apply to flows of every protocol; the `Any` group
            // is merged into every lookup, so it is the one place they can
            // live without per-protocol duplication.
            return vec![GroupKey::Any];
        }
        let bidir = header.direction == Direction::Bidirectional;
        let mut keys = Vec::new();
        if let Some(ports) = header.dst.explicit_ports(MAX_GROUP_PORTS) {
            if !ports.is_empty() {
                for p in ports {
                    keys.push(GroupKey::Dst(header.proto, p));
                    if bidir {
                        keys.push(GroupKey::Src(header.proto, p));
                    }
                }
                return keys;
            }
        }
        if let Some(ports) = header.src.explicit_ports(MAX_GROUP_PORTS) {
            if !ports.is_empty() {
                for p in ports {
                    keys.push(GroupKey::Src(header.proto, p));
                    if bidir {
                        keys.push(GroupKey::Dst(header.proto, p));
                    }
                }
                return keys;
            }
        }
        // `any`, negated or wide specs — and unmatchable specs like
        // `[80,!80]`, which the applicability re-check rejects per flow.
        vec![GroupKey::Proto(header.proto)]
    }

    /// The groups a flow must be scanned against, as indices into
    /// [`GroupedRuleSet::groups`], in deterministic order: destination-port
    /// group, source-port group, protocol catch-all, `any` catch-all
    /// (present groups only).
    pub fn groups_for(&self, flow: FlowTuple) -> Vec<usize> {
        let candidates = [
            GroupKey::Dst(flow.proto, flow.dst_port),
            GroupKey::Src(flow.proto, flow.src_port),
            GroupKey::Proto(flow.proto),
            GroupKey::Any,
        ];
        candidates
            .iter()
            .filter_map(|key| self.index.get(key).copied())
            .collect()
    }

    /// All groups (index == what [`GroupedRuleSet::groups_for`] returns).
    pub fn groups(&self) -> &[RuleGroup] {
        &self.groups
    }

    /// One group by index.
    pub fn group(&self, index: usize) -> &RuleGroup {
        &self.groups[index]
    }

    /// The un-partitioned rule set (global rule ids).
    pub fn monolithic(&self) -> &RuleSet {
        &self.monolithic
    }

    /// Exact applicability of a (global) rule to a flow — the check a
    /// grouped scanner runs before a triggered rule may become pending, so
    /// over-approximate group selection never changes scan semantics.
    pub fn applies_to(&self, rule: RuleId, flow: FlowTuple) -> bool {
        self.headers[rule.index()].applies_to(flow)
    }

    /// Global ids of every rule that applies to `flow` (the post-hoc
    /// filter of the monolithic differential oracle).
    pub fn applicable_rules(&self, flow: FlowTuple) -> Vec<RuleId> {
        self.headers
            .iter()
            .enumerate()
            .filter(|(_, h)| h.applies_to(flow))
            .map(|(i, _)| RuleId(i as u32))
            .collect()
    }

    /// Number of rules (global).
    pub fn len(&self) -> usize {
        self.headers.len()
    }

    /// True if the set holds no rules.
    pub fn is_empty(&self) -> bool {
        self.headers.is_empty()
    }

    /// Interns every content byte string of every rule into one shared
    /// [`PatternArena`] — the first pass of the two-pass shared-table
    /// build. Covers all anchor patterns of every group *and* of the
    /// monolithic set (anchors are contents), so any table built for any
    /// of them can resolve its pattern bytes through the arena.
    pub fn build_arena(&self) -> PatternArena {
        let mut builder = ArenaBuilder::new();
        for rule in self.monolithic.rules() {
            for content in rule.contents() {
                builder.intern(content.bytes());
            }
        }
        builder.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ports::{parse_header, PortSpec};
    use crate::rule::RuleContent;
    use crate::snort::{parse_grouped, ParseOptions};

    fn grouped(text: &str) -> GroupedRuleSet {
        GroupedRuleSet::new(parse_grouped(text, ParseOptions::default()).unwrap())
    }

    const RULES: &str = r#"
alert tcp any any -> any 80 (msg:"web"; content:"GET /admin"; sid:1;)
alert tcp any any -> any [80,8080] (msg:"alt"; content:"X-Forward"; sid:2;)
alert udp any any -> any 53 (msg:"dns"; content:"query"; sid:3;)
alert tcp any 6667 -> any any (msg:"irc"; content:"PRIVMSG"; sid:4;)
alert tcp any any -> any !80 (msg:"notweb"; content:"tunnel"; sid:5;)
alert ip any any -> any any (msg:"anywhere"; content:"evil-bytes"; sid:6;)
alert tcp any 445 <> any any (msg:"smb"; content:"|ff|SMB"; sid:7;)
"#;

    #[test]
    fn partitioning_places_rules_by_port() {
        let g = grouped(RULES);
        let key_of = |i: usize| g.group(i).key();
        // Destination groups for 80 (rules 1, 2) and 8080 (rule 2 only).
        let flow80 = FlowTuple::new(Proto::Tcp, 40000, 80);
        let selected: Vec<GroupKey> = g.groups_for(flow80).into_iter().map(key_of).collect();
        assert_eq!(
            selected,
            vec![
                GroupKey::Dst(Proto::Tcp, 80),
                GroupKey::Proto(Proto::Tcp),
                GroupKey::Any
            ]
        );
        let dst80 = g.groups_for(flow80)[0];
        let globals: Vec<u32> = g.group(dst80).global_ids().to_vec();
        assert_eq!(globals, vec![0, 1]);

        let flow8080 = FlowTuple::new(Proto::Tcp, 40000, 8080);
        let dst8080 = g.groups_for(flow8080)[0];
        assert_eq!(g.group(dst8080).key(), GroupKey::Dst(Proto::Tcp, 8080));
        assert_eq!(g.group(dst8080).global_ids(), &[1]);

        // The negated-port rule and nothing else sits in the tcp catch-all.
        let catch_all = *g.index.get(&GroupKey::Proto(Proto::Tcp)).unwrap();
        assert_eq!(g.group(catch_all).global_ids(), &[4]);
        // The ip rule sits in Any.
        let any = *g.index.get(&GroupKey::Any).unwrap();
        assert_eq!(g.group(any).global_ids(), &[5]);
    }

    #[test]
    fn source_port_rules_group_by_source() {
        let g = grouped(RULES);
        let flow = FlowTuple::new(Proto::Tcp, 6667, 9999);
        let keys: Vec<GroupKey> = g
            .groups_for(flow)
            .into_iter()
            .map(|i| g.group(i).key())
            .collect();
        assert!(keys.contains(&GroupKey::Src(Proto::Tcp, 6667)));
    }

    #[test]
    fn bidirectional_rules_are_reachable_from_both_orientations() {
        let g = grouped(RULES);
        // smb rule (global 6): src spec 445, `<>`.
        for flow in [
            FlowTuple::new(Proto::Tcp, 445, 1000),
            FlowTuple::new(Proto::Tcp, 1000, 445),
        ] {
            let member = g
                .groups_for(flow)
                .into_iter()
                .any(|i| g.group(i).global_ids().contains(&6));
            assert!(member, "{flow:?} must reach the smb rule");
            assert!(g.applies_to(RuleId(6), flow));
        }
    }

    #[test]
    fn selection_is_complete_for_every_applicable_rule() {
        // The invariant grouped scanning rests on: every rule that applies
        // to a flow is a member of at least one selected group.
        let g = grouped(RULES);
        let ports = [53u16, 80, 445, 6667, 8080, 9999];
        for proto in [Proto::Tcp, Proto::Udp, Proto::Icmp] {
            for &src in &ports {
                for &dst in &ports {
                    let flow = FlowTuple::new(proto, src, dst);
                    let mut reachable: Vec<u32> = g
                        .groups_for(flow)
                        .into_iter()
                        .flat_map(|i| g.group(i).global_ids().iter().copied())
                        .collect();
                    reachable.sort_unstable();
                    for rule in g.applicable_rules(flow) {
                        assert!(
                            reachable.contains(&rule.0),
                            "rule {rule} applies to {flow:?} but no selected group holds it"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn local_rule_sets_are_self_contained() {
        let g = grouped(RULES);
        for group in g.groups() {
            assert_eq!(group.rules().len(), group.global_ids().len());
            // Local anchors compile independently; ids map back.
            assert_eq!(group.rules().anchors().len(), group.rules().len());
            for (local, _) in group.rules().iter() {
                let global = group.global_id(local);
                assert_eq!(
                    g.monolithic().get(global).contents().len(),
                    group.rules().get(local).contents().len()
                );
            }
        }
    }

    #[test]
    fn arena_covers_every_content_and_deduplicates() {
        let text = r#"
alert tcp any any -> any 80 (content:"dup-bytes"; sid:1;)
alert tcp any any -> any 443 (content:"dup-bytes"; sid:2;)
alert tcp any any -> any 25 (content:"unique"; sid:3;)
"#;
        let g = grouped(text);
        let arena = g.build_arena();
        assert_eq!(arena.len(), "dup-bytes".len() + "unique".len());
        for rule in g.monolithic().rules() {
            for content in rule.contents() {
                assert!(arena.offset_of(content.bytes()).is_some());
            }
        }
    }

    #[test]
    fn unmatchable_specs_go_to_the_catch_all_and_never_apply() {
        let header = parse_header("alert tcp any any -> any [80,!80]").unwrap();
        let rule = Rule::new(vec![RuleContent::new(*b"abcd")]);
        let g = GroupedRuleSet::new(vec![(header, rule)]);
        assert_eq!(g.groups()[0].key(), GroupKey::Proto(Proto::Tcp));
        let flow = FlowTuple::new(Proto::Tcp, 1, 80);
        assert!(!g.applies_to(RuleId(0), flow));
        assert!(g.applicable_rules(flow).is_empty());
    }

    #[test]
    fn wide_spec_rules_select_via_catch_all() {
        let header = parse_header("alert tcp any any -> any 1:1024").unwrap();
        let rule = Rule::new(vec![RuleContent::new(*b"wide")]);
        let g = GroupedRuleSet::new(vec![(header, rule)]);
        let flow = FlowTuple::new(Proto::Tcp, 40000, 22);
        let keys: Vec<GroupKey> = g
            .groups_for(flow)
            .into_iter()
            .map(|i| g.group(i).key())
            .collect();
        assert_eq!(keys, vec![GroupKey::Proto(Proto::Tcp)]);
        assert!(g.applies_to(RuleId(0), flow));
        assert!(!g.applies_to(RuleId(0), FlowTuple::new(Proto::Tcp, 40000, 2000)));
    }

    #[test]
    fn empty_spec_helpers() {
        let g = GroupedRuleSet::new(Vec::new());
        assert!(g.is_empty());
        assert_eq!(g.len(), 0);
        assert!(g.groups_for(FlowTuple::new(Proto::Tcp, 1, 2)).is_empty());
        let _ = PortSpec::any();
    }
}
