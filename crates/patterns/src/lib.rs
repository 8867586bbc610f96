//! Pattern-set substrate for the V-PATCH reproduction.
//!
//! This crate provides everything the matching engines need to know about
//! *what* they are matching:
//!
//! * [`Pattern`], [`PatternId`] and [`PatternSet`] — the exact byte patterns
//!   (Snort "content" strings) with protocol grouping, as used throughout the
//!   paper's evaluation;
//! * the [`Matcher`] trait and [`MatchEvent`] — the common interface every
//!   engine in this workspace implements (Aho-Corasick, DFC, Vector-DFC,
//!   S-PATCH, V-PATCH) so that their outputs can be compared byte-for-byte;
//! * [`naive::NaiveMatcher`] — an obviously-correct reference matcher used by
//!   the test suites as ground truth;
//! * [`rule`] — first-class multi-content rules with Snort's positional
//!   constraints (`offset`/`depth`/`distance`/`within`), anchor selection
//!   over set statistics, and a naive rule evaluator used as differential
//!   ground truth;
//! * [`snort`] — a parser for Snort rule syntax that extracts the exact-match
//!   `content:` strings (and, via [`snort::parse_ruleset`], whole
//!   multi-content rules), so real rulesets can be loaded when available;
//! * [`ports`] — a structured parser for the Snort rule *header* (protocol,
//!   port lists/ranges/negation, `$VAR` defaults, direction) with exact
//!   per-flow applicability ([`ports::RuleHeader::applies_to`]);
//! * [`group`] — [`group::GroupedRuleSet`], the port/protocol partitioning
//!   of a ruleset into per-group rule sets so a flow is scanned only
//!   against the groups that can match it;
//! * [`arena`] — [`arena::PatternArena`], the deduplicated shared byte
//!   store that keeps many per-group verification tables from multiplying
//!   pattern storage;
//! * [`synthetic`] — deterministic generators that reproduce the *structure*
//!   (count, length distribution, prefix collisions, protocol mix) of the
//!   Snort v2.9.7 ("S1") and ET-open 2.9.0 ("S2") rulesets used in the paper,
//!   which are not redistributable.
//!
//! The paper evaluates exact byte-level matching of thousands of patterns
//! against reassembled network streams; these types encode that model, plus
//! the per-pattern ASCII-case-insensitivity real Snort rules demand
//! ([`Pattern::is_nocase`], set by the parser from `nocase;` — see the
//! filter-folded / verify-exact contract in `DEVELOPMENT.md` for how the
//! engines implement it without slowing case-sensitive sets down).

#![warn(missing_docs)]

pub mod arena;
pub mod group;
pub mod matcher;
pub mod naive;
pub mod pattern;
pub mod ports;
pub mod rule;
pub mod snort;
pub mod stats;
pub mod synthetic;

pub use arena::{ArenaBuilder, PatternArena};
pub use group::{GroupKey, GroupedRuleSet, RuleGroup};
pub use matcher::{MatchEvent, Matcher, MatcherStats, MemoryFootprint};
pub use naive::NaiveMatcher;
pub use pattern::{fold_byte, Pattern, PatternId, PatternSet, ProtocolGroup};
pub use ports::{Direction, FlowTuple, PortSpec, PortVars, Proto, RuleHeader};
pub use rule::{Rule, RuleContent, RuleId, RuleMatch, RuleSet};
pub use stats::{LatencyHistogram, LatencySummary};
pub use synthetic::{RulesetSpec, SyntheticRuleset};
