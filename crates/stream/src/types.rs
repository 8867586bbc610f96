//! The vocabulary of the multi-core scanner: what goes in ([`Packet`]) and
//! what comes out ([`FlowMatch`], [`FlowRuleMatch`]).

use mpm_patterns::ports::FlowTuple;
use mpm_patterns::rule::RuleId;
use mpm_patterns::MatchEvent;

/// One unit of work: a payload chunk belonging to a flow.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Flow identifier (e.g. a 5-tuple hash). Packets with equal ids are
    /// scanned in submission order on one worker, as one logical stream.
    pub flow: u64,
    /// The payload bytes of this packet.
    pub payload: Vec<u8>,
    /// Protocol + ports of the flow, used by grouped scanning
    /// ([`crate::ScannerBuilder::groups`]) to confirm only the rules whose
    /// headers apply to the flow. The flow takes its tuple once, from the
    /// **first** packet; tuples on later packets of the same flow are
    /// ignored (a flow's 5-tuple does not change mid-flow). `None` filters
    /// the flow's rules by nothing, exactly like a monolithic scan. Plain
    /// and rule mode ignore this field.
    pub tuple: Option<FlowTuple>,
}

impl Packet {
    /// Creates a packet with no flow tuple (grouped scanners filter its
    /// flow's rules by nothing).
    pub fn new(flow: u64, payload: impl Into<Vec<u8>>) -> Self {
        Packet {
            flow,
            payload: payload.into(),
            tuple: None,
        }
    }

    /// Creates a packet carrying the flow's protocol/port tuple (see
    /// [`Packet::tuple`]). Grouped scanning needs the tuple on the flow's
    /// **first** packet — taking it as a constructor argument (rather than
    /// a post-hoc builder) keeps a grouped scan from silently dropping it
    /// and degrading to scan-every-group.
    pub fn new_with_tuple(flow: u64, payload: impl Into<Vec<u8>>, tuple: FlowTuple) -> Self {
        Packet {
            flow,
            payload: payload.into(),
            tuple: Some(tuple),
        }
    }
}

/// A match, tagged with the flow it occurred in. `event.start` is the
/// absolute byte offset within that flow's stream.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct FlowMatch {
    /// The flow the pattern occurred in.
    pub flow: u64,
    /// The occurrence, with `start` in flow-stream coordinates.
    pub event: MatchEvent,
}

/// A confirmed rule, tagged with the flow it was confirmed in. `end` is the
/// minimal prefix length of that flow's stream at which the rule's
/// constraints became satisfiable (flow-stream coordinates, like
/// [`FlowMatch`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct FlowRuleMatch {
    /// The flow the rule was confirmed in.
    pub flow: u64,
    /// The confirmed rule.
    pub rule: RuleId,
    /// Minimal satisfiable prefix length of the flow's stream.
    pub end: usize,
}
