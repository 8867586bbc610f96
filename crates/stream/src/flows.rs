//! [`FlowTable`]: the flows resident on one pipeline worker, and the whole
//! policy of which ones stay — [`FlowTable::touch`] for a packet,
//! [`FlowTable::close`], [`FlowTable::sweep_idle`]. The pipeline suites
//! check its close and least-recently-pushed eviction order against a naive
//! scan that cuts each flow into segments at the same points
//! (`tests/pipeline_equivalence.rs`).

use crate::worker::{mix64, FlowScanner};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::time::{Duration, Instant};

/// One flow's stream state plus bookkeeping for recency eviction and
/// epoch accounting.
pub(crate) struct FlowSlot {
    pub(crate) scanner: FlowScanner,
    /// Sequence number of the flow's latest packet on this worker (the
    /// recency key).
    seq: u64,
    /// Arrival time of the flow's latest packet (drives `idle_after`).
    last_seen: Instant,
    /// The ruleset epoch the flow's scanner was minted from.
    pub(crate) epoch: u64,
}

impl FlowSlot {
    pub(crate) fn seq(&self) -> u64 {
        self.seq
    }
}

/// Hasher of a worker's flow table: flow ids are already run through
/// [`mix64`] to pick the worker, and the same finalizer spreads them over the
/// table's buckets for a few cycles where SipHash spends tens of ns per
/// packet. It is a bijection on `u64`, so distinct ids never share a hash.
#[derive(Default)]
struct FlowIdHasher(u64);

impl Hasher for FlowIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = mix64(self.0 ^ id);
    }

    /// Not reached by `u64` keys; folds byte-wise so any other key still
    /// hashes all of its bytes.
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }
}

/// What [`FlowTable::touch`] shows its `admit` predicate before it changes
/// anything.
pub(crate) enum Seen<'a> {
    /// The flow is resident, as its previous packet left it.
    Resident(&'a FlowSlot),
    /// The flow would be minted — after the least-recently-pushed flow is
    /// retired for it, if `evicts`.
    Absent { evicts: bool },
}

/// The flows resident on one worker.
#[derive(Default)]
pub(crate) struct FlowTable {
    flows: HashMap<u64, FlowSlot, BuildHasherDefault<FlowIdHasher>>,
    /// seq → flow, maintained when a limit is set. Touch order == recency
    /// order, so the least-recently-pushed flow is the first entry and the
    /// idle sweep never looks past a fresh flow.
    recency: BTreeMap<u64, u64>,
    next_seq: u64,
    /// This worker's share of the flow cap.
    max_flows: Option<usize>,
    idle_after: Option<Duration>,
    /// Flows retired by the cap or the idle sweep since `take_evicted`.
    evicted: u64,
}

impl FlowTable {
    pub(crate) fn new(max_flows: Option<usize>, idle_after: Option<Duration>) -> Self {
        FlowTable {
            max_flows,
            idle_after,
            ..Self::default()
        }
    }

    /// The sequence number the next admitted touch stamps: a slot whose
    /// [`FlowSlot::seq`] is not below a value read here was touched since.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// A packet of `flow` arrived at `now`: finds the flow's slot, minting
    /// it with `mint` under `epoch` if the flow is not resident — at the cap
    /// the least-recently-pushed flow is retired first, like a close — and
    /// stamps it most recently pushed. `admit` sees what was found before
    /// anything changes; when it refuses, nothing does and `None` comes back.
    /// Without a limit this is one hash lookup (the insert of a new flow
    /// included) and no index operation.
    #[inline]
    pub(crate) fn touch(
        &mut self,
        flow: u64,
        now: Instant,
        epoch: u64,
        admit: impl Fn(Seen<'_>) -> bool,
        mint: impl FnOnce() -> FlowScanner,
    ) -> Option<&mut FlowSlot> {
        let tracked = self.max_flows.is_some() || self.idle_after.is_some();
        let seq = self.next_seq;
        // Room is made before the flow's own lookup, which holds the map.
        let evicts = self.max_flows.is_some_and(|cap| self.flows.len() >= cap)
            && !self.flows.contains_key(&flow);
        if evicts {
            if !admit(Seen::Absent { evicts }) {
                return None;
            }
            let (_, oldest) = self
                .recency
                .pop_first()
                .expect("cap >= 1, so the index is non-empty");
            self.flows.remove(&oldest);
            self.evicted += 1;
        }
        let slot = match self.flows.entry(flow) {
            Entry::Occupied(entry) => {
                let slot = entry.into_mut();
                if !admit(Seen::Resident(slot)) {
                    return None;
                }
                if tracked {
                    self.recency.remove(&slot.seq);
                }
                slot.seq = seq;
                slot.last_seen = now;
                slot
            }
            Entry::Vacant(entry) => {
                if !evicts && !admit(Seen::Absent { evicts }) {
                    return None;
                }
                entry.insert(FlowSlot {
                    scanner: mint(),
                    seq,
                    last_seen: now,
                    epoch,
                })
            }
        };
        if tracked {
            self.recency.insert(seq, flow);
        }
        self.next_seq += 1;
        Some(slot)
    }

    /// Retires a finished flow; an unknown one is a no-op.
    pub(crate) fn close(&mut self, flow: u64) {
        if let Some(slot) = self.flows.remove(&flow) {
            self.recency.remove(&slot.seq);
        }
    }

    /// Retires the flows whose last packet is `idle_after` or more before
    /// `now`, looking only at the (touch-ordered) front of the recency
    /// index: it stops at the first fresh flow.
    pub(crate) fn sweep_idle(&mut self, now: Instant) {
        let Some(idle_after) = self.idle_after else {
            return;
        };
        while let Some((&seq, &flow)) = self.recency.first_key_value() {
            let stale = now
                .checked_duration_since(self.flows[&flow].last_seen)
                .is_some_and(|idle| idle >= idle_after);
            if !stale {
                break;
            }
            self.recency.remove(&seq);
            self.flows.remove(&flow);
            self.evicted += 1;
        }
    }

    pub(crate) fn take_evicted(&mut self) -> u64 {
        std::mem::take(&mut self.evicted)
    }

    pub(crate) fn len(&self) -> usize {
        self.flows.len()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &FlowSlot)> {
        self.flows.iter().map(|(&flow, slot)| (flow, slot))
    }

    /// A resident flow's slot, without touching it.
    pub(crate) fn get_mut(&mut self, flow: u64) -> Option<&mut FlowSlot> {
        self.flows.get_mut(&flow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamScanner;
    use mpm_patterns::{NaiveMatcher, PatternSet};
    use std::sync::Arc;

    fn scanner() -> FlowScanner {
        let set = PatternSet::from_literals(&["needle"]);
        FlowScanner::Plain(StreamScanner::new(Arc::new(NaiveMatcher::new(&set)), &set))
    }

    /// A packet nothing refuses.
    fn touch(table: &mut FlowTable, flow: u64, now: Instant) {
        assert!(table.touch(flow, now, 0, |_| true, scanner).is_some());
    }

    fn resident(table: &FlowTable) -> Vec<u64> {
        let mut flows: Vec<u64> = table.iter().map(|(flow, _)| flow).collect();
        flows.sort_unstable();
        flows
    }

    #[test]
    fn the_cap_evicts_what_a_naive_lru_evicts() {
        let now = Instant::now();
        for cap in [1usize, 2, 7] {
            let mut table = FlowTable::new(Some(cap), None);
            // The model: resident flows, least recently touched first.
            let mut model: Vec<u64> = Vec::new();
            let mut evicted = 0;
            for step in 0..4000u64 {
                let roll = mix64(step ^ ((cap as u64) << 32));
                let flow = roll % 24;
                let was_resident = model.contains(&flow);
                model.retain(|&f| f != flow);
                if (roll >> 32) & 7 == 0 {
                    table.close(flow);
                } else {
                    if !was_resident && model.len() == cap {
                        model.remove(0);
                        evicted += 1;
                    }
                    model.push(flow);
                    touch(&mut table, flow, now);
                }
                let mut expected = model.clone();
                expected.sort_unstable();
                assert_eq!(resident(&table), expected, "cap {cap}, step {step}");
                assert_eq!(table.recency.len(), table.len());
            }
            assert!(evicted > 100);
            assert_eq!((table.take_evicted(), table.take_evicted()), (evicted, 0));
        }
    }

    #[test]
    fn the_idle_sweep_takes_the_stale_front_and_stops_at_the_first_fresh_flow() {
        let base = Instant::now();
        let tick = Duration::from_millis(10);
        let at = |n: u32| base + tick * n;
        let mut table = FlowTable::new(None, Some(tick * 5));
        touch(&mut table, 1, at(0));
        touch(&mut table, 2, at(1));
        touch(&mut table, 3, at(4));
        // Touched after flow 3 but on an older clock reading: stale by
        // `last_seen`, and behind a fresh flow in the index.
        touch(&mut table, 4, at(0));
        table.sweep_idle(at(4));
        assert_eq!(resident(&table), [1, 2, 3, 4]);
        // Idle for exactly the timeout goes (`>=`); one tick fresher stays.
        table.sweep_idle(at(5));
        assert_eq!(resident(&table), [2, 3, 4]);
        // Flow 3 is fresh, so the sweep never reaches flow 4 behind it.
        table.sweep_idle(at(8));
        assert_eq!(resident(&table), [3, 4]);
        table.sweep_idle(at(9));
        assert_eq!((table.len(), table.take_evicted()), (0, 4));

        // A zero timeout retires a flow touched at the instant of the sweep.
        let mut table = FlowTable::new(None, Some(Duration::ZERO));
        touch(&mut table, 1, at(3));
        table.sweep_idle(at(3));
        assert_eq!(table.len(), 0);

        // Cap and timeout compose: the cap retires flow 1 for flow 3, the
        // sweep then retires flow 2, and both are counted.
        let mut table = FlowTable::new(Some(2), Some(tick * 5));
        touch(&mut table, 1, at(0));
        touch(&mut table, 2, at(1));
        touch(&mut table, 3, at(5));
        assert_eq!(resident(&table), [2, 3]);
        table.sweep_idle(at(6));
        assert_eq!(resident(&table), [3]);
        assert_eq!((table.take_evicted(), table.recency.len()), (2, 1));
    }

    #[test]
    fn a_refused_touch_changes_nothing() {
        let base = Instant::now();
        let mut table = FlowTable::new(Some(2), Some(Duration::from_secs(60)));
        touch(&mut table, 1, base);
        touch(&mut table, 2, base);
        let index = table.recency.clone();
        // Refuses `flow`, checking what the predicate is shown: the slot's
        // seq for a resident flow, else whether the mint would evict.
        let refuse = |table: &mut FlowTable, flow: u64, expected: Result<u64, bool>| {
            let admit = |seen: Seen<'_>| {
                let saw = match seen {
                    Seen::Resident(slot) => Ok(slot.seq()),
                    Seen::Absent { evicts } => Err(evicts),
                };
                assert_eq!(saw, expected, "flow {flow}");
                false
            };
            let later = base + Duration::from_secs(1);
            let refused = table.touch(flow, later, 9, admit, || unreachable!("never minted"));
            assert!(refused.is_none());
        };
        refuse(&mut table, 1, Ok(0));
        refuse(&mut table, 3, Err(true));
        assert_eq!(
            (table.len(), table.next_seq(), &table.recency),
            (2, 2, &index)
        );
        let slot = table.get_mut(1).expect("still resident");
        assert_eq!((slot.seq, slot.last_seen, slot.epoch), (0, base, 0));
        // With room made by a close, the mint would not evict.
        table.close(2);
        refuse(&mut table, 3, Err(false));
        assert_eq!((resident(&table), table.next_seq()), (vec![1], 2));
        assert_eq!(table.take_evicted(), 0);
    }

    #[test]
    fn without_a_limit_the_recency_index_stays_empty() {
        let now = Instant::now();
        let mut table = FlowTable::new(None, None);
        for step in 0..10_000u64 {
            touch(&mut table, mix64(step) % 300, now);
            assert!(table.recency.is_empty());
        }
        assert_eq!((table.len(), table.next_seq()), (300, 10_000));
        table.sweep_idle(now + Duration::from_secs(3600));
        assert_eq!(table.len(), 300);
    }
}
