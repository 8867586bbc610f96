//! [`PipelineScanner`]: the continuously-running multi-core scanner.
//!
//! Each worker thread owns a **bounded SPSC job ring** ([`crate::ring`]) it
//! drains continuously and a bounded SPSC output ring it streams matches
//! into. Dispatch is flow-affine (same flow ⇒ same worker ⇒ coherent stream
//! state) and nothing joins: a slow shard only delays its own flows, and a
//! full job ring pushes back on the dispatcher
//! ([`PipelineScanner::dispatch`] blocks, draining that worker's output
//! ring while it waits, so backpressure can never deadlock) instead of
//! queueing unboundedly.
//!
//! On top of the free-running workers this module adds what a production
//! runtime needs:
//!
//! * **Latency observability** — every packet is stamped at dispatch; the
//!   owning worker records queue+scan latency into a per-worker
//!   [`LatencyHistogram`] (log-bucketed, ~3.2% resolution), merged at
//!   [`PipelineScanner::drain`] into pipeline-wide p50/p99/p999 alongside
//!   per-worker utilization and ring-occupancy high-water marks
//!   ([`PipelineStats`], [`WorkerStats`]).
//! * **Time+LRU hybrid eviction** — [`crate::ScannerBuilder::max_flows`]
//!   bounds resident flows with least-recently-pushed eviction, and
//!   [`crate::ScannerBuilder::idle_after`] adds an idle timeout: flows
//!   whose last packet is older than the timeout are swept lazily (the
//!   recency index is push-ordered, so the sweep only ever inspects the
//!   front), the NIDS analogue of a reassembly idle timer. Both are
//!   enforced in one place, the worker's flow table (`flows.rs`): a packet
//!   finds, admits, stamps and retires its flow there.
//! * **Graceful ruleset hot-swap** — [`PipelineScanner::swap_rules`] (and
//!   `swap_engine`/`swap_groups`) builds the new compile product on the
//!   caller's thread, then flips it under the workers via an epoch-stamped
//!   control message that rides the same FIFO rings as packets. Flows
//!   minted before the swap keep scanning under the ruleset they started
//!   with until they close or evict (no torn reads, no mid-flow semantic
//!   change); flows first seen after the swap use the new one. Because the
//!   swap marker is FIFO-ordered against packets per worker, which flows
//!   land on which epoch is a function of the dispatch order alone —
//!   deterministic across worker counts (`tests/hot_swap.rs`).
//! * **Worker supervision** — each worker runs its job loop under
//!   `catch_unwind`. A panicking worker ships a death report (message plus
//!   every resident flow) through its output ring and exits; the
//!   dispatcher detects the closed ring, **respawns** the worker with a
//!   fresh scanner map at the current ruleset epoch, reclaims the jobs the
//!   dead worker never popped, and **quarantines** the flows whose stream
//!   state died with it (reported as [`FlowError`]s in
//!   [`PipelineStats::flow_errors`], never silently dropped). A worker
//!   that vanishes without a report (a hard crash, simulated by the fault
//!   harness) is also respawned, and the gap is surfaced once as
//!   [`PipelineError::WorkerLost`] from the next
//!   [`PipelineScanner::drain`]/[`PipelineScanner::poll`] — those methods
//!   return `Result` precisely so supervision can never turn into a silent
//!   hang.
//! * **Overload policy** — [`crate::BackpressurePolicy`] sets how long a
//!   dispatch may wait for a slot in a full job ring before it drops the
//!   packet and counts it ([`PipelineStats::shed_packets`]): for ever
//!   (`Block`, the default and the lossless one), at most a bound
//!   (`BlockTimeout`) or not at all (`Shed`). One bounded-wait push serves
//!   all three and every control job. Shedding loses payload bytes by
//!   design — an overloaded IDS that sheds predictably beats one that
//!   stalls its capture loop.
//! * **Bounded rule buffers** — [`crate::ScannerBuilder::max_flow_buffer`]
//!   caps each flow's rule-confirmation payload buffer; over the cap a
//!   flow degrades to anchor-only reporting
//!   ([`crate::RuleStreamScanner::with_max_buffer`] has the exact
//!   contract), with [`PipelineStats::degraded_flows`],
//!   [`PipelineStats::truncated_bytes`] and the
//!   [`PipelineStats::buffered_bytes`] gauge as the observability.
//!
//! Equivalence contract: under the default `Block` policy, `dispatch* +
//! drain` (or [`PipelineScanner::scan_batch`]) reports, for each stream
//! segment of each flow, what one scan of that segment's bytes reports. A
//! segment runs from the packet that mints the flow to its close or to its
//! eviction as the least recently pushed flow of its worker. The pipeline
//! suites check the sorted `matches`/`rule_matches` against a naive scan of
//! every such segment (`tests/pipeline_equivalence.rs`).

use crate::fault::FaultPlan;
use crate::flows::{FlowTable, Seen};
use crate::group::GroupedEngineSet;
use crate::ring::{self, Consumer, Producer, PushError};
use crate::rules::RuleStreamScanner;
use crate::stream::{SharedMatcher, Staged, StreamScanner, STAGE_MAX};
use crate::types::{FlowMatch, FlowRuleMatch, Packet};
use crate::worker::{worker_of, FlowScanner, WorkerMode};
use mpm_patterns::rule::{RuleMatch, RuleSet};
use mpm_patterns::stats::{LatencyHistogram, LatencySummary};
use mpm_patterns::{MatchEvent, MatcherStats, PatternSet};
use std::collections::HashSet;
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Jobs flowing control→worker through the bounded job ring.
enum PipeJob {
    /// Scan one packet; `enqueued` is the dispatch timestamp the worker
    /// turns into the packet's queue+scan latency sample.
    Packet { packet: Packet, enqueued: Instant },
    /// Drop a finished flow's stream state.
    CloseFlow(u64),
    /// Hot-swap: scan flows minted from here on with `mode` under `epoch`.
    /// Boxed: swaps are rare, and inline the mode would make every slot of
    /// every job ring larger than a packet needs.
    Swap { mode: Box<WorkerMode>, epoch: u64 },
    /// Collection point: emit a [`FlushReport`] for the interval since the
    /// last flush and reset the interval accumulators.
    Flush { token: u64 },
}

/// Results flowing worker→control through the bounded output ring.
enum Out {
    Match(FlowMatch),
    Rule(FlowRuleMatch),
    /// Boxed: the interval histogram is ~15 KiB and flushes are rare; the
    /// common `Match`/`Rule` variants stay ring-slot sized.
    Flushed(Box<FlushReport>),
    /// The worker caught a panic and is about to exit: its last words,
    /// carrying the flows whose state dies with it. Boxed like `Flushed`.
    Died(Box<DeathReport>),
}

/// A dying worker's final message through its output ring.
struct DeathReport {
    message: String,
    /// `(flow, buffered rule bytes)` for every flow resident at death,
    /// sorted by flow id for deterministic reporting.
    flows: Vec<(u64, u64)>,
}

/// One worker's interval telemetry, shipped through its output ring at
/// every [`PipelineScanner::drain`].
struct FlushReport {
    worker: usize,
    token: u64,
    stats: MatcherStats,
    latency: LatencyHistogram,
    busy_nanos: u64,
    wall_nanos: u64,
    evicted: u64,
    resident_flows: usize,
    old_epoch_flows: usize,
    /// Gauge: rule-payload bytes buffered across resident flows at flush.
    buffered_bytes: u64,
    /// Gauge: resident flows currently degraded (over the buffer cap).
    degraded_flows: u64,
    /// Interval counter: bytes truncated past flow buffer caps.
    truncated_bytes: u64,
}

/// Per-worker telemetry for one drain interval (see
/// [`PipelineStats::workers`]).
#[derive(Clone, Debug)]
pub struct WorkerStats {
    /// Worker index (== the value [`PipelineScanner::worker_of`] shards to).
    pub worker: usize,
    /// Packets scanned this interval.
    pub packets: u64,
    /// Payload bytes scanned this interval.
    pub bytes: u64,
    /// Nanoseconds spent processing jobs this interval.
    pub busy_nanos: u64,
    /// Wall nanoseconds of the interval on this worker.
    pub wall_nanos: u64,
    /// High-water mark of the worker's job-ring occupancy, observed at
    /// dispatch time (an occupancy near [`WorkerStats::ring_capacity`]
    /// means this shard is the bottleneck).
    pub max_ring_occupancy: usize,
    /// Capacity of the worker's job ring.
    pub ring_capacity: usize,
    /// Flows evicted this interval (LRU cap + idle timeout combined).
    pub evicted: u64,
    /// Flows resident on this worker at flush time.
    pub resident_flows: usize,
    /// Packets shed at this worker's ring this interval (only nonzero
    /// under the `Shed`/`BlockTimeout` backpressure policies).
    pub shed_packets: u64,
}

impl WorkerStats {
    /// Fraction of the interval the worker spent processing jobs, in
    /// `[0, 1]` — the utilization figure next to p99 in the bench report.
    pub fn utilization(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            (self.busy_nanos as f64 / self.wall_nanos as f64).min(1.0)
        }
    }
}

/// Record of one worker respawn (see [`PipelineStats::worker_restarts`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerRestart {
    /// The worker that died and was respawned.
    pub worker: usize,
    /// The panic message the worker died with, or a placeholder when it
    /// vanished without reporting.
    pub message: String,
}

/// A flow quarantined by a worker death (see
/// [`PipelineStats::flow_errors`]): its stream state — carry bytes, rule
/// progress, buffered payload — died with the worker, so its results are
/// incomplete. Packets of the flow still queued on the dead worker are
/// dropped (a fresh mid-stream scanner would report wrong offsets);
/// packets arriving after the respawn start a fresh stream at offset 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowError {
    /// The quarantined flow.
    pub flow: u64,
    /// The worker the flow was resident on when it died.
    pub worker: usize,
    /// Rule-payload bytes the flow's one buffer held at death.
    pub buffered_bytes: u64,
}

/// Errors surfaced by the pipeline's worker supervision — returned instead
/// of hanging, which is what a dead worker used to cause.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum PipelineError {
    /// A worker thread terminated without a death report (a hard crash, as
    /// opposed to a caught panic). The worker has already been respawned
    /// and the pipeline keeps running, but its resident flows were lost
    /// *without* per-flow accounting — this error is surfaced exactly once
    /// so the caller knows coverage has a hole. The next call succeeds.
    WorkerLost {
        /// Index of the worker that vanished.
        worker: usize,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::WorkerLost { worker } => {
                write!(f, "pipeline worker {worker} terminated without a report")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// Result of one [`PipelineScanner::drain`]: everything the pipeline
/// produced since the previous drain (minus what
/// [`PipelineScanner::poll`] already handed out), plus latency and
/// utilization telemetry.
#[derive(Clone, Debug)]
pub struct PipelineStats {
    /// All matches of the interval, sorted by `(flow, start, pattern)`, with
    /// `start` counted from the start of the flow's stream segment. In rule
    /// mode these are the anchor hits; grouped mode reports none.
    pub matches: Vec<FlowMatch>,
    /// Rules confirmed during the interval, sorted by `(flow, rule, end)`.
    pub rule_matches: Vec<FlowRuleMatch>,
    /// Scan statistics summed over all workers (exact, deterministic).
    pub stats: MatcherStats,
    /// Flows resident across all workers at drain time.
    pub resident_flows: usize,
    /// Flows evicted during the interval (LRU cap + idle timeout).
    pub evicted_flows: u64,
    /// Per-packet queue+scan latency percentiles, merged across workers.
    pub latency: LatencySummary,
    /// The merged histogram behind [`PipelineStats::latency`] — kept so
    /// callers (the bench harness) can merge intervals/runs before taking
    /// percentiles, which summaries cannot do.
    pub histogram: LatencyHistogram,
    /// Per-worker telemetry, indexed by worker.
    pub workers: Vec<WorkerStats>,
    /// Times a dispatch found a job ring full and had to wait this
    /// interval — nonzero means the traffic source outran a shard and
    /// backpressure engaged.
    pub backpressure_waits: u64,
    /// Packets dropped at full rings this interval, summed over workers
    /// (the `Shed`/`BlockTimeout` policies; always zero under `Block`).
    pub shed_packets: u64,
    /// The ruleset epoch current at drain time (bumped by every swap).
    pub epoch: u64,
    /// Flows still scanning under a pre-swap ruleset (they drain
    /// gracefully; see the module docs on hot-swap).
    pub old_epoch_flows: usize,
    /// Gauge: rule-confirmation payload bytes buffered across all resident
    /// flows at drain time — the memory the per-flow
    /// [`crate::ScannerBuilder::max_flow_buffer`] cap bounds.
    pub buffered_bytes: u64,
    /// Gauge: resident flows that exceeded the buffer cap and degraded to
    /// anchor-only reporting.
    pub degraded_flows: u64,
    /// Payload bytes past flow buffer caps this interval — scanned for
    /// anchors but never eligible for rule confirmation.
    pub truncated_bytes: u64,
    /// Workers respawned during the interval, in recovery order.
    pub worker_restarts: Vec<WorkerRestart>,
    /// Flows quarantined by worker deaths during the interval, sorted by
    /// flow id within each death.
    pub flow_errors: Vec<FlowError>,
}

/// What bounds a worker's per-flow state, and the fault plan it consults:
/// declared here once, held by the dispatcher and cloned into every worker
/// it spawns or respawns.
#[derive(Clone)]
pub(crate) struct Limits {
    /// One worker's share of the flow cap (already divided).
    pub(crate) max_flows: Option<usize>,
    pub(crate) idle_after: Option<Duration>,
    pub(crate) max_flow_buffer: Option<usize>,
    /// Set only by [`crate::ScannerBuilder::fault_plan`]; every fault hook
    /// is reached through it, so a pipeline without one skips them all.
    pub(crate) plan: Option<Arc<FaultPlan>>,
}

/// Continuously-running multi-core scanner: bounded rings, flow-affine
/// dispatch, no per-batch barrier. Built by [`crate::ScannerBuilder::build`].
///
/// ```
/// use mpm_patterns::{NaiveMatcher, PatternSet};
/// use mpm_stream::{Packet, ScannerBuilder};
/// use std::sync::Arc;
///
/// let rules = PatternSet::from_literals(&["attack"]);
/// let engine: mpm_stream::SharedMatcher = Arc::from(NaiveMatcher::new(&rules));
/// let mut pipeline = ScannerBuilder::new()
///     .engine(engine, &rules)
///     .workers(2)
///     .build()
///     .expect("valid configuration");
///
/// pipeline.dispatch(Packet::new(7, b"...att".to_vec()));
/// pipeline.dispatch(Packet::new(7, b"ack...".to_vec()));
/// let stats = pipeline.drain().expect("workers alive");
/// assert_eq!(stats.matches.len(), 1);
/// assert_eq!(stats.latency.count, 2); // every packet is a latency sample
/// ```
pub struct PipelineScanner {
    workers: Vec<WorkerHandle>,
    /// The current compile product — retained so a respawned worker is
    /// minted at the newest mode (kept in sync by `swap`).
    mode: WorkerMode,
    epoch: u64,
    flush_token: u64,
    pending_matches: Vec<FlowMatch>,
    pending_rules: Vec<FlowRuleMatch>,
    pending_reports: Vec<FlushReport>,
    /// Respawns since the last drain.
    pending_restarts: Vec<WorkerRestart>,
    /// Quarantined flows since the last drain.
    pending_flow_errors: Vec<FlowError>,
    /// Workers that vanished without a death report; each entry is
    /// surfaced once as [`PipelineError::WorkerLost`].
    lost: Vec<usize>,
    backpressure_waits: u64,
    ring_capacity: usize,
    /// How long a packet dispatch may wait for a slot (`None`: for ever) —
    /// the [`crate::BackpressurePolicy`], as [`PipelineScanner::push`]
    /// takes it.
    patience: Option<Duration>,
    limits: Limits,
}

struct WorkerHandle {
    /// `Option` so `Drop` can hang up by dropping the producer in place
    /// (and so recovery can take it to reclaim buffered jobs).
    jobs: Option<Producer<PipeJob>>,
    out: Consumer<Out>,
    thread: Thread,
    handle: Option<JoinHandle<()>>,
    /// Control-side high-water mark of the job ring, per drain interval.
    max_occupancy: usize,
    /// Packets shed at this worker's ring, per drain interval.
    shed: u64,
    /// Death report pumped off the output ring, held until recovery
    /// consumes it.
    died: Option<DeathReport>,
}

impl PipelineScanner {
    pub(crate) fn spawn(
        mode: WorkerMode,
        workers: usize,
        ring_capacity: usize,
        patience: Option<Duration>,
        limits: Limits,
    ) -> Self {
        // Invariant: `ScannerBuilder` validated the count (BuildError::ZeroWorkers).
        assert!(workers > 0, "need at least one worker");
        let mut scanner = PipelineScanner {
            workers: Vec::new(),
            mode: mode.with_flow_cap(limits.max_flow_buffer),
            epoch: 0,
            flush_token: 0,
            pending_matches: Vec::new(),
            pending_rules: Vec::new(),
            pending_reports: Vec::new(),
            pending_restarts: Vec::new(),
            pending_flow_errors: Vec::new(),
            lost: Vec::new(),
            backpressure_waits: 0,
            ring_capacity,
            patience,
            limits,
        };
        scanner.workers = (0..workers).map(|w| scanner.spawn_worker(w)).collect();
        scanner
    }

    /// Spawns worker `index` with fresh rings, at the current mode and epoch.
    fn spawn_worker(&self, index: usize) -> WorkerHandle {
        let (jobs_tx, jobs_rx) = ring::spsc(self.ring_capacity);
        // Output rings are wider than job rings: one packet can produce many
        // matches, and headroom there keeps workers from stalling on their own
        // results.
        let (out_tx, out_rx) = ring::spsc(self.ring_capacity * 4);
        let (mode, epoch, limits) = (self.mode.clone(), self.epoch, self.limits.clone());
        let handle = std::thread::spawn(move || {
            PipelineWorker::new(index, mode, epoch, limits, jobs_rx, out_tx).run()
        });
        WorkerHandle {
            jobs: Some(jobs_tx),
            out: out_rx,
            thread: handle.thread().clone(),
            handle: Some(handle),
            max_occupancy: 0,
            shed: 0,
            died: None,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Capacity of each worker's job ring, as configured.
    pub fn ring_capacity(&self) -> usize {
        self.ring_capacity
    }

    /// The ruleset epoch new flows are minted under (0 until the first
    /// swap).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The worker a flow is pinned to: a fixed mix of the flow id modulo the
    /// worker count, so a flow's packets always share a worker and its
    /// stream state.
    pub fn worker_of(&self, flow: u64) -> usize {
        worker_of(flow, self.workers.len())
    }

    /// Sends one packet to its flow's worker; returns `false` iff the
    /// packet was shed. A full job ring makes dispatch wait for a slot,
    /// draining that worker's output ring meanwhile so backpressure can
    /// never deadlock — the pipeline's bounded-memory guarantee — for as
    /// long as the [`crate::BackpressurePolicy`] allows: for ever under
    /// `Block` (the default; always `true`), at most `limit` under
    /// `BlockTimeout(limit)`, not at all under `Shed`. A packet that runs
    /// out of patience is dropped and counted
    /// ([`PipelineStats::shed_packets`]).
    ///
    /// A dead worker encountered here is recovered transparently (see the
    /// module docs on supervision); dispatch itself never errors.
    pub fn dispatch(&mut self, packet: Packet) -> bool {
        let worker = self.worker_of(packet.flow);
        let job = PipeJob::Packet {
            packet,
            enqueued: Instant::now(),
        };
        self.push(worker, job, self.patience)
    }

    /// Retires a finished flow, freeing its stream state on the owning
    /// worker, FIFO-ordered against the flow's packets: a packet dispatched
    /// after the close starts a fresh stream at offset 0. Closing an unknown
    /// flow is a no-op. Never shed, regardless of policy.
    pub fn close_flow(&mut self, flow: u64) {
        let worker = self.worker_of(flow);
        self.push(worker, PipeJob::CloseFlow(flow), None);
    }

    /// Non-blocking result pump: drains whatever the workers have pushed so
    /// far and returns it **unsorted** (arrival order). Use this from a
    /// live loop that wants matches as they happen; results handed out here
    /// are *not* repeated by the next [`PipelineScanner::drain`].
    ///
    /// # Errors
    /// [`PipelineError::WorkerLost`] once per worker that vanished without
    /// a death report (it has already been respawned; the next call
    /// succeeds).
    pub fn poll(&mut self) -> Result<(Vec<FlowMatch>, Vec<FlowRuleMatch>), PipelineError> {
        self.check_workers();
        if let Some(err) = self.take_lost() {
            return Err(err);
        }
        for w in 0..self.workers.len() {
            self.pump_worker(w);
        }
        Ok((
            std::mem::take(&mut self.pending_matches),
            std::mem::take(&mut self.pending_rules),
        ))
    }

    /// Collection point (not a scan barrier): asks every worker for its
    /// interval report, waits for the reports to arrive, and returns the
    /// merged, deterministically-sorted results plus latency/utilization
    /// telemetry. Workers keep draining their rings the whole time — only
    /// the caller waits. A worker that dies mid-drain is recovered and its
    /// flush re-issued, so this returns instead of hanging.
    ///
    /// # Errors
    /// [`PipelineError::WorkerLost`] once per worker that vanished without
    /// a death report (it has already been respawned; the next call
    /// succeeds).
    pub fn drain(&mut self) -> Result<PipelineStats, PipelineError> {
        self.check_workers();
        if let Some(err) = self.take_lost() {
            return Err(err);
        }
        let token = self.flush_token;
        self.flush_token += 1;
        for w in 0..self.workers.len() {
            self.push(w, PipeJob::Flush { token }, None);
        }
        while self.pending_reports.len() < self.workers.len() {
            for w in 0..self.workers.len() {
                self.pump_worker(w);
            }
            if self.pending_reports.len() >= self.workers.len() {
                break;
            }
            // Liveness: a worker that died after its flush was pushed will
            // never report. Recover it and re-issue the flush (unless the
            // original flush job was reclaimed and re-enqueued, or its
            // report arrived just before it died).
            for w in 0..self.workers.len() {
                if self.pending_reports.iter().any(|r| r.worker == w) || !self.worker_dead(w) {
                    continue;
                }
                let flush_resent = self.recover_worker(w);
                if !flush_resent && !self.pending_reports.iter().any(|r| r.worker == w) {
                    self.push(w, PipeJob::Flush { token }, None);
                }
            }
            std::thread::yield_now();
        }
        let mut reports = std::mem::take(&mut self.pending_reports);
        debug_assert!(reports.iter().all(|r| r.token == token));
        reports.sort_by_key(|r| r.worker);

        let mut stats = MatcherStats::default();
        let mut histogram = LatencyHistogram::new();
        let mut result_workers = Vec::with_capacity(reports.len());
        let mut resident_flows = 0;
        let mut evicted_flows = 0;
        let mut old_epoch_flows = 0;
        let mut shed_packets = 0;
        let mut buffered_bytes = 0;
        let mut degraded_flows = 0;
        let mut truncated_bytes = 0;
        for report in &reports {
            stats.merge(&report.stats);
            histogram.merge(&report.latency);
            resident_flows += report.resident_flows;
            evicted_flows += report.evicted;
            old_epoch_flows += report.old_epoch_flows;
            buffered_bytes += report.buffered_bytes;
            degraded_flows += report.degraded_flows;
            truncated_bytes += report.truncated_bytes;
            let handle = &mut self.workers[report.worker];
            let shed = std::mem::take(&mut handle.shed);
            shed_packets += shed;
            result_workers.push(WorkerStats {
                worker: report.worker,
                packets: report.latency.count(),
                bytes: report.stats.bytes_scanned,
                busy_nanos: report.busy_nanos,
                wall_nanos: report.wall_nanos,
                max_ring_occupancy: handle.max_occupancy,
                ring_capacity: self.ring_capacity,
                evicted: report.evicted,
                resident_flows: report.resident_flows,
                shed_packets: shed,
            });
            handle.max_occupancy = 0;
        }
        let mut matches = std::mem::take(&mut self.pending_matches);
        let mut rule_matches = std::mem::take(&mut self.pending_rules);
        matches.sort_unstable();
        rule_matches.sort_unstable();
        Ok(PipelineStats {
            matches,
            rule_matches,
            stats,
            resident_flows,
            evicted_flows,
            latency: histogram.summary(),
            histogram,
            workers: result_workers,
            backpressure_waits: std::mem::take(&mut self.backpressure_waits),
            shed_packets,
            epoch: self.epoch,
            old_epoch_flows,
            buffered_bytes,
            degraded_flows,
            truncated_bytes,
            worker_restarts: std::mem::take(&mut self.pending_restarts),
            flow_errors: std::mem::take(&mut self.pending_flow_errors),
        })
    }

    /// Dispatches a batch and drains — the one-call shape the test suites
    /// use. A live deployment calls [`PipelineScanner::dispatch`] /
    /// [`PipelineScanner::poll`] / [`PipelineScanner::drain`] directly.
    ///
    /// # Errors
    /// Same contract as [`PipelineScanner::drain`].
    pub fn scan_batch(
        &mut self,
        packets: impl IntoIterator<Item = Packet>,
    ) -> Result<PipelineStats, PipelineError> {
        for packet in packets {
            self.dispatch(packet);
        }
        self.drain()
    }

    /// Hot-swaps to a plain pattern engine (see the module docs for the
    /// epoch semantics). Returns the new epoch.
    pub fn swap_engine(&mut self, engine: SharedMatcher, set: &PatternSet) -> u64 {
        self.swap(WorkerMode::Plain(StreamScanner::new(engine, set)))
    }

    /// Hot-swaps to a monolithic rule engine (`engine` compiled for
    /// `set.anchors()`, validated here on the caller's thread). Returns the
    /// new epoch.
    pub fn swap_rules(&mut self, engine: SharedMatcher, set: &RuleSet) -> u64 {
        self.swap(WorkerMode::Rules(RuleStreamScanner::new(engine, set)))
    }

    /// Hot-swaps to a port-grouped engine set (built off-thread by the
    /// caller — this call hands the workers its rule-mode prototype).
    /// Returns the new epoch.
    pub fn swap_groups(&mut self, engines: Arc<GroupedEngineSet>) -> u64 {
        self.swap(WorkerMode::Rules(engines.prototype().clone()))
    }

    fn swap(&mut self, mode: WorkerMode) -> u64 {
        let mode = mode.with_flow_cap(self.limits.max_flow_buffer);
        self.epoch += 1;
        self.mode = mode.clone();
        for w in 0..self.workers.len() {
            let swap = PipeJob::Swap {
                mode: Box::new(mode.clone()),
                epoch: self.epoch,
            };
            self.push(w, swap, None);
        }
        self.epoch
    }

    /// Is this worker's thread gone (exited or exiting)?
    fn worker_dead(&self, worker: usize) -> bool {
        let handle = &self.workers[worker];
        handle.handle.as_ref().is_none_or(|h| h.is_finished())
            || handle.jobs.as_ref().is_none_or(|j| j.is_closed())
    }

    /// Recovers every dead worker; called on entry to `poll`/`drain` so
    /// deaths that happened while the caller was away are handled before
    /// new work is issued.
    fn check_workers(&mut self) {
        for w in 0..self.workers.len() {
            if self.worker_dead(w) {
                self.recover_worker(w);
            }
        }
    }

    /// Pops the next pending "worker vanished" error, if any.
    fn take_lost(&mut self) -> Option<PipelineError> {
        if self.lost.is_empty() {
            None
        } else {
            Some(PipelineError::WorkerLost {
                worker: self.lost.remove(0),
            })
        }
    }

    /// Replaces a dead worker: joins the thread, reclaims the jobs it never
    /// popped, respawns it with a fresh scanner map at the **current**
    /// mode/epoch, records the restart, quarantines the flows whose state
    /// died with it, and re-enqueues the reclaimed jobs that are still
    /// meaningful. Returns true iff a reclaimed `Flush` was re-enqueued
    /// (the drain loop uses this to avoid double-flushing).
    fn recover_worker(&mut self, worker: usize) -> bool {
        // The join is the happens-before edge `Producer::reclaim` requires.
        self.join_worker(worker);
        let died = self.workers[worker].died.take();
        let reclaimed = match self.workers[worker].jobs.take() {
            Some(mut producer) => producer.reclaim(),
            None => Vec::new(),
        };
        // Respawn at the dispatcher's current mode/epoch: any swap the dead
        // worker missed is already reflected in the fresh worker, so
        // reclaimed Swap markers below are dropped rather than replayed.
        let fresh = self.spawn_worker(worker);
        // Interval counters on the control side survive the respawn.
        let shed = self.workers[worker].shed;
        let max_occupancy = self.workers[worker].max_occupancy;
        self.workers[worker] = fresh;
        self.workers[worker].shed = shed;
        self.workers[worker].max_occupancy = max_occupancy;
        let quarantined: HashSet<u64> = match died {
            Some(report) => {
                self.pending_restarts.push(WorkerRestart {
                    worker,
                    message: report.message,
                });
                let flows: HashSet<u64> = report.flows.iter().map(|&(flow, _)| flow).collect();
                for (flow, buffered_bytes) in report.flows {
                    self.pending_flow_errors.push(FlowError {
                        flow,
                        worker,
                        buffered_bytes,
                    });
                }
                flows
            }
            None => {
                self.pending_restarts.push(WorkerRestart {
                    worker,
                    message: "worker terminated without a report".to_string(),
                });
                self.lost.push(worker);
                HashSet::new()
            }
        };
        let mut flush_resent = false;
        for job in reclaimed {
            match job {
                PipeJob::Packet { ref packet, .. } if quarantined.contains(&packet.flow) => {
                    // The flow is already reported as errored; its queued
                    // packets die with it (a fresh mid-stream scanner would
                    // report wrong offsets).
                }
                job @ (PipeJob::Packet { .. } | PipeJob::CloseFlow(_)) => {
                    // Packets of non-quarantined flows had no state on the
                    // dead worker (their flow was never minted there), so
                    // replaying them starts correct fresh streams, in order.
                    self.push(worker, job, None);
                }
                PipeJob::Swap { .. } => {}
                PipeJob::Flush { token } => {
                    self.push(worker, PipeJob::Flush { token }, None);
                    flush_resent = true;
                }
            }
        }
        flush_resent
    }

    /// One push attempt. `Err` returns the job iff the ring is genuinely
    /// full right now. A closed ring (dead worker) triggers recovery and a
    /// retry against the fresh ring, so callers never observe `Closed`.
    fn try_push(&mut self, worker: usize, job: PipeJob) -> Result<(), PipeJob> {
        let mut job = job;
        loop {
            let handle = &mut self.workers[worker];
            // Invariant: `jobs` is only None transiently inside
            // `recover_worker`, which never calls back into `try_push` for
            // the worker being recovered.
            let jobs = handle
                .jobs
                .as_mut()
                .expect("producer present outside recovery");
            // One read of the worker's `head` line per push: the occupancy
            // after it and the unpark decision both follow from this count
            // (the worker can only have popped since, which errs high).
            let before = jobs.len();
            match jobs.push(job) {
                Ok(()) => {
                    handle.max_occupancy = handle.max_occupancy.max(before + 1);
                    if before == 0 {
                        // The worker may be parked on an empty ring; wake it
                        // now rather than after its park timeout.
                        handle.thread.unpark();
                    }
                    return Ok(());
                }
                Err(PushError::Full(back)) => return Err(back),
                Err(PushError::Closed(back)) => {
                    job = back;
                    self.recover_worker(worker);
                }
            }
        }
    }

    /// Pushes `job` to `worker`'s ring, waiting at most `patience` for a
    /// slot (`None`: for as long as it takes — control jobs and `Block`
    /// packets). Returns `false` iff the patience ran out: the job is then
    /// shed, counted against the worker and dropped. The deadline is taken
    /// at the first refusal, so a push that lands reads no clock; a fault
    /// plan may refuse a push only where there is a patience to run out
    /// (an endless wait would hang on an unbounded refusal).
    fn push(&mut self, worker: usize, mut job: PipeJob, patience: Option<Duration>) -> bool {
        // Set at the first refusal; an inner `None` is a patience too long
        // to end (`Instant` cannot represent the deadline).
        let mut deadline: Option<Option<Instant>> = None;
        loop {
            let refused = patience.is_some()
                && self
                    .limits
                    .plan
                    .as_ref()
                    .is_some_and(|plan| plan.refuse_push(worker));
            if !refused {
                match self.try_push(worker, job) {
                    Ok(()) => return true,
                    Err(back) => job = back,
                }
            }
            if let Some(patience) = patience {
                let now = Instant::now();
                let until = *deadline.get_or_insert_with(|| now.checked_add(patience));
                if until.is_some_and(|until| now >= until) {
                    self.workers[worker].shed += 1;
                    self.pump_worker(worker);
                    return false;
                }
            }
            self.backpressure_waits += 1;
            self.wait_for_slots(worker, deadline.flatten());
        }
    }

    /// Waits until the worker has freed an eighth of its job ring (at least
    /// one slot) or `deadline` has passed, draining its output ring
    /// meanwhile — the worker may itself be stalled on it — and returning
    /// early if it died (the retry then recovers it). A full ring is the
    /// steady state of a saturated worker: retrying after every freed slot
    /// would re-read the worker's `head` line and yield once per packet, and
    /// no push would ever run against the producer's cached head. After a
    /// batch wait the next pushes do.
    fn wait_for_slots(&mut self, worker: usize, deadline: Option<Instant>) {
        let batch = (self.ring_capacity / 8).max(1);
        loop {
            self.pump_worker(worker);
            // Invariant: see `try_push`.
            let jobs = self.workers[worker]
                .jobs
                .as_ref()
                .expect("producer present outside recovery");
            if jobs.is_closed()
                || jobs.capacity() - jobs.len() >= batch
                || deadline.is_some_and(|deadline| Instant::now() >= deadline)
            {
                return;
            }
            std::thread::yield_now();
        }
    }

    /// Waits for `worker`'s thread to finish, pumping its output ring so a
    /// worker stalled pushing results — or a death report queued behind
    /// them — gets through, then joins it and takes what it pushed last.
    fn join_worker(&mut self, worker: usize) {
        loop {
            self.pump_worker(worker);
            let finished = self.workers[worker]
                .handle
                .as_ref()
                .is_none_or(|h| h.is_finished());
            if finished {
                break;
            }
            std::thread::yield_now();
        }
        if let Some(handle) = self.workers[worker].handle.take() {
            // A panic payload already surfaced as a DeathReport; nothing to
            // learn from the join result.
            let _ = handle.join();
        }
        self.pump_worker(worker);
    }

    /// Drains one worker's output ring into the pending buffers.
    fn pump_worker(&mut self, worker: usize) {
        while let Some(out) = self.workers[worker].out.pop() {
            match out {
                Out::Match(m) => self.pending_matches.push(m),
                Out::Rule(r) => self.pending_rules.push(r),
                Out::Flushed(report) => self.pending_reports.push(*report),
                Out::Died(report) => self.workers[worker].died = Some(*report),
            }
        }
    }
}

impl Drop for PipelineScanner {
    fn drop(&mut self) {
        // Hang up every job ring first (workers exit after draining what's
        // buffered), then join while pumping output rings so a worker
        // stalled pushing results can finish.
        for worker in &mut self.workers {
            worker.jobs = None;
            worker.thread.unpark();
        }
        for w in 0..self.workers.len() {
            self.join_worker(w);
        }
    }
}

/// Most packets a worker scans as one run ([`PipelineWorker::scan_run`]).
const RUN_MAX_PACKETS: usize = 32;

/// Most bytes a run stages, carries included (a run of one may exceed it):
/// keeps the staged bytes and their candidates in L1 and far below the
/// engines' chunk size.
const RUN_MAX_BYTES: usize = 4096;

/// The worker thread's state: per-flow scanners plus interval telemetry.
struct PipelineWorker {
    index: usize,
    jobs: Consumer<PipeJob>,
    out: Producer<Out>,
    mode: WorkerMode,
    epoch: u64,
    limits: Limits,
    flows: FlowTable,
    stats: MatcherStats,
    latency: LatencyHistogram,
    busy_nanos: u64,
    interval_start: Instant,
    /// Interval counter of bytes truncated past flow buffer caps.
    truncated: u64,
    /// Packets received over the worker's lifetime (not reset at flush) —
    /// the deterministic coordinate fault-plan triggers key on.
    lifetime_packets: u64,
    events: Vec<MatchEvent>,
    rule_events: Vec<RuleMatch>,
}

impl PipelineWorker {
    fn new(
        index: usize,
        mode: WorkerMode,
        epoch: u64,
        limits: Limits,
        jobs: Consumer<PipeJob>,
        out: Producer<Out>,
    ) -> Self {
        PipelineWorker {
            index,
            jobs,
            out,
            mode,
            epoch,
            flows: FlowTable::new(limits.max_flows, limits.idle_after),
            limits,
            stats: MatcherStats::default(),
            latency: LatencyHistogram::new(),
            busy_nanos: 0,
            interval_start: Instant::now(),
            truncated: 0,
            lifetime_packets: 0,
            events: Vec::new(),
            rule_events: Vec::new(),
        }
    }

    fn run(mut self) {
        // Idle strategy: spin briefly (a packet is usually microseconds
        // away at line rate), then yield, then park with a timeout — the
        // dispatcher unparks on push-to-empty-ring, the timeout is the
        // safety net.
        let mut idle = 0u32;
        // One clock read per job while the ring stays non-empty: the read
        // that ends a job (closing its latency sample and busy interval)
        // starts the next. Only a job popped after an idle spell reads its
        // own start.
        let mut previous_end: Option<Instant> = None;
        loop {
            if self.jobs.peek(0).is_none() {
                if self.jobs.is_closed() {
                    break;
                }
                previous_end = None;
                idle += 1;
                if idle < 64 {
                    std::hint::spin_loop();
                } else if idle < 128 {
                    std::thread::yield_now();
                } else {
                    std::thread::park_timeout(Duration::from_micros(100));
                }
                continue;
            }
            idle = 0;
            let started = previous_end.take().unwrap_or_else(Instant::now);
            // Supervision: a panic anywhere in job handling (a bad engine, a
            // poisoned flow, an injected fault) must not strand the
            // dispatcher against a silently dead ring. AssertUnwindSafe: on
            // Err we only read flow ids and buffer sizes for the death
            // report, then the whole worker state is discarded.
            let unwound =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.step(started)));
            match unwound {
                Ok(Some(ended)) => previous_end = Some(ended),
                // Injected hard crash: exit with no death report — the
                // closed ring is the only signal (surfaced as
                // PipelineError::WorkerLost).
                Ok(None) => return,
                Err(payload) => {
                    self.report_death(panic_message(payload.as_ref()));
                    return;
                }
            }
        }
    }

    /// Processes what is at the head of the ring, which the caller saw is
    /// not empty, from `started` on: the run of small packets waiting there
    /// ([`PipelineWorker::scan_run`]) or else one job. Returns when it
    /// ended, or `None` when an injected fault says to vanish.
    fn step(&mut self, started: Instant) -> Option<Instant> {
        // The eviction clock: equal to `started` in production, offset
        // under an injected mock-clock advance. Only `last_seen`/idle
        // eviction observe it — latency and utilization stay real-time.
        let now = match &self.limits.plan {
            Some(plan) => plan.clock(started),
            None => started,
        };
        if matches!(self.jobs.peek(0), Some(PipeJob::Packet { .. })) {
            // Before any flow is looked up, once for a whole run.
            self.flows.sweep_idle(now);
        }
        if let Some(ended) = Staged::with(|run| self.scan_run(run, started, now)) {
            return Some(ended);
        }
        let job = self.jobs.pop().expect("the caller saw a job");
        if matches!(job, PipeJob::Packet { .. }) {
            self.lifetime_packets += 1;
            if let Some(plan) = &self.limits.plan {
                if plan.should_exit(self.index, self.lifetime_packets) {
                    return None;
                }
                plan.maybe_panic(self.index, self.lifetime_packets);
            }
        }
        Some(self.handle(job, started, now))
    }

    /// Scans the **run** at the head of the ring as one engine input, if
    /// there is one: the packets already waiting there, in order, for as
    /// long as each is a small ([`STAGE_MAX`]) packet of a plain-mode flow
    /// of the current epoch that is not yet in the run — at most
    /// [`RUN_MAX_PACKETS`] of them and [`RUN_MAX_BYTES`] staged. Anything
    /// else ends the run and takes the one-job path when it reaches the
    /// head: a control job, a large packet, a flow's second packet (its
    /// carry is not known until the first is scanned), a flow minted under
    /// an older epoch (another engine), a mint that would evict (possibly a
    /// flow of the run), a packet an injected fault is waiting for. The run
    /// never waits for more packets, so on an idle ring it is a run of one.
    ///
    /// Each flow stages `carry ‖ payload` behind the previous one's
    /// ([`StreamScanner::stage`]), one engine call scans the lot
    /// ([`Staged::scan`]), and each flow takes its matches and its new carry
    /// back ([`StreamScanner::commit`]) — what [`StreamScanner::push`] does
    /// for one small chunk, so the results are those of pushing the packets
    /// one by one.
    ///
    /// The jobs are **peeked** while the run is staged and scanned and
    /// popped only afterwards: if the engine panics, every job of the run
    /// is still in the ring for the dispatcher to reclaim, and every flow of
    /// the run is resident, so the death report quarantines it — what a
    /// panic inside a single packet's scan leaves behind, at run size.
    ///
    /// One clock read closes the run: each packet's latency sample and the
    /// busy interval end there. Returns it, or `None` (nothing touched) when
    /// no run starts at the head. `now` is the eviction clock's reading at
    /// `started`.
    fn scan_run(&mut self, run: &mut Staged, started: Instant, now: Instant) -> Option<Instant> {
        let WorkerMode::Plain(prototype) = &self.mode else {
            return None;
        };
        run.clear();
        let epoch = self.epoch;
        let first_seq = self.flows.next_seq();
        let mut staged = 0;
        while staged < RUN_MAX_PACKETS {
            let Some(PipeJob::Packet { packet, .. }) = self.jobs.peek(staged) else {
                break;
            };
            let packet_no = self.lifetime_packets + staged as u64 + 1;
            let armed = |plan: &Arc<FaultPlan>| plan.armed(self.index, packet_no);
            if packet.payload.len() > STAGE_MAX || self.limits.plan.as_ref().is_some_and(armed) {
                break;
            }
            let fits = |carried: usize| {
                staged == 0 || run.len() + carried + packet.payload.len() <= RUN_MAX_BYTES
            };
            let Some(slot) = self.flows.touch(
                packet.flow,
                now,
                epoch,
                |seen| match seen {
                    Seen::Resident(slot) => matches!(
                        &slot.scanner,
                        FlowScanner::Plain(scanner) if slot.epoch == epoch
                            && slot.seq() < first_seq
                            && fits(scanner.carried())
                    ),
                    Seen::Absent { evicts } => !evicts && fits(0),
                },
                || FlowScanner::mint(&self.mode, packet.tuple),
            ) else {
                break;
            };
            let FlowScanner::Plain(scanner) = &slot.scanner else {
                unreachable!("a run admits only plain flows");
            };
            scanner.stage(&packet.payload, run);
            staged += 1;
        }
        if staged == 0 {
            return None;
        }
        self.lifetime_packets += staged as u64;

        run.scan(prototype);

        // The dispatch stamps, until the closing clock read turns them into
        // latency samples.
        let mut enqueued_at = [started; RUN_MAX_PACKETS];
        for (k, stamp) in enqueued_at.iter_mut().enumerate().take(staged) {
            let Some(PipeJob::Packet { packet, enqueued }) = self.jobs.pop() else {
                unreachable!("the run's jobs were peeked in this order");
            };
            *stamp = enqueued;
            let slot = self.flows.get_mut(packet.flow);
            let Some(FlowScanner::Plain(scanner)) = slot.map(|slot| &mut slot.scanner) else {
                unreachable!("the run staged this flow's scanner");
            };
            self.events.clear();
            scanner.commit(run, k, &mut self.events);
            self.ship(packet.flow, packet.payload.len(), self.events.len() as u64);
        }
        let ended = Instant::now();
        for enqueued in &enqueued_at[..staged] {
            self.latency
                .record(ended.saturating_duration_since(*enqueued).as_nanos() as u64);
        }
        self.busy_nanos += ended.saturating_duration_since(started).as_nanos() as u64;
        Some(ended)
    }

    /// Last words: every resident flow dies with this worker; tell the
    /// dispatcher which ones so it can quarantine them instead of silently
    /// losing them.
    fn report_death(&mut self, message: String) {
        let mut flows: Vec<(u64, u64)> = self
            .flows
            .iter()
            .map(|(flow, slot)| (flow, slot.scanner.buffered_bytes()))
            .collect();
        flows.sort_unstable();
        push_out(
            &mut self.out,
            Out::Died(Box::new(DeathReport { message, flows })),
        );
    }

    /// Processes one job that began at `started` (`now` on the eviction
    /// clock; [`PipelineWorker::step`] has swept the idle flows if it is a
    /// packet); returns when it ended.
    fn handle(&mut self, job: PipeJob, started: Instant, now: Instant) -> Instant {
        let mut dispatched = None;
        match job {
            PipeJob::Packet { packet, enqueued } => {
                self.scan_packet(packet, now);
                dispatched = Some(enqueued);
            }
            PipeJob::CloseFlow(flow) => self.flows.close(flow),
            PipeJob::Swap { mode, epoch } => {
                // Existing flows keep the scanners they were minted with
                // (graceful drain); only new mints see the new mode.
                self.mode = *mode;
                self.epoch = epoch;
            }
            PipeJob::Flush { token } => {
                self.flows.sweep_idle(now);
                self.flush(token, started);
            }
        }
        let ended = Instant::now();
        if let Some(enqueued) = dispatched {
            // Latency is measured dispatch→scanned: ring wait + scan.
            self.latency
                .record(ended.saturating_duration_since(enqueued).as_nanos() as u64);
        }
        self.busy_nanos += ended.saturating_duration_since(started).as_nanos() as u64;
        ended
    }

    /// Scans one packet through its flow's scanner, whatever the mode.
    fn scan_packet(&mut self, packet: Packet, now: Instant) {
        let max_flow_buffer = self.limits.max_flow_buffer;
        let slot = self
            .flows
            .touch(
                packet.flow,
                now,
                self.epoch,
                |_| true,
                || FlowScanner::mint(&self.mode, packet.tuple),
            )
            .expect("a packet scanned alone is always admitted");
        self.events.clear();
        self.rule_events.clear();
        // Delta accounting for the truncation counter, gated on the cap so
        // the uncapped hot path pays nothing.
        let truncated_before = if max_flow_buffer.is_some() {
            slot.scanner.truncated_bytes()
        } else {
            0
        };
        let matches = slot
            .scanner
            .push(&packet.payload, &mut self.events, &mut self.rule_events);
        if max_flow_buffer.is_some() {
            self.truncated += slot.scanner.truncated_bytes() - truncated_before;
        }
        self.ship(packet.flow, packet.payload.len(), matches);
    }

    /// A packet's epilogue: accounts its `len` payload bytes and what its
    /// scan adds to `MatcherStats::matches`, and ships the events the scan
    /// left in `events` / `rule_events` to the output ring. Forced into both
    /// callers: as a call it cost `tiny_http` a tenth of its goodput.
    #[inline(always)]
    fn ship(&mut self, flow: u64, len: usize, matches: u64) {
        self.stats.matches += matches;
        self.stats.bytes_scanned += len as u64;
        for event in self.events.drain(..) {
            push_out(&mut self.out, Out::Match(FlowMatch { flow, event }));
        }
        for m in self.rule_events.drain(..) {
            push_out(
                &mut self.out,
                Out::Rule(FlowRuleMatch {
                    flow,
                    rule: m.rule,
                    end: m.end,
                }),
            );
        }
    }

    fn flush(&mut self, token: u64, now: Instant) {
        let mut buffered_bytes = 0u64;
        let mut degraded_flows = 0u64;
        let mut old_epoch_flows = 0usize;
        for (_, slot) in self.flows.iter() {
            buffered_bytes += slot.scanner.buffered_bytes();
            degraded_flows += u64::from(slot.scanner.degraded());
            if slot.epoch != self.epoch {
                old_epoch_flows += 1;
            }
        }
        let report = FlushReport {
            worker: self.index,
            token,
            stats: std::mem::take(&mut self.stats),
            latency: std::mem::replace(&mut self.latency, LatencyHistogram::new()),
            busy_nanos: std::mem::take(&mut self.busy_nanos),
            wall_nanos: now.duration_since(self.interval_start).as_nanos() as u64,
            evicted: self.flows.take_evicted(),
            resident_flows: self.flows.len(),
            old_epoch_flows,
            buffered_bytes,
            degraded_flows,
            truncated_bytes: std::mem::take(&mut self.truncated),
        };
        self.interval_start = now;
        push_out(&mut self.out, Out::Flushed(Box::new(report)));
    }
}

/// Extracts a human-readable message from a panic payload (`&str` and
/// `String` payloads cover `panic!`/`assert!`/`expect`; anything else gets
/// a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

/// Blocking output push: the ring is bounded, so a worker outrunning the
/// collector waits here (the dispatcher's backpressure loop drains the ring,
/// so this cannot deadlock). A closed ring means the control side is gone —
/// results are dropped, the worker drains out.
fn push_out(out: &mut Producer<Out>, mut item: Out) {
    loop {
        match out.push(item) {
            Ok(()) => return,
            Err(PushError::Full(v)) => {
                item = v;
                std::thread::yield_now();
            }
            Err(PushError::Closed(_)) => return,
        }
    }
}
#[cfg(test)]
mod tests {
    use super::PipeJob;

    /// A job ring is `ring_capacity` of these, resident for the pipeline's
    /// life, and every packet is written and read as one: a field that
    /// grows the largest variant (a packet and its dispatch stamp) or a
    /// control job that outgrows it costs each ring a cache line per slot.
    #[test]
    fn a_job_is_one_cache_line() {
        assert!(std::mem::size_of::<PipeJob>() <= 64);
    }

    /// Every resident flow holds one of these, in every mode: a field that
    /// regrows a flow's state grows every slot of every worker's table.
    #[test]
    fn a_flow_slot_stays_within_its_measured_size() {
        assert!(std::mem::size_of::<crate::flows::FlowSlot>() <= 192);
    }
}
