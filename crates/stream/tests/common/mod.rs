//! Shared by the pipeline suites: the worker counts they run at, and, for
//! the suites that need a pipeline worker's job ring **backed up** at a
//! known moment, an engine that holds the worker inside its first engine
//! call while the test dispatches, so the packets are all waiting when it
//! comes back and it scans them as runs — forced with channels, not sleeps.

#![allow(dead_code)]

use mpm_patterns::{MatchEvent, Matcher};
use mpm_stream::{Packet, PipelineScanner, SharedMatcher};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

/// A flow id the suites' traffic never uses: the packet that holds the
/// worker.
pub const HOLD_FLOW: u64 = u64::MAX;

/// Worker counts under test: `default`, or exactly the count the CI matrix
/// pins via `MPM_WORKERS`.
pub fn worker_counts(default: &[usize]) -> Vec<usize> {
    match std::env::var("MPM_WORKERS") {
        Ok(v) => vec![v.parse().expect("MPM_WORKERS must be a positive integer")],
        Err(_) => default.to_vec(),
    }
}

/// Forwards to an engine, counting the engine calls and the bytes of every
/// haystack handed over — and, once armed, holding the next call until
/// released.
pub struct Gated {
    inner: SharedMatcher,
    /// Taken by the next engine call: tell the test, then wait for it.
    gate: Mutex<Option<(Sender<()>, Receiver<()>)>>,
    /// Engine calls so far.
    pub calls: AtomicUsize,
    /// Haystack bytes handed to the engine so far.
    pub handed: AtomicUsize,
}

/// The test's end of a [`Gated`] engine's gate.
pub struct Hold {
    held: Receiver<()>,
    release: Sender<()>,
}

impl Gated {
    /// Wraps `inner` with the gate open: only the counters, until
    /// [`Gated::arm`].
    pub fn open(inner: SharedMatcher) -> Arc<Self> {
        Arc::new(Gated {
            inner,
            gate: Mutex::new(None),
            calls: AtomicUsize::new(0),
            handed: AtomicUsize::new(0),
        })
    }

    /// Closes the gate: the next engine call blocks until [`Hold::release`].
    pub fn arm(&self) -> Hold {
        let (held_tx, held) = channel();
        let (release, release_rx) = channel();
        *self.gate.lock().unwrap() = Some((held_tx, release_rx));
        Hold { held, release }
    }

    fn enter(&self, haystack: &[u8]) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.handed.fetch_add(haystack.len(), Ordering::Relaxed);
        let gate = self.gate.lock().unwrap().take();
        if let Some((held, release)) = gate {
            held.send(()).expect("the test holds the other end");
            release.recv().expect("the test releases the gate");
        }
    }

    /// Zeroes the counters.
    pub fn reset_counts(&self) {
        self.calls.store(0, Ordering::Relaxed);
        self.handed.store(0, Ordering::Relaxed);
    }
}

impl Matcher for Gated {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn max_pattern_len(&self) -> usize {
        self.inner.max_pattern_len()
    }

    fn find_into(&self, haystack: &[u8], out: &mut Vec<MatchEvent>) {
        self.enter(haystack);
        self.inner.find_into(haystack, out);
    }

    fn find_in(&self, haystack: &[u8], starts: Range<usize>, out: &mut Vec<MatchEvent>) -> usize {
        self.enter(haystack);
        self.inner.find_in(haystack, starts, out)
    }

    fn find_in_segments(
        &self,
        haystack: &[u8],
        ends: &[usize],
        lengths: &[u32],
        out: &mut Vec<MatchEvent>,
        resumes: &mut Vec<usize>,
    ) {
        self.enter(haystack);
        self.inner
            .find_in_segments(haystack, ends, lengths, out, resumes);
    }
}

impl Hold {
    /// Holds the one worker of `pipeline` inside the engine, on a packet of
    /// [`HOLD_FLOW`]. Until [`Hold::release`], everything the test
    /// dispatches **waits in the ring** — which must have room for it: a
    /// blocked dispatch would wait for the held worker for ever.
    pub fn hold(&self, pipeline: &mut PipelineScanner) {
        assert_eq!(pipeline.workers(), 1, "the gate holds one worker");
        pipeline.dispatch(Packet::new(HOLD_FLOW, b".".to_vec()));
        self.held.recv().expect("the worker reaches the engine");
    }

    /// Lets the worker go on: it finds the backlog waiting.
    pub fn release(self) {
        self.release.send(()).expect("the worker is waiting");
    }
}
