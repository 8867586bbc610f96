//! Bounded lock-free SPSC ring, vendored for the continuously-running
//! pipeline ([`crate::PipelineScanner`]) since the build is offline.
//!
//! One producer thread pushes, one consumer thread pops; both sides are
//! wait-free (a push or pop is a load, a bounds check, a slot write/read and
//! a store — no CAS loop, no lock, no allocation after construction). The
//! head and tail indices are monotonically increasing `usize`s reduced
//! modulo the power-of-two capacity, each on its own cache line so the
//! producer's stores never invalidate the consumer's hot line and vice
//! versa. This is the classic Lamport queue with relaxed-load fast paths:
//! each side caches the opposite index and only re-reads it (acquire) when
//! the cached value says the ring looks full/empty.
//!
//! Disconnect is a closed flag raised by whichever side drops its handle:
//! the producer's pushes fail with [`PushError::Closed`] once the consumer
//! is gone, and the consumer keeps draining buffered items after the
//! producer hangs up ([`Consumer::pop`] returns `None` only when the ring
//! is empty *and* closed — callers distinguish empty-for-now via
//! [`Consumer::is_closed`]).

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Pads an atomic to its own cache line (128 bytes covers the 2-line
/// prefetcher pairing on modern x86 as well as 64-byte lines elsewhere).
#[repr(align(128))]
struct CachePadded<T>(T);

struct Shared<T> {
    buffer: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next slot the consumer will pop (monotonic, wrapped by `mask`).
    head: CachePadded<AtomicUsize>,
    /// Next slot the producer will fill (monotonic, wrapped by `mask`).
    tail: CachePadded<AtomicUsize>,
    /// Raised by either side dropping its handle.
    closed: AtomicBool,
}

// SAFETY: the SPSC discipline (enforced by handing out exactly one
// `Producer` and one `Consumer`, neither of which is `Clone`) guarantees a
// slot is written by the producer strictly before the tail store publishes
// it, and read by the consumer strictly before the head store releases it —
// so no slot is ever accessed concurrently from both sides.
unsafe impl<T: Send> Send for Shared<T> {}
unsafe impl<T: Send> Sync for Shared<T> {}

/// Why a [`Producer::push`] was refused.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PushError<T> {
    /// The ring is at capacity; the item is handed back so the caller can
    /// apply backpressure and retry.
    Full(T),
    /// The consumer is gone; the item is handed back and no later push can
    /// succeed.
    Closed(T),
}

impl<T> PushError<T> {
    /// The rejected item, regardless of the reason.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(v) | PushError::Closed(v) => v,
        }
    }
}

/// The producing half of an SPSC ring; not `Clone` (single producer).
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
    /// Producer-local cache of the consumer's head; refreshed only when the
    /// ring looks full against the cached value.
    cached_head: usize,
}

/// The consuming half of an SPSC ring; not `Clone` (single consumer).
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
    /// Consumer-local cache of the producer's tail; refreshed only when the
    /// ring looks empty against the cached value.
    cached_tail: usize,
}

/// Creates a bounded SPSC ring holding at most `capacity` items.
/// `capacity` is rounded up to the next power of two (minimum 1).
pub fn spsc<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let capacity = capacity.next_power_of_two();
    let buffer = (0..capacity)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let shared = Arc::new(Shared {
        buffer,
        mask: capacity - 1,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
        closed: AtomicBool::new(false),
    });
    (
        Producer {
            shared: shared.clone(),
            cached_head: 0,
        },
        Consumer {
            shared,
            cached_tail: 0,
        },
    )
}

impl<T> Producer<T> {
    /// Attempts to push `item` without blocking.
    pub fn push(&mut self, item: T) -> Result<(), PushError<T>> {
        let shared = &*self.shared;
        if shared.closed.load(Ordering::Relaxed) {
            return Err(PushError::Closed(item));
        }
        let tail = shared.tail.0.load(Ordering::Relaxed);
        if tail.wrapping_sub(self.cached_head) > shared.mask {
            // Looks full against the cached head — refresh and re-check.
            self.cached_head = shared.head.0.load(Ordering::Acquire);
            if tail.wrapping_sub(self.cached_head) > shared.mask {
                return Err(PushError::Full(item));
            }
        }
        // SAFETY: the slot at `tail` is outside [head, tail), so the
        // consumer is not reading it; only this (single) producer writes it.
        unsafe {
            (*shared.buffer[tail & shared.mask].get()).write(item);
        }
        // Release pairs with the consumer's acquire tail load: the slot
        // write above happens-before the consumer observes the new tail.
        shared.tail.0.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Number of items currently buffered (racy but monotone-consistent:
    /// computed from one snapshot of each index).
    pub fn len(&self) -> usize {
        let tail = self.shared.tail.0.load(Ordering::Relaxed);
        let head = self.shared.head.0.load(Ordering::Relaxed);
        tail.wrapping_sub(head)
    }

    /// True when no items are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ring capacity in items.
    pub fn capacity(&self) -> usize {
        self.shared.mask + 1
    }

    /// True once the consumer has dropped its handle.
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::Relaxed)
    }

    /// Reclaims every item still buffered in the ring, in FIFO order, and
    /// resets the ring to empty. Used by worker supervision to recover the
    /// jobs a dead worker never popped.
    ///
    /// Contract (why this is `pub(crate)` and not public API): only sound
    /// once the consumer's thread has terminated **and been joined** — the
    /// join's happens-before edge makes the consumer's final head store and
    /// every published slot visible here, and guarantees no concurrent
    /// `pop` races the reads below.
    pub(crate) fn reclaim(&mut self) -> Vec<T> {
        let shared = &*self.shared;
        let head = shared.head.0.load(Ordering::Acquire);
        let tail = shared.tail.0.load(Ordering::Relaxed);
        let mut items = Vec::with_capacity(tail.wrapping_sub(head));
        for i in head..tail {
            // SAFETY: slots in [head, tail) hold initialized items, and the
            // consumer is gone (see the contract above), so this side is the
            // only accessor.
            items.push(unsafe { (*shared.buffer[i & shared.mask].get()).assume_init_read() });
        }
        shared.head.0.store(tail, Ordering::Release);
        items
    }
}

impl<T> Consumer<T> {
    /// Pops the oldest item, or `None` if the ring is currently empty.
    /// After the producer disconnects, buffered items keep draining; check
    /// [`Consumer::is_closed`] to tell "empty for now" from "hung up".
    pub fn pop(&mut self) -> Option<T> {
        let shared = &*self.shared;
        let head = shared.head.0.load(Ordering::Relaxed);
        if head == self.cached_tail {
            // Looks empty against the cached tail — refresh and re-check.
            // Acquire pairs with the producer's release tail store.
            self.cached_tail = shared.tail.0.load(Ordering::Acquire);
            if head == self.cached_tail {
                return None;
            }
        }
        // SAFETY: head < tail, so the producer published this slot (release
        // /acquire on tail) and is not writing it; only this (single)
        // consumer reads it.
        let item = unsafe { (*shared.buffer[head & shared.mask].get()).assume_init_read() };
        // Release pairs with the producer's acquire head load: the slot
        // read above happens-before the producer reuses the slot.
        shared.head.0.store(head.wrapping_add(1), Ordering::Release);
        Some(item)
    }

    /// Borrows the `k`-th oldest buffered item (`k = 0` is what
    /// [`Consumer::pop`] would return) without popping it, or `None` if it
    /// is not known to be there. Only `k = 0` re-reads the producer's tail,
    /// exactly when `pop` would: a consumer that looks ahead costs the
    /// producer's cache line nothing while the ring is busy, and sees at
    /// least everything that was buffered when it last found the ring
    /// empty-looking.
    pub fn peek(&mut self, k: usize) -> Option<&T> {
        let shared = &*self.shared;
        let head = shared.head.0.load(Ordering::Relaxed);
        if self.cached_tail.wrapping_sub(head) <= k {
            if k > 0 {
                return None;
            }
            // Acquire pairs with the producer's release tail store.
            self.cached_tail = shared.tail.0.load(Ordering::Acquire);
            if head == self.cached_tail {
                return None;
            }
        }
        // SAFETY: `head + k` lies in [head, cached_tail), so the producer
        // published the slot (release/acquire on tail) and will not write it
        // again before `head` passes it. Only this consumer moves `head`, in
        // `pop`, which needs `&mut self` — and the returned borrow holds
        // `&mut self` for as long as it lives, so the item can be neither
        // popped (moved out) nor overwritten underneath it.
        Some(unsafe {
            (*shared.buffer[head.wrapping_add(k) & shared.mask].get()).assume_init_ref()
        })
    }

    /// Number of items currently buffered.
    pub fn len(&self) -> usize {
        let tail = self.shared.tail.0.load(Ordering::Relaxed);
        let head = self.shared.head.0.load(Ordering::Relaxed);
        tail.wrapping_sub(head)
    }

    /// True when no items are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once the producer has dropped its handle. Buffered items are
    /// still poppable.
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::Relaxed)
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::Release);
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        // Buffered items are deliberately left in place: after a worker
        // dies, the control side recovers them via [`Producer::reclaim`].
        // If the producer goes away too, `Shared::drop` sweeps [head, tail)
        // so nothing leaks either way.
        self.shared.closed.store(true, Ordering::Release);
    }
}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // Sole owner now: drop any items still sitting in [head, tail).
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        for i in head..tail {
            // SAFETY: slots in [head, tail) hold initialized items nobody
            // else can touch anymore.
            unsafe {
                (*self.buffer[i & self.mask].get()).assume_init_drop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn fifo_order_and_wraparound() {
        let (mut tx, mut rx) = spsc::<u32>(4);
        assert_eq!(tx.capacity(), 4);
        // Cycle far past the capacity so indices wrap the mask many times.
        for round in 0..100u32 {
            for i in 0..3 {
                tx.push(round * 10 + i).unwrap();
            }
            for i in 0..3 {
                assert_eq!(rx.pop(), Some(round * 10 + i));
            }
            assert!(rx.pop().is_none());
        }
    }

    #[test]
    fn peek_borrows_in_fifo_order_without_consuming() {
        let (mut tx, mut rx) = spsc::<String>(4);
        assert!(rx.peek(0).is_none());
        tx.push("a".into()).unwrap();
        tx.push("b".into()).unwrap();
        // Looking ahead never re-reads the tail: nothing is known yet.
        assert!(rx.peek(1).is_none());
        assert_eq!(rx.peek(0).map(String::as_str), Some("a"));
        assert_eq!(rx.peek(1).map(String::as_str), Some("b"));
        assert!(rx.peek(2).is_none());
        // Pushed after the tail was last read: seen by `peek(0)` only once
        // the known items are gone.
        tx.push("c".into()).unwrap();
        assert!(rx.peek(2).is_none());
        assert_eq!(rx.len(), 3, "peeking pops nothing");
        assert_eq!(rx.pop().as_deref(), Some("a"));
        assert_eq!(rx.peek(0).map(String::as_str), Some("b"));
        assert_eq!(rx.pop().as_deref(), Some("b"));
        assert_eq!(rx.peek(0).map(String::as_str), Some("c"));
        assert_eq!(rx.pop().as_deref(), Some("c"));
        // Indices wrap the mask like pops do.
        for round in 0..10 {
            tx.push(format!("x{round}")).unwrap();
            tx.push(format!("y{round}")).unwrap();
            assert_eq!(rx.peek(0), Some(&format!("x{round}")));
            assert_eq!(rx.peek(1), Some(&format!("y{round}")));
            assert_eq!(rx.pop(), Some(format!("x{round}")));
            assert_eq!(rx.pop(), Some(format!("y{round}")));
        }
    }

    #[test]
    fn full_ring_returns_the_item() {
        let (mut tx, mut rx) = spsc::<String>(2);
        tx.push("a".into()).unwrap();
        tx.push("b".into()).unwrap();
        match tx.push("c".into()) {
            Err(PushError::Full(s)) => assert_eq!(s, "c"),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(tx.len(), 2);
        assert_eq!(rx.pop().as_deref(), Some("a"));
        tx.push("c".into()).unwrap();
        assert_eq!(rx.pop().as_deref(), Some("b"));
        assert_eq!(rx.pop().as_deref(), Some("c"));
        assert!(rx.is_empty());
    }

    #[test]
    fn a_one_slot_ring_is_exact() {
        // `mask == 0`: every index maps to the one slot, and the monotonic
        // indices alone tell full from empty.
        let (mut tx, mut rx) = spsc::<u32>(1);
        assert_eq!(tx.capacity(), 1);
        for round in 0..5 {
            tx.push(round).unwrap();
            assert!(matches!(tx.push(99), Err(PushError::Full(99))));
            assert_eq!(rx.peek(0), Some(&round));
            assert!(rx.peek(1).is_none());
            assert_eq!(rx.pop(), Some(round));
            assert!(rx.peek(0).is_none());
        }
        tx.push(7).unwrap();
        drop(rx);
        assert_eq!(tx.reclaim(), vec![7]);
        assert!(tx.is_empty());
    }

    #[test]
    fn consumer_drains_after_producer_disconnects() {
        let (mut tx, mut rx) = spsc::<u32>(8);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        drop(tx);
        assert!(rx.is_closed());
        assert_eq!(rx.pop(), Some(1));
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn producer_fails_closed_after_consumer_disconnects() {
        let (mut tx, rx) = spsc::<u32>(8);
        tx.push(1).unwrap();
        drop(rx);
        assert!(tx.is_closed());
        match tx.push(2) {
            Err(PushError::Closed(2)) => {}
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    #[test]
    fn buffered_items_are_dropped_not_leaked() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (mut tx, mut rx) = spsc::<Counted>(8);
        for _ in 0..5 {
            tx.push(Counted).unwrap();
        }
        drop(rx.pop()); // one popped and dropped by the caller
        drop(tx);
        drop(rx); // four still buffered: swept by the ring teardown
        assert_eq!(DROPS.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn cross_thread_look_ahead_sees_published_items_in_order() {
        // The consumer looks as far ahead as it may before popping a batch:
        // every borrowed item must already be the published value (a slot
        // read before its tail store, or after the producer reused it,
        // would show a stale or torn number).
        const N: u64 = 100_000;
        let (mut tx, mut rx) = spsc::<Box<u64>>(16);
        let producer = std::thread::spawn(move || {
            let mut next = 0u64;
            while next < N {
                match tx.push(Box::new(next)) {
                    Ok(()) => next += 1,
                    Err(PushError::Full(_)) => std::hint::spin_loop(),
                    Err(PushError::Closed(_)) => panic!("consumer vanished"),
                }
            }
        });
        let mut expected = 0u64;
        while expected < N {
            let mut ahead = 0;
            while let Some(item) = rx.peek(ahead) {
                assert_eq!(**item, expected + ahead as u64, "look-ahead {ahead}");
                ahead += 1;
            }
            for _ in 0..ahead {
                assert_eq!(rx.pop().as_deref(), Some(&expected));
                expected += 1;
            }
        }
        producer.join().unwrap();
        assert!(rx.peek(0).is_none());
    }

    #[test]
    fn cross_thread_stress_preserves_every_item_in_order() {
        const N: u64 = 200_000;
        let (mut tx, mut rx) = spsc::<u64>(64);
        let producer = std::thread::spawn(move || {
            let mut next = 0u64;
            while next < N {
                match tx.push(next) {
                    Ok(()) => next += 1,
                    Err(PushError::Full(_)) => std::hint::spin_loop(),
                    Err(PushError::Closed(_)) => panic!("consumer vanished"),
                }
            }
        });
        let mut expected = 0u64;
        while expected < N {
            match rx.pop() {
                Some(v) => {
                    assert_eq!(v, expected, "reordered or lost item");
                    expected += 1;
                }
                None => std::hint::spin_loop(),
            }
        }
        producer.join().unwrap();
        assert!(rx.pop().is_none());
    }
}
