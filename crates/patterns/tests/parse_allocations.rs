//! The parser's allocation bound, counted rather than timed: parsing N
//! single-content rules allocates a small constant per rule — what the
//! result keeps — plus O(log N) for the growth of the result vectors.
//! Nothing is allocated per option or per scratch step.
//!
//! A counting `#[global_allocator]` counts the allocations the test thread
//! makes while a closure runs; this binary holds one test so nothing else
//! allocates on that thread meanwhile.

use mpm_patterns::snort::{parse_grouped, parse_rules, parse_ruleset, ParseOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Whether this thread's allocations are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocations (fresh and resizing) counted on this thread.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the thread-local counters are const-initialised and never
// allocate themselves.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns how many allocations it made, dropping its result
/// only after counting stops.
fn allocations<T>(f: impl FnOnce() -> T) -> usize {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let result = f();
    COUNTING.with(|c| c.set(false));
    drop(result);
    ALLOCATIONS.with(Cell::get)
}

/// `n` single-content rules with every kind of option the parser reads:
/// a quoted `msg` with a `;`, a content mixing literals, escapes and a hex
/// block, `nocase`, a positional modifier, `sid`, and an option it skips.
fn rule_text(n: usize) -> String {
    (0..n)
        .map(|i| {
            format!(
                "alert tcp $EXTERNAL_NET any -> $HOME_NET {} (msg:\"rule; {i}\"; \
                 content:\"GET /\\\"{i}|0D 0A|x\"; nocase; offset:{}; sid:{i}; rev:1;)\n",
                1000 + i % 64,
                i % 7
            )
        })
        .collect()
}

#[test]
fn parsing_allocates_a_constant_per_rule_plus_logarithmic_growth() {
    let options = ParseOptions::default();
    for n in [512, 8192] {
        let text = rule_text(n);
        // Growth of the result vectors (one allocation per doubling) and of
        // the parser's reused scratch, plus a constant: the default `$VAR`
        // table of the grouped view.
        let slack = 2 * (usize::BITS - n.leading_zeros()) as usize + 32;
        // What each view keeps per rule:
        // * patterns — the content's bytes;
        let patterns = allocations(|| parse_rules(&text, options).unwrap());
        assert!(patterns <= n + slack, "parse_rules, {n} rules: {patterns}");
        // * rules — the bytes, the rule's content list and the anchor
        //   pattern's bytes;
        let rules = allocations(|| parse_ruleset(&text, options).unwrap());
        assert!(rules <= 3 * n + slack, "parse_ruleset, {n} rules: {rules}");
        // * grouped — the bytes, the content list, the header's action and
        //   its destination port list (normalised in place).
        let grouped = allocations(|| parse_grouped(&text, options).unwrap());
        assert!(
            grouped <= 4 * n + slack,
            "parse_grouped, {n} rules: {grouped}"
        );
    }
}
