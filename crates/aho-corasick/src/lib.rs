//! From-scratch Aho-Corasick implementation: the baseline the paper (and
//! Snort) uses for exact multiple pattern matching.
//!
//! Two execution engines are provided over the same construction:
//!
//! * [`NfaMatcher`] — the classic goto/fail automaton. Sparse transitions,
//!   small memory footprint, but each input byte may walk several failure
//!   links.
//! * [`DfaMatcher`] — the fully-dense state-transition-table variant that
//!   Snort's `acsmx2` "full" matcher uses and which the paper benchmarks:
//!   one 256-entry row per state, exactly one table lookup per input byte.
//!   This is the configuration whose memory footprint explodes with the
//!   number of patterns and whose poor cache locality motivates DFC and
//!   V-PATCH (paper §II-A).
//!
//! Both engines produce the complete set of `(pattern, position)`
//! occurrences, including overlapping matches — the correctness reference
//! the other engines are compared against in the paper's evaluation and in
//! this workspace's test suites.

#![warn(missing_docs)]

pub mod dfa;
pub mod nfa;

pub use dfa::DfaMatcher;
pub use nfa::{AcAutomaton, NfaMatcher};
