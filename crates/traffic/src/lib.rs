//! Traffic-trace substrate for the V-PATCH reproduction.
//!
//! The paper evaluates the engines on reassembled network payload streams:
//!
//! * 1 GB samples from days 2 and 6 of the **ISCX** intrusion-detection
//!   dataset (HTTP-dominated realistic traffic);
//! * 300 MB of the **DARPA 2000** capture;
//! * 1 GB of **random** bytes (synthetic best case for filtering);
//! * a synthetic input with a controlled **fraction of matching content**
//!   (Figure 5c).
//!
//! The ISCX and DARPA captures cannot be redistributed, so this crate
//! generates deterministic synthetic equivalents that preserve what the
//! engines care about: byte-value distribution, protocol keyword density
//! (which drives the filter pass rate), and the rate at which actual pattern
//! occurrences appear in the stream (which drives verification load).
//! DESIGN.md documents the substitution; [`TraceKind`] gives one generator
//! per paper trace.
//!
//! All generation is seeded and deterministic: the same [`TraceSpec`]
//! always produces the same bytes, so experiments are reproducible.

#![warn(missing_docs)]

pub mod http;
pub mod inject;
pub mod trace;

pub use inject::MatchDensityGenerator;
pub use trace::{TraceGenerator, TraceKind, TraceSpec};
