//! Runtime backend detection and selection.
//!
//! The engines in `mpm-vpatch` / `mpm-dfc` are compiled generically over a
//! [`VectorBackend`]; this module answers the runtime question "which of
//! those instantiations can this CPU actually run, and which should I pick
//! by default?". It mirrors the paper's two platforms: AVX2 ⇒ the Haswell
//! configuration (8 lanes), AVX-512 ⇒ the Xeon-Phi-width configuration
//! (16 lanes).
//!
//! # Forcing a backend
//!
//! Setting [`FORCE_BACKEND_ENV`] (`MPM_FORCE_BACKEND=scalar|avx2|avx512`)
//! pins the *dispatch-level* selection: [`detect_best`] returns the forced
//! backend and [`available_backends`] returns only it, so everything built
//! through auto-selection (engine `build_auto` constructors, tests and
//! benches that iterate the available list) deterministically exercises that
//! one code path. This is how CI pins the scalar and AVX2 paths under test
//! regardless of runner silicon.
//!
//! Forcing never lies about hardware: naming a backend the CPU cannot run
//! (or an unknown name) panics with a diagnostic on first use rather than
//! silently falling back. Explicit instantiation (`VPatch::<Avx2Backend,
//! 8>::build`) and [`BackendKind::is_available`] keep reporting the hardware
//! truth — the override narrows choice, it does not fake capability.

use crate::{Avx2Backend, Avx512Backend, ScalarBackend, VectorBackend};
use std::sync::OnceLock;

/// Environment variable that pins dispatch-level backend selection
/// (`scalar`, `avx2` or `avx512`). See the module documentation.
pub const FORCE_BACKEND_ENV: &str = "MPM_FORCE_BACKEND";

/// The backends an engine can be instantiated with.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum BackendKind {
    /// Portable scalar loops (always available).
    Scalar,
    /// AVX2, 8 × 32-bit lanes (the paper's Haswell platform).
    Avx2,
    /// AVX-512F, 16 × 32-bit lanes (the paper's Xeon-Phi vector width).
    Avx512,
}

impl BackendKind {
    /// Number of 32-bit lanes this backend processes per iteration.
    /// The scalar backend is reported as 1 (it has no fixed width; engines
    /// choose the width they instantiate it at).
    pub fn lanes(self) -> usize {
        match self {
            BackendKind::Scalar => 1,
            BackendKind::Avx2 => 8,
            BackendKind::Avx512 => 16,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::Avx2 => "avx2",
            BackendKind::Avx512 => "avx512",
        }
    }

    /// Parses a backend name as used by [`FORCE_BACKEND_ENV`]
    /// (case-insensitive; `avx-512`/`avx512f` are accepted for `avx512`).
    pub fn from_name(name: &str) -> Option<BackendKind> {
        match name.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(BackendKind::Scalar),
            "avx2" => Some(BackendKind::Avx2),
            "avx512" | "avx-512" | "avx512f" => Some(BackendKind::Avx512),
            _ => None,
        }
    }

    /// True if the current CPU can run this backend. Reports the hardware
    /// truth; [`forced_backend`] does not affect it.
    pub fn is_available(self) -> bool {
        match self {
            BackendKind::Scalar => <ScalarBackend as VectorBackend<8>>::is_available(),
            BackendKind::Avx2 => <Avx2Backend as VectorBackend<8>>::is_available(),
            BackendKind::Avx512 => <Avx512Backend as VectorBackend<16>>::is_available(),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The backend pinned by [`FORCE_BACKEND_ENV`], if any.
///
/// The environment is read once (first call wins, the result is cached for
/// the process lifetime, matching how tests and engines expect a stable
/// dispatch decision).
///
/// # Panics
/// Panics if the variable is set to an unknown name, or names a backend this
/// CPU cannot run — a forced run must never silently measure or test a
/// different code path than the one asked for.
pub fn forced_backend() -> Option<BackendKind> {
    static FORCED: OnceLock<Option<BackendKind>> = OnceLock::new();
    *FORCED.get_or_init(|| {
        let value = std::env::var(FORCE_BACKEND_ENV).ok()?;
        let kind = parse_force_value(&value)?;
        assert!(
            kind.is_available(),
            "{FORCE_BACKEND_ENV}={} but this CPU does not support it",
            kind.name()
        );
        Some(kind)
    })
}

/// Parses a raw [`FORCE_BACKEND_ENV`] value. The value is normalized with
/// trim + ASCII-lowercase before matching, so `AVX2`, ` avx512 ` and the
/// trailing newline that shell quoting (`MPM_FORCE_BACKEND="avx2\n"`) or
/// `echo`-built env files commonly leave behind all resolve to their
/// backend. A value that is empty after trimming counts as unset.
///
/// Extracted from [`forced_backend`] so the full unset/normalized/unknown
/// decision — previously spread between the env read and
/// [`BackendKind::from_name`]'s own normalization — lives (and is unit
/// tested) in one place; `forced_backend`'s `OnceLock` makes the composed
/// path untestable in-process.
///
/// # Panics
/// Panics on a genuinely unknown name — a forced run must never silently
/// fall back to a different code path than the one asked for.
fn parse_force_value(value: &str) -> Option<BackendKind> {
    let normalized = value.trim();
    if normalized.is_empty() {
        return None;
    }
    match BackendKind::from_name(normalized) {
        Some(kind) => Some(kind),
        None => {
            panic!("{FORCE_BACKEND_ENV}={value:?} is not a backend (expected scalar|avx2|avx512)")
        }
    }
}

/// Returns every backend dispatch may select, in increasing width order.
///
/// Without a [`forced_backend`] this is every backend the CPU supports
/// (scalar is always present); with one it is exactly the forced backend, so
/// callers that sweep "all available backends" stay pinned too.
pub fn available_backends() -> Vec<BackendKind> {
    if let Some(kind) = forced_backend() {
        return vec![kind];
    }
    let mut v = vec![BackendKind::Scalar];
    if BackendKind::Avx2.is_available() {
        v.push(BackendKind::Avx2);
    }
    if BackendKind::Avx512.is_available() {
        v.push(BackendKind::Avx512);
    }
    v
}

/// The backend an engine's `new_auto`/`build_auto` constructor should pick:
/// the [`forced_backend`] when set, otherwise the widest available backend
/// (best throughput on this machine).
///
/// Decided once per process and cached next to [`forced_backend`], so hot
/// callers pay one atomic load and no allocation.
pub fn detect_best() -> BackendKind {
    static BEST: OnceLock<BackendKind> = OnceLock::new();
    *BEST.get_or_init(|| {
        forced_backend().unwrap_or_else(|| {
            [BackendKind::Avx512, BackendKind::Avx2]
                .into_iter()
                .find(|kind| kind.is_available())
                .unwrap_or(BackendKind::Scalar)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_available() {
        assert!(BackendKind::Scalar.is_available());
        // `is_available` reports hardware truth regardless of any force; the
        // available list contains scalar unless a non-scalar force narrowed it.
        match forced_backend() {
            None | Some(BackendKind::Scalar) => {
                assert!(available_backends().contains(&BackendKind::Scalar));
            }
            Some(kind) => assert_eq!(available_backends(), vec![kind]),
        }
    }

    #[test]
    fn detect_best_returns_an_available_backend() {
        let best = detect_best();
        assert!(best.is_available());
        // Best is the last (widest) entry of the available list.
        assert_eq!(best, *available_backends().last().unwrap());
        if let Some(kind) = forced_backend() {
            assert_eq!(best, kind, "forcing must pin detect_best");
        }
    }

    #[test]
    fn lanes_and_names() {
        assert_eq!(BackendKind::Scalar.lanes(), 1);
        assert_eq!(BackendKind::Avx2.lanes(), 8);
        assert_eq!(BackendKind::Avx512.lanes(), 16);
        assert_eq!(BackendKind::Avx2.name(), "avx2");
        assert_eq!(format!("{}", BackendKind::Avx512), "avx512");
    }

    #[test]
    fn from_name_round_trips_and_rejects_garbage() {
        for kind in [BackendKind::Scalar, BackendKind::Avx2, BackendKind::Avx512] {
            assert_eq!(BackendKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(BackendKind::from_name(" AVX2 "), Some(BackendKind::Avx2));
        assert_eq!(BackendKind::from_name("avx-512"), Some(BackendKind::Avx512));
        assert_eq!(BackendKind::from_name("sse2"), None);
        assert_eq!(BackendKind::from_name(""), None);
    }

    #[test]
    fn force_values_are_normalized_before_matching() {
        // Uppercase, surrounding whitespace and the trailing newline shell
        // quoting leaves behind must all resolve — not panic.
        assert_eq!(parse_force_value("AVX2"), Some(BackendKind::Avx2));
        assert_eq!(parse_force_value("avx2\n"), Some(BackendKind::Avx2));
        assert_eq!(parse_force_value(" Scalar \n"), Some(BackendKind::Scalar));
        assert_eq!(parse_force_value("AVX512\n"), Some(BackendKind::Avx512));
        assert_eq!(parse_force_value("Avx-512"), Some(BackendKind::Avx512));
        // Empty-after-trim counts as unset.
        assert_eq!(parse_force_value(""), None);
        assert_eq!(parse_force_value(" \n\t"), None);
    }

    #[test]
    #[should_panic(expected = "is not a backend")]
    fn genuinely_unknown_force_value_still_panics() {
        let _ = parse_force_value("sse2\n");
    }

    #[test]
    fn available_list_is_ordered_by_width() {
        let list = available_backends();
        let lanes: Vec<usize> = list.iter().map(|b| b.lanes()).collect();
        let mut sorted = lanes.clone();
        sorted.sort_unstable();
        assert_eq!(lanes, sorted);
    }

    #[test]
    fn forced_backend_matches_environment() {
        // The OnceLock caches the first read, so this test only asserts
        // consistency with whatever the process environment says now.
        match std::env::var(FORCE_BACKEND_ENV) {
            Ok(value) if !value.trim().is_empty() => {
                assert_eq!(forced_backend(), BackendKind::from_name(&value));
            }
            _ => assert_eq!(forced_backend(), None),
        }
    }
}
