//! Engine registry: builds each of the five algorithms the paper compares,
//! at a chosen vector width.

use mpm_aho_corasick::DfaMatcher;
use mpm_dfc::{Dfc, VectorDfc};
use mpm_patterns::{Matcher, PatternSet};
use mpm_simd::{Avx2Backend, Avx512Backend, BackendKind, ScalarBackend, VectorBackend};
use mpm_vpatch::{SPatch, VPatch};

/// The five algorithms of the paper's evaluation (Figures 4 and 7).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineKind {
    /// Snort-style full-DFA Aho-Corasick.
    AhoCorasick,
    /// Scalar DFC (Choi et al.).
    Dfc,
    /// Direct vectorization of DFC's filtering.
    VectorDfc,
    /// Scalar S-PATCH (this paper, Algorithm 1).
    SPatch,
    /// Vectorized V-PATCH (this paper, Algorithm 2).
    VPatch,
}

impl EngineKind {
    /// The engines in the order the paper's figures list them.
    pub const ALL: [EngineKind; 5] = [
        EngineKind::AhoCorasick,
        EngineKind::Dfc,
        EngineKind::VectorDfc,
        EngineKind::SPatch,
        EngineKind::VPatch,
    ];

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::AhoCorasick => "Aho-Corasick",
            EngineKind::Dfc => "DFC",
            EngineKind::VectorDfc => "Vector-DFC",
            EngineKind::SPatch => "S-PATCH",
            EngineKind::VPatch => "V-PATCH",
        }
    }
}

/// Which SIMD platform the vectorized engines should model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Platform {
    /// The paper's Haswell machine: AVX2, 8 lanes (falls back to the scalar
    /// backend at width 8 if the CPU lacks AVX2).
    Haswell,
    /// The paper's Xeon-Phi: 512-bit vectors, 16 lanes (falls back to the
    /// scalar backend at width 16 if the CPU lacks AVX-512).
    XeonPhi,
}

impl Platform {
    /// Number of 32-bit lanes for this platform.
    pub fn lanes(self) -> usize {
        match self {
            Platform::Haswell => 8,
            Platform::XeonPhi => 16,
        }
    }

    /// The backend actually used on this machine for this platform model.
    pub fn effective_backend(self) -> BackendKind {
        match self {
            Platform::Haswell if BackendKind::Avx2.is_available() => BackendKind::Avx2,
            Platform::XeonPhi if BackendKind::Avx512.is_available() => BackendKind::Avx512,
            _ => BackendKind::Scalar,
        }
    }

    /// Human-readable description of what will run, e.g.
    /// `"haswell-width (8 lanes, avx2)"`.
    pub fn describe(self) -> String {
        let name = match self {
            Platform::Haswell => "haswell-width",
            Platform::XeonPhi => "xeon-phi-width",
        };
        format!(
            "{name} ({} lanes, {})",
            self.lanes(),
            self.effective_backend()
        )
    }
}

/// Builds an engine of the requested kind over `set`, using the SIMD width
/// of `platform` for the vectorized engines.
pub fn build_engine(
    kind: EngineKind,
    set: &PatternSet,
    platform: Platform,
) -> Box<dyn Matcher + Send + Sync> {
    match kind {
        EngineKind::AhoCorasick => Box::new(DfaMatcher::build(set)),
        EngineKind::Dfc => Box::new(Dfc::build(set)),
        EngineKind::VectorDfc => match platform {
            Platform::Haswell => {
                if <Avx2Backend as VectorBackend<8>>::is_available() {
                    Box::new(VectorDfc::<Avx2Backend, 8>::build(set))
                } else {
                    Box::new(VectorDfc::<ScalarBackend, 8>::build(set))
                }
            }
            Platform::XeonPhi => {
                if <Avx512Backend as VectorBackend<16>>::is_available() {
                    Box::new(VectorDfc::<Avx512Backend, 16>::build(set))
                } else {
                    Box::new(VectorDfc::<ScalarBackend, 16>::build(set))
                }
            }
        },
        EngineKind::SPatch => Box::new(SPatch::build(set)),
        EngineKind::VPatch => match platform {
            Platform::Haswell => {
                if <Avx2Backend as VectorBackend<8>>::is_available() {
                    Box::new(VPatch::<Avx2Backend, 8>::build(set))
                } else {
                    Box::new(VPatch::<ScalarBackend, 8>::build(set))
                }
            }
            Platform::XeonPhi => {
                if <Avx512Backend as VectorBackend<16>>::is_available() {
                    Box::new(VPatch::<Avx512Backend, 16>::build(set))
                } else {
                    Box::new(VPatch::<ScalarBackend, 16>::build(set))
                }
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpm_patterns::naive::naive_find_all;

    #[test]
    fn every_engine_builds_and_is_exact() {
        let set = PatternSet::from_literals(&["GET", "abcd", "x", "/etc/passwd"]);
        let hay = b"GET /etc/passwd x abcdefgh";
        let expected = naive_find_all(&set, hay);
        for platform in [Platform::Haswell, Platform::XeonPhi] {
            for kind in EngineKind::ALL {
                let engine = build_engine(kind, &set, platform);
                assert_eq!(
                    engine.find_all(hay),
                    expected,
                    "{} on {:?}",
                    kind.label(),
                    platform
                );
            }
        }
    }

    #[test]
    fn platform_descriptions_mention_lane_count() {
        assert!(Platform::Haswell.describe().contains("8 lanes"));
        assert!(Platform::XeonPhi.describe().contains("16 lanes"));
    }

    #[test]
    fn every_engine_reports_a_consistent_memory_footprint() {
        // The uniform contract behind the benchmark's memory rows: every
        // engine reports its bytes, and the filtering engines attribute them
        // to the filter/verify split.
        let set = PatternSet::from_literals(&["GET", "abcd", "x", "/etc/passwd", "attack"]);
        for kind in EngineKind::ALL {
            let engine = build_engine(kind, &set, Platform::Haswell);
            let fp = engine.memory_footprint();
            assert!(fp.total() > 0, "{}", kind.label());
            if matches!(
                kind,
                EngineKind::Dfc | EngineKind::VectorDfc | EngineKind::SPatch | EngineKind::VPatch
            ) {
                assert!(fp.filter_bytes > 0, "{}", kind.label());
                assert!(fp.verify_bytes > 0, "{}", kind.label());
                assert_eq!(fp.other_bytes, 0, "{}", kind.label());
            }
        }
        // The non-figure engines expose the same contract.
        let wm = mpm_wu_manber::WuManber::build(&set);
        assert!(wm.memory_footprint().filter_bytes > 0);
        assert!(wm.memory_footprint().verify_bytes > 0);
        let nfa = mpm_aho_corasick::NfaMatcher::build(&set);
        assert!(nfa.memory_footprint().other_bytes > 0);
        let naive = mpm_patterns::NaiveMatcher::new(&set);
        assert!(naive.memory_footprint().other_bytes > 0);
    }
}
