//! Shared by the engine contract suites (`resume_contract.rs`,
//! `segment_contract.rs`).

use std::sync::Arc;

use vpatch_suite::prelude::*;
use vpatch_suite::simd::{Avx2Backend, Avx512Backend, ScalarBackend};

/// Every engine in the workspace, on every backend this run can dispatch to
/// (`MPM_FORCE_BACKEND` narrows the list).
pub fn all_engines(rules: &PatternSet) -> Vec<SharedMatcher> {
    let mut engines: Vec<SharedMatcher> = vec![
        Arc::from(NaiveMatcher::new(rules)),
        Arc::from(NfaMatcher::build(rules)),
        Arc::from(DfaMatcher::build(rules)),
        Arc::from(WuManber::build(rules)),
        Arc::from(Dfc::build(rules)),
        Arc::from(VectorDfc::<ScalarBackend, 8>::build(rules)),
        Arc::from(SPatch::build(rules)),
        Arc::from(VPatch::<ScalarBackend, 8>::build(rules)),
        Arc::from(VPatch::<ScalarBackend, 16>::build(rules)),
    ];
    for kind in available_backends() {
        match kind {
            BackendKind::Scalar => {}
            BackendKind::Avx2 => {
                engines.push(Arc::from(VPatch::<Avx2Backend, 8>::build(rules)));
                engines.push(Arc::from(VectorDfc::<Avx2Backend, 8>::build(rules)));
            }
            BackendKind::Avx512 => {
                engines.push(Arc::from(VPatch::<Avx512Backend, 16>::build(rules)));
                engines.push(Arc::from(VectorDfc::<Avx512Backend, 16>::build(rules)));
            }
        }
    }
    engines
}
