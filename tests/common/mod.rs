//! Shared by the root integration suites: the engine registry and the
//! payload splicing of the rule differential suites.

// Each suite compiles this module on its own and uses only part of it.
#![allow(dead_code)]

use std::sync::Arc;

use proptest::prelude::*;
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

/// Splice directives: `(rule, content, position)` triples, reduced modulo
/// the actual set/payload sizes, that overwrite payload bytes with content
/// bytes so constrained multi-content matches really happen.
pub fn splice_strategy() -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
    proptest::collection::vec((any::<usize>(), any::<usize>(), any::<usize>()), 0..8)
}

/// Applies splice directives to the payload.
pub fn splice(set: &RuleSet, payload: &mut [u8], plan: &[(usize, usize, usize)]) {
    if payload.is_empty() || set.is_empty() {
        return;
    }
    for &(r, c, pos) in plan {
        let rule = set.get(RuleId((r % set.len()) as u32));
        let content = &rule.contents()[c % rule.contents().len()];
        let bytes = content.bytes();
        if bytes.len() > payload.len() {
            continue;
        }
        let at = pos % (payload.len() - bytes.len() + 1);
        payload[at..at + bytes.len()].copy_from_slice(bytes);
    }
}
