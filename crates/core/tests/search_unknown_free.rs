//! The Unknown verdict exists for adversarial inputs; the paper's own
//! kernels must never need it. This test drives the full legality
//! search over every `ir::kernels::all()` builder and pins
//! `poly.unknown == 0`: the default budget decides every dependence
//! probe outright, so the conservative-rejection path cannot silently
//! shrink the search space the figures are built on.

use shackle_core::search::{enumerate_legal, SearchConfig};
use shackle_ir::kernels;
use shackle_polyhedra::cache;

#[test]
fn search_over_every_kernel_is_unknown_free() {
    let before = cache::stats().unknown_verdicts;
    let mut legal_total = 0usize;
    for (_, build) in kernels::all() {
        legal_total += enumerate_legal(&build(), &SearchConfig::default()).len();
    }
    assert!(legal_total > 0, "the search found no legal shackles at all");
    let after = cache::stats().unknown_verdicts;
    assert_eq!(
        after - before,
        0,
        "legality search over the in-repo kernels hit {} Unknown verdicts",
        after - before
    );
}
