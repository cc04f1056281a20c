//! Legality has two entry points over one `LegalityContext`: the full
//! report (`check_legality_with_deps`: every dependence, fixed probe
//! order, one witness each) and the early-exit boolean
//! (`is_legal_with_deps`: cheapest dependence first, probes sorted by
//! size, stop at the first violation). The search filters candidates
//! with the boolean and explains refusals with the report, so the two
//! must give the same verdict on every candidate the search can raise.

use shackle_core::search::{candidate_shackles, SearchConfig};
use shackle_core::{check_legality_with_deps, is_legal_with_deps};
use shackle_ir::deps::dependences;
use shackle_ir::kernels;

#[test]
fn early_exit_verdict_equals_full_report_on_every_registry_candidate() {
    let mut legal = 0usize;
    let mut illegal = 0usize;
    for (name, build) in kernels::all() {
        let p = build();
        let deps = dependences(&p);
        for s in candidate_shackles(&p, &SearchConfig::default()) {
            let factors = std::slice::from_ref(&s);
            let fast = is_legal_with_deps(&p, factors, &deps);
            let full = check_legality_with_deps(&p, factors, &deps);
            assert_eq!(fast, full.is_legal(), "{name}: candidate {s}");
            if fast {
                legal += 1;
            } else {
                illegal += 1;
            }
        }
    }
    // the comparison must have seen both verdicts, not one constant
    assert!(legal > 0 && illegal > 0, "legal {legal}, illegal {illegal}");
}
