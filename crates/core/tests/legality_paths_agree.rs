//! Legality has two entry points over one Theorem-1 context: the full
//! report (`check_legality_with_deps`: every dependence, fixed probe
//! order, one witness each) and the early-exit tri-state verdict
//! (`decide_legality`: cheapest dependence first, probes sorted by
//! size, stop at the first proven violation, under the caller's
//! budget). The search filters candidates with the verdict and explains
//! refusals with the report, so on every candidate the search can raise
//! the two must agree — and a tighter budget may only make a verdict
//! `Undecided`, never flip it.

use shackle_core::search::{candidate_shackles, SearchConfig};
use shackle_core::{check_legality_with_deps, decide_legality, Legality};
use shackle_ir::deps::dependences;
use shackle_ir::kernels;
use shackle_polyhedra::{cache, Budget};

#[test]
fn verdict_equals_full_report_and_no_budget_flips_it_on_every_registry_candidate() {
    let mut legal = 0usize;
    let mut illegal = 0usize;
    // [illegal, undecided] among cholesky_right's strict verdicts
    let mut strict_cholesky = [0usize; 2];
    for (name, build) in kernels::all() {
        let p = build();
        let deps = dependences(&p);
        // Each kernel starts cold; within it the strict pass of one
        // candidate runs over what the default passes of the earlier
        // ones proved — a budgeted daemon over a warm cache. Proven
        // entries are shared across budgets, so the strict verdict has
        // to be taken before the same candidate's default one.
        cache::clear_cache();
        for s in candidate_shackles(&p, &SearchConfig::default()) {
            let factors = std::slice::from_ref(&s);
            let strict = decide_legality(&p, factors, &deps, &Budget::strict());
            let verdict = decide_legality(&p, factors, &deps, &Budget::default());
            let full = check_legality_with_deps(&p, factors, &deps);
            assert_eq!(
                verdict == Legality::Legal,
                full.is_legal(),
                "{name}: candidate {s}"
            );
            assert_ne!(verdict, Legality::Undecided, "{name}: candidate {s}");
            assert!(
                strict == Legality::Undecided || strict == verdict,
                "{name}: candidate {s}: strict budget says {strict:?}, default {verdict:?}"
            );
            if verdict == Legality::Legal {
                legal += 1;
            } else {
                illegal += 1;
            }
            if name == "cholesky_right" {
                strict_cholesky[0] += usize::from(strict == Legality::Illegal);
                strict_cholesky[1] += usize::from(strict == Legality::Undecided);
            }
        }
    }
    // the comparison must have seen both verdicts, not one constant
    assert!(legal > 0 && illegal > 0, "legal {legal}, illegal {illegal}");
    // the strict budget leaves cholesky_right candidates undecided (the
    // daemon refuses on those) and still proves others illegal: where a
    // cached proof decides one probe, a proven violation outranks the
    // probes the budget could not decide
    assert!(
        strict_cholesky.iter().all(|&n| n > 0),
        "cholesky_right under the strict budget: [illegal, undecided] = {strict_cholesky:?}"
    );
}
