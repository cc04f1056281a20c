//! Redundancy removal and `gist` — the "polyhedral algebra tool" role the
//! paper delegates to the Omega calculator (§4.1: "the conditionals …
//! can be simplified using any polyhedral algebra tool").

use crate::error::Budget;
use crate::{Constraint, System, Verdict};

/// Is constraint `c` implied by `sys` (over the integers)?
///
/// Decided exactly when the budget holds: `sys ⊨ c` iff `sys ∧ ¬c` has
/// no integer solution (the negation of an equality is a disjunction,
/// so both branches must be infeasible). A branch the solver cannot
/// decide within the default [`Budget`] yields `false` — "not proven
/// implied" — which is the sound direction for every caller in this
/// crate (an unproven implication keeps a constraint rather than
/// dropping it). Use [`try_implies`] to distinguish a proven `No` from
/// an `Unknown`.
///
/// # Examples
///
/// ```
/// use shackle_polyhedra::{Constraint, LinExpr, System};
/// use shackle_polyhedra::simplify::implies;
/// let mut s = System::new();
/// s.add(Constraint::ge(LinExpr::var("x"), LinExpr::constant(5)));
/// assert!(implies(&s, &Constraint::ge(LinExpr::var("x"), LinExpr::constant(3))));
/// assert!(!implies(&s, &Constraint::ge(LinExpr::var("x"), LinExpr::constant(6))));
/// ```
pub fn implies(sys: &System, c: &Constraint) -> bool {
    try_implies(sys, c, &Budget::default()) == Verdict::Yes
}

/// Three-valued implication test under an explicit [`Budget`].
///
/// `Yes`/`No` are proven; `Unknown` means some branch of `sys ∧ ¬c`
/// exhausted the budget before being proven infeasible (while no branch
/// was proven feasible). Never panics.
pub fn try_implies(sys: &System, c: &Constraint, budget: &Budget) -> Verdict {
    // Fast path: one stored row (or a nonnegative combination of two)
    // syntactically dominating `c` proves the implication without an
    // Omega query.
    if sys.dominates(c) || sys.dominates_pair(c) {
        return Verdict::Yes;
    }
    let mut unknown = false;
    for branch in c.negate() {
        let mut probe = sys.clone();
        probe.add(branch);
        match crate::cache::try_feasible(&probe, budget) {
            Ok(true) => return Verdict::No,
            Ok(false) => {}
            Err(_) => unknown = true,
        }
    }
    if unknown {
        Verdict::Unknown
    } else {
        Verdict::Yes
    }
}

/// Remove constraints that are implied by the remaining ones.
///
/// Greedy and order-stable: constraints are considered in reverse
/// insertion order so that "earlier" constraints (typically loop bounds)
/// survive in preference to derived ones.
pub fn remove_redundant(sys: &System) -> System {
    if sys.is_contradictory() || crate::cache::try_feasible(sys, &Budget::default()) == Ok(false) {
        // an infeasible system must stay infeasible: the greedy loop
        // below would otherwise vacuously drop every constraint.
        // (An `Unknown` feasibility falls through: the loop only drops
        // constraints whose implication is *proven*, which is sound.)
        return contradiction_like(sys);
    }
    let mut cons = sys.constraints();
    let mut i = cons.len();
    while i > 0 {
        i -= 1;
        let candidate = cons[i].clone();
        let rest: System = cons
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, c)| c.clone())
            .collect();
        if implies(&rest, &candidate) {
            cons.remove(i);
        }
    }
    // preserve the full variable universe
    let mut out = System::with_vars_arc(sys.vars_arc());
    out.add_all(cons);
    out
}

/// A system with the same variables that is unsatisfiable.
fn contradiction_like(sys: &System) -> System {
    let mut out = System::with_vars_arc(sys.vars_arc());
    out.add(Constraint::geq_zero(crate::LinExpr::constant(-1)));
    out
}

/// `gist(sys, context)`: the constraints of `sys` that are *not* implied
/// when `context` is known to hold — the minimal guard to test inside a
/// region where `context` is already guaranteed.
///
/// The result `g` satisfies: `g ∧ context` has the same integer points as
/// `sys ∧ context`.
///
/// # Examples
///
/// ```
/// use shackle_polyhedra::{Constraint, LinExpr, System};
/// use shackle_polyhedra::simplify::gist;
/// let x = || LinExpr::var("x");
/// let mut sys = System::new();
/// sys.add(Constraint::ge(x(), LinExpr::constant(1)));
/// sys.add(Constraint::le(x(), LinExpr::constant(10)));
/// let mut ctx = System::new();
/// ctx.add(Constraint::ge(x(), LinExpr::constant(0)));
/// ctx.add(Constraint::le(x(), LinExpr::constant(10)));
/// let g = gist(&sys, &ctx);
/// // only the lower bound remains to be checked
/// assert_eq!(g.constraints().len(), 1);
/// ```
pub fn gist(sys: &System, context: &System) -> System {
    if crate::cache::try_feasible(&sys.and(context), &Budget::default()) == Ok(false) {
        // `g ∧ context` must stay empty; return a canonical false.
        // `Unknown` falls through, like in [`remove_redundant`].
        return contradiction_like(sys);
    }
    // Greedy like [`remove_redundant`]: candidates are considered in
    // reverse insertion order against the rows still kept plus
    // `context`. A candidate already dominated by a single `context`
    // row is dropped without building `rest` at all (if `context` alone
    // implies it, so does `rest ∧ context`).
    let all = sys.constraints();
    let mut keep = vec![true; all.len()];
    let mut i = all.len();
    while i > 0 {
        i -= 1;
        let candidate = &all[i];
        if context.dominates(candidate) {
            keep[i] = false;
            continue;
        }
        let mut rest = System::with_vars_arc(sys.vars_arc());
        for (j, row) in sys.rows().enumerate() {
            if keep[j] && j != i {
                rest.push_row(row.coeffs, row.constant, row.rel);
            }
        }
        let rest = rest.and(context);
        if implies(&rest, candidate) {
            keep[i] = false;
        }
    }
    let mut out = System::with_vars_arc(sys.vars_arc());
    out.add_all(
        all.into_iter()
            .zip(keep)
            .filter(|&(_, k)| k)
            .map(|(c, _)| c),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinExpr;

    fn v(n: &str) -> LinExpr {
        LinExpr::var(n)
    }

    fn c(k: i64) -> LinExpr {
        LinExpr::constant(k)
    }

    #[test]
    fn redundant_bound_removed() {
        let mut s = System::new();
        s.add(Constraint::ge(v("x"), c(5)));
        s.add(Constraint::ge(v("x"), c(3))); // implied
        let r = remove_redundant(&s);
        assert_eq!(r.constraints().len(), 1);
        assert_eq!(r.constraints()[0].to_string(), "x - 5 >= 0");
    }

    #[test]
    fn nothing_removed_when_independent() {
        let mut s = System::new();
        s.add(Constraint::ge(v("x"), c(1)));
        s.add(Constraint::le(v("x"), v("n")));
        let r = remove_redundant(&s);
        assert_eq!(r.constraints().len(), 2);
    }

    #[test]
    fn equality_implication() {
        let mut s = System::new();
        s.add(Constraint::eq(v("x"), c(4)));
        assert!(implies(&s, &Constraint::ge(v("x"), c(4))));
        assert!(implies(&s, &Constraint::le(v("x"), c(4))));
        assert!(implies(&s, &Constraint::eq(v("x"), c(4))));
        assert!(!implies(&s, &Constraint::eq(v("x"), c(5))));
    }

    #[test]
    fn gist_against_loop_bounds() {
        // Inside a loop 1 <= i <= n, the guard 25b-24 <= i <= 25b
        // gists to itself; but a guard i >= 0 gists away entirely.
        let mut ctx = System::new();
        ctx.add(Constraint::ge(v("i"), c(1)));
        ctx.add(Constraint::le(v("i"), v("n")));
        let mut guard = System::new();
        guard.add(Constraint::ge(v("i"), c(0)));
        guard.add(Constraint::ge(v("i"), v("b") * 25 - c(24)));
        let g = gist(&guard, &ctx);
        assert_eq!(g.constraints().len(), 1);
        assert!(g.constraints()[0].to_string().contains('b'));
    }

    #[test]
    fn gist_preserves_conjunction_semantics() {
        let mut sys = System::new();
        sys.add(Constraint::ge(v("x"), c(2)));
        sys.add(Constraint::le(v("x"), c(8)));
        let mut ctx = System::new();
        ctx.add(Constraint::ge(v("x"), c(0)));
        ctx.add(Constraint::le(v("x"), c(8)));
        let g = gist(&sys, &ctx);
        for x in -2..=12 {
            let env = |_: &str| x;
            assert_eq!(
                g.eval(&env) && ctx.eval(&env),
                sys.eval(&env) && ctx.eval(&env),
                "x = {x}"
            );
        }
    }
}
