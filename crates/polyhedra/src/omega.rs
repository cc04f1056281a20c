//! The Omega test: exact integer feasibility for conjunctions of affine
//! constraints (Pugh, CACM 1992).
//!
//! This is the decision procedure behind the paper's legality condition
//! (Theorem 1 of Kodukula–Ahmed–Pingali): a data shackle is legal iff a
//! certain conjunction of affine constraints has **no integer solution**.
//! A rational test is not enough — block-coordinate constraints such as
//! `25·b − 24 ≤ j ≤ 25·b` routinely admit rational points with no integer
//! witness — so we implement Pugh's complete procedure:
//!
//! 1. normalize (GCD-reduce; an equality whose GCD does not divide its
//!    constant is unsatisfiable, inequalities are floor-tightened);
//! 2. eliminate equalities exactly using symmetric residues
//!    ([`crate::num::mod_hat`]), introducing auxiliary variables that
//!    shrink coefficients geometrically;
//! 3. eliminate inequality variables by Fourier–Motzkin: if the **real
//!    shadow** has no integer point the system is infeasible; if the
//!    **dark shadow** has one it is feasible; otherwise recurse on
//!    finitely many **splinters** that pin the variable near a lower
//!    bound.

use crate::error::{Budget, PolyError, Resource};
use crate::fm::{bound_profile, eliminate, eliminate_tracked, elimination_exact, Shadow};
use crate::num::mod_hat;
use crate::{Rel, System};

/// Per-query mutable state: the configured limits plus the splinter
/// count consumed so far by this top-level query.
struct Gas<'a> {
    budget: &'a Budget,
    splinters: u64,
}

/// Decide whether the system has an integer solution.
///
/// # Panics
///
/// Panics if the default [`Budget`] is exhausted or arithmetic
/// overflows even after `i128` promotion; [`try_is_integer_feasible`]
/// is the fallible form.
///
/// # Examples
///
/// ```
/// use shackle_polyhedra::{Constraint, LinExpr, System};
/// // 2x = 3 has no integer solution
/// let mut s = System::new();
/// s.add(Constraint::eq(LinExpr::term("x", 2), LinExpr::constant(3)));
/// assert!(!s.is_integer_feasible());
/// ```
pub fn is_integer_feasible(sys: &System) -> bool {
    try_is_integer_feasible(sys, &Budget::default())
        .unwrap_or_else(|e| panic!("omega::is_integer_feasible: {e}"))
}

/// Fallible (uncached) Omega test under an explicit [`Budget`].
///
/// `Ok(bool)` answers are *proven* — they are exact regardless of which
/// budget produced them. `Err` means the budget ran out or a reduced
/// row genuinely exceeded `i64`; the memoizing entry points surface
/// that as [`crate::Verdict::Unknown`]. Never panics.
pub fn try_is_integer_feasible(sys: &System, budget: &Budget) -> Result<bool, PolyError> {
    let mut gas = Gas {
        budget,
        splinters: 0,
    };
    solve(sys.clone(), &mut 0, 0, &mut gas)
}

/// Recursion wrapper: memoize subproblem verdicts (shadows, splinters)
/// in the shared feasibility cache. Distinct top-level queries converge
/// to common subsystems after a few eliminations, so this is where the
/// cache earns most of its hits. Depth 0 is already memoized by
/// [`crate::cache::try_feasible`]. Only proven (`Ok`) verdicts are
/// stored — an `Err` propagates without touching the cache, so a failed
/// query can never poison a later one with a different budget.
fn solve(sys: System, fresh: &mut u64, depth: usize, gas: &mut Gas<'_>) -> Result<bool, PolyError> {
    if depth == 0 {
        return solve_inner(sys, fresh, depth, gas);
    }
    if sys.is_contradictory() {
        return Ok(false);
    }
    if sys.is_empty() {
        return Ok(true);
    }
    let key = match crate::cache::sub_lookup(&sys) {
        Ok(v) => return Ok(v),
        Err(key) => key,
    };
    let v = solve_inner(sys, fresh, depth, gas)?;
    crate::cache::sub_store(key, v);
    Ok(v)
}

fn solve_inner(
    mut sys: System,
    fresh: &mut u64,
    depth: usize,
    gas: &mut Gas<'_>,
) -> Result<bool, PolyError> {
    if depth >= gas.budget.max_depth {
        return Err(PolyError::Budget {
            resource: Resource::Depth,
            limit: gas.budget.max_depth as u64,
        });
    }
    // Phase 1: eliminate all equalities exactly.
    let mut guard = 0usize;
    loop {
        if sys.is_contradictory() {
            return Ok(false);
        }
        guard += 1;
        if guard >= 10_000 {
            // The symmetric-residue substitution shrinks coefficients
            // geometrically, so this loop terminates for any correct
            // input; treat divergence as depth exhaustion rather than
            // aborting the process.
            return Err(PolyError::Budget {
                resource: Resource::Depth,
                limit: 10_000,
            });
        }
        let Some((row_i, var_k)) = pick_equality(&sys) else {
            break;
        };
        eliminate_equality(&mut sys, row_i, var_k, fresh, gas.budget)?;
    }
    if sys.is_contradictory() {
        return Ok(false);
    }

    // Phase 2: inequalities only.
    let used: Vec<usize> = (0..sys.vars().len())
        .filter(|&i| sys.column_used(i))
        .collect();
    if used.is_empty() {
        // push_row removes trivially-true rows and flags false ones
        return Ok(!sys.is_contradictory());
    }

    // Free elimination of variables unbounded on one side.
    for &i in &used {
        let (lo, hi) = bound_profile(&sys, i);
        if lo == 0 || hi == 0 {
            // no pairs: just drops rows
            let next = eliminate(&sys, i, Shadow::Real, gas.budget)?;
            return solve(next, fresh, depth + 1, gas);
        }
    }

    // Choose a variable: prefer exact elimination, then fewest pairs.
    let idx = *used
        .iter()
        .min_by_key(|&&i| {
            let (lo, hi) = bound_profile(&sys, i);
            let exact = elimination_exact(&sys, i);
            (!exact, lo * hi, max_abs_coeff(&sys, i))
        })
        .expect("used vars nonempty");

    // Exactness fast path: when every combined lower/upper pair has a
    // zero dark-shadow correction (which subsumes the syntactic
    // `elimination_exact` test used for variable choice above), the
    // real and dark shadows coincide and one recursion decides the
    // system — no dark shadow, no splinters.
    let (real, pairwise_exact) = eliminate_tracked(&sys, idx, Shadow::Real, gas.budget)?;
    if pairwise_exact {
        return solve(real, fresh, depth + 1, gas);
    }

    // Inexact: real shadow necessary, dark shadow sufficient.
    crate::cache::note_dark_fallback();
    if !solve(real, fresh, depth + 1, gas)? {
        return Ok(false);
    }
    if solve(
        eliminate(&sys, idx, Shadow::Dark, gas.budget)?,
        fresh,
        depth + 1,
        gas,
    )? {
        return Ok(true);
    }

    // Splinters: any integer solution must sit close to some lower bound.
    let mut m: Option<i64> = None;
    for r in sys.rows() {
        if r.rel == Rel::Geq && r.coeffs[idx] < 0 {
            let v = r.coeffs[idx].checked_neg().ok_or(PolyError::Overflow {
                context: "splinter modulus",
            })?;
            m = Some(m.map_or(v, |a| a.max(v)));
        }
    }
    let Some(m) = m else {
        // The chosen variable has lower bounds but no upper bounds.
        // Variables picked for splintering normally have both (the free
        // elimination above catches one-sided ones), but a one-sided
        // system must take the free-elimination path — dropping the
        // variable's rows is exact — never abort. (This was
        // `expect("bounded variable must have upper bounds")`.)
        let next = eliminate(&sys, idx, Shadow::Real, gas.budget)?;
        return solve(next, fresh, depth + 1, gas);
    };
    for low in sys
        .rows()
        .filter(|r| r.rel == Rel::Geq && r.coeffs[idx] > 0)
    {
        // 0 <= i <= (m*b - m - b)/m  (floor) — computed in i128 so huge
        // lower-bound coefficients cannot overflow the bound itself
        // (the splinter budget cuts long walks off first).
        let b = low.coeffs[idx] as i128;
        let m_wide = m as i128;
        let hi = (m_wide * b - m_wide - b).div_euclid(m_wide);
        let mut i: i128 = 0;
        while i <= hi {
            gas.splinters += 1;
            if gas.splinters > gas.budget.max_splinters {
                return Err(PolyError::Budget {
                    resource: Resource::Splinters,
                    limit: gas.budget.max_splinters,
                });
            }
            // b*x + e >= 0 pinned to b*x + e = i  ⇔  b*x + e - i = 0
            crate::cache::note_splinter();
            let mut child = sys.clone();
            let constant = (low.constant as i128)
                .checked_sub(i)
                .and_then(|c| i64::try_from(c).ok())
                .ok_or(PolyError::Overflow {
                    context: "splinter constant",
                })?;
            child.push_row(low.coeffs, constant, Rel::Eq);
            if solve(child, fresh, depth + 1, gas)? {
                return Ok(true);
            }
            i += 1;
        }
    }
    Ok(false)
}

/// Find a concrete integer solution with every variable in
/// `[-bound, bound]`, if one exists there.
///
/// Branch-and-prune: variables are fixed one at a time (each candidate
/// value checked for feasibility with the Omega test before descending),
/// so the search visits only feasible prefixes. Intended for
/// diagnostics — e.g. materializing a witness instance pair for a
/// legality violation — not for optimization.
///
/// Returns `(variable, value)` pairs in the system's variable order, or
/// `None` when no solution exists within the box (the system may still
/// be feasible outside it).
///
/// # Examples
///
/// ```
/// use shackle_polyhedra::{Constraint, LinExpr, System};
/// use shackle_polyhedra::omega::find_point;
/// let mut s = System::new();
/// s.add(Constraint::eq(
///     LinExpr::var("x") + LinExpr::var("y"),
///     LinExpr::constant(7),
/// ));
/// s.add(Constraint::ge(LinExpr::var("x"), LinExpr::constant(5)));
/// let p = find_point(&s, 10).expect("feasible in the box");
/// let get = |n: &str| p.iter().find(|(v, _)| v == n).unwrap().1;
/// assert_eq!(get("x") + get("y"), 7);
/// assert!(get("x") >= 5);
/// ```
pub fn find_point(sys: &System, bound: i64) -> Option<Vec<(String, i64)>> {
    if sys.try_is_integer_feasible() != Ok(true) {
        return None;
    }
    let vars: Vec<String> = sys.vars().to_vec();
    let mut assignment: Vec<(String, i64)> = Vec::with_capacity(vars.len());
    let mut current = sys.clone();
    for v in &vars {
        let mut fixed = None;
        // try small magnitudes first so witnesses read naturally
        let mut candidates: Vec<i64> = (0..=bound).flat_map(|k| [k, -k]).collect();
        candidates.dedup();
        for val in candidates {
            // witness extraction is best-effort: a substitution overflow
            // or a solver refusal just disqualifies this candidate
            let Ok(probe) = current.try_substitute(v, &crate::LinExpr::constant(val)) else {
                continue;
            };
            if probe.try_is_integer_feasible() == Ok(true) {
                fixed = Some((val, probe));
                break;
            }
        }
        let (val, next) = fixed?;
        assignment.push((v.clone(), val));
        current = next;
    }
    Some(assignment)
}

fn max_abs_coeff(sys: &System, idx: usize) -> i64 {
    sys.rows().map(|r| r.coeffs[idx].abs()).max().unwrap_or(0)
}

/// Find an equality row and the index of its variable with the smallest
/// non-zero |coefficient|.
fn pick_equality(sys: &System) -> Option<(usize, usize)> {
    let mut best: Option<(usize, usize, i64)> = None;
    for (ri, r) in sys.rows().enumerate() {
        if r.rel != Rel::Eq {
            continue;
        }
        for (vi, &c) in r.coeffs.iter().enumerate() {
            if c != 0 {
                let a = c.abs();
                if best.is_none_or(|(_, _, ba)| a < ba) {
                    best = Some((ri, vi, a));
                }
                if a == 1 {
                    return Some((ri, vi));
                }
            }
        }
    }
    best.map(|(ri, vi, _)| (ri, vi))
}

/// Exactly eliminate one equality (Pugh §2.3.1).
///
/// If the chosen variable has coefficient ±1 it is solved for and
/// substituted away. Otherwise a fresh variable `σ` is introduced via the
/// symmetric-residue trick, which strictly shrinks coefficients; the loop
/// in [`solve`] then retries.
fn eliminate_equality(
    sys: &mut System,
    row_i: usize,
    var_k: usize,
    fresh: &mut u64,
    budget: &Budget,
) -> Result<(), PolyError> {
    const OVF: PolyError = PolyError::Overflow {
        context: "equality elimination",
    };
    let row = sys.row(row_i);
    debug_assert_eq!(row.rel, Rel::Eq);
    let ak = row.coeffs[var_k];
    debug_assert_ne!(ak, 0);
    let ak_abs = ak.checked_abs().ok_or(OVF)?;

    if ak_abs == 1 {
        // x_k = -sign(ak) * (rest)
        let mut repl = crate::scratch::coeff_vec();
        for (i, &c) in row.coeffs.iter().enumerate() {
            repl.push(if i == var_k {
                0
            } else {
                c.checked_mul(-ak).ok_or(OVF)?
            });
        }
        let repl_const = row.constant.checked_mul(-ak).ok_or(OVF)?;
        *sys = sys.try_substitute_col(var_k, &repl, repl_const, None, budget.max_coeff)?;
        return Ok(());
    }
    // m = |a_k| + 1; introduce sigma with
    //   m·sigma = Σ mod̂(a_i, m)·x_i + mod̂(c, m)
    // and substitute (using mod̂(a_k, m) = -sign(a_k))
    //   x_k = sign * ( Σ_{i≠k} mod̂(a_i,m)·x_i + mod̂(c,m) − m·sigma )
    let m = ak_abs.checked_add(1).ok_or(OVF)?;
    let sign = ak.signum();
    *fresh += 1;
    let sigma = format!("omega$sigma{fresh}");
    debug_assert_eq!(mod_hat(ak, m), -sign);
    // mod̂ values lie in (-m/2, m/2], so sign*mod̂ never overflows.
    let mut repl = crate::scratch::coeff_vec();
    repl.extend(row.coeffs.iter().enumerate().map(|(i, &c)| {
        if i == var_k {
            0
        } else {
            sign * mod_hat(c, m)
        }
    }));
    let repl_const = sign * mod_hat(row.constant, m);
    *sys = sys.try_substitute_col(
        var_k,
        &repl,
        repl_const,
        Some((&sigma, -sign * m)),
        budget.max_coeff,
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Constraint, LinExpr};

    fn v(n: &str) -> LinExpr {
        LinExpr::var(n)
    }

    fn c(k: i64) -> LinExpr {
        LinExpr::constant(k)
    }

    #[test]
    fn empty_system_is_feasible() {
        assert!(is_integer_feasible(&System::new()));
    }

    #[test]
    fn box_is_feasible() {
        let mut s = System::new();
        s.add(Constraint::ge(v("x"), c(1)));
        s.add(Constraint::le(v("x"), c(1)));
        assert!(is_integer_feasible(&s));
    }

    #[test]
    fn rational_but_not_integer() {
        // 2x = 1: rationally feasible, integrally not
        let mut s = System::new();
        s.add(Constraint::eq(v("x") * 2, c(1)));
        assert!(!is_integer_feasible(&s));
    }

    #[test]
    fn one_sided_lower_bounds_take_the_free_elimination_path() {
        // Regression: a variable with lower bounds but no upper bounds
        // must be eliminated freely (dropping its rows is exact). An
        // earlier version reached the splinter chooser for such systems
        // and aborted on `expect("bounded variable must have upper
        // bounds")`. Coprime multi-digit coefficients keep the bounds
        // non-trivial so simplification cannot discharge them early.
        let mut s = System::new();
        s.add(Constraint::ge(v("x") * 3, v("y") * 2 + c(5)));
        s.add(Constraint::ge(v("x") * 7, v("y") * 5 - c(1)));
        s.add(Constraint::ge(v("y"), c(0)));
        s.add(Constraint::le(v("y"), c(10)));
        assert_eq!(try_is_integer_feasible(&s, &Budget::default()), Ok(true));

        // and with the surrounding box empty, the verdict flips without
        // the one-sided variable getting in the way
        s.add(Constraint::ge(v("y"), c(11)));
        assert_eq!(try_is_integer_feasible(&s, &Budget::default()), Ok(false));
    }

    #[test]
    fn one_sided_huge_coefficients_do_not_panic() {
        // The same shape at 2^40 scale: the free elimination must not
        // combine bound pairs, so no coefficient product is ever formed
        // and the verdict is proven, not refused.
        let mut s = System::new();
        s.add(Constraint::ge(v("x") * (1 << 40), v("y") * ((1 << 40) + 1)));
        s.add(Constraint::ge(v("x") * ((1 << 41) + 5), c(7)));
        s.add(Constraint::ge(v("y"), c(1)));
        s.add(Constraint::le(v("y"), c(100)));
        assert_eq!(try_is_integer_feasible(&s, &Budget::default()), Ok(true));
    }

    #[test]
    fn rational_gap_inequalities() {
        // 2 <= 3x <= 2 + something narrow: 3x >= 4 and 3x <= 5 → x in
        // [4/3, 5/3], no integer
        let mut s = System::new();
        s.add(Constraint::geq_zero(v("x") * 3 - c(4)));
        s.add(Constraint::geq_zero(c(5) - v("x") * 3));
        assert!(!is_integer_feasible(&s));
    }

    #[test]
    fn pugh_example_dark_shadow() {
        // Classic: 27 <= 11x + 13y <= 45, -10 <= 7x - 9y <= 4
        // (Pugh's running example — has NO integer solutions)
        let mut s = System::new();
        let e1 = v("x") * 11 + v("y") * 13;
        let e2 = v("x") * 7 - v("y") * 9;
        s.add(Constraint::ge(e1.clone(), c(27)));
        s.add(Constraint::le(e1, c(45)));
        s.add(Constraint::ge(e2.clone(), c(-10)));
        s.add(Constraint::le(e2, c(4)));
        assert!(!is_integer_feasible(&s));
    }

    #[test]
    fn pugh_example_relaxed_is_feasible() {
        // widening the second band admits (x, y) = (3, 1): 33+13=46 no..
        // use a point check instead: 11*2+13*1=35 in [27,45], 7*2-9*1=5
        // → widen upper bound to 5 and it becomes feasible at (2,1).
        let mut s = System::new();
        let e1 = v("x") * 11 + v("y") * 13;
        let e2 = v("x") * 7 - v("y") * 9;
        s.add(Constraint::ge(e1.clone(), c(27)));
        s.add(Constraint::le(e1, c(45)));
        s.add(Constraint::ge(e2.clone(), c(-10)));
        s.add(Constraint::le(e2, c(5)));
        assert!(is_integer_feasible(&s));
    }

    #[test]
    fn equality_chain_with_large_coefficients() {
        // 7x + 12y + 31z = 17 has integer solutions (Pugh's example)
        let mut s = System::new();
        s.add(Constraint::eq(
            v("x") * 7 + v("y") * 12 + v("z") * 31,
            c(17),
        ));
        assert!(is_integer_feasible(&s));
        // 3x + 6y = 2 does not (gcd 3 ∤ 2)
        let mut t = System::new();
        t.add(Constraint::eq(v("x") * 3 + v("y") * 6, c(2)));
        assert!(!is_integer_feasible(&t));
    }

    #[test]
    fn combined_equalities_and_inequalities() {
        // 7x + 12y + 31z = 17, 3x + 5y + 14z = 7, 1 <= x <= 40, -50 <= y <= 50
        // (Pugh's paper: solutions exist)
        let mut s = System::new();
        s.add(Constraint::eq(
            v("x") * 7 + v("y") * 12 + v("z") * 31,
            c(17),
        ));
        s.add(Constraint::eq(v("x") * 3 + v("y") * 5 + v("z") * 14, c(7)));
        s.add(Constraint::ge(v("x"), c(1)));
        s.add(Constraint::le(v("x"), c(40)));
        s.add(Constraint::ge(v("y"), c(-50)));
        s.add(Constraint::le(v("y"), c(50)));
        assert!(is_integer_feasible(&s));
    }

    #[test]
    fn block_coordinate_gap() {
        // The shackling pattern: 25b - 24 <= j <= 25b, with j fixed to a
        // value — always feasible for the right b; but two *different*
        // js in the same block being forced 30 apart is infeasible.
        let mut s = System::new();
        s.add(Constraint::ge(v("j1"), v("b") * 25 - c(24)));
        s.add(Constraint::le(v("j1"), v("b") * 25));
        s.add(Constraint::ge(v("j2"), v("b") * 25 - c(24)));
        s.add(Constraint::le(v("j2"), v("b") * 25));
        s.add(Constraint::eq(v("j2"), v("j1") + c(30)));
        assert!(!is_integer_feasible(&s));
        // 10 apart is fine
        let mut t = System::new();
        t.add(Constraint::ge(v("j1"), v("b") * 25 - c(24)));
        t.add(Constraint::le(v("j1"), v("b") * 25));
        t.add(Constraint::ge(v("j2"), v("b") * 25 - c(24)));
        t.add(Constraint::le(v("j2"), v("b") * 25));
        t.add(Constraint::eq(v("j2"), v("j1") + c(10)));
        assert!(is_integer_feasible(&t));
    }

    #[test]
    fn unbounded_variable_free_elimination() {
        let mut s = System::new();
        s.add(Constraint::ge(v("x"), v("n")));
        s.add(Constraint::ge(v("n"), c(100)));
        assert!(is_integer_feasible(&s));
    }

    #[test]
    fn agrees_with_brute_force_on_small_instances() {
        // a deterministic mini-fuzz over coefficient grids
        let coefs = [-3i64, -1, 0, 1, 2];
        let mut checked = 0;
        for &a in &coefs {
            for &b in &coefs {
                for &c1 in &[-2i64, 0, 3] {
                    for &d in &coefs {
                        for &e in &[-1i64, 1] {
                            let mut s = System::new();
                            s.add(Constraint::geq_zero(v("x") * a + v("y") * b + c(c1)));
                            s.add(Constraint::geq_zero(v("x") * d + v("y") * e + c(1)));
                            s.add(Constraint::ge(v("x"), c(-4)));
                            s.add(Constraint::le(v("x"), c(4)));
                            s.add(Constraint::ge(v("y"), c(-4)));
                            s.add(Constraint::le(v("y"), c(4)));
                            let brute = !s.enumerate_box(-4, 4).is_empty();
                            assert_eq!(is_integer_feasible(&s), brute, "mismatch on {s}");
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(checked > 100);
    }
}
