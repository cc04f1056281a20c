//! Fourier–Motzkin variable elimination on integer constraint systems.
//!
//! Elimination here always works over the *integers*: combined rows are
//! GCD-tightened, and the caller can request either the **real shadow**
//! (ordinary FM projection, an over-approximation of the integer
//! projection) or the **dark shadow** (Pugh's under-approximation, whose
//! integer points are guaranteed to lift to integer points of the
//! original system).
//!
//! FM coefficient growth is exponential in elimination depth, so every
//! combination step is fallible: pairs are combined in `i64` on the hot
//! path and **retried exactly in `i128`** (GCD-reduced before
//! narrowing) on overflow; only rows whose reduced form truly exceeds
//! `i64` — or a [`Budget`] limit — surface a [`PolyError`].

use crate::error::{Budget, PolyError, Resource};
use crate::num::combine_i128;
use crate::system::RowRef;
use crate::{Rel, System, Verdict};

/// Which shadow to compute when eliminating a variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shadow {
    /// Ordinary Fourier–Motzkin projection: contains every point whose
    /// fiber is non-empty over the rationals (⊇ integer projection).
    Real,
    /// Pugh's dark shadow: every integer point lifts to an integer point
    /// of the original system (⊆ integer projection).
    Dark,
}

/// True if eliminating `idx` is *exact*: the real shadow equals the
/// integer projection. This holds when every lower-bound coefficient or
/// every upper-bound coefficient of the variable is 1 (and the variable
/// appears in no equality).
pub(crate) fn elimination_exact(sys: &System, idx: usize) -> bool {
    let mut all_lower_unit = true;
    let mut all_upper_unit = true;
    for r in sys.rows() {
        let c = r.coeffs[idx];
        if c == 0 {
            continue;
        }
        if r.rel == Rel::Eq {
            return c.abs() == 1;
        }
        if c > 0 {
            all_lower_unit &= c == 1;
        } else {
            all_upper_unit &= c == -1;
        }
    }
    all_lower_unit || all_upper_unit
}

/// Classify the bounds on variable `idx`: (has lower, has upper),
/// counting equalities as both.
pub(crate) fn bound_profile(sys: &System, idx: usize) -> (usize, usize) {
    let mut lo = 0;
    let mut hi = 0;
    for r in sys.rows() {
        let c = r.coeffs[idx];
        if c == 0 {
            continue;
        }
        match r.rel {
            Rel::Eq => {
                lo += 1;
                hi += 1;
            }
            Rel::Geq => {
                if c > 0 {
                    lo += 1;
                } else {
                    hi += 1;
                }
            }
        }
    }
    (lo, hi)
}

/// Eliminate variable `idx` from the system, producing a system over the
/// remaining variables.
///
/// Equalities involving the variable are first split into opposite
/// inequalities (exact elimination of equalities is the Omega test's job;
/// this function is the raw FM kernel).
pub(crate) fn eliminate(
    sys: &System,
    idx: usize,
    shadow: Shadow,
    budget: &Budget,
) -> Result<System, PolyError> {
    Ok(eliminate_tracked(sys, idx, shadow, budget)?.0)
}

/// Combine a lower/upper pair entirely in `i64` into `dst`, returning
/// the constant; `None` means some step overflowed and the caller must
/// retry in `i128`.
fn combine_pair_fast(
    lo: RowRef<'_>,
    up: RowRef<'_>,
    a: i64,
    b: i64,
    dark: bool,
    dst: &mut [i64],
) -> Option<i64> {
    for ((d, &l), &u) in dst.iter_mut().zip(lo.coeffs).zip(up.coeffs) {
        *d = b
            .checked_mul(l)
            .and_then(|x| a.checked_mul(u).and_then(|y| x.checked_add(y)))?;
    }
    let constant = b
        .checked_mul(lo.constant)
        .and_then(|x| a.checked_mul(up.constant).and_then(|y| x.checked_add(y)))?;
    if dark {
        // dark shadow: combined >= (a-1)(b-1)
        let correction = (a - 1).checked_mul(b - 1)?;
        return constant.checked_sub(correction);
    }
    Some(constant)
}

/// [`eliminate`], additionally reporting *pairwise exactness*: `true`
/// when every combined lower/upper pair had a zero dark-shadow
/// correction `(a-1)(b-1)`, in which case the real and dark shadows
/// coincide and the real shadow is exactly the integer projection. This
/// generalizes the syntactic [`elimination_exact`] test (all-unit lower
/// *or* upper coefficients) to mixed rows where each *pair* contains a
/// unit, letting the Omega test and `project_onto` skip the dark
/// shadow / splinter machinery.
pub(crate) fn eliminate_tracked(
    sys: &System,
    idx: usize,
    shadow: Shadow,
    budget: &Budget,
) -> Result<(System, bool), PolyError> {
    // Equality rows act as a Geq pair: the row itself and its negation.
    // Rows are partitioned *by index* into pooled scratch buffers
    // (indices below `nrows` name system rows, indices at or above it
    // name negated equalities), so the (hot) all-inequality case copies
    // a row only when it actually enters the output and allocates
    // nothing in steady state.
    const NEG: PolyError = PolyError::Overflow {
        context: "row negation",
    };
    let w = sys.vars().len();
    let mut negs = crate::scratch::coeff_vec();
    let mut neg_consts = crate::scratch::coeff_vec();
    for r in sys.rows() {
        if r.rel == Rel::Eq && r.coeffs[idx] != 0 {
            for &c in r.coeffs {
                negs.push(c.checked_neg().ok_or(NEG)?);
            }
            neg_consts.push(r.constant.checked_neg().ok_or(NEG)?);
        }
    }
    let nrows = u32::try_from(sys.len()).expect("row count fits u32");
    let row_at = |i: u32| -> RowRef<'_> {
        if i < nrows {
            sys.row(i as usize)
        } else {
            let k = (i - nrows) as usize;
            RowRef {
                coeffs: &negs[k * w..(k + 1) * w],
                constant: neg_consts[k],
                rel: Rel::Geq,
            }
        }
    };
    let mut lowers = crate::scratch::idx_vec();
    let mut uppers = crate::scratch::idx_vec();
    let mut rest = crate::scratch::idx_vec();
    let mut negated = nrows;
    for (ri, r) in sys.rows().enumerate() {
        let ri = ri as u32;
        let c = r.coeffs[idx];
        if r.rel == Rel::Eq && c != 0 {
            if c > 0 {
                lowers.push(ri);
                uppers.push(negated);
            } else {
                uppers.push(ri);
                lowers.push(negated);
            }
            negated += 1;
        } else if c == 0 {
            rest.push(ri);
        } else if c > 0 {
            lowers.push(ri);
        } else {
            uppers.push(ri);
        }
    }

    let mut out = System::with_vars_arc(sys.vars_arc());
    if sys.is_contradictory() {
        out.set_contradiction();
        return Ok((out, true));
    }
    for &ri in rest.iter() {
        let r = sys.row(ri as usize);
        out.push_row(r.coeffs, r.constant, r.rel);
    }
    crate::cache::note_fm_combined((lowers.len() * uppers.len()) as u64);
    let dark = shadow == Shadow::Dark;
    // Tight coefficient ceilings must see the reduced form of every
    // row, so they skip the unreduced i64 fast path entirely.
    let fast_ok = budget.max_coeff == i64::MAX;
    let mut pairwise_exact = true;
    let mut wide: Vec<i128> = Vec::new();
    'pairs: for &li in lowers.iter() {
        let lo = row_at(li);
        let a = lo.coeffs[idx]; // > 0
        for &ui in uppers.iter() {
            let up = row_at(ui);
            let b = up.coeffs[idx].checked_neg().ok_or(PolyError::Overflow {
                context: "fm upper coefficient",
            })?; // > 0
            pairwise_exact &= a == 1 || b == 1; // correction (a-1)(b-1) == 0

            // b*lo + a*up eliminates idx, written straight into `out`
            let staged = out.stage_row();
            let fast = if fast_ok {
                combine_pair_fast(lo, up, a, b, dark, staged)
            } else {
                None
            };
            if let Some(constant) = fast {
                debug_assert_eq!(staged[idx], 0);
                out.commit_row(constant, Rel::Geq);
            } else {
                // The i128 retry: exact combination, GCD reduction,
                // then narrowing.
                out.discard_row();
                wide.clear();
                wide.extend(
                    lo.coeffs
                        .iter()
                        .zip(up.coeffs)
                        .map(|(&l, &u)| combine_i128(b, l, a, u)),
                );
                let mut constant = combine_i128(b, lo.constant, a, up.constant);
                if dark {
                    constant -= (a as i128 - 1) * (b as i128 - 1);
                }
                if !out.push_narrowed(&wide, constant, Rel::Geq, budget.max_coeff)? {
                    break 'pairs;
                }
            }
            if out.len() > budget.max_rows {
                return Err(PolyError::Budget {
                    resource: Resource::Rows,
                    limit: budget.max_rows as u64,
                });
            }
        }
    }
    // The (now all-zero) column stays in place: dropping it would copy
    // the shared variable universe at every elimination level. Dead
    // columns are invisible to the solver's used-variable scan, to
    // canonical cache keys, and to `project_onto` (which drops unused
    // columns as it encounters them).
    Ok((out, pairwise_exact))
}

/// Project the system onto `keep`, eliminating every other variable.
///
/// Returns the projected system together with an exactness flag: when
/// `true`, the result is exactly the set of integer points whose fiber
/// contains an integer point; when `false`, it is an over-approximation
/// (every integer point of the true projection is included, but some
/// extra points may be too).
///
/// Equalities with a unit coefficient on an eliminated variable are used
/// for exact substitution before falling back to FM.
///
/// # Panics
///
/// Panics if elimination overflows `i64` even after `i128` promotion,
/// or exhausts the default [`Budget`]; [`try_project_onto`] is the
/// fallible form.
///
/// # Examples
///
/// ```
/// use shackle_polyhedra::{Constraint, LinExpr, System};
/// use shackle_polyhedra::fm::project_onto;
/// let mut s = System::new();
/// let (i, j, n) = (LinExpr::var("i"), LinExpr::var("j"), LinExpr::var("n"));
/// s.add(Constraint::ge(j.clone(), LinExpr::constant(1)));
/// s.add(Constraint::le(j.clone(), i.clone()));
/// s.add(Constraint::le(i, n));
/// let (p, exact) = project_onto(&s, &["j", "n"]);
/// assert!(exact);
/// // j <= i <= n collapses to j <= n
/// assert!(p.eval(&|v| if v == "j" { 5 } else { 5 }));
/// assert!(!p.eval(&|v| if v == "j" { 6 } else { 5 }));
/// ```
pub fn project_onto(sys: &System, keep: &[&str]) -> (System, bool) {
    try_project_onto(sys, keep, &Budget::default()).unwrap_or_else(|e| {
        panic!("project_onto: {e} (use try_project_onto for fallible projection)")
    })
}

/// Fallible [`project_onto`] under an explicit [`Budget`]. Never
/// panics: arithmetic that would overflow is retried in `i128`, and
/// genuine overflow or budget exhaustion surfaces as a [`PolyError`].
pub fn try_project_onto(
    sys: &System,
    keep: &[&str],
    budget: &Budget,
) -> Result<(System, bool), PolyError> {
    let mut s = sys.clone();
    let mut exact = true;
    loop {
        if s.is_contradictory() {
            return Ok((s, true));
        }
        // find next variable to eliminate, preferring exact unit-equality
        // substitutions, then exact FM, then inexact FM with lowest cost
        let mut candidates = crate::scratch::idx_vec();
        candidates.extend(
            (0..s.vars().len())
                .filter(|&i| !keep.contains(&s.vars()[i].as_str()))
                .map(|i| i as u32),
        );
        if candidates.is_empty() {
            break;
        }
        // unit equality substitution
        let mut best: Option<(usize, usize, bool)> = None; // (idx, cost, exact)
        let mut subst: Option<usize> = None;
        for &idx in candidates.iter() {
            let idx = idx as usize;
            let (lo, hi) = bound_profile(&s, idx);
            if lo == 0 && hi == 0 {
                // unused: just drop
                s.drop_var_column(idx);
                subst = Some(usize::MAX);
                break;
            }
            if s.rows()
                .any(|r| r.rel == Rel::Eq && r.coeffs[idx].abs() == 1)
            {
                subst = Some(idx);
                break;
            }
            let ex = elimination_exact(&s, idx);
            let cost = lo * hi;
            let entry = (idx, cost, ex);
            best = Some(match best {
                None => entry,
                Some(b) => {
                    if (ex, std::cmp::Reverse(cost)) > (b.2, std::cmp::Reverse(b.1)) {
                        entry
                    } else {
                        b
                    }
                }
            });
            let _ = (lo, hi);
        }
        if let Some(idx) = subst {
            if idx == usize::MAX {
                continue; // dropped an unused column
            }
            // substitute from the equality with unit coefficient
            let row = s
                .rows()
                .find(|r| r.rel == Rel::Eq && r.coeffs[idx].abs() == 1)
                .expect("unit equality vanished");
            let sign = row.coeffs[idx];
            // sign*x + e = 0  →  x = -sign*e
            const NEG: PolyError = PolyError::Overflow {
                context: "unit-equality substitution",
            };
            let mut repl = crate::scratch::coeff_vec();
            for (k, &c) in row.coeffs.iter().enumerate() {
                repl.push(if k == idx {
                    0
                } else {
                    c.checked_mul(-sign).ok_or(NEG)?
                });
            }
            let repl_const = row.constant.checked_mul(-sign).ok_or(NEG)?;
            s = s.try_substitute_col(idx, &repl, repl_const, None, budget.max_coeff)?;
            continue;
        }
        let (idx, _cost, ex) = best.expect("no candidate chosen");
        let (real, pairwise) = eliminate_tracked(&s, idx, Shadow::Real, budget)?;
        if !ex && !pairwise {
            // The syntactic unit-coefficient and pairwise-correction
            // tests both failed, but the elimination may still be
            // exact: compare the real and dark shadows semantically.
            // Since dark ⊆ integer-projection ⊆ real always holds,
            // equality of the two shadows proves the real shadow is
            // exactly the integer projection. This is what makes
            // block-coordinate variables (window constraints
            // `e ≤ w·z ≤ e + w − 1`) exactly projectable.
            //
            // The proof obligation degrades conservatively: if the dark
            // shadow cannot be computed, or a feasibility/implication
            // probe comes back `Unknown`, the projection is simply
            // marked inexact — never an error, never a panic.
            crate::cache::note_dark_fallback();
            let real_in_dark = match eliminate(&s, idx, Shadow::Dark, budget) {
                Ok(dark) if dark.is_contradictory() => {
                    // equal only if the real shadow is empty too
                    crate::cache::try_feasible(&real, budget) == Ok(false)
                }
                Ok(dark) => dark
                    .constraints()
                    .iter()
                    .all(|c| crate::simplify::try_implies(&real, c, budget) == Verdict::Yes),
                Err(_) => false,
            };
            if !real_in_dark {
                exact = false;
            }
        }
        s = real;
    }
    Ok((s, exact))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Constraint, LinExpr};

    fn v(n: &str) -> LinExpr {
        LinExpr::var(n)
    }

    #[test]
    fn eliminate_simple_chain() {
        // 1 <= x <= y <= 10, eliminate x → y >= 1 and y <= 10
        let mut s = System::new();
        s.add(Constraint::ge(v("x"), LinExpr::constant(1)));
        s.add(Constraint::le(v("x"), v("y")));
        s.add(Constraint::le(v("y"), LinExpr::constant(10)));
        let idx = s.var_index("x").unwrap();
        let e = eliminate(&s, idx, Shadow::Real, &Budget::default()).unwrap();
        // the column survives (all-zero), but the variable must no
        // longer constrain anything
        assert!(!e.used_vars().iter().any(|v| v == "x"));
        assert!(e.eval(&|_| 1));
        assert!(e.eval(&|_| 10));
        assert!(!e.eval(&|_| 0));
        assert!(!e.eval(&|_| 11));
    }

    #[test]
    fn dark_shadow_is_tighter() {
        // 2x >= y and 3x <= n: real shadow 3y <= 2n;
        // dark shadow subtracts (2-1)(3-1)=2 from the combination.
        let mut s = System::new();
        s.add(Constraint::geq_zero(v("x") * 2 - v("y")));
        s.add(Constraint::geq_zero(v("n") - v("x") * 3));
        let idx = s.var_index("x").unwrap();
        let real = eliminate(&s, idx, Shadow::Real, &Budget::default()).unwrap();
        let dark = eliminate(&s, idx, Shadow::Dark, &Budget::default()).unwrap();
        // Soundness on a grid: every dark-shadow point lifts to an
        // integer x, and every point with an integer x is in the real
        // shadow.
        for y in -6i64..=6 {
            for n in -6i64..=6 {
                let env = move |name: &str| if name == "y" { y } else { n };
                let has_integer_x = (-20..=20).any(|x: i64| 2 * x >= y && 3 * x <= n);
                if dark.eval(&env) {
                    assert!(has_integer_x, "dark unsound at y={y} n={n}");
                }
                if has_integer_x {
                    assert!(real.eval(&env), "real too small at y={y} n={n}");
                }
            }
        }
        // point y=3, n=5: real: 9 <= 10 ok; integer x: 2x>=3 → x>=2;
        // 3x<=5 → x<=1 → none. dark must reject.
        let env2 = |name: &str| match name {
            "y" => 3,
            _ => 5,
        };
        assert!(real.eval(&env2));
        assert!(!dark.eval(&env2));
    }

    #[test]
    fn eliminate_unbounded_side_drops_rows() {
        let mut s = System::new();
        s.add(Constraint::ge(v("x"), v("y")));
        let idx = s.var_index("x").unwrap();
        let e = eliminate(&s, idx, Shadow::Real, &Budget::default()).unwrap();
        assert!(e.is_empty());
    }

    #[test]
    fn equality_split_in_fm() {
        // x = y and x <= 5 → y <= 5
        let mut s = System::new();
        s.add(Constraint::eq(v("x"), v("y")));
        s.add(Constraint::le(v("x"), LinExpr::constant(5)));
        let idx = s.var_index("x").unwrap();
        let e = eliminate(&s, idx, Shadow::Real, &Budget::default()).unwrap();
        assert!(e.eval(&|_| 5));
        assert!(!e.eval(&|_| 6));
    }

    #[test]
    fn project_keeps_params() {
        let mut s = System::new();
        s.add(Constraint::ge(v("i"), LinExpr::constant(1)));
        s.add(Constraint::le(v("i"), v("n")));
        let (p, exact) = project_onto(&s, &["n"]);
        assert!(exact);
        assert!(p.eval(&|_| 1));
        assert!(!p.eval(&|_| 0)); // n >= 1 required
    }

    #[test]
    fn project_via_unit_equality() {
        // k = j + 1, 1 <= k <= n : project out k
        let mut s = System::new();
        s.add(Constraint::eq(v("k"), v("j") + LinExpr::constant(1)));
        s.add(Constraint::ge(v("k"), LinExpr::constant(1)));
        s.add(Constraint::le(v("k"), v("n")));
        let (p, exact) = project_onto(&s, &["j", "n"]);
        assert!(exact);
        // j+1 <= n
        assert!(p.eval(&|x| if x == "j" { 4 } else { 5 }));
        assert!(!p.eval(&|_| 5));
    }

    #[test]
    fn bound_profile_counts() {
        let mut s = System::new();
        s.add(Constraint::ge(v("x"), LinExpr::constant(1)));
        s.add(Constraint::le(v("x"), LinExpr::constant(9)));
        s.add(Constraint::eq(v("y"), v("x")));
        let ix = s.var_index("x").unwrap();
        assert_eq!(bound_profile(&s, ix), (2, 2));
    }
}
