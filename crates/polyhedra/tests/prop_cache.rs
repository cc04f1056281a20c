//! Property tests for the memoized query engine against a brute-force
//! oracle: on random systems, every cached entry point answers what the
//! *definition* of the query says, decided by enumerating integer
//! points, and a cache hit replays the miss byte for byte. This covers
//! the engine's proof shortcuts — dominance pruning in `push_row`,
//! syntactic dominance in `implies`, pairwise-exact elimination, the
//! gist loop — without a second solver to compare against.
//!
//! The oracle evaluates the *generated constraints*, not
//! `System::enumerate_box`: the latter reads the rows `push_row` chose
//! to keep, which is part of what is under test.

use proptest::prelude::*;
use shackle_polyhedra::{cache, Constraint, LinExpr, System};
use std::sync::Mutex;

/// The flag that used to need this lock is gone, but `clear_cache` is
/// still process-global: without the lock another case's clear could
/// land between this case's cold and warm query and turn the warm one
/// into a second miss — still correct, but no longer a test of the hit
/// path.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const VARS: [&str; 3] = ["x", "y", "z"];

/// Every variable of the oracle box lies in `[-BOX, BOX]`.
const BOX: i64 = 5;

/// With `|x|, |y| ≤ BOX`, coefficients in `[-3, 3]` and constants in
/// `[-6, 6]`, any row that bounds `z` bounds it within
/// `3·5 + 3·5 + 6 = 36`; a non-empty `z`-fiber over a box point
/// therefore always has a member in `[-FIBER, FIBER]` (a finite end of
/// the interval, or 0 when there is none), so searching that range
/// decides the fiber exactly.
const FIBER: i64 = 36;

/// A random affine expression over x, y, z with small coefficients.
fn lin_expr() -> impl Strategy<Value = LinExpr> {
    (-3i64..=3, -3i64..=3, -3i64..=3, -6i64..=6).prop_map(|(a, b, c, k)| {
        LinExpr::term("x", a) + LinExpr::term("y", b) + LinExpr::term("z", c) + LinExpr::constant(k)
    })
}

fn constraint() -> impl Strategy<Value = Constraint> {
    (lin_expr(), prop::bool::ANY).prop_map(|(e, eq)| {
        if eq {
            Constraint::eq_zero(e)
        } else {
            Constraint::geq_zero(e)
        }
    })
}

/// Random constraint lists, deliberately *unboxed* (unlike
/// `prop_omega`) so the solver also hits inexact eliminations and
/// unbounded variables.
fn constraints() -> impl Strategy<Value = Vec<Constraint>> {
    prop::collection::vec(constraint(), 1..6)
}

/// `cons` plus `-BOX ≤ v ≤ BOX` for every variable: the variant on
/// which enumeration decides the query in both directions.
fn boxed(cons: &[Constraint]) -> Vec<Constraint> {
    let mut out = cons.to_vec();
    for v in VARS {
        out.push(Constraint::ge(LinExpr::var(v), LinExpr::constant(-BOX)));
        out.push(Constraint::le(LinExpr::var(v), LinExpr::constant(BOX)));
    }
    out
}

fn holds(cons: &[Constraint], x: i64, y: i64, z: i64) -> bool {
    let env = |v: &str| match v {
        "x" => x,
        "y" => y,
        _ => z,
    };
    cons.iter().all(|c| c.eval(&env))
}

fn box_points() -> impl Iterator<Item = (i64, i64, i64)> {
    (-BOX..=BOX).flat_map(|x| (-BOX..=BOX).flat_map(move |y| (-BOX..=BOX).map(move |z| (x, y, z))))
}

/// Render a system in a byte-comparable form (constraints in stored
/// order plus the variable universe).
fn fingerprint(sys: &System) -> String {
    format!("{:?} |- {}", sys.vars(), sys)
}

/// Projection onto (x, y): the integer shadow of `cons` is always
/// inside the projected set, and is all of it when the flag says exact
/// (which pins the pairwise-exactness and dark-shadow proofs).
fn check_projection(cons: &[Constraint]) {
    let sys = System::from_constraints(cons.to_vec());
    cache::clear_cache();
    let (cold, cold_exact) = sys.project_onto(&["x", "y"]);
    let (warm, warm_exact) = sys.project_onto(&["x", "y"]);
    prop_assert_eq!(cold_exact, warm_exact);
    prop_assert_eq!(fingerprint(&cold), fingerprint(&warm));
    for x in -BOX..=BOX {
        for y in -BOX..=BOX {
            let in_shadow = (-FIBER..=FIBER).any(|z| holds(cons, x, y, z));
            let projected = cold.eval(&|v: &str| if v == "x" { x } else { y });
            prop_assert!(
                !in_shadow || projected,
                "projection lost ({x}, {y}) of {sys}"
            );
            prop_assert!(
                !cold_exact || in_shadow == projected,
                "projection flagged exact but adds ({x}, {y}) to {sys}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Feasibility: a solution in the box forces `Yes` on the unboxed
    /// system; on the boxed variant the verdict *is* "the box holds a
    /// solution". Cold and warm answers agree on both.
    #[test]
    fn feasibility_matches_enumeration(cons in constraints()) {
        let _g = lock();
        let witness = box_points().any(|(x, y, z)| holds(&cons, x, y, z));
        for (case, two_sided) in [(cons.clone(), false), (boxed(&cons), true)] {
            let sys = System::from_constraints(case);
            cache::clear_cache();
            let cold = sys.is_integer_feasible();
            let warm = sys.is_integer_feasible();
            prop_assert_eq!(cold, warm, "warm cache diverged on {sys}");
            prop_assert!(cold || !witness, "verdict No but the box holds a solution of {sys}");
            prop_assert!(!two_sided || cold == witness, "verdict Yes on the empty box {sys}");
        }
    }

    /// Projection, on the unboxed system and on its boxed variant.
    #[test]
    fn projection_matches_enumeration(cons in constraints()) {
        let _g = lock();
        check_projection(&cons);
        check_projection(&boxed(&cons));
    }

    /// Gist: `gist(sys, ctx) ∧ ctx` and `sys ∧ ctx` hold at exactly the
    /// same box points.
    #[test]
    fn gist_matches_enumeration(sys_cons in constraints(), ctx_cons in constraints()) {
        let _g = lock();
        let sys = System::from_constraints(sys_cons.clone());
        let ctx = System::from_constraints(ctx_cons.clone());
        cache::clear_cache();
        let cold = sys.gist(&ctx);
        let warm = sys.gist(&ctx);
        prop_assert_eq!(fingerprint(&cold), fingerprint(&warm));
        for (x, y, z) in box_points() {
            let env = |v: &str| match v { "x" => x, "y" => y, _ => z };
            let in_ctx = holds(&ctx_cons, x, y, z);
            prop_assert_eq!(
                cold.eval(&env) && in_ctx,
                holds(&sys_cons, x, y, z) && in_ctx,
                "gist changed ({x}, {y}, {z}) of {sys} % {ctx}"
            );
        }
    }
}
