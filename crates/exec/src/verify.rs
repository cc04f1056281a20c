//! Equivalence harness: run source and transformed programs on the same
//! inputs and compare workspaces.
//!
//! Shackling reorders reduction updates, so floating-point results can
//! differ by rounding; comparisons are therefore relative with a
//! configurable tolerance (exact transformations of non-associative-free
//! code still come out bit-identical).

use crate::{execute_compiled, ExecStats, NullObserver, Workspace};
use shackle_ir::Program;
use std::collections::BTreeMap;

/// Deterministic pseudo-random initializer for workspaces: a hash of the
/// array name, the subscripts and a seed, mapped to `(0, 1]`.
///
/// Useful defaults for equivalence testing; numerical kernels that need
/// structured inputs (SPD matrices, positive pivots) should supply their
/// own initializers.
pub fn hash_init(seed: u64) -> impl Fn(&str, &[usize]) -> f64 {
    move |name: &str, idx: &[usize]| {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in name.bytes() {
            h = h.wrapping_mul(0x100_0000_01b3).wrapping_add(b as u64);
        }
        for &i in idx {
            h = h.wrapping_mul(0x100_0000_01b3).wrapping_add(i as u64);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        ((h % 1_000_000) as f64 + 1.0) / 1_000_000.0
    }
}

/// A symmetric positive-definite initializer for one square array
/// (`diag_boost` added on the diagonal makes it diagonally dominant),
/// with every other array from [`hash_init`].
pub fn spd_init(array: &str, n: usize, seed: u64) -> impl Fn(&str, &[usize]) -> f64 + '_ {
    let base = hash_init(seed);
    let n = n as f64;
    move |name: &str, idx: &[usize]| {
        if name == array && idx.len() == 2 {
            // symmetric: key on the sorted pair
            let (lo, hi) = (idx[0].min(idx[1]), idx[0].max(idx[1]));
            let v = base(name, &[lo, hi]);
            if idx[0] == idx[1] {
                v + n + 1.0
            } else {
                v
            }
        } else {
            base(name, idx)
        }
    }
}

/// The ADI initializer: `B`, which the kernel divides by, bounded away
/// from zero; everything else in `[0, 1)`.
pub fn adi_init() -> impl Fn(&str, &[usize]) -> f64 {
    |name: &str, idx: &[usize]| {
        if name == "B" {
            2.0 + ((idx[0] * 31 + idx[1] * 7) % 97) as f64 / 97.0
        } else {
            ((idx[0] * 13 + idx[1] * 3) % 89) as f64 / 89.0
        }
    }
}

/// A well-conditioned upper-triangular system for the back-solve: `U`
/// has a dominant diagonal and a zero strict lower triangle, the
/// right-hand sides are small positive integers.
pub fn backsolve_init() -> impl Fn(&str, &[usize]) -> f64 {
    |name: &str, idx: &[usize]| {
        if name == "U" {
            if idx[0] == idx[1] {
                4.0
            } else if idx[0] < idx[1] {
                1.0 / ((idx[0] * 7 + idx[1]) % 9 + 2) as f64
            } else {
                0.0
            }
        } else {
            1.0 + (idx[0] % 5) as f64
        }
    }
}

/// The outcome of an equivalence run.
#[derive(Clone, Copy, Debug)]
pub struct Equivalence {
    /// Largest relative element difference over all arrays.
    pub max_rel_diff: f64,
    /// Stats of the reference execution.
    pub reference: ExecStats,
    /// Stats of the transformed execution.
    pub transformed: ExecStats,
}

impl Equivalence {
    /// True if the difference is within `tol`.
    pub fn within(&self, tol: f64) -> bool {
        self.max_rel_diff <= tol
    }
}

/// Execute `reference` and `transformed` on identically initialized
/// workspaces and compare the results.
///
/// Both programs must declare the same arrays (shackled programs do:
/// code generation preserves declarations). Also checks that both
/// executions perform the *same number of statement instances* — a
/// transformation that drops or duplicates instances is caught even
/// when the numeric effect is small.
///
/// # Panics
///
/// Panics if the instance counts differ (that is a transformation bug,
/// not a numerical issue).
pub fn check_equivalence(
    reference: &Program,
    transformed: &Program,
    params: &BTreeMap<String, i64>,
    init: impl Fn(&str, &[usize]) -> f64,
) -> Equivalence {
    let mut w1 = Workspace::for_program(reference, params, &init);
    let mut w2 = Workspace::for_program(transformed, params, &init);
    // the compiled engine matches the tree interpreter bit-for-bit (see
    // `compile`'s differential tests), so equivalence checks run on it
    let s1 = execute_compiled(reference, &mut w1, params, &mut NullObserver);
    let s2 = execute_compiled(transformed, &mut w2, params, &mut NullObserver);
    assert_eq!(
        s1.instances, s2.instances,
        "transformed program executed a different number of statement \
         instances ({} vs {})",
        s1.instances, s2.instances
    );
    Equivalence {
        max_rel_diff: w1.max_rel_diff(&w2),
        reference: s1,
        transformed: s2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shackle_ir::kernels;

    #[test]
    fn hash_init_deterministic_and_positive() {
        let f = hash_init(42);
        let a = f("A", &[3, 4]);
        let b = f("A", &[3, 4]);
        assert_eq!(a, b);
        assert!(a > 0.0 && a <= 1.0);
        assert_ne!(f("A", &[3, 4]), f("A", &[4, 3]));
        assert_ne!(f("A", &[1, 1]), f("B", &[1, 1]));
    }

    #[test]
    fn spd_init_symmetric_dominant() {
        let f = spd_init("A", 10, 7);
        assert_eq!(f("A", &[2, 5]), f("A", &[5, 2]));
        assert!(f("A", &[3, 3]) > 10.0);
    }

    #[test]
    fn identical_programs_are_equivalent() {
        let p = kernels::matmul_ijk();
        let params = BTreeMap::from([("N".to_string(), 6i64)]);
        let eq = check_equivalence(&p, &p, &params, hash_init(1));
        assert_eq!(eq.max_rel_diff, 0.0);
        assert_eq!(eq.reference.flops, eq.transformed.flops);
    }

    #[test]
    #[should_panic(expected = "different number of statement instances")]
    fn instance_count_mismatch_detected() {
        let p = kernels::matmul_ijk();
        // a "transformed" program with one fewer iteration
        use shackle_ir::{loop_, stmt};
        use shackle_polyhedra::LinExpr;
        let smaller = p.with_body(vec![loop_(
            "I",
            LinExpr::constant(1),
            LinExpr::var("N") - LinExpr::constant(1),
            vec![loop_(
                "J",
                LinExpr::constant(1),
                LinExpr::var("N"),
                vec![loop_(
                    "K",
                    LinExpr::constant(1),
                    LinExpr::var("N"),
                    vec![stmt(0)],
                )],
            )],
        )]);
        let params = BTreeMap::from([("N".to_string(), 4i64)]);
        let _ = check_equivalence(&p, &smaller, &params, hash_init(1));
    }
}
