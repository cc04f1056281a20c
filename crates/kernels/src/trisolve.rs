//! Native triangular back-solve: the §8 reversed-traversal kernel.
//!
//! Solves `U·x = b` for upper-triangular `U`, in place on `x`, walking
//! unknowns from the last to the first. The generated blocked code
//! (`shackles::backsolve_reversed`) walks the *blocks* bottom-to-top
//! too — the reversed cut-set traversal of §8 — which is the only legal
//! order: data flows from high indices to low.

use crate::Mat;

/// Pointwise back-solve `U·x = b` (in place on `x = b`), columns of `U`
/// eliminated from the last unknown upward.
///
/// # Panics
///
/// Panics if `U` is not square or `x` does not match its order.
pub fn backsolve_pointwise(x: &mut [f64], u: &Mat) {
    assert_eq!(u.rows(), u.cols());
    assert_eq!(x.len(), u.rows());
    let n = x.len();
    for i in (0..n).rev() {
        x[i] /= u.at(i, i);
        for j in 0..i {
            x[j] -= u.at(j, i) * x[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_mat;

    /// A well-conditioned random upper-triangular matrix.
    fn random_upper(n: usize, seed: u64) -> Mat {
        let mut u = random_mat(n, n, seed);
        for j in 0..n {
            for i in (j + 1)..n {
                u.set(i, j, 0.0);
            }
            u.set(j, j, 2.0 + u.at(j, j));
        }
        u
    }

    #[test]
    fn solves_a_known_system() {
        // U = [[2, 1], [0, 4]], b = [4, 8] → x = [1, 2].
        let mut u = Mat::zeros(2, 2);
        u.set(0, 0, 2.0);
        u.set(0, 1, 1.0);
        u.set(1, 1, 4.0);
        let mut x = vec![4.0, 8.0];
        backsolve_pointwise(&mut x, &u);
        assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn residual_vanishes() {
        for (n, seed) in [(1, 1), (7, 2), (16, 3), (23, 4)] {
            let u = random_upper(n, seed);
            let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
            let mut x = b.clone();
            backsolve_pointwise(&mut x, &u);
            for (i, bi) in b.iter().enumerate() {
                let row: f64 = (i..n).map(|j| u.at(i, j) * x[j]).sum();
                assert!((row - bi).abs() < 1e-9, "n={n} row {i}");
            }
        }
    }
}
