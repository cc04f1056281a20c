//! Native 2-D Jacobi (heat) relaxation: one out-of-place sweep of the
//! five-point stencil — the relaxation-code family §9 targets.
//!
//! The generated blocked code (`shackles::jacobi2d_tiles`) tiles the
//! interior with *independent* block heights and widths: with
//! column-major storage a cache line spans consecutive rows of one
//! column, so skinny-in-`i` blocks keep whole lines live and the best
//! block is typically rectangular.

use crate::Mat;

/// One pointwise Jacobi sweep: `V[i,j] = ¼(U[i−1,j] + U[i+1,j] +
/// U[i,j−1] + U[i,j+1])` over the interior; the boundary of `V` is left
/// untouched.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn jacobi2d_pointwise(v: &mut Mat, u: &Mat) {
    assert_eq!(v.rows(), u.rows());
    assert_eq!(v.cols(), u.cols());
    let (n, m) = (u.rows(), u.cols());
    if n < 3 || m < 3 {
        return;
    }
    for i in 1..n - 1 {
        for j in 1..m - 1 {
            let s = u.at(i - 1, j) + u.at(i + 1, j) + u.at(i, j - 1) + u.at(i, j + 1);
            v.set(i, j, 0.25 * s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_mat;

    #[test]
    fn constant_field_is_a_fixed_point() {
        let u = Mat::from_fn(8, 8, |_, _| 3.0);
        let mut v = u.clone();
        jacobi2d_pointwise(&mut v, &u);
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(v.at(i, j), 3.0);
            }
        }
    }

    #[test]
    fn boundary_untouched_and_interior_averaged() {
        let u = random_mat(6, 6, 1);
        let mut v = Mat::from_fn(6, 6, |_, _| -1.0);
        jacobi2d_pointwise(&mut v, &u);
        assert_eq!(v.at(0, 3), -1.0);
        assert_eq!(v.at(5, 2), -1.0);
        assert_eq!(v.at(2, 0), -1.0);
        let expect = 0.25 * (u.at(1, 2) + u.at(3, 2) + u.at(2, 1) + u.at(2, 3));
        assert_eq!(v.at(2, 2), expect);
    }

    #[test]
    fn degenerate_sizes_are_noops() {
        let u = random_mat(2, 2, 7);
        let mut v = Mat::zeros(2, 2);
        jacobi2d_pointwise(&mut v, &u);
        assert!(v.data().iter().all(|&x| x == 0.0));
    }
}
