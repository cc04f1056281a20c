//! Native symmetric rank-k update (SYRK): `C ← C + A·Aᵀ`, lower
//! triangle only — the BLAS-3 sibling of matmul with a triangular
//! iteration space.
//!
//! The generated blocked code (`shackles::syrk_product`) takes
//! *independent* block heights and widths: the footprint of a block row
//! of `C` is asymmetric in the two dimensions, so the best block need
//! not be square.

use crate::Mat;

/// Pointwise SYRK: `C[i,j] += Σ_k A[i,k]·A[j,k]` for `j ≤ i`.
///
/// # Panics
///
/// Panics if `C` is not square of `A`'s row count.
pub fn syrk_pointwise(c: &mut Mat, a: &Mat) {
    assert_eq!(c.rows(), c.cols());
    assert_eq!(c.rows(), a.rows());
    for i in 0..c.rows() {
        for j in 0..=i {
            let mut s = c.at(i, j);
            for k in 0..a.cols() {
                s += a.at(i, k) * a.at(j, k);
            }
            c.set(i, j, s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_mat;

    #[test]
    fn matches_explicit_a_at() {
        let a = random_mat(6, 4, 1);
        let mut c = Mat::zeros(6, 6);
        syrk_pointwise(&mut c, &a);
        for i in 0..6 {
            for j in 0..=i {
                let mut s = 0.0;
                for k in 0..4 {
                    s += a.at(i, k) * a.at(j, k);
                }
                assert!((c.at(i, j) - s).abs() < 1e-12);
            }
            for j in (i + 1)..6 {
                assert_eq!(c.at(i, j), 0.0, "upper triangle must stay untouched");
            }
        }
    }
}
