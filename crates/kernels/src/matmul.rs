//! Native matrix multiplication: the input code of Figure 1(i). The
//! blocked Figure 3 / Figure 10 codes are generated from
//! `shackle_ir::kernels::matmul`.

use crate::Mat;

/// The input I-J-K code of Figure 1(i): `C += A·B`, no blocking.
///
/// # Panics
///
/// Panics on dimension mismatch.
pub fn matmul_ijk(c: &mut Mat, a: &Mat, b: &Mat) {
    assert_eq!(a.cols(), b.rows());
    assert_eq!(c.rows(), a.rows());
    assert_eq!(c.cols(), b.cols());
    for i in 0..c.rows() {
        for j in 0..c.cols() {
            let mut s = c.at(i, j);
            for k in 0..a.cols() {
                s += a.at(i, k) * b.at(k, j);
            }
            c.set(i, j, s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_into_c() {
        let a = Mat::from_fn(2, 2, |i, j| (1 + 2 * i + j) as f64); // [1 2; 3 4]
        let b = Mat::from_fn(2, 2, |i, j| (5 + 2 * i + j) as f64); // [5 6; 7 8]
        let mut c = Mat::from_fn(2, 2, |_, _| 1.0);
        matmul_ijk(&mut c, &a, &b);
        let expect = [[20.0, 23.0], [44.0, 51.0]];
        for (i, row) in expect.iter().enumerate() {
            for (j, &e) in row.iter().enumerate() {
                assert_eq!(c.at(i, j), e, "({i},{j})");
            }
        }
    }
}
