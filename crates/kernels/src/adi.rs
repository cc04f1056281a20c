//! The ADI kernel (Fig. 14): the fusion + interchange example.
//!
//! The input code (as produced by a FORTRAN-90 scalarizer) sweeps rows
//! in the outer loop — a stride-`n` access pattern on column-major
//! arrays. Shackling both statements to `B[i-1,k]` with 1×1 blocks
//! walked in storage order yields the fused, interchanged, stride-1 code
//! the paper reports is 8.9× faster at n = 1000 — generated from
//! `shackle_ir::kernels::adi` by `shackles::adi_storage_order`; only the
//! input code is written here.

use crate::Mat;

/// The input code of Figure 14(i): two separate `k` loops inside the
/// `i` sweep (row-major traversal of column-major data).
///
/// # Panics
///
/// Panics if the three matrices differ in shape.
pub fn adi_input(x: &mut Mat, a: &Mat, b: &mut Mat) {
    let n = x.rows();
    assert!(
        a.rows() == n && b.rows() == n && x.cols() == a.cols() && a.cols() == b.cols(),
        "ADI arrays must agree in shape"
    );
    let m = x.cols();
    for i in 1..n {
        for k in 0..m {
            let v = x.at(i, k) - x.at(i - 1, k) * a.at(i, k) / b.at(i - 1, k);
            x.set(i, k, v);
        }
        for k in 0..m {
            let v = b.at(i, k) - a.at(i, k) * a.at(i, k) / b.at(i - 1, k);
            b.set(i, k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_mat;

    #[test]
    fn first_row_untouched() {
        let n = 4;
        let a = random_mat(n, n, 4);
        let mut b = random_mat(n, n, 5);
        for v in b.data_mut() {
            *v += 2.0;
        }
        let mut x = random_mat(n, n, 6);
        let x00 = x.at(0, 2);
        adi_input(&mut x, &a, &mut b);
        assert_eq!(x.at(0, 2), x00);
    }
}
