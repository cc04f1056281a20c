//! Gaussian elimination without pivoting — the computational core of
//! the GMTRY benchmark from the NAS/SPEC suite (the paper's Fig. 13(i)).
//! Only the input code is written here; the blocked code of the figure
//! is generated from `shackle_ir::kernels::gauss`.

use crate::Mat;

/// The input code (§7): in-place LU without pivoting, `L` unit-lower
/// below the diagonal, `U` on and above.
///
/// # Panics
///
/// Panics if the matrix is not square or a pivot is zero.
pub fn gauss_pointwise(a: &mut Mat) {
    assert_eq!(a.rows(), a.cols(), "Gaussian elimination needs square");
    let n = a.rows();
    for k in 0..n {
        let d = a.at(k, k);
        assert!(d != 0.0, "zero pivot at {k} (no pivoting)");
        for i in (k + 1)..n {
            let v = a.at(i, k) / d;
            a.set(i, k, v);
        }
        for j in (k + 1)..n {
            let u = a.at(k, j);
            for i in (k + 1)..n {
                let v = a.at(i, j) - a.at(i, k) * u;
                a.set(i, j, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_spd;

    #[test]
    fn lu_reconstructs() {
        let n = 10;
        let a0 = random_spd(n, 1);
        let mut lu = a0.clone();
        gauss_pointwise(&mut lu);
        // A == L·U
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..=i.min(j) {
                    let l = if k == i { 1.0 } else { lu.at(i, k) };
                    let u = lu.at(k, j);
                    if k < i {
                        s += lu.at(i, k) * u;
                    } else {
                        s += l * u;
                    }
                }
                assert!((s - a0.at(i, j)).abs() < 1e-8, "({i},{j})");
            }
        }
    }
}
