//! Native QR factorization — the hand-written ends of the paper's
//! Figure 12 (the column-blocked curve between them is generated from
//! `shackle_ir::kernels::qr` by `shackles::qr_columns`).
//!
//! * [`qr_pointwise`] — the input pointwise Householder code (mirrors
//!   the IR kernel exactly, including the `T`/`W` auxiliaries);
//! * [`qr_wy`] — LAPACK-style blocked Householder using the compact-WY
//!   representation, which exploits the *associativity* of reflections —
//!   the domain knowledge the paper notes a compiler does not have.
//!
//! On exit, column `k` below the diagonal holds the (unnormalized)
//! Householder vector `v_k`, the upper triangle holds `R`, and the
//! returned vector holds `vᵀv` per column. Both produce the same
//! factorization (identical sign conventions).

use crate::traced::Meter;
use crate::Mat;

/// Per-column scalars produced by the QR routines: `vᵀv` for each
/// Householder vector and the (implicit) diagonal of `R` — the
/// in-place layout stores `v` where `R`'s diagonal would live.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QrScalars {
    /// `vᵀv` per column.
    pub vtv: Vec<f64>,
    /// `R[k,k] = −sign(x₁)·‖x‖` per column.
    pub rdiag: Vec<f64>,
}

/// Pointwise Householder QR (the paper's input code).
///
/// Returns the per-column scalars.
///
/// # Panics
///
/// Panics if the matrix is not square (the paper's benchmark shape).
pub fn qr_pointwise(a: &mut Mat) -> QrScalars {
    assert_eq!(a.rows(), a.cols(), "benchmark QR is square");
    let n = a.rows();
    let mut out = QrScalars {
        vtv: vec![0.0; n],
        rdiag: vec![0.0; n],
    };
    for k in 0..n {
        // ‖x‖²
        let mut t = a.at(k, k) * a.at(k, k);
        for i in (k + 1)..n {
            t += a.at(i, k) * a.at(i, k);
        }
        // v = x + sign(x₁)·‖x‖·e₁
        let sgn = if a.at(k, k) < 0.0 { -1.0 } else { 1.0 };
        out.rdiag[k] = -sgn * t.sqrt();
        a.set(k, k, a.at(k, k) + sgn * t.sqrt());
        // vᵀv
        let mut tv = a.at(k, k) * a.at(k, k);
        for i in (k + 1)..n {
            tv += a.at(i, k) * a.at(i, k);
        }
        out.vtv[k] = tv;
        // reflect trailing columns
        for j in (k + 1)..n {
            let mut w = 0.0;
            for i in k..n {
                w += a.at(i, k) * a.at(i, j);
            }
            for i in k..n {
                let v = a.at(i, j) - 2.0 * a.at(i, k) * w / tv;
                a.set(i, j, v);
            }
        }
    }
    out
}

/// LAPACK-style blocked QR with the compact-WY representation:
/// factor a panel pointwise, accumulate `T` such that
/// `H₁…H_b = I − V·T·Vᵀ`, then update the trailing matrix
/// `C := C − V·Tᵀ·(Vᵀ·C)` strip by strip, as `dlarfb` does. Uses the
/// algebraic associativity of reflections (the `dgeqrf` approach the
/// paper contrasts with compiler blocking).
///
/// # Panics
///
/// Panics if `nb == 0` or the matrix is not square.
pub fn qr_wy(a: &mut Mat, nb: usize) -> QrScalars {
    qr_wy_metered(a, nb, &mut ())
}

/// The one body of [`qr_wy`] and [`crate::traced::qr_wy_traced`]:
/// every element access and flop is reported to `m`, with `A` at
/// address 0 and the `T`/`W` workspace after it.
#[allow(clippy::needless_range_loop)] // index loops mirror the BLAS formulation
pub(crate) fn qr_wy_metered<M: Meter>(a: &mut Mat, nb: usize, m: &mut M) -> QrScalars {
    assert!(nb > 0, "block size must be positive");
    assert_eq!(a.rows(), a.cols(), "benchmark QR is square");
    let n = a.rows();
    let a_len = (n * n) as u64 * 8;
    let ws_base = a_len.div_ceil(128) * 128;
    let mut out = QrScalars {
        vtv: vec![0.0; n],
        rdiag: vec![0.0; n],
    };

    macro_rules! rd {
        ($i:expr, $j:expr) => {{
            m.touch(8 * a.offset($i, $j) as u64);
            a.at($i, $j)
        }};
    }
    macro_rules! wr {
        ($i:expr, $j:expr, $v:expr) => {{
            let v = $v;
            m.touch(8 * a.offset($i, $j) as u64);
            a.set($i, $j, v);
        }};
    }

    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + nb).min(n);
        let b = j1 - j0;
        // factor the panel pointwise (updates only within the panel)
        for k in j0..j1 {
            let mut t = rd!(k, k) * rd!(k, k);
            m.flops(1);
            for i in (k + 1)..n {
                let v = rd!(i, k);
                t += v * v;
                m.flops(2);
            }
            let piv = rd!(k, k);
            let sgn = if piv < 0.0 { -1.0 } else { 1.0 };
            out.rdiag[k] = -sgn * t.sqrt();
            wr!(k, k, piv + sgn * t.sqrt());
            m.flops(3);
            let mut tv = rd!(k, k) * rd!(k, k);
            m.flops(1);
            for i in (k + 1)..n {
                let v = rd!(i, k);
                tv += v * v;
                m.flops(2);
            }
            out.vtv[k] = tv;
            for j in (k + 1)..j1 {
                let mut w = 0.0;
                for i in k..n {
                    w += rd!(i, k) * rd!(i, j);
                    m.flops(2);
                }
                let s = 2.0 * w / tv;
                m.flops(2);
                for i in k..n {
                    let v = rd!(i, j) - s * rd!(i, k);
                    wr!(i, j, v);
                    m.flops(2);
                }
            }
        }
        if j1 == n {
            break;
        }
        // form T (b×b upper triangular) in the workspace:
        // H_{j0}…H_{j1-1} = I − V·T·Vᵀ with V = columns j0..j1 of A
        // (implicit unit structure is NOT used: our vectors store v
        // fully, and rows above the diagonal belong to R — so v_k is
        // treated as zero above row k).
        let mut tmat = Mat::zeros(b, b);
        let t_addr = |r: usize, c: usize| ws_base + 8 * (c * b + r) as u64;
        for (kk, k) in (j0..j1).enumerate() {
            let tau = 2.0 / out.vtv[k];
            m.flops(1);
            m.touch(t_addr(kk, kk));
            tmat.set(kk, kk, tau);
            if kk > 0 {
                // w = Vᵀ(:,0..kk) · v_k  (rows k..n)
                let mut w = vec![0.0; kk];
                for (pp, p) in (j0..k).enumerate() {
                    let mut s = 0.0;
                    for i in k..n {
                        s += rd!(i, p) * rd!(i, k);
                        m.flops(2);
                    }
                    w[pp] = s;
                }
                // T(0..kk, kk) = -tau * T(0..kk,0..kk) * w
                for r in 0..kk {
                    let mut s = 0.0;
                    for (c, &wc) in w.iter().enumerate().take(kk).skip(r) {
                        m.touch(t_addr(r, c));
                        s += tmat.at(r, c) * wc;
                        m.flops(2);
                    }
                    m.touch(t_addr(r, kk));
                    tmat.set(r, kk, -tau * s);
                    m.flops(1);
                }
            }
        }
        // trailing update: C := C − V·Tᵀ·(Vᵀ·C), strip-mined over
        // column strips of width b so the W workspace stays resident
        // (as dlarfb does)
        let w_base = ws_base + 8 * (b * b) as u64;
        let w_addr = |r: usize, c: usize| w_base + 8 * (c * b + r) as u64;
        let mut c0 = j1;
        while c0 < n {
            let c1 = (c0 + b).min(n);
            let cols = c1 - c0;
            // W = Vᵀ·C_strip
            let mut wmat = Mat::zeros(b, cols);
            for j in 0..cols {
                for (kk, k) in (j0..j1).enumerate() {
                    let mut s = 0.0;
                    for i in k..n {
                        s += rd!(i, k) * rd!(i, c0 + j);
                        m.flops(2);
                    }
                    m.touch(w_addr(kk, j));
                    wmat.set(kk, j, s);
                }
            }
            // Y = Tᵀ·W
            let mut ymat = Mat::zeros(b, cols);
            for j in 0..cols {
                for r in 0..b {
                    let mut s = 0.0;
                    for c in 0..b {
                        // Tᵀ[r,c] = T[c,r]; only c <= r are non-zero
                        if c <= r {
                            m.touch(t_addr(c, r));
                            m.touch(w_addr(c, j));
                            s += tmat.at(c, r) * wmat.at(c, j);
                            m.flops(2);
                        }
                    }
                    ymat.set(r, j, s);
                }
            }
            // C_strip -= V·Y
            for j in 0..cols {
                for (kk, k) in (j0..j1).enumerate() {
                    let y = ymat.at(kk, j);
                    if y == 0.0 {
                        continue;
                    }
                    for i in k..n {
                        let v = rd!(i, c0 + j) - rd!(i, k) * y;
                        wr!(i, c0 + j, v);
                        m.flops(2);
                    }
                }
            }
            c0 = c1;
        }
        j0 = j1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_mat;

    fn upper_triangle_diff(a: &Mat, b: &Mat) -> f64 {
        let mut worst: f64 = 0.0;
        for j in 0..a.cols() {
            for i in 0..=j {
                let (x, y) = (a.at(i, j), b.at(i, j));
                worst = worst.max((x - y).abs() / x.abs().max(y.abs()).max(1.0));
            }
        }
        worst
    }

    #[test]
    fn r_has_correct_norms() {
        // QᵀQ = I ⇒ |R[0,0]| = ‖a₁‖ (the implicit diagonal returned in
        // rdiag; the matrix itself holds v there)
        let n = 10;
        let a0 = random_mat(n, n, 1);
        let mut a = a0.clone();
        let s = qr_pointwise(&mut a);
        let norm1: f64 = (0..n)
            .map(|i| a0.at(i, 0) * a0.at(i, 0))
            .sum::<f64>()
            .sqrt();
        assert!((s.rdiag[0].abs() - norm1).abs() < 1e-10);
        // our inputs are positive, so sign(x₁) = +1 and R[0,0] < 0
        assert!(s.rdiag[0] < 0.0);
    }

    #[test]
    fn wy_matches_pointwise_r() {
        for (n, nb) in [(12, 4), (17, 5), (24, 8)] {
            let a0 = random_mat(n, n, 3);
            let mut gold = a0.clone();
            qr_pointwise(&mut gold);
            let mut wy = a0.clone();
            qr_wy(&mut wy, nb);
            // same sign convention per column → same R and same V
            assert!(
                upper_triangle_diff(&gold, &wy) < 1e-8,
                "R mismatch n={n} nb={nb}"
            );
            assert!(gold.max_rel_diff(&wy) < 1e-8, "V mismatch n={n} nb={nb}");
        }
    }

    #[test]
    fn orthogonality_preserved() {
        // ‖R‖_F = ‖A‖_F since Q is orthogonal; R = strict upper of the
        // result plus the implicit rdiag
        let n = 16;
        let a0 = random_mat(n, n, 4);
        let mut a = a0.clone();
        let s = qr_pointwise(&mut a);
        let mut fro_a0 = 0.0;
        let mut fro_r = 0.0;
        for j in 0..n {
            for i in 0..n {
                fro_a0 += a0.at(i, j) * a0.at(i, j);
                if i < j {
                    fro_r += a.at(i, j) * a.at(i, j);
                }
            }
            fro_r += s.rdiag[j] * s.rdiag[j];
        }
        assert!((fro_a0.sqrt() - fro_r.sqrt()).abs() / fro_a0.sqrt() < 1e-10);
    }
}
