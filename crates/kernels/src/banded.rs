//! Banded Cholesky factorization (the paper's Figure 15).
//!
//! The input code is ordinary right-looking Cholesky restricted to the
//! band (§7, caveat (i)); the storage transformation to LAPACK band
//! layout — only the band stored, column by column — is caveat (ii),
//! applied to the compiler-generated blocked code as a post-pass (the
//! generated code runs through `trace::band_layout`). Here:
//!
//! * [`BandMat`] — LAPACK-style lower band storage;
//! * [`banded_cholesky_dense`] — the input code on dense storage;
//! * [`pbtrf_pointwise`] — the same computation on band storage;
//! * [`pbtrf_lapack`] — LAPACK `dpbtrf`-style blocked factorization.

use crate::traced::Meter;
use crate::Mat;

/// Lower band storage: element `(i, j)` with `j ≤ i ≤ j + p` lives at
/// row `i − j`, column `j` of a `(p+1) × n` column-major array.
#[derive(Clone, Debug, PartialEq)]
pub struct BandMat {
    n: usize,
    p: usize,
    data: Vec<f64>,
}

impl BandMat {
    /// A zero band matrix of order `n` with half-bandwidth `p`.
    pub fn zeros(n: usize, p: usize) -> Self {
        Self {
            n,
            p,
            data: vec![0.0; (p + 1) * n],
        }
    }

    /// Extract the lower band of a dense symmetric matrix.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square or `p >= n`.
    pub fn from_dense(a: &Mat, p: usize) -> Self {
        assert_eq!(a.rows(), a.cols());
        let n = a.rows();
        assert!(p < n, "half-bandwidth must be smaller than the order");
        let mut b = Self::zeros(n, p);
        for j in 0..n {
            for i in j..(j + p + 1).min(n) {
                b.set(i, j, a.at(i, j));
            }
        }
        b
    }

    /// Expand to a dense lower-triangular matrix (upper part zero).
    pub fn to_dense_lower(&self) -> Mat {
        let mut a = Mat::zeros(self.n, self.n);
        for j in 0..self.n {
            for i in j..(j + self.p + 1).min(self.n) {
                a.set(i, j, self.at(i, j));
            }
        }
        a
    }

    /// Order of the matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Half-bandwidth.
    pub fn p(&self) -> usize {
        self.p
    }

    /// True if `(i, j)` is inside the stored band.
    pub fn in_band(&self, i: usize, j: usize) -> bool {
        i >= j && i - j <= self.p
    }

    /// Band-storage element offset of `(i, j)`.
    #[inline(always)]
    pub fn offset(&self, i: usize, j: usize) -> usize {
        debug_assert!(self.in_band(i, j), "({i},{j}) outside band");
        (i - j) + j * (self.p + 1)
    }

    /// Read `(i, j)` (within the band).
    #[inline(always)]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.data[self.offset(i, j)]
    }

    /// Write `(i, j)` (within the band).
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        let o = self.offset(i, j);
        self.data[o] = v;
    }
}

/// The input code: dense right-looking Cholesky with band guards — the
/// paper's "initial point code … regular Cholesky factorization
/// restricted to accessing data in the band".
///
/// # Panics
///
/// Panics if not square / not positive definite on the band.
pub fn banded_cholesky_dense(a: &mut Mat, p: usize) {
    assert_eq!(a.rows(), a.cols());
    let n = a.rows();
    for j in 0..n {
        let d = a.at(j, j);
        assert!(d > 0.0, "not positive definite at pivot {j}");
        let d = d.sqrt();
        a.set(j, j, d);
        for i in (j + 1)..n {
            if i - j <= p {
                let v = a.at(i, j) / d;
                a.set(i, j, v);
            }
        }
        for l in (j + 1)..n {
            for k in (j + 1)..=l {
                if l - j <= p && k - j <= p && l - k <= p {
                    let v = a.at(l, k) - a.at(l, j) * a.at(k, j);
                    a.set(l, k, v);
                }
            }
        }
    }
}

/// Pointwise banded Cholesky on band storage.
///
/// # Panics
///
/// Panics if not positive definite.
pub fn pbtrf_pointwise(a: &mut BandMat) {
    let (n, p) = (a.n(), a.p());
    for j in 0..n {
        let d = a.at(j, j);
        assert!(d > 0.0, "not positive definite at pivot {j}");
        let d = d.sqrt();
        a.set(j, j, d);
        let hi = (j + p + 1).min(n);
        for i in (j + 1)..hi {
            let v = a.at(i, j) / d;
            a.set(i, j, v);
        }
        for l in (j + 1)..hi {
            for k in (j + 1)..=l {
                // l − k ≤ p holds automatically inside the window
                let v = a.at(l, k) - a.at(l, j) * a.at(k, j);
                a.set(l, k, v);
            }
        }
    }
}

/// LAPACK `dpbtrf`-style blocked banded Cholesky: per block column,
/// factor the diagonal block, triangular-solve the sub-band panel, and
/// symmetric-update the trailing window — the structure that "starts
/// reaping the benefits of level 3 BLAS" at large bandwidths.
///
/// # Panics
///
/// Panics if `nb == 0` or not positive definite.
pub fn pbtrf_lapack(a: &mut BandMat, nb: usize) {
    pbtrf_lapack_metered(a, nb, &mut ());
}

/// The one body of [`pbtrf_lapack`] and
/// [`crate::traced::pbtrf_lapack_traced`]: every element access and
/// flop is reported to `m`, band storage at address 0.
pub(crate) fn pbtrf_lapack_metered<M: Meter>(a: &mut BandMat, nb: usize, m: &mut M) {
    assert!(nb > 0, "block size must be positive");
    let (n, p) = (a.n(), a.p());
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
        // dpotf2 on the diagonal block (band-clipped)
        for j in j0..j1 {
            let mut d = rd!(j, j);
            for k in j.saturating_sub(p).max(j0)..j {
                let v = rd!(j, k);
                d -= v * v;
                m.flops(2);
            }
            assert!(d > 0.0, "not positive definite at pivot {j}");
            let d = d.sqrt();
            m.flops(1);
            wr!(j, j, d);
            for i in (j + 1)..j1.min(j + p + 1) {
                let mut v = rd!(i, j);
                for k in i.saturating_sub(p).max(j0)..j {
                    v -= rd!(i, k) * rd!(j, k);
                    m.flops(2);
                }
                wr!(i, j, v / d);
                m.flops(1);
            }
        }
        let band_end = (j1 - 1 + p + 1).min(n).max(j1);
        if j1 < band_end {
            // dtrsm: rows j1..band_end of the panel against L(j0..j1)
            for j in j0..j1 {
                let d = rd!(j, j);
                let hi = (j + p + 1).min(band_end);
                for i in j1..hi {
                    let mut v = rd!(i, j);
                    for k in i.saturating_sub(p).max(j0)..j {
                        v -= rd!(i, k) * rd!(j, k);
                        m.flops(2);
                    }
                    wr!(i, j, v / d);
                    m.flops(1);
                }
            }
            // dsyrk: trailing window (j1..band_end)² -= panel·panelᵀ
            for c in j1..band_end {
                for r in c..(c + p + 1).min(band_end) {
                    let mut v = rd!(r, c);
                    let klo = r.saturating_sub(p).max(j0);
                    for k in klo..j1 {
                        if c <= k + p {
                            v -= rd!(r, k) * rd!(c, k);
                            m.flops(2);
                        }
                    }
                    wr!(r, c, v);
                }
            }
        }
        j0 = j1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::cholesky_pointwise;
    use crate::gen::random_banded_spd;

    fn band_diff(a: &BandMat, b: &BandMat) -> f64 {
        let (da, db) = (a.to_dense_lower(), b.to_dense_lower());
        da.max_rel_diff_lower(&db)
    }

    #[test]
    fn band_storage_roundtrip() {
        let a = random_banded_spd(10, 3, 1);
        let b = BandMat::from_dense(&a, 3);
        assert_eq!(b.at(5, 3), a.at(5, 3));
        let d = b.to_dense_lower();
        assert_eq!(d.at(5, 3), a.at(5, 3));
        assert_eq!(d.at(3, 5), 0.0);
    }

    #[test]
    fn banded_factor_matches_dense_cholesky() {
        // the Cholesky factor of a banded SPD matrix stays in the band,
        // so the band-restricted code computes the true factor
        for (n, p) in [(16, 3), (20, 5), (12, 1)] {
            let a0 = random_banded_spd(n, p, 2);
            let mut dense = a0.clone();
            cholesky_pointwise(&mut dense);
            let mut guarded = a0.clone();
            banded_cholesky_dense(&mut guarded, p);
            assert!(dense.max_rel_diff_lower(&guarded) < 1e-10);
            let mut band = BandMat::from_dense(&a0, p);
            pbtrf_pointwise(&mut band);
            assert!(
                band.to_dense_lower().max_rel_diff_lower(&dense.clone()) < 1.0,
                "band values live only in the band"
            );
            // compare within the band
            for j in 0..n {
                for i in j..(j + p + 1).min(n) {
                    assert!((band.at(i, j) - dense.at(i, j)).abs() < 1e-10, "({i},{j})");
                }
            }
        }
    }

    #[test]
    fn lapack_matches_pointwise() {
        for (n, p, nb) in [(20, 4, 4), (25, 6, 5), (30, 3, 8), (16, 7, 4), (18, 5, 32)] {
            let a0 = random_banded_spd(n, p, 4);
            let mut gold = BandMat::from_dense(&a0, p);
            pbtrf_pointwise(&mut gold);
            let mut c = BandMat::from_dense(&a0, p);
            pbtrf_lapack(&mut c, nb);
            assert!(band_diff(&gold, &c) < 1e-10, "n={n} p={p} nb={nb}");
        }
    }
}
