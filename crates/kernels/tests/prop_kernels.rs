//! Property tests for the hand-written kernels that survive as oracles
//! and traced baselines: each native-only baseline agrees with its
//! pointwise reference over random shapes, block sizes and inputs.

use proptest::prelude::*;
use shackle_kernels::banded::{banded_cholesky_dense, pbtrf_lapack, pbtrf_pointwise, BandMat};
use shackle_kernels::cholesky::cholesky_pointwise;
use shackle_kernels::gen::{random_banded_spd, random_mat, random_spd};
use shackle_kernels::qr::{qr_pointwise, qr_wy};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn qr_wy_matches_pointwise(n in 1usize..20, nb in 1usize..10, seed in 0u64..1000) {
        let a0 = random_mat(n, n, seed);
        let mut gold = a0.clone();
        let s0 = qr_pointwise(&mut gold);
        let mut c = a0.clone();
        let s = qr_wy(&mut c, nb);
        prop_assert!(gold.max_rel_diff(&c) < 1e-7, "n={n} nb={nb}");
        for k in 0..n {
            prop_assert!((s0.rdiag[k] - s.rdiag[k]).abs()
                <= 1e-7 * s0.rdiag[k].abs().max(1.0));
        }
    }

    #[test]
    fn pbtrf_lapack_matches_pointwise(
        n in 2usize..30, p_plus in 1usize..8, nb in 1usize..8, seed in 0u64..1000,
    ) {
        let p = p_plus.min(n - 1);
        let a0 = random_banded_spd(n, p, seed);
        let mut gold = BandMat::from_dense(&a0, p);
        pbtrf_pointwise(&mut gold);
        let mut c = BandMat::from_dense(&a0, p);
        pbtrf_lapack(&mut c, nb);
        prop_assert!(
            gold.to_dense_lower().max_rel_diff_lower(&c.to_dense_lower()) < 1e-9,
            "n={n} p={p} nb={nb}"
        );
    }

    /// Band storage round-trip: `from_dense` → `to_dense_lower` is the
    /// identity on the lower band of a symmetric band matrix. `p_sel`
    /// oversamples the edges so `p = 0` (diagonal only) and `p = n−1`
    /// (the widest band `from_dense` accepts) are exercised every run.
    #[test]
    fn bandmat_roundtrip_is_identity(
        n in 1usize..26, p_sel in 0usize..10, seed in 0u64..1000,
    ) {
        let p = match p_sel {
            8 => 0,
            9 => n - 1,
            s => s.min(n - 1),
        };
        let a = random_banded_spd(n, p, seed);
        let band = BandMat::from_dense(&a, p);
        prop_assert_eq!(band.n(), n);
        prop_assert_eq!(band.p(), p);
        let back = band.to_dense_lower();
        for j in 0..n {
            for i in j..n {
                let expect = if i - j <= p { a.at(i, j) } else { 0.0 };
                prop_assert!(
                    back.at(i, j) == expect,
                    "n={} p={} ({}, {}): {} vs {}", n, p, i, j, back.at(i, j), expect
                );
            }
        }
    }

    /// Band-storage Cholesky agrees with the dense banded algorithm:
    /// `pbtrf_pointwise` on `BandMat` vs `banded_cholesky_dense` on the
    /// full matrix, compared on the band.
    #[test]
    fn pbtrf_matches_dense_banded_cholesky(
        n in 1usize..26, p_sel in 0usize..10, seed in 0u64..1000,
    ) {
        let p = match p_sel {
            8 => 0,
            9 => n - 1,
            s => s.min(n - 1),
        };
        let a0 = random_banded_spd(n, p, seed);
        let mut dense = a0.clone();
        banded_cholesky_dense(&mut dense, p);
        let mut band = BandMat::from_dense(&a0, p);
        pbtrf_pointwise(&mut band);
        let got = band.to_dense_lower();
        for j in 0..n {
            for i in j..(j + p + 1).min(n) {
                let (x, y) = (dense.at(i, j), got.at(i, j));
                let rel = (x - y).abs() / x.abs().max(y.abs()).max(1.0);
                prop_assert!(rel < 1e-12, "n={} p={} ({}, {})", n, p, i, j);
            }
        }
    }

    /// Cholesky factors reconstruct the input: L·Lᵀ = A.
    #[test]
    fn cholesky_reconstructs(n in 1usize..20, seed in 0u64..1000) {
        let a0 = random_spd(n, seed);
        let mut l = a0.clone();
        cholesky_pointwise(&mut l);
        for i in 0..n {
            for j in 0..=i {
                let mut s = 0.0;
                for k in 0..=j {
                    s += l.at(i, k) * l.at(j, k);
                }
                prop_assert!((s - a0.at(i, j)).abs() < 1e-8 * (n as f64));
            }
        }
    }
}
