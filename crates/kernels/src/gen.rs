//! Workload generators: the synthetic inputs driving every experiment.
//!
//! The paper's benchmarks run on dense (or banded) matrices whose values
//! are irrelevant to the memory behaviour; what matters is that the
//! factorizations are numerically well-posed. All generators are
//! deterministic in a seed.

use crate::rng::Rng;
use crate::Mat;

/// A uniformly random matrix in `(0, 1)`.
pub fn random_mat(n: usize, m: usize, seed: u64) -> Mat {
    let mut rng = Rng::seed_from_u64(seed);
    let mut out = Mat::zeros(n, m);
    for j in 0..m {
        for i in 0..n {
            out.set(i, j, rng.gen_range(1e-3..1.0));
        }
    }
    out
}

/// A random symmetric positive-definite matrix: random symmetric entries
/// with a dominant diagonal (`aᵢᵢ = n + 1 + uᵢ`), which guarantees
/// positive pivots for Cholesky and Gaussian elimination alike.
pub fn random_spd(n: usize, seed: u64) -> Mat {
    let mut rng = Rng::seed_from_u64(seed);
    let mut m = Mat::zeros(n, n);
    for j in 0..n {
        for i in j..n {
            let v = rng.gen_range(1e-3..1.0);
            m.set(i, j, v);
            m.set(j, i, v);
        }
    }
    for i in 0..n {
        m.set(i, i, n as f64 + 1.0 + m.at(i, i));
    }
    m
}

/// A random banded SPD matrix with half-bandwidth `p`: zero outside
/// `|i − j| ≤ p`, dominant diagonal.
pub fn random_banded_spd(n: usize, p: usize, seed: u64) -> Mat {
    let mut rng = Rng::seed_from_u64(seed);
    let mut m = Mat::zeros(n, n);
    for j in 0..n {
        for i in j..(j + p + 1).min(n) {
            let v = rng.gen_range(1e-3..1.0);
            m.set(i, j, v);
            m.set(j, i, v);
        }
    }
    for i in 0..n {
        m.set(i, i, 2.0 * (p as f64 + 1.0) + m.at(i, i));
    }
    m
}

/// Initializer closure for IR workspaces mirroring [`random_spd`]
/// (values agree with the `Mat` version entry for entry so native and
/// interpreted runs factor identical matrices).
pub fn spd_ws_init(array: &str, n: usize, seed: u64) -> impl Fn(&str, &[usize]) -> f64 {
    let m = random_spd(n, seed);
    let arr = array.to_string();
    move |name: &str, idx: &[usize]| {
        if name == arr {
            m.at(idx[0] - 1, idx[1] - 1)
        } else {
            0.0
        }
    }
}

/// Initializer mirroring [`random_banded_spd`].
pub fn banded_ws_init(
    array: &str,
    n: usize,
    p: usize,
    seed: u64,
) -> impl Fn(&str, &[usize]) -> f64 {
    let m = random_banded_spd(n, p, seed);
    let arr = array.to_string();
    move |name: &str, idx: &[usize]| {
        if name == arr {
            m.at(idx[0] - 1, idx[1] - 1)
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spd_is_symmetric_dominant() {
        let m = random_spd(20, 3);
        for i in 0..20 {
            assert!(m.at(i, i) > 20.0);
            for j in 0..20 {
                assert_eq!(m.at(i, j), m.at(j, i));
            }
        }
    }

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(random_spd(8, 9).data(), random_spd(8, 9).data());
        assert_ne!(random_spd(8, 9).data(), random_spd(8, 10).data());
    }

    #[test]
    fn banded_outside_band_zero() {
        let m = random_banded_spd(12, 2, 1);
        for i in 0..12usize {
            for j in 0..12usize {
                if i.abs_diff(j) > 2 {
                    assert_eq!(m.at(i, j), 0.0);
                } else {
                    assert_eq!(m.at(i, j), m.at(j, i));
                }
            }
        }
    }

    #[test]
    fn ws_init_matches_mat() {
        let m = random_spd(6, 5);
        let f = spd_ws_init("A", 6, 5);
        assert_eq!(f("A", &[2, 3]), m.at(1, 2));
        assert_eq!(f("B", &[2, 3]), 0.0);
    }
}
