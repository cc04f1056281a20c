//! IR builders for the paper's benchmark programs ("input codes").
//!
//! These are transcriptions of the codes the paper transforms:
//!
//! * Figure 1(i) — matrix multiplication in I-J-K order,
//! * Figure 1(ii) — right-looking Cholesky factorization,
//! * Figure 1(iii) — left-looking Cholesky factorization,
//! * Figure 14(i) — the ADI kernel (from McKinley et al.'s study),
//! * §7 — QR factorization by Householder reflections (pointwise
//!   algorithm), the GMTRY Gaussian-elimination kernel, and banded
//!   Cholesky (ordinary Cholesky restricted to a band).
//!
//! All use 1-based FORTRAN-style index spaces with the symbolic problem
//! size `N` (and half-bandwidth `P` for the banded code).

use crate::{if_, loop_, stmt, ArrayDecl, ArrayRef, Program, ScalarExpr, Statement};
use shackle_polyhedra::{Constraint, LinExpr};

fn n() -> LinExpr {
    LinExpr::var("N")
}

fn one() -> LinExpr {
    LinExpr::constant(1)
}

fn v(name: &str) -> LinExpr {
    LinExpr::var(name)
}

fn ld(r: ArrayRef) -> ScalarExpr {
    ScalarExpr::from(r)
}

/// Figure 1(i): matrix multiplication, I-J-K loop order.
///
/// ```text
/// do I = 1..N
///   do J = 1..N
///     do K = 1..N
///       C[I,J] = C[I,J] + A[I,K] * B[K,J]
/// ```
pub fn matmul_ijk() -> Program {
    let c = ArrayRef::vars("C", &["I", "J"]);
    let a = ArrayRef::vars("A", &["I", "K"]);
    let b = ArrayRef::vars("B", &["K", "J"]);
    let s = Statement::new("S1", c.clone(), ld(c) + ld(a) * ld(b));
    Program::new(
        "matmul-ijk",
        vec!["N".into()],
        vec![
            ArrayDecl::square("C", "N"),
            ArrayDecl::square("A", "N"),
            ArrayDecl::square("B", "N"),
        ],
        vec![s],
        vec![loop_(
            "I",
            one(),
            n(),
            vec![loop_(
                "J",
                one(),
                n(),
                vec![loop_("K", one(), n(), vec![stmt(0)])],
            )],
        )],
    )
}

/// Figure 1(ii): right-looking Cholesky factorization.
///
/// ```text
/// do J = 1..N
///   S1: A[J,J] = sqrt(A[J,J])
///   do I = J+1..N
///     S2: A[I,J] = A[I,J] / A[J,J]
///   do L = J+1..N
///     do K = J+1..L
///       S3: A[L,K] = A[L,K] - A[L,J] * A[K,J]
/// ```
pub fn cholesky_right() -> Program {
    let ajj = ArrayRef::vars("A", &["J", "J"]);
    let aij = ArrayRef::vars("A", &["I", "J"]);
    let alk = ArrayRef::vars("A", &["L", "K"]);
    let alj = ArrayRef::vars("A", &["L", "J"]);
    let akj = ArrayRef::vars("A", &["K", "J"]);
    let s1 = Statement::new("S1", ajj.clone(), ld(ajj.clone()).sqrt());
    let s2 = Statement::new("S2", aij.clone(), ld(aij) / ld(ajj));
    let s3 = Statement::new("S3", alk.clone(), ld(alk) - ld(alj) * ld(akj));
    Program::new(
        "cholesky-right",
        vec!["N".into()],
        vec![ArrayDecl::square("A", "N")],
        vec![s1, s2, s3],
        vec![loop_(
            "J",
            one(),
            n(),
            vec![
                stmt(0),
                loop_("I", v("J") + one(), n(), vec![stmt(1)]),
                loop_(
                    "L",
                    v("J") + one(),
                    n(),
                    vec![loop_("K", v("J") + one(), v("L"), vec![stmt(2)])],
                ),
            ],
        )],
    )
}

/// Figure 1(iii): left-looking Cholesky factorization.
///
/// ```text
/// do J = 1..N
///   do L = J..N
///     do K = 1..J-1
///       S3: A[L,J] = A[L,J] - A[L,K] * A[J,K]
///   S1: A[J,J] = sqrt(A[J,J])
///   do I = J+1..N
///     S2: A[I,J] = A[I,J] / A[J,J]
/// ```
pub fn cholesky_left() -> Program {
    let ajj = ArrayRef::vars("A", &["J", "J"]);
    let aij = ArrayRef::vars("A", &["I", "J"]);
    let alj = ArrayRef::vars("A", &["L", "J"]);
    let alk = ArrayRef::vars("A", &["L", "K"]);
    let ajk = ArrayRef::vars("A", &["J", "K"]);
    let s3 = Statement::new("S3", alj.clone(), ld(alj) - ld(alk) * ld(ajk));
    let s1 = Statement::new("S1", ajj.clone(), ld(ajj.clone()).sqrt());
    let s2 = Statement::new("S2", aij.clone(), ld(aij) / ld(ajj));
    // statement ids follow the paper's labels: 0 = S1, 1 = S2, 2 = S3
    Program::new(
        "cholesky-left",
        vec!["N".into()],
        vec![ArrayDecl::square("A", "N")],
        vec![s1, s2, s3],
        vec![loop_(
            "J",
            one(),
            n(),
            vec![
                loop_(
                    "L",
                    v("J"),
                    n(),
                    vec![loop_("K", one(), v("J") - one(), vec![stmt(2)])],
                ),
                stmt(0),
                loop_("I", v("J") + one(), n(), vec![stmt(1)]),
            ],
        )],
    )
}

/// Figure 14(i): the ADI kernel (as produced by a FORTRAN-90
/// scalarizer).
///
/// ```text
/// do i = 2..N
///   do k = 1..N
///     S1: X[i,k] = X[i,k] - X[i-1,k] * A[i,k] / B[i-1,k]
///   do k = 1..N
///     S2: B[i,k] = B[i,k] - A[i,k] * A[i,k] / B[i-1,k]
/// ```
pub fn adi() -> Program {
    let xik = ArrayRef::vars("X", &["i", "k"]);
    let xprev = ArrayRef::new("X", vec![v("i") - one(), v("k")]);
    let aik = ArrayRef::vars("A", &["i", "k"]);
    let bprev = ArrayRef::new("B", vec![v("i") - one(), v("k")]);
    let bik = ArrayRef::vars("B", &["i", "k"]);
    let s1 = Statement::new(
        "S1",
        xik.clone(),
        ld(xik) - ld(xprev) * ld(aik.clone()) / ld(bprev.clone()),
    );
    let s2 = Statement::new(
        "S2",
        bik.clone(),
        ld(bik) - ld(aik.clone()) * ld(aik) / ld(bprev),
    );
    Program::new(
        "adi",
        vec!["N".into()],
        vec![
            ArrayDecl::square("X", "N"),
            ArrayDecl::square("A", "N"),
            ArrayDecl::square("B", "N"),
        ],
        vec![s1, s2],
        vec![loop_(
            "i",
            LinExpr::constant(2),
            n(),
            vec![
                loop_("k", one(), n(), vec![stmt(0)]),
                loop_("k", one(), n(), vec![stmt(1)]),
            ],
        )],
    )
}

/// The GMTRY kernel's computational core (§7): Gaussian elimination
/// without pivoting.
///
/// ```text
/// do K = 1..N
///   do I = K+1..N
///     S1: A[I,K] = A[I,K] / A[K,K]
///   do J = K+1..N
///     do I = K+1..N
///       S2: A[I,J] = A[I,J] - A[I,K] * A[K,J]
/// ```
///
/// The update nest is column-inner (`I` innermost), the natural
/// FORTRAN form of the SPEC kernel.
pub fn gauss() -> Program {
    let aik = ArrayRef::vars("A", &["I", "K"]);
    let akk = ArrayRef::vars("A", &["K", "K"]);
    let aij = ArrayRef::vars("A", &["I", "J"]);
    let akj = ArrayRef::vars("A", &["K", "J"]);
    let s1 = Statement::new("S1", aik.clone(), ld(aik.clone()) / ld(akk));
    let s2 = Statement::new("S2", aij.clone(), ld(aij) - ld(aik) * ld(akj));
    Program::new(
        "gauss",
        vec!["N".into()],
        vec![ArrayDecl::square("A", "N")],
        vec![s1, s2],
        vec![loop_(
            "K",
            one(),
            n(),
            vec![
                loop_("I", v("K") + one(), n(), vec![stmt(0)]),
                loop_(
                    "J",
                    v("K") + one(),
                    n(),
                    vec![loop_("I", v("K") + one(), n(), vec![stmt(1)])],
                ),
            ],
        )],
    )
}

/// QR factorization by Householder reflections, pointwise algorithm
/// (§7). For each column `K`: form the Householder vector `v` in place
/// (column `K` from row `K` down), then reflect the trailing columns.
///
/// The reductions are expressed through auxiliary 1-D arrays (`T[K]`
/// holds `‖x‖²` and then `vᵀv`; `W[J]` holds `vᵀ·a_J`); all subscripts
/// stay affine:
///
/// ```text
/// do K = 1..N
///   S1: T[K]   = A[K,K]*A[K,K]
///   do I = K+1..N
///     S2: T[K] = T[K] + A[I,K]*A[I,K]             (‖x‖²)
///   S3: A[K,K] = A[K,K] + sign(A[K,K])*sqrt(T[K]) (v = x ± ‖x‖·e1)
///   S4: T[K]   = A[K,K]*A[K,K]
///   do I = K+1..N
///     S5: T[K] = T[K] + A[I,K]*A[I,K]             (vᵀv)
///   do J = K+1..N
///     S6: W[J] = 0
///     do I = K..N
///       S7: W[J] = W[J] + A[I,K]*A[I,J]           (vᵀ·a_J)
///     do I = K..N
///       S8: A[I,J] = A[I,J] - 2*A[I,K]*W[J]/T[K]  (reflect)
/// ```
///
/// This is the "same … pointwise algorithm" the paper blocks on columns
/// only (dependences prevent two-dimensional blocking).
pub fn qr_householder() -> Program {
    let t = |ix: LinExpr| ArrayRef::new("T", vec![ix]);
    let w = |ix: LinExpr| ArrayRef::new("W", vec![ix]);
    let a = |r: LinExpr, c: LinExpr| ArrayRef::new("A", vec![r, c]);
    let akk = a(v("K"), v("K"));
    let akk2 = akk.clone();
    let norm2 =
        move |label: &str| Statement::new(label, t(v("K")), ld(akk2.clone()) * ld(akk2.clone()));
    let accum = |label: &str| {
        Statement::new(
            label,
            t(v("K")),
            ld(t(v("K"))) + ld(a(v("I"), v("K"))) * ld(a(v("I"), v("K"))),
        )
    };
    let s1 = norm2("S1");
    let s2 = accum("S2");
    let s3 = Statement::new(
        "S3",
        akk.clone(),
        ld(akk.clone()) + ld(akk).sign() * ld(t(v("K"))).sqrt(),
    );
    let s4 = norm2("S4");
    let s5 = accum("S5");
    let s6 = Statement::new("S6", w(v("J")), ScalarExpr::Const(0.0));
    let s7 = Statement::new(
        "S7",
        w(v("J")),
        ld(w(v("J"))) + ld(a(v("I"), v("K"))) * ld(a(v("I"), v("J"))),
    );
    let s8 = Statement::new(
        "S8",
        a(v("I"), v("J")),
        ld(a(v("I"), v("J")))
            - ScalarExpr::Const(2.0) * ld(a(v("I"), v("K"))) * ld(w(v("J"))) / ld(t(v("K"))),
    );
    Program::new(
        "qr-householder",
        vec!["N".into()],
        vec![
            ArrayDecl::square("A", "N"),
            ArrayDecl::new("T", vec![n()]),
            ArrayDecl::new("W", vec![n()]),
        ],
        vec![s1, s2, s3, s4, s5, s6, s7, s8],
        vec![loop_(
            "K",
            one(),
            n(),
            vec![
                stmt(0),
                loop_("I", v("K") + one(), n(), vec![stmt(1)]),
                stmt(2),
                stmt(3),
                loop_("I", v("K") + one(), n(), vec![stmt(4)]),
                loop_(
                    "J",
                    v("K") + one(),
                    n(),
                    vec![
                        stmt(5),
                        loop_("I", v("K"), n(), vec![stmt(6)]),
                        loop_("I", v("K"), n(), vec![stmt(7)]),
                    ],
                ),
            ],
        )],
    )
}

/// Banded Cholesky (§7): "regular Cholesky factorization restricted to
/// accessing data in the band" — right-looking Cholesky with guards
/// `|row - col| <= P` (half-bandwidth `P`, a program parameter).
pub fn banded_cholesky() -> Program {
    let p = || v("P");
    let ajj = ArrayRef::vars("A", &["J", "J"]);
    let aij = ArrayRef::vars("A", &["I", "J"]);
    let alk = ArrayRef::vars("A", &["L", "K"]);
    let alj = ArrayRef::vars("A", &["L", "J"]);
    let akj = ArrayRef::vars("A", &["K", "J"]);
    let s1 = Statement::new("S1", ajj.clone(), ld(ajj.clone()).sqrt());
    let s2 = Statement::new("S2", aij.clone(), ld(aij) / ld(ajj));
    let s3 = Statement::new("S3", alk.clone(), ld(alk) - ld(alj) * ld(akj));
    Program::new(
        "banded-cholesky",
        vec!["N".into(), "P".into()],
        vec![ArrayDecl::square("A", "N")],
        vec![s1, s2, s3],
        vec![loop_(
            "J",
            one(),
            n(),
            vec![
                stmt(0),
                loop_(
                    "I",
                    v("J") + one(),
                    n(),
                    vec![if_(
                        vec![Constraint::le(v("I") - v("J"), p())],
                        vec![stmt(1)],
                    )],
                ),
                loop_(
                    "L",
                    v("J") + one(),
                    n(),
                    vec![loop_(
                        "K",
                        v("J") + one(),
                        v("L"),
                        vec![if_(
                            vec![
                                Constraint::le(v("L") - v("J"), p()),
                                Constraint::le(v("K") - v("J"), p()),
                                Constraint::le(v("L") - v("K"), p()),
                            ],
                            vec![stmt(2)],
                        )],
                    )],
                ),
            ],
        )],
    )
}

/// Triangular back-solve `U·x = b` (upper triangular, solved from the
/// last unknown upward) — the paper's §8 example of a code whose blocks
/// cannot legally be walked "top to bottom, left to right": the data
/// flows from high indices to low, so the blocking must traverse
/// bottom-to-top (a reversed cut set).
///
/// Written with the substitution `i = N+1−Ip` so all loops have unit
/// step and affine bounds:
///
/// ```text
/// do Ip = 1..N                      (i = N+1-Ip runs N..1)
///   S1: X[N+1-Ip] = X[N+1-Ip] / U[N+1-Ip, N+1-Ip]
///   do Jp = Ip+1..N                 (j = N+1-Jp < i)
///     S2: X[N+1-Jp] = X[N+1-Jp] - U[N+1-Jp, N+1-Ip] * X[N+1-Ip]
/// ```
pub fn backsolve() -> Program {
    let i = || n() + one() - v("Ip");
    let j = || n() + one() - v("Jp");
    let x = |e: LinExpr| ArrayRef::new("X", vec![e]);
    let u = |r: LinExpr, c: LinExpr| ArrayRef::new("U", vec![r, c]);
    let s1 = Statement::new("S1", x(i()), ld(x(i())) / ld(u(i(), i())));
    let s2 = Statement::new("S2", x(j()), ld(x(j())) - ld(u(j(), i())) * ld(x(i())));
    Program::new(
        "backsolve",
        vec!["N".into()],
        vec![ArrayDecl::new("X", vec![n()]), ArrayDecl::square("U", "N")],
        vec![s1, s2],
        vec![loop_(
            "Ip",
            one(),
            n(),
            vec![stmt(0), loop_("Jp", v("Ip") + one(), n(), vec![stmt(1)])],
        )],
    )
}

/// A 1-D Gauss–Seidel relaxation sweep — the paper's §8 example of a
/// code for which *no* single sweep over the blocked array is legal
/// ("an array element is eventually affected by every other element"),
/// motivating the multipass executor in `shackle-exec::multipass`.
///
/// ```text
/// do T = 1..S
///   do I = 2..N-1
///     S1: A[I] = 0.5 * (A[I-1] + A[I+1])
/// ```
pub fn gauss_seidel_1d() -> Program {
    let a = |e: LinExpr| ArrayRef::new("A", vec![e]);
    let s1 = Statement::new(
        "S1",
        a(v("I")),
        ScalarExpr::Const(0.5) * (ld(a(v("I") - one())) + ld(a(v("I") + one()))),
    );
    Program::new(
        "gauss-seidel-1d",
        vec!["N".into(), "S".into()],
        vec![ArrayDecl::new("A", vec![n()])],
        vec![s1],
        vec![loop_(
            "T",
            one(),
            v("S"),
            vec![loop_("I", LinExpr::constant(2), n() - one(), vec![stmt(0)])],
        )],
    )
}

/// Symmetric rank-k update (SYRK): `C ← C + A·Aᵀ`, lower triangle only.
/// The BLAS-3 sibling of matmul with a triangular iteration space — the
/// same two-dimensional blocking applies, but the footprint of a block
/// row is asymmetric in `I` and `J`, which is what makes rectangular
/// blocks interesting here.
///
/// ```text
/// do I = 1..N
///   do J = 1..I
///     do K = 1..N
///       S1: C[I,J] = C[I,J] + A[I,K] * A[J,K]
/// ```
pub fn syrk() -> Program {
    let c = ArrayRef::vars("C", &["I", "J"]);
    let aik = ArrayRef::vars("A", &["I", "K"]);
    let ajk = ArrayRef::vars("A", &["J", "K"]);
    let s = Statement::new("S1", c.clone(), ld(c) + ld(aik) * ld(ajk));
    Program::new(
        "syrk",
        vec!["N".into()],
        vec![ArrayDecl::square("C", "N"), ArrayDecl::square("A", "N")],
        vec![s],
        vec![loop_(
            "I",
            one(),
            n(),
            vec![loop_(
                "J",
                one(),
                v("I"),
                vec![loop_("K", one(), n(), vec![stmt(0)])],
            )],
        )],
    )
}

/// One out-of-place 2-D Jacobi (heat) relaxation sweep — the
/// relaxation-code family §9 names as a target beyond the
/// factorizations. A single sweep writes `V` from `U`, so blocking `V`
/// is legal (unlike the in-place Gauss–Seidel sweep, where every
/// element eventually affects every other and no single-sweep blocking
/// exists).
///
/// ```text
/// do I = 2..N-1
///   do J = 2..N-1
///     S1: V[I,J] = 0.25 * (U[I-1,J] + U[I+1,J] + U[I,J-1] + U[I,J+1])
/// ```
pub fn jacobi2d() -> Program {
    let u = |r: LinExpr, c: LinExpr| ArrayRef::new("U", vec![r, c]);
    let vij = ArrayRef::vars("V", &["I", "J"]);
    let s = Statement::new(
        "S1",
        vij,
        ScalarExpr::Const(0.25)
            * (ld(u(v("I") - one(), v("J")))
                + ld(u(v("I") + one(), v("J")))
                + ld(u(v("I"), v("J") - one()))
                + ld(u(v("I"), v("J") + one()))),
    );
    Program::new(
        "jacobi2d",
        vec!["N".into()],
        vec![ArrayDecl::square("V", "N"), ArrayDecl::square("U", "N")],
        vec![s],
        vec![loop_(
            "I",
            LinExpr::constant(2),
            n() - one(),
            vec![loop_("J", LinExpr::constant(2), n() - one(), vec![stmt(0)])],
        )],
    )
}

/// A rank-4 tensor contraction over two rank-3 operands — the kind of
/// kernel coupled-cluster codes block: two contracted indices (`K`,
/// `L`), and the operands transpose them relative to each other.
///
/// ```text
/// do I = 1..N
///   do J = 1..N
///     do K = 1..N
///       do L = 1..N
///         S1: C[I,J] = C[I,J] + A[I,K,L] * B[L,K,J]
/// ```
pub fn tensor_contract() -> Program {
    let c = ArrayRef::vars("C", &["I", "J"]);
    let a = ArrayRef::vars("A", &["I", "K", "L"]);
    let b = ArrayRef::vars("B", &["L", "K", "J"]);
    let s = Statement::new("S1", c.clone(), ld(c) + ld(a) * ld(b));
    Program::new(
        "tensor-contract",
        vec!["N".into()],
        vec![
            ArrayDecl::square("C", "N"),
            ArrayDecl::new("A", vec![n(), n(), n()]),
            ArrayDecl::new("B", vec![n(), n(), n()]),
        ],
        vec![s],
        vec![loop_(
            "I",
            one(),
            n(),
            vec![loop_(
                "J",
                one(),
                n(),
                vec![loop_(
                    "K",
                    one(),
                    n(),
                    vec![loop_("L", one(), n(), vec![stmt(0)])],
                )],
            )],
        )],
    )
}

/// A kernel builder paired with its registry name, as listed by
/// [`all`].
pub type KernelBuilder = (&'static str, fn() -> Program);

/// Every kernel builder in this module, keyed by its builder name —
/// the single enumeration. `shackle_kernels::catalogue` is derived
/// from it (and panics on a builder it has no facts for), so a new
/// kernel cannot silently stay a dead end the way `backsolve` and
/// `gauss_seidel_1d` once did.
pub fn all() -> Vec<KernelBuilder> {
    vec![
        ("matmul_ijk", matmul_ijk as fn() -> Program),
        ("cholesky_right", cholesky_right),
        ("cholesky_left", cholesky_left),
        ("adi", adi),
        ("gauss", gauss),
        ("qr_householder", qr_householder),
        ("banded_cholesky", banded_cholesky),
        ("backsolve", backsolve),
        ("gauss_seidel_1d", gauss_seidel_1d),
        ("syrk", syrk),
        ("jacobi2d", jacobi2d),
        ("tensor_contract", tensor_contract),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kernels_validate() {
        // Program::new panics on structural errors, so constructing each
        // kernel is itself the test.
        for (_, mk) in all() {
            let p = mk();
            assert!(!p.stmts().is_empty());
            // display should not panic and should contain each label
            let text = p.to_string();
            for s in p.stmts() {
                assert!(
                    text.contains(s.label()),
                    "{} missing in:\n{text}",
                    s.label()
                );
            }
        }
    }

    #[test]
    fn registry_names_match_builders() {
        let reg = all();
        assert_eq!(reg.len(), 12);
        let mut names: Vec<&str> = reg.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), reg.len(), "duplicate registry names");
        // Builder keys are the program names with `-` → `_`.
        for (key, mk) in reg {
            assert_eq!(key, mk().name().replace('-', "_"));
        }
    }

    #[test]
    fn syrk_is_triangular_and_tensor_is_rank3() {
        let p = syrk();
        assert_eq!(p.context(0).iter_vars(), vec!["I", "J", "K"]);
        // J <= I
        assert!(!p.context(0).domain().eval(&|v| match v {
            "N" => 10,
            "I" => 2,
            "J" => 5,
            "K" => 1,
            _ => 0,
        }));
        let t = tensor_contract();
        assert_eq!(t.arrays()[1].dims().len(), 3);
        assert_eq!(t.arrays()[2].dims().len(), 3);
        assert_eq!(t.context(0).iter_vars(), vec!["I", "J", "K", "L"]);
    }

    #[test]
    fn cholesky_right_structure_matches_fig1() {
        let p = cholesky_right();
        let c1 = p.context(0);
        assert_eq!(c1.iter_vars(), vec!["J"]);
        let c3 = p.context(2);
        assert_eq!(c3.iter_vars(), vec!["J", "L", "K"]);
        // triangular bounds: K <= L
        assert!(!c3.domain().eval(&|v| match v {
            "N" => 10,
            "J" => 1,
            "L" => 3,
            "K" => 4,
            _ => 0,
        }));
    }

    #[test]
    fn left_and_right_cholesky_share_labels() {
        let l = cholesky_left();
        let r = cholesky_right();
        assert_eq!(l.stmts()[0].label(), r.stmts()[0].label());
        // left-looking visits S3 before S1 textually
        assert_eq!(l.stmt_order(), vec![2, 0, 1]);
        assert_eq!(r.stmt_order(), vec![0, 1, 2]);
    }

    #[test]
    fn adi_has_two_perfect_k_loops() {
        let p = adi();
        assert_eq!(p.context(0).iter_vars(), vec!["i", "k"]);
        assert_eq!(p.context(1).iter_vars(), vec!["i", "k"]);
    }

    #[test]
    fn banded_guards_restrict_domain() {
        let p = banded_cholesky();
        let dom = p.context(2).domain();
        // L - J <= P enforced
        assert!(!dom.eval(&|v| match v {
            "N" => 20,
            "P" => 2,
            "J" => 1,
            "L" => 10,
            "K" => 2,
            _ => 0,
        }));
        assert!(dom.eval(&|v| match v {
            "N" => 20,
            "P" => 4,
            "J" => 1,
            "L" => 3,
            "K" => 2,
            _ => 0,
        }));
    }
}
