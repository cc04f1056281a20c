//! The canonical shackles of the paper's experiments, ready to apply to
//! the IR kernels of [`shackle_ir::kernels`].
//!
//! Each function documents which part of the paper it reproduces.
//! [`crate::catalogue`] records which of them are each kernel's
//! canonical single shackle and product; the root package's
//! `tests/pipeline.rs` verifies every one of those legal and its
//! generated code bit-identical to the input.

use shackle_core::{Blocking, CutSet, Shackle};
use shackle_ir::{ArrayRef, Program};
use shackle_polyhedra::LinExpr;

/// §4.1 / Figure 6: block `C` and shackle matmul's `C[I,J]` to it.
pub fn matmul_c(p: &Program, width: i64) -> Vec<Shackle> {
    vec![Shackle::on_writes(
        p,
        Blocking::square("C", 2, &[0, 1], width),
    )]
}

/// §6.1 / Figure 3: the product `M_C × M_A`, which fully tiles all three
/// loops.
pub fn matmul_ca(p: &Program, width: i64) -> Vec<Shackle> {
    vec![
        Shackle::on_writes(p, Blocking::square("C", 2, &[0, 1], width)),
        Shackle::new(
            p,
            Blocking::square("A", 2, &[0, 1], width),
            vec![ArrayRef::vars("A", &["I", "K"])],
        ),
    ]
}

/// §6.3 / Figure 10: the two-level product — `(M_C × M_A)` at `w1` for
/// the slow level times `(M_C × M_A)` at `w2` for the fast level.
pub fn matmul_two_level(p: &Program, w1: i64, w2: i64) -> Vec<Shackle> {
    let mut f = matmul_ca(p, w1);
    f.extend(matmul_ca(p, w2));
    f
}

/// §6.1: right-looking Cholesky shackled through its writes
/// (`A[J,J]`, `A[I,J]`, `A[L,K]`) — Figure 7's code.
pub fn cholesky_writes(p: &Program, width: i64) -> Vec<Shackle> {
    vec![Shackle::on_writes(
        p,
        Blocking::square("A", 2, &[1, 0], width),
    )]
}

/// §6.1: the left-looking (lazy-update) shackle
/// (`A[J,J]`, `A[I,J]`, `A[L,J]`).
///
/// The paper's text lists this choice with `A[J,J]` for S2, which our
/// exact legality test refutes (see `shackle-core`'s
/// `cholesky_paper_literal_second_choice_is_refuted` test); with S2
/// shackled through its write the choice is legal and yields
/// fully-blocked left-looking Cholesky.
pub fn cholesky_reads(p: &Program, width: i64) -> Vec<Shackle> {
    vec![Shackle::new(
        p,
        Blocking::square("A", 2, &[1, 0], width),
        vec![
            ArrayRef::vars("A", &["J", "J"]),
            ArrayRef::vars("A", &["I", "J"]),
            ArrayRef::vars("A", &["L", "J"]),
        ],
    )]
}

/// §6.1: the Cartesian product of the writes and lazy-update shackles —
/// "fully-blocked right-looking Cholesky" (localizes reads *and*
/// writes; the Figure 11 "compiler generated" configuration).
pub fn cholesky_product(p: &Program, width: i64) -> Vec<Shackle> {
    let mut f = cholesky_writes(p, width);
    f.extend(cholesky_reads(p, width));
    f
}

/// §7 / Figure 12: QR with only the columns of `A` blocked
/// ("dependences prevent complete two-dimensional blocking"). The
/// norm/pivot statements ride with column `K`; the update statements
/// with column `J` (dummy references where the statement writes `T`/`W`).
pub fn qr_columns(p: &Program, width: i64) -> Vec<Shackle> {
    let blocking = Blocking::new("A", vec![CutSet::axis(1, 2, width)]);
    let refs = vec![
        ArrayRef::vars("A", &["K", "K"]), // S1 (writes T[K]): dummy, column K
        ArrayRef::vars("A", &["I", "K"]), // S2
        ArrayRef::vars("A", &["K", "K"]), // S3
        ArrayRef::vars("A", &["K", "K"]), // S4: dummy
        ArrayRef::vars("A", &["I", "K"]), // S5
        ArrayRef::vars("A", &["K", "J"]), // S6 (writes W[J]): dummy, column J
        ArrayRef::vars("A", &["I", "J"]), // S7
        ArrayRef::vars("A", &["I", "J"]), // S8
    ];
    vec![Shackle::new(p, blocking, refs)]
}

/// §7 / Figure 14: shackle both ADI statements to `B[i-1,k]` with 1×1
/// blocks traversed in storage order — fusion + interchange fall out.
pub fn adi_storage_order(p: &Program) -> Vec<Shackle> {
    let blocking = Blocking::new("B", vec![CutSet::axis(1, 2, 1), CutSet::axis(0, 2, 1)]);
    let bprev = || {
        ArrayRef::new(
            "B",
            vec![LinExpr::var("i") - LinExpr::constant(1), LinExpr::var("k")],
        )
    };
    vec![Shackle::new(p, blocking, vec![bprev(), bprev()])]
}

/// §7 / Figure 13(i): GMTRY's Gaussian elimination, blocked in both
/// dimensions through the writes ("produced code similar to what we
/// obtained in Cholesky factorization").
pub fn gauss_writes(p: &Program, width: i64) -> Vec<Shackle> {
    vec![Shackle::on_writes(
        p,
        Blocking::square("A", 2, &[1, 0], width),
    )]
}

/// §7 / Figure 13(i): the Cartesian product that fully blocks Gaussian
/// elimination — writes (`A[I,K]`, `A[I,J]`) times the multiplier-column
/// reads (`A[I,K]` for both statements), which bounds every remaining
/// reference by Theorem 2.
pub fn gauss_product(p: &Program, width: i64) -> Vec<Shackle> {
    let mut f = gauss_writes(p, width);
    f.push(Shackle::new(
        p,
        Blocking::square("A", 2, &[1, 0], width),
        vec![
            ArrayRef::vars("A", &["I", "K"]),
            ArrayRef::vars("A", &["I", "K"]),
        ],
    ));
    f
}

/// §7 / Figure 15: banded Cholesky — the regular Cholesky writes
/// shackle applied to the band-restricted code.
pub fn banded_writes(p: &Program, width: i64) -> Vec<Shackle> {
    vec![Shackle::on_writes(
        p,
        Blocking::square("A", 2, &[1, 0], width),
    )]
}

/// §8's triangular back-solve: blocks of `X` must be walked bottom-to-
/// top (a reversed cut set); the forward traversal is illegal.
pub fn backsolve_reversed(p: &Program, width: i64) -> Vec<Shackle> {
    let xref = |v: &str| {
        ArrayRef::new(
            "X",
            vec![LinExpr::var("N") + LinExpr::constant(1) - LinExpr::var(v)],
        )
    };
    vec![Shackle::new(
        p,
        Blocking::new("X", vec![CutSet::axis(0, 1, width).reversed()]),
        vec![xref("Ip"), xref("Jp")],
    )]
}

/// SYRK's fully-blocking product, the matmul `M_C × M_A` construction
/// transplanted to the triangular update: `C` shackled through its
/// write and `A` through the row-panel read `A[I,K]`.
pub fn syrk_product(p: &Program, width: i64) -> Vec<Shackle> {
    vec![
        Shackle::on_writes(p, Blocking::square("C", 2, &[0, 1], width)),
        Shackle::new(
            p,
            Blocking::square("A", 2, &[0, 1], width),
            vec![ArrayRef::vars("A", &["I", "K"])],
        ),
    ]
}

/// Rectangular `bi × bj` tiles for the 2-D Jacobi sweep: `V` shackled
/// through its write and `U` through the north-neighbour read, with
/// *independent* per-dimension widths (ROADMAP's rectangular blocks —
/// column-major storage favours tall, narrow tiles).
pub fn jacobi2d_tiles(p: &Program, bi: i64, bj: i64) -> Vec<Shackle> {
    let rect =
        |array: &str| Blocking::new(array, vec![CutSet::axis(0, 2, bi), CutSet::axis(1, 2, bj)]);
    vec![
        Shackle::on_writes(p, rect("V")),
        Shackle::new(
            p,
            rect("U"),
            vec![ArrayRef::new(
                "U",
                vec![LinExpr::var("I") - LinExpr::constant(1), LinExpr::var("J")],
            )],
        ),
    ]
}

/// The tensor contraction's output blocking — rectangular `bi × bj`
/// tiles of `C`. The rank-2 reduction chain (Σ over `K`,`L` into
/// `C[I,J]`) makes every full-rank blocking of `A` or `B` illegal, so
/// this *partial* product is the maximal legal shackling; the rank-3
/// operands stay unconstrained by construction.
pub fn tensor_c(p: &Program, bi: i64, bj: i64) -> Vec<Shackle> {
    vec![Shackle::on_writes(
        p,
        Blocking::new("C", vec![CutSet::axis(0, 2, bi), CutSet::axis(1, 2, bj)]),
    )]
}

#[cfg(test)]
mod tests {
    use super::*;
    use shackle_ir::kernels;

    #[test]
    fn wave1_products_constrain_what_they_can() {
        use shackle_core::span::unconstrained_refs;
        let sy = kernels::syrk();
        assert!(unconstrained_refs(&sy, &syrk_product(&sy, 8)).is_empty());
        let ja = kernels::jacobi2d();
        assert!(unconstrained_refs(&ja, &jacobi2d_tiles(&ja, 16, 4)).is_empty());
        // the tensor contraction is only partially blockable: the
        // rank-3 operand reads must remain unconstrained
        let tc = kernels::tensor_contract();
        assert!(!unconstrained_refs(&tc, &tensor_c(&tc, 8, 4)).is_empty());
    }

    #[test]
    fn theorem2_product_fully_constrains_matmul() {
        let mm = kernels::matmul_ijk();
        assert!(!shackle_core::span::unconstrained_refs(&mm, &matmul_c(&mm, 25)).is_empty());
        assert!(shackle_core::span::unconstrained_refs(&mm, &matmul_ca(&mm, 25)).is_empty());
    }

    #[test]
    fn theorem2_gauss_product_fully_constrains() {
        let ga = kernels::gauss();
        assert!(!shackle_core::span::unconstrained_refs(&ga, &gauss_writes(&ga, 8)).is_empty());
        assert!(shackle_core::span::unconstrained_refs(&ga, &gauss_product(&ga, 8)).is_empty());
    }

    #[test]
    fn theorem2_cholesky_product_fully_constrains() {
        let ch = kernels::cholesky_right();
        assert!(!shackle_core::span::unconstrained_refs(&ch, &cholesky_writes(&ch, 64)).is_empty());
        assert!(shackle_core::span::unconstrained_refs(&ch, &cholesky_product(&ch, 64)).is_empty());
    }
}
