//! Property tests for the transformation framework: over random block
//! sizes, traversal orders and problem sizes, the canonical shackles
//! stay legal and the generated code stays semantically equivalent
//! (the interpreter is the oracle). Also checks §6's algebra of
//! products: a product of legal shackles is legal, in any order.

use proptest::prelude::*;
use shackle_core::{
    check_legality_with_deps, naive::generate_naive, scan::generate_scanned, Blocking, CutSet,
    Shackle,
};
use shackle_exec::verify::{backsolve_init, check_equivalence, hash_init, spd_init};
use shackle_ir::deps::dependences;
use shackle_ir::{kernels, ArrayRef};
use std::collections::BTreeMap;

fn params(n: i64) -> BTreeMap<String, i64> {
    BTreeMap::from([("N".to_string(), n)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Matmul shackled on C: legal and bit-equivalent for arbitrary
    /// (possibly different per-dimension) block widths and sizes.
    #[test]
    fn matmul_any_blocking_equivalent(
        w1 in 1i64..9,
        w2 in 1i64..9,
        n in 1i64..18,
    ) {
        let p = kernels::matmul_ijk();
        let blocking = Blocking::new(
            "C",
            vec![CutSet::axis(0, 2, w1), CutSet::axis(1, 2, w2)],
        );
        let s = Shackle::on_writes(&p, blocking);
        let deps = dependences(&p);
        prop_assert!(check_legality_with_deps(&p, std::slice::from_ref(&s), &deps).is_legal());
        let scanned = generate_scanned(&p, std::slice::from_ref(&s));
        let eq = check_equivalence(&p, &scanned, &params(n), hash_init(n as u64));
        prop_assert_eq!(eq.max_rel_diff, 0.0);
        let naive = generate_naive(&p, &[s]);
        let eq = check_equivalence(&p, &naive, &params(n), hash_init(n as u64));
        prop_assert_eq!(eq.max_rel_diff, 0.0);
    }

    /// Cholesky writes shackle: equivalent for arbitrary widths/sizes.
    #[test]
    fn cholesky_any_width_equivalent(w in 1i64..7, n in 1i64..14) {
        let p = kernels::cholesky_right();
        let s = Shackle::on_writes(&p, Blocking::square("A", 2, &[1, 0], w));
        let scanned = generate_scanned(&p, &[s]);
        let eq = check_equivalence(
            &p,
            &scanned,
            &params(n),
            spd_init("A", n as usize, w as u64),
        );
        prop_assert!(eq.within(1e-10), "w={w} n={n}: {}", eq.max_rel_diff);
    }

    /// §6: "the product of two shackles is always legal if the two
    /// shackles are legal by themselves" — over random legal factors
    /// for matmul, any product (either order) is legal.
    #[test]
    fn product_of_legal_shackles_is_legal(
        pick in prop::collection::vec(0usize..3, 1..3),
        w in 2i64..26,
    ) {
        let p = kernels::matmul_ijk();
        let deps = dependences(&p);
        let mk = |which: usize| -> Shackle {
            let (array, idx): (&str, [&str; 2]) = match which {
                0 => ("C", ["I", "J"]),
                1 => ("A", ["I", "K"]),
                _ => ("B", ["K", "J"]),
            };
            Shackle::new(
                &p,
                Blocking::square(array, 2, &[0, 1], w),
                vec![ArrayRef::vars(array, &idx)],
            )
        };
        let factors: Vec<Shackle> = pick.iter().map(|&k| mk(k)).collect();
        for f in &factors {
            prop_assert!(check_legality_with_deps(&p, std::slice::from_ref(f), &deps).is_legal());
        }
        prop_assert!(check_legality_with_deps(&p, &factors, &deps).is_legal());
    }

    /// Instance counts are preserved exactly: the shackled program
    /// executes the same number of statement instances (checked inside
    /// check_equivalence, surfaced here over random shapes).
    #[test]
    fn instance_count_preserved(w in 1i64..6, n in 1i64..12) {
        let p = kernels::gauss();
        let s = Shackle::on_writes(&p, Blocking::square("A", 2, &[1, 0], w));
        let scanned = generate_scanned(&p, &[s]);
        let eq = check_equivalence(
            &p,
            &scanned,
            &params(n),
            spd_init("A", n as usize, 3),
        );
        prop_assert_eq!(eq.reference.instances, eq.transformed.instances);
        prop_assert_eq!(eq.reference.flops, eq.transformed.flops);
        prop_assert!(eq.within(1e-10));
    }
}

/// The §6 remark that a product `M1 × M2` can be legal even when `M2`
/// alone is illegal ("the outer loop in the loop nest carries the
/// dependence that causes difficulty for the inner loop"): exhibit it
/// on a forward recurrence where the outer factor strictly orders every
/// dependent pair, so a reversed — individually illegal — inner factor
/// becomes harmless.
#[test]
fn product_can_fix_an_illegal_factor() {
    use shackle_ir::{loop_, stmt, ArrayDecl, ScalarExpr, Statement};
    use shackle_polyhedra::LinExpr;
    let aref = |e: LinExpr| ArrayRef::new("A", vec![e]);
    let s = Statement::new(
        "S",
        aref(LinExpr::var("I")),
        ScalarExpr::from(aref(LinExpr::var("I") - LinExpr::constant(1))),
    );
    let p = shackle_ir::Program::new(
        "recurrence",
        vec!["N".into()],
        vec![ArrayDecl::new("A", vec![LinExpr::var("N")])],
        vec![s],
        vec![loop_(
            "I",
            LinExpr::constant(1),
            LinExpr::var("N"),
            vec![stmt(0)],
        )],
    );
    let deps = dependences(&p);
    // reversed traversal alone: illegal (violates the flow dependence)
    let bad = Shackle::new(
        &p,
        Blocking::new("A", vec![CutSet::axis(0, 1, 8).reversed()]),
        vec![ArrayRef::vars("A", &["I"])],
    );
    assert!(!check_legality_with_deps(&p, std::slice::from_ref(&bad), &deps).is_legal());
    // an outer width-1 forward factor strictly orders every dependent
    // pair, so the product is legal even though `bad` alone is not
    let fine = Shackle::new(
        &p,
        Blocking::new("A", vec![CutSet::axis(0, 1, 1)]),
        vec![ArrayRef::vars("A", &["I"])],
    );
    assert!(check_legality_with_deps(&p, std::slice::from_ref(&fine), &deps).is_legal());
    assert!(
        check_legality_with_deps(&p, &[fine, bad], &deps).is_legal(),
        "fine × bad must be legal: the outer factor carries the dependence"
    );
}

/// §8's back-solve example: blocks of `X` cannot be walked forward
/// ("this order of traversing blocks may not be legal — triangular
/// back-solve is an example"), but the reversed traversal is legal and
/// the generated code is equivalent.
#[test]
fn backsolve_requires_reversed_traversal() {
    let p = kernels::backsolve();
    let deps = dependences(&p);
    let xref = |v: &str| {
        ArrayRef::new(
            "X",
            vec![
                shackle_polyhedra::LinExpr::var("N") + shackle_polyhedra::LinExpr::constant(1)
                    - shackle_polyhedra::LinExpr::var(v),
            ],
        )
    };
    let mk = |rev: bool| {
        let cut = if rev {
            CutSet::axis(0, 1, 4).reversed()
        } else {
            CutSet::axis(0, 1, 4)
        };
        Shackle::new(
            &p,
            Blocking::new("X", vec![cut]),
            vec![xref("Ip"), xref("Jp")],
        )
    };
    // forward traversal: illegal (data flows from high X indices down)
    assert!(!check_legality_with_deps(&p, &[mk(false)], &deps).is_legal());
    // reversed traversal: legal, and the scanned code solves correctly
    let rev = mk(true);
    assert!(check_legality_with_deps(&p, std::slice::from_ref(&rev), &deps).is_legal());
    let scanned = generate_scanned(&p, &[rev]);
    for n in [1i64, 3, 7, 12] {
        let eq = check_equivalence(&p, &scanned, &params(n), backsolve_init());
        assert_eq!(eq.max_rel_diff, 0.0, "n={n}");
    }
}

/// The relaxation code of §8: *neither* traversal direction admits a
/// legal single-sweep shackle — the case that motivates the multipass
/// executor (`shackle-exec::multipass`).
#[test]
fn gauss_seidel_has_no_legal_single_sweep() {
    let p = kernels::gauss_seidel_1d();
    let deps = dependences(&p);
    for reversed in [false, true] {
        let cut = if reversed {
            CutSet::axis(0, 1, 4).reversed()
        } else {
            CutSet::axis(0, 1, 4)
        };
        let s = Shackle::new(
            &p,
            Blocking::new("A", vec![cut]),
            vec![ArrayRef::vars("A", &["I"])],
        );
        assert!(
            !check_legality_with_deps(&p, &[s], &deps).is_legal(),
            "direction reversed={reversed} should be illegal"
        );
    }
}
