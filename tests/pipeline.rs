//! End-to-end pipeline tests: for every kernel of the catalogue, build
//! the IR, apply its canonical shackle(s), check legality, generate both
//! code forms, and execute everything to prove the transformed program
//! computes the same bits as its input. The named tests below the loop
//! cover what is not "a kernel's canonical shackle at width 4":
//! multi-level and rectangular blockings, a bandwidth varied
//! independently of the size, the two generated forms against each
//! other, and per-kernel cases at their own widths and sizes.

use data_shackle::core::{check_legality, naive::generate_naive, scan::generate_scanned, Shackle};
use data_shackle::exec::verify::check_equivalence;
use data_shackle::ir::Program;
use data_shackle::kernels::catalogue::{catalogue, find, Entry, Init};
use data_shackle::kernels::shackles;
use std::collections::BTreeMap;

/// Legality, then the naive and the scanned form against the input at
/// every parameter set, from the kernel's own initializer. A legal
/// shackle preserves every dependence, so each statement instance reads
/// the values it read in the input program: the comparison is exact.
fn assert_pipeline(
    e: &Entry,
    program: &Program,
    factors: &[Shackle],
    param_sets: impl IntoIterator<Item = BTreeMap<String, i64>>,
) {
    assert!(
        check_legality(program, factors).is_legal(),
        "{}: illegal",
        e.name
    );
    let naive = generate_naive(program, factors);
    let scanned = generate_scanned(program, factors);
    for params in param_sets {
        let init: Init = e.init(&params, 7);
        for (form, code) in [("naive", &naive), ("scanned", &scanned)] {
            let eq = check_equivalence(program, code, &params, &init);
            assert_eq!(eq.max_rel_diff, 0.0, "{} {form} at {params:?}", e.name);
        }
    }
}

/// One of `name`'s shackles, built by `shackle` at `sizes`.
fn pipeline(name: &str, shackle: impl Fn(&Program) -> Vec<Shackle>, sizes: &[i64]) {
    let e = find(name).expect(name);
    let program = (e.build)();
    let factors = shackle(&program);
    assert_pipeline(&e, &program, &factors, sizes.iter().map(|&n| e.params(n)));
}

#[test]
fn every_canonical_shackle_pipeline() {
    // width 4, sizes below, at, beside and well past one block
    for e in catalogue() {
        for shackle in [e.single, e.product].into_iter().flatten() {
            pipeline(e.name, |p| shackle(p, 4), &[1, 3, 4, 5, 9, 14, 21]);
        }
    }
}

/// Per-kernel cases at their own widths and sizes (odd widths, larger
/// problems than the loop's), one named test each so a failure names
/// its kernel — a list of names and sizes; kernel, shackle, parameters
/// and initializer all come from the catalogue.
macro_rules! canonical_cases {
    ($($test:ident: $kernel:literal $form:ident, $width:literal, $sizes:expr;)*) => {$(
        #[test]
        fn $test() {
            let shackle = find($kernel).and_then(|e| e.$form).expect($kernel);
            pipeline($kernel, |p| shackle(p, $width), &$sizes);
        }
    )*};
}

canonical_cases! {
    matmul_single_shackle_pipeline: "matmul_ijk" single, 7, [1, 6, 7, 13, 21, 30];
    matmul_product_pipeline: "matmul_ijk" product, 5, [4, 5, 11, 23];
    cholesky_writes_pipeline: "cholesky_right" single, 4, [1, 3, 4, 9, 17];
    cholesky_product_pipeline_gives_fully_blocked_code: "cholesky_right" product, 4, [5, 8, 13];
    left_looking_cholesky_shackles_too: "cholesky_left" single, 4, [4, 9, 14];
    qr_column_shackle_pipeline: "qr_householder" single, 4, [2, 5, 9, 12];
    gauss_product_pipeline: "gauss" product, 4, [3, 8, 13];
    adi_shackle_pipeline: "adi" single, 1, [2, 5, 12, 20];
    backsolve_reversed_shackle_pipeline: "backsolve" single, 4, [1, 3, 4, 9, 14];
    syrk_product_pipeline: "syrk" product, 5, [1, 4, 5, 11, 17];
}

#[test]
fn matmul_two_level_pipeline() {
    // scanned form only: the naive form of a four-factor product walks
    // every block-coordinate tuple
    let e = find("matmul_ijk").unwrap();
    let p = (e.build)();
    let f = shackles::matmul_two_level(&p, 8, 2);
    assert!(check_legality(&p, &f).is_legal());
    let scanned = generate_scanned(&p, &f);
    for n in [7, 16, 19] {
        let params = e.params(n);
        let eq = check_equivalence(&p, &scanned, &params, e.init(&params, 3));
        assert_eq!(eq.max_rel_diff, 0.0, "n={n}");
    }
}

#[test]
fn banded_cholesky_pipeline() {
    // the half-bandwidth varied independently of the size (the
    // catalogue ties it to N/4)
    let e = find("banded_cholesky").unwrap();
    let program = (e.build)();
    let factors = shackles::banded_writes(&program, 4);
    let param_sets = [(8, 2), (12, 5), (16, 3)].map(|(n, bw)| {
        let mut params = e.params(n);
        params.insert("P".to_string(), bw);
        params
    });
    assert_pipeline(&e, &program, &factors, param_sets);
}

#[test]
fn jacobi2d_rectangular_tiles_pipeline() {
    // Rectangular tiles: independent per-dimension widths (tall-narrow
    // here), the grid extension the search sweeps.
    pipeline(
        "jacobi2d",
        |p| shackles::jacobi2d_tiles(p, 7, 2),
        &[2, 3, 8, 15, 23],
    );
}

#[test]
fn tensor_contract_partial_blocking_pipeline() {
    // The tensor contraction's rank-2 reduction chain admits only the
    // output blocking; the partial product still reorders legally and
    // executes identically, rectangular tiles included.
    pipeline(
        "tensor_contract",
        |p| shackles::tensor_c(p, 3, 5),
        &[1, 4, 7, 10],
    );
}

#[test]
fn naive_and_scanned_forms_agree_with_each_other() {
    // Transitivity check made explicit: the two generated forms agree
    // directly (not only each against the source).
    let e = find("cholesky_right").unwrap();
    let p = (e.build)();
    let f = shackles::cholesky_writes(&p, 3);
    let params = e.params(11);
    let eq = check_equivalence(
        &generate_naive(&p, &f),
        &generate_scanned(&p, &f),
        &params,
        e.init(&params, 10),
    );
    assert_eq!(eq.max_rel_diff, 0.0);
}
