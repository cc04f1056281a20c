//! The hand-written pointwise forms of `shackle-kernels` against the IR
//! forms of `shackle_ir::kernels`: from the same catalogue initializer,
//! the tree interpreter and the native Rust routine must leave the same
//! bits behind — they perform the same floating-point operations in the
//! same order. (The frozen `benchmark/` crate holds five of these to the
//! same standard at its timed sizes; this is the in-workspace check the
//! `shackle-kernels` docs point at.)

use data_shackle::exec::{execute, NullObserver, Workspace};
use data_shackle::kernels::catalogue::catalogue;
use data_shackle::kernels::{adi, banded, cholesky, gauss, matmul, stencil, syrk, trisolve, Mat};
use std::collections::BTreeMap;

/// The hand-written pointwise form of catalogue kernel `name` applied
/// to a copy of `ws`, or `None` where the crate has no plain
/// `Mat`/slice form of the input code.
fn hand_written(name: &str, ws: &Workspace, params: &BTreeMap<String, i64>) -> Option<Workspace> {
    let mat = |array: &str| {
        let a = ws.array(array).expect("declared array");
        let mut m = Mat::zeros(a.dims()[0], a.dims()[1]);
        m.data_mut().copy_from_slice(a.data());
        m
    };
    let mut out = ws.clone();
    let mut store = |array: &str, data: &[f64]| {
        out.array_mut(array)
            .expect("declared array")
            .data_mut()
            .copy_from_slice(data);
    };
    match name {
        "matmul_ijk" => {
            let mut c = mat("C");
            matmul::matmul_ijk(&mut c, &mat("A"), &mat("B"));
            store("C", c.data());
        }
        "cholesky_right" | "cholesky_left" | "gauss" | "banded_cholesky" => {
            let mut a = mat("A");
            match name {
                "cholesky_right" => cholesky::cholesky_pointwise(&mut a),
                "cholesky_left" => cholesky::cholesky_left_pointwise(&mut a),
                "gauss" => gauss::gauss_pointwise(&mut a),
                _ => banded::banded_cholesky_dense(&mut a, params["P"] as usize),
            }
            store("A", a.data());
        }
        "adi" => {
            let (mut x, mut b) = (mat("X"), mat("B"));
            adi::adi_input(&mut x, &mat("A"), &mut b);
            store("X", x.data());
            store("B", b.data());
        }
        "backsolve" => {
            let mut x = ws.array("X").expect("declared array").data().to_vec();
            trisolve::backsolve_pointwise(&mut x, &mat("U"));
            store("X", &x);
        }
        "syrk" => {
            let mut c = mat("C");
            syrk::syrk_pointwise(&mut c, &mat("A"));
            store("C", c.data());
        }
        "jacobi2d" => {
            let mut v = mat("V");
            stencil::jacobi2d_pointwise(&mut v, &mat("U"));
            store("V", v.data());
        }
        // No hand-written pointwise form over `Mat`s: `qr_pointwise`
        // keeps its scalars in a struct, the contraction's operands are
        // `Ten3`s, and the Gauss–Seidel sweep exists only as IR.
        "qr_householder" | "tensor_contract" | "gauss_seidel_1d" => return None,
        other => panic!("catalogue kernel {other}: has it a hand-written pointwise form?"),
    }
    Some(out)
}

#[test]
fn ir_forms_match_the_hand_written_pointwise_forms() {
    let mut compared = Vec::new();
    for e in catalogue() {
        let program = (e.build)();
        for n in [6, 19] {
            let params = e.params(n);
            let inputs = Workspace::for_program(&program, &params, e.init(&params, 5));
            let Some(expected) = hand_written(e.name, &inputs, &params) else {
                continue;
            };
            let mut got = inputs;
            execute(&program, &mut got, &params, &mut NullObserver);
            for (array, want) in expected.iter() {
                let have = got.array(array).expect("same arrays");
                let same = want
                    .data()
                    .iter()
                    .zip(have.data())
                    .all(|(w, h)| w.to_bits() == h.to_bits());
                assert!(same, "{} n={n}: array {array} differs", e.name);
            }
            compared.push(e.name);
        }
    }
    compared.dedup();
    assert_eq!(compared.len(), 9, "{compared:?}");
}
