//! Differential tests for the native execution tier: a rustc-compiled
//! kernel must be indistinguishable from the tree interpreter and the
//! bytecode engine — bit-identical workspaces and identical
//! [`ExecStats`](shackle_exec::ExecStats) — on every kernel of
//! `shackle_kernels::catalogue` (parameters and initializers come from
//! it) and on compiler-generated shackled programs. (The tier only
//! runs; access traces come from the bytecode engine.)
//!
//! Every test skips gracefully when `rustc` is unavailable in the
//! sandbox.

use proptest::prelude::*;
use shackle_exec::native::{rustc_available, STAGE};
use shackle_exec::{compile, execute, verify, NativeError, NativeKernel, NullObserver, Workspace};
use shackle_ir::Program;
use shackle_kernels::catalogue::{catalogue, Entry};
use std::collections::BTreeMap;

fn params(n: i64) -> BTreeMap<String, i64> {
    BTreeMap::from([("N".to_string(), n)])
}

fn assert_bit_identical(a: &Workspace, b: &Workspace, what: &str) {
    for (name, x) in a.iter() {
        let y = b.array(name).unwrap();
        assert_eq!(x.data().len(), y.data().len());
        for (i, (u, v)) in x.data().iter().zip(y.data()).enumerate() {
            assert_eq!(
                u.to_bits(),
                v.to_bits(),
                "{what}: array {name} diverges at flat index {i}: {u} vs {v}"
            );
        }
    }
}

/// Runs `program` through the tree interpreter, the bytecode engine and
/// the native tier and asserts all three executions are
/// indistinguishable.
fn assert_native_agrees(
    program: &Program,
    p: &BTreeMap<String, i64>,
    init: &dyn Fn(&str, &[usize]) -> f64,
) {
    let mut tree_ws = Workspace::for_program(program, p, init);
    let tree_stats = execute(program, &mut tree_ws, p, &mut NullObserver);

    let mut byte_ws = Workspace::for_program(program, p, init);
    let byte_stats = compile(program).execute(&mut byte_ws, p, &mut NullObserver);
    assert_eq!(tree_stats, byte_stats);
    assert_bit_identical(&tree_ws, &byte_ws, "bytecode vs tree");

    // Stats reconstructed from counters, arrays bit-identical.
    let mut kernel = NativeKernel::spawn(program).expect("native build");
    let mut nat_ws = Workspace::for_program(program, p, init);
    let nat_stats = kernel.run(&mut nat_ws, p).expect("native run");
    assert_eq!(tree_stats, nat_stats, "native stats vs tree");
    assert_bit_identical(&tree_ws, &nat_ws, "native vs tree");
}

/// `entry` at size `n`, banded Cholesky's half-bandwidth drawn from
/// the seed instead of tied to `n`.
fn assert_native_agrees_on(entry: &Entry, n: i64, seed: u64) {
    let mut p = entry.params(n);
    if let Some(bw) = p.get_mut("P") {
        *bw = 1 + seed as i64 % n;
    }
    assert_native_agrees(&(entry.build)(), &p, &entry.init(&p, seed));
}

/// Every in-repo kernel at a fixed size: the native tier is
/// indistinguishable from interpreter and bytecode engine.
#[test]
fn native_matches_all_kernels() {
    if !rustc_available() {
        eprintln!("skipping: rustc unavailable");
        return;
    }
    for entry in catalogue() {
        assert_native_agrees_on(&entry, 7, 3);
    }
}

/// Shackled (scanned) programs with guards and divided bounds run
/// natively too.
#[test]
fn native_matches_scanned_cholesky() {
    if !rustc_available() {
        eprintln!("skipping: rustc unavailable");
        return;
    }
    use shackle_core::{scan::generate_scanned, Blocking, Shackle};
    let program = shackle_ir::kernels::cholesky_right();
    let s = Shackle::on_writes(&program, Blocking::square("A", 2, &[1, 0], 3));
    let scanned = generate_scanned(&program, &[s]);
    let init = verify::spd_init("A", 8, 5);
    assert_native_agrees(&scanned, &params(8), &init);
}

/// A persistent runner survives many runs with varying parameters —
/// the property the bench harness leans on for its ≥5 timed runs.
#[test]
fn persistent_runner_many_runs() {
    if !rustc_available() {
        eprintln!("skipping: rustc unavailable");
        return;
    }
    let program = shackle_ir::kernels::matmul_ijk();
    let mut kernel = NativeKernel::spawn(&program).expect("native build");
    for n in [1i64, 3, 5, 8, 8, 2] {
        let p = params(n);
        let init = verify::hash_init(n as u64);
        let mut tree_ws = Workspace::for_program(&program, &p, &init);
        let tree_stats = execute(&program, &mut tree_ws, &p, &mut NullObserver);
        let mut ws = Workspace::for_program(&program, &p, &init);
        let stats = kernel.run(&mut ws, &p).expect("native run");
        assert_eq!(stats, tree_stats, "n={n}");
        assert_bit_identical(&tree_ws, &ws, "persistent runner");
    }
}

/// `src` on one persistent runner at each size in turn: the workspace
/// equals the tree interpreter's bit for bit, and the arrays no
/// statement writes — which the runner does not send back — keep their
/// input bits.
fn assert_partial_return_is_exact(src: &str, read_only: &[&str], sizes: &[i64]) {
    let program = shackle_ir::parse::parse(src).expect("test program parses");
    let mut kernel = NativeKernel::spawn(&program).expect("native build");
    for &n in sizes {
        let p = params(n);
        let init = verify::hash_init(n as u64);
        let inputs = Workspace::for_program(&program, &p, &init);
        let mut tree_ws = inputs.clone();
        let tree_stats = execute(&program, &mut tree_ws, &p, &mut NullObserver);
        let mut ws = inputs.clone();
        let stats = kernel.run(&mut ws, &p).expect("native run");
        assert_eq!(stats, tree_stats, "n={n}");
        assert_bit_identical(&tree_ws, &ws, &format!("{} at n={n}", program.name()));
        for &name in read_only {
            let before = inputs.array(name).unwrap().data();
            let after = ws.array(name).unwrap().data();
            assert_eq!(before.len(), after.len());
            assert!(
                before
                    .iter()
                    .zip(after)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "read-only array {name} changed at n={n}"
            );
        }
    }
}

/// Only the written arrays come back, wherever they sit among the
/// declarations, while the runner's arrays shrink and grow in place.
#[test]
fn partial_return_is_exact() {
    if !rustc_available() {
        eprintln!("skipping: rustc unavailable");
        return;
    }
    let read_only_first = "program scale\nparam N\narray R(N, N)\narray W(N, N)\n\n\
        do J = 1 .. N\n  do I = 1 .. N\n    S1: W[I, J] = W[I, J] + 2 * R[J, I]\n";
    assert_partial_return_is_exact(read_only_first, &["R"], &[9, 3, 17]);
    let written_around_read_only = "program sums\nparam N\n\
        array X(N)\narray R(N, N)\narray Y(N)\n\n\
        do J = 1 .. N\n  do I = 1 .. N\n\
        \x20   S1: X[I] = X[I] + R[I, J]\n\
        \x20   S2: Y[J] = Y[J] + R[I, J] * X[I]\n";
    assert_partial_return_is_exact(written_around_read_only, &["R"], &[9, 3, 17]);
}

/// Arrays one element short of a staging buffer, exactly one, one over,
/// and several: every chunk boundary round-trips.
#[test]
fn arrays_longer_than_the_staging_buffer_round_trip() {
    if !rustc_available() {
        eprintln!("skipping: rustc unavailable");
        return;
    }
    let axpy = "program axpy\nparam N\narray X(N)\narray Y(N)\n\n\
        do I = 1 .. N\n  S1: Y[I] = Y[I] + 2 * X[I]\n";
    let stage = STAGE as i64;
    let sizes = [stage - 1, stage, stage + 1, 2 * stage + 3];
    assert_partial_return_is_exact(axpy, &["X"], &sizes);
}

/// A program without statements still builds: it returns no arrays.
#[test]
fn program_without_statements_runs() {
    if !rustc_available() {
        eprintln!("skipping: rustc unavailable");
        return;
    }
    assert_partial_return_is_exact("program idle\nparam N\narray A(N)\n", &["A"], &[4]);
}

/// A runner that dies is a typed error naming its exit status, on this
/// run and on every later one, and the workspace is never touched.
#[test]
fn dead_runner_is_an_error_that_says_so_for_good() {
    if !rustc_available() {
        eprintln!("skipping: rustc unavailable");
        return;
    }
    // the subscript runs one past the array: the runner panics
    let overrun = "program overrun\nparam N\narray A(N)\n\n\
        do I = 1 .. N\n  S1: A[I + 1] = A[I] + 1\n";
    let program = shackle_ir::parse::parse(overrun).expect("test program parses");
    let mut kernel = NativeKernel::spawn(&program).expect("native build");
    let p = params(6);
    let inputs = Workspace::for_program(&program, &p, verify::hash_init(1));
    let mut ws = inputs.clone();
    let mut failures = Vec::new();
    for _ in 0..2 {
        match kernel.run(&mut ws, &p) {
            Err(NativeError::RunnerFailed(why)) => failures.push(why),
            other => panic!("expected a failed runner, got {other:?}"),
        }
        assert_bit_identical(&inputs, &ws, "workspace after a failed run");
    }
    // a Rust panic exits with status 101
    assert!(failures[0].contains("exit status: 101"), "{}", failures[0]);
    assert_eq!(failures[0], failures[1]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random kernel, size and seed: the native tier matches the tree
    /// interpreter bit-for-bit. (The build cache keeps this cheap —
    /// each kernel's runner compiles once across the whole sweep.)
    #[test]
    fn native_matches_tree_on_random_sizes(
        k in 0usize..catalogue().len(),
        n in 1i64..10,
        seed in 0u64..50,
    ) {
        if !rustc_available() {
            return;
        }
        assert_native_agrees_on(&catalogue()[k], n, seed);
    }
}
