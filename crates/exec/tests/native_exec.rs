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
use shackle_exec::native::{build, rustc_available, STAGE};
use shackle_exec::{compile, execute, verify, NativeError, NativeKernel, NullObserver, Workspace};
use shackle_ir::Program;
use shackle_kernels::catalogue::{catalogue, Entry, Init};
use std::collections::BTreeMap;
use std::sync::{RwLock, RwLockReadGuard};

/// The probe counters are process-global. Every test that runs a
/// native kernel holds a read share of this lock; the test that reads
/// the transport counters holds it exclusively, so no other run lands
/// in them meanwhile.
static PROBE: RwLock<()> = RwLock::new(());

/// A read share of [`PROBE`], or `None` (and a note) when `rustc` is
/// unavailable.
fn native() -> Option<RwLockReadGuard<'static, ()>> {
    if !rustc_available() {
        eprintln!("skipping: rustc unavailable");
        return None;
    }
    Some(PROBE.read().unwrap_or_else(|e| e.into_inner()))
}

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
    let Some(_probe) = native() else { return };
    for entry in catalogue() {
        assert_native_agrees_on(&entry, 7, 3);
    }
}

/// Shackled (scanned) programs with guards and divided bounds run
/// natively too.
#[test]
fn native_matches_scanned_cholesky() {
    let Some(_probe) = native() else { return };
    use shackle_core::{scan::generate_scanned, Blocking, Shackle};
    let program = shackle_ir::kernels::cholesky_right();
    let s = Shackle::on_writes(&program, Blocking::square("A", 2, &[1, 0], 3));
    let scanned = generate_scanned(&program, &[s]);
    let init = verify::spd_init("A", 8, 5);
    assert_native_agrees(&scanned, &params(8), &init);
}

/// Sizes 1, 2 and 3 give empty and single-trip loops and blocks, where
/// a half-open range that slipped by one would show: every catalogue
/// kernel and the scanned Cholesky above, each on one persistent
/// runner, match the tree interpreter bit for bit with identical stats.
#[test]
fn native_matches_at_sizes_one_to_three() {
    let Some(_probe) = native() else { return };
    let agrees_at_each_size =
        |program: &Program, setup: &dyn Fn(i64) -> (BTreeMap<String, i64>, Init)| {
            let mut kernel = NativeKernel::spawn(program).expect("native build");
            for n in 1..=3 {
                let (p, init) = setup(n);
                let mut tree_ws = Workspace::for_program(program, &p, &init);
                let tree_stats = execute(program, &mut tree_ws, &p, &mut NullObserver);
                let mut ws = Workspace::for_program(program, &p, &init);
                let stats = kernel.run(&mut ws, &p).expect("native run");
                let what = format!("{} at n={n}", program.name());
                assert_eq!(stats, tree_stats, "{what}");
                assert_bit_identical(&tree_ws, &ws, &what);
            }
        };
    for entry in catalogue() {
        agrees_at_each_size(&(entry.build)(), &|n| {
            let p = entry.params(n);
            let init = entry.init(&p, 3);
            (p, init)
        });
    }
    use shackle_core::{scan::generate_scanned, Blocking, Shackle};
    let program = shackle_ir::kernels::cholesky_right();
    let s = Shackle::on_writes(&program, Blocking::square("A", 2, &[1, 0], 3));
    agrees_at_each_size(&generate_scanned(&program, &[s]), &|n| {
        (params(n), Box::new(verify::spd_init("A", n as usize, 5)))
    });
}

/// A persistent runner survives many runs with varying parameters —
/// the property the bench harness leans on for its ≥5 timed runs.
#[test]
fn persistent_runner_many_runs() {
    let Some(_probe) = native() else { return };
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
    let Some(_probe) = native() else { return };
    assert_partial_return_is_exact(SCALE, &["R"], &[9, 3, 17]);
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
    let Some(_probe) = native() else { return };
    let axpy = "program axpy\nparam N\narray X(N)\narray Y(N)\n\n\
        do I = 1 .. N\n  S1: Y[I] = Y[I] + 2 * X[I]\n";
    let stage = STAGE as i64;
    let sizes = [stage - 1, stage, stage + 1, 2 * stage + 3];
    assert_partial_return_is_exact(axpy, &["X"], &sizes);
}

/// A program without statements still builds: it returns no arrays.
#[test]
fn program_without_statements_runs() {
    let Some(_probe) = native() else { return };
    assert_partial_return_is_exact("program idle\nparam N\narray A(N)\n", &["A"], &[4]);
}

/// A runner that dies is a typed error naming its exit status, on this
/// run and on every later one, and the workspace is never touched.
#[test]
fn dead_runner_is_an_error_that_says_so_for_good() {
    let Some(_probe) = native() else { return };
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

/// `R` is read-only, `W` written: `W ← W + 2·Rᵀ`.
const SCALE: &str = "program scale\nparam N\narray R(N, N)\narray W(N, N)\n\n\
    do J = 1 .. N\n  do I = 1 .. N\n    S1: W[I, J] = W[I, J] + 2 * R[J, I]\n";

/// One run of `ws` on `kernel`, checked bit for bit against the tree
/// interpreter on the same inputs. Returns the output and the
/// `native.bytes_down` and `native.bytes_kept` the run added.
fn counted_run(
    kernel: &mut NativeKernel,
    program: &Program,
    mut ws: Workspace,
    p: &BTreeMap<String, i64>,
) -> (Workspace, u64, u64) {
    let mut tree_ws = ws.clone();
    execute(program, &mut tree_ws, p, &mut NullObserver);
    let down = shackle_probe::counter("native.bytes_down");
    let kept = shackle_probe::counter("native.bytes_kept");
    let (down0, kept0) = (down.get(), kept.get());
    kernel.run(&mut ws, p).expect("native run");
    assert_bit_identical(&tree_ws, &ws, "native vs tree");
    (ws, down.get() - down0, kept.get() - kept0)
}

/// A read-only input crosses the pipe once per content: a second run on
/// a clone sends exactly its bytes fewer; a mutated copy, by either
/// mutator, and an input of another size are sent again — and every
/// run matches the tree interpreter, which it would not if a stamp
/// outlived a mutation.
#[test]
fn read_only_inputs_cross_the_pipe_once_per_content() {
    if !rustc_available() {
        eprintln!("skipping: rustc unavailable");
        return;
    }
    let _alone = PROBE.write().unwrap_or_else(|e| e.into_inner());
    let was_enabled = shackle_probe::set_enabled(true);
    let program = shackle_ir::parse::parse(SCALE).expect("test program parses");
    let mut kernel = NativeKernel::spawn(&program).expect("native build");
    let p = params(9);
    let inputs = Workspace::for_program(&program, &p, verify::hash_init(9));
    let read_only = 8 * 81;
    // header: nparams, N, narrays; then per array a length word + data
    let full = 8 * 3 + 2 * (8 + read_only);

    let (first, down, kept) = counted_run(&mut kernel, &program, inputs.clone(), &p);
    assert_eq!((down, kept), (full, 0), "first run sends everything");
    let (second, down, kept) = counted_run(&mut kernel, &program, inputs.clone(), &p);
    assert_eq!((down, kept), (full - read_only, read_only), "R is kept");
    assert_eq!(first, second);

    let mut by_slice = inputs.clone();
    by_slice.array_mut("R").unwrap().data_mut()[4] += 1.0;
    let (out, down, kept) = counted_run(&mut kernel, &program, by_slice, &p);
    assert_eq!(
        (down, kept),
        (full, 0),
        "R changed through data_mut is resent"
    );
    assert_ne!(out, first);

    // the runner now holds the mutated R: the original is resent
    let (_, down, _) = counted_run(&mut kernel, &program, inputs.clone(), &p);
    assert_eq!(down, full);
    let mut by_element = inputs.clone();
    by_element.array_mut("R").unwrap().set(&[2, 3], -7.0);
    let (out, down, kept) = counted_run(&mut kernel, &program, by_element, &p);
    assert_eq!((down, kept), (full, 0), "R changed through set is resent");
    assert_ne!(out, first);

    // another size is another content, and so is the first one after it
    let small = params(5);
    let other = Workspace::for_program(&program, &small, verify::hash_init(9));
    let (_, down, kept) = counted_run(&mut kernel, &program, other, &small);
    assert_eq!((down, kept), (8 * 3 + 2 * (8 + 8 * 25), 0));
    let (out, down, kept) = counted_run(&mut kernel, &program, inputs.clone(), &p);
    assert_eq!((down, kept), (full, 0));
    assert_eq!(out, first);
    shackle_probe::set_enabled(was_enabled);
}

/// A keep marker for an array the runner was never sent is a protocol
/// failure: the runner exits non-zero instead of running on nothing.
#[test]
fn a_keep_for_an_array_never_sent_stops_the_runner() {
    let Some(_probe) = native() else { return };
    let program = shackle_ir::parse::parse(SCALE).expect("test program parses");
    let runner = build(&program).expect("native build").path;
    let mut child = std::process::Command::new(runner)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn the runner");
    let request: Vec<u8> = [1u64, 4, 2, u64::MAX]
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .collect();
    let mut stdin = child.stdin.take().expect("piped stdin");
    std::io::Write::write_all(&mut stdin, &request).expect("request sent");
    drop(stdin);
    let out = child.wait_with_output().expect("runner ends");
    assert_eq!(out.status.code(), Some(2), "{:?}", out.status);
    assert!(
        out.stdout.is_empty(),
        "the runner answered a broken request"
    );
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
        let Some(_probe) = native() else { return };
        assert_native_agrees_on(&catalogue()[k], n, seed);
    }
}
