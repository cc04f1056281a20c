//! Build-cache behaviour of the native tier, pinned via probe
//! counters: the first build of a kernel invokes `rustc` exactly once,
//! and every subsequent build of the same canonical kernel hash is a
//! cache hit that spawns no compiler at all.
//!
//! This file is its own integration-test binary (own process), so the
//! `native.rustc_invocations` counter deltas cannot be polluted by
//! other tests building kernels concurrently.

use shackle_exec::native::{build_in, kernel_hash, runner_source, rustc_available};
use shackle_exec::{execute, verify, NativeKernel, Workspace};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// A scratch cache dir unique to this test run (the process id keeps
/// parallel checkouts apart; the dir is removed at the end).
fn scratch_cache(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("shackle-native-test-{tag}-{}", std::process::id()))
}

#[test]
fn second_build_is_a_cache_hit_with_zero_rustc_spawns() {
    if !rustc_available() {
        eprintln!("skipping: rustc unavailable");
        return;
    }
    let dir = scratch_cache("hit");
    let _ = std::fs::remove_dir_all(&dir);
    let program = shackle_ir::kernels::matmul_ijk();

    let rustc = shackle_probe::counter("native.rustc_invocations");
    let hits = shackle_probe::counter("native.cache_hits");
    let misses = shackle_probe::counter("native.cache_misses");

    // Cold: one rustc invocation, one miss.
    let (r0, h0, m0) = (rustc.get(), hits.get(), misses.get());
    let cold = build_in(&dir, &program).expect("cold build");
    assert!(!cold.cache_hit);
    assert_eq!(rustc.get() - r0, 1, "cold build spawns rustc once");
    assert_eq!(misses.get() - m0, 1);
    assert_eq!(hits.get() - h0, 0);
    assert!(cold.path.is_file(), "binary placed at {:?}", cold.path);
    assert!(
        cold.path.with_file_name("kernel.rs").is_file(),
        "source kept beside the binary for debuggability"
    );

    // Warm: same hash, zero rustc spawns.
    let (r1, h1, m1) = (rustc.get(), hits.get(), misses.get());
    let warm = build_in(&dir, &program).expect("warm build");
    assert!(warm.cache_hit);
    assert_eq!(warm.hash, cold.hash);
    assert_eq!(warm.path, cold.path);
    assert_eq!(rustc.get() - r1, 0, "warm build must not spawn rustc");
    assert_eq!(hits.get() - h1, 1);
    assert_eq!(misses.get() - m1, 0);

    // The cached binary actually runs and matches the interpreter.
    let params = BTreeMap::from([("N".to_string(), 5i64)]);
    let init = verify::hash_init(11);
    let mut tree_ws = Workspace::for_program(&program, &params, &init);
    let tree_stats = execute(
        &program,
        &mut tree_ws,
        &params,
        &mut shackle_exec::NullObserver,
    );
    let mut kernel = NativeKernel::spawn_in(&dir, &program).expect("spawn from warm cache");
    assert!(kernel.build_outcome().cache_hit);
    let mut ws = Workspace::for_program(&program, &params, &init);
    let stats = kernel.run(&mut ws, &params).expect("run");
    assert_eq!(stats, tree_stats);
    for (name, a) in tree_ws.iter() {
        let b = ws.array(name).unwrap();
        assert!(a
            .data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }
    drop(kernel);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn distinct_programs_get_distinct_cache_entries() {
    if !rustc_available() {
        eprintln!("skipping: rustc unavailable");
        return;
    }
    let a = kernel_hash(&runner_source(&shackle_ir::kernels::matmul_ijk()));
    let b = kernel_hash(&runner_source(&shackle_ir::kernels::cholesky_right()));
    assert_ne!(a, b, "different programs must hash to different entries");
    // Hashing is deterministic within a toolchain.
    assert_eq!(
        a,
        kernel_hash(&runner_source(&shackle_ir::kernels::matmul_ijk()))
    );
}

/// The runner holds one kernel — the text `emit_with` returns with
/// counters on, verbatim — so each `rustc -O` build compiles the program
/// once, not once per mode; and its transport streams through the
/// staging buffer, with no full-size byte copy of an array.
#[test]
fn runner_holds_one_untraced_kernel() {
    use shackle_ir::emit::{emit_with, Dialect, EmitOptions};
    let program = shackle_ir::kernels::cholesky_right();
    let src = runner_source(&program);
    assert_eq!(src.matches("pub fn cholesky_right").count(), 1);
    let counted = EmitOptions {
        trace: false,
        counters: true,
    };
    let kernel = emit_with(&program, Dialect::Rust, counted);
    assert!(src.contains(&format!("mod plain {{\n{kernel}}}\n")));
    for gone in [
        "mod traced",
        "flush_trace",
        "mode",
        "vec![0u8; len",
        "unsafe",
    ] {
        assert!(!src.contains(gone), "runner still mentions `{gone}`");
    }
}
