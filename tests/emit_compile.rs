//! The strongest test of the code emitter: emit Rust source for a
//! shackled program, compile it with `rustc`, run it, and require the
//! result to match the interpreter **bit for bit** (Rust does not
//! reassociate floating point, and the emitted code performs the exact
//! operation sequence the interpreter does).

use data_shackle::core::scan::generate_scanned;
use data_shackle::exec::{execute_compiled, NullObserver, Workspace};
use data_shackle::ir::emit::{emit, Dialect};
use data_shackle::ir::kernels;
use data_shackle::kernels::shackles;
use std::collections::BTreeMap;
use std::process::Command;

/// Deterministic SPD-ish initializer shared (by construction) between
/// the interpreter side and the generated driver below.
fn init_value(n: usize, i: usize, j: usize) -> f64 {
    let (lo, hi) = (i.min(j), i.max(j));
    let frac = ((lo * 31 + hi * 17) % 97) as f64 / 97.0;
    if i == j {
        n as f64 + 1.0 + frac
    } else {
        frac
    }
}

fn checksum(ws: &Workspace, array: &str) -> f64 {
    let a = ws.array(array).expect("array");
    a.data()
        .iter()
        .enumerate()
        .map(|(k, v)| v * ((k % 7) as f64 + 1.0))
        .sum()
}

#[test]
fn emitted_rust_matches_interpreter_bit_for_bit() {
    let n: i64 = 18;
    let program = kernels::cholesky_right();
    let blocked = generate_scanned(&program, &shackles::cholesky_writes(&program, 4));

    // --- interpreter side ---
    let params = BTreeMap::from([("N".to_string(), n)]);
    let mut ws = Workspace::for_program(&blocked, &params, |_, idx| {
        init_value(n as usize, idx[0], idx[1])
    });
    execute_compiled(&blocked, &mut ws, &params, &mut NullObserver);
    let expect = checksum(&ws, "A");

    // --- emitted side ---
    let kernel_src = emit(&blocked, Dialect::Rust);
    let driver = format!(
        r#"{kernel_src}
fn init_value(n: usize, i: usize, j: usize) -> f64 {{
    let (lo, hi) = (i.min(j), i.max(j));
    let frac = ((lo * 31 + hi * 17) % 97) as f64 / 97.0;
    if i == j {{ n as f64 + 1.0 + frac }} else {{ frac }}
}}
fn main() {{
    let n: i64 = {n};
    let nu = n as usize;
    let mut a = vec![0.0_f64; nu * nu];
    for j in 1..=nu {{
        for i in 1..=nu {{
            a[(i - 1) + (j - 1) * nu] = init_value(nu, i, j);
        }}
    }}
    cholesky_right_shackled(n, &mut a);
    let checksum: f64 = a
        .iter()
        .enumerate()
        .map(|(k, v)| v * ((k % 7) as f64 + 1.0))
        .sum();
    println!("{{}}", checksum.to_bits());
}}
"#
    );

    let dir = std::env::temp_dir().join(format!("shackle_emit_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let src_path = dir.join("driver.rs");
    let bin_path = dir.join("driver_bin");
    std::fs::write(&src_path, driver).expect("write driver");

    let rustc = Command::new("rustc")
        .arg("-O")
        .arg("--edition")
        .arg("2021")
        .arg("-o")
        .arg(&bin_path)
        .arg(&src_path)
        .output()
        .expect("rustc must be runnable in the test environment");
    assert!(
        rustc.status.success(),
        "rustc failed:\n{}",
        String::from_utf8_lossy(&rustc.stderr)
    );

    let run = Command::new(&bin_path)
        .output()
        .expect("run emitted binary");
    assert!(run.status.success());
    let bits: u64 = String::from_utf8_lossy(&run.stdout)
        .trim()
        .parse()
        .expect("checksum bits");
    let got = f64::from_bits(bits);

    assert_eq!(
        got.to_bits(),
        expect.to_bits(),
        "emitted code diverged from the interpreter: {got} vs {expect}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn emitted_rust_is_wellformed_for_every_kernel() {
    // Structural well-formedness of the emission for every kernel in
    // the registry (including the rank-3 tensor contraction); the test
    // above compiles and runs one of them.
    for (_, mk) in kernels::all() {
        let p = mk();
        let src = emit(&p, Dialect::Rust);
        assert_eq!(
            src.matches('{').count(),
            src.matches('}').count(),
            "unbalanced braces in emission of {}",
            p.name()
        );
        assert_eq!(src.matches('(').count(), src.matches(')').count());
    }
    // and a shackled form with guards + divided bounds
    let p = kernels::matmul_ijk();
    let blocked = data_shackle::core::naive::generate_naive(&p, &shackles::matmul_c(&p, 25));
    let src = emit(&blocked, Dialect::Rust);
    assert!(src.contains("if ("), "{src}");
    assert!(src.contains("floord("), "{src}");
}

/// The shape the native tier times, for every catalogue kernel and its
/// canonical scanned forms: loops are half-open ranges (never `..=`),
/// and the counted emission adds to each `cnt_[k]` exactly once, after
/// the last loop, so no statement instance stores to memory to count
/// itself.
#[test]
fn emission_is_half_open_and_counts_in_locals() {
    use data_shackle::ir::emit::{emit_with, EmitOptions};
    use data_shackle::kernels::catalogue::catalogue;
    let counted = EmitOptions {
        trace: false,
        counters: true,
    };
    for e in catalogue() {
        let program = (e.build)();
        let shackled = [e.single, e.product]
            .into_iter()
            .flatten()
            .map(|shackle| generate_scanned(&program, &shackle(&program, 4)));
        for p in std::iter::once(program.clone()).chain(shackled) {
            let plain = emit(&p, Dialect::Rust);
            assert!(!plain.contains("..="), "{}:\n{plain}", p.name());
            let src = emit_with(&p, Dialect::Rust, counted);
            assert!(!src.contains("..="), "{}:\n{src}", p.name());
            let last_loop = src.rfind("for ").expect("every kernel loops");
            for k in 0..p.stmts().len() {
                let slot = format!("cnt_[{k}]");
                assert_eq!(src.matches(&slot).count(), 1, "{} {slot}:\n{src}", p.name());
                let at = src
                    .find(&format!("{slot} += c{k};"))
                    .expect("counter flush");
                assert!(at > last_loop, "{} {slot} inside a loop:\n{src}", p.name());
            }
        }
    }
}
