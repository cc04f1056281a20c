//! The `shackle` binary reaches every kernel of the catalogue: each
//! registry name and each historical CLI alias resolves, `--emit input`
//! prints the kernel's program, and the canonical shackles verify —
//! with and without `--product`. A `--file` program it must refuse is
//! refused with a message, not a panic.

use data_shackle::kernels::catalogue::{catalogue, find};
use std::process::{Command, Output};

fn shackle(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_shackle"))
        .args(args)
        .output()
        .expect("run the shackle binary")
}

#[test]
fn every_catalogue_kernel_is_reachable_from_the_cli() {
    let mut failures = Vec::new();
    for e in catalogue() {
        for key in [e.name, e.alias] {
            assert_eq!(find(key).map(|found| found.name), Some(e.name), "{key}");
            let out = shackle(&[key, "--emit", "input"]);
            if !out.status.success() || out.stdout != (e.build)().to_string().into_bytes() {
                failures.push(format!("{key} --emit input"));
            }
        }
        if e.single.or(e.product).is_none() {
            continue;
        }
        for product in [&[][..], &["--product"]] {
            let mut args = vec![
                e.alias, "--width", "4", "--emit", "scanned", "--verify", "12",
            ];
            args.extend(product);
            if !shackle(&args).status.success() {
                failures.push(args.join(" "));
            }
        }
    }
    assert!(failures.is_empty(), "failing invocations: {failures:#?}");
    assert!(find("no-such-kernel").is_none());
    assert_eq!(shackle(&["no-such-kernel"]).status.code(), Some(2));
}

/// A `--file` program that parses but is semantically invalid is a
/// one-line parse error and exit 1, not a panic with a backtrace.
#[test]
fn a_semantically_invalid_file_is_a_parse_error() {
    let path = std::env::temp_dir().join(format!("shackle-cli-bad-{}.ds", std::process::id()));
    let src = "program bad\nparam N\narray A(N, N)\n\n\
               do I = 1 .. N\n  do J = 1 .. N\n    S1: A[I, J] = A[Q, J] + 1\n";
    std::fs::write(&path, src).expect("write the test program");
    let out = shackle(&["-", "--file", path.to_str().expect("utf-8 temp path")]);
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("out-of-scope variable Q"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// `--verify` on a program whose subscript leaves its array is refused
/// with a message naming the reference (exit 1), before anything runs
/// it.
#[test]
fn an_out_of_bounds_file_is_refused_by_verify() {
    let path = std::env::temp_dir().join(format!("shackle-cli-overrun-{}.ds", std::process::id()));
    let src = "program overrun\nparam N\narray A(N)\n\ndo I = 1 .. N\n  S1: A[I + 1] = A[I] + 1\n";
    std::fs::write(&path, src).expect("write the test program");
    let file = path.to_str().expect("utf-8 temp path");
    let args = ["-", "--file", file, "--block", "A", "--refs", "A[I + 1]"];
    let out = shackle(&[&args[..], &["--verify", "24"]].concat());
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("A[I + 1]"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
