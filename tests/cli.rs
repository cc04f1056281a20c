//! The `shackle` binary reaches every kernel of the catalogue: each
//! registry name and each historical CLI alias resolves, `--emit input`
//! prints the kernel's program, and the canonical shackles verify —
//! with and without `--product`.

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
