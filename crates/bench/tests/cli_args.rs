//! Both binaries parse their arguments or refuse them: anything that is
//! not an accepted name or flag prints the usage line to stderr and
//! exits 2 instead of being ignored or replaced by a default.

use std::process::{Command, Output};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .expect("run the binary")
}

fn assert_refused(out: &Output, usage: &str) {
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(usage), "{stderr}");
    assert!(out.stdout.is_empty(), "refused before any work: {out:?}");
}

#[test]
fn figures_refuses_what_is_not_a_figure_name() {
    let usage = "usage: figures [figure10|figure11|figure12|figure13|figure15|\
                 ablation_layout|ablation_block_size|ablation_tlb]";
    for args in [&["--quick"][..], &["figure13", "figure14"]] {
        assert_refused(&run(env!("CARGO_BIN_EXE_figures"), args), usage);
    }
}

#[test]
fn poly_audit_refuses_a_seed_that_is_not_a_number() {
    let usage = "usage: poly_audit [--quick] [--seed N]";
    for args in [
        &["--seed", "banana"][..],
        &["--quick", "--seed"],
        &["--fast"],
    ] {
        assert_refused(&run(env!("CARGO_BIN_EXE_poly_audit"), args), usage);
    }
}
