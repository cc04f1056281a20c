//! Differential fuzz-oracle audit of the polyhedral substrate
//! (`shackle-polyhedra`): random boxed constraint systems plus a pinned
//! overflow corpus, cross-checked against brute-force enumeration. See
//! `shackle_polyhedra::audit` for the harness itself.
//!
//! The verdict is the exit status: non-zero if any verdict disagrees
//! with the oracle — a panic anywhere in the solver also fails the run,
//! which is the point: this binary is the CI tripwire for the crate's
//! panic-freedom contract.
//!
//! `--quick` runs 10 000 systems (the CI smoke size); the default is
//! 50 000. `--seed N` reruns a specific generator stream. Anything else
//! prints the usage line and exits 2.

use shackle_polyhedra::audit::{run, AuditConfig};
use std::process::ExitCode;

fn usage(err: &str) -> ExitCode {
    eprintln!("poly_audit: {err}\nusage: poly_audit [--quick] [--seed N]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut seed = 0x5eed_cafe_u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--seed" => match args.next().map(|v| v.parse()) {
                Some(Ok(n)) => seed = n,
                Some(Err(_)) => return usage("--seed: not a number"),
                None => return usage("--seed needs a value"),
            },
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    let cfg = AuditConfig {
        systems: if quick { 10_000 } else { 50_000 },
        seed,
        ..AuditConfig::default()
    };

    let rep = run(&cfg);

    println!(
        "poly_audit: {} systems (seed {:#x}) + {} corpus cases",
        rep.systems, seed, rep.corpus_cases
    );
    println!(
        "  default budget: {} feasible, {} infeasible, {} unknown",
        rep.feasible, rep.infeasible, rep.unknown
    );
    println!(
        "  strict budget:  {} unknown (refusals are expected here)",
        rep.strict_unknown
    );
    println!(
        "  cross-checked simplify/projection on {} cases",
        rep.simplify_checked
    );
    for m in &rep.mismatches {
        eprintln!("  MISMATCH: {m}");
    }

    if !rep.ok() {
        eprintln!(
            "poly_audit FAILED: {} oracle mismatches",
            rep.mismatches.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
