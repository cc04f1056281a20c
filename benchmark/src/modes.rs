//! The benchmark's checks on itself: `aa` (two sets of runs of the same
//! code and seed must agree within the bounds), `spread` (the acceptance
//! procedure: ten seeds, quartile spread against each bound) and
//! `determinism` (facts, gains and output hashes must repeat exactly
//! across fresh processes).

use crate::metrics::{self, END_TO_END};
use crate::stats;
use crate::workloads::{set_up, Scale, WORKLOADS};
use crate::Args;
use std::process::{Command, ExitCode};

/// Runs per set of `aa`, and seeds of `spread`.
const RUNS: u64 = 10;

/// Run this executable again with `args`; returns its standard output
/// if it exited successfully.
fn rerun(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    if out.status.success() {
        Ok(text)
    } else {
        Err(format!(
            "`benchmark {}` exited with {}",
            args.join(" "),
            out.status
        ))
    }
}

/// The result line of one untraced run.
fn result_line(workload: &str, seed: u64, seconds: f64) -> Result<String, String> {
    let args = [
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--trace",
        "0",
    ]
    .map(String::from);
    let out = rerun(&args)?;
    let line = out.lines().last().unwrap_or("").to_string();
    if line.contains("\"correct\": true") {
        Ok(line)
    } else {
        Err(format!("{workload} seed {seed}: outputs were wrong"))
    }
}

/// The workloads a self-check covers: the one named, or all four.
fn selected(args: &Args) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .map(|w| w.0)
        .filter(|w| args.workload.as_deref().is_none_or(|only| only == *w))
        .collect()
}

fn head(what: &str, args: &Args) {
    let env = crate::env::Env::capture(args.seed);
    println!("{}", env.line());
    for w in env.warnings() {
        println!("warning: {w}");
    }
    println!("{what}, {} s measured per run\n", args.seconds);
}

/// Every value of a set, so a systematic difference can be told from
/// noise.
fn print_values(label: &str, values: &[f64]) {
    let cells: Vec<String> = values.iter().map(|x| format!("{x:.4}")).collect();
    println!("    {label}: {}", cells.join(" "));
}

/// Is `second` worse than `first` by more than `bound` of `first`?
fn worse_by_more_than(first: f64, second: f64, better: &str, bound: f64) -> bool {
    let worsening = if better == "lower" {
        (second - first) / first
    } else {
        (first - second) / first
    };
    worsening > bound
}

/// Two alternating sets of [`RUNS`] runs per workload, all with the
/// same `--seed`, so that what differs between and within the sets is
/// noise alone: medians compared metric by metric against the bounds,
/// each set's interquartile spread against its bound (`setup_s` exempt,
/// as in the acceptance procedure).
pub fn aa(args: &Args) -> ExitCode {
    let mut breaches = 0;
    head(
        &format!(
            "A/A: 2 alternating sets x {RUNS} runs per workload, every run with seed {}",
            args.seed
        ),
        args,
    );
    println!(
        "{:<15} {:<16} {:>12} {:>12} {:>8} {:>9} {:>9} {:>6}",
        "workload", "metric", "median A", "median B", "B vs A", "spread A", "spread B", "bound"
    );
    for workload in selected(args) {
        let mut sets: [Vec<String>; 2] = [Vec::new(), Vec::new()];
        for _ in 0..RUNS {
            for set in &mut sets {
                match result_line(workload, args.seed, args.seconds) {
                    Ok(line) => set.push(line),
                    Err(e) => {
                        println!("{e}");
                        breaches += 1;
                    }
                }
            }
        }
        for m in &END_TO_END {
            let values = |set: &Vec<String>| -> Vec<f64> {
                set.iter()
                    .filter_map(|line| metrics::value_in(line, m.name))
                    .collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            if a.len() < 2 || b.len() < 2 {
                println!("{workload:<15} {:<16} missing from the results", m.name);
                breaches += 1;
                continue;
            }
            let (med_a, med_b) = (stats::median(&a), stats::median(&b));
            let (spread_a, spread_b) = (stats::quartile_spread(&a), stats::quartile_spread(&b));
            let median_breach = worse_by_more_than(med_a, med_b, m.better, m.bound);
            let spread_breach = m.name != "setup_s" && spread_a.max(spread_b) > m.bound;
            println!(
                "{workload:<15} {:<16} {med_a:>12.5} {med_b:>12.5} {:>+7.2}% {:>8.2}% {:>8.2}% {:>5.1}%{}",
                m.name,
                (med_b - med_a) / med_a * 100.0,
                spread_a * 100.0,
                spread_b * 100.0,
                m.bound * 100.0,
                if median_breach || spread_breach { "  BREACH" } else { "" }
            );
            breaches += u32::from(median_breach) + u32::from(spread_breach);
            print_values("A", &a);
            print_values("B", &b);
        }
        println!();
    }
    if breaches == 0 {
        println!("A/A passed: every median and spread within its bound");
        ExitCode::SUCCESS
    } else {
        println!("A/A FAILED: {breaches} breach(es)");
        ExitCode::FAILURE
    }
}

/// The acceptance procedure: one run per workload with each of seeds
/// 1..=[`RUNS`], and per end-to-end metric the interquartile distance
/// of the ten values as a share of their median. Fails on a spread
/// above its bound; flags one above a third of it (`setup_s` exempt).
pub fn spread(args: &Args) -> ExitCode {
    let mut breaches = 0;
    head(&format!("spread over seeds 1..={RUNS}, one run each"), args);
    println!(
        "{:<15} {:<16} {:>12} {:>8} {:>6}",
        "workload", "metric", "median", "spread", "bound"
    );
    for workload in selected(args) {
        let mut lines = Vec::new();
        for seed in 1..=RUNS {
            match result_line(workload, seed, args.seconds) {
                Ok(line) => lines.push(line),
                Err(e) => {
                    println!("{e}");
                    breaches += 1;
                }
            }
        }
        for m in &END_TO_END {
            let values: Vec<f64> = lines
                .iter()
                .filter_map(|line| metrics::value_in(line, m.name))
                .collect();
            if values.len() < 2 {
                println!("{workload:<15} {:<16} missing from the results", m.name);
                breaches += 1;
                continue;
            }
            let spread = stats::quartile_spread(&values);
            let gated = m.name != "setup_s";
            let note = match () {
                _ if gated && spread > m.bound => "  BREACH",
                _ if gated && spread > m.bound / 3.0 => "  above a third of the bound",
                _ => "",
            };
            println!(
                "{workload:<15} {:<16} {:>12.5} {:>7.2}% {:>5.1}%{note}",
                m.name,
                stats::median(&values),
                spread * 100.0,
                m.bound * 100.0,
            );
            breaches += u32::from(gated && spread > m.bound);
            print_values("by seed", &values);
        }
        println!();
    }
    if breaches == 0 {
        println!("spread passed: every spread within its bound");
        ExitCode::SUCCESS
    } else {
        println!("spread FAILED: {breaches} breach(es)");
        ExitCode::FAILURE
    }
}

/// Hidden helper mode: set one workload up (reference checks and
/// warm-up rounds included) and print everything about it that must
/// not depend on timing, on one line.
pub fn first_round(args: &Args) -> ExitCode {
    let Some(workload) = args.workload.as_deref() else {
        eprintln!("benchmark first-round: --workload is required");
        return ExitCode::from(2);
    };
    let Ok(run_dir) = crate::prepare_out_dir() else {
        eprintln!("benchmark first-round: run from the root of the checkout");
        return ExitCode::from(2);
    };
    let _serial = shackle_core::par::with_threads(1);
    let dir = crate::fresh_dir(&run_dir, "first-round");
    let (w, hash, attempted, failed) = set_up(workload, args.seed, Scale::Full, &dir);
    let facts: Vec<String> = w.facts().iter().map(|(n, v)| format!("{n}={v}")).collect();
    // host_run's gains are wall-clock ratios; the compiler workloads'
    // are ratios of simulated cycles and must repeat bit for bit
    let gain = if workload == "host_run" {
        String::new()
    } else {
        format!(" gain_geomean={}", stats::geomean(&w.gains(&[])))
    };
    println!(
        "{workload} hash={hash:016x} attempted={attempted} failed={failed} {}{gain}",
        facts.join(" ")
    );
    drop(w);
    let _ = std::fs::remove_dir_all(&run_dir);
    ExitCode::SUCCESS
}

/// Every workload's first rounds twice, each in a fresh process: the
/// printed facts must be identical.
pub fn determinism(args: &Args) -> ExitCode {
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        let run_args: Vec<String> = [
            "first-round",
            "--workload",
            workload,
            "--seed",
            &args.seed.to_string(),
        ]
        .map(String::from)
        .to_vec();
        match (rerun(&run_args), rerun(&run_args)) {
            (Ok(a), Ok(b)) if a == b && a.contains(" failed=0 ") => {
                print!("same  {a}");
            }
            (Ok(a), Ok(b)) => {
                ok = false;
                print!("DIFFERENT or failed\n  {a}  {b}");
            }
            (Err(e), _) | (_, Err(e)) => {
                ok = false;
                println!("{workload}: {e}");
            }
        }
    }
    if ok {
        println!("determinism passed: facts, gains and output hashes repeat exactly");
        ExitCode::SUCCESS
    } else {
        println!("determinism FAILED");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_respects_direction() {
        assert!(worse_by_more_than(100.0, 111.0, "lower", 0.10));
        assert!(!worse_by_more_than(100.0, 109.0, "lower", 0.10));
        assert!(!worse_by_more_than(100.0, 50.0, "lower", 0.10));
        assert!(worse_by_more_than(100.0, 89.0, "higher", 0.10));
        assert!(!worse_by_more_than(100.0, 150.0, "higher", 0.10));
    }
}
