//! The repo's one benchmark: four closed-loop workloads over the
//! product crates' public functions, lower-decile timings, and a
//! separate traced run that attributes time to layers through the
//! product's own `shackle-probe` spans.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark --quick                  # 3 rounds of every workload, same checks
//! benchmark aa                       # two alternating sets of runs, one seed, must agree
//! benchmark spread                   # ten seeds per workload: spread against the bounds
//! benchmark determinism              # facts, gains and hashes repeat exactly
//! benchmark manifest                 # print BENCHMARK.json from the tables
//! ```
//!
//! See `benchmark/README.md` for the metric definitions and why the
//! estimator is the lower decile.

mod env;
mod metrics;
mod modes;
mod reference;
mod stats;
mod stream;
mod trace;
mod workloads;

use env::Env;
use metrics::{END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::{Snapshot, Trace};
use workloads::{measure, set_up, Scale, Until, Workload, WORKLOADS};

/// `run_seconds` of BENCHMARK.json: how long one run measures.
pub const RUN_SECONDS: u64 = 20;
/// Set-up phases per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Everything the benchmark writes goes under here (ignored by git).
const OUT_DIR: &str = "benchmark/out";

pub struct Args {
    pub mode: String,
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        mode: "run".to_string(),
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            args.mode = it.next().expect("peeked");
        }
    }
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value("0 or 1")? == "1",
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!(
                "unknown workload `{w}` (one of {})",
                names.join(", ")
            ));
        }
    }
    Ok(args)
}

/// A fresh, empty directory under [`OUT_DIR`] for one set-up phase.
fn fresh_dir(run_dir: &Path, label: &str) -> PathBuf {
    let dir = run_dir.join(label);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create a directory under benchmark/out");
    dir
}

/// The result of one run, ready to print.
struct RunResult {
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in table order.
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    /// The contract's last line.
    fn json(&self) -> String {
        let members: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| metrics::json_member(name, *value, unit))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            members.join(", ")
        )
    }

    fn print(&self, workload: &str, env: &Env) {
        println!("workload {workload}  ({})", env.line());
        for (name, value, unit) in &self.metrics {
            println!("  {name:<34} {value:>16.6} {unit}");
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  {:<34} {share:>16.6} ratio  ({} of {})",
            "failed_share", self.failed, self.attempted
        );
    }
}

/// Guard against a zero lower decile (a workload whose every operation
/// failed has nothing to time): the result is still reportable.
fn positive(v: f64) -> f64 {
    v.max(1e-9)
}

/// The untraced run: `SETUPS` set-ups from fresh state, then the timed
/// phase on the last of them.
fn run_untraced(
    name: &str,
    seed: u64,
    until: Until,
    scale: Scale,
    setups: usize,
    run_dir: &Path,
) -> RunResult {
    let mut setup_s = Vec::new();
    let mut live: Option<(Box<dyn Workload>, u64)> = None;
    let (mut attempted, mut failed) = (0, 0);
    for k in 0..setups {
        // the previous set-up's state (runner processes, server) goes
        // away before the next starts from scratch
        drop(live.take());
        let dir = fresh_dir(run_dir, &format!("setup-{k}"));
        let start = Instant::now();
        let (w, expected, a, f) = set_up(name, seed, scale, &dir);
        setup_s.push(start.elapsed().as_secs_f64());
        attempted += a;
        failed += f;
        live = Some((w, expected));
    }
    let (mut w, expected) = live.expect("at least one set-up");
    let samples = measure(w.as_mut(), expected, until, None);
    attempted += samples.attempted;
    failed += samples.failed;

    let item_lo: Vec<f64> = samples.item_lo_s().into_iter().map(positive).collect();
    let round_lo = positive(samples.round_lo_s());
    let gains = w.gains(&item_lo);
    let value = |name: &str| match name {
        "round_ms" => round_lo * 1e3,
        "item_ms_geomean" => stats::geomean(&item_lo) * 1e3,
        "work_per_s" => w.work_per_s(round_lo, &item_lo),
        "gain_geomean" => {
            if gains.is_empty() {
                1.0
            } else {
                stats::geomean(&gains)
            }
        }
        "peak_rss_mb" => env::peak_rss_mb(),
        "ok_share" => attempted.saturating_sub(failed) as f64 / attempted.max(1) as f64,
        "setup_s" => stats::median(&setup_s),
        other => unreachable!("no end-to-end metric `{other}`"),
    };
    eprintln!(
        "{name}: {} rounds, round lo/p50/p90 {:.3}/{:.3}/{:.3} ms, set-ups {:?} s",
        samples.rounds(),
        round_lo * 1e3,
        stats::median(&samples.round_s) * 1e3,
        stats::percentile(&samples.round_s, 90.0) * 1e3,
        setup_s
    );
    for (item, lo) in w.item_names().iter().zip(&item_lo) {
        eprintln!("  item {item:<28} lo {:>10.4} ms", lo * 1e3);
    }
    RunResult {
        attempted,
        failed,
        metrics: END_TO_END
            .iter()
            .map(|m| (m.name, value(m.name), m.unit))
            .collect(),
    }
}

/// The traced run: set-up with the probe on, then the workload untraced
/// (the overhead baseline), then traced (the probe reset before and read
/// after every round), then the workload's one-shot layer probes.
fn run_traced(
    name: &str,
    seed: u64,
    seconds: f64,
    quick: bool,
    env: &Env,
    run_dir: &Path,
) -> RunResult {
    let (scale, untraced_until, traced_until) = if quick {
        (Scale::Reduced, Until::Rounds(3), Until::Rounds(3))
    } else {
        (
            Scale::Full,
            Until::Seconds(0.35 * seconds),
            Until::Seconds(0.5 * seconds),
        )
    };
    let dir = fresh_dir(run_dir, name);
    let mut trace = Trace::default();

    shackle_probe::reset();
    shackle_probe::set_enabled(true);
    let (mut w, expected, mut attempted, mut failed) = set_up(name, seed, scale, &dir);
    trace.setup = Snapshot::take();
    shackle_probe::set_enabled(false);
    let untraced = measure(w.as_mut(), expected, untraced_until, None);
    shackle_probe::set_enabled(true);
    let traced = measure(w.as_mut(), expected, traced_until, Some(&mut trace.rounds));
    shackle_probe::set_enabled(false);
    attempted += untraced.attempted + traced.attempted;
    failed += untraced.failed + traced.failed;

    let traced_ms: Vec<f64> = traced.round_s.iter().map(|s| s * 1e3).collect();
    let mut direct = w.probe_layers(&dir);
    direct.extend([
        ("run.rounds", traced.rounds() as f64),
        ("run.round_p50_ms", stats::percentile(&traced_ms, 50.0)),
        ("run.round_p90_ms", stats::percentile(&traced_ms, 90.0)),
        (
            "run.trace_overhead",
            positive(traced.round_lo_s()) / positive(untraced.round_lo_s()) - 1.0,
        ),
        ("run.loadavg_start", env.loadavg),
    ]);

    let trace_path = Path::new(OUT_DIR).join(format!("trace-{name}.json"));
    let header = format!("\"workload\": \"{name}\", {}", env.json_fields());
    let written = std::fs::File::create(&trace_path)
        .map(std::io::BufWriter::new)
        .and_then(|mut f| {
            trace.write_json(&mut f, &header)?;
            std::io::Write::flush(&mut f)
        });
    match written {
        Ok(()) => eprintln!(
            "{name}: set-up and {} traced rounds written to {}",
            trace.rounds.len(),
            trace_path.display()
        ),
        Err(e) => eprintln!("{name}: could not write {}: {e}", trace_path.display()),
    }

    let facts = w.facts();
    RunResult {
        attempted,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|m| {
                let value = metrics::evaluate(m.source, m.name, &trace, &facts, &direct);
                (m.name, value, m.unit)
            })
            .collect(),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match args.mode.as_str() {
        "run" => {}
        "aa" => return modes::aa(&args),
        "spread" => return modes::spread(&args),
        "determinism" => return modes::determinism(&args),
        "first-round" => return modes::first_round(&args),
        "manifest" => {
            print!("{}", metrics::manifest(RUN_SECONDS));
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("benchmark: unknown mode `{other}`");
            return ExitCode::from(2);
        }
    }

    let env = Env::capture(args.seed);
    eprintln!("{}", env.line());
    for w in env.warnings() {
        eprintln!("warning: {w}");
    }
    let run_dir = match prepare_out_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!(
                "benchmark: cannot prepare {OUT_DIR}: {e} (run from the root of the checkout)"
            );
            return ExitCode::from(2);
        }
    };
    // one caller thread, held for the whole run: no scheduler in the
    // timed path
    let _serial = shackle_core::par::with_threads(1);

    let selected: Vec<&str> = match (&args.workload, args.quick) {
        (Some(w), _) => vec![WORKLOADS.iter().find(|(n, _)| n == w).expect("validated").0],
        (None, true) => WORKLOADS.iter().map(|w| w.0).collect(),
        (None, false) => {
            eprintln!("benchmark: --workload is required (or --quick for all four)");
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    for name in selected {
        let result = if args.trace {
            run_traced(name, args.seed, args.seconds, args.quick, &env, &run_dir)
        } else if args.quick {
            run_untraced(
                name,
                args.seed,
                Until::Rounds(3),
                Scale::Reduced,
                1,
                &run_dir,
            )
        } else {
            run_untraced(
                name,
                args.seed,
                Until::Seconds(args.seconds),
                Scale::Full,
                SETUPS,
                &run_dir,
            )
        };
        result.print(name, &env);
        println!("{}", result.json());
        all_correct &= result.failed == 0;
    }
    let _ = std::fs::remove_dir_all(&run_dir);
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: outputs were wrong or operations failed");
        ExitCode::FAILURE
    }
}

/// Create this process's scratch directory under [`OUT_DIR`] and point
/// `TMPDIR` into it, so `rustc` (spawned by the native tier) keeps its
/// temporaries inside the checkout too.
fn prepare_out_dir() -> std::io::Result<PathBuf> {
    if !Path::new("benchmark/Cargo.toml").is_file() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            "benchmark/Cargo.toml is not here",
        ));
    }
    let run_dir = std::env::current_dir()?
        .join(OUT_DIR)
        .join(format!("run-{}", std::process::id()));
    let tmp = run_dir.join("tmp");
    std::fs::create_dir_all(&tmp)?;
    // no other thread exists yet, so nothing reads the environment
    // concurrently
    std::env::set_var("TMPDIR", &tmp);
    Ok(run_dir)
}
