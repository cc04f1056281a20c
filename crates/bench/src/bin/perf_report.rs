//! Harness performance report: tree interpreter vs compiled bytecode
//! engine vs native (`rustc`-compiled) tier, plus the auto-shackle
//! search and memsim sweep pipelines.
//!
//! Times each evaluation kernel through all three execution tiers
//! (same program, same workspace contents) with repeated-run
//! [`Timing`]s and writes `BENCH_exec.json`: per-kernel mean/min/max
//! seconds per tier and speedups computed from the means. The tree
//! interpreter is the semantics of record, so before timing, each
//! faster tier's [`ExecStats`] and final array contents are asserted
//! bit-identical to it. After the timed runs, every kernel is rebuilt
//! through the native build cache and the probe counters must show
//! zero `rustc` invocations — the warm-cache proof recorded in the
//! artifact. Without a working `rustc` the native columns record
//! `null` and the native speedup floor is skipped.
//!
//! Then times the §8 auto-shackle search (enumerate → grow → score →
//! select) of `shackle_serve::pipeline` from a cold polyhedral cache
//! and writes `BENCH_search.json` with the wall times, the search
//! outcome and the `PolyStats` counters of one cold run.
//!
//! Then times the multi-configuration cache sweep through both
//! simulator pipelines — the pre-stack-engine flow (re-execute the
//! kernel and direct-simulate once per cache configuration) against
//! capture-once + single stack pass — asserting bit-identical hit/miss
//! counts per configuration, and writes `BENCH_memsim.json`.
//!
//! Every run appends one line to `BENCH_history.jsonl`: the aggregate
//! speedups plus an environment fingerprint (CPU count,
//! `SHACKLE_THREADS`, build profile, toolchain, git SHA), so numbers
//! can be compared across time without conflating machines.
//!
//! With `--profile`, additionally runs an instrumented pass of the full
//! pipeline (search → legality → codegen → exec → memsim) for the
//! Cholesky and matmul kernels through `shackle-probe`, prints the
//! phase tree, measures the instrumentation overhead on the compiled
//! hot path (asserted ≤ 2%), and writes `BENCH_profile.json`. The
//! regular reports above always run with instrumentation disabled, so
//! their artifacts are byte-identical with or without the flag.
//!
//! Run in release mode: `cargo run --release --bin perf_report`.
//! `--quick` shrinks the problem sizes (and the native speedup floor)
//! to the CI smoke grid.

use shackle_bench::history;
use shackle_bench::prelude::*;
use shackle_bench::report::{assert_speedup, Timing};
use shackle_exec::native::{self, NativeKernel};
use shackle_kernels::catalogue::{self, Entry};
use shackle_polyhedra::cache;
use shackle_serve::pipeline::{auto_search, Mode, SearchOutcome};
use std::collections::BTreeMap;
use std::time::Instant;

/// Timed runs per tier per kernel. Five repetitions so the artifact's
/// mean/min/max spread makes run-to-run variance visible.
const EXEC_RUNS: usize = 5;

struct ExecRow {
    kernel: &'static str,
    n: i64,
    instances: u64,
    tree: Timing,
    bytecode: Timing,
    native: Option<Timing>,
}

/// Best-of-`reps` wall-clock seconds for one closure.
fn best_secs(reps: usize, mut run: impl FnMut()) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        run();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Assert two finished workspaces are bit-identical — the same
/// predicate the native differential tests use, applied here so the
/// timed artifact always rides on verified-equal results.
fn assert_ws_identical(reference: &Workspace, got: &Workspace, kernel: &str, tier: &str) {
    for (name, x) in reference.iter() {
        let y = got.array(name).expect("same arrays");
        assert_eq!(x.data().len(), y.data().len(), "{kernel}/{tier}: {name}");
        for (i, (u, v)) in x.data().iter().zip(y.data()).enumerate() {
            assert_eq!(
                u.to_bits(),
                v.to_bits(),
                "{kernel}/{tier}: array {name} diverges from the tree \
                 interpreter at flat index {i}: {u} vs {v}"
            );
        }
    }
}

fn measure_exec(entry: &Entry, program: &Program, n: i64) -> ExecRow {
    let kernel = entry.name;
    let params = &entry.params(n);
    let template = Workspace::for_program(program, params, entry.init(params, 3));

    // Tree interpreter: the semantics of record and the speedup
    // denominator. One untimed run pins the reference stats and arrays.
    let mut tree_ws = template.clone();
    let stats = execute(program, &mut tree_ws, params, &mut NullObserver);
    let tree = Timing::measure(EXEC_RUNS, || {
        let mut ws = template.clone();
        execute(program, &mut ws, params, &mut NullObserver);
    });

    let cp = compile(program);
    let mut byte_ws = template.clone();
    let byte_stats = cp.execute(&mut byte_ws, params, &mut NullObserver);
    assert_eq!(byte_stats, stats, "engines must agree on {kernel}");
    assert_ws_identical(&tree_ws, &byte_ws, kernel, "bytecode");
    let bytecode = Timing::measure(EXEC_RUNS, || {
        let mut ws = template.clone();
        cp.execute(&mut ws, params, &mut NullObserver);
    });

    // Native tier: one persistent runner per kernel; the build (or
    // cache hit) happens before the clock starts, like `compile` above.
    let native = if native::rustc_available() {
        let mut k = NativeKernel::spawn(program).expect("native build");
        let mut nat_ws = template.clone();
        let nat_stats = k.run(&mut nat_ws, params).expect("native run");
        assert_eq!(
            nat_stats, stats,
            "native stats must match the interpreter on {kernel}"
        );
        assert_ws_identical(&tree_ws, &nat_ws, kernel, "native");
        Some(Timing::measure(EXEC_RUNS, || {
            let mut ws = template.clone();
            k.run(&mut ws, params).expect("native run");
        }))
    } else {
        None
    };

    ExecRow {
        kernel,
        n,
        instances: stats.instances,
        tree,
        bytecode,
        native,
    }
}

/// The exec-tier kernels — `(catalogue name, full n, --quick n)` —
/// resolved and built.
fn exec_kernels(quick: bool) -> Vec<(Entry, Program, i64)> {
    [
        ("matmul_ijk", 64, 32),
        ("cholesky_right", 64, 32),
        ("qr_householder", 48, 24),
        ("gauss", 64, 32),
        ("adi", 96, 48),
        ("backsolve", 64, 32),
        ("syrk", 64, 32),
        ("jacobi2d", 96, 48),
        ("tensor_contract", 24, 12),
    ]
    .into_iter()
    .map(|(name, full, small)| {
        let entry = catalogue::find(name).expect("catalogue kernel");
        (entry, (entry.build)(), if quick { small } else { full })
    })
    .collect()
}

fn timing_or_null(t: &Option<Timing>) -> String {
    t.as_ref().map_or_else(|| "null".into(), Timing::to_json)
}

fn speedup_or_null(num: f64, t: &Option<Timing>) -> String {
    t.as_ref()
        .map_or_else(|| "null".into(), |t| format!("{:.3}", num / t.mean))
}

/// Tree vs bytecode vs native report. Returns the aggregate JSON object
/// recorded in the history line.
fn exec_report(quick: bool) -> String {
    let specs = exec_kernels(quick);
    let have_native = native::rustc_available();
    let mut rows = Vec::new();
    for (entry, program, n) in &specs {
        rows.push(measure_exec(entry, program, *n));
    }

    // Warm-cache proof: every kernel above was just built, so a rebuild
    // pass must be all cache hits — zero rustc invocations, counted by
    // the probe (Counter reads need no instrumentation toggle).
    let warm = if have_native {
        let rustc0 = probe::counter("native.rustc_invocations").get();
        let hits0 = probe::counter("native.cache_hits").get();
        for (_, program, _) in &specs {
            native::build(program).expect("warm rebuild");
        }
        let spawned = probe::counter("native.rustc_invocations").get() - rustc0;
        let hits = probe::counter("native.cache_hits").get() - hits0;
        assert_eq!(
            spawned, 0,
            "warm build cache must not spawn rustc ({spawned} invocations)"
        );
        format!(
            "{{\"rebuilds\": {}, \"rustc_invocations\": {spawned}, \"cache_hits\": {hits}}}",
            specs.len()
        )
    } else {
        "null".to_string()
    };

    println!(
        "{:<16} {:>5} {:>10} {:>11} {:>11} {:>11} {:>7} {:>8}",
        "kernel", "n", "instances", "tree s", "bytecode s", "native s", "byte x", "native x"
    );
    let mut report = BenchReport::new();
    report.section("benchmarks");
    for r in &rows {
        let byte_speedup = r.tree.mean / r.bytecode.mean;
        assert_speedup(r.kernel, byte_speedup, 1.0);
        println!(
            "{:<16} {:>5} {:>10} {:>11.4} {:>11.4} {:>11} {:>6.2}x {:>8}",
            r.kernel,
            r.n,
            r.instances,
            r.tree.mean,
            r.bytecode.mean,
            r.native
                .map_or_else(|| "skipped".into(), |t| format!("{:.4}", t.mean)),
            byte_speedup,
            r.native
                .map_or_else(|| "-".into(), |t| format!("{:.1}x", r.tree.mean / t.mean)),
        );
        report.row(format!(
            "{{\"kernel\": \"{}\", \"n\": {}, \"instances\": {}, \
             \"tree\": {}, \"bytecode\": {}, \"native\": {}, \
             \"bytecode_speedup\": {:.3}, \"native_speedup\": {}}}",
            r.kernel,
            r.n,
            r.instances,
            r.tree.to_json(),
            r.bytecode.to_json(),
            timing_or_null(&r.native),
            byte_speedup,
            speedup_or_null(r.tree.mean, &r.native),
        ));
    }

    let tree_secs: f64 = rows.iter().map(|r| r.tree.mean).sum();
    let byte_secs: f64 = rows.iter().map(|r| r.bytecode.mean).sum();
    let byte_agg = tree_secs / byte_secs;
    let native_secs: Option<f64> = rows
        .iter()
        .map(|r| r.native.map(|t| t.mean))
        .collect::<Option<Vec<f64>>>()
        .map(|v| v.iter().sum());
    let native_agg = native_secs.map(|s| tree_secs / s);
    assert_speedup("bytecode engine (aggregate)", byte_agg, 1.0);
    match native_agg {
        Some(agg) => {
            // The headline number: quick mode uses small sizes where
            // pipe I/O is a larger share, so its floor is lower.
            let floor = if quick { 3.0 } else { 20.0 };
            assert_speedup("native tier (aggregate)", agg, floor);
            println!(
                "{:<16} {:>16} {:>11.4} {:>11.4} {:>11.4} {:>6.2}x {:>7.1}x",
                "aggregate",
                "",
                tree_secs,
                byte_secs,
                native_secs.expect("native timed"),
                byte_agg,
                agg
            );
        }
        None => println!("native tier skipped: no working rustc on PATH"),
    }

    let aggregate = format!(
        "{{\"tree_secs\": {tree_secs:.6}, \"bytecode_secs\": {byte_secs:.6}, \
         \"native_secs\": {}, \"bytecode_speedup\": {byte_agg:.3}, \
         \"native_speedup\": {}}}",
        native_secs.map_or_else(|| "null".into(), |s| format!("{s:.6}")),
        native_agg.map_or_else(|| "null".into(), |s| format!("{s:.3}")),
    );
    report.field_raw("aggregate", aggregate.clone());
    report.field_raw("warm_cache", warm);
    if !have_native {
        report.field_str(
            "native_note",
            "native tier skipped: rustc unavailable in this environment",
        );
    }
    report
        .write("BENCH_exec.json")
        .expect("write BENCH_exec.json");
    println!("wrote BENCH_exec.json");
    aggregate
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    let exec_agg = exec_report(quick);
    let search_agg = search_report();
    let memsim_agg = memsim_report();

    // Model-vs-simulate sweep (BENCH_model.json). `--quick` shrinks it
    // to the CI smoke grid so the whole report fits in a CI minute.
    shackle_bench::modelperf::run(&shackle_bench::modelperf::SweepOptions {
        quick,
        runs: if quick { 1 } else { 5 },
        ..Default::default()
    });

    // One history line per run: the aggregates above plus where they
    // were measured.
    let env = history::EnvFingerprint::capture();
    let aggregates =
        format!("{{\"exec\": {exec_agg}, \"search\": {search_agg}, \"memsim\": {memsim_agg}}}");

    history::append("BENCH_history.jsonl", &env, &aggregates).expect("append BENCH_history.jsonl");
    println!("appended BENCH_history.jsonl ({})", env.to_json());

    if std::env::args().any(|a| a == "--profile") {
        profile_report();
    }
}

struct MemsimRow {
    kernel: &'static str,
    n: i64,
    accesses: u64,
    configs: usize,
    baseline_secs: f64,
    stack_secs: f64,
}

/// Time one traced kernel through both sweep pipelines, asserting the
/// per-configuration hit/miss counts are bit-identical.
fn memsim_one(
    kernel: &'static str,
    program: &Program,
    params: &BTreeMap<String, i64>,
    n: i64,
    init: impl Fn(&str, &[usize]) -> f64 + Sync,
    grid: &[CacheConfig],
) -> MemsimRow {
    let reps = 2;

    // Baseline: the pre-stack-engine figure flow — one kernel
    // re-execution plus one direct LRU replay per configuration.
    let mut baseline_stats = Vec::new();
    let baseline_secs = best_secs(reps, || {
        baseline_stats = grid
            .iter()
            .map(|&cfg| {
                let mut h = Hierarchy::new(&[cfg], 60);
                trace_execution(program, params, &init, &mut h);
                h.level_stats()[0]
            })
            .collect();
    });

    // Stack engine: capture the trace once, derive every configuration
    // from a single Mattson pass.
    let mut accesses = 0u64;
    let mut stack_stats = Vec::new();
    let stack_secs = best_secs(reps, || {
        let (_, trace) = CompactTrace::capture(program, params, &init);
        accesses = trace.len() as u64;
        let mut sim = StackSim::new(grid[0].line, grid);
        trace.replay_into(&mut sim);
        stack_stats = grid.iter().map(|c| sim.stats_for(c)).collect();
    });

    assert_eq!(
        baseline_stats, stack_stats,
        "stack engine must be bit-identical to the direct sweep on {kernel}"
    );
    MemsimRow {
        kernel,
        n,
        accesses,
        configs: grid.len(),
        baseline_secs,
        stack_secs,
    }
}

fn memsim_report() -> String {
    let kb = 1024;
    let grid = shackle_bench::memsweep::config_grid(
        128,
        &[8 * kb, 16 * kb, 32 * kb, 64 * kb, 128 * kb, 256 * kb],
        &[1, 2, 4],
    );
    let params_n = |n: i64| BTreeMap::from([("N".to_string(), n)]);

    let chol = kernels::cholesky_right();
    let chol_blocked = generate_scanned(&chol, &shackles::cholesky_product(&chol, 16));
    let mm = kernels::matmul_ijk();
    let mm_blocked = generate_scanned(&mm, &shackles::matmul_ca(&mm, 8));
    let rows = [
        memsim_one("matmul_ijk", &mm, &params_n(48), 48, |_, _| 1.0, &grid),
        memsim_one(
            "matmul_blocked_w8",
            &mm_blocked,
            &params_n(48),
            48,
            |_, _| 1.0,
            &grid,
        ),
        memsim_one(
            "cholesky_right",
            &chol,
            &params_n(64),
            64,
            gen::spd_ws_init("A", 64, 3),
            &grid,
        ),
        memsim_one(
            "cholesky_blocked_w16",
            &chol_blocked,
            &params_n(64),
            64,
            gen::spd_ws_init("A", 64, 3),
            &grid,
        ),
    ];

    println!(
        "\n{:<22} {:>5} {:>10} {:>8} {:>12} {:>12} {:>8}",
        "memsim sweep", "n", "accesses", "configs", "baseline s", "stack s", "speedup"
    );
    let mut report = BenchReport::new();
    report.section("memsim");
    for r in &rows {
        let speedup = r.baseline_secs / r.stack_secs;
        println!(
            "{:<22} {:>5} {:>10} {:>8} {:>12.4} {:>12.4} {:>7.2}x",
            r.kernel, r.n, r.accesses, r.configs, r.baseline_secs, r.stack_secs, speedup
        );
        report.row(format!(
            "{{\"kernel\": \"{}\", \"n\": {}, \"accesses\": {}, \
             \"configs\": {}, \"baseline_secs\": {:.6}, \
             \"stack_secs\": {:.6}, \"speedup\": {:.3}}}",
            r.kernel, r.n, r.accesses, r.configs, r.baseline_secs, r.stack_secs, speedup,
        ));
    }
    let total_base: f64 = rows.iter().map(|r| r.baseline_secs).sum();
    let total_stack: f64 = rows.iter().map(|r| r.stack_secs).sum();
    let aggregate = total_base / total_stack;
    println!(
        "{:<22} {:>25} {:>12.4} {:>12.4} {:>7.2}x",
        "aggregate", "", total_base, total_stack, aggregate
    );
    assert_speedup("memsim stack engine (aggregate)", aggregate, 1.0);
    let aggregate_json = format!(
        "{{\"baseline_secs\": {total_base:.6}, \
         \"stack_secs\": {total_stack:.6}, \"speedup\": {aggregate:.3}}}"
    );
    report.field_raw("aggregate", aggregate_json.clone());
    report
        .write("BENCH_memsim.json")
        .expect("write BENCH_memsim.json");
    println!("wrote BENCH_memsim.json");
    aggregate_json
}

struct SearchRow {
    kernel: &'static str,
    outcome: SearchOutcome,
    memoized_secs: f64,
    stats: shackle_polyhedra::PolyStats,
}

/// Time one catalogue search row, cold cache every rep so one rep's
/// fills do not subsidize the next measurement.
fn search_one(entry: &Entry, (width, probe_n): (i64, i64)) -> SearchRow {
    let reps = 5;
    let program = (entry.build)();
    let cfg = SearchConfig {
        width,
        ..Default::default()
    };
    let init = entry.init(&entry.params(probe_n), 3);
    cache::clear_cache();
    cache::reset_stats();
    let outcome = auto_search(&program, &cfg, probe_n, &init, Mode::Memoized);
    let stats = cache::stats();
    let memoized_secs = best_secs(reps, || {
        cache::clear_cache();
        auto_search(&program, &cfg, probe_n, &init, Mode::Memoized);
    });
    SearchRow {
        kernel: entry.name,
        outcome,
        memoized_secs,
        stats,
    }
}

fn search_report() -> String {
    let rows: Vec<SearchRow> = catalogue::catalogue()
        .iter()
        .filter_map(|e| Some(search_one(e, e.search?)))
        .collect();

    println!(
        "\n{:<16} {:>5} {:>5} {:>8} {:>12} {:>9} {:>9}",
        "search", "cand", "prod", "queries", "memoized s", "feas hit", "proj hit"
    );
    let mut report = BenchReport::new();
    report.section("search");
    for r in &rows {
        print_search_row(r);
        report.row(search_row_json(r));
    }
    let total_memo: f64 = rows.iter().map(|r| r.memoized_secs).sum();
    println!("{:<16} {:>20} {:>12.4}", "aggregate", "", total_memo);
    let aggregate_json = format!("{{\"memoized_secs\": {total_memo:.6}}}");
    report.field_raw("aggregate", aggregate_json.clone());
    report
        .write("BENCH_search.json")
        .expect("write BENCH_search.json");
    println!("wrote BENCH_search.json");
    aggregate_json
}

fn print_search_row(r: &SearchRow) {
    println!(
        "{:<16} {:>5} {:>5} {:>8} {:>12.4} {:>8.1}% {:>8.1}%",
        r.kernel,
        r.outcome.candidates,
        r.outcome.products,
        r.stats.feasibility_queries,
        r.memoized_secs,
        100.0 * r.stats.feasibility_hit_rate(),
        100.0 * r.stats.projection_hit_rate(),
    );
}

fn search_row_json(r: &SearchRow) -> String {
    format!(
        "{{\"kernel\": \"{}\", \"candidates\": {}, \"legal\": {}, \
         \"products\": {}, \"rescored\": {}, \"winner_cycles\": {}, \
         \"memoized_secs\": {:.6}, \
         \"feasibility_queries\": {}, \"feasibility_hit_rate\": {:.4}, \
         \"projection_queries\": {}, \"projection_hit_rate\": {:.4}, \
         \"gist_queries\": {}, \"gist_hit_rate\": {:.4}, \
         \"splinters\": {}, \"dark_shadow_fallbacks\": {}, \
         \"fm_rows_combined\": {}, \"fm_rows_pruned\": {}}}",
        r.kernel,
        r.outcome.candidates,
        r.outcome.legal,
        r.outcome.products,
        r.outcome.rescored,
        r.outcome.winner_cycles,
        r.memoized_secs,
        r.stats.feasibility_queries,
        r.stats.feasibility_hit_rate(),
        r.stats.projection_queries,
        r.stats.projection_hit_rate(),
        r.stats.gist_queries,
        r.stats.gist_hit_rate(),
        r.stats.splinters,
        r.stats.dark_shadow_fallbacks,
        r.stats.fm_rows_combined,
        r.stats.fm_rows_pruned,
    )
}

/// Instrumented pipeline pass: measure the probe overhead on the
/// compiled hot path, profile the full pipeline for two kernels, print
/// the phase tree and write `BENCH_profile.json`.
fn profile_report() {
    // 1. Overhead on the hot path: the same compiled execution, probe
    // off vs probe on. The instrumentation is batch-level (one span and
    // a handful of counter adds per run), so the two must be within
    // noise of each other; the 2% bound is the CI tripwire for someone
    // accidentally adding per-access instrumentation.
    let n = 96i64;
    let p = kernels::matmul_ijk();
    let params = BTreeMap::from([("N".to_string(), n)]);
    let template = Workspace::for_program(&p, &params, |_, _| 1.0);
    let cp = compile(&p);
    let mut warm = template.clone();
    cp.execute(&mut warm, &params, &mut NullObserver);
    assert!(!probe::enabled(), "reports above must run uninstrumented");
    // Interleave the disabled/enabled samples pairwise: scheduler and
    // frequency drift then hits both sides equally, so best-of-10 is
    // stable to well under a percent where back-to-back blocks are not.
    let mut disabled_secs = f64::MAX;
    let mut enabled_secs = f64::MAX;
    for _ in 0..10 {
        let t = Instant::now();
        let mut ws = template.clone();
        cp.execute(&mut ws, &params, &mut NullObserver);
        disabled_secs = disabled_secs.min(t.elapsed().as_secs_f64());
        probe::set_enabled(true);
        let t = Instant::now();
        let mut ws = template.clone();
        cp.execute(&mut ws, &params, &mut NullObserver);
        enabled_secs = enabled_secs.min(t.elapsed().as_secs_f64());
        probe::set_enabled(false);
    }
    let ratio = enabled_secs / disabled_secs;
    println!(
        "\nprobe overhead on compiled matmul n={n}: disabled {disabled_secs:.4}s, \
         enabled {enabled_secs:.4}s, ratio {ratio:.4}"
    );
    assert!(
        ratio <= 1.02,
        "instrumentation overhead {ratio:.4} exceeds the 2% bound"
    );

    // 2. Instrumented pipeline pass per kernel — cold polyhedral cache
    // so the search does real omega/FM work, not lookups.
    probe::reset();
    cache::clear_cache();
    cache::reset_stats();
    probe::set_enabled(true);
    profile_kernel(
        "cholesky_right",
        &kernels::cholesky_right(),
        16,
        32,
        gen::spd_ws_init("A", 32, 3),
    );
    profile_kernel(
        "matmul_ijk",
        &kernels::matmul_ijk(),
        8,
        32,
        |_: &str, _: &[usize]| 1.0,
    );
    cache::publish_stats();
    probe::set_enabled(false);
    let profile = probe::profile();
    print!("\n{}", profile.render_tree());

    // 3. Emit the machine-readable artifact.
    let mut report = BenchReport::new();
    report.field_str("schema", "shackle-probe-profile-v1");
    report.field_raw(
        "overhead",
        format!(
            "{{\"disabled_secs\": {disabled_secs:.6}, \
             \"enabled_secs\": {enabled_secs:.6}, \"ratio\": {ratio:.4}}}"
        ),
    );
    report.field_raw("profile", profile.to_json().trim_end());
    report
        .write("BENCH_profile.json")
        .expect("write BENCH_profile.json");
    println!("wrote BENCH_profile.json");
}

/// One instrumented pipeline pass: search (enumerate + grow, with the
/// Theorem-1 legality queries nested inside), codegen, compiled
/// execution and the memory-hierarchy sweep, all under a per-kernel
/// span so the phase tree groups by kernel.
fn profile_kernel(
    kernel: &'static str,
    program: &Program,
    width: i64,
    n: i64,
    init: impl Fn(&str, &[usize]) -> f64 + Sync,
) {
    let _kernel = probe::span(kernel);
    let product = {
        let _s = probe::span("search");
        let cfg = SearchConfig {
            width,
            ..Default::default()
        };
        let legal = enumerate_legal(program, &cfg);
        let seed = vec![legal[0].shackle.clone()];
        complete_product(program, seed, &legal)
    };
    let blocked = generate_scanned(program, &product);
    let params = BTreeMap::from([("N".to_string(), n)]);
    {
        let _s = probe::span("exec");
        let mut ws = Workspace::for_program(&blocked, &params, &init);
        execute_compiled(&blocked, &mut ws, &params, &mut NullObserver);
    }
    {
        let _s = probe::span("memsim");
        let (_, trace) = CompactTrace::capture(&blocked, &params, &init);
        let kb = 1024;
        let grid = shackle_bench::memsweep::config_grid(64, &[8 * kb, 32 * kb, 128 * kb], &[2, 4]);
        let mut sim = StackSim::new(grid[0].line, &grid);
        trace.replay_into(&mut sim);
        let mut h = Hierarchy::sp2_thin_node();
        trace.replay_into(&mut h);
    }
}
