//! The metric tables: what BENCHMARK.json lists, by name, unit and
//! direction, and how each per-layer metric is read out of a trace.
//!
//! One table per kind so the manifest, the printed report and the JSON
//! result cannot disagree about a name or a unit
//! (`tests::manifest_matches_the_tables` pins BENCHMARK.json to them).

use crate::stats;
use crate::trace::{Snapshot, Trace};

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen. A bound
    /// belongs to a metric name, not to a workload, so each is set by
    /// the workload on which identical code spreads most (`host_run`,
    /// memory-bound native code on a shared VM); see the README for the
    /// spreads measured and `benchmark/results/` for the runs.
    pub bound: f64,
}

#[rustfmt::skip]
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd { name: "round_ms", unit: "ms", better: "lower", bound: 0.10 },
    EndToEnd { name: "item_ms_geomean", unit: "ms", better: "lower", bound: 0.10 },
    EndToEnd { name: "work_per_s", unit: "1/s", better: "higher", bound: 0.10 },
    EndToEnd { name: "gain_geomean", unit: "ratio", better: "higher", bound: 0.10 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.10 },
    EndToEnd { name: "ok_share", unit: "ratio", better: "higher", bound: 0.001 },
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
];

/// Where a per-layer metric comes from. Spans are named by their own
/// (leaf) name and summed over every path they appear under; a timing
/// is the lower decile over the traced rounds of the per-round value, a
/// count the median (the rounds agree).
#[derive(Clone, Copy)]
pub enum Source {
    /// Self time of these spans per round, ms.
    SpanMs(&'static [&'static str]),
    /// Self time of the span per call, µs.
    SpanUsPerCall(&'static str),
    /// Calls of the span per round.
    Calls(&'static str),
    /// Sum of these probe counters per round.
    Counters(&'static [&'static str]),
    /// Sum of the first counters ÷ sum of the second.
    Ratio(&'static [&'static str], &'static [&'static str]),
    /// Millions of the counter per second of the span's self time.
    MillionPerS(&'static str, &'static str),
    /// Self time of the span during the traced run's set-up phase, ms.
    SetupSpanMs(&'static str),
    /// A probe counter over the set-up phase.
    SetupCounter(&'static str),
    /// An exact fact of one round the workload states about itself
    /// (`Workload::facts`).
    Fact(&'static str),
    /// A value the run loop or a one-shot layer probe hands back under
    /// the metric's own name.
    Direct,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub source: Source,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    source: Source,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
    }
}

const POLY_QUERIES: &[&str] = &[
    "poly.feasibility_queries",
    "poly.projection_queries",
    "poly.gist_queries",
];
const POLY_HITS: &[&str] = &[
    "poly.feasibility_hits",
    "poly.projection_hits",
    "poly.gist_hits",
];

/// Every traced run reports every one of these for the workload it ran;
/// a layer the workload never enters reads 0.
#[rustfmt::skip]
pub const PER_LAYER: [PerLayer; 59] = [
    // polyhedra: the three solvers run on cache misses only
    layer("polyhedra.omega_ms", "ms", "lower", Source::SpanMs(&["omega"])),
    layer("polyhedra.fm_ms", "ms", "lower", Source::SpanMs(&["fm"])),
    layer("polyhedra.gist_ms", "ms", "lower", Source::SpanMs(&["gist"])),
    layer("polyhedra.queries", "count", "lower", Source::Counters(POLY_QUERIES)),
    layer("polyhedra.hit_ratio", "ratio", "higher", Source::Ratio(POLY_HITS, POLY_QUERIES)),
    layer("polyhedra.fm_rows_combined", "count", "lower", Source::Counters(&["poly.fm_rows_combined"])),
    layer("polyhedra.unknown", "count", "lower", Source::Counters(&["poly.unknown"])),
    // ir
    layer("ir.parse_ms", "ms", "lower", Source::SpanMs(&["ir.parse"])),
    layer("ir.emit_ms", "ms", "lower", Source::SetupSpanMs("ir.emit")),
    layer("ir.emit_bytes", "count", "lower", Source::Fact("emit_bytes")),
    // core
    layer("core.enumerate_ms", "ms", "lower", Source::SpanMs(&["enumerate"])),
    layer("core.legality_ms", "ms", "lower", Source::SpanMs(&["legality"])),
    layer("core.grow_ms", "ms", "lower", Source::SpanMs(&["grow"])),
    layer("core.codegen_ms", "ms", "lower", Source::SpanMs(&["codegen"])),
    layer("core.rescore_ms", "ms", "lower", Source::SpanMs(&["search.topk_rescore"])),
    layer("core.grid_ms", "ms", "lower", Source::SpanMs(&["core.grid"])),
    layer("core.legality_queries", "count", "lower", Source::Counters(&["core.legality_queries"])),
    layer("core.codegen_programs", "count", "lower", Source::Counters(&["core.codegen_programs"])),
    layer("core.candidates", "count", "lower", Source::Fact("candidates")),
    layer("core.legal", "count", "higher", Source::Fact("legal")),
    layer("core.products", "count", "higher", Source::Fact("products")),
    layer("core.rescored", "count", "lower", Source::Fact("rescored")),
    layer("core.code_bytes", "count", "lower", Source::Fact("code_bytes")),
    // model
    layer("model.predict_ms", "ms", "lower", Source::SpanMs(&["model.predict"])),
    layer("model.predict_us", "us", "lower", Source::SpanUsPerCall("model.predict")),
    layer("model.predictions", "count", "lower", Source::Calls("model.predict")),
    layer("model.geometry_ms", "ms", "lower", Source::SpanMs(&["model.geometry"])),
    layer("model.sim_rank", "count", "lower", Source::Fact("sim_rank")),
    layer("model.cycle_ratio_geomean", "ratio", "lower", Source::Fact("cycle_ratio_geomean")),
    // exec
    layer("exec.compile_ms", "ms", "lower", Source::SpanMs(&["compile"])),
    layer("exec.bytecode_run_ms", "ms", "lower", Source::SpanMs(&["run"])),
    layer("exec.tree_run_ms", "ms", "lower", Source::SetupSpanMs("interp")),
    layer("exec.native_run_ms", "ms", "lower", Source::SpanMs(&["native.run"])),
    layer("exec.native_build_ms", "ms", "lower", Source::SetupSpanMs("native.build")),
    layer("exec.native_spawn_ms", "ms", "lower", Source::SetupSpanMs("exec.native_spawn")),
    layer("exec.rustc_invocations", "count", "lower", Source::SetupCounter("native.rustc_invocations")),
    layer("exec.programs_compiled", "count", "lower", Source::Counters(&["exec.programs_compiled"])),
    layer("exec.instances", "count", "lower", Source::Counters(&["exec.instances"])),
    layer("exec.flops", "count", "lower", Source::Counters(&["exec.flops"])),
    layer("exec.native_pipe_mb", "MB", "lower", Source::Fact("pipe_mb")),
    // memsim: fed inline by the bytecode tier's `run` spans
    layer("memsim.accesses", "count", "lower", Source::Counters(&["memsim.accesses"])),
    layer("memsim.sim_maccess_per_s", "1/s", "higher", Source::MillionPerS("memsim.accesses", "run")),
    // serve
    layer("serve.connection_ms", "ms", "lower", Source::SpanMs(&["serve.connection"])),
    layer("serve.optimize_ms", "ms", "lower", Source::SpanMs(&["optimize"])),
    layer("serve.preflight_ms", "ms", "lower", Source::SpanMs(&["preflight"])),
    layer("serve.pipeline_ms", "ms", "lower", Source::SpanMs(&["search", "pipeline.auto_search"])),
    layer("serve.quote_us", "us", "lower", Source::SpanUsPerCall("quote")),
    layer("serve.requests", "count", "higher", Source::Counters(&["serve.requests"])),
    layer("serve.errors", "count", "lower", Source::Counters(&["serve.errors"])),
    layer("serve.store_save_ms", "ms", "lower", Source::Direct),
    layer("serve.store_load_ms", "ms", "lower", Source::Direct),
    layer("serve.store_bytes", "count", "lower", Source::Direct),
    layer("serve.tcp_roundtrip_us", "us", "lower", Source::Direct),
    layer("serve.tcp_roundtrip_p50_us", "us", "lower", Source::Direct),
    // the run itself
    layer("run.rounds", "count", "higher", Source::Direct),
    layer("run.round_p50_ms", "ms", "lower", Source::Direct),
    layer("run.round_p90_ms", "ms", "lower", Source::Direct),
    layer("run.trace_overhead", "ratio", "lower", Source::Direct),
    layer("run.loadavg_start", "count", "lower", Source::Direct),
];

/// Evaluate a per-layer metric. `facts` are the workload's and `direct`
/// the run loop's and the one-shot probes' values; a name found in
/// neither, like a span that never opened, reads 0.
pub fn evaluate(
    source: Source,
    name: &str,
    trace: &Trace,
    facts: &[(&'static str, f64)],
    direct: &[(&'static str, f64)],
) -> f64 {
    let named = |list: &[(&'static str, f64)], n: &str| {
        list.iter().find(|(k, _)| *k == n).map_or(0.0, |(_, v)| *v)
    };
    let per_round =
        |f: &dyn Fn(&Snapshot) -> f64| -> Vec<f64> { trace.rounds.iter().map(f).collect() };
    let lo = |f: &dyn Fn(&Snapshot) -> f64| {
        let v = per_round(f);
        if v.is_empty() {
            0.0
        } else {
            stats::lo(&v)
        }
    };
    let median = |f: &dyn Fn(&Snapshot) -> f64| {
        let v = per_round(f);
        if v.is_empty() {
            0.0
        } else {
            stats::median(&v)
        }
    };
    let self_ns =
        |s: &Snapshot, leaves: &[&str]| -> f64 { leaves.iter().map(|l| s.span(l).0 as f64).sum() };
    let sum =
        |s: &Snapshot, names: &[&str]| -> f64 { names.iter().map(|n| s.counter(n) as f64).sum() };
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    match source {
        Source::SpanMs(leaves) => lo(&|s| self_ns(s, leaves)) / 1e6,
        Source::SpanUsPerCall(leaf) => {
            lo(&|s| {
                let (ns, calls) = s.span(leaf);
                ratio(ns as f64, calls as f64)
            }) / 1e3
        }
        Source::Calls(leaf) => median(&|s| s.span(leaf).1 as f64),
        Source::Counters(names) => median(&|s| sum(s, names)),
        Source::Ratio(a, b) => median(&|s| ratio(sum(s, a), sum(s, b))),
        Source::MillionPerS(counter, leaf) => ratio(
            median(&|s| s.counter(counter) as f64) / 1e6,
            lo(&|s| s.span(leaf).0 as f64) / 1e9,
        ),
        Source::SetupSpanMs(leaf) => trace.setup.span(leaf).0 as f64 / 1e6,
        Source::SetupCounter(counter) => trace.setup.counter(counter) as f64,
        Source::Fact(fact) => named(facts, fact),
        Source::Direct => named(direct, name),
    }
}

/// One `"name": {"value": v, "unit": "u"}` JSON member.
pub fn json_member(name: &str, value: f64, unit: &str) -> String {
    // Display prints f64 with every digit it needs to round-trip
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

/// The value of metric `name` in a result line this program printed.
pub fn value_in(json: &str, name: &str) -> Option<f64> {
    let pat = format!("\"{name}\": {{\"value\": ");
    let rest = &json[json.find(&pat)? + pat.len()..];
    rest[..rest.find(',')?].trim().parse().ok()
}

/// BENCHMARK.json, rendered from the tables.
pub fn manifest(run_seconds: u64) -> String {
    let workloads: Vec<String> = crate::workloads::WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SpanRow;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(crate::workloads::WORKLOADS.iter().map(|w| w.0));
        for n in &names {
            assert!(
                n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric(),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            total,
            "a metric or workload name is used twice"
        );
        for (_, why) in crate::workloads::WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n') && !why.contains('"'));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == "lower");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn manifest_matches_the_tables() {
        let checked_in = include_str!("../../BENCHMARK.json");
        assert_eq!(
            checked_in,
            manifest(crate::RUN_SECONDS),
            "regenerate with `benchmark manifest`"
        );
    }

    #[test]
    fn result_values_round_trip() {
        let line = format!(
            "{{\"correct\": true, \"metrics\": {{{}, {}}}}}",
            json_member("round_ms", 223.29312, "ms"),
            json_member("setup_s", 1.5, "s")
        );
        assert_eq!(value_in(&line, "round_ms"), Some(223.29312));
        assert_eq!(value_in(&line, "setup_s"), Some(1.5));
        assert_eq!(value_in(&line, "missing"), None);
    }

    #[test]
    fn per_layer_values_come_out_of_the_trace() {
        let round = |x_ns: u64, x_calls: u64, n: u64| Snapshot {
            spans: vec![
                SpanRow {
                    path: "top".into(),
                    calls: 1,
                    wall_ns: 2 * x_ns,
                    self_ns: x_ns,
                },
                SpanRow {
                    path: "top/x".into(),
                    calls: x_calls,
                    wall_ns: x_ns,
                    self_ns: x_ns,
                },
            ],
            counters: vec![("n".into(), n), ("hits".into(), n / 2)],
        };
        let trace = Trace {
            setup: round(7_000_000, 1, 3),
            rounds: vec![
                round(4_000_000, 2, 8),
                round(2_000_000, 2, 8),
                round(9_000_000, 2, 8),
            ],
        };
        let facts = [("f", 42.0)];
        let direct = [("run.rounds", 3.0)];
        let eval = |source, name| evaluate(source, name, &trace, &facts, &direct);
        // timings are the lower decile over rounds, counts the median
        assert_eq!(eval(Source::SpanMs(&["x"]), ""), 2.0);
        assert_eq!(eval(Source::SpanMs(&["x", "top"]), ""), 4.0);
        assert_eq!(eval(Source::SpanUsPerCall("x"), ""), 1000.0);
        assert_eq!(eval(Source::Calls("x"), ""), 2.0);
        assert_eq!(eval(Source::Counters(&["n", "hits"]), ""), 12.0);
        assert_eq!(eval(Source::Ratio(&["hits"], &["n"]), ""), 0.5);
        assert_eq!(eval(Source::MillionPerS("n", "x"), ""), 8.0 / 1e6 / 0.002);
        assert_eq!(eval(Source::SetupSpanMs("x"), ""), 7.0);
        assert_eq!(eval(Source::SetupCounter("n"), ""), 3.0);
        assert_eq!(eval(Source::Fact("f"), ""), 42.0);
        assert_eq!(eval(Source::Direct, "run.rounds"), 3.0);
        // a layer the workload never enters reads 0
        assert_eq!(eval(Source::SpanMs(&["absent"]), ""), 0.0);
        assert_eq!(eval(Source::SpanUsPerCall("absent"), ""), 0.0);
        assert_eq!(eval(Source::Ratio(&["n"], &["absent"]), ""), 0.0);
        assert_eq!(eval(Source::Fact("absent"), ""), 0.0);
    }
}
