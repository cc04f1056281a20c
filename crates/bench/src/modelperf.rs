//! The model-vs-simulate sweep: validates the `shackle-model`
//! analytical predictor against exact simulation on a dense candidate
//! grid for every in-repo kernel, and measures the two-phase search
//! speedup.
//!
//! For each kernel the harness builds a grid of shackle products —
//! every legal shape ([`shackle_core::search::grid_shapes`], plus the
//! hand-built QR and ADI shackles the automatic enumeration cannot
//! reach, plus two-level self-products) crossed with a block width
//! sweep: per-factor square widths
//! ([`shackle_core::search::width_grid`]) or, for kernels whose specs
//! set `rect`, independent per-cut widths
//! ([`shackle_core::search::rect_width_grid`]) so a 2-D blocking
//! explores every rectangular tile shape. Then the harness:
//!
//! 1. runs the two-phase search (`two_phase`: analytical rank of the
//!    whole grid, exact probe-cache rescore of the top-K survivors),
//!    timed over [`Timing::measure`] repetitions;
//! 2. runs the pre-model pipeline — simulate *every* candidate — on the
//!    same grid, same parallelism, timed the same way;
//! 3. checks ranking accuracy (the simulated winner's rank in the model
//!    ordering, overlap of the model and simulator top-K sets) and
//!    per-candidate miss-count error against the ground truth;
//! 4. asserts the simulated winner lands inside the model's top-K, that
//!    the winner is exactly legal at its swept widths (the grid assumes
//!    width-independence of legality; this is the backstop), and that
//!    the two-phase search clears the speedup floor.
//!
//! `BENCH_model.json` records all of it. The `modelperf` binary drives
//! this module; `perf_report --quick` embeds the quick variant.

use crate::report::{assert_speedup, BenchReport, Timing};
use shackle_core::search::{
    grid_shapes, reblock, rect_width_grid, two_phase, width_grid, SearchConfig,
};
use shackle_core::{check_legality, par, scan, Shackle};
use shackle_ir::Program;
use shackle_kernels::catalogue::{catalogue, Init};
use shackle_kernels::trace::trace_execution;
use shackle_memsim::ground_truth;
use shackle_model::{predict, KernelGeometry};
use shackle_serve::pipeline::PROBE_CACHE;
use std::collections::BTreeMap;

/// Memory latency behind [`PROBE_CACHE`], matching `auto_search`'s
/// scoring accounting.
pub const PROBE_MEM_LATENCY: u64 = 60;

/// Relative slack under which two simulated cycle counts count as the
/// same winner. Partially-blockable kernels can present a *plateau*:
/// the tensor contraction's legal candidates only reblock the output
/// walk, so the dominant (and unblockable) reduction-sweep traffic is
/// identical everywhere and the full grid sims within 0.007% of the
/// optimum. Ranking by exact equality there measures remainder-block
/// noise rather than the model, so anything within this factor of the
/// simulated optimum is treated as a co-winner.
pub const SIM_TIE_TOLERANCE: f64 = 0.002;

/// Options for one sweep run.
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// Quick mode: a 3-width grid and one timing repetition — the CI
    /// smoke configuration (relaxed speedup floor).
    pub quick: bool,
    /// Survivors re-scored with the exact simulator.
    pub top_k: usize,
    /// Timing repetitions for the speedup rows.
    pub runs: usize,
    /// Override the block-width sweep (applies to every kernel).
    pub widths: Option<Vec<i64>>,
    /// Restrict to kernels whose name is in the list.
    pub kernels: Option<Vec<String>>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            quick: false,
            top_k: 8,
            runs: 5,
            widths: None,
            kernels: None,
        }
    }
}

/// One kernel's sweep specification: the program, the probe size, the
/// workspace initializer, the product shapes (legal at their pivot
/// widths) and the width sweep.
pub struct SweepSpec {
    /// Kernel name (matches ROADMAP/EXPERIMENTS naming).
    pub name: &'static str,
    /// The input program.
    pub program: Program,
    /// Problem size scored on the probe cache.
    pub probe_n: i64,
    /// Workspace initializer.
    pub init: Init,
    /// Product shapes; widths are pivots, re-swept by the grid.
    pub shapes: Vec<Vec<Shackle>>,
    /// Block widths swept per factor (full cross product).
    pub widths: Vec<i64>,
    /// Rectangular sweep: widths vary per *cut* instead of per factor
    /// ([`rect_width_grid`]), so a 2-D blocking explores every
    /// `bi × bj` combination independently.
    pub rect: bool,
}

/// The sweep result for one kernel.
#[derive(Clone, Debug)]
pub struct SweepRow {
    /// Kernel name.
    pub kernel: &'static str,
    /// Probe problem size.
    pub probe_n: i64,
    /// Product shapes in the grid.
    pub shapes: usize,
    /// Grid candidates ranked analytically.
    pub candidates: usize,
    /// Survivors re-scored exactly.
    pub top_k: usize,
    /// Two-phase winner (grid index).
    pub model_winner: usize,
    /// Simulate-everything winner (grid index).
    pub sim_winner: usize,
    /// The simulated winner's rank in the model ordering (0 = model's
    /// first choice).
    pub sim_winner_model_rank: usize,
    /// Model top-K candidates that are also in the simulator's top-K.
    pub topk_overlap: usize,
    /// Exact probe cycles of the two-phase winner.
    pub winner_cycles: u64,
    /// Exact probe cycles of the simulate-everything winner.
    pub sim_winner_cycles: u64,
    /// Two-phase wall clock.
    pub two_phase: Timing,
    /// Simulate-every-candidate wall clock.
    pub simulate_all: Timing,
    /// `simulate_all.mean / two_phase.mean`.
    pub speedup: f64,
    /// Mean relative miss-count error of the model over the grid
    /// (`|pred - sim| / max(sim, 1)`).
    pub miss_err_mean: f64,
    /// Maximum relative miss-count error over the grid.
    pub miss_err_max: f64,
    /// Rectangular sweeps only: best exact cycles over the square
    /// candidates (every cut the same width) of the grid.
    pub best_square_cycles: Option<u64>,
    /// Rectangular sweeps only: best exact cycles over the properly
    /// rectangular candidates.
    pub best_rect_cycles: Option<u64>,
}

/// Every cut of every factor shares one width — the candidates the
/// square sweep could have reached.
fn is_square(product: &[Shackle]) -> bool {
    let mut width = None;
    for s in product {
        for c in s.blocking().cuts() {
            match width {
                None => width = Some(c.width),
                Some(w) if w == c.width => {}
                _ => return false,
            }
        }
    }
    true
}

/// Block widths for a dense sweep at probe size `n`: powers of two and
/// their midpoints up to `n`, clipped (at least two widths).
fn dense_widths(n: i64) -> Vec<i64> {
    let all = [2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 64];
    all.iter().copied().filter(|&w| w <= n).collect()
}

/// A contiguous width range for single-factor kernels, where the grid
/// is quadratic in the width count only through two-level products.
///
/// The triangular kernels floor the range at 4: widths 2–3 put whole
/// blocks inside a fraction of one cache line (16 doubles), where the
/// simulator rewards line sharing across adjacent windows — below the
/// line granularity the model deliberately resolves (DESIGN.md
/// §"Analytical cost model"). Their ceiling stays ≲ N/5 so blocks are
/// not mostly guard-clipped (same section).
fn range_widths(lo: i64, hi: i64) -> Vec<i64> {
    (lo..=hi).collect()
}

/// The per-kernel sweep specifications, total over the catalogue
/// (program and initializer come from it; the grids are this harness's
/// choice). `opts.widths` overrides every width list; quick mode
/// shrinks them to three values.
///
/// # Panics
///
/// Panics on a catalogue kernel with neither a sweep nor a documented
/// exemption.
pub fn specs(opts: &SweepOptions) -> Vec<SweepSpec> {
    let widths = |full: Vec<i64>| -> Vec<i64> {
        if let Some(w) = &opts.widths {
            return w.clone();
        }
        if opts.quick {
            vec![4, 8, 16]
        } else {
            full
        }
    };
    let mut out = Vec::new();
    for entry in catalogue() {
        let p = (entry.build)();
        let shapes_at = |pivot: i64, reversed_directions: bool| {
            let cfg = SearchConfig {
                width: pivot,
                reversed_directions,
                ..Default::default()
            };
            grid_shapes(&p, &cfg)
        };
        let auto = |pivot: i64| shapes_at(pivot, false);
        // QR and ADI need hand-built shackles (dummy references / fused
        // statements are beyond the automatic enumeration), single cut
        // factors: the width sweep is linear, so the grid goes dense
        // through a contiguous width range and the two-level
        // self-product (the §6.3 multi-level construction; kept only if
        // exactly legal at the pivot widths).
        let hand_built = || {
            let single = entry.single.expect("a hand-built canonical shackle");
            let f = reblock(&p, &single(&p, 8), &[8]);
            let mut two_level = f.clone();
            two_level.extend(reblock(&p, &f, &[4]));
            let legal = check_legality(&p, &two_level).is_legal();
            std::iter::once(f)
                .chain(legal.then_some(two_level))
                .collect()
        };
        // (row name, probe size, product shapes, full width sweep, rect)
        type Sweep = (&'static str, i64, Vec<Vec<Shackle>>, Vec<i64>, bool);
        let sweeps: Vec<Sweep> = match entry.name {
            "matmul_ijk" => {
                // Rectangular-tile witness: matmul restricted to its two
                // single-level B-blocking shapes, swept per-cut. The
                // two-level self-products are excluded because a per-cut
                // sweep over four cuts is |widths|^4 per shape, and the
                // grid stays inside the model's documented scope the
                // same way the triangular grids do: widths floor at a
                // quarter cache line (below it the simulator rewards
                // sub-line sharing the model does not track — matmul's
                // global rect optimum (10, 2) lives there), and the
                // A/C-blocking families are out because at N = 48 their
                // narrow-width footprints sit exactly on the probe
                // cache's 4-way conflict cliff (model 33k cycles, sim
                // 716k for C at (16, 2) — conflict misses are invisible
                // to any capacity model). Within scope the best
                // rectangular tile strictly beats the best square one
                // (best_square_cycles / best_rect_cycles in the row).
                let mut b_only = auto(8);
                b_only.retain(|s| s.len() == 1 && s[0].blocking().array() == "B");
                vec![
                    ("matmul_ijk", 48, auto(8), dense_widths(48), false),
                    ("matmul_rect", 48, b_only, range_widths(4, 26), true),
                ]
            }
            "cholesky_right" | "cholesky_left" | "gauss" => {
                vec![(entry.name, 80, auto(16), range_widths(4, 16), false)]
            }
            "qr_householder" => vec![(entry.name, 36, hand_built(), range_widths(2, 34), false)],
            "adi" => vec![(entry.name, 64, hand_built(), range_widths(2, 34), false)],
            // Backsolve's legal space is the §8 reversed-direction one,
            // so its shapes come from the enumeration with reversed cut
            // sets enabled; the grid then re-sweeps widths across its
            // six shapes (two of them X×X products).
            "backsolve" => vec![(
                entry.name,
                48,
                shapes_at(8, true),
                range_widths(2, 34),
                false,
            )],
            // SYRK is triangular, so it inherits the triangular kernels'
            // grid limits (see EXPERIMENTS.md): widths 4–16 at N = 80
            // keep blocks at or above a quarter cache line and small
            // enough that the triangles-as-rectangles conservatism does
            // not dominate — at N = 48 with widths up to 48 the
            // guard-clipped fat blocks push the simulated winner far
            // outside the model's top-K.
            "syrk" => vec![(entry.name, 80, auto(8), range_widths(4, 16), false)],
            // Jacobi sweeps rectangularly: column-major storage plus
            // 128-byte lines favour tall, narrow tiles, so every
            // (bi, bj) combination is scored independently — the kernel
            // the square grid would mis-rank.
            "jacobi2d" => vec![(entry.name, 48, auto(8), dense_widths(48), true)],
            // The tensor contraction is only partially blockable (the
            // rank-2 reduction chain into C[I,J] outlaws full-rank
            // operand blockings), so the grid is the rectangular sweep
            // over the two legal output blockings. O(N^4) work keeps
            // the probe size small.
            "tensor_contract" => vec![(entry.name, 24, auto(8), range_widths(2, 24), true)],
            // Exempt: `banded_cholesky` takes a second parameter `P`
            // the single-`N` sweep protocol cannot express (the exec
            // tiers and the banded pipeline tests exercise it), and
            // `gauss_seidel_1d` has no legal shackle at all (its
            // negative search result is `perf_report`'s BENCH_search
            // row).
            "banded_cholesky" | "gauss_seidel_1d" => vec![],
            other => panic!(
                "catalogue kernel {other} has neither a modelperf sweep \
                 spec nor a documented exemption"
            ),
        };
        for (name, probe_n, shapes, full, rect) in sweeps {
            out.push(SweepSpec {
                name,
                program: p.clone(),
                probe_n,
                init: entry.init(&entry.params(probe_n), 3),
                shapes,
                widths: widths(full),
                rect,
            });
        }
    }
    if let Some(filter) = &opts.kernels {
        out.retain(|s| filter.iter().any(|k| k == s.name));
    }
    out
}

/// Run one kernel's sweep (see the module docs for the four stages).
///
/// # Panics
///
/// Panics if the simulated winner falls outside the model's top-K, if
/// either winner is not exactly legal at its swept widths, or (full
/// mode) if the grid has fewer than 1000 candidates.
pub fn sweep_kernel(spec: &SweepSpec, opts: &SweepOptions) -> SweepRow {
    let params = BTreeMap::from([("N".to_string(), spec.probe_n)]);
    let geom = KernelGeometry::new(&spec.program, &params);
    let grid = if spec.rect {
        rect_width_grid(&spec.program, &spec.shapes, &spec.widths)
    } else {
        width_grid(&spec.program, &spec.shapes, &spec.widths)
    };
    if !opts.quick && opts.widths.is_none() {
        assert!(
            grid.len() >= 1000,
            "{}: dense grid has only {} candidates",
            spec.name,
            grid.len()
        );
    }
    let top_k = opts.top_k.min(grid.len());

    let model_score =
        |p: &Vec<Shackle>| predict(&geom, p, &[PROBE_CACHE], PROBE_MEM_LATENCY).cycles;
    let exact_score = |p: &Vec<Shackle>| {
        let code = scan::generate_scanned(&spec.program, p);
        ground_truth(&[PROBE_CACHE], PROBE_MEM_LATENCY, |h| {
            trace_execution(&code, &params, &spec.init, h);
        })
        .cycles
    };

    // 1. the two-phase search, timed
    let mut outcome = None;
    let two_phase_t = Timing::measure(opts.runs, || {
        outcome = two_phase(&grid, top_k, model_score, exact_score);
    });
    let outcome = outcome.expect("non-empty grid");

    // 2. the pre-model pipeline: simulate everything, timed (same
    //    parallel fan-out, so the ratio measures the model, not par)
    let mut sim_cycles: Vec<u64> = Vec::new();
    let simulate_all_t = Timing::measure(opts.runs, || {
        sim_cycles = par::map(&grid, exact_score);
    });

    // 3. ranking accuracy and miss error vs. the ground truth. Dense
    //    grids routinely hold several sim-optimal candidates (equal —
    //    or near-equal — cycle counts); two-phase search recovers the
    //    optimum as soon as *any* of them survives the analytical cut,
    //    so the reported rank is the best model rank across the tie
    //    set. Ties are tolerance-aware (0.2%): a grid can be a
    //    *plateau* — the tensor contraction's output-only partial
    //    blockings leave the unblockable (K,L) reduction sweep
    //    untouched, so every candidate sims within 0.007% of the
    //    optimum and an exact-equality rank would measure remainder
    //    -block noise, not ranking power.
    let best_sim = *sim_cycles.iter().min().expect("non-empty grid");
    let tied = |c: u64| c as f64 <= best_sim as f64 * (1.0 + SIM_TIE_TOLERANCE);
    let (sim_winner_model_rank, sim_winner) = outcome
        .ranking
        .iter()
        .enumerate()
        .filter(|&(_, &i)| tied(sim_cycles[i]))
        .map(|(rank, &i)| (rank, i))
        .next()
        .expect("ranking is a permutation");
    let mut sim_rank: Vec<usize> = (0..grid.len()).collect();
    sim_rank.sort_by_key(|&i| (sim_cycles[i], i));
    let topk_overlap = outcome.ranking[..top_k]
        .iter()
        .filter(|i| sim_rank[..top_k].contains(i))
        .count();
    let mut err_sum = 0.0;
    let mut err_max: f64 = 0.0;
    for (i, &mc) in outcome.model_scores.iter().enumerate() {
        // cycles are misses x mem latency on the zero-latency probe
        let (pred, sim) = (
            mc as f64 / PROBE_MEM_LATENCY as f64,
            sim_cycles[i] as f64 / PROBE_MEM_LATENCY as f64,
        );
        let err = (pred - sim).abs() / sim.max(1.0);
        err_sum += err;
        err_max = err_max.max(err);
    }

    // Rectangular sweeps record the square-vs-rectangular evidence: the
    // best exact cycles reachable with equal widths everywhere against
    // the best over properly rectangular blocks (EXPERIMENTS.md cites
    // these).
    let (best_square_cycles, best_rect_cycles) = if spec.rect {
        let best_of = |want_square: bool| {
            grid.iter()
                .zip(&sim_cycles)
                .filter(|(p, _)| is_square(p) == want_square)
                .map(|(_, &c)| c)
                .min()
        };
        (best_of(true), best_of(false))
    } else {
        (None, None)
    };

    // 4. the acceptance backstops
    assert!(
        sim_winner_model_rank < top_k,
        "{}: simulated winner (grid index {}) has model rank {}, outside top-{}",
        spec.name,
        sim_winner,
        sim_winner_model_rank,
        top_k
    );
    for idx in [outcome.winner, sim_winner] {
        assert!(
            check_legality(&spec.program, &grid[idx]).is_legal(),
            "{}: swept winner {} must be exactly legal",
            spec.name,
            idx
        );
    }

    SweepRow {
        kernel: spec.name,
        probe_n: spec.probe_n,
        shapes: spec.shapes.len(),
        candidates: grid.len(),
        top_k,
        model_winner: outcome.winner,
        sim_winner,
        sim_winner_model_rank,
        topk_overlap,
        winner_cycles: outcome.winner_score,
        sim_winner_cycles: sim_cycles[sim_winner],
        two_phase: two_phase_t,
        simulate_all: simulate_all_t,
        speedup: simulate_all_t.mean / two_phase_t.mean,
        miss_err_mean: err_sum / grid.len() as f64,
        miss_err_max: err_max,
        best_square_cycles,
        best_rect_cycles,
    }
}

fn row_json(r: &SweepRow) -> String {
    format!(
        "{{\"kernel\": \"{}\", \"probe_n\": {}, \"shapes\": {}, \
         \"candidates\": {}, \"top_k\": {}, \
         \"model_winner\": {}, \"sim_winner\": {}, \
         \"sim_winner_model_rank\": {}, \"winner_in_top_k\": {}, \
         \"topk_overlap\": {}, \
         \"winner_cycles\": {}, \"sim_winner_cycles\": {}, \
         \"two_phase\": {}, \"simulate_all\": {}, \"speedup\": {:.3}, \
         \"miss_err_mean\": {:.4}, \"miss_err_max\": {:.4}, \
         \"best_square_cycles\": {}, \"best_rect_cycles\": {}}}",
        r.kernel,
        r.probe_n,
        r.shapes,
        r.candidates,
        r.top_k,
        r.model_winner,
        r.sim_winner,
        r.sim_winner_model_rank,
        r.sim_winner_model_rank < r.top_k,
        r.topk_overlap,
        r.winner_cycles,
        r.sim_winner_cycles,
        r.two_phase.to_json(),
        r.simulate_all.to_json(),
        r.speedup,
        r.miss_err_mean,
        r.miss_err_max,
        r.best_square_cycles
            .map_or_else(|| "null".into(), |c| c.to_string()),
        r.best_rect_cycles
            .map_or_else(|| "null".into(), |c| c.to_string()),
    )
}

/// Run the full sweep and write `BENCH_model.json`. Returns the rows.
///
/// The aggregate speedup floor is 10x in full mode and 2x in quick mode
/// (tiny grids cannot amortize as much).
pub fn run(opts: &SweepOptions) -> Vec<SweepRow> {
    let specs = specs(opts);
    println!(
        "{:<16} {:>6} {:>7} {:>10} {:>6} {:>9} {:>8} {:>12} {:>12} {:>8}",
        "model sweep",
        "n",
        "shapes",
        "candidates",
        "top_k",
        "sim rank",
        "overlap",
        "two-phase s",
        "sim-all s",
        "speedup"
    );
    let mut rows = Vec::new();
    for spec in &specs {
        let r = sweep_kernel(spec, opts);
        println!(
            "{:<16} {:>6} {:>7} {:>10} {:>6} {:>9} {:>8} {:>12.4} {:>12.4} {:>7.1}x",
            r.kernel,
            r.probe_n,
            r.shapes,
            r.candidates,
            r.top_k,
            r.sim_winner_model_rank,
            r.topk_overlap,
            r.two_phase.mean,
            r.simulate_all.mean,
            r.speedup
        );
        rows.push(r);
    }

    let total_two: f64 = rows.iter().map(|r| r.two_phase.mean).sum();
    let total_sim: f64 = rows.iter().map(|r| r.simulate_all.mean).sum();
    let aggregate = total_sim / total_two;
    let floor = if opts.quick { 2.0 } else { 10.0 };
    println!(
        "{:<16} {:>52} {:>12.4} {:>12.4} {:>7.1}x",
        "aggregate", "", total_two, total_sim, aggregate
    );
    assert_speedup("two-phase model search (aggregate)", aggregate, floor);

    let mut report = BenchReport::new();
    report.field_str("schema", "shackle-model-sweep-v1");
    report.field_raw(
        "options",
        format!(
            "{{\"quick\": {}, \"top_k\": {}, \"runs\": {}}}",
            opts.quick, opts.top_k, opts.runs
        ),
    );
    report.section("kernels");
    for r in &rows {
        report.row(row_json(r));
    }
    report.field_raw(
        "aggregate",
        format!(
            "{{\"two_phase_secs\": {total_two:.6}, \
             \"simulate_all_secs\": {total_sim:.6}, \
             \"speedup\": {aggregate:.3}, \"floor\": {floor:.1}, \
             \"winner_in_top_k_all\": {}}}",
            rows.iter().all(|r| r.sim_winner_model_rank < r.top_k)
        ),
    );
    report
        .write("BENCH_model.json")
        .expect("write BENCH_model.json");
    println!("wrote BENCH_model.json");
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_matmul_ranks_and_asserts() {
        let opts = SweepOptions {
            quick: true,
            runs: 1,
            kernels: Some(vec!["matmul_ijk".to_string()]),
            ..Default::default()
        };
        let specs = specs(&opts);
        assert_eq!(specs.len(), 1);
        let r = sweep_kernel(&specs[0], &opts);
        // 12 shapes (6 single + 6 product) over 3 widths
        assert_eq!(r.candidates, 6 * 3 + 6 * 9);
        assert!(r.sim_winner_model_rank < r.top_k);
        assert!(r.winner_cycles > 0);
        assert!(r.winner_cycles <= r.sim_winner_cycles * 2);
        assert!(r.miss_err_mean >= 0.0 && r.miss_err_max >= r.miss_err_mean);
    }

    #[test]
    fn specs_cover_every_in_repo_kernel() {
        let names: Vec<&str> = specs(&SweepOptions::default())
            .iter()
            .map(|s| s.name)
            .collect();
        assert_eq!(
            names,
            [
                "matmul_ijk",
                "matmul_rect",
                "cholesky_right",
                "cholesky_left",
                "adi",
                "gauss",
                "qr_householder",
                "backsolve",
                "syrk",
                "jacobi2d",
                "tensor_contract"
            ]
        );
        for s in specs(&SweepOptions::default()) {
            // grid cardinality: widths^factors per shape for the square
            // sweep, widths^cuts for the rectangular one
            let n: usize = s
                .shapes
                .iter()
                .map(|shape| {
                    let slots = if s.rect {
                        shape.iter().map(|f| f.blocking().cuts().len()).sum()
                    } else {
                        shape.len()
                    };
                    s.widths.len().pow(slots as u32)
                })
                .sum();
            assert!(n >= 1000, "{}: dense grid only reaches {}", s.name, n);
        }
    }
}
