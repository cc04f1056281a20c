//! `autotune_sweep`: the autotuning user's two-phase block-size sweep.
//!
//! Per row of the model sweep (`grid_shapes` + `width_grid` /
//! `rect_width_grid` → `KernelGeometry::new` + `predict` on every
//! candidate → `two_phase` exact rescoring of the top eight by
//! `generate_scanned` + `trace_execution` + `ground_truth`). The model,
//! the bytecode tier and memsim do nearly all the work, polyhedra
//! almost none (the shapes' legality queries hit the warm cache). Its
//! `gain_geomean` guards blocking quality against a model that gets
//! faster by getting worse.

use super::{RoundOut, Workload};
use crate::reference::{params, simulated_cycles, tree_equivalent, InitFn};
use crate::stats::{self, SplitMix};
use shackle_core::search::{
    grid_shapes, reblock, rect_width_grid, two_phase, width_grid, SearchConfig, TwoPhaseOutcome,
};
use shackle_core::{check_legality, scan, Shackle};
use shackle_exec::verify::hash_init;
use shackle_ir::{kernels, Program};
use shackle_kernels::gen::spd_ws_init;
use shackle_kernels::shackles;
use shackle_kernels::trace::trace_execution;
use shackle_memsim::ground_truth;
use shackle_model::{predict, KernelGeometry};
use shackle_polyhedra::cache;
use shackle_serve::pipeline::PROBE_CACHE;
use std::time::Instant;

/// Survivors of the model ranking that get exact simulation.
const TOP_K: usize = 8;
const MEM_LATENCY: u64 = 60;

/// Where a row's product shapes come from.
enum Shapes {
    /// The automatic enumeration at a pivot width.
    Auto(SearchConfig),
    /// Only the single-factor shapes blocking this array.
    AutoSingle(SearchConfig, &'static str),
    /// QR needs hand-built shackles (dummy references): the column
    /// shackle and its two-level self-product.
    QrColumns,
}

/// One row of the sweep.
struct Row {
    name: &'static str,
    program: Program,
    probe_n: i64,
    init: InitFn,
    shapes: Shapes,
    widths: Vec<i64>,
    /// Widths vary per cut (rectangular tiles) instead of per factor.
    rect: bool,
}

fn rows(seed: u64) -> Vec<Row> {
    let pivot = |width| SearchConfig {
        width,
        ..Default::default()
    };
    let range = |lo: i64, hi: i64| (lo..=hi).collect::<Vec<i64>>();
    let dense = |n: i64| -> Vec<i64> {
        [2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 40, 48, 64]
            .into_iter()
            .filter(|&w| w <= n)
            .collect()
    };
    let hashed = || -> InitFn { Box::new(hash_init(seed)) };
    vec![
        Row {
            name: "matmul_ijk",
            program: kernels::matmul_ijk(),
            probe_n: 32,
            init: hashed(),
            shapes: Shapes::Auto(pivot(8)),
            widths: dense(32),
            rect: false,
        },
        Row {
            name: "matmul_rect",
            program: kernels::matmul_ijk(),
            probe_n: 32,
            init: hashed(),
            shapes: Shapes::AutoSingle(pivot(8), "B"),
            widths: range(4, 26),
            rect: true,
        },
        Row {
            name: "cholesky_right",
            program: kernels::cholesky_right(),
            probe_n: 32,
            init: Box::new(spd_ws_init("A", 32, seed)),
            shapes: Shapes::Auto(pivot(16)),
            widths: range(4, 9),
            rect: false,
        },
        Row {
            name: "qr_householder",
            program: kernels::qr_householder(),
            probe_n: 20,
            init: hashed(),
            shapes: Shapes::QrColumns,
            widths: range(2, 17),
            rect: false,
        },
        Row {
            name: "jacobi2d",
            program: kernels::jacobi2d(),
            probe_n: 48,
            init: hashed(),
            shapes: Shapes::Auto(pivot(8)),
            widths: dense(48),
            rect: true,
        },
        Row {
            name: "backsolve",
            program: kernels::backsolve(),
            probe_n: 48,
            init: hashed(),
            shapes: Shapes::Auto(SearchConfig {
                width: 8,
                reversed_directions: true,
                ..Default::default()
            }),
            widths: range(2, 24),
            rect: false,
        },
    ]
}

impl Row {
    /// The dense candidate grid, rebuilt every round: building it is
    /// part of what the autotuning user waits for.
    fn grid(&self) -> Vec<Vec<Shackle>> {
        let p = &self.program;
        let shapes = match &self.shapes {
            Shapes::Auto(cfg) => grid_shapes(p, cfg),
            Shapes::AutoSingle(cfg, array) => {
                let mut s = grid_shapes(p, cfg);
                s.retain(|s| s.len() == 1 && s[0].blocking().array() == *array);
                s
            }
            Shapes::QrColumns => {
                let single = shackles::qr_columns(p, 8);
                let mut two_level = single.clone();
                two_level.extend(reblock(p, &single, &vec![4; single.len()]));
                if check_legality(p, &two_level).is_legal() {
                    vec![single, two_level]
                } else {
                    vec![single]
                }
            }
        };
        if self.rect {
            rect_width_grid(p, &shapes, &self.widths)
        } else {
            width_grid(p, &shapes, &self.widths)
        }
    }

    fn model_score(&self, geom: &KernelGeometry, product: &[Shackle]) -> u64 {
        predict(geom, product, &[PROBE_CACHE], MEM_LATENCY).cycles
    }

    /// The sweep exactly as the repo's model harness runs it.
    /// `two_phase` opens the product's own spans; the two calls that
    /// have none get one here.
    fn sweep(&self) -> (Vec<Vec<Shackle>>, TwoPhaseOutcome) {
        let grid = {
            let _span = shackle_probe::span("core.grid");
            self.grid()
        };
        let params = params(self.probe_n);
        let geom = {
            let _span = shackle_probe::span("model.geometry");
            KernelGeometry::new(&self.program, &params)
        };
        let outcome = two_phase(
            &grid,
            TOP_K,
            |p| self.model_score(&geom, p),
            |p| {
                let code = scan::generate_scanned(&self.program, p);
                ground_truth(&[PROBE_CACHE], MEM_LATENCY, |h| {
                    trace_execution(&code, &params, &self.init, h);
                })
                .cycles
            },
        )
        .expect("every row has candidates");
        (grid, outcome)
    }
}

/// Fingerprint of a sweep's whole outcome: every model score, the
/// rescored survivors and the winner.
fn outcome_hash(mut h: u64, o: &TwoPhaseOutcome) -> u64 {
    for s in &o.model_scores {
        h = stats::fnv1a(h, &s.to_le_bytes());
    }
    for (i, s) in &o.rescored {
        h = stats::fnv1a(h, &(*i as u64).to_le_bytes());
        h = stats::fnv1a(h, &s.to_le_bytes());
    }
    h = stats::fnv1a(h, &(o.winner as u64).to_le_bytes());
    stats::fnv1a(h, &o.winner_score.to_le_bytes())
}

/// What set-up established about a row.
struct Reference {
    candidates: u64,
    input_cycles: u64,
    winner_cycles: u64,
    /// Where the model had ranked the simulated winner among the
    /// survivors, and model ÷ simulated cycles of every survivor.
    sim_rank: usize,
    cycle_ratios: Vec<f64>,
}

pub struct AutotuneSweep {
    rows: Vec<Row>,
    refs: Vec<Reference>,
    order: Vec<usize>,
    checks: (u64, u64),
}

impl AutotuneSweep {
    pub fn set_up(seed: u64) -> Self {
        cache::clear_cache();
        let rows = rows(seed);
        let (mut attempted, mut failed) = (0, 0);
        let refs = rows
            .iter()
            .map(|row| {
                let (grid, outcome) = row.sweep();
                let params = params(row.probe_n);
                // the winner must be exactly legal at its swept widths
                // (the grid assumes legality does not depend on width)
                // and bit-identical to the input under the tree
                // interpreter
                let winner = &grid[outcome.winner];
                let code = scan::generate_scanned(&row.program, winner);
                attempted += 1;
                if !(check_legality(&row.program, winner).is_legal()
                    && tree_equivalent(&row.program, &code, &params, &row.init))
                {
                    eprintln!(
                        "autotune_sweep: {}: winner illegal or not equivalent",
                        row.name
                    );
                    failed += 1;
                }
                Reference {
                    candidates: grid.len() as u64,
                    input_cycles: simulated_cycles(&row.program, &params, &row.init),
                    winner_cycles: outcome.winner_score,
                    sim_rank: outcome
                        .rescored
                        .iter()
                        .position(|&(i, _)| i == outcome.winner)
                        .expect("the winner was rescored"),
                    cycle_ratios: outcome
                        .rescored
                        .iter()
                        .map(|&(i, sim)| outcome.model_scores[i].max(1) as f64 / sim.max(1) as f64)
                        .collect(),
                }
            })
            .collect();
        let mut order: Vec<usize> = (0..rows.len()).collect();
        SplitMix(seed).shuffle(&mut order);
        AutotuneSweep {
            rows,
            refs,
            order,
            checks: (attempted, failed),
        }
    }
}

impl Workload for AutotuneSweep {
    fn item_names(&self) -> Vec<String> {
        self.rows.iter().map(|r| r.name.to_string()).collect()
    }

    fn round(&mut self) -> RoundOut {
        let mut out = RoundOut::empty(self.rows.len());
        for &i in &self.order {
            let start = Instant::now();
            let (_, outcome) = self.rows[i].sweep();
            out.item_s[i] = start.elapsed().as_secs_f64();
            out.round_s += out.item_s[i];
            out.hash = outcome_hash(out.hash, &outcome);
            out.attempted += 1;
            out.failed += u64::from(outcome.winner_score != self.refs[i].winner_cycles);
        }
        out
    }

    fn setup_checks(&self) -> (u64, u64) {
        self.checks
    }

    fn work_per_s(&self, round_lo_s: f64, _item_lo_s: &[f64]) -> f64 {
        self.refs.iter().map(|r| r.candidates).sum::<u64>() as f64 / round_lo_s
    }

    fn gains(&self, _item_lo_s: &[f64]) -> Vec<f64> {
        self.refs
            .iter()
            .map(|r| r.input_cycles as f64 / r.winner_cycles as f64)
            .collect()
    }

    fn facts(&self) -> Vec<(&'static str, f64)> {
        let sum = |f: fn(&Reference) -> u64| self.refs.iter().map(f).sum::<u64>() as f64;
        let ratios: Vec<f64> = self
            .refs
            .iter()
            .flat_map(|r| r.cycle_ratios.iter().copied())
            .collect();
        vec![
            ("candidates", sum(|r| r.candidates)),
            ("winner_cycles", sum(|r| r.winner_cycles)),
            ("input_cycles", sum(|r| r.input_cycles)),
            ("sim_rank", sum(|r| r.sim_rank as u64)),
            ("cycle_ratio_geomean", stats::geomean(&ratios)),
        ]
    }
}
