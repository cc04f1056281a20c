//! `compile_cold`: the CLI user's one-shot compile.
//!
//! Items are the source text of the nine search kernels of the repo's
//! search report (gauss_seidel_1d is the expected-refusal row) plus the
//! shipped `examples/programs/*.ds` files. Per item the polyhedral
//! cache is cleared (untimed), then `parse` → `pipeline::auto_search`
//! is timed. Polyhedra (misses and inserts), `ir::deps`, legality and
//! growth do most of the work; the serve and native tiers none.

use super::{RoundOut, Workload};
use crate::reference::{check_selection, simulated_gains, InitFn, Selection};
use crate::stats::{self, SplitMix};
use shackle_core::search::SearchConfig;
use shackle_exec::verify::hash_init;
use shackle_ir::parse::{parse, to_source};
use shackle_ir::{kernels, Program};
use shackle_kernels::gen::spd_ws_init;
use shackle_polyhedra::cache;
use shackle_serve::pipeline::{auto_search, Mode, SearchOutcome};
use std::time::Instant;

/// One program to compile.
pub struct Item {
    pub name: &'static str,
    pub source: String,
    pub cfg: SearchConfig,
    pub probe_n: i64,
    pub init: InitFn,
    /// `false` for the row whose right answer is "no legal blocking".
    pub blockable: bool,
}

/// The compile corpus: kernel, block width and probe size as in the
/// repo's search report (the probe size is the smallest whose working
/// set spills the 8 KB probe cache). `seed` drives the array values;
/// the product only ever sees sources, parameters and initializers.
pub fn corpus(seed: u64) -> Vec<Item> {
    let width = |width| SearchConfig {
        width,
        ..Default::default()
    };
    let kernel = |name, p: Program, w, probe_n: i64, spd: bool| Item {
        name,
        source: to_source(&p),
        cfg: width(w),
        probe_n,
        init: if spd {
            Box::new(spd_ws_init("A", probe_n as usize, seed))
        } else {
            Box::new(hash_init(seed))
        },
        blockable: name != "gauss_seidel_1d",
    };
    let file = |name, text: &str, w, probe_n| Item {
        name,
        source: text.to_string(),
        cfg: width(w),
        probe_n,
        init: Box::new(hash_init(seed)),
        blockable: true,
    };
    vec![
        kernel("cholesky_right", kernels::cholesky_right(), 16, 48, true),
        kernel("cholesky_left", kernels::cholesky_left(), 16, 32, true),
        kernel("gauss", kernels::gauss(), 16, 24, true),
        kernel("matmul_ijk", kernels::matmul_ijk(), 25, 24, false),
        kernel("backsolve", kernels::backsolve(), 16, 48, false),
        kernel("syrk", kernels::syrk(), 16, 32, false),
        kernel("jacobi2d", kernels::jacobi2d(), 16, 48, false),
        kernel("tensor_contract", kernels::tensor_contract(), 8, 16, false),
        kernel("gauss_seidel_1d", kernels::gauss_seidel_1d(), 16, 32, false),
        file(
            "smooth.ds",
            include_str!("../../../examples/programs/smooth.ds"),
            16,
            48,
        ),
        file(
            "wavefront.ds",
            include_str!("../../../examples/programs/wavefront.ds"),
            8,
            48,
        ),
    ]
}

/// The timed call: source text in, search outcome out.
fn compile(item: &Item) -> SearchOutcome {
    let program = {
        let _span = shackle_probe::span("ir.parse");
        parse(&item.source).expect("corpus sources parse")
    };
    let _span = shackle_probe::span("pipeline.auto_search");
    auto_search(
        &program,
        &item.cfg,
        item.probe_n,
        &item.init,
        Mode::Memoized,
    )
}

/// What set-up established about one item's compile.
struct Compiled {
    /// `[candidates, legal, products, rescored]` of the outcome.
    counts: [usize; 4],
    winner_cycles: u64,
    /// The checked selection; `None` for the refusal row.
    selection: Option<Selection>,
}

pub struct CompileCold {
    items: Vec<Item>,
    compiled: Vec<Compiled>,
    /// Item indices in this run's (seeded) order.
    order: Vec<usize>,
    checks: (u64, u64),
}

impl CompileCold {
    /// Compile every item once and check what the product selected
    /// (`reference::check_selection`); the refusal row must be refused.
    pub fn set_up(seed: u64) -> Self {
        cache::clear_cache();
        let items = corpus(seed);
        let mut checks = (0, 0);
        let compiled = items
            .iter()
            .map(|item| {
                let found = compile(item);
                let input = parse(&item.source).expect("corpus sources parse");
                checks.0 += 1;
                let selection = if item.blockable {
                    check_selection(
                        &input,
                        &found.report,
                        found.winner_cycles,
                        item.probe_n,
                        &item.init,
                    )
                    .map_err(|e| eprintln!("compile_cold: {}: {e}", item.name))
                    .ok()
                } else {
                    None
                };
                if item.blockable != selection.is_some() || item.blockable != (found.products > 0) {
                    eprintln!("compile_cold: {}: wrong selection or refusal", item.name);
                    checks.1 += 1;
                }
                Compiled {
                    counts: [
                        found.candidates,
                        found.legal,
                        found.products,
                        found.rescored,
                    ],
                    winner_cycles: found.winner_cycles,
                    selection,
                }
            })
            .collect();
        let mut order: Vec<usize> = (0..items.len()).collect();
        SplitMix(seed).shuffle(&mut order);
        CompileCold {
            items,
            compiled,
            order,
            checks,
        }
    }

    fn selections(&self) -> impl Iterator<Item = &Selection> {
        self.compiled.iter().filter_map(|c| c.selection.as_ref())
    }
}

impl Workload for CompileCold {
    fn item_names(&self) -> Vec<String> {
        self.items.iter().map(|i| i.name.to_string()).collect()
    }

    /// Per item: clear the polyhedral cache (untimed), then time the
    /// compile, which must give the answer set-up checked.
    fn round(&mut self) -> RoundOut {
        let mut out = RoundOut::empty(self.items.len());
        for &i in &self.order {
            let item = &self.items[i];
            cache::clear_cache();
            let start = Instant::now();
            let found = compile(item);
            out.item_s[i] = start.elapsed().as_secs_f64();
            out.round_s += out.item_s[i];
            out.hash = stats::fnv1a(out.hash, found.report.as_bytes());
            out.attempted += 1;
            out.failed += u64::from(found.winner_cycles != self.compiled[i].winner_cycles);
        }
        out
    }

    fn setup_checks(&self) -> (u64, u64) {
        self.checks
    }

    fn work_per_s(&self, round_lo_s: f64, _item_lo_s: &[f64]) -> f64 {
        self.items.len() as f64 / round_lo_s
    }

    fn gains(&self, _item_lo_s: &[f64]) -> Vec<f64> {
        simulated_gains(self.selections())
    }

    fn facts(&self) -> Vec<(&'static str, f64)> {
        let count = |k: usize| self.compiled.iter().map(|c| c.counts[k]).sum::<usize>() as f64;
        let sum = |f: fn(&Selection) -> u64| self.selections().map(f).sum::<u64>() as f64;
        vec![
            ("candidates", count(0)),
            ("legal", count(1)),
            ("products", count(2)),
            ("rescored", count(3)),
            ("winner_cycles", sum(|s| s.winner_cycles)),
            ("input_cycles", sum(|s| s.input_cycles)),
            ("code_bytes", sum(|s| s.code_bytes)),
        ]
    }
}
