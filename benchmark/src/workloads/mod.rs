//! The four workloads and the loop that measures any of them.
//!
//! Every workload is closed-loop with one caller: the next operation
//! starts when the previous one has returned. A *round* is one pass
//! over the workload's item list in an order shuffled once per run by
//! the seed and identical in every round, so items interleave (never
//! one item looped) and drift hits all of them alike. Rounds repeat
//! until `--seconds` have been measured; every timing is then the
//! lower decile over the rounds (`stats::lo`), taken per item first.

pub mod autotune_sweep;
pub mod compile_cold;
pub mod host_run;
pub mod serve_mix;

use crate::stats;
use crate::trace::Snapshot;
use shackle_polyhedra::cache;
use std::path::Path;
use std::time::Instant;

/// `(name, why)` of every workload, in the order BENCHMARK.json lists
/// them.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "compile_cold",
        "one-shot CLI compile from source with a cleared polyhedral cache: polyhedra misses, ir::deps, legality and growth do the work; serve and native tiers none",
    ),
    (
        "serve_mix",
        "daemon request in to response out over a warm cache, every distinct request once per round (no traffic mix is assumed): proto, parse, cache read path, codegen, scoring; polyhedra cold paths none",
    ),
    (
        "autotune_sweep",
        "two-phase autotuning over dense block-width grids: model, bytecode tier and memsim do nearly all the work, polyhedra almost none",
    ),
    (
        "host_run",
        "the paper's claim on real hardware: emitted input vs selected blocked code as native kernels, wall-clock; only ir::emit and exec::native matter",
    ),
];

/// How much of a workload to set up: everything, or the cut-down item
/// list used by `--quick`. Only `host_run` has a cut-down list (two
/// kernels): its set-up is the expensive one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Reduced,
}

/// What one round produced.
pub struct RoundOut {
    /// Seconds inside the timed part of the round.
    pub round_s: f64,
    /// Seconds per item, indexed like [`Workload::item_names`].
    pub item_s: Vec<f64>,
    /// Fingerprint of every output byte of the round.
    pub hash: u64,
    /// Operations attempted and operations that failed, were refused
    /// unexpectedly, or returned wrong output.
    pub attempted: u64,
    pub failed: u64,
}

impl RoundOut {
    /// A round of `items` items in which nothing has run yet.
    pub fn empty(items: usize) -> Self {
        RoundOut {
            round_s: 0.0,
            item_s: vec![0.0; items],
            hash: stats::FNV_OFFSET,
            attempted: 0,
            failed: 0,
        }
    }
}

pub trait Workload {
    fn item_names(&self) -> Vec<String>;

    /// One round through the product's own entry points. Traced and
    /// untraced runs call the same function: tracing is the probe
    /// being switched on around it.
    fn round(&mut self) -> RoundOut;

    /// Checks made once during set-up (references from outside the
    /// pass under test): `(attempted, failed)`.
    fn setup_checks(&self) -> (u64, u64);

    /// Work units per second given the lower-decile round and item
    /// times (seconds).
    fn work_per_s(&self, round_lo_s: f64, item_lo_s: &[f64]) -> f64;

    /// Per item (or per kernel) cost of the input code ÷ cost of the
    /// selected blocking.
    fn gains(&self, item_lo_s: &[f64]) -> Vec<f64>;

    /// Exact facts of one round (counts, simulated cycles): what the
    /// determinism check compares across processes and what the
    /// per-layer metrics of kind `Fact` report.
    fn facts(&self) -> Vec<(&'static str, f64)>;

    /// One-shot measurements of single layers made after the traced
    /// rounds (files go under `dir`), as `(metric, value)`.
    fn probe_layers(&mut self, _dir: &Path) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Warm-up rounds run at the end of every set-up phase.
pub const WARMUP_ROUNDS: usize = 2;

/// Set a workload up from fresh state under `dir` (an empty directory
/// of its own) and warm it up. Returns the workload, the fingerprint
/// every later round must reproduce, and operations attempted/failed.
pub fn set_up(
    name: &str,
    seed: u64,
    scale: Scale,
    dir: &Path,
) -> (Box<dyn Workload>, u64, u64, u64) {
    let mut w: Box<dyn Workload> = match name {
        "compile_cold" => Box::new(compile_cold::CompileCold::set_up(seed)),
        "serve_mix" => Box::new(serve_mix::ServeMix::set_up(seed)),
        "autotune_sweep" => Box::new(autotune_sweep::AutotuneSweep::set_up(seed)),
        "host_run" => Box::new(host_run::HostRun::set_up(seed, scale, dir)),
        other => panic!("unknown workload `{other}`"),
    };
    let (mut attempted, mut failed) = w.setup_checks();
    let mut expected = None;
    for _ in 0..WARMUP_ROUNDS {
        let out = w.round();
        attempted += out.attempted;
        failed += out.failed;
        if *expected.get_or_insert(out.hash) != out.hash {
            failed += 1;
        }
    }
    (
        w,
        expected.expect("at least one warm-up round"),
        attempted,
        failed,
    )
}

/// Per-round samples of a measured phase.
pub struct Samples {
    pub round_s: Vec<f64>,
    /// `item_s[i]` holds item `i`'s sample from every round.
    pub item_s: Vec<Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
}

impl Samples {
    pub fn rounds(&self) -> usize {
        self.round_s.len()
    }

    pub fn round_lo_s(&self) -> f64 {
        stats::lo(&self.round_s)
    }

    pub fn item_lo_s(&self) -> Vec<f64> {
        self.item_s.iter().map(|s| stats::lo(s)).collect()
    }
}

/// How long to keep measuring.
#[derive(Clone, Copy)]
pub enum Until {
    /// Closed loop for this many seconds of wall clock (at least
    /// [`MIN_ROUNDS`] rounds).
    Seconds(f64),
    Rounds(usize),
}

/// Fewest rounds a time-boxed phase runs, so the lower decile always
/// has samples beyond it.
pub const MIN_ROUNDS: usize = 10;

/// Run rounds until `until`, checking every round's fingerprint
/// against `expected`. With `traced`, the probe (switched on by the
/// caller) is reset before every round and a snapshot of it pushed
/// after, outside the round's timed part.
pub fn measure(
    w: &mut dyn Workload,
    expected: u64,
    until: Until,
    mut traced: Option<&mut Vec<Snapshot>>,
) -> Samples {
    let items = w.item_names().len();
    let mut s = Samples {
        round_s: Vec::new(),
        item_s: vec![Vec::new(); items],
        attempted: 0,
        failed: 0,
    };
    let start = Instant::now();
    loop {
        let done = match until {
            Until::Seconds(limit) => {
                s.rounds() >= MIN_ROUNDS && start.elapsed().as_secs_f64() >= limit
            }
            Until::Rounds(n) => s.rounds() >= n,
        };
        if done {
            return s;
        }
        if traced.is_some() {
            shackle_probe::reset();
            cache::reset_stats();
        }
        let out = w.round();
        if let Some(rounds) = traced.as_deref_mut() {
            rounds.push(Snapshot::take());
        }
        s.round_s.push(out.round_s);
        for (samples, v) in s.item_s.iter_mut().zip(&out.item_s) {
            samples.push(*v);
        }
        s.attempted += out.attempted;
        s.failed += out.failed + u64::from(out.hash != expected);
    }
}
