//! The analytical per-level miss predictor.
//!
//! Given a shackle product and a kernel's [`KernelGeometry`], predicts
//! per-cache-level hit/miss counts and a cycle estimate with *no
//! execution and no trace* — pure footprint arithmetic, following the
//! paper's premise that blocking decisions are decided by data-centric
//! geometry (block footprint vs. cache capacity).
//!
//! # Derivation (see DESIGN.md §"Analytical cost model")
//!
//! Each statement's effective loop nest under a shackle product is
//! modeled as *block-coordinate levels* (one per cut of each factor,
//! outermost, in product order — exactly how the scanned code nests
//! them) followed by the statement's own loops restricted to the
//! windows the cuts impose. For a reference `r` and nest level `i`:
//!
//! * `F(i)` — the footprint of `r`, in cache lines, for one iteration
//!   of level `i` (levels outside `i` held fixed, inner levels
//!   sweeping). Affine subscripts make per-dimension extents linear in
//!   the trip counts: `extent_d = 1 + Σ_v |coeff_v|·(range_v − 1)`.
//!   Lines are counted column-major (dimension 0 contiguous, merged
//!   upward while a dimension is fully spanned).
//! * `WS(i)` — the per-array union of all footprints over one
//!   iteration of level `i`: the reuse distance, in lines, between
//!   consecutive touches of `r`'s data across iterations of `i`.
//!
//! Fetched lines propagate innermost-out: a level that *moves* `r`'s
//! window fetches fresh data (merged by line while nothing inside
//! refetches); a level `r` is invariant to either retains the body
//! footprint or refetches it, weighted by the *survival* of `WS(i)`
//! against effective capacity `c`. Survival is smooth, not a cliff:
//! `WS` is the worst-case reuse distance and the realized distance
//! ramps up to it, so survival is the expectation of `min(1, c/ws)`
//! for `ws` uniform on `(0, WS]`, i.e. `(c/WS)·(1 + ln(WS/c))` once
//! `WS > c`. Triangular loops (worst-case extent above the mean) use
//! the expected blocked trip count `mean/w + ½` instead of
//! `ceil(mean/w)`. Per-level predictions are made independently per
//! cache level on the full access stream — the stack-distance view,
//! exact for inclusive LRU — and coupled only through
//! `accesses(ℓ+1) = misses(ℓ)`.
//!
//! Known conservatisms: guards are ignored and triangular block
//! spaces are costed as full rectangles (over-predicts guard-clipped
//! fat blocks); distinct references to one array are fetched
//! independently (no inter-reference sharing); region line counts are
//! boxes capped by the number of distinct index tuples (a diagonal
//! `A[J,J]` costs its diagonal, not its box); conflict misses are out
//! of scope entirely — capacity_fraction absorbs mild associativity
//! slop, but set-resonant array shapes (column height in lines
//! sharing a factor with the set count) are invisible to any capacity
//! model.

use crate::geometry::{KernelGeometry, RefInfo, StmtGeometry};
use shackle_core::Shackle;
use shackle_memsim::CacheConfig;
use std::sync::LazyLock;

/// Element size the predictor assumes, matching the trace bridge
/// (`shackle_kernels::trace::ELEM_BYTES`): FORTRAN doubles.
pub const ELEM_BYTES: f64 = 8.0;

static PREDICTS: LazyLock<&'static shackle_probe::Counter> =
    LazyLock::new(|| shackle_probe::counter("model.predict.calls"));

/// `SHACKLE_MODEL_DEBUG=1` dumps every per-reference fetch chain to
/// stderr — the calibration view (see `examples/calibrate.rs`).
static DEBUG: LazyLock<bool> = LazyLock::new(|| std::env::var_os("SHACKLE_MODEL_DEBUG").is_some());

/// Tunable knobs of the predictor.
#[derive(Clone, Copy, Debug)]
pub struct ModelConfig {
    /// Fraction of nominal capacity usable before the model declares a
    /// working set streaming (associativity conflicts and alignment
    /// slop eat the rest; held to the direct simulator's
    /// `ground_truth` by the envelope in `tests/prop_model.rs`).
    pub capacity_fraction: f64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self {
            capacity_fraction: 0.9,
        }
    }
}

/// Predicted traffic at one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LevelPrediction {
    /// Accesses reaching this level.
    pub accesses: u64,
    /// Predicted hits.
    pub hits: u64,
    /// Predicted misses (line fetches from the level below).
    pub misses: u64,
}

/// A full prediction: per-level traffic plus the cycle estimate under
/// the same accounting as [`shackle_memsim::Hierarchy`] (per-level
/// probe latency on every access that reaches the level, memory
/// latency on full misses).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Prediction {
    /// Per-level predictions, fastest level first.
    pub levels: Vec<LevelPrediction>,
    /// Estimated memory-system cycles.
    pub cycles: u64,
    /// Total element accesses (exact, from the geometry).
    pub accesses: u64,
}

/// How one block coordinate binds to one statement.
#[derive(Clone, Copy)]
enum CoordBind {
    /// The cut windows a single loop (by index) of the statement.
    Var { loop_: usize, window: f64 },
    /// The cut's projection is constant within the statement: the
    /// statement does not move along this coordinate.
    Fixed,
    /// Multi-variable projection — treated conservatively (no window,
    /// every reference considered dependent on the coordinate).
    Opaque,
}

/// Per-candidate blocking structure derived from the product: the
/// coordinate levels (one per cut of each factor, in product order)
/// and, per statement, the final loop windows and per-coordinate trip
/// counts.
struct BlockStructure {
    /// Number of coordinate levels.
    coords: usize,
    /// Number of statements.
    stmts: usize,
    /// Per coordinate, per statement (`k * stmts + id`): how the
    /// coordinate binds to the statement and its trip count (>= 1).
    levels: Vec<(CoordBind, f64)>,
    /// Per loop of every statement (`loop_base + j`): the window the
    /// whole product leaves it (`None` means unconstrained).
    windows: Vec<Option<f64>>,
}

impl BlockStructure {
    fn level(&self, coord: usize, s: &StmtGeometry) -> (CoordBind, f64) {
        self.levels[coord * self.stmts + s.id]
    }
}

fn build_structure(geom: &KernelGeometry, product: &[Shackle]) -> BlockStructure {
    let coords = product.iter().map(Shackle::coord_count).sum();
    let mut levels = Vec::with_capacity(coords * geom.stmts.len());
    let mut windows: Vec<Option<f64>> = vec![None; geom.loops];
    let mut proj: Vec<i64> = Vec::new();
    for f in product {
        for cut in f.blocking().cuts() {
            for s in &geom.stmts {
                let r = &f.refs()[s.id];
                // projection of the shackled reference onto the cut,
                // restricted to the statement's loop variables
                proj.clear();
                proj.resize(s.loops.len(), 0);
                for (c, ix) in cut.normal.iter().zip(r.indices()) {
                    if *c == 0 {
                        continue;
                    }
                    for (v, k) in ix.iter() {
                        if let Some(j) = s.loop_index(v) {
                            proj[j] += c * k;
                        }
                    }
                }
                let mut moving = proj.iter().enumerate().filter(|(_, k)| **k != 0);
                let bind = match (moving.next(), moving.next()) {
                    (None, _) => CoordBind::Fixed,
                    (Some((loop_, k)), None) => CoordBind::Var {
                        loop_,
                        window: (((cut.width - 1) / k.abs()) + 1) as f64,
                    },
                    _ => CoordBind::Opaque,
                };
                let trips = match bind {
                    CoordBind::Var { loop_, window } => {
                        let l = &s.loops[loop_];
                        let full = l.avg_extent;
                        let seen = &mut windows[s.loop_base + loop_];
                        let before = seen.unwrap_or(full).min(full);
                        // Triangular loop (extent varies with outer
                        // iterations): the expected block count per
                        // invocation is E[ceil(extent/w)] ≈ mean/w + ½
                        // for extents uniform up to the max — ceil of
                        // the mean alone undercounts the wide rows.
                        let t = if seen.is_none() && l.max_extent > full + 0.5 {
                            (before / window + 0.5).max(1.0)
                        } else {
                            (before / window).ceil().max(1.0)
                        };
                        *seen = Some(seen.unwrap_or(full).min(window).min(full));
                        t
                    }
                    _ => 1.0,
                };
                levels.push((bind, trips));
            }
        }
    }
    BlockStructure {
        coords,
        stmts: geom.stmts.len(),
        levels,
        windows,
    }
}

/// Cache lines covered by a column-major region with the given
/// per-dimension extents inside an array of the given dimensions.
/// Leading dimensions are merged into one contiguous run while they
/// are fully spanned.
fn region_lines(extents: &[f64], dims: &[f64], line_bytes: f64) -> f64 {
    let line_elems = line_bytes / ELEM_BYTES;
    let mut contig = extents[0].min(dims[0]).max(1.0);
    let mut span = dims[0];
    let mut d = 1;
    while d < extents.len() && contig + 0.5 >= span {
        contig = span * extents[d].min(dims[d]).max(1.0);
        span *= dims[d];
        d += 1;
    }
    let mut rest = 1.0;
    for (e, dim) in extents[d..].iter().zip(&dims[d..]) {
        rest *= e.min(*dim).max(1.0);
    }
    rest * (contig / line_elems).ceil().max(1.0)
}

/// The loop ranges in effect for one iteration of nest level
/// `fixed_upto - 1` of statement `s` — i.e. with the outermost
/// `fixed_upto` levels held fixed and everything inside sweeping —
/// written to `ranges`, one per loop of `s`.
///
/// `wide` selects the worst-case extents ([`LoopInfo::max_extent`])
/// instead of the means: capacity tests must use them, because a
/// triangular sweep that fits on average still thrashes for the wide
/// iterations. Traffic volumes keep the means.
///
/// [`LoopInfo::max_extent`]: crate::geometry::LoopInfo::max_extent
fn body_ranges(
    s: &StmtGeometry,
    bs: &BlockStructure,
    fixed_upto: usize,
    wide: bool,
    ranges: &mut Vec<f64>,
) {
    let m = bs.coords;
    ranges.clear();
    for (j, l) in s.loops.iter().enumerate() {
        let r = if m + j < fixed_upto {
            1.0
        } else {
            // only windows from coordinates held fixed (index <
            // fixed_upto) bind the loop; sweeping coordinates release
            // it
            let mut w = if wide { l.max_extent } else { l.avg_extent };
            for k in 0..fixed_upto.min(m) {
                if let (CoordBind::Var { loop_, window }, _) = bs.level(k, s) {
                    if loop_ == j {
                        w = w.min(window);
                    }
                }
            }
            w.max(1.0)
        };
        ranges.push(r);
    }
}

/// Lines touched by one reference under the given loop ranges: the
/// column-major box count of its per-dimension extents (clamped to the
/// array bounds `dims`), capped at the number of distinct index tuples
/// the reference can produce. The cap matters for correlated subscripts
/// — `A[J, J]` over a range of 96 touches 96 diagonal elements (each on
/// its own line at worst), not the 96×96 box the per-dimension extents
/// describe. `extents` is scratch.
fn ref_lines(
    r: &RefInfo,
    ranges: &[f64],
    dims: &[f64],
    line_bytes: f64,
    extents: &mut Vec<f64>,
) -> f64 {
    extents.clear();
    for (terms, d) in r.subscripts.iter().zip(dims) {
        let mut e = 1.0;
        for &(j, k) in terms {
            e += k * (ranges[j] - 1.0);
        }
        extents.push(e.min(*d).max(1.0));
    }
    let box_lines = region_lines(extents, dims, line_bytes);
    let tuples: f64 = r.tuple_loops.iter().map(|&j| ranges[j].max(1.0)).product();
    box_lines.min(tuples.max(1.0))
}

/// Buffers one [`predict_with`] call reuses across cache levels and
/// statements, so a candidate allocates a handful of vectors, not a
/// handful per reference.
#[derive(Default)]
struct Scratch {
    ranges: Vec<f64>,
    extents: Vec<f64>,
    /// The working set being accumulated: `(reference slot, array,
    /// lines)` in first-encounter order.
    working_set: Vec<(usize, usize, f64)>,
    /// Lines of each whole array, in array-name order.
    array_lines: Vec<f64>,
    coord_ws: Vec<f64>,
    footprints: Vec<f64>,
    inst_ws: Vec<f64>,
    inst_trips: Vec<f64>,
}

impl Scratch {
    /// Add statement `s`'s references, under `self.ranges`, to the
    /// working set: equal references (same slot, whatever the
    /// statement) merge by elementwise max.
    fn add_to_working_set(&mut self, s: &StmtGeometry, geom: &KernelGeometry, line_bytes: f64) {
        for r in &s.refs {
            let dims = &geom.arrays[r.array];
            let lines = ref_lines(r, &self.ranges, dims, line_bytes, &mut self.extents);
            match self.working_set.iter_mut().find(|e| e.0 == r.slot) {
                Some(e) => e.2 = e.2.max(lines),
                None => self.working_set.push((r.slot, r.array, lines)),
            }
        }
    }

    /// Working-set (reuse-distance) estimate, in lines, of the
    /// references accumulated since the last call, which it clears: per
    /// array, the *sum* over distinct references, capped at the whole
    /// array. Distinct references into one array — a pivot row block and
    /// a working block — occupy cache simultaneously even when their
    /// extent boxes coincide, so summing is right and an elementwise-max
    /// union under-counts; the cap keeps overlapping references from
    /// exceeding the array itself. References sum in first-encounter
    /// order, arrays in name order.
    fn take_working_set(&mut self) -> f64 {
        let ws = &self.working_set;
        let total = (self.array_lines.iter().enumerate())
            .filter(|(a, _)| ws.iter().any(|e| e.1 == *a))
            .map(|(a, whole)| {
                let total: f64 = ws.iter().filter(|e| e.1 == a).map(|e| e.2).sum();
                total.min(*whole)
            })
            .sum();
        self.working_set.clear();
        total
    }
}

/// Predict traffic through `levels` (fastest first) for `product`
/// applied to the kernel described by `geom`, with the default
/// [`ModelConfig`].
pub fn predict(
    geom: &KernelGeometry,
    product: &[Shackle],
    levels: &[CacheConfig],
    mem_latency: u64,
) -> Prediction {
    predict_with(geom, product, levels, mem_latency, &ModelConfig::default())
}

/// As [`predict`], with explicit model configuration.
///
/// # Panics
///
/// Panics if `levels` is empty.
pub fn predict_with(
    geom: &KernelGeometry,
    product: &[Shackle],
    levels: &[CacheConfig],
    mem_latency: u64,
    cfg: &ModelConfig,
) -> Prediction {
    assert!(!levels.is_empty(), "need at least one cache level");
    let _span = shackle_probe::span("model.predict");
    if shackle_probe::enabled() {
        PREDICTS.add(1);
    }
    let bs = build_structure(geom, product);
    let mut scratch = Scratch::default();
    let total_accesses = geom.accesses;
    let mut preds = Vec::with_capacity(levels.len());
    let mut upstream = total_accesses;
    for cache in levels {
        let raw = misses_for_level(geom, &bs, cache, cfg, &mut scratch);
        let misses = raw.min(upstream);
        preds.push(LevelPrediction {
            accesses: upstream.round() as u64,
            hits: (upstream - misses).round() as u64,
            misses: misses.round() as u64,
        });
        upstream = misses;
    }
    let mut cycles = 0.0;
    for (p, cache) in preds.iter().zip(levels) {
        cycles += p.accesses as f64 * cache.latency as f64;
    }
    cycles += preds.last().unwrap().misses as f64 * mem_latency as f64;
    Prediction {
        levels: preds,
        cycles: cycles.round() as u64,
        accesses: total_accesses.round() as u64,
    }
}

/// Predicted misses (line fetches) at one cache level over the whole
/// execution.
fn misses_for_level(
    geom: &KernelGeometry,
    bs: &BlockStructure,
    cache: &CacheConfig,
    cfg: &ModelConfig,
    scratch: &mut Scratch,
) -> f64 {
    let line_bytes = cache.line as f64;
    let c_eff = cfg.capacity_fraction * cache.size as f64 / line_bytes;
    let m = bs.coords;
    let live = || geom.stmts.iter().filter(|s| s.instances > 0.0);

    scratch.array_lines.clear();
    for dims in &geom.arrays {
        scratch
            .array_lines
            .push(region_lines(dims, dims, line_bytes));
    }

    // Reuse distance across one iteration of each coordinate level:
    // per-array union over every statement (the coordinate loops are
    // shared by all statements in the scanned code).
    scratch.coord_ws.clear();
    for k in 0..m {
        for s in live() {
            body_ranges(s, bs, k + 1, true, &mut scratch.ranges);
            scratch.add_to_working_set(s, geom, line_bytes);
        }
        let ws = scratch.take_working_set();
        scratch.coord_ws.push(ws);
    }

    let mut total = 0.0;
    for s in live() {
        let nlev = m + s.loops.len();
        let nrefs = s.refs.len();
        // footprint of one iteration of each level, per reference
        // (`level * nrefs + ri`)
        scratch.footprints.clear();
        for fu in 0..=nlev {
            body_ranges(s, bs, fu, false, &mut scratch.ranges);
            for r in &s.refs {
                let dims = &geom.arrays[r.array];
                let lines = ref_lines(r, &scratch.ranges, dims, line_bytes, &mut scratch.extents);
                scratch.footprints.push(lines);
            }
        }
        // statement-local reuse distance across one iteration of each
        // instance level
        scratch.inst_ws.clear();
        for j in 0..s.loops.len() {
            body_ranges(s, bs, m + j + 1, true, &mut scratch.ranges);
            scratch.add_to_working_set(s, geom, line_bytes);
            let ws = scratch.take_working_set();
            scratch.inst_ws.push(ws);
        }
        // windowed sweep extent of each instance loop
        scratch.inst_trips.clear();
        for (j, l) in s.loops.iter().enumerate() {
            let window = bs.windows[s.loop_base + j].unwrap_or(l.avg_extent);
            scratch.inst_trips.push(window.min(l.avg_extent).max(1.0));
        }
        let (coord_ws, footprints) = (&scratch.coord_ws, &scratch.footprints);
        let (inst_ws, inst_trips) = (&scratch.inst_ws, &scratch.inst_trips);

        for (ri, r) in s.refs.iter().enumerate() {
            let mut fetch = 1.0;
            let mut pure = true;
            for i in (0..nlev).rev() {
                let (t, depends, ws) = if i < m {
                    let (bind, trips) = bs.level(i, s);
                    let dep = match bind {
                        CoordBind::Var { loop_, .. } => r.mentions[loop_],
                        CoordBind::Fixed => false,
                        CoordBind::Opaque => true,
                    };
                    (trips, dep, coord_ws[i])
                } else {
                    let j = i - m;
                    (inst_trips[j], r.mentions[j], inst_ws[j])
                };
                if t <= 1.0 + 1e-9 {
                    continue;
                }
                // Fraction of the level's working set that survives one
                // iteration. `WS` is the worst-case (widest iteration)
                // reuse distance; over a shackled sweep the actual
                // distance ramps up to it as windows shift and shrink,
                // so survival is the expectation of `min(1, c/ws)` with
                // `ws` uniform on `(0, WS]`: `(c/WS)·(1 + ln(WS/c))`.
                // Continuous at `WS = c` — a hard cliff (survive-all
                // vs. refetch-all) is exact only for a perfectly cyclic
                // LRU sweep, and barely-over working sets in shackled
                // traces still mostly survive.
                let surv = if ws <= c_eff {
                    1.0
                } else {
                    (c_eff / ws) * (1.0 + (ws / c_eff).ln())
                };
                if depends {
                    if pure && surv >= 1.0 {
                        // fresh data each iteration, and lines survive
                        // between consecutive iterations: the sweep
                        // footprint counts it line-merged
                        fetch = footprints[i * nrefs + ri];
                    } else if pure {
                        // partial survival: interpolate between the
                        // line-merged sweep footprint and a full
                        // refetch of the body every iteration
                        let merged = footprints[i * nrefs + ri];
                        fetch = merged + (1.0 - surv) * (fetch * t - merged).max(0.0);
                        pure = false;
                    } else {
                        // an inner level already refetches: no merging
                        fetch *= t;
                    }
                } else if surv < 1.0 {
                    // invariant but the reuse distance exceeds
                    // capacity: the non-surviving part is refetched
                    // every iteration
                    fetch *= 1.0 + (t - 1.0) * (1.0 - surv);
                    pure = false;
                }
                if *DEBUG {
                    eprintln!(
                        "model: stmt {} ref {} level {i} t={t:.1} dep={} \
                         ws={ws:.0}/{c_eff:.0} -> fetch {fetch:.0} (pure {pure})",
                        s.id,
                        r.aref,
                        u8::from(depends),
                    );
                }
            }
            if *DEBUG {
                eprintln!(
                    "model: stmt {} ref {} total {:.0}",
                    s.id,
                    r.aref,
                    fetch.min(s.instances)
                );
            }
            total += fetch.min(s.instances);
        }
    }
    total
}
