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

use crate::geometry::{KernelGeometry, StmtGeometry};
use shackle_core::Shackle;
use shackle_ir::ArrayRef;
use shackle_memsim::CacheConfig;
use std::collections::BTreeMap;
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
enum CoordBind {
    /// The cut windows a single loop variable of the statement.
    Var { var: String, window: f64 },
    /// The cut's projection is constant within the statement: the
    /// statement does not move along this coordinate.
    Fixed,
    /// Multi-variable projection — treated conservatively (no window,
    /// every reference considered dependent on the coordinate).
    Opaque,
}

struct CoordLevel {
    binds: Vec<CoordBind>, // per statement
}

/// Per-candidate blocking structure derived from the product: the
/// coordinate levels and, per statement, the final variable windows and
/// per-coordinate trip counts.
struct BlockStructure {
    coords: Vec<CoordLevel>,
    /// Per statement: loop var -> window (absent means unconstrained).
    windows: Vec<BTreeMap<String, f64>>,
    /// Per statement, per coordinate: trip count (>= 1).
    trips: Vec<Vec<f64>>,
}

fn build_structure(geom: &KernelGeometry, product: &[Shackle]) -> BlockStructure {
    let nstmts = geom.stmts.len();
    let mut coords = Vec::new();
    let mut windows: Vec<BTreeMap<String, f64>> = vec![BTreeMap::new(); nstmts];
    let mut trips: Vec<Vec<f64>> = vec![Vec::new(); nstmts];
    for f in product {
        for cut in f.blocking().cuts() {
            let mut binds = Vec::with_capacity(nstmts);
            for s in &geom.stmts {
                let r = &f.refs()[s.id];
                // projection of the shackled reference onto the cut,
                // restricted to the statement's loop variables
                let mut proj: BTreeMap<String, i64> = BTreeMap::new();
                for (c, ix) in cut.normal.iter().zip(r.indices()) {
                    if *c == 0 {
                        continue;
                    }
                    for (v, k) in ix.iter() {
                        if s.extent_of(v).is_some() {
                            *proj.entry(v.to_string()).or_insert(0) += c * k;
                        }
                    }
                }
                proj.retain(|_, k| *k != 0);
                let bind = if proj.is_empty() {
                    CoordBind::Fixed
                } else if proj.len() == 1 {
                    let (v, k) = proj.iter().next().unwrap();
                    CoordBind::Var {
                        var: v.clone(),
                        window: (((cut.width - 1) / k.abs()) + 1) as f64,
                    }
                } else {
                    CoordBind::Opaque
                };
                let t = match &bind {
                    CoordBind::Var { var, window } => {
                        let full = s.extent_of(var).unwrap_or(1.0);
                        let wmax = s.max_extent_of(var).unwrap_or(full);
                        let before = windows[s.id].get(var).copied().unwrap_or(full).min(full);
                        // Triangular loop (extent varies with outer
                        // iterations): the expected block count per
                        // invocation is E[ceil(extent/w)] ≈ mean/w + ½
                        // for extents uniform up to the max — ceil of
                        // the mean alone undercounts the wide rows.
                        let t = if !windows[s.id].contains_key(var) && wmax > full + 0.5 {
                            (before / window + 0.5).max(1.0)
                        } else {
                            (before / window).ceil().max(1.0)
                        };
                        let e = windows[s.id].entry(var.clone()).or_insert(full);
                        *e = e.min(*window).min(full);
                        t
                    }
                    _ => 1.0,
                };
                trips[s.id].push(t);
                binds.push(bind);
            }
            coords.push(CoordLevel { binds });
        }
    }
    BlockStructure {
        coords,
        windows,
        trips,
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

/// The variable ranges in effect for one iteration of nest level
/// `fixed_upto - 1` of statement `s` — i.e. with the outermost
/// `fixed_upto` levels held fixed and everything inside sweeping.
///
/// `wide` selects the worst-case extents ([`LoopInfo::max_extent`])
/// instead of the means: capacity tests must use them, because a
/// triangular sweep that fits on average still thrashes for the wide
/// iterations. Traffic volumes keep the means.
fn body_ranges(
    s: &StmtGeometry,
    bs: &BlockStructure,
    fixed_upto: usize,
    wide: bool,
) -> BTreeMap<String, f64> {
    let m = bs.coords.len();
    let mut ranges = BTreeMap::new();
    for (j, l) in s.loops.iter().enumerate() {
        let lev = m + j;
        let r = if lev < fixed_upto {
            1.0
        } else {
            // only windows from coordinates held fixed (index <
            // fixed_upto) bind the variable; sweeping coordinates
            // release it
            let mut w = if wide { l.max_extent } else { l.avg_extent };
            for c in bs.coords.iter().take(fixed_upto.min(m)) {
                if let CoordBind::Var { var, window } = &c.binds[s.id] {
                    if var == &l.var {
                        w = w.min(*window);
                    }
                }
            }
            w.max(1.0)
        };
        ranges.insert(l.var.clone(), r);
    }
    ranges
}

/// Per-dimension extents of one reference under the given ranges,
/// clamped to the array bounds.
fn ref_extents(aref: &ArrayRef, ranges: &BTreeMap<String, f64>, dims: &[f64]) -> Vec<f64> {
    aref.indices()
        .iter()
        .zip(dims)
        .map(|(ix, d)| {
            let mut e = 1.0;
            for (v, k) in ix.iter() {
                if let Some(r) = ranges.get(v) {
                    e += k.abs() as f64 * (r - 1.0);
                }
            }
            e.min(*d).max(1.0)
        })
        .collect()
}

/// Does the reference mention the variable (with a non-zero
/// coefficient) in any subscript?
fn mentions(aref: &ArrayRef, var: &str) -> bool {
    aref.indices()
        .iter()
        .any(|ix| ix.iter().any(|(v, k)| v == var && k != 0))
}

/// Lines touched by one reference under the given ranges: the
/// column-major box count, capped at the number of distinct index
/// tuples the reference can produce. The cap matters for correlated
/// subscripts — `A[J, J]` over a range of 96 touches 96 diagonal
/// elements (each on its own line at worst), not the 96×96 box the
/// per-dimension extents describe.
fn ref_lines(
    aref: &ArrayRef,
    ranges: &BTreeMap<String, f64>,
    dims: &[f64],
    line_bytes: f64,
) -> f64 {
    let box_lines = region_lines(&ref_extents(aref, ranges, dims), dims, line_bytes);
    let mut vars: Vec<&str> = aref
        .indices()
        .iter()
        .flat_map(|ix| ix.iter().filter(|(_, k)| *k != 0).map(|(v, _)| v))
        .collect();
    vars.sort_unstable();
    vars.dedup();
    let tuples: f64 = vars
        .iter()
        .map(|v| ranges.get(*v).copied().unwrap_or(1.0).max(1.0))
        .product();
    box_lines.min(tuples.max(1.0))
}

/// Working-set (reuse-distance) estimate, in lines, of a set of
/// `(statement, ranges)` groups: per array, the *sum* over distinct
/// references (same subscripts across statements merge by elementwise
/// max), capped at the whole array. Distinct references into one array
/// — a pivot row block and a working block — occupy cache
/// simultaneously even when their extent boxes coincide, so summing is
/// right and an elementwise-max union under-counts; the cap keeps
/// overlapping references from exceeding the array itself.
fn union_ws<'a>(
    groups: impl Iterator<Item = (&'a StmtGeometry, BTreeMap<String, f64>)>,
    geom: &KernelGeometry,
    line_bytes: f64,
) -> f64 {
    let mut per_array: BTreeMap<&str, Vec<(&ArrayRef, f64)>> = BTreeMap::new();
    for (s, ranges) in groups {
        for r in &s.refs {
            let dims = &geom.arrays[r.aref.array()];
            let lines = ref_lines(&r.aref, &ranges, dims, line_bytes);
            let regions = per_array.entry(r.aref.array()).or_default();
            match regions.iter_mut().find(|(a, _)| *a == &r.aref) {
                Some((_, u)) => *u = u.max(lines),
                None => regions.push((&r.aref, lines)),
            }
        }
    }
    per_array
        .iter()
        .map(|(a, regions)| {
            let dims = &geom.arrays[*a];
            let total: f64 = regions.iter().map(|(_, lines)| lines).sum();
            total.min(region_lines(dims, dims, line_bytes))
        })
        .sum()
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
    let total_accesses = geom.accesses;
    let mut preds = Vec::with_capacity(levels.len());
    let mut upstream = total_accesses;
    for cache in levels {
        let raw = misses_for_level(geom, &bs, cache, cfg);
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
) -> f64 {
    let line_bytes = cache.line as f64;
    let c_eff = cfg.capacity_fraction * cache.size as f64 / line_bytes;
    let m = bs.coords.len();
    let live = || geom.stmts.iter().filter(|s| s.instances > 0.0);

    // Reuse distance across one iteration of each coordinate level:
    // per-array union over every statement (the coordinate loops are
    // shared by all statements in the scanned code).
    let coord_ws: Vec<f64> = (0..m)
        .map(|k| {
            union_ws(
                live().map(|s| (s, body_ranges(s, bs, k + 1, true))),
                geom,
                line_bytes,
            )
        })
        .collect();

    let mut total = 0.0;
    for s in live() {
        let nlev = m + s.loops.len();
        // footprint of one iteration of each level, per reference
        let footprints: Vec<Vec<f64>> = (0..=nlev)
            .map(|fu| {
                let ranges = body_ranges(s, bs, fu, false);
                s.refs
                    .iter()
                    .map(|r| {
                        let dims = &geom.arrays[r.aref.array()];
                        ref_lines(&r.aref, &ranges, dims, line_bytes)
                    })
                    .collect()
            })
            .collect();
        // statement-local reuse distance across one iteration of each
        // instance level
        let inst_ws: Vec<f64> = (0..s.loops.len())
            .map(|j| {
                union_ws(
                    std::iter::once((s, body_ranges(s, bs, m + j + 1, true))),
                    geom,
                    line_bytes,
                )
            })
            .collect();
        // windowed sweep extent of each instance loop
        let inst_trips: Vec<f64> = s
            .loops
            .iter()
            .map(|l| {
                bs.windows[s.id]
                    .get(&l.var)
                    .copied()
                    .unwrap_or(l.avg_extent)
                    .min(l.avg_extent)
                    .max(1.0)
            })
            .collect();

        for (ri, r) in s.refs.iter().enumerate() {
            let mut fetch = 1.0;
            let mut pure = true;
            for i in (0..nlev).rev() {
                let (t, depends, ws) = if i < m {
                    let dep = match &bs.coords[i].binds[s.id] {
                        CoordBind::Var { var, .. } => mentions(&r.aref, var),
                        CoordBind::Fixed => false,
                        CoordBind::Opaque => true,
                    };
                    (bs.trips[s.id][i], dep, coord_ws[i])
                } else {
                    let j = i - m;
                    (
                        inst_trips[j],
                        mentions(&r.aref, &s.loops[j].var),
                        inst_ws[j],
                    )
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
                        fetch = footprints[i][ri];
                    } else if pure {
                        // partial survival: interpolate between the
                        // line-merged sweep footprint and a full
                        // refetch of the body every iteration
                        let merged = footprints[i][ri];
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
