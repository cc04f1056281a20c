//! Candidate-independent geometry of a kernel: loop extents, instance
//! counts, array shapes and deduplicated references, evaluated at
//! concrete parameter values.
//!
//! The predictor ([`crate::predict()`]) is called once per candidate over
//! a dense grid, so everything that does not depend on the shackle
//! product — which is everything here — is extracted once per
//! `(program, params)` pair and shared across the sweep. That includes
//! every *name*: arrays become indices into a name-ordered table, each
//! reference's subscripts become `(loop index, |coefficient|)` terms, so
//! the per-candidate arithmetic looks nothing up by string (DESIGN.md
//! §4f).
//!
//! Triangular bounds are handled exactly *on average*: the extractor
//! walks the outer iterations numerically and records the mean trip
//! count of every loop, which is what the footprint arithmetic needs
//! (affine subscripts make footprints linear in the trip counts).
//! Guards (`If` nodes) are ignored — the banded kernels over-count,
//! which is documented conservatism (DESIGN.md §"Analytical cost
//! model").

use shackle_ir::{ArrayRef, Bound, Loop, Program, StmtId};
use std::collections::BTreeMap;

/// Ceiling division for possibly-negative numerators.
fn ceil_div(a: i64, d: i64) -> i64 {
    debug_assert!(d >= 1);
    a.div_euclid(d) + i64::from(a.rem_euclid(d) != 0)
}

/// Floor division for possibly-negative numerators.
fn floor_div(a: i64, d: i64) -> i64 {
    debug_assert!(d >= 1);
    a.div_euclid(d)
}

fn eval_bound(b: &Bound, env: &dyn Fn(&str) -> i64, lower: bool) -> i64 {
    let mut acc: Option<i64> = None;
    for t in &b.terms {
        let v = t.expr.eval(env);
        let v = if lower {
            ceil_div(v, t.div)
        } else {
            floor_div(v, t.div)
        };
        acc = Some(match acc {
            None => v,
            Some(a) if lower => a.max(v),
            Some(a) => a.min(v),
        });
    }
    acc.expect("bounds have at least one term")
}

/// One surrounding loop of a statement, with its mean trip count over
/// the enclosing iteration space.
#[derive(Clone, Debug)]
pub(crate) struct LoopInfo {
    /// The loop variable.
    pub(crate) var: String,
    /// Mean inclusive extent (`upper - lower + 1`, averaged over the
    /// enclosing iterations that reach this loop with a non-empty
    /// range). At least 1 for reachable loops.
    pub(crate) avg_extent: f64,
    /// Largest inclusive extent over the same iterations. Working-set
    /// (capacity) tests use this: a triangular loop that fits *on
    /// average* still thrashes for the wide iterations, and the model
    /// must call that streaming, not a fit.
    pub(crate) max_extent: f64,
}

/// One *distinct* array reference of a statement, with how many times
/// it occurs in the statement text (duplicate occurrences in the same
/// instance always hit — same element, same line — so the predictor
/// fetches per distinct reference but counts traffic per occurrence),
/// resolved against the statement's loops and the kernel's arrays.
#[derive(Clone, Debug)]
pub(crate) struct RefInfo {
    /// The reference (array + affine subscripts), for diagnostics.
    pub(crate) aref: ArrayRef,
    /// Occurrences in the statement (write + reads).
    pub(crate) occurrences: u64,
    /// Index of the referenced array in [`KernelGeometry::arrays`].
    pub(crate) array: usize,
    /// Kernel-wide number of this reference: equal references in
    /// different statements share one slot (they touch the same data,
    /// so a working set counts them once).
    pub(crate) slot: usize,
    /// Per subscript, its `(loop index, |coefficient|)` terms over the
    /// statement's loops, in variable-name order (the order
    /// `LinExpr::iter` yields them — the predictor adds in this order).
    pub(crate) subscripts: Vec<Vec<(usize, f64)>>,
    /// The distinct loops any subscript mentions, in variable-name
    /// order: the factors of the distinct-index-tuple cap.
    pub(crate) tuple_loops: Vec<usize>,
    /// Per loop of the statement: does any subscript mention it?
    pub(crate) mentions: Vec<bool>,
}

/// Per-statement geometry.
#[derive(Clone, Debug)]
pub(crate) struct StmtGeometry {
    /// The statement's id in the program (its index in
    /// [`KernelGeometry::stmts`]).
    pub(crate) id: StmtId,
    /// Surrounding loops, outermost first.
    pub(crate) loops: Vec<LoopInfo>,
    /// Where this statement's loops start in a kernel-wide numbering of
    /// every statement's loops (`loop_base + j` indexes per-loop tables
    /// sized [`KernelGeometry::loops`]).
    pub(crate) loop_base: usize,
    /// Exact instance count (ignoring guards).
    pub(crate) instances: f64,
    /// Distinct references with occurrence counts.
    pub(crate) refs: Vec<RefInfo>,
}

impl StmtGeometry {
    /// The index of the loop a subscript variable `var` denotes — the
    /// innermost surrounding loop of that name — or `None` if `var` is
    /// not a loop variable of this statement (a parameter).
    pub(crate) fn loop_index(&self, var: &str) -> Option<usize> {
        self.loops.iter().rposition(|l| l.var == var)
    }
}

/// Candidate-independent geometry of one `(program, params)` pair:
/// opaque outside this crate, built once per sweep and handed to
/// [`crate::predict()`] for every candidate.
#[derive(Clone, Debug)]
pub struct KernelGeometry {
    /// Per-statement geometry, in statement-id order.
    pub(crate) stmts: Vec<StmtGeometry>,
    /// Array extents per dimension, evaluated at the parameters
    /// (column-major storage; dimension 0 is contiguous), in array-name
    /// order.
    pub(crate) arrays: Vec<Vec<f64>>,
    /// Total number of surrounding loops over all statements (see
    /// [`StmtGeometry::loop_base`]).
    pub(crate) loops: usize,
    /// Total element accesses (sum over statements of
    /// `instances x occurrences`).
    pub(crate) accesses: f64,
}

impl KernelGeometry {
    /// Extract geometry for `program` at the given parameter values.
    ///
    /// The walk over outer iterations is exact; its cost is the product
    /// of all non-innermost trip counts per statement, which is
    /// `O(N^(depth-1))` — fine for the probe sizes the search uses. A
    /// safety valve caps the walk at ~4M visited iterations per
    /// statement and falls back to midpoint evaluation beyond it.
    pub fn new(program: &Program, params: &BTreeMap<String, i64>) -> Self {
        let get_param = |name: &str| *params.get(name).unwrap_or(&0);
        let arrays: BTreeMap<&str, Vec<f64>> = program
            .arrays()
            .iter()
            .map(|a| {
                let dims = a
                    .dims()
                    .iter()
                    .map(|e| e.eval(&get_param).max(1) as f64)
                    .collect();
                (a.name(), dims)
            })
            .collect();
        let mut distinct: Vec<&ArrayRef> = Vec::new();
        let mut stmts: Vec<StmtGeometry> = Vec::new();
        let mut loop_base = 0;
        let mut accesses = 0.0;
        for (id, stmt) in program.stmts().iter().enumerate() {
            let ctx = program.context(id);
            let mut walker = Walker {
                loops: &ctx.loops,
                params,
                values: vec![0; ctx.loops.len()],
                sum_extent: vec![0.0; ctx.loops.len()],
                max_extent: vec![0.0; ctx.loops.len()],
                visits: vec![0.0; ctx.loops.len()],
                budget: 4_000_000,
            };
            let instances = walker.walk(0);
            let loops: Vec<LoopInfo> = ctx
                .loops
                .iter()
                .enumerate()
                .map(|(d, l)| LoopInfo {
                    var: l.var.clone(),
                    avg_extent: if walker.visits[d] > 0.0 {
                        (walker.sum_extent[d] / walker.visits[d]).max(1.0)
                    } else {
                        1.0
                    },
                    max_extent: walker.max_extent[d].max(1.0),
                })
                .collect();
            let mut geom = StmtGeometry {
                id,
                loops,
                loop_base,
                instances,
                refs: Vec::new(),
            };
            for (r, _) in stmt.refs() {
                if let Some(existing) = geom.refs.iter_mut().find(|e| &e.aref == r) {
                    existing.occurrences += 1;
                    continue;
                }
                let slot = distinct.iter().position(|d| *d == r).unwrap_or_else(|| {
                    distinct.push(r);
                    distinct.len() - 1
                });
                let resolved = resolve(r, &geom, &arrays, slot);
                geom.refs.push(resolved);
            }
            let occurrences: u64 = geom.refs.iter().map(|r| r.occurrences).sum();
            accesses += instances * occurrences as f64;
            loop_base += geom.loops.len();
            stmts.push(geom);
        }
        Self {
            stmts,
            arrays: arrays.into_values().collect(),
            loops: loop_base,
            accesses,
        }
    }
}

/// Resolve every name of reference `r` of statement `s`: its array to
/// an index in name order, its subscript variables to loop indices.
fn resolve(
    r: &ArrayRef,
    s: &StmtGeometry,
    arrays: &BTreeMap<&str, Vec<f64>>,
    slot: usize,
) -> RefInfo {
    let array = arrays
        .keys()
        .position(|a| *a == r.array())
        .expect("a validated program references declared arrays only");
    let subscripts: Vec<Vec<(usize, f64)>> = r
        .indices()
        .iter()
        .map(|ix| {
            ix.iter()
                .filter_map(|(v, k)| Some((s.loop_index(v)?, k.abs() as f64)))
                .collect()
        })
        .collect();
    let mut by_name: Vec<(&str, usize)> = r
        .indices()
        .iter()
        .flat_map(|ix| ix.vars())
        .filter_map(|v| Some((v, s.loop_index(v)?)))
        .collect();
    by_name.sort_unstable();
    by_name.dedup();
    let mentions = (0..s.loops.len())
        .map(|j| by_name.iter().any(|&(_, l)| l == j))
        .collect();
    RefInfo {
        aref: r.clone(),
        occurrences: 1,
        array,
        slot,
        subscripts,
        tuple_loops: by_name.into_iter().map(|(_, j)| j).collect(),
        mentions,
    }
}

struct Walker<'a> {
    loops: &'a [Loop],
    params: &'a BTreeMap<String, i64>,
    /// The current value of each enclosing loop's variable; only the
    /// first `depth` entries are bound while `walk(depth)` runs.
    values: Vec<i64>,
    sum_extent: Vec<f64>,
    max_extent: Vec<f64>,
    visits: Vec<f64>,
    budget: u64,
}

impl Walker<'_> {
    /// Instances below loop `depth` given the enclosing loops' values;
    /// records extent statistics along the way. The innermost loop is
    /// handled in closed form, so the walk cost excludes it.
    fn walk(&mut self, depth: usize) -> f64 {
        if depth == self.loops.len() {
            return 1.0;
        }
        let l = &self.loops[depth];
        let (lo, hi) = {
            // innermost enclosing loop of that name, else a parameter
            let (outer, values, params) = (&self.loops[..depth], &self.values, self.params);
            let env = |name: &str| match outer.iter().rposition(|o| o.var == name) {
                Some(j) => values[j],
                None => *params.get(name).unwrap_or(&0),
            };
            (
                eval_bound(&l.lower, &env, true),
                eval_bound(&l.upper, &env, false),
            )
        };
        if hi < lo {
            return 0.0;
        }
        let extent = (hi - lo + 1) as f64;
        self.sum_extent[depth] += extent;
        self.max_extent[depth] = self.max_extent[depth].max(extent);
        self.visits[depth] += 1.0;
        if depth + 1 == self.loops.len() {
            return extent;
        }
        if self.budget == 0 {
            // budget exhausted: midpoint approximation for the rest
            self.values[depth] = lo + (hi - lo) / 2;
            return extent * self.walk(depth + 1);
        }
        let mut total = 0.0;
        for v in lo..=hi {
            self.budget = self.budget.saturating_sub(1);
            self.values[depth] = v;
            total += self.walk(depth + 1);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shackle_ir::kernels;

    fn n(v: i64) -> BTreeMap<String, i64> {
        BTreeMap::from([("N".to_string(), v)])
    }

    fn extent_of(s: &StmtGeometry, var: &str) -> f64 {
        s.loops[s.loop_index(var).expect(var)].avg_extent
    }

    #[test]
    fn matmul_counts_are_exact() {
        let g = KernelGeometry::new(&kernels::matmul_ijk(), &n(10));
        assert_eq!(g.stmts.len(), 1);
        let s = &g.stmts[0];
        assert_eq!(s.instances, 1000.0);
        assert_eq!(s.loops.len(), 3);
        assert!(s.loops.iter().all(|l| l.avg_extent == 10.0));
        // C[I,J] (write + read), A[I,K], B[K,J]: 3 distinct refs, C twice
        assert_eq!(s.refs.len(), 3);
        let c = s.refs.iter().find(|r| r.aref.array() == "C").unwrap();
        assert_eq!(c.occurrences, 2);
        assert_eq!(g.accesses, 4000.0);
        // arrays in name order: A, B, C
        assert_eq!(g.arrays.len(), 3);
        assert_eq!(g.arrays[c.array], vec![10.0, 10.0]);
        assert_eq!(c.array, 2);
        // C[I, J] over loops (I, J, K): one unit term per subscript
        assert_eq!(c.subscripts, vec![vec![(0, 1.0)], vec![(1, 1.0)]]);
        assert_eq!(c.tuple_loops, vec![0, 1]);
        assert_eq!(c.mentions, vec![true, true, false]);
    }

    #[test]
    fn cholesky_triangular_extents_average() {
        let g = KernelGeometry::new(&kernels::cholesky_right(), &n(8));
        // S2: J = 1..N, I = J+1..N -> sum over J of (N-J) = N(N-1)/2
        let s2 = &g.stmts[1];
        assert_eq!(s2.instances, 28.0);
        // mean extent of I over the J's that reach it: 28 / 7
        assert!((extent_of(s2, "I") - 4.0).abs() < 1e-9);
        // S3: J, L = J+1..N, K = J+1..L -> sum_{J<L} (L-J) over pairs
        let s3 = &g.stmts[2];
        assert_eq!(s3.instances, 84.0); // C(8+1,3) = 84 = sum_{j<l} (l-j)
    }

    #[test]
    fn adi_offset_lower_bound() {
        let g = KernelGeometry::new(&kernels::adi(), &n(6));
        // i runs 2..N: extent 5
        let s = &g.stmts[0];
        assert_eq!(extent_of(s, "i"), 5.0);
    }
}
