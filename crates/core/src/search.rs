//! Automatic shackle selection — the paper's §8 "ongoing work",
//! implemented: "a search method that enumerates over plausible data
//! shackles, evaluates each one and picks the best."
//!
//! The search space follows the paper's hints:
//!
//! * cutting planes are axis-aligned (§6.2: "to a first order of
//!   approximation, the orientation of cutting planes is irrelevant …
//!   provided the blocks have the same volume"), applied in each
//!   dimension order;
//! * per statement, the candidate shackled references are the
//!   statement's actual references to the blocked array (callers can
//!   extend the candidate set with dummy references);
//! * candidates are filtered by the exact Theorem 1 legality test;
//! * products are grown greedily using Theorem 2 ("If there is no
//!   statement left which has an unconstrained reference, then there is
//!   no benefit to be obtained from extending the product"), and need
//!   no second legality test: "a product of two shackles is always
//!   legal if the two shackles are legal by themselves" (§6).
//!
//! Ranking candidates needs a cost model (§8 again); this module keeps
//! the framework cost-model-agnostic: [`enumerate_legal`] returns every
//! legal candidate and the caller scores them (the workspace's
//! benchmark harness scores with the cache simulator; see the
//! `auto_shackle` example).

use crate::{decide_legality, par, span, Blocking, CutSet, Legality, Shackle};
use shackle_ir::deps::dependences;
use shackle_ir::{ArrayRef, Program, StmtId};
use shackle_polyhedra::Budget;
use std::sync::LazyLock;

/// Candidates tested by [`candidate_verdicts`], published to the probe
/// counter `search.candidates`.
static CANDIDATES: LazyLock<&'static shackle_probe::Counter> =
    LazyLock::new(|| shackle_probe::counter("search.candidates"));
/// Candidates surviving the Theorem-1 filter, published to
/// `search.legal`.
static LEGAL: LazyLock<&'static shackle_probe::Counter> =
    LazyLock::new(|| shackle_probe::counter("search.legal"));

/// Search configuration.
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// Block width used for every cut set during the search (the paper
    /// treats block-size selection as a separate problem).
    pub width: i64,
    /// Consider blocking each array that appears in the program.
    pub arrays: Option<Vec<String>>,
    /// Also enumerate reversed-direction cut sets (§8): each dimension
    /// order additionally yields a variant whose cuts all traverse
    /// `Decreasing`, so codes whose data flows from high indices to low
    /// (triangular back-solve) become reachable. Off by default — the
    /// forward-only space is the classic one, and harnesses retry with
    /// this enabled when no forward product fully blocks.
    pub reversed_directions: bool,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            width: 64,
            arrays: None,
            reversed_directions: false,
        }
    }
}

/// A legal candidate shackle with its Theorem 2 diagnosis.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The legal shackle.
    pub shackle: Shackle,
    /// References left unconstrained (empty means fully blocked).
    pub unconstrained: Vec<(StmtId, ArrayRef)>,
}

/// Enumerate every legal single shackle within the configuration.
///
/// For each chosen array, every combination of per-statement shackled
/// references (drawn from the statement's own references to that array;
/// statements with no such reference get the identity-like dummy built
/// from their first reference's subscripts — callers needing smarter
/// dummies should construct shackles manually) is tested with the exact
/// legality check.
///
/// # Examples
///
/// ```
/// use shackle_core::search::{enumerate_legal, SearchConfig};
/// let p = shackle_ir::kernels::cholesky_right();
/// let legal = enumerate_legal(&p, &SearchConfig { width: 64, ..Default::default() });
/// // §6.1's enumeration: three legal reference choices on A, each
/// // under two traversal orders (see EXPERIMENTS.md)
/// assert_eq!(legal.len(), 6);
/// ```
pub fn enumerate_legal(program: &Program, config: &SearchConfig) -> Vec<Candidate> {
    let verdicts = candidate_verdicts(program, config, &Budget::default());
    legal_candidates(program, &verdicts)
}

/// Every raw candidate of [`candidate_shackles`] paired with its
/// Theorem-1 verdict under `budget`, in enumeration order: the one
/// legality pass of a search. The program's dependences are computed
/// once and shared; candidates are decided in parallel over [`par`]
/// workers (one early-exit [`decide_legality`] each) and reassembled in
/// order, so the result is identical at any `SHACKLE_THREADS` setting.
/// The search pipeline (`shackle_serve::pipeline::auto_search`) reports
/// every verdict and the daemon refuses on an undecided one; everyone
/// else wants [`legal_candidates`] of it.
pub fn candidate_verdicts(
    program: &Program,
    config: &SearchConfig,
    budget: &Budget,
) -> Vec<(Shackle, Legality)> {
    let deps = dependences(program);
    let _phase = shackle_probe::span("enumerate");
    let worklist = candidate_shackles(program, config);
    let verdicts = par::map(&worklist, |shackle| {
        decide_legality(program, std::slice::from_ref(shackle), &deps, budget)
    });
    if shackle_probe::enabled() {
        CANDIDATES.add(worklist.len() as u64);
        LEGAL.add(verdicts.iter().filter(|&&v| v == Legality::Legal).count() as u64);
    }
    worklist.into_iter().zip(verdicts).collect()
}

/// The proven-legal candidates of a [`candidate_verdicts`] list
/// (undecided counts as illegal), deduplicated across dimension orders
/// with identical refs, each with its Theorem 2 diagnosis.
pub fn legal_candidates(program: &Program, verdicts: &[(Shackle, Legality)]) -> Vec<Candidate> {
    let mut out: Vec<Candidate> = Vec::new();
    for (shackle, verdict) in verdicts {
        if *verdict == Legality::Legal && !out.iter().any(|c| &c.shackle == shackle) {
            out.push(Candidate {
                shackle: shackle.clone(),
                unconstrained: span::unconstrained_refs(program, std::slice::from_ref(shackle)),
            });
        }
    }
    out
}

/// Upper bound on candidates per array: the cross product of
/// per-statement reference choices can explode (the paper suggests
/// heuristics to cut the search), so an array past it is skipped.
const MAX_CANDIDATES_PER_ARRAY: usize = 256;

/// The raw candidate worklist of [`enumerate_legal`], *before* the
/// legality filter, in the search's deterministic enumeration order
/// (array declaration order × dimension orders × per-statement
/// reference cross product).
pub fn candidate_shackles(program: &Program, config: &SearchConfig) -> Vec<Shackle> {
    let arrays: Vec<String> = config.arrays.clone().unwrap_or_else(|| {
        program
            .arrays()
            .iter()
            .map(|a| a.name().to_string())
            .collect()
    });
    let mut out = Vec::new();
    for array in arrays {
        let Some(decl) = program.array(&array) else {
            continue;
        };
        // candidate shackled references per statement
        let mut choices: Vec<Vec<ArrayRef>> = Vec::new();
        let mut feasible = true;
        for s in program.stmts() {
            let mut refs: Vec<ArrayRef> = Vec::new();
            for r in s.refs_to(&array) {
                if !refs.contains(r) {
                    refs.push(r.clone());
                }
            }
            if refs.is_empty() {
                // no reference to the array: skip this array for the
                // automatic search (a user-supplied dummy is needed)
                feasible = false;
                break;
            }
            choices.push(refs);
        }
        if !feasible {
            continue;
        }
        let total: usize = choices.iter().map(Vec::len).product();
        if total > MAX_CANDIDATES_PER_ARRAY {
            continue;
        }
        // dimension orders: identity and reversed-order application
        let rank = decl.rank();
        let orders: Vec<Vec<usize>> = if rank == 1 {
            vec![vec![0]]
        } else {
            vec![(0..rank).collect(), (0..rank).rev().collect()]
        };
        // forward-direction cuts always; reversed-direction variants
        // (all cuts Decreasing) appended per order when configured
        let directions: &[bool] = if config.reversed_directions {
            &[false, true]
        } else {
            &[false]
        };
        for order in &orders {
            for &reversed in directions {
                for combo in cross_product(&choices) {
                    let cuts: Vec<CutSet> = order
                        .iter()
                        .map(|&d| {
                            let cut = CutSet::axis(d, rank, config.width);
                            if reversed {
                                cut.reversed()
                            } else {
                                cut
                            }
                        })
                        .collect();
                    out.push(Shackle::new(program, Blocking::new(&array, cuts), combo));
                }
            }
        }
    }
    out
}

fn cross_product(choices: &[Vec<ArrayRef>]) -> Vec<Vec<ArrayRef>> {
    let mut acc: Vec<Vec<ArrayRef>> = vec![Vec::new()];
    for c in choices {
        let mut next = Vec::with_capacity(acc.len() * c.len());
        for prefix in &acc {
            for r in c {
                let mut p = prefix.clone();
                p.push(r.clone());
                next.push(p);
            }
        }
        acc = next;
    }
    acc
}

/// Grow a product greedily until Theorem 2 reports no unconstrained
/// references (or no candidate helps): the §6.2 recipe automated.
///
/// Starting from `seed`, repeatedly conjoin the candidate that most
/// reduces the number of unconstrained references; ties broken by
/// enumeration order, so the grown product is identical at any thread
/// count. Growth asks the solver nothing: the seed's factors and every
/// candidate must be legal on their own (as [`enumerate_legal`] returns
/// them), and then every prefix of the result is legal by §6 — "a
/// product of two shackles is always legal if the two shackles are
/// legal by themselves".
///
/// # Examples
///
/// ```
/// use shackle_core::search::{complete_product, enumerate_legal, SearchConfig};
/// let p = shackle_ir::kernels::matmul_ijk();
/// let cfg = SearchConfig { width: 25, ..Default::default() };
/// let legal = enumerate_legal(&p, &cfg);
/// let seed = vec![legal[0].shackle.clone()];
/// let product = complete_product(&p, seed, &legal);
/// assert!(shackle_core::span::unconstrained_refs(&p, &product).is_empty());
/// ```
pub fn complete_product(
    program: &Program,
    seed: Vec<Shackle>,
    candidates: &[Candidate],
) -> Vec<Shackle> {
    let _phase = shackle_probe::span("grow");
    let mut product = seed;
    loop {
        let open = span::unconstrained_refs(program, &product).len();
        if open == 0 {
            return product;
        }
        let best = par::map(candidates, |c| {
            let mut trial = product.clone();
            trial.push(c.shackle.clone());
            span::unconstrained_refs(program, &trial).len()
        })
        .into_iter()
        .enumerate()
        .map(|(i, remaining)| (remaining, i))
        .filter(|&(remaining, _)| remaining < open)
        .min();
        match best {
            Some((_, i)) => product.push(candidates[i].shackle.clone()),
            None => return product, // no candidate helps; stop
        }
    }
}

/// Re-widen a product: the same cutting-plane normals, directions and
/// shackled references, with each factor's cuts set to the paired
/// width. This is how the grid search varies block sizes without
/// re-deriving shapes: the §6.2 observation that orientation and
/// reference choice decide *legality* while widths decide *locality*
/// means one legality check per shape covers the whole width sweep
/// (re-verified for the rescored survivors by the harnesses).
///
/// # Panics
///
/// Panics if `widths.len() != product.len()`.
pub fn reblock(program: &Program, product: &[Shackle], widths: &[i64]) -> Vec<Shackle> {
    assert_eq!(widths.len(), product.len(), "one width per product factor");
    let per_cut: Vec<i64> = product
        .iter()
        .zip(widths)
        .flat_map(|(f, &w)| f.blocking().cuts().iter().map(move |_| w))
        .collect();
    rewiden(program, product, &per_cut)
}

/// The re-widening body: `per_cut` holds one width for every cut of
/// every factor, in product order. `program` is only a parameter
/// because the frozen `benchmark/` crate passes it to the public
/// re-wideners (ROADMAP 3a); the factors already carry everything.
fn rewiden(program: &Program, product: &[Shackle], per_cut: &[i64]) -> Vec<Shackle> {
    debug_assert!(
        product.iter().all(|f| {
            f.refs().len() == program.stmts().len() && program.array(f.blocking().array()).is_some()
        }),
        "product was not built for program {}",
        program.name()
    );
    let mut rest = per_cut;
    product
        .iter()
        .map(|f| {
            let (widths, tail) = rest.split_at(f.coord_count());
            rest = tail;
            f.with_widths(widths)
        })
        .collect()
}

/// The distinct product *shapes* reachable by the automatic search:
/// every legal single shackle plus the greedy completion grown from
/// each one, deduplicated. Shapes carry the pivot width from `config`;
/// [`width_grid`] re-widens them across a sweep.
pub fn grid_shapes(program: &Program, config: &SearchConfig) -> Vec<Vec<Shackle>> {
    let legal = enumerate_legal(program, config);
    let mut shapes: Vec<Vec<Shackle>> = Vec::new();
    for c in &legal {
        let single = vec![c.shackle.clone()];
        let product = complete_product(program, single.clone(), &legal);
        for s in [single, product] {
            if !shapes.contains(&s) {
                shapes.push(s);
            }
        }
    }
    shapes
}

/// The dense candidate grid: every shape crossed with every width
/// combination (`widths.len().pow(factors)` per shape — per-factor
/// widths, so multi-level blockings with different inner and outer
/// block sizes are part of the space). Candidates are ordered
/// deterministically: shapes in the given order, width combinations in
/// odometer order with the *last* factor varying fastest.
pub fn width_grid(program: &Program, shapes: &[Vec<Shackle>], widths: &[i64]) -> Vec<Vec<Shackle>> {
    let mut out = Vec::new();
    for shape in shapes {
        for combo in odometer(widths, shape.len()) {
            out.push(reblock(program, shape, &combo));
        }
    }
    out
}

/// Every assignment of `widths` to `slots` positions, in odometer
/// order with the last slot varying fastest.
fn odometer(widths: &[i64], slots: usize) -> Vec<Vec<i64>> {
    (0..slots).fold(vec![Vec::new()], |combos, _| {
        combos
            .iter()
            .flat_map(|c| widths.iter().map(move |&w| [c.as_slice(), &[w]].concat()))
            .collect()
    })
}

/// The rectangular candidate grid: every shape crossed with every
/// *per-cut* width combination (`widths.len()` raised to the total cut
/// count of the shape — independent widths in every blocked dimension,
/// where [`width_grid`] keeps each factor square). Deterministic
/// odometer order with the last cut varying fastest. The square grid
/// is a subset, so a rectangular sweep can only improve on the square
/// winner; use it on shapes with few total cuts (the count is
/// exponential in them).
pub fn rect_width_grid(
    program: &Program,
    shapes: &[Vec<Shackle>],
    widths: &[i64],
) -> Vec<Vec<Shackle>> {
    let mut out = Vec::new();
    for shape in shapes {
        let cuts = shape.iter().map(|f| f.blocking().cuts().len()).sum();
        for combo in odometer(widths, cuts) {
            out.push(rewiden(program, shape, &combo));
        }
    }
    out
}

/// Candidates ranked by the analytical first pass of [`two_phase`],
/// published to the probe counter `model.candidates`.
static MODEL_CANDIDATES: LazyLock<&'static shackle_probe::Counter> =
    LazyLock::new(|| shackle_probe::counter("model.candidates"));

/// Outcome of a [`two_phase`] search.
#[derive(Clone, Debug)]
pub struct TwoPhaseOutcome {
    /// Index of the winning candidate (minimum exact score among the
    /// rescored survivors; ties broken by candidate index).
    pub winner: usize,
    /// The winner's exact score.
    pub winner_score: u64,
    /// All candidate indices in model-rank order, best first (ties
    /// broken by candidate index).
    pub ranking: Vec<usize>,
    /// The first-pass score of every candidate, in candidate order.
    pub model_scores: Vec<u64>,
    /// `(candidate index, exact score)` for each rescored survivor, in
    /// model-rank order.
    pub rescored: Vec<(usize, u64)>,
}

/// Two-phase candidate selection: rank every candidate with the cheap
/// `model_score` (first pass, parallel over [`par`] workers), then
/// re-score only the `top_k` best-ranked survivors with the expensive
/// `exact_score` (second pass, also parallel, under the probe span
/// `search.topk_rescore`). Returns `None` on an empty candidate set or
/// `top_k == 0`.
///
/// Both phases break ties by candidate index, so the outcome is
/// byte-identical at any `SHACKLE_THREADS` setting. The module stays
/// cost-model-agnostic: scorers are injected (the harnesses pass
/// `shackle_model::predict` and the exact cache simulator).
pub fn two_phase<T: Sync>(
    candidates: &[T],
    top_k: usize,
    model_score: impl Fn(&T) -> u64 + Sync,
    exact_score: impl Fn(&T) -> u64 + Sync,
) -> Option<TwoPhaseOutcome> {
    if candidates.is_empty() || top_k == 0 {
        return None;
    }
    let scores = par::map(candidates, &model_score);
    if shackle_probe::enabled() {
        MODEL_CANDIDATES.add(candidates.len() as u64);
    }
    let mut ranking: Vec<usize> = (0..candidates.len()).collect();
    ranking.sort_by_key(|&i| (scores[i], i));
    let survivors: Vec<usize> = ranking.iter().copied().take(top_k).collect();
    let rescored: Vec<(usize, u64)> = {
        let _phase = shackle_probe::span("search.topk_rescore");
        let exact = par::map(&survivors, |&i| exact_score(&candidates[i]));
        survivors.into_iter().zip(exact).collect()
    };
    let &(winner, winner_score) = rescored
        .iter()
        .min_by_key(|&&(i, s)| (s, i))
        .expect("top_k >= 1 and candidates non-empty");
    Some(TwoPhaseOutcome {
        winner,
        winner_score,
        ranking,
        model_scores: scores,
        rescored,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_legality_with_deps;
    use shackle_ir::kernels;

    #[test]
    fn matmul_search_finds_all_single_shackles() {
        let p = kernels::matmul_ijk();
        let legal = enumerate_legal(
            &p,
            &SearchConfig {
                width: 25,
                ..Default::default()
            },
        );
        // C, A and B each admit one reference choice, two dimension
        // orders each; all legal. Distinct shackles: 3 arrays x 2
        // orders = 6.
        assert_eq!(legal.len(), 6);
        // none is fully blocking on its own
        assert!(legal.iter().all(|c| !c.unconstrained.is_empty()));
    }

    #[test]
    fn cholesky_search_matches_manual_enumeration() {
        let p = kernels::cholesky_right();
        let legal = enumerate_legal(
            &p,
            &SearchConfig {
                width: 64,
                ..Default::default()
            },
        );
        // the §6.1 space: S1 x {A[J,J]}, S2 x {A[I,J], A[J,J]},
        // S3 x {A[L,K], A[L,J], A[K,J]}; exactly three legal, under
        // both dimension orders -> 6 candidates, 6 distinct
        assert_eq!(legal.len(), 6);
        let writes = Shackle::on_writes(&p, Blocking::square("A", 2, &[0, 1], 64));
        assert!(legal.iter().any(|c| c.shackle == writes));
    }

    #[test]
    fn complete_product_closes_matmul() {
        let p = kernels::matmul_ijk();
        let cfg = SearchConfig {
            width: 8,
            ..Default::default()
        };
        let legal = enumerate_legal(&p, &cfg);
        for c in &legal {
            let product = complete_product(&p, vec![c.shackle.clone()], &legal);
            assert!(
                span::unconstrained_refs(&p, &product).is_empty(),
                "product seeded by {} should close",
                c.shackle
            );
            assert!(product.len() <= 3, "no oversized products");
        }
    }

    #[test]
    fn complete_product_closes_cholesky() {
        let p = kernels::cholesky_right();
        let cfg = SearchConfig {
            width: 16,
            ..Default::default()
        };
        let legal = enumerate_legal(&p, &cfg);
        let writes = legal
            .iter()
            .find(|c| c.shackle.refs()[2].to_string() == "A[L, K]")
            .expect("writes shackle found");
        let product = complete_product(&p, vec![writes.shackle.clone()], &legal);
        assert!(span::unconstrained_refs(&p, &product).is_empty());
        let deps = shackle_ir::deps::dependences(&p);
        assert!(check_legality_with_deps(&p, &product, &deps).is_legal());
    }

    #[test]
    fn candidate_cap_prunes_oversized_searches() {
        // two distinct references to `A` per statement: eight statements
        // sit exactly on the cap (2^8 = 256), a ninth doubles past it
        // and the array is skipped
        let chain = |stmts: usize| {
            let mut src = "program chain\nparam N\narray A(N)\n\ndo I = 2 .. N\n".to_string();
            for s in 1..=stmts {
                src += &format!("  S{s}: A[I] = A[I] + A[I - 1]\n");
            }
            shackle_ir::parse::parse(&src).expect("chain parses")
        };
        let cfg = SearchConfig::default();
        assert_eq!(candidate_shackles(&chain(8), &cfg).len(), 256);
        assert!(candidate_shackles(&chain(9), &cfg).is_empty());
        assert!(enumerate_legal(&chain(9), &cfg).is_empty());
    }

    #[test]
    fn array_filter_restricts_search() {
        let p = kernels::matmul_ijk();
        let legal = enumerate_legal(
            &p,
            &SearchConfig {
                width: 16,
                arrays: Some(vec!["C".to_string()]),
                ..Default::default()
            },
        );
        // only C's two dimension orders
        assert_eq!(legal.len(), 2);
        assert!(legal.iter().all(|c| c.shackle.blocking().array() == "C"));
    }

    #[test]
    fn reblock_preserves_shape_and_changes_widths() {
        let p = kernels::matmul_ijk();
        let cfg = SearchConfig {
            width: 8,
            ..Default::default()
        };
        let legal = enumerate_legal(&p, &cfg);
        let product = complete_product(&p, vec![legal[0].shackle.clone()], &legal);
        let re = reblock(&p, &product, &vec![16; product.len()]);
        assert_eq!(re.len(), product.len());
        for (a, b) in re.iter().zip(&product) {
            assert_eq!(a.blocking().array(), b.blocking().array());
            assert_eq!(a.refs(), b.refs());
            for (ca, cb) in a.blocking().cuts().iter().zip(b.blocking().cuts()) {
                assert_eq!(ca.normal, cb.normal);
                assert_eq!(ca.direction, cb.direction);
                assert_eq!(ca.width, 16);
                assert_eq!(cb.width, 8);
            }
        }
        // width-independence: the re-widened product is still legal
        let deps = shackle_ir::deps::dependences(&p);
        assert!(check_legality_with_deps(&p, &re, &deps).is_legal());
    }

    #[test]
    fn width_grid_is_dense_and_deterministic() {
        let p = kernels::matmul_ijk();
        let cfg = SearchConfig {
            width: 8,
            ..Default::default()
        };
        let shapes = grid_shapes(&p, &cfg);
        assert!(!shapes.is_empty());
        let widths = [4, 8, 16];
        let grid = width_grid(&p, &shapes, &widths);
        let expected: usize = shapes
            .iter()
            .map(|s| widths.len().pow(s.len() as u32))
            .sum();
        assert_eq!(grid.len(), expected);
        assert_eq!(grid, width_grid(&p, &shapes, &widths));
        // the odometer order: the first shape's candidates lead, with
        // the last factor's width varying fastest
        let w0: Vec<i64> = grid[0]
            .iter()
            .map(|f| f.blocking().cuts()[0].width)
            .collect();
        assert!(w0.iter().all(|&w| w == 4));
        let w1 = grid[1].last().unwrap().blocking().cuts()[0].width;
        assert_eq!(w1, 8);
    }

    #[test]
    fn two_phase_rescores_only_survivors_and_picks_exact_winner() {
        let candidates: Vec<u64> = vec![50, 10, 40, 20, 30];
        let rescored = std::sync::atomic::AtomicUsize::new(0);
        // model ranks by value; exact inverts the two best so the
        // rescore decides
        let out = two_phase(
            &candidates,
            2,
            |&c| c,
            |&c| {
                rescored.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if c == 10 {
                    99
                } else {
                    c
                }
            },
        )
        .unwrap();
        assert_eq!(out.ranking, vec![1, 3, 4, 2, 0]);
        assert_eq!(rescored.load(std::sync::atomic::Ordering::Relaxed), 2);
        assert_eq!(out.rescored, vec![(1, 99), (3, 20)]);
        assert_eq!(out.winner, 3);
        assert_eq!(out.winner_score, 20);
    }

    #[test]
    fn two_phase_breaks_ties_by_candidate_index() {
        let candidates = vec![7u64, 7, 7, 7];
        let out = two_phase(&candidates, 4, |&c| c, |&c| c).unwrap();
        assert_eq!(out.ranking, vec![0, 1, 2, 3]);
        assert_eq!(out.winner, 0);
        assert!(two_phase::<u64>(&[], 4, |&c| c, |&c| c).is_none());
        assert!(two_phase(&candidates, 0, |&c| c, |&c| c).is_none());
    }

    #[test]
    fn reversed_directions_double_the_candidate_space() {
        let p = kernels::matmul_ijk();
        let fwd = candidate_shackles(&p, &SearchConfig::default());
        let both = candidate_shackles(
            &p,
            &SearchConfig {
                reversed_directions: true,
                ..Default::default()
            },
        );
        assert_eq!(both.len(), 2 * fwd.len());
        // The forward space is a subset, in the same relative order.
        assert!(fwd.iter().all(|s| both.contains(s)));
        use shackle_polyhedra::lex::Direction;
        let reversed = both
            .iter()
            .filter(|s| {
                s.blocking()
                    .cuts()
                    .iter()
                    .all(|c| c.direction == Direction::Decreasing)
            })
            .count();
        assert_eq!(reversed, fwd.len());
    }

    #[test]
    fn reversed_directions_make_backsolve_reachable() {
        // The §8 example: the only legal X blocking traverses
        // bottom-to-top, invisible to the forward-only space.
        let p = kernels::backsolve();
        let fwd = enumerate_legal(
            &p,
            &SearchConfig {
                width: 8,
                arrays: Some(vec!["X".to_string()]),
                ..Default::default()
            },
        );
        assert!(fwd.is_empty(), "forward-only X blockings are all illegal");
        let both = enumerate_legal(
            &p,
            &SearchConfig {
                width: 8,
                arrays: Some(vec!["X".to_string()]),
                reversed_directions: true,
            },
        );
        assert!(!both.is_empty(), "the reversed X blocking is legal");
        use shackle_polyhedra::lex::Direction;
        assert!(both
            .iter()
            .all(|c| c.shackle.blocking().cuts()[0].direction == Direction::Decreasing));
    }

    #[test]
    fn rect_width_grid_covers_independent_per_cut_widths() {
        let p = kernels::matmul_ijk();
        let cfg = SearchConfig {
            width: 8,
            arrays: Some(vec!["C".to_string()]),
            ..Default::default()
        };
        let legal = enumerate_legal(&p, &cfg);
        let shapes: Vec<Vec<Shackle>> = legal.iter().map(|c| vec![c.shackle.clone()]).collect();
        let widths = [4, 8, 16];
        let rect = rect_width_grid(&p, &shapes, &widths);
        // one factor with two cuts: widths^2 combos per shape
        assert_eq!(rect.len(), shapes.len() * widths.len().pow(2));
        assert_eq!(rect, rect_width_grid(&p, &shapes, &widths));
        // the square grid is a subset
        let square = width_grid(&p, &shapes, &widths);
        for s in &square {
            assert!(rect.contains(s));
        }
        // genuinely rectangular combos appear, and stay legal
        let deps = shackle_ir::deps::dependences(&p);
        let rectangular: Vec<&Vec<Shackle>> = rect
            .iter()
            .filter(|c| {
                let cuts = c[0].blocking().cuts();
                cuts[0].width != cuts[1].width
            })
            .collect();
        assert_eq!(
            rectangular.len(),
            shapes.len() * (widths.len().pow(2) - widths.len())
        );
        assert!(check_legality_with_deps(&p, rectangular[0], &deps).is_legal());
        // odometer order: last cut fastest
        let first: Vec<i64> = rect[0][0]
            .blocking()
            .cuts()
            .iter()
            .map(|c| c.width)
            .collect();
        let second: Vec<i64> = rect[1][0]
            .blocking()
            .cuts()
            .iter()
            .map(|c| c.width)
            .collect();
        assert_eq!(first, vec![4, 4]);
        assert_eq!(second, vec![4, 8]);
    }

    #[test]
    fn search_skips_arrays_without_references_in_every_statement() {
        // QR's A-array search is skipped automatically because S1/S4/S6
        // do not reference A (they need dummies); T and W likewise
        let p = kernels::qr_householder();
        let legal = enumerate_legal(&p, &SearchConfig::default());
        assert!(legal.is_empty());
    }
}
