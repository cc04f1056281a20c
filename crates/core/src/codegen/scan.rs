//! The polyhedra scanner: simplified shackled code (Figures 6, 7, 10,
//! 14(ii) of the paper).
//!
//! For every statement we form its *shackled instance polyhedron* over
//! `(block coordinates, loop variables)`: the iteration domain conjoined
//! with the constraints tying each factor's block coordinates to the
//! data its shackled reference touches. The scanner then emits loops
//! dimension by dimension:
//!
//! 1. the block coordinates, outermost, in lexicographic order;
//! 2. the original program's `2d+1` schedule — textual positions group
//!    and order statements, loop dimensions get real loops.
//!
//! At every loop dimension, statements are *separated* into disjoint
//! pieces of the dimension's range (Quilleré-style intersection /
//! difference), pieces are ordered by a pairwise Omega-test query, and
//! each piece gets exact loop bounds derived from its projected system —
//! this is what turns the paper's guarded Figure 5 into the
//! index-set-split Figure 7 with its four sections.

use crate::codegen::{block_var_names, per_factor, simplify_ast};
use crate::Shackle;
use shackle_ir::schedule::SchedElem;
use shackle_ir::{loop_b, Bound, BoundTerm, Node, Program, Statement, StmtId};
use shackle_polyhedra::{Constraint, System};

/// A maximal set of statements sharing one contiguous region of the
/// current dimension.
#[derive(Clone, Debug)]
struct Piece {
    dom: System,
    stmts: Vec<StmtId>,
}

/// Generate simplified shackled code for `program` under the shackle
/// product `factors`.
///
/// The result executes blocks in lexicographic coordinate order and,
/// within each block, the shackled statement instances in original
/// program order — the semantics of Definition 1 — but with membership
/// guards turned into loop bounds and index-set splits. Degenerate
/// single-iteration loops are eliminated by substitution (this is how
/// the ADI example's 1×1 blocking turns into the fused/interchanged
/// Figure 14(ii)).
///
/// # Panics
///
/// Panics if `factors` is empty, if a blocking is not axis-aligned, or
/// if a projection required by the scanner is not exact over the
/// integers (cannot happen for unit-coefficient subscripts; use
/// [`crate::naive::generate_naive`] for such programs).
///
/// # Examples
///
/// ```
/// use shackle_core::{scan::generate_scanned, Blocking, Shackle};
/// use shackle_ir::kernels;
/// let p = kernels::matmul_ijk();
/// let s = Shackle::on_writes(&p, Blocking::square("C", 2, &[0, 1], 25));
/// let code = generate_scanned(&p, &[s]);
/// // Figure 6: block loops with ceil(N/25) trip counts, no guards
/// assert!(code.to_string().contains("floord(N + 24, 25)"));
/// assert!(!code.to_string().contains("if ("));
/// ```
pub fn generate_scanned(program: &Program, factors: &[Shackle]) -> Program {
    let _phase = shackle_probe::span("codegen");
    shackle_probe::add("core.codegen_programs", 1);
    assert!(!factors.is_empty(), "need at least one shackle");
    for f in factors {
        for k in 0..f.coord_count() {
            // validates axis-alignment eagerly
            let _ = f.blocking().coord_bounds(k, program);
        }
    }
    let names = block_var_names(program, factors);
    let slices = per_factor(&names, factors);

    let mut full = Vec::with_capacity(program.stmts().len());
    let mut scheds = Vec::with_capacity(program.stmts().len());
    for id in 0..program.stmts().len() {
        let ctx = program.context(id);
        let mut sys = ctx.domain();
        for (f, zs) in factors.iter().zip(&slices) {
            sys.add_all(f.tie_for(id, zs, &|_| None));
        }
        full.push(sys);
        scheds.push(ctx.schedule.clone());
    }

    let mut scanner = Scanner {
        program,
        params: program.params().to_vec(),
        block_vars: names.clone(),
        full,
        scheds,
        new_stmts: Vec::new(),
    };
    let all: Vec<StmtId> = (0..program.stmts().len()).collect();
    let body = scanner.gen_block(&all, 0, &mut Vec::new(), &System::new());
    let mut stmts = scanner.new_stmts;
    let body = simplify_ast::simplify_nodes(body, &mut stmts);
    // the one validation of the generated program
    Program::new(
        format!("{}-shackled", program.name()),
        program.params().to_vec(),
        program.arrays().to_vec(),
        stmts,
        body,
    )
}

struct Scanner<'a> {
    program: &'a Program,
    params: Vec<String>,
    block_vars: Vec<String>,
    full: Vec<System>,
    scheds: Vec<Vec<SchedElem>>,
    new_stmts: Vec<Statement>,
}

impl Scanner<'_> {
    /// Project statement `id`'s full system onto `outer ∪ {d} ∪ params`.
    fn project(&self, id: StmtId, outer: &[String], d: &str) -> System {
        let mut keep: Vec<&str> = outer.iter().map(String::as_str).collect();
        keep.push(d);
        keep.extend(self.params.iter().map(String::as_str));
        let (proj, exact) = self.full[id].project_onto(&keep);
        assert!(
            exact,
            "inexact projection for {} at dimension {d}; the scanner \
             requires unit-coefficient subscripts — use the naive generator",
            self.program.stmts()[id].label()
        );
        proj
    }

    /// Emit code for block-coordinate dimensions `dim..`, then the
    /// schedule.
    fn gen_block(
        &mut self,
        stmts: &[StmtId],
        dim: usize,
        outer: &mut Vec<String>,
        context: &System,
    ) -> Vec<Node> {
        if dim == self.block_vars.len() {
            return self.gen_sched(stmts, 0, outer, context);
        }
        let d = self.block_vars[dim].clone();
        self.gen_loop_dim(stmts, &d, context, outer, &mut |me, set, outer, ctx| {
            me.gen_block(set, dim + 1, outer, ctx)
        })
    }

    /// Emit code for schedule positions `pos..` (all block dims done).
    fn gen_sched(
        &mut self,
        stmts: &[StmtId],
        pos: usize,
        outer: &mut Vec<String>,
        context: &System,
    ) -> Vec<Node> {
        // group by textual position
        let mut groups: Vec<(usize, Vec<StmtId>)> = Vec::new();
        for &s in stmts {
            let SchedElem::Text(k) = self.scheds[s][pos] else {
                panic!("schedule of {s} should have Text at position {pos}");
            };
            match groups.iter_mut().find(|(g, _)| *g == k) {
                Some((_, v)) => v.push(s),
                None => groups.push((k, vec![s])),
            }
        }
        groups.sort_by_key(|(k, _)| *k);

        let mut out = Vec::new();
        for (_, group) in groups {
            let leaf = self.scheds[group[0]].len() == pos + 1;
            if leaf {
                assert_eq!(
                    group.len(),
                    1,
                    "two statements cannot share a leaf position"
                );
                out.extend(self.emit_leaf(group[0], context));
                continue;
            }
            // A guard (`If`) node introduces a textual level with no
            // loop variable: the schedule continues with another Text.
            // Its constraints are already part of the statement domains,
            // so simply descend a schedule level.
            if matches!(self.scheds[group[0]][pos + 1], SchedElem::Text(_)) {
                for &s in &group {
                    assert!(
                        matches!(self.scheds[s][pos + 1], SchedElem::Text(_)),
                        "statements in one textual group must agree on nesting"
                    );
                }
                out.extend(self.gen_sched(&group, pos + 1, outer, context));
                continue;
            }
            // all group members continue with the same loop variable
            let var = match &self.scheds[group[0]][pos + 1] {
                SchedElem::Var(v) => v.clone(),
                SchedElem::Text(_) => unreachable!(),
            };
            for &s in &group {
                assert_eq!(
                    self.scheds[s][pos + 1],
                    SchedElem::Var(var.clone()),
                    "statements in one textual group must share their loop"
                );
            }
            out.extend(self.gen_loop_dim(
                &group,
                &var,
                context,
                outer,
                &mut |me, set, outer, ctx| me.gen_sched(set, pos + 2, outer, ctx),
            ));
        }
        out
    }

    /// Shared machinery for one loop dimension `d`: project, separate,
    /// order, derive bounds, recurse via `rec`.
    #[allow(clippy::type_complexity)]
    fn gen_loop_dim(
        &mut self,
        stmts: &[StmtId],
        d: &str,
        context: &System,
        outer: &mut Vec<String>,
        rec: &mut dyn FnMut(&mut Self, &[StmtId], &mut Vec<String>, &System) -> Vec<Node>,
    ) -> Vec<Node> {
        let items: Vec<(StmtId, System)> = stmts
            .iter()
            .map(|&s| (s, self.project(s, outer, d)))
            .filter(|(_, q)| context.and(q).is_integer_feasible())
            .collect();
        if items.is_empty() {
            return Vec::new();
        }
        let pieces = separate(&items, context);
        let ordered = order_pieces(pieces, context, d);

        let mut out = Vec::new();
        for piece in ordered {
            let pruned = piece.dom.gist(context);
            let (lower, upper, guards) = extract_bounds(&pruned, d);
            let new_ctx = context.and(&piece.dom);
            outer.push(d.to_string());
            let body = rec(self, &piece.stmts, outer, &new_ctx);
            outer.pop();
            if body.is_empty() {
                continue;
            }
            let node = loop_b(d.to_string(), lower, upper, body);
            if guards.is_empty() {
                out.push(node);
            } else {
                out.push(Node::If(guards, vec![node]));
            }
        }
        out
    }

    fn emit_leaf(&mut self, id: StmtId, context: &System) -> Vec<Node> {
        // Sorted for engine-independent output (see `extract_bounds`).
        let mut guards = self.full[id].gist(context).constraints();
        guards.sort_by_cached_key(|c| c.to_string());
        guards.dedup();
        let new_id = self.new_stmts.len();
        self.new_stmts.push(self.program.stmts()[id].clone());
        let node = Node::Stmt(new_id);
        if guards.is_empty() {
            vec![node]
        } else {
            vec![Node::If(guards, vec![node])]
        }
    }
}

/// Split statements' projected ranges into disjoint pieces, each tagged
/// with the statements alive on it.
fn separate(items: &[(StmtId, System)], context: &System) -> Vec<Piece> {
    let mut pieces: Vec<Piece> = Vec::new();
    for (id, q) in items {
        let mut next: Vec<Piece> = Vec::new();
        let mut leftover: Vec<System> = vec![q.clone()];
        for piece in pieces {
            let inter = piece.dom.and(q);
            if context.and(&inter).is_integer_feasible() {
                let mut stmts = piece.stmts.clone();
                stmts.push(*id);
                next.push(Piece { dom: inter, stmts });
                for part in subtract(&piece.dom, q, context) {
                    next.push(Piece {
                        dom: part,
                        stmts: piece.stmts.clone(),
                    });
                }
                leftover = leftover
                    .iter()
                    .flat_map(|l| subtract(l, &piece.dom, context))
                    .collect();
            } else {
                next.push(piece);
            }
        }
        for l in leftover {
            if context.and(&l).is_integer_feasible() {
                next.push(Piece {
                    dom: l,
                    stmts: vec![*id],
                });
            }
        }
        pieces = next;
    }
    pieces
}

/// Disjoint decomposition of `a ∧ ¬b` (relative to `context`).
fn subtract(a: &System, b: &System, context: &System) -> Vec<System> {
    let relevant = b.gist(&context.and(a));
    let mut out = Vec::new();
    let mut prefix = a.clone();
    for c in relevant.constraints() {
        for neg in c.negate() {
            let mut piece = prefix.clone();
            piece.add(neg);
            if context.and(&piece).is_integer_feasible() {
                out.push(piece);
            }
        }
        prefix.add(c);
    }
    out
}

/// Can some point of `a` come strictly after some point of `b` along
/// dimension `d` (with identical outer coordinates)?
fn comes_after(a: &System, b: &System, context: &System, d: &str) -> bool {
    let mut sa = a.clone();
    sa.rename_var(d, "ord$x");
    let mut sb = b.clone();
    sb.rename_var(d, "ord$y");
    let mut sys = context.and(&sa).and(&sb);
    sys.add(Constraint::gt(
        shackle_polyhedra::LinExpr::var("ord$x"),
        shackle_polyhedra::LinExpr::var("ord$y"),
    ));
    sys.is_integer_feasible()
}

/// Order pieces along `d`; mutually interleaved pieces are merged into a
/// single piece whose domain is the common implied hull (correct but
/// less separated — deeper levels and leaf guards recover exactness).
fn order_pieces(mut pieces: Vec<Piece>, context: &System, d: &str) -> Vec<Piece> {
    let mut out = Vec::new();
    'outer: while !pieces.is_empty() {
        for i in 0..pieces.len() {
            let first_ok = (0..pieces.len())
                .all(|j| j == i || !comes_after(&pieces[i].dom, &pieces[j].dom, context, d));
            if first_ok {
                out.push(pieces.remove(i));
                continue 'outer;
            }
        }
        // no piece can be first: merge an interleaved pair
        let (i, j) = find_conflict(&pieces, context, d);
        let merged = merge(&pieces[i], &pieces[j], context);
        let keep_j = pieces.swap_remove(j.max(i));
        let _ = keep_j;
        pieces.swap_remove(j.min(i));
        pieces.push(merged);
    }
    out
}

fn find_conflict(pieces: &[Piece], context: &System, d: &str) -> (usize, usize) {
    for i in 0..pieces.len() {
        for j in i + 1..pieces.len() {
            if comes_after(&pieces[i].dom, &pieces[j].dom, context, d)
                && comes_after(&pieces[j].dom, &pieces[i].dom, context, d)
            {
                return (i, j);
            }
        }
    }
    panic!("order_pieces: no first piece but no mutual conflict either");
}

fn merge(a: &Piece, b: &Piece, context: &System) -> Piece {
    // Candidate constraints: the textual constraints of both pieces plus
    // each piece's per-variable marginal bounds (projection onto one
    // variable at a time). The marginals matter: pieces like `d = x` and
    // `d = 10 − x` share no textual constraint on `d`, yet both imply
    // `1 ≤ d ≤ 9`, which the merged piece needs to remain a boundable
    // loop range. Every candidate is still checked for implication by
    // *both* pieces, so the merge stays sound.
    let mut candidates: Vec<Constraint> = Vec::new();
    for dom in [&a.dom, &b.dom] {
        candidates.extend(dom.constraints());
        for v in dom.used_vars() {
            let (marginal, _) = dom.project_onto(&[v.as_str()]);
            candidates.extend(marginal.constraints());
        }
    }
    let mut kept = Vec::new();
    for c in candidates {
        let in_a = shackle_polyhedra::simplify::implies(&context.and(&a.dom), &c);
        let in_b = shackle_polyhedra::simplify::implies(&context.and(&b.dom), &c);
        if in_a && in_b && !kept.contains(&c) {
            kept.push(c);
        }
    }
    let mut stmts = a.stmts.clone();
    for s in &b.stmts {
        if !stmts.contains(s) {
            stmts.push(*s);
        }
    }
    stmts.sort_unstable();
    Piece {
        dom: System::from_constraints(kept),
        stmts,
    }
}

/// Turn the constraints of `dom` involving `d` into loop bounds; the
/// rest become guards hoisted outside the loop.
fn extract_bounds(dom: &System, d: &str) -> (Bound, Bound, Vec<Constraint>) {
    let mut lowers = Vec::new();
    let mut uppers = Vec::new();
    let mut guards = Vec::new();
    for con in dom.constraints() {
        let c = con.expr().coeff(d);
        if c == 0 {
            guards.push(con);
            continue;
        }
        let mut rest = con.expr().clone();
        rest.add_term(d, -c);
        match (con.is_eq(), c > 0) {
            (false, true) => {
                // c*d + rest >= 0  →  d >= ceil(-rest / c)
                lowers.push(BoundTerm::div(-rest, c));
            }
            (false, false) => {
                // c*d + rest >= 0, c < 0  →  (-c)*d <= rest
                uppers.push(BoundTerm::div(rest, -c));
            }
            (true, true) => {
                lowers.push(BoundTerm::div(-rest.clone(), c));
                uppers.push(BoundTerm::div(-rest, c));
            }
            (true, false) => {
                lowers.push(BoundTerm::div(rest.clone(), -c));
                uppers.push(BoundTerm::div(rest, -c));
            }
        }
    }
    assert!(
        !lowers.is_empty() && !uppers.is_empty(),
        "loop dimension {d} is unbounded in {dom}"
    );
    // Canonical order: the emitted text must not depend on the internal
    // row order of `dom`, which follows which rows `push_row`'s
    // dominance pruning dropped or tightened in place along the way.
    // Sorting by rendered form (then deduping) makes the generated
    // program a function of the polyhedron alone.
    let canon = |terms: &mut Vec<BoundTerm>| {
        terms.sort_by_cached_key(|t| (t.div, t.expr.to_string()));
        terms.dedup();
    };
    canon(&mut lowers);
    canon(&mut uppers);
    guards.sort_by_cached_key(|c: &Constraint| c.to_string());
    guards.dedup();
    (Bound::new(lowers), Bound::new(uppers), guards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Blocking;
    use shackle_ir::kernels;
    use shackle_polyhedra::LinExpr;

    fn sys(cs: Vec<Constraint>) -> System {
        System::from_constraints(cs)
    }

    #[test]
    fn subtract_splits_range() {
        // a: 1 <= d <= 10; b: 4 <= d <= 6 → pieces [1,3] and [7,10]
        let d = || LinExpr::var("d");
        let a = sys(vec![
            Constraint::ge(d(), LinExpr::constant(1)),
            Constraint::le(d(), LinExpr::constant(10)),
        ]);
        let b = sys(vec![
            Constraint::ge(d(), LinExpr::constant(4)),
            Constraint::le(d(), LinExpr::constant(6)),
        ]);
        let parts = subtract(&a, &b, &System::new());
        assert_eq!(parts.len(), 2);
        let total: usize = parts.iter().map(|p| p.enumerate_box(0, 12).len()).sum();
        assert_eq!(total, 7); // {1,2,3} ∪ {7..10}
    }

    #[test]
    fn separate_two_overlapping_statements() {
        // S0 on [1,6], S1 on [4,10] → [1,3]{0}, [4,6]{0,1}, [7,10]{1}
        let d = || LinExpr::var("d");
        let q0 = sys(vec![
            Constraint::ge(d(), LinExpr::constant(1)),
            Constraint::le(d(), LinExpr::constant(6)),
        ]);
        let q1 = sys(vec![
            Constraint::ge(d(), LinExpr::constant(4)),
            Constraint::le(d(), LinExpr::constant(10)),
        ]);
        let pieces = separate(&[(0, q0), (1, q1)], &System::new());
        assert_eq!(pieces.len(), 3);
        let ordered = order_pieces(pieces, &System::new(), "d");
        let sets: Vec<Vec<StmtId>> = ordered.iter().map(|p| p.stmts.clone()).collect();
        assert_eq!(sets, vec![vec![0], vec![0, 1], vec![1]]);
    }

    #[test]
    fn extract_bounds_divides() {
        // 25b - 24 <= d <= 25b becomes lower ceil((25b-24)/1)… here test
        // a non-unit coefficient on d via 2d >= n (d >= ceil(n/2))
        let dd = LinExpr::var("d");
        let s = sys(vec![
            Constraint::geq_zero(dd.clone() * 2 - LinExpr::var("n")),
            Constraint::le(dd, LinExpr::constant(50)),
        ]);
        let (lo, up, guards) = extract_bounds(&s, "d");
        assert!(guards.is_empty());
        assert_eq!(lo.terms.len(), 1);
        assert_eq!(lo.terms[0].div, 2);
        assert_eq!(up.terms.len(), 1);
    }

    #[test]
    fn interleaved_pieces_merge_soundly() {
        // A: d = x, B: d = 10 - x over 1 <= x <= 9: A precedes B for
        // x < 5 and follows it for x > 5, so neither can be emitted
        // first — order_pieces must merge them into one piece whose
        // domain is implied by both.
        let d = || LinExpr::var("d");
        let x = || LinExpr::var("x");
        let bounds = vec![
            Constraint::ge(x(), LinExpr::constant(1)),
            Constraint::le(x(), LinExpr::constant(9)),
        ];
        let mut a = sys(bounds.clone());
        a.add(Constraint::eq(d(), x()));
        let mut b = sys(bounds);
        b.add(Constraint::eq(d(), LinExpr::constant(10) - x()));
        assert!(comes_after(&a, &b, &System::new(), "d"));
        assert!(comes_after(&b, &a, &System::new(), "d"));
        let merged = order_pieces(
            vec![
                Piece {
                    dom: a.clone(),
                    stmts: vec![0],
                },
                Piece {
                    dom: b.clone(),
                    stmts: vec![1],
                },
            ],
            &System::new(),
            "d",
        );
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].stmts, vec![0, 1]);
        // the merged domain admits every point of both pieces
        for xv in 1..=9 {
            for (dv, _piece) in [(xv, &a), (10 - xv, &b)] {
                let env = move |v: &str| if v == "x" { xv } else { dv };
                assert!(merged[0].dom.eval(&env), "lost point x={xv} d={dv}");
            }
        }
        // and d stays bounded so a loop can still be emitted
        let (lo, hi, _) = extract_bounds(&merged[0].dom, "d");
        assert!(!lo.terms.is_empty() && !hi.terms.is_empty());
    }

    #[test]
    fn fig6_matmul_single_shackle() {
        // Figure 6: blocking C alone gives block loops over C and the
        // full K loop, no guards.
        let p = kernels::matmul_ijk();
        let s = Shackle::on_writes(&p, Blocking::square("C", 2, &[0, 1], 25));
        let g = generate_scanned(&p, &[s]);
        let text = g.to_string();
        assert!(text.contains("do b1 = 1 .. floord(N + 24, 25)"), "{text}");
        assert!(text.contains("do K = 1 .. N"), "{text}");
        assert!(
            !text.contains("if ("),
            "guards should simplify away:\n{text}"
        );
        // I's bounds are block-relative
        assert!(
            text.contains("do I = 25b1 - 24 .. min(N, 25b1)")
                || text.contains("do I = 25b1 - 24 .. min(25b1, N)"),
            "{text}"
        );
    }

    #[test]
    fn fig3_matmul_product_fully_blocked() {
        // Figure 3: the product M_C × M_A tiles all three loops.
        let p = kernels::matmul_ijk();
        let sc = Shackle::on_writes(&p, Blocking::square("C", 2, &[0, 1], 25));
        let sa = Shackle::new(
            &p,
            Blocking::square("A", 2, &[0, 1], 25),
            vec![shackle_ir::ArrayRef::vars("A", &["I", "K"])],
        );
        let g = generate_scanned(&p, &[sc, sa]);
        let text = g.to_string();
        // four block coordinates, but two coincide (C's row block = A's
        // row block), so at least three materialize as loops; K now has
        // block-relative bounds.
        assert!(!text.contains("if ("), "{text}");
        assert!(text.contains("do K = 25b"), "{text}");
    }
}
