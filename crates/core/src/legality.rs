//! The legality test: Theorem 1 of the paper.
//!
//! A shackle product defines a map `M` from statement instances to a
//! totally ordered set (the lexicographically ordered block-coordinate
//! vectors). The generated code is legal iff for every dependence from
//! instance `(S1, s)` to instance `(S2, t)` it is *impossible* that
//! `M(S2, t) ≺ M(S1, t)` — that the target's block is touched strictly
//! before the source's. Each such impossibility is an integer
//! infeasibility query, decided exactly by the Omega test.

use crate::Shackle;
use shackle_ir::deps::{dependences, prefix_renamer, Dependence, SRC_PREFIX, TGT_PREFIX};
use shackle_ir::Program;
use shackle_polyhedra::lex::lex_lt;
use shackle_polyhedra::{Budget, LinExpr, System, Verdict};
use std::fmt;
use std::sync::LazyLock;

/// Total Theorem-1 verdicts rendered (one per candidate×dependence-set
/// query), published to the probe counter `core.legality_queries`.
static LEGALITY_QUERIES: LazyLock<&'static shackle_probe::Counter> =
    LazyLock::new(|| shackle_probe::counter("core.legality_queries"));

fn count_legality_query() {
    if shackle_probe::enabled() {
        LEGALITY_QUERIES.add(1);
    }
}

/// A witnessed legality violation: a dependence together with a
/// constraint system whose integer points are dependent instance pairs
/// executed in the wrong order.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The violated dependence.
    pub dependence: Dependence,
    /// A feasible system witnessing the violation (source instance
    /// variables `s$…`, target `t$…`, block coordinates `sz…`/`tz…`).
    pub witness: System,
}

impl Violation {
    /// Materialize a concrete witness: values for the source instance
    /// (`s$…`), target instance (`t$…`), parameters and block
    /// coordinates, searched within `[-bound, bound]`.
    ///
    /// Returns `None` only when every witness needs a value outside the
    /// box (rare: violations admit small witnesses because the systems
    /// are satisfiable near the origin).
    pub fn witness_point(&self, bound: i64) -> Option<Vec<(String, i64)>> {
        self.witness.find_point(bound)
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "violated {}", self.dependence)?;
        if let Some(point) = self.witness_point(64) {
            let interesting: Vec<String> = point
                .iter()
                .filter(|(v, _)| !v.contains("z"))
                .map(|(v, k)| format!("{v}={k}"))
                .collect();
            write!(f, " (e.g. {})", interesting.join(", "))?;
        }
        Ok(())
    }
}

/// The outcome of a legality check.
#[derive(Clone, Debug)]
pub struct LegalityReport {
    /// Number of dependences examined.
    pub dependences_checked: usize,
    /// All violations found (empty iff no *proven* violation).
    pub violations: Vec<Violation>,
    /// Dependences whose Theorem-1 queries the solver could not prove
    /// either way within the default [`Budget`] (no probe was proven
    /// feasible, but at least one came back `Unknown`). Always empty
    /// for in-repo kernels; adversarial inputs land here instead of
    /// panicking, and [`Self::is_legal`] treats them as disqualifying —
    /// a shackle is only legal when legality is *proven*.
    pub unknown: Vec<Dependence>,
}

impl LegalityReport {
    /// True iff every dependence is proven respected: no violation and
    /// no undecided query. Conservative by construction — `Unknown`
    /// never admits a candidate, so generated code stays correct.
    pub fn is_legal(&self) -> bool {
        self.violations.is_empty() && self.unknown.is_empty()
    }
}

/// Check the legality of a product of shackles against a program
/// (Theorem 1 applied to the Cartesian-product map of §6).
///
/// An empty product is trivially legal. A single-element slice checks
/// one shackle; more elements check their Cartesian product
/// (Definition 2): the product map concatenates block-coordinate
/// vectors, compared lexicographically.
///
/// # Examples
///
/// Shackling matrix multiply's `C[I,J]` to blocks of `C` is legal:
///
/// ```
/// use shackle_core::{check_legality, Blocking, Shackle};
/// use shackle_ir::kernels;
///
/// let p = kernels::matmul_ijk();
/// let s = Shackle::on_writes(&p, Blocking::square("C", 2, &[0, 1], 25));
/// assert!(check_legality(&p, &[s]).is_legal());
/// ```
pub fn check_legality(program: &Program, factors: &[Shackle]) -> LegalityReport {
    let deps = dependences(program);
    check_legality_with_deps(program, factors, &deps)
}

/// As [`check_legality`], but reusing precomputed dependences (useful
/// when enumerating many candidate shackles, as in the paper's §6.1
/// exploration of the six Cholesky shacklings).
pub fn check_legality_with_deps(
    program: &Program,
    factors: &[Shackle],
    deps: &[Dependence],
) -> LegalityReport {
    let _phase = shackle_probe::span("legality");
    count_legality_query();
    let ctx = LegalityContext::new(program, factors);
    let mut violations = Vec::new();
    let mut unknown = Vec::new();
    for dep in deps {
        match ctx.dep_outcome(dep) {
            DepOutcome::Violated(witness) => violations.push(Violation {
                dependence: dep.clone(),
                witness,
            }),
            DepOutcome::Respected => {}
            DepOutcome::Unknown => unknown.push(dep.clone()),
        }
    }
    LegalityReport {
        dependences_checked: deps.len(),
        violations,
        unknown,
    }
}

/// The three-valued Theorem-1 verdict of [`decide_legality`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Legality {
    /// Every probe of every dependence is proven infeasible.
    Legal,
    /// Some probe is proven feasible: a dependence is violated.
    Illegal,
    /// No probe is proven feasible, but the solver could not decide at
    /// least one within the budget. Never admits a candidate.
    Undecided,
}

/// The early-exit Theorem-1 verdict under the caller's [`Budget`]:
/// dependences cheapest first, probes sorted by size, stopping at the
/// first *proven* violation — so an illegal candidate is rejected after
/// a single small feasibility query in the common case. An undecided
/// probe does not stop the scan (a proven violation elsewhere outranks
/// it), and a proven verdict does not depend on the budget: a tighter
/// one can only turn `Legal`/`Illegal` into `Undecided`, never into
/// each other. `Legal` iff `check_legality_with_deps(..).is_legal()`
/// under the default budget (probe order cannot change whether *some*
/// probe is feasible). This is the one pass of
/// [`crate::search::candidate_verdicts`].
pub fn decide_legality(
    program: &Program,
    factors: &[Shackle],
    deps: &[Dependence],
    budget: &Budget,
) -> Legality {
    let _phase = shackle_probe::span("legality");
    count_legality_query();
    let ctx = LegalityContext::new(program, factors);
    // Cheapest dependences first: a violation in a small system is
    // found long before the big ones are touched.
    let mut order: Vec<&Dependence> = deps.iter().collect();
    order.sort_by_key(|d| d.systems.iter().map(System::len).sum::<usize>());
    let mut undecided = false;
    for dep in order {
        match ctx.is_violated(dep, budget) {
            Verdict::Yes => return Legality::Illegal,
            Verdict::No => {}
            Verdict::Unknown => undecided = true,
        }
    }
    if undecided {
        Legality::Undecided
    } else {
        Legality::Legal
    }
}

/// How one dependence fared under the Theorem-1 probes.
enum DepOutcome {
    /// Some probe is proven feasible: this witness violates the order.
    Violated(System),
    /// Every probe is proven infeasible.
    Respected,
    /// No probe proven feasible, at least one undecided — degrade
    /// conservatively (reject the candidate, never crash the search).
    Unknown,
}

/// Shared per-candidate state of the Theorem-1 test: block-coordinate
/// tie systems per statement (source- and target-prefixed) and the
/// "target's block strictly precedes source's" disjunction. Building
/// these once per candidate instead of once per dependence matters
/// because every statement participates in several dependences.
struct LegalityContext {
    src_ties: Vec<System>,
    tgt_ties: Vec<System>,
    src_coords: Vec<LinExpr>,
    tgt_coords: Vec<LinExpr>,
    bad_order: Vec<System>,
}

impl LegalityContext {
    fn new(program: &Program, factors: &[Shackle]) -> Self {
        let n = program.stmts().len();
        let mut ctx = Self {
            src_ties: vec![System::new(); n],
            tgt_ties: vec![System::new(); n],
            src_coords: Vec::new(),
            tgt_coords: Vec::new(),
            bad_order: Vec::new(),
        };
        for (f, shackle) in factors.iter().enumerate() {
            ctx.push_factor(program, shackle, f);
        }
        // Violated iff target's block strictly precedes source's.
        // Reversed cut sets are already encoded by negated coordinates
        // in `tie_for`, so the comparison is plain lexicographic.
        ctx.bad_order = lex_lt(&ctx.tgt_coords, &ctx.src_coords, &[]);
        ctx
    }

    fn push_factor(&mut self, program: &Program, shackle: &Shackle, f: usize) {
        let sz = shackle.coord_names("s", f);
        let tz = shackle.coord_names("t", f);
        for sid in 0..program.stmts().len() {
            let vars: Vec<String> = program
                .context(sid)
                .iter_vars()
                .iter()
                .map(|s| s.to_string())
                .collect();
            self.src_ties[sid].add_all(shackle.tie_for(
                sid,
                &sz,
                &prefix_renamer(&vars, SRC_PREFIX),
            ));
            self.tgt_ties[sid].add_all(shackle.tie_for(
                sid,
                &tz,
                &prefix_renamer(&vars, TGT_PREFIX),
            ));
        }
        self.src_coords.extend(sz.iter().map(LinExpr::var));
        self.tgt_coords.extend(tz.iter().map(LinExpr::var));
    }

    /// The outcome of this dependence in the fixed (order-disjunct,
    /// bad-order-disjunct) enumeration order — the witness reported by
    /// [`check_legality_with_deps`]. A probe the solver cannot decide
    /// keeps scanning (a later probe may still prove a violation) and
    /// only reports `Unknown` if no proven-feasible probe turns up.
    fn dep_outcome(&self, dep: &Dependence) -> DepOutcome {
        let ties = self.src_ties[dep.src].and(&self.tgt_ties[dep.dst]);
        let mut undecided = false;
        for order_disjunct in &dep.systems {
            let base = order_disjunct.and(&ties);
            for bad in &self.bad_order {
                let probe = base.and(bad);
                match probe.decide(&Budget::default()) {
                    Verdict::Yes => return DepOutcome::Violated(probe),
                    Verdict::No => {}
                    Verdict::Unknown => undecided = true,
                }
            }
        }
        if undecided {
            DepOutcome::Unknown
        } else {
            DepOutcome::Respected
        }
    }

    /// Is any probe feasible? Probes are sorted by size so the cheapest
    /// queries run first; since feasibility of *some* probe is
    /// order-independent, `Yes`/`No` verdicts match
    /// [`Self::dep_outcome`]. `Yes` short-circuits even past undecided
    /// probes (a proven violation trumps an unknown one).
    fn is_violated(&self, dep: &Dependence, budget: &Budget) -> Verdict {
        let ties = self.src_ties[dep.src].and(&self.tgt_ties[dep.dst]);
        let mut probes: Vec<System> = Vec::new();
        for order_disjunct in &dep.systems {
            let base = order_disjunct.and(&ties);
            for bad in &self.bad_order {
                probes.push(base.and(bad));
            }
        }
        probes.sort_by_key(System::len);
        let mut undecided = false;
        for probe in &probes {
            match probe.decide(budget) {
                Verdict::Yes => return Verdict::Yes,
                Verdict::No => {}
                Verdict::Unknown => undecided = true,
            }
        }
        if undecided {
            Verdict::Unknown
        } else {
            Verdict::No
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Blocking;
    use shackle_ir::{kernels, ArrayRef};

    fn square_c(width: i64) -> Blocking {
        Blocking::square("C", 2, &[0, 1], width)
    }

    #[test]
    fn matmul_all_single_shackles_legal() {
        // §6.1: "shackling any of the three references … is legal"
        let p = kernels::matmul_ijk();
        for (array, idx) in [("C", ["I", "J"]), ("A", ["I", "K"]), ("B", ["K", "J"])] {
            let b = Blocking::square(array, 2, &[0, 1], 25);
            let s = Shackle::new(&p, b, vec![ArrayRef::vars(array, &idx)]);
            let rep = check_legality(&p, &[s]);
            assert!(rep.is_legal(), "shackling {array} should be legal");
            assert!(rep.dependences_checked > 0);
        }
    }

    #[test]
    fn matmul_product_c_a_legal() {
        // §6.1: M_C × M_A produces Figure 3's fully blocked code
        let p = kernels::matmul_ijk();
        let sc = Shackle::new(&p, square_c(25), vec![ArrayRef::vars("C", &["I", "J"])]);
        let sa = Shackle::new(
            &p,
            Blocking::square("A", 2, &[0, 1], 25),
            vec![ArrayRef::vars("A", &["I", "K"])],
        );
        assert!(check_legality(&p, &[sc, sa]).is_legal());
    }

    #[test]
    fn reversed_traversal_of_matmul_is_legal_too() {
        // With no loop-carried dependence across C blocks, visiting
        // blocks bottom-to-top is fine as well.
        let p = kernels::matmul_ijk();
        let b = Blocking::new(
            "C",
            vec![
                crate::CutSet::axis(0, 2, 25).reversed(),
                crate::CutSet::axis(1, 2, 25),
            ],
        );
        let s = Shackle::new(&p, b, vec![ArrayRef::vars("C", &["I", "J"])]);
        assert!(check_legality(&p, &[s]).is_legal());
    }

    #[test]
    fn forward_recurrence_blocks_legal_reversed_illegal() {
        // A[I] = A[I-1] with 1-D blocking: forward traversal legal,
        // reversed traversal violates the flow dependence.
        use shackle_ir::{loop_, stmt, ArrayDecl, ScalarExpr, Statement};
        use shackle_polyhedra::LinExpr;
        let a = |ix: LinExpr| ArrayRef::new("A", vec![ix]);
        let s = Statement::new(
            "S",
            a(LinExpr::var("I")),
            ScalarExpr::from(a(LinExpr::var("I") - LinExpr::constant(1))),
        );
        let p = shackle_ir::Program::new(
            "shift",
            vec!["N".into()],
            vec![ArrayDecl::new("A", vec![LinExpr::var("N")])],
            vec![s],
            vec![loop_(
                "I",
                LinExpr::constant(1),
                LinExpr::var("N"),
                vec![stmt(0)],
            )],
        );
        let fwd = Shackle::new(
            &p,
            Blocking::new("A", vec![crate::CutSet::axis(0, 1, 10)]),
            vec![ArrayRef::vars("A", &["I"])],
        );
        assert!(check_legality(&p, &[fwd]).is_legal());
        let rev = Shackle::new(
            &p,
            Blocking::new("A", vec![crate::CutSet::axis(0, 1, 10).reversed()]),
            vec![ArrayRef::vars("A", &["I"])],
        );
        let rep = check_legality(&p, &[rev]);
        assert!(!rep.is_legal());
        assert!(!rep.violations.is_empty());
        // the witness system must actually be integer-feasible
        assert!(rep.violations[0].witness.is_integer_feasible());
    }

    #[test]
    fn violations_carry_concrete_witnesses() {
        // the refuted literal §6.1 choice: the witness must satisfy the
        // violation system and be printable
        let p = kernels::cholesky_right();
        let s = Shackle::new(
            &p,
            Blocking::square("A", 2, &[1, 0], 8),
            vec![
                ArrayRef::vars("A", &["J", "J"]),
                ArrayRef::vars("A", &["J", "J"]),
                ArrayRef::vars("A", &["L", "J"]),
            ],
        );
        let rep = check_legality(&p, &[s]);
        assert!(!rep.is_legal());
        let v = &rep.violations[0];
        let point = v.witness_point(64).expect("small witness exists");
        let env = |name: &str| {
            point
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, k)| *k)
                .unwrap_or(0)
        };
        assert!(
            v.witness.eval(&env),
            "witness point must satisfy the system"
        );
        // the rendered violation names concrete loop values
        let text = v.to_string();
        assert!(text.contains("(e.g. "), "{text}");
        assert!(text.contains("s$"), "{text}");
    }

    #[test]
    fn cholesky_on_writes_legal() {
        // §6.1: choosing A[J,J] from S1, A[I,J] from S2, A[L,K] from S3
        // (the writes) is one of the two legal shacklings.
        let p = kernels::cholesky_right();
        let b = Blocking::square("A", 2, &[1, 0], 64);
        let s = Shackle::on_writes(&p, b);
        assert!(check_legality(&p, &[s]).is_legal());
    }

    #[test]
    fn cholesky_left_looking_shackle_legal() {
        // The lazy-update ("left-looking") shackle: scale in the owning
        // block (A[I,J]) but pull updates by their *read* of the source
        // column (A[L,J]).
        //
        // Note: the paper's §6.1 lists the second legal choice as
        // "A[J,J] from S2, A[L,J] from S3", but that choice violates the
        // S3→S2 flow dependence (witness: S3 at J=1,L=100,K=2 writes
        // A[100,2]; S2 at J=2,I=100 reads it, yet S2's diagonal block
        // (1,1) is touched before S3's block). With S2 shackled to its
        // write A[I,J] — surely the intended reading — the shackle is
        // legal, and it is the one that produces fully-blocked
        // left-looking Cholesky.
        let p = kernels::cholesky_right();
        let b = Blocking::square("A", 2, &[1, 0], 64);
        let s = Shackle::new(
            &p,
            b,
            vec![
                ArrayRef::vars("A", &["J", "J"]),
                ArrayRef::vars("A", &["I", "J"]),
                ArrayRef::vars("A", &["L", "J"]),
            ],
        );
        assert!(check_legality(&p, &[s]).is_legal());
    }

    #[test]
    fn cholesky_paper_literal_second_choice_is_refuted() {
        // The literal (A[J,J], A[J,J], A[L,J]) choice from §6.1 is
        // refuted by the exact test — see the comment above.
        let p = kernels::cholesky_right();
        let b = Blocking::square("A", 2, &[1, 0], 64);
        let s = Shackle::new(
            &p,
            b,
            vec![
                ArrayRef::vars("A", &["J", "J"]),
                ArrayRef::vars("A", &["J", "J"]),
                ArrayRef::vars("A", &["L", "J"]),
            ],
        );
        let rep = check_legality(&p, &[s]);
        assert!(!rep.is_legal());
        // the violated dependence is the S3 → S2 flow
        assert!(rep
            .violations
            .iter()
            .any(|v| v.dependence.src == 2 && v.dependence.dst == 1));
    }

    #[test]
    fn cholesky_enumeration_of_all_six_shacklings() {
        // §6.1 enumerates the six ways to shackle right-looking Cholesky
        // (S1 fixed to A[J,J]; S2 ∈ {A[I,J], A[J,J]};
        // S3 ∈ {A[L,K], A[L,J], A[K,J]}). Our exact enumeration finds
        // three legal: the right-looking writes shackle, the
        // left-looking shackle, and (A[J,J], A[K,J]); the paper's
        // literal second listing is refuted (see above), consistently
        // under both block traversal orders.
        let p = kernels::cholesky_right();
        let deps = shackle_ir::deps::dependences(&p);
        let s2_choices = [["I", "J"], ["J", "J"]];
        let s3_choices = [["L", "K"], ["L", "J"], ["K", "J"]];
        let mut legal = Vec::new();
        for s2 in &s2_choices {
            for s3 in &s3_choices {
                let b = Blocking::square("A", 2, &[1, 0], 64);
                let s = Shackle::new(
                    &p,
                    b,
                    vec![
                        ArrayRef::vars("A", &["J", "J"]),
                        ArrayRef::vars("A", s2),
                        ArrayRef::vars("A", s3),
                    ],
                );
                if check_legality_with_deps(&p, &[s], &deps).is_legal() {
                    legal.push((s2.join(","), s3.join(",")));
                }
            }
        }
        assert_eq!(
            legal,
            vec![
                ("I,J".to_string(), "L,K".to_string()),
                ("I,J".to_string(), "L,J".to_string()),
                ("J,J".to_string(), "K,J".to_string()),
            ]
        );
    }

    #[test]
    fn cholesky_product_of_legal_shackles_legal_both_orders() {
        // §6: "the product of two shackles is always legal if the two
        // shackles are legal by themselves" — and the two orders give
        // fully-blocked right-looking and left-looking Cholesky.
        let p = kernels::cholesky_right();
        let deps = shackle_ir::deps::dependences(&p);
        let writes = Shackle::on_writes(&p, Blocking::square("A", 2, &[1, 0], 64));
        let reads = Shackle::new(
            &p,
            Blocking::square("A", 2, &[1, 0], 64),
            vec![
                ArrayRef::vars("A", &["J", "J"]),
                ArrayRef::vars("A", &["I", "J"]),
                ArrayRef::vars("A", &["L", "J"]),
            ],
        );
        let rw = check_legality_with_deps(&p, &[writes.clone(), reads.clone()], &deps);
        assert!(rw.is_legal());
        let wr = check_legality_with_deps(&p, &[reads, writes], &deps);
        assert!(wr.is_legal());
    }

    #[test]
    fn cholesky_wrong_choice_illegal() {
        // e.g. shackling S3 through A[K,J] is one of the four illegal
        // choices of §6.1.
        let p = kernels::cholesky_right();
        let b = Blocking::square("A", 2, &[1, 0], 64);
        let s = Shackle::new(
            &p,
            b,
            vec![
                ArrayRef::vars("A", &["J", "J"]),
                ArrayRef::vars("A", &["I", "J"]),
                ArrayRef::vars("A", &["K", "J"]),
            ],
        );
        assert!(!check_legality(&p, &[s]).is_legal());
    }
}
