//! Programs: imperfectly nested loop trees over statements.

use crate::schedule::SchedElem;
use crate::{ArrayDecl, Statement};
use shackle_polyhedra::{Constraint, LinExpr, System};
use std::fmt;

/// Identifies a statement within its [`Program`].
pub type StmtId = usize;

/// One alternative in a loop bound: `ceil(expr / div)` for lower bounds,
/// `floor(expr / div)` for upper bounds. `div` is 1 for ordinary affine
/// bounds; block-coordinate loops produced by shackling use larger
/// divisors (e.g. `t1 = 1 .. ceil(N / 25)`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoundTerm {
    /// The affine numerator.
    pub expr: LinExpr,
    /// The positive divisor.
    pub div: i64,
}

impl BoundTerm {
    /// A plain affine bound (`div == 1`).
    pub fn affine(expr: LinExpr) -> Self {
        Self { expr, div: 1 }
    }

    /// A divided bound.
    ///
    /// # Panics
    ///
    /// Panics unless `div >= 1`.
    pub fn div(expr: LinExpr, div: i64) -> Self {
        assert!(div >= 1, "bound divisor must be positive");
        Self { expr, div }
    }
}

/// A loop bound: the max (for lower bounds) or min (for upper bounds) of
/// its terms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bound {
    /// The alternatives; must be non-empty.
    pub terms: Vec<BoundTerm>,
}

impl Bound {
    /// A single affine bound.
    pub fn affine(expr: LinExpr) -> Self {
        Self {
            terms: vec![BoundTerm::affine(expr)],
        }
    }

    /// A constant bound.
    pub fn constant(c: i64) -> Self {
        Self::affine(LinExpr::constant(c))
    }

    /// A bound from several terms.
    ///
    /// # Panics
    ///
    /// Panics if `terms` is empty.
    pub fn new(terms: Vec<BoundTerm>) -> Self {
        assert!(!terms.is_empty(), "bounds need at least one term");
        Self { terms }
    }

    /// Constraints stating `var >= self` (when `lower`) or `var <= self`
    /// (otherwise), exact over the integers: `v >= ceil(e/d)` iff
    /// `d·v >= e`.
    pub fn constraints(&self, var: &str, lower: bool) -> Vec<Constraint> {
        self.terms
            .iter()
            .map(|t| {
                let v = LinExpr::term(var, t.div);
                if lower {
                    Constraint::ge(v, t.expr.clone())
                } else {
                    Constraint::le(v, t.expr.clone())
                }
            })
            .collect()
    }
}

/// A `do` loop with inclusive bounds and unit step.
#[derive(Clone, Debug, PartialEq)]
pub struct Loop {
    /// The loop variable name.
    pub var: String,
    /// Lower bound (max of terms).
    pub lower: Bound,
    /// Upper bound (min of terms).
    pub upper: Bound,
    /// Loop body.
    pub body: Vec<Node>,
}

/// A node of the loop tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Node {
    /// A loop.
    Loop(Box<Loop>),
    /// A guarded region: the body executes when every constraint holds.
    If(Vec<Constraint>, Vec<Node>),
    /// A statement occurrence.
    Stmt(StmtId),
}

/// Build a loop node with simple affine bounds.
pub fn loop_(var: impl Into<String>, lower: LinExpr, upper: LinExpr, body: Vec<Node>) -> Node {
    Node::Loop(Box::new(Loop {
        var: var.into(),
        lower: Bound::affine(lower),
        upper: Bound::affine(upper),
        body,
    }))
}

/// Build a loop node with general bounds.
pub fn loop_b(var: impl Into<String>, lower: Bound, upper: Bound, body: Vec<Node>) -> Node {
    Node::Loop(Box::new(Loop {
        var: var.into(),
        lower,
        upper,
        body,
    }))
}

/// Build a statement occurrence node.
pub fn stmt(id: StmtId) -> Node {
    Node::Stmt(id)
}

/// Build a guard node.
pub fn if_(constraints: Vec<Constraint>, body: Vec<Node>) -> Node {
    Node::If(constraints, body)
}

/// The static context of a statement occurrence: its surrounding loops
/// (outermost first), guards, and `2d+1` schedule vector.
#[derive(Clone, Debug)]
pub struct StmtContext {
    /// Surrounding loop *headers*, outermost first: `var`, `lower` and
    /// `upper` of each enclosing loop. `body` is always empty — a
    /// context describes where a statement sits, not the subtree around
    /// it; walk [`Program::body`] for the tree.
    pub loops: Vec<Loop>,
    /// Guards from surrounding `If` nodes.
    pub guards: Vec<Constraint>,
    /// The `2d+1` schedule: alternating textual positions and loop
    /// variables, ending with a textual position.
    pub schedule: Vec<SchedElem>,
}

impl StmtContext {
    /// The surrounding loop variables, outermost first.
    pub fn iter_vars(&self) -> Vec<&str> {
        self.loops.iter().map(|l| l.var.as_str()).collect()
    }

    /// The iteration domain as a constraint system over the loop
    /// variables and program parameters.
    pub fn domain(&self) -> System {
        let mut sys = System::new();
        for l in &self.loops {
            sys.add_all(l.lower.constraints(&l.var, true));
            sys.add_all(l.upper.constraints(&l.var, false));
        }
        sys.add_all(self.guards.iter().cloned());
        sys
    }
}

/// A complete program: parameters, arrays, statements and a loop tree.
///
/// Invariants enforced at construction: every `Stmt` node refers to a
/// valid statement, every statement appears exactly once in the tree,
/// subscript counts match array ranks, and every variable used in a
/// subscript or bound is a surrounding loop variable or a parameter.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    name: String,
    params: Vec<String>,
    arrays: Vec<ArrayDecl>,
    stmts: Vec<Statement>,
    body: Vec<Node>,
}

impl Program {
    /// Construct and validate a program.
    ///
    /// # Panics
    ///
    /// Panics (with the message [`Program::try_new`] returns) if any
    /// structural invariant is violated — for programs built by code,
    /// violations are construction bugs.
    pub fn new(
        name: impl Into<String>,
        params: Vec<String>,
        arrays: Vec<ArrayDecl>,
        stmts: Vec<Statement>,
        body: Vec<Node>,
    ) -> Self {
        Self::try_new(name, params, arrays, stmts, body).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Construct and validate a program that did not come from this
    /// program's own code (the parser's path).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offender if a node refers to an
    /// unknown statement, a statement does not occur exactly once, a
    /// bound, guard or subscript uses a variable that is neither a
    /// parameter nor a surrounding loop variable, an array is
    /// undeclared, or a reference's subscript count differs from its
    /// array's rank.
    pub fn try_new(
        name: impl Into<String>,
        params: Vec<String>,
        arrays: Vec<ArrayDecl>,
        stmts: Vec<Statement>,
        body: Vec<Node>,
    ) -> Result<Self, String> {
        let p = Self {
            name: name.into(),
            params,
            arrays,
            stmts,
            body,
        };
        p.validate()?;
        Ok(p)
    }

    /// The program's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Symbolic parameters (e.g. `N`).
    pub fn params(&self) -> &[String] {
        &self.params
    }

    /// Declared arrays.
    pub fn arrays(&self) -> &[ArrayDecl] {
        &self.arrays
    }

    /// Look up an array by name.
    pub fn array(&self, name: &str) -> Option<&ArrayDecl> {
        self.arrays.iter().find(|a| a.name() == name)
    }

    /// The statements (indexed by [`StmtId`]).
    pub fn stmts(&self) -> &[Statement] {
        &self.stmts
    }

    /// The loop tree.
    pub fn body(&self) -> &[Node] {
        &self.body
    }

    /// Replace the loop tree (used by code generation), revalidating.
    pub fn with_body(&self, body: Vec<Node>) -> Program {
        Program::new(
            self.name.clone(),
            self.params.clone(),
            self.arrays.clone(),
            self.stmts.clone(),
            body,
        )
    }

    /// Rename the program.
    pub fn with_name(mut self, name: impl Into<String>) -> Program {
        self.name = name.into();
        self
    }

    /// The static context (loops, guards, schedule) of a statement's
    /// unique occurrence.
    ///
    /// # Panics
    ///
    /// Panics if the statement does not occur in the tree.
    pub fn context(&self, id: StmtId) -> StmtContext {
        /// One step of the path from the root to the statement: the
        /// node's textual position and what it contributes.
        enum Step<'a> {
            Loop(usize, &'a Loop),
            // Guards are transparent to the schedule: the textual
            // position of children is the If's own position plus a
            // sub-position. We fold the If into the schedule as a Text
            // level to keep positions unambiguous.
            If(usize, &'a [Constraint]),
        }
        fn find<'a>(nodes: &'a [Node], id: StmtId, path: &mut Vec<Step<'a>>) -> Option<usize> {
            for (pos, n) in nodes.iter().enumerate() {
                let (step, body) = match n {
                    Node::Stmt(s) if *s == id => return Some(pos),
                    Node::Stmt(_) => continue,
                    Node::Loop(l) => (Step::Loop(pos, l), &l.body),
                    Node::If(cs, body) => (Step::If(pos, cs), body),
                };
                path.push(step);
                if let Some(leaf) = find(body, id, path) {
                    return Some(leaf);
                }
                path.pop();
            }
            None
        }
        let mut path = Vec::new();
        let leaf = find(&self.body, id, &mut path)
            .unwrap_or_else(|| panic!("statement {id} does not occur in program {}", self.name));
        let mut ctx = StmtContext {
            loops: Vec::new(),
            guards: Vec::new(),
            schedule: Vec::new(),
        };
        for step in path {
            match step {
                Step::Loop(pos, l) => {
                    ctx.loops.push(Loop {
                        var: l.var.clone(),
                        lower: l.lower.clone(),
                        upper: l.upper.clone(),
                        body: Vec::new(),
                    });
                    ctx.schedule.push(SchedElem::Text(pos));
                    ctx.schedule.push(SchedElem::Var(l.var.clone()));
                }
                Step::If(pos, cs) => {
                    ctx.guards.extend(cs.iter().cloned());
                    ctx.schedule.push(SchedElem::Text(pos));
                }
            }
        }
        ctx.schedule.push(SchedElem::Text(leaf));
        ctx
    }

    /// Statement ids in textual (program) order.
    pub fn stmt_order(&self) -> Vec<StmtId> {
        fn walk(nodes: &[Node], out: &mut Vec<StmtId>) {
            for n in nodes {
                match n {
                    Node::Stmt(s) => out.push(*s),
                    Node::Loop(l) => walk(&l.body, out),
                    Node::If(_, b) => walk(b, out),
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.body, &mut out);
        out
    }

    /// One walk over the tree with the variables in scope on a stack
    /// (an inner loop re-binding a name shadows it and is popped on the
    /// way out): bounds are checked where their loop opens, guards where
    /// their `If` opens, references where their statement sits.
    fn validate(&self) -> Result<(), String> {
        fn walk<'a>(
            p: &'a Program,
            nodes: &'a [Node],
            scope: &mut Vec<&'a str>,
            seen: &mut [usize],
        ) -> Result<(), String> {
            for n in nodes {
                match n {
                    Node::Stmt(id) => {
                        let s = p
                            .stmts
                            .get(*id)
                            .ok_or_else(|| format!("node references unknown statement {id}"))?;
                        seen[*id] += 1;
                        for (r, _) in s.refs() {
                            let decl = p
                                .array(r.array())
                                .ok_or_else(|| format!("undeclared array {}", r.array()))?;
                            if r.indices().len() != decl.rank() {
                                return Err(format!("reference {r} does not match rank of {decl}"));
                            }
                            for v in r.indices().iter().flat_map(LinExpr::vars) {
                                if !scope.contains(&v) {
                                    return Err(format!(
                                        "subscript of {r} uses out-of-scope variable {v}"
                                    ));
                                }
                            }
                        }
                    }
                    Node::Loop(l) => {
                        let terms = l.lower.terms.iter().chain(&l.upper.terms);
                        for v in terms.flat_map(|t| t.expr.vars()) {
                            if !scope.contains(&v) {
                                return Err(format!(
                                    "bound of loop {} uses out-of-scope variable {v}",
                                    l.var
                                ));
                            }
                        }
                        scope.push(&l.var);
                        walk(p, &l.body, scope, seen)?;
                        scope.pop();
                    }
                    Node::If(cs, body) => {
                        for g in cs {
                            for v in g.expr().vars() {
                                if !scope.contains(&v) {
                                    return Err(format!(
                                        "guard {g} uses out-of-scope variable {v}"
                                    ));
                                }
                            }
                        }
                        walk(p, body, scope, seen)?;
                    }
                }
            }
            Ok(())
        }
        let mut scope: Vec<&str> = self.params.iter().map(String::as_str).collect();
        let mut seen = vec![0; self.stmts.len()];
        walk(self, &self.body, &mut scope, &mut seen)?;
        match seen.iter().enumerate().find(|(_, &count)| count != 1) {
            Some((id, count)) => Err(format!(
                "statement {id} ({}) must occur exactly once, found {count}",
                self.stmts[id].label()
            )),
            None => Ok(()),
        }
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::pretty::print_program(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArrayRef, ScalarExpr};

    fn n() -> LinExpr {
        LinExpr::var("N")
    }

    fn one() -> LinExpr {
        LinExpr::constant(1)
    }

    /// The paper's Figure 1(i): matrix multiplication, I-J-K order.
    fn matmul() -> Program {
        let c = ArrayRef::vars("C", &["I", "J"]);
        let a = ArrayRef::vars("A", &["I", "K"]);
        let b = ArrayRef::vars("B", &["K", "J"]);
        let s = Statement::new(
            "S1",
            c.clone(),
            ScalarExpr::from(c) + ScalarExpr::from(a) * b.into(),
        );
        Program::new(
            "matmul",
            vec!["N".into()],
            vec![
                ArrayDecl::square("C", "N"),
                ArrayDecl::square("A", "N"),
                ArrayDecl::square("B", "N"),
            ],
            vec![s],
            vec![loop_(
                "I",
                one(),
                n(),
                vec![loop_(
                    "J",
                    one(),
                    n(),
                    vec![loop_("K", one(), n(), vec![stmt(0)])],
                )],
            )],
        )
    }

    #[test]
    fn context_of_matmul() {
        let p = matmul();
        let ctx = p.context(0);
        assert_eq!(ctx.iter_vars(), vec!["I", "J", "K"]);
        assert_eq!(ctx.schedule.len(), 7); // T V T V T V T
        let dom = ctx.domain();
        assert!(dom.eval(&|v| match v {
            "N" => 4,
            _ => 2,
        }));
        assert!(!dom.eval(&|v| match v {
            "N" => 4,
            "K" => 5,
            _ => 2,
        }));
    }

    #[test]
    fn stmt_order_walks_tree() {
        let p = matmul();
        assert_eq!(p.stmt_order(), vec![0]);
    }

    #[test]
    #[should_panic(expected = "exactly once")]
    fn duplicate_statement_rejected() {
        let c = ArrayRef::vars("C", &["I"]);
        let s = Statement::new("S", c.clone(), ScalarExpr::from(c));
        let _ = Program::new(
            "bad",
            vec!["N".into()],
            vec![ArrayDecl::new("C", vec![n()])],
            vec![s],
            vec![loop_("I", one(), n(), vec![stmt(0), stmt(0)])],
        );
    }

    #[test]
    #[should_panic(expected = "out-of-scope")]
    fn out_of_scope_subscript_rejected() {
        let c = ArrayRef::vars("C", &["Q"]);
        let s = Statement::new("S", c.clone(), ScalarExpr::from(c));
        let _ = Program::new(
            "bad",
            vec!["N".into()],
            vec![ArrayDecl::new("C", vec![n()])],
            vec![s],
            vec![loop_("I", one(), n(), vec![stmt(0)])],
        );
    }

    #[test]
    #[should_panic(expected = "rank")]
    fn rank_mismatch_rejected() {
        let c = ArrayRef::vars("C", &["I", "I"]);
        let s = Statement::new("S", c.clone(), ScalarExpr::from(c));
        let _ = Program::new(
            "bad",
            vec!["N".into()],
            vec![ArrayDecl::new("C", vec![n()])],
            vec![s],
            vec![loop_("I", one(), n(), vec![stmt(0)])],
        );
    }

    /// `try_new` over one array `C(N)`, one statement per given write
    /// reference, and `body`: the refusal message.
    fn refusal(writes: &[ArrayRef], body: Vec<Node>) -> String {
        let stmts = writes
            .iter()
            .enumerate()
            .map(|(i, w)| Statement::new(format!("S{i}"), w.clone(), ScalarExpr::from(w.clone())))
            .collect();
        Program::try_new(
            "bad",
            vec!["N".into()],
            vec![ArrayDecl::new("C", vec![n()])],
            stmts,
            body,
        )
        .expect_err("the program is invalid")
    }

    #[test]
    fn every_rejection_class_is_an_error_naming_the_offender() {
        let c = |v: &str| ArrayRef::vars("C", &[v]);
        let q = || LinExpr::var("Q");
        let over_i = |body| vec![loop_("I", one(), n(), body)];
        for (message, expected) in [
            // a statement that is in the table but not in the tree
            (
                refusal(&[c("I")], over_i(vec![])),
                "S0) must occur exactly once, found 0",
            ),
            (
                refusal(&[c("I")], over_i(vec![stmt(0), stmt(0)])),
                "S0) must occur exactly once, found 2",
            ),
            (
                refusal(&[c("I")], over_i(vec![stmt(0), stmt(3)])),
                "unknown statement 3",
            ),
            (
                refusal(&[c("I")], vec![loop_("I", one(), q(), vec![stmt(0)])]),
                "bound of loop I uses out-of-scope variable Q",
            ),
            (
                refusal(
                    &[c("I")],
                    over_i(vec![if_(vec![Constraint::ge(q(), one())], vec![stmt(0)])]),
                ),
                "uses out-of-scope variable Q",
            ),
            (
                refusal(&[c("Q")], over_i(vec![stmt(0)])),
                "subscript of C[Q] uses out-of-scope variable Q",
            ),
            (
                refusal(&[ArrayRef::vars("D", &["I"])], over_i(vec![stmt(0)])),
                "undeclared array D",
            ),
            (
                refusal(&[ArrayRef::vars("C", &["I", "I"])], over_i(vec![stmt(0)])),
                "reference C[I, I] does not match rank",
            ),
            // a loop variable is out of scope once its loop has closed
            (
                refusal(
                    &[c("I"), c("J")],
                    vec![
                        loop_("I", one(), n(), vec![loop_("J", one(), n(), vec![stmt(0)])]),
                        loop_("I", one(), n(), vec![stmt(1)]),
                    ],
                ),
                "subscript of C[J] uses out-of-scope variable J",
            ),
        ] {
            assert!(message.contains(expected), "{message:?} lacks {expected:?}");
        }
    }

    #[test]
    fn lexical_shadowing_is_accepted() {
        // do N = 1 .. N { do I = 1 .. N { do I = I .. N { S0 } S1 } }:
        // a loop may re-bind a parameter or an outer loop variable, and
        // the outer binding is back in scope when the inner loop closes
        let c = ArrayRef::vars("C", &["I"]);
        let s = |label: &str| Statement::new(label, c.clone(), ScalarExpr::from(c.clone()));
        let inner = loop_("I", LinExpr::var("I"), n(), vec![stmt(0)]);
        let p = Program::new(
            "shadow",
            vec!["N".into()],
            vec![ArrayDecl::new("C", vec![n()])],
            vec![s("S0"), s("S1")],
            vec![loop_(
                "N",
                one(),
                n(),
                vec![loop_("I", one(), n(), vec![inner, stmt(1)])],
            )],
        );
        assert_eq!(p.context(0).iter_vars(), vec!["N", "I", "I"]);
        assert_eq!(p.context(1).iter_vars(), vec!["N", "I"]);
    }

    #[test]
    fn bound_constraints_are_exact_for_divided_bounds() {
        // t >= ceil(N/25) is 25 t >= N
        let b = Bound::new(vec![BoundTerm::div(LinExpr::var("N"), 25)]);
        let cs = b.constraints("t", true);
        assert_eq!(cs.len(), 1);
        assert!(cs[0].eval(&|v| if v == "t" { 4 } else { 100 }));
        assert!(!cs[0].eval(&|v| if v == "t" { 3 } else { 100 }));
    }

    #[test]
    fn guards_enter_domain() {
        let c = ArrayRef::vars("C", &["I"]);
        let s = Statement::new("S", c.clone(), ScalarExpr::from(c));
        let p = Program::new(
            "guarded",
            vec!["N".into()],
            vec![ArrayDecl::new("C", vec![n()])],
            vec![s],
            vec![loop_(
                "I",
                one(),
                n(),
                vec![if_(
                    vec![Constraint::ge(LinExpr::var("I"), LinExpr::constant(5))],
                    vec![stmt(0)],
                )],
            )],
        );
        let dom = p.context(0).domain();
        assert!(!dom.eval(&|v| if v == "N" { 10 } else { 4 }));
        assert!(dom.eval(&|v| if v == "N" { 10 } else { 5 }));
    }
}
