//! Post-codegen AST cleanup: degenerate-loop elimination and constant
//! guard folding.
//!
//! A loop `do v = e .. e` runs exactly once with `v = e`; substituting
//! `e` for `v` in its body and splicing the body in place is what turns
//! the scanner's output for the ADI kernel (blocked 1×1) into the
//! fused-and-interchanged loop nest of the paper's Figure 14(ii).

use shackle_ir::{Bound, Loop, Node, Statement};
use shackle_polyhedra::LinExpr;

/// Simplify a loop tree, consuming it; statements may be rewritten
/// (their subscripts inherit substituted loop variables).
pub(crate) fn simplify_nodes(nodes: Vec<Node>, stmts: &mut [Statement]) -> Vec<Node> {
    let mut out = Vec::with_capacity(nodes.len());
    for n in nodes {
        match n {
            Node::Stmt(_) => out.push(n),
            Node::If(cs, body) => {
                let body = simplify_nodes(body, stmts);
                if body.is_empty() {
                    continue;
                }
                // fold constant conditions
                let mut kept = Vec::new();
                let mut dead = false;
                for c in cs {
                    match c.constant_truth() {
                        Some(true) => {}
                        Some(false) => {
                            dead = true;
                            break;
                        }
                        None => kept.push(c),
                    }
                }
                if dead {
                    continue;
                }
                if kept.is_empty() {
                    out.extend(body);
                } else {
                    out.push(Node::If(kept, body));
                }
            }
            Node::Loop(l) => {
                let Loop {
                    var,
                    lower,
                    upper,
                    body,
                } = *l;
                let mut body = simplify_nodes(body, stmts);
                if body.is_empty() {
                    continue;
                }
                if let Some(e) = degenerate_value(&lower, &upper) {
                    substitute_nodes(&mut body, &var, &e, stmts);
                    out.extend(body);
                } else {
                    out.push(Node::Loop(Box::new(Loop {
                        var,
                        lower,
                        upper,
                        body,
                    })));
                }
            }
        }
    }
    out
}

/// If the loop runs exactly once with a closed-form affine value,
/// return that value.
fn degenerate_value(lower: &Bound, upper: &Bound) -> Option<LinExpr> {
    if lower.terms.len() == 1
        && upper.terms.len() == 1
        && lower.terms[0].div == 1
        && upper.terms[0].div == 1
        && lower.terms[0].expr == upper.terms[0].expr
    {
        Some(lower.terms[0].expr.clone())
    } else {
        None
    }
}

/// Replace `var` by `e` throughout `nodes`, in place.
fn substitute_nodes(nodes: &mut [Node], var: &str, e: &LinExpr, stmts: &mut [Statement]) {
    for n in nodes {
        match n {
            Node::Stmt(id) => stmts[*id] = stmts[*id].substitute(var, e),
            Node::If(cs, body) => {
                for c in cs.iter_mut() {
                    *c = c.substitute(var, e);
                }
                substitute_nodes(body, var, e, stmts);
            }
            Node::Loop(l) => {
                for t in l.lower.terms.iter_mut().chain(l.upper.terms.iter_mut()) {
                    t.expr = t.expr.substitute(var, e);
                }
                // an inner loop re-binding the same name shadows it
                if l.var != var {
                    substitute_nodes(&mut l.body, var, e, stmts);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shackle_ir::{loop_, stmt, ArrayDecl, ArrayRef, Program, ScalarExpr};
    use shackle_polyhedra::Constraint;

    fn n() -> LinExpr {
        LinExpr::var("N")
    }

    /// The simplified tree as a (validated) program.
    fn simplified(body: Vec<Node>, mut stmts: Vec<Statement>) -> Program {
        let body = simplify_nodes(body, &mut stmts);
        Program::new(
            "t",
            vec!["N".into()],
            vec![ArrayDecl::square("A", "N")],
            stmts,
            body,
        )
    }

    #[test]
    fn degenerate_loop_substituted() {
        // do i = k+1 .. k+1 { A[i, k] = A[i, k] } with k an outer loop
        let a = ArrayRef::vars("A", &["i", "k"]);
        let s = Statement::new("S", a.clone(), ScalarExpr::from(a));
        let body = vec![loop_(
            "k",
            LinExpr::constant(1),
            n(),
            vec![loop_(
                "i",
                LinExpr::var("k") + LinExpr::constant(1),
                LinExpr::var("k") + LinExpr::constant(1),
                vec![stmt(0)],
            )],
        )];
        let text = simplified(body, vec![s]).to_string();
        assert!(!text.contains("do i"), "{text}");
        assert!(text.contains("A[k + 1, k]"), "{text}");
    }

    #[test]
    fn constant_guards_folded() {
        let a = ArrayRef::vars("A", &["i", "i"]);
        let s = Statement::new("S", a.clone(), ScalarExpr::from(a));
        let body = vec![loop_(
            "i",
            LinExpr::constant(1),
            n(),
            vec![Node::If(
                vec![Constraint::geq_zero(LinExpr::constant(3))],
                vec![stmt(0)],
            )],
        )];
        let q = simplified(body, vec![s]);
        assert!(!q.to_string().contains("if"), "{}", q);
    }

    #[test]
    fn dead_guard_removes_statement_region() {
        let a = ArrayRef::vars("A", &["i", "i"]);
        let s0 = Statement::new("S0", a.clone(), ScalarExpr::from(a.clone()));
        let body = vec![loop_(
            "i",
            LinExpr::constant(1),
            n(),
            vec![Node::If(
                vec![Constraint::geq_zero(LinExpr::constant(-1))],
                vec![stmt(0)],
            )],
        )];
        // the statement's region is dropped, so no valid program is
        // left to construct: only check the node transformation
        let mut stmts = vec![s0];
        let out = simplify_nodes(body, &mut stmts);
        assert!(out.is_empty());
    }

    #[test]
    fn shadowed_variable_not_substituted() {
        let a = ArrayRef::vars("A", &["x", "x"]);
        let s = Statement::new("S", a.clone(), ScalarExpr::from(a));
        // do x = 5..5 { do x = 1..N { S } } — inner x shadows
        let body = vec![loop_(
            "x",
            LinExpr::constant(5),
            LinExpr::constant(5),
            vec![loop_("x", LinExpr::constant(1), n(), vec![stmt(0)])],
        )];
        let mut stmts = vec![s];
        let out = simplify_nodes(body, &mut stmts);
        // outer eliminated, inner loop kept, subscripts still use x
        assert_eq!(out.len(), 1);
        assert!(stmts[0].to_string().contains("A[x, x]"));
    }
}
