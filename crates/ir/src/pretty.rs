//! Pretty-printing programs in the paper's `do`-loop style.

use crate::{Bound, Node, Program};
use std::fmt;

/// Render a bound as the paper renders them: a single affine term plain,
/// divided terms as `ceild(e, d)` / `floord(e, d)`, several terms as
/// `max(...)` / `min(...)`.
pub fn bound_to_string(b: &Bound, lower: bool) -> String {
    let term = |t: &crate::BoundTerm| {
        if t.div == 1 {
            t.expr.to_string()
        } else if lower {
            format!("ceild({}, {})", t.expr, t.div)
        } else {
            format!("floord({}, {})", t.expr, t.div)
        }
    };
    if b.terms.len() == 1 {
        term(&b.terms[0])
    } else {
        let inner: Vec<String> = b.terms.iter().map(term).collect();
        if lower {
            format!("max({})", inner.join(", "))
        } else {
            format!("min({})", inner.join(", "))
        }
    }
}

pub(crate) fn print_program(p: &Program, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    writeln!(f, "// {}", p.name())?;
    write_nodes(p, p.body(), 0, f)
}

/// The loop-nest body in `do`-loop notation, two spaces per level —
/// shared by `Display` and [`crate::parse::to_source`].
pub(crate) fn write_nodes(
    p: &Program,
    nodes: &[Node],
    indent: usize,
    f: &mut impl fmt::Write,
) -> fmt::Result {
    let pad = "  ".repeat(indent);
    for n in nodes {
        match n {
            Node::Stmt(id) => {
                writeln!(f, "{pad}{}", p.stmts()[*id])?;
            }
            Node::Loop(l) => {
                writeln!(
                    f,
                    "{pad}do {} = {} .. {}",
                    l.var,
                    bound_to_string(&l.lower, true),
                    bound_to_string(&l.upper, false)
                )?;
                write_nodes(p, &l.body, indent + 1, f)?;
            }
            Node::If(cs, body) => {
                let conds: Vec<String> = cs.iter().map(|c| c.to_string()).collect();
                writeln!(f, "{pad}if ({})", conds.join(" && "))?;
                write_nodes(p, body, indent + 1, f)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{loop_, stmt, ArrayDecl, ArrayRef, BoundTerm, ScalarExpr, Statement};
    use shackle_polyhedra::LinExpr;

    #[test]
    fn bound_rendering() {
        let b = Bound::new(vec![
            BoundTerm::affine(LinExpr::var("N")),
            BoundTerm::div(LinExpr::var("N") + LinExpr::constant(24), 25),
        ]);
        assert_eq!(bound_to_string(&b, false), "min(N, floord(N + 24, 25))");
        assert_eq!(bound_to_string(&b, true), "max(N, ceild(N + 24, 25))");
        let single = Bound::affine(LinExpr::constant(1));
        assert_eq!(bound_to_string(&single, true), "1");
    }

    #[test]
    fn program_rendering() {
        let c = ArrayRef::vars("C", &["I"]);
        let s = Statement::new("S1", c.clone(), ScalarExpr::from(c));
        let p = Program::new(
            "p",
            vec!["N".into()],
            vec![ArrayDecl::new("C", vec![LinExpr::var("N")])],
            vec![s],
            vec![loop_(
                "I",
                LinExpr::constant(1),
                LinExpr::var("N"),
                vec![stmt(0)],
            )],
        );
        let text = p.to_string();
        assert!(text.contains("do I = 1 .. N"));
        assert!(text.contains("S1: C[I] = C[I]"));
    }
}
