//! `Program::context` describes where a statement sits — loop headers,
//! guards, schedule — without copying the tree around it. For every
//! catalogue kernel and for its canonical product's scanned code, the
//! context of every statement must carry empty loop bodies and agree
//! with a reference walk, local to this test, that keeps nothing but
//! headers.

use data_shackle::core::scan::generate_scanned;
use data_shackle::ir::schedule::SchedElem;
use data_shackle::ir::{Bound, Node, Program, StmtId};
use data_shackle::kernels::catalogue::catalogue;
use data_shackle::polyhedra::{Constraint, System};

/// What the reference walk collects on the way down to a statement.
#[derive(Default)]
struct Path {
    headers: Vec<(String, Bound, Bound)>,
    guards: Vec<Constraint>,
    schedule: Vec<SchedElem>,
}

/// Descend to statement `id`, leaving `path` describing its position.
fn descend(nodes: &[Node], id: StmtId, path: &mut Path) -> bool {
    for (pos, n) in nodes.iter().enumerate() {
        path.schedule.push(SchedElem::Text(pos));
        match n {
            Node::Stmt(s) if *s == id => return true,
            Node::Stmt(_) => {}
            Node::Loop(l) => {
                path.headers
                    .push((l.var.clone(), l.lower.clone(), l.upper.clone()));
                path.schedule.push(SchedElem::Var(l.var.clone()));
                if descend(&l.body, id, path) {
                    return true;
                }
                path.schedule.pop();
                path.headers.pop();
            }
            Node::If(cs, body) => {
                path.guards.extend(cs.iter().cloned());
                if descend(body, id, path) {
                    return true;
                }
                path.guards.truncate(path.guards.len() - cs.len());
            }
        }
        path.schedule.pop();
    }
    false
}

fn assert_contexts_match_reference(program: &Program) {
    for id in 0..program.stmts().len() {
        let mut path = Path::default();
        assert!(descend(program.body(), id, &mut path));
        let mut domain = System::new();
        for (var, lower, upper) in &path.headers {
            domain.add_all(lower.constraints(var, true));
            domain.add_all(upper.constraints(var, false));
        }
        domain.add_all(path.guards.iter().cloned());

        let ctx = program.context(id);
        let what = format!("{} statement {id}", program.name());
        assert!(ctx.loops.iter().all(|l| l.body.is_empty()), "{what}");
        let vars: Vec<&str> = path.headers.iter().map(|h| h.0.as_str()).collect();
        assert_eq!(ctx.iter_vars(), vars, "{what}");
        assert_eq!(ctx.domain(), domain, "{what}");
        assert_eq!(ctx.schedule, path.schedule, "{what}");
    }
}

#[test]
fn contexts_are_headers_and_match_a_reference_walk() {
    for e in catalogue() {
        let program = (e.build)();
        assert_contexts_match_reference(&program);
        if let Some(shackle) = e.product.or(e.single) {
            assert_contexts_match_reference(&generate_scanned(&program, &shackle(&program, 4)));
        }
    }
}
