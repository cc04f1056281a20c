//! Code generation from shackle products.
//!
//! Two generators, mirroring the paper's presentation:
//!
//! * [`naive::generate_naive`] — the Figure 5 form: loops over block
//!   coordinates around the *original* loop tree, with a
//!   block-membership guard on every statement. "Obtained directly from
//!   the specification of the data shackle without any use of polyhedral
//!   algebra tools" — trivially correct, and the executable semantics of
//!   record.
//! * [`scan::generate_scanned`] — the Figure 6/7 form: a polyhedral
//!   scanner that produces simplified imperfectly nested loops by
//!   projecting each statement's instance set level by level,
//!   separating statements into disjoint index ranges, and dropping
//!   guards implied by the loop bounds. This plays the role of the
//!   Omega-calculator simplification in the paper.
//!
//! Both return a new [`Program`] whose execution order is: blocks in
//! lexicographic coordinate order; within a block, original program
//! order.

pub mod naive;
pub mod scan;
mod simplify_ast;

use crate::Shackle;
use shackle_ir::Program;
use std::collections::BTreeSet;

/// Flattened block-coordinate variable names for a shackle product:
/// `b1, b2, …` outermost-first (factor-major, cut-minor), uniquified
/// against every name already used by the program.
pub(crate) fn block_var_names(program: &Program, factors: &[Shackle]) -> Vec<String> {
    let mut used: BTreeSet<String> = program.params().iter().cloned().collect();
    fn walk(nodes: &[shackle_ir::Node], used: &mut BTreeSet<String>) {
        for n in nodes {
            match n {
                shackle_ir::Node::Loop(l) => {
                    used.insert(l.var.clone());
                    walk(&l.body, used);
                }
                shackle_ir::Node::If(_, b) => walk(b, used),
                shackle_ir::Node::Stmt(_) => {}
            }
        }
    }
    walk(program.body(), &mut used);
    let total: usize = factors.iter().map(Shackle::coord_count).sum();
    let mut names = Vec::with_capacity(total);
    let mut k = 1;
    for _ in 0..total {
        let mut name = format!("b{k}");
        while used.contains(&name) {
            k += 1;
            name = format!("b{k}");
        }
        used.insert(name.clone());
        names.push(name);
        k += 1;
    }
    names
}

/// Split flattened block variable names back into per-factor slices.
pub(crate) fn per_factor<'a>(names: &'a [String], factors: &[Shackle]) -> Vec<&'a [String]> {
    let mut out = Vec::with_capacity(factors.len());
    let mut at = 0;
    for f in factors {
        out.push(&names[at..at + f.coord_count()]);
        at += f.coord_count();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Blocking;
    use shackle_ir::kernels;

    #[test]
    fn names_avoid_collisions() {
        let p = kernels::matmul_ijk();
        let f = vec![
            Shackle::on_writes(&p, Blocking::square("C", 2, &[0, 1], 25)),
            Shackle::new(
                &p,
                Blocking::square("A", 2, &[0, 1], 25),
                vec![shackle_ir::ArrayRef::vars("A", &["I", "K"])],
            ),
        ];
        let names = block_var_names(&p, &f);
        assert_eq!(names.len(), 4);
        let uniq: BTreeSet<&String> = names.iter().collect();
        assert_eq!(uniq.len(), 4);
        let pf = per_factor(&names, &f);
        assert_eq!(pf.len(), 2);
        assert_eq!(pf[0].len(), 2);
    }
}
