//! Data shackles (Definition 1 of the paper).

use crate::{Blocking, CutSet};
use shackle_ir::{ArrayRef, Program, StmtId};
use shackle_polyhedra::Constraint;
use std::fmt;
use std::sync::Arc;

/// A data shackle: a [`Blocking`] of one array together with one
/// *shackled reference* per statement (§4.1).
///
/// When a block is "touched" (blocks are visited in lexicographic order
/// of block coordinates), all instances of each statement whose shackled
/// reference falls inside the block are executed, in original program
/// order.
///
/// The shackled reference of a statement need not textually occur in it:
/// the paper's §5.3 *dummy reference* mechanism (`+ 0*B[I,J]`) is
/// realized here by simply passing any affine reference to the blocked
/// array in the statement's iteration variables.
///
/// # Examples
///
/// Shackle the matrix-multiply statement to blocks of `C` through its
/// `C[I,J]` reference:
///
/// ```
/// use shackle_core::{Blocking, Shackle};
/// use shackle_ir::kernels;
///
/// let p = kernels::matmul_ijk();
/// let blocking = Blocking::square("C", 2, &[0, 1], 25);
/// let shackle = Shackle::on_writes(&p, blocking);
/// assert_eq!(shackle.refs().len(), 1);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Shackle {
    blocking: Blocking,
    /// Shared: a width sweep re-widens one shape thousands of times and
    /// no width changes a reference.
    refs: Arc<[ArrayRef]>,
}

impl Shackle {
    /// Create a shackle with an explicit shackled reference per
    /// statement (indexed by [`StmtId`]).
    ///
    /// # Panics
    ///
    /// Panics if the number of references differs from the number of
    /// statements, if a reference is not to the blocked array, if its
    /// rank is wrong, or if a subscript uses a variable that is not a
    /// surrounding loop variable or parameter of its statement.
    pub fn new(program: &Program, blocking: Blocking, refs: Vec<ArrayRef>) -> Self {
        assert_eq!(
            refs.len(),
            program.stmts().len(),
            "one shackled reference per statement"
        );
        let decl = program
            .array(blocking.array())
            .unwrap_or_else(|| panic!("array {} not declared", blocking.array()));
        for (id, r) in refs.iter().enumerate() {
            assert_eq!(
                r.array(),
                blocking.array(),
                "shackled reference {r} of {} is not to array {}",
                program.stmts()[id].label(),
                blocking.array()
            );
            assert_eq!(r.indices().len(), decl.rank(), "rank mismatch in {r}");
            let ctx = program.context(id);
            let iter_vars = ctx.iter_vars();
            for ix in r.indices() {
                for v in ix.vars() {
                    assert!(
                        iter_vars.contains(&v) || program.params().iter().any(|p| p == v),
                        "shackled reference {r} uses out-of-scope variable {v} \
                         in statement {}",
                        program.stmts()[id].label()
                    );
                }
            }
        }
        Self {
            blocking,
            refs: refs.into(),
        }
    }

    /// The paper's most common choice: shackle every statement through
    /// its left-hand-side reference ("all statement instances that write
    /// into this block of data").
    ///
    /// # Panics
    ///
    /// Panics if some statement does not write the blocked array (use
    /// [`Shackle::new`] with an explicit — possibly dummy — reference in
    /// that case).
    pub fn on_writes(program: &Program, blocking: Blocking) -> Self {
        let refs = program
            .stmts()
            .iter()
            .map(|s| {
                assert_eq!(
                    s.write().array(),
                    blocking.array(),
                    "statement {} does not write {}; choose its shackled \
                     reference explicitly",
                    s.label(),
                    blocking.array()
                );
                s.write().clone()
            })
            .collect();
        Self::new(program, blocking, refs)
    }

    /// This shackle with cut `c` set to `widths[c]`: same array,
    /// normals, directions and shackled references. The references were
    /// validated against the program when `self` was built and no width
    /// enters that check, so the result shares them with `self` rather
    /// than validating a copy.
    ///
    /// # Panics
    ///
    /// Panics unless `widths` holds one width per cut set.
    pub fn with_widths(&self, widths: &[i64]) -> Self {
        let cuts = self.blocking.cuts();
        assert_eq!(widths.len(), cuts.len(), "one width per cut set");
        let cuts = cuts
            .iter()
            .zip(widths)
            .map(|(c, &width)| CutSet { width, ..c.clone() })
            .collect();
        Self {
            blocking: Blocking::new(self.blocking.array(), cuts),
            refs: Arc::clone(&self.refs),
        }
    }

    /// The blocking.
    pub fn blocking(&self) -> &Blocking {
        &self.blocking
    }

    /// The shackled references, indexed by statement.
    pub fn refs(&self) -> &[ArrayRef] {
        &self.refs
    }

    /// Number of block coordinates contributed by this shackle.
    pub fn coord_count(&self) -> usize {
        self.blocking.cuts().len()
    }

    /// Constraints tying block-coordinate variables `zs` to the data
    /// touched by statement `id`'s shackled reference, with the
    /// statement's iteration variables renamed by `rename` (identity
    /// when it returns `None`).
    pub fn tie_for(
        &self,
        id: StmtId,
        zs: &[String],
        rename: &dyn Fn(&str) -> Option<String>,
    ) -> Vec<Constraint> {
        let r = self.refs[id].rename_vars(rename);
        self.blocking.tie(zs, &r)
    }

    /// The block-coordinate expressions of the shackle map `M` for
    /// statement `id` are existentially tied variables, not closed-form
    /// expressions; this helper returns fresh variable names for them,
    /// namespaced by `prefix` and this shackle's position `factor` in a
    /// product.
    pub fn coord_names(&self, prefix: &str, factor: usize) -> Vec<String> {
        (0..self.coord_count())
            .map(|k| format!("{prefix}z{factor}_{k}"))
            .collect()
    }
}

impl fmt::Display for Shackle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shackle[{}; refs:", self.blocking)?;
        for (i, r) in self.refs.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, " {r}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shackle_ir::kernels;

    #[test]
    fn on_writes_picks_lhs() {
        let p = kernels::cholesky_right();
        let b = Blocking::square("A", 2, &[1, 0], 64);
        let s = Shackle::on_writes(&p, b);
        assert_eq!(s.refs()[0].to_string(), "A[J, J]");
        assert_eq!(s.refs()[1].to_string(), "A[I, J]");
        assert_eq!(s.refs()[2].to_string(), "A[L, K]");
        assert_eq!(s.coord_count(), 2);
    }

    #[test]
    #[should_panic(expected = "does not write")]
    fn on_writes_requires_lhs_on_array() {
        let p = kernels::matmul_ijk();
        // A is only read by matmul's statement
        let b = Blocking::square("A", 2, &[0, 1], 25);
        let _ = Shackle::on_writes(&p, b);
    }

    #[test]
    fn explicit_refs_allow_reads_and_dummies() {
        let p = kernels::matmul_ijk();
        let b = Blocking::square("A", 2, &[0, 1], 25);
        // shackle through the read A[I,K]
        let s = Shackle::new(&p, b, vec![ArrayRef::vars("A", &["I", "K"])]);
        assert_eq!(s.refs()[0].to_string(), "A[I, K]");
    }

    #[test]
    #[should_panic(expected = "out-of-scope")]
    fn dummy_reference_must_be_in_scope() {
        let p = kernels::matmul_ijk();
        let b = Blocking::square("A", 2, &[0, 1], 25);
        let _ = Shackle::new(&p, b, vec![ArrayRef::vars("A", &["Q", "K"])]);
    }

    #[test]
    fn rewidened_shackle_shares_its_references() {
        let p = kernels::cholesky_right();
        let s = Shackle::on_writes(&p, Blocking::square("A", 2, &[1, 0], 64));
        let t = s.with_widths(&[8, 4]);
        let widths: Vec<i64> = t.blocking().cuts().iter().map(|c| c.width).collect();
        assert_eq!(widths, vec![8, 4]);
        assert_eq!(t.refs(), s.refs());
        // one allocation behind both: a width sweep copies no reference
        assert!(std::ptr::eq(t.refs().as_ptr(), s.refs().as_ptr()));
    }

    #[test]
    fn tie_for_renames() {
        let p = kernels::matmul_ijk();
        let b = Blocking::square("C", 2, &[0, 1], 25);
        let s = Shackle::on_writes(&p, b);
        let cs = s.tie_for(0, &["z0".into(), "z1".into()], &|v| Some(format!("s${v}")));
        assert_eq!(cs.len(), 4);
        assert!(cs.iter().any(|c| c.expr().coeff("s$I") != 0));
        assert!(cs.iter().all(|c| c.expr().coeff("I") == 0));
    }
}
