//! Subscripts stay inside their arrays, for every value of the
//! parameters: the static check a program passes before anything runs
//! it.
//!
//! For every reference and dimension, the statement's iteration domain
//! conjoined with `subscript < 1`, and again with `subscript > extent`,
//! must be proven empty. Both are systems of the size Theorem 1 asks
//! about, decided by the same Omega test; parameters stay symbolic, so
//! a pass holds at every problem size, not just the one a run binds.
//!
//! # Examples
//!
//! ```
//! use shackle_ir::bounds::check_subscripts;
//! use shackle_polyhedra::Budget;
//!
//! assert!(check_subscripts(&shackle_ir::kernels::cholesky_right(), &Budget::default()).is_ok());
//! let overrun = shackle_ir::parse::parse(
//!     "program overrun\nparam N\narray A(N)\n\ndo I = 1 .. N\n  S1: A[I + 1] = A[I] + 1\n",
//! )
//! .unwrap();
//! let err = check_subscripts(&overrun, &Budget::default()).unwrap_err();
//! assert_eq!(err.reference.to_string(), "A[I + 1]");
//! ```

use crate::{ArrayRef, Program};
use shackle_polyhedra::{Budget, Constraint, LinExpr, Verdict};
use std::fmt;

/// Bound on the coordinates of a witness point.
const WITNESS_BOUND: i64 = 64;

/// A reference whose subscript is not proven to stay in its array.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutOfBounds {
    /// Label of the statement holding the reference.
    pub stmt: String,
    /// The reference.
    pub reference: ArrayRef,
    /// The 0-based dimension whose subscript may leave `1 ..= extent`.
    pub dim: usize,
    /// A point of the statement's domain (loop variables and
    /// parameters) where it does; `None` when the solver could not
    /// decide within its budget, or found no point with coordinates
    /// within ±64.
    pub witness: Option<Vec<(String, i64)>>,
}

impl fmt::Display for OutOfBounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: subscript {} of {} is not proven to stay in bounds",
            self.stmt, self.dim, self.reference
        )?;
        if let Some(point) = &self.witness {
            let point: Vec<String> = point.iter().map(|(v, x)| format!("{v} = {x}")).collect();
            write!(f, "; it leaves the array at {}", point.join(", "))?;
        }
        Ok(())
    }
}

impl std::error::Error for OutOfBounds {}

/// Prove every subscript of `program` within its array's extent for
/// every parameter value, deciding under `budget`; the first reference
/// that is not proven in bounds is the error (statements in declaration
/// order, then references write first, then dimensions).
pub fn check_subscripts(program: &Program, budget: &Budget) -> Result<(), OutOfBounds> {
    for (id, stmt) in program.stmts().iter().enumerate() {
        let domain = program.context(id).domain();
        let mut seen: Vec<&ArrayRef> = Vec::new();
        for (r, _) in stmt.refs() {
            if seen.contains(&r) {
                continue;
            }
            seen.push(r);
            let decl = program.array(r.array()).expect("a validated program");
            for (dim, (ix, extent)) in r.indices().iter().zip(decl.dims()).enumerate() {
                let outside = [
                    Constraint::le(ix.clone(), LinExpr::constant(0)),
                    Constraint::gt(ix.clone(), extent.clone()),
                ];
                for c in outside {
                    let mut sys = domain.clone();
                    sys.add(c);
                    let witness = match sys.decide(budget) {
                        Verdict::No => continue,
                        Verdict::Yes => sys.find_point(WITNESS_BOUND),
                        Verdict::Unknown => None,
                    };
                    return Err(OutOfBounds {
                        stmt: stmt.label().to_string(),
                        reference: r.clone(),
                        dim,
                        witness,
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;
    use crate::parse::parse;

    #[test]
    fn every_registry_kernel_stays_in_bounds() {
        for (name, build) in kernels::all() {
            assert_eq!(
                check_subscripts(&build(), &Budget::default()),
                Ok(()),
                "{name}"
            );
        }
    }

    #[test]
    fn an_overrun_names_the_reference_and_a_witness() {
        let p = parse(
            "program overrun\nparam N\narray A(N)\n\ndo I = 1 .. N\n  S1: A[I + 1] = A[I] + 1\n",
        )
        .unwrap();
        let err = check_subscripts(&p, &Budget::default()).unwrap_err();
        assert_eq!((err.stmt.as_str(), err.dim), ("S1", 0));
        assert_eq!(err.reference.to_string(), "A[I + 1]");
        let point = err.witness.clone().expect("a witness");
        let at = |v: &str| point.iter().find(|(n, _)| n == v).map(|&(_, x)| x).unwrap();
        assert!(1 <= at("I") && at("I") <= at("N") && at("I") + 1 > at("N"));
        assert!(
            err.to_string().starts_with("S1: subscript 0 of A[I + 1]"),
            "{err}"
        );
    }

    #[test]
    fn an_underrun_below_one_is_caught_too() {
        let p = parse(
            "program under\nparam N\narray A(N, N)\n\ndo I = 1 .. N\n  do J = 1 .. N\n    S1: A[I, J] = A[I, J - 1]\n",
        )
        .unwrap();
        let err = check_subscripts(&p, &Budget::default()).unwrap_err();
        assert_eq!(
            (err.reference.to_string().as_str(), err.dim),
            ("A[I, J - 1]", 1)
        );
    }
}
