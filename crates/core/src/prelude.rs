//! One-stop imports for the compile-time pipeline.
//!
//! Re-exports the types and functions that nearly every consumer of the
//! shackling pipeline touches: the shackle vocabulary from this crate,
//! the IR surface ([`Program`], [`ArrayRef`], dependence analysis, the
//! built-in kernels) and the polyhedral substrate ([`System`],
//! [`LinExpr`]). Downstream crates layer their own preludes on top
//! (`shackle_bench::prelude` adds simulation, tracing and
//! instrumentation for the figure sweeps).
//!
//! ```
//! use shackle_core::prelude::*;
//!
//! let p = kernels::matmul_ijk();
//! let s = Shackle::on_writes(&p, Blocking::square("C", 2, &[0, 1], 25));
//! assert!(check_legality(&p, &[s]).is_legal());
//! ```

pub use crate::codegen::{naive::generate_naive, scan::generate_scanned};
pub use crate::search::{
    candidate_shackles, complete_product, enumerate_legal, grid_shapes, reblock, two_phase,
    width_grid, Candidate, SearchConfig, TwoPhaseOutcome,
};
pub use crate::{
    check_legality, check_legality_with_deps, decide_legality, Blocking, CutSet, Legality,
    LegalityReport, Shackle, Violation,
};
pub use shackle_ir::deps::{dependences, Dependence};
pub use shackle_ir::{kernels, ArrayDecl, ArrayRef, Program, Statement, StmtId};
pub use shackle_polyhedra::{Constraint, LinExpr, System};
