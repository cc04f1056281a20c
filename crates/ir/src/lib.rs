//! Loop-nest IR for data-centric blocking.
//!
//! Part of the `data-shackle` workspace, a reproduction of *Kodukula,
//! Ahmed & Pingali, "Data-centric Multi-level Blocking" (PLDI 1997)*.
//! This crate models the programs the paper transforms: imperfectly
//! nested FORTRAN-style loop nests over dense arrays with affine
//! subscripts, together with
//!
//! * `2d+1` schedules and program-order reasoning ([`schedule`]),
//! * exact ILP-based dependence analysis ([`deps`]), and
//! * the paper's benchmark kernels as ready-made IR ([`kernels`]).
//!
//! # Example
//!
//! ```
//! use shackle_ir::kernels;
//!
//! let p = kernels::matmul_ijk();
//! println!("{p}");
//! let deps = shackle_ir::deps::dependences(&p);
//! // the only dependences are the C[I,J] reduction carried by K
//! assert!(deps.iter().all(|d| d.src_ref.array() == "C"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
mod expr;
mod program;
mod stmt;

pub mod bounds;
pub mod deps;
pub mod emit;
pub mod kernels;
pub mod parse;
pub mod pretty;
pub mod schedule;

pub use array::ArrayDecl;
pub use expr::{ArrayRef, ScalarExpr};
pub use program::{
    if_, loop_, loop_b, stmt, Bound, BoundTerm, Loop, Node, Program, StmtContext, StmtId,
};
pub use stmt::Statement;
