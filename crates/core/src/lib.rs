//! Data shackling: data-centric multi-level blocking.
//!
//! This crate implements the primary contribution of *Kodukula, Ahmed &
//! Pingali, "Data-centric Multi-level Blocking" (PLDI 1997)*:
//!
//! * [`Blocking`] / [`CutSet`] — cutting planes that partition an array
//!   into blocks visited in lexicographic order (§4.1);
//! * [`Shackle`] — a blocking plus one shackled reference per statement
//!   (Definition 1), with the §5.3 dummy-reference mechanism;
//! * [`check_legality`] — Theorem 1's exact ILP legality test, via the
//!   Omega test;
//! * shackle **products** (Definition 2): every API takes `&[Shackle]`,
//!   the Cartesian product of the factors, which is also how §6.3
//!   *multi-level blocking* is expressed (one factor per memory level);
//! * [`span::unconstrained_refs`] — Theorem 2's access-matrix span test
//!   guiding how large a product needs to be;
//! * two code generators: the naive Figure 5 form
//!   ([`naive::generate_naive`]) and the simplified scanner
//!   ([`scan::generate_scanned`]) reproducing Figures 6, 7, 10 and
//!   14(ii).
//!
//! # Quick start
//!
//! ```
//! use shackle_core::{check_legality, scan::generate_scanned, Blocking, Shackle};
//! use shackle_ir::kernels;
//!
//! let p = kernels::matmul_ijk();
//! let shackle = Shackle::on_writes(&p, Blocking::square("C", 2, &[0, 1], 25));
//! assert!(check_legality(&p, &[shackle.clone()]).is_legal());
//! let blocked = generate_scanned(&p, &[shackle]);
//! println!("{blocked}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blocking;
mod legality;
mod shackle;

pub mod codegen;
pub mod par;
pub mod prelude;
pub mod search;
pub mod span;

pub use blocking::{Blocking, CutSet};
pub use codegen::{naive, scan};
pub use legality::{
    check_legality, check_legality_with_deps, decide_legality, Legality, LegalityReport, Violation,
};
pub use shackle::Shackle;
