//! The PLDI 1997 evaluation kernels: what the IR world needs to know
//! about them, and the hand-written code the generated code is measured
//! against.
//!
//! Part of the `data-shackle` workspace ("Data-centric Multi-level
//! Blocking" reproduction). One rule: **blocked code is generated** —
//! by the compiler, from [`shackle_ir::kernels`] and the shackles below
//! — and hand-written code is either an oracle or a traced baseline.
//!
//! The IR-facing pieces:
//!
//! * [`catalogue`] — one entry per kernel holding what every consumer
//!   needs to know about it (builder, CLI alias, parameters, safe
//!   initializer, canonical shackles, search row), read by the CLI,
//!   the search goldens and the differential tests;
//! * [`shackles`] — the canonical shackles of the paper's experiments;
//! * [`trace`] — the one path from an IR program's access stream to the
//!   simulator: a [`trace::Layout`] (dense, band storage, block-major)
//!   × any `shackle-memsim` `AccessSink`, joined by [`trace::Traced`];
//! * [`gen`], [`rng`] — deterministic workload generators;
//! * [`Mat`] — column-major matrices.
//!
//! The pointwise input-code oracles, one per kernel, which the root
//! package's `tests/ir_vs_native.rs` holds bit-identical to the IR
//! forms from the catalogue's initializers: [`matmul`], [`cholesky`]
//! (right- and left-looking), [`gauss`], [`adi`], [`banded`],
//! [`trisolve`], [`syrk`], [`stencil`].
//!
//! The two baselines whose algorithms exist only natively — they use
//! domain knowledge the compiler does not have — each written once over
//! a meter that is a no-op when untraced: compact-WY QR ([`qr`], Figure
//! 12) and LAPACK-style banded Cholesky on band storage ([`banded`],
//! Figure 15), with their traced entry points in [`traced`] and the
//! pointwise references their tests compare them to.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod matrix;

pub mod adi;
pub mod banded;
pub mod catalogue;
pub mod cholesky;
pub mod gauss;
pub mod gen;
pub mod matmul;
pub mod qr;
pub mod rng;
pub mod shackles;
pub mod stencil;
pub mod syrk;
pub mod trace;
pub mod traced;
pub mod trisolve;

pub use matrix::Mat;
