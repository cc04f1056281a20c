//! The PLDI 1997 evaluation kernels and their baselines.
//!
//! Part of the `data-shackle` workspace ("Data-centric Multi-level
//! Blocking" reproduction). This crate supplies everything the paper's
//! §7 experiments need beyond the transformation framework itself:
//!
//! * [`Mat`] — column-major matrices;
//! * [`blas`] — the DGEMM/BLAS-3 substrate standing in for ESSL;
//! * [`cholesky`], [`matmul`], [`qr`], [`gauss`], [`adi`], [`banded`] —
//!   native implementations of each benchmark in all the variants the
//!   figures compare (input code, compiler-shackled code, shackled code
//!   with DGEMM, LAPACK-style blocked code);
//! * [`trisolve`], [`syrk`], [`stencil`], [`tensor`] — the scenario
//!   diversity wave: triangular back-solve (§8 reversed traversal),
//!   symmetric rank-k update, 2-D Jacobi relaxation and a rank-3
//!   tensor contraction, each with a rectangular-blocked variant;
//! * [`trace`] — the one path from an IR interpreter execution to the
//!   simulator: a [`trace::Layout`] (dense, band storage, block-major)
//!   × any `shackle-memsim` `AccessSink`, joined by [`trace::Traced`];
//! * [`compact`] — capture-once/replay-many [`compact::CompactTrace`]
//!   streams feeding the multi-configuration stack engine;
//! * [`traced`] — traced entry points of the two baselines whose
//!   algorithms exist only natively (WY QR, LAPACK banded Cholesky),
//!   each written once over a meter that is a no-op when untraced;
//! * [`gen`] — deterministic workload generators;
//! * [`shackles`] — the canonical shackles of the paper's experiments;
//! * [`catalogue`] — one entry per kernel holding what every consumer
//!   needs to know about it (builder, CLI alias, parameters, safe
//!   initializer, canonical shackles, search row), read by the CLI,
//!   the search goldens and the differential tests.
//!
//! The IR forms of the kernels live in [`shackle_ir::kernels`]; this
//! crate's hand-written pointwise forms are cross-validated against
//! them, from the catalogue's initializers, by the root package's
//! `tests/ir_vs_native.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod matrix;

pub mod adi;
pub mod banded;
pub mod blas;
pub mod catalogue;
pub mod cholesky;
pub mod compact;
pub mod gauss;
pub mod gen;
pub mod matmul;
pub mod qr;
pub mod rng;
pub mod shackles;
pub mod stencil;
pub mod syrk;
pub mod tensor;
pub mod trace;
pub mod traced;
pub mod trisolve;

pub use matrix::Mat;
