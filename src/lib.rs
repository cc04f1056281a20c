//! # data-shackle
//!
//! A from-scratch reproduction of **Kodukula, Ahmed & Pingali,
//! "Data-centric Multi-level Blocking" (PLDI 1997)** — the *data
//! shackling* program transformation — together with every substrate its
//! evaluation needs: an Omega-test polyhedral engine, a loop-nest IR
//! with exact dependence analysis, a reference interpreter, a cache
//! simulator standing in for the paper's IBM SP-2, and the dense
//! linear-algebra kernels and traced LAPACK-style baselines of §7.
//!
//! This facade crate re-exports the workspace members:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`polyhedra`] | `shackle-polyhedra` | exact integer linear arithmetic (Omega test) |
//! | [`ir`] | `shackle-ir` | loop-nest IR, schedules, dependences, paper kernels |
//! | [`core`] | `shackle-core` | shackles, legality, products, code generation |
//! | [`exec`] | `shackle-exec` | interpreter, equivalence harness |
//! | [`memsim`] | `shackle-memsim` | cache hierarchies, MFLOPS model |
//! | [`model`] | `shackle-model` | analytical per-level miss predictor (search first pass) |
//! | [`kernels`] | `shackle-kernels` | kernel catalogue, canonical shackles, pointwise oracles, traced baselines |
//! | [`probe`] | `shackle-probe` | structured instrumentation: phase spans, counters |
//!
//! [`prelude`] flattens the common surface of all of them into one
//! `use data_shackle::prelude::*;`.
//!
//! # Quick start
//!
//! Block matrix multiplication the data-centric way (the paper's
//! Figures 5 → 6):
//!
//! ```
//! use data_shackle::core::{check_legality, scan::generate_scanned, Blocking, Shackle};
//! use data_shackle::exec::verify::{check_equivalence, hash_init};
//! use data_shackle::ir::kernels;
//! use std::collections::BTreeMap;
//!
//! // 1. the input program (Figure 1(i))
//! let program = kernels::matmul_ijk();
//!
//! // 2. a data shackle: 25×25 blocks of C, statement tied to C[I,J]
//! let shackle = Shackle::on_writes(&program, Blocking::square("C", 2, &[0, 1], 25));
//!
//! // 3. Theorem 1's legality test (exact, via the Omega test)
//! assert!(check_legality(&program, &[shackle.clone()]).is_legal());
//!
//! // 4. generate simplified blocked code (Figure 6)
//! let blocked = generate_scanned(&program, &[shackle]);
//! println!("{blocked}");
//!
//! // 5. prove it computes the same thing
//! let params = BTreeMap::from([("N".to_string(), 40_i64)]);
//! let eq = check_equivalence(&program, &blocked, &params, hash_init(7));
//! assert!(eq.within(1e-12));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use shackle_core as core;
pub use shackle_exec as exec;
pub use shackle_ir as ir;
pub use shackle_kernels as kernels;
pub use shackle_memsim as memsim;
pub use shackle_model as model;
pub use shackle_polyhedra as polyhedra;
pub use shackle_probe as probe;

pub mod prelude {
    //! One-stop imports for driving the whole pipeline.
    //!
    //! Flattens [`shackle_core::prelude`] (IR construction, dependences,
    //! legality, search, codegen) together with the execution engines,
    //! the trace capture bridge, the memory-hierarchy simulators and the
    //! probe instrumentation:
    //!
    //! ```
    //! use data_shackle::prelude::*;
    //!
    //! let program = kernels::matmul_ijk();
    //! let shackle = Shackle::on_writes(&program, Blocking::square("C", 2, &[0, 1], 25));
    //! assert!(check_legality(&program, &[shackle]).is_legal());
    //! ```

    pub use shackle_core::prelude::*;

    pub use shackle_exec::{
        compile, execute, execute_compiled, verify, Access, CompiledProgram, ExecStats,
        NullObserver, Observer, Workspace,
    };
    pub use shackle_kernels::trace::{
        trace_execution, trace_layout, AddressMap, Layout, Traced, ELEM_BYTES,
    };
    pub use shackle_kernels::{gen, shackles, traced};
    pub use shackle_memsim::{
        ground_truth, AccessSink, Cache, CacheConfig, ConfigError, GroundTruth, Hierarchy,
        LevelStats, PerfModel, Tlb, TlbConfig,
    };
    pub use shackle_model::{predict, predict_with, KernelGeometry, ModelConfig, Prediction};
    pub use shackle_probe as probe;
}
