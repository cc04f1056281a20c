//! Analytical cache cost model for shackled programs.
//!
//! Part of the `data-shackle` workspace (PLDI 1997 "Data-centric
//! Multi-level Blocking" reproduction). The paper's premise is that
//! blocking decisions follow from *data-centric geometry* — block
//! footprints against cache capacity — and this crate makes that
//! premise executable: [`predict()`] takes a shackle product, the
//! kernel's [`KernelGeometry`] and a cache hierarchy description
//! ([`shackle_memsim::CacheConfig`] levels plus a memory latency) and
//! returns per-level hit/miss counts and a cycle estimate without
//! executing the program or capturing a trace.
//!
//! The predictor is the first-pass scorer of the two-phase search in
//! `shackle_core::search` (`two_phase`): thousands of grid candidates
//! are ranked analytically in microseconds each, and only the top-K
//! survivors are re-scored with the exact simulator. Ranking accuracy
//! against simulate-everything ground truth is pinned by
//! `tests/prop_model.rs` and reported per run by the `benchmark`
//! crate's `autotune_sweep` workload (`model.sim_rank`,
//! `model.cycle_ratio_geomean`).
//!
//! # Example
//!
//! ```
//! use shackle_model::{predict, KernelGeometry};
//! use shackle_kernels::shackles;
//! use shackle_memsim::CacheConfig;
//! use std::collections::BTreeMap;
//!
//! let p = shackle_ir::kernels::matmul_ijk();
//! let params = BTreeMap::from([("N".to_string(), 48_i64)]);
//! let geom = KernelGeometry::new(&p, &params);
//! let probe = CacheConfig { size: 8 * 1024, line: 128, assoc: 4, latency: 0 };
//! let blocked = predict(&geom, &shackles::matmul_ca(&p, 16), &[probe], 60);
//! let identity = predict(&geom, &shackles::matmul_ca(&p, 48), &[probe], 60);
//! // a 16x16 shackle of C crossed with A localizes far better than the
//! // identity blocking (width 48 == N leaves the loop nest unblocked)
//! assert!(blocked.cycles < identity.cycles);
//! assert_eq!(blocked.accesses, 4 * 48 * 48 * 48);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod geometry;
pub mod predict;

pub use geometry::KernelGeometry;
pub use predict::{predict, predict_with, LevelPrediction, ModelConfig, Prediction, ELEM_BYTES};
