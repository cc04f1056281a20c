//! Reference interpreter for the data-shackle IR.
//!
//! Part of the `data-shackle` workspace (PLDI 1997 "Data-centric
//! Multi-level Blocking" reproduction). The interpreter executes any
//! [`shackle_ir::Program`] — input codes and shackled codes alike —
//! against concrete [`Workspace`]s of column-major `f64` arrays. It is
//! the semantic ground truth used to validate every transformation, the
//! flop counter behind the performance model, and the source of memory
//! traces for the cache simulator (through the [`Observer`] hook).
//!
//! # Example: validating a transformation
//!
//! ```
//! use shackle_core::{naive::generate_naive, Blocking, Shackle};
//! use shackle_exec::{execute, NullObserver, Workspace};
//! use std::collections::BTreeMap;
//!
//! let p = shackle_ir::kernels::matmul_ijk();
//! let shackle = Shackle::on_writes(&p, Blocking::square("C", 2, &[0, 1], 3));
//! let blocked = generate_naive(&p, &[shackle]);
//!
//! let params = BTreeMap::from([("N".to_string(), 7i64)]);
//! let init = |name: &str, idx: &[usize]| {
//!     if name == "C" { 0.0 } else { (idx[0] * 2 + idx[1]) as f64 }
//! };
//! let mut w1 = Workspace::for_program(&p, &params, init);
//! let mut w2 = Workspace::for_program(&blocked, &params, init);
//! execute(&p, &mut w1, &params, &mut NullObserver);
//! execute(&blocked, &mut w2, &params, &mut NullObserver);
//! assert!(w1.max_rel_diff(&w2) < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
mod interp;

pub mod compile;
pub mod multipass;
pub mod native;
pub mod verify;

pub use array::{array_extents, DenseArray, ExtentError, Workspace};
pub use compile::{compile, execute_compiled, trace_compiled, CompiledProgram, InstanceRunner};
pub use interp::{execute, Access, ExecStats, NullObserver, Observer};
pub use native::{NativeError, NativeKernel};

use std::sync::LazyLock;

static INSTANCES: LazyLock<&'static shackle_probe::Counter> =
    LazyLock::new(|| shackle_probe::counter("exec.instances"));
static LOADS: LazyLock<&'static shackle_probe::Counter> =
    LazyLock::new(|| shackle_probe::counter("exec.loads"));
static STORES: LazyLock<&'static shackle_probe::Counter> =
    LazyLock::new(|| shackle_probe::counter("exec.stores"));
static FLOPS: LazyLock<&'static shackle_probe::Counter> =
    LazyLock::new(|| shackle_probe::counter("exec.flops"));

/// Fold a finished execution's statistics into the probe counters
/// (`exec.instances` / `exec.loads` / `exec.stores` / `exec.flops`).
/// Called once per [`execute`] / [`execute_compiled`] / [`trace_compiled`]
/// run; no-op when
/// instrumentation is disabled.
pub(crate) fn publish_exec_stats(stats: &ExecStats) {
    if shackle_probe::enabled() {
        INSTANCES.add(stats.instances);
        LOADS.add(stats.loads);
        STORES.add(stats.stores);
        FLOPS.add(stats.flops);
    }
}
