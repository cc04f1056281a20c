//! One-stop imports for the figure harness.
//!
//! Layers what the `figures` binary and `tests/probe_determinism.rs`
//! name on top of [`shackle_core::prelude`]: the simulators, the kernel
//! tracing bridge, the probe instrumentation and this crate's figure
//! functions.

pub use shackle_core::prelude::*;

pub use shackle_exec::{verify, Access};
pub use shackle_kernels::trace::{block_major_address, trace_execution, trace_layout};
pub use shackle_kernels::{gen, shackles};
pub use shackle_memsim::{CacheConfig, Hierarchy, TlbConfig};
pub use shackle_probe as probe;

pub use crate::{
    figure10, figure11, figure12, figure13_adi, figure13_gmtry, figure15, model, par, render_table,
    timed_phases,
};
