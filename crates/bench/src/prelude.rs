//! One-stop imports for the benchmark harness.
//!
//! Layers the full pipeline on top of [`shackle_core::prelude`]: the
//! execution engines, the memory-hierarchy simulators, the kernel
//! tracing bridge, and the probe instrumentation, plus this crate's
//! figure and report machinery. Every `src/bin` harness starts with
//! `use shackle_bench::prelude::*;`.

pub use shackle_core::prelude::*;

pub use shackle_exec::{
    compile, execute, execute_compiled, verify, Access, CompiledProgram, ExecStats, NativeKernel,
    NullObserver, Observer, Workspace,
};
pub use shackle_kernels::compact::CompactTrace;
pub use shackle_kernels::trace::{
    band_layout, block_major_address, trace_execution, trace_layout, AddressMap, Layout, Traced,
    ELEM_BYTES,
};
pub use shackle_kernels::{gen, shackles, traced};
pub use shackle_memsim::{
    AccessSink, Cache, CacheConfig, ConfigError, Hierarchy, LevelStats, PerfModel, StackSim, Tlb,
    TlbConfig,
};
pub use shackle_probe as probe;

pub use crate::memsweep::{config_grid, render_sweep, sweep_programs};
pub use crate::report::BenchReport;
pub use crate::{
    figure10, figure10_on, figure11, figure12, figure13_adi, figure13_gmtry, figure15, model, par,
    render_table, timed_phases, MultiLevelRow, Series,
};
