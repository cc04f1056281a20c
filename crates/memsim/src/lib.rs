//! Multi-level cache simulator and memory-hierarchy performance model.
//!
//! Part of the `data-shackle` workspace (PLDI 1997 "Data-centric
//! Multi-level Blocking" reproduction). The paper's evaluation ran on an
//! IBM SP-2 thin node; this simulator is the workspace's substitute for
//! that machine (see DESIGN.md §3): execution traces from the
//! interpreter are replayed against configurable set-associative LRU
//! hierarchies ([`Hierarchy::sp2_thin_node`],
//! [`Hierarchy::two_level`]), and [`PerfModel`] converts flop counts and
//! memory cycles into the MFLOPS numbers the paper plots.
//!
//! There is one engine: the **direct** simulator ([`Cache`],
//! [`Hierarchy`]) runs an address stream through one concrete geometry
//! — true LRU, each set's ways kept in recency order in one flat array.
//! A multi-configuration sweep is one execution fanned out into several
//! standalone caches.
//!
//! Every consumer of an address stream — a cache, the TLB, whole
//! hierarchies — implements the unified [`AccessSink`] trait, so trace
//! producers are written once and feed anything. The crate is
//! deliberately address-based and depends only on the std-only
//! `shackle-probe` instrumentation layer; the adapter that turns
//! interpreter accesses into addresses lives in `shackle-kernels`.
//!
//! # Example
//!
//! ```
//! use shackle_memsim::{Hierarchy, PerfModel};
//! let mut h = Hierarchy::sp2_thin_node();
//! for addr in (0..1024u64).step_by(8) {
//!     h.access(addr);
//! }
//! // sequential doubles: 16 elements per 128-byte line hit after each
//! // cold miss
//! let s = h.level_stats()[0];
//! assert_eq!(s.misses, 8);
//! assert_eq!(s.hits, 120);
//! let mflops = PerfModel::sp2().mflops(256, h.cycles());
//! assert!(mflops > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod hierarchy;
mod sink;
mod tlb;
mod truth;

pub use cache::{Cache, CacheConfig, ConfigError, LevelStats};
pub use hierarchy::{Hierarchy, PerfModel};
pub use sink::AccessSink;
pub use tlb::{Tlb, TlbConfig};
pub use truth::{ground_truth, GroundTruth};
