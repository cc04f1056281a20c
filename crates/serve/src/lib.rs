//! Shackle-as-a-service: a persistent, multi-client optimization
//! daemon for the data-shackling pipeline.
//!
//! Every prior layer of this repository made one *batch run* faster;
//! this crate makes the caches outlive the run. A long-lived server
//! accepts kernels over a std-only length-prefixed protocol
//! ([`proto`]; the `shackle_ir::parse` concrete syntax is the wire
//! format), runs search → legality → codegen → scoring ([`service`],
//! on the canonical [`pipeline`] shared with the batch callers), and
//! returns the transformed code plus predicted cycles. The polyhedral
//! memo cache persists to disk between processes
//! (`shackle_polyhedra::cache::{save_to, load_from}`), concurrent
//! identical requests coalesce onto one search, and a model-only
//! `quote` path answers in microseconds ([`server`]).
//!
//! Run the daemon with the `shackle_serve` binary (`--stdio` for a
//! pipe, `--tcp ADDR` for a socket); the `benchmark` crate's
//! `serve_mix` workload is its load generator.

pub mod pipeline;
pub mod proto;
pub mod server;
pub mod service;

pub use proto::{ErrorClass, Request, Response};
pub use server::{Client, Server};
pub use service::ServiceConfig;
