//! The unified access surface: everything that consumes a stream of
//! byte addresses.
//!
//! [`AccessSink`] is the one trait behind every spelling of "feed
//! addresses in": a standalone [`Cache`], the [`Tlb`] and coupled
//! [`Hierarchy`] simulations all take the same `push` / `push_many`
//! calls, so trace producers are written once and feed any of them.

use crate::{Cache, Hierarchy, Tlb};
use shackle_probe as probe;
use std::sync::LazyLock;

/// A consumer of an in-order stream of byte addresses.
///
/// `push` is the per-address entry point; `push_many` is the batched
/// one with a provided element-wise default, overridden where a
/// consumer can amortize per-call work (and where the batch is the
/// natural unit for probe counters). Implementations must make
/// `push_many(addrs)` equivalent to `for a in addrs { push(a) }` in
/// observable statistics.
pub trait AccessSink {
    /// Consume the byte address `addr`.
    fn push(&mut self, addr: u64);

    /// Consume a batch of byte addresses in order. Equivalent to
    /// calling [`AccessSink::push`] per element.
    fn push_many(&mut self, addrs: &[u64]) {
        for &a in addrs {
            self.push(a);
        }
    }
}

static HIERARCHY_ACCESSES: LazyLock<&'static probe::Counter> =
    LazyLock::new(|| probe::counter("memsim.accesses"));

impl AccessSink for Cache {
    fn push(&mut self, addr: u64) {
        self.access(addr);
    }
}

impl AccessSink for Tlb {
    fn push(&mut self, addr: u64) {
        self.access(addr);
    }
}

impl AccessSink for Hierarchy {
    fn push(&mut self, addr: u64) {
        self.push_many(&[addr]);
    }

    /// The one place `memsim.accesses` is counted.
    fn push_many(&mut self, addrs: &[u64]) {
        if probe::enabled() {
            HIERARCHY_ACCESSES.add(addrs.len() as u64);
        }
        for &a in addrs {
            self.access(a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheConfig;

    fn cfg(size: usize, line: usize, assoc: usize) -> CacheConfig {
        CacheConfig {
            size,
            line,
            assoc,
            latency: 0,
        }
    }

    #[test]
    fn push_matches_inherent_access() {
        let addrs: Vec<u64> = (0..200u64).map(|i| (i * 7919) % 4096).collect();
        let mut by_access = Cache::new(cfg(1024, 64, 2));
        let mut by_push = by_access.clone();
        for &a in &addrs {
            by_access.access(a);
        }
        by_push.push_many(&addrs);
        assert_eq!(by_access.stats(), by_push.stats());
    }

    #[test]
    fn generic_replay_drives_any_sink() {
        fn drive(sink: &mut dyn AccessSink) {
            sink.push_many(&[0, 64, 0, 128]);
            sink.push(64);
        }
        let mut c = Cache::new(cfg(1024, 64, 2));
        let mut h = Hierarchy::sp2_thin_node();
        drive(&mut c);
        drive(&mut h);
        assert_eq!(c.stats().accesses(), 5);
        assert_eq!(h.accesses(), 5);
    }
}
