//! The unified access surface: everything that consumes a stream of
//! byte addresses.
//!
//! [`AccessSink`] is the one trait behind every spelling of "feed
//! addresses in": the direct [`Cache`], the [`Tlb`], coupled
//! [`Hierarchy`] simulations, the Mattson [`StackSim`], and (in
//! `shackle-kernels`) `CompactTrace` capture all take the same `push` /
//! `push_many` calls, so trace producers are written once and replay
//! generically.

use crate::{Cache, Hierarchy, StackSim, Tlb};
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

    /// The coarsest address granularity (in bytes) this sink can
    /// distinguish, if it quantizes at all: compact traces replayed
    /// into this sink are lossless iff their capture granularity
    /// divides it. `None` means the sink is exact at byte granularity.
    fn granularity(&self) -> Option<u64> {
        None
    }
}

static HIERARCHY_ACCESSES: LazyLock<&'static probe::Counter> =
    LazyLock::new(|| probe::counter("memsim.accesses"));
static STACK_ACCESSES: LazyLock<&'static probe::Counter> =
    LazyLock::new(|| probe::counter("memsim.stack_accesses"));

impl AccessSink for Cache {
    fn push(&mut self, addr: u64) {
        self.access(addr);
    }

    fn granularity(&self) -> Option<u64> {
        Some(self.config().line as u64)
    }
}

impl AccessSink for Tlb {
    fn push(&mut self, addr: u64) {
        self.access(addr);
    }

    fn granularity(&self) -> Option<u64> {
        Some(self.config().page as u64)
    }
}

impl AccessSink for Hierarchy {
    fn push(&mut self, addr: u64) {
        self.access(addr);
    }

    fn push_many(&mut self, addrs: &[u64]) {
        if probe::enabled() {
            HIERARCHY_ACCESSES.add(addrs.len() as u64);
        }
        for &a in addrs {
            self.access(a);
        }
    }

    /// The finest quantum all levels (and the TLB, if attached) agree
    /// on: the smallest line size. Line and page sizes are powers of
    /// two, so the smallest divides them all.
    fn granularity(&self) -> Option<u64> {
        let lines = self.levels().iter().map(|l| l.config().line as u64);
        let page = self.tlb().map(|t| t.config().page as u64);
        lines.chain(page).min()
    }
}

impl AccessSink for StackSim {
    fn push(&mut self, addr: u64) {
        self.access(addr);
    }

    fn push_many(&mut self, addrs: &[u64]) {
        if probe::enabled() {
            STACK_ACCESSES.add(addrs.len() as u64);
        }
        for &a in addrs {
            self.access(a);
        }
    }

    fn granularity(&self) -> Option<u64> {
        Some(self.line() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheConfig, TlbConfig};

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
    fn sinks_report_their_granularity() {
        assert_eq!(Cache::new(cfg(1024, 64, 2)).granularity(), Some(64));
        assert_eq!(Tlb::new(TlbConfig::power2_like()).granularity(), Some(4096));
        assert_eq!(
            StackSim::new(32, &[cfg(512, 32, 4)]).granularity(),
            Some(32)
        );
        // hierarchy: min over levels and TLB page
        let h = Hierarchy::two_level();
        assert_eq!(h.granularity(), Some(64));
        let h = Hierarchy::sp2_thin_node().with_tlb(TlbConfig {
            page: 64,
            entries: 4,
            miss_penalty: 1,
        });
        assert_eq!(h.granularity(), Some(64));
    }

    #[test]
    fn generic_replay_drives_any_sink() {
        fn drive(sink: &mut dyn AccessSink) {
            sink.push_many(&[0, 64, 0, 128]);
            sink.push(64);
        }
        let mut c = Cache::new(cfg(1024, 64, 2));
        let mut s = StackSim::new(64, &[cfg(1024, 64, 2)]);
        let mut h = Hierarchy::sp2_thin_node();
        drive(&mut c);
        drive(&mut s);
        drive(&mut h);
        assert_eq!(c.stats().accesses(), 5);
        assert_eq!(s.total(), 5);
        assert_eq!(h.accesses(), 5);
        // identical single-level verdicts from direct and stack engines
        assert_eq!(s.stats_for(&cfg(1024, 64, 2)), c.stats());
    }
}
