//! Capture-once / replay-many execution traces.
//!
//! Every point of a figure sweep used to re-execute its kernel once per
//! cache configuration just to regenerate the same address stream. A
//! [`CompactTrace`] captures that stream once — as 32-bit IDs at a fixed
//! power-of-two granularity — and replays it into any
//! [`AccessSink`] via [`CompactTrace::replay_into`]: direct
//! [`Hierarchy`](shackle_memsim::Hierarchy)s, standalone [`Cache`](shackle_memsim::Cache)s, or a [`StackSim`](shackle_memsim::StackSim) that
//! derives a whole configuration family from a single pass.
//!
//! Quantizing to a granularity `g` that divides every line and page
//! size of interest is lossless for cache simulation: a level with line
//! size `L` (a multiple of `g`) sees line ID `⌊addr / L⌋ =
//! ⌊(g·⌊addr/g⌋) / L⌋`, so the replayed stream produces bit-identical
//! hit/miss counts and cycles. The default granularity is the element
//! size (8 bytes), which makes the quantization the identity for this
//! workspace's traces; a trace of `N` accesses occupies `4N` bytes
//! instead of `8N` for raw addresses.

use crate::trace::{trace_execution, ELEM_BYTES};
use shackle_exec::ExecStats;
use shackle_ir::Program;
#[cfg(test)]
use shackle_memsim::{Cache, Hierarchy, StackSim};

use shackle_memsim::AccessSink;
use std::collections::BTreeMap;

/// A compact, immutable-once-captured stream of memory-access IDs.
#[derive(Clone, Debug, Default)]
pub struct CompactTrace {
    /// Granularity in bytes (power of two); IDs are `addr / gran`.
    gran: u64,
    ids: Vec<u32>,
}

impl CompactTrace {
    /// An empty trace with element-size granularity (8 bytes) — exact
    /// for every address this workspace generates.
    pub fn new() -> Self {
        Self::with_granularity(ELEM_BYTES)
    }

    /// An empty trace with a custom granularity.
    ///
    /// # Panics
    ///
    /// Panics if `gran` is zero or not a power of two.
    pub fn with_granularity(gran: u64) -> Self {
        assert!(
            gran.is_power_of_two(),
            "granularity {gran} must be a non-zero power of two"
        );
        Self {
            gran,
            ids: Vec::new(),
        }
    }

    /// The granularity in bytes.
    pub fn granularity(&self) -> u64 {
        self.gran
    }

    /// Number of recorded accesses.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Approximate heap footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<u32>()
    }

    /// Append one byte-address access.
    ///
    /// # Panics
    ///
    /// Panics if the quantized ID overflows 32 bits (an address space
    /// beyond `gran · 2³²` bytes — 32 GB at the default granularity).
    #[inline]
    pub fn push(&mut self, addr: u64) {
        let id = addr / self.gran;
        assert!(id <= u32::MAX as u64, "address {addr} overflows the trace");
        self.ids.push(id as u32);
    }

    /// The recorded byte addresses (quantized to the granularity).
    pub fn addrs(&self) -> impl Iterator<Item = u64> + '_ {
        let g = self.gran;
        self.ids.iter().map(move |&id| id as u64 * g)
    }

    /// Replay into any [`AccessSink`] — identical stats and cycles to
    /// the original live-traced execution, provided the capture
    /// granularity divides the sink's (see
    /// [`AccessSink::granularity`]). This is the one replay entry
    /// point: direct [`Cache`](shackle_memsim::Cache)s, [`Hierarchy`](shackle_memsim::Hierarchy)s, [`StackSim`](shackle_memsim::StackSim)s and
    /// custom sinks all go through it.
    ///
    /// # Panics
    ///
    /// Panics if the sink quantizes coarser than this trace was
    /// captured at (the replay would be lossy).
    pub fn replay_into<S: AccessSink + ?Sized>(&self, sink: &mut S) {
        if let Some(g) = sink.granularity() {
            assert_eq!(
                g % self.gran,
                0,
                "granularity {} does not divide the sink's {g}-byte granularity",
                self.gran,
            );
        }
        shackle_probe::add("memsim.trace_replays", 1);
        // chunked so the per-call dispatch amortizes like the live
        // batched observer path
        let g = self.gran;
        let mut buf = [0u64; 1024];
        for chunk in self.ids.chunks(buf.len()) {
            for (slot, &id) in buf.iter_mut().zip(chunk) {
                *slot = id as u64 * g;
            }
            sink.push_many(&buf[..chunk.len()]);
        }
    }

    /// Execute `program` once through the compiled engine, capturing
    /// its full access stream: [`trace_execution`] with the trace as
    /// the sink. Returns the execution stats alongside the trace —
    /// capture once, replay against as many configurations as the
    /// sweep wants.
    pub fn capture(
        program: &Program,
        params: &BTreeMap<String, i64>,
        init: impl Fn(&str, &[usize]) -> f64,
    ) -> (ExecStats, Self) {
        let mut trace = Self::new();
        let stats = trace_execution(program, params, init, &mut trace);
        (stats, trace)
    }
}

/// A trace is itself an [`AccessSink`]: pushing addresses appends them
/// (quantized) to the stream, so trace producers written against the
/// unified sink surface can capture as easily as they simulate — and
/// one trace can be re-captured into another at coarser granularity via
/// [`CompactTrace::replay_into`].
impl AccessSink for CompactTrace {
    fn push(&mut self, addr: u64) {
        CompactTrace::push(self, addr);
    }

    fn push_many(&mut self, addrs: &[u64]) {
        self.ids.reserve(addrs.len());
        for &a in addrs {
            CompactTrace::push(self, a);
        }
    }

    fn granularity(&self) -> Option<u64> {
        Some(self.gran)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shackle_ir::kernels;
    use shackle_memsim::CacheConfig;

    fn params(n: i64) -> BTreeMap<String, i64> {
        BTreeMap::from([("N".to_string(), n)])
    }

    #[test]
    fn replay_is_identical_to_live_tracing() {
        let p = kernels::matmul_ijk();
        let params = params(10);

        let mut live = Hierarchy::sp2_thin_node();
        let live_stats = trace_execution(&p, &params, |_, _| 1.0, &mut live);

        let (cap_stats, trace) = CompactTrace::capture(&p, &params, |_, _| 1.0);
        assert_eq!(cap_stats, live_stats);
        assert_eq!(trace.len() as u64, live.accesses());

        let mut replayed = Hierarchy::sp2_thin_node();
        trace.replay_into(&mut replayed);
        assert_eq!(replayed.cycles(), live.cycles());
        assert_eq!(replayed.level_stats(), live.level_stats());
    }

    #[test]
    fn trace_recaptures_into_a_coarser_trace() {
        // CompactTrace is itself a sink: replaying into a coarser trace
        // re-quantizes losslessly for caches at or above that line size
        let p = kernels::matmul_ijk();
        let (_, fine) = CompactTrace::capture(&p, &params(8), |_, _| 1.0);
        let mut coarse = CompactTrace::with_granularity(64);
        fine.replay_into(&mut coarse);
        assert_eq!(coarse.len(), fine.len());
        let cfg = CacheConfig {
            size: 2048,
            line: 64,
            assoc: 2,
            latency: 0,
        };
        let (mut c1, mut c2) = (Cache::new(cfg), Cache::new(cfg));
        fine.replay_into(&mut c1);
        coarse.replay_into(&mut c2);
        assert_eq!(c1.stats(), c2.stats());
    }

    #[test]
    fn replay_many_configs_from_one_capture() {
        let p = kernels::cholesky_right();
        let params = params(16);
        let init = crate::gen::spd_ws_init("A", 16, 7);
        let (_, trace) = CompactTrace::capture(&p, &params, &init);

        // one capture drives direct caches and the stack engine alike
        let configs = [
            CacheConfig {
                size: 1024,
                line: 64,
                assoc: 2,
                latency: 0,
            },
            CacheConfig {
                size: 4096,
                line: 64,
                assoc: 4,
                latency: 0,
            },
        ];
        let mut sim = StackSim::new(64, &configs);
        trace.replay_into(&mut sim);
        for cfg in &configs {
            let mut c = Cache::new(*cfg);
            trace.replay_into(&mut c);
            assert_eq!(sim.stats_for(cfg), c.stats(), "{cfg:?}");
        }
    }

    #[test]
    fn coarser_granularity_stays_exact_down_to_its_lines() {
        // a 64-byte-granularity trace still replays exactly against
        // 64- and 128-byte-line caches
        let p = kernels::matmul_ijk();
        let params = params(8);
        let (_, fine) = CompactTrace::capture(&p, &params, |_, _| 1.0);
        let mut coarse = CompactTrace::with_granularity(64);
        for a in fine.addrs() {
            coarse.push(a);
        }
        for line in [64usize, 128] {
            let cfg = CacheConfig {
                size: 2048,
                line,
                assoc: 2,
                latency: 0,
            };
            let (mut c1, mut c2) = (Cache::new(cfg), Cache::new(cfg));
            fine.replay_into(&mut c1);
            coarse.replay_into(&mut c2);
            assert_eq!(c1.stats(), c2.stats(), "line {line}");
        }
    }

    #[test]
    #[should_panic(expected = "does not divide")]
    fn replay_rejects_granularity_coarser_than_line() {
        let mut t = CompactTrace::with_granularity(256);
        t.push(0);
        let mut c = Cache::new(CacheConfig {
            size: 2048,
            line: 64,
            assoc: 2,
            latency: 0,
        });
        t.replay_into(&mut c);
    }

    #[test]
    fn footprint_is_four_bytes_per_access() {
        let p = kernels::matmul_ijk();
        let (_, t) = CompactTrace::capture(&p, &params(8), |_, _| 1.0);
        assert!(!t.is_empty());
        assert!(t.bytes() < t.len() * 8, "compact vs raw u64 addresses");
    }
}
