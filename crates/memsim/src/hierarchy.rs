//! Multi-level memory hierarchies and the MFLOPS performance model.

use crate::{Cache, CacheConfig, LevelStats, Tlb, TlbConfig};

/// A stack of caches backed by main memory.
///
/// Probing walks from the first (fastest) level down; a miss at every
/// level costs the memory latency on top of all probe latencies, and
/// the line is filled into every level (inclusive hierarchy).
#[derive(Clone, Debug)]
pub struct Hierarchy {
    levels: Vec<Cache>,
    tlb: Option<Tlb>,
    mem_latency: u64,
    cycles: u64,
    /// Cycles spent in page-table walks — included in `cycles`, tracked
    /// separately so reports can attribute translation stalls.
    tlb_walk_cycles: u64,
    accesses: u64,
}

impl Hierarchy {
    /// Build a hierarchy from level configurations (fastest first) and a
    /// main-memory latency.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty.
    pub fn new(configs: &[CacheConfig], mem_latency: u64) -> Self {
        assert!(!configs.is_empty(), "need at least one cache level");
        Self {
            levels: configs.iter().map(|c| Cache::new(*c)).collect(),
            tlb: None,
            mem_latency,
            cycles: 0,
            tlb_walk_cycles: 0,
            accesses: 0,
        }
    }

    /// Attach a TLB: every access is translated first, charging the
    /// TLB's miss penalty on translation misses. Returns `self` for
    /// chaining onto the presets.
    pub fn with_tlb(mut self, config: TlbConfig) -> Self {
        self.tlb = Some(Tlb::new(config));
        self
    }

    /// The attached TLB, if any.
    pub fn tlb(&self) -> Option<&Tlb> {
        self.tlb.as_ref()
    }

    /// Translation hit/miss counters, if a TLB is attached — the
    /// translation analogue of [`Hierarchy::level_stats`], so sweeps
    /// can surface TLB misses next to cache misses.
    pub fn tlb_stats(&self) -> Option<LevelStats> {
        self.tlb.as_ref().map(Tlb::stats)
    }

    /// Cycles spent in page-table walks so far (a component of
    /// [`Hierarchy::cycles`]; zero without a TLB).
    pub fn tlb_walk_cycles(&self) -> u64 {
        self.tlb_walk_cycles
    }

    /// An IBM SP-2 thin-node-like single-level hierarchy: 64 KB,
    /// 4-way, 128-byte lines (the machine of the paper's §7), 60-cycle
    /// memory. Cache *hits* are charged zero cycles — the POWER2's
    /// pipelined FXU/FPU overlap them with computation, so hierarchy
    /// cycles represent pure stall time.
    pub fn sp2_thin_node() -> Self {
        Self::new(
            &[CacheConfig {
                size: 64 * 1024,
                line: 128,
                assoc: 4,
                latency: 0,
            }],
            60,
        )
    }

    /// A two-level hierarchy for the multi-level blocking experiments
    /// (§6.3 / Figure 10): a small fast L1 over a larger L2.
    pub fn two_level() -> Self {
        Self::new(
            &[
                CacheConfig {
                    size: 16 * 1024,
                    line: 64,
                    assoc: 2,
                    latency: 0,
                },
                CacheConfig {
                    size: 128 * 1024,
                    line: 128,
                    assoc: 8,
                    latency: 10,
                },
            ],
            80,
        )
    }

    /// Touch the byte at `addr`, updating per-level stats and the cycle
    /// count. Returns the index of the level that hit (`levels.len()`
    /// means main memory).
    #[inline]
    pub fn access(&mut self, addr: u64) -> usize {
        self.accesses += 1;
        if let Some(tlb) = &mut self.tlb {
            if !tlb.access(addr) {
                self.cycles += tlb.config().miss_penalty;
                self.tlb_walk_cycles += tlb.config().miss_penalty;
            }
        }
        for (i, level) in self.levels.iter_mut().enumerate() {
            self.cycles += level.config().latency;
            if level.access(addr) {
                // fill is modeled by Cache::access itself
                return i;
            }
        }
        self.cycles += self.mem_latency;
        self.levels.len()
    }

    /// Per-level statistics, fastest first.
    pub fn level_stats(&self) -> Vec<LevelStats> {
        self.levels.iter().map(Cache::stats).collect()
    }

    /// Total memory-system cycles charged so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total element accesses.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Reset contents, stats and cycles.
    pub fn clear(&mut self) {
        for l in &mut self.levels {
            l.clear();
        }
        if let Some(t) = &mut self.tlb {
            t.clear();
        }
        self.cycles = 0;
        self.tlb_walk_cycles = 0;
        self.accesses = 0;
    }

    /// The configured levels.
    pub fn levels(&self) -> &[Cache] {
        &self.levels
    }
}

/// Converts an execution's flop count and a hierarchy's memory cycles
/// into an MFLOPS figure — the y-axis of the paper's Figures 11–15.
///
/// The model charges `flop_cycles` per floating-point operation, overlaps
/// nothing, and divides by the clock. It is deliberately simple: the
/// reproduction targets the *shape* of the curves (who wins, where the
/// crossovers fall), which is dominated by the memory term.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PerfModel {
    /// Cycles per flop (e.g. 0.5 for a dual-FPU POWER2).
    pub flop_cycles: f64,
    /// Clock frequency in MHz.
    pub clock_mhz: f64,
}

impl Default for PerfModel {
    fn default() -> Self {
        Self::sp2()
    }
}

impl PerfModel {
    /// An SP-2-like model: 66.7 MHz POWER2, two FPUs.
    pub fn sp2() -> Self {
        Self {
            flop_cycles: 0.5,
            clock_mhz: 66.7,
        }
    }

    /// MFLOPS achieved for `flops` operations with the given memory
    /// cycles.
    pub fn mflops(&self, flops: u64, mem_cycles: u64) -> f64 {
        let cycles = flops as f64 * self.flop_cycles + mem_cycles as f64;
        if cycles == 0.0 {
            return 0.0;
        }
        let seconds = cycles / (self.clock_mhz * 1e6);
        flops as f64 / seconds / 1e6
    }

    /// Peak MFLOPS of the model (no memory stalls).
    pub fn peak_mflops(&self) -> f64 {
        self.clock_mhz / self.flop_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inclusive_fill_and_hit_levels() {
        let mut h = Hierarchy::two_level();
        assert_eq!(h.access(0), 2); // memory
        assert_eq!(h.access(0), 0); // L1
                                    // evict from L1 by sweeping > 16KB within one set… simpler:
                                    // touch a distinct far address, then the original: L1 may still
                                    // hold it; instead verify stats add up
        let s = h.level_stats();
        assert_eq!(s[0].accesses(), 2);
        assert_eq!(s[1].accesses(), 1); // only the first probe reached L2
    }

    #[test]
    fn cycles_accumulate() {
        let mut h = Hierarchy::new(
            &[CacheConfig {
                size: 1024,
                line: 64,
                assoc: 1,
                latency: 2,
            }],
            50,
        );
        h.access(0); // miss: 2 + 50
        h.access(0); // hit: 2
        assert_eq!(h.cycles(), 54);
        h.clear();
        assert_eq!(h.cycles(), 0);
    }

    #[test]
    fn working_set_effect() {
        // streaming over 2x capacity misses every line each pass;
        // a small working set hits after the first pass
        let cfg = CacheConfig {
            size: 4096,
            line: 64,
            assoc: 4,
            latency: 1,
        };
        let mut big = Hierarchy::new(&[cfg], 10);
        for _ in 0..3 {
            for a in (0..8192u64).step_by(64) {
                big.access(a);
            }
        }
        let mut small = Hierarchy::new(&[cfg], 10);
        for _ in 0..3 {
            for a in (0..2048u64).step_by(64) {
                small.access(a);
            }
        }
        assert!(small.level_stats()[0].miss_ratio() < big.level_stats()[0].miss_ratio());
    }

    #[test]
    fn mflops_model_sanity() {
        let m = PerfModel::sp2();
        assert!((m.peak_mflops() - 133.4).abs() < 0.1);
        // memory-bound: many cycles, few flops → low MFLOPS
        assert!(m.mflops(1000, 1_000_000) < 1.0);
        // compute-bound approaches peak
        assert!(m.mflops(1_000_000, 0) > 130.0);
        assert_eq!(m.mflops(0, 0), 0.0);
    }

    #[test]
    fn tlb_attachment_charges_walks() {
        let cfg = CacheConfig {
            size: 4096,
            line: 64,
            assoc: 4,
            latency: 0,
        };
        let mut h = Hierarchy::new(&[cfg], 10).with_tlb(crate::TlbConfig {
            page: 4096,
            entries: 2,
            miss_penalty: 30,
        });
        // touch 3 pages round-robin twice: every access TLB-misses
        for _ in 0..2 {
            for p in 0..3u64 {
                h.access(p * 4096);
            }
        }
        let t = h.tlb().unwrap();
        assert_eq!(t.misses(), 6);
        // cycles include 6 walks + cache behaviour
        assert!(h.cycles() >= 6 * 30);
        h.clear();
        assert_eq!(h.tlb().unwrap().misses(), 0);
    }

    #[test]
    fn sp2_page_walk_cost_is_pinned() {
        // the POWER2-like TLB charges exactly 30 cycles per walk; on
        // the SP-2 preset (zero-latency L1 hits) a page-strided sweep
        // larger than the TLB separates the cycle components exactly:
        // every access TLB-misses, and cache behaviour is independent
        let tlb_cfg = crate::TlbConfig::power2_like();
        assert_eq!(tlb_cfg.miss_penalty, 30, "SP-2 page-walk cost");
        let mut h = Hierarchy::sp2_thin_node().with_tlb(tlb_cfg);
        let pages = tlb_cfg.entries as u64 + 1;
        for _ in 0..2 {
            for p in 0..pages {
                h.access(p * tlb_cfg.page as u64);
            }
        }
        let t = h.tlb_stats().expect("TLB attached");
        assert_eq!(t.misses, 2 * pages, "LRU thrash on a sweep > entries");
        assert_eq!(t.hits, 0);
        assert_eq!(h.tlb_walk_cycles(), t.misses * 30);
        // total cycles decompose exactly into walks + memory fills
        // (L1 hits cost zero on this preset)
        let cache_misses = h.level_stats()[0].misses;
        assert_eq!(h.cycles(), t.misses * 30 + cache_misses * 60);
        h.clear();
        assert_eq!(h.tlb_walk_cycles(), 0);
        assert_eq!(h.tlb_stats().unwrap(), crate::LevelStats::default());
    }

    #[test]
    fn sp2_preset_shape() {
        let h = Hierarchy::sp2_thin_node();
        assert_eq!(h.levels().len(), 1);
        assert_eq!(h.levels()[0].config().size, 64 * 1024);
        assert_eq!(h.levels()[0].config().line, 128);
    }
}
