//! Single-pass multi-configuration cache simulation (Mattson stack
//! distances).
//!
//! Mattson's classic observation: under true-LRU replacement, an access
//! hits a fully associative cache of capacity `C` lines iff fewer than
//! `C` *distinct* lines were touched since the previous access to the
//! same line (the *stack distance*). One pass over a trace that records
//! the histogram of stack distances therefore yields exact hit/miss
//! counts for **every** capacity at once.
//!
//! [`StackSim`] extends this to set-associative caches with
//! bit-selection set mapping. With `2^k` sets, an access hits a `k`-bit,
//! `A`-way cache iff fewer than `A` distinct lines *of the same set*
//! were touched since the last access to this line — the per-set stack
//! distance. Set indices are nested (the `k`-bit set index is the low
//! `k` bits of the `k+1`-bit one), so a single walk of the global LRU
//! stack computes the distances for all `k ≤ kmax` simultaneously:
//! for each line passed on the way down, the number of matching
//! low-order bits `t = trailing_zeros(line ⊕ target)` says the line
//! shares the target's set for every `k ≤ t`, so bucketing the walk by
//! `t` and suffix-summing gives every per-set distance from one scan.
//!
//! The per-access cost is one stack walk to the previous position of
//! the touched line — the same work a *single* direct LRU simulation
//! does in its recency list, but paid once for the whole configuration
//! family instead of once per configuration.
//!
//! Restrictions (checked at construction): one line size per
//! [`StackSim`], power-of-two set counts. These cover every
//! configuration the figure sweeps explore; the direct [`Cache`] remains
//! for odd geometries and for coupled multi-level hierarchies (where a
//! lower level sees only the upper level's misses — a *filtered* trace
//! the single-pass engine deliberately does not model; see DESIGN.md
//! §3).
//!
//! # Example
//!
//! ```
//! use shackle_memsim::{Cache, CacheConfig, StackSim};
//! let cfgs = [
//!     CacheConfig { size: 1024, line: 64, assoc: 2, latency: 0 },
//!     CacheConfig { size: 4096, line: 64, assoc: 4, latency: 0 },
//! ];
//! let mut stack = StackSim::new(64, &cfgs);
//! let mut direct: Vec<Cache> = cfgs.iter().map(|&c| Cache::new(c)).collect();
//! for addr in [0u64, 4096, 64, 0, 8192, 4096] {
//!     stack.access(addr);
//!     for c in &mut direct {
//!         c.access(addr);
//!     }
//! }
//! for (cfg, c) in cfgs.iter().zip(&direct) {
//!     assert_eq!(stack.stats_for(cfg), c.stats());
//! }
//! ```

use crate::{AccessSink, Cache, CacheConfig, LevelStats};
use shackle_probe as probe;

/// One-pass exact LRU simulation of a whole family of cache
/// configurations sharing a line size.
///
/// Feed the trace through [`StackSim::access`] or the unified
/// [`crate::AccessSink`] surface, then query [`StackSim::stats_for`]
/// for any covered configuration — the counts are bit-identical to
/// replaying the same trace through a direct [`Cache`] of that
/// configuration.
#[derive(Clone, Debug)]
pub struct StackSim {
    /// Line size in bytes (power of two).
    line: u64,
    /// Largest tracked log2(set count).
    kmax: u32,
    /// Distances are resolved exactly up to this associativity; the
    /// last histogram bucket pools `>= max_assoc` (a miss in every
    /// covered configuration).
    max_assoc: usize,
    /// Global LRU stack of line IDs, most recently used first.
    stack: Vec<u64>,
    /// Scratch: walk counts bucketed by matching low-order bit count.
    tcount: Vec<u64>,
    /// `hist[k][d]`: accesses whose per-set stack distance at `2^k`
    /// sets was `d` (`d == max_assoc` pools all larger distances).
    hist: Vec<Vec<u64>>,
    /// First-touch (cold) accesses — a miss everywhere.
    cold: u64,
    /// Total accesses.
    total: u64,
}

impl StackSim {
    /// Build an engine covering every configuration in `configs`
    /// (and any other configuration whose set count and associativity
    /// are dominated by theirs).
    ///
    /// # Panics
    ///
    /// Panics if `line` is zero or not a power of two, `configs` is
    /// empty, or some config has a different line size, an invalid
    /// geometry, or a non-power-of-two set count.
    pub fn new(line: usize, configs: &[CacheConfig]) -> Self {
        assert!(
            line.is_power_of_two(),
            "line size {line} must be a non-zero power of two"
        );
        assert!(!configs.is_empty(), "need at least one configuration");
        let mut kmax = 0u32;
        let mut max_assoc = 0usize;
        for c in configs {
            c.validate().unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(c.line, line, "all configurations must share the line size");
            let sets = c.sets();
            assert!(
                sets.is_power_of_two(),
                "stack engine needs a power-of-two set count, got {sets}"
            );
            kmax = kmax.max(sets.trailing_zeros());
            max_assoc = max_assoc.max(c.assoc);
        }
        Self {
            line: line as u64,
            kmax,
            max_assoc,
            stack: Vec::new(),
            tcount: vec![0; kmax as usize + 1],
            hist: vec![vec![0; max_assoc + 1]; kmax as usize + 1],
            cold: 0,
            total: 0,
        }
    }

    /// The shared line size in bytes.
    pub fn line(&self) -> usize {
        self.line as usize
    }

    /// Total accesses recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// First-touch accesses (cold misses in every configuration).
    pub fn cold_misses(&self) -> u64 {
        self.cold
    }

    /// Record one byte-address access.
    pub fn access(&mut self, addr: u64) {
        let target = addr / self.line;
        self.total += 1;
        // walk the global stack top-down looking for the line,
        // bucketing everything passed by its matching low-bit count
        let mut found = None;
        for (i, &l) in self.stack.iter().enumerate() {
            if l == target {
                found = Some(i);
                break;
            }
            let t = (l ^ target).trailing_zeros().min(self.kmax) as usize;
            self.tcount[t] += 1;
        }
        match found {
            Some(i) => {
                // suffix sums: the per-set distance at 2^k sets counts
                // lines sharing >= k low bits
                let mut d = 0u64;
                for k in (0..=self.kmax as usize).rev() {
                    d += self.tcount[k];
                    self.tcount[k] = 0;
                    let bucket = (d as usize).min(self.max_assoc);
                    self.hist[k][bucket] += 1;
                }
                // move to top (single rotate, no remove/insert pair)
                self.stack[..=i].rotate_right(1);
            }
            None => {
                self.tcount.fill(0);
                self.cold += 1;
                self.stack.insert(0, target);
            }
        }
    }

    /// Whether `config` is covered by this engine: same line size,
    /// power-of-two set count within `kmax`, associativity within the
    /// tracked resolution.
    pub fn covers(&self, config: &CacheConfig) -> bool {
        config.line as u64 == self.line && {
            let sets = config.sets();
            sets.is_power_of_two()
                && sets.trailing_zeros() <= self.kmax
                && config.assoc <= self.max_assoc
        }
    }

    /// Exact hit/miss counts the direct simulator would report for
    /// `config` on the trace recorded so far.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is not covered (see
    /// [`StackSim::covers`]).
    pub fn stats_for(&self, config: &CacheConfig) -> LevelStats {
        assert!(
            self.covers(config),
            "configuration {config:?} not covered by this stack engine \
             (line {}, kmax {}, max assoc {})",
            self.line,
            self.kmax,
            self.max_assoc
        );
        let k = config.sets().trailing_zeros() as usize;
        let hits: u64 = self.hist[k][..config.assoc].iter().sum();
        LevelStats {
            hits,
            misses: self.total - hits,
        }
    }

    /// Stall cycles a single-level [`crate::Hierarchy`] with level
    /// `config` and memory latency `mem_latency` would charge for this
    /// trace: `accesses · latency + misses · mem_latency`.
    pub fn cycles_for(&self, config: &CacheConfig, mem_latency: u64) -> u64 {
        let s = self.stats_for(config);
        s.accesses() * config.latency + s.misses * mem_latency
    }

    /// Reset the recorded trace.
    pub fn clear(&mut self) {
        self.stack.clear();
        self.tcount.fill(0);
        for h in &mut self.hist {
            h.fill(0);
        }
        self.cold = 0;
        self.total = 0;
    }
}

/// Replay `addrs` through a direct [`Cache`] per configuration — the
/// reference the stack engine is checked against, and the fallback for
/// geometries it does not cover.
pub fn direct_sweep(addrs: &[u64], configs: &[CacheConfig]) -> Vec<LevelStats> {
    configs
        .iter()
        .map(|&cfg| {
            let mut c = Cache::new(cfg);
            for &a in addrs {
                c.access(a);
            }
            c.stats()
        })
        .collect()
}

/// One stack pass over `addrs`, then derive the stats of every
/// configuration. All configurations must share a line size (see
/// [`StackSim::new`]).
pub fn stack_sweep(addrs: &[u64], configs: &[CacheConfig]) -> Vec<LevelStats> {
    let line = configs
        .first()
        .expect("need at least one configuration")
        .line;
    probe::add("memsim.stack_passes", 1);
    let mut sim = StackSim::new(line, configs);
    sim.push_many(addrs);
    configs.iter().map(|c| sim.stats_for(c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(size: usize, line: usize, assoc: usize) -> CacheConfig {
        CacheConfig {
            size,
            line,
            assoc,
            latency: 0,
        }
    }

    #[test]
    fn matches_direct_on_a_small_trace() {
        let configs = [
            cfg(64, 16, 1),
            cfg(64, 16, 2),
            cfg(64, 16, 4), // fully associative
            cfg(256, 16, 2),
            cfg(1024, 16, 8),
        ];
        // a trace with reuse at several distances and set conflicts
        let addrs: Vec<u64> = [0, 16, 32, 0, 64, 128, 16, 0, 256, 0, 512, 1024, 0, 16]
            .iter()
            .map(|&a| a as u64)
            .collect();
        assert_eq!(
            stack_sweep(&addrs, &configs),
            direct_sweep(&addrs, &configs)
        );
    }

    #[test]
    fn totals_are_conserved() {
        let configs = [cfg(128, 32, 2), cfg(512, 32, 4)];
        let addrs: Vec<u64> = (0..200u64).map(|i| (i * 7919) % 2048).collect();
        let mut sim = StackSim::new(32, &configs);
        sim.push_many(&addrs);
        assert_eq!(sim.total(), 200);
        for c in &configs {
            let s = sim.stats_for(c);
            assert_eq!(s.accesses(), 200);
            assert!(s.misses >= sim.cold_misses());
        }
    }

    #[test]
    fn inclusion_within_the_family() {
        // the Mattson inclusion property: at a fixed set count, adding
        // ways never turns a hit into a miss (all three configs below
        // have 8 sets)
        let configs = [cfg(256, 16, 2), cfg(512, 16, 4), cfg(1024, 16, 8)];
        let addrs: Vec<u64> = (0..300u64).map(|i| (i * 31) % 1024).collect();
        let s = stack_sweep(&addrs, &configs);
        assert!(s[1].hits >= s[0].hits, "4 ways vs 2");
        assert!(s[2].hits >= s[1].hits, "8 ways vs 4");
    }

    #[test]
    fn clear_resets() {
        let configs = [cfg(64, 16, 2)];
        let mut sim = StackSim::new(16, &configs);
        sim.push_many(&[0, 16, 0]);
        sim.clear();
        assert_eq!(sim.total(), 0);
        assert_eq!(sim.stats_for(&configs[0]), LevelStats::default());
    }

    #[test]
    #[should_panic(expected = "share the line size")]
    fn mixed_line_sizes_rejected() {
        let _ = StackSim::new(16, &[cfg(64, 16, 2), cfg(128, 32, 2)]);
    }

    #[test]
    #[should_panic(expected = "power-of-two set count")]
    fn non_pow2_sets_rejected() {
        // 3 sets
        let _ = StackSim::new(16, &[cfg(96, 16, 2)]);
    }

    #[test]
    #[should_panic(expected = "not covered")]
    fn uncovered_query_rejected() {
        let sim = StackSim::new(16, &[cfg(64, 16, 2)]);
        let _ = sim.stats_for(&cfg(1024, 16, 8));
    }
}
