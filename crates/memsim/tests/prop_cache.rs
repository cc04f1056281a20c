//! Property tests for the cache simulator: LRU inclusion, determinism,
//! and agreement with a naive reference model.

use proptest::prelude::*;
use shackle_memsim::{Cache, CacheConfig, Hierarchy, Tlb, TlbConfig};

/// A naive LRU model: per set, a vector of tags in recency order.
struct RefModel {
    sets: Vec<Vec<u64>>,
    line: u64,
    assoc: usize,
}

impl RefModel {
    fn new(cfg: CacheConfig) -> Self {
        Self {
            sets: vec![Vec::new(); cfg.sets()],
            line: cfg.line as u64,
            assoc: cfg.assoc,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let tag = addr / self.line;
        let set = (tag % self.sets.len() as u64) as usize;
        let s = &mut self.sets[set];
        if let Some(i) = s.iter().position(|&t| t == tag) {
            s.remove(i);
            s.insert(0, tag);
            true
        } else {
            if s.len() == self.assoc {
                s.pop();
            }
            s.insert(0, tag);
            false
        }
    }
}

fn trace() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..4096, 1..400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The production cache agrees with the naive model access by
    /// access — at every associativity, with a power-of-two set count
    /// (the mask path), a set count of three (the modulo path) and one
    /// fully-associative set (the shape `Tlb` instantiates) — and again
    /// after `clear()`, which must leave nothing of the first trace
    /// behind.
    #[test]
    fn matches_reference_model(
        addrs in trace(),
        again in trace(),
        assoc_log2 in 0u32..4,
        shape in 0usize..3,
    ) {
        let assoc = 1usize << assoc_log2;
        let sets = [4, 3, 1][shape];
        let cfg = CacheConfig { size: 32 * assoc * sets, line: 32, assoc, latency: 1 };
        prop_assert_eq!(cfg.sets(), sets);
        let mut cache = Cache::new(cfg);
        let mut reference = RefModel::new(cfg);
        for &a in &addrs {
            prop_assert_eq!(cache.access(a), reference.access(a), "{:?} at {}", cfg, a);
        }
        cache.clear();
        prop_assert_eq!(cache.stats().accesses(), 0);
        let mut reference = RefModel::new(cfg);
        for &a in &again {
            prop_assert_eq!(cache.access(a), reference.access(a), "{:?} reused at {}", cfg, a);
        }
    }

    /// A TLB is the one-set reference model over pages.
    #[test]
    fn tlb_matches_reference_model(addrs in trace(), entries in 1usize..20) {
        let mut tlb = Tlb::new(TlbConfig { page: 64, entries, miss_penalty: 30 });
        let mut reference = RefModel::new(CacheConfig {
            size: 64 * entries,
            line: 64,
            assoc: entries,
            latency: 0,
        });
        for &a in &addrs {
            prop_assert_eq!(tlb.access(a), reference.access(a), "{} entries at {}", entries, a);
        }
    }

    /// LRU inclusion: doubling associativity (same set count) never
    /// turns a hit into a miss.
    #[test]
    fn more_ways_never_hurt(addrs in trace()) {
        let small = CacheConfig { size: 512, line: 32, assoc: 2, latency: 1 };
        let big = CacheConfig { size: 1024, line: 32, assoc: 4, latency: 1 };
        assert_eq!(small.sets(), big.sets());
        let mut c1 = Cache::new(small);
        let mut c2 = Cache::new(big);
        for &a in &addrs {
            let h1 = c1.access(a);
            let h2 = c2.access(a);
            prop_assert!(!h1 || h2, "hit in small but miss in big at {a}");
        }
    }

    /// Replays are deterministic, and hierarchy counters are conserved:
    /// accesses at level k+1 equal misses at level k.
    #[test]
    fn hierarchy_conservation(addrs in trace()) {
        let cfgs = [
            CacheConfig { size: 256, line: 32, assoc: 2, latency: 1 },
            CacheConfig { size: 1024, line: 64, assoc: 4, latency: 10 },
        ];
        let mut h = Hierarchy::new(&cfgs, 50);
        for &a in &addrs {
            h.access(a);
        }
        let stats = h.level_stats();
        prop_assert_eq!(stats[0].accesses(), addrs.len() as u64);
        prop_assert_eq!(stats[1].accesses(), stats[0].misses);
        // cycles formula: per-level probe latencies + memory on full miss
        let expect = stats[0].accesses() * cfgs[0].latency
            + stats[1].accesses() * cfgs[1].latency
            + stats[1].misses * 50;
        prop_assert_eq!(h.cycles(), expect);
        // determinism
        let mut h2 = Hierarchy::new(&cfgs, 50);
        for &a in &addrs {
            h2.access(a);
        }
        prop_assert_eq!(h2.cycles(), h.cycles());
    }

    /// A working set that fits is eventually all hits.
    #[test]
    fn resident_working_set_hits(start in 0u64..1000) {
        let cfg = CacheConfig { size: 4096, line: 64, assoc: 4, latency: 1 };
        let mut c = Cache::new(cfg);
        let lines: Vec<u64> = (0..32).map(|i| (start + i) * 64).collect();
        for &a in &lines {
            c.access(a);
        }
        for &a in &lines {
            prop_assert!(c.access(a), "resident line {a} missed");
        }
    }
}

/// The largest line index there is — byte lines, the last address — is
/// a line like any other: cold once, then resident until evicted, in a
/// set that holds it next to other lines and in one it has to itself.
#[test]
fn the_last_byte_line_is_an_ordinary_line() {
    for assoc in [1, 2, 4] {
        let cfg = CacheConfig {
            size: assoc,
            line: 1,
            assoc,
            latency: 0,
        };
        let mut cache = Cache::new(cfg);
        let mut reference = RefModel::new(cfg);
        let others = (0..assoc as u64 + 1).map(|i| i * 3);
        let mut trace = vec![u64::MAX, u64::MAX, 5, u64::MAX];
        trace.extend(others.clone()); // evicts it
        trace.extend([u64::MAX, u64::MAX]);
        trace.extend(others); // and again, from the front of the set
        trace.push(u64::MAX);
        for (i, &a) in trace.iter().enumerate() {
            assert_eq!(
                cache.access(a),
                reference.access(a),
                "{assoc}-way, step {i}"
            );
        }
        cache.clear();
        assert!(!cache.access(u64::MAX), "{assoc}-way: cold after clear");
        assert!(cache.access(u64::MAX));
    }
}
