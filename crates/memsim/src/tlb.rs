//! An optional TLB model.
//!
//! The paper's input codes sweep rows of column-major arrays; on the
//! real SP-2 such strides paid address-translation misses on top of
//! cache misses. The base hierarchy deliberately omits this (the
//! calibrated figures in EXPERIMENTS.md document the consequence); a
//! [`Tlb`] can be attached to a [`crate::Hierarchy`] to study it.

use crate::{Cache, CacheConfig, ConfigError};
use std::fmt;

/// TLB geometry and miss cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbConfig {
    /// Page size in bytes (power of two).
    pub page: usize,
    /// Number of entries (fully associative, true LRU).
    pub entries: usize,
    /// Cycles charged per miss (page-table walk).
    pub miss_penalty: u64,
}

impl TlbConfig {
    /// A POWER2-like TLB: 4 KB pages, 128 entries, 30-cycle walk.
    pub fn power2_like() -> Self {
        Self {
            page: 4096,
            entries: 128,
            miss_penalty: 30,
        }
    }

    /// Validate the geometry, reporting the first inconsistency found:
    /// `page` zero or not a power of two, or `entries == 0`. The
    /// translation analogue of [`crate::CacheConfig::validate`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.page.is_power_of_two() {
            return Err(ConfigError::PageNotPowerOfTwo { page: self.page });
        }
        if self.entries == 0 {
            return Err(ConfigError::NoTlbEntries);
        }
        Ok(())
    }
}

/// A fully associative, true-LRU translation lookaside buffer.
///
/// # Examples
///
/// ```
/// use shackle_memsim::{Tlb, TlbConfig};
/// let mut t = Tlb::new(TlbConfig { page: 4096, entries: 2, miss_penalty: 30 });
/// assert!(!t.access(0));        // cold
/// assert!(t.access(100));       // same page
/// assert!(!t.access(4096));     // next page
/// assert!(!t.access(2 * 4096)); // evicts page 0
/// assert!(!t.access(0));
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    config: TlbConfig,
    /// The resident pages: a one-set [`Cache`] whose lines are pages and
    /// whose ways are the entries — the same LRU, not a second copy.
    pages: Cache,
}

impl Tlb {
    /// Build an empty TLB, rejecting inconsistent geometries (page
    /// size not a power of two, or no entries) — see
    /// [`TlbConfig::validate`].
    pub fn try_new(config: TlbConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let pages = Cache::try_new(CacheConfig {
            size: config.page * config.entries,
            line: config.page,
            assoc: config.entries,
            latency: 0,
        })?;
        Ok(Self { config, pages })
    }

    /// Build an empty TLB.
    ///
    /// Thin wrapper over [`Tlb::try_new`].
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] message if the page size is not
    /// a power of two or `entries == 0`.
    pub fn new(config: TlbConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The configuration.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Translate the byte address; returns whether it hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.pages.access(addr)
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.stats().hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.stats().misses
    }

    /// Hit/miss counters as a [`crate::LevelStats`], so reports can
    /// treat translation like another level of the hierarchy.
    pub fn stats(&self) -> crate::LevelStats {
        self.pages.stats()
    }

    /// Reset contents and counters.
    pub fn clear(&mut self) {
        self.pages.clear();
    }
}

impl fmt::Display for Tlb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-entry TLB ({} B pages): {} hits, {} misses",
            self.config.entries,
            self.config.page,
            self.hits(),
            self.misses()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_thrash_vs_sequential() {
        // sequential: one miss per page; page-strided over > entries
        // pages: every access misses on the second pass
        let cfg = TlbConfig {
            page: 4096,
            entries: 8,
            miss_penalty: 30,
        };
        let mut seq = Tlb::new(cfg);
        for a in (0..16 * 4096u64).step_by(8) {
            seq.access(a);
        }
        assert_eq!(seq.misses(), 16);
        let mut strided = Tlb::new(cfg);
        for _ in 0..2 {
            for p in 0..16u64 {
                strided.access(p * 4096);
            }
        }
        assert_eq!(strided.misses(), 32, "LRU thrash on a sweep > capacity");
    }

    #[test]
    fn clear_resets() {
        let mut t = Tlb::new(TlbConfig::power2_like());
        t.access(0);
        t.clear();
        assert_eq!(t.misses(), 0);
        assert!(!t.access(0));
    }

    #[test]
    fn try_new_rejects_each_inconsistency() {
        let bad_page = TlbConfig {
            page: 100,
            entries: 4,
            miss_penalty: 30,
        };
        assert_eq!(
            Tlb::try_new(bad_page).expect_err("non-power-of-two page"),
            ConfigError::PageNotPowerOfTwo { page: 100 }
        );
        let zero_page = TlbConfig {
            page: 0,
            entries: 4,
            miss_penalty: 30,
        };
        assert_eq!(
            Tlb::try_new(zero_page).expect_err("zero page"),
            ConfigError::PageNotPowerOfTwo { page: 0 }
        );
        let no_entries = TlbConfig {
            page: 4096,
            entries: 0,
            miss_penalty: 30,
        };
        assert_eq!(
            Tlb::try_new(no_entries).expect_err("no entries"),
            ConfigError::NoTlbEntries
        );
        assert!(Tlb::try_new(TlbConfig::power2_like()).is_ok());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn new_panics_on_bad_page() {
        let _ = Tlb::new(TlbConfig {
            page: 100,
            entries: 4,
            miss_penalty: 30,
        });
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn new_panics_on_no_entries() {
        let _ = Tlb::new(TlbConfig {
            page: 4096,
            entries: 0,
            miss_penalty: 30,
        });
    }
}
