//! A single set-associative LRU cache level.
//!
//! Each set owns `assoc` consecutive slots of one flat `tags` array and
//! keeps them in **recency order**, most recently used first. The
//! common access — the line touched last in its set is touched again —
//! is one compare against way 0 and changes nothing. A hit further down,
//! or a miss, makes the line way 0 and moves the ways before it (on a
//! miss: all but the last, which is the least recently used and drops
//! out) down one place; associativities are small, so that is a short
//! `memmove` inside one or two cache lines of simulator memory. The
//! order *is* the LRU state: there is no stamp or counter beside it.
//! Empty ways hold a sentinel and, because fills enter at the front,
//! always form the tail of their set, so cold fills use them first. Set
//! selection is a mask for power-of-two set counts and a modulo
//! otherwise.

use std::fmt;

/// A rejected [`CacheConfig`] or [`crate::TlbConfig`] geometry.
///
/// Returned by the fallible constructors ([`CacheConfig::validate`],
/// [`Cache::try_new`], [`crate::Tlb::try_new`]); the panicking `new`
/// wrappers raise the same message via [`fmt::Display`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// Line size is zero or not a power of two.
    LineNotPowerOfTwo {
        /// The offending line size in bytes.
        line: usize,
    },
    /// Associativity is zero.
    ZeroAssociativity,
    /// Capacity is zero.
    ZeroSize,
    /// Capacity is not a whole number of lines.
    SizeNotLineMultiple {
        /// Capacity in bytes.
        size: usize,
        /// Line size in bytes.
        line: usize,
    },
    /// Line count is not a whole number of sets.
    SizeNotSetMultiple {
        /// Capacity in bytes.
        size: usize,
        /// Line size in bytes.
        line: usize,
        /// Associativity.
        assoc: usize,
    },
    /// TLB page size is zero or not a power of two.
    PageNotPowerOfTwo {
        /// The offending page size in bytes.
        page: usize,
    },
    /// TLB has no entries.
    NoTlbEntries,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConfigError::LineNotPowerOfTwo { line } => {
                write!(f, "line size {line} must be a non-zero power of two")
            }
            ConfigError::ZeroAssociativity => {
                write!(f, "associativity must be at least 1")
            }
            ConfigError::ZeroSize => write!(f, "cache size must be positive"),
            ConfigError::SizeNotLineMultiple { size, line } => {
                write!(f, "cache size {size} not divisible into {line}-byte lines")
            }
            ConfigError::SizeNotSetMultiple { size, line, assoc } => {
                write!(
                    f,
                    "cache size {size} not divisible into {assoc}-way sets of {line}-byte lines"
                )
            }
            ConfigError::PageNotPowerOfTwo { .. } => {
                write!(f, "page size must be a power of two")
            }
            ConfigError::NoTlbEntries => write!(f, "TLB needs at least one entry"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Geometry and cost of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: usize,
    /// Line size in bytes (power of two).
    pub line: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Access latency in cycles (charged on every probe of this level).
    pub latency: u64,
}

impl CacheConfig {
    /// Validate the geometry, reporting the first inconsistency found:
    /// `line` zero or not a power of two, `assoc == 0`, or `size` zero
    /// or not divisible by `line * assoc` (which would make the set
    /// count zero or fractional).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.line.is_power_of_two() {
            return Err(ConfigError::LineNotPowerOfTwo { line: self.line });
        }
        if self.assoc < 1 {
            return Err(ConfigError::ZeroAssociativity);
        }
        if self.size == 0 {
            return Err(ConfigError::ZeroSize);
        }
        if !self.size.is_multiple_of(self.line) {
            return Err(ConfigError::SizeNotLineMultiple {
                size: self.size,
                line: self.line,
            });
        }
        if !(self.size / self.line).is_multiple_of(self.assoc) {
            return Err(ConfigError::SizeNotSetMultiple {
                size: self.size,
                line: self.line,
                assoc: self.assoc,
            });
        }
        // note: `size > 0` plus both divisibility checks imply
        // `lines / assoc >= 1`, so the set count is always positive here
        Ok(())
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see
    /// [`CacheConfig::validate`]).
    pub fn sets(&self) -> usize {
        self.validate().unwrap_or_else(|e| panic!("{e}"));
        self.size / self.line / self.assoc
    }
}

/// Hit/miss counters for one level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Probes that found the line.
    pub hits: u64,
    /// Probes that missed.
    pub misses: u64,
}

impl LevelStats {
    /// Total probes.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]` (0 for no accesses).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

/// The tag of a way that holds no line.
const EMPTY: u64 = u64::MAX;

/// A set-associative cache with true-LRU replacement.
///
/// # Examples
///
/// ```
/// use shackle_memsim::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig { size: 256, line: 64, assoc: 2, latency: 1 });
/// assert!(!c.access(0));   // cold miss
/// assert!(c.access(8));    // same 64-byte line
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    /// `log2(config.line)`: the line size is a validated power of two,
    /// so the line of an address is a shift, not a division.
    line_shift: u32,
    /// Number of sets (`config.sets()`, cached).
    sets: usize,
    /// `sets - 1` when the set count is a power of two, else `0` with
    /// [`Cache::set_shift`] unused — see [`Cache::set_of`].
    set_mask: u64,
    /// Whether set selection can use the mask.
    pow2_sets: bool,
    /// Way tags (line indices), `assoc` consecutive slots per set, each
    /// set most recently used first; [`EMPTY`] marks an unfilled way.
    tags: Box<[u64]>,
    /// Whether the one line whose index equals [`EMPTY`] was filled
    /// since the last [`Cache::clear`] (see [`Cache::access`]).
    last_line_filled: bool,
    stats: LevelStats,
}

impl Cache {
    /// Build an empty cache, rejecting inconsistent geometries (zero
    /// or non-power-of-two `line`, `assoc == 0`, or `size` not
    /// divisible by `line * assoc`) — see [`CacheConfig::validate`].
    pub fn try_new(config: CacheConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let sets = config.size / config.line / config.assoc;
        let slots = sets * config.assoc;
        Ok(Self {
            config,
            line_shift: config.line.trailing_zeros(),
            sets,
            set_mask: sets as u64 - 1,
            pow2_sets: sets.is_power_of_two(),
            tags: vec![EMPTY; slots].into_boxed_slice(),
            last_line_filled: false,
            stats: LevelStats::default(),
        })
    }

    /// Build an empty cache.
    ///
    /// Thin wrapper over [`Cache::try_new`] for the common
    /// statically-known-valid case.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] message if the configuration is
    /// inconsistent.
    pub fn new(config: CacheConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Statistics so far.
    pub fn stats(&self) -> LevelStats {
        self.stats
    }

    /// Reset counters and contents.
    pub fn clear(&mut self) {
        self.tags.fill(EMPTY);
        self.last_line_filled = false;
        self.stats = LevelStats::default();
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        if self.pow2_sets {
            (line & self.set_mask) as usize
        } else {
            (line % self.sets as u64) as usize
        }
    }

    /// Touch the byte at `addr`; returns whether it hit. On a miss the
    /// line is filled (evicting the LRU way if the set is full).
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let base = self.set_of(line) * self.config.assoc;
        let ways = &mut self.tags[base..base + self.config.assoc];
        let mut hit = ways[0] == line;
        if !hit || line == EMPTY {
            // Not (knowably) the most recent way: make it so, moving
            // the ways before it down one. On a miss that is all of
            // them but the last — the least recently used, or an empty
            // one — which drops out.
            let mut moving = line;
            for way in ways {
                moving = std::mem::replace(way, moving);
                if moving == line {
                    hit = true;
                    break;
                }
            }
            if line == EMPTY {
                // One line index cannot be told from an empty way by
                // its tag: this one, which exists only with one-byte
                // lines (any wider line shifts a zero into the top
                // bit). Finding it in an empty way moved that way to
                // the front, which is the fill a miss does; only the
                // verdict needs to know. It is a miss precisely when
                // the line was never filled before: once it was, it
                // can only leave a full set, and a full set has no
                // empty way to mistake for it.
                hit &= self.last_line_filled;
                self.last_line_filled = true;
            }
        }
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }
}

impl fmt::Display for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}KB {}-way {}B-line cache: {} hits, {} misses",
            self.config.size / 1024,
            self.config.assoc,
            self.config.line,
            self.stats.hits,
            self.stats.misses
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 16-byte lines = 64 bytes
        Cache::new(CacheConfig {
            size: 64,
            line: 16,
            assoc: 2,
            latency: 1,
        })
    }

    #[test]
    fn spatial_locality_within_line() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(15));
        assert!(!c.access(16));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction() {
        let mut c = tiny();
        // set 0 holds lines 0, 2, 4, ... (even lines); fill 2 ways
        assert!(!c.access(0)); // line 0 → set 0
        assert!(!c.access(32)); // line 2 → set 0
        assert!(c.access(0)); // line 0 hits, becomes MRU
        assert!(!c.access(64)); // line 4 → set 0, evicts line 2 (LRU)
        assert!(c.access(0)); // line 0 still resident
        assert!(!c.access(32)); // line 2 was evicted
    }

    #[test]
    fn set_mapping_isolates() {
        let mut c = tiny();
        // lines 0 and 1 map to different sets; both fit
        assert!(!c.access(0));
        assert!(!c.access(16));
        assert!(c.access(0));
        assert!(c.access(16));
    }

    #[test]
    fn miss_ratio() {
        let mut c = tiny();
        c.access(0);
        c.access(0);
        assert_eq!(c.stats().miss_ratio(), 0.5);
        c.clear();
        assert_eq!(c.stats().accesses(), 0);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn bad_geometry_rejected() {
        let _ = Cache::new(CacheConfig {
            size: 100,
            line: 16,
            assoc: 2,
            latency: 1,
        });
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn zero_line_rejected() {
        let _ = Cache::new(CacheConfig {
            size: 64,
            line: 0,
            assoc: 2,
            latency: 1,
        });
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_line_rejected() {
        let _ = Cache::new(CacheConfig {
            size: 96,
            line: 24,
            assoc: 2,
            latency: 1,
        });
    }

    #[test]
    #[should_panic(expected = "associativity")]
    fn zero_assoc_rejected() {
        let _ = Cache::new(CacheConfig {
            size: 64,
            line: 16,
            assoc: 0,
            latency: 1,
        });
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_size_rejected() {
        // the seed computed sets == 0 here and divided by zero on the
        // first access; now it is rejected at construction
        let _ = Cache::new(CacheConfig {
            size: 0,
            line: 16,
            assoc: 2,
            latency: 1,
        });
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn undersized_cache_rejected() {
        // one line total cannot host a 2-way set
        let _ = Cache::new(CacheConfig {
            size: 16,
            line: 16,
            assoc: 2,
            latency: 1,
        });
    }

    #[test]
    fn non_power_of_two_set_count_still_works() {
        // 3 sets: falls back to modulo set selection
        let mut c = Cache::new(CacheConfig {
            size: 96,
            line: 16,
            assoc: 2,
            latency: 1,
        });
        assert_eq!(c.config().sets(), 3);
        assert!(!c.access(0)); // line 0 → set 0
        assert!(!c.access(48)); // line 3 → set 0
        assert!(!c.access(96)); // line 6 → set 0, evicts line 0
        assert!(!c.access(0));
        assert!(c.access(96 + 8)); // line 6 re-hit after line-0 refill
    }

    #[test]
    fn fully_associative_working_set() {
        // direct test: working set larger than capacity thrashes
        let mut c = Cache::new(CacheConfig {
            size: 128,
            line: 16,
            assoc: 8,
            latency: 1,
        });
        // 8 lines capacity (fully assoc); touch 9 lines round-robin twice
        for _ in 0..2 {
            for i in 0..9u64 {
                c.access(i * 16);
            }
        }
        // second round misses everything (LRU + sequential sweep)
        assert_eq!(c.stats().misses, 18);
    }

    #[test]
    fn clear_empties_contents() {
        let mut c = tiny();
        c.access(0);
        c.clear();
        assert!(!c.access(0), "cleared cache must cold-miss");
    }

    fn reject(size: usize, line: usize, assoc: usize) -> ConfigError {
        let config = CacheConfig {
            size,
            line,
            assoc,
            latency: 1,
        };
        let err = config.validate().expect_err("geometry must be rejected");
        // try_new reports the identical error
        assert_eq!(Cache::try_new(config).expect_err("same rejection"), err);
        err
    }

    #[test]
    fn try_new_rejects_each_inconsistency() {
        assert_eq!(reject(64, 0, 2), ConfigError::LineNotPowerOfTwo { line: 0 });
        assert_eq!(
            reject(96, 24, 2),
            ConfigError::LineNotPowerOfTwo { line: 24 }
        );
        assert_eq!(reject(64, 16, 0), ConfigError::ZeroAssociativity);
        assert_eq!(reject(0, 16, 2), ConfigError::ZeroSize);
        assert_eq!(
            reject(100, 16, 2),
            ConfigError::SizeNotLineMultiple {
                size: 100,
                line: 16
            }
        );
        assert_eq!(
            reject(16, 16, 2),
            ConfigError::SizeNotSetMultiple {
                size: 16,
                line: 16,
                assoc: 2
            }
        );
    }

    #[test]
    fn try_new_accepts_valid_geometry() {
        let config = CacheConfig {
            size: 64,
            line: 16,
            assoc: 2,
            latency: 1,
        };
        assert_eq!(config.validate(), Ok(()));
        let mut c = Cache::try_new(config).expect("valid geometry");
        assert!(!c.access(0));
    }

    #[test]
    fn config_error_messages_match_the_panics() {
        // the panicking wrappers raise these exact strings; pin them so
        // downstream `should_panic(expected = ...)` tests stay honest
        assert_eq!(
            ConfigError::LineNotPowerOfTwo { line: 24 }.to_string(),
            "line size 24 must be a non-zero power of two"
        );
        assert_eq!(
            ConfigError::ZeroAssociativity.to_string(),
            "associativity must be at least 1"
        );
        assert_eq!(
            ConfigError::ZeroSize.to_string(),
            "cache size must be positive"
        );
        assert_eq!(
            ConfigError::SizeNotLineMultiple {
                size: 100,
                line: 16
            }
            .to_string(),
            "cache size 100 not divisible into 16-byte lines"
        );
        assert_eq!(
            ConfigError::SizeNotSetMultiple {
                size: 16,
                line: 16,
                assoc: 2
            }
            .to_string(),
            "cache size 16 not divisible into 2-way sets of 16-byte lines"
        );
        assert_eq!(
            ConfigError::PageNotPowerOfTwo { page: 100 }.to_string(),
            "page size must be a power of two"
        );
        assert_eq!(
            ConfigError::NoTlbEntries.to_string(),
            "TLB needs at least one entry"
        );
    }
}
