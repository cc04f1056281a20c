//! Named atomic counters.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{LazyLock, Mutex};

/// A monotonic `u64` metric cell. Handles are `&'static`: register
/// once with [`counter`] and update with relaxed atomics thereafter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite the counter (for gauge-style values such as cache
    /// sizes folded in from external snapshots).
    #[inline]
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

static COUNTERS: LazyLock<Mutex<BTreeMap<&'static str, &'static Counter>>> =
    LazyLock::new(|| Mutex::new(BTreeMap::new()));

/// Look up (registering on first use) the counter named `name`. The
/// returned handle is valid for the process lifetime; hot paths
/// should cache it in a `LazyLock` rather than re-resolving the name.
pub fn counter(name: &'static str) -> &'static Counter {
    let mut table = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    table
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(Counter::default())))
}

/// Add `n` to the counter named `name` if instrumentation is enabled;
/// a single relaxed load otherwise.
#[inline]
pub fn add(name: &'static str, n: u64) {
    if crate::enabled() {
        counter(name).add(n);
    }
}

pub(crate) fn reset_metrics() {
    for c in COUNTERS.lock().unwrap_or_else(|e| e.into_inner()).values() {
        c.set(0);
    }
}

pub(crate) fn snapshot_counters() -> Vec<(String, u64)> {
    COUNTERS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(name, c)| (name.to_string(), c.get()))
        .collect()
}
