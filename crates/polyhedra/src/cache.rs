//! Memoized polyhedral queries: a thread-safe cache for Omega
//! feasibility verdicts and Fourier–Motzkin projections, plus the
//! [`PolyStats`] instrumentation counters.
//!
//! The compile-time pipeline (dependence analysis, Theorem-1 legality,
//! Quilleré-style scanning) asks the same polyhedral questions over and
//! over: every candidate shackle of the §8 search re-probes dependences
//! that differ only in which disjunct of a lexicographic order is
//! conjoined, and the scanner re-projects identical piece domains for
//! every sibling loop nest. Both query families are *pure functions* of
//! the constraint system, so the answers are memoized here behind the
//! [`crate::System::is_integer_feasible`] and
//! [`crate::System::project_onto`] entry points.
//!
//! # Keys
//!
//! * **Feasibility** is invariant under variable renaming and under the
//!   order in which constraints were added, so its key is a *canonical
//!   form*: the used variables are sorted by name, the (already
//!   GCD-tightened) rows are permuted onto that order and sorted, and
//!   the variable names themselves are dropped. Systems that differ
//!   only by an order-preserving renaming or by constraint insertion
//!   order (the common case for flow/anti/output dependences over the
//!   same reference pair) therefore share one cache entry.
//! * **Projection** returns a `System` whose textual variable order
//!   feeds directly into generated code, so its key preserves the
//!   insertion order of variables and rows exactly; only the `keep`
//!   set is sorted (the computation never depends on `keep` order).
//!   A hit returns byte-for-byte the system a fresh computation would
//!   produce, which keeps codegen deterministic whether the answer was
//!   cached or not — and at any thread count.
//!
//! A key is built in a pooled scratch buffer and hashed once, a word at
//! a time (`hash_words`); the hash is stored in the key's first eight
//! bytes, where the shard index and the map's hasher both read it back.
//! A hit allocates nothing; a miss stores the key at its exact length.
//!
//! Shard locks are never held while a query runs: recursive queries
//! (projection exactness checks re-enter the feasibility test) would
//! otherwise deadlock. Two threads may race to compute the same entry;
//! both compute the same pure value, so the duplicate insert is benign.
//!
//! # Cross-process persistence
//!
//! The proven maps (feasibility, projection, gist) survive process
//! restarts: [`save_to`] serializes them to a single versioned binary
//! file (atomic temp + rename, like the native build cache) and
//! [`load_from`] rebuilds them byte-for-byte — a reloaded projection
//! is indistinguishable from a fresh computation, so codegen stays
//! deterministic across restarts. The file ends in a checksum and is
//! loaded all or nothing: one that fails its version, its checksum or
//! its parse inserts no entry. `Unknown` outcomes are deliberately
//! *not* persisted: they record resource exhaustion at compute time,
//! not a property of the system. [`store_path`] resolves the on-disk
//! location from `$SHACKLE_POLY_CACHE` (a file path, kept beside the
//! `$SHACKLE_NATIVE_CACHE` artifact store by convention).
//!
//! # Size bounds
//!
//! Each shard holds at most [`cache_capacity`]`/16` entries. Inserting
//! into a full shard evicts its least-recently-touched quarter
//! (approximate LRU via a global logical clock stamped on every hit),
//! counted in [`PolyStats::evictions`].

use crate::error::{Budget, PolyError};
use crate::scratch::{self, Pooled};
use crate::{fm, omega, Rel, System};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{LazyLock, Mutex};

/// Number of independent lock shards per cache; a small power of two so
/// the hash → shard map is a mask.
const SHARDS: usize = 16;

/// Default total entry bound per cache (feasibility, projection, gist
/// and unknown each get this many): generous enough that single-run
/// pipelines never evict, small enough that a long-lived server stays
/// bounded.
const DEFAULT_CAPACITY: usize = 1 << 16;

/// Bytes of a key taken by its hash (see [`seal`]).
const HASH_LEN: usize = 8;

/// The `HashMap` hasher for keys that carry their own hash: it reads the
/// first [`HASH_LEN`] bytes back instead of hashing the key again.
#[derive(Clone, Default)]
struct PrefixBuild;

struct PrefixHasher(u64);

impl BuildHasher for PrefixBuild {
    type Hasher = PrefixHasher;
    fn build_hasher(&self) -> PrefixHasher {
        PrefixHasher(0)
    }
}

impl Hasher for PrefixHasher {
    // `[u8]` hashes as its length (`write_usize`, ignored) and then its
    // bytes in one `write`.
    fn write_usize(&mut self, _len: usize) {}
    fn write(&mut self, key: &[u8]) {
        self.0 = key_hash(key);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The hash a sealed key carries.
fn key_hash(key: &[u8]) -> u64 {
    key.first_chunk::<HASH_LEN>()
        .map_or(0, |h| u64::from_le_bytes(*h))
}

/// One pass over `bytes`, eight at a time, then a full avalanche
/// (MurmurHash3's finaliser): the key hash, and the store's checksum.
/// Every step is a bijection of the running state for a fixed input
/// word, so inputs of one length that differ in one word always hash
/// apart.
fn hash_words(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = (bytes.len() as u64).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    let mut mix = |w: u64| h = (h ^ w).wrapping_mul(K).rotate_left(29);
    for w in &mut words {
        mix(u64::from_le_bytes(w.try_into().expect("eight bytes")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut w = [0u8; 8];
        w[..tail.len()].copy_from_slice(tail);
        mix(u64::from_le_bytes(w));
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// A key under construction: [`HASH_LEN`] bytes reserved for the hash,
/// the body appended after them.
fn new_key() -> Pooled<u8> {
    let mut key = scratch::byte_vec();
    key.extend_from_slice(&[0; HASH_LEN]);
    key
}

/// Hash a key's body once and store the hash in its first bytes.
fn seal(key: &mut [u8]) {
    let h = hash_words(&key[HASH_LEN..]);
    key[..HASH_LEN].copy_from_slice(&h.to_le_bytes());
}

/// A cached value plus the logical time it was last touched (hit or
/// inserted) — the eviction ordering.
struct Stamped<V> {
    value: V,
    stamp: u64,
}

type Map<V> = HashMap<Box<[u8]>, Stamped<V>, PrefixBuild>;
type Shard<V> = Mutex<Map<V>>;

static FEASIBILITY: LazyLock<Vec<Shard<bool>>> = LazyLock::new(new_shards);
static PROJECTION: LazyLock<Vec<Shard<(System, bool)>>> = LazyLock::new(new_shards);
static GIST: LazyLock<Vec<Shard<System>>> = LazyLock::new(new_shards);
/// `Unknown` outcomes live in their own map, keyed by a query tag, the
/// budget fingerprint, *and* the exact query key: a verdict that merely
/// reflects resource exhaustion must never be replayed for a different
/// budget (that would "poison" stricter or looser queries), while the
/// proven caches above stay budget-independent.
static UNKNOWN: LazyLock<Vec<Shard<PolyError>>> = LazyLock::new(new_shards);

fn new_shards<V>() -> Vec<Shard<V>> {
    (0..SHARDS)
        .map(|_| Mutex::new(HashMap::default()))
        .collect()
}

/// Global logical clock for approximate LRU: bumped on every hit and
/// insert. Relaxed is fine — eviction only needs a rough recency order,
/// not a total one.
static CLOCK: AtomicU64 = AtomicU64::new(0);

/// Total entry bound per cache (split evenly across shards).
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);

fn tick() -> u64 {
    CLOCK.fetch_add(1, Ordering::Relaxed)
}

fn shard_capacity() -> usize {
    (CAPACITY.load(Ordering::Relaxed) / SHARDS).max(1)
}

/// Bound the number of entries each cache may hold (feasibility,
/// projection, gist and unknown each get `total` entries, split across
/// the shards). Inserting past the bound evicts the least-recently-used
/// quarter of the full shard. Returns the previous bound. Existing
/// oversized shards shrink lazily on their next insert.
pub fn set_cache_capacity(total: usize) -> usize {
    CAPACITY.swap(total.max(SHARDS), Ordering::Relaxed)
}

/// The current total entry bound per cache.
pub fn cache_capacity() -> usize {
    CAPACITY.load(Ordering::Relaxed)
}

static FEAS_QUERIES: AtomicU64 = AtomicU64::new(0);
static FEAS_HITS: AtomicU64 = AtomicU64::new(0);
static PROJ_QUERIES: AtomicU64 = AtomicU64::new(0);
static PROJ_HITS: AtomicU64 = AtomicU64::new(0);
static GIST_QUERIES: AtomicU64 = AtomicU64::new(0);
static GIST_HITS: AtomicU64 = AtomicU64::new(0);
static SPLINTERS: AtomicU64 = AtomicU64::new(0);
static DARK_FALLBACKS: AtomicU64 = AtomicU64::new(0);
static FM_COMBINED: AtomicU64 = AtomicU64::new(0);
static FM_PRUNED: AtomicU64 = AtomicU64::new(0);
static UNKNOWN_VERDICTS: AtomicU64 = AtomicU64::new(0);
static EVICTIONS: AtomicU64 = AtomicU64::new(0);

/// Counters describing the polyhedral work done since the last
/// [`reset_stats`].
///
/// All counters are global (process-wide) and updated with relaxed
/// atomics, so they are cheap enough to leave on permanently and are
/// meaningful across worker threads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PolyStats {
    /// Non-trivial Omega feasibility queries through the cached entry
    /// point (trivially contradictory / empty systems are answered
    /// before counting).
    pub feasibility_queries: u64,
    /// Feasibility queries answered from the cache.
    pub feasibility_hits: u64,
    /// `project_onto` queries through the cached entry point.
    pub projection_queries: u64,
    /// Projection queries answered from the cache.
    pub projection_hits: u64,
    /// `gist` simplification queries through the cached entry point.
    pub gist_queries: u64,
    /// Gist queries answered from the cache.
    pub gist_hits: u64,
    /// Splinter subproblems explored by the Omega test (each one is a
    /// full recursive solve).
    pub splinters: u64,
    /// Eliminations where the dark shadow had to be computed because
    /// the real shadow was not provably exact.
    pub dark_shadow_fallbacks: u64,
    /// Lower×upper row pairs combined by Fourier–Motzkin elimination.
    pub fm_rows_combined: u64,
    /// Rows discarded (or tightened in place) by dominance pruning in
    /// `System::push_row` instead of being kept as redundant rows.
    pub fm_rows_pruned: u64,
    /// Queries that ended `Unknown`: the budget ran out (or arithmetic
    /// overflowed `i64` even after `i128` promotion) before a proof.
    /// Consumers degrade conservatively; a healthy pipeline run keeps
    /// this at zero.
    pub unknown_verdicts: u64,
    /// Entries evicted to keep shards under [`cache_capacity`]. Zero in
    /// single-run pipelines; a long-lived server watches this to size
    /// the bound.
    pub evictions: u64,
}

/// Snapshot the global counters.
pub fn stats() -> PolyStats {
    PolyStats {
        feasibility_queries: FEAS_QUERIES.load(Ordering::Relaxed),
        feasibility_hits: FEAS_HITS.load(Ordering::Relaxed),
        projection_queries: PROJ_QUERIES.load(Ordering::Relaxed),
        projection_hits: PROJ_HITS.load(Ordering::Relaxed),
        gist_queries: GIST_QUERIES.load(Ordering::Relaxed),
        gist_hits: GIST_HITS.load(Ordering::Relaxed),
        splinters: SPLINTERS.load(Ordering::Relaxed),
        dark_shadow_fallbacks: DARK_FALLBACKS.load(Ordering::Relaxed),
        fm_rows_combined: FM_COMBINED.load(Ordering::Relaxed),
        fm_rows_pruned: FM_PRUNED.load(Ordering::Relaxed),
        unknown_verdicts: UNKNOWN_VERDICTS.load(Ordering::Relaxed),
        evictions: EVICTIONS.load(Ordering::Relaxed),
    }
}

/// Fold the current [`PolyStats`] snapshot into the probe counters
/// (`poly.feasibility_queries`, `poly.feasibility_hits`,
/// `poly.projection_queries`, `poly.projection_hits`,
/// `poly.gist_queries`, `poly.gist_hits`, `poly.splinters`,
/// `poly.dark_shadow_fallbacks`, `poly.fm_rows_combined`,
/// `poly.fm_rows_pruned`, `poly.unknown`).
///
/// The counters are *set* (not added), so repeated publishes are
/// idempotent: each probe counter mirrors the cumulative PolyStats
/// value since the last [`reset_stats`]. No-op when instrumentation is
/// disabled.
pub fn publish_stats() {
    if !shackle_probe::enabled() {
        return;
    }
    let s = stats();
    for (name, v) in [
        ("poly.feasibility_queries", s.feasibility_queries),
        ("poly.feasibility_hits", s.feasibility_hits),
        ("poly.projection_queries", s.projection_queries),
        ("poly.projection_hits", s.projection_hits),
        ("poly.gist_queries", s.gist_queries),
        ("poly.gist_hits", s.gist_hits),
        ("poly.splinters", s.splinters),
        ("poly.dark_shadow_fallbacks", s.dark_shadow_fallbacks),
        ("poly.fm_rows_combined", s.fm_rows_combined),
        ("poly.fm_rows_pruned", s.fm_rows_pruned),
        ("poly.unknown", s.unknown_verdicts),
        ("poly.evictions", s.evictions),
    ] {
        shackle_probe::counter(name).set(v);
    }
}

/// Zero all counters (the caches are left intact; see [`clear_cache`]).
pub fn reset_stats() {
    for c in [
        &FEAS_QUERIES,
        &FEAS_HITS,
        &PROJ_QUERIES,
        &PROJ_HITS,
        &GIST_QUERIES,
        &GIST_HITS,
        &SPLINTERS,
        &DARK_FALLBACKS,
        &FM_COMBINED,
        &FM_PRUNED,
        &UNKNOWN_VERDICTS,
        &EVICTIONS,
    ] {
        c.store(0, Ordering::Relaxed);
    }
}

/// Drop every cached verdict and projection (counters are untouched;
/// see [`reset_stats`]).
pub fn clear_cache() {
    for shard in FEASIBILITY.iter() {
        shard.lock().expect("cache shard poisoned").clear();
    }
    for shard in PROJECTION.iter() {
        shard.lock().expect("cache shard poisoned").clear();
    }
    for shard in GIST.iter() {
        shard.lock().expect("cache shard poisoned").clear();
    }
    for shard in UNKNOWN.iter() {
        shard.lock().expect("cache shard poisoned").clear();
    }
}

pub(crate) fn note_splinter() {
    SPLINTERS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn note_dark_fallback() {
    DARK_FALLBACKS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn note_fm_combined(n: u64) {
    FM_COMBINED.fetch_add(n, Ordering::Relaxed);
}

pub(crate) fn note_fm_pruned(n: u64) {
    FM_PRUNED.fetch_add(n, Ordering::Relaxed);
}

/// The shard a sealed key lives in: middle bits of its hash, so the
/// map inside the shard still sees the full spread of the low bits
/// (bucket index) and the top bits (probe tags).
fn shard_of(key: &[u8]) -> usize {
    (key_hash(key) >> 32) as usize & (SHARDS - 1)
}

fn lookup<V: Clone>(shards: &[Shard<V>], key: &[u8]) -> Option<V> {
    let shard = &shards[shard_of(key)];
    let mut map = shard.lock().expect("cache shard poisoned");
    let entry = map.get_mut(key)?;
    entry.stamp = tick();
    Some(entry.value.clone())
}

fn insert<V>(shards: &[Shard<V>], key: &[u8], value: V) {
    let mut map = shards[shard_of(key)].lock().expect("cache shard poisoned");
    let cap = shard_capacity();
    if map.len() >= cap && !map.contains_key(key) {
        let over = map.len() + 1 - cap;
        evict_oldest(&mut map, over + cap / 4);
    }
    map.insert(
        key.into(),
        Stamped {
            value,
            stamp: tick(),
        },
    );
}

/// Drop the `n` least-recently-touched entries of one shard. O(shard)
/// per eviction burst, amortized by evicting a quarter-capacity batch
/// at a time rather than one entry per insert.
fn evict_oldest<V>(map: &mut Map<V>, n: usize) {
    if n == 0 || map.is_empty() {
        return;
    }
    let n = n.min(map.len());
    let mut stamps: Vec<u64> = map.values().map(|e| e.stamp).collect();
    stamps.sort_unstable();
    let cutoff = stamps[n - 1];
    let before = map.len();
    // `<=` may overshoot `n` when stamps tie (only via bulk load, which
    // stamps per entry, so ties are rare); staying under capacity wins.
    map.retain(|_, e| e.stamp > cutoff);
    EVICTIONS.fetch_add((before - map.len()) as u64, Ordering::Relaxed);
}

fn count_shards<V>(shards: &[Shard<V>]) -> usize {
    shards
        .iter()
        .map(|s| s.lock().expect("cache shard poisoned").len())
        .sum()
}

/// Total entries currently resident across the proven maps
/// (feasibility + projection + gist; `Unknown` entries excluded).
pub fn entry_count() -> usize {
    count_shards(&FEASIBILITY) + count_shards(&PROJECTION) + count_shards(&GIST)
}

/// Zig-zag LEB128: one byte for the small coefficients that dominate
/// shackling systems, so keys stay short (faster to hash and compare).
fn push_i64(out: &mut Vec<u8>, v: i64) {
    let mut z = ((v << 1) ^ (v >> 63)) as u64;
    loop {
        let b = (z & 0x7f) as u8;
        z >>= 7;
        if z == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

fn rel_code(rel: Rel) -> u8 {
    match rel {
        Rel::Eq => 0,
        Rel::Geq => 1,
    }
}

/// Canonical, name-free key for feasibility: used columns sorted by
/// variable name, rows permuted onto that order and sorted.
fn feasibility_key(sys: &System) -> Pooled<u8> {
    let vars = sys.vars();
    let mut used = scratch::idx_vec();
    used.extend(
        (0..vars.len())
            .filter(|&i| sys.column_used(i))
            .map(|i| i as u32),
    );
    used.sort_unstable_by(|&a, &b| vars[a as usize].cmp(&vars[b as usize]));

    // One flat scratch buffer of `(rel, permuted coefficients, constant)`
    // records, sorted as slices — the order of sorting the tuples.
    let width = used.len() + 2;
    let mut flat = scratch::coeff_vec();
    for r in sys.rows() {
        flat.push(i64::from(rel_code(r.rel)));
        flat.extend(used.iter().map(|&u| r.coeffs[u as usize]));
        flat.push(r.constant);
    }
    let record = |i: u32| &flat[i as usize * width..(i as usize + 1) * width];
    let mut order = scratch::idx_vec();
    order.extend(0..sys.len() as u32);
    order.sort_unstable_by(|&a, &b| record(a).cmp(record(b)));

    let mut key = new_key();
    // Flag byte first: a contradiction-flagged system is empty whatever
    // its rows say, so it must never collide with a live system.
    key.push(sys.is_contradictory() as u8);
    push_i64(&mut key, used.len() as i64);
    for &i in order.iter() {
        for &v in record(i) {
            push_i64(&mut key, v);
        }
    }
    seal(&mut key);
    key
}

/// Append the system's variables and rows in insertion order — the
/// exact-input serialization shared by the projection and gist keys.
fn push_system(key: &mut Vec<u8>, sys: &System) {
    // The contradiction flag is part of the system's identity: a
    // flagged system is empty regardless of its rows, so it must never
    // share a key with a live system that happens to have equal rows.
    key.push(sys.is_contradictory() as u8);
    push_i64(key, sys.vars().len() as i64);
    for v in sys.vars() {
        push_i64(key, v.len() as i64);
        key.extend_from_slice(v.as_bytes());
    }
    push_i64(key, sys.len() as i64);
    for r in sys.rows() {
        key.push(rel_code(r.rel));
        push_i64(key, r.constant);
        for &c in r.coeffs {
            push_i64(key, c);
        }
    }
}

/// Exact-input key for projection: the system's variables and rows in
/// insertion order, the sorted `keep` set and the budget fingerprint.
/// Two systems with equal keys are indistinguishable to
/// `fm::project_onto`, so the cached result is byte-identical to a
/// fresh computation.
fn projection_key(sys: &System, keep: &[&str], budget: &Budget) -> Pooled<u8> {
    let mut key = new_key();
    push_system(&mut key, sys);
    let mut keep: Vec<&str> = keep.to_vec();
    keep.sort_unstable();
    keep.dedup();
    push_i64(&mut key, keep.len() as i64);
    for k in keep {
        push_i64(&mut key, k.len() as i64);
        key.extend_from_slice(k.as_bytes());
    }
    key.extend_from_slice(&budget.fingerprint().to_le_bytes());
    seal(&mut key);
    key
}

/// Exact-input key for gist: both operands serialized in insertion
/// order. As with projection, equal keys mean `simplify::gist` cannot
/// distinguish the inputs, so the cached system is byte-identical to a
/// fresh computation.
fn gist_key(sys: &System, context: &System) -> Pooled<u8> {
    let mut key = new_key();
    push_system(&mut key, sys);
    push_system(&mut key, context);
    seal(&mut key);
    key
}

/// Recursive-subproblem memoization for the Omega test: `Ok(verdict)`
/// on a hit, `Err(key)` on a miss (store the computed verdict with
/// [`sub_store`]). Shares the feasibility cache and counters, so the
/// reported hit rate covers subproblems too.
pub(crate) fn sub_lookup(sys: &System) -> Result<bool, Pooled<u8>> {
    FEAS_QUERIES.fetch_add(1, Ordering::Relaxed);
    let key = feasibility_key(sys);
    match lookup(&FEASIBILITY, &key) {
        Some(v) => {
            FEAS_HITS.fetch_add(1, Ordering::Relaxed);
            Ok(v)
        }
        None => Err(key),
    }
}

/// Store a subproblem verdict computed after a [`sub_lookup`] miss.
pub(crate) fn sub_store(key: Pooled<u8>, v: bool) {
    insert(&FEASIBILITY, &key, v);
}

/// Tags separating query families inside the [`UNKNOWN`] map.
const UNKNOWN_FEAS: u8 = 0;
const UNKNOWN_PROJ: u8 = 1;

/// Key for an `Unknown` outcome: query tag, budget fingerprint, then
/// the exact query key's body.
fn unknown_key(tag: u8, budget: &Budget, query_key: &[u8]) -> Pooled<u8> {
    let mut key = new_key();
    key.push(tag);
    key.extend_from_slice(&budget.fingerprint().to_le_bytes());
    key.extend_from_slice(&query_key[HASH_LEN..]);
    seal(&mut key);
    key
}

fn note_unknown(e: PolyError) -> PolyError {
    UNKNOWN_VERDICTS.fetch_add(1, Ordering::Relaxed);
    e
}

/// Cached Omega feasibility (the implementation behind
/// [`crate::System::is_integer_feasible`], [`crate::System::decide`]
/// and [`crate::System::try_is_integer_feasible`]).
///
/// Proven answers are memoized on the canonical system key alone (they
/// are budget-independent); `Err` outcomes are memoized per
/// `(budget, system)` in the separate [`UNKNOWN`] map so they can never
/// poison a query with a different budget. Every `Err` returned —
/// computed or replayed — counts into `poly.unknown`.
pub(crate) fn try_feasible(sys: &System, budget: &Budget) -> Result<bool, PolyError> {
    if sys.is_contradictory() {
        return Ok(false);
    }
    if sys.is_empty() {
        return Ok(true);
    }
    FEAS_QUERIES.fetch_add(1, Ordering::Relaxed);
    let key = feasibility_key(sys);
    if let Some(v) = lookup(&FEASIBILITY, &key) {
        FEAS_HITS.fetch_add(1, Ordering::Relaxed);
        return Ok(v);
    }
    let ukey = unknown_key(UNKNOWN_FEAS, budget, &key);
    if let Some(e) = lookup(&UNKNOWN, &ukey) {
        FEAS_HITS.fetch_add(1, Ordering::Relaxed);
        return Err(note_unknown(e));
    }
    let _phase = shackle_probe::span("omega");
    match omega::try_is_integer_feasible(sys, budget) {
        Ok(v) => {
            insert(&FEASIBILITY, &key, v);
            Ok(v)
        }
        Err(e) => {
            insert(&UNKNOWN, &ukey, e);
            Err(note_unknown(e))
        }
    }
}

/// Cached Omega feasibility under the default budget, panicking on
/// `Unknown` (legacy entry point; see [`try_feasible`]).
#[cfg(test)]
pub(crate) fn feasible(sys: &System) -> bool {
    try_feasible(sys, &Budget::default()).unwrap_or_else(|e| panic!("cache::feasible: {e}"))
}

/// Cached projection (the implementation behind
/// [`crate::System::project_onto`] and
/// [`crate::System::try_project_onto`]).
///
/// The projection result (its exactness flag in particular) can depend
/// on the budget through conservative degradation, so the proven cache
/// key includes the budget fingerprint; `Err` outcomes go to the
/// [`UNKNOWN`] map like feasibility.
pub(crate) fn try_project(
    sys: &System,
    keep: &[&str],
    budget: &Budget,
) -> Result<(System, bool), PolyError> {
    PROJ_QUERIES.fetch_add(1, Ordering::Relaxed);
    let key = projection_key(sys, keep, budget);
    if let Some(v) = lookup(&PROJECTION, &key) {
        PROJ_HITS.fetch_add(1, Ordering::Relaxed);
        return Ok(v);
    }
    let ukey = unknown_key(UNKNOWN_PROJ, budget, &key);
    if let Some(e) = lookup(&UNKNOWN, &ukey) {
        PROJ_HITS.fetch_add(1, Ordering::Relaxed);
        return Err(note_unknown(e));
    }
    let _phase = shackle_probe::span("fm");
    match fm::try_project_onto(sys, keep, budget) {
        Ok(v) => {
            insert(&PROJECTION, &key, v.clone());
            Ok(v)
        }
        Err(e) => {
            insert(&UNKNOWN, &ukey, e);
            Err(note_unknown(e))
        }
    }
}

/// Cached gist (the implementation behind [`crate::System::gist`]).
/// One hit replaces a per-constraint cascade of implication checks —
/// each itself a feasibility query — which makes this the highest-
/// leverage entry of the three for the code generator.
pub(crate) fn gist(sys: &System, context: &System) -> System {
    GIST_QUERIES.fetch_add(1, Ordering::Relaxed);
    let key = gist_key(sys, context);
    if let Some(v) = lookup(&GIST, &key) {
        GIST_HITS.fetch_add(1, Ordering::Relaxed);
        return v;
    }
    let _phase = shackle_probe::span("gist");
    let v = crate::simplify::gist(sys, context);
    insert(&GIST, &key, v.clone());
    v
}

// ---------------------------------------------------------------------
// Cross-process persistence
// ---------------------------------------------------------------------

/// File magic + format version. Bump the version byte on any layout
/// change; [`load_from`] refuses mismatches instead of guessing.
/// Version 2: keys in the canonical layout of [`feasibility_key`] and a
/// trailing checksum.
const STORE_MAGIC: &[u8; 4] = b"SHPL";
const STORE_VERSION: u8 = 2;

/// Section tags inside the store file.
const SEC_FEAS: u8 = 0;
const SEC_PROJ: u8 = 1;
const SEC_GIST: u8 = 2;
const SEC_END: u8 = 0xff;

/// Bytes of the trailing checksum: [`hash_words`] of everything before
/// it.
const CHECKSUM_LEN: usize = 8;

/// Resolve the on-disk store location from `$SHACKLE_POLY_CACHE` (a
/// file path). `None` when unset — persistence is strictly opt-in, so
/// batch runs never touch the filesystem.
pub fn store_path() -> Option<PathBuf> {
    let p = std::env::var_os("SHACKLE_POLY_CACHE")?;
    (!p.is_empty()).then(|| PathBuf::from(p))
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("poly cache store: {msg}"),
    )
}

/// Byte-slice cursor mirroring the `push_i64`/`push_system` writers.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> io::Result<u8> {
        let b = *self.buf.get(self.pos).ok_or_else(|| invalid("truncated"))?;
        self.pos += 1;
        Ok(b)
    }

    fn flag(&mut self, what: &str) -> io::Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(invalid(what)),
        }
    }

    fn i64(&mut self) -> io::Result<i64> {
        // Inverse of `push_i64`: LEB128 then zig-zag.
        let mut z: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 64 {
                return Err(invalid("varint overlong"));
            }
            z |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                break;
            }
            shift += 7;
        }
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// A count of items each taking at least one more byte: it can never
    /// exceed what remains, which caps allocations on corrupt input
    /// before they happen.
    fn len(&mut self) -> io::Result<usize> {
        let v = self.i64()?;
        let remaining = self.buf.len() - self.pos;
        if v < 0 || v as usize > remaining {
            return Err(invalid("length out of range"));
        }
        Ok(v as usize)
    }

    fn bytes(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| invalid("truncated"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// A serialized key body, sealed again (its hash recomputed).
    fn key(&mut self) -> io::Result<Box<[u8]>> {
        let n = self.len()?;
        let mut key = Vec::with_capacity(HASH_LEN + n);
        key.extend_from_slice(&[0; HASH_LEN]);
        key.extend_from_slice(self.bytes(n)?);
        seal(&mut key);
        Ok(key.into_boxed_slice())
    }

    /// Inverse of [`push_system`], reconstructing the serialized system
    /// byte-for-byte via `System::from_raw_parts`, its rows read straight
    /// into one coefficient buffer.
    fn system(&mut self) -> io::Result<System> {
        let contradiction = self.flag("bad contradiction flag")?;
        let nvars = self.len()?;
        let mut vars = Vec::with_capacity(nvars);
        for _ in 0..nvars {
            let n = self.len()?;
            let name = std::str::from_utf8(self.bytes(n)?)
                .map_err(|_| invalid("variable name not utf-8"))?;
            vars.push(name.to_string());
        }
        let nrows = self.len()?;
        // every coefficient takes at least one byte
        let ncoeffs = nrows
            .checked_mul(nvars)
            .filter(|&n| n <= self.buf.len() - self.pos)
            .ok_or_else(|| invalid("length out of range"))?;
        let mut coeffs = Vec::with_capacity(ncoeffs);
        let mut heads = Vec::with_capacity(nrows);
        for _ in 0..nrows {
            let rel = match self.u8()? {
                0 => Rel::Eq,
                1 => Rel::Geq,
                _ => return Err(invalid("bad relation byte")),
            };
            heads.push((self.i64()?, rel));
            for _ in 0..nvars {
                coeffs.push(self.i64()?);
            }
        }
        Ok(System::from_raw_parts(vars, coeffs, &heads, contradiction))
    }
}

/// Serialize one proven map as a tagged section: tag, entry count, then
/// `key_len key value` per entry (the key without its hash; value
/// layout per tag).
fn write_section<V>(
    out: &mut Vec<u8>,
    tag: u8,
    shards: &[Shard<V>],
    mut write_value: impl FnMut(&mut Vec<u8>, &V),
) {
    // The maps stay live while a save runs (daemon workers keep
    // inserting and evicting), so the count in the header must be the
    // number of entries actually serialized, shard by shard under each
    // shard's lock — never a separate pass over the shard lengths.
    let mut body = Vec::new();
    let mut count = 0usize;
    for shard in shards {
        let map = shard.lock().expect("cache shard poisoned");
        for (key, entry) in map.iter() {
            let key = &key[HASH_LEN..];
            push_i64(&mut body, key.len() as i64);
            body.extend_from_slice(key);
            write_value(&mut body, &entry.value);
        }
        count += map.len();
    }
    out.push(tag);
    push_i64(out, count as i64);
    out.extend_from_slice(&body);
}

/// Serialize the proven maps into the store's binary format: header,
/// sections, end tag, checksum.
fn serialize_store() -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(STORE_MAGIC);
    out.push(STORE_VERSION);
    write_section(&mut out, SEC_FEAS, &FEASIBILITY, |o, &v| o.push(v as u8));
    write_section(&mut out, SEC_PROJ, &PROJECTION, |o, (sys, exact)| {
        push_system(o, sys);
        o.push(*exact as u8);
    });
    write_section(&mut out, SEC_GIST, &GIST, push_system);
    out.push(SEC_END);
    let checksum = hash_words(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Persist the proven maps (feasibility, projection, gist) to `path`.
/// The write is atomic — a scratch file in the same directory is
/// renamed into place — so a crash mid-save leaves the previous store
/// intact and concurrent savers last-write-win at file granularity.
/// Returns the number of bytes written.
pub fn save_to(path: impl AsRef<Path>) -> io::Result<u64> {
    let path = path.as_ref();
    let bytes = serialize_store();
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let scratch = path.with_extension(format!("tmp.{}", std::process::id()));
    {
        let mut f = std::fs::File::create(&scratch)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&scratch, path)?;
    Ok(bytes.len() as u64)
}

/// A sealed key and the value stored under it.
type Entry<V> = (Box<[u8]>, V);

/// A store file parsed in full, nothing inserted yet.
#[derive(Default)]
struct Staged {
    feasibility: Vec<Entry<bool>>,
    projection: Vec<Entry<(System, bool)>>,
    gist: Vec<Entry<System>>,
}

/// Check a store's header and checksum and parse every entry.
fn parse_store(buf: &[u8]) -> io::Result<Staged> {
    let header = STORE_MAGIC.len() + 1;
    if buf.len() < header + 1 + CHECKSUM_LEN {
        return Err(invalid("truncated"));
    }
    if &buf[..STORE_MAGIC.len()] != STORE_MAGIC {
        return Err(invalid("bad magic"));
    }
    if buf[STORE_MAGIC.len()] != STORE_VERSION {
        return Err(invalid("unsupported version"));
    }
    let (body, checksum) = buf.split_at(buf.len() - CHECKSUM_LEN);
    if hash_words(body).to_le_bytes() != checksum {
        return Err(invalid("checksum mismatch"));
    }
    let mut r = Reader {
        buf: body,
        pos: header,
    };
    let mut staged = Staged::default();
    loop {
        let tag = r.u8()?;
        if tag == SEC_END {
            break;
        }
        let count = r.len()?;
        for _ in 0..count {
            let key = r.key()?;
            match tag {
                SEC_FEAS => {
                    let v = r.flag("bad feasibility verdict")?;
                    staged.feasibility.push((key, v));
                }
                SEC_PROJ => {
                    let sys = r.system()?;
                    let exact = r.flag("bad exactness flag")?;
                    staged.projection.push((key, (sys, exact)));
                }
                SEC_GIST => staged.gist.push((key, r.system()?)),
                _ => return Err(invalid("unknown section tag")),
            }
        }
    }
    if r.pos != body.len() {
        return Err(invalid("trailing bytes"));
    }
    Ok(staged)
}

/// Load a store written by [`save_to`], merging its entries into the
/// live maps (existing entries are overwritten; capacity bounds and
/// eviction apply as for normal inserts). Returns the number of entries
/// loaded. All or nothing: the whole file is checked against its
/// checksum and parsed before the first entry is inserted, so a
/// malformed, truncated, corrupted or version-mismatched file yields
/// `ErrorKind::InvalidData` with the maps untouched — never a panic.
pub fn load_from(path: impl AsRef<Path>) -> io::Result<usize> {
    let mut buf = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut buf)?;
    let staged = parse_store(&buf)?;
    let loaded = staged.feasibility.len() + staged.projection.len() + staged.gist.len();
    for (key, v) in staged.feasibility {
        insert(&FEASIBILITY, &key, v);
    }
    for (key, v) in staged.projection {
        insert(&PROJECTION, &key, v);
    }
    for (key, v) in staged.gist {
        insert(&GIST, &key, v);
    }
    Ok(loaded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Constraint, LinExpr};

    fn v(n: &str) -> LinExpr {
        LinExpr::var(n)
    }

    /// Tests that clear the global maps, change their capacity or read
    /// hit counters must not interleave (the test harness is
    /// multi-threaded).
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn feasibility_key_ignores_names_and_row_order() {
        let mut a = System::new();
        a.add(Constraint::ge(v("x"), LinExpr::constant(1)));
        a.add(Constraint::le(v("x"), v("n")));
        // same shape, renamed (preserving relative name order: n < x,
        // m < z), added in a different order
        let mut b = System::new();
        b.add(Constraint::le(v("z"), v("m")));
        b.add(Constraint::ge(v("z"), LinExpr::constant(1)));
        assert_eq!(feasibility_key(&a)[..], feasibility_key(&b)[..]);
    }

    #[test]
    fn feasibility_key_separates_different_systems() {
        let mut a = System::new();
        a.add(Constraint::ge(v("x"), LinExpr::constant(1)));
        let mut b = System::new();
        b.add(Constraint::ge(v("x"), LinExpr::constant(2)));
        assert_ne!(feasibility_key(&a)[..], feasibility_key(&b)[..]);
    }

    #[test]
    fn projection_key_distinguishes_keep_sets() {
        let mut s = System::new();
        s.add(Constraint::le(v("i"), v("n")));
        s.add(Constraint::le(v("j"), v("i")));
        let budget = Budget::default();
        let a = projection_key(&s, &["n"], &budget);
        let b = projection_key(&s, &["n", "j"], &budget);
        assert_ne!(a[..], b[..]);
        // keep order and duplicates do not matter
        assert_eq!(
            projection_key(&s, &["j", "n"], &budget)[..],
            projection_key(&s, &["n", "j", "j"], &budget)[..]
        );
    }

    #[test]
    fn contradiction_flag_is_part_of_every_key() {
        // Regression: a contradiction-flagged system with the same rows
        // as a live one used to share its projection/gist key, so each
        // could replay the other's cached result (found by the fuzz
        // oracle: `{ false }` projecting to a live interval and vice
        // versa).
        let live = {
            let mut s = System::new();
            s.add(Constraint::ge(v("x"), LinExpr::constant(2)));
            s.add(Constraint::le(v("x"), LinExpr::constant(5)));
            s
        };
        let mut flagged = live.clone();
        flagged.add(Constraint::geq_zero(LinExpr::constant(-1)));
        assert!(flagged.is_contradictory());
        // the trivially-false row is absorbed into the flag, leaving
        // identical rows — only the flag distinguishes the two systems
        assert_eq!(live.len(), flagged.len());
        assert_ne!(feasibility_key(&live)[..], feasibility_key(&flagged)[..]);
        let budget = Budget::default();
        assert_ne!(
            projection_key(&live, &["x"], &budget)[..],
            projection_key(&flagged, &["x"], &budget)[..]
        );
        // end-to-end through the cache: both directions stay sound
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        clear_cache();
        let (p_live, _) = try_project(&live, &["x"], &Budget::default()).unwrap();
        let (p_flagged, _) = try_project(&flagged, &["x"], &Budget::default()).unwrap();
        assert!(!p_live.is_contradictory());
        assert!(p_flagged.is_contradictory());
    }

    #[test]
    fn cached_results_match_direct_computation() {
        let mut s = System::new();
        s.add(Constraint::ge(v("j"), v("b") * 25 - LinExpr::constant(24)));
        s.add(Constraint::le(v("j"), v("b") * 25));
        s.add(Constraint::ge(v("j"), LinExpr::constant(1)));
        s.add(Constraint::le(v("j"), v("n")));

        let direct_feas = omega::is_integer_feasible(&s);
        let direct_proj = fm::project_onto(&s, &["j", "n"]);
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        clear_cache();
        // miss then hit: both must equal the direct computation
        let budget = Budget::default();
        assert_eq!(feasible(&s), direct_feas);
        assert_eq!(feasible(&s), direct_feas);
        assert_eq!(
            try_project(&s, &["j", "n"], &budget),
            Ok(direct_proj.clone())
        );
        assert_eq!(try_project(&s, &["j", "n"], &budget), Ok(direct_proj));

        let st = stats();
        assert!(st.feasibility_hits >= 1);
        assert!(st.projection_hits >= 1);
    }

    #[test]
    fn unknown_results_are_keyed_per_budget_and_do_not_poison() {
        // A system whose splinter fan-out exhausts a tiny budget but
        // resolves instantly under the default one.
        let mut s = System::new();
        s.add(Constraint::ge(
            v("x") * 6,
            v("y") * 4 + LinExpr::constant(1),
        ));
        s.add(Constraint::le(
            v("x") * 6,
            v("y") * 4 + LinExpr::constant(2),
        ));
        s.add(Constraint::ge(v("y"), LinExpr::constant(0)));
        s.add(Constraint::le(v("y"), LinExpr::constant(1_000)));
        let tiny = Budget {
            max_depth: 1,
            ..Budget::default()
        };
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        clear_cache();
        let before = stats().unknown_verdicts;
        let first = try_feasible(&s, &tiny);
        if first.is_err() {
            // replayed from the Unknown map: same error, counted again
            assert_eq!(try_feasible(&s, &tiny), first);
            assert!(stats().unknown_verdicts >= before + 2);
        }
        // the default budget must not see the tiny budget's failure
        assert_eq!(try_feasible(&s, &Budget::default()), Ok(true));
    }

    fn tmp_store(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("shackle_poly_store_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn store_round_trip_replays_saved_entries_byte_exactly() {
        let mut s = System::new();
        s.add(Constraint::ge(v("i"), LinExpr::constant(0)));
        s.add(Constraint::le(v("i"), v("n")));
        s.add(Constraint::le(v("j"), v("i")));
        let budget = Budget::default();

        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        clear_cache();
        let feas = try_feasible(&s, &budget).unwrap();
        let proj = try_project(&s, &["i", "n"], &budget).unwrap();
        let g = gist(&s, &System::new());

        let path = tmp_store("round_trip.bin");
        let bytes = save_to(&path).unwrap();
        assert!(bytes > 5, "store must hold more than the header");

        // A fresh process: nothing resident, then reload from disk.
        clear_cache();
        assert_eq!(entry_count(), 0);
        let loaded = load_from(&path).unwrap();
        assert!(
            loaded >= 3,
            "expected all proven entries back, got {loaded}"
        );

        // Replays must be cache hits returning byte-identical values.
        let h0 = stats();
        assert_eq!(try_feasible(&s, &budget), Ok(feas));
        assert_eq!(try_project(&s, &["i", "n"], &budget), Ok(proj));
        assert_eq!(gist(&s, &System::new()), g);
        let h1 = stats();
        assert!(h1.feasibility_hits > h0.feasibility_hits);
        assert!(h1.projection_hits > h0.projection_hits);
        assert!(h1.gist_hits > h0.gist_hits);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_malformed_stores() {
        let garbage = tmp_store("garbage.bin");
        std::fs::write(&garbage, b"not a store").unwrap();
        let err = load_from(&garbage).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // Truncating a valid store mid-entry must error, not panic.
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut s = System::new();
        s.add(Constraint::ge(v("x"), LinExpr::constant(1)));
        let _ = try_project(&s, &["x"], &Budget::default());
        let full = serialize_store();
        let cut = tmp_store("truncated.bin");
        std::fs::write(&cut, &full[..full.len() - 1]).unwrap();
        if full.len() > 6 {
            let err = load_from(&cut).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        }
        std::fs::remove_file(&garbage).ok();
        std::fs::remove_file(&cut).ok();
    }

    #[test]
    fn capacity_bound_evicts_oldest_entries() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        clear_cache();
        // Shard capacity of 2 (tiny, deterministic): 200 distinct
        // systems cannot all stay resident.
        let was = set_cache_capacity(2 * SHARDS);
        let evicted0 = stats().evictions;
        for i in 0..200 {
            let mut s = System::new();
            s.add(Constraint::ge(v("x"), LinExpr::constant(i)));
            s.add(Constraint::le(v("x"), LinExpr::constant(i + 10)));
            let _ = try_feasible(&s, &Budget::default());
        }
        let resident = count_shards(&FEASIBILITY);
        assert!(
            resident <= 2 * SHARDS,
            "feasibility map exceeded its bound: {resident} entries"
        );
        assert!(stats().evictions > evicted0, "evictions must be counted");
        set_cache_capacity(was);
        clear_cache();
    }
}
