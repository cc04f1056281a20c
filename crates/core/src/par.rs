//! Deterministic parallel fan-out over scoped threads.
//!
//! Both the compile-time search ([`crate::search`]) and the benchmark
//! harness evaluate embarrassingly parallel lists of independent items
//! (candidate shackles to legality-check, products to score, figure
//! points to simulate). [`map`] fans them out over scoped threads —
//! thread count from `SHACKLE_THREADS`, defaulting to the machine's
//! available parallelism — and reassembles results **by input index**,
//! so the output is byte-identical to a serial run regardless of
//! thread count or completion order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, MutexGuard};

/// The in-process thread-count override installed by [`with_threads`]
/// (0 = no override). A process-local atomic rather than the env var:
/// `set_var`/`remove_var` are unsound when any other thread may be
/// reading the environment concurrently (as a sweep already fanned out
/// on worker threads does through [`thread_count`]), so overrides never
/// touch the environment at all.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Worker threads to use: the [`with_threads`] override if one is
/// active, else `SHACKLE_THREADS` if set to a positive integer,
/// otherwise the available parallelism (1 if unknown). The env var is
/// only ever *read* here — it is consulted as the external default and
/// never mutated by this module.
pub fn thread_count() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Acquire);
    if o > 0 {
        return o;
    }
    std::env::var("SHACKLE_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Serializes every [`with_threads`] override in the process: the
/// override is global, so two tests (or harness passes) installing it
/// concurrently would observe each other's values mid-run.
static THREADS_ENV_LOCK: Mutex<()> = Mutex::new(());

thread_local! {
    /// Whether *this* thread currently holds [`THREADS_ENV_LOCK`]
    /// through a live [`ThreadsGuard`]. A nested [`with_threads`] on
    /// the same thread (a serial-pinned pipeline invoked under an
    /// outer override) must not re-lock the non-reentrant mutex — the
    /// outer guard already serializes it against other threads.
    static HOLDS_THREADS_LOCK: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Exclusive hold on the process-wide thread-count override; the
/// previous override is restored (and the lock released) on drop.
pub struct ThreadsGuard {
    prev: usize,
    /// `None` for a nested guard riding on an outer guard's lock.
    lock: Option<MutexGuard<'static, ()>>,
}

impl Drop for ThreadsGuard {
    fn drop(&mut self) {
        THREAD_OVERRIDE.store(self.prev, Ordering::Release);
        if self.lock.is_some() {
            HOLDS_THREADS_LOCK.with(|h| h.set(false));
        }
    }
}

/// Override [`thread_count`] to `threads` for the lifetime of the
/// returned guard, restoring the prior override afterwards. All users
/// of this helper are mutually serialized behind one process-wide
/// mutex (re-entrant on the same thread, so an override can nest
/// inside another), so determinism tests that compare serial vs.
/// parallel sweeps cannot race each other's overrides. The override
/// lives in a process-local atomic — the `SHACKLE_THREADS` environment
/// variable is never written, so concurrent readers of the environment
/// are safe.
pub fn with_threads(threads: usize) -> ThreadsGuard {
    let lock = if HOLDS_THREADS_LOCK.with(|h| h.get()) {
        None
    } else {
        let g = THREADS_ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        HOLDS_THREADS_LOCK.with(|h| h.set(true));
        Some(g)
    };
    let prev = THREAD_OVERRIDE.swap(threads, Ordering::AcqRel);
    ThreadsGuard { prev, lock }
}

/// Apply `f` to every item on [`thread_count`] scoped threads,
/// returning results in input order.
pub fn map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    map_with(thread_count(), items, f)
}

/// As [`map`] with an explicit thread count. Results are collected
/// into their input slots, so any `threads` value yields the same
/// output as `threads == 1`. A worker panic propagates.
pub fn map_with<T: Sync, R: Send>(
    threads: usize,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let threads = threads.min(items.len()).max(1);
    if threads == 1 {
        return items.iter().map(&f).collect();
    }
    // Workers adopt the spawning thread's probe span path, so phase
    // attribution is identical at any thread count (empty, and free,
    // when instrumentation is disabled).
    let ambient = shackle_probe::current_path();
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|s| {
        for _ in 0..threads {
            let tx = tx.clone();
            let (next, f, ambient) = (&next, &f, ambient.clone());
            s.spawn(move || {
                let _path = shackle_probe::with_path(ambient);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    if tx.send((i, f(&items[i]))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        for (i, r) in rx {
            out[i] = Some(r);
        }
        out.into_iter()
            .map(|r| r.expect("every item produces a result"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_with_matches_serial_at_any_thread_count() {
        let items: Vec<u64> = (0..101).collect();
        let f = |x: &u64| x * x + 1;
        let serial = map_with(1, &items, f);
        for threads in [2, 3, 8, 200] {
            assert_eq!(map_with(threads, &items, f), serial);
        }
    }

    #[test]
    fn empty_and_single_item_lists() {
        let empty: Vec<u32> = Vec::new();
        assert!(map_with(4, &empty, |x| *x).is_empty());
        assert_eq!(map_with(4, &[7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        // The outermost guard holds the process-wide override lock, so
        // everything below is read under it: a count read before the
        // first guard could be another test's override, gone again by
        // the time this test compares against it.
        let _outer = with_threads(5);
        {
            let _g = with_threads(3);
            assert_eq!(thread_count(), 3);
            {
                let _h = with_threads(1);
                assert_eq!(thread_count(), 1);
            }
            assert_eq!(thread_count(), 3);
        }
        assert_eq!(thread_count(), 5);
    }

    /// Regression for the `SHACKLE_THREADS` override race: worker
    /// threads hammer [`thread_count`] (an environment *read*) while
    /// the main thread repeatedly installs and drops overrides. With
    /// the old `set_var`/`remove_var` implementation this was unsound
    /// concurrent env mutation on Unix; the override now lives in a
    /// process-local atomic and the environment is never written.
    #[test]
    fn concurrent_thread_count_reads_race_with_threads_safely() {
        let env_before = std::env::var("SHACKLE_THREADS").ok();
        let stop = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let stop = &stop;
                s.spawn(move || {
                    while stop.load(Ordering::Relaxed) == 0 {
                        // Any value is fine; the point is that a read
                        // concurrent with an override toggle is safe.
                        assert!(thread_count() >= 1);
                    }
                });
            }
            for round in 0..200 {
                let t = 1 + round % 7;
                let _g = with_threads(t);
                assert_eq!(thread_count(), t);
                let out = map(&[1u64, 2, 3, 4, 5], |x| x * 2);
                assert_eq!(out, vec![2, 4, 6, 8, 10]);
            }
            stop.store(1, Ordering::Relaxed);
        });
        // No env mutation outside the process-local override path.
        assert_eq!(std::env::var("SHACKLE_THREADS").ok(), env_before);
    }
}
