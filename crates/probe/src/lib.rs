//! Structured pipeline instrumentation for the shackle crates.
//!
//! The paper's experimental story (Sections 5–6) attributes cost to
//! pipeline phases — shackle search, legality queries, code
//! generation, execution, cache simulation. This crate is the single
//! observability layer every other crate reports into:
//!
//! - **Phase spans** ([`span`]): nestable RAII timers keyed by a
//!   `&'static str` name. Each thread keeps its own span stack; a
//!   span's *path* is the stack of names enclosing it, so the same
//!   leaf (`"legality"`) nested under different phases is accounted
//!   separately. Closing a span merges `{calls, wall nanoseconds}`
//!   into a global table keyed by path.
//! - **Counters** ([`counter`], [`add`]): monotonic `u64` cells
//!   registered by static name, updated with relaxed atomics.
//!
//! Everything is gated by one process-global flag ([`set_enabled`]):
//! when disabled, [`span`] returns an inert guard without reading the
//! clock, and [`add`] returns after a single relaxed load, so
//! instrumented hot paths stay within noise of uninstrumented ones
//! (the `benchmark` crate reports the enabled-vs-disabled ratio of a
//! whole round as `run.trace_overhead`).
//!
//! # Determinism across threads
//!
//! `shackle_core::par` workers adopt the spawning thread's span path
//! via [`with_path`], so work fanned out over `SHACKLE_THREADS`
//! lands under the same span paths regardless of thread count.
//! Counter totals and span *call* counts are exactly reproducible at
//! any thread count; wall times are measured, hence not.
//!
//! The global tables survive for the process lifetime; [`reset`]
//! zeroes them between measurement sections. Snapshot with
//! [`profile`], then render via [`Profile::render_tree`] (human) or
//! [`Profile::to_json`] (machine).
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod report;
mod span;

pub use metrics::{add, counter, Counter};
pub use report::{Profile, ProfileSpan};
pub use span::{current_path, span, with_path, PathGuard, Span};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn instrumentation on or off process-wide. Returns the previous
/// state so callers can restore it.
pub fn set_enabled(on: bool) -> bool {
    ENABLED.swap(on, Ordering::SeqCst)
}

/// Whether instrumentation is currently enabled (one relaxed load —
/// this is the entire disabled-path cost of [`add`]).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zero every span and counter. Registered counter handles remain
/// valid (they are `&'static`); only their values reset.
pub fn reset() {
    span::reset_spans();
    metrics::reset_metrics();
}

/// Snapshot the global tables into an immutable [`Profile`].
pub fn profile() -> Profile {
    report::snapshot()
}

#[cfg(test)]
pub(crate) mod testlock {
    //! Probe state is process-global; tests that enable/reset it
    //! serialize on this lock (same pattern as `shackle_polyhedra`'s
    //! memo-cache tests).
    use std::sync::{Mutex, MutexGuard};

    static LOCK: Mutex<()> = Mutex::new(());

    pub fn hold() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        let _l = testlock::hold();
        set_enabled(false);
        reset();
        {
            let _s = span("dead");
            add("dead.count", 5);
        }
        let p = profile();
        assert!(p.spans.is_empty());
        assert!(p.counters.iter().all(|(_, v)| *v == 0));
        assert!(current_path().is_empty());
    }

    #[test]
    fn spans_nest_by_path() {
        let _l = testlock::hold();
        set_enabled(true);
        reset();
        {
            let _a = span("outer");
            {
                let _b = span("inner");
                let _c = span("leaf");
            }
            let _b2 = span("inner");
        }
        set_enabled(false);
        let p = profile();
        let paths: Vec<(&str, u64)> = p.spans.iter().map(|s| (s.path.as_str(), s.calls)).collect();
        assert_eq!(
            paths,
            vec![("outer", 1), ("outer/inner", 2), ("outer/inner/leaf", 1)]
        );
        assert_eq!(p.spans[0].depth, 0);
        assert_eq!(p.spans[1].depth, 1);
        assert_eq!(p.spans[2].depth, 2);
        assert_eq!(p.spans[2].name, "leaf");
    }

    #[test]
    fn adopted_path_prefixes_worker_spans() {
        let _l = testlock::hold();
        set_enabled(true);
        reset();
        let ambient = {
            let _a = span("parent");
            current_path()
        };
        assert_eq!(ambient, vec!["parent"]);
        std::thread::scope(|s| {
            s.spawn(|| {
                let _g = with_path(ambient.clone());
                let _w = span("work");
            });
        });
        set_enabled(false);
        let p = profile();
        assert!(p.spans.iter().any(|s| s.path == "parent/work"));
        // the guard restored the worker's (empty) stack before exit,
        // and the main thread's stack is empty again too
        assert!(current_path().is_empty());
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let _l = testlock::hold();
        set_enabled(true);
        reset();
        add("t.counter", 3);
        add("t.counter", 4);
        counter("t.counter").add(1);
        assert_eq!(counter("t.counter").get(), 8);
        counter("t.gauge").set(41);
        set_enabled(false);
        let p = profile();
        assert!(p.counters.contains(&("t.counter".to_string(), 8)));
        assert!(p.counters.contains(&("t.gauge".to_string(), 41)));
        reset();
        assert_eq!(counter("t.counter").get(), 0);
    }
}
