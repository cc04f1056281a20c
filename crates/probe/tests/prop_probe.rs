//! Property tests for the probe layer: span nesting, counter
//! aggregation, and deterministic cross-thread merge.

use proptest::prelude::*;
use std::sync::Mutex;

/// Probe state is process-global; every test serializes on this.
static LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const NAMES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// Open spans recursively along `names`, recording one counter tick
/// at every level.
fn nest(names: &[&'static str]) {
    let Some((head, rest)) = names.split_first() else {
        return;
    };
    let _s = shackle_probe::span(head);
    shackle_probe::add("prop.depth_ticks", 1);
    nest(rest);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary nesting: each prefix of the name chain appears as
    /// exactly one span path per repetition, and the tick counter sums
    /// to depth × reps.
    #[test]
    fn span_nesting_accounts_every_prefix(
        chain in prop::collection::vec(0usize..4, 1..6),
        reps in 1usize..4,
    ) {
        let _l = locked();
        shackle_probe::set_enabled(true);
        shackle_probe::reset();
        let names: Vec<&'static str> = chain.iter().map(|&i| NAMES[i]).collect();
        for _ in 0..reps {
            nest(&names);
        }
        shackle_probe::set_enabled(false);
        let p = shackle_probe::profile();
        prop_assert_eq!(p.spans.len(), names.len());
        for (depth, span) in p.spans.iter().enumerate() {
            prop_assert_eq!(span.path, names[..=depth].join("/"));
            prop_assert_eq!(span.depth, depth);
            prop_assert_eq!(span.calls, reps as u64);
        }
        let ticks = p.counters.iter().find(|(n, _)| n == "prop.depth_ticks");
        prop_assert_eq!(ticks.map(|(_, v)| *v), Some((names.len() * reps) as u64));
    }

    /// Counters aggregate exactly: the counter equals the sum of what
    /// was added.
    #[test]
    fn metric_aggregation_is_exact(
        values in prop::collection::vec(0u64..1 << 48, 1..64),
    ) {
        let _l = locked();
        shackle_probe::set_enabled(true);
        shackle_probe::reset();
        for &v in &values {
            shackle_probe::add("prop.sum", v);
        }
        shackle_probe::set_enabled(false);
        let sum: u64 = values.iter().sum();
        prop_assert_eq!(shackle_probe::counter("prop.sum").get(), sum);
    }

    /// Merging from worker threads is deterministic: span call counts
    /// and counter totals are identical however the work is split.
    #[test]
    fn cross_thread_merge_is_deterministic(
        work in prop::collection::vec(1u64..32, 1..24),
        threads in 1usize..5,
    ) {
        let _l = locked();
        let run = |threads: usize| {
            shackle_probe::set_enabled(true);
            shackle_probe::reset();
            {
                let _root = shackle_probe::span("fanout");
                let ambient = shackle_probe::current_path();
                std::thread::scope(|s| {
                    for chunk in work.chunks(work.len().div_ceil(threads)) {
                        let ambient = ambient.clone();
                        s.spawn(move || {
                            let _g = shackle_probe::with_path(ambient);
                            for &w in chunk {
                                let _s = shackle_probe::span("item");
                                shackle_probe::add("prop.work", w);
                            }
                        });
                    }
                });
            }
            shackle_probe::set_enabled(false);
            let p = shackle_probe::profile();
            let calls: Vec<(String, u64)> = p
                .spans
                .iter()
                .map(|s| (s.path.clone(), s.calls))
                .collect();
            (calls, p.counters.clone())
        };
        let serial = run(1);
        let parallel = run(threads);
        prop_assert_eq!(serial, parallel);
    }
}
