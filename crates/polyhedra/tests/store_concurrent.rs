//! Regression: `cache::save_to` must write a loadable store while other
//! threads keep inserting. The section header used to carry an entry
//! count taken *before* the shards were walked, so any insert landing in
//! between produced a file `load_from` rejected ("negative section
//! count") — in the daemon, a shutdown-persist racing a live worker left
//! a store the next generation refused to boot from.

use shackle_polyhedra::{cache, Constraint, LinExpr, System};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;

/// A feasibility query whose canonical key is new for every `i`.
fn fresh_query(i: i64) -> System {
    let (x, y) = (LinExpr::var("x"), LinExpr::var("y"));
    let mut s = System::new();
    s.add(Constraint::ge(
        x.clone() * 3,
        y.clone() * 2 + LinExpr::constant(i),
    ));
    s.add(Constraint::le(x, LinExpr::constant(i + 40)));
    s.add(Constraint::ge(y, LinExpr::constant(-i)));
    s
}

#[test]
fn save_stays_loadable_under_concurrent_inserts() {
    let path = std::env::temp_dir().join(format!(
        "shackle_poly_store_concurrent_{}.bin",
        std::process::id()
    ));
    // A resident population large enough that one save spans many
    // inserts of the other thread.
    for i in 0..2_000 {
        fresh_query(i).is_integer_feasible();
    }
    let stop = AtomicBool::new(false);
    let (started_tx, started_rx) = mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut i = 2_000;
            while !stop.load(Ordering::SeqCst) {
                fresh_query(i).is_integer_feasible();
                if i == 2_000 {
                    started_tx.send(()).expect("main thread is waiting");
                }
                i += 1;
            }
        });
        // No save before the inserter is provably running.
        started_rx.recv().expect("inserter started");
        let failures: Vec<String> = (0..100)
            .filter_map(|round| {
                cache::save_to(&path)
                    .and_then(|_| cache::load_from(&path))
                    .err()
                    .map(|e| format!("round {round}: {e}"))
            })
            .collect();
        // Before any assertion: a panic here would otherwise leave the
        // scope joining a thread that never stops.
        stop.store(true, Ordering::SeqCst);
        assert!(failures.is_empty(), "unreadable stores: {failures:#?}");
    });
    std::fs::remove_file(&path).ok();
}
