//! The probe's thread-local span stacks must merge deterministically:
//! the same figure sweep at any `SHACKLE_THREADS` setting yields
//! identical span call counts and counter values — wall time is the
//! only thing allowed to differ. This is what makes the
//! phase trees `figures` prints and the `benchmark` crate's `--trace 1`
//! files diffable across runs that pick different worker counts.

use shackle_bench::prelude::*;

/// Everything in a [`probe::Profile`] except wall time.
type Fingerprint = (Vec<(String, u64)>, Vec<(String, u64)>);

fn run_sweep(threads: usize) -> Fingerprint {
    // with_threads serializes the process-global override and restores
    // the previous value when the guard drops
    let _t = shackle_core::par::with_threads(threads);
    // cold polyhedral cache each run, so the serial codegen inside the
    // sweep does identical omega/FM work regardless of run order
    shackle_polyhedra::cache::clear_cache();
    probe::reset();
    probe::set_enabled(true);
    let series = figure11(&[16, 24, 32], 8);
    probe::set_enabled(false);
    assert_eq!(series.len(), 4);
    let profile = probe::profile();
    (
        profile
            .spans
            .iter()
            .map(|s| (s.path.clone(), s.calls))
            .collect(),
        profile.counters.clone(),
    )
}

#[test]
fn profile_is_identical_at_any_thread_count() {
    let serial = run_sweep(1);
    // the sweep's spans actually landed under the figure's phase, from
    // every worker thread
    let sim = serial
        .0
        .iter()
        .find(|(path, _)| path == "figure11/simulate")
        .expect("simulate spans nest under figure11");
    assert_eq!(sim.1, 3, "one simulate span per sweep point");
    for threads in [2, 4] {
        let parallel = run_sweep(threads);
        assert_eq!(serial, parallel, "{threads} threads");
    }
}
