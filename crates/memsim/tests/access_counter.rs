//! `memsim.accesses` counts every address a hierarchy is fed, whichever
//! of the two sink entry points feeds it. Alone in its file: the probe
//! is process-global, and the counts below are exact.

use shackle_memsim::{AccessSink, Hierarchy};

#[test]
fn push_and_push_many_count_alike() {
    shackle_probe::set_enabled(true);
    let counted = shackle_probe::counter("memsim.accesses");
    let mut h = Hierarchy::sp2_thin_node();
    h.push(0);
    assert_eq!(counted.get(), 1, "push counts");
    h.push_many(&[64, 128]);
    assert_eq!(counted.get(), 3, "push_many counts");
    assert_eq!(h.accesses(), 3);
}
