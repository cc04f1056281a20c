//! Round-trip tests across the whole toolchain: generated (scanned)
//! programs serialize to the concrete syntax, parse back, and execute
//! identically.

use data_shackle::core::scan::generate_scanned;
use data_shackle::exec::verify::{check_equivalence, hash_init};
use data_shackle::ir::parse::{parse, to_source};
use data_shackle::kernels::catalogue::catalogue;
use std::collections::BTreeMap;

#[test]
fn scanned_programs_roundtrip_and_execute() {
    // every catalogue kernel under each of its canonical shackles
    for e in catalogue() {
        let p = (e.build)();
        for shackle in [e.single, e.product].into_iter().flatten() {
            let scanned = generate_scanned(&p, &shackle(&p, 4));
            let text = to_source(&scanned);
            let reparsed =
                parse(&text).unwrap_or_else(|err| panic!("{}: {err}\n{text}", scanned.name()));
            // serialization is a fixed point
            assert_eq!(to_source(&reparsed), text, "{}", scanned.name());
            // and the reparsed program executes identically to the original
            let params = e.params(9);
            let eq = check_equivalence(&p, &reparsed, &params, e.init(&params, 3));
            assert_eq!(eq.max_rel_diff, 0.0, "{}: reparsed code diverged", e.name);
        }
    }
}

#[test]
fn handwritten_kernel_through_the_full_pipeline() {
    // A user writes a kernel in the concrete syntax, shackles it, and
    // verifies — no Rust IR construction involved.
    let src = "
program smooth
param N
array A(N, N)
array B(N, N)

do J = 1 .. N
  do I = 1 .. N
    S1: B[I, J] = A[I, J] + 1
";
    let p = parse(src).expect("parses");
    let shackle = data_shackle::core::Shackle::on_writes(
        &p,
        data_shackle::core::Blocking::square("B", 2, &[0, 1], 3),
    );
    assert!(data_shackle::core::check_legality(&p, std::slice::from_ref(&shackle)).is_legal());
    let blocked = generate_scanned(&p, &[shackle]);
    let params = BTreeMap::from([("N".to_string(), 10_i64)]);
    let eq = check_equivalence(&p, &blocked, &params, hash_init(4));
    assert_eq!(eq.max_rel_diff, 0.0);
}
