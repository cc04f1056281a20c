//! The shipped `.ds` example programs parse, shackle, and verify —
//! the file-based workflow a downstream user would follow.

use data_shackle::core::{check_legality, scan::generate_scanned, Blocking, CutSet, Shackle};
use data_shackle::exec::verify::{check_equivalence, hash_init};
use data_shackle::ir::bounds::check_subscripts;
use data_shackle::ir::parse::parse;
use data_shackle::ir::ArrayRef;
use data_shackle::polyhedra::Budget;
use std::collections::BTreeMap;

fn load(name: &str) -> data_shackle::ir::Program {
    let path = format!("{}/examples/programs/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse(&src).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn smooth_blocks_and_verifies() {
    let p = load("smooth.ds");
    let s = Shackle::on_writes(&p, Blocking::square("B", 2, &[0, 1], 4));
    assert!(check_legality(&p, std::slice::from_ref(&s)).is_legal());
    let blocked = generate_scanned(&p, &[s]);
    let params = BTreeMap::from([("N".to_string(), 13_i64)]);
    let eq = check_equivalence(&p, &blocked, &params, hash_init(11));
    assert_eq!(eq.max_rel_diff, 0.0);
}

#[test]
fn wavefront_forward_legal_reversed_refuted() {
    let p = load("wavefront.ds");
    let fwd = Shackle::on_writes(&p, Blocking::square("A", 2, &[0, 1], 8));
    assert!(check_legality(&p, std::slice::from_ref(&fwd)).is_legal());
    let blocked = generate_scanned(&p, &[fwd]);
    let params = BTreeMap::from([("N".to_string(), 20_i64)]);
    let eq = check_equivalence(&p, &blocked, &params, hash_init(12));
    assert_eq!(eq.max_rel_diff, 0.0);

    let rev = Shackle::new(
        &p,
        Blocking::new(
            "A",
            vec![
                CutSet::axis(0, 2, 8).reversed(),
                CutSet::axis(1, 2, 8).reversed(),
            ],
        ),
        vec![ArrayRef::vars("A", &["I", "J"])],
    );
    let rep = check_legality(&p, &[rev]);
    assert!(!rep.is_legal());
    // every violation carries a materializable witness
    assert!(rep.violations.iter().all(|v| v.witness_point(64).is_some()));
}

#[test]
fn shipped_programs_stay_in_bounds() {
    for name in ["smooth.ds", "wavefront.ds"] {
        assert_eq!(
            check_subscripts(&load(name), &Budget::default()),
            Ok(()),
            "{name}"
        );
    }
}
