//! Growth by theorem, checked where tier-1 sees it. `complete_product`
//! asks the solver nothing: §6 says "a product of two shackles is
//! always legal if the two shackles are legal by themselves", and the
//! seed and every candidate come out of `enumerate_legal`. This file
//! runs the Theorem-1 queries growth used to run on every request —
//! every prefix of every grown product, on every search row of the
//! catalogue — once, here.
//!
//! One test, in a file of its own: the polyhedral cache counters are
//! process-global, and the zero-queries check below must not see
//! another test's solver traffic.

use data_shackle::core::search::{complete_product, enumerate_legal, SearchConfig};
use data_shackle::core::{check_legality_with_deps, span, Shackle};
use data_shackle::ir::deps::dependences;
use data_shackle::kernels::catalogue::catalogue;
use data_shackle::polyhedra::cache;

#[test]
fn every_prefix_of_every_grown_product_is_legal_and_growth_asks_the_solver_nothing() {
    let mut checked = 0usize;
    for e in catalogue() {
        let Some((width, _)) = e.search else {
            continue;
        };
        let program = (e.build)();
        // every seed's grown product, and whether one of them blocks
        // every reference
        let grow_all = |reversed_directions| {
            let cfg = SearchConfig {
                width,
                reversed_directions,
                ..Default::default()
            };
            let legal = enumerate_legal(&program, &cfg);
            let before = cache::stats();
            let products: Vec<Vec<Shackle>> = legal
                .iter()
                .map(|c| complete_product(&program, vec![c.shackle.clone()], &legal))
                .collect();
            assert_eq!(
                cache::stats(),
                before,
                "{}: growth reached the solver",
                e.name
            );
            let blocks = products
                .iter()
                .any(|p| span::unconstrained_refs(&program, p).is_empty());
            (products, blocks)
        };
        // the pipeline's retry: reversed cuts where the forward space
        // yields no fully-blocking product
        let (mut products, blocks) = grow_all(false);
        if !blocks {
            products = grow_all(true).0;
        }
        let deps = dependences(&program);
        for product in &products {
            for k in 1..=product.len() {
                let report = check_legality_with_deps(&program, &product[..k], &deps);
                assert!(
                    report.is_legal(),
                    "{}: prefix {k} of a grown product is not legal: {:?} / {} undecided",
                    e.name,
                    report.violations.first().map(ToString::to_string),
                    report.unknown.len()
                );
                checked += 1;
            }
        }
    }
    // nine search rows, several seeds each, products of up to three
    // factors (80 prefixes when written): the loop must have run
    assert!(checked >= 50, "only {checked} prefixes checked");
}
