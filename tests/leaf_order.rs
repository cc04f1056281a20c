//! The leaf-order candidate of the search (`search::leaf_order`): the
//! chain of width-1 factors the leaf rule picks for each kernel, that
//! every picked chain computes its input's bits on every execution
//! tier, and how it rides in the search's exact phase — one of at most
//! `TOP_K` simulated programs, and never without a product to beat.

use data_shackle::core::scan::generate_scanned;
use data_shackle::core::search::{leaf_order, SearchConfig};
use data_shackle::core::Shackle;
use data_shackle::exec::native::rustc_available;
use data_shackle::exec::verify::hash_init;
use data_shackle::exec::{compile, execute, NativeKernel, NullObserver, Workspace};
use data_shackle::ir::deps::dependences;
use data_shackle::ir::parse::parse;
use data_shackle::ir::Program;
use data_shackle::kernels::catalogue::{catalogue, find};
use data_shackle::polyhedra::Budget;
use shackle_serve::pipeline::{auto_search, Mode, TOP_K};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// The probe counters are process-global: the test that reads one
/// holds this lock, and so does every test that generates code.
static PROBE: Mutex<()> = Mutex::new(());

const C_COLS: &str = "shackle[block C by [planes n=(0,1) width 1]; refs: C[I, J]]";
const A_COLS_IK: &str = "shackle[block A by [planes n=(0,1) width 1]; refs: A[I, K]]";
const A_ROWS_RIGHT: &str =
    "shackle[block A by [planes n=(1,0) width 1]; refs: A[J, J], A[J, J], A[K, J]]";

/// The chain the leaf rule picks in the forward space, per catalogue
/// kernel (`None`: the input's order is already the best legal one the
/// rule can reach).
fn expected(kernel: &str) -> Option<Vec<&'static str>> {
    match kernel {
        // J, K, then I innermost: unit stride through C and A
        "matmul_ijk" | "syrk" => Some(vec![C_COLS, A_COLS_IK]),
        // the left-looking column Cholesky: S3's I-loop, L, innermost
        "cholesky_right" | "banded_cholesky" => Some(vec![A_ROWS_RIGHT]),
        // the right-looking order, which the probe simulation rejects
        "cholesky_left" => Some(vec![
            "shackle[block A by [planes n=(0,1) width 1]; refs: A[J, J], A[I, J], A[L, K]]",
        ]),
        "adi" => Some(vec![
            "shackle[block A by [planes n=(0,1) width 1]; refs: A[i, k], A[i, k]]",
        ]),
        // J outer, I inner over V[I, J]
        "jacobi2d" => Some(vec![
            "shackle[block V by [planes n=(0,1) width 1]; refs: V[I, J]]",
        ]),
        "gauss" | "backsolve" | "qr_householder" | "gauss_seidel_1d" | "tensor_contract" => None,
        other => panic!("no expected leaf order for catalogue kernel {other}"),
    }
}

fn example(name: &str) -> Program {
    let path = format!("{}/examples/programs/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse(&src).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn order(program: &Program, reversed_directions: bool) -> Option<Vec<Shackle>> {
    let cfg = SearchConfig {
        reversed_directions,
        ..Default::default()
    };
    leaf_order(program, &cfg, &dependences(program), &Budget::default())
}

fn text(chain: &Option<Vec<Shackle>>) -> Option<Vec<String>> {
    chain
        .as_ref()
        .map(|c| c.iter().map(Shackle::to_string).collect())
}

#[test]
fn the_leaf_rule_picks_one_order_per_kernel() {
    for e in catalogue() {
        let got = text(&order(&(e.build)(), false));
        let want = expected(e.name).map(|c| c.iter().map(|s| s.to_string()).collect());
        assert_eq!(got, want, "{}", e.name);
    }
    // the reversed rung's wider space finds nothing better for the
    // kernels already in their best order
    for kernel in ["gauss", "backsolve"] {
        let p = (find(kernel).unwrap().build)();
        assert!(order(&p, true).is_none(), "{kernel}");
    }
    for name in ["smooth.ds", "wavefront.ds"] {
        let p = example(name);
        for reversed in [false, true] {
            assert!(order(&p, reversed).is_none(), "{name}");
        }
    }
}

fn assert_same_bits(a: &Workspace, b: &Workspace, what: &str) {
    for (name, x) in a.iter() {
        let y = b.array(name).expect("same arrays");
        let same = x
            .data()
            .iter()
            .zip(y.data())
            .all(|(u, v)| u.to_bits() == v.to_bits());
        assert!(same, "{what}: array {name} differs");
    }
}

/// Every chain the rule picks, as generated code, against its input:
/// the tree interpreter, the bytecode engine and the native tier (when
/// `rustc` is available) at two sizes, every array bit for bit.
#[test]
fn every_chosen_order_is_bit_identical_on_every_tier() {
    let _g = PROBE.lock().unwrap_or_else(|e| e.into_inner());
    let native = rustc_available();
    if !native {
        eprintln!("rustc unavailable: checking the tree and bytecode tiers only");
    }
    let mut checked = 0;
    for e in catalogue() {
        let input = (e.build)();
        let Some(chain) = order(&input, false) else {
            continue;
        };
        let code = generate_scanned(&input, &chain);
        let bytecode = compile(&code);
        let mut kernel = native.then(|| NativeKernel::spawn(&code).expect("native build"));
        for n in [7, 12] {
            let params: BTreeMap<String, i64> = e.params(n);
            let init = e.init(&params, 5);
            let mut want = Workspace::for_program(&input, &params, &init);
            let stats = execute(&input, &mut want, &params, &mut NullObserver);
            let what = |tier: &str| format!("{} at N={n}, {tier}", e.name);

            let mut tree = Workspace::for_program(&code, &params, &init);
            assert_eq!(execute(&code, &mut tree, &params, &mut NullObserver), stats);
            assert_same_bits(&want, &tree, &what("tree"));

            let mut byte = Workspace::for_program(&code, &params, &init);
            assert_eq!(
                bytecode.execute(&mut byte, &params, &mut NullObserver),
                stats
            );
            assert_same_bits(&want, &byte, &what("bytecode"));

            if let Some(kernel) = kernel.as_mut() {
                let mut nat = Workspace::for_program(&code, &params, &init);
                assert_eq!(kernel.run(&mut nat, &params).expect("native run"), stats);
                assert_same_bits(&want, &nat, &what("native"));
            }
        }
        checked += 1;
    }
    assert!(checked >= 5, "only {checked} kernels have an order");
}

/// The order takes the second exact slot rather than adding one: every
/// catalogue search row generates at most `TOP_K` programs.
#[test]
fn a_search_generates_at_most_top_k_programs() {
    let _g = PROBE.lock().unwrap_or_else(|e| e.into_inner());
    let codegen = data_shackle::probe::counter("core.codegen_programs");
    let was_enabled = data_shackle::probe::set_enabled(true);
    for e in catalogue() {
        let Some((width, probe_n)) = e.search else {
            continue;
        };
        let cfg = SearchConfig {
            width,
            ..Default::default()
        };
        let init = e.init(&e.params(probe_n), 3);
        let before = codegen.get();
        let out = auto_search(&(e.build)(), &cfg, probe_n, init, Mode::Memoized);
        let generated = codegen.get() - before;
        assert!(generated <= TOP_K as u64, "{}: {generated}", e.name);
        assert_eq!(generated, out.rescored as u64, "{}", e.name);
        let orders = out
            .report
            .lines()
            .filter(|l| l.starts_with("order "))
            .count();
        assert_eq!(
            orders,
            usize::from(expected(e.name).is_some()),
            "{}",
            e.name
        );
    }
    data_shackle::probe::set_enabled(was_enabled);
}

/// Without a product there is nothing for an order to beat, and the
/// search does not look for one. The skewed dependence (distance
/// (1, −1)) refutes every candidate blocking in both directions, while
/// the reversed column sweep is a legal, better order.
#[test]
fn a_search_without_a_product_never_yields_an_order() {
    let _g = PROBE.lock().unwrap_or_else(|e| e.into_inner());
    let skew = parse(
        "program skew\nparam N\narray B(N, N)\n\n\
         do I = 2 .. N\n  do J = 1 .. N - 1\n    S1: B[I, J] = B[I - 1, J + 1] + 1\n",
    )
    .expect("skew parses");
    assert!(
        order(&skew, true).is_some(),
        "the reversed rung has an order"
    );
    let cfg = SearchConfig {
        width: 4,
        ..Default::default()
    };
    let out = auto_search(&skew, &cfg, 12, hash_init(1), Mode::Memoized);
    assert_eq!((out.products, out.rescored, out.winner_cycles), (0, 0, 0));
    assert!(out.report.ends_with("winner none\n"), "{}", out.report);
    assert!(!out.report.contains("\norder "), "{}", out.report);
    // nor does a kernel whose arrays are never all referenced
    let qr = (find("qr_householder").unwrap().build)();
    let out = auto_search(&qr, &cfg, 12, hash_init(1), Mode::Memoized);
    assert!(out.report.ends_with("winner none\n") && !out.report.contains("\norder "));
}
