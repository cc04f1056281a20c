//! Differential property tests: the compiled engine must be
//! indistinguishable from the tree interpreter — bit-identical
//! workspaces, identical [`ExecStats`], and identical ordered access
//! traces — on every kernel of `shackle_kernels::catalogue` at random
//! problem sizes, and on compiler-generated (scanned) programs with
//! guards and divided loop bounds at random block widths. The value-free
//! tracer rides along in every comparison: same statistics, same trace.

use proptest::prelude::*;
use shackle_exec::{
    compile, execute, trace_compiled, verify, Access, ExecStats, Observer, Workspace,
};
use shackle_ir::Program;
use shackle_kernels::catalogue::catalogue;
use std::collections::BTreeMap;

fn params(n: i64) -> BTreeMap<String, i64> {
    BTreeMap::from([("N".to_string(), n)])
}

/// Records every access in program order for trace comparison:
/// `(array, index, offset, write)`.
#[derive(Default)]
struct Collect(Vec<(String, usize, usize, bool)>);

impl Observer for Collect {
    fn record(&mut self, a: Access) {
        self.0
            .push((a.array.to_string(), a.index, a.offset, a.write));
    }
}

/// Runs `program` through the tree interpreter and both consumers of
/// the compiled engine and asserts they cannot be told apart.
fn assert_engines_agree(
    program: &Program,
    p: &BTreeMap<String, i64>,
    init: &dyn Fn(&str, &[usize]) -> f64,
) {
    let mut tree_ws = Workspace::for_program(program, p, init);
    let mut comp_ws = Workspace::for_program(program, p, init);

    let mut tree_trace = Collect::default();
    let mut comp_trace = Collect::default();
    let tree_stats: ExecStats = execute(program, &mut tree_ws, p, &mut tree_trace);
    let comp_stats = compile(program).execute(&mut comp_ws, p, &mut comp_trace);

    // Identical statistics and identical ordered traces.
    assert_eq!(tree_stats, comp_stats);
    assert_eq!(tree_trace.0.len(), comp_trace.0.len());
    assert_eq!(tree_trace.0, comp_trace.0);

    // The tracer computes no value and reports the same of both.
    let mut walk_trace = Collect::default();
    let walk_stats = trace_compiled(program, p, &mut walk_trace);
    assert_eq!(walk_stats, tree_stats);
    assert_eq!(walk_trace.0, tree_trace.0);

    // Bit-identical workspaces: same arrays, same element bits.
    for (name, a) in tree_ws.iter() {
        let b = comp_ws.array(name).unwrap();
        assert_eq!(a.data().len(), b.data().len());
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "array {name} diverges at flat index {i}: {x} vs {y}"
            );
        }
    }
}

/// Every catalogue kernel as the input code, as the scanned code of its
/// canonical single and product shackles, and as naive code — guards
/// inside the innermost loops, so the tracer's access-by-access path
/// runs where the scanned code runs its leaf path. A width that does
/// not divide the size leaves partial blocks at every edge.
#[test]
fn tracer_matches_both_engines_on_every_form_of_every_kernel() {
    use shackle_core::{naive::generate_naive, scan::generate_scanned};
    let (n, width) = (7, 3);
    for entry in catalogue() {
        let program = (entry.build)();
        let p = entry.params(n);
        let init = entry.init(&p, 5);
        let mut forms = vec![program.clone()];
        let shackles = [entry.single, entry.product].into_iter().flatten();
        for (i, make) in shackles.enumerate() {
            let product = make(&program, width);
            forms.push(generate_scanned(&program, &product));
            if i == 0 {
                forms.push(generate_naive(&program, &product));
            }
        }
        for form in &forms {
            assert_engines_agree(form, &p, &init);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any kernel, any size, any seed: both engines produce the same
    /// bits, the same stats and the same trace.
    #[test]
    fn compiled_matches_tree_on_kernels(
        k in 0usize..catalogue().len(),
        n in 1i64..10,
        seed in 0u64..50,
    ) {
        let entry = catalogue()[k];
        let mut p = entry.params(n);
        // the half-bandwidth drawn from the seed, not tied to `n`
        if let Some(bw) = p.get_mut("P") {
            *bw = 1 + seed as i64 % n;
        }
        assert_engines_agree(&(entry.build)(), &p, &entry.init(&p, seed));
    }

    /// Compiler-generated scanned programs (guards, ceil/floor-divided
    /// bounds, shadowed block loops) agree between engines too.
    #[test]
    fn compiled_matches_tree_on_scanned_programs(
        n in 2i64..10,
        width in 2i64..6,
        seed in 0u64..50,
    ) {
        use shackle_core::{scan::generate_scanned, Blocking, Shackle};
        let program = shackle_ir::kernels::cholesky_right();
        let s = Shackle::on_writes(&program, Blocking::square("A", 2, &[1, 0], width));
        let scanned = generate_scanned(&program, &[s]);
        let init = verify::spd_init("A", n as usize, seed);
        assert_engines_agree(&scanned, &params(n), &init);
    }

    /// Fully-blocked matmul (data shackles on the product) agrees too.
    #[test]
    fn compiled_matches_tree_on_blocked_matmul(
        n in 2i64..10,
        width in 2i64..6,
        seed in 0u64..50,
    ) {
        use shackle_core::{scan::generate_scanned, Blocking, Shackle};
        let program = shackle_ir::kernels::matmul_ijk();
        let s = Shackle::on_writes(&program, Blocking::square("C", 2, &[0, 1], width));
        let scanned = generate_scanned(&program, &[s]);
        let init = verify::hash_init(seed);
        assert_engines_agree(&scanned, &params(n), &init);
    }
}
