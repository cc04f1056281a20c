//! Fusion and interchange as a by-product of shackling (§7 /
//! Figure 14): blocking `B` into 1×1 blocks traversed in storage order
//! and shackling both ADI statements to `B[i-1,k]` turns the
//! scalarizer's strided two-loop sweep into a fused, interchanged,
//! stride-1 nest — no loop transformation was ever named.
//!
//! Run with: `cargo run --release --example adi_fusion`

use data_shackle::core::{check_legality, scan::generate_scanned};
use data_shackle::exec::verify::{adi_init, check_equivalence};
use data_shackle::ir::kernels;
use data_shackle::kernels::shackles;
use data_shackle::kernels::trace::trace_execution;
use data_shackle::memsim::Hierarchy;
use std::collections::BTreeMap;

fn main() {
    let program = kernels::adi();
    println!("=== input code (Figure 14(i)) ===\n{program}");

    let factors = shackles::adi_storage_order(&program);
    assert!(check_legality(&program, &factors).is_legal());

    let transformed = generate_scanned(&program, &factors);
    println!("=== shackled code (Figure 14(ii)) ===\n{transformed}");

    let init = adi_init();
    let n = 400_i64;
    let params = BTreeMap::from([("N".to_string(), n)]);
    let eq = check_equivalence(&program, &transformed, &params, &init);
    println!("equivalence at n = {n}: {:.3e}", eq.max_rel_diff);
    assert!(eq.within(1e-12));

    // the paper reports 8.9x at n = 1000 on the SP-2; measure the
    // simulated speedup at n = 400 (the input sweeps rows of
    // column-major arrays, missing on every line)
    let mut h_in = Hierarchy::sp2_thin_node();
    let si = trace_execution(&program, &params, &init, &mut h_in);
    let mut h_tr = Hierarchy::sp2_thin_node();
    let st = trace_execution(&transformed, &params, &init, &mut h_tr);
    let cyc = |flops: u64, mem: u64| flops as f64 * 2.0 + mem as f64;
    let speedup = cyc(si.flops, h_in.cycles()) / cyc(st.flops, h_tr.cycles());
    println!("simulated speedup: {speedup:.1}x (paper: 8.9x at n = 1000)");
    assert!(speedup > 2.0);
    println!("\nadi_fusion OK");
}
