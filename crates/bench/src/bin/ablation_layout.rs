//! Ablation: physical data reshaping (§5.3 — "nothing prevents us from
//! reshaping the physical data array").
//!
//! Runs the same fully-blocked matmul trace through two storage layouts
//! — column-major and block-major with the matching block size — at a
//! power-of-two size where column-major leading-dimension strides cause
//! set conflicts in the 4-way simulated cache. Block-major storage makes
//! each block contiguous and removes the pathology with zero change to
//! the generated code (shackling "takes no position on how the remapped
//! data is stored").

use shackle_bench::prelude::*;
use std::collections::BTreeMap;

fn main() {
    let (n, b) = (256_i64, 32usize);
    let p = kernels::matmul_ijk();
    let blocked = generate_scanned(&p, &shackles::matmul_ca(&p, b as i64));
    let params = BTreeMap::from([("N".to_string(), n)]);
    let init = verify::hash_init(9);
    println!("Layout ablation: blocked matmul, n = {n} (power of two), block {b}");

    let mut h_col = Hierarchy::sp2_thin_node();
    trace_execution(&blocked, &params, &init, &mut h_col);

    // stack the three arrays' block-major regions 8 MB apart
    let block_major = |acc: &Access<'_>| {
        let region: u64 = match acc.array {
            "C" => 0,
            "A" => 8 << 20,
            _ => 16 << 20,
        };
        let (i, j) = (acc.offset % n as usize, acc.offset / n as usize);
        region + block_major_address(n as usize, b, i, j)
    };
    let mut h_blk = Hierarchy::sp2_thin_node();
    trace_layout(&blocked, &params, &init, block_major, &mut h_blk);

    println!("{:<28} {:>12} {:>14}", "layout", "L1 misses", "mem cycles");
    println!(
        "{:<28} {:>12} {:>14}",
        "column-major",
        h_col.level_stats()[0].misses,
        h_col.cycles()
    );
    println!(
        "{:<28} {:>12} {:>14}",
        format!("block-major ({b}x{b})"),
        h_blk.level_stats()[0].misses,
        h_blk.cycles()
    );
    let ratio = h_col.cycles() as f64 / h_blk.cycles() as f64;
    println!("reshaping speedup on memory cycles: {ratio:.2}x");
}
