//! Regenerates the paper's §7 evaluation and this repo's three
//! ablations on the simulated memory hierarchy, one table per name:
//!
//! ```text
//! figures [NAME…]
//! ```
//!
//! With no names every entry of [`FIGURES`] runs, in table order (≈ 20 s
//! in a release build); with names, those run in the order given. Each
//! table goes to stdout and is byte-identical at any `SHACKLE_THREADS`;
//! the probe phase trees go to stderr. Anything that is not a name in
//! the table prints the usage line and exits 2.

use shackle_bench::prelude::*;
use shackle_memsim::{AccessSink, Cache};
use std::collections::BTreeMap;
use std::process::ExitCode;

const FIGURES: [(&str, fn()); 8] = [
    ("figure10", print_figure10),
    ("figure11", print_figure11),
    ("figure12", print_figure12),
    ("figure13", print_figure13),
    ("figure15", print_figure15),
    ("ablation_layout", print_ablation_layout),
    ("ablation_block_size", print_ablation_block_size),
    ("ablation_tlb", print_ablation_tlb),
];

fn main() -> ExitCode {
    let mut chosen: Vec<fn()> = Vec::new();
    for arg in std::env::args().skip(1) {
        match FIGURES.iter().find(|(name, _)| *name == arg) {
            Some((_, print)) => chosen.push(*print),
            None => {
                let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
                eprintln!(
                    "figures: unknown name {arg:?}\nusage: figures [{}]…",
                    names.join("|")
                );
                return ExitCode::from(2);
            }
        }
    }
    if chosen.is_empty() {
        chosen.extend(FIGURES.iter().map(|(_, print)| *print));
    }
    for print in chosen {
        print();
    }
    ExitCode::SUCCESS
}

/// The multi-level blocking experiment of §6.3 / Figure 10: matrix
/// multiplication blocked for two levels of memory hierarchy, on the
/// simulated two-level hierarchy (16 KB L1 / 512 KB L2).
fn print_figure10() {
    let (n, w1, w2) = (192, 64, 8);
    println!("Figure 10 experiment: matmul n={n}, outer block {w1}, inner block {w2}");
    println!(
        "hierarchy: L1 16KB/64B/2-way (hits free), L2 128KB/128B/8-way (10 cyc), mem 80 cyc\n"
    );
    println!(
        "{:<22} {:>12} {:>12} {:>14}",
        "configuration", "L1 misses", "L2 misses", "mem cycles"
    );
    let (rows, phases) = timed_phases(|| figure10(n, w1, w2));
    for r in rows {
        println!(
            "{:<22} {:>12} {:>12} {:>14}",
            r.label, r.l1_misses, r.l2_misses, r.cycles
        );
    }
    eprint!("\n{phases}");
}

/// Figure 11: Cholesky factorization on the simulated SP-2-like memory
/// hierarchy, four curves (input right-looking code, compiler-generated
/// fully blocked code, the same with one matrix-multiply section in
/// DGEMM, LAPACK with native BLAS) over the paper's x-axis.
fn print_figure11() {
    // non-power-of-two sizes avoid leading-dimension set-conflict
    // pathologies in the 4-way cache (real, but orthogonal to blocking)
    let sizes = [100, 150, 200, 250, 300, 400, 500];
    let (series, phases) = timed_phases(|| figure11(&sizes, 32));
    print!(
        "{}",
        render_table(
            "Figure 11: Cholesky factorization (simulated SP-2, MFLOPS)",
            "n",
            &series
        )
    );
    eprint!("\n{phases}");
}

/// Figure 12: QR factorization by Householder reflections, four curves
/// (input pointwise code, column-blocked compiler code, the same with
/// DGEMM-style updates, LAPACK compact-WY).
fn print_figure12() {
    let sizes = [50, 100, 150, 200, 250, 300];
    let (series, phases) = timed_phases(|| figure12(&sizes, 32));
    print!(
        "{}",
        render_table(
            "Figure 12: QR factorization (simulated SP-2, MFLOPS)",
            "n",
            &series
        )
    );
    eprint!("\n{phases}");
}

/// Figure 13: (i) the GMTRY Gaussian-elimination kernel (paper:
/// elimination ~3x faster, whole benchmark ~2x), and (ii) the ADI
/// kernel (paper: 8.9x faster at n = 1000).
fn print_figure13() {
    let n = 1000;
    let (((elim, whole), sp), phases) = timed_phases(|| (figure13_gmtry(320, 32), figure13_adi(n)));
    println!("Figure 13(i) GMTRY, n=320, block 32 (simulated SP-2):");
    println!("  Gaussian elimination speedup: {elim:.2}x   (paper: ~3x)");
    println!("  whole benchmark speedup:      {whole:.2}x   (paper: ~2x)");
    println!("\nFigure 13(ii) ADI, n={n} (simulated SP-2):");
    println!("  transformed vs input speedup: {sp:.2}x   (paper: 8.9x)");
    eprint!("\n{phases}");
}

/// Figure 15: banded Cholesky factorization versus half-bandwidth
/// (input dense-storage code, compiler-blocked code on band storage,
/// LAPACK dpbtrf-style with native BLAS).
fn print_figure15() {
    let n = 400;
    let bands = [8, 16, 32, 64, 96, 128];
    let (series, phases) = timed_phases(|| figure15(n, &bands, 32));
    print!(
        "{}",
        render_table(
            &format!("Figure 15: banded Cholesky, n={n} (simulated SP-2, MFLOPS)"),
            "band p",
            &series
        )
    );
    eprint!("\n{phases}");
}

/// Ablation: physical data reshaping (§5.3 — "nothing prevents us from
/// reshaping the physical data array").
///
/// Runs the same fully-blocked matmul trace through two storage layouts
/// — column-major and block-major with the matching block size — at a
/// power-of-two size where column-major leading-dimension strides cause
/// set conflicts in the 4-way simulated cache. Block-major storage makes
/// each block contiguous and removes the pathology with zero change to
/// the generated code (shackling "takes no position on how the remapped
/// data is stored").
fn print_ablation_layout() {
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

/// Ablation: block-size selection (the §8 open problem — "determination
/// of good block sizes can also be tricky").
///
/// Sweeps the block width of the fully-blocked Cholesky product at a
/// fixed problem size and prints simulated MFLOPS and misses per width,
/// exposing the classic U-shape: tiny blocks cannot amortize reuse,
/// oversized blocks stop fitting in the cache.
///
/// Each width runs **once** and its accesses fan out into one
/// standalone `Cache` per geometry ([`FanOut`]): the SP-2 column is the
/// SP-2 L1 simulated directly, and the extra capacity columns show
/// where each tiling choice stops fitting.
fn print_ablation_block_size() {
    let n = 300_i64;
    let p = kernels::cholesky_right();
    println!("Block-size ablation: fully-blocked Cholesky, n = {n}, one capture per width");
    println!(
        "{:>8} {:>12} {:>14} {:>10} {:>9} {:>9} {:>9}",
        "width", "misses", "mem cycles", "MFLOPS", "16K miss%", "64K miss%", "256K miss%"
    );
    // the SP-2 L1 plus bracketing capacities, all derived per capture
    let mk = |size: usize| CacheConfig {
        size,
        line: 128,
        assoc: 4,
        latency: 0,
    };
    let grid = [mk(16 * 1024), mk(64 * 1024), mk(256 * 1024)];
    let widths = [2i64, 4, 8, 16, 32, 64, 128];
    // each width is an independent execution; sweep them in parallel
    // and print in width order
    let rows = par::map(&widths, |&width| {
        let factors = shackles::cholesky_product(&p, width);
        let blocked = generate_scanned(&p, &factors);
        let params = BTreeMap::from([("N".to_string(), n)]);
        let init = gen::spd_ws_init("A", n as usize, 5);
        let mut caches = grid.map(Cache::new);
        let stats = trace_execution(&blocked, &params, &init, &mut FanOut(&mut caches));
        // what a one-level hierarchy over the SP-2 L1 (zero hit latency)
        // charges: the memory latency per miss
        let misses = caches[1].stats().misses;
        let cycles = misses * 60;
        let mflops = model::perf(model::SCALAR_CYCLES_PER_FLOP).mflops(stats.flops, cycles);
        let ratios = caches.map(|c| c.stats().miss_ratio());
        (misses, cycles, mflops, ratios)
    });
    for (&width, (misses, cycles, mflops, ratios)) in widths.iter().zip(rows) {
        println!(
            "{width:>8} {misses:>12} {cycles:>14} {mflops:>10.2} {:>8.2}% {:>8.2}% {:>8.2}%",
            100.0 * ratios[0],
            100.0 * ratios[1],
            100.0 * ratios[2]
        );
    }
}

/// One address stream into several standalone caches.
struct FanOut<'a>(&'a mut [Cache]);

impl AccessSink for FanOut<'_> {
    fn push(&mut self, addr: u64) {
        for c in self.0.iter_mut() {
            c.access(addr);
        }
    }

    fn push_many(&mut self, addrs: &[u64]) {
        for c in self.0.iter_mut() {
            c.push_many(addrs);
        }
    }
}

/// Ablation: address translation. EXPERIMENTS.md notes our base SP-2
/// model omits TLB misses (one reason the simulated input Cholesky
/// bottoms out above the paper's 8 MFLOPS). Attaching a POWER2-like TLB
/// penalizes the strided input sweep far more than the blocked code,
/// pushing the input curve toward the paper's floor.
fn print_ablation_tlb() {
    let n = 300_i64;
    let p = kernels::cholesky_right();
    let blocked = generate_scanned(&p, &shackles::cholesky_product(&p, 32));
    let params = BTreeMap::from([("N".to_string(), n)]);
    let init = gen::spd_ws_init("A", n as usize, 5);
    println!("TLB ablation: Cholesky n = {n}, simulated SP-2");
    println!(
        "{:<26} {:>12} {:>12} {:>12} {:>10} {:>12}",
        "configuration", "no TLB", "with TLB", "TLB misses", "TLB miss%", "walk cycles"
    );
    for (label, prog) in [
        ("input right-looking", &p),
        ("fully blocked (32)", &blocked),
    ] {
        let mut plain = Hierarchy::sp2_thin_node();
        let s1 = trace_execution(prog, &params, &init, &mut plain);
        let mut tlb = Hierarchy::sp2_thin_node().with_tlb(TlbConfig::power2_like());
        let s2 = trace_execution(prog, &params, &init, &mut tlb);
        let m = model::perf(model::SCALAR_CYCLES_PER_FLOP);
        let ts = tlb.tlb_stats().expect("TLB attached");
        println!(
            "{label:<26} {:>12.2} {:>12.2} {:>12} {:>9.2}% {:>12}",
            m.mflops(s1.flops, plain.cycles()),
            m.mflops(s2.flops, tlb.cycles()),
            ts.misses,
            100.0 * ts.miss_ratio(),
            tlb.tlb_walk_cycles(),
        );
    }
}
