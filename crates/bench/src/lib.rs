//! Benchmark harness: regenerates every figure of the paper's
//! evaluation (§7, Figures 10–15).
//!
//! Each `figure*` function runs the relevant programs — input code and
//! shackled code through the IR interpreter with traced memory accesses,
//! hand-written baselines through their traced entry points — against the
//! simulated SP-2-like memory hierarchy, and converts (flops, memory
//! cycles) to MFLOPS with the calibrated [`model`]. The `figures` binary
//! prints the series, one table per name; `EXPERIMENTS.md` records
//! paper-vs-measured for each.
//!
//! Absolute MFLOPS are not expected to match a 1997 POWER2; the claims
//! under test are the *shapes*: orderings of the curves, rough ratios,
//! and crossover locations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use shackle_exec::ExecStats;
use shackle_ir::Program;
use shackle_kernels::shackles;
use shackle_kernels::trace::{band_layout, trace_execution, trace_layout, AddressMap};
use shackle_memsim::{Hierarchy, PerfModel};
use std::collections::BTreeMap;

/// Deterministic parallel sweeps (re-exported from `shackle_core`).
///
/// The index-slotted scoped-thread map lives in [`shackle_core::par`]
/// so the compile-time search and the figure sweeps share one
/// implementation; `SHACKLE_THREADS` controls both.
pub use shackle_core::par;

pub mod prelude;

/// The CPU-side cost model, calibrated to the paper's reported plateaus
/// (see EXPERIMENTS.md). The *memory* side is always simulated from
/// real traces; these constants only encode how good the generated
/// scalar code vs. the hand-tuned BLAS kernels are at retiring flops —
/// the axis the paper attributes to the xlf back-end vs. ESSL.
pub mod model {
    use shackle_memsim::PerfModel;

    /// xlf -O3 scalar inner loops (no software pipelining of the
    /// compiler-generated code — the paper's stated limitation).
    pub const SCALAR_CYCLES_PER_FLOP: f64 = 2.0;

    /// One matrix-multiply section replaced by DGEMM; the rest scalar.
    pub const PARTIAL_DGEMM_CYCLES_PER_FLOP: f64 = 0.8;

    /// Everything in hand-tuned BLAS-3 (ESSL-like).
    pub const BLAS3_CYCLES_PER_FLOP: f64 = 0.55;

    /// Reflection application written as dot/AXPY slices (level-2
    /// quality): the QR analogue of "Matrix Multiply replaced by DGEMM"
    /// (the replaced loops are rank-1 updates, which no BLAS-3 kernel
    /// can turn into compute-bound code). Calibrated between SCALAR and
    /// BLAS3.
    pub const LEVEL2_CYCLES_PER_FLOP: f64 = 0.9;

    /// BLAS-3 efficiency ramps with the narrow operand dimension: tiny
    /// blocks pay call and edge overheads. Calibrated so the Figure 15
    /// crossover sits near the paper's (compiler code wins at small
    /// bands, LAPACK wins by >2× at bandwidth 128).
    pub fn blas3_band_ramp_cycles_per_flop(dim: usize) -> f64 {
        BLAS3_CYCLES_PER_FLOP + 30.0 / dim.max(1) as f64
    }

    /// The WY-QR BLAS-3 ramp in the matrix order `n` (panel operations
    /// on small matrices cannot amortize), calibrated to the paper's
    /// Figure 12 crossover near n ≈ 200.
    pub fn blas3_qr_ramp_cycles_per_flop(n: usize) -> f64 {
        BLAS3_CYCLES_PER_FLOP + 40.0 / n.max(1) as f64
    }

    /// The SP-2-like performance model with a given flop cost.
    pub fn perf(cycles_per_flop: f64) -> PerfModel {
        PerfModel {
            flop_cycles: cycles_per_flop,
            clock_mhz: 66.7,
        }
    }
}

/// One curve of a figure.
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label (matches the paper's).
    pub label: String,
    /// `(x, mflops)` points; `x` is the problem size or bandwidth.
    pub points: Vec<(i64, f64)>,
}

/// Render series as an aligned text table (x column + one column per
/// series).
pub fn render_table(title: &str, xlabel: &str, series: &[Series]) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {title}\n"));
    out.push_str(&format!("{xlabel:>8}"));
    for s in series {
        out.push_str(&format!("  {:>28}", s.label));
    }
    out.push('\n');
    let xs: Vec<i64> = series
        .first()
        .map(|s| s.points.iter().map(|p| p.0).collect())
        .unwrap_or_default();
    for (row, &x) in xs.iter().enumerate() {
        out.push_str(&format!("{x:>8}"));
        for s in series {
            out.push_str(&format!("  {:>28.2}", s.points[row].1));
        }
        out.push('\n');
    }
    out
}

/// Run `f` with probe instrumentation enabled and return its result
/// together with the rendered phase tree.
///
/// The `figures` binary wraps each sweep in this to print per-phase
/// timing lines after the table. The probe registry is reset first so
/// the tree covers exactly this call, and the previous enabled state is
/// restored afterwards.
pub fn timed_phases<T>(f: impl FnOnce() -> T) -> (T, String) {
    shackle_probe::reset();
    let was = shackle_probe::set_enabled(true);
    let out = f();
    shackle_probe::set_enabled(was);
    (out, shackle_probe::profile().render_tree())
}

fn params_n(n: i64) -> BTreeMap<String, i64> {
    BTreeMap::from([("N".to_string(), n)])
}

/// Trace a program on the SP-2-like hierarchy; return (stats, cycles).
fn run_traced(
    program: &Program,
    params: &BTreeMap<String, i64>,
    init: impl Fn(&str, &[usize]) -> f64,
) -> (ExecStats, u64) {
    let mut h = Hierarchy::sp2_thin_node();
    let stats = trace_execution(program, params, init, &mut h);
    (stats, h.cycles())
}

fn mflops(stats: ExecStats, cycles: u64, m: PerfModel) -> f64 {
    m.mflops(stats.flops, cycles)
}

/// Figure 11: Cholesky factorization, four curves versus matrix size.
///
/// * input right-looking code — interpreted trace of Fig. 1(ii);
/// * compiler generated code — trace of the scanned product shackle
///   (fully blocked), scalar flop model;
/// * Matrix Multiply replaced by DGEMM — same trace, partial-DGEMM
///   model;
/// * LAPACK with native BLAS — same blocked trace ("the
///   compiler-generated code has the right block structure"), all-BLAS3
///   model.
pub fn figure11(sizes: &[i64], width: i64) -> Vec<Series> {
    let _phase = shackle_probe::span("figure11");
    let p = shackle_ir::kernels::cholesky_right();
    let factors = shackles::cholesky_product(&p, width);
    let blocked = shackle_core::scan::generate_scanned(&p, &factors);
    let mut series: Vec<Series> = [
        "Input right-looking code",
        "Compiler generated code",
        "MM replaced by DGEMM",
        "LAPACK with native BLAS",
    ]
    .iter()
    .map(|l| Series {
        label: l.to_string(),
        points: Vec::new(),
    })
    .collect();
    // one independent simulation per size, fanned out over threads;
    // results come back in size order, so the series are identical to
    // a serial sweep
    let rows = par::map(sizes, |&n| {
        let _point = shackle_probe::span("simulate");
        let init = shackle_kernels::gen::spd_ws_init("A", n as usize, 11);
        let (si, ci) = run_traced(&p, &params_n(n), &init);
        let (sb, cb) = run_traced(&blocked, &params_n(n), &init);
        [
            mflops(si, ci, model::perf(model::SCALAR_CYCLES_PER_FLOP)),
            mflops(sb, cb, model::perf(model::SCALAR_CYCLES_PER_FLOP)),
            mflops(sb, cb, model::perf(model::PARTIAL_DGEMM_CYCLES_PER_FLOP)),
            mflops(sb, cb, model::perf(model::BLAS3_CYCLES_PER_FLOP)),
        ]
    });
    for (&n, vals) in sizes.iter().zip(rows) {
        for (k, v) in vals.into_iter().enumerate() {
            series[k].points.push((n, v));
        }
    }
    series
}

/// Figure 12: QR factorization, four curves versus matrix size.
///
/// The LAPACK curve is the traced compact-WY algorithm (a genuinely
/// different algorithm exploiting associativity), so both its flops and
/// its memory behaviour are its own.
pub fn figure12(sizes: &[i64], width: i64) -> Vec<Series> {
    let _phase = shackle_probe::span("figure12");
    let p = shackle_ir::kernels::qr_householder();
    let factors = shackles::qr_columns(&p, width);
    let blocked = shackle_core::scan::generate_scanned(&p, &factors);
    let mut series: Vec<Series> = [
        "Input code",
        "Compiler generated code",
        "MM replaced by DGEMM",
        "LAPACK (WY) with native BLAS",
    ]
    .iter()
    .map(|l| Series {
        label: l.to_string(),
        points: Vec::new(),
    })
    .collect();
    let rows = par::map(sizes, |&n| {
        let _point = shackle_probe::span("simulate");
        let init = shackle_exec::verify::hash_init(13);
        let (si, ci) = run_traced(&p, &params_n(n), init);
        let init = shackle_exec::verify::hash_init(13);
        let (sb, cb) = run_traced(&blocked, &params_n(n), init);
        // LAPACK WY: traced native baseline
        let mut h = Hierarchy::sp2_thin_node();
        let mut a = shackle_kernels::gen::random_mat(n as usize, n as usize, 13);
        let wy = shackle_kernels::traced::qr_wy_traced(&mut a, width as usize, &mut h);
        [
            mflops(si, ci, model::perf(model::SCALAR_CYCLES_PER_FLOP)),
            mflops(sb, cb, model::perf(model::SCALAR_CYCLES_PER_FLOP)),
            mflops(sb, cb, model::perf(model::LEVEL2_CYCLES_PER_FLOP)),
            model::perf(model::blas3_qr_ramp_cycles_per_flop(n as usize))
                .mflops(wy.flops, h.cycles()),
        ]
    });
    for (&n, vals) in sizes.iter().zip(rows) {
        for (k, v) in vals.into_iter().enumerate() {
            series[k].points.push((n, v));
        }
    }
    series
}

/// Figure 13(i): the GMTRY kernel — speedup of Gaussian elimination and
/// of the whole benchmark (elimination + untransformable streaming
/// setup), input vs. shackled.
///
/// Returns `(elimination_speedup, whole_benchmark_speedup)`.
pub fn figure13_gmtry(n: i64, width: i64) -> (f64, f64) {
    let _phase = shackle_probe::span("figure13_gmtry");
    let p = shackle_ir::kernels::gauss();
    let factors = shackles::gauss_product(&p, width);
    let blocked = shackle_core::scan::generate_scanned(&p, &factors);
    let init = shackle_kernels::gen::spd_ws_init("A", n as usize, 17);
    let (si, ci) = run_traced(&p, &params_n(n), &init);
    let (sb, cb) = run_traced(&blocked, &params_n(n), &init);
    let m = model::perf(model::SCALAR_CYCLES_PER_FLOP);
    let cyc = |s: ExecStats, c: u64| s.flops as f64 * m.flop_cycles + c as f64;
    let elim_in = cyc(si, ci);
    let elim_bl = cyc(sb, cb);
    // Rest of the benchmark: streaming setup sweeps over the system
    // matrix, identical in both versions. The paper does not give the
    // GMTRY time breakdown, only that a 3x elimination speedup became a
    // 2x whole-benchmark speedup, which pins the non-elimination share
    // at roughly one third of the input elimination time; 40 sweeps at
    // n = 320 lands there (the share is size-dependent, as it would be
    // in the real kernel).
    let rest = {
        let mut h = Hierarchy::sp2_thin_node();
        let sweeps = 40;
        for _ in 0..sweeps {
            for off in (0..(n as u64) * (n as u64) * 8).step_by(8) {
                h.access(off);
            }
        }
        let flops = sweeps * (n as u64) * (n as u64);
        flops as f64 * m.flop_cycles + h.cycles() as f64
    };
    (elim_in / elim_bl, (elim_in + rest) / (elim_bl + rest))
}

/// Figure 13(ii): ADI — speedup of the transformed (fused + interchanged)
/// code over the input code at size `n`.
pub fn figure13_adi(n: i64) -> f64 {
    let _phase = shackle_probe::span("figure13_adi");
    let p = shackle_ir::kernels::adi();
    let factors = shackles::adi_storage_order(&p);
    let blocked = shackle_core::scan::generate_scanned(&p, &factors);
    let init = shackle_exec::verify::adi_init();
    let (si, ci) = run_traced(&p, &params_n(n), &init);
    let (sb, cb) = run_traced(&blocked, &params_n(n), &init);
    let m = model::perf(model::SCALAR_CYCLES_PER_FLOP);
    let cyc = |s: ExecStats, c: u64| s.flops as f64 * m.flop_cycles + c as f64;
    cyc(si, ci) / cyc(sb, cb)
}

/// Figure 15: banded Cholesky versus half-bandwidth at fixed order `n`.
///
/// * input code — dense-storage band-guarded Cholesky (interpreted);
/// * compiler generated code — the scanned banded shackle executed
///   through the *band-storage address map* (the paper's post-pass data
///   transformation);
/// * LAPACK — traced `dpbtrf`-style blocked code on band storage, with
///   the BLAS-3 size ramp (small bands cannot amortize BLAS overhead).
pub fn figure15(n: i64, bands: &[i64], width: i64) -> Vec<Series> {
    let _phase = shackle_probe::span("figure15");
    let p = shackle_ir::kernels::banded_cholesky();
    let factors = shackles::banded_writes(&p, width);
    let blocked = shackle_core::scan::generate_scanned(&p, &factors);
    let mut series: Vec<Series> = [
        "Input banded code",
        "Compiler generated (band storage)",
        "LAPACK dpbtrf with native BLAS",
    ]
    .iter()
    .map(|l| Series {
        label: l.to_string(),
        points: Vec::new(),
    })
    .collect();
    let rows = par::map(bands, |&bw| {
        let _point = shackle_probe::span("simulate");
        let params = BTreeMap::from([("N".to_string(), n), ("P".to_string(), bw)]);
        let init = shackle_kernels::gen::banded_ws_init("A", n as usize, bw as usize, 19);
        let (si, ci) = run_traced(&p, &params, &init);
        // compiler code through band storage
        let (sb, cb) = {
            let mut h = Hierarchy::sp2_thin_node();
            let dense = AddressMap::for_program(&blocked, &params, 128);
            let layout = band_layout("A", n as usize, bw as usize, dense);
            let stats = trace_layout(&blocked, &params, &init, layout, &mut h);
            (stats, h.cycles())
        };
        // LAPACK on band storage
        let mut h = Hierarchy::sp2_thin_node();
        let dense = shackle_kernels::gen::random_banded_spd(n as usize, bw as usize, 19);
        let mut band = shackle_kernels::banded::BandMat::from_dense(&dense, bw as usize);
        let run = shackle_kernels::traced::pbtrf_lapack_traced(
            &mut band,
            (width as usize).min(bw as usize + 1),
            &mut h,
        );
        [
            mflops(si, ci, model::perf(model::SCALAR_CYCLES_PER_FLOP)),
            mflops(sb, cb, model::perf(model::SCALAR_CYCLES_PER_FLOP)),
            model::perf(model::blas3_band_ramp_cycles_per_flop(bw as usize))
                .mflops(run.flops, h.cycles()),
        ]
    });
    for (&bw, vals) in bands.iter().zip(rows) {
        for (k, v) in vals.into_iter().enumerate() {
            series[k].points.push((bw, v));
        }
    }
    series
}

/// Per-level miss counts for Figure 10's multi-level experiment.
#[derive(Clone, Debug)]
pub struct MultiLevelRow {
    /// Configuration label.
    pub label: String,
    /// L1 misses.
    pub l1_misses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Memory cycles.
    pub cycles: u64,
}

/// Figure 10 / §6.3: matrix multiplication blocked for two levels of
/// memory hierarchy, on the two-level simulated hierarchy. Compares
/// unblocked, one-level (outer block only), and two-level code.
pub fn figure10(n: i64, w1: i64, w2: i64) -> Vec<MultiLevelRow> {
    figure10_on(n, w1, w2, Hierarchy::two_level)
}

/// As [`figure10`] with a custom hierarchy factory (used by tests to
/// scale the experiment down).
pub fn figure10_on(
    n: i64,
    w1: i64,
    w2: i64,
    mk: impl Fn() -> Hierarchy + Sync,
) -> Vec<MultiLevelRow> {
    let _phase = shackle_probe::span("figure10");
    let p = shackle_ir::kernels::matmul_ijk();
    let one = shackle_core::scan::generate_scanned(&p, &shackles::matmul_ca(&p, w1));
    let two = shackle_core::scan::generate_scanned(&p, &shackles::matmul_two_level(&p, w1, w2));
    let init = shackle_exec::verify::hash_init(23);
    let variants = [
        ("unblocked (I-J-K)", &p),
        ("one-level (Fig. 3)", &one),
        ("two-level (Fig. 10)", &two),
    ];
    par::map(&variants, |&(label, prog)| {
        let _point = shackle_probe::span("simulate");
        let mut h = mk();
        trace_execution(prog, &params_n(n), &init, &mut h);
        let ls = h.level_stats();
        MultiLevelRow {
            label: label.to_string(),
            l1_misses: ls[0].misses,
            l2_misses: ls[1].misses,
            cycles: h.cycles(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure11_small_shape() {
        // n must exceed the 64 KB simulated cache (128² × 8B = 131 KB)
        // for blocking to matter
        let s = figure11(&[32, 128], 16);
        assert_eq!(s.len(), 4);
        let at = |k: usize| s[k].points[1].1;
        assert!(at(1) > at(0), "compiler > input: {} vs {}", at(1), at(0));
        assert!(at(2) > at(1));
        assert!(at(3) > at(2));
        // at the small size everything is cached: curves 0 and 1 agree
        assert!((s[0].points[0].1 - s[1].points[0].1).abs() < 1.0);
    }

    #[test]
    fn figure13_adi_speedup_over_one() {
        let sp = figure13_adi(96);
        assert!(sp > 1.5, "ADI speedup {sp}");
    }

    #[test]
    fn figure10_two_level_reduces_l1_misses() {
        // a scaled-down hierarchy so n = 48 exercises both levels:
        // L1 2 KB, L2 16 KB (three 48² matrices are 55 KB)
        use shackle_memsim::CacheConfig;
        let mk = || {
            Hierarchy::new(
                &[
                    CacheConfig {
                        size: 2048,
                        line: 64,
                        assoc: 2,
                        latency: 1,
                    },
                    CacheConfig {
                        size: 16384,
                        line: 128,
                        assoc: 8,
                        latency: 10,
                    },
                ],
                80,
            )
        };
        let rows = figure10_on(48, 16, 4, mk);
        assert_eq!(rows.len(), 3);
        assert!(rows[2].l1_misses < rows[0].l1_misses);
        assert!(rows[1].l2_misses < rows[0].l2_misses);
        assert!(
            rows[2].l1_misses < rows[1].l1_misses,
            "inner blocking must help L1: {} vs {}",
            rows[2].l1_misses,
            rows[1].l1_misses
        );
        assert!(rows[2].cycles < rows[0].cycles);
    }

    #[test]
    fn figure12_small_shape() {
        // tiny sizes: the input and compiler curves exist and are
        // positive; at sizes beyond the cache the compiler code wins
        let s = figure12(&[16, 96], 8);
        assert_eq!(s.len(), 4);
        for series in &s {
            assert!(series.points.iter().all(|p| p.1 > 0.0), "{}", series.label);
        }
        // +DGEMM above plain compiler at both sizes
        assert!(s[2].points[1].1 > s[1].points[1].1);
    }

    #[test]
    fn figure15_small_shape() {
        let s = figure15(48, &[4, 12], 8);
        assert_eq!(s.len(), 3);
        for series in &s {
            assert_eq!(series.points.len(), 2);
            assert!(series.points.iter().all(|p| p.1 > 0.0), "{}", series.label);
        }
        // the LAPACK BLAS-3 ramp makes wider bands relatively better
        let lapack = &s[2];
        assert!(lapack.points[1].1 > lapack.points[0].1);
    }

    #[test]
    fn figure13_gmtry_speedups_exceed_one() {
        let (elim, whole) = figure13_gmtry(96, 8);
        assert!(elim > 1.0, "elimination speedup {elim}");
        assert!(whole > 1.0, "whole-benchmark speedup {whole}");
        assert!(whole < elim, "setup work must dilute the speedup");
    }

    #[test]
    fn par_map_preserves_input_order_at_any_thread_count() {
        let items: Vec<u64> = (0..40).collect();
        // an order-sensitive function: results must land in input slots
        let f = |&x: &u64| x * x + 1;
        let serial = par::map_with(1, &items, f);
        for threads in [2, 3, 7, 16] {
            assert_eq!(
                par::map_with(threads, &items, f),
                serial,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn figure_sweep_is_byte_identical_serial_vs_parallel() {
        // par::with_threads serializes every SHACKLE_THREADS override
        // process-wide, so concurrent tests cannot race this one's
        // temporary values.
        let serial = {
            let _t = par::with_threads(1);
            render_table("f11", "n", &figure11(&[16, 24, 32], 8))
        };
        let parallel = {
            let _t = par::with_threads(4);
            render_table("f11", "n", &figure11(&[16, 24, 32], 8))
        };
        assert_eq!(serial, parallel);
    }

    #[test]
    fn render_table_is_aligned() {
        let s = vec![Series {
            label: "A".into(),
            points: vec![(10, 1.5), (20, 2.5)],
        }];
        let t = render_table("T", "n", &s);
        assert!(t.contains("# T"));
        assert!(t.lines().count() == 4);
    }
}
