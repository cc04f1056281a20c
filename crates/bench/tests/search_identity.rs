//! The auto-shackle search is pinned two ways: its outcome on the nine
//! `perf_report` search rows equals a recorded golden, and its report is
//! byte-identical at any thread count — memoization and parallelism
//! change the cost of the search, never its result.
//!
//! The goldens were recorded at commit `f409083`, the last one that
//! still carried the pre-memoization pipeline (a baseline search mode
//! run with the polyhedral engine switched off): there the uncached
//! serial search and the memoized search at 1 and 8 threads all
//! produced exactly these rows, which is what the deleted
//! mode-differential tests established. The counts are also the ones
//! in `BENCH_search.json`.

use shackle_bench::searchperf::{auto_search, Mode, SearchOutcome};
use shackle_core::par;
use shackle_core::search::SearchConfig;
use shackle_ir::{kernels, Program};

type Init = Box<dyn Fn(&str, &[usize]) -> f64 + Sync>;

/// One `perf_report` search row — kernel, program, block width, probe
/// size, initializer — and what the search must return on it:
/// `(candidates, legal, products, rescored, winner_cycles)` and the
/// FNV-1a hash of `SearchOutcome::report`.
type Row = (
    &'static str,
    Program,
    i64,
    i64,
    Init,
    (usize, usize, usize, usize, u64),
    u64,
);

#[rustfmt::skip]
fn rows() -> Vec<Row> {
    let spd = |n: usize| -> Init { Box::new(shackle_kernels::gen::spd_ws_init("A", n, 3)) };
    let hash = || -> Init { Box::new(shackle_exec::verify::hash_init(3)) };
    let ones: Init = Box::new(|_: &str, _: &[usize]| 1.0);
    vec![
        ("cholesky_right", kernels::cholesky_right(), 16, 48, spd(48), (12, 6, 6, 2, 6660), 0x862d036bebba527c),
        ("cholesky_left", kernels::cholesky_left(), 16, 32, spd(32), (12, 6, 6, 2, 2880), 0xd0f359a1a1e47773),
        ("gauss", kernels::gauss(), 16, 24, spd(24), (12, 6, 6, 2, 2160), 0xcbec6d5b28245192),
        ("matmul_ijk", kernels::matmul_ijk(), 25, 24, ones, (6, 6, 6, 2, 84060), 0xfdd8efed40d3d7f1),
        ("backsolve", kernels::backsolve(), 16, 48, hash(), (8, 4, 4, 2, 5940), 0x77dc4c57527fa6e4),
        ("syrk", kernels::syrk(), 16, 32, hash(), (6, 6, 6, 2, 11220), 0x749eb410a516ab08),
        ("jacobi2d", kernels::jacobi2d(), 16, 48, hash(), (10, 10, 10, 2, 17640), 0x970c2d00614f1e28),
        ("tensor_contract", kernels::tensor_contract(), 8, 16, hash(), (12, 4, 4, 2, 4193280), 0xe9760d1e4746c690),
        ("gauss_seidel_1d", kernels::gauss_seidel_1d(), 16, 32, hash(), (6, 0, 0, 0, 0), 0x883a2d56959fbd14),
    ]
}

fn search(row: &Row, threads: usize) -> SearchOutcome {
    let (_, program, width, probe_n, init, ..) = row;
    let cfg = SearchConfig {
        width: *width,
        ..Default::default()
    };
    let _t = par::with_threads(threads);
    auto_search(program, &cfg, *probe_n, init, Mode::Memoized)
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn search_rows_match_recorded_goldens() {
    for row in rows() {
        let (kernel, .., counts, report_hash) = row;
        for threads in [1, 8] {
            let out = search(&row, threads);
            let got = (
                out.candidates,
                out.legal,
                out.products,
                out.rescored,
                out.winner_cycles,
            );
            assert_eq!(got, counts, "{kernel} at {threads} thread(s)");
            assert_eq!(
                fnv1a(&out.report),
                report_hash,
                "{kernel} at {threads} thread(s): the report changed:\n{}",
                out.report
            );
        }
    }
}

#[test]
fn report_identical_across_thread_counts() {
    for row in rows() {
        assert_eq!(search(&row, 1).report, search(&row, 8).report, "{}", row.0);
    }
}
