//! The auto-shackle search is pinned two ways: its outcome on the nine
//! catalogue search rows (the ones the `benchmark` crate's
//! `compile_cold` workload times) equals a recorded golden, and its
//! report is byte-identical at any thread count — memoization and
//! parallelism change the cost of the search, never its result.
//!
//! The goldens were recorded at commit `f409083`, the last one that
//! still carried the pre-memoization pipeline (a baseline search mode
//! run with the polyhedral engine switched off): there the uncached
//! serial search and the memoized search at 1 and 8 threads all
//! produced exactly these rows, which is what the deleted
//! mode-differential tests established.

use shackle_core::par;
use shackle_core::search::SearchConfig;
use shackle_kernels::catalogue::find;
use shackle_serve::pipeline::{auto_search, Mode, SearchOutcome};

/// One search row — the catalogue kernel, whose entry supplies
/// program, block width, probe size and initializer — and what the
/// search must return on it:
/// `(candidates, legal, products, rescored, winner_cycles)` and the
/// FNV-1a hash of `SearchOutcome::report`.
type Row = (&'static str, (usize, usize, usize, usize, u64), u64);

#[rustfmt::skip]
const ROWS: [Row; 9] = [
    ("cholesky_right", (12, 6, 6, 2, 6660), 0x862d036bebba527c),
    ("cholesky_left", (12, 6, 6, 2, 2880), 0xd0f359a1a1e47773),
    ("gauss", (12, 6, 6, 2, 2160), 0xcbec6d5b28245192),
    ("matmul_ijk", (6, 6, 6, 2, 84060), 0xfdd8efed40d3d7f1),
    ("backsolve", (8, 4, 4, 2, 5940), 0x77dc4c57527fa6e4),
    ("syrk", (6, 6, 6, 2, 11220), 0x749eb410a516ab08),
    ("jacobi2d", (10, 10, 10, 2, 17640), 0x970c2d00614f1e28),
    ("tensor_contract", (12, 4, 4, 2, 4193280), 0xe9760d1e4746c690),
    ("gauss_seidel_1d", (6, 0, 0, 0, 0), 0x883a2d56959fbd14),
];

fn search(kernel: &str, threads: usize) -> SearchOutcome {
    let entry = find(kernel).expect(kernel);
    let (width, probe_n) = entry.search.expect("a search row");
    let cfg = SearchConfig {
        width,
        ..Default::default()
    };
    let init = entry.init(&entry.params(probe_n), 3);
    let _t = par::with_threads(threads);
    auto_search(&(entry.build)(), &cfg, probe_n, init, Mode::Memoized)
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn search_rows_match_recorded_goldens() {
    for (kernel, counts, report_hash) in ROWS {
        for threads in [1, 8] {
            let out = search(kernel, threads);
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
    for (kernel, ..) in ROWS {
        assert_eq!(
            search(kernel, 1).report,
            search(kernel, 8).report,
            "{kernel}"
        );
    }
}
