//! The analytical predictor's scores are pinned bit for bit.
//!
//! `shackle_model::predict` ranks thousands of grid candidates per
//! sweep, and the two-phase search breaks ties by candidate index — a
//! prediction that moves by one cycle can change which survivors get
//! simulated. Every floating-point operation of the predictor therefore
//! has a fixed order (DESIGN.md §4f), and this test holds it to that:
//! for every catalogue kernel with a search row, every shape of the
//! automatic search crossed with a dense width grid is predicted on a
//! one-level and a two-level cache stack, and the FNV-1a hash over every
//! field of every [`Prediction`] must equal the recorded golden.
//!
//! The goldens were recorded at commit `ae6a392`, the last one whose
//! predictor looked loop variables and arrays up by name.

use data_shackle::prelude::{predict, CacheConfig, KernelGeometry, Prediction};
use shackle_core::search::{grid_shapes, rect_width_grid, width_grid, SearchConfig};
use shackle_core::Shackle;
use shackle_kernels::catalogue::catalogue;
use shackle_serve::pipeline::PROBE_CACHE;

const MEM_LATENCY: u64 = 60;
const SQUARE_WIDTHS: [i64; 8] = [2, 3, 4, 6, 8, 12, 16, 24];
const RECT_WIDTHS: [i64; 3] = [4, 8, 16];

/// A second level behind the probe cache: 64 KiB, 128-byte lines,
/// 4-way.
const L2: CacheConfig = CacheConfig {
    size: 64 * 1024,
    line: 128,
    assoc: 4,
    latency: 6,
};

/// `(kernel, candidates predicted, hash over both stacks)`.
#[rustfmt::skip]
const GOLDEN: [(&str, usize, u64); 9] = [
    ("cholesky_right", 487, 0xf9bae8fe22b3b9f1),
    ("cholesky_left", 487, 0x884268807bd6a434),
    ("gauss", 487, 0xbcefbae59594a602),
    ("matmul_ijk", 487, 0xe03950cc2c9c1178),
    ("backsolve", 203, 0xf1e33ba5db2f1dc5),
    ("syrk", 487, 0xc2a9c962a05e78d4),
    ("jacobi2d", 171, 0x90295f339441c6a5),
    ("tensor_contract", 35, 0x53b29d02b5cd232a),
    ("gauss_seidel_1d", 1, 0xeca8c2517bfbbf19),
];

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn hash_prediction(mut h: u64, p: &Prediction) -> u64 {
    h = fnv1a(h, &p.cycles.to_le_bytes());
    h = fnv1a(h, &p.accesses.to_le_bytes());
    for l in &p.levels {
        for field in [l.accesses, l.hits, l.misses] {
            h = fnv1a(h, &field.to_le_bytes());
        }
    }
    h
}

/// The kernel's candidate grid: the empty product (the daemon's `quote`
/// path), every search shape over the square width grid, and the shapes
/// with at most three cuts over the per-cut grid.
fn grid(program: &shackle_ir::Program, width: i64) -> Vec<Vec<Shackle>> {
    let forward = SearchConfig {
        width,
        ..Default::default()
    };
    let mut shapes = grid_shapes(program, &forward);
    if shapes.is_empty() {
        // the harnesses' retry: data flowing from high indices to low
        // (back-solve) needs reversed cut sets
        let reversed = SearchConfig {
            reversed_directions: true,
            ..forward
        };
        shapes = grid_shapes(program, &reversed);
    }
    let few_cuts: Vec<Vec<Shackle>> = shapes
        .iter()
        .filter(|s| s.iter().map(Shackle::coord_count).sum::<usize>() <= 3)
        .cloned()
        .collect();
    let mut out = vec![Vec::new()];
    out.extend(width_grid(program, &shapes, &SQUARE_WIDTHS));
    out.extend(rect_width_grid(program, &few_cuts, &RECT_WIDTHS));
    out
}

#[test]
fn predictions_match_recorded_goldens() {
    let mut got = Vec::new();
    for entry in catalogue() {
        let Some((width, probe_n)) = entry.search else {
            continue;
        };
        let program = (entry.build)();
        let geom = KernelGeometry::new(&program, &entry.params(probe_n));
        let candidates = grid(&program, width);
        let mut h = 0xcbf2_9ce4_8422_2325;
        for stack in [&[PROBE_CACHE][..], &[PROBE_CACHE, L2][..]] {
            for product in &candidates {
                h = hash_prediction(h, &predict(&geom, product, stack, MEM_LATENCY));
            }
        }
        got.push((entry.name, candidates.len(), h));
    }
    got.sort_unstable();
    let mut want = GOLDEN.to_vec();
    want.sort_unstable();
    assert_eq!(
        got,
        want,
        "a prediction moved; got:\n{}",
        got.iter()
            .map(|(k, n, h)| format!("    (\"{k}\", {n}, {h:#018x}),\n"))
            .collect::<String>()
    );
}
