//! Golden numbers for the one path from a running kernel to a simulated
//! miss: every producer of access streams (bytecode engine through
//! `trace_execution`, one execution fanned out into several caches,
//! band and block-major layouts, the two hand-written traced baselines)
//! against constants recorded at `3d81b98`. Tier-1 runs only the root
//! package, so this is where a changed address, a dropped access or a
//! reordered flop in `shackle-kernels` becomes visible to it.

use data_shackle::kernels::banded::{pbtrf_lapack, BandMat};
use data_shackle::kernels::qr::qr_wy;
use data_shackle::kernels::trace::{band_layout, block_major_address};
use data_shackle::prelude::*;
use std::collections::BTreeMap;

/// The probe hierarchy the search pipelines score on
/// (`shackle_serve::pipeline::PROBE_CACHE`, memory latency 60).
fn probe() -> Hierarchy {
    Hierarchy::new(
        &[CacheConfig {
            size: 8 * 1024,
            line: 128,
            assoc: 4,
            latency: 0,
        }],
        60,
    )
}

fn params(n: i64) -> BTreeMap<String, i64> {
    BTreeMap::from([("N".to_string(), n)])
}

/// (accesses, L1 misses, cycles)
fn seen(h: &Hierarchy) -> (u64, u64, u64) {
    (h.accesses(), h.level_stats()[0].misses, h.cycles())
}

fn bits(m: &data_shackle::kernels::Mat) -> Vec<u64> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

fn stats(instances: u64, loads: u64, stores: u64, flops: u64) -> ExecStats {
    ExecStats {
        instances,
        loads,
        stores,
        flops,
    }
}

#[test]
fn matmul_input_and_blocked() {
    let p = kernels::matmul_ijk();
    let mut h = probe();
    trace_execution(&p, &params(24), |_, _| 1.0, &mut h);
    assert_eq!(seen(&h), (55296, 1401, 84060));

    let blocked = generate_scanned(&p, &shackles::matmul_ca(&p, 8));
    let mut h = probe();
    trace_execution(&blocked, &params(24), |_, _| 1.0, &mut h);
    assert_eq!(seen(&h), (55296, 236, 14160));
}

#[test]
fn cholesky_product_live_and_replayed() {
    let p = kernels::cholesky_right();
    let blocked = generate_scanned(&p, &shackles::cholesky_product(&p, 8));
    let init = gen::spd_ws_init("A", 40, 3);
    let golden = stats(11480, 33580, 11480, 22140);

    let mut h = probe();
    assert_eq!(
        trace_execution(&blocked, &params(40), &init, &mut h),
        golden
    );
    assert_eq!(seen(&h), (45060, 76, 4560));

    // one execution fanned out into three standalone caches of one line
    // size, as `figures ablation_block_size` does per width (misses
    // recorded from the retired stack engine's pass over this trace)
    struct FanOut([Cache; 3]);
    impl AccessSink for FanOut {
        fn push(&mut self, addr: u64) {
            for c in &mut self.0 {
                c.access(addr);
            }
        }
    }
    let mut fan = FanOut([(2, 1), (8, 4), (32, 2)].map(|(kb, assoc)| {
        Cache::new(CacheConfig {
            size: kb * 1024,
            line: 128,
            assoc,
            latency: 0,
        })
    }));
    assert_eq!(
        trace_execution(&blocked, &params(40), &init, &mut fan),
        golden
    );
    let hit_miss = fan.0.map(|c| (c.stats().hits, c.stats().misses));
    assert_eq!(hit_miss, [(41837, 3223), (44984, 76), (44984, 76)]);
}

#[test]
fn cholesky_input_with_tlb() {
    let p = kernels::cholesky_right();
    let mut h = Hierarchy::sp2_thin_node().with_tlb(TlbConfig {
        page: 4096,
        entries: 4,
        miss_penalty: 30,
    });
    trace_execution(&p, &params(64), gen::spd_ws_init("A", 64, 3), &mut h);
    assert_eq!(seen(&h), (180896, 160, 105810));
    let tlb = h.tlb_stats().expect("TLB attached");
    assert_eq!((tlb.hits, tlb.misses), (177689, 3207));
    assert_eq!(h.tlb_walk_cycles(), 96210);
}

#[test]
fn banded_cholesky_through_band_storage() {
    let p = kernels::banded_cholesky();
    let blocked = generate_scanned(&p, &shackles::banded_writes(&p, 8));
    let (n, bw) = (48usize, 6usize);
    let params = BTreeMap::from([("N".to_string(), n as i64), ("P".to_string(), bw as i64)]);
    let init = gen::banded_ws_init("A", n, bw, 19);
    let mut h = probe();
    let layout = band_layout("A", n, bw, AddressMap::for_program(&blocked, &params, 128));
    let ran = trace_layout(&blocked, &params, &init, layout, &mut h);
    assert_eq!(ran, stats(1232, 3333, 1232, 2149));
    assert_eq!(seen(&h), (4565, 21, 1260));
}

#[test]
fn pbtrf_lapack_baseline() {
    let dense = gen::random_banded_spd(48, 6, 19);
    let mut h = probe();
    let mut band = BandMat::from_dense(&dense, 6);
    let run = traced::pbtrf_lapack_traced(&mut band, 7, &mut h);
    assert_eq!(seen(&h), (2617, 21, 1260));
    assert_eq!(run.flops, 2149);

    let mut plain = BandMat::from_dense(&dense, 6);
    pbtrf_lapack(&mut plain, 7);
    assert_eq!(
        bits(&plain.to_dense_lower()),
        bits(&band.to_dense_lower()),
        "one body: untraced and traced agree bit for bit"
    );
}

#[test]
fn qr_wy_baseline() {
    let a0 = gen::random_mat(40, 40, 13);
    let mut h = probe();
    let mut a = a0.clone();
    let run = traced::qr_wy_traced(&mut a, 8, &mut h);
    assert_eq!(seen(&h), (120432, 252, 15120));
    assert_eq!(run.flops, 100608);
    assert_eq!(a.data()[0].to_bits(), 0x40104c576f1374be);
    assert_eq!(a.data()[1599].to_bits(), 0xbfe581a9cd481ef4);

    let mut plain = a0;
    qr_wy(&mut plain, 8);
    assert_eq!(
        bits(&plain),
        bits(&a),
        "one body: untraced and traced agree bit for bit"
    );
}

#[test]
fn block_major_reshaping_removes_the_conflict_cliff() {
    // `ablation_layout`'s mapping: all three arrays block-major(16) in
    // regions 8 MiB apart
    let (n, b) = (64usize, 16usize);
    let p = kernels::matmul_ijk();
    let blocked = generate_scanned(&p, &shackles::matmul_ca(&p, b as i64));
    let init = verify::hash_init(9);

    let mut h = probe();
    trace_execution(&blocked, &params(n as i64), &init, &mut h);
    assert_eq!(seen(&h), (1048576, 152832, 9169920));

    let block_major = |a: &Access<'_>| {
        let region: u64 = match a.array {
            "C" => 0,
            "A" => 8 << 20,
            _ => 16 << 20,
        };
        region + block_major_address(n, b, a.offset % n, a.offset / n)
    };
    let mut h = probe();
    trace_layout(&blocked, &params(n as i64), &init, block_major, &mut h);
    assert_eq!(seen(&h), (1048576, 2304, 138240));
}
