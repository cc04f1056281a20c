//! Bridging executions into the cache simulator.
//!
//! Two independent decisions, one trait each: a [`Layout`] says *where*
//! an element access lands (a byte address), a
//! [`shackle_memsim::AccessSink`] says *who consumes* the address (a
//! cache, a hierarchy, a TLB).
//! [`Traced`] is the one [`Observer`] joining them. The paper keeps
//! what is blocked apart from where the data physically lives (§5.3,
//! §7's band-storage post-pass); so does this module: [`AddressMap`] is
//! the dense column-major layout, [`band_layout`] and
//! [`block_major_address`] are the two non-dense formulas, and any
//! `Fn(&Access) -> u64` is a layout too.

use shackle_exec::{Access, ExecStats, Observer};
use shackle_ir::Program;
use shackle_memsim::AccessSink;
use std::collections::BTreeMap;

/// What [`AddressMap::for_program`], [`trace_layout`] and
/// [`trace_execution`] panic on, as a `Result`: callers that must
/// refuse instead (the daemon) ask this first.
pub use shackle_exec::{array_extents, ExtentError};

/// Element size in bytes (`f64`).
pub const ELEM_BYTES: u64 = 8;

/// Where an element access lands: the byte address of `(array, offset)`.
pub trait Layout {
    /// Global byte address of an element access.
    fn address(&self, a: &Access<'_>) -> u64;
}

impl<F: Fn(&Access<'_>) -> u64> Layout for F {
    fn address(&self, a: &Access<'_>) -> u64 {
        self(a)
    }
}

/// Assigns base addresses to a program's arrays, in declaration order,
/// aligned to `align` bytes (use the largest cache line size). As a
/// [`Layout`] it is dense column-major storage: `base + 8·offset`, the
/// base found by [`Access::index`] — one indexed load per simulated
/// access, no name lookup.
#[derive(Clone, Debug)]
pub struct AddressMap {
    /// Array names and base addresses, both in declaration order.
    names: Vec<String>,
    bases: Vec<u64>,
}

impl AddressMap {
    /// Lay out the arrays of `program` with extents evaluated under
    /// `params`.
    ///
    /// # Panics
    ///
    /// Panics if `align` is zero, or with the
    /// [`shackle_exec::ExtentError`] message if a parameter is missing,
    /// an extent is non-positive or an array overflows.
    pub fn for_program(program: &Program, params: &BTreeMap<String, i64>, align: u64) -> Self {
        assert!(align > 0, "alignment must be positive");
        let extents = array_extents(program, params).unwrap_or_else(|e| panic!("{e}"));
        let mut names = Vec::new();
        let mut bases = Vec::new();
        let mut at = 0u64;
        for (decl, dims) in program.arrays().iter().zip(extents) {
            names.push(decl.name().to_string());
            bases.push(at);
            // `array_extents` bounds each array's bytes by `i64::MAX`;
            // the running sum of several is checked here
            at = dims
                .iter()
                .try_fold(ELEM_BYTES, |n, &d| n.checked_mul(d as u64))
                .and_then(|bytes| at.checked_add(bytes))
                .and_then(|end| end.checked_next_multiple_of(align))
                .expect("array layout overflows u64");
        }
        Self { names, bases }
    }

    /// Base address of an array.
    ///
    /// # Panics
    ///
    /// Panics for unknown arrays.
    pub fn base(&self, array: &str) -> u64 {
        let index = self
            .names
            .iter()
            .position(|n| n == array)
            .unwrap_or_else(|| panic!("no base address for array {array}"));
        self.bases[index]
    }
}

impl Layout for AddressMap {
    // `Traced<AddressMap, _>` is instantiated in the calling crate; without
    // the hint each access pays a cross-crate call on the simulation hot path
    #[inline]
    fn address(&self, a: &Access<'_>) -> u64 {
        debug_assert_eq!(
            self.names[a.index], a.array,
            "access index {} does not name array {}",
            a.index, a.array
        );
        self.bases[a.index] + a.offset as u64 * ELEM_BYTES
    }
}

/// The LAPACK lower-band storage layout for the `n × n` array `array`
/// with half-bandwidth `p` — the paper's §7 post-pass data
/// transformation for banded Cholesky ("only the bands in the matrix
/// are stored (in column order), rather than the entire input matrix").
///
/// Element `(i, j)` (0-based, `j ≤ i ≤ j + p`) maps to band address
/// `8·((i − j) + j·(p+1))`. Every other array keeps its own `dense`
/// base, shifted past the band, so no two arrays share a cache line.
///
/// The returned layout panics on an access to `array` outside the band.
pub fn band_layout(
    array: &str,
    n: usize,
    p: usize,
    dense: AddressMap,
) -> impl Fn(&Access<'_>) -> u64 {
    let array = array.to_string();
    let band_bytes = ((p + 1) * n) as u64 * ELEM_BYTES;
    let past_band = band_bytes.div_ceil(128) * 128;
    move |a: &Access<'_>| {
        if a.array == array {
            let i = a.offset % n;
            let j = a.offset / n;
            assert!(
                i >= j && i - j <= p,
                "banded code touched ({i},{j}) outside the band (p = {p})"
            );
            (((i - j) + j * (p + 1)) as u64) * ELEM_BYTES
        } else {
            past_band + dense.address(a)
        }
    }
}

/// The block-major byte address of element `(i, j)` (0-based) of an
/// `n × n` array stored as contiguous `b × b` blocks (column-major of
/// blocks, column-major within each block) — the §5.3 physical data
/// reshaping the paper mentions ("nothing prevents us from reshaping
/// the physical data array"; cf. its citations of
/// Anderson–Amarasinghe–Lam and Cierniak–Li). It makes a blocked
/// computation's working set contiguous and immune to the
/// leading-dimension set conflicts of column-major storage at unlucky
/// sizes.
pub fn block_major_address(n: usize, b: usize, i: usize, j: usize) -> u64 {
    let nb = n.div_ceil(b);
    let (bi, bj) = (i / b, j / b);
    let (ii, jj) = (i % b, j % b);
    let block = bj * nb + bi;
    ((block * b * b + jj * b + ii) as u64) * ELEM_BYTES
}

/// Addresses [`Traced`] stages before handing them to its sink.
const BATCH: usize = 4096;

/// The one [`Observer`] of this module: translates each access through
/// a [`Layout`] and hands the address to an [`AccessSink`]. It owns the
/// only batch between an engine and a cache: addresses are staged
/// 4096 at a time and delivered through
/// [`AccessSink::push_many`] — when the batch fills, and when the
/// observer is dropped. The sink is mutably borrowed until then, so
/// nothing can read it short of the last addresses.
pub struct Traced<'a, L: Layout, S: AccessSink + ?Sized> {
    layout: L,
    sink: &'a mut S,
    addrs: Vec<u64>,
}

impl<'a, L: Layout, S: AccessSink + ?Sized> Traced<'a, L, S> {
    /// Join a layout to a sink.
    pub fn new(layout: L, sink: &'a mut S) -> Self {
        Self {
            layout,
            sink,
            addrs: Vec::with_capacity(BATCH),
        }
    }

    fn flush(&mut self) {
        self.sink.push_many(&self.addrs);
        self.addrs.clear();
    }
}

impl<L: Layout, S: AccessSink + ?Sized> Observer for Traced<'_, L, S> {
    // the value-free tracer is instantiated over this type: `record` is
    // its innermost loop body
    #[inline]
    fn record(&mut self, a: Access<'_>) {
        self.addrs.push(self.layout.address(&a));
        if self.addrs.len() == BATCH {
            self.flush();
        }
    }
}

impl<L: Layout, S: AccessSink + ?Sized> Drop for Traced<'_, L, S> {
    fn drop(&mut self) {
        // not while unwinding: nobody reads the sink of a run that
        // panicked, and a sink that panics too would abort the process
        if !std::thread::panicking() {
            self.flush();
        }
    }
}

/// Walk the access stream of `program` under `params`
/// ([`shackle_exec::trace_compiled`]: no array is allocated and no
/// value computed — the stream of an affine program does not depend on
/// its data), every access translated by `layout` and delivered to
/// `sink`; returns the execution stats.
///
/// `init` is not read: it seeded the arrays of the engine that ran here
/// before the stream was walked value-free, and stays in the signature
/// for the callers that pass it.
pub fn trace_layout<S: AccessSink + ?Sized>(
    program: &Program,
    params: &BTreeMap<String, i64>,
    _init: impl Fn(&str, &[usize]) -> f64,
    layout: impl Layout,
    sink: &mut S,
) -> ExecStats {
    let mut obs = Traced::new(layout, sink);
    shackle_exec::trace_compiled(program, params, &mut obs)
}

/// [`trace_layout`] with the standard dense [`AddressMap`] (128-byte
/// aligned) — cycles accumulate in a hierarchy sink, misses in a
/// standalone cache. Convenience for the figure harnesses.
pub fn trace_execution<S: AccessSink + ?Sized>(
    program: &Program,
    params: &BTreeMap<String, i64>,
    init: impl Fn(&str, &[usize]) -> f64,
    sink: &mut S,
) -> ExecStats {
    let map = AddressMap::for_program(program, params, 128);
    trace_layout(program, params, init, map, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shackle_exec::Workspace;
    use shackle_ir::kernels;
    use shackle_memsim::Hierarchy;

    fn params(n: i64) -> BTreeMap<String, i64> {
        BTreeMap::from([("N".to_string(), n)])
    }

    /// A load of `program`'s array `array`, indexed as the exec tiers
    /// index it: by declaration order.
    fn read<'a>(program: &Program, array: &'a str, offset: usize) -> Access<'a> {
        let index = program
            .arrays()
            .iter()
            .position(|d| d.name() == array)
            .expect("array declared");
        Access {
            array,
            index,
            offset,
            write: false,
        }
    }

    #[test]
    fn address_map_is_aligned_and_disjoint() {
        let p = kernels::matmul_ijk();
        let m = AddressMap::for_program(&p, &params(10), 128);
        let c = m.base("C");
        let a = m.base("A");
        let b = m.base("B");
        let mut v = [c, a, b];
        v.sort_unstable();
        assert!(v[1] - v[0] >= 800);
        assert!(v[2] - v[1] >= 800);
        assert_eq!(a % 128, 0);
        assert_eq!(m.address(&read(&p, "C", 3)), c + 24);
    }

    #[test]
    fn indexed_address_equals_named_base_plus_offset() {
        for (name, build) in kernels::all() {
            let p = build();
            let params = BTreeMap::from([
                ("N".to_string(), 6),
                ("P".to_string(), 2),
                ("S".to_string(), 2),
            ]);
            let m = AddressMap::for_program(&p, &params, 128);
            for (index, decl) in p.arrays().iter().enumerate() {
                let a = Access {
                    array: decl.name(),
                    index,
                    offset: 5,
                    write: true,
                };
                assert_eq!(
                    m.address(&a),
                    m.base(decl.name()) + 5 * ELEM_BYTES,
                    "{name}: {}",
                    decl.name()
                );
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not name array")]
    fn index_naming_another_array_trips_the_debug_assert() {
        let p = kernels::matmul_ijk();
        let m = AddressMap::for_program(&p, &params(4), 128);
        // C is declared first; index 1 is A
        m.address(&Access {
            array: "C",
            index: 1,
            offset: 0,
            write: false,
        });
    }

    #[test]
    fn traced_matmul_touches_memory() {
        let p = kernels::matmul_ijk();
        let mut h = Hierarchy::sp2_thin_node();
        let stats = trace_execution(&p, &params(8), |_, _| 1.0, &mut h);
        assert_eq!(stats.instances, 512);
        // every load/store reached the hierarchy
        assert_eq!(h.accesses(), stats.loads + stats.stores);
        assert!(h.level_stats()[0].misses > 0);
    }

    /// A sink that keeps what it is given, and how it was given.
    #[derive(Default)]
    struct Kept {
        addrs: Vec<u64>,
        batches: Vec<usize>,
    }
    impl AccessSink for Kept {
        fn push(&mut self, addr: u64) {
            self.push_many(&[addr]);
        }
        fn push_many(&mut self, addrs: &[u64]) {
            self.addrs.extend_from_slice(addrs);
            self.batches.push(addrs.len());
        }
    }

    #[test]
    fn a_run_that_does_not_fill_its_last_batch_arrives_complete_and_in_order() {
        // 4 accesses × 11³ = 5324: one full batch and a partial one that
        // only the drop flush delivers
        let p = kernels::matmul_ijk();
        let params = params(11);
        let map = AddressMap::for_program(&p, &params, 128);

        // what the tree interpreter reports, access by access
        struct Addresses(AddressMap, Vec<u64>);
        impl Observer for Addresses {
            fn record(&mut self, a: Access<'_>) {
                self.1.push(self.0.address(&a));
            }
        }
        let mut tree = Addresses(map.clone(), Vec::new());
        let mut ws = Workspace::for_program(&p, &params, |_, _| 1.0);
        let stats = shackle_exec::execute(&p, &mut ws, &params, &mut tree);
        assert_ne!(tree.1.len() % BATCH, 0, "the case needs a partial batch");

        let mut kept = Kept::default();
        let traced = trace_layout(&p, &params, |_, _| 1.0, map, &mut kept);
        assert_eq!(traced, stats);
        assert_eq!(kept.batches, [BATCH, tree.1.len() - BATCH]);
        assert_eq!(kept.addrs, tree.1);
    }

    #[test]
    fn traced_delivers_per_access_observers_too() {
        // the tree interpreter records one access at a time through the
        // same `Traced`: the hierarchy ends up where the value-free
        // walk puts it
        let p = kernels::matmul_ijk();
        let params = params(10);
        let map = AddressMap::for_program(&p, &params, 128);

        let mut h_tree = Hierarchy::sp2_thin_node();
        let mut ws = Workspace::for_program(&p, &params, |_, _| 1.0);
        shackle_exec::execute(
            &p,
            &mut ws,
            &params,
            &mut Traced::new(map.clone(), &mut h_tree),
        );

        let mut h_walk = Hierarchy::sp2_thin_node();
        trace_layout(&p, &params, |_, _| 1.0, map, &mut h_walk);

        assert_eq!(h_tree.cycles(), h_walk.cycles());
        assert_eq!(h_tree.accesses(), h_walk.accesses());
        assert_eq!(h_tree.level_stats(), h_walk.level_stats());
    }

    fn banded_params(n: i64, p: i64) -> BTreeMap<String, i64> {
        BTreeMap::from([("N".to_string(), n), ("P".to_string(), p)])
    }

    #[test]
    fn band_layout_maps_into_band_storage() {
        let p = kernels::banded_cholesky();
        let (n, bw) = (12usize, 3usize);
        let params = banded_params(n as i64, bw as i64);
        let mut h = Hierarchy::sp2_thin_node();
        let init = crate::gen::banded_ws_init("A", n, bw, 1);
        let layout = band_layout("A", n, bw, AddressMap::for_program(&p, &params, 128));
        let stats = trace_layout(&p, &params, &init, layout, &mut h);
        // band storage is tiny: (p+1)*n elements = 48; all accesses land
        // inside it, so the cold-miss count is bounded by its lines
        assert!(stats.instances > 0);
        assert!(h.level_stats()[0].misses <= 4);
    }

    #[test]
    #[should_panic(expected = "outside the band")]
    fn band_layout_rejects_out_of_band() {
        let p = kernels::banded_cholesky();
        let dense = AddressMap::for_program(&p, &banded_params(10, 2), 128);
        // dense offset of (8, 1) 0-based: i=8, j=1, |i-j| = 7 > 2
        band_layout("A", 10, 2, dense).address(&read(&p, "A", 8 + 10));
    }

    #[test]
    fn band_layout_keeps_other_arrays_apart() {
        // two arrays besides the banded one: the band and both dense
        // regions must be pairwise disjoint (one shared base past the
        // band would alias X and Y line for line)
        let (n, bw) = (8usize, 2usize);
        let p = shackle_ir::parse::parse(
            "program three\nparam N\narray A(N, N)\narray X(N)\narray Y(N)\n\n\
             do I = 1 .. N\n  S1: X[I] = A[I, I] + Y[I]\n",
        )
        .expect("parses");
        let dense = AddressMap::for_program(&p, &params(n as i64), 128);
        let layout = band_layout("A", n, bw, dense);
        let span = |array: &str, offsets: Vec<usize>| {
            let addrs = offsets.iter().map(|&o| layout.address(&read(&p, array, o)));
            let lo = addrs.clone().min().expect("non-empty");
            (lo, addrs.max().expect("non-empty") + ELEM_BYTES)
        };
        let band = (0..n).flat_map(|j| (j..(j + bw + 1).min(n)).map(move |i| i + j * n));
        let mut spans = [
            span("A", band.collect()),
            span("X", (0..n).collect()),
            span("Y", (0..n).collect()),
        ];
        spans.sort_unstable();
        assert!(spans[0].1 <= spans[1].0, "{spans:?}");
        assert!(spans[1].1 <= spans[2].0, "{spans:?}");
    }

    #[test]
    fn block_major_addresses_are_a_bijection_within_blocks() {
        let at = |i, j| block_major_address(10, 4, i, j);
        let mut seen = std::collections::BTreeSet::new();
        for j in 0..10 {
            for i in 0..10 {
                assert!(seen.insert(at(i, j)), "duplicate at ({i},{j})");
            }
        }
        // elements of one block are contiguous
        let base = at(4, 4);
        assert_eq!(at(5, 4), base + 8);
        assert_eq!(at(4, 5), base + 32);
    }

    #[test]
    fn blocked_matmul_misses_less_on_tiny_cache() {
        use shackle_core::{scan::generate_scanned, Blocking, Shackle};
        let p = kernels::matmul_ijk();
        let sc = Shackle::on_writes(&p, Blocking::square("C", 2, &[0, 1], 8));
        let sa = Shackle::new(
            &p,
            Blocking::square("A", 2, &[0, 1], 8),
            vec![shackle_ir::ArrayRef::vars("A", &["I", "K"])],
        );
        let blocked = generate_scanned(&p, &[sc, sa]);
        let n = 48;
        // a cache that holds a few 8x8 blocks but not three 48x48
        // matrices
        let cfg = shackle_memsim::CacheConfig {
            size: 4096,
            line: 64,
            assoc: 4,
            latency: 1,
        };
        let mut h1 = shackle_memsim::Hierarchy::new(&[cfg], 60);
        let mut h2 = shackle_memsim::Hierarchy::new(&[cfg], 60);
        trace_execution(&p, &params(n), |_, _| 1.0, &mut h1);
        trace_execution(&blocked, &params(n), |_, _| 1.0, &mut h2);
        let (m1, m2) = (h1.level_stats()[0].misses, h2.level_stats()[0].misses);
        assert!(
            (m2 as f64) < 0.5 * m1 as f64,
            "blocked should at least halve misses: {m1} vs {m2}"
        );
    }
}
