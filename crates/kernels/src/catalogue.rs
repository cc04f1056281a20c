//! The kernel catalogue: every fact about a kernel that more than one
//! consumer needs, declared once.
//!
//! One [`Entry`] per [`shackle_ir::kernels::all`] builder: its CLI
//! alias, its extra parameters, the initializer that keeps it
//! numerically well-posed, its canonical shackles (the [`shackles`] of
//! the paper's experiments) and the row the search report scores it at.
//! The CLI, the search goldens (`tests/search_identity.rs`) and the
//! cross-crate differential tests all iterate [`catalogue`]; *which*
//! kernels a test runs at *which* sizes stays with the test as a list
//! of names. The catalogue is derived from the `ir` registry, so a
//! builder added there without a row here panics — naming the kernel —
//! in every consumer, rather than silently missing from some of them.

use crate::{gen, shackles};
use shackle_core::Shackle;
use shackle_exec::verify;
use shackle_ir::{kernels, Program};
use std::collections::BTreeMap;

/// A boxed workspace initializer (`(array name, indices) -> value`).
pub type Init = Box<dyn Fn(&str, &[usize]) -> f64 + Sync>;

/// A canonical shackle: `(program, block width) -> product factors`.
pub type ShackleFn = fn(&Program, i64) -> Vec<Shackle>;

type Params = BTreeMap<String, i64>;

/// A parameter beside `N`: its name and its value as a function of `N`.
type ExtraParam = (&'static str, fn(i64) -> i64);

/// What the harnesses know about one kernel.
#[derive(Clone, Copy)]
pub struct Entry {
    /// The [`shackle_ir::kernels::all`] key.
    pub name: &'static str,
    /// The historical CLI short name (`matmul`, `cholesky`, `qr`, …);
    /// equal to `name` where there never was one.
    pub alias: &'static str,
    /// The IR builder.
    pub build: fn() -> Program,
    /// The canonical single shackle, if the kernel has one.
    pub single: Option<ShackleFn>,
    /// The canonical Cartesian product, if the kernel has one.
    pub product: Option<ShackleFn>,
    /// `(block width, probe size)` of the kernel's search-report row.
    /// `None` where the single-`N` automatic search does not apply: QR
    /// and ADI need hand-built dummy references, banded Cholesky a
    /// second parameter.
    pub search: Option<(i64, i64)>,
    extra: Option<ExtraParam>,
    make_init: fn(&Params, u64) -> Init,
}

impl Entry {
    /// The kernel's parameters at problem size `n`: `N`, plus the
    /// half-bandwidth `P = max(n/4, 1)` for banded Cholesky and the
    /// sweep count `S = 2` for Gauss–Seidel (callers that vary them
    /// overwrite the value afterwards).
    pub fn params(&self, n: i64) -> Params {
        let mut params = BTreeMap::from([("N".to_string(), n)]);
        if let Some((name, value)) = self.extra {
            params.insert(name.to_string(), value(n));
        }
        params
    }

    /// The initializer that keeps the kernel well-posed at `params`:
    /// SPD matrices for the factorizations, divisors bounded away from
    /// zero for ADI and the back-solve, hashed values elsewhere.
    pub fn init(&self, params: &Params, seed: u64) -> Init {
        (self.make_init)(params, seed)
    }
}

fn hashed(_: &Params, seed: u64) -> Init {
    Box::new(verify::hash_init(seed))
}

fn spd(params: &Params, seed: u64) -> Init {
    Box::new(gen::spd_ws_init("A", params["N"] as usize, seed))
}

fn entry(name: &'static str, build: fn() -> Program) -> Entry {
    let plain = Entry {
        name,
        alias: name,
        build,
        single: None,
        product: None,
        search: None,
        extra: None,
        make_init: hashed,
    };
    match name {
        "matmul_ijk" => Entry {
            alias: "matmul",
            single: Some(shackles::matmul_c),
            product: Some(shackles::matmul_ca),
            // the smallest size whose 3·n² working set exceeds the
            // 8 KB probe cache
            search: Some((25, 24)),
            ..plain
        },
        "cholesky_right" => Entry {
            alias: "cholesky",
            single: Some(shackles::cholesky_writes),
            product: Some(shackles::cholesky_product),
            search: Some((16, 48)),
            make_init: spd,
            ..plain
        },
        "cholesky_left" => Entry {
            alias: "cholesky-left",
            single: Some(shackles::cholesky_writes),
            product: Some(shackles::cholesky_product),
            search: Some((16, 32)),
            make_init: spd,
            ..plain
        },
        "adi" => Entry {
            single: Some(|p, _| shackles::adi_storage_order(p)),
            make_init: |_, _| Box::new(verify::adi_init()),
            ..plain
        },
        "gauss" => Entry {
            single: Some(shackles::gauss_writes),
            product: Some(shackles::gauss_product),
            search: Some((16, 24)),
            make_init: spd,
            ..plain
        },
        "qr_householder" => Entry {
            alias: "qr",
            single: Some(shackles::qr_columns),
            ..plain
        },
        "banded_cholesky" => Entry {
            alias: "banded",
            single: Some(shackles::banded_writes),
            extra: Some(("P", |n| (n / 4).max(1))),
            make_init: |p, seed| {
                Box::new(gen::banded_ws_init(
                    "A",
                    p["N"] as usize,
                    p["P"] as usize,
                    seed,
                ))
            },
            ..plain
        },
        // the §8 reversed-cut-set search row
        "backsolve" => Entry {
            single: Some(shackles::backsolve_reversed),
            search: Some((16, 48)),
            make_init: |_, _| Box::new(verify::backsolve_init()),
            ..plain
        },
        // the negative search row: no legal shackle at all
        "gauss_seidel_1d" => Entry {
            alias: "gauss-seidel",
            search: Some((16, 32)),
            extra: Some(("S", |_| 2)),
            ..plain
        },
        "syrk" => Entry {
            product: Some(shackles::syrk_product),
            search: Some((16, 32)),
            ..plain
        },
        "jacobi2d" => Entry {
            product: Some(|p, w| shackles::jacobi2d_tiles(p, w, w)),
            search: Some((16, 48)),
            ..plain
        },
        // the partially-blocking search row; O(N⁴) work keeps it small
        "tensor_contract" => Entry {
            single: Some(|p, w| shackles::tensor_c(p, w, w)),
            search: Some((8, 16)),
            ..plain
        },
        other => panic!(
            "ir::kernels::{other} has no catalogue facts: add its row to \
             shackle_kernels::catalogue"
        ),
    }
}

/// Every kernel of [`shackle_ir::kernels::all`], in registry order.
///
/// # Panics
///
/// Panics, naming the kernel, if the registry holds a builder this
/// module has no facts for.
pub fn catalogue() -> Vec<Entry> {
    kernels::all()
        .into_iter()
        .map(|(name, build)| entry(name, build))
        .collect()
}

/// The entry whose name or CLI alias is `key`.
pub fn find(key: &str) -> Option<Entry> {
    catalogue()
        .into_iter()
        .find(|e| e.name == key || e.alias == key)
}
