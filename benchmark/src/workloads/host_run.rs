//! `host_run`: does the blocking the system picks win on real hardware?
//!
//! For five registry kernels at sizes whose arrays reach or exceed the
//! 2 MiB per-core L2, the input code and the code `pipeline::auto_search`
//! selects (read back out of its report) are both built by `rustc -O`
//! through the native tier's content-addressed cache (a fresh, empty
//! cache directory per set-up) and run un-traced through
//! `NativeKernel::run`, alternating variants within the round. Only
//! `exec::native` and the emitter behind it matter here, so emission or
//! dispatch work shows on this workload and nowhere else, and a search
//! change that selects different code shows in `gain_geomean` (input
//! lower-decile time ÷ blocked lower-decile time, per kernel). Without
//! `rustc` every operation counts as failed: there is no silent
//! fallback to the bytecode tier.
//!
//! On the host this was sized on (Xeon, 48 KiB L1d, 2 MiB L2, a very
//! large shared L3) blocked and input code tie within ±6 % at sizes
//! whose leading dimension is not a multiple of 256 elements, whatever
//! the array size: the hardware prefetchers hide the strides. The three
//! O(N²)-array kernels therefore run at N = 512 and the two O(N)-work
//! ones at 768, where column walks collide in the L1 sets and blocking
//! visibly pays (syrk 1.66×, cholesky_right 1.45×, jacobi2d 1.40×) or
//! visibly does not (gauss 0.94×: the selected blocking loses; it stays
//! in as the row that keeps the geometric mean honest).

use super::{RoundOut, Scale, Workload};
use crate::reference::{params, tree_equivalent, winner_program, InitFn};
use crate::stats::{self, SplitMix};
use shackle_core::search::SearchConfig;
use shackle_exec::native::{self, rustc_available, NativeKernel};
use shackle_exec::verify::{hash_init, spd_init};
use shackle_exec::{execute, NullObserver, Workspace};
use shackle_ir::emit::{emit_with, Dialect, EmitOptions};
use shackle_ir::{kernels, Program};
use shackle_kernels::{cholesky, gauss, stencil, syrk, trisolve, Mat};
use shackle_polyhedra::cache;
use shackle_serve::pipeline::{auto_search, Mode};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Block width the search is asked for: three 16×16 blocks of doubles
/// (6 KB) fit the 8 KB probe cache the search scores on, so its exact
/// scoring tells the candidates apart.
const WIDTH: i64 = 16;
/// Problem size the search scores candidates at: three blocks a side.
const PROBE_N: i64 = 48;
/// Size at which native output is checked against the tree interpreter
/// (the semantics of record is too slow for the timed sizes).
const REDUCED_N: i64 = 40;

/// One registry kernel and how to run it.
struct Spec {
    name: &'static str,
    program: fn() -> Program,
    /// Timed problem size.
    n: i64,
    /// The square array that must be diagonally dominant, if any.
    spd: Option<&'static str>,
}

#[rustfmt::skip]
static SPECS: [Spec; 5] = [
    Spec { name: "syrk", program: kernels::syrk, n: 512, spd: None },
    Spec { name: "jacobi2d", program: kernels::jacobi2d, n: 768, spd: None },
    Spec { name: "cholesky_right", program: kernels::cholesky_right, n: 512, spd: Some("A") },
    Spec { name: "gauss", program: kernels::gauss, n: 512, spd: Some("A") },
    Spec { name: "backsolve", program: kernels::backsolve, n: 768, spd: Some("U") },
];

impl Spec {
    fn init(&self, n: i64, seed: u64) -> InitFn {
        match self.spd {
            Some(array) => Box::new(spd_init(array, n as usize, seed)),
            None => Box::new(hash_init(seed)),
        }
    }
}

/// The hand-written `shackle-kernels` routine for `name`, applied to a
/// copy of `ws`: the reference at the timed size, independent of the
/// IR, the emitter and the search.
fn hand_reference(name: &str, ws: &Workspace) -> Workspace {
    let mat = |array: &str| {
        let a = ws.array(array).expect("declared array");
        let mut m = Mat::zeros(a.dims()[0], a.dims()[1]);
        m.data_mut().copy_from_slice(a.data());
        m
    };
    let mut out = ws.clone();
    let mut store = |array: &str, data: &[f64]| {
        out.array_mut(array)
            .expect("declared array")
            .data_mut()
            .copy_from_slice(data);
    };
    match name {
        "syrk" => {
            let mut c = mat("C");
            syrk::syrk_pointwise(&mut c, &mat("A"));
            store("C", c.data());
        }
        "cholesky_right" => {
            let mut a = mat("A");
            cholesky::cholesky_pointwise(&mut a);
            store("A", a.data());
        }
        "gauss" => {
            let mut a = mat("A");
            gauss::gauss_pointwise(&mut a);
            store("A", a.data());
        }
        "jacobi2d" => {
            let mut v = mat("V");
            stencil::jacobi2d_pointwise(&mut v, &mat("U"));
            store("V", v.data());
        }
        "backsolve" => {
            let mut x = ws.array("X").expect("declared array").data().to_vec();
            trisolve::backsolve_pointwise(&mut x, &mat("U"));
            store("X", &x);
        }
        other => panic!("no hand-written reference for `{other}`"),
    }
    out
}

/// Fingerprint of a workspace's contents, a word at a time.
fn workspace_hash(mut h: u64, ws: &Workspace) -> u64 {
    for (_, a) in ws.iter() {
        for v in a.data() {
            h = (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn workspace_bytes(ws: &Workspace) -> usize {
    ws.iter().map(|(_, a)| a.len() * 8).sum()
}

/// One (kernel, variant) item: a live native runner and its inputs.
struct Variant {
    name: String,
    spec: &'static Spec,
    blocked: bool,
    kernel: NativeKernel,
    inputs: Workspace,
    params: BTreeMap<String, i64>,
    /// Workspace fingerprint a correct run leaves behind.
    expected: u64,
    flops: u64,
    instances: u64,
    /// Bytes of the production Rust emitted for this variant.
    emit_bytes: u64,
}

pub struct HostRun {
    variants: Vec<Variant>,
    order: Vec<usize>,
    checks: (u64, u64),
    seed: u64,
    cache_dir: PathBuf,
    rustc_invocations: u64,
}

/// What the search selects for `input`: the product's own
/// `auto_search`, its winner read back out of the report.
fn selected_blocking(spec: &Spec, input: &Program, seed: u64) -> Option<Program> {
    let cfg = SearchConfig {
        width: WIDTH,
        ..Default::default()
    };
    let found = auto_search(
        input,
        &cfg,
        PROBE_N,
        spec.init(PROBE_N, seed),
        Mode::Memoized,
    );
    Some(winner_program(input, &found.report)?.with_name(format!("{}-blocked", input.name())))
}

impl HostRun {
    pub fn set_up(seed: u64, scale: Scale, dir: &Path) -> Self {
        cache::clear_cache();
        let cache_dir = dir.join("native-cache");
        let specs = match scale {
            Scale::Full => &SPECS[..],
            Scale::Reduced => &SPECS[..2],
        };
        let mut this = HostRun {
            variants: Vec::new(),
            order: Vec::new(),
            checks: (0, 0),
            seed,
            cache_dir,
            rustc_invocations: 0,
        };
        if !rustc_available() {
            eprintln!("host_run: rustc is missing: every operation counts as failed");
            this.checks = (specs.len() as u64 * 2, specs.len() as u64 * 2);
            return this;
        }
        for spec in specs {
            let input = (spec.program)();
            let Some(blocked) = selected_blocking(spec, &input, seed) else {
                eprintln!("host_run: {}: the search selected nothing", spec.name);
                this.checks = (this.checks.0 + 4, this.checks.1 + 4);
                continue;
            };

            // inputs and the reference output at the timed size
            let init = spec.init(spec.n, seed);
            let inputs = Workspace::for_program(&input, &params(spec.n), &init);
            let expected = workspace_hash(stats::FNV_OFFSET, &hand_reference(spec.name, &inputs));

            for (program, is_blocked) in [(input.clone(), false), (blocked, true)] {
                let label = if is_blocked { "blocked" } else { "input" };
                let name = format!("{}/{label}", spec.name);
                this.checks.0 += 2;
                match this.build_variant(spec, name.clone(), program, is_blocked, &inputs, expected)
                {
                    Ok((v, failed)) => {
                        this.checks.1 += failed;
                        this.variants.push(v);
                    }
                    Err(e) => {
                        eprintln!("host_run: {name}: {e}");
                        this.checks.1 += 2;
                    }
                }
            }
        }
        this.order = (0..this.variants.len()).collect();
        SplitMix(seed).shuffle(&mut this.order);
        this
    }

    /// Build and spawn one variant, and check it twice: against the
    /// tree interpreter at the reduced size (bit-identical workspace)
    /// and against the hand-written reference at the timed size.
    fn build_variant(
        &mut self,
        spec: &'static Spec,
        name: String,
        program: Program,
        blocked: bool,
        inputs: &Workspace,
        expected: u64,
    ) -> Result<(Variant, u64), native::NativeError> {
        // the code a user of the emitter gets, for its size; the
        // native tier emits its own instrumented runner inside build_in
        let emit_bytes = {
            let _span = shackle_probe::span("ir.emit");
            let production = EmitOptions {
                trace: false,
                counters: false,
            };
            emit_with(&program, Dialect::Rust, production).len() as u64
        };
        let outcome = native::build_in(&self.cache_dir, &program)?;
        self.rustc_invocations += u64::from(!outcome.cache_hit);
        let mut kernel = {
            // spawn_in builds again: a cache hit, nested under this span
            let _span = shackle_probe::span("exec.native_spawn");
            NativeKernel::spawn_in(&self.cache_dir, &program)?
        };

        let mut failed = 0;
        let small = params(REDUCED_N);
        let small_init = spec.init(REDUCED_N, self.seed);
        let mut native_ws = Workspace::for_program(&program, &small, &small_init);
        kernel.run(&mut native_ws, &small)?;
        let mut tree_ws = Workspace::for_program(&program, &small, &small_init);
        execute(&(spec.program)(), &mut tree_ws, &small, &mut NullObserver);
        if native_ws != tree_ws {
            eprintln!("host_run: {name}: differs from the tree interpreter at N={REDUCED_N}");
            failed += 1;
        }
        if blocked && !tree_equivalent(&(spec.program)(), &program, &small, &small_init) {
            eprintln!(
                "host_run: {name}: blocked code is not equivalent under the tree interpreter"
            );
            failed += 1;
        }

        let timed = params(spec.n);
        let mut ws = inputs.clone();
        let run = kernel.run(&mut ws, &timed)?;
        if workspace_hash(stats::FNV_OFFSET, &ws) != expected {
            eprintln!(
                "host_run: {name}: differs from the hand-written reference at N={}",
                spec.n
            );
            failed += 1;
        }
        Ok((
            Variant {
                name,
                spec,
                blocked,
                kernel,
                inputs: inputs.clone(),
                params: timed,
                expected,
                flops: run.flops,
                instances: run.instances,
                emit_bytes,
            },
            failed,
        ))
    }
}

impl Workload for HostRun {
    fn item_names(&self) -> Vec<String> {
        self.variants.iter().map(|v| v.name.clone()).collect()
    }

    fn round(&mut self) -> RoundOut {
        let mut out = RoundOut::empty(self.variants.len());
        if self.variants.is_empty() {
            // rustc missing, or nothing built: the round is one failure
            out.attempted = 1;
            out.failed = 1;
            return out;
        }
        for &i in &self.order {
            let v = &mut self.variants[i];
            let mut ws = v.inputs.clone();
            let start = Instant::now();
            let ran = v.kernel.run(&mut ws, &v.params);
            out.item_s[i] = start.elapsed().as_secs_f64();
            out.round_s += out.item_s[i];
            let hash = workspace_hash(stats::FNV_OFFSET, &ws);
            out.hash = stats::fnv1a(out.hash, &hash.to_le_bytes());
            out.attempted += 1;
            out.failed += u64::from(ran.is_err() || hash != v.expected);
        }
        out
    }

    fn setup_checks(&self) -> (u64, u64) {
        self.checks
    }

    /// Mflop/s of the blocked variants: the paper's MFlops axis.
    fn work_per_s(&self, _round_lo_s: f64, item_lo_s: &[f64]) -> f64 {
        let blocked = || {
            self.variants
                .iter()
                .zip(item_lo_s)
                .filter(|(v, _)| v.blocked)
        };
        let mflop: f64 = blocked().map(|(v, _)| v.flops as f64 / 1e6).sum();
        let seconds: f64 = blocked().map(|(_, s)| s).sum();
        mflop / seconds
    }

    fn gains(&self, item_lo_s: &[f64]) -> Vec<f64> {
        let lo_of = |kernel: &str, blocked: bool| {
            self.variants
                .iter()
                .zip(item_lo_s)
                .find(|(v, _)| v.blocked == blocked && v.spec.name == kernel)
                .map(|(_, &s)| s)
        };
        SPECS
            .iter()
            .filter_map(|s| Some(lo_of(s.name, false)? / lo_of(s.name, true)?))
            .collect()
    }

    fn facts(&self) -> Vec<(&'static str, f64)> {
        let sum = |f: fn(&Variant) -> u64| self.variants.iter().map(f).sum::<u64>() as f64;
        vec![
            ("variants", self.variants.len() as f64),
            ("rustc_invocations", self.rustc_invocations as f64),
            ("flops", sum(|v| v.flops)),
            ("instances", sum(|v| v.instances)),
            ("emit_bytes", sum(|v| v.emit_bytes)),
            // computed bytes: every array goes down the pipe and comes
            // back
            (
                "pipe_mb",
                2.0 * sum(|v| workspace_bytes(&v.inputs) as u64) / 1e6,
            ),
        ]
    }
}
