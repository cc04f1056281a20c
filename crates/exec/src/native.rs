//! Native execution tier: `rustc`-compiled kernels behind a hash-keyed
//! build cache.
//!
//! The paper's premise is that a source-to-source blocking tool hands
//! its shackled output to a real compiler. This module closes that
//! loop: any legality-checked program is rendered with
//! [`shackle_ir::emit::emit_with`], compiled with `rustc -O` through a
//! **content-addressed build cache** (keyed by the FNV-1a hash of the
//! complete runner source plus the `rustc -V` string), and executed in
//! a **persistent runner process** that serves repeated run requests
//! over length-prefixed stdio frames — so per-run cost is pipe I/O
//! plus native execution, not process spawn.
//!
//! # Runner protocol
//!
//! Request (host → runner), all integers little-endian:
//!
//! ```text
//! u64 nparams         then nparams × i64 (program.params() order)
//! u64 narrays         then per array (declaration order):
//!                       u64 len, len × f64
//! ```
//!
//! Response (runner → host), two `u8 tag + u64 len + payload` frames:
//!
//! * tag 2 — per-statement instance counters: `len` = statement count,
//!   payload `len × u64`;
//! * tag 3 — array data: `len` = total element count, payload is every
//!   array's `f64` data concatenated in declaration order. Terminates
//!   the response.
//!
//! The runner loops until stdin reaches EOF, so one spawned process
//! serves any number of runs.
//!
//! # Observability without observation cost
//!
//! The kernel body never calls back into the host. Exact [`ExecStats`]
//! are reconstructed from the per-statement counters (`instances` and
//! `stores` are the counter sum; `loads`/`flops` weight each counter by
//! the statement's static load/flop count — the same accounting the
//! tree interpreter does incrementally). The tier only runs: every
//! access trace in the workspace comes from the bytecode engine
//! ([`crate::execute_compiled`] with an [`crate::Observer`]).

use crate::interp::count_flops;
use crate::{ExecStats, Workspace};
use shackle_ir::emit::{emit_with, Dialect, EmitOptions};
use shackle_ir::{Program, ScalarExpr};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::LazyLock;

static RUSTC_VERSION: LazyLock<Option<String>> = LazyLock::new(|| {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
});

static RUSTC_INVOCATIONS: LazyLock<&'static shackle_probe::Counter> =
    LazyLock::new(|| shackle_probe::counter("native.rustc_invocations"));
static CACHE_HITS: LazyLock<&'static shackle_probe::Counter> =
    LazyLock::new(|| shackle_probe::counter("native.cache_hits"));
static CACHE_MISSES: LazyLock<&'static shackle_probe::Counter> =
    LazyLock::new(|| shackle_probe::counter("native.cache_misses"));

/// Whether a working `rustc` is on `PATH` (checked once per process).
pub fn rustc_available() -> bool {
    RUSTC_VERSION.is_some()
}

/// Errors from the native tier.
#[derive(Debug)]
pub enum NativeError {
    /// `rustc` is not available in this environment.
    Unavailable,
    /// `rustc` rejected the generated kernel (its stderr inside).
    Build(String),
    /// An I/O failure talking to the cache or the runner process.
    Io(std::io::Error),
    /// The runner sent a malformed or truncated response.
    Protocol(String),
}

impl std::fmt::Display for NativeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NativeError::Unavailable => write!(f, "rustc is not available"),
            NativeError::Build(e) => write!(f, "rustc failed to build kernel: {e}"),
            NativeError::Io(e) => write!(f, "native runner I/O error: {e}"),
            NativeError::Protocol(e) => write!(f, "native runner protocol error: {e}"),
        }
    }
}

impl std::error::Error for NativeError {}

impl From<std::io::Error> for NativeError {
    fn from(e: std::io::Error) -> Self {
        NativeError::Io(e)
    }
}

/// FNV-1a 64-bit — stable, dependency-free content hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The canonical kernel hash: runner source content plus the compiler
/// identity, so a toolchain upgrade never serves stale binaries.
pub fn kernel_hash(source: &str) -> u64 {
    let rustc = RUSTC_VERSION.as_deref().unwrap_or("no-rustc");
    fnv1a(format!("{source}\x00{rustc}").as_bytes())
}

/// The default build-cache directory: `$SHACKLE_NATIVE_CACHE` when set,
/// otherwise `shackle-native-cache` under the system temp dir.
pub fn default_cache_dir() -> PathBuf {
    std::env::var_os("SHACKLE_NATIVE_CACHE")
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("shackle-native-cache"))
}

/// Result of a [`build`]: where the kernel binary lives and whether the
/// cache already had it.
#[derive(Clone, Debug)]
pub struct BuildOutcome {
    /// Path of the compiled runner binary.
    pub path: PathBuf,
    /// True when the binary was served from the cache without invoking
    /// `rustc`.
    pub cache_hit: bool,
    /// The canonical kernel hash the cache entry is keyed by.
    pub hash: u64,
}

/// Loads (array references on the RHS) of a scalar expression.
fn count_loads(e: &ScalarExpr) -> u64 {
    match e {
        ScalarExpr::Ref(_) => 1,
        ScalarExpr::Const(_) => 0,
        ScalarExpr::Add(a, b)
        | ScalarExpr::Sub(a, b)
        | ScalarExpr::Mul(a, b)
        | ScalarExpr::Div(a, b) => count_loads(a) + count_loads(b),
        ScalarExpr::Sqrt(a) | ScalarExpr::Neg(a) | ScalarExpr::Sign(a) => count_loads(a),
    }
}

/// Render the complete self-contained runner program for `program`:
/// the kernel with per-statement counters plus a `main` that serves run
/// requests over the stdio frame protocol until EOF.
pub fn runner_source(program: &Program) -> String {
    let plain = emit_with(
        program,
        Dialect::Rust,
        EmitOptions {
            trace: false,
            counters: true,
        },
    );
    let fn_name = program.name().replace('-', "_");
    let written: BTreeSet<&str> = program.stmts().iter().map(|s| s.write().array()).collect();

    let mut src = String::new();
    let _ = writeln!(
        src,
        "// Generated by data-shackle native tier for program `{}`.\n\
         use std::io::{{Read, Write}};\n",
        program.name()
    );
    let _ = writeln!(src, "mod plain {{\n{plain}}}\n");
    src.push_str(
        "fn read_u64(r: &mut impl Read) -> u64 {\n\
         \x20   let mut b = [0u8; 8];\n\
         \x20   r.read_exact(&mut b).unwrap();\n\
         \x20   u64::from_le_bytes(b)\n\
         }\n\n\
         fn main() {\n\
         \x20   let si = std::io::stdin();\n\
         \x20   let mut inp = std::io::BufReader::new(si.lock());\n",
    );
    let nstmts = program.stmts().len();
    let _ = writeln!(src, "    let mut cnt = vec![0u64; {nstmts}];");
    for i in 0..program.arrays().len() {
        let _ = writeln!(src, "    let mut arr{i}: Vec<f64> = Vec::new();");
    }
    src.push_str(
        "    loop {\n\
         \x20       let mut np = [0u8; 8];\n\
         \x20       if inp.read_exact(&mut np).is_err() { return; }\n\
         \x20       let np = u64::from_le_bytes(np) as usize;\n\
         \x20       let mut ps = vec![0i64; np];\n\
         \x20       for p in ps.iter_mut() {\n\
         \x20           let mut b = [0u8; 8];\n\
         \x20           inp.read_exact(&mut b).unwrap();\n\
         \x20           *p = i64::from_le_bytes(b);\n\
         \x20       }\n\
         \x20       let _na = read_u64(&mut inp);\n",
    );
    for i in 0..program.arrays().len() {
        let _ = writeln!(
            src,
            "        let len{i} = read_u64(&mut inp) as usize;\n\
             \x20       arr{i}.clear();\n\
             \x20       arr{i}.reserve(len{i});\n\
             \x20       {{\n\
             \x20           let mut bytes = vec![0u8; len{i} * 8];\n\
             \x20           inp.read_exact(&mut bytes).unwrap();\n\
             \x20           for c in bytes.chunks_exact(8) {{\n\
             \x20               arr{i}.push(f64::from_le_bytes(c.try_into().unwrap()));\n\
             \x20           }}\n\
             \x20       }}"
        );
    }
    src.push_str("        cnt.iter_mut().for_each(|c| *c = 0);\n");
    let mut call_args: Vec<String> = (0..program.params().len())
        .map(|i| format!("ps[{i}]"))
        .collect();
    for (i, a) in program.arrays().iter().enumerate() {
        if written.contains(a.name()) {
            call_args.push(format!("&mut arr{i}"));
        } else {
            call_args.push(format!("&arr{i}"));
        }
    }
    let args = call_args.join(", ");
    let _ = writeln!(src, "        plain::{fn_name}({args}, &mut cnt);");
    src.push_str(
        "        {\n\
         \x20           let so = std::io::stdout();\n\
         \x20           let mut o = so.lock();\n\
         \x20           o.write_all(&[2u8]).unwrap();\n\
         \x20           o.write_all(&(cnt.len() as u64).to_le_bytes()).unwrap();\n\
         \x20           for &c in cnt.iter() { o.write_all(&c.to_le_bytes()).unwrap(); }\n\
         \x20           o.write_all(&[3u8]).unwrap();\n",
    );
    let total: String = (0..program.arrays().len())
        .map(|i| format!("arr{i}.len()"))
        .collect::<Vec<_>>()
        .join(" + ");
    let _ = writeln!(
        src,
        "            o.write_all(&(({total}) as u64).to_le_bytes()).unwrap();"
    );
    for i in 0..program.arrays().len() {
        let _ = writeln!(
            src,
            "            {{\n\
             \x20               let mut bytes = Vec::with_capacity(arr{i}.len() * 8);\n\
             \x20               for &v in arr{i}.iter() {{ bytes.extend_from_slice(&v.to_le_bytes()); }}\n\
             \x20               o.write_all(&bytes).unwrap();\n\
             \x20           }}"
        );
    }
    src.push_str(
        "            o.flush().unwrap();\n\
         \x20       }\n\
         \x20   }\n\
         }\n",
    );
    src
}

/// Build `program`'s runner binary through the default cache directory
/// (see [`default_cache_dir`]).
pub fn build(program: &Program) -> Result<BuildOutcome, NativeError> {
    build_in(&default_cache_dir(), program)
}

/// Build `program`'s runner binary through an explicit cache directory.
///
/// A cache hit serves the existing binary without spawning `rustc`
/// (observable through the `native.cache_hits` /
/// `native.rustc_invocations` probe counters). Placement is atomic: the
/// binary is compiled in a scratch dir and renamed into its
/// content-addressed home, so concurrent builders race benignly.
pub fn build_in(cache_dir: &Path, program: &Program) -> Result<BuildOutcome, NativeError> {
    if !rustc_available() {
        return Err(NativeError::Unavailable);
    }
    let _phase = shackle_probe::span("native.build");
    let source = runner_source(program);
    let hash = kernel_hash(&source);
    let entry = cache_dir.join(format!("{hash:016x}"));
    let bin = entry.join("kernel");
    if bin.is_file() {
        CACHE_HITS.add(1);
        return Ok(BuildOutcome {
            path: bin,
            cache_hit: true,
            hash,
        });
    }
    CACHE_MISSES.add(1);
    let scratch = cache_dir.join(format!(".build-{hash:016x}-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)?;
    let src_path = scratch.join("kernel.rs");
    std::fs::write(&src_path, &source)?;
    RUSTC_INVOCATIONS.add(1);
    let out = Command::new("rustc")
        .arg("-O")
        .arg("--edition")
        .arg("2021")
        .arg("-o")
        .arg(scratch.join("kernel"))
        .arg(&src_path)
        .output()?;
    if !out.status.success() {
        let _ = std::fs::remove_dir_all(&scratch);
        return Err(NativeError::Build(
            String::from_utf8_lossy(&out.stderr).into_owned(),
        ));
    }
    match std::fs::rename(&scratch, &entry) {
        Ok(()) => {}
        Err(e) => {
            // Lost a race with a concurrent builder: their entry wins.
            let _ = std::fs::remove_dir_all(&scratch);
            if !bin.is_file() {
                return Err(NativeError::Io(e));
            }
        }
    }
    Ok(BuildOutcome {
        path: bin,
        cache_hit: false,
        hash,
    })
}

/// Static per-statement accounting used to reconstruct [`ExecStats`]
/// from the runner's instance counters.
#[derive(Clone, Copy, Debug)]
struct StmtCost {
    loads: u64,
    flops: u64,
}

/// A compiled kernel attached to its persistent runner process.
///
/// Spawn once, [`run`](NativeKernel::run) many times: each run sends
/// parameters and array contents down the pipe and reads the results
/// back, so repeated executions pay pipe I/O plus native speed — no
/// process spawn, no rustc.
#[derive(Debug)]
pub struct NativeKernel {
    child: Child,
    stdin: Option<BufWriter<ChildStdin>>,
    stdout: BufReader<ChildStdout>,
    /// Which cache entry backs this kernel.
    outcome: BuildOutcome,
    params: Vec<String>,
    arrays: Vec<String>,
    costs: Vec<StmtCost>,
}

impl NativeKernel {
    /// Build (through the default cache) and spawn the runner for
    /// `program`.
    pub fn spawn(program: &Program) -> Result<Self, NativeError> {
        Self::spawn_in(&default_cache_dir(), program)
    }

    /// Build through an explicit cache directory and spawn the runner.
    pub fn spawn_in(cache_dir: &Path, program: &Program) -> Result<Self, NativeError> {
        let outcome = build_in(cache_dir, program)?;
        let mut child = Command::new(&outcome.path)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        Ok(Self {
            child,
            stdin: Some(BufWriter::new(stdin)),
            stdout: BufReader::new(stdout),
            outcome,
            params: program.params().to_vec(),
            arrays: program
                .arrays()
                .iter()
                .map(|a| a.name().to_string())
                .collect(),
            costs: program
                .stmts()
                .iter()
                .map(|s| StmtCost {
                    loads: count_loads(s.rhs()),
                    flops: count_flops(s),
                })
                .collect(),
        })
    }

    /// The build outcome (cache path/hit/hash) behind this kernel.
    pub fn build_outcome(&self) -> &BuildOutcome {
        &self.outcome
    }

    fn send_request(
        &mut self,
        workspace: &Workspace,
        params: &BTreeMap<String, i64>,
    ) -> Result<(), NativeError> {
        let w = self
            .stdin
            .as_mut()
            .ok_or_else(|| NativeError::Protocol("runner stdin already closed".into()))?;
        w.write_all(&(self.params.len() as u64).to_le_bytes())?;
        for p in &self.params {
            let v = *params
                .get(p)
                .unwrap_or_else(|| panic!("missing parameter {p}"));
            w.write_all(&v.to_le_bytes())?;
        }
        w.write_all(&(self.arrays.len() as u64).to_le_bytes())?;
        for name in &self.arrays {
            let arr = workspace
                .array(name)
                .unwrap_or_else(|| panic!("unknown array {name}"));
            w.write_all(&(arr.len() as u64).to_le_bytes())?;
            let mut bytes = Vec::with_capacity(arr.len() * 8);
            for &v in arr.data() {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
            w.write_all(&bytes)?;
        }
        w.flush()?;
        Ok(())
    }

    fn read_frame(&mut self) -> Result<(u8, Vec<u8>), NativeError> {
        let mut tag = [0u8; 1];
        self.stdout.read_exact(&mut tag)?;
        let mut lenb = [0u8; 8];
        self.stdout.read_exact(&mut lenb)?;
        let len = u64::from_le_bytes(lenb) as usize;
        let mut payload = vec![0u8; len * 8];
        self.stdout.read_exact(&mut payload)?;
        Ok((tag[0], payload))
    }

    /// Read response frames until tag 3.
    fn read_response(&mut self) -> Result<Response, NativeError> {
        let mut counters = Vec::new();
        loop {
            let (tag, payload) = self.read_frame()?;
            match tag {
                2 => {
                    counters = payload
                        .chunks_exact(8)
                        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                        .collect();
                }
                3 => {
                    if counters.len() != self.costs.len() {
                        return Err(NativeError::Protocol(format!(
                            "expected {} statement counters, got {}",
                            self.costs.len(),
                            counters.len()
                        )));
                    }
                    return Ok(Response {
                        counters,
                        arrays: payload,
                    });
                }
                t => return Err(NativeError::Protocol(format!("unknown frame tag {t}"))),
            }
        }
    }

    /// Reconstruct exact [`ExecStats`] from the per-statement instance
    /// counters.
    fn stats_from_counters(&self, counters: &[u64]) -> ExecStats {
        let mut stats = ExecStats::default();
        for (cnt, cost) in counters.iter().zip(&self.costs) {
            stats.instances += cnt;
            stats.stores += cnt;
            stats.loads += cnt * cost.loads;
            stats.flops += cnt * cost.flops;
        }
        stats
    }

    /// Copy the returned array payload back into the workspace. Nothing
    /// is written until the whole response has been received, so a
    /// failed run leaves the workspace untouched.
    fn apply_arrays(&self, payload: &[u8], workspace: &mut Workspace) -> Result<(), NativeError> {
        let total: usize = self
            .arrays
            .iter()
            .map(|n| workspace.array(n).map_or(0, |a| a.len()))
            .sum();
        if payload.len() != total * 8 {
            return Err(NativeError::Protocol(format!(
                "array payload is {} bytes, expected {}",
                payload.len(),
                total * 8
            )));
        }
        let mut off = 0usize;
        for name in &self.arrays {
            let arr = workspace
                .array_mut(name)
                .unwrap_or_else(|| panic!("unknown array {name}"));
            for v in arr.data_mut() {
                let c: [u8; 8] = payload[off..off + 8].try_into().expect("8-byte chunk");
                *v = f64::from_le_bytes(c);
                off += 8;
            }
        }
        Ok(())
    }

    /// Execute once. Matches the tree interpreter bit-for-bit on array
    /// contents and exactly on [`ExecStats`].
    ///
    /// # Panics
    ///
    /// Panics on missing parameters or arrays, like the interpreters.
    pub fn run(
        &mut self,
        workspace: &mut Workspace,
        params: &BTreeMap<String, i64>,
    ) -> Result<ExecStats, NativeError> {
        let _phase = shackle_probe::span("native.run");
        self.send_request(workspace, params)?;
        let r = self.read_response()?;
        self.apply_arrays(&r.arrays, workspace)?;
        let stats = self.stats_from_counters(&r.counters);
        crate::publish_exec_stats(&stats);
        Ok(stats)
    }
}

/// One complete runner response: per-statement instance counters and
/// the raw array payload.
struct Response {
    counters: Vec<u64>,
    arrays: Vec<u8>,
}

impl Drop for NativeKernel {
    fn drop(&mut self) {
        // Closing stdin makes the runner's read loop hit EOF and exit.
        self.stdin.take();
        let _ = self.child.wait();
    }
}
