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
//! plus native execution, not process spawn — and keeps the read-only
//! inputs it was sent, so an input crosses the pipe once per content,
//! not once per run.
//!
//! # Runner protocol
//!
//! Request (host → runner), all integers little-endian:
//!
//! ```text
//! u64 nparams         then nparams × i64 (program.params() order)
//! u64 narrays         then per array (declaration order), either
//!                       u64 len, len × f64     (the data), or
//!                       u64 KEEP = u64::MAX    (keep what you hold)
//! ```
//!
//! A *keep* marker is sent only for an array no statement writes, and
//! only when the workspace's array carries the content stamp of the
//! data this runner was last sent for it (see
//! [`DenseArray`](crate::DenseArray): a clone keeps the stamp, the only
//! two mutators clear it, and stamps are never reused). The runner then
//! keeps its `Vec` from the previous run. That copy is exact because
//! the emitted kernel takes a read-only array as `&[f64]`: the compiler
//! guarantees the runner never changes what it was sent. The host keeps
//! only the stamp, no copy of the data. Written arrays are sent on
//! every run. A keep for an array the runner never received is a
//! protocol failure: the runner exits with status 2.
//!
//! Response (runner → host), two `u8 tag + u64 len + payload` frames of
//! `len` 8-byte words, in this order:
//!
//! * tag 2 — `len` = statement count + 1: the per-statement instance
//!   counters, then the nanoseconds the runner measured around the
//!   kernel call alone;
//! * tag 3 — `len` = total element count of **the arrays some statement
//!   writes**, their `f64` data concatenated in declaration order.
//!   Read-only arrays are not sent back: the host's copy already holds
//!   their bits. Both sides derive the list from the same [`Program`].
//!
//! Array data streams: each side owns one staging buffer of [`STAGE`]
//! elements (64 KiB, a pipe's capacity) and converts chunk-wise between
//! its `f64` storage and the pipe, so neither side ever holds a
//! full-size byte copy of the request, and the runner's arrays are
//! resized in place and reused from run to run. The one full-size
//! buffer left is the host's copy of the tag-3 payload, alive only
//! inside a `run`: the host checks each announced length against what
//! this run must return *before* allocating, and writes nothing into
//! the workspace until the whole response has arrived — a failed run
//! leaves the workspace untouched.
//!
//! The runner loops until stdin reaches EOF, so one spawned process
//! serves any number of runs. A run that fails — the runner died, or
//! answered out of protocol and left the stream out of step — reaps the
//! runner and marks the kernel failed: that run and every later one
//! return the same [`NativeError::RunnerFailed`], which names the exit
//! status, without touching the pipe again.
//!
//! # Observability without observation cost
//!
//! The kernel body never calls back into the host. Exact [`ExecStats`]
//! are reconstructed from the per-statement counters (`instances` and
//! `stores` are the counter sum; `loads`/`flops` weight each counter by
//! the statement's static load/flop count — the same accounting the
//! tree interpreter does incrementally). The tier only runs: every
//! access trace in the workspace comes from the bytecode engine
//! ([`crate::execute_compiled`] with an [`crate::Observer`]). With the
//! probe enabled each run also publishes what the transport cost:
//! `native.kernel_ns` (measured in the runner), `native.bytes_down` and
//! `native.bytes_up` (counted on the host), so the `native.run` span
//! minus `native.kernel_ns` is the time spent in the pipe, and
//! `native.bytes_kept`: the array bytes keep markers replaced.

use crate::interp::count_flops;
use crate::{ExecStats, Workspace};
use shackle_ir::emit::{emit_with, Dialect, EmitOptions};
use shackle_ir::{Program, ScalarExpr};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::num::NonZeroU64;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::LazyLock;

/// Elements per staging buffer: 8192 × 8 bytes = 64 KiB, the capacity
/// of a pipe, so one converted chunk is one full pipe.
pub const STAGE: usize = 8192;

/// The length word that tells the runner to keep the array it holds.
const KEEP: u64 = u64::MAX;

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
    /// The runner sent a malformed response.
    Protocol(String),
    /// A run failed — what went wrong and the runner's exit status
    /// inside — and the kernel is unusable: every later
    /// [`NativeKernel::run`] returns this same error.
    RunnerFailed(String),
}

impl std::fmt::Display for NativeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NativeError::Unavailable => write!(f, "rustc is not available"),
            NativeError::Build(e) => write!(f, "rustc failed to build kernel: {e}"),
            NativeError::Io(e) => write!(f, "native runner I/O error: {e}"),
            NativeError::Protocol(e) => write!(f, "native runner protocol error: {e}"),
            NativeError::RunnerFailed(e) => write!(f, "native runner failed: {e}"),
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

/// For each declared array, whether some statement writes it. The
/// runner returns exactly these arrays and the host applies exactly
/// this list, so both sides derive it here.
fn written_arrays(program: &Program) -> Vec<bool> {
    let written = |name: &str| program.stmts().iter().any(|s| s.write().array() == name);
    program.arrays().iter().map(|a| written(a.name())).collect()
}

/// The runner's side of the transport: arrays stream chunk-wise through
/// one staging buffer, straight between the pipe and `f64` storage.
const RUNNER_IO: &str = r#"
fn read_u64(r: &mut impl Read) -> u64 {
    let mut b = [0u8; 8];
    r.read_exact(&mut b).unwrap();
    u64::from_le_bytes(b)
}

fn read_array(r: &mut impl Read, stage: &mut [u8], arr: &mut Vec<f64>) {
    let len = read_u64(r);
    if len == KEEP {
        // no array is empty: an empty one was never received
        if arr.is_empty() {
            eprintln!("keep marker for an array this runner never received");
            std::process::exit(2);
        }
        return;
    }
    let len = len as usize;
    arr.resize(len, 0.0);
    for chunk in arr.chunks_mut(STAGE) {
        let bytes = &mut stage[..chunk.len() * 8];
        r.read_exact(bytes).unwrap();
        for (v, b) in chunk.iter_mut().zip(bytes.chunks_exact(8)) {
            *v = f64::from_le_bytes(b.try_into().unwrap());
        }
    }
}

fn write_array(w: &mut impl Write, stage: &mut [u8], arr: &[f64]) {
    for chunk in arr.chunks(STAGE) {
        let bytes = &mut stage[..chunk.len() * 8];
        for (b, v) in bytes.chunks_exact_mut(8).zip(chunk) {
            b.copy_from_slice(&v.to_le_bytes());
        }
        w.write_all(bytes).unwrap();
    }
}
"#;

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
    let written = written_arrays(program);
    let narrays = written.len();

    let mut src = String::new();
    let _ = writeln!(
        src,
        "// Generated by data-shackle native tier for program `{}`.\n\
         use std::io::{{Read, Write}};\n",
        program.name()
    );
    let _ = writeln!(src, "mod plain {{\n{plain}}}\n");
    let _ = writeln!(
        src,
        "const STAGE: usize = {STAGE};\nconst KEEP: u64 = {KEEP};"
    );
    src.push_str(RUNNER_IO);
    let _ = writeln!(
        src,
        "\nfn main() {{\n\
         \x20   let mut inp = std::io::stdin().lock();\n\
         \x20   let mut out = std::io::stdout().lock();\n\
         \x20   let mut stage = vec![0u8; STAGE * 8];\n\
         \x20   let mut head: Vec<u8> = Vec::new();\n\
         \x20   let mut ps = vec![0i64; {}];\n\
         \x20   let mut cnt = vec![0u64; {}];",
        program.params().len(),
        program.stmts().len()
    );
    for i in 0..narrays {
        let _ = writeln!(src, "    let mut arr{i}: Vec<f64> = Vec::new();");
    }
    src.push_str(
        "    loop {\n\
         \x20       let mut np = [0u8; 8];\n\
         \x20       if inp.read_exact(&mut np).is_err() { return; }\n\
         \x20       assert_eq!(u64::from_le_bytes(np), ps.len() as u64);\n\
         \x20       for p in ps.iter_mut() { *p = read_u64(&mut inp) as i64; }\n",
    );
    let _ = writeln!(src, "        assert_eq!(read_u64(&mut inp), {narrays});");
    for i in 0..narrays {
        let _ = writeln!(
            src,
            "        read_array(&mut inp, &mut stage, &mut arr{i});"
        );
    }
    let mut call_args: Vec<String> = (0..program.params().len())
        .map(|i| format!("ps[{i}]"))
        .collect();
    for (i, &w) in written.iter().enumerate() {
        call_args.push(format!("&{}arr{i}", if w { "mut " } else { "" }));
    }
    call_args.push("&mut cnt".to_string());
    let returned: Vec<usize> = (0..narrays).filter(|&i| written[i]).collect();
    // a program without statements writes nothing and returns `0` elements
    let total = returned
        .iter()
        .fold("0".to_string(), |sum, i| format!("{sum} + arr{i}.len()"));
    let _ = writeln!(
        src,
        "        cnt.fill(0);\n\
         \x20       let start = std::time::Instant::now();\n\
         \x20       plain::{fn_name}({});\n\
         \x20       let ns = start.elapsed().as_nanos() as u64;\n\
         \x20       head.clear();\n\
         \x20       head.push(2u8);\n\
         \x20       head.extend_from_slice(&(cnt.len() as u64 + 1).to_le_bytes());\n\
         \x20       for c in cnt.iter() {{ head.extend_from_slice(&c.to_le_bytes()); }}\n\
         \x20       head.extend_from_slice(&ns.to_le_bytes());\n\
         \x20       head.push(3u8);\n\
         \x20       head.extend_from_slice(&(({total}) as u64).to_le_bytes());\n\
         \x20       out.write_all(&head).unwrap();",
        call_args.join(", ")
    );
    for i in returned {
        let _ = writeln!(src, "        write_array(&mut out, &mut stage, &arr{i});");
    }
    src.push_str(
        "        out.flush().unwrap();\n\
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
    // Unique per build, not only per process: two threads building the
    // same kernel must not share (and rename away) one scratch dir.
    static BUILDS: AtomicU64 = AtomicU64::new(0);
    let scratch = cache_dir.join(format!(
        ".build-{hash:016x}-{}-{}",
        std::process::id(),
        BUILDS.fetch_add(1, Ordering::Relaxed)
    ));
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

/// One complete runner response.
#[derive(Debug)]
struct Response {
    /// Per-statement instance counters.
    counters: Vec<u64>,
    /// Nanoseconds the runner measured around the kernel call.
    kernel_ns: u64,
    /// The written arrays' `f64` data, little-endian, concatenated.
    arrays: Vec<u8>,
}

impl Response {
    /// Bytes this response took on the pipe: two 9-byte frame headers
    /// and the 8-byte words behind them.
    fn bytes(&self) -> u64 {
        (18 + 8 * (self.counters.len() + 1) + self.arrays.len()) as u64
    }
}

/// Read one `tag` frame that must carry exactly `words` 8-byte words.
/// The announced length is checked before anything is allocated for it.
fn read_frame(r: &mut impl Read, tag: u8, words: usize) -> Result<Vec<u8>, NativeError> {
    let mut head = [0u8; 9];
    r.read_exact(&mut head)?;
    if head[0] != tag {
        return Err(NativeError::Protocol(format!(
            "expected frame tag {tag}, got {}",
            head[0]
        )));
    }
    let len = u64::from_le_bytes(head[1..].try_into().expect("8-byte length"));
    if len != words as u64 {
        return Err(NativeError::Protocol(format!(
            "tag-{tag} frame announces {len} words, this run expects {words}"
        )));
    }
    let mut payload = vec![0u8; words * 8];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Read the response of a run over `stmts` statements whose written
/// arrays hold `written` elements in this workspace.
fn read_response(r: &mut impl Read, stmts: usize, written: usize) -> Result<Response, NativeError> {
    let words = read_frame(r, 2, stmts + 1)?;
    let mut words = words
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    let counters = words.by_ref().take(stmts).collect();
    let kernel_ns = words.next().expect("frame holds stmts + 1 words");
    let arrays = read_frame(r, 3, written)?;
    Ok(Response {
        counters,
        kernel_ns,
        arrays,
    })
}

/// One declared array, as the transport sees it.
#[derive(Debug)]
struct ArraySlot {
    name: String,
    /// Whether some statement writes it: the runner returns it, and it
    /// is sent on every run.
    written: bool,
    /// For a read-only array, the stamp of the content the runner holds.
    held: Option<NonZeroU64>,
}

/// A compiled kernel attached to its persistent runner process.
///
/// Spawn once, [`run`](NativeKernel::run) many times: each run streams
/// parameters, the written arrays and any read-only array the runner
/// does not already hold down the pipe and reads the written arrays
/// back, so repeated executions pay pipe I/O plus native speed — no
/// process spawn, no rustc.
#[derive(Debug)]
pub struct NativeKernel {
    /// The runner; its stdin stays inside, so waiting on it closes the
    /// pipe first and the runner's read loop ends.
    child: Child,
    stdout: ChildStdout,
    /// Which cache entry backs this kernel.
    outcome: BuildOutcome,
    params: Vec<String>,
    /// Declared arrays, in declaration order.
    arrays: Vec<ArraySlot>,
    costs: Vec<StmtCost>,
    /// The host's staging buffer, [`STAGE`] elements.
    stage: Vec<u8>,
    /// Why this kernel can no longer run, once a run has failed.
    failed: Option<String>,
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
        let stdout = child.stdout.take().expect("piped stdout");
        let arrays = program.arrays().iter().zip(written_arrays(program));
        Ok(Self {
            child,
            stdout,
            outcome,
            params: program.params().to_vec(),
            arrays: arrays
                .map(|(a, written)| ArraySlot {
                    name: a.name().to_string(),
                    written,
                    held: None,
                })
                .collect(),
            costs: program
                .stmts()
                .iter()
                .map(|s| StmtCost {
                    loads: count_loads(s.rhs()),
                    flops: count_flops(s),
                })
                .collect(),
            stage: vec![0u8; STAGE * 8],
            failed: None,
        })
    }

    /// The build outcome (cache path/hit/hash) behind this kernel.
    pub fn build_outcome(&self) -> &BuildOutcome {
        &self.outcome
    }

    /// Stream one request down the pipe; returns the bytes sent and the
    /// array bytes keep markers replaced.
    fn send_request(
        &mut self,
        workspace: &Workspace,
        params: &BTreeMap<String, i64>,
    ) -> Result<(u64, u64), NativeError> {
        let w = self.child.stdin.as_mut().expect("piped stdin");
        let mut head = Vec::with_capacity(8 * (self.params.len() + 2));
        head.extend_from_slice(&(self.params.len() as u64).to_le_bytes());
        for p in &self.params {
            let v = *params
                .get(p)
                .unwrap_or_else(|| panic!("missing parameter {p}"));
            head.extend_from_slice(&v.to_le_bytes());
        }
        head.extend_from_slice(&(self.arrays.len() as u64).to_le_bytes());
        w.write_all(&head)?;
        let mut sent = head.len();
        let mut kept = 0;
        for slot in &mut self.arrays {
            let array = workspace
                .array(&slot.name)
                .unwrap_or_else(|| panic!("unknown array {}", slot.name));
            let data = array.data();
            if slot.held.is_some() && array.stamp() == slot.held {
                w.write_all(&KEEP.to_le_bytes())?;
                sent += 8;
                kept += data.len() * 8;
                continue;
            }
            w.write_all(&(data.len() as u64).to_le_bytes())?;
            for chunk in data.chunks(STAGE) {
                let bytes = &mut self.stage[..chunk.len() * 8];
                for (b, v) in bytes.chunks_exact_mut(8).zip(chunk) {
                    b.copy_from_slice(&v.to_le_bytes());
                }
                w.write_all(bytes)?;
            }
            sent += 8 + data.len() * 8;
            if !slot.written {
                slot.held = array.stamp();
            }
        }
        Ok((sent as u64, kept as u64))
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

    /// Names of the arrays the runner returns, in declaration order.
    fn written(&self) -> impl Iterator<Item = &str> {
        let returned = self.arrays.iter().filter(|slot| slot.written);
        returned.map(|slot| slot.name.as_str())
    }

    /// One request/response exchange; the workspace is only read.
    fn exchange(
        &mut self,
        workspace: &Workspace,
        params: &BTreeMap<String, i64>,
    ) -> Result<(u64, u64, Response), NativeError> {
        let (sent, kept) = self.send_request(workspace, params)?;
        let written = self
            .written()
            .map(|name| workspace.array(name).expect("array sent down").len())
            .sum();
        let response = read_response(&mut self.stdout, self.costs.len(), written)?;
        Ok((sent, kept, response))
    }

    /// Reap the runner after `cause` and mark the kernel failed. The
    /// stream may be out of step, so the runner is never spoken to
    /// again: it is killed (a no-op when it already died, which leaves
    /// the status it died with) and the error says how it ended.
    fn fail(&mut self, cause: NativeError) -> NativeError {
        let _ = self.child.kill();
        let ended = match self.child.wait() {
            Ok(status) => status.to_string(),
            Err(e) => format!("unknown exit status ({e})"),
        };
        let why = format!("{cause}; runner ended with {ended}");
        self.failed = Some(why.clone());
        NativeError::RunnerFailed(why)
    }

    /// Execute once. Matches the tree interpreter bit-for-bit on array
    /// contents and exactly on [`ExecStats`]. An `Err` leaves the
    /// workspace untouched, and every later run returns the same error.
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
        if let Some(why) = &self.failed {
            return Err(NativeError::RunnerFailed(why.clone()));
        }
        let (sent, kept, response) = match self.exchange(workspace, params) {
            Ok(done) => done,
            Err(cause) => return Err(self.fail(cause)),
        };
        // the whole response has arrived and its length is this
        // workspace's: from here nothing can fail
        let mut rest = &response.arrays[..];
        for name in self.written() {
            let data = workspace
                .array_mut(name)
                .expect("array sent down")
                .data_mut();
            let (bytes, tail) = rest.split_at(data.len() * 8);
            rest = tail;
            for (v, b) in data.iter_mut().zip(bytes.chunks_exact(8)) {
                *v = f64::from_le_bytes(b.try_into().expect("8-byte chunk"));
            }
        }
        let stats = self.stats_from_counters(&response.counters);
        crate::publish_exec_stats(&stats);
        shackle_probe::add("native.kernel_ns", response.kernel_ns);
        shackle_probe::add("native.bytes_down", sent);
        shackle_probe::add("native.bytes_kept", kept);
        shackle_probe::add("native.bytes_up", response.bytes());
        Ok(stats)
    }
}

impl Drop for NativeKernel {
    fn drop(&mut self) {
        // Waiting closes stdin first: the runner's read loop hits EOF
        // and it exits.
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A response as bytes: each frame is `(tag, announced length,
    /// payload words)`.
    fn stream(frames: &[(u8, u64, &[u64])]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for (tag, len, words) in frames {
            bytes.push(*tag);
            bytes.extend_from_slice(&len.to_le_bytes());
            for w in *words {
                bytes.extend_from_slice(&w.to_le_bytes());
            }
        }
        bytes
    }

    /// Read a response to a run over 2 statements returning 3 elements.
    fn read(bytes: &[u8]) -> Result<Response, NativeError> {
        read_response(&mut &bytes[..], 2, 3)
    }

    fn protocol_error(bytes: &[u8]) -> String {
        match read(bytes) {
            Err(NativeError::Protocol(e)) => e,
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn well_formed_response_parses() {
        let bytes = stream(&[(2, 3, &[5, 7, 1234]), (3, 3, &[1, 2, 3])]);
        let r = read(&bytes).expect("well-formed");
        assert_eq!(r.counters, [5, 7]);
        assert_eq!(r.kernel_ns, 1234);
        assert_eq!(r.arrays.len(), 24);
        assert_eq!(r.bytes(), bytes.len() as u64);
    }

    /// A length the run does not expect is refused before anything is
    /// allocated for it: an allocation of these sizes would abort.
    #[test]
    fn frame_lengths_are_bounded_before_allocating() {
        let counters: (u8, u64, &[u64]) = (2, 3, &[5, 7, 1234]);
        // oversized, in either frame
        let e = protocol_error(&stream(&[(2, u64::MAX / 8, &[])]));
        assert!(e.contains("expects 3"), "{e}");
        let e = protocol_error(&stream(&[counters, (3, u64::MAX / 8, &[])]));
        assert!(e.contains("expects 3"), "{e}");
        // `len * 8` wraps to the expected 24 bytes
        let wrapped = (1u64 << 61) + 3;
        assert_eq!(wrapped.wrapping_mul(8), 24);
        let e = protocol_error(&stream(&[counters, (3, wrapped, &[1, 2, 3])]));
        assert!(e.contains(&wrapped.to_string()), "{e}");
    }

    #[test]
    fn counter_count_mismatch_is_a_protocol_error() {
        // the counters without the kernel-time word, and one too many
        for words in [&[5u64, 7][..], &[5, 7, 9, 1234][..]] {
            let e = protocol_error(&stream(&[(2, words.len() as u64, words)]));
            assert!(e.contains("tag-2"), "{e}");
        }
    }

    #[test]
    fn unknown_or_misplaced_tag_is_a_protocol_error() {
        let e = protocol_error(&stream(&[(7, 3, &[5, 7, 1234])]));
        assert!(e.contains("got 7"), "{e}");
        // arrays before counters
        let e = protocol_error(&stream(&[(3, 3, &[1, 2, 3])]));
        assert!(e.contains("expected frame tag 2"), "{e}");
    }

    #[test]
    fn truncated_response_is_an_io_error() {
        let bytes = stream(&[(2, 3, &[5, 7, 1234]), (3, 3, &[1, 2, 3])]);
        for cut in [0, 5, 9, 20, 33, 40, bytes.len() - 1] {
            match read(&bytes[..cut]) {
                Err(NativeError::Io(e)) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "cut at {cut}")
                }
                other => panic!("cut at {cut}: expected an I/O error, got {other:?}"),
            }
        }
    }
}
