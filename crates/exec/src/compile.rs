//! The compiled execution engine.
//!
//! [`compile`] lowers a [`Program`] into a [`CompiledProgram`] whose
//! inner loop touches no maps, no strings and no allocations:
//!
//! * every variable (parameter or loop index) gets a dense **frame
//!   slot**; all name resolution happens once, at compile time, with
//!   lexical innermost-wins scoping exactly like the tree interpreter's
//!   shadowing environment;
//! * loop bounds and guards become **affine forms over slots**
//!   (`constant + Σ coeff·frame[slot]`), with divided bounds evaluated
//!   through the same `ceil_div`/`floor_div` as the interpreter;
//! * each array reference's column-major offset is **linearized into a
//!   single affine form** at link time (when parameters fix the array
//!   extents, the per-dimension strides fold into the subscript
//!   coefficients), so an access is one dot product over the frame;
//! * every statement's scalar expression tree is flattened into
//!   **register-style bytecode** evaluated on a flat `f64` register
//!   file, emitting loads in the tree interpreter's left-to-right
//!   depth-first order;
//! * the loop tree is lowered into a **flat structured-op program**
//!   (`LoopStart`/`LoopEnd`/`Guard`/`Stmt`) driven by a program
//!   counter.
//!
//! Accesses are buffered and delivered to the observer in chunks via
//! [`Observer::record_many`], eliminating a virtual call per element.
//!
//! The tree interpreter ([`crate::execute`]) remains the semantics of
//! record; this engine is validated against it bit-for-bit (values,
//! [`ExecStats`], and access traces, order included) by differential
//! tests on every kernel. In debug builds the engine also re-checks
//! every subscript dimension-by-dimension like the interpreter does; in
//! release builds it checks the linearized offset against the array
//! length.

use crate::interp::count_flops;
use crate::{Access, DenseArray, ExecStats, Observer, Workspace};
use shackle_ir::{Bound, Node, Program, ScalarExpr, StmtId};
use shackle_polyhedra::num::{ceil_div, floor_div};
use shackle_polyhedra::{LinExpr, Rel};
use std::collections::BTreeMap;

/// Accesses buffered before each [`Observer::record_many`] delivery.
const BATCH: usize = 4096;

/// An affine form over frame slots: `constant + Σ coeff·frame[slot]`.
#[derive(Clone, Debug, Default)]
struct Affine {
    constant: i64,
    terms: Vec<(usize, i64)>,
}

impl Affine {
    #[inline]
    fn eval(&self, frame: &[i64]) -> i64 {
        let mut v = self.constant;
        for &(s, c) in &self.terms {
            v += c * frame[s];
        }
        v
    }
}

/// One `expr/div` term of a compiled bound.
#[derive(Clone, Debug)]
struct CBoundTerm {
    expr: Affine,
    div: i64,
}

/// A compiled loop bound: max of `ceil(term)`s (lower) or min of
/// `floor(term)`s (upper).
#[derive(Clone, Debug)]
struct CBound {
    terms: Vec<CBoundTerm>,
}

impl CBound {
    #[inline]
    fn eval(&self, frame: &[i64], lower: bool) -> i64 {
        let vals = self.terms.iter().map(|t| {
            let num = t.expr.eval(frame);
            if lower {
                ceil_div(num, t.div)
            } else {
                floor_div(num, t.div)
            }
        });
        if lower {
            vals.max().expect("bounds are non-empty")
        } else {
            vals.min().expect("bounds are non-empty")
        }
    }
}

/// A compiled guard constraint: `expr == 0` or `expr >= 0`.
#[derive(Clone, Debug)]
struct CGuard {
    expr: Affine,
    eq: bool,
}

/// A compiled array reference: target array plus per-dimension
/// subscript affines (strides are folded in at link time).
#[derive(Clone, Debug)]
struct CRef {
    array: usize,
    subs: Vec<Affine>,
}

/// Register-style scalar bytecode. `dst`/`a`/`b` are register indices;
/// `re` indexes the statement's load table.
#[derive(Clone, Copy, Debug)]
enum SOp {
    /// `reg[dst] = val`
    Const { dst: u16, val: f64 },
    /// `reg[dst] = load(refs[re])`
    Load { dst: u16, re: u32 },
    /// `reg[dst] = reg[a] + reg[b]`
    Add { dst: u16, a: u16, b: u16 },
    /// `reg[dst] = reg[a] - reg[b]`
    Sub { dst: u16, a: u16, b: u16 },
    /// `reg[dst] = reg[a] * reg[b]`
    Mul { dst: u16, a: u16, b: u16 },
    /// `reg[dst] = reg[a] / reg[b]`
    Div { dst: u16, a: u16, b: u16 },
    /// `reg[dst] = sqrt(reg[a])`
    Sqrt { dst: u16, a: u16 },
    /// `reg[dst] = -reg[a]`
    Neg { dst: u16, a: u16 },
    /// `reg[dst] = sign(reg[a])` (−1 if negative else +1)
    Sign { dst: u16, a: u16 },
}

/// A compiled statement: bytecode, its load table, and the write ref.
#[derive(Clone, Debug)]
struct CStmt {
    code: Vec<SOp>,
    n_regs: usize,
    loads: Vec<CRef>,
    write: CRef,
    flops: u64,
}

/// Flat structured ops driven by a program counter.
#[derive(Clone, Debug)]
enum Op {
    /// Evaluate bounds; bind the slot and run the body, or jump past
    /// `end` when the range is empty. `hi_idx` caches the upper bound
    /// for the matching [`Op::LoopEnd`].
    LoopStart {
        slot: usize,
        lower: CBound,
        upper: CBound,
        hi_idx: usize,
        end: usize,
    },
    /// Advance the slot and jump back after `start`, or fall through.
    LoopEnd {
        slot: usize,
        hi_idx: usize,
        start: usize,
    },
    /// Run the body only if every guard holds; otherwise jump to `end`.
    Guard { guards: Vec<CGuard>, end: usize },
    /// Execute one statement instance.
    Stmt { id: StmtId },
}

/// A program lowered for the compiled engine. Build with [`compile`],
/// run with [`CompiledProgram::execute`] (or drive single instances
/// through an [`InstanceRunner`]).
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// Array names in declaration order; `CRef::array` indexes this.
    arrays: Vec<String>,
    /// Parameter names; parameter `i` lives in frame slot `i`.
    params: Vec<String>,
    n_slots: usize,
    n_loops: usize,
    ops: Vec<Op>,
    stmts: Vec<CStmt>,
    /// Per statement: frame slots of its surrounding loops, outermost
    /// first (parallel to an `Instance::ivec`).
    stmt_loop_slots: Vec<Vec<usize>>,
}

/// Compile `program` for the fast engine.
///
/// # Panics
///
/// Panics on malformed programs (an unbound variable in a bound,
/// subscript or guard) — conditions [`Program`] validation already
/// rejects.
pub fn compile(program: &Program) -> CompiledProgram {
    let _phase = shackle_probe::span("compile");
    shackle_probe::add("exec.programs_compiled", 1);
    let mut c = Compiler {
        program,
        scope: Vec::new(),
        loop_slots: Vec::new(),
        arrays: program
            .arrays()
            .iter()
            .map(|d| d.name().to_string())
            .collect(),
        n_slots: program.params().len(),
        n_loops: 0,
        ops: Vec::new(),
        stmts: vec![None; program.stmts().len()],
        stmt_loop_slots: vec![Vec::new(); program.stmts().len()],
    };
    for (i, p) in program.params().iter().enumerate() {
        c.scope.push((p.clone(), i));
    }
    c.lower_nodes(program.body());
    CompiledProgram {
        arrays: c.arrays,
        params: program.params().to_vec(),
        n_slots: c.n_slots,
        n_loops: c.n_loops,
        ops: c.ops,
        stmts: c
            .stmts
            .into_iter()
            .map(|s| s.expect("every statement appears in the loop tree"))
            .collect(),
        stmt_loop_slots: c.stmt_loop_slots,
    }
}

struct Compiler<'p> {
    program: &'p Program,
    /// `(name, slot)` pairs, innermost last (lexical shadowing).
    scope: Vec<(String, usize)>,
    /// Slots of the currently open loops, outermost first.
    loop_slots: Vec<usize>,
    arrays: Vec<String>,
    n_slots: usize,
    n_loops: usize,
    ops: Vec<Op>,
    stmts: Vec<Option<CStmt>>,
    stmt_loop_slots: Vec<Vec<usize>>,
}

impl Compiler<'_> {
    fn resolve(&self, name: &str) -> usize {
        self.scope
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|&(_, s)| s)
            .unwrap_or_else(|| panic!("unbound variable {name} during compilation"))
    }

    fn affine(&self, e: &LinExpr) -> Affine {
        let mut terms: Vec<(usize, i64)> = e.iter().map(|(v, c)| (self.resolve(v), c)).collect();
        terms.sort_unstable_by_key(|&(s, _)| s);
        Affine {
            constant: e.constant_part(),
            terms,
        }
    }

    fn bound(&self, b: &Bound) -> CBound {
        CBound {
            terms: b
                .terms
                .iter()
                .map(|t| CBoundTerm {
                    expr: self.affine(&t.expr),
                    div: t.div,
                })
                .collect(),
        }
    }

    fn cref(&self, r: &shackle_ir::ArrayRef) -> CRef {
        let array = self
            .arrays
            .iter()
            .position(|a| a == r.array())
            .unwrap_or_else(|| panic!("unknown array {}", r.array()));
        CRef {
            array,
            subs: r.indices().iter().map(|e| self.affine(e)).collect(),
        }
    }

    fn lower_nodes(&mut self, nodes: &[Node]) {
        for n in nodes {
            match n {
                Node::Stmt(id) => {
                    self.lower_stmt(*id);
                    self.ops.push(Op::Stmt { id: *id });
                }
                Node::If(cs, body) => {
                    let guards = cs
                        .iter()
                        .map(|c| CGuard {
                            expr: self.affine(c.expr()),
                            eq: matches!(c.rel(), Rel::Eq),
                        })
                        .collect();
                    let at = self.ops.len();
                    self.ops.push(Op::Guard {
                        guards,
                        end: usize::MAX,
                    });
                    self.lower_nodes(body);
                    let end = self.ops.len();
                    let Op::Guard { end: e, .. } = &mut self.ops[at] else {
                        unreachable!()
                    };
                    *e = end;
                }
                Node::Loop(l) => {
                    let slot = self.n_slots;
                    self.n_slots += 1;
                    let hi_idx = self.n_loops;
                    self.n_loops += 1;
                    // bounds are evaluated in the enclosing scope
                    let lower = self.bound(&l.lower);
                    let upper = self.bound(&l.upper);
                    let start = self.ops.len();
                    self.ops.push(Op::LoopStart {
                        slot,
                        lower,
                        upper,
                        hi_idx,
                        end: usize::MAX,
                    });
                    self.scope.push((l.var.clone(), slot));
                    self.loop_slots.push(slot);
                    self.lower_nodes(&l.body);
                    self.loop_slots.pop();
                    self.scope.pop();
                    let end = self.ops.len();
                    self.ops.push(Op::LoopEnd {
                        slot,
                        hi_idx,
                        start,
                    });
                    let Op::LoopStart { end: e, .. } = &mut self.ops[start] else {
                        unreachable!()
                    };
                    *e = end;
                }
            }
        }
    }

    fn lower_stmt(&mut self, id: StmtId) {
        let stmt = &self.program.stmts()[id];
        let mut code = Vec::new();
        let mut loads = Vec::new();
        let mut n_regs = 1u16;
        self.flatten(stmt.rhs(), 0, &mut code, &mut loads, &mut n_regs);
        self.stmts[id] = Some(CStmt {
            code,
            n_regs: n_regs as usize,
            loads,
            write: self.cref(stmt.write()),
            flops: count_flops(stmt),
        });
        self.stmt_loop_slots[id] = self.loop_slots.clone();
    }

    /// Flatten `e` into `code`, leaving the result in register `dst`.
    /// Loads are emitted left-to-right depth-first — the exact order
    /// the tree interpreter reports them to observers.
    fn flatten(
        &self,
        e: &ScalarExpr,
        dst: u16,
        code: &mut Vec<SOp>,
        loads: &mut Vec<CRef>,
        n_regs: &mut u16,
    ) {
        *n_regs = (*n_regs).max(dst + 1);
        match e {
            ScalarExpr::Const(v) => code.push(SOp::Const { dst, val: *v }),
            ScalarExpr::Ref(r) => {
                let re = u32::try_from(loads.len()).expect("load table fits u32");
                loads.push(self.cref(r));
                code.push(SOp::Load { dst, re });
            }
            ScalarExpr::Add(a, b)
            | ScalarExpr::Sub(a, b)
            | ScalarExpr::Mul(a, b)
            | ScalarExpr::Div(a, b) => {
                self.flatten(a, dst, code, loads, n_regs);
                self.flatten(b, dst + 1, code, loads, n_regs);
                let (a, b) = (dst, dst + 1);
                code.push(match e {
                    ScalarExpr::Add(..) => SOp::Add { dst, a, b },
                    ScalarExpr::Sub(..) => SOp::Sub { dst, a, b },
                    ScalarExpr::Mul(..) => SOp::Mul { dst, a, b },
                    _ => SOp::Div { dst, a, b },
                });
            }
            ScalarExpr::Sqrt(a) => {
                self.flatten(a, dst, code, loads, n_regs);
                code.push(SOp::Sqrt { dst, a: dst });
            }
            ScalarExpr::Neg(a) => {
                self.flatten(a, dst, code, loads, n_regs);
                code.push(SOp::Neg { dst, a: dst });
            }
            ScalarExpr::Sign(a) => {
                self.flatten(a, dst, code, loads, n_regs);
                code.push(SOp::Sign { dst, a: dst });
            }
        }
    }
}

/// An array reference with parameters bound: a single linearized offset
/// affine over slots, plus the per-dimension forms for exact
/// (debug-build) subscript checking.
#[derive(Clone, Debug)]
struct LinkedRef {
    array: usize,
    offset: Affine,
    len: usize,
    /// `(subscript, extent)` per dimension, for debug-parity checks
    /// (compiled out of release builds along with the check).
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    dims: Vec<(Affine, i64)>,
}

impl LinkedRef {
    /// Element offset of this reference under `frame`.
    ///
    /// Debug builds re-check every subscript dimension like the tree
    /// interpreter; release builds bound the linearized offset.
    #[inline]
    fn offset(&self, frame: &[i64], arrays: &[String]) -> usize {
        #[cfg(debug_assertions)]
        for (d, (sub, extent)) in self.dims.iter().enumerate() {
            let i = sub.eval(frame);
            assert!(
                i >= 1 && i <= *extent,
                "index {i} out of range 1..={extent} in dimension {d}"
            );
        }
        let off = self.offset.eval(frame);
        assert!(
            off >= 0 && (off as usize) < self.len,
            "element offset {off} out of range for array {} (len {})",
            arrays[self.array],
            self.len
        );
        off as usize
    }
}

/// Per-statement linked references.
#[derive(Clone, Debug)]
struct LinkedStmt {
    loads: Vec<LinkedRef>,
    write: LinkedRef,
}

fn link_ref(r: &CRef, dims: &[usize]) -> LinkedRef {
    assert_eq!(r.subs.len(), dims.len(), "subscript rank mismatch");
    let mut offset = Affine::default();
    let mut stride: i64 = 1;
    let mut checked = Vec::with_capacity(dims.len());
    for (sub, &extent) in r.subs.iter().zip(dims) {
        offset.constant += (sub.constant - 1) * stride;
        for &(slot, coeff) in &sub.terms {
            match offset.terms.iter_mut().find(|(s, _)| *s == slot) {
                Some((_, c)) => *c += coeff * stride,
                None => offset.terms.push((slot, coeff * stride)),
            }
        }
        checked.push((sub.clone(), extent as i64));
        stride *= extent as i64;
    }
    offset.terms.sort_unstable_by_key(|&(s, _)| s);
    offset.terms.retain(|&(_, c)| c != 0);
    LinkedRef {
        array: r.array,
        offset,
        len: dims.iter().product(),
        dims: checked,
    }
}

impl CompiledProgram {
    /// Array names in declaration order.
    pub fn arrays(&self) -> &[String] {
        &self.arrays
    }

    /// Frame slots of the loops surrounding statement `id`, outermost
    /// first (parallel to a `multipass::Instance::ivec`).
    pub fn stmt_loop_slots(&self, id: StmtId) -> &[usize] {
        &self.stmt_loop_slots[id]
    }

    /// Bind `params` into a fresh frame.
    fn frame(&self, params: &BTreeMap<String, i64>) -> Vec<i64> {
        let mut frame = vec![0i64; self.n_slots];
        for (i, p) in self.params.iter().enumerate() {
            frame[i] = *params
                .get(p)
                .unwrap_or_else(|| panic!("missing parameter {p}"));
        }
        frame
    }

    /// Link every statement's references against the arrays of `ws`.
    fn link(&self, ws: &Workspace) -> Vec<LinkedStmt> {
        let dims: Vec<Vec<usize>> = self
            .arrays
            .iter()
            .map(|name| {
                ws.array(name)
                    .unwrap_or_else(|| panic!("unknown array {name}"))
                    .dims()
                    .to_vec()
            })
            .collect();
        self.stmts
            .iter()
            .map(|s| LinkedStmt {
                loads: s
                    .loads
                    .iter()
                    .map(|r| link_ref(r, &dims[r.array]))
                    .collect(),
                write: link_ref(&s.write, &dims[s.write.array]),
            })
            .collect()
    }

    /// Execute against `workspace` under `params`, streaming batched
    /// accesses to `observer`. Matches [`crate::execute`] bit-for-bit:
    /// same array contents, same [`ExecStats`], same access sequence.
    ///
    /// # Panics
    ///
    /// Panics on missing parameters or arrays and on out-of-range
    /// subscripts, like the tree interpreter.
    pub fn execute(
        &self,
        workspace: &mut Workspace,
        params: &BTreeMap<String, i64>,
        observer: &mut dyn Observer,
    ) -> ExecStats {
        let _phase = shackle_probe::span("run");
        let mut frame = self.frame(params);
        let linked = self.link(workspace);

        // Split the workspace into disjoint per-array borrows once.
        let mut slots: Vec<Option<&mut DenseArray>> =
            (0..self.arrays.len()).map(|_| None).collect();
        for (name, arr) in workspace.iter_mut() {
            if let Some(i) = self.arrays.iter().position(|a| a == name) {
                slots[i] = Some(arr);
            }
        }
        let mut arrays: Vec<&mut DenseArray> = slots
            .into_iter()
            .enumerate()
            .map(|(i, a)| a.unwrap_or_else(|| panic!("unknown array {}", self.arrays[i])))
            .collect();

        let mut stats = ExecStats::default();
        let mut regs = vec![0.0f64; self.stmts.iter().map(|s| s.n_regs).max().unwrap_or(1)];
        let mut hi_cache = vec![0i64; self.n_loops];
        // Structure-of-arrays access buffer: packed `(offset << 8) |
        // (array << 1) | write` codes (8 bytes per access instead of a
        // 24-byte `Access`), decoded into a scratch batch only at flush.
        assert!(
            self.arrays.len() < 128,
            "packed access codes carry a 7-bit array index"
        );
        let mut buf: Vec<u64> = Vec::with_capacity(BATCH + 64);
        let mut scratch: Vec<Access<'_>> = Vec::with_capacity(BATCH + 64);

        let mut pc = 0usize;
        while pc < self.ops.len() {
            match &self.ops[pc] {
                Op::LoopStart {
                    slot,
                    lower,
                    upper,
                    hi_idx,
                    end,
                } => {
                    let lo = lower.eval(&frame, true);
                    let hi = upper.eval(&frame, false);
                    if lo > hi {
                        pc = *end + 1;
                    } else {
                        frame[*slot] = lo;
                        hi_cache[*hi_idx] = hi;
                        pc += 1;
                    }
                }
                Op::LoopEnd {
                    slot,
                    hi_idx,
                    start,
                } => {
                    if frame[*slot] < hi_cache[*hi_idx] {
                        frame[*slot] += 1;
                        pc = *start + 1;
                    } else {
                        pc += 1;
                    }
                }
                Op::Guard { guards, end } => {
                    let pass = guards.iter().all(|g| {
                        let v = g.expr.eval(&frame);
                        if g.eq {
                            v == 0
                        } else {
                            v >= 0
                        }
                    });
                    pc = if pass { pc + 1 } else { *end };
                }
                Op::Stmt { id } => {
                    let st = &self.stmts[*id];
                    let ln = &linked[*id];
                    for op in &st.code {
                        match *op {
                            SOp::Const { dst, val } => regs[dst as usize] = val,
                            SOp::Load { dst, re } => {
                                let r = &ln.loads[re as usize];
                                let off = r.offset(&frame, &self.arrays);
                                regs[dst as usize] = arrays[r.array].data()[off];
                                buf.push(((off as u64) << 8) | ((r.array as u64) << 1));
                                stats.loads += 1;
                            }
                            SOp::Add { dst, a, b } => {
                                regs[dst as usize] = regs[a as usize] + regs[b as usize]
                            }
                            SOp::Sub { dst, a, b } => {
                                regs[dst as usize] = regs[a as usize] - regs[b as usize]
                            }
                            SOp::Mul { dst, a, b } => {
                                regs[dst as usize] = regs[a as usize] * regs[b as usize]
                            }
                            SOp::Div { dst, a, b } => {
                                regs[dst as usize] = regs[a as usize] / regs[b as usize]
                            }
                            SOp::Sqrt { dst, a } => regs[dst as usize] = regs[a as usize].sqrt(),
                            SOp::Neg { dst, a } => regs[dst as usize] = -regs[a as usize],
                            SOp::Sign { dst, a } => {
                                regs[dst as usize] = if regs[a as usize] < 0.0 { -1.0 } else { 1.0 }
                            }
                        }
                    }
                    let off = ln.write.offset(&frame, &self.arrays);
                    arrays[ln.write.array].data_mut()[off] = regs[0];
                    buf.push(((off as u64) << 8) | ((ln.write.array as u64) << 1) | 1);
                    stats.stores += 1;
                    stats.instances += 1;
                    stats.flops += st.flops;
                    if buf.len() >= BATCH {
                        flush_codes(&self.arrays, &buf, &mut scratch, observer);
                        buf.clear();
                    }
                    pc += 1;
                }
            }
        }
        if !buf.is_empty() {
            flush_codes(&self.arrays, &buf, &mut scratch, observer);
        }
        crate::publish_exec_stats(&stats);
        stats
    }
}

/// Decode one batch of packed access codes into `scratch` and deliver
/// it through [`Observer::record_many`].
fn flush_codes<'a>(
    arrays: &'a [String],
    codes: &[u64],
    scratch: &mut Vec<Access<'a>>,
    observer: &mut dyn Observer,
) {
    scratch.clear();
    scratch.extend(codes.iter().map(|&c| {
        let index = ((c & 0xff) >> 1) as usize;
        Access {
            array: &arrays[index],
            index,
            offset: (c >> 8) as usize,
            write: c & 1 == 1,
        }
    }));
    observer.record_many(scratch);
}

/// Compile and execute in one call — the drop-in fast replacement for
/// [`crate::execute`]. Prefer [`compile`] + [`CompiledProgram::execute`]
/// when the same program runs more than once.
pub fn execute_compiled(
    program: &Program,
    workspace: &mut Workspace,
    params: &BTreeMap<String, i64>,
    observer: &mut dyn Observer,
) -> ExecStats {
    compile(program).execute(workspace, params, observer)
}

/// Runs single statement instances of a compiled program — the fast
/// path under the multipass executor, which schedules instances itself.
///
/// Linking (binding parameters, folding strides) happens once at
/// construction; [`InstanceRunner::run`] then needs only the instance's
/// loop-variable values.
#[derive(Debug)]
pub struct InstanceRunner<'p> {
    cp: &'p CompiledProgram,
    frame: Vec<i64>,
    regs: Vec<f64>,
    linked: Vec<LinkedStmt>,
}

impl<'p> InstanceRunner<'p> {
    /// Link `cp` against the arrays of `ws` under `params`.
    pub fn new(cp: &'p CompiledProgram, ws: &Workspace, params: &BTreeMap<String, i64>) -> Self {
        Self {
            cp,
            frame: cp.frame(params),
            regs: vec![0.0; cp.stmts.iter().map(|s| s.n_regs).max().unwrap_or(1)],
            linked: cp.link(ws),
        }
    }

    fn bind(&mut self, stmt: StmtId, ivec: &[i64]) {
        let slots = &self.cp.stmt_loop_slots[stmt];
        assert_eq!(slots.len(), ivec.len(), "instance rank mismatch");
        for (&slot, &v) in slots.iter().zip(ivec) {
            self.frame[slot] = v;
        }
    }

    /// The memory locations instance `(stmt, ivec)` touches: read
    /// locations appended to `reads` (in evaluation order) as
    /// `(array index, element offset)` pairs, write location returned.
    pub fn locations(
        &mut self,
        stmt: StmtId,
        ivec: &[i64],
        reads: &mut Vec<(usize, usize)>,
    ) -> (usize, usize) {
        self.bind(stmt, ivec);
        let ln = &self.linked[stmt];
        for r in &ln.loads {
            reads.push((r.array, r.offset(&self.frame, &self.cp.arrays)));
        }
        (
            ln.write.array,
            ln.write.offset(&self.frame, &self.cp.arrays),
        )
    }

    /// Execute one statement instance against `ws`.
    pub fn run(&mut self, ws: &mut Workspace, stmt: StmtId, ivec: &[i64]) {
        self.bind(stmt, ivec);
        let st = &self.cp.stmts[stmt];
        let ln = &self.linked[stmt];
        for op in &st.code {
            match *op {
                SOp::Const { dst, val } => self.regs[dst as usize] = val,
                SOp::Load { dst, re } => {
                    let r = &ln.loads[re as usize];
                    let off = r.offset(&self.frame, &self.cp.arrays);
                    let arr = ws
                        .array(&self.cp.arrays[r.array])
                        .unwrap_or_else(|| panic!("unknown array {}", self.cp.arrays[r.array]));
                    self.regs[dst as usize] = arr.data()[off];
                }
                SOp::Add { dst, a, b } => {
                    self.regs[dst as usize] = self.regs[a as usize] + self.regs[b as usize]
                }
                SOp::Sub { dst, a, b } => {
                    self.regs[dst as usize] = self.regs[a as usize] - self.regs[b as usize]
                }
                SOp::Mul { dst, a, b } => {
                    self.regs[dst as usize] = self.regs[a as usize] * self.regs[b as usize]
                }
                SOp::Div { dst, a, b } => {
                    self.regs[dst as usize] = self.regs[a as usize] / self.regs[b as usize]
                }
                SOp::Sqrt { dst, a } => self.regs[dst as usize] = self.regs[a as usize].sqrt(),
                SOp::Neg { dst, a } => self.regs[dst as usize] = -self.regs[a as usize],
                SOp::Sign { dst, a } => {
                    self.regs[dst as usize] = if self.regs[a as usize] < 0.0 {
                        -1.0
                    } else {
                        1.0
                    }
                }
            }
        }
        let off = ln.write.offset(&self.frame, &self.cp.arrays);
        let arr = ws
            .array_mut(&self.cp.arrays[ln.write.array])
            .unwrap_or_else(|| panic!("unknown array {}", self.cp.arrays[ln.write.array]));
        arr.data_mut()[off] = self.regs[0];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{execute, NullObserver};
    use shackle_ir::kernels;

    fn params(n: i64) -> BTreeMap<String, i64> {
        BTreeMap::from([("N".to_string(), n)])
    }

    /// Observer that records every access (owned copies).
    #[derive(Default)]
    struct Collect(Vec<(String, usize, usize, bool)>);
    impl Observer for Collect {
        fn record(&mut self, a: Access<'_>) {
            self.0
                .push((a.array.to_string(), a.index, a.offset, a.write));
        }
    }

    fn assert_matches_tree(
        p: &shackle_ir::Program,
        params: &BTreeMap<String, i64>,
        init_seed: u64,
    ) {
        let init = crate::verify::hash_init(init_seed);
        let mut w1 = Workspace::for_program(p, params, &init);
        let mut w2 = Workspace::for_program(p, params, &init);
        let mut o1 = Collect::default();
        let mut o2 = Collect::default();
        let s1 = execute(p, &mut w1, params, &mut o1);
        let s2 = compile(p).execute(&mut w2, params, &mut o2);
        assert_eq!(s1, s2, "stats must match");
        assert_eq!(o1.0, o2.0, "access traces must match");
        for ((n1, a1), (n2, a2)) in w1.iter().zip(w2.iter()) {
            assert_eq!(n1, n2);
            assert!(
                a1.data()
                    .iter()
                    .zip(a2.data())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "array {n1} must be bit-identical"
            );
        }
    }

    #[test]
    fn matmul_matches_tree_interpreter() {
        assert_matches_tree(&kernels::matmul_ijk(), &params(6), 1);
    }

    #[test]
    fn qr_with_sign_matches_tree_interpreter() {
        assert_matches_tree(&kernels::qr_householder(), &params(5), 3);
    }

    #[test]
    fn scanned_cholesky_with_guards_matches_tree() {
        use shackle_core::{scan::generate_scanned, Blocking, Shackle};
        let p = kernels::cholesky_right();
        let s = Shackle::on_writes(&p, Blocking::square("A", 2, &[1, 0], 3));
        let scanned = generate_scanned(&p, &[s]);
        let init = crate::verify::spd_init("A", 8, 5);
        let mut w1 = Workspace::for_program(&scanned, &params(8), &init);
        let mut w2 = Workspace::for_program(&scanned, &params(8), &init);
        let s1 = execute(&scanned, &mut w1, &params(8), &mut NullObserver);
        let s2 = compile(&scanned).execute(&mut w2, &params(8), &mut NullObserver);
        assert_eq!(s1, s2);
        assert_eq!(w1.max_rel_diff(&w2), 0.0);
    }

    #[test]
    fn empty_ranges_execute_nothing() {
        use shackle_ir::{loop_, stmt, ArrayDecl, ArrayRef, Statement};
        use shackle_polyhedra::LinExpr;
        let a = ArrayRef::vars("A", &["I"]);
        let s = Statement::new("S", a.clone(), ScalarExpr::from(a) + 1.0.into());
        let p = shackle_ir::Program::new(
            "empty",
            vec!["N".into()],
            vec![ArrayDecl::new("A", vec![LinExpr::var("N")])],
            vec![s],
            vec![loop_(
                "I",
                LinExpr::var("N") + LinExpr::constant(1),
                LinExpr::var("N"),
                vec![stmt(0)],
            )],
        );
        let mut ws = Workspace::for_program(&p, &params(3), |_, _| 0.0);
        let stats = compile(&p).execute(&mut ws, &params(3), &mut NullObserver);
        assert_eq!(stats.instances, 0);
    }

    #[test]
    fn shadowed_loop_variables_resolve_innermost() {
        // for I in 1..=N { A[I] += 1; for I in 1..=2 { B[I] += 1 } }
        // — the inner I shadows the outer one, and the outer I must
        // survive the inner loop.
        use shackle_ir::{loop_, stmt, ArrayDecl, ArrayRef, Statement};
        use shackle_polyhedra::LinExpr;
        let a = ArrayRef::vars("A", &["I"]);
        let b = ArrayRef::vars("B", &["I"]);
        let s0 = Statement::new("S0", a.clone(), ScalarExpr::from(a) + 1.0.into());
        let s1 = Statement::new("S1", b.clone(), ScalarExpr::from(b) + 1.0.into());
        let p = shackle_ir::Program::new(
            "shadow",
            vec!["N".into()],
            vec![
                ArrayDecl::new("A", vec![LinExpr::var("N")]),
                ArrayDecl::new("B", vec![LinExpr::var("N")]),
            ],
            vec![s0, s1],
            vec![loop_(
                "I",
                LinExpr::constant(1),
                LinExpr::var("N"),
                vec![
                    stmt(0),
                    loop_(
                        "I",
                        LinExpr::constant(1),
                        LinExpr::constant(2),
                        vec![stmt(1)],
                    ),
                ],
            )],
        );
        let n = 4;
        let init = |_: &str, _: &[usize]| 0.0;
        let mut w1 = Workspace::for_program(&p, &params(n), init);
        let mut w2 = Workspace::for_program(&p, &params(n), init);
        let s1 = execute(&p, &mut w1, &params(n), &mut NullObserver);
        let s2 = compile(&p).execute(&mut w2, &params(n), &mut NullObserver);
        assert_eq!(s1, s2);
        assert_eq!(w1.max_rel_diff(&w2), 0.0);
        // every A element bumped once; B[1..2] bumped once per outer
        // iteration
        assert_eq!(w2.array("A").unwrap().get(&[3]), 1.0);
        assert_eq!(w2.array("B").unwrap().get(&[2]), n as f64);
    }

    #[test]
    fn batches_are_flushed_in_order() {
        // an observer that checks batch boundaries never reorder
        #[derive(Default)]
        struct Batches {
            flat: Vec<usize>,
            batches: usize,
        }
        impl Observer for Batches {
            fn record(&mut self, a: Access<'_>) {
                self.flat.push(a.offset);
            }
            fn record_many(&mut self, accesses: &[Access<'_>]) {
                self.batches += 1;
                for &a in accesses {
                    self.record(a);
                }
            }
        }
        let p = kernels::matmul_ijk();
        let n = 12; // 4 accesses × 12³ = 6912 > one batch
        let mut ws = Workspace::for_program(&p, &params(n), |_, _| 1.0);
        let mut obs = Batches::default();
        let stats = compile(&p).execute(&mut ws, &params(n), &mut obs);
        assert!(obs.batches >= 2, "expected multiple batches");
        assert_eq!(obs.flat.len() as u64, stats.loads + stats.stores);
        let mut o2 = Collect::default();
        let mut w2 = Workspace::for_program(&p, &params(n), |_, _| 1.0);
        execute(&p, &mut w2, &params(n), &mut o2);
        let tree: Vec<usize> = o2.0.iter().map(|t| t.2).collect();
        assert_eq!(obs.flat, tree);
    }

    #[test]
    fn instance_runner_replays_interpreter() {
        let p = kernels::cholesky_right();
        let n = 6;
        let init = crate::verify::spd_init("A", n as usize, 9);
        let mut reference = Workspace::for_program(&p, &params(n), &init);
        execute(&p, &mut reference, &params(n), &mut NullObserver);

        let cp = compile(&p);
        let mut ws = Workspace::for_program(&p, &params(n), &init);
        let instances = crate::multipass::enumerate_instances(&p, &params(n));
        let mut runner = InstanceRunner::new(&cp, &ws, &params(n));
        for inst in &instances {
            runner.run(&mut ws, inst.stmt, &inst.ivec);
        }
        assert_eq!(ws.max_rel_diff(&reference), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_subscript_panics() {
        use shackle_ir::{loop_, stmt, ArrayDecl, ArrayRef, Statement};
        use shackle_polyhedra::LinExpr;
        let a = ArrayRef::new("A", vec![LinExpr::var("I") + LinExpr::constant(1)]);
        let s = Statement::new("S", a.clone(), ScalarExpr::from(a) + 1.0.into());
        let p = shackle_ir::Program::new(
            "oob",
            vec!["N".into()],
            vec![ArrayDecl::new("A", vec![LinExpr::var("N")])],
            vec![s],
            vec![loop_(
                "I",
                LinExpr::constant(1),
                LinExpr::var("N"),
                vec![stmt(0)],
            )],
        );
        let mut ws = Workspace::for_program(&p, &params(3), |_, _| 0.0);
        compile(&p).execute(&mut ws, &params(3), &mut NullObserver);
    }
}
