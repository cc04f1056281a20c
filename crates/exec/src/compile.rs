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
//! One walker (`CompiledProgram::walk`) runs that op program and
//! hands each statement instance to one of two consumers:
//!
//! * [`CompiledProgram::execute`] evaluates the statement's bytecode
//!   against a [`Workspace`] — the same evaluator [`InstanceRunner::run`]
//!   drives one instance at a time;
//! * [`trace_compiled`] computes no value and needs no workspace. The
//!   programs are affine — no bound, guard or subscript reads array
//!   data — so the access stream depends on the parameters alone; the
//!   tracer walks it and hands every `(array index, offset, write)` to
//!   a monomorphised [`Observer`]. A loop whose body is statements only
//!   is a **leaf**: on entry each reference's linearized offset is
//!   evaluated once, and from then on advanced by its coefficient on
//!   the loop's slot. The range check every access makes is made at the
//!   leaf's first and last trip instead — offsets and subscripts are
//!   affine in the loop variable, so in range at both ends is in range
//!   between — and a leaf that fails it runs access by access, so the
//!   panic fires at the same access, with the same message, after the
//!   same accesses were delivered.
//!
//! The tree interpreter ([`crate::execute`]) remains the semantics of
//! record; both consumers are validated against it (values,
//! [`ExecStats`], and access traces, order included) by differential
//! tests on every kernel. In debug builds a range check looks at every
//! subscript dimension-by-dimension like the interpreter does; in
//! release builds it bounds the linearized offset by the array length.

use crate::interp::count_flops;
use crate::{array_extents, Access, DenseArray, ExecStats, Observer, Workspace};
use shackle_ir::{Bound, Node, Program, ScalarExpr, StmtId};
use shackle_polyhedra::num::{ceil_div, floor_div};
use shackle_polyhedra::{LinExpr, Rel};
use std::collections::BTreeMap;

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

    /// The coefficient on `slot` (zero when the form does not mention
    /// it).
    fn coeff(&self, slot: usize) -> i64 {
        self.terms
            .iter()
            .find(|&&(s, _)| s == slot)
            .map_or(0, |&(_, c)| c)
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

impl CStmt {
    /// What one instance adds to the statistics.
    fn per_instance(&self) -> ExecStats {
        ExecStats {
            instances: 1,
            loads: self.loads.len() as u64,
            stores: 1,
            flops: self.flops,
        }
    }
}

/// `total += trips × each`.
fn tally(total: &mut ExecStats, trips: u64, each: ExecStats) {
    total.instances += trips * each.instances;
    total.loads += trips * each.loads;
    total.stores += trips * each.stores;
    total.flops += trips * each.flops;
}

/// Flat structured ops driven by a program counter.
#[derive(Clone, Debug)]
enum Op {
    /// Evaluate bounds; bind the slot and run the body, or jump past
    /// `end` when the range is empty. `hi_idx` caches the upper bound
    /// for the matching [`Op::LoopEnd`]. `leaf` indexes
    /// [`CompiledProgram::leaves`] when the body is statements only:
    /// such a loop is offered whole to the consumer.
    LoopStart {
        slot: usize,
        lower: CBound,
        upper: CBound,
        hi_idx: usize,
        end: usize,
        leaf: Option<usize>,
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

/// A loop whose body is statements only.
#[derive(Clone, Debug)]
struct Leaf {
    slot: usize,
    /// The body, in order.
    stmts: Vec<StmtId>,
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
    /// The leaf loops, indexed by [`Op::LoopStart`]'s `leaf`.
    leaves: Vec<Leaf>,
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
        leaves: Vec::new(),
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
        leaves: c.leaves,
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
    leaves: Vec<Leaf>,
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
                        leaf: None,
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
                    let body: Option<Vec<StmtId>> = self.ops[start + 1..end]
                        .iter()
                        .map(|op| match op {
                            Op::Stmt { id } => Some(*id),
                            _ => None,
                        })
                        .collect();
                    let Op::LoopStart {
                        end: e, leaf: lf, ..
                    } = &mut self.ops[start]
                    else {
                        unreachable!()
                    };
                    *e = end;
                    if let Some(stmts) = body {
                        *lf = Some(self.leaves.len());
                        self.leaves.push(Leaf { slot, stmts });
                    }
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

/// Why a reference is out of range under some frame.
#[derive(Clone, Copy, Debug)]
enum OutOfRange {
    /// Subscript `index` of dimension `dim` is outside `1..=extent`.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    Subscript { index: i64, extent: i64, dim: usize },
    /// The linearized offset is outside the array.
    Offset(i64),
}

impl LinkedRef {
    /// The range check, made once: the element offset of this reference
    /// under `frame`, or why there is none. Debug builds re-check every
    /// subscript dimension like the tree interpreter; release builds
    /// bound the linearized offset.
    #[inline]
    fn locate(&self, frame: &[i64]) -> Result<usize, OutOfRange> {
        #[cfg(debug_assertions)]
        for (dim, (sub, extent)) in self.dims.iter().enumerate() {
            let index = sub.eval(frame);
            if index < 1 || index > *extent {
                return Err(OutOfRange::Subscript {
                    index,
                    extent: *extent,
                    dim,
                });
            }
        }
        let off = self.offset.eval(frame);
        if off >= 0 && (off as usize) < self.len {
            Ok(off as usize)
        } else {
            Err(OutOfRange::Offset(off))
        }
    }

    /// Element offset of this reference under `frame`.
    ///
    /// # Panics
    ///
    /// Panics when [`LinkedRef::locate`] finds the reference out of
    /// range.
    #[inline]
    fn offset(&self, frame: &[i64], arrays: &[String]) -> usize {
        self.locate(frame).unwrap_or_else(|e| match e {
            OutOfRange::Subscript { index, extent, dim } => {
                panic!("index {index} out of range 1..={extent} in dimension {dim}")
            }
            OutOfRange::Offset(off) => panic!(
                "element offset {off} out of range for array {} (len {})",
                arrays[self.array], self.len
            ),
        })
    }
}

/// Per-statement linked references.
#[derive(Clone, Debug)]
struct LinkedStmt {
    loads: Vec<LinkedRef>,
    write: LinkedRef,
}

impl LinkedStmt {
    /// The references in the order an instance touches them — the
    /// loads, then the write — each with whether it is the write.
    fn touched(&self) -> impl Iterator<Item = (&LinkedRef, bool)> {
        let loads = self.loads.iter().map(|r| (r, false));
        loads.chain(std::iter::once((&self.write, true)))
    }
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
        stride = stride
            .checked_mul(extent as i64)
            .expect("array size overflows i64");
    }
    offset.terms.sort_unstable_by_key(|&(s, _)| s);
    offset.terms.retain(|&(_, c)| c != 0);
    LinkedRef {
        array: r.array,
        offset,
        len: crate::array::element_count(dims).expect("element count overflows usize"),
        dims: checked,
    }
}

/// What [`CompiledProgram::walk`] drives: the receiver of the statement
/// instances a program executes, in program order.
trait Consumer {
    /// One instance of statement `id`, its loop variables (and the
    /// parameters) in `frame`.
    fn instance(&mut self, id: StmtId, frame: &[i64]);

    /// Leaf loop `leaf` (an index into the program's leaf table) is
    /// about to run its slot over `lo..=hi` (`lo <= hi`). Return `true`
    /// after consuming every trip; `false` (the default) has the walker
    /// run the loop instance by instance. May leave anything in the
    /// leaf's frame slot: the walker rebinds it, and nothing outside
    /// the loop reads it.
    fn leaf_loop(&mut self, _leaf: usize, _lo: i64, _hi: i64, _frame: &mut [i64]) -> bool {
        false
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

    /// The extents of this program's arrays as `ws` holds them, in
    /// declaration order.
    fn extents_in(&self, ws: &Workspace) -> Vec<Vec<usize>> {
        self.arrays
            .iter()
            .map(|name| {
                ws.array(name)
                    .unwrap_or_else(|| panic!("unknown array {name}"))
                    .dims()
                    .to_vec()
            })
            .collect()
    }

    /// Link every statement's references against arrays of the given
    /// `extents` (declaration order).
    fn link(&self, extents: &[Vec<usize>]) -> Vec<LinkedStmt> {
        self.stmts
            .iter()
            .map(|s| LinkedStmt {
                loads: s
                    .loads
                    .iter()
                    .map(|r| link_ref(r, &extents[r.array]))
                    .collect(),
                write: link_ref(&s.write, &extents[s.write.array]),
            })
            .collect()
    }

    /// The loop/guard machine: run the op program over `frame`
    /// (parameters already bound), handing every statement instance —
    /// or, where it takes them, every leaf loop — to `consumer`.
    fn walk<C: Consumer>(&self, frame: &mut [i64], consumer: &mut C) {
        let mut hi_cache = vec![0i64; self.n_loops];
        let mut pc = 0usize;
        while pc < self.ops.len() {
            match &self.ops[pc] {
                Op::LoopStart {
                    slot,
                    lower,
                    upper,
                    hi_idx,
                    end,
                    leaf,
                } => {
                    let lo = lower.eval(frame, true);
                    let hi = upper.eval(frame, false);
                    if lo > hi || leaf.is_some_and(|l| consumer.leaf_loop(l, lo, hi, frame)) {
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
                        let v = g.expr.eval(frame);
                        if g.eq {
                            v == 0
                        } else {
                            v >= 0
                        }
                    });
                    pc = if pass { pc + 1 } else { *end };
                }
                Op::Stmt { id } => {
                    consumer.instance(*id, frame);
                    pc += 1;
                }
            }
        }
    }

    /// Execute against `workspace` under `params`, reporting every
    /// access to `observer`. Matches [`crate::execute`] bit-for-bit:
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
        let linked = self.link(&self.extents_in(workspace));

        // Split the workspace into disjoint per-array borrows once.
        let mut slots: Vec<Option<&mut DenseArray>> =
            (0..self.arrays.len()).map(|_| None).collect();
        for (name, arr) in workspace.iter_mut() {
            if let Some(i) = self.arrays.iter().position(|a| a == name) {
                slots[i] = Some(arr);
            }
        }
        let arrays: Vec<&mut DenseArray> = slots
            .into_iter()
            .map(|a| a.expect("extents_in found every array"))
            .collect();

        let mut run = Executor {
            cp: self,
            linked,
            arrays,
            regs: self.regs(),
            observer,
            stats: ExecStats::default(),
        };
        self.walk(&mut frame, &mut run);
        crate::publish_exec_stats(&run.stats);
        run.stats
    }

    /// A register file large enough for any statement.
    fn regs(&self) -> Vec<f64> {
        vec![0.0; self.stmts.iter().map(|s| s.n_regs).max().unwrap_or(1)]
    }

    /// Walk the access stream of a run over arrays of the given
    /// `extents` without computing a value — see [`trace_compiled`].
    fn trace<O: Observer + ?Sized>(
        &self,
        extents: &[Vec<usize>],
        params: &BTreeMap<String, i64>,
        observer: &mut O,
    ) -> ExecStats {
        let _phase = shackle_probe::span("run");
        let mut frame = self.frame(params);
        let linked = self.link(extents);
        let leaves = self.leaves.iter().map(|l| l.link(self, &linked)).collect();
        let mut run = Tracer {
            cp: self,
            linked,
            leaves,
            offsets: Vec::new(),
            observer,
            stats: ExecStats::default(),
        };
        self.walk(&mut frame, &mut run);
        crate::publish_exec_stats(&run.stats);
        run.stats
    }
}

/// The bytecode evaluator, written once: run statement `st`'s code over
/// `regs` under `frame`, asking `load(array, offset)` for each operand
/// in evaluation order. Returns the value to store and the (checked)
/// offset to store it at.
#[inline]
fn eval_stmt(
    st: &CStmt,
    ln: &LinkedStmt,
    frame: &[i64],
    arrays: &[String],
    regs: &mut [f64],
    mut load: impl FnMut(usize, usize) -> f64,
) -> (f64, usize) {
    for op in &st.code {
        match *op {
            SOp::Const { dst, val } => regs[dst as usize] = val,
            SOp::Load { dst, re } => {
                let r = &ln.loads[re as usize];
                regs[dst as usize] = load(r.array, r.offset(frame, arrays));
            }
            SOp::Add { dst, a, b } => regs[dst as usize] = regs[a as usize] + regs[b as usize],
            SOp::Sub { dst, a, b } => regs[dst as usize] = regs[a as usize] - regs[b as usize],
            SOp::Mul { dst, a, b } => regs[dst as usize] = regs[a as usize] * regs[b as usize],
            SOp::Div { dst, a, b } => regs[dst as usize] = regs[a as usize] / regs[b as usize],
            SOp::Sqrt { dst, a } => regs[dst as usize] = regs[a as usize].sqrt(),
            SOp::Neg { dst, a } => regs[dst as usize] = -regs[a as usize],
            SOp::Sign { dst, a } => {
                regs[dst as usize] = if regs[a as usize] < 0.0 { -1.0 } else { 1.0 }
            }
        }
    }
    (regs[0], ln.write.offset(frame, arrays))
}

/// The consumer behind [`CompiledProgram::execute`].
struct Executor<'a> {
    cp: &'a CompiledProgram,
    linked: Vec<LinkedStmt>,
    /// The workspace's arrays, indexed like `cp.arrays`.
    arrays: Vec<&'a mut DenseArray>,
    regs: Vec<f64>,
    observer: &'a mut dyn Observer,
    stats: ExecStats,
}

impl Consumer for Executor<'_> {
    fn instance(&mut self, id: StmtId, frame: &[i64]) {
        let (st, ln, names) = (&self.cp.stmts[id], &self.linked[id], &self.cp.arrays);
        let (arrays, observer) = (&self.arrays, &mut *self.observer);
        let (value, offset) = eval_stmt(st, ln, frame, names, &mut self.regs, |index, offset| {
            observer.record(Access {
                array: &names[index],
                index,
                offset,
                write: false,
            });
            arrays[index].data()[offset]
        });
        let index = ln.write.array;
        self.arrays[index].data_mut()[offset] = value;
        self.observer.record(Access {
            array: &names[index],
            index,
            offset,
            write: true,
        });
        tally(&mut self.stats, 1, st.per_instance());
    }
}

/// One reference of a leaf loop's body, linked.
#[derive(Debug)]
struct LeafRef<'a> {
    name: &'a str,
    at: LinkedRef,
    write: bool,
    /// Elements the offset moves per trip: the offset form's
    /// coefficient on the leaf's slot.
    stride: i64,
}

/// A leaf loop linked for the tracer.
#[derive(Debug)]
struct LinkedLeaf<'a> {
    slot: usize,
    /// The body's references in delivery order: each statement's loads,
    /// then its write.
    refs: Vec<LeafRef<'a>>,
    /// What one trip adds to the statistics.
    per_trip: ExecStats,
}

impl Leaf {
    fn link<'a>(&self, cp: &'a CompiledProgram, linked: &[LinkedStmt]) -> LinkedLeaf<'a> {
        let mut refs = Vec::new();
        let mut per_trip = ExecStats::default();
        for &id in &self.stmts {
            let ln = &linked[id];
            for (r, write) in ln.touched() {
                refs.push(LeafRef {
                    name: &cp.arrays[r.array],
                    at: r.clone(),
                    write,
                    stride: r.offset.coeff(self.slot),
                });
            }
            tally(&mut per_trip, 1, cp.stmts[id].per_instance());
        }
        LinkedLeaf {
            slot: self.slot,
            refs,
            per_trip,
        }
    }
}

/// The value-free consumer behind [`trace_compiled`].
struct Tracer<'a, O: Observer + ?Sized> {
    cp: &'a CompiledProgram,
    linked: Vec<LinkedStmt>,
    leaves: Vec<LinkedLeaf<'a>>,
    /// Scratch for [`Consumer::leaf_loop`]: the running offset of each
    /// reference of the leaf body.
    offsets: Vec<i64>,
    observer: &'a mut O,
    stats: ExecStats,
}

impl<O: Observer + ?Sized> Consumer for Tracer<'_, O> {
    fn instance(&mut self, id: StmtId, frame: &[i64]) {
        let (ln, names) = (&self.linked[id], &self.cp.arrays);
        for (r, write) in ln.touched() {
            let offset = r.offset(frame, names);
            self.observer.record(Access {
                array: &names[r.array],
                index: r.array,
                offset,
                write,
            });
        }
        tally(&mut self.stats, 1, self.cp.stmts[id].per_instance());
    }

    fn leaf_loop(&mut self, leaf: usize, lo: i64, hi: i64, frame: &mut [i64]) -> bool {
        let leaf = &self.leaves[leaf];
        // Offsets and subscripts are affine in the leaf variable: in
        // range on the last trip and on the first is in range on every
        // trip. Otherwise the loop runs access by access and panics
        // where it always did.
        frame[leaf.slot] = hi;
        if !leaf.refs.iter().all(|r| r.at.locate(frame).is_ok()) {
            return false;
        }
        frame[leaf.slot] = lo;
        self.offsets.clear();
        for r in &leaf.refs {
            match r.at.locate(frame) {
                Ok(offset) => self.offsets.push(offset as i64),
                Err(_) => return false,
            }
        }
        let trips = (hi - lo + 1) as u64;
        for _ in 0..trips {
            for (r, offset) in leaf.refs.iter().zip(&mut self.offsets) {
                self.observer.record(Access {
                    array: r.name,
                    index: r.at.array,
                    offset: *offset as usize,
                    write: r.write,
                });
                *offset += r.stride;
            }
        }
        tally(&mut self.stats, trips, leaf.per_trip);
        true
    }
}

/// The access stream of `program` under `params` without the values:
/// every `(array index, offset, write)` a run would touch, delivered to
/// `observer` in program order, and the [`ExecStats`] the run would
/// report. No workspace is built — array extents come from the
/// program's declarations ([`array_extents`]) — and no arithmetic is
/// done on array data; see the module docs for why the stream is the
/// same. `observer` is monomorphised: its `record` inlines into the
/// walk.
///
/// # Panics
///
/// Panics on missing parameters, non-positive extents and out-of-range
/// subscripts, like [`CompiledProgram::execute`] over a workspace built
/// by [`Workspace::for_program`].
pub fn trace_compiled<O: Observer + ?Sized>(
    program: &Program,
    params: &BTreeMap<String, i64>,
    observer: &mut O,
) -> ExecStats {
    let extents = array_extents(program, params).unwrap_or_else(|e| panic!("{e}"));
    compile(program).trace(&extents, params, observer)
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
            regs: cp.regs(),
            linked: cp.link(&cp.extents_in(ws)),
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
        let (st, ln, names) = (&self.cp.stmts[stmt], &self.linked[stmt], &self.cp.arrays);
        let (value, offset) = eval_stmt(
            st,
            ln,
            &self.frame,
            names,
            &mut self.regs,
            |index, offset| {
                let name = &names[index];
                ws.array(name)
                    .unwrap_or_else(|| panic!("unknown array {name}"))
                    .data()[offset]
            },
        );
        let name = &names[ln.write.array];
        ws.array_mut(name)
            .unwrap_or_else(|| panic!("unknown array {name}"))
            .data_mut()[offset] = value;
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
        let p = one_loop(
            "empty",
            LinExpr::var("N") + LinExpr::constant(1),
            LinExpr::var("N"),
            LinExpr::var("I"),
        );
        let mut ws = Workspace::for_program(&p, &params(3), |_, _| 0.0);
        let stats = compile(&p).execute(&mut ws, &params(3), &mut NullObserver);
        assert_eq!(stats.instances, 0);
    }

    /// `for I in 1..=N { A[I] += 1; for I in 1..=2 { B[I] += 1 } }` —
    /// the inner I shadows the outer one, and the outer I must survive
    /// the inner loop.
    fn shadowed_loops() -> shackle_ir::Program {
        use shackle_ir::{loop_, stmt, ArrayDecl, ArrayRef, Statement};
        let a = ArrayRef::vars("A", &["I"]);
        let b = ArrayRef::vars("B", &["I"]);
        let s0 = Statement::new("S0", a.clone(), ScalarExpr::from(a) + 1.0.into());
        let s1 = Statement::new("S1", b.clone(), ScalarExpr::from(b) + 1.0.into());
        shackle_ir::Program::new(
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
        )
    }

    #[test]
    fn shadowed_loop_variables_resolve_innermost() {
        let p = shadowed_loops();
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

    /// The tracer against both engines that compute values: same
    /// accesses in the same order, same statistics.
    fn assert_trace_matches(p: &shackle_ir::Program, params: &BTreeMap<String, i64>) {
        let init = crate::verify::hash_init(7);
        let mut tree = Collect::default();
        let mut ws = Workspace::for_program(p, params, &init);
        let tree_stats = execute(p, &mut ws, params, &mut tree);
        let mut valued = Collect::default();
        let mut ws = Workspace::for_program(p, params, &init);
        let valued_stats = compile(p).execute(&mut ws, params, &mut valued);
        let mut traced = Collect::default();
        let traced_stats = trace_compiled(p, params, &mut traced);
        assert_eq!(traced_stats, tree_stats, "{}: stats", p.name());
        assert_eq!(traced_stats, valued_stats, "{}: stats", p.name());
        assert_eq!(traced.0, tree.0, "{}: accesses", p.name());
        assert_eq!(traced.0, valued.0, "{}: accesses", p.name());
    }

    /// `for I in lo..=hi { A[sub] = A[sub] + 1 }` over `A(N)`.
    fn one_loop(name: &str, lo: LinExpr, hi: LinExpr, sub: LinExpr) -> shackle_ir::Program {
        use shackle_ir::{loop_, stmt, ArrayDecl, ArrayRef, Statement};
        let a = ArrayRef::new("A", vec![sub]);
        let s = Statement::new("S", a.clone(), ScalarExpr::from(a) + 1.0.into());
        shackle_ir::Program::new(
            name,
            vec!["N".into()],
            vec![ArrayDecl::new("A", vec![LinExpr::var("N")])],
            vec![s],
            vec![loop_("I", lo, hi, vec![stmt(0)])],
        )
    }

    #[test]
    fn leaf_with_a_zero_stride_reference() {
        // C[I,J] does not move under the K loop
        assert_trace_matches(&kernels::matmul_ijk(), &params(6));
    }

    #[test]
    fn leaf_with_negative_strides() {
        // X[N+1-Jp] and U[N+1-Jp, N+1-Ip] walk backwards under Jp
        assert_trace_matches(&kernels::backsolve(), &params(7));
    }

    #[test]
    fn leaf_with_several_statements() {
        // for I { S0: A[I] = A[I] + 1;  S1: B[I] = A[I] * B[I] }: the
        // two statements' accesses interleave trip by trip
        use shackle_ir::{loop_, stmt, ArrayDecl, ArrayRef, Statement};
        let a = ArrayRef::vars("A", &["I"]);
        let b = ArrayRef::vars("B", &["I"]);
        let s0 = Statement::new("S0", a.clone(), ScalarExpr::from(a.clone()) + 1.0.into());
        let s1 = Statement::new("S1", b.clone(), ScalarExpr::from(a) * ScalarExpr::from(b));
        let p = shackle_ir::Program::new(
            "two_in_a_leaf",
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
                vec![stmt(0), stmt(1)],
            )],
        );
        assert_trace_matches(&p, &params(5));
    }

    #[test]
    fn leaf_under_a_shadowed_variable() {
        // the inner (leaf) I strides B; the outer I it shadows must come
        // back for the next A[I]
        assert_trace_matches(&shadowed_loops(), &params(4));
    }

    #[test]
    fn leaf_with_an_empty_trip_range() {
        let p = one_loop(
            "empty",
            LinExpr::var("N") + LinExpr::constant(1),
            LinExpr::var("N"),
            LinExpr::var("I"),
        );
        let mut traced = Collect::default();
        let stats = trace_compiled(&p, &params(3), &mut traced);
        assert_eq!(stats, ExecStats::default());
        assert!(traced.0.is_empty());
        assert_trace_matches(&p, &params(3));
    }

    #[test]
    fn leaf_that_leaves_its_array_panics_where_the_interpreter_does() {
        // A[I+1] over I = 1..=N is in range until the last trip: the
        // hoisted check fails at the far end, the loop runs access by
        // access, and the panic comes after the same accesses
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let p = one_loop(
            "oob",
            LinExpr::constant(1),
            LinExpr::var("N"),
            LinExpr::var("I") + LinExpr::constant(1),
        );
        let params = params(4);
        let dies = |run: &mut dyn FnMut(&mut Collect)| -> (String, Collect) {
            let mut seen = Collect::default();
            let payload = catch_unwind(AssertUnwindSafe(|| run(&mut seen)))
                .expect_err("the subscript leaves the array");
            let message = payload
                .downcast_ref::<String>()
                .expect("a formatted panic")
                .clone();
            (message, seen)
        };
        let (tree_msg, tree) = dies(&mut |seen| {
            let mut ws = Workspace::for_program(&p, &params, |_, _| 0.0);
            execute(&p, &mut ws, &params, seen);
        });
        let (valued_msg, valued) = dies(&mut |seen| {
            let mut ws = Workspace::for_program(&p, &params, |_, _| 0.0);
            compile(&p).execute(&mut ws, &params, seen);
        });
        let (traced_msg, traced) = dies(&mut |seen| {
            trace_compiled(&p, &params, seen);
        });
        // three whole trips, then the load of A[5] dies
        assert_eq!(tree.0.len(), 6);
        assert_eq!(traced.0, tree.0);
        assert_eq!(traced.0, valued.0);
        assert_eq!(traced_msg, valued_msg);
        // release builds bound the linearized offset instead of each
        // subscript, and say so
        if cfg!(debug_assertions) {
            assert_eq!(traced_msg, tree_msg);
        } else {
            assert!(traced_msg.contains("out of range"), "{traced_msg}");
        }
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
        let p = one_loop(
            "oob",
            LinExpr::constant(1),
            LinExpr::var("N"),
            LinExpr::var("I") + LinExpr::constant(1),
        );
        let mut ws = Workspace::for_program(&p, &params(3), |_, _| 0.0);
        compile(&p).execute(&mut ws, &params(3), &mut NullObserver);
    }
}
