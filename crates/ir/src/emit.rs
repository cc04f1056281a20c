//! Emit compilable Rust source from a [`Program`].
//!
//! The interpreter is the semantics of record, but a source-to-source
//! blocking tool ultimately exists to hand its output to a compiler;
//! this module renders any program — input codes and shackled codes
//! alike — as a self-contained function over column-major `f64` arrays.
//!
//! The emitted Rust is verified end-to-end in this crate's test suite:
//! generated code is compiled with `rustc` and executed, and its result
//! must match the interpreter bit for bit.

use crate::{Bound, Node, Program, ScalarExpr};
use shackle_polyhedra::{Constraint, LinExpr, Rel};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Target language for emission. Rust is the one language emitted; the
/// type survives because the frozen `benchmark/` crate names
/// `Dialect::Rust`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dialect {
    /// Safe Rust (a `pub fn` over `&mut [f64]` slices).
    Rust,
}

/// Instrumentation options for [`emit_with`].
///
/// Both knobs exist for the native execution tier:
///
/// * `counters` threads a `cnt_: &mut [u64]` argument through the
///   generated function and increments `cnt_[stmt_id]` once per executed
///   statement instance, so the host can reconstruct exact
///   instance/load/store/flop statistics without observing each access;
/// * `trace` flattens every statement so its loads happen in the tree
///   interpreter's left-to-right depth-first order, and pushes one
///   packed code per access — `(offset << 8) | (array_index << 1) |
///   is_write`, arrays in declaration order — into a `tr_: &mut
///   Vec<u64>` argument. Whenever the buffer reaches
///   [`TRACE_FLUSH_CODES`] codes the generated code calls
///   `flush_trace(tr_)`, a function the surrounding driver must
///   provide (the native runner streams each flush down its pipe as a
///   length-prefixed frame).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EmitOptions {
    /// Emit per-access trace pushes (see [`EmitOptions`]).
    // No in-repo caller sets it; kept only because frozen benchmark/ writes this literal in full.
    pub trace: bool,
    /// Emit per-statement instance counters (see [`EmitOptions`]).
    pub counters: bool,
}

/// Number of packed access codes buffered before the emitted code calls
/// `flush_trace` (512 KiB of `u64`s per spill).
pub const TRACE_FLUSH_CODES: usize = 65_536;

/// Emit `program` as a single function named after the program (with
/// `-` replaced by `_`).
///
/// Array arguments appear in declaration order; every symbolic parameter
/// becomes a leading `i64` argument. Arrays are column-major with
/// the extents of their declarations; subscripts in the IR are 1-based
/// and are translated to 0-based offsets.
///
/// # Examples
///
/// ```
/// use shackle_ir::emit::{emit, Dialect};
/// use shackle_ir::kernels;
/// let src = emit(&kernels::matmul_ijk(), Dialect::Rust);
/// assert!(src.contains("pub fn matmul_ijk"));
/// assert!(src.contains("for i_ in"));
/// ```
pub fn emit(program: &Program, dialect: Dialect) -> String {
    emit_with(program, dialect, EmitOptions::default())
}

/// [`emit`] with instrumentation options — the entry point the native
/// execution tier uses to render runnable, observable kernels.
pub fn emit_with(program: &Program, dialect: Dialect, options: EmitOptions) -> String {
    let Dialect::Rust = dialect;
    Emitter { program, options }.emit()
}

struct Emitter<'a> {
    program: &'a Program,
    options: EmitOptions,
}

impl Emitter<'_> {
    fn fn_name(&self) -> String {
        self.program.name().replace('-', "_")
    }

    /// Loop variables and parameters share one integer namespace; suffix
    /// with `_` to avoid keyword collisions and preserve case.
    fn var(&self, v: &str) -> String {
        format!("{}_", v.to_lowercase())
    }

    fn written_arrays(&self) -> BTreeSet<&str> {
        self.program
            .stmts()
            .iter()
            .map(|s| s.write().array())
            .collect()
    }

    fn emit(&self) -> String {
        let mut out = String::new();
        self.prelude(&mut out);
        self.signature(&mut out);
        self.strides(&mut out);
        self.nodes(self.program.body(), 1, &mut out);
        out.push_str("}\n");
        out
    }

    fn prelude(&self, out: &mut String) {
        let _ = writeln!(
            out,
            "// Generated by data-shackle from program `{}`.\n\
             #[inline]\nfn floord(a: i64, b: i64) -> i64 {{ a.div_euclid(b) }}\n\
             #[inline]\nfn ceild(a: i64, b: i64) -> i64 {{ -((-a).div_euclid(b)) }}\n\
             #[inline]\nfn signf(x: f64) -> f64 {{ if x < 0.0 {{ -1.0 }} else {{ 1.0 }} }}\n",
            self.program.name()
        );
    }

    fn signature(&self, out: &mut String) {
        let written = self.written_arrays();
        let _ = write!(out, "pub fn {}(", self.fn_name());
        let mut first = true;
        for p in self.program.params() {
            if !first {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: i64", self.var(p));
            first = false;
        }
        for a in self.program.arrays() {
            if !first {
                out.push_str(", ");
            }
            let m = if written.contains(a.name()) {
                "mut "
            } else {
                ""
            };
            let _ = write!(out, "{}: &{m}[f64]", self.array_param(a.name()));
            first = false;
        }
        if self.options.counters {
            if !first {
                out.push_str(", ");
            }
            out.push_str("cnt_: &mut [u64]");
            first = false;
        }
        if self.options.trace {
            if !first {
                out.push_str(", ");
            }
            out.push_str("tr_: &mut Vec<u64>");
        }
        out.push_str(") {\n");
    }

    fn array_param(&self, name: &str) -> String {
        format!("{}_a", name.to_lowercase())
    }

    /// Per-array stride locals: `let s1_A = extent0; let s2_A = s1_A * extent1; …`
    fn strides(&self, out: &mut String) {
        for a in self.program.arrays() {
            let mut stride = "1".to_string();
            for (d, extent) in a.dims().iter().enumerate().skip(1) {
                let _ = extent;
                let prev = a.dims()[d - 1].clone();
                let name = self.stride_name(a.name(), d);
                let _ = writeln!(out, "    let {name} = {stride} * ({});", self.lin(&prev));
                stride = name;
            }
        }
    }

    fn stride_name(&self, array: &str, dim: usize) -> String {
        format!("s{dim}_{}", array.to_lowercase())
    }

    fn lin(&self, e: &LinExpr) -> String {
        let mut s = String::new();
        let mut first = true;
        for (v, c) in e.iter() {
            if first {
                match c {
                    1 => {
                        let _ = write!(s, "{}", self.var(v));
                    }
                    -1 => {
                        let _ = write!(s, "-{}", self.var(v));
                    }
                    _ => {
                        let _ = write!(s, "{c} * {}", self.var(v));
                    }
                }
                first = false;
            } else if c >= 0 {
                if c == 1 {
                    let _ = write!(s, " + {}", self.var(v));
                } else {
                    let _ = write!(s, " + {c} * {}", self.var(v));
                }
            } else if c == -1 {
                let _ = write!(s, " - {}", self.var(v));
            } else {
                let _ = write!(s, " - {} * {}", -c, self.var(v));
            }
        }
        let k = e.constant_part();
        if first {
            let _ = write!(s, "{k}");
        } else if k > 0 {
            let _ = write!(s, " + {k}");
        } else if k < 0 {
            let _ = write!(s, " - {}", -k);
        }
        s
    }

    fn bound(&self, b: &Bound, lower: bool) -> String {
        let term = |t: &crate::BoundTerm| -> String {
            if t.div == 1 {
                format!("({})", self.lin(&t.expr))
            } else if lower {
                format!("ceild({}, {})", self.lin(&t.expr), t.div)
            } else {
                format!("floord({}, {})", self.lin(&t.expr), t.div)
            }
        };
        let mut terms = b.terms.iter().map(term);
        let firstt = terms.next().expect("bounds are non-empty");
        terms.fold(firstt, |acc, t| {
            if lower {
                format!("({acc}).max({t})")
            } else {
                format!("({acc}).min({t})")
            }
        })
    }

    fn constraint(&self, c: &Constraint) -> String {
        let op = match c.rel() {
            Rel::Eq => "==",
            Rel::Geq => ">=",
        };
        format!("({}) {op} 0", self.lin(c.expr()))
    }

    /// Column-major 0-based offset of a reference.
    fn offset(&self, r: &crate::ArrayRef) -> String {
        let mut s = String::new();
        for (d, ix) in r.indices().iter().enumerate() {
            if d > 0 {
                s.push_str(" + ");
            }
            let zero_based = format!("({} - 1)", self.lin(ix));
            if d == 0 {
                s.push_str(&zero_based);
            } else {
                let _ = write!(s, "{zero_based} * {}", self.stride_name(r.array(), d));
            }
        }
        s
    }

    fn load(&self, r: &crate::ArrayRef) -> String {
        format!(
            "{}[({}) as usize]",
            self.array_param(r.array()),
            self.offset(r)
        )
    }

    fn scalar(&self, e: &ScalarExpr) -> String {
        match e {
            ScalarExpr::Ref(r) => self.load(r),
            ScalarExpr::Const(c) => {
                if *c == c.trunc() {
                    format!("{c:.1}")
                } else {
                    format!("{c}")
                }
            }
            ScalarExpr::Add(a, b) => format!("({} + {})", self.scalar(a), self.scalar(b)),
            ScalarExpr::Sub(a, b) => format!("({} - {})", self.scalar(a), self.scalar(b)),
            ScalarExpr::Mul(a, b) => format!("({} * {})", self.scalar(a), self.scalar(b)),
            ScalarExpr::Div(a, b) => format!("({} / {})", self.scalar(a), self.scalar(b)),
            ScalarExpr::Sqrt(a) => format!("({}).sqrt()", self.scalar(a)),
            ScalarExpr::Neg(a) => format!("(-{})", self.scalar(a)),
            ScalarExpr::Sign(a) => format!("signf({})", self.scalar(a)),
        }
    }

    /// Declaration-order index of an array — the identity the packed
    /// trace codes carry.
    fn array_index(&self, name: &str) -> usize {
        self.program
            .arrays()
            .iter()
            .position(|a| a.name() == name)
            .unwrap_or_else(|| panic!("unknown array {name}"))
    }

    /// `tr_.push(code); spill if full` for one access at offset local
    /// `o`, matching the interpreter's per-element `Observer` events.
    fn trace_push(&self, o: &str, array: &str, write: bool, pad: &str, out: &mut String) {
        let idx = self.array_index(array);
        assert!(idx < 128, "packed access codes carry a 7-bit array index");
        let code = (idx << 1) | usize::from(write);
        let _ = writeln!(
            out,
            "{pad}tr_.push((({o} as u64) << 8) | {code}); \
             if tr_.len() >= {TRACE_FLUSH_CODES} {{ flush_trace(tr_); }}"
        );
    }

    /// Traced statement emission: loads flattened into temporaries in
    /// the tree interpreter's left-to-right depth-first order (each
    /// followed by its trace push), then the store and its push, then
    /// the instance counter. The expression over the temporaries keeps
    /// the exact floating-point operation tree, so results stay
    /// bit-identical to the uninstrumented emission.
    fn stmt_traced(&self, id: usize, pad: &str, out: &mut String) {
        let s = &self.program.stmts()[id];
        let mut loads: Vec<&crate::ArrayRef> = Vec::new();
        let rhs = self.scalar_flat(s.rhs(), &mut loads);
        let _ = writeln!(out, "{pad}{{ // {}", s.label());
        let inner = format!("{pad}    ");
        for (k, r) in loads.iter().enumerate() {
            let _ = writeln!(
                out,
                "{inner}let o{k} = ({}) as usize; let t{k} = {}[o{k}];",
                self.offset(r),
                self.array_param(r.array()),
            );
            self.trace_push(&format!("o{k}"), r.array(), false, &inner, out);
        }
        let _ = writeln!(
            out,
            "{inner}let ow = ({}) as usize; {}[ow] = {rhs};",
            self.offset(s.write()),
            self.array_param(s.write().array()),
        );
        self.trace_push("ow", s.write().array(), true, &inner, out);
        if self.options.counters {
            let _ = writeln!(out, "{inner}cnt_[{id}] += 1;");
        }
        let _ = writeln!(out, "{pad}}}");
    }

    /// Render a scalar expression with every array reference replaced by
    /// the temporary `t{k}` of its load, collecting the references in
    /// evaluation order.
    fn scalar_flat<'p>(&self, e: &'p ScalarExpr, loads: &mut Vec<&'p crate::ArrayRef>) -> String {
        match e {
            ScalarExpr::Ref(r) => {
                loads.push(r);
                format!("t{}", loads.len() - 1)
            }
            ScalarExpr::Const(c) => {
                if *c == c.trunc() {
                    format!("{c:.1}")
                } else {
                    format!("{c}")
                }
            }
            ScalarExpr::Add(a, b) => {
                let (a, b) = (self.scalar_flat(a, loads), self.scalar_flat(b, loads));
                format!("({a} + {b})")
            }
            ScalarExpr::Sub(a, b) => {
                let (a, b) = (self.scalar_flat(a, loads), self.scalar_flat(b, loads));
                format!("({a} - {b})")
            }
            ScalarExpr::Mul(a, b) => {
                let (a, b) = (self.scalar_flat(a, loads), self.scalar_flat(b, loads));
                format!("({a} * {b})")
            }
            ScalarExpr::Div(a, b) => {
                let (a, b) = (self.scalar_flat(a, loads), self.scalar_flat(b, loads));
                format!("({a} / {b})")
            }
            ScalarExpr::Sqrt(a) => format!("({}).sqrt()", self.scalar_flat(a, loads)),
            ScalarExpr::Neg(a) => format!("(-{})", self.scalar_flat(a, loads)),
            ScalarExpr::Sign(a) => format!("signf({})", self.scalar_flat(a, loads)),
        }
    }

    fn nodes(&self, nodes: &[Node], depth: usize, out: &mut String) {
        let pad = "    ".repeat(depth);
        for n in nodes {
            match n {
                Node::Stmt(id) => {
                    if self.options.trace {
                        self.stmt_traced(*id, &pad, out);
                    } else {
                        let s = &self.program.stmts()[*id];
                        let count = if self.options.counters {
                            format!(" cnt_[{id}] += 1;")
                        } else {
                            String::new()
                        };
                        let _ = writeln!(
                            out,
                            "{pad}{} = {};{count} // {}",
                            self.load(s.write()),
                            self.scalar(s.rhs()),
                            s.label()
                        );
                    }
                }
                Node::If(cs, body) => {
                    let conds: Vec<String> = cs.iter().map(|c| self.constraint(c)).collect();
                    let _ = writeln!(out, "{pad}if {} {{", conds.join(" && "));
                    self.nodes(body, depth + 1, out);
                    let _ = writeln!(out, "{pad}}}");
                }
                Node::Loop(l) => {
                    let v = self.var(&l.var);
                    let lo = self.bound(&l.lower, true);
                    let hi = self.bound(&l.upper, false);
                    let _ = writeln!(out, "{pad}for {v} in {lo}..=({hi}) {{");
                    self.nodes(&l.body, depth + 1, out);
                    let _ = writeln!(out, "{pad}}}");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;

    #[test]
    fn rust_matmul_structure() {
        let src = emit(&kernels::matmul_ijk(), Dialect::Rust);
        assert!(src.contains("pub fn matmul_ijk(n_: i64"), "{src}");
        assert!(src.contains("c_a: &mut [f64]"), "{src}");
        assert!(src.contains("a_a: &[f64]"), "{src}");
        assert!(src.contains("for i_ in (1)..=((n_)) {"), "{src}");
        assert!(src.matches('{').count() == src.matches('}').count());
    }

    #[test]
    fn guards_and_divided_bounds_render() {
        use crate::{loop_b, stmt, ArrayDecl, ArrayRef, BoundTerm, Statement};
        let a = ArrayRef::vars("A", &["t"]);
        let s = Statement::new("S", a.clone(), ScalarExpr::from(a));
        let p = Program::new(
            "divbounds",
            vec!["N".into()],
            vec![ArrayDecl::new("A", vec![LinExpr::var("N")])],
            vec![s],
            vec![loop_b(
                "t",
                Bound::new(vec![BoundTerm::div(LinExpr::constant(1), 4)]),
                Bound::new(vec![
                    BoundTerm::affine(LinExpr::var("N")),
                    BoundTerm::div(LinExpr::var("N") + LinExpr::constant(3), 4),
                ]),
                vec![stmt(0)],
            )],
        );
        let r = emit(&p, Dialect::Rust);
        assert!(r.contains("ceild(1, 4)"), "{r}");
        assert!(r.contains(".min(floord(n_ + 3, 4))"), "{r}");
    }

    #[test]
    fn sign_and_division_emit() {
        let src = emit(&kernels::qr_householder(), Dialect::Rust);
        assert!(src.contains("signf("), "{src}");
        assert!(src.contains(".sqrt()"), "{src}");
    }

    #[test]
    fn counter_mode_adds_argument_and_increments() {
        let src = emit_with(
            &kernels::matmul_ijk(),
            Dialect::Rust,
            EmitOptions {
                counters: true,
                trace: false,
            },
        );
        assert!(src.contains("cnt_: &mut [u64]"), "{src}");
        assert!(src.contains("cnt_[0] += 1;"), "{src}");
        // Uninstrumented emission is untouched.
        let plain = emit(&kernels::matmul_ijk(), Dialect::Rust);
        assert!(!plain.contains("cnt_"), "{plain}");
    }

    #[test]
    fn trace_mode_flattens_loads_and_flushes() {
        let src = emit_with(
            &kernels::matmul_ijk(),
            Dialect::Rust,
            EmitOptions {
                counters: true,
                trace: true,
            },
        );
        assert!(src.contains("tr_: &mut Vec<u64>"), "{src}");
        // matmul rhs C + A*B: loads C, A, B in DFS order, then writes C.
        assert!(src.contains("let t0 = c_a[o0];"), "{src}");
        assert!(src.contains("let t1 = a_a[o1];"), "{src}");
        assert!(src.contains("let t2 = b_a[o2];"), "{src}");
        assert!(src.contains("c_a[ow] = (t0 + (t1 * t2));"), "{src}");
        // Arrays declare as C, A, B → C=0, A=1, B=2; load codes are
        // idx<<1, the C write is (0<<1)|1 = 1.
        assert!(src.contains("((o0 as u64) << 8) | 0"), "{src}");
        assert!(src.contains("((o1 as u64) << 8) | 2"), "{src}");
        assert!(src.contains("((o2 as u64) << 8) | 4"), "{src}");
        assert!(src.contains("((ow as u64) << 8) | 1"), "{src}");
        assert!(
            src.contains(&format!(
                "if tr_.len() >= {TRACE_FLUSH_CODES} {{ flush_trace(tr_); }}"
            )),
            "{src}"
        );
        assert!(src.matches('{').count() == src.matches('}').count());
    }
}
