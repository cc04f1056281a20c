//! The reference interpreter.
//!
//! Executes any [`Program`] — original input codes, naive shackled code
//! and scanned code alike — against a [`Workspace`], emitting one
//! [`Access`] event per array element touched. The interpreter is the
//! semantics of record for the whole workspace: every transformation is
//! validated by running source and transformed programs and comparing
//! workspaces.

use crate::{DenseArray, Workspace};
use shackle_ir::{Bound, Node, Program, ScalarExpr, Statement};
use shackle_polyhedra::num::{ceil_div, floor_div};
use std::collections::BTreeMap;

/// One array-element access, reported to an [`Observer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access<'a> {
    /// Name of the accessed array.
    pub array: &'a str,
    /// Position of that array in the program's declaration order
    /// ([`Program::arrays`]): what a layout indexes instead of looking
    /// the name up on every access.
    pub index: usize,
    /// Column-major element offset within the array.
    pub offset: usize,
    /// True for stores, false for loads.
    pub write: bool,
}

/// Receives every memory access during execution, in program order.
///
/// The cache simulator implements this to turn executions into address
/// traces; [`NullObserver`] ignores everything. Batching, where a
/// consumer wants it, is the observer's own business (see
/// `shackle_kernels::trace::Traced`): the engines hand over one access
/// at a time, and the value-free tracer ([`crate::trace_compiled`])
/// takes its observer by type, so that hand-over inlines.
pub trait Observer {
    /// Called once per element load/store.
    fn record(&mut self, access: Access<'_>);
}

/// An [`Observer`] that does nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn record(&mut self, _access: Access<'_>) {}
}

/// Execution statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Statement instances executed.
    pub instances: u64,
    /// Array element loads.
    pub loads: u64,
    /// Array element stores.
    pub stores: u64,
    /// Floating-point operations: `+ - * /` and `sqrt` each count 1;
    /// negation and sign-extraction are free, matching the BLAS/LAPACK
    /// flop-counting convention.
    pub flops: u64,
}

/// Execute `program` against `workspace` under the given parameter
/// binding, reporting accesses to `observer`.
///
/// # Panics
///
/// Panics on missing parameters, out-of-range subscripts, or a loop
/// bound mentioning an unbound variable — all of which indicate a
/// malformed program or an incorrect transformation, which is exactly
/// what the interpreter exists to expose.
///
/// # Examples
///
/// ```
/// use shackle_exec::{execute, NullObserver, Workspace};
/// use std::collections::BTreeMap;
/// let p = shackle_ir::kernels::matmul_ijk();
/// let params = BTreeMap::from([("N".to_string(), 3i64)]);
/// let mut ws = Workspace::for_program(&p, &params, |name, _| {
///     if name == "C" { 0.0 } else { 1.0 }
/// });
/// let stats = execute(&p, &mut ws, &params, &mut NullObserver);
/// assert_eq!(stats.instances, 27);
/// // C = A·B where A = B = all-ones: every C entry is N
/// assert_eq!(ws.array("C").unwrap().get(&[2, 3]), 3.0);
/// ```
pub fn execute(
    program: &Program,
    workspace: &mut Workspace,
    params: &BTreeMap<String, i64>,
    observer: &mut dyn Observer,
) -> ExecStats {
    let _phase = shackle_probe::span("interp");
    let mut interp = Interp {
        program,
        workspace,
        env: params.clone(),
        observer,
        stats: ExecStats::default(),
        flops_per_stmt: program.stmts().iter().map(count_flops).collect(),
    };
    interp.run_nodes(program.body());
    crate::publish_exec_stats(&interp.stats);
    interp.stats
}

pub(crate) fn count_flops(s: &Statement) -> u64 {
    fn walk(e: &ScalarExpr) -> u64 {
        match e {
            ScalarExpr::Ref(_) | ScalarExpr::Const(_) => 0,
            ScalarExpr::Add(a, b)
            | ScalarExpr::Sub(a, b)
            | ScalarExpr::Mul(a, b)
            | ScalarExpr::Div(a, b) => 1 + walk(a) + walk(b),
            ScalarExpr::Sqrt(a) => 1 + walk(a),
            // sign flips carry no arithmetic cost (BLAS convention)
            ScalarExpr::Neg(a) | ScalarExpr::Sign(a) => walk(a),
        }
    }
    walk(s.rhs())
}

struct Interp<'a> {
    program: &'a Program,
    workspace: &'a mut Workspace,
    env: BTreeMap<String, i64>,
    observer: &'a mut dyn Observer,
    stats: ExecStats,
    flops_per_stmt: Vec<u64>,
}

impl Interp<'_> {
    fn lookup(&self, v: &str) -> i64 {
        *self
            .env
            .get(v)
            .unwrap_or_else(|| panic!("unbound variable {v} during execution"))
    }

    /// The declaration-order index [`Access::index`] reports.
    fn array_index(&self, name: &str) -> usize {
        self.program
            .arrays()
            .iter()
            .position(|decl| decl.name() == name)
            .unwrap_or_else(|| panic!("unknown array {name}"))
    }

    fn eval_lin(&self, e: &shackle_polyhedra::LinExpr) -> i64 {
        e.eval(&|v| self.lookup(v))
    }

    fn eval_bound(&self, b: &Bound, lower: bool) -> i64 {
        let vals = b.terms.iter().map(|t| {
            let num = self.eval_lin(&t.expr);
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

    fn run_nodes(&mut self, nodes: &[Node]) {
        for n in nodes {
            match n {
                Node::Stmt(id) => self.run_stmt(*id),
                Node::If(cs, body) => {
                    if cs.iter().all(|c| c.eval(&|v| self.lookup(v))) {
                        self.run_nodes(body);
                    }
                }
                Node::Loop(l) => {
                    let lo = self.eval_bound(&l.lower, true);
                    let hi = self.eval_bound(&l.upper, false);
                    if lo > hi {
                        continue;
                    }
                    // Bind the variable once per loop *entry* — the key
                    // is cloned here and never again; iterations update
                    // the binding in place. The tail below is the scope
                    // guard: it restores the shadowed binding (inner
                    // loops reusing the name rely on it).
                    let shadowed = self.env.insert(l.var.clone(), lo);
                    let mut i = lo;
                    loop {
                        self.run_nodes(&l.body);
                        if i == hi {
                            break;
                        }
                        i += 1;
                        *self.env.get_mut(&l.var).expect("loop variable bound") = i;
                    }
                    match shadowed {
                        Some(v) => {
                            *self.env.get_mut(&l.var).expect("loop variable bound") = v;
                        }
                        None => {
                            self.env.remove(&l.var);
                        }
                    }
                }
            }
        }
    }

    fn run_stmt(&mut self, id: usize) {
        let stmt = &self.program.stmts()[id];
        let value = self.eval_scalar(stmt.rhs());
        let idx: Vec<i64> = stmt
            .write()
            .indices()
            .iter()
            .map(|e| self.eval_lin(e))
            .collect();
        let index = self.array_index(stmt.write().array());
        let arr = self
            .workspace
            .array_mut(stmt.write().array())
            .unwrap_or_else(|| panic!("unknown array {}", stmt.write().array()));
        let offset = arr.offset(&idx);
        arr.data_mut()[offset] = value;
        self.observer.record(Access {
            array: stmt.write().array(),
            index,
            offset,
            write: true,
        });
        self.stats.stores += 1;
        self.stats.instances += 1;
        self.stats.flops += self.flops_per_stmt[id];
    }

    fn eval_scalar(&mut self, e: &ScalarExpr) -> f64 {
        match e {
            ScalarExpr::Const(c) => *c,
            ScalarExpr::Ref(r) => {
                let idx: Vec<i64> = r.indices().iter().map(|x| self.eval_lin(x)).collect();
                let arr: &DenseArray = self
                    .workspace
                    .array(r.array())
                    .unwrap_or_else(|| panic!("unknown array {}", r.array()));
                let offset = arr.offset(&idx);
                let v = arr.data()[offset];
                let index = self.array_index(r.array());
                self.observer.record(Access {
                    array: r.array(),
                    index,
                    offset,
                    write: false,
                });
                self.stats.loads += 1;
                v
            }
            ScalarExpr::Add(a, b) => self.eval_scalar(a) + self.eval_scalar(b),
            ScalarExpr::Sub(a, b) => self.eval_scalar(a) - self.eval_scalar(b),
            ScalarExpr::Mul(a, b) => self.eval_scalar(a) * self.eval_scalar(b),
            ScalarExpr::Div(a, b) => self.eval_scalar(a) / self.eval_scalar(b),
            ScalarExpr::Sqrt(a) => self.eval_scalar(a).sqrt(),
            ScalarExpr::Neg(a) => -self.eval_scalar(a),
            ScalarExpr::Sign(a) => {
                if self.eval_scalar(a) < 0.0 {
                    -1.0
                } else {
                    1.0
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shackle_ir::kernels;

    fn params(n: i64) -> BTreeMap<String, i64> {
        BTreeMap::from([("N".to_string(), n)])
    }

    #[test]
    fn matmul_counts_and_values() {
        let p = kernels::matmul_ijk();
        let n = 5;
        let mut ws = Workspace::for_program(&p, &params(n), |name, idx| match name {
            "C" => 0.0,
            "A" => idx[0] as f64,
            _ => idx[1] as f64,
        });
        let stats = execute(&p, &mut ws, &params(n), &mut NullObserver);
        assert_eq!(stats.instances, (n * n * n) as u64);
        assert_eq!(stats.flops, 2 * (n * n * n) as u64);
        assert_eq!(stats.loads, 3 * (n * n * n) as u64);
        // C[i,j] = sum_k i * j = i*j*n
        let c = ws.array("C").unwrap();
        assert_eq!(c.get(&[2, 3]), (2 * 3 * n) as f64);
    }

    #[test]
    fn cholesky_factorizes_identity_scaled() {
        let p = kernels::cholesky_right();
        let n = 4;
        // A = 4·I: Cholesky factor is 2·I (lower triangle)
        let mut ws =
            Workspace::for_program(
                &p,
                &params(n),
                |_, idx| {
                    if idx[0] == idx[1] {
                        4.0
                    } else {
                        0.0
                    }
                },
            );
        execute(&p, &mut ws, &params(n), &mut NullObserver);
        let a = ws.array("A").unwrap();
        for i in 1..=n {
            assert_eq!(a.get(&[i, i]), 2.0);
            for j in 1..i {
                assert_eq!(a.get(&[i, j]), 0.0);
            }
        }
    }

    #[test]
    fn cholesky_small_known_matrix() {
        // A = [[4,2],[2,5]] → L = [[2,0],[1,2]]
        let p = kernels::cholesky_right();
        let n = 2;
        let vals = [[4.0, 2.0], [2.0, 5.0]];
        let mut ws = Workspace::for_program(&p, &params(n), |_, idx| vals[idx[0] - 1][idx[1] - 1]);
        execute(&p, &mut ws, &params(n), &mut NullObserver);
        let a = ws.array("A").unwrap();
        assert!((a.get(&[1, 1]) - 2.0).abs() < 1e-12);
        assert!((a.get(&[2, 1]) - 1.0).abs() < 1e-12);
        assert!((a.get(&[2, 2]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn left_and_right_cholesky_agree() {
        let n = 8;
        let spd = |idx: &[usize]| {
            // diagonally dominant symmetric matrix
            if idx[0] == idx[1] {
                20.0 + idx[0] as f64
            } else {
                1.0 / ((idx[0] + idx[1]) as f64)
            }
        };
        let pr = kernels::cholesky_right();
        let mut wr = Workspace::for_program(&pr, &params(n), |_, idx| spd(idx));
        execute(&pr, &mut wr, &params(n), &mut NullObserver);
        let pl = kernels::cholesky_left();
        let mut wl = Workspace::for_program(&pl, &params(n), |_, idx| spd(idx));
        execute(&pl, &mut wl, &params(n), &mut NullObserver);
        // compare lower triangles
        let (ar, al) = (wr.array("A").unwrap(), wl.array("A").unwrap());
        for i in 1..=n {
            for j in 1..=i {
                assert!(
                    (ar.get(&[i, j]) - al.get(&[i, j])).abs() < 1e-9,
                    "mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn flop_convention_ignores_neg_and_sign() {
        use shackle_ir::{ArrayRef, Statement};
        let a = || ScalarExpr::from(ArrayRef::vars("A", &["I"]));
        // -(sign(A[I]) * A[I]) + A[I]: one Mul + one Add; Neg and Sign
        // are free under the BLAS convention
        let rhs = ScalarExpr::Neg(Box::new(a().sign() * a())) + a();
        let s = Statement::new("S", ArrayRef::vars("A", &["I"]), rhs);
        assert_eq!(count_flops(&s), 2);
        // sqrt still costs one
        let s2 = Statement::new("S2", ArrayRef::vars("A", &["I"]), a().sqrt());
        assert_eq!(count_flops(&s2), 1);
    }

    #[test]
    fn cholesky_flop_formula() {
        // S1 (sqrt): n instances × 1 flop; S2 (div): n(n−1)/2 × 1;
        // S3 (sub+mul): Σ_j (n−j)(n−j+1)/2 instances × 2 — the classic
        // n³/3 + O(n²) Cholesky count.
        let p = kernels::cholesky_right();
        let n: i64 = 24;
        let init = crate::verify::spd_init("A", n as usize, 7);
        let mut ws = Workspace::for_program(&p, &params(n), init);
        let stats = execute(&p, &mut ws, &params(n), &mut NullObserver);
        let s3: i64 = (1..=n).map(|j| (n - j) * (n - j + 1) / 2).sum();
        let expect = n + n * (n - 1) / 2 + 2 * s3;
        assert_eq!(stats.flops, expect as u64);
        let ratio = stats.flops as f64 / (n as f64).powi(3);
        assert!((0.30..0.40).contains(&ratio), "n³/3 asymptotic: {ratio}");
    }

    #[test]
    fn observer_sees_accesses_in_order() {
        struct Collect(Vec<(String, usize, usize, bool)>);
        impl Observer for Collect {
            fn record(&mut self, a: Access<'_>) {
                self.0
                    .push((a.array.to_string(), a.index, a.offset, a.write));
            }
        }
        let p = kernels::matmul_ijk();
        let mut ws = Workspace::for_program(&p, &params(1), |_, _| 1.0);
        let mut obs = Collect(Vec::new());
        execute(&p, &mut ws, &params(1), &mut obs);
        // one instance: loads C, A, B then stores C; the indices are
        // the declaration order C, A, B
        assert_eq!(
            obs.0,
            vec![
                ("C".to_string(), 0, 0, false),
                ("A".to_string(), 1, 0, false),
                ("B".to_string(), 2, 0, false),
                ("C".to_string(), 0, 0, true),
            ]
        );
    }

    #[test]
    fn empty_loop_ranges_execute_nothing() {
        use shackle_ir::{loop_, stmt, ArrayDecl, ArrayRef, ScalarExpr, Statement};
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
        let stats = execute(&p, &mut ws, &params(3), &mut NullObserver);
        assert_eq!(stats.instances, 0);
    }

    #[test]
    fn gauss_eliminates() {
        // A = [[2,1],[4,4]] → L\U in place: U = [[2,1],[0,2]], L21 = 2
        let p = kernels::gauss();
        let vals = [[2.0, 1.0], [4.0, 4.0]];
        let mut ws = Workspace::for_program(&p, &params(2), |_, idx| vals[idx[0] - 1][idx[1] - 1]);
        execute(&p, &mut ws, &params(2), &mut NullObserver);
        let a = ws.array("A").unwrap();
        assert_eq!(a.get(&[2, 1]), 2.0);
        assert_eq!(a.get(&[2, 2]), 2.0);
    }

    #[test]
    fn qr_householder_known_2x2() {
        // A = [[3,1],[4,1]]: ‖col1‖ = 5, v = (3+5, 4) = (8,4), vᵀv = 80.
        // Reflecting column 2: w = vᵀa₂ = 12;
        //   A[1,2] = 1 − 2·8·12/80 = −1.4  (this is R[1,2])
        //   A[2,2] = 1 − 2·4·12/80 = −0.2
        // K = 2 then overwrites A[2,2] with its Householder v₁ =
        // −0.2 + sign(−0.2)·0.2 = −0.4. (|R[2,2]| = |det|/‖col1‖ = 0.2.)
        let p = kernels::qr_householder();
        let vals = [[3.0, 1.0], [4.0, 1.0]];
        let mut ws = Workspace::for_program(&p, &params(2), |name, idx| {
            if name == "A" {
                vals[idx[0] - 1][idx[1] - 1]
            } else {
                0.0
            }
        });
        execute(&p, &mut ws, &params(2), &mut NullObserver);
        let a = ws.array("A").unwrap();
        assert!((a.get(&[1, 2]) + 1.4).abs() < 1e-12, "{}", a.get(&[1, 2]));
        assert!((a.get(&[2, 2]) + 0.4).abs() < 1e-12, "{}", a.get(&[2, 2]));
        // the Householder scalars survive in T
        assert!((ws.array("T").unwrap().get(&[1]) - 80.0).abs() < 1e-12);
    }
}
