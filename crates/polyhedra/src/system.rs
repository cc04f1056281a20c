//! Conjunctions of affine constraints over named integer variables.

use crate::error::{PolyError, Resource};
use crate::num::{floor_div, floor_div_i128, gcd_i128, gcd_slice, narrow};
use crate::{Constraint, LinExpr, Rel};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A dense row: `coeffs · vars + constant (= | >=) 0`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Row {
    pub coeffs: Vec<i64>,
    pub constant: i64,
    pub rel: Rel,
}

impl Row {
    pub fn is_trivially_true(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0)
            && match self.rel {
                Rel::Eq => self.constant == 0,
                Rel::Geq => self.constant >= 0,
            }
    }

    pub fn is_trivially_false(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0)
            && match self.rel {
                Rel::Eq => self.constant != 0,
                Rel::Geq => self.constant < 0,
            }
    }
}

/// Outcome of narrowing an exact `i128` row back to `i64`.
pub(crate) enum NarrowedRow {
    /// A representable row (GCD-reduced).
    Row(Row),
    /// The row is trivially satisfied and can be dropped.
    True,
    /// The row is a contradiction (the whole system is infeasible).
    False,
}

/// Reduce an exact `i128` row by its coefficient GCD (integer-tightening
/// the constant for `Geq`, detecting divisibility contradictions for
/// `Eq`) and narrow it to `i64`. This is the "promote to i128, reduce,
/// retry" half of the fallible arithmetic path: a row only yields
/// [`PolyError::Overflow`] if its *reduced* form genuinely does not fit.
pub(crate) fn narrow_row(
    coeffs: &[i128],
    constant: i128,
    rel: Rel,
    max_coeff: i64,
) -> Result<NarrowedRow, PolyError> {
    if coeffs.iter().all(|&c| c == 0) {
        let sat = match rel {
            Rel::Eq => constant == 0,
            Rel::Geq => constant >= 0,
        };
        return Ok(if sat {
            NarrowedRow::True
        } else {
            NarrowedRow::False
        });
    }
    let g = coeffs.iter().fold(0i128, |g, &c| gcd_i128(g, c));
    debug_assert!(g > 0);
    let constant = match rel {
        Rel::Eq => {
            if constant % g != 0 {
                return Ok(NarrowedRow::False);
            }
            constant / g
        }
        Rel::Geq => floor_div_i128(constant, g),
    };
    let ceiling = |v: i64| -> Result<i64, PolyError> {
        if v.unsigned_abs() > max_coeff.unsigned_abs() {
            Err(PolyError::Budget {
                resource: Resource::Coefficient,
                limit: max_coeff.unsigned_abs(),
            })
        } else {
            Ok(v)
        }
    };
    let mut out = Vec::with_capacity(coeffs.len());
    for &c in coeffs {
        out.push(ceiling(narrow(c / g, "row coefficient")?)?);
    }
    let constant = ceiling(narrow(constant, "row constant")?)?;
    Ok(NarrowedRow::Row(Row {
        coeffs: out,
        constant,
        rel,
    }))
}

/// A conjunction of affine constraints — an integer polyhedron.
///
/// Variables are identified by name and shared structurally: conjoining
/// two systems aligns variables by name. All variables are interpreted as
/// ranging over the integers.
///
/// # Examples
///
/// ```
/// use shackle_polyhedra::{Constraint, LinExpr, System};
/// let mut s = System::new();
/// let x = LinExpr::var("x");
/// s.add(Constraint::ge(x.clone(), LinExpr::constant(1)));
/// s.add(Constraint::le(x, LinExpr::constant(10)));
/// assert!(s.is_integer_feasible());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct System {
    // `Arc` so that the solver's many intermediate systems share one
    // allocation of the variable universe: cloning a system (the
    // Omega test, `implies` probes, `and`) bumps a refcount instead of
    // cloning every name; mutation goes through `Arc::make_mut` and
    // copies only when actually shared.
    vars: Arc<Vec<String>>,
    rows: Vec<Row>,
    contradiction: bool,
}

impl Default for System {
    fn default() -> Self {
        Self::new()
    }
}

impl System {
    /// An empty (universally true) system.
    pub fn new() -> Self {
        System {
            vars: Arc::new(Vec::new()),
            rows: Vec::new(),
            contradiction: false,
        }
    }

    /// A constraint-free system sharing an existing variable universe
    /// (no per-name allocation; see the `vars` field).
    pub(crate) fn with_vars_arc(vars: Arc<Vec<String>>) -> Self {
        System {
            vars,
            rows: Vec::new(),
            contradiction: false,
        }
    }

    /// The shared handle to this system's variable universe.
    pub(crate) fn vars_arc(&self) -> Arc<Vec<String>> {
        Arc::clone(&self.vars)
    }

    /// Rebuild a system from raw parts, bypassing `add`'s tightening
    /// and pruning. Deserialization only: the cache's persistence layer
    /// must reproduce a cached `System` byte-for-byte, and replaying
    /// rows through `add` would re-run dominance pruning and GCD
    /// tightening against a different insertion history. Every row must
    /// have exactly `vars.len()` coefficients.
    pub(crate) fn from_raw_parts(vars: Vec<String>, rows: Vec<Row>, contradiction: bool) -> Self {
        debug_assert!(rows.iter().all(|r| r.coeffs.len() == vars.len()));
        System {
            vars: Arc::new(vars),
            rows,
            contradiction,
        }
    }

    /// Build a system from an iterator of constraints.
    pub fn from_constraints<I>(cons: I) -> Self
    where
        I: IntoIterator<Item = Constraint>,
    {
        let mut s = Self::new();
        for c in cons {
            s.add(c);
        }
        s
    }

    /// The variables of the system, in insertion order.
    pub fn vars(&self) -> &[String] {
        &self.vars
    }

    /// Number of constraints (rows).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the system has no constraints and no recorded
    /// contradiction.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty() && !self.contradiction
    }

    /// True if a trivially false constraint was added.
    pub fn is_contradictory(&self) -> bool {
        self.contradiction
    }

    /// Index of a variable, adding it if new.
    pub(crate) fn ensure_var(&mut self, name: &str) -> usize {
        if let Some(i) = self.vars.iter().position(|v| v == name) {
            i
        } else {
            Arc::make_mut(&mut self.vars).push(name.to_string());
            for r in &mut self.rows {
                r.coeffs.push(0);
            }
            self.vars.len() - 1
        }
    }

    /// Index of a variable if present.
    pub fn var_index(&self, name: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == name)
    }

    /// Add a constraint (normalizing by the GCD of its coefficients; for
    /// inequalities the constant is floor-tightened, which is sound over
    /// the integers).
    pub fn add(&mut self, c: Constraint) {
        if let Some(t) = c.constant_truth() {
            if !t {
                self.contradiction = true;
            }
            return;
        }
        let mut coeffs = vec![0i64; self.vars.len()];
        for (v, k) in c.expr().iter() {
            let i = self.ensure_var(v);
            if coeffs.len() < self.vars.len() {
                coeffs.resize(self.vars.len(), 0);
            }
            coeffs[i] = k;
        }
        coeffs.resize(self.vars.len(), 0);
        let row = Row {
            coeffs,
            constant: c.expr().constant_part(),
            rel: c.rel(),
        };
        self.push_row(row);
    }

    /// Add several constraints.
    pub fn add_all<I: IntoIterator<Item = Constraint>>(&mut self, cons: I) {
        for c in cons {
            self.add(c);
        }
    }

    pub(crate) fn push_row(&mut self, mut row: Row) {
        debug_assert_eq!(row.coeffs.len(), self.vars.len());
        let g = gcd_slice(&row.coeffs);
        if g == 0 {
            // constant row
            let ok = match row.rel {
                Rel::Eq => row.constant == 0,
                Rel::Geq => row.constant >= 0,
            };
            if !ok {
                self.contradiction = true;
            }
            return;
        }
        if g > 1 {
            match row.rel {
                Rel::Eq => {
                    if row.constant % g != 0 {
                        // e.g. 2x + 1 = 0 has no integer solution
                        self.contradiction = true;
                        return;
                    }
                    row.constant /= g;
                }
                Rel::Geq => {
                    // gcd-tighten: g·e + c >= 0  ⇔  e >= ceil(-c/g)
                    row.constant = floor_div(row.constant, g);
                }
            }
            for c in &mut row.coeffs {
                *c /= g;
            }
        }
        if row.is_trivially_false() {
            self.contradiction = true;
            return;
        }
        if row.is_trivially_true() {
            return;
        }
        // Dominance pruning (Imbert-style, on normalized rows): a new row
        // whose coefficient vector matches an existing row — directly or
        // negated — is either redundant, tightens the existing row in
        // place, or exposes a contradiction. Keeping only the dominant
        // row shrinks every later Fourier–Motzkin product; the
        // represented set is unchanged.
        enum Act {
            DropNew,
            Contradict,
            Replace(usize),
            Tighten(usize, i64),
        }
        let mut act = None;
        for (i, r) in self.rows.iter().enumerate() {
            let same = r.coeffs == row.coeffs;
            let negated = !same && r.coeffs.iter().zip(&row.coeffs).all(|(&a, &b)| a == -b);
            if !same && !negated {
                continue;
            }
            // `sum >= 0` iff the pair of constraints is consistent in the
            // negated cases; in i128 to sidestep overflow.
            let sum = r.constant as i128 + row.constant as i128;
            act = Some(match (same, r.rel, row.rel) {
                // e + c1 = 0 vs e + c2 = 0: equal or contradictory.
                (true, Rel::Eq, Rel::Eq) => {
                    if r.constant == row.constant {
                        Act::DropNew
                    } else {
                        Act::Contradict
                    }
                }
                // e + c1 >= 0 vs e + c2 >= 0: keep the smaller constant.
                (true, Rel::Geq, Rel::Geq) => {
                    if row.constant >= r.constant {
                        Act::DropNew
                    } else {
                        Act::Tighten(i, row.constant)
                    }
                }
                // e + c1 = 0 forces e = -c1; e + c2 >= 0 iff c2 >= c1.
                (true, Rel::Eq, Rel::Geq) => {
                    if row.constant >= r.constant {
                        Act::DropNew
                    } else {
                        Act::Contradict
                    }
                }
                // e + c1 >= 0 vs new e + c2 = 0: equality subsumes or
                // contradicts the inequality.
                (true, Rel::Geq, Rel::Eq) => {
                    if r.constant >= row.constant {
                        Act::Replace(i)
                    } else {
                        Act::Contradict
                    }
                }
                // e + c1 = 0 vs -e + c2 = 0: consistent iff c1 = -c2.
                (false, Rel::Eq, Rel::Eq) => {
                    if sum == 0 {
                        Act::DropNew
                    } else {
                        Act::Contradict
                    }
                }
                // e + c1 >= 0 and -e + c2 >= 0: empty band iff c1+c2 < 0.
                (false, Rel::Geq, Rel::Geq) => {
                    if sum < 0 {
                        Act::Contradict
                    } else {
                        continue; // a genuine two-sided bound: keep both
                    }
                }
                (false, Rel::Eq, Rel::Geq) => {
                    if sum >= 0 {
                        Act::DropNew
                    } else {
                        Act::Contradict
                    }
                }
                (false, Rel::Geq, Rel::Eq) => {
                    if sum >= 0 {
                        Act::Replace(i)
                    } else {
                        Act::Contradict
                    }
                }
            });
            break;
        }
        match act {
            None => self.rows.push(row),
            Some(Act::DropNew) => crate::cache::note_fm_pruned(1),
            Some(Act::Contradict) => self.contradiction = true,
            Some(Act::Replace(i)) => {
                self.rows[i] = row;
                crate::cache::note_fm_pruned(1);
            }
            Some(Act::Tighten(i, c)) => {
                self.rows[i].constant = c;
                crate::cache::note_fm_pruned(1);
            }
        }
    }

    /// Conjoin with another system (aligning variables by name).
    pub fn and(&self, other: &System) -> System {
        let mut out = self.clone();
        if other.contradiction {
            out.contradiction = true;
            return out;
        }
        // Push `other`'s rows in order, growing the variable universe
        // exactly as adding its sparse constraints one by one would
        // (within each row, unseen variables appear name-sorted) —
        // generated code depends on that order.
        let mut order: Vec<usize> = (0..other.vars.len()).collect();
        order.sort_by(|&a, &b| other.vars[a].cmp(&other.vars[b]));
        let mut map: Vec<Option<usize>> = other.vars.iter().map(|v| out.var_index(v)).collect();
        for r in &other.rows {
            for &j in &order {
                if r.coeffs[j] != 0 && map[j].is_none() {
                    map[j] = Some(out.ensure_var(&other.vars[j]));
                }
            }
            let mut coeffs = vec![0i64; out.vars.len()];
            for (j, &c) in r.coeffs.iter().enumerate() {
                if c != 0 {
                    coeffs[map[j].expect("mapped above")] = c;
                }
            }
            out.push_row(Row {
                coeffs,
                constant: r.constant,
                rel: r.rel,
            });
        }
        out
    }

    /// Convert rows back to sparse constraints.
    pub fn constraints(&self) -> Vec<Constraint> {
        self.rows
            .iter()
            .map(|r| {
                let mut e = LinExpr::constant(r.constant);
                for (i, &c) in r.coeffs.iter().enumerate() {
                    e.add_term(&self.vars[i], c);
                }
                match r.rel {
                    Rel::Eq => Constraint::eq_zero(e),
                    Rel::Geq => Constraint::geq_zero(e),
                }
            })
            .collect()
    }

    /// Syntactic domination: does some single row of `self` already
    /// imply constraint `c`? Sound but incomplete — used as a fast path
    /// in [`crate::simplify::implies`] to skip the Omega query for the
    /// common case where `c` is (a weakening of) a stored row. The
    /// check normalizes `c` exactly as [`Self::add`] would, so GCD
    /// tightening is taken into account.
    pub(crate) fn dominates(&self, c: &Constraint) -> bool {
        if let Some(t) = c.constant_truth() {
            return t;
        }
        let mut coeffs = vec![0i64; self.vars.len()];
        for (v, k) in c.expr().iter() {
            match self.var_index(v) {
                Some(i) => coeffs[i] = k,
                // a variable `self` knows nothing about: cannot be
                // implied by a single row
                None => return false,
            }
        }
        let mut constant = c.expr().constant_part();
        let g = gcd_slice(&coeffs);
        if g == 0 {
            return match c.rel() {
                Rel::Eq => constant == 0,
                Rel::Geq => constant >= 0,
            };
        }
        if g > 1 {
            match c.rel() {
                Rel::Eq => {
                    if constant % g != 0 {
                        return false;
                    }
                    constant /= g;
                }
                Rel::Geq => constant = floor_div(constant, g),
            }
            for x in &mut coeffs {
                *x /= g;
            }
        }
        self.rows.iter().any(|r| {
            let same = r.coeffs == coeffs;
            let negated = !same && r.coeffs.iter().zip(&coeffs).all(|(&a, &b)| a == -b);
            match (same, negated, r.rel, c.rel()) {
                // e + rc = 0 pins e; c follows iff it holds at -rc.
                (true, _, Rel::Eq, Rel::Eq) => r.constant == constant,
                (true, _, Rel::Eq, Rel::Geq) => constant >= r.constant,
                // e >= -rc >= -cc.
                (true, _, Rel::Geq, Rel::Geq) => constant >= r.constant,
                // -e + rc = 0 pins e = rc; evaluate c there.
                (_, true, Rel::Eq, Rel::Eq) => r.constant + constant == 0,
                (_, true, Rel::Eq, Rel::Geq) => r.constant + constant >= 0,
                _ => false,
            }
        })
    }

    /// Sound-but-incomplete two-row implication: does some nonnegative
    /// rational combination `λ1·r1 + λ2·r2` of two stored rows yield the
    /// (Geq) candidate's coefficient vector with at least its constant
    /// slack? This certifies transitive bound chains — `i ≤ j ∧ j ≤ N ⊨
    /// i ≤ N` — without an Omega query. Exact integer arithmetic via
    /// cross-multiplied 2×2 determinants (i128); equality rows admit
    /// either sign of λ. Only `Geq` candidates are attempted.
    pub(crate) fn dominates_pair(&self, c: &Constraint) -> bool {
        if c.rel() != Rel::Geq {
            return false;
        }
        let mut coeffs = vec![0i64; self.vars.len()];
        for (v, k) in c.expr().iter() {
            match self.var_index(v) {
                Some(i) => coeffs[i] = k,
                None => return false,
            }
        }
        let mut constant = c.expr().constant_part();
        let g = gcd_slice(&coeffs);
        if g == 0 {
            return constant >= 0;
        }
        if g > 1 {
            constant = floor_div(constant, g);
            for x in &mut coeffs {
                *x /= g;
            }
        }
        // Rows sharing a variable with the candidate; columns outside
        // the candidate's support must cancel between the pair, so a row
        // disjoint from the candidate can only contribute via such a
        // cancellation partner — rare enough to ignore.
        let relevant: Vec<&Row> = self
            .rows
            .iter()
            .filter(|r| {
                r.coeffs
                    .iter()
                    .zip(&coeffs)
                    .any(|(&a, &b)| b != 0 && a != 0)
            })
            .collect();
        for (i, r1) in relevant.iter().enumerate() {
            for r2 in &relevant[i + 1..] {
                // pick two columns giving an invertible 2×2 system
                let mut piv = None;
                'cols: for p in 0..coeffs.len() {
                    for q in (p + 1)..coeffs.len() {
                        let det = (r1.coeffs[p] as i128) * (r2.coeffs[q] as i128)
                            - (r1.coeffs[q] as i128) * (r2.coeffs[p] as i128);
                        if det != 0 {
                            piv = Some((p, q, det));
                            break 'cols;
                        }
                    }
                }
                let Some((p, q, det)) = piv else { continue };
                // λ1 = det1/det, λ2 = det2/det (Cramer)
                let det1 = (coeffs[p] as i128) * (r2.coeffs[q] as i128)
                    - (coeffs[q] as i128) * (r2.coeffs[p] as i128);
                let det2 = (r1.coeffs[p] as i128) * (coeffs[q] as i128)
                    - (r1.coeffs[q] as i128) * (coeffs[p] as i128);
                // sign conditions: λ ≥ 0 required for Geq rows
                let s = if det < 0 { -1i128 } else { 1 };
                if (r1.rel == Rel::Geq && s * det1 < 0) || (r2.rel == Rel::Geq && s * det2 < 0) {
                    continue;
                }
                // verify every column: det·c = det1·r1 + det2·r2
                let ok = (0..coeffs.len()).all(|k| {
                    det * (coeffs[k] as i128)
                        == det1 * (r1.coeffs[k] as i128) + det2 * (r2.coeffs[k] as i128)
                });
                if !ok {
                    continue;
                }
                // constant slack: det·cc ≥ det1·c1 + det2·c2 (flip if det < 0)
                let lhs = det * (constant as i128);
                let rhs = det1 * (r1.constant as i128) + det2 * (r2.constant as i128);
                if (det > 0 && lhs >= rhs) || (det < 0 && lhs <= rhs) {
                    return true;
                }
            }
        }
        false
    }

    pub(crate) fn rows(&self) -> &[Row] {
        &self.rows
    }

    pub(crate) fn set_contradiction(&mut self) {
        self.contradiction = true;
    }

    /// Drop a variable column entirely (the caller guarantees no row uses
    /// it).
    pub(crate) fn drop_var_column(&mut self, idx: usize) {
        debug_assert!(self.rows.iter().all(|r| r.coeffs[idx] == 0));
        Arc::make_mut(&mut self.vars).remove(idx);
        for r in &mut self.rows {
            r.coeffs.remove(idx);
        }
    }

    /// Evaluate the whole system under a total assignment.
    pub fn eval(&self, env: &dyn Fn(&str) -> i64) -> bool {
        if self.contradiction {
            return false;
        }
        self.constraints().iter().all(|c| c.eval(env))
    }

    /// Rename a variable throughout.
    ///
    /// # Panics
    ///
    /// Panics if `to` is already a variable of the system.
    pub fn rename_var(&mut self, from: &str, to: &str) {
        if let Some(_i) = self.var_index(from) {
            assert!(
                self.var_index(to).is_none(),
                "rename_var would merge {from} into existing {to}"
            );
            for v in Arc::make_mut(&mut self.vars) {
                if v == from {
                    *v = to.to_string();
                }
            }
        }
    }

    /// Apply a renaming function to all variables at once.
    ///
    /// # Panics
    ///
    /// Panics if the renaming is not injective on this system's variables.
    pub fn rename_all(&mut self, f: &dyn Fn(&str) -> String) {
        let new: Vec<String> = self.vars.iter().map(|v| f(v)).collect();
        let distinct: BTreeSet<&String> = new.iter().collect();
        assert_eq!(distinct.len(), new.len(), "rename_all must be injective");
        self.vars = Arc::new(new);
    }

    /// Substitute an affine expression for a variable (exact; used when a
    /// variable is defined by an equality with unit coefficient).
    pub fn substitute(&self, name: &str, replacement: &LinExpr) -> System {
        let mut out = System::new();
        // keep variable universe stable (minus `name`, plus replacement's)
        for v in self.vars.iter() {
            if v != name {
                out.ensure_var(v);
            }
        }
        for v in replacement.vars() {
            out.ensure_var(v);
        }
        if self.contradiction {
            out.contradiction = true;
            return out;
        }
        for c in self.constraints() {
            out.add(c.substitute(name, replacement));
        }
        out
    }

    /// Fallible [`Self::substitute`] with every coefficient product
    /// overflow-checked (witness extraction in
    /// [`crate::omega::find_point`] pins variables through it).
    pub fn try_substitute(
        &self,
        name: &str,
        replacement: &LinExpr,
    ) -> Result<System, crate::error::PolyError> {
        let mut out = System::new();
        for v in self.vars.iter() {
            if v != name {
                out.ensure_var(v);
            }
        }
        for v in replacement.vars() {
            out.ensure_var(v);
        }
        if self.contradiction {
            out.contradiction = true;
            return Ok(out);
        }
        for c in self.constraints() {
            out.add(c.try_substitute(name, replacement)?);
        }
        Ok(out)
    }

    /// Dense variable substitution used by the Omega test's equality
    /// elimination: rebuild the system with column `k` replaced by the
    /// affine form `repl · vars + repl_const` (where `repl` is indexed
    /// by this system's columns and `repl[k]` is ignored), optionally
    /// appending one fresh variable with the given coefficient. Row
    /// values, row order and variable order are exactly those of the
    /// sparse path `self.substitute(...)` + column drop, so the two are
    /// interchangeable; this one skips the string-keyed round trip.
    ///
    /// Every row is computed exactly in `i128` and narrowed via
    /// [`narrow_row`], so substitution never wraps or panics: rows whose
    /// reduced form exceeds `i64` (or `max_coeff`) surface a
    /// [`PolyError`].
    pub(crate) fn try_substitute_col(
        &self,
        k: usize,
        repl: &[i64],
        repl_const: i64,
        extra: Option<(&str, i64)>,
        max_coeff: i64,
    ) -> Result<System, PolyError> {
        let mut names: Vec<String> = Vec::with_capacity(self.vars.len() + 1);
        for (i, v) in self.vars.iter().enumerate() {
            if i != k {
                names.push(v.clone());
            }
        }
        if let Some((name, _)) = extra {
            names.push(name.to_string());
        }
        let mut out = System::with_vars_arc(Arc::new(names));
        if self.contradiction {
            out.contradiction = true;
            return Ok(out);
        }
        let n = out.vars.len();
        for r in &self.rows {
            let c = r.coeffs[k] as i128;
            let mut coeffs: Vec<i128> = Vec::with_capacity(n);
            for (i, &a) in r.coeffs.iter().enumerate() {
                if i != k {
                    coeffs.push(a as i128 + c * repl[i] as i128);
                }
            }
            if let Some((_, ec)) = extra {
                coeffs.push(c * ec as i128);
            }
            let constant = r.constant as i128 + c * repl_const as i128;
            match narrow_row(&coeffs, constant, r.rel, max_coeff)? {
                NarrowedRow::Row(row) => out.push_row(row),
                NarrowedRow::True => {}
                NarrowedRow::False => {
                    out.contradiction = true;
                    return Ok(out);
                }
            }
        }
        Ok(out)
    }

    /// The variables that actually occur with non-zero coefficient.
    pub fn used_vars(&self) -> Vec<String> {
        let mut used = Vec::new();
        for (i, v) in self.vars.iter().enumerate() {
            if self.rows.iter().any(|r| r.coeffs[i] != 0) {
                used.push(v.clone());
            }
        }
        used
    }

    /// Brute-force enumeration of all solutions with every variable in
    /// `[lo, hi]`. Only for tests on tiny boxes.
    pub fn enumerate_box(&self, lo: i64, hi: i64) -> Vec<Vec<i64>> {
        let n = self.vars.len();
        let mut out = Vec::new();
        if self.contradiction {
            return out;
        }
        let mut point = vec![lo; n];
        'outer: loop {
            let env = |v: &str| {
                let i = self.var_index(v).unwrap();
                point[i]
            };
            if self.eval(&env) {
                out.push(point.clone());
            }
            // odometer
            for i in 0..n {
                if point[i] < hi {
                    point[i] += 1;
                    for p in point.iter_mut().take(i) {
                        *p = lo;
                    }
                    continue 'outer;
                }
            }
            break;
        }
        if n == 0 && self.rows.is_empty() && !self.contradiction {
            // the empty system has the single empty solution (already
            // pushed above by the first loop pass)
        }
        out
    }
}

impl FromIterator<Constraint> for System {
    fn from_iter<I: IntoIterator<Item = Constraint>>(iter: I) -> Self {
        System::from_constraints(iter)
    }
}

impl Extend<Constraint> for System {
    fn extend<I: IntoIterator<Item = Constraint>>(&mut self, iter: I) {
        self.add_all(iter);
    }
}

impl fmt::Display for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.contradiction {
            return write!(f, "{{ false }}");
        }
        write!(f, "{{ ")?;
        for (i, c) in self.constraints().iter().enumerate() {
            if i > 0 {
                write!(f, " and ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, " }}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> LinExpr {
        LinExpr::var("x")
    }

    #[test]
    fn add_and_normalize() {
        let mut s = System::new();
        s.add(Constraint::geq_zero(x() * 2 - LinExpr::constant(3)));
        // 2x - 3 >= 0 tightens to x - 2 >= 0 (x >= ceil(3/2) = 2)
        let cs = s.constraints();
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].to_string(), "x - 2 >= 0");
    }

    #[test]
    fn equality_divisibility_contradiction() {
        let mut s = System::new();
        s.add(Constraint::eq_zero(x() * 2 - LinExpr::constant(3)));
        assert!(s.is_contradictory());
    }

    #[test]
    fn trivial_rows() {
        let mut s = System::new();
        s.add(Constraint::geq_zero(LinExpr::constant(5)));
        assert!(s.is_empty());
        s.add(Constraint::geq_zero(LinExpr::constant(-1)));
        assert!(s.is_contradictory());
    }

    #[test]
    fn duplicate_rows_are_merged() {
        let mut s = System::new();
        s.add(Constraint::ge(x(), LinExpr::constant(1)));
        s.add(Constraint::ge(x(), LinExpr::constant(1)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn and_aligns_vars_by_name() {
        let mut a = System::new();
        a.add(Constraint::ge(x(), LinExpr::constant(0)));
        let mut b = System::new();
        b.add(Constraint::le(LinExpr::var("y"), x()));
        let c = a.and(&b);
        assert_eq!(c.len(), 2);
        assert!(c.eval(&|v| if v == "x" { 3 } else { 2 }));
        assert!(!c.eval(&|v| if v == "x" { 3 } else { 4 }));
    }

    #[test]
    fn substitute_eliminates() {
        let mut s = System::new();
        s.add(Constraint::le(x(), LinExpr::var("n")));
        let t = s.substitute("x", &(LinExpr::var("j") + LinExpr::constant(1)));
        assert!(t.var_index("x").is_none() || t.used_vars().iter().all(|v| v != "x"));
        assert!(t.eval(&|v| match v {
            "j" => 3,
            "n" => 4,
            _ => 0,
        }));
        assert!(!t.eval(&|v| match v {
            "j" => 4,
            "n" => 4,
            _ => 0,
        }));
    }

    #[test]
    fn enumerate_box_small() {
        let mut s = System::new();
        s.add(Constraint::ge(x(), LinExpr::constant(1)));
        s.add(Constraint::le(x(), LinExpr::constant(3)));
        let sols = s.enumerate_box(0, 5);
        assert_eq!(sols.len(), 3);
    }

    #[test]
    fn display() {
        let mut s = System::new();
        s.add(Constraint::ge(x(), LinExpr::constant(1)));
        assert_eq!(s.to_string(), "{ x - 1 >= 0 }");
    }
}
