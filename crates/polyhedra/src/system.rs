//! Conjunctions of affine constraints over named integer variables.
//!
//! A [`System`] is one row-major buffer of coefficients, exactly
//! `len() × vars().len()` wide, with each row's constant and relation
//! stored beside it in a [`Row`]: a clone is two copies, and no row owns
//! an allocation. Rows are written straight into the buffer's tail
//! ([`System::stage_row`]) and admitted by [`System::commit_row`], which
//! normalises and dominance-prunes them in place.

use crate::error::{PolyError, Resource};
use crate::num::{floor_div, floor_div_i128, gcd_i128, gcd_slice, narrow};
use crate::{Constraint, LinExpr, Rel};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// One row's scalars: `coeffs · vars + constant (= | >=) 0`, where the
/// coefficients are the row's stretch of the owning system's buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Row {
    pub constant: i64,
    pub rel: Rel,
    /// [`signature`] of the coefficients.
    sig: u64,
}

/// A borrowed row: its coefficients (one per variable) and scalars.
#[derive(Clone, Copy)]
pub(crate) struct RowRef<'a> {
    pub coeffs: &'a [i64],
    pub constant: i64,
    pub rel: Rel,
}

/// Sign-normalised signature of a coefficient vector: a row and its
/// negation share it, so dominance pruning compares one word per stored
/// row and compares coefficients only where the words match.
fn signature(coeffs: &[i64]) -> u64 {
    let sign = coeffs.iter().find(|&&c| c != 0).map_or(1, |c| c.signum());
    coeffs
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c != 0)
        .fold(0u64, |h, (j, &c)| {
            (h.rotate_left(7) ^ ((j as u64) << 40) ^ c.wrapping_mul(sign) as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        })
}

/// Outcome of narrowing an exact `i128` row (see [`narrow_into`]).
enum Narrowed {
    /// A representable row, its coefficients written; the constant.
    Row(i64),
    /// The row is trivially satisfied and can be dropped.
    True,
    /// The row is a contradiction (the whole system is infeasible).
    False,
}

/// The reduction behind [`System::push_narrowed`]: divide an exact
/// `i128` row by its coefficient GCD (integer-tightening the constant
/// for `Geq`, detecting divisibility contradictions for `Eq`) and narrow
/// its coefficients into `out`.
fn narrow_into(
    coeffs: &[i128],
    constant: i128,
    rel: Rel,
    max_coeff: i64,
    out: &mut [i64],
) -> Result<Narrowed, PolyError> {
    if coeffs.iter().all(|&c| c == 0) {
        let sat = match rel {
            Rel::Eq => constant == 0,
            Rel::Geq => constant >= 0,
        };
        return Ok(if sat { Narrowed::True } else { Narrowed::False });
    }
    let g = coeffs.iter().fold(0i128, |g, &c| gcd_i128(g, c));
    debug_assert!(g > 0);
    let constant = match rel {
        Rel::Eq => {
            if constant % g != 0 {
                return Ok(Narrowed::False);
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
    for (dst, &c) in out.iter_mut().zip(coeffs) {
        *dst = ceiling(narrow(c / g, "row coefficient")?)?;
    }
    Ok(Narrowed::Row(ceiling(narrow(constant, "row constant")?)?))
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
    /// Row-major coefficients: row `i` is `flat[i * w..(i + 1) * w]`
    /// for `w = vars.len()`. Between [`Self::stage_row`] and
    /// [`Self::commit_row`] one staged row sits past the last `Row`.
    flat: Vec<i64>,
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
        Self::with_vars_arc(Arc::new(Vec::new()))
    }

    /// A constraint-free system sharing an existing variable universe
    /// (no per-name allocation; see the `vars` field).
    pub(crate) fn with_vars_arc(vars: Arc<Vec<String>>) -> Self {
        System {
            vars,
            flat: Vec::new(),
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
    /// tightening against a different insertion history. `flat` holds
    /// `heads.len()` rows of exactly `vars.len()` coefficients.
    pub(crate) fn from_raw_parts(
        vars: Vec<String>,
        flat: Vec<i64>,
        heads: &[(i64, Rel)],
        contradiction: bool,
    ) -> Self {
        let w = vars.len();
        debug_assert_eq!(flat.len(), heads.len() * w);
        let rows = heads
            .iter()
            .enumerate()
            .map(|(i, &(constant, rel))| Row {
                constant,
                rel,
                sig: signature(&flat[i * w..(i + 1) * w]),
            })
            .collect();
        System {
            vars: Arc::new(vars),
            flat,
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

    /// Row `i`.
    pub(crate) fn row(&self, i: usize) -> RowRef<'_> {
        let w = self.vars.len();
        let Row { constant, rel, .. } = self.rows[i];
        RowRef {
            coeffs: &self.flat[i * w..(i + 1) * w],
            constant,
            rel,
        }
    }

    /// The rows, in order.
    pub(crate) fn rows(&self) -> impl ExactSizeIterator<Item = RowRef<'_>> + '_ {
        (0..self.rows.len()).map(|i| self.row(i))
    }

    /// True if some row has a non-zero coefficient in column `i`.
    pub(crate) fn column_used(&self, i: usize) -> bool {
        self.rows().any(|r| r.coeffs[i] != 0)
    }

    /// Append `names` (none of them present) as zero columns, relaying
    /// the buffer out once for all of them.
    fn add_columns(&mut self, names: &[&str]) {
        if names.is_empty() {
            return;
        }
        let (w, n) = (self.vars.len(), self.rows.len());
        debug_assert_eq!(self.flat.len(), n * w, "no row may be staged");
        Arc::make_mut(&mut self.vars).extend(names.iter().map(|v| v.to_string()));
        let nw = self.vars.len();
        self.flat.resize(n * nw, 0);
        // Back to front, so no row is overwritten before it has moved;
        // appended zero columns leave every row's signature unchanged.
        for i in (0..n).rev() {
            self.flat.copy_within(i * w..(i + 1) * w, i * nw);
            self.flat[i * nw + w..(i + 1) * nw].fill(0);
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
        // New variables join in the expression's (name) order.
        let missing: Vec<&str> = c
            .expr()
            .vars()
            .filter(|v| self.var_index(v).is_none())
            .collect();
        self.add_columns(&missing);
        let start = self.rows.len() * self.vars.len();
        self.stage_row();
        for (v, k) in c.expr().iter() {
            let i = self.var_index(v).expect("column added above");
            self.flat[start + i] = k;
        }
        self.commit_row(c.expr().constant_part(), c.rel());
    }

    /// Add several constraints.
    pub fn add_all<I: IntoIterator<Item = Constraint>>(&mut self, cons: I) {
        for c in cons {
            self.add(c);
        }
    }

    /// Open a zeroed row at the buffer's tail for a writer to fill in
    /// place. [`Self::commit_row`] admits it and [`Self::discard_row`]
    /// drops it; nothing may read the system in between.
    pub(crate) fn stage_row(&mut self) -> &mut [i64] {
        let start = self.rows.len() * self.vars.len();
        debug_assert_eq!(self.flat.len(), start, "a row is already staged");
        self.flat.resize(start + self.vars.len(), 0);
        &mut self.flat[start..]
    }

    /// Drop the staged row.
    pub(crate) fn discard_row(&mut self) {
        self.flat.truncate(self.rows.len() * self.vars.len());
    }

    /// Add a row from a coefficient slice (see [`Self::commit_row`]).
    pub(crate) fn push_row(&mut self, coeffs: &[i64], constant: i64, rel: Rel) {
        self.stage_row().copy_from_slice(coeffs);
        self.commit_row(constant, rel);
    }

    /// Admit the staged row `staged · vars + constant (= | >=) 0`:
    /// GCD-normalise it in place, absorb it if it is constant, and prune
    /// it against the stored rows by dominance.
    pub(crate) fn commit_row(&mut self, mut constant: i64, rel: Rel) {
        let w = self.vars.len();
        let start = self.rows.len() * w;
        debug_assert_eq!(self.flat.len(), start + w, "no row is staged");
        let row = &mut self.flat[start..];
        let g = gcd_slice(row);
        if g == 0 {
            // constant row
            self.flat.truncate(start);
            let ok = match rel {
                Rel::Eq => constant == 0,
                Rel::Geq => constant >= 0,
            };
            if !ok {
                self.contradiction = true;
            }
            return;
        }
        if g > 1 {
            match rel {
                Rel::Eq => {
                    if constant % g != 0 {
                        // e.g. 2x + 1 = 0 has no integer solution
                        self.flat.truncate(start);
                        self.contradiction = true;
                        return;
                    }
                    constant /= g;
                }
                Rel::Geq => {
                    // gcd-tighten: g·e + c >= 0  ⇔  e >= ceil(-c/g)
                    constant = floor_div(constant, g);
                }
            }
            for c in row.iter_mut() {
                *c /= g;
            }
        }
        let sig = signature(row);
        // Dominance pruning (Imbert-style, on normalized rows): a new row
        // whose coefficient vector matches an existing row — directly or
        // negated — is either redundant, tightens the existing row in
        // place, or exposes a contradiction. Keeping only the dominant
        // row shrinks every later Fourier–Motzkin product; the
        // represented set is unchanged. Rows whose signature differs
        // can match neither way and are skipped unread.
        enum Act {
            DropNew,
            Contradict,
            Replace(usize),
            Tighten(usize, i64),
        }
        let (stored, new) = self.flat.split_at(start);
        let mut act = None;
        for (i, r) in self.rows.iter().enumerate() {
            if r.sig != sig {
                continue;
            }
            let old = &stored[i * w..(i + 1) * w];
            let same = old == new;
            let negated = !same
                && old
                    .iter()
                    .zip(new)
                    .all(|(&a, &b)| b.checked_neg() == Some(a));
            if !same && !negated {
                continue;
            }
            // `sum >= 0` iff the pair of constraints is consistent in the
            // negated cases; in i128 to sidestep overflow.
            let sum = r.constant as i128 + constant as i128;
            act = Some(match (same, r.rel, rel) {
                // e + c1 = 0 vs e + c2 = 0: equal or contradictory.
                (true, Rel::Eq, Rel::Eq) => {
                    if r.constant == constant {
                        Act::DropNew
                    } else {
                        Act::Contradict
                    }
                }
                // e + c1 >= 0 vs e + c2 >= 0: keep the smaller constant.
                (true, Rel::Geq, Rel::Geq) => {
                    if constant >= r.constant {
                        Act::DropNew
                    } else {
                        Act::Tighten(i, constant)
                    }
                }
                // e + c1 = 0 forces e = -c1; e + c2 >= 0 iff c2 >= c1.
                (true, Rel::Eq, Rel::Geq) => {
                    if constant >= r.constant {
                        Act::DropNew
                    } else {
                        Act::Contradict
                    }
                }
                // e + c1 >= 0 vs new e + c2 = 0: equality subsumes or
                // contradicts the inequality.
                (true, Rel::Geq, Rel::Eq) => {
                    if r.constant >= constant {
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
        let row = Row { constant, rel, sig };
        match act {
            None => {
                self.rows.push(row);
                return;
            }
            Some(Act::DropNew) => crate::cache::note_fm_pruned(1),
            Some(Act::Contradict) => self.contradiction = true,
            Some(Act::Replace(i)) => {
                self.flat.copy_within(start.., i * w);
                self.rows[i] = row;
                crate::cache::note_fm_pruned(1);
            }
            Some(Act::Tighten(i, c)) => {
                self.rows[i].constant = c;
                crate::cache::note_fm_pruned(1);
            }
        }
        self.flat.truncate(start);
    }

    /// Add the exact `i128` row `coeffs · vars + constant (= | >=) 0`:
    /// reduce it by its coefficient GCD (integer-tightening the constant
    /// for `Geq`, detecting divisibility contradictions for `Eq`),
    /// narrow it straight into the buffer and admit it as
    /// [`Self::commit_row`] does. This is the "promote to i128, reduce,
    /// retry" half of the fallible arithmetic path: a row only yields
    /// [`PolyError::Overflow`] if its *reduced* form genuinely does not
    /// fit. Returns `Ok(false)`, with the system flagged contradictory,
    /// when the row is a contradiction; a trivially true row is dropped.
    pub(crate) fn push_narrowed(
        &mut self,
        coeffs: &[i128],
        constant: i128,
        rel: Rel,
        max_coeff: i64,
    ) -> Result<bool, PolyError> {
        let narrowed = narrow_into(coeffs, constant, rel, max_coeff, self.stage_row());
        if let Ok(Narrowed::Row(constant)) = narrowed {
            self.commit_row(constant, rel);
            return Ok(true);
        }
        self.discard_row();
        match narrowed? {
            Narrowed::False => {
                self.contradiction = true;
                Ok(false)
            }
            _ => Ok(true),
        }
    }

    /// Conjoin with another system (aligning variables by name).
    pub fn and(&self, other: &System) -> System {
        const UNMAPPED: u32 = u32::MAX;
        let mut out = self.clone();
        if other.contradiction {
            out.contradiction = true;
            return out;
        }
        let mut map = crate::scratch::idx_vec();
        map.extend(
            other
                .vars
                .iter()
                .map(|v| out.var_index(v).map_or(UNMAPPED, |i| i as u32)),
        );
        // Grow the variable universe exactly as adding `other`'s sparse
        // constraints one by one would (row by row; within a row, unseen
        // variables name-sorted) — generated code depends on that order
        // — but collect the names first, so the buffer is relaid once.
        let mut missing: Vec<&str> = Vec::new();
        if map.contains(&UNMAPPED) {
            let mut order = crate::scratch::idx_vec();
            order.extend(0..other.vars.len() as u32);
            order.sort_by(|&a, &b| other.vars[a as usize].cmp(&other.vars[b as usize]));
            for r in other.rows() {
                for &j in order.iter() {
                    let j = j as usize;
                    if r.coeffs[j] != 0 && map[j] == UNMAPPED {
                        map[j] = (out.vars.len() + missing.len()) as u32;
                        missing.push(&other.vars[j]);
                    }
                }
            }
        }
        out.add_columns(&missing);
        for r in other.rows() {
            let row = out.stage_row();
            for (&j, &c) in map.iter().zip(r.coeffs) {
                if c != 0 {
                    row[j as usize] = c;
                }
            }
            out.commit_row(r.constant, r.rel);
        }
        out
    }

    /// Convert rows back to sparse constraints.
    pub fn constraints(&self) -> Vec<Constraint> {
        self.rows()
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

    /// `c`'s coefficients over this system's columns, GCD-normalised
    /// exactly as [`Self::add`] would, into `coeffs`: `Err(verdict)` when
    /// the check is decided without a row (a constant constraint, an
    /// unsatisfiable equality, or a variable `self` lacks — `false`).
    fn normalized_into(&self, c: &Constraint, coeffs: &mut Vec<i64>) -> Result<i64, bool> {
        if let Some(t) = c.constant_truth() {
            return Err(t);
        }
        coeffs.resize(self.vars.len(), 0);
        for (v, k) in c.expr().iter() {
            // a variable `self` knows nothing about: cannot be implied by
            // its rows
            coeffs[self.var_index(v).ok_or(false)?] = k;
        }
        let mut constant = c.expr().constant_part();
        let g = gcd_slice(coeffs);
        if g > 1 {
            match c.rel() {
                Rel::Eq => {
                    if constant % g != 0 {
                        return Err(false);
                    }
                    constant /= g;
                }
                Rel::Geq => constant = floor_div(constant, g),
            }
            for x in coeffs.iter_mut() {
                *x /= g;
            }
        }
        Ok(constant)
    }

    /// Syntactic domination: does some single row of `self` already
    /// imply constraint `c`? Sound but incomplete — used as a fast path
    /// in [`crate::simplify::implies`] to skip the Omega query for the
    /// common case where `c` is (a weakening of) a stored row. The
    /// check normalizes `c` exactly as [`Self::add`] would, so GCD
    /// tightening is taken into account.
    pub(crate) fn dominates(&self, c: &Constraint) -> bool {
        let mut coeffs = crate::scratch::coeff_vec();
        let constant = match self.normalized_into(c, &mut coeffs) {
            Ok(constant) => constant,
            Err(verdict) => return verdict,
        };
        let sig = signature(&coeffs);
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, r)| r.sig == sig)
            .any(|(i, r)| {
                let rc = self.row(i).coeffs;
                let same = rc == &coeffs[..];
                let negated = !same
                    && rc
                        .iter()
                        .zip(coeffs.iter())
                        .all(|(&a, &b)| b.checked_neg() == Some(a));
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
        let mut coeffs = crate::scratch::coeff_vec();
        let constant = match self.normalized_into(c, &mut coeffs) {
            Ok(constant) => constant,
            Err(verdict) => return verdict,
        };
        let coeffs = &coeffs[..];
        // Rows sharing a variable with the candidate; columns outside
        // the candidate's support must cancel between the pair, so a row
        // disjoint from the candidate can only contribute via such a
        // cancellation partner — rare enough to ignore.
        let mut relevant = crate::scratch::idx_vec();
        relevant.extend(
            self.rows()
                .enumerate()
                .filter(|(_, r)| r.coeffs.iter().zip(coeffs).any(|(&a, &b)| b != 0 && a != 0))
                .map(|(i, _)| i as u32),
        );
        for (i, &i1) in relevant.iter().enumerate() {
            let r1 = self.row(i1 as usize);
            for &i2 in &relevant[i + 1..] {
                let r2 = self.row(i2 as usize);
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

    pub(crate) fn set_contradiction(&mut self) {
        self.contradiction = true;
    }

    /// Drop a variable column entirely (the caller guarantees no row uses
    /// it).
    pub(crate) fn drop_var_column(&mut self, idx: usize) {
        debug_assert!(!self.column_used(idx));
        let w = self.vars.len();
        Arc::make_mut(&mut self.vars).remove(idx);
        let mut k = 0;
        self.flat.retain(|_| {
            k += 1;
            (k - 1) % w != idx
        });
        // the columns after `idx` moved: re-sign every row
        for i in 0..self.rows.len() {
            self.rows[i].sig = signature(&self.flat[i * (w - 1)..(i + 1) * (w - 1)]);
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
        let mut out = self.substitution_universe(name, replacement);
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
        let mut out = self.substitution_universe(name, replacement);
        if self.contradiction {
            out.contradiction = true;
            return Ok(out);
        }
        for c in self.constraints() {
            out.add(c.try_substitute(name, replacement)?);
        }
        Ok(out)
    }

    /// The empty system a substitution of `name` writes into: the
    /// variable universe kept stable, minus `name`, plus the
    /// replacement's variables.
    fn substitution_universe(&self, name: &str, replacement: &LinExpr) -> System {
        let mut vars: Vec<String> = self.vars.iter().filter(|v| *v != name).cloned().collect();
        for v in replacement.vars() {
            if !vars.iter().any(|u| u == v) {
                vars.push(v.to_string());
            }
        }
        System::with_vars_arc(Arc::new(vars))
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
    /// [`Self::push_narrowed`], so substitution never wraps or panics:
    /// rows whose reduced form exceeds `i64` (or `max_coeff`) surface a
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
        let mut coeffs: Vec<i128> = Vec::with_capacity(out.vars.len());
        for r in self.rows() {
            let c = r.coeffs[k] as i128;
            coeffs.clear();
            for (i, &a) in r.coeffs.iter().enumerate() {
                if i != k {
                    coeffs.push(a as i128 + c * repl[i] as i128);
                }
            }
            if let Some((_, ec)) = extra {
                coeffs.push(c * ec as i128);
            }
            let constant = r.constant as i128 + c * repl_const as i128;
            if !out.push_narrowed(&coeffs, constant, r.rel, max_coeff)? {
                return Ok(out);
            }
        }
        Ok(out)
    }

    /// The variables that actually occur with non-zero coefficient.
    pub fn used_vars(&self) -> Vec<String> {
        (0..self.vars.len())
            .filter(|&i| self.column_used(i))
            .map(|i| self.vars[i].clone())
            .collect()
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
