//! Sparse affine expressions over named integer variables.
//!
//! [`LinExpr`] is the crate's public currency: callers build constraints
//! from expressions like `25*b - 24 <= j` without committing to any
//! particular variable ordering. [`crate::System`] converts them to dense
//! rows internally.

use crate::error::PolyError;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// A sparse affine (linear + constant) expression with integer
/// coefficients over named variables.
///
/// Zero-coefficient terms are never stored, so two expressions are equal
/// (`==`) exactly when they denote the same affine function.
///
/// # Examples
///
/// ```
/// use shackle_polyhedra::LinExpr;
/// let e = LinExpr::var("i") * 2 + LinExpr::var("j") - LinExpr::constant(3);
/// assert_eq!(e.coeff("i"), 2);
/// assert_eq!(e.coeff("k"), 0);
/// assert_eq!(e.constant_part(), -3);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinExpr {
    terms: BTreeMap<String, i64>,
    constant: i64,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        Self::default()
    }

    /// The expression consisting of a single variable with coefficient 1.
    pub fn var(name: impl Into<String>) -> Self {
        Self::term(name, 1)
    }

    /// A single term `coeff * name`.
    pub fn term(name: impl Into<String>, coeff: i64) -> Self {
        let mut e = Self::zero();
        e.add_term(&name.into(), coeff);
        e
    }

    /// A constant expression.
    pub fn constant(c: i64) -> Self {
        Self {
            terms: BTreeMap::new(),
            constant: c,
        }
    }

    /// The constant part of the expression.
    pub fn constant_part(&self) -> i64 {
        self.constant
    }

    /// The coefficient of `name` (0 if absent).
    pub fn coeff(&self, name: &str) -> i64 {
        self.terms.get(name).copied().unwrap_or(0)
    }

    /// Iterate over `(variable, coefficient)` pairs with non-zero
    /// coefficients, in lexicographic variable order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, i64)> {
        self.terms.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// The set of variables with non-zero coefficients.
    pub fn vars(&self) -> impl Iterator<Item = &str> {
        self.terms.keys().map(|k| k.as_str())
    }

    /// True if the expression is a constant (possibly zero).
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Add `coeff * name` in place, dropping the term if it cancels.
    pub fn add_term(&mut self, name: &str, coeff: i64) {
        if coeff == 0 {
            return;
        }
        let entry = self.terms.entry(name.to_string()).or_insert(0);
        *entry = entry
            .checked_add(coeff)
            .expect("coefficient overflow in LinExpr");
        if *entry == 0 {
            self.terms.remove(name);
        }
    }

    /// Add a constant in place.
    pub fn add_constant(&mut self, c: i64) {
        self.constant = self
            .constant
            .checked_add(c)
            .expect("constant overflow in LinExpr");
    }

    /// Fallible in-place `self += coeff * name`: reports coefficient
    /// overflow as a [`PolyError`] instead of panicking.
    pub fn try_add_term(&mut self, name: &str, coeff: i64) -> Result<(), PolyError> {
        const OVF: PolyError = PolyError::Overflow {
            context: "linear expression",
        };
        if coeff == 0 {
            return Ok(());
        }
        let entry = self.terms.entry(name.to_string()).or_insert(0);
        *entry = entry.checked_add(coeff).ok_or(OVF)?;
        if *entry == 0 {
            self.terms.remove(name);
        }
        Ok(())
    }

    /// Fallible scalar multiple: `Ok(k * self)` unless a coefficient or
    /// the constant leaves i64.
    pub fn try_scale(&self, k: i64) -> Result<LinExpr, PolyError> {
        const OVF: PolyError = PolyError::Overflow {
            context: "linear expression",
        };
        if k == 0 {
            return Ok(LinExpr::zero());
        }
        let mut out = self.clone();
        for c in out.terms.values_mut() {
            *c = c.checked_mul(k).ok_or(OVF)?;
        }
        out.constant = out.constant.checked_mul(k).ok_or(OVF)?;
        Ok(out)
    }

    /// Fallible [`Self::substitute`]: the scaled replacement and the
    /// merged terms are all overflow-checked.
    pub fn try_substitute(&self, name: &str, replacement: &LinExpr) -> Result<LinExpr, PolyError> {
        const OVF: PolyError = PolyError::Overflow {
            context: "linear expression",
        };
        let c = self.coeff(name);
        if c == 0 {
            return Ok(self.clone());
        }
        let mut out = self.clone();
        out.terms.remove(name);
        let scaled = replacement.try_scale(c)?;
        for (v, k) in scaled.iter() {
            out.try_add_term(v, k)?;
        }
        out.constant = out.constant.checked_add(scaled.constant).ok_or(OVF)?;
        Ok(out)
    }

    /// Substitute `replacement` for `name`: every occurrence `c * name`
    /// becomes `c * replacement`.
    ///
    /// # Examples
    ///
    /// ```
    /// use shackle_polyhedra::LinExpr;
    /// let e = LinExpr::var("i") * 2 + LinExpr::constant(1);
    /// let s = e.substitute("i", &(LinExpr::var("j") + LinExpr::constant(5)));
    /// assert_eq!(s, LinExpr::var("j") * 2 + LinExpr::constant(11));
    /// ```
    pub fn substitute(&self, name: &str, replacement: &LinExpr) -> LinExpr {
        let c = self.coeff(name);
        if c == 0 {
            return self.clone();
        }
        let mut out = self.clone();
        out.terms.remove(name);
        out + replacement.clone() * c
    }

    /// Rename a variable (no-op if absent).
    ///
    /// # Panics
    ///
    /// Panics if `to` already occurs in the expression with a non-zero
    /// coefficient: renaming must not silently merge distinct variables.
    pub fn rename(&self, from: &str, to: &str) -> LinExpr {
        let c = self.coeff(from);
        if c == 0 {
            return self.clone();
        }
        assert_eq!(
            self.coeff(to),
            0,
            "rename would merge variables {from} and {to}"
        );
        let mut out = self.clone();
        out.terms.remove(from);
        out.add_term(to, c);
        out
    }

    /// Evaluate under a total assignment.
    ///
    /// # Panics
    ///
    /// Panics if a variable is missing from `env` or on overflow
    /// ([`Self::try_eval`] refuses the latter instead).
    pub fn eval(&self, env: &dyn Fn(&str) -> i64) -> i64 {
        self.try_eval(env).expect("eval overflow")
    }

    /// Evaluate under a total assignment, reporting `i64` overflow as a
    /// [`PolyError`] instead of panicking.
    ///
    /// # Panics
    ///
    /// Panics if `env` does (e.g. on a variable it does not bind).
    ///
    /// # Examples
    ///
    /// ```
    /// use shackle_polyhedra::LinExpr;
    /// let e = LinExpr::term("N", 1 << 62);
    /// assert_eq!(e.try_eval(&|_| 1), Ok(1 << 62));
    /// assert!(e.try_eval(&|_| 16).is_err());
    /// ```
    pub fn try_eval(&self, env: &dyn Fn(&str) -> i64) -> Result<i64, PolyError> {
        const OVF: PolyError = PolyError::Overflow {
            context: "expression evaluation",
        };
        let mut acc = self.constant;
        for (v, c) in self.iter() {
            acc = c
                .checked_mul(env(v))
                .and_then(|t| acc.checked_add(t))
                .ok_or(OVF)?;
        }
        Ok(acc)
    }
}

impl From<i64> for LinExpr {
    fn from(c: i64) -> Self {
        LinExpr::constant(c)
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        for (v, c) in rhs.terms {
            self.add_term(&v, c);
        }
        self.add_constant(rhs.constant);
        self
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(self, rhs: LinExpr) -> LinExpr {
        self + (-rhs)
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        self * -1
    }
}

impl Mul<i64> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, k: i64) -> LinExpr {
        if k == 0 {
            return LinExpr::zero();
        }
        for c in self.terms.values_mut() {
            *c = c.checked_mul(k).expect("coefficient overflow in LinExpr");
        }
        self.constant = self
            .constant
            .checked_mul(k)
            .expect("constant overflow in LinExpr");
        self
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in self.iter() {
            if first {
                match c {
                    1 => write!(f, "{v}")?,
                    -1 => write!(f, "-{v}")?,
                    _ => write!(f, "{c}{v}")?,
                }
                first = false;
            } else if c > 0 {
                if c == 1 {
                    write!(f, " + {v}")?;
                } else {
                    write!(f, " + {c}{v}")?;
                }
            } else if c == -1 {
                write!(f, " - {v}")?;
            } else {
                write!(f, " - {}{v}", -c)?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant > 0 {
            write!(f, " + {}", self.constant)?;
        } else if self.constant < 0 {
            write!(f, " - {}", -self.constant)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_and_cancellation() {
        let e = LinExpr::var("i") + LinExpr::var("j") - LinExpr::var("i");
        assert_eq!(e, LinExpr::var("j"));
        assert!(!e.is_constant());
        assert!((e.clone() - e).is_constant());
    }

    #[test]
    fn display() {
        let e = LinExpr::term("i", 2) - LinExpr::var("j") + LinExpr::constant(-3);
        assert_eq!(e.to_string(), "2i - j - 3");
        assert_eq!(LinExpr::zero().to_string(), "0");
        assert_eq!((-LinExpr::var("x")).to_string(), "-x");
    }

    #[test]
    fn substitute_and_rename() {
        let e = LinExpr::term("i", 3) + LinExpr::var("j");
        let s = e.substitute("i", &LinExpr::constant(2));
        assert_eq!(s, LinExpr::var("j") + LinExpr::constant(6));
        let r = e.rename("i", "k");
        assert_eq!(r.coeff("k"), 3);
        assert_eq!(r.coeff("i"), 0);
    }

    #[test]
    #[should_panic(expected = "merge")]
    fn rename_refuses_merge() {
        let e = LinExpr::var("i") + LinExpr::var("j");
        let _ = e.rename("i", "j");
    }

    #[test]
    fn eval() {
        let e = LinExpr::term("i", 2) + LinExpr::constant(5);
        assert_eq!(e.eval(&|v| if v == "i" { 10 } else { 0 }), 25);
    }
}
