//! Column-major matrices for the native kernels.

use std::fmt;

/// A dense column-major `f64` matrix with 0-based indexing (the native
/// kernels' working type; the IR world is 1-based, conversion helpers
/// bridge the two).
#[derive(Clone, Debug, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// A zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a function of `(row, col)` (0-based).
    pub fn from_fn(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                m.data[j * rows + i] = f(i, j);
            }
        }
        m
    }

    /// Rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    #[inline(always)]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.rows + i]
    }

    /// Element assignment.
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.rows + i] = v;
    }

    /// Raw column-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Column-major offset of `(i, j)`.
    #[inline(always)]
    pub fn offset(&self, i: usize, j: usize) -> usize {
        j * self.rows + i
    }

    /// Largest relative element difference with another matrix of the
    /// same shape.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn max_rel_diff(&self, other: &Mat) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs() / a.abs().max(b.abs()).max(1.0))
            .fold(0.0, f64::max)
    }

    /// Largest relative difference on the lower triangle only (used for
    /// factorizations that leave the strict upper triangle unspecified).
    pub fn max_rel_diff_lower(&self, other: &Mat) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        let mut worst: f64 = 0.0;
        for j in 0..self.cols {
            for i in j..self.rows {
                let (a, b) = (self.at(i, j), other.at(i, j));
                worst = worst.max((a - b).abs() / a.abs().max(b.abs()).max(1.0));
            }
        }
        worst
    }
}

impl fmt::Display for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}x{} matrix", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_column_major() {
        let m = Mat::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.data()[0], 0.0); // (0,0)
        assert_eq!(m.data()[1], 10.0); // (1,0)
        assert_eq!(m.data()[2], 1.0); // (0,1)
        assert_eq!(m.offset(1, 2), 5);
    }

    #[test]
    fn diff_metrics() {
        let a = Mat::from_fn(3, 3, |i, j| (i + j) as f64);
        let mut b = a.clone();
        assert_eq!(a.max_rel_diff(&b), 0.0);
        b.set(0, 2, 100.0); // strict upper triangle
        assert!(a.max_rel_diff(&b) > 0.9);
        assert_eq!(a.max_rel_diff_lower(&b), 0.0);
    }
}
