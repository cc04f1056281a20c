//! Concrete dense arrays (column-major, 1-based) and workspaces.

use shackle_ir::Program;
use std::collections::BTreeMap;
use std::fmt;

/// A dense `f64` array stored in column-major (FORTRAN) order with
/// 1-based subscripts, matching the paper's codes and the BLAS/LAPACK
/// convention its baselines assume.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseArray {
    dims: Vec<usize>,
    data: Vec<f64>,
}

impl DenseArray {
    /// A zero-filled array with the given extents.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty, an extent is zero, or the element
    /// count overflows `usize`.
    pub fn zeros(dims: Vec<usize>) -> Self {
        assert!(!dims.is_empty(), "arrays need at least one dimension");
        assert!(dims.iter().all(|&d| d > 0), "extents must be positive");
        let len = element_count(&dims).expect("element count overflows usize");
        Self {
            dims,
            data: vec![0.0; len],
        }
    }

    /// Build from a function of the (1-based) subscripts.
    pub fn from_fn(dims: Vec<usize>, f: impl Fn(&[usize]) -> f64) -> Self {
        let mut a = Self::zeros(dims);
        let rank = a.dims.len();
        let mut idx = vec![1usize; rank];
        loop {
            let off = a.offset_usize(&idx);
            a.data[off] = f(&idx);
            // column-major odometer: first index varies fastest
            let mut d = 0;
            loop {
                if d == rank {
                    return a;
                }
                if idx[d] < a.dims[d] {
                    idx[d] += 1;
                    break;
                }
                idx[d] = 1;
                d += 1;
            }
        }
    }

    /// The extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the array has no elements (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw data in column-major order.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    fn offset_usize(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.dims.len());
        let mut off = 0;
        let mut stride = 1;
        for (d, &i) in idx.iter().enumerate() {
            debug_assert!(i >= 1 && i <= self.dims[d], "index {i} out of range");
            off += (i - 1) * stride;
            stride *= self.dims[d];
        }
        off
    }

    /// Column-major offset of a 1-based subscript vector.
    ///
    /// # Panics
    ///
    /// Panics if a subscript is out of range.
    pub fn offset(&self, idx: &[i64]) -> usize {
        let mut off = 0;
        let mut stride = 1;
        for (d, &i) in idx.iter().enumerate() {
            assert!(
                i >= 1 && (i as usize) <= self.dims[d],
                "index {i} out of range 1..={} in dimension {d}",
                self.dims[d]
            );
            off += (i as usize - 1) * stride;
            stride *= self.dims[d];
        }
        off
    }

    /// Read element at 1-based subscripts.
    pub fn get(&self, idx: &[i64]) -> f64 {
        self.data[self.offset(idx)]
    }

    /// Write element at 1-based subscripts.
    pub fn set(&mut self, idx: &[i64], v: f64) {
        let off = self.offset(idx);
        self.data[off] = v;
    }
}

/// Why a program's arrays cannot be laid out under a parameter binding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExtentError {
    /// A parameter an extent names has no value in the binding.
    MissingParameter {
        /// The unbound parameter.
        param: String,
    },
    /// An extent evaluates to zero or less.
    NonPositive {
        /// The array whose extent it is.
        array: String,
        /// The value the extent evaluated to.
        extent: i64,
    },
    /// An extent, or the array's size in bytes, overflows `i64` (the
    /// engines compute element offsets in `i64`).
    Overflow {
        /// The array that cannot be addressed.
        array: String,
    },
}

impl fmt::Display for ExtentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtentError::MissingParameter { param } => write!(f, "missing parameter {param}"),
            ExtentError::NonPositive { array, extent } => {
                write!(f, "extent of {array} must be positive, got {extent}")
            }
            ExtentError::Overflow { array } => write!(f, "size of {array} overflows i64"),
        }
    }
}

impl std::error::Error for ExtentError {}

/// The number of elements of an array with extents `dims`, `None` if
/// it overflows `usize`.
pub(crate) fn element_count(dims: &[usize]) -> Option<usize> {
    dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d))
}

/// The extents of every array `program` declares, in declaration
/// order, evaluated under `params` — the one place a declaration
/// becomes a size. Every parameter an extent names must be bound, every
/// extent must be positive, and every array's size in bytes (an `f64`
/// per element) must fit in `i64`.
pub fn array_extents(
    program: &Program,
    params: &BTreeMap<String, i64>,
) -> Result<Vec<Vec<usize>>, ExtentError> {
    let array = |decl: &shackle_ir::ArrayDecl| {
        let overflow = || ExtentError::Overflow {
            array: decl.name().to_string(),
        };
        let mut bytes = std::mem::size_of::<f64>() as i64;
        let mut dims = Vec::with_capacity(decl.dims().len());
        for e in decl.dims() {
            if let Some(p) = e.vars().find(|v| !params.contains_key(*v)) {
                return Err(ExtentError::MissingParameter {
                    param: p.to_string(),
                });
            }
            let extent = e.try_eval(&|p| params[p]).map_err(|_| overflow())?;
            if extent <= 0 {
                return Err(ExtentError::NonPositive {
                    array: decl.name().to_string(),
                    extent,
                });
            }
            bytes = bytes.checked_mul(extent).ok_or_else(overflow)?;
            dims.push(extent as usize);
        }
        Ok(dims)
    };
    program.arrays().iter().map(array).collect()
}

/// A named collection of arrays: the memory a program executes against.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Workspace {
    arrays: BTreeMap<String, DenseArray>,
}

impl Workspace {
    /// An empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate every array a program declares, with extents evaluated
    /// under `params`, initialized by `init(name, subscripts)`.
    ///
    /// # Panics
    ///
    /// Panics with the [`ExtentError`] message if a parameter is
    /// missing, an extent is non-positive or an array overflows.
    pub fn for_program(
        program: &Program,
        params: &BTreeMap<String, i64>,
        init: impl Fn(&str, &[usize]) -> f64,
    ) -> Self {
        let extents = array_extents(program, params).unwrap_or_else(|e| panic!("{e}"));
        let mut ws = Self::new();
        for (decl, dims) in program.arrays().iter().zip(extents) {
            let name = decl.name();
            ws.insert(name, DenseArray::from_fn(dims, |idx| init(name, idx)));
        }
        ws
    }

    /// Insert (or replace) an array.
    pub fn insert(&mut self, name: impl Into<String>, a: DenseArray) {
        self.arrays.insert(name.into(), a);
    }

    /// Look up an array.
    pub fn array(&self, name: &str) -> Option<&DenseArray> {
        self.arrays.get(name)
    }

    /// Look up an array mutably.
    pub fn array_mut(&mut self, name: &str) -> Option<&mut DenseArray> {
        self.arrays.get_mut(name)
    }

    /// Iterate over `(name, array)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &DenseArray)> {
        self.arrays.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterate mutably over `(name, array)` in name order. The compiled
    /// execution engine uses this to split the workspace into disjoint
    /// per-array borrows up front instead of looking names up per
    /// access.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&str, &mut DenseArray)> {
        self.arrays.iter_mut().map(|(k, v)| (k.as_str(), v))
    }

    /// The largest relative element-wise difference against another
    /// workspace with the same shape (∞ on shape mismatch).
    pub fn max_rel_diff(&self, other: &Workspace) -> f64 {
        let mut worst: f64 = 0.0;
        for (name, a) in &self.arrays {
            let Some(b) = other.arrays.get(name) else {
                return f64::INFINITY;
            };
            if a.dims() != b.dims() {
                return f64::INFINITY;
            }
            for (x, y) in a.data().iter().zip(b.data()) {
                let scale = x.abs().max(y.abs()).max(1.0);
                worst = worst.max((x - y).abs() / scale);
            }
        }
        if other.arrays.len() != self.arrays.len() {
            return f64::INFINITY;
        }
        worst
    }
}

impl fmt::Display for Workspace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, a) in &self.arrays {
            writeln!(f, "{name}: dims {:?}", a.dims())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_major_layout() {
        let a = DenseArray::from_fn(vec![3, 2], |idx| (idx[0] * 10 + idx[1]) as f64);
        // column-major: (1,1),(2,1),(3,1),(1,2),(2,2),(3,2)
        assert_eq!(a.data(), &[11.0, 21.0, 31.0, 12.0, 22.0, 32.0]);
        assert_eq!(a.offset(&[1, 2]), 3);
        assert_eq!(a.get(&[3, 2]), 32.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bounds_checked() {
        let a = DenseArray::zeros(vec![2, 2]);
        let _ = a.get(&[3, 1]);
    }

    #[test]
    fn workspace_from_program() {
        let p = shackle_ir::kernels::matmul_ijk();
        let params = BTreeMap::from([("N".to_string(), 4i64)]);
        let ws = Workspace::for_program(&p, &params, |name, idx| {
            if name == "C" {
                0.0
            } else {
                (idx[0] + idx[1]) as f64
            }
        });
        assert_eq!(ws.array("A").unwrap().dims(), &[4, 4]);
        assert_eq!(ws.array("C").unwrap().get(&[2, 2]), 0.0);
        assert_eq!(ws.array("B").unwrap().get(&[1, 3]), 4.0);
    }

    #[test]
    fn extents_name_what_is_wrong() {
        let p = shackle_ir::kernels::matmul_ijk();
        let bound = |n: i64| BTreeMap::from([("N".to_string(), n)]);
        assert_eq!(array_extents(&p, &bound(4)), Ok(vec![vec![4, 4]; 3]));
        let missing = array_extents(&p, &BTreeMap::new()).unwrap_err();
        assert_eq!(missing, ExtentError::MissingParameter { param: "N".into() });
        assert_eq!(missing.to_string(), "missing parameter N");
        let flat = array_extents(&p, &bound(0)).unwrap_err();
        assert_eq!(
            flat,
            ExtentError::NonPositive {
                array: "C".into(),
                extent: 0
            }
        );
        assert_eq!(flat.to_string(), "extent of C must be positive, got 0");
    }

    #[test]
    fn an_extent_or_a_size_past_i64_is_an_overflow() {
        let p = shackle_ir::parse::parse(
            "program big\nparam N\narray A(4611686018427387904*N)\n\n\
             do I = 1 .. N\n  S1: A[I] = A[I] + 1\n",
        )
        .unwrap();
        let bound = |n: i64| BTreeMap::from([("N".to_string(), n)]);
        let overflow = ExtentError::Overflow { array: "A".into() };
        // the extent itself leaves i64 at N = 16 ...
        assert_eq!(array_extents(&p, &bound(16)), Err(overflow.clone()));
        // ... and at N = 1 the extent fits but its 8-byte elements do not
        assert_eq!(array_extents(&p, &bound(1)), Err(overflow.clone()));
        assert_eq!(overflow.to_string(), "size of A overflows i64");
        assert_eq!(element_count(&[usize::MAX, 2]), None);
    }

    #[test]
    #[should_panic(expected = "extent of C must be positive, got -1")]
    fn workspace_panics_with_the_extent_error() {
        let p = shackle_ir::kernels::matmul_ijk();
        let params = BTreeMap::from([("N".to_string(), -1i64)]);
        let _ = Workspace::for_program(&p, &params, |_, _| 0.0);
    }

    #[test]
    fn rel_diff() {
        let mut w1 = Workspace::new();
        w1.insert("A", DenseArray::from_fn(vec![2], |_| 1.0));
        let mut w2 = Workspace::new();
        w2.insert("A", DenseArray::from_fn(vec![2], |_| 1.0 + 1e-12));
        assert!(w1.max_rel_diff(&w2) < 1e-10);
        let w3 = Workspace::new();
        assert_eq!(w1.max_rel_diff(&w3), f64::INFINITY);
    }
}
