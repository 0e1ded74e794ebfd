//! Array declarations.

use std::fmt;

/// Identifier of an array within a [`crate::Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub(crate) usize);

impl ArrayId {
    /// The raw index of the array in its program.
    pub fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for ArrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "array{}", self.0)
    }
}

/// A rectangular array: `name[d0][d1]...` of `elem_bytes`-byte elements,
/// laid out row-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayDecl {
    name: String,
    dims: Vec<u64>,
    elem_bytes: u32,
}

impl ArrayDecl {
    /// Declares an array.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty, any extent is zero, `elem_bytes` is 0, or
    /// the size in bytes overflows `u64`.
    pub fn new(name: &str, dims: &[u64], elem_bytes: u32) -> Self {
        assert!(!dims.is_empty(), "array must have at least one dimension");
        assert!(
            dims.iter().all(|&d| d > 0),
            "array extents must be positive"
        );
        assert!(elem_bytes > 0, "element size must be positive");
        assert!(
            checked_size_bytes(dims, elem_bytes).is_some(),
            "array size overflows u64"
        );
        Self {
            name: name.to_owned(),
            dims: dims.to_vec(),
            elem_bytes,
        }
    }

    /// The array's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Per-dimension extents.
    pub fn dims(&self) -> &[u64] {
        &self.dims
    }

    /// The extent of dimension `d` (the valid indices are `0..extent(d)`).
    ///
    /// # Panics
    ///
    /// Panics if `d` is not a dimension of the array.
    pub fn extent(&self, d: usize) -> u64 {
        self.dims[d]
    }

    /// Bytes per element.
    pub fn elem_bytes(&self) -> u32 {
        self.elem_bytes
    }

    /// Total number of elements.
    pub fn n_elements(&self) -> u64 {
        self.dims.iter().product()
    }

    /// Total size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.n_elements() * u64::from(self.elem_bytes)
    }

    /// Row-major flat index of a multi-dimensional element index.
    ///
    /// Out-of-bounds indices are clamped into the array (subscripts produced
    /// by boundary iterations of stencil kernels may step one element out;
    /// clamping models the halo padding such codes allocate).
    ///
    /// # Panics
    ///
    /// Panics if `index` does not yield exactly one value per dimension.
    pub fn flatten(&self, index: impl IntoIterator<Item = i64>) -> u64 {
        let mut index = index.into_iter();
        let flat = self.dims.iter().fold(0, |flat, &extent| {
            let i = index.next().expect("subscript arity mismatch");
            flat * extent + (i.max(0) as u64).min(extent - 1)
        });
        assert!(index.next().is_none(), "subscript arity mismatch");
        flat
    }
}

/// The size in bytes of an array of `dims` and `elem_bytes`-byte elements,
/// or `None` if it overflows `u64`.
pub(crate) fn checked_size_bytes(dims: &[u64], elem_bytes: u32) -> Option<u64> {
    dims.iter()
        .try_fold(u64::from(elem_bytes), |size, &d| size.checked_mul(d))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_major_flattening() {
        let a = ArrayDecl::new("A", &[4, 5], 8);
        assert_eq!(a.flatten([0, 0]), 0);
        assert_eq!(a.flatten([0, 4]), 4);
        assert_eq!(a.flatten([1, 0]), 5);
        assert_eq!(a.flatten([3, 4]), 19);
    }

    #[test]
    fn sizes() {
        let a = ArrayDecl::new("A", &[10, 10], 4);
        assert_eq!(a.n_elements(), 100);
        assert_eq!(a.size_bytes(), 400);
    }

    #[test]
    fn out_of_bounds_clamps() {
        let a = ArrayDecl::new("A", &[4, 4], 8);
        assert_eq!(a.flatten([-1, 0]), a.flatten([0, 0]));
        assert_eq!(a.flatten([5, 3]), a.flatten([3, 3]));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn short_subscript_rejected() {
        let _ = ArrayDecl::new("A", &[4, 4], 8).flatten([1]);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn long_subscript_rejected() {
        let _ = ArrayDecl::new("A", &[4, 4], 8).flatten([1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "overflows u64")]
    fn oversized_array_rejected() {
        let _ = ArrayDecl::new("A", &[1 << 32, 1 << 32], 8);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_extent_rejected() {
        let _ = ArrayDecl::new("A", &[0], 8);
    }
}
