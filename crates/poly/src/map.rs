//! Affine maps between integer spaces (array subscript functions).

use std::fmt;

use crate::expr::AffineExpr;
use crate::set::IntegerSet;
use crate::Point;

/// An affine map from an `n_in`-dimensional space to an
/// `exprs.len()`-dimensional space.
///
/// In the paper's notation this is the reference mapping `R(I)` taking an
/// iteration vector to the array element it accesses — e.g. for
/// `A[i1+1][i2-1]` the map is `(i1, i2) -> (i1+1, i2-1)`.
///
/// # Example
///
/// ```
/// use ctam_poly::{AffineExpr, AffineMap};
///
/// let dim = 2;
/// let r = AffineMap::new(dim, vec![
///     AffineExpr::var(dim, 0) + AffineExpr::constant(dim, 1),
///     AffineExpr::var(dim, 1) - AffineExpr::constant(dim, 1),
/// ]);
/// assert_eq!(r.apply(&[3, 4]), vec![4, 3]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct AffineMap {
    n_in: usize,
    exprs: Vec<AffineExpr>,
}

impl AffineMap {
    /// Builds a map from one expression per output dimension.
    ///
    /// # Panics
    ///
    /// Panics if any expression's dimensionality differs from `n_in`.
    pub fn new(n_in: usize, exprs: Vec<AffineExpr>) -> Self {
        for e in &exprs {
            assert_eq!(e.dim(), n_in, "output expression over wrong input space");
        }
        Self { n_in, exprs }
    }

    /// The identity map over `dim` dimensions.
    pub fn identity(dim: usize) -> Self {
        Self::new(dim, (0..dim).map(|v| AffineExpr::var(dim, v)).collect())
    }

    /// Input dimensionality.
    pub fn n_in(&self) -> usize {
        self.n_in
    }

    /// Output dimensionality.
    pub fn n_out(&self) -> usize {
        self.exprs.len()
    }

    /// The per-output-dimension expressions.
    pub fn exprs(&self) -> &[AffineExpr] {
        &self.exprs
    }

    /// Applies the map to a point.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != n_in()`.
    pub fn apply(&self, point: &[i64]) -> Point {
        assert_eq!(point.len(), self.n_in, "input dimensionality mismatch");
        self.exprs.iter().map(|e| e.eval(point)).collect()
    }

    /// Computes the image of `domain` under the map by enumeration
    /// (exact for bounded domains), returned as a sorted, deduplicated list
    /// of points.
    pub fn image(&self, domain: &IntegerSet) -> Vec<Point> {
        assert_eq!(domain.dim(), self.n_in, "domain dimensionality mismatch");
        let mut out: Vec<Point> = domain.iter().map(|p| self.apply(&p)).collect();
        out.sort();
        out.dedup();
        out
    }
}

impl fmt::Debug for AffineMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<String> = (0..self.n_in).map(|i| format!("x{i}")).collect();
        let outs: Vec<String> = self.exprs.iter().map(|e| e.display_with(&names)).collect();
        write!(f, "({}) -> ({})", names.join(", "), outs.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set::IntegerSet;

    #[test]
    fn identity_is_identity() {
        let id = AffineMap::identity(3);
        assert_eq!(id.apply(&[7, -2, 0]), vec![7, -2, 0]);
    }

    #[test]
    fn paper_reference_map() {
        // A[i1+1][i2-1]
        let r = AffineMap::new(
            2,
            vec![
                AffineExpr::var(2, 0) + AffineExpr::constant(2, 1),
                AffineExpr::var(2, 1) - AffineExpr::constant(2, 1),
            ],
        );
        assert_eq!(r.apply(&[0, 2]), vec![1, 1]);
    }

    #[test]
    fn image_deduplicates() {
        // (i, j) -> (i) over a 3x4 rectangle: image is {0,1,2}.
        let m = AffineMap::new(2, vec![AffineExpr::var(2, 0)]);
        let dom = IntegerSet::builder(2)
            .bounds(0, 0, 2)
            .bounds(1, 0, 3)
            .build();
        assert_eq!(m.image(&dom), vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn dimension_reducing_and_increasing_maps() {
        let proj = AffineMap::new(3, vec![AffineExpr::var(3, 2)]);
        assert_eq!(proj.apply(&[1, 2, 3]), vec![3]);
        let embed = AffineMap::new(1, vec![AffineExpr::var(1, 0), AffineExpr::constant(1, 0)]);
        assert_eq!(embed.apply(&[5]), vec![5, 0]);
    }
}
