//! Integer affine expressions over a fixed number of dimensions.

use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// An integer affine expression `c0*x0 + c1*x1 + ... + k` over `dim()`
/// dimensions.
///
/// Affine expressions are the atoms of the polyhedral model: loop bounds,
/// array subscripts, and constraint left-hand sides are all affine in the
/// enclosing loop indices.
///
/// # Example
///
/// ```
/// use ctam_poly::AffineExpr;
///
/// // i1 + 1 in a 2-dimensional (i1, i2) space — the first subscript of
/// // A[i1+1][i2-1] from Figure 4 of the paper.
/// let e = AffineExpr::var(2, 0) + AffineExpr::constant(2, 1);
/// assert_eq!(e.eval(&[3, 7]), 4);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct AffineExpr {
    coeffs: Vec<i64>,
    constant: i64,
}

impl AffineExpr {
    /// The zero expression over `dim` dimensions.
    pub fn zero(dim: usize) -> Self {
        Self {
            coeffs: vec![0; dim],
            constant: 0,
        }
    }

    /// The constant expression `k` over `dim` dimensions.
    pub fn constant(dim: usize, k: i64) -> Self {
        Self {
            coeffs: vec![0; dim],
            constant: k,
        }
    }

    /// The expression consisting of the single variable `var` (coefficient 1).
    ///
    /// # Panics
    ///
    /// Panics if `var >= dim`.
    pub fn var(dim: usize, var: usize) -> Self {
        assert!(var < dim, "variable index {var} out of range for dim {dim}");
        let mut coeffs = vec![0; dim];
        coeffs[var] = 1;
        Self {
            coeffs,
            constant: 0,
        }
    }

    /// Builds an expression from explicit coefficients and a constant.
    pub fn new(coeffs: Vec<i64>, constant: i64) -> Self {
        Self { coeffs, constant }
    }

    /// Number of dimensions of the underlying space.
    pub fn dim(&self) -> usize {
        self.coeffs.len()
    }

    /// The coefficient of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= dim()`.
    pub fn coeff(&self, var: usize) -> i64 {
        self.coeffs[var]
    }

    /// All coefficients, indexed by variable.
    pub fn coeffs(&self) -> &[i64] {
        &self.coeffs
    }

    /// The constant term.
    pub fn constant_term(&self) -> i64 {
        self.constant
    }

    /// Evaluates the expression at `point`.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != dim()`.
    pub fn eval(&self, point: &[i64]) -> i64 {
        assert_eq!(
            point.len(),
            self.dim(),
            "point dimensionality mismatch: expected {}, got {}",
            self.dim(),
            point.len()
        );
        self.coeffs
            .iter()
            .zip(point)
            .map(|(c, x)| c * x)
            .sum::<i64>()
            + self.constant
    }

    /// True if every coefficient is zero (the expression is constant).
    pub fn is_constant(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0)
    }

    /// Returns a copy scaled by `k`.
    pub fn scaled(&self, k: i64) -> Self {
        Self {
            coeffs: self.coeffs.iter().map(|c| c * k).collect(),
            constant: self.constant * k,
        }
    }

    /// Returns a copy scaled by `k`, or `None` if any coefficient or the
    /// constant overflows `i64`.
    pub fn checked_scaled(&self, k: i64) -> Option<Self> {
        let mut coeffs = Vec::with_capacity(self.coeffs.len());
        for &c in &self.coeffs {
            coeffs.push(c.checked_mul(k)?);
        }
        Some(Self {
            coeffs,
            constant: self.constant.checked_mul(k)?,
        })
    }

    /// Returns `self + rhs`, or `None` if any coefficient or the constant
    /// overflows `i64`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    pub fn checked_plus(&self, rhs: &Self) -> Option<Self> {
        assert_eq!(self.dim(), rhs.dim(), "dimensionality mismatch");
        let mut coeffs = Vec::with_capacity(self.coeffs.len());
        for (&a, &b) in self.coeffs.iter().zip(&rhs.coeffs) {
            coeffs.push(a.checked_add(b)?);
        }
        Some(Self {
            coeffs,
            constant: self.constant.checked_add(rhs.constant)?,
        })
    }

    /// The highest variable index with a non-zero coefficient, if any.
    pub fn last_var(&self) -> Option<usize> {
        self.coeffs.iter().rposition(|&c| c != 0)
    }

    /// Formats the expression using `names` for variables (for codegen).
    pub(crate) fn display_with(&self, names: &[String]) -> String {
        let mut parts: Vec<String> = Vec::new();
        for (i, &c) in self.coeffs.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let name = names.get(i).cloned().unwrap_or_else(|| format!("x{i}"));
            let term = match c {
                1 => name,
                -1 => format!("-{name}"),
                _ => format!("{c}*{name}"),
            };
            if parts.is_empty() {
                parts.push(term);
            } else if let Some(stripped) = term.strip_prefix('-') {
                parts.push(format!("- {stripped}"));
            } else {
                parts.push(format!("+ {term}"));
            }
        }
        if self.constant != 0 || parts.is_empty() {
            if parts.is_empty() {
                parts.push(self.constant.to_string());
            } else if self.constant < 0 {
                parts.push(format!("- {}", -self.constant));
            } else {
                parts.push(format!("+ {}", self.constant));
            }
        }
        parts.join(" ")
    }
}

impl fmt::Debug for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<String> = (0..self.dim()).map(|i| format!("x{i}")).collect();
        write!(f, "{}", self.display_with(&names))
    }
}

impl fmt::Display for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Add for AffineExpr {
    type Output = AffineExpr;

    fn add(self, rhs: AffineExpr) -> AffineExpr {
        assert_eq!(self.dim(), rhs.dim(), "dimension mismatch in +");
        AffineExpr {
            coeffs: self
                .coeffs
                .iter()
                .zip(&rhs.coeffs)
                .map(|(a, b)| a + b)
                .collect(),
            constant: self.constant + rhs.constant,
        }
    }
}

impl Sub for AffineExpr {
    type Output = AffineExpr;

    fn sub(self, rhs: AffineExpr) -> AffineExpr {
        self + (-rhs)
    }
}

impl Neg for AffineExpr {
    type Output = AffineExpr;

    fn neg(self) -> AffineExpr {
        self.scaled(-1)
    }
}

impl Mul<i64> for AffineExpr {
    type Output = AffineExpr;

    fn mul(self, rhs: i64) -> AffineExpr {
        self.scaled(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_and_constant_evaluate() {
        let i = AffineExpr::var(3, 1);
        assert_eq!(i.eval(&[10, 20, 30]), 20);
        let k = AffineExpr::constant(3, -4);
        assert_eq!(k.eval(&[10, 20, 30]), -4);
    }

    #[test]
    fn arithmetic_matches_manual_eval() {
        // 2*x0 - 3*x1 + 5
        let e = AffineExpr::var(2, 0) * 2 - AffineExpr::var(2, 1) * 3 + AffineExpr::constant(2, 5);
        assert_eq!(e.eval(&[4, 1]), 2 * 4 - 3 + 5);
        assert_eq!(e.coeff(0), 2);
        assert_eq!(e.coeff(1), -3);
        assert_eq!(e.constant_term(), 5);
    }

    #[test]
    fn last_var_skips_zero_coefficients() {
        let e = AffineExpr::new(vec![1, 0, 0], 9);
        assert_eq!(e.last_var(), Some(0));
        assert_eq!(AffineExpr::constant(3, 2).last_var(), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn var_out_of_range_panics() {
        let _ = AffineExpr::var(2, 2);
    }

    #[test]
    fn display_is_readable() {
        let e = AffineExpr::new(vec![1, -1], 1);
        assert_eq!(format!("{e}"), "x0 - x1 + 1");
        assert_eq!(format!("{}", AffineExpr::zero(2)), "0");
    }
}
