//! Fourier–Motzkin elimination.
//!
//! This is the workhorse behind emptiness tests, projections, loop-bound
//! extraction and point enumeration. Elimination is exact over the rationals;
//! integer feasibility of individual points is re-checked against the
//! original constraints wherever it matters (see [`crate::IntegerSet::iter`]).

use std::fmt;

use crate::expr::AffineExpr;
use crate::set::{Constraint, ConstraintKind};

/// Most constraints one elimination step may produce for bounding boxes,
/// enumeration and code generation. A step replaces `|lowers| × |uppers|`
/// constraint pairs by their combinations, so systems can grow
/// quadratically per eliminated dimension; the cap stops the systems that
/// would otherwise grow until memory runs out.
pub(crate) const MAX_CONSTRAINTS: usize = 1 << 20;

/// The cap of [`crate::IntegerSet::project`]: the conflict systems of a
/// dependence test double a nest's dimension count, and projecting one
/// fails fast instead of growing.
pub(crate) const MAX_PROJECTED_CONSTRAINTS: usize = 4096;

/// Why a Fourier–Motzkin elimination gave up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FmError {
    /// Combining a lower/upper pair overflowed `i64` coefficient arithmetic.
    Overflow {
        /// The dimension being eliminated when the overflow occurred.
        dim: usize,
    },
    /// An elimination step would exceed its constraint cap.
    TooManyConstraints {
        /// The dimension being eliminated when the cap was hit.
        dim: usize,
        /// Constraints the step would have produced.
        required: usize,
        /// The cap.
        limit: usize,
    },
}

impl fmt::Display for FmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FmError::Overflow { dim } => {
                write!(f, "i64 overflow while eliminating dimension {dim}")
            }
            FmError::TooManyConstraints {
                dim,
                required,
                limit,
            } => write!(
                f,
                "eliminating dimension {dim} needs {required} constraints \
                 (limit {limit})"
            ),
        }
    }
}

impl std::error::Error for FmError {}

/// Normalizes a constraint list to pure `>= 0` form (each equality becomes
/// two opposing inequalities).
pub(crate) fn normalize_to_ge(constraints: &[Constraint]) -> Vec<AffineExpr> {
    let mut out = Vec::with_capacity(constraints.len());
    for c in constraints {
        match c.kind() {
            ConstraintKind::Ge => out.push(c.expr().clone()),
            ConstraintKind::Eq => {
                out.push(c.expr().clone());
                out.push(-c.expr().clone());
            }
        }
    }
    out
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Divides a `>= 0` expression by the gcd of its coefficients, tightening the
/// constant with integer floor division (a valid integer-space tightening).
fn reduce(expr: &AffineExpr) -> AffineExpr {
    let mut g = 0;
    for &c in expr.coeffs() {
        g = gcd(g, c);
    }
    if g <= 1 {
        return expr.clone();
    }
    let coeffs = expr.coeffs().iter().map(|c| c / g).collect();
    // floor division tightens `g*e + k >= 0` to `e + floor(k/g) >= 0`.
    AffineExpr::new(coeffs, expr.constant_term().div_euclid(g))
}

/// Eliminates dimension `dim` from a list of `expr >= 0` inequalities by
/// Fourier–Motzkin, returning inequalities over the remaining dimensions
/// (the eliminated dimension keeps its slot with a zero coefficient), sorted
/// and deduplicated. Coefficient arithmetic is checked, and the step may
/// produce at most `limit` constraints.
pub(crate) fn eliminate_dim(
    ge_exprs: &[AffineExpr],
    dim: usize,
    limit: usize,
) -> Result<Vec<AffineExpr>, FmError> {
    let mut lowers: Vec<&AffineExpr> = Vec::new(); // coeff > 0: gives lower bound
    let mut uppers: Vec<&AffineExpr> = Vec::new(); // coeff < 0: gives upper bound
    let mut rest: Vec<AffineExpr> = Vec::new();
    for e in ge_exprs {
        match e.coeff(dim).signum() {
            1 => lowers.push(e),
            -1 => uppers.push(e),
            _ => rest.push(e.clone()),
        }
    }
    let required = rest
        .len()
        .saturating_add(lowers.len().saturating_mul(uppers.len()));
    if required > limit {
        return Err(FmError::TooManyConstraints {
            dim,
            required,
            limit,
        });
    }
    for lo in &lowers {
        for up in &uppers {
            let a = lo.coeff(dim); // > 0
            let b = -up.coeff(dim); // > 0
                                    // b*lo + a*up eliminates `dim`.
            let combined = lo
                .checked_scaled(b)
                .and_then(|l| up.checked_scaled(a).and_then(|u| l.checked_plus(&u)))
                .ok_or(FmError::Overflow { dim })?;
            debug_assert_eq!(combined.coeff(dim), 0);
            rest.push(reduce(&combined));
        }
    }
    rest.sort_by(|a, b| (a.coeffs(), a.constant_term()).cmp(&(b.coeffs(), b.constant_term())));
    rest.dedup();
    Ok(rest)
}

/// Eliminates every dimension `>= keep` from the system (innermost first),
/// producing the rational projection onto the first `keep` dimensions.
pub(crate) fn project_onto_prefix(
    ge_exprs: &[AffineExpr],
    keep: usize,
    dim: usize,
    limit: usize,
) -> Result<Vec<AffineExpr>, FmError> {
    let mut sys = ge_exprs.to_vec();
    for d in (keep..dim).rev() {
        sys = eliminate_dim(&sys, d, limit)?;
    }
    Ok(sys)
}

/// Integer bounds for one variable once all earlier variables are fixed
/// (used by the point enumerator); `lo > hi` (or `infeasible`) means the
/// current partial assignment admits no value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct VarBounds {
    /// Tightest integer lower bound.
    pub(crate) lo: i64,
    /// Tightest integer upper bound.
    pub(crate) hi: i64,
    /// True if a variable-free constraint already failed.
    infeasible: bool,
}

impl VarBounds {
    /// True if at least one integer value satisfies the bounds.
    pub(crate) fn is_feasible(&self) -> bool {
        !self.infeasible && self.lo <= self.hi
    }
}

/// Computes integer bounds on variable `var` from a system over dims
/// `0..=var` (higher dims must already be eliminated), with `prefix` giving
/// the fixed values of dims `0..var`.
///
/// Unbounded directions are clamped to `i64::MIN/2` / `i64::MAX/2` so
/// arithmetic cannot overflow downstream; sets used in practice are bounded.
pub(crate) fn bounds_for_var(ge_exprs: &[AffineExpr], var: usize, prefix: &[i64]) -> VarBounds {
    debug_assert_eq!(prefix.len(), var);
    let mut lo = i64::MIN / 2;
    let mut hi = i64::MAX / 2;
    for e in ge_exprs {
        debug_assert!(e.last_var().is_none_or(|v| v <= var));
        let c = e.coeff(var);
        // Evaluate the rest of the expression at the prefix.
        let mut rest = e.constant_term();
        for (i, &x) in prefix.iter().enumerate() {
            rest += e.coeff(i) * x;
        }
        match c.signum() {
            0 => {
                if rest < 0 {
                    return VarBounds {
                        lo: 0,
                        hi: -1,
                        infeasible: true,
                    };
                }
            }
            1 => {
                // c*x + rest >= 0  =>  x >= ceil(-rest / c)
                let bound = (-rest).div_euclid(c) + i64::from((-rest).rem_euclid(c) != 0);
                lo = lo.max(bound);
            }
            _ => {
                // c*x + rest >= 0 with c < 0  =>  x <= floor(rest / -c)
                let bound = rest.div_euclid(-c);
                hi = hi.min(bound);
            }
        }
    }
    VarBounds {
        lo,
        hi,
        infeasible: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set::IntegerSet;

    fn ge(coeffs: Vec<i64>, k: i64) -> AffineExpr {
        AffineExpr::new(coeffs, k)
    }

    #[test]
    fn eliminate_simple_band() {
        // 0 <= x <= 5, x <= y, y <= 7  --- eliminate y: 0 <= x <= 5 survives,
        // and x <= 7 (redundant).
        let sys = vec![
            ge(vec![1, 0], 0),  // x >= 0
            ge(vec![-1, 0], 5), // x <= 5
            ge(vec![-1, 1], 0), // y >= x
            ge(vec![0, -1], 7), // y <= 7
        ];
        let out = eliminate_dim(&sys, 1, MAX_CONSTRAINTS).unwrap();
        assert!(out.iter().all(|e| e.coeff(1) == 0));
        // x <= 7 must be implied by combining y>=x and y<=7.
        assert!(out
            .iter()
            .any(|e| e.coeff(0) == -1 && e.constant_term() == 7));
    }

    #[test]
    fn infeasible_system_detected_by_bounds() {
        // x >= 3 and x <= 1
        let sys = vec![ge(vec![1], -3), ge(vec![-1], 1)];
        let b = bounds_for_var(&sys, 0, &[]);
        assert!(!b.is_feasible());
    }

    #[test]
    fn bounds_use_ceiling_and_floor() {
        // 2x - 3 >= 0 => x >= 2 (ceil 1.5); -3x + 10 >= 0 => x <= 3 (floor 3.33)
        let sys = vec![ge(vec![2], -3), ge(vec![-3], 10)];
        let b = bounds_for_var(&sys, 0, &[]);
        assert_eq!((b.lo, b.hi), (2, 3));
    }

    #[test]
    fn projection_matches_enumeration() {
        // Triangle 0 <= i <= 4, 0 <= j <= i. Projection on i: 0 <= i <= 4.
        let set = IntegerSet::builder(2)
            .ge(ge(vec![1, 0], 0))
            .ge(ge(vec![-1, 0], 4))
            .ge(ge(vec![0, 1], 0))
            .ge(ge(vec![1, -1], 0))
            .build();
        let sys = normalize_to_ge(set.constraints());
        let proj = project_onto_prefix(&sys, 1, 2, MAX_CONSTRAINTS).unwrap();
        let b = bounds_for_var(&proj, 0, &[]);
        assert_eq!((b.lo, b.hi), (0, 4));
    }

    #[test]
    fn reduce_tightens_integer_bound() {
        // 2x - 3 >= 0 reduces to x - 2 >= 0 (x >= 1.5 tightened to x >= 2).
        let r = reduce(&ge(vec![2], -3));
        assert_eq!(r, ge(vec![1], -2));
    }

    #[test]
    fn overflowing_combination_is_a_typed_error() {
        // Combining k*y + x >= 0 with k*(-y) + x >= 0 for k near i64::MAX
        // scales x's coefficient by k twice — far past i64.
        let k = i64::MAX / 2;
        let sys = vec![ge(vec![1, k], 0), ge(vec![1, -k], 0)];
        let err = eliminate_dim(&sys, 1, MAX_CONSTRAINTS).unwrap_err();
        assert_eq!(err, FmError::Overflow { dim: 1 });
    }

    #[test]
    fn constraint_cap_is_enforced() {
        // 3 lower and 3 upper bounds on y: elimination wants 9 constraints.
        let mut sys = Vec::new();
        for k in 0..3 {
            sys.push(ge(vec![k + 1, 1], 0)); // y >= -(k+1)x
            sys.push(ge(vec![k + 1, -1], 5)); // y <= (k+1)x + 5
        }
        let err = eliminate_dim(&sys, 1, 8).unwrap_err();
        assert_eq!(
            err,
            FmError::TooManyConstraints {
                dim: 1,
                required: 9,
                limit: 8,
            }
        );
        assert_eq!(
            err.to_string(),
            "eliminating dimension 1 needs 9 constraints (limit 8)"
        );
        // A roomier cap succeeds and eliminates the dimension.
        let ok = eliminate_dim(&sys, 1, 9).unwrap();
        assert!(ok.iter().all(|e| e.coeff(1) == 0));
    }
}
