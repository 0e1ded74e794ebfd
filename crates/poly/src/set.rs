//! Integer sets: conjunctions of affine constraints over a fixed space.

use std::fmt;

use crate::expr::AffineExpr;
use crate::fm::{
    bounds_for_var, eliminate_dim, normalize_to_ge, project_onto_prefix, FmError, MAX_CONSTRAINTS,
    MAX_PROJECTED_CONSTRAINTS,
};
use crate::Point;

/// Whether a [`Constraint`] is an inequality (`expr >= 0`) or an equality
/// (`expr == 0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintKind {
    /// `expr >= 0`
    Ge,
    /// `expr == 0`
    Eq,
}

/// A single affine constraint: `expr >= 0` or `expr == 0`.
///
/// # Example
///
/// ```
/// use ctam_poly::{AffineExpr, Constraint};
///
/// // i - 2 >= 0, i.e. i >= 2
/// let c = Constraint::ge(AffineExpr::var(1, 0) - AffineExpr::constant(1, 2));
/// assert!(c.satisfied_by(&[5]));
/// assert!(!c.satisfied_by(&[1]));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Constraint {
    expr: AffineExpr,
    kind: ConstraintKind,
}

impl Constraint {
    /// Builds the inequality constraint `expr >= 0`.
    pub fn ge(expr: AffineExpr) -> Self {
        Self {
            expr,
            kind: ConstraintKind::Ge,
        }
    }

    /// Builds the equality constraint `expr == 0`.
    pub fn eq(expr: AffineExpr) -> Self {
        Self {
            expr,
            kind: ConstraintKind::Eq,
        }
    }

    /// The constraint's left-hand-side expression.
    pub fn expr(&self) -> &AffineExpr {
        &self.expr
    }

    /// The constraint kind.
    pub fn kind(&self) -> ConstraintKind {
        self.kind
    }

    /// Evaluates the constraint at `point`.
    ///
    /// # Panics
    ///
    /// Panics if `point.len()` differs from the constraint's dimensionality.
    pub fn satisfied_by(&self, point: &[i64]) -> bool {
        let v = self.expr.eval(point);
        match self.kind {
            ConstraintKind::Ge => v >= 0,
            ConstraintKind::Eq => v == 0,
        }
    }
}

impl fmt::Debug for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match self.kind {
            ConstraintKind::Ge => ">=",
            ConstraintKind::Eq => "==",
        };
        write!(f, "{:?} {} 0", self.expr, op)
    }
}

/// A set of integer points described by a conjunction of affine constraints,
/// i.e. the integer points of a convex polyhedron.
///
/// This is the representation the paper uses for iteration spaces (`K`),
/// data spaces (`D`) and — through [`crate::AffineMap`] — array references.
///
/// # Example
///
/// ```
/// use ctam_poly::IntegerSet;
///
/// // The triangle 0 <= i <= 3, 0 <= j <= i.
/// let tri = IntegerSet::builder(2)
///     .names(["i", "j"])
///     .bounds(0, 0, 3)
///     .lower(1, 0)
///     .le_var(1, 0) // j <= i
///     .build();
/// assert_eq!(tri.point_count(), 4 + 3 + 2 + 1);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct IntegerSet {
    dim: usize,
    names: Vec<String>,
    constraints: Vec<Constraint>,
}

impl IntegerSet {
    /// Starts building a set over `dim` dimensions.
    pub fn builder(dim: usize) -> SetBuilder {
        SetBuilder {
            dim,
            names: (0..dim).map(|i| format!("x{i}")).collect(),
            constraints: Vec::new(),
        }
    }

    /// The unconstrained set over `dim` dimensions (every integer point).
    ///
    /// Note that iterating a universe set does not terminate; constrain it
    /// first.
    pub fn universe(dim: usize) -> Self {
        Self::builder(dim).build()
    }

    /// Number of dimensions.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Dimension names (used by codegen; default `x0, x1, ...`).
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The constraints defining the set.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// True if `point` satisfies every constraint.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != dim()`.
    pub fn contains(&self, point: &[i64]) -> bool {
        assert_eq!(point.len(), self.dim, "point dimensionality mismatch");
        self.constraints.iter().all(|c| c.satisfied_by(point))
    }

    /// Intersects two sets over the same space.
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    pub fn intersect(&self, other: &IntegerSet) -> IntegerSet {
        assert_eq!(self.dim, other.dim, "dimension mismatch in intersect");
        let mut constraints = self.constraints.clone();
        constraints.extend(other.constraints.iter().cloned());
        IntegerSet {
            dim: self.dim,
            names: self.names.clone(),
            constraints,
        }
    }

    /// Returns a copy with one extra constraint.
    pub fn with_constraint(mut self, c: Constraint) -> IntegerSet {
        self.constraints.push(c);
        self
    }

    /// True if the set contains no integer point.
    ///
    /// Decided by attempting enumeration, which is exact (Fourier–Motzkin
    /// guides the search; every emitted point is verified by construction).
    /// Intended for bounded sets.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    /// Iterates all integer points in lexicographic order.
    ///
    /// The iterator is exact: it yields precisely the integer points of the
    /// set. It does not terminate on unbounded sets.
    ///
    /// # Panics
    ///
    /// Panics if a Fourier–Motzkin elimination overflows or exceeds its
    /// constraint cap, which [`Self::bounding_box`] reports as an error
    /// first.
    pub fn iter(&self) -> PointIter<'_> {
        let ge = normalize_to_ge(&self.constraints);
        let projections = (0..self.dim)
            .map(|d| {
                project_onto_prefix(&ge, d + 1, self.dim, MAX_CONSTRAINTS)
                    .unwrap_or_else(|e| panic!("Fourier–Motzkin elimination failed: {e}"))
            })
            .collect();
        PointIter {
            set: self,
            projections,
            stack: Vec::with_capacity(self.dim),
            primed: false,
            done: false,
        }
    }

    /// Counts the integer points (enumerates; intended for bounded sets).
    pub fn point_count(&self) -> usize {
        self.iter().count()
    }

    /// Per-dimension integer bounding box `[(lo, hi); dim]`, or `None` if the
    /// set is (rationally) empty or unbounded in some direction.
    ///
    /// Dimension 0's bounds come from eliminating every other dimension,
    /// innermost first, which passes through each prefix projection that
    /// [`Self::iter`] and code generation run: when this returns `Ok`,
    /// enumerating the set cannot fail.
    ///
    /// # Errors
    ///
    /// [`FmError`] if an elimination overflows `i64` or a step would produce
    /// more than 2^20 constraints.
    pub fn bounding_box(&self) -> Result<Option<Vec<(i64, i64)>>, FmError> {
        let ge = normalize_to_ge(&self.constraints);
        let mut out = Vec::with_capacity(self.dim);
        for d in 0..self.dim {
            // Eliminate every dimension except `d`.
            let mut sys = ge.clone();
            for other in (0..self.dim).rev() {
                if other != d {
                    sys = eliminate_dim(&sys, other, MAX_CONSTRAINTS)?;
                }
            }
            let (mut lo, mut hi) = (i64::MIN / 2, i64::MAX / 2);
            for e in &sys {
                let c = e.coeff(d);
                let k = e.constant_term();
                match c.signum() {
                    0 => {
                        if k < 0 {
                            return Ok(None);
                        }
                    }
                    1 => {
                        let b = (-k).div_euclid(c) + i64::from((-k).rem_euclid(c) != 0);
                        lo = lo.max(b);
                    }
                    _ => hi = hi.min(k.div_euclid(-c)),
                }
            }
            if lo <= i64::MIN / 2 || hi >= i64::MAX / 2 || lo > hi {
                return Ok(None);
            }
            out.push((lo, hi));
        }
        Ok(Some(out))
    }

    /// The (rational) projection onto the first `keep` dimensions: every
    /// point of the set projects into it, and it may also hold integer
    /// points no point of the set projects onto.
    ///
    /// # Errors
    ///
    /// [`FmError`] if an elimination overflows `i64` or a step would produce
    /// more than 4,096 constraints, a tighter cap than the other operations'
    /// (the sets projected in practice, such as a dependence test's
    /// conflict system, stay far below it).
    ///
    /// # Panics
    ///
    /// Panics if `keep > dim()`.
    pub fn project(&self, keep: usize) -> Result<IntegerSet, FmError> {
        assert!(keep <= self.dim, "cannot project onto more dimensions");
        let ge = normalize_to_ge(&self.constraints);
        let constraints = project_onto_prefix(&ge, keep, self.dim, MAX_PROJECTED_CONSTRAINTS)?
            .into_iter()
            .map(|e| {
                Constraint::ge(AffineExpr::new(
                    e.coeffs()[..keep].to_vec(),
                    e.constant_term(),
                ))
            })
            .collect();
        Ok(IntegerSet {
            dim: keep,
            names: self.names[..keep].to_vec(),
            constraints,
        })
    }
}

impl fmt::Debug for IntegerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{ ({})", self.names.join(", "))?;
        if !self.constraints.is_empty() {
            write!(f, " : ")?;
            for (i, c) in self.constraints.iter().enumerate() {
                if i > 0 {
                    write!(f, " and ")?;
                }
                let op = match c.kind() {
                    ConstraintKind::Ge => ">=",
                    ConstraintKind::Eq => "==",
                };
                write!(f, "{} {} 0", c.expr().display_with(&self.names), op)?;
            }
        }
        write!(f, " }}")
    }
}

/// Incremental builder for [`IntegerSet`] (see [`IntegerSet::builder`]).
#[derive(Debug, Clone)]
pub struct SetBuilder {
    dim: usize,
    names: Vec<String>,
    constraints: Vec<Constraint>,
}

impl SetBuilder {
    /// Sets the dimension names.
    ///
    /// # Panics
    ///
    /// Panics if the number of names differs from the builder's dimension.
    pub fn names<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.names = names.into_iter().map(Into::into).collect();
        assert_eq!(self.names.len(), self.dim, "expected {} names", self.dim);
        self
    }

    /// Adds `lo <= var <= hi`.
    pub fn bounds(self, var: usize, lo: i64, hi: i64) -> Self {
        self.lower(var, lo).upper(var, hi)
    }

    /// Adds `var >= lo`.
    pub fn lower(mut self, var: usize, lo: i64) -> Self {
        let e = AffineExpr::var(self.dim, var) - AffineExpr::constant(self.dim, lo);
        self.constraints.push(Constraint::ge(e));
        self
    }

    /// Adds `var <= hi`.
    pub fn upper(mut self, var: usize, hi: i64) -> Self {
        let e = AffineExpr::constant(self.dim, hi) - AffineExpr::var(self.dim, var);
        self.constraints.push(Constraint::ge(e));
        self
    }

    /// Adds `a <= b` between two variables.
    pub fn le_var(mut self, a: usize, b: usize) -> Self {
        let e = AffineExpr::var(self.dim, b) - AffineExpr::var(self.dim, a);
        self.constraints.push(Constraint::ge(e));
        self
    }

    /// Adds an arbitrary `expr >= 0` constraint.
    ///
    /// # Panics
    ///
    /// Panics if the expression's dimensionality differs from the builder's.
    pub fn ge(mut self, expr: AffineExpr) -> Self {
        assert_eq!(expr.dim(), self.dim, "constraint dimensionality mismatch");
        self.constraints.push(Constraint::ge(expr));
        self
    }

    /// Adds an arbitrary `expr == 0` constraint.
    ///
    /// # Panics
    ///
    /// Panics if the expression's dimensionality differs from the builder's.
    pub fn eq(mut self, expr: AffineExpr) -> Self {
        assert_eq!(expr.dim(), self.dim, "constraint dimensionality mismatch");
        self.constraints.push(Constraint::eq(expr));
        self
    }

    /// Finishes building the set.
    pub fn build(self) -> IntegerSet {
        IntegerSet {
            dim: self.dim,
            names: self.names,
            constraints: self.constraints,
        }
    }
}

/// Lexicographic iterator over the integer points of an [`IntegerSet`].
///
/// Created by [`IntegerSet::iter`].
#[derive(Debug)]
pub struct PointIter<'a> {
    set: &'a IntegerSet,
    /// `projections[d]`: the input system with dims `d+1..dim` eliminated,
    /// used to bound dim `d` once dims `0..d` are fixed.
    projections: Vec<Vec<AffineExpr>>,
    /// Per-depth `(current, hi)` counters.
    stack: Vec<(i64, i64)>,
    /// True when `stack` holds a full point that has been yielded.
    primed: bool,
    done: bool,
}

impl PointIter<'_> {
    /// Advances the deepest counter that can still move, popping exhausted
    /// levels. Returns false when the whole space is exhausted.
    fn advance(&mut self) -> bool {
        while let Some(top) = self.stack.last_mut() {
            if top.0 < top.1 {
                top.0 += 1;
                return true;
            }
            self.stack.pop();
        }
        false
    }
}

impl Iterator for PointIter<'_> {
    type Item = Point;

    fn next(&mut self) -> Option<Point> {
        if self.done {
            return None;
        }
        if self.set.dim == 0 {
            self.done = true;
            let feasible = self.set.constraints.iter().all(|c| c.satisfied_by(&[]));
            return feasible.then(Vec::new);
        }
        if self.primed && !self.advance() {
            self.done = true;
            return None;
        }
        self.primed = false;
        while self.stack.len() < self.set.dim {
            let d = self.stack.len();
            let prefix: Vec<i64> = self.stack.iter().map(|s| s.0).collect();
            let b = bounds_for_var(&self.projections[d], d, &prefix);
            if b.is_feasible() {
                self.stack.push((b.lo, b.hi));
            } else if !self.advance() {
                self.done = true;
                return None;
            }
        }
        self.primed = true;
        let point: Point = self.stack.iter().map(|s| s.0).collect();
        debug_assert!(self.set.contains(&point));
        Some(point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(w: i64, h: i64) -> IntegerSet {
        IntegerSet::builder(2)
            .bounds(0, 0, w - 1)
            .bounds(1, 0, h - 1)
            .build()
    }

    #[test]
    fn rectangle_enumerates_in_lex_order() {
        let pts: Vec<_> = rect(2, 3).iter().collect();
        assert_eq!(
            pts,
            vec![
                vec![0, 0],
                vec![0, 1],
                vec![0, 2],
                vec![1, 0],
                vec![1, 1],
                vec![1, 2]
            ]
        );
    }

    #[test]
    fn triangle_count() {
        let tri = IntegerSet::builder(2)
            .bounds(0, 0, 9)
            .lower(1, 0)
            .le_var(1, 0)
            .build();
        assert_eq!(tri.point_count(), (1..=10).sum::<i64>() as usize);
    }

    #[test]
    fn empty_set_detected() {
        let s = IntegerSet::builder(1).lower(0, 5).upper(0, 3).build();
        assert!(s.is_empty());
        assert_eq!(s.point_count(), 0);
    }

    #[test]
    fn equality_constraint_slices_diagonal() {
        // 0 <= i,j <= 4, i == j
        let diag = IntegerSet::builder(2)
            .bounds(0, 0, 4)
            .bounds(1, 0, 4)
            .eq(AffineExpr::var(2, 0) - AffineExpr::var(2, 1))
            .build();
        let pts: Vec<_> = diag.iter().collect();
        assert_eq!(pts.len(), 5);
        assert!(pts.iter().all(|p| p[0] == p[1]));
    }

    #[test]
    fn contains_and_iter_agree_on_parallelogram() {
        // 0 <= i <= 6, i <= j <= i + 2
        let s = IntegerSet::builder(2)
            .bounds(0, 0, 6)
            .ge(AffineExpr::var(2, 1) - AffineExpr::var(2, 0))
            .ge(AffineExpr::var(2, 0) + AffineExpr::constant(2, 2) - AffineExpr::var(2, 1))
            .build();
        let enumerated: Vec<_> = s.iter().collect();
        let mut brute = Vec::new();
        for i in -2..10 {
            for j in -2..12 {
                if s.contains(&[i, j]) {
                    brute.push(vec![i, j]);
                }
            }
        }
        assert_eq!(enumerated, brute);
    }

    #[test]
    fn bounding_box_of_triangle() {
        let tri = IntegerSet::builder(2)
            .bounds(0, 0, 9)
            .lower(1, 0)
            .le_var(1, 0)
            .build();
        assert_eq!(tri.bounding_box(), Ok(Some(vec![(0, 9), (0, 9)])));
    }

    #[test]
    fn bounding_box_of_unbounded_set_is_none() {
        let s = IntegerSet::builder(1).lower(0, 0).build();
        assert_eq!(s.bounding_box(), Ok(None));
    }

    #[test]
    fn bounding_box_reports_overflow() {
        // 0 <= i <= 2^30, 0 <= j <= 2^40 * i: bounding j eliminates i, which
        // scales the upper bound on i by 2^40.
        let s = IntegerSet::builder(2)
            .bounds(0, 0, 1 << 30)
            .lower(1, 0)
            .ge(AffineExpr::new(vec![1 << 40, -1], 0))
            .build();
        assert_eq!(s.bounding_box(), Err(FmError::Overflow { dim: 0 }));
    }

    #[test]
    fn projection_keeps_the_prefix_shadow() {
        // 0 <= i <= 6, 2j = i, 0 <= j: the shadow on i is 0 <= i <= 6,
        // odd values included.
        let s = IntegerSet::builder(2)
            .names(["i", "j"])
            .bounds(0, 0, 6)
            .lower(1, 0)
            .eq(AffineExpr::new(vec![1, -2], 0))
            .build();
        let shadow = s.project(1).unwrap();
        assert_eq!(shadow.names(), ["i"]);
        assert_eq!(shadow.point_count(), 7);
        assert_eq!(s.project(2).unwrap().point_count(), 4);
    }

    #[test]
    fn projection_has_the_tighter_cap() {
        // 65 lower and 64 upper bounds on y: eliminating it keeps the 2
        // bounds on x and adds 4,160 combinations, past the projection's
        // cap but not the bounding box's.
        let mut b = IntegerSet::builder(2).bounds(0, 0, 9);
        for k in 0..65 {
            b = b.ge(AffineExpr::new(vec![k + 1, 1], 0));
        }
        for k in 0..64 {
            b = b.ge(AffineExpr::new(vec![k + 1, -1], 5));
        }
        let s = b.build();
        assert_eq!(
            s.project(1),
            Err(FmError::TooManyConstraints {
                dim: 1,
                required: 4162,
                limit: 4096,
            })
        );
        assert!(s.bounding_box().unwrap().is_some());
    }

    #[test]
    fn zero_dim_set() {
        let s = IntegerSet::universe(0);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![Vec::<i64>::new()]);
    }

    #[test]
    fn intersect_restricts() {
        let a = rect(10, 10);
        let b = IntegerSet::builder(2).lower(0, 5).build();
        assert_eq!(a.intersect(&b).point_count(), 5 * 10);
    }

    #[test]
    fn debug_format_mentions_names() {
        let s = IntegerSet::builder(2)
            .names(["i", "j"])
            .bounds(0, 0, 1)
            .build();
        let d = format!("{s:?}");
        assert!(d.contains('i') && d.contains('j'), "{d}");
    }
}
