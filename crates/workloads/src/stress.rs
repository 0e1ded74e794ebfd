//! Stress kernels for the symbolic dependence engine.
//!
//! These are *not* part of the Table 2 suite ([`crate::all`] stays at the
//! paper's twelve applications). They exist to exercise subscript shapes the
//! per-row screens and the uniform (constant-distance) test cannot decide,
//! so the engine's conflict-set projection and integrality rechecks carry
//! the analysis:
//!
//! * [`scaled_rowsum`] — a strided reduction `W[2i] += A[i][j]`. The scaled
//!   row defeats the uniform test, and before the symbolic engine the whole
//!   nest fell back to `O(n³)`-pair enumeration; symbolically the distance
//!   set `{(0, t)}` falls out of one projection. Every distance is zero on
//!   the unit prefix, so the nest is outer-parallel and its race freedom is
//!   provable without replaying accesses (`CTAM-N301`).
//! * [`coupled_diagonal`] — an anti-diagonal wavefront `B[i+j] = B[i+j−1]`
//!   whose subscript rows couple both loop variables (`CTAM-W203`); the
//!   dependence is carried at both levels.
//! * [`interleaved_independent`] — `A[2i] = A[2i+1]`: even writes, odd
//!   reads. Dependence-free, but only *integer* reasoning shows it — the
//!   rational conflict set is non-empty; the GCD screen (gcd 2 cannot divide
//!   the gap 1) proves independence.

use ctam_loopir::{ArrayRef, LoopNest, Program};
use ctam_poly::{AffineExpr, AffineMap, IntegerSet};

use crate::registry::Workload;
use crate::SizeClass;

/// `W[2i] += A[i][j]` over `(i, j) ∈ [0, n)²`: the strided row-reduction.
pub fn scaled_rowsum(size: SizeClass) -> Workload {
    let n = 96 * size.scale();
    let hi = n as i64 - 1;
    let mut p = Program::new("scaled_rowsum");
    let a = p.add_array("A", &[n, n], 8);
    // Strided reduction slots: extent 2n so subscript 2i stays in bounds.
    let w = p.add_array("W", &[2 * n], 64);
    let d = IntegerSet::builder(2)
        .names(["i", "j"])
        .bounds(0, 0, hi)
        .bounds(1, 0, hi)
        .build();
    let two_i = AffineMap::new(2, vec![AffineExpr::var(2, 0).scaled(2)]);
    p.add_nest(
        LoopNest::new("rowsum", d)
            .with_ref(ArrayRef::write(w, two_i.clone()))
            .with_ref(ArrayRef::read(w, two_i))
            .with_ref(ArrayRef::read(a, AffineMap::identity(2))),
    );
    Workload {
        name: "scaled_rowsum",
        suite: "stress",
        parallel: true,
        description: "strided row reduction W[2i] += A[i][j]: scaled subscript, outer-parallel",
        program: p,
    }
}

/// `B[i+j] = B[i+j−1] + A[i][j]`: an anti-diagonal wavefront with coupled
/// subscript rows.
pub fn coupled_diagonal(size: SizeClass) -> Workload {
    let n = 32 * size.scale();
    let hi = n as i64 - 1;
    let mut p = Program::new("coupled_diagonal");
    let a = p.add_array("A", &[n, n], 8);
    // Diagonals run 0..=2n-2; the read subscript i+j-1 needs i+j >= 1.
    let b = p.add_array("B", &[2 * n - 1], 8);
    let d = IntegerSet::builder(2)
        .names(["i", "j"])
        .bounds(0, 0, hi)
        .bounds(1, 1, hi)
        .build();
    let diag = AffineMap::new(2, vec![AffineExpr::var(2, 0) + AffineExpr::var(2, 1)]);
    let diag_prev = AffineMap::new(
        2,
        vec![AffineExpr::var(2, 0) + AffineExpr::var(2, 1) - AffineExpr::constant(2, 1)],
    );
    p.add_nest(
        LoopNest::new("wavefront", d)
            .with_ref(ArrayRef::write(b, diag))
            .with_ref(ArrayRef::read(b, diag_prev))
            .with_ref(ArrayRef::read(a, AffineMap::identity(2))),
    );
    Workload {
        name: "coupled_diagonal",
        suite: "stress",
        parallel: false,
        description: "anti-diagonal wavefront B[i+j] = B[i+j-1]: coupled subscript rows",
        program: p,
    }
}

/// `A[2i] = A[2i+1]` over `i ∈ [0, n)`: independent by integer reasoning
/// only.
pub fn interleaved_independent(size: SizeClass) -> Workload {
    let n = 64 * size.scale();
    let hi = n as i64 - 1;
    let mut p = Program::new("interleaved_independent");
    let a = p.add_array("A", &[2 * n], 8);
    let d = IntegerSet::builder(1).names(["i"]).bounds(0, 0, hi).build();
    let even = AffineMap::new(1, vec![AffineExpr::var(1, 0).scaled(2)]);
    let odd = AffineMap::new(
        1,
        vec![AffineExpr::var(1, 0).scaled(2) + AffineExpr::constant(1, 1)],
    );
    p.add_nest(
        LoopNest::new("deinterleave", d)
            .with_ref(ArrayRef::write(a, even))
            .with_ref(ArrayRef::read(a, odd)),
    );
    Workload {
        name: "interleaved_independent",
        suite: "stress",
        parallel: true,
        description: "even/odd deinterleave A[2i] = A[2i+1]: independent by GCD only",
        program: p,
    }
}

/// All stress kernels, in a fixed order.
pub fn stress_suite(size: SizeClass) -> Vec<Workload> {
    vec![
        scaled_rowsum(size),
        coupled_diagonal(size),
        interleaved_independent(size),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctam_loopir::{dependence, lint_nest, LintKind};

    #[test]
    fn scaled_rowsum_is_outer_parallel_and_symbolic() {
        let w = scaled_rowsum(SizeClass::Test);
        let (id, _) = w.program.nests().next().unwrap();
        assert!(lint_nest(&w.program, id).is_empty());
        let analysis = dependence::analyze_nest(&w.program, id);
        assert!(analysis.enumeration_free(), "{:?}", analysis.pairs);
        let report = analysis.classify();
        assert_eq!(report.outermost_parallel, Some(0));
        assert!(analysis
            .info
            .distances()
            .iter()
            .all(|d| d[0] == 0 && d[1] > 0));
    }

    #[test]
    fn coupled_diagonal_is_coupled_and_carried() {
        let w = coupled_diagonal(SizeClass::Test);
        let (id, _) = w.program.nests().next().unwrap();
        let lints = lint_nest(&w.program, id);
        assert!(
            lints.iter().any(|l| l.kind == LintKind::Coupled),
            "{lints:?}"
        );
        let analysis = dependence::analyze_nest(&w.program, id);
        assert!(analysis.enumeration_free(), "{:?}", analysis.pairs);
        let report = analysis.classify();
        assert_eq!(report.outermost_parallel, None);
        // The write-to-read flow along a diagonal: distance (0, 1) at least.
        assert!(analysis.info.distances().iter().any(|d| d == &vec![0, 1]));
    }

    #[test]
    fn interleaved_is_independent() {
        let w = interleaved_independent(SizeClass::Test);
        let (id, _) = w.program.nests().next().unwrap();
        let dep = dependence::analyze_nest(&w.program, id).info;
        assert!(dep.is_fully_parallel());
    }

    #[test]
    fn sizes_scale() {
        for build in [scaled_rowsum, coupled_diagonal, interleaved_independent] {
            let t = build(SizeClass::Test).total_iterations();
            let r = build(SizeClass::Reference).total_iterations();
            assert!(r > t);
        }
    }
}
