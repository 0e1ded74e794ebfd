//! One module per application of Table 2.

pub mod applu;
pub mod bodytrack;
pub mod cg;
pub mod equake;
pub mod facesim;
pub mod freqmine;
pub mod galgel;
pub mod h264;
pub mod mesa;
pub mod namd;
pub mod povray;
pub mod sp;

use ctam_loopir::Subscript;
use ctam_poly::{AffineExpr, AffineMap};

/// 2-D shifted identity subscript: `(i, j) -> (i + di, j + dj)`.
pub(crate) fn shift2(di: i64, dj: i64) -> AffineMap {
    AffineMap::new(
        2,
        vec![
            AffineExpr::var(2, 0) + AffineExpr::constant(2, di),
            AffineExpr::var(2, 1) + AffineExpr::constant(2, dj),
        ],
    )
}

/// 1-D strided subscript: `i -> stride*i + off`.
pub(crate) fn strided1(stride: i64, off: i64) -> AffineMap {
    AffineMap::new(
        1,
        vec![AffineExpr::var(1, 0) * stride + AffineExpr::constant(1, off)],
    )
}

/// 1-D identity subscript.
pub(crate) fn id1() -> AffineMap {
    AffineMap::identity(1)
}

/// Indirect subscript selected by the (1-D) iteration times `k` plus `slot`:
/// iteration `i` reads table entry `i*k + slot`.
pub(crate) fn gather1(k: usize, slot: usize, table: &std::sync::Arc<[u64]>) -> Subscript {
    Subscript::Indirect {
        selector: AffineExpr::var(1, 0) * (k as i64) + AffineExpr::constant(1, slot as i64),
        table: table.clone(),
    }
}

/// Indirect subscript for 2-D nests: iteration `(i, j)` of a `w`-wide nest
/// selects table row `(i*w + j)*k + slot`.
pub(crate) fn gather2(w: i64, k: usize, slot: usize, table: &std::sync::Arc<[u64]>) -> Subscript {
    Subscript::Indirect {
        selector: (AffineExpr::var(2, 0) * w + AffineExpr::var(2, 1)) * (k as i64)
            + AffineExpr::constant(2, slot as i64),
        table: table.clone(),
    }
}

#[cfg(test)]
pub(crate) mod testsupport {
    use crate::registry::Workload;
    use crate::SizeClass;

    /// Smoke-checks the structural invariants every kernel must satisfy.
    pub(crate) fn check_workload(w: &Workload) {
        assert!(!w.name.is_empty());
        assert!(w.program.nests().count() >= 1, "{}: no nests", w.name);
        assert!(
            w.program.total_data_bytes() > 32 * 1024,
            "{}: data ({}) should exceed one L1",
            w.name,
            w.program.total_data_bytes()
        );
        for (id, nest) in w.program.nests() {
            let n = nest.n_iterations();
            assert!(n > 0, "{}: empty nest", w.name);
            assert!(!nest.refs().is_empty(), "{}: refless nest", w.name);
            // Every iteration's accesses resolve in bounds (nest_accesses
            // panics otherwise).
            let pts = nest.iterations();
            for p in [&pts[0], &pts[n / 2], &pts[n - 1]] {
                w.program.nest_accesses(id, p).for_each(drop);
            }
        }
    }

    pub(crate) fn check_sizes(build: fn(SizeClass) -> Workload) {
        let t = build(SizeClass::Test);
        let s = build(SizeClass::Small);
        let t_iters: usize = t.program.nests().map(|(_, n)| n.n_iterations()).sum();
        let s_iters: usize = s.program.nests().map(|(_, n)| n.n_iterations()).sum();
        assert!(s_iters > t_iters, "Small must be larger than Test");
        check_workload(&t);
    }
}
