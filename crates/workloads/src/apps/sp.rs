//! `sp` (NAS Parallel Benchmarks): scalar penta-diagonal solver.
//!
//! Dominant structure: line sweeps solving penta-diagonal systems — each
//! iteration reads a 5-wide window along the inner dimension and updates
//! the center, carrying a dependence along the line.

use ctam_loopir::{ArrayRef, LoopNest, Program};
use ctam_poly::IntegerSet;

use super::shift2;
use crate::registry::Workload;
use crate::SizeClass;

/// Builds the kernel.
pub fn build(size: SizeClass) -> Workload {
    let n = 64 * size.scale();
    let mut p = Program::new("sp");
    let u = p.add_array("U", &[n, n], 8);
    let lhs = p.add_array("LHS", &[n, n], 8);
    let hi = n as i64 - 1;
    let domain = IntegerSet::builder(2)
        .names(["line", "j"])
        .bounds(0, 0, hi)
        .bounds(1, 2, hi - 2)
        .build();
    p.add_nest(
        LoopNest::new("penta_sweep", domain)
            .with_ref(ArrayRef::write(u, shift2(0, 0)))
            .with_ref(ArrayRef::read(u, shift2(0, -2)))
            .with_ref(ArrayRef::read(u, shift2(0, -1)))
            .with_ref(ArrayRef::read(u, shift2(0, 1)))
            .with_ref(ArrayRef::read(u, shift2(0, 2)))
            .with_ref(ArrayRef::read(lhs, shift2(0, 0))),
    );
    Workload {
        name: "sp",
        suite: "NAS",
        parallel: true,
        description: "scalar penta-diagonal solver: 5-wide line sweeps",
        program: p,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::testsupport::{check_sizes, check_workload};

    #[test]
    fn structure() {
        let w = build(SizeClass::Test);
        check_workload(&w);
    }

    #[test]
    fn sizes_scale() {
        check_sizes(build);
    }

    #[test]
    fn lines_are_independent_but_sweeps_are_not() {
        // The dependence is carried along j (the line), not across lines:
        // the outer loop is the parallel one, as in the real SP.
        let w = build(SizeClass::Test);
        let (id, _) = w.program.nests().next().unwrap();
        let info = ctam_loopir::dependence::analyze_nest(&w.program, id).info;
        assert_eq!(info.outermost_parallel(), Some(0));
        assert!(!info.is_fully_parallel());
    }
}
