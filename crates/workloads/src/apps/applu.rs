//! `applu` (SPEC OMP): SSOR solver for the Navier-Stokes equations.
//!
//! Dominant structure: the parallel loops SPEC OMP marks in applu — the
//! right-hand-side / Jacobi-style sweeps that read a 5-point neighbourhood
//! of the *old* grid and write the new one. Each sweep is fully parallel
//! (the dependence-carrying SSOR wavefronts are not the loops the suite
//! parallelizes); sharing is spatial: iterations of adjacent rows touch the
//! same grid blocks.

use ctam_loopir::{ArrayRef, LoopNest, Program};
use ctam_poly::IntegerSet;

use super::shift2;
use crate::registry::Workload;
use crate::SizeClass;

/// Builds the kernel.
pub fn build(size: SizeClass) -> Workload {
    let n = 64 * size.scale();
    let mut p = Program::new("applu");
    let u = p.add_array("U", &[n, n], 8);
    let unew = p.add_array("Unew", &[n, n], 8);
    let rhs = p.add_array("RHS", &[n, n], 8);
    let hi = n as i64 - 2;
    let domain = IntegerSet::builder(2)
        .names(["i", "j"])
        .bounds(0, 1, hi)
        .bounds(1, 1, hi)
        .build();
    p.add_nest(
        LoopNest::new("rhs_sweep", domain)
            .with_ref(ArrayRef::write(unew, shift2(0, 0)))
            .with_ref(ArrayRef::read(u, shift2(-1, 0)))
            .with_ref(ArrayRef::read(u, shift2(1, 0)))
            .with_ref(ArrayRef::read(u, shift2(0, -1)))
            .with_ref(ArrayRef::read(u, shift2(0, 1)))
            .with_ref(ArrayRef::read(rhs, shift2(0, 0))),
    );
    Workload {
        name: "applu",
        suite: "SpecOMP",
        parallel: true,
        description: "SSOR CFD solver: parallel 5-point stencil sweeps over a 2-D grid",
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
        // 5-point stencil + rhs = 6 refs.
        let (_, nest) = w.program.nests().next().unwrap();
        assert_eq!(nest.refs().len(), 6);
        assert_eq!(nest.n_iterations(), 62 * 62);
    }

    #[test]
    fn sizes_scale() {
        check_sizes(build);
    }

    #[test]
    fn sweep_is_fully_parallel() {
        // Reads come from U, writes go to Unew: no loop-carried dependence,
        // matching the loops SPEC OMP actually parallelizes.
        let w = build(SizeClass::Test);
        let (id, _) = w.program.nests().next().unwrap();
        let info = ctam_loopir::dependence::analyze_nest(&w.program, id).info;
        assert!(info.is_fully_parallel());
    }
}
