//! `galgel` (SPEC OMP): fluid-dynamics analysis of oscillatory instability
//! — the paper's running motivation example (Figure 2).
//!
//! Dominant structure: dense Galerkin-method linear algebra over spectral
//! modes. Oscillatory-instability analysis couples each mode with its
//! counter-propagating partner, so the row-`i` update also reads the data
//! of mode `n−1−i` — iterations far apart in the loop share rows. A
//! contiguous (Base) distribution replicates every coupled row pair across
//! two distant caches; a topology-aware one co-locates the pair.

use ctam_loopir::{ArrayRef, LoopNest, Program};
use ctam_poly::{AffineExpr, AffineMap, IntegerSet};

use super::shift2;
use crate::registry::Workload;
use crate::SizeClass;

/// Builds the kernel.
pub fn build(size: SizeClass) -> Workload {
    let n = 48 * size.scale();
    let mut p = Program::new("galgel");
    let a = p.add_array("A", &[n, n], 8);
    let b = p.add_array("B", &[n, n], 8);
    let c = p.add_array("C", &[n, n], 8);
    // Per-mode reduction slots are padded to a cache line, as parallel
    // reductions must be.
    let w = p.add_array("W", &[n], 64);
    let hi = n as i64 - 1;

    // (i, j) -> (n-1-i, j): the counter-propagating mode's row.
    let mirrored = AffineMap::new(
        2,
        vec![
            AffineExpr::constant(2, hi) - AffineExpr::var(2, 0),
            AffineExpr::var(2, 1),
        ],
    );

    // Nest 1: C[i][j] = A[i][j] * B[i][j] + A[n-1-i][j] * B[n-1-i][j].
    let d1 = IntegerSet::builder(2)
        .names(["i", "j"])
        .bounds(0, 0, hi)
        .bounds(1, 0, hi)
        .build();
    p.add_nest(
        LoopNest::new("galerkin_product", d1)
            .with_ref(ArrayRef::write(c, shift2(0, 0)))
            .with_ref(ArrayRef::read(a, shift2(0, 0)))
            .with_ref(ArrayRef::read(b, shift2(0, 0)))
            .with_ref(ArrayRef::read(a, mirrored.clone()))
            .with_ref(ArrayRef::read(b, mirrored.clone())),
    );

    // Nest 2: W[i] += C[i][j] * C[n-1-i][j] — the mode-pair reduction.
    let d2 = IntegerSet::builder(2)
        .names(["i", "j"])
        .bounds(0, 0, hi)
        .bounds(1, 0, hi)
        .build();
    let row_of_i = AffineMap::new(2, vec![AffineExpr::var(2, 0)]);
    p.add_nest(
        LoopNest::new("mode_reduce", d2)
            .with_ref(ArrayRef::write(w, row_of_i.clone()))
            .with_ref(ArrayRef::read(w, row_of_i))
            .with_ref(ArrayRef::read(c, shift2(0, 0)))
            .with_ref(ArrayRef::read(c, mirrored)),
    );

    Workload {
        name: "galgel",
        suite: "SpecOMP",
        parallel: true,
        description: "Galerkin fluid dynamics: counter-propagating mode pairs share rows",
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
        assert_eq!(w.program.nests().count(), 2);
    }

    #[test]
    fn sizes_scale() {
        check_sizes(build);
    }

    #[test]
    fn mirrored_operand_reads_partner_mode() {
        let w = build(SizeClass::Test);
        let (id, _) = w.program.nests().next().unwrap();
        // Iteration (2, 5) must also read A[45][5] (n = 48).
        let acc = w.program.nest_accesses(id, &[2, 5]).nth(3).unwrap();
        let n = 48u64;
        assert_eq!(acc.element, 45 * n + 5);
        // Rows i and n-1-i access the same elements (mode-pair symmetry).
        let a1: std::collections::BTreeSet<u64> = w
            .program
            .nest_accesses(id, &[2, 5])
            .filter(|x| x.array.index() == 0)
            .map(|x| x.element)
            .collect();
        let a2: std::collections::BTreeSet<u64> = w
            .program
            .nest_accesses(id, &[45, 5])
            .filter(|x| x.array.index() == 0)
            .map(|x| x.element)
            .collect();
        assert_eq!(a1, a2);
    }
}
