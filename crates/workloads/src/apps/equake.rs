//! `equake` (SPEC OMP): earthquake ground-motion simulation.
//!
//! Dominant structure: an unstructured sparse matrix–vector product — each
//! row gathers a handful of vector entries through a column-index array.
//! The sparsity is banded (finite-element meshes number neighbouring nodes
//! closely), so nearby rows share vector blocks.

use std::sync::Arc;

use ctam_loopir::{AccessKind, ArrayRef, LoopNest, Program};
use ctam_poly::IntegerSet;

use super::{gather1, id1, strided1};
use crate::registry::Workload;
use crate::util::{banded_table, rng_for};
use crate::SizeClass;

/// Nonzeros per row.
const K: usize = 6;

/// Builds the kernel.
pub fn build(size: SizeClass) -> Workload {
    let rows = 2048 * size.scale();
    let mut p = Program::new("equake");
    let vals = p.add_array("K_vals", &[rows * K as u64], 8);
    let x = p.add_array("disp", &[rows], 8);
    let y = p.add_array("force", &[rows], 8);

    let mut rng = rng_for("equake");
    let cols: Arc<[u64]> = banded_table(rows, K, 96, &mut rng).into();

    let domain = IntegerSet::builder(1)
        .names(["row"])
        .bounds(0, 0, rows as i64 - 1)
        .build();
    let mut nest = LoopNest::new("spmv", domain).with_ref(ArrayRef::write(y, id1()));
    for k in 0..K {
        nest = nest
            .with_ref(ArrayRef::read(vals, strided1(K as i64, k as i64)))
            .with_ref(ArrayRef::new(x, gather1(K, k, &cols), AccessKind::Read));
    }
    p.add_nest(nest);

    Workload {
        name: "equake",
        suite: "SpecOMP",
        parallel: true,
        description: "seismic FEM: banded sparse matrix-vector product",
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
        let (_, nest) = w.program.nests().next().unwrap();
        assert_eq!(nest.refs().len(), 1 + 2 * K);
    }

    #[test]
    fn sizes_scale() {
        check_sizes(build);
    }

    #[test]
    fn gathers_stay_banded() {
        let w = build(SizeClass::Test);
        let (id, nest) = w.program.nests().next().unwrap();
        let rows = nest.n_iterations() as i64;
        for &row in &[0i64, rows / 2, rows - 1] {
            for acc in w.program.nest_accesses(id, &[row]) {
                if acc.array.index() == 1 {
                    // disp gathers stay within the band.
                    assert!((acc.element as i64 - row).abs() <= 96);
                }
            }
        }
    }

    #[test]
    fn deterministic() {
        let a = build(SizeClass::Test);
        let b = build(SizeClass::Test);
        let (ia, _) = a.program.nests().next().unwrap();
        let (ib, _) = b.program.nests().next().unwrap();
        assert_eq!(
            a.program.nest_accesses(ia, &[17]).collect::<Vec<_>>(),
            b.program.nest_accesses(ib, &[17]).collect::<Vec<_>>()
        );
    }
}
