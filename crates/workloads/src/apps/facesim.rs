//! `facesim` (PARSEC): physics-based face simulation.
//!
//! Dominant structure: finite-element force computation over an
//! unstructured tetrahedral mesh — each element gathers its nodes'
//! positions and scatters forces back. Parallel assembly orders elements by
//! *graph color* (same-color elements share no nodes and can run
//! conflict-free), so consecutive iterations are spread across the mesh,
//! and iterations one color-block apart work on the same mesh region.

use std::sync::Arc;

use ctam_loopir::{AccessKind, ArrayRef, LoopNest, Program};
use ctam_poly::IntegerSet;

use super::{gather1, id1};
use crate::registry::Workload;
use crate::util::{banded_table_around, rng_for};
use crate::SizeClass;

/// Nodes per element.
const K: usize = 4;

/// Colors of the multicolor assembly ordering.
const COLORS: u64 = 8;

/// Builds the kernel.
pub fn build(size: SizeClass) -> Workload {
    let elements = 2560 * size.scale();
    let nodes = 2048 * size.scale();
    let mut p = Program::new("facesim");
    // Node state = position + velocity (32B); per-element output is a
    // strain/force record (64B); stiffness is one scalar per element.
    let pos = p.add_array("node_pos", &[nodes], 32);
    let force = p.add_array("elem_force", &[elements], 64);
    // Per-element stiffness data is a dense 3x3-block row (72B -> one line).
    let stiffness = p.add_array("stiffness", &[elements], 64);

    let mut rng = rng_for("facesim");
    // Multicolor ordering: iteration e of color block c = e / (n/COLORS)
    // works on physical element (e mod n/COLORS) * COLORS + c, i.e. the
    // mesh is swept COLORS times, each sweep striding across the whole
    // geometry. Node gathers go to the *physical* element's neighbourhood.
    let per_color = elements / COLORS;
    let centers: Vec<u64> = (0..elements)
        .map(|e| {
            let color = e / per_color;
            let rank = e % per_color;
            let phys = rank * COLORS + color;
            phys * nodes / elements
        })
        .collect();
    let table: Arc<[u64]> = banded_table_around(&centers, K, 48, nodes, &mut rng).into();

    let domain = IntegerSet::builder(1)
        .names(["element"])
        .bounds(0, 0, elements as i64 - 1)
        .build();
    let mut nest = LoopNest::new("fem_forces", domain)
        .with_ref(ArrayRef::read(stiffness, id1()))
        .with_ref(ArrayRef::write(force, id1()));
    for k in 0..K {
        nest = nest.with_ref(ArrayRef::new(pos, gather1(K, k, &table), AccessKind::Read));
    }
    p.add_nest(nest);

    Workload {
        name: "facesim",
        suite: "Parsec",
        parallel: true,
        description: "FEM face simulation: per-element node gathers over a banded mesh",
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
        assert_eq!(nest.refs().len(), 2 + K);
    }

    #[test]
    fn sizes_scale() {
        check_sizes(build);
    }

    #[test]
    fn gathers_in_node_range() {
        let w = build(SizeClass::Test);
        let (id, nest) = w.program.nests().next().unwrap();
        let last = nest.n_iterations() as i64 - 1;
        for acc in w.program.nest_accesses(id, &[last]) {
            if acc.array.index() == 0 {
                assert!(acc.element < 2048);
            }
        }
    }

    #[test]
    fn color_blocks_revisit_regions() {
        // Iterations e and e + per_color touch adjacent physical elements.
        let w = build(SizeClass::Test);
        let (id, _) = w.program.nests().next().unwrap();
        let per_color = (2560 / COLORS) as i64;
        let node_of = |i: i64| -> i64 {
            w.program
                .nest_accesses(id, &[i])
                .find(|a| a.array.index() == 0)
                .map(|a| a.element as i64)
                .unwrap()
        };
        let a = node_of(10);
        let b = node_of(10 + per_color);
        assert!(
            (a - b).abs() <= 2 * 48 + 8,
            "expected nearby gathers: {a} vs {b}"
        );
    }
}
