//! `namd` (SPEC 2006, sequential): molecular dynamics.
//!
//! Dominant structure: pairwise force evaluation over neighbour lists —
//! each atom reads its own position plus the positions of nearby atoms and
//! accumulates force. The atom list alternates between the two halves of
//! the simulation box (solvent/solute interleaving as NAMD's patch lists
//! produce), so spatial neighbours are two iterations apart and each
//! contiguous chunk of the loop spans both halves. Sequential in SPEC; the
//! paper's parallelism-extraction step finds the outer atom loop parallel.

use std::sync::Arc;

use ctam_loopir::{AccessKind, ArrayRef, LoopNest, Program};
use ctam_poly::IntegerSet;

use super::{gather1, id1};
use crate::registry::Workload;
use crate::util::{banded_table_around, rng_for};
use crate::SizeClass;

/// Neighbours per atom.
const K: usize = 8;

/// Builds the kernel.
pub fn build(size: SizeClass) -> Workload {
    let atoms = 3072 * size.scale();
    let mut p = Program::new("namd");
    // Position = x/y/z/charge (32B); force accumulator = force + virial +
    // padding (one line, 64B), as NAMD pads to avoid false sharing.
    let pos = p.add_array("positions", &[atoms], 32);
    let force = p.add_array("forces", &[atoms], 64);

    let mut rng = rng_for("namd");
    // Even iterations walk the first half of the box, odd ones the second:
    // spatial neighbours sit at iteration distance two.
    let centers: Vec<u64> = (0..atoms)
        .map(|i| (i / 2) + (i % 2) * (atoms / 2))
        .collect();
    let table: Arc<[u64]> = banded_table_around(&centers, K, 64, atoms, &mut rng).into();

    let domain = IntegerSet::builder(1)
        .names(["atom"])
        .bounds(0, 0, atoms as i64 - 1)
        .build();
    let mut nest = LoopNest::new("nonbonded", domain)
        .with_ref(ArrayRef::read(pos, id1()))
        .with_ref(ArrayRef::write(force, id1()));
    for k in 0..K {
        nest = nest.with_ref(ArrayRef::new(pos, gather1(K, k, &table), AccessKind::Read));
    }
    p.add_nest(nest);

    Workload {
        name: "namd",
        suite: "Spec2006",
        parallel: false,
        description: "molecular dynamics: banded neighbour-list force gathers",
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
        assert!(!w.parallel, "namd enters as a sequential benchmark");
    }

    #[test]
    fn sizes_scale() {
        check_sizes(build);
    }

    #[test]
    fn force_loop_is_extractably_parallel() {
        // Writes go to force[atom] only: no loop-carried dependence, so the
        // parallelism-extraction step may distribute the atom loop.
        let w = build(SizeClass::Test);
        let (id, _) = w.program.nests().next().unwrap();
        let info = ctam_loopir::dependence::analyze_nest(&w.program, id).info;
        assert!(info.is_fully_parallel());
    }
}
