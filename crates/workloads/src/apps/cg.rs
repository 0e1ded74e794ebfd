//! `cg` (NAS Parallel Benchmarks): conjugate gradient.
//!
//! Dominant structure: a sparse matrix–vector product plus the
//! dot-product/AXPY vector sweeps of the CG iteration. The matrix rows are
//! visited in *red-black* order — the standard multicolor reordering
//! parallel CG applies to eliminate update conflicts — so consecutive
//! iterations touch alternating halves of the physical grid, while
//! iterations half the loop apart touch *adjacent* grid points and share
//! vector blocks. Contiguous distribution splits those sharers across
//! sockets.

use std::sync::Arc;

use ctam_loopir::{AccessKind, ArrayRef, LoopNest, Program};
use ctam_poly::IntegerSet;

use super::{gather1, id1, strided1};
use crate::registry::Workload;
use crate::util::{banded_table_around, rng_for};
use crate::SizeClass;

/// Nonzeros per row.
const K: usize = 5;

/// Physical grid point of iteration `i` under red-black ordering: the first
/// half of the loop visits even points, the second half odd points.
fn red_black_center(i: u64, n: u64) -> u64 {
    if i < n / 2 {
        2 * i
    } else {
        2 * (i - n / 2) + 1
    }
}

/// Builds the kernel.
pub fn build(size: SizeClass) -> Workload {
    let n = 1536 * size.scale();
    let mut p = Program::new("cg");
    let vals = p.add_array("A_vals", &[n * K as u64], 8);
    let pvec = p.add_array("p", &[n], 8);
    let q = p.add_array("q", &[n], 8);
    let r = p.add_array("r", &[n], 8);
    let z = p.add_array("z", &[n], 8);

    // Gathers go to the spatial neighbourhood of the row's *physical* grid
    // point, which red-black ordering decouples from the iteration number.
    let mut rng = rng_for("cg");
    let centers: Vec<u64> = (0..n).map(|i| red_black_center(i, n)).collect();
    let cols: Arc<[u64]> = banded_table_around(&centers, K, 96, n, &mut rng).into();

    let d = |name: &str| {
        IntegerSet::builder(1)
            .names([name])
            .bounds(0, 0, n as i64 - 1)
            .build()
    };

    // q = A * p — results land at the *physical* grid point, so red/black
    // partners write adjacent elements.
    let phys: Arc<[u64]> = centers.clone().into();
    let mut spmv = LoopNest::new("spmv", d("row")).with_ref(ArrayRef::new(
        q,
        gather1(1, 0, &phys),
        AccessKind::Write,
    ));
    for k in 0..K {
        spmv = spmv
            .with_ref(ArrayRef::read(vals, strided1(K as i64, k as i64)))
            .with_ref(ArrayRef::new(pvec, gather1(K, k, &cols), AccessKind::Read));
    }
    p.add_nest(spmv);

    // rho = r . z ; p = z + beta*p (vector sweeps fused)
    p.add_nest(
        LoopNest::new("vector_ops", d("i"))
            .with_ref(ArrayRef::read(r, id1()))
            .with_ref(ArrayRef::read(z, id1()))
            .with_ref(ArrayRef::write(pvec, id1()))
            .with_ref(ArrayRef::read(pvec, id1())),
    );

    Workload {
        name: "cg",
        suite: "NAS",
        parallel: true,
        description: "conjugate gradient: random-sparse SpMV + vector sweeps",
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
    fn both_nests_cover_all_rows() {
        let w = build(SizeClass::Test);
        for (_, nest) in w.program.nests() {
            assert_eq!(nest.n_iterations(), 1536);
        }
    }

    #[test]
    fn red_black_pairs_share_neighbourhoods() {
        // Iterations i and i + n/2 sit on adjacent physical grid points.
        let n = 1536u64;
        assert_eq!(red_black_center(10, n), 20);
        assert_eq!(red_black_center(10 + n / 2, n), 21);
        let w = build(SizeClass::Test);
        let (id, _) = w.program.nests().next().unwrap();
        let gathers = |i: i64| -> Vec<i64> {
            w.program
                .nest_accesses(id, &[i])
                .filter(|a| a.array.index() == 1)
                .map(|a| a.element as i64)
                .collect()
        };
        let near = gathers(100);
        let partner = gathers(100 + (n / 2) as i64);
        // Both gather within one band of physical point ~200.
        assert!(near.iter().all(|&e| (e - 200).abs() <= 96));
        assert!(partner.iter().all(|&e| (e - 201).abs() <= 96));
    }
}
