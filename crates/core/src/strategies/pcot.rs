//! PCOT-style cache-oblivious recursive tiling (Bondhugula et al., see
//! PAPERS.md).
//!
//! The cache-oblivious school argues a machine-independent
//! divide-and-conquer order exploits *every* level of *any* hierarchy
//! without knowing its parameters: recursively bisect the iteration space
//! along its widest dimension until tiles are tiny, and temporal reuse
//! falls out at all scales. This backend is the arena's topology-blind
//! control — it reads **no** machine parameters at all (cores aside): no
//! cache sizes, no sharing structure, no block tags. Comparing it against
//! `TopologyAware` isolates exactly what explicit topology knowledge buys
//! over asymptotically "free" locality.

use crate::baselines::{chunk_ranges, union_tag};
use crate::cluster::Assignment;
use crate::group::IterationGroup;
use crate::pipeline::PipelineError;
use crate::schedule::{schedule_dependence_only, Schedule};
use crate::space::IterationSpace;

use super::{MappingContext, MappingStrategy};

/// Stop bisecting below this many units — the base-case tile of the
/// recursion (small enough to live in any plausible L1).
const LEAF_UNITS: usize = 4;

/// Cache-oblivious recursive tiling: the space-filling recursive-bisection
/// order, cut into contiguous per-core chunks.
pub struct Pcot;

impl MappingStrategy for Pcot {
    fn map(&self, cx: &mut MappingContext<'_>) -> Result<(Schedule, usize), PipelineError> {
        let order = recursive_order(&cx.space);
        let per_core: Vec<Vec<IterationGroup>> = chunk_ranges(order.len(), cx.n_cores())
            .into_iter()
            .map(|r| {
                if r.is_empty() {
                    return Vec::new();
                }
                let units = order[r].to_vec();
                let tag = union_tag(&cx.space, &cx.blocks, &units);
                vec![IterationGroup::new(tag, units)]
            })
            .collect();
        let a = Assignment::from_per_core(per_core);
        let (a, graph) = cx.acyclic(a);
        let n = a.per_core().iter().map(Vec::len).sum();
        Ok((schedule_dependence_only(a, &graph)?, n))
    }
}

/// The recursive-bisection order of the space's mapping units: bisect the
/// bounding box along its widest dimension (sorting units by that
/// coordinate), recurse into both halves, stop at [`LEAF_UNITS`]-sized
/// tiles or degenerate boxes. Deterministic: ties in the sort fall back to
/// unit id, ties in dimension width to the lower dimension.
pub fn recursive_order(space: &IterationSpace) -> Vec<u32> {
    let mut order: Vec<u32> = (0..space.n_units() as u32).collect();
    bisect(&mut order, space);
    order
}

fn bisect(units: &mut [u32], space: &IterationSpace) {
    if units.len() <= LEAF_UNITS {
        return;
    }
    // A unit is represented by its first (lexicographically least) point.
    let rep = |u: u32| space.unit_point(u as usize);
    let dims = rep(units[0]).len();
    let mut widest = 0usize;
    let mut width = -1i64;
    for d in 0..dims {
        let mut lo = i64::MAX;
        let mut hi = i64::MIN;
        for &u in units.iter() {
            let x = rep(u)[d];
            lo = lo.min(x);
            hi = hi.max(x);
        }
        if hi - lo > width {
            width = hi - lo;
            widest = d;
        }
    }
    if width <= 0 {
        // All units at one point of the prefix space: nothing to bisect.
        return;
    }
    units.sort_unstable_by(|&a, &b| rep(a)[widest].cmp(&rep(b)[widest]).then(a.cmp(&b)));
    let mid = units.len() / 2;
    let (lo, hi) = units.split_at_mut(mid);
    bisect(lo, space);
    bisect(hi, space);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctam_loopir::{ArrayRef, LoopNest, Program};
    use ctam_poly::{AffineMap, IntegerSet};

    fn grid(n: i64) -> (Program, IterationSpace) {
        let mut p = Program::new("grid");
        let a = p.add_array("A", &[n as u64, n as u64], 8);
        let d = IntegerSet::builder(2)
            .bounds(0, 0, n - 1)
            .bounds(1, 0, n - 1)
            .build();
        let id =
            p.add_nest(LoopNest::new("n", d).with_ref(ArrayRef::read(a, AffineMap::identity(2))));
        let s = IterationSpace::build(&p, id);
        (p, s)
    }

    #[test]
    fn order_is_a_permutation() {
        let (_, s) = grid(16);
        let mut order = recursive_order(&s);
        assert_eq!(order.len(), 256);
        order.sort_unstable();
        assert!(order.iter().enumerate().all(|(i, &u)| u == i as u32));
    }

    #[test]
    fn order_is_deterministic() {
        let (_, s) = grid(12);
        assert_eq!(recursive_order(&s), recursive_order(&s));
    }

    #[test]
    fn bisection_keeps_halves_spatially_separate() {
        // On a 16×16 grid the first cut is along one dimension's midline:
        // the first half of the order stays on one side.
        let (_, s) = grid(16);
        let order = recursive_order(&s);
        let half: Vec<&[i64]> = order[..128]
            .iter()
            .map(|&u| s.unit_point(u as usize))
            .collect();
        let d = {
            // Whichever dimension the first cut used, all first-half points
            // land in its lower midline.
            let lo0 = half.iter().all(|p| p[0] < 8);
            let lo1 = half.iter().all(|p| p[1] < 8);
            assert!(lo0 || lo1, "first bisection half must be a half-space");
            usize::from(!lo0)
        };
        assert!(half.iter().all(|p| p[d] < 8));
    }

    #[test]
    fn recursive_order_tiles_better_than_row_major() {
        // Consecutive leaf-tile points should be closer on average than the
        // row-major sweep's worst case: the mean Chebyshev distance between
        // successive order entries stays small.
        let (_, s) = grid(32);
        let order = recursive_order(&s);
        let pts: Vec<&[i64]> = order.iter().map(|&u| s.unit_point(u as usize)).collect();
        let mean: f64 = pts
            .windows(2)
            .map(|w| {
                w[0].iter()
                    .zip(w[1].iter())
                    .map(|(a, b)| (a - b).abs())
                    .max()
                    .unwrap() as f64
            })
            .sum::<f64>()
            / (pts.len() - 1) as f64;
        assert!(
            mean < 4.0,
            "recursive order should stay local (mean jump {mean})"
        );
    }
}
