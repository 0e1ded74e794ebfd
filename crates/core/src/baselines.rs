//! The comparison points of the evaluation (Section 4.1).
//!
//! * **Base** — the original parallel code: iterations in program order,
//!   split into contiguous per-core chunks (what `#pragma omp parallel for`
//!   static scheduling does). No reordering.
//! * **Base+** — the state-of-the-art conventional locality optimizer: the
//!   same per-core chunks, but each core executes its iterations in *tiled*
//!   (blocked) order with a tile chosen to fit L1 — "loop permutation and
//!   iteration space tiling" applied per core. The iteration-to-core
//!   assignment is identical to Base by construction, as the paper requires.
//! * **Local** — the local reorganization of Section 3.5.3 applied on top of
//!   the *default* distribution: per-core chunks are re-grouped by tag and
//!   scheduled with the Figure 7 scheduler, without topology-aware
//!   distribution (the `Local` bars of Figure 15).

use ctam_topology::Machine;

use crate::blocks::BlockMap;
use crate::cluster::Assignment;
use crate::group::{group_iterations, IterationGroup};
use crate::metrics::l1_capacity;
use crate::space::IterationSpace;
use crate::tag::Tag;

/// Splits `0..n` into `k` contiguous ranges whose sizes differ by at most 1
/// (the first `n % k` ranges get the extra element).
pub fn chunk_ranges(n: usize, k: usize) -> Vec<std::ops::Range<usize>> {
    assert!(k > 0, "need at least one chunk");
    let base = n / k;
    let extra = n % k;
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for c in 0..k {
        let len = base + usize::from(c < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// OR of the tags of a set of mapping units.
pub(crate) fn union_tag(space: &IterationSpace, blocks: &BlockMap, units: &[u32]) -> Tag {
    let mut t = Tag::empty(blocks.n_blocks());
    for &u in units {
        t.or_assign(&space.unit_tag(u as usize, blocks));
    }
    t
}

/// The `Base` mapping: contiguous chunks of the program-order unit
/// sequence, one single-group chunk per core, original order within — what
/// a static OpenMP schedule of the parallelized loop produces.
pub fn base_assignment(space: &IterationSpace, blocks: &BlockMap, n_cores: usize) -> Assignment {
    let per_core = chunk_ranges(space.n_units(), n_cores)
        .into_iter()
        .map(|r| {
            if r.is_empty() {
                return Vec::new();
            }
            let iters: Vec<u32> = (r.start as u32..r.end as u32).collect();
            let tag = union_tag(space, blocks, &iters);
            vec![IterationGroup::new(tag, iters)]
        })
        .collect();
    Assignment::from_per_core(per_core)
}

/// Per-dimension tile side for `Base+`: the largest `t` with
/// `t^depth × refs × 8B` within half the L1 capacity, clamped to `[2, 64]`.
fn tile_side(machine: &Machine, depth: usize, refs_per_iter: usize) -> i64 {
    let budget = (l1_capacity(machine) / 2) as f64 / (refs_per_iter.max(1) * 8) as f64;
    let t = budget.powf(1.0 / depth.max(1) as f64).floor() as i64;
    t.clamp(2, 64)
}

/// The `Base+` mapping: the exact Base chunks, with each core's iterations
/// reordered for intra-core locality by the stronger of the two
/// conventional reorderings:
///
/// * *iteration-space tiling* — units sorted into blocked order by their
///   index-space coordinates, with the tile side fitted to L1;
/// * *data-centric tiling* (inspector/executor reordering à la Ding &
///   Kennedy) — units sorted so that units touching the same data blocks
///   run consecutively, which is the established counterpart of tiling for
///   irregular (index-array) codes where index-space tiles mean nothing.
///
/// Both keep the iteration-to-core assignment identical to `Base`, as the
/// paper requires of `Base+`. Each chunk takes whichever order groups data
/// blocks better.
pub fn base_plus_assignment(
    space: &IterationSpace,
    blocks: &BlockMap,
    machine: &Machine,
) -> Assignment {
    let n_cores = machine.n_cores();
    let depth = space.depth();
    let refs = space.max_refs_per_iteration();
    let t = tile_side(machine, depth, refs);
    let per_core = chunk_ranges(space.n_units(), n_cores)
        .into_iter()
        .map(|r| {
            if r.is_empty() {
                return Vec::new();
            }
            let spatial: Vec<u32> = {
                let mut units: Vec<u32> = (r.start as u32..r.end as u32).collect();
                units.sort_by_key(|&u| {
                    let p = space.unit_point(u as usize);
                    let tile_key: Vec<i64> = p.iter().map(|&x| x.div_euclid(t)).collect();
                    (tile_key, p)
                });
                units
            };
            // Data-centric order: group equal-tag units, clusters of tags in
            // ascending first-block order.
            let mut data: Vec<u32> = (r.start as u32..r.end as u32).collect();
            data.sort_by_key(|&u| {
                let tag = space.unit_tag(u as usize, blocks);
                (tag, u)
            });
            // Keep whichever order strictly reduces tag switching; on regular
            // codes both degenerate to program order.
            let switches = |order: &[u32]| -> usize {
                order
                    .windows(2)
                    .filter(|w| {
                        space.unit_tag(w[0] as usize, blocks)
                            != space.unit_tag(w[1] as usize, blocks)
                    })
                    .count()
            };
            let units = if switches(&data) < switches(&spatial) {
                data
            } else {
                spatial
            };
            let tag = union_tag(space, blocks, &units);
            vec![IterationGroup::new(tag, units)]
        })
        .collect();
    Assignment::from_per_core(per_core)
}

/// The `Local` distribution: Base's contiguous chunks, but re-grouped by tag
/// within each core so that the Figure 7 scheduler ([`crate::schedule`]) can
/// reorganize them. Distribution across cores stays default; only the
/// within-core structure is data-centric.
pub fn local_assignment(space: &IterationSpace, blocks: &BlockMap, n_cores: usize) -> Assignment {
    // Group the whole space once, then cut each group by chunk ownership.
    let chunks = chunk_ranges(space.n_units(), n_cores);
    let owner_of = |i: u32| -> usize {
        chunks
            .iter()
            .position(|r| r.contains(&(i as usize)))
            .expect("chunks cover the space")
    };
    let groups = group_iterations(space, blocks);
    let mut per_core: Vec<Vec<IterationGroup>> = vec![Vec::new(); n_cores];
    for g in groups {
        let mut by_core: Vec<Vec<u32>> = vec![Vec::new(); n_cores];
        for &i in g.iterations() {
            by_core[owner_of(i)].push(i);
        }
        for (c, iters) in by_core.into_iter().enumerate() {
            if !iters.is_empty() {
                per_core[c].push(IterationGroup::new(g.tag().clone(), iters));
            }
        }
    }
    Assignment::from_per_core(per_core)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctam_loopir::{ArrayRef, LoopNest, Program};
    use ctam_poly::{AffineMap, IntegerSet};
    use ctam_topology::{CacheParams, NodeId, MB};

    fn setup() -> (Program, IterationSpace, BlockMap) {
        let mut p = Program::new("t");
        let a = p.add_array("A", &[256], 8);
        let d = IntegerSet::builder(1).bounds(0, 0, 255).build();
        let id =
            p.add_nest(LoopNest::new("n", d).with_ref(ArrayRef::read(a, AffineMap::identity(1))));
        let s = IterationSpace::build(&p, id);
        let bm = BlockMap::new(&p, 256);
        (p, s, bm)
    }

    #[test]
    fn chunk_ranges_cover_and_balance() {
        let ranges = chunk_ranges(10, 3);
        assert_eq!(ranges, vec![0..4, 4..7, 7..10]);
        assert!(chunk_ranges(2, 4).iter().filter(|r| r.is_empty()).count() == 2);
    }

    #[test]
    fn base_is_contiguous_in_program_order() {
        let (_, s, bm) = setup();
        let a = base_assignment(&s, &bm, 8);
        assert_eq!(a.total_iterations(), 256);
        for c in 0..8 {
            let g = &a.per_core()[c][0];
            assert_eq!(g.size(), 32);
            // Contiguous ascending.
            assert!(g.iterations().windows(2).all(|w| w[1] == w[0] + 1));
            assert_eq!(g.iterations()[0], c as u32 * 32);
        }
    }

    /// Harpertown's tree (8 cores, L2 per core pair) with an `l1_bytes`
    /// direct-mapped L1, so the fitted `Base+` tile side is small enough to
    /// show in a test-sized nest.
    fn small_l1_harpertown(l1_bytes: u64) -> Machine {
        let mut b = Machine::builder("small-L1", 3.2, 320);
        let l1 = CacheParams::new(l1_bytes, 1, 64, 3);
        for _ in 0..4 {
            let l2 = b.cache(NodeId::ROOT, 2, CacheParams::new(6 * MB, 24, 64, 15));
            b.core_with_l1(l2, l1);
            b.core_with_l1(l2, l1);
        }
        b.build()
    }

    #[test]
    fn base_plus_same_sets_different_order() {
        let (_, s, bm) = setup();
        // One 8-byte reference per 1-D iteration: 64B / 2 / 8B = 4.
        let m = small_l1_harpertown(64);
        assert_eq!(tile_side(&m, 1, 1), 4);
        let base = base_assignment(&s, &bm, m.n_cores());
        let plus = base_plus_assignment(&s, &bm, &m);
        for c in 0..m.n_cores() {
            let mut b: Vec<u32> = base.per_core()[c][0].iterations().to_vec();
            let mut p: Vec<u32> = plus.per_core()[c][0].iterations().to_vec();
            b.sort_unstable();
            p.sort_unstable();
            assert_eq!(b, p, "core {c} must run the same iteration set");
        }
    }

    #[test]
    fn base_plus_2d_tiles_reorder() {
        let mut prog = Program::new("t2");
        let a = prog.add_array("A", &[16, 16], 8);
        let d = IntegerSet::builder(2)
            .bounds(0, 0, 15)
            .bounds(1, 0, 15)
            .build();
        let id = prog
            .add_nest(LoopNest::new("n", d).with_ref(ArrayRef::read(a, AffineMap::identity(2))));
        let s = IterationSpace::build(&prog, id);
        let bm = BlockMap::new(&prog, 256);
        // One 8-byte reference per 2-D iteration: sqrt(256B / 2 / 8B) = 4.
        let m = small_l1_harpertown(256);
        assert_eq!(tile_side(&m, 2, 1), 4);
        let plus = base_plus_assignment(&s, &bm, &m);
        // Core 0 owns iterations 0..32 = rows 0 and 1. In tiled order with
        // t=4, the first 8 iterations are the (0,0) tile's rows 0-1 part:
        // (0,0..4) then (1,0..4).
        let order = plus.per_core()[0][0].iterations();
        let pts: Vec<&[i64]> = order.iter().map(|&i| s.point(i as usize)).collect();
        assert_eq!(pts[0], [0, 0]);
        assert_eq!(pts[4], [1, 0], "tile must drain before next column block");
    }

    #[test]
    fn local_regroups_within_chunks() {
        let (_, s, bm) = setup();
        let a = local_assignment(&s, &bm, 8);
        assert_eq!(a.total_iterations(), 256);
        // 256 iterations, 8 blocks of 32 iterations, 8 cores of 32
        // iterations: each core chunk aligns with exactly one block here.
        for c in 0..8 {
            for g in &a.per_core()[c] {
                // Every group stays within the core's chunk.
                assert!(g.iterations().iter().all(|&i| (i as usize) / 32 == c));
            }
        }
    }

    #[test]
    fn local_groups_have_homogeneous_tags() {
        let (_, s, bm) = setup();
        let a = local_assignment(&s, &bm, 3);
        for groups in a.per_core() {
            for g in groups {
                for &i in g.iterations() {
                    assert_eq!(&s.unit_tag(i as usize, &bm), g.tag());
                }
            }
        }
    }
}
