//! TreeMatch-style topology matching (Jeannot & Mercier, see PAPERS.md and
//! SNIPPETS.md Snippet 3).
//!
//! TreeMatch maps communicating processes onto a hierarchical topology by
//! recursively partitioning a process×process communication matrix over
//! the topology tree, keeping heavy communicators under the deepest shared
//! ancestor. The arena port treats iteration groups as the processes and
//! **block sharing** as the communication volume: `comm[i][j]` counts the
//! data blocks groups `i` and `j` both touch (the dot product of their
//! block tags — the same affinity the CTAM clusterer maximizes, consumed
//! here by a different algorithm). Where CTAM distributes top-down with
//! load-balancing repair (Figure 6), TreeMatch greedily packs each tree
//! node's partition to maximize retained sharing under a per-subtree
//! capacity — a genuinely different search over the same objective, which
//! is what makes it a useful arena contender.

use ctam_topology::{Machine, NodeId};

use crate::baselines::chunk_ranges;
use crate::cluster::{split_for_balance, Assignment};
use crate::group::IterationGroup;
use crate::pipeline::PipelineError;
use crate::schedule::{schedule_dependence_only, Schedule};

use super::{MappingContext, MappingStrategy};

/// Communication matrices are dense O(n²); coarsen the group set to at most
/// this many objects before building one (TreeMatch itself aggregates
/// oversized instances the same way).
const MAX_OBJECTS: usize = 512;

/// TreeMatch-style mapper: block-sharing matrix, recursively matched onto
/// the machine tree.
pub struct TreeMatch;

impl MappingStrategy for TreeMatch {
    fn map(&self, cx: &mut MappingContext<'_>) -> Result<(Schedule, usize), PipelineError> {
        // TreeMatch assigns whole objects; split oversized groups first so
        // a balanced matching exists (the same preparation the exact
        // mapper applies — at coarse block sizes a handful of huge groups
        // would otherwise doom any whole-object placement to imbalance),
        // then coarsen to keep the dense matrix tractable.
        let groups = split_for_balance(
            cx.condensed_groups(),
            cx.n_cores(),
            cx.params.balance_threshold,
        );
        let groups = coarsen(groups, MAX_OBJECTS);
        let comm = sharing_matrix(&groups);
        let mut placed: Vec<Vec<usize>> = vec![Vec::new(); cx.n_cores()];
        match_tree(
            cx.machine,
            NodeId::ROOT,
            (0..groups.len()).collect(),
            &groups,
            &comm,
            cx.params.balance_threshold,
            &mut placed,
        );
        let per_core: Vec<Vec<IterationGroup>> = placed
            .into_iter()
            .map(|objs| objs.into_iter().map(|o| groups[o].clone()).collect())
            .collect();
        let a = Assignment::from_per_core(per_core);
        let (a, graph) = cx.acyclic(a);
        let n = a.per_core().iter().map(Vec::len).sum();
        Ok((schedule_dependence_only(a, &graph)?, n))
    }
}

/// Merges groups (in ascending first-iteration order) into at most `cap`
/// contiguous super-groups, OR-ing tags and concatenating iterations.
fn coarsen(mut groups: Vec<IterationGroup>, cap: usize) -> Vec<IterationGroup> {
    if groups.len() <= cap {
        return groups;
    }
    groups.sort_by_key(IterationGroup::first);
    chunk_ranges(groups.len(), cap)
        .into_iter()
        .filter(|r| !r.is_empty())
        .map(|r| {
            let mut tag = groups[r.start].tag().clone();
            let mut iters = Vec::new();
            for g in &groups[r] {
                tag.or_assign(g.tag());
                iters.extend_from_slice(g.iterations());
            }
            IterationGroup::new(tag, iters)
        })
        .collect()
}

/// The symmetric group×group sharing matrix: `m[i][j]` = number of data
/// blocks touched by both groups (zero diagonal).
fn sharing_matrix(groups: &[IterationGroup]) -> Vec<Vec<u64>> {
    let n = groups.len();
    let mut m = vec![vec![0u64; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let w = u64::from(groups[i].tag().dot(groups[j].tag()));
            m[i][j] = w;
            m[j][i] = w;
        }
    }
    m
}

/// Recursively partitions `objs` over the subtree at `node`: at each
/// multi-child level, objects go heaviest-first to the child part whose
/// already-placed objects they share the most blocks with, subject to a
/// per-child iteration capacity proportional to its core count (slackened
/// by the balance threshold, mirroring Figure 6's tolerance). A single
/// core's objects are run in ascending group order (program-order-ish).
fn match_tree(
    machine: &Machine,
    node: NodeId,
    objs: Vec<usize>,
    groups: &[IterationGroup],
    comm: &[Vec<u64>],
    threshold: f64,
    placed: &mut Vec<Vec<usize>>,
) {
    let cores = machine.cores_under(node);
    debug_assert!(!cores.is_empty(), "every subtree holds a core");
    if cores.len() == 1 {
        let mut objs = objs;
        objs.sort_unstable();
        placed[cores[0].index()] = objs;
        return;
    }
    let children: Vec<NodeId> = machine
        .children(node)
        .iter()
        .copied()
        .filter(|&c| !machine.cores_under(c).is_empty())
        .collect();
    if children.len() == 1 {
        // Chain node (e.g. a private cache level): nothing to partition.
        return match_tree(machine, children[0], objs, groups, comm, threshold, placed);
    }
    let child_cores: Vec<usize> = children
        .iter()
        .map(|&c| machine.cores_under(c).len())
        .collect();
    let total_cores: usize = child_cores.iter().sum();
    let total_w: u64 = objs.iter().map(|&o| groups[o].size() as u64).sum();
    let caps: Vec<u64> = child_cores
        .iter()
        .map(|&k| {
            let share = total_w as f64 * k as f64 / total_cores as f64;
            // Exact proportional share (rounded up so capacities always
            // cover the load), plus the balance slack only when it grants
            // at least a whole extra iteration — `ceil` on the slackened
            // share would let a tiny subtree absorb a full extra group.
            (share.ceil() as u64).max((share * (1.0 + threshold)).floor() as u64)
        })
        .collect();
    let mut order = objs;
    order.sort_unstable_by(|&a, &b| groups[b].size().cmp(&groups[a].size()).then(a.cmp(&b)));
    let mut parts: Vec<Vec<usize>> = vec![Vec::new(); children.len()];
    let mut loads: Vec<u64> = vec![0; children.len()];
    for o in order {
        let w = groups[o].size() as u64;
        // Best in-capacity part by retained sharing; ties to the lighter,
        // then earlier, part.
        let mut best: Option<(usize, u64)> = None;
        for (k, part) in parts.iter().enumerate() {
            if loads[k] + w > caps[k] {
                continue;
            }
            let gain: u64 = part.iter().map(|&q| comm[o][q]).sum();
            let better = match best {
                None => true,
                Some((bk, bg)) => gain > bg || (gain == bg && loads[k] < loads[bk]),
            };
            if better {
                best = Some((k, gain));
            }
        }
        let k = match best {
            Some((k, _)) => k,
            // Nothing has slack (threshold rounding): least relative load.
            None => (0..children.len())
                .min_by(|&a, &b| {
                    let ra = (loads[a] + w) as f64 / child_cores[a] as f64;
                    let rb = (loads[b] + w) as f64 / child_cores[b] as f64;
                    ra.partial_cmp(&rb).expect("finite loads").then(a.cmp(&b))
                })
                .expect("at least one child"),
        };
        parts[k].push(o);
        loads[k] += w;
    }
    for (k, part) in parts.into_iter().enumerate() {
        match_tree(machine, children[k], part, groups, comm, threshold, placed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::BlockMap;
    use crate::pipeline::{evaluate, CtamParams, Strategy};
    use crate::space::IterationSpace;
    use crate::tag::Tag;
    use ctam_loopir::{ArrayRef, LoopNest, Program};
    use ctam_poly::{AffineExpr, AffineMap, IntegerSet};
    use ctam_topology::catalog;

    fn g(tag_bits: &[usize], iters: Vec<u32>, n_bits: usize) -> IterationGroup {
        IterationGroup::new(Tag::from_bits(n_bits, tag_bits.iter().copied()), iters)
    }

    #[test]
    fn sharing_matrix_is_symmetric_with_zero_diagonal() {
        let groups = vec![
            g(&[0, 1], vec![0], 4),
            g(&[1, 2], vec![1], 4),
            g(&[3], vec![2], 4),
        ];
        let m = sharing_matrix(&groups);
        assert_eq!(m[0][1], 1);
        assert_eq!(m[1][0], 1);
        assert_eq!(m[0][2], 0);
        for (i, row) in m.iter().enumerate() {
            assert_eq!(row[i], 0);
        }
    }

    #[test]
    fn coarsen_caps_and_preserves_iterations() {
        let groups: Vec<IterationGroup> =
            (0..10u32).map(|i| g(&[i as usize], vec![i], 16)).collect();
        let coarse = coarsen(groups, 4);
        assert_eq!(coarse.len(), 4);
        let mut all: Vec<u32> = coarse
            .iter()
            .flat_map(|g| g.iterations().to_vec())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..10u32).collect::<Vec<_>>());
        // Merged tags are the union of the members'.
        assert_eq!(coarse[0].tag().popcount(), coarse[0].size() as u32);
    }

    #[test]
    fn heavy_sharers_land_under_the_same_l2() {
        // Eight unit-weight groups on harpertown (4 L2s of 2 cores), four
        // disjoint sharing pairs (0,1), (2,3), (4,5), (6,7). A balanced
        // mapping puts one group per core; keeping the sharing retained
        // means each pair occupies one L2.
        let m = catalog::harpertown();
        let groups: Vec<IterationGroup> = (0..8u32)
            .map(|i| {
                let pair = (i / 2) as usize;
                g(&[3 * pair, 3 * pair + 1, 3 * pair + 2], vec![i], 16)
            })
            .collect();
        let comm = sharing_matrix(&groups);
        let mut placed = vec![Vec::new(); m.n_cores()];
        match_tree(
            &m,
            NodeId::ROOT,
            (0..8).collect(),
            &groups,
            &comm,
            0.10,
            &mut placed,
        );
        // Balanced: exactly one group per core.
        assert!(placed.iter().all(|p| p.len() == 1), "one group per core");
        let core_of = |o: usize| placed.iter().position(|p| p.contains(&o)).unwrap();
        let l2_of = |c: usize| {
            m.shared_domains(2)
                .iter()
                .position(|(_, cores)| cores.iter().any(|k| k.index() == c))
                .unwrap()
        };
        for pair in 0..4 {
            assert_eq!(
                l2_of(core_of(2 * pair)),
                l2_of(core_of(2 * pair + 1)),
                "sharing pair {pair} split across L2s"
            );
        }
    }

    #[test]
    fn treematch_runs_every_iteration_and_beats_base_on_aliased_halves() {
        // The sharing-heavy kernel of the pipeline tests: iterations i and
        // i + n/2 read the same row, punishing contiguous distribution.
        let n: u64 = 64;
        let mut p = Program::new("pairs");
        let a = p.add_array("A", &[n / 2, 64], 8);
        let d = IntegerSet::builder(1).bounds(0, 0, n as i64 - 1).build();
        let mut nest = LoopNest::new("alias", d);
        for col in 0..24 {
            let table: Vec<u64> = (0..n).map(|i| (i % (n / 2)) * 64 + col).collect();
            nest = nest.with_ref(ArrayRef::new(
                a,
                ctam_loopir::Subscript::Indirect {
                    selector: AffineExpr::var(1, 0),
                    table: table.into(),
                },
                ctam_loopir::AccessKind::Read,
            ));
        }
        p.add_nest(nest);
        let m = catalog::dunnington();
        let params = CtamParams {
            block_bytes: Some(512),
            ..CtamParams::default()
        };
        let base = evaluate(&p, &m, Strategy::Base, &params).unwrap();
        let tm = evaluate(&p, &m, Strategy::TreeMatch, &params).unwrap();
        assert_eq!(tm.report.n_accesses(), base.report.n_accesses());
        assert!(
            tm.cycles() <= base.cycles(),
            "TreeMatch ({}) should not lose to Base ({}) on a sharing-heavy kernel",
            tm.cycles(),
            base.cycles()
        );
    }

    #[test]
    fn oversized_group_sets_are_coarsened_not_dropped() {
        let mut p = Program::new("wide");
        let a = p.add_array("A", &[4096], 8);
        let d = IntegerSet::builder(1).bounds(0, 0, 4095).build();
        let id =
            p.add_nest(LoopNest::new("n", d).with_ref(ArrayRef::read(a, AffineMap::identity(1))));
        let space = IterationSpace::build(&p, id);
        let blocks = BlockMap::new(&p, 64); // 512 blocks -> up to 512 groups
        let groups: Vec<IterationGroup> = (0..space.n_units() as u32)
            .map(|u| IterationGroup::new(space.unit_tag(u as usize, &blocks), vec![u]))
            .collect();
        let coarse = coarsen(groups, MAX_OBJECTS);
        assert!(coarse.len() <= MAX_OBJECTS);
        assert_eq!(coarse.iter().map(IterationGroup::size).sum::<usize>(), 4096);
    }
}
