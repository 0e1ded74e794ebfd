//! The iteration-group dependence graph (Section 3.5.2).
//!
//! An edge `a → b` means some iteration in group `b` depends on some
//! iteration in group `a` (so `a` must be scheduled no later than the round
//! before `b`). The graph can be cyclic — iterations of `a` may depend on
//! iterations of `b` and vice versa — and the paper removes all cycles by
//! merging the involved nodes before scheduling; [`condense`] implements
//! that with Tarjan's strongly-connected-components algorithm.

use std::collections::BTreeSet;

use ctam_loopir::DependenceInfo;

use crate::group::IterationGroup;
use crate::space::IterationSpace;
use crate::tag::Tag;

/// A dependence graph over a flat list of iteration groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupDepGraph {
    /// `succs[g]`: groups that depend on `g`.
    succs: Vec<BTreeSet<usize>>,
    /// `preds[g]`: groups `g` depends on.
    preds: Vec<BTreeSet<usize>>,
}

impl GroupDepGraph {
    /// Builds the graph: for every iteration `I` of every group's units and
    /// every dependence distance `d`, if `I + d` is in the domain and lands
    /// in a different group, add an edge from `I`'s group to `I + d`'s
    /// group.
    ///
    /// Distances whose first [`IterationSpace::unit_prefix`] components are
    /// all zero are skipped up front: iterations sharing that prefix always
    /// belong to the same mapping unit, so such dependences can never cross
    /// groups. For nests dominated by intra-unit dependences (e.g. a row
    /// reduction whose carried distances all sit below the unit prefix) this
    /// turns an `O(iterations × distances)` sweep into a no-op.
    ///
    /// Each remaining distance's sinks are found by one merge over the
    /// space's points: they are in lexicographic order, and so are their
    /// translates `I + d`.
    pub fn build(groups: &[IterationGroup], space: &IterationSpace, dep: &DependenceInfo) -> Self {
        let mut owner = vec![usize::MAX; space.n_units()];
        for (gi, g) in groups.iter().enumerate() {
            for &u in g.iterations() {
                owner[u as usize] = gi;
            }
        }
        let mut succs = vec![BTreeSet::new(); groups.len()];
        let mut preds = vec![BTreeSet::new(); groups.len()];
        let prefix = space.unit_prefix();
        let n = space.n_iterations();
        let cross_unit = dep
            .distances()
            .iter()
            .filter(|d| d[..prefix.min(d.len())].iter().any(|&x| x != 0));
        for d in cross_unit {
            // sink[i]: the iteration at point(i) + d, if it is in the domain.
            let mut j = 0;
            let sink: Vec<Option<usize>> = (0..n)
                .map(|i| {
                    let target = || space.point(i).iter().zip(d).map(|(p, q)| p + q);
                    while j < n && space.point(j).iter().copied().lt(target()) {
                        j += 1;
                    }
                    (j < n && space.point(j).iter().copied().eq(target())).then_some(j)
                })
                .collect();
            for (gi, g) in groups.iter().enumerate() {
                let members = g
                    .iterations()
                    .iter()
                    .flat_map(|&u| space.unit_members(u as usize));
                for j in members.filter_map(|i| sink[i]) {
                    let gj = owner[space.unit_of(j)];
                    if gj != usize::MAX && gj != gi {
                        succs[gi].insert(gj);
                        preds[gj].insert(gi);
                    }
                }
            }
        }
        Self { succs, preds }
    }

    /// An edgeless graph over `n` groups (the fully-parallel case).
    pub fn edgeless(n: usize) -> Self {
        Self {
            succs: vec![BTreeSet::new(); n],
            preds: vec![BTreeSet::new(); n],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }

    /// True if the graph has no edges (any schedule is legal).
    pub fn is_edgeless(&self) -> bool {
        self.succs.iter().all(BTreeSet::is_empty)
    }

    /// Groups that `g` depends on.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn preds(&self, g: usize) -> &BTreeSet<usize> {
        &self.preds[g]
    }

    /// Groups that depend on `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn succs(&self, g: usize) -> &BTreeSet<usize> {
        &self.succs[g]
    }

    /// Adds an edge `src → dst` (`dst` depends on `src`). Useful for
    /// constructing dependence structure that does not come from a loop nest
    /// (e.g. inter-nest ordering, or tests).
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range or `src == dst`.
    pub fn add_edge(&mut self, src: usize, dst: usize) {
        assert!(src < self.len() && dst < self.len(), "node out of range");
        assert_ne!(src, dst, "self-dependences are not edges");
        self.succs[src].insert(dst);
        self.preds[dst].insert(src);
    }

    /// Tarjan's SCC algorithm (iterative), returning the component id of
    /// each node; components are numbered in reverse topological order.
    fn sccs(&self) -> Vec<usize> {
        let n = self.len();
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut comp = vec![usize::MAX; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut next_comp = 0usize;
        // Explicit DFS: (node, iterator position over succs).
        for root in 0..n {
            if index[root] != usize::MAX {
                continue;
            }
            let mut call: Vec<(usize, Vec<usize>, usize)> = Vec::new();
            let succs: Vec<usize> = self.succs[root].iter().copied().collect();
            index[root] = next_index;
            low[root] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root] = true;
            call.push((root, succs, 0));
            while let Some((v, vsuccs, pos)) = call.pop() {
                if pos < vsuccs.len() {
                    let w = vsuccs[pos];
                    call.push((v, vsuccs, pos + 1));
                    if index[w] == usize::MAX {
                        index[w] = next_index;
                        low[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        let wsuccs: Vec<usize> = self.succs[w].iter().copied().collect();
                        call.push((w, wsuccs, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    // Post-visit of v.
                    if let Some(&(parent, _, _)) = call.last() {
                        low[parent] = low[parent].min(low[v]);
                    }
                    if low[v] == index[v] {
                        loop {
                            let w = stack.pop().expect("tarjan stack invariant");
                            on_stack[w] = false;
                            comp[w] = next_comp;
                            if w == v {
                                break;
                            }
                        }
                        next_comp += 1;
                    }
                }
            }
        }
        comp
    }

    /// True if the graph is acyclic.
    pub fn is_acyclic(&self) -> bool {
        let comp = self.sccs();
        let n_comps = comp.iter().max().map_or(0, |&m| m + 1);
        n_comps == self.len()
    }
}

/// Condenses the dependence cycles of `graph`, built over `groups`: groups
/// in one strongly connected component are merged into a single group
/// (iterations concatenated and sorted, tags OR-ed). The merged groups have
/// an acyclic dependence graph, as the paper requires before round-based
/// scheduling.
///
/// # Panics
///
/// Panics if `graph` has a node count other than `groups.len()`.
pub fn condense(groups: Vec<IterationGroup>, graph: &GroupDepGraph) -> Vec<IterationGroup> {
    assert_eq!(graph.len(), groups.len(), "graph built over other groups");
    let comp = graph.sccs();
    let n_comps = comp.iter().max().map_or(0, |&m| m + 1);
    if n_comps == groups.len() {
        return groups;
    }
    let n_bits = groups.first().map_or(0, |g| g.tag().n_bits());
    let mut merged_iters: Vec<Vec<u32>> = vec![Vec::new(); n_comps];
    let mut merged_tags: Vec<Tag> = vec![Tag::empty(n_bits); n_comps];
    for (gi, g) in groups.into_iter().enumerate() {
        let c = comp[gi];
        merged_tags[c].or_assign(g.tag());
        merged_iters[c].extend_from_slice(g.iterations());
    }
    let mut out: Vec<IterationGroup> = merged_tags
        .into_iter()
        .zip(merged_iters)
        .map(|(tag, mut iters)| {
            iters.sort_unstable();
            IterationGroup::new(tag, iters)
        })
        .collect();
    out.sort_by_key(|g| g.iterations()[0]);
    out
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::blocks::BlockMap;
    use crate::group::group_iterations;
    use ctam_loopir::{dependence, ArrayRef, LoopNest, NestId, Program};
    use ctam_poly::{AffineExpr, AffineMap, IntegerSet};

    /// A[i] = A[i-1]: a chain dependence with distance 1.
    fn chain(n: i64) -> (Program, IterationSpace, DependenceInfo, BlockMap) {
        let mut p = Program::new("chain");
        let a = p.add_array("A", &[n as u64], 8);
        let d = IntegerSet::builder(1).bounds(0, 1, n - 1).build();
        let id = p.add_nest(
            LoopNest::new("n", d)
                .with_ref(ArrayRef::write(a, AffineMap::identity(1)))
                .with_ref(ArrayRef::read(
                    a,
                    AffineMap::new(1, vec![AffineExpr::var(1, 0) - AffineExpr::constant(1, 1)]),
                )),
        );
        let dep = dependence::analyze_nest(&p, id).info;
        let space = IterationSpace::build(&p, id);
        let bm = BlockMap::new(&p, 64); // 8 elements per block
        (p, space, dep, bm)
    }

    #[test]
    fn chain_dependences_produce_chain_graph() {
        let (_, space, dep, bm) = chain(32);
        let groups = group_iterations(&space, &bm);
        let graph = GroupDepGraph::build(&groups, &space, &dep);
        // Blocks are consecutive: group k feeds group k+1 at the boundary.
        assert!(graph.is_acyclic());
        assert!(!graph.is_edgeless());
        for g in 0..graph.len() - 1 {
            assert!(
                graph.succs(g).contains(&(g + 1)),
                "expected boundary edge {g} -> {}",
                g + 1
            );
        }
    }

    #[test]
    fn edgeless_for_parallel_nest() {
        let (_, space, _, bm) = chain(32);
        let groups = group_iterations(&space, &bm);
        let dep0 = {
            // Pretend the nest is parallel: no distances.
            let mut p = Program::new("par");
            let a = p.add_array("A", &[8], 8);
            let d = IntegerSet::builder(1).bounds(0, 0, 7).build();
            let id = p.add_nest(
                LoopNest::new("n", d).with_ref(ArrayRef::read(a, AffineMap::identity(1))),
            );
            dependence::analyze_nest(&p, id).info
        };
        let graph = GroupDepGraph::build(&groups, &space, &dep0);
        assert!(graph.is_edgeless());
    }

    #[test]
    fn condense_merges_mutual_dependences() {
        // Craft two groups that depend on each other: interleave iterations
        // of a chain across two groups.
        let (_, space, dep, _) = chain(16);
        let n_bits = 4;
        // 15 iterations (indices 0..=14); split odd/even indices so the
        // distance-1 chain zig-zags between the two groups.
        let odd_idx: Vec<u32> = (1..15).step_by(2).map(|i| i as u32).collect();
        let even_idx: Vec<u32> = (2..15).step_by(2).map(|i| i as u32).collect();
        let g0 = IterationGroup::new(Tag::from_bits(n_bits, [0]), odd_idx);
        let g1 = IterationGroup::new(Tag::from_bits(n_bits, [1]), even_idx);
        let graph = GroupDepGraph::build(&[g0.clone(), g1.clone()], &space, &dep);
        assert!(
            graph.succs(0).contains(&1) && graph.succs(1).contains(&0),
            "mutual edges"
        );
        assert!(!graph.is_acyclic());
        let merged = condense(vec![g0, g1], &graph);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].size(), 14);
        assert!(GroupDepGraph::build(&merged, &space, &dep).is_acyclic());
        // Merged tag is the OR.
        assert!(merged[0].tag().get(0) && merged[0].tag().get(1));
    }

    /// Reference builder: the same edge rule, with each sink looked up in a
    /// hash map from points to iterations instead of found by the merge.
    fn build_with_point_map(
        groups: &[IterationGroup],
        space: &IterationSpace,
        dep: &DependenceInfo,
    ) -> GroupDepGraph {
        let index: HashMap<&[i64], usize> = (0..space.n_iterations())
            .map(|i| (space.point(i), i))
            .collect();
        let mut owner = vec![usize::MAX; space.n_units()];
        for (gi, g) in groups.iter().enumerate() {
            for &u in g.iterations() {
                owner[u as usize] = gi;
            }
        }
        let prefix = space.unit_prefix();
        let mut graph = GroupDepGraph::edgeless(groups.len());
        for (gi, g) in groups.iter().enumerate() {
            for &u in g.iterations() {
                for i in space.unit_members(u as usize) {
                    for d in dep.distances() {
                        if d[..prefix].iter().all(|&x| x == 0) {
                            continue;
                        }
                        let sink: Vec<i64> =
                            space.point(i).iter().zip(d).map(|(p, q)| p + q).collect();
                        if let Some(&j) = index.get(sink.as_slice()) {
                            let gj = owner[space.unit_of(j)];
                            if gj != usize::MAX && gj != gi {
                                graph.add_edge(gi, gj);
                            }
                        }
                    }
                }
            }
        }
        graph
    }

    /// A `depth`-loop nest over a triangular (`skew < 0`: each inner index
    /// at most the next outer one) or skewed (`j` in `skew * i ..= skew * i
    /// + n`) domain, writing `A[i][j]..` and reading `A[i - a][j + b]..`:
    /// its distances have negative inner components whenever `b > 0`.
    fn skewed_stencil(depth: usize, n: i64, skew: i64, a: i64, b: i64) -> (Program, NestId) {
        let mut p = Program::new("s");
        // Offset every subscript so no access is clamped.
        let off = 4;
        let arr = p.add_array("A", &vec![(3 * n + 2 * off) as u64; depth], 8);
        let mut dom = IntegerSet::builder(depth).bounds(0, 0, n);
        let var = |d| AffineExpr::var(depth, d);
        for d in 1..depth {
            dom = if skew < 0 {
                dom.lower(d, 0).le_var(d, d - 1)
            } else {
                dom.ge(var(d) - var(d - 1).scaled(skew))
                    .ge(var(d - 1).scaled(skew) + AffineExpr::constant(depth, n) - var(d))
            };
        }
        let shifted = |shift: &dyn Fn(usize) -> i64| {
            let exprs = (0..depth)
                .map(|d| var(d) + AffineExpr::constant(depth, off + shift(d)))
                .collect();
            AffineMap::new(depth, exprs)
        };
        let nest = LoopNest::new("n", dom.build())
            .with_ref(ArrayRef::write(arr, shifted(&|_| 0)))
            .with_ref(ArrayRef::read(
                arr,
                shifted(&|d| if d == 0 { -a } else { b }),
            ));
        let id = p.add_nest(nest);
        (p, id)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The merge finds the same edges as a point-map lookup on 2-D and
        /// 3-D triangular and skewed nests with negative inner distances,
        /// for every unit prefix, with group lists that omit some units and
        /// list one unit twice (the verifier's malformed-schedule case).
        #[test]
        fn build_matches_point_map_lookup(
            depth in 2usize..4,
            n in 1i64..7,
            skew in -1i64..3,
            a in 0i64..3,
            b in -2i64..3,
            prefix_pick in 0usize..4,
            picks in proptest::collection::vec(0usize..5, 4..40),
            repeat in 0usize..1000,
        ) {
            let (p, id) = skewed_stencil(depth, n, skew, a, b);
            let dep = dependence::analyze_nest(&p, id).info;
            let space = IterationSpace::build_units(&p, id, prefix_pick % (depth + 1));
            // Four groups; a pick of 4 leaves the unit out.
            let mut members: Vec<Vec<u32>> = vec![Vec::new(); 4];
            for u in 0..space.n_units() {
                if let Some(m) = members.get_mut(picks[u % picks.len()]) {
                    m.push(u as u32);
                }
            }
            members.retain(|m| !m.is_empty());
            if members.len() > 1 {
                let u = (repeat % space.n_units()) as u32;
                let home = members.iter().position(|m| m.contains(&u)).unwrap_or(0);
                let other_home = (home + 1) % members.len();
                let other = &mut members[other_home];
                other.push(u);
                other.sort_unstable();
            }
            let groups: Vec<IterationGroup> = members
                .into_iter()
                .map(|m| IterationGroup::new(Tag::empty(1), m))
                .collect();
            proptest::prop_assert_eq!(
                GroupDepGraph::build(&groups, &space, &dep),
                build_with_point_map(&groups, &space, &dep)
            );
        }
    }

    #[test]
    fn condense_keeps_acyclic_graphs_intact() {
        let (_, space, dep, bm) = chain(32);
        let groups = group_iterations(&space, &bm);
        let graph = GroupDepGraph::build(&groups, &space, &dep);
        let after = condense(groups.clone(), &graph);
        assert_eq!(after, groups);
        assert!(graph.is_acyclic());
    }
}
