//! Exact reference mapping — the "Optimal" bar of Figure 20.
//!
//! The paper obtains an optimal iteration-group-to-core mapping with integer
//! linear programming ("which took up to 23 hours in some cases"). We solve
//! the same combinatorial problem with exact branch-and-bound over the
//! group→core assignment space, minimizing the *sharing cost*: the
//! latency-weighted number of distinct data blocks each cache in the
//! hierarchy must hold. Replicating a block across sibling caches, or mixing
//! unrelated blocks under one shared cache, both raise the objective —
//! exactly the two failure modes of Figure 3.
//!
//! Exponential in the number of groups; intended for the reduced instances
//! the Figure 20 study uses (the paper's ILP had the same practical bound).

use std::error::Error;
use std::fmt;

use ctam_topology::{Machine, NodeId, NodeKind};

use crate::cluster::Assignment;
use crate::group::IterationGroup;
use crate::tag::Tag;

/// Hard cap on the number of groups branch-and-bound accepts. Instances at
/// this scale can take minutes — the paper's ILP "took up to 23 hours in
/// some cases" on comparable instances.
pub const MAX_OPTIMAL_GROUPS: usize = 26;

/// Error from [`optimal_assignment`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptimalError {
    /// The instance exceeds [`MAX_OPTIMAL_GROUPS`].
    TooManyGroups {
        /// Groups in the instance.
        got: usize,
    },
}

impl fmt::Display for OptimalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimalError::TooManyGroups { got } => write!(
                f,
                "optimal search limited to {MAX_OPTIMAL_GROUPS} groups, got {got}"
            ),
        }
    }
}

impl Error for OptimalError {}

/// The latency-weighted sharing cost of per-core block footprints: for every
/// cache in the machine, `latency × popcount(OR of the tags of the cores it
/// serves)`, summed. Lower is better — it counts how many distinct blocks
/// each cache is asked to hold, weighted by how expensive that cache is to
/// reach.
pub fn sharing_cost(machine: &Machine, core_tags: &[Tag]) -> u64 {
    assert_eq!(core_tags.len(), machine.n_cores(), "one tag per core");
    let n_bits = core_tags.first().map_or(0, Tag::n_bits);
    let mut cost = 0u64;
    for level in machine.levels() {
        for (cache, cores) in machine.shared_domains(level) {
            let NodeKind::Cache { params, .. } = machine.kind(cache) else {
                unreachable!("shared_domains returns caches");
            };
            let mut t = Tag::empty(n_bits);
            for c in cores {
                t.or_assign(&core_tags[c.index()]);
            }
            cost += u64::from(params.latency()) * u64::from(t.popcount());
        }
    }
    cost
}

/// Search-node budget. Small instances finish exhaustively well within it;
/// at the instance cap the search becomes *anytime*: it returns the best
/// assignment found when the budget runs out, exactly as the paper's ILP
/// runs were wall-clock-capped ("up to 23 hours").
const NODE_BUDGET: u64 = 20_000_000;

/// Exhaustively (branch-and-bound) finds the group→core assignment with the
/// minimum [`sharing_cost`], subject to the balance threshold (as in
/// Figure 6): assignments loading any core beyond
/// `ceil(ideal × (1 + balance_threshold))` iterations are pruned.
///
/// # Errors
///
/// [`OptimalError::TooManyGroups`] if more than [`MAX_OPTIMAL_GROUPS`] groups
/// are given.
pub fn optimal_assignment(
    groups: Vec<IterationGroup>,
    machine: &Machine,
    balance_threshold: f64,
) -> Result<Assignment, OptimalError> {
    search_within(groups, machine, balance_threshold, NODE_BUDGET)
}

/// [`optimal_assignment`] under an explicit search-node budget.
fn search_within(
    groups: Vec<IterationGroup>,
    machine: &Machine,
    balance_threshold: f64,
    node_budget: u64,
) -> Result<Assignment, OptimalError> {
    if groups.len() > MAX_OPTIMAL_GROUPS {
        return Err(OptimalError::TooManyGroups { got: groups.len() });
    }
    let n_cores = machine.n_cores();
    let n_bits = groups.first().map_or(0, |g| g.tag().n_bits());
    let total: usize = groups.iter().map(IterationGroup::size).sum();
    let limit = ((total as f64 / n_cores as f64) * (1.0 + balance_threshold)).ceil() as usize;

    // Sort groups by descending size: big decisions first prunes faster.
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_by_key(|&g| std::cmp::Reverse(groups[g].size()));

    // Symmetry metadata. Two empty cores are interchangeable when some
    // ancestor has two identically-shaped child subtrees, one holding each
    // core, with *every* core under both subtrees still empty — swapping the
    // two subtrees is then an automorphism of the loaded machine. We
    // precompute, per core, the root-to-core chain of (subtree shape, cores
    // under that subtree) so the check is a chain walk.
    let shape_of = |top: NodeId| -> String {
        let mut shape = String::new();
        let mut stack = vec![top];
        while let Some(n) = stack.pop() {
            match machine.kind(n) {
                NodeKind::Cache { level, params } => {
                    shape.push_str(&format!(
                        "C{level}s{}a{}({})/",
                        params.size_bytes(),
                        params.associativity(),
                        machine.children(n).len()
                    ));
                }
                NodeKind::Core(_) => shape.push('P'),
                NodeKind::Memory => {}
            }
            stack.extend(machine.children(n).iter().copied());
        }
        shape
    };
    // chain[c] = for each ancestor child-subtree containing c (outermost
    // first): (shape string, cores under it).
    let chains: Vec<Vec<(String, Vec<usize>)>> = machine
        .cores()
        .map(|c| {
            let mut path = Vec::new();
            let mut cur = machine.core_node(c);
            while let Some(parent) = machine.parent(cur) {
                path.push(cur);
                cur = parent;
            }
            path.reverse(); // outermost subtree first
            path.into_iter()
                .map(|n| {
                    (
                        shape_of(n),
                        machine
                            .cores_under(n)
                            .into_iter()
                            .map(|x| x.index())
                            .collect(),
                    )
                })
                .collect()
        })
        .collect();

    // Incremental cost bookkeeping: one running tag per cache; placing a
    // group on a core ORs its tag into every cache on the core's path and
    // pays `latency x newly-set-bits` — the exact delta of [`sharing_cost`].
    let mut cache_idx = std::collections::BTreeMap::new();
    let mut cache_tags: Vec<Tag> = Vec::new();
    let mut cache_lat: Vec<u64> = Vec::new();
    for level in machine.levels() {
        for node in machine.caches_at(level) {
            let NodeKind::Cache { params, .. } = machine.kind(node) else {
                unreachable!("caches_at returns caches");
            };
            cache_idx.insert(node, cache_tags.len());
            cache_tags.push(Tag::empty(n_bits));
            cache_lat.push(u64::from(params.latency()));
        }
    }
    let paths: Vec<Vec<usize>> = machine
        .cores()
        .map(|c| {
            machine
                .lookup_path(c)
                .into_iter()
                .map(|n| cache_idx[&n])
                .collect()
        })
        .collect();

    struct Search<'a> {
        groups: &'a [IterationGroup],
        order: &'a [usize],
        limit: usize,
        paths: Vec<Vec<usize>>,
        cache_tags: Vec<Tag>,
        cache_lat: Vec<u64>,
        cost: u64,
        core_sizes: Vec<usize>,
        assignment: Vec<usize>, // group -> core
        best_cost: u64,
        best: Option<Vec<usize>>,
        chains: Vec<Vec<(String, Vec<usize>)>>,
        nodes: u64,
        node_budget: u64,
    }

    impl Search<'_> {
        /// True if core `c` is redundant under symmetry: an earlier core in
        /// this candidate scan is provably interchangeable with it.
        fn symmetric_skip(&self, c: usize, seen: &[usize]) -> bool {
            if self.core_sizes[c] != 0 {
                return false;
            }
            'outer: for &e in seen {
                if self.core_sizes[e] != 0 {
                    continue;
                }
                // Find the divergence level of the two chains: the first
                // ancestor child-subtrees that differ.
                for (se, sc) in self.chains[e].iter().zip(&self.chains[c]) {
                    if se.1 == sc.1 {
                        continue; // same subtree so far
                    }
                    if se.0 != sc.0 {
                        continue 'outer; // shapes differ: not symmetric
                    }
                    // Identically shaped sibling-level subtrees: symmetric
                    // iff both are entirely empty.
                    if se.1.iter().chain(&sc.1).all(|&x| self.core_sizes[x] == 0) {
                        return true;
                    }
                    continue 'outer;
                }
            }
            false
        }

        /// ORs group `g`'s tag into core `c`'s path caches; returns the
        /// saved tags for undo.
        fn place(&mut self, g: usize, c: usize) -> Vec<Tag> {
            let mut saved = Vec::with_capacity(self.paths[c].len());
            for &ci in &self.paths[c] {
                saved.push(self.cache_tags[ci].clone());
                let before = self.cache_tags[ci].popcount();
                self.cache_tags[ci].or_assign(self.groups[g].tag());
                let after = self.cache_tags[ci].popcount();
                self.cost += self.cache_lat[ci] * u64::from(after - before);
            }
            self.core_sizes[c] += self.groups[g].size();
            saved
        }

        fn unplace(&mut self, g: usize, c: usize, saved: Vec<Tag>) {
            for (&ci, old) in self.paths[c].iter().zip(saved) {
                let after = self.cache_tags[ci].popcount();
                let before = old.popcount();
                self.cost -= self.cache_lat[ci] * u64::from(after - before);
                self.cache_tags[ci] = old;
            }
            self.core_sizes[c] -= self.groups[g].size();
        }

        fn dfs(&mut self, depth: usize) {
            self.nodes += 1;
            if self.nodes > self.node_budget {
                return;
            }
            if depth == self.order.len() {
                if self.cost < self.best_cost {
                    self.best_cost = self.cost;
                    self.best = Some(self.assignment.clone());
                }
                return;
            }
            // Placing more groups never removes bits, so the running cost is
            // an admissible lower bound.
            if self.cost >= self.best_cost {
                return;
            }
            let g = self.order[depth];
            let mut seen: Vec<usize> = Vec::new();
            // Greedy candidate order (cheapest delta first) finds strong
            // incumbents early, which tightens the bound for the rest.
            let mut cands: Vec<(u64, usize)> = Vec::new();
            for c in 0..self.core_sizes.len() {
                let fits = self.core_sizes[c] + self.groups[g].size() <= self.limit
                    || (self.core_sizes[c] == 0 && self.groups[g].size() > self.limit);
                if !fits || self.symmetric_skip(c, &seen) {
                    seen.push(c);
                    continue;
                }
                seen.push(c);
                let delta: u64 = self.paths[c]
                    .iter()
                    .map(|&ci| {
                        let new_bits = self.groups[g].tag().popcount()
                            - self.cache_tags[ci].dot(self.groups[g].tag());
                        self.cache_lat[ci] * u64::from(new_bits)
                    })
                    .sum();
                cands.push((delta, c));
            }
            cands.sort_unstable();
            for (_, c) in cands {
                let saved = self.place(g, c);
                self.assignment[g] = c;
                self.dfs(depth + 1);
                self.unplace(g, c, saved);
                if self.nodes > self.node_budget {
                    return;
                }
            }
        }
    }

    let mut search = Search {
        groups: &groups,
        order: &order,
        limit,
        paths,
        cache_tags,
        cache_lat,
        cost: 0,
        core_sizes: vec![0; n_cores],
        assignment: vec![0; groups.len()],
        best_cost: u64::MAX,
        best: None,
        chains,
        nodes: 0,
        node_budget,
    };
    // Indivisible groups can make the nominal limit infeasible (e.g. six
    // 5-iteration groups on four cores with limit 9): relax it gently until
    // a feasible packing exists. This mirrors the ILP's soft balance
    // constraint; the increments are small so the first feasible limit is
    // also the tightest.
    loop {
        search.dfs(0);
        if search.best.is_some() || search.limit >= total.max(1) {
            break;
        }
        search.nodes = 0;
        search.limit = search.limit + search.limit / 10 + 1;
    }

    let best = search
        .best
        .expect("the relaxed limit admits the everything-on-one-core packing");
    let mut per_core: Vec<Vec<IterationGroup>> = vec![Vec::new(); n_cores];
    for (g, group) in groups.into_iter().enumerate() {
        per_core[best[g]].push(group);
    }
    Ok(Assignment::from_per_core(per_core))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctam_topology::{CacheParams, Machine, NodeId, KB, MB};

    fn fig9() -> Machine {
        let mut b = Machine::builder("fig9", 1.0, 100);
        let l1 = CacheParams::new(8 * KB, 8, 64, 2);
        let l3 = b.cache(NodeId::ROOT, 3, CacheParams::new(8 * MB, 16, 64, 30));
        for _ in 0..2 {
            let l2 = b.cache(l3, 2, CacheParams::new(MB, 8, 64, 10));
            b.core_with_l1(l2, l1);
            b.core_with_l1(l2, l1);
        }
        b.build()
    }

    fn mk(bits: &[usize], iters: std::ops::Range<u32>) -> IterationGroup {
        IterationGroup::new(Tag::from_bits(12, bits.iter().copied()), iters.collect())
    }

    #[test]
    fn sharing_cost_prefers_colocated_sharers() {
        let m = fig9();
        let sharer = Tag::from_bits(12, [0, 1]);
        let other = Tag::from_bits(12, [2, 3]);
        // Sharers on the same L2 pair.
        let together = vec![sharer.clone(), sharer.clone(), other.clone(), other.clone()];
        // Sharers split across L2s.
        let split = vec![sharer.clone(), other.clone(), sharer, other];
        assert!(
            sharing_cost(&m, &together) < sharing_cost(&m, &split),
            "replication across L2s must cost more"
        );
    }

    #[test]
    fn optimal_matches_figure10_structure() {
        // The Figure 10 instance: even-tag groups share blocks, odd-tag
        // groups share blocks, evens and odds are disjoint. The optimum must
        // keep parities together per L2 pair.
        let groups: Vec<IterationGroup> = (0..8u32)
            .map(|j| {
                mk(
                    &[j as usize, j as usize + 2, j as usize + 4],
                    (j * 4)..((j + 1) * 4),
                )
            })
            .collect();
        let a = optimal_assignment(groups, &fig9(), 0.10).unwrap();
        let parity = |gs: &[IterationGroup]| -> Option<usize> {
            gs.first().map(|g| g.tag().iter_bits().next().unwrap() % 2)
        };
        let p: Vec<Option<usize>> = a.per_core().iter().map(|g| parity(g)).collect();
        assert_eq!(p[0], p[1], "L2 pair 0 must hold one parity");
        assert_eq!(p[2], p[3], "L2 pair 1 must hold one parity");
        assert_ne!(p[0], p[2]);
    }

    #[test]
    fn optimal_respects_balance_limit() {
        let groups: Vec<IterationGroup> = (0..8u32)
            .map(|j| mk(&[j as usize], (j * 10)..(j * 10 + 10)))
            .collect();
        let a = optimal_assignment(groups, &fig9(), 0.10).unwrap();
        for c in 0..4 {
            assert!(a.core_size(c) <= 22, "core {c}: {}", a.core_size(c));
        }
        assert_eq!(a.total_iterations(), 80);
    }

    #[test]
    fn too_many_groups_rejected() {
        let n = MAX_OPTIMAL_GROUPS as u32 + 4;
        let groups: Vec<IterationGroup> =
            (0..n).map(|j| mk(&[(j % 12) as usize], j..j + 1)).collect();
        assert_eq!(
            optimal_assignment(groups, &fig9(), 0.10),
            Err(OptimalError::TooManyGroups { got: n as usize })
        );
    }

    #[test]
    fn optimal_never_worse_than_any_fixed_assignment() {
        let m = fig9();
        let groups: Vec<IterationGroup> = (0..6u32)
            .map(|j| mk(&[j as usize, (j as usize + 3) % 12], (j * 5)..((j + 1) * 5)))
            .collect();
        let opt = optimal_assignment(groups.clone(), &m, 0.10).unwrap();
        let opt_tags: Vec<Tag> = (0..4)
            .map(|c| {
                let mut t = Tag::empty(12);
                for g in &opt.per_core()[c] {
                    t.or_assign(g.tag());
                }
                t
            })
            .collect();
        let opt_cost = sharing_cost(&m, &opt_tags);
        // Compare against round-robin.
        let mut rr_tags = vec![Tag::empty(12); 4];
        for (j, g) in groups.iter().enumerate() {
            rr_tags[j % 4].or_assign(g.tag());
        }
        assert!(opt_cost <= sharing_cost(&m, &rr_tags));
    }

    #[test]
    fn node_budget_yields_best_effort_anytime_result() {
        // A tiny budget still returns a feasible assignment (the first
        // descent), never panics.
        let groups: Vec<IterationGroup> = (0..8u32)
            .map(|j| mk(&[j as usize, (j as usize + 2) % 12], (j * 4)..((j + 1) * 4)))
            .collect();
        let a = search_within(groups, &fig9(), 0.10, 50).unwrap();
        assert_eq!(a.total_iterations(), 32);
        for c in 0..4 {
            assert!(a.core_size(c) <= 10, "core {c}: {}", a.core_size(c));
        }
    }

    #[test]
    fn symmetry_pruning_does_not_change_the_optimum() {
        // The pruned search must find a solution with the same cost as the
        // cost of its own best assignment re-evaluated (consistency check),
        // and must beat or match a contiguous assignment.
        let m = fig9();
        let groups: Vec<IterationGroup> = (0..8u32)
            .map(|j| mk(&[j as usize, (j as usize + 6) % 12], (j * 4)..((j + 1) * 4)))
            .collect();
        let a = optimal_assignment(groups.clone(), &m, 0.10).unwrap();
        let tags_of = |a: &Assignment| -> Vec<Tag> {
            (0..4)
                .map(|c| {
                    let mut t = Tag::empty(12);
                    for g in &a.per_core()[c] {
                        t.or_assign(g.tag());
                    }
                    t
                })
                .collect()
        };
        let opt_cost = sharing_cost(&m, &tags_of(&a));
        // Contiguous pairs-of-groups assignment.
        let mut per_core: Vec<Vec<IterationGroup>> = vec![Vec::new(); 4];
        for (j, g) in groups.into_iter().enumerate() {
            per_core[j / 2].push(g);
        }
        let contig = Assignment::from_per_core(per_core);
        assert!(opt_cost <= sharing_cost(&m, &tags_of(&contig)));
    }
}
