//! Hierarchical, cache-topology-aware iteration distribution — the
//! algorithm of Figure 6.
//!
//! Starting from the root of the cache hierarchy tree, the iteration groups
//! are clustered level by level: at each tree node the current cluster is
//! partitioned into as many sub-clusters as the node has children, by greedy
//! agglomerative merging that maximizes the *dot product* of cluster tags
//! (the degree of data-block sharing). Each level then load-balances cluster
//! sizes to within a tunable threshold, evicting — and if necessary
//! splitting — iteration groups. After the leaf level every cluster is one
//! core's work.
//!
//! Sharing is sparse for real programs — a stencil tag overlaps only its
//! spatial neighbours — so merge candidates are discovered through an
//! inverted block→cluster index rather than by dotting every pair, and load
//! balancing evicts through an incremental donor index rather than a rescan
//! per move: the pass scales to millions of iteration groups while producing
//! exactly the partitions of the quadratic reference that the test suite
//! keeps in `tests/cluster_reference/`. Nothing is computed twice: one merge
//! run serves every cluster count a level cuts to, and one recursion serves
//! every [`LeafSplit`] policy the pipeline measures.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ctam_topology::{Machine, NodeId, NodeKind};

use crate::group::{total_size, IterationGroup};
use crate::tag::Tag;

/// The result of iteration distribution: the groups assigned to each core
/// (unordered; ordering is the scheduler's job).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    per_core: Vec<Vec<IterationGroup>>,
}

impl Assignment {
    /// Builds an assignment directly (used by the baselines and tests).
    pub fn from_per_core(per_core: Vec<Vec<IterationGroup>>) -> Self {
        Self { per_core }
    }

    /// The groups of every core, indexed by core id.
    pub fn per_core(&self) -> &[Vec<IterationGroup>] {
        &self.per_core
    }

    /// Consumes the assignment, yielding the per-core group lists.
    pub fn into_per_core(self) -> Vec<Vec<IterationGroup>> {
        self.per_core
    }

    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.per_core.len()
    }

    /// Total iterations assigned to core `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn core_size(&self, c: usize) -> usize {
        total_size(&self.per_core[c])
    }

    /// Total iterations across all cores.
    pub fn total_iterations(&self) -> usize {
        (0..self.n_cores()).map(|c| self.core_size(c)).sum()
    }
}

/// One cluster during hierarchical distribution: a set of groups plus the
/// bitwise sum (OR) of their tags.
#[derive(Debug, Clone)]
struct Cluster {
    tag: Tag,
    groups: Vec<IterationGroup>,
    size: usize,
    /// Smallest first-member id across groups: the cluster's position in
    /// program order, used to tie-break merges toward program-adjacent
    /// clusters (consecutive blocks get consecutive numbers in the paper's
    /// numbering, so program adjacency approximates block adjacency).
    first: u32,
    /// Bumped by every merge in [`merge_to`], whose heap discards entries
    /// carrying a stale generation.
    generation: u32,
}

impl Cluster {
    fn of_group(g: IterationGroup) -> Self {
        Self {
            tag: g.tag().clone(),
            size: g.size(),
            first: g.first(),
            groups: vec![g],
            generation: 0,
        }
    }

    fn empty(n_bits: usize) -> Self {
        Self {
            tag: Tag::empty(n_bits),
            groups: Vec::new(),
            size: 0,
            first: u32::MAX,
            generation: 0,
        }
    }

    /// Builds a cluster with a fixed membership, accumulating the tag in a
    /// single [`Tag::union_of`] pass rather than one OR per group.
    fn from_groups(n_bits: usize, groups: Vec<IterationGroup>) -> Self {
        let tag = Tag::union_of(n_bits, groups.iter().map(IterationGroup::tag));
        let size = total_size(&groups);
        let first = groups
            .iter()
            .map(IterationGroup::first)
            .min()
            .unwrap_or(u32::MAX);
        Self {
            tag,
            groups,
            size,
            first,
            generation: 0,
        }
    }

    fn push(&mut self, g: IterationGroup) {
        self.tag.or_assign(g.tag());
        self.size += g.size();
        self.first = self.first.min(g.first());
        self.groups.push(g);
    }

    /// Removes group `idx`, recomputing the tag and `first` from the
    /// remaining members. Only [`split_to`] evicts this way, and only from
    /// clusters of fewer groups than the node has children; [`balance`]
    /// evicts through [`DonorIndex`].
    fn remove(&mut self, idx: usize, n_bits: usize) -> IterationGroup {
        let g = self.groups.remove(idx);
        self.size -= g.size();
        self.tag = Tag::union_of(n_bits, self.groups.iter().map(IterationGroup::tag));
        self.first = self
            .groups
            .iter()
            .map(IterationGroup::first)
            .min()
            .unwrap_or(u32::MAX);
        g
    }
}

/// How the bottom of the tree — the cores under one shared cache subtree —
/// splits its cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LeafSplit {
    /// Greedy separation all the way down (the literal Figure 6 step):
    /// each core gets whole iteration groups, minimizing its private
    /// footprint.
    #[default]
    Separate,
    /// Constructive interleaving (Figure 3b) over the last `n` splitting
    /// levels: every group reaching a subtree within `n` splits of the
    /// cores is divided across *all* that subtree's cores, so the sharers
    /// execute concurrently and prefetch each other's blocks in the caches
    /// they share.
    Interleave(u8),
}

/// Distributes `groups` over the cores of `machine` by walking the cache
/// hierarchy tree from the root, clustering and load-balancing at every
/// level (Figure 6). `balance_threshold` is the maximum tolerated relative
/// imbalance (the paper's default is 0.10).
///
/// # Panics
///
/// Panics if `balance_threshold` is negative.
pub fn distribute(
    groups: Vec<IterationGroup>,
    machine: &Machine,
    balance_threshold: f64,
) -> Assignment {
    distribute_with(groups, machine, balance_threshold, LeafSplit::Separate)
}

/// [`distribute`] with an explicit [`LeafSplit`] policy.
///
/// # Panics
///
/// Panics if `balance_threshold` is negative.
pub fn distribute_with(
    groups: Vec<IterationGroup>,
    machine: &Machine,
    balance_threshold: f64,
    leaf_split: LeafSplit,
) -> Assignment {
    distribute_each(groups, machine, balance_threshold, &[leaf_split])
        .pop()
        .expect("one assignment per policy")
}

/// [`distribute_with`] under every policy in `leaf_splits` at once: entry
/// `i` of the result is the assignment `leaf_splits[i]` yields. The
/// pipeline measures the policies per nest and keeps the fastest, the same
/// way the paper selects its `Base+` tile size by measurement.
///
/// One recursion serves every policy, so each partition they have in
/// common is computed once: the root candidates, and below them every cut
/// made before a policy starts interleaving.
///
/// # Panics
///
/// Panics if `balance_threshold` is negative.
pub fn distribute_each(
    groups: Vec<IterationGroup>,
    machine: &Machine,
    balance_threshold: f64,
    leaf_splits: &[LeafSplit],
) -> Vec<Assignment> {
    assert!(balance_threshold >= 0.0, "threshold must be non-negative");
    #[cfg(debug_assertions)]
    let expected_units: Vec<u32> = {
        let mut units: Vec<u32> = groups
            .iter()
            .flat_map(|g| g.iterations().iter().copied())
            .collect();
        units.sort_unstable();
        units
    };
    let n_bits = groups.first().map_or(0, |g| g.tag().n_bits());
    let empty = || vec![Vec::new(); machine.n_cores()];
    let serve: Vec<(usize, LeafSplit)> = leaf_splits.iter().copied().enumerate().collect();
    let mut per_policy: Vec<Vec<Vec<IterationGroup>>> =
        leaf_splits.iter().map(|_| empty()).collect();
    // Per-level imbalance compounds multiplicatively down the tree; divide
    // the budget across the splitting levels so the end-to-end imbalance
    // stays within the requested threshold.
    let splits = split_depth(machine, NodeId::ROOT);
    let level_threshold = balance_threshold / splits.max(1) as f64;
    // Root-level look-ahead: the topmost cut constrains everything below,
    // and its local score cannot see the deeper levels. Try every candidate
    // root cut, distribute each fully, and keep, per policy, the first with
    // the smallest end-to-end sharing cost (the same objective the exact
    // reference of Figure 20 minimizes).
    let root_children = machine.children(NodeId::ROOT).to_vec();
    if root_children.len() > 1 && !groups.is_empty() {
        let capacities: Vec<usize> = root_children
            .iter()
            .map(|&k| machine.cores_under(k).len().max(1))
            .collect();
        let candidates = partition_candidates(groups, &capacities, level_threshold, n_bits);
        // A candidate equal to an earlier one distributes to the same
        // trials at the same costs, and ties keep the first: skip it.
        let repeated: Vec<bool> = (0..candidates.len())
            .map(|i| candidates[..i].contains(&candidates[i]))
            .collect();
        let mut best: Vec<Option<u64>> = vec![None; leaf_splits.len()];
        for (candidate, _) in candidates.into_iter().zip(repeated).filter(|&(_, r)| !r) {
            let mut trials: Vec<Vec<Vec<IterationGroup>>> =
                leaf_splits.iter().map(|_| empty()).collect();
            for (child, cluster) in root_children.iter().zip(candidate) {
                distribute_rec(
                    machine,
                    *child,
                    cluster,
                    level_threshold,
                    n_bits,
                    &serve,
                    &mut trials,
                );
            }
            for ((trial, best), kept) in trials.into_iter().zip(&mut best).zip(&mut per_policy) {
                let core_tags: Vec<Tag> = trial
                    .iter()
                    .map(|gs| Tag::union_of(n_bits, gs.iter().map(IterationGroup::tag)))
                    .collect();
                let cost = crate::optimal::sharing_cost(machine, &core_tags);
                if best.is_none_or(|c| cost < c) {
                    *best = Some(cost);
                    *kept = trial;
                }
            }
        }
    } else {
        distribute_rec(
            machine,
            NodeId::ROOT,
            groups,
            level_threshold,
            n_bits,
            &serve,
            &mut per_policy,
        );
    }
    per_policy
        .into_iter()
        .map(|mut per_core| {
            // Canonicalize each core's groups to program order:
            // distribution decides *where* groups run; absent the local
            // scheduler (Figure 7), the order within a core follows the
            // original code, which preserves its sequential (line-granular)
            // locality.
            for groups in &mut per_core {
                groups.sort_by_key(IterationGroup::first);
            }
            // Debug-build self-check: distribution is a pure partition —
            // every input unit lands on exactly one core, none invented,
            // none lost. Property tests exercise this for free; release
            // builds skip it.
            #[cfg(debug_assertions)]
            {
                let mut placed: Vec<u32> = per_core
                    .iter()
                    .flatten()
                    .flat_map(|g| g.iterations().iter().copied())
                    .collect();
                placed.sort_unstable();
                debug_assert_eq!(
                    placed, expected_units,
                    "distribution must permute the input units"
                );
            }
            Assignment { per_core }
        })
        .collect()
}

/// Splits any group larger than `ceil(ideal × (1 + threshold))` — where
/// `ideal = total/n_cores` — into limit-sized pieces, so that a group-level
/// assignment (greedy or exact) can balance the load. Used to prepare
/// instances for [`crate::optimal`], whose search assigns whole groups.
pub fn split_for_balance(
    mut groups: Vec<IterationGroup>,
    n_cores: usize,
    threshold: f64,
) -> Vec<IterationGroup> {
    assert!(n_cores > 0, "need at least one core");
    let total: usize = groups.iter().map(IterationGroup::size).sum();
    if total == 0 {
        return groups;
    }
    let limit = ((total as f64 / n_cores as f64) * (1.0 + threshold))
        .ceil()
        .max(1.0) as usize;
    let mut out = Vec::with_capacity(groups.len());
    for mut g in groups.drain(..) {
        while g.size() > limit {
            out.push(g.split_off(limit));
        }
        out.push(g);
    }
    out.sort_by_key(IterationGroup::first);
    out
}

/// The maximum number of multi-child nodes on any root-to-core path.
fn split_depth(machine: &Machine, node: NodeId) -> usize {
    let children = machine.children(node);
    let here = usize::from(children.len() > 1);
    here + children
        .iter()
        .map(|&k| split_depth(machine, k))
        .max()
        .unwrap_or(0)
}

/// Distributes `groups` below `node` for every policy in `serve`, each an
/// index into `out` (one per-core table per policy) with its leaf split.
/// The policies share every cut until they diverge: at a multi-child node,
/// those that interleave there share one [`interleave_split`], and the
/// others share one [`partition_groups`] call and recurse together.
fn distribute_rec(
    machine: &Machine,
    node: NodeId,
    mut groups: Vec<IterationGroup>,
    threshold: f64,
    n_bits: usize,
    serve: &[(usize, LeafSplit)],
    out: &mut [Vec<Vec<IterationGroup>>],
) {
    if let NodeKind::Core(c) = machine.kind(node) {
        deliver(groups, serve, out, c.index());
        return;
    }
    let children = machine.children(node).to_vec();
    match children.len() {
        0 => unreachable!("validated machines have cores under every cache"),
        1 => distribute_rec(machine, children[0], groups, threshold, n_bits, serve, out),
        _ => {
            // Near the bottom of the tree the children all share this
            // node's cache(s), so dividing every group across the cores is
            // constructive rather than wasteful; the Interleave policy says
            // how many splitting levels from the bottom to treat that way.
            let (here, below): (Vec<_>, Vec<_>) = serve.iter().partition(|(_, leaf)| {
                matches!(leaf, LeafSplit::Interleave(n)
                    if split_depth(machine, node) <= usize::from(*n))
            });
            if !below.is_empty() {
                let capacities: Vec<usize> = children
                    .iter()
                    .map(|&k| machine.cores_under(k).len().max(1))
                    .collect();
                let mine = if here.is_empty() {
                    std::mem::take(&mut groups)
                } else {
                    groups.clone()
                };
                let clusters = partition_groups(mine, &capacities, threshold, n_bits);
                for (child, cluster) in children.into_iter().zip(clusters) {
                    distribute_rec(machine, child, cluster, threshold, n_bits, &below, out);
                }
            }
            if !here.is_empty() {
                let cores = machine.cores_under(node);
                for (core, part) in cores.iter().zip(interleave_split(groups, cores.len())) {
                    deliver(part, &here, out, core.index());
                }
            }
        }
    }
}

/// Hands one core's `groups` to every policy in `serve`, cloning for all
/// but the last.
fn deliver(
    groups: Vec<IterationGroup>,
    serve: &[(usize, LeafSplit)],
    out: &mut [Vec<Vec<IterationGroup>>],
    core: usize,
) {
    if let Some(((last, _), rest)) = serve.split_last() {
        for (p, _) in rest {
            out[*p][core] = groups.clone();
        }
        out[*last][core] = groups;
    }
}

/// Deals the cluster's work across the `k` sibling cores: groups (split
/// first so none exceeds a 1/k share) are taken in program order, each to
/// the least-loaded core (the lowest index on ties), so every core
/// receives a slice of every phase of the cluster's data — the sharers of
/// each block run concurrently under the caches the siblings share.
/// Balanced to within one group per core by construction.
fn interleave_split(groups: Vec<IterationGroup>, k: usize) -> Vec<Vec<IterationGroup>> {
    let total: usize = groups.iter().map(IterationGroup::size).sum();
    let pieces = split_for_balance(groups, k, 0.0);
    let mut out: Vec<Vec<IterationGroup>> = (0..k).map(|_| Vec::new()).collect();
    let mut sizes = vec![0usize; k];
    for g in pieces {
        // Least-loaded core, lowest index on ties, so uneven piece sizes
        // cannot pile up.
        let c = (0..k).min_by_key(|&c| (sizes[c], c)).expect("k >= 1 cores");
        sizes[c] += g.size();
        out[c].push(g);
    }
    debug_assert_eq!(sizes.iter().sum::<usize>(), total);
    out
}

/// Partitions `groups` into `capacities.len()` clusters: agglomerative
/// merging by maximum tag dot product, splitting when there are fewer
/// clusters than required, then greedy load balancing. Cluster `k` targets a
/// share of the iterations proportional to `capacities[k]` (the number of
/// cores below child `k`).
///
/// Exposed for white-box testing and ablation benchmarks; [`distribute`] is
/// the intended entry point.
pub fn partition_groups(
    groups: Vec<IterationGroup>,
    capacities: &[usize],
    threshold: f64,
    n_bits: usize,
) -> Vec<Vec<IterationGroup>> {
    assert!(!capacities.is_empty(), "need at least one output cluster");
    partition_candidates(groups, capacities, threshold, n_bits)
        .into_iter()
        .min_by_key(|parts| partition_score(parts, n_bits))
        .expect("at least one candidate")
}

/// The local quality of a partition: total replication (sum of per-cluster
/// distinct-block counts; smaller = blocks duplicated across fewer caches),
/// tie-broken toward balance.
fn partition_score(parts: &[Vec<IterationGroup>], n_bits: usize) -> (u32, usize) {
    let replication = parts
        .iter()
        .map(|gs| Tag::union_of(n_bits, gs.iter().map(IterationGroup::tag)).popcount())
        .sum();
    let max_size = parts.iter().map(|gs| total_size(gs)).max().unwrap_or(0);
    (replication, max_size)
}

/// The candidate partitions one tree level considers (see
/// [`partition_groups`]): nested bisection (composes with deeper levels),
/// the literal one-shot Figure 6 cut, the program-order cut, and the
/// data-order cut. All are load-balanced.
fn partition_candidates(
    groups: Vec<IterationGroup>,
    capacities: &[usize],
    threshold: f64,
    n_bits: usize,
) -> Vec<Vec<Vec<IterationGroup>>> {
    let target = capacities.len();
    let nested =
        target > 2 && target.is_multiple_of(2) && capacities.windows(2).all(|w| w[0] == w[1]);
    // The greedy merge order does not depend on where it stops, so one run
    // from the singletons yields both the direct cut and the bisection.
    // Copying the groups before wrapping them keeps the singletons' tags
    // together in memory: copying each while wrapping it makes the merge
    // 1.3–1.8× slower at 2^16–2^20 sparse-stencil groups.
    let singletons: Vec<Cluster> = groups.clone().into_iter().map(Cluster::of_group).collect();
    let targets = [target, 2];
    let mut merged = merge_to(singletons, &targets[..1 + usize::from(nested)]);
    let mut candidates: Vec<Vec<Vec<IterationGroup>>> = Vec::new();
    if nested {
        // Halve the per-level threshold so the two nested levels compound
        // to roughly the requested imbalance.
        let t = threshold / 2.0;
        let two = merged.pop().expect("one partition per target");
        let halves = partition_direct(two, &[1, 1], t, n_bits);
        let sub_caps = vec![capacities[0]; target / 2];
        let mut out = Vec::with_capacity(target);
        for half in halves {
            out.extend(partition_groups(half, &sub_caps, t, n_bits));
        }
        candidates.push(out);
    }
    let direct = merged.pop().expect("one partition per target");
    candidates.push(partition_direct(direct, capacities, threshold, n_bits));
    // Order-based cuts (both re-balanced like the greedy candidates; they
    // may need to split a dominant group): program order, and data order —
    // groups sorted by the first block they touch, which lines up
    // class-structured sharing (same subtree, same image region, ...) into
    // contiguous segments.
    let balanced_cut = |mut sorted: Vec<IterationGroup>,
                        key: fn(&IterationGroup) -> (usize, u32)|
     -> Vec<Vec<IterationGroup>> {
        sorted.sort_by_key(key);
        let clusters: Vec<Cluster> = contiguous_cut(&sorted, capacities)
            .into_iter()
            .map(|gs| Cluster::from_groups(n_bits, gs))
            .collect();
        balance(clusters, capacities, threshold)
    };
    candidates.push(balanced_cut(groups.clone(), |g| (0, g.first())));
    candidates.push(balanced_cut(groups, |g| {
        (g.tag().first_set().unwrap_or(usize::MAX), g.first())
    }));
    candidates
}

/// Slices groups, in the order given, into contiguous segments whose sizes
/// track the capacities. Never splits a group. With program-ordered input
/// this is the partition a static OpenMP schedule induces; with
/// data-ordered input it aligns class-structured sharing. Scoring these
/// cuts against the greedy candidates guarantees the pass never does worse
/// than either naive order at any level.
fn contiguous_cut(groups: &[IterationGroup], capacities: &[usize]) -> Vec<Vec<IterationGroup>> {
    let total: usize = groups.iter().map(IterationGroup::size).sum();
    let total_cap: usize = capacities.iter().sum::<usize>().max(1);
    let mut out: Vec<Vec<IterationGroup>> = Vec::with_capacity(capacities.len());
    let mut it = groups.iter().cloned().peekable();
    let mut consumed = 0usize;
    let mut cap_acc = 0usize;
    for (k, &cap) in capacities.iter().enumerate() {
        cap_acc += cap;
        let boundary = total * cap_acc / total_cap;
        let mut part = Vec::new();
        while let Some(g) = it.peek() {
            if k + 1 < capacities.len() && consumed + g.size() > boundary {
                break;
            }
            let g = it.next().expect("peeked");
            consumed += g.size();
            part.push(g);
        }
        out.push(part);
    }
    out
}

/// One-shot k-way partitioning (the raw Figure 6 level step) of clusters
/// already merged down to at most `capacities.len()`: split up to that
/// count, pair clusters with children, balance.
fn partition_direct(
    mut clusters: Vec<Cluster>,
    capacities: &[usize],
    threshold: f64,
    n_bits: usize,
) -> Vec<Vec<IterationGroup>> {
    let target = capacities.len();
    split_to(&mut clusters, target, n_bits);

    // Pair clusters with children before balancing. For the symmetric trees
    // of Figure 1 (all children the same width) clusters are ordered by the
    // smallest data-block id they touch: blocks are numbered sequentially
    // through the data space, so this keys the placement to the *data*, and
    // different loop nests of one program — which share the block numbering
    // — land their shared blocks under the same caches. Asymmetric
    // (truncated) views fall back to largest-cluster-to-widest-child.
    let symmetric = capacities.windows(2).all(|w| w[0] == w[1]);
    let mut cluster_order: Vec<usize> = (0..clusters.len()).collect();
    if symmetric {
        cluster_order.sort_by_key(|&i| {
            (
                clusters[i].tag.first_set().unwrap_or(usize::MAX),
                clusters[i].first,
            )
        });
    } else {
        cluster_order.sort_by_key(|&i| Reverse(clusters[i].size));
    }
    let mut cap_order: Vec<usize> = (0..target).collect();
    if !symmetric {
        cap_order.sort_by_key(|&k| Reverse(capacities[k]));
    }
    let mut aligned: Vec<Cluster> = (0..target).map(|_| Cluster::empty(n_bits)).collect();
    for (ci, ki) in cluster_order.into_iter().zip(cap_order) {
        aligned[ki] = std::mem::replace(&mut clusters[ci], Cluster::empty(n_bits));
    }

    balance(aligned, capacities, threshold)
}

/// A 4-ary max-heap. Same contract as [`BinaryHeap`] (equal keys pop in an
/// unspecified order — irrelevant here, since merge entries embed their
/// cluster indices and are therefore distinct), but half the tree depth and
/// four contiguous children per sift-down step: at a million queued merge
/// entries the pop path touches far fewer cache lines than a binary heap.
struct QuadHeap<T> {
    data: Vec<T>,
}

impl<T: Ord + Copy> QuadHeap<T> {
    fn new() -> Self {
        Self { data: Vec::new() }
    }

    fn push(&mut self, x: T) {
        let mut i = self.data.len();
        self.data.push(x);
        while i > 0 {
            let up = (i - 1) / 4;
            if self.data[up] >= self.data[i] {
                break;
            }
            self.data.swap(up, i);
            i = up;
        }
    }

    fn pop(&mut self) -> Option<T> {
        let last = self.data.len().checked_sub(1)?;
        self.data.swap(0, last);
        let top = self.data.pop();
        let len = self.data.len();
        let mut i = 0;
        loop {
            let first = 4 * i + 1;
            if first >= len {
                break;
            }
            let mut big = first;
            for c in (first + 1)..(first + 4).min(len) {
                if self.data[c] > self.data[big] {
                    big = c;
                }
            }
            if self.data[i] >= self.data[big] {
                break;
            }
            self.data.swap(i, big);
            i = big;
        }
        top
    }
}

/// Greedy agglomerative merging: repeatedly merge the cluster pair with the
/// largest tag dot product (ties: smallest combined size, then smallest
/// program gap, then smallest indices), returning the partition at each of
/// `targets` (strictly descending) cluster counts, in that order. The merge
/// sequence does not depend on where it stops, so one run yields what a
/// run to each target alone would leave.
///
/// Only pairs that actually share blocks (dot > 0) are ever queued. They are
/// discovered through a block→cluster postings index; per-cluster neighbour
/// lists are unioned as clusters merge, and the heap holds only each
/// cluster's current *best* pair. Every sharing pair (a, b) then satisfies
/// value(a, b) ≤ max(queued(a), queued(b)), entries are exact when queued,
/// and a pair can only improve when one side merges — which re-queues that
/// side's best. So a popped entry whose endpoints are unchanged is provably
/// the global maximum, and the merge sequence is that of the quadratic
/// reference, which dots every pair and rescans every survivor after each
/// merge (`tests/cluster_equivalence.rs` asserts the two agree).
fn merge_to(mut clusters: Vec<Cluster>, targets: &[usize]) -> Vec<Vec<Cluster>> {
    debug_assert!(
        !targets.is_empty() && targets.windows(2).all(|w| w[0] > w[1]),
        "targets must be strictly descending"
    );
    let n = clusters.len();
    let idx32 = |i: usize| u32::try_from(i).expect("cluster ids fit in u32");
    // Heap entry: the merge priority (dot, Reverse(size sum), Reverse(gap),
    // Reverse(i), Reverse(j)) packed most-significant-first into one u128
    // (complementing the descending fields) plus Reverse(j), with the two
    // endpoint generations as lazy-invalidation payload. Tuple order equals
    // the unpacked lexicographic order, but a comparison is one branch —
    // sift costs dominate the merge loop at a million queued entries.
    type Entry = (u128, Reverse<u32>, u32, u32);
    fn entry_for(clusters: &[Cluster], a: usize, b: usize) -> Entry {
        let dot = clusters[a].tag.dot(&clusters[b].tag);
        let size =
            u32::try_from(clusters[a].size + clusters[b].size).expect("cluster sizes fit in u32");
        let gap = clusters[a].first.abs_diff(clusters[b].first);
        let ia = u32::try_from(a).expect("cluster ids fit in u32");
        let ib = u32::try_from(b).expect("cluster ids fit in u32");
        let key = (u128::from(dot) << 96)
            | (u128::from(!size) << 64)
            | (u128::from(!gap) << 32)
            | u128::from(!ia);
        (
            key,
            Reverse(ib),
            clusters[a].generation,
            clusters[b].generation,
        )
    }
    fn entry_dot(e: &Entry) -> u32 {
        (e.0 >> 96) as u32
    }
    fn entry_pair(e: &Entry) -> (usize, usize) {
        (!(e.0 as u32) as usize, e.1 .0 as usize)
    }
    let n_bits = clusters.first().map_or(0, |c| c.tag.n_bits());
    let mut heap: QuadHeap<Entry> = QuadHeap::new();
    let mut alive: Vec<bool> = vec![true; n];
    // Group membership is carried as chains over the original cluster ids:
    // merging links two lists in O(1) instead of moving `IterationGroup`s
    // on every merge, and each survivor materializes its membership once at
    // the end — in exactly the order per-merge list concatenation would
    // have produced.
    const NO_NEXT: u32 = u32::MAX;
    let mut node_groups: Vec<Vec<IterationGroup>> = clusters
        .iter_mut()
        .map(|c| std::mem::take(&mut c.groups))
        .collect();
    let mut next: Vec<u32> = vec![NO_NEXT; n];
    let mut tail: Vec<u32> = (0..n).map(idx32).collect();
    /// Survivor `k`'s groups, gathered along its chain: moved out when
    /// `take`, cloned otherwise (the run goes on to a smaller target).
    fn members(
        next: &[u32],
        node_groups: &mut [Vec<IterationGroup>],
        k: usize,
        take: bool,
    ) -> Vec<IterationGroup> {
        let chain = || {
            std::iter::successors(Some(k), |&c| {
                (next[c] != NO_NEXT).then_some(next[c] as usize)
            })
        };
        let mut groups = Vec::with_capacity(chain().map(|c| node_groups[c].len()).sum());
        for c in chain() {
            if take {
                groups.append(&mut node_groups[c]);
            } else {
                groups.extend_from_slice(&node_groups[c]);
            }
        }
        groups
    }
    // Tag/size/first/generation merge; membership travels on the chain.
    let merge_cluster = |clusters: &mut [Cluster], i: usize, j: usize| {
        let tag_j = std::mem::replace(&mut clusters[j].tag, Tag::empty(0));
        let (size_j, first_j) = (clusters[j].size, clusters[j].first);
        let c = &mut clusters[i];
        c.tag.or_assign(&tag_j);
        c.size += size_j;
        c.first = c.first.min(first_j);
        c.generation += 1;
    };
    // `nbrs[c]` lists the clusters sharing at least one block with `c`,
    // seeded from a transient block→cluster postings index (CSR layout) and
    // thereafter maintained by list union as clusters merge —
    // sharing(i∪j, k) ⟺ sharing(i, k) ∨ sharing(j, k), so no tag bits are
    // ever re-walked. Ids of merged-away clusters are forwarded to their
    // surviving representative by `parent` (union-find with path halving)
    // and compacted out of the lists on the next visit. `stamp` dedupes
    // partners reachable through several blocks or both halves of a union.
    let mut nbrs: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut parent: Vec<u32> = (0..n).map(idx32).collect();
    let mut stamp: Vec<u32> = vec![0; n];
    let mut round: u32 = 0;
    let mut scratch: Vec<u32> = Vec::new();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            let grand = parent[parent[x as usize] as usize];
            parent[x as usize] = grand;
            x = grand;
        }
        x
    }
    /// Re-derives `owner`'s neighbour list — forwarding merged-away ids to
    /// their surviving representative through `parent` (roots are alive by
    /// construction), deduping (`stamp`), optionally unioning in `extra`
    /// (the absorbed half's list during a merge) — and returns the single
    /// best merge entry the list offers. Keeping only each cluster's *best*
    /// pair queued caps the heap near one entry per alive cluster; staler,
    /// lower entries are re-derived on demand.
    #[allow(clippy::too_many_arguments)]
    fn refresh(
        clusters: &[Cluster],
        nbrs: &mut [Vec<u32>],
        parent: &mut [u32],
        stamp: &mut [u32],
        round: &mut u32,
        scratch: &mut Vec<u32>,
        owner: usize,
        extra: Option<&[u32]>,
    ) -> Option<Entry> {
        *round += 1;
        stamp[owner] = *round; // never our own partner
        scratch.clear();
        let mut best: Option<Entry> = None;
        for &x in nbrs[owner].iter().chain(extra.unwrap_or(&[])) {
            let r = find(parent, x) as usize;
            if stamp[r] != *round {
                stamp[r] = *round;
                scratch.push(u32::try_from(r).expect("cluster ids fit in u32"));
                let e = entry_for(clusters, owner.min(r), owner.max(r));
                debug_assert!(entry_dot(&e) > 0, "neighbours must share a block");
                if best.is_none_or(|b| e > b) {
                    best = Some(e);
                }
            }
        }
        std::mem::swap(&mut nbrs[owner], scratch);
        best
    }
    // CSR postings: count per-block degrees, then fill in cluster order —
    // the same per-block push order as a vec-of-vecs build, without a
    // million tiny allocations.
    let mut fill = vec![0u32; n_bits];
    for c in clusters.iter() {
        for b in c.tag.iter_bits() {
            fill[b] += 1;
        }
    }
    let mut off = vec![0usize; n_bits + 1];
    for (b, &count) in fill.iter().enumerate() {
        off[b + 1] = off[b] + count as usize;
    }
    let mut flat = vec![0u32; off[n_bits]];
    fill.fill(0);
    for i in 0..n {
        round += 1;
        for b in clusters[i].tag.iter_bits() {
            for &j in &flat[off[b]..off[b] + fill[b] as usize] {
                if stamp[j as usize] != round {
                    stamp[j as usize] = round;
                    nbrs[i].push(j);
                    nbrs[j as usize].push(idx32(i));
                }
            }
            flat[off[b] + fill[b] as usize] = idx32(i);
            fill[b] += 1;
        }
    }
    // One queued entry per cluster — its best pair. Every sharing pair
    // (a, b) satisfies value(a, b) ≤ max(best(a), best(b)), so the heap's
    // maximum is always the true best pair while holding ~n entries instead
    // of one per sharing pair.
    for k in 0..n {
        if let Some(e) = refresh(
            &clusters,
            &mut nbrs,
            &mut parent,
            &mut stamp,
            &mut round,
            &mut scratch,
            k,
            None,
        ) {
            heap.push(e);
        }
    }
    // Fallback order (smallest size, then first, then index) as a lazy
    // min-heap, built the first time the sharing heap runs dry. Entries
    // carry the owner's generation for lazy invalidation.
    type FallbackEntry = Reverse<(usize, u32, usize, u32)>;
    let mut fallback: Option<BinaryHeap<FallbackEntry>> = None;
    let pop_smallest =
        |fb: &mut BinaryHeap<FallbackEntry>, clusters: &[Cluster], alive: &[bool]| -> usize {
            loop {
                let Reverse((_, _, k, generation)) =
                    fb.pop().expect("more clusters than target remain");
                if alive[k] && clusters[k].generation == generation {
                    return k;
                }
            }
        };
    let mut partitions = Vec::with_capacity(targets.len());
    let mut remaining = n;
    for (t, &target) in targets.iter().enumerate() {
        while remaining > target {
            let (i, j, sharing) = match heap.pop() {
                // No sharing pairs left: merge the two smallest clusters (their
                // relative placement is locality-neutral, so minimize the size
                // skew handed to load balancing). No candidate regeneration
                // follows: a dry sharing heap means no alive pair shares a block
                // (every live sharing pair always has a current-generation
                // entry queued), and because dot(a|b, c) <= dot(a, c) +
                // dot(b, c), merging two disjoint clusters cannot create
                // sharing, so the heap stays dry.
                None => {
                    let fb = fallback.get_or_insert_with(|| {
                        (0..n)
                            .filter(|&k| alive[k])
                            .map(|k| {
                                Reverse((
                                    clusters[k].size,
                                    clusters[k].first,
                                    k,
                                    clusters[k].generation,
                                ))
                            })
                            .collect()
                    });
                    let a = pop_smallest(fb, &clusters, &alive);
                    let b = pop_smallest(fb, &clusters, &alive);
                    (a.min(b), a.max(b), false)
                }
                Some(top) => {
                    let (i, j) = entry_pair(&top);
                    let (gi, gj) = (top.2, top.3);
                    if !alive[i]
                        || !alive[j]
                        || clusters[i].generation != gi
                        || clusters[j].generation != gj
                    {
                        // A stale entry may have been the only cover for its
                        // owner's other pairs: re-derive a fresh best for each
                        // endpoint that is still alive and unchanged. (An
                        // endpoint whose generation moved re-queued its own best
                        // at that move; a dead one needs none.)
                        for (e, g) in [(i, gi), (j, gj)] {
                            if alive[e] && clusters[e].generation == g {
                                if let Some(entry) = refresh(
                                    &clusters,
                                    &mut nbrs,
                                    &mut parent,
                                    &mut stamp,
                                    &mut round,
                                    &mut scratch,
                                    e,
                                    None,
                                ) {
                                    heap.push(entry);
                                }
                            }
                        }
                        continue;
                    }
                    (i, j, true)
                }
            };
            alive[j] = false;
            merge_cluster(&mut clusters, i, j);
            next[tail[i] as usize] = idx32(j);
            tail[i] = tail[j];
            parent[j] = idx32(i);
            remaining -= 1;
            if sharing {
                // Streaming regeneration: the merged cluster shares a block with
                // exactly the union of the two halves' neighbour lists. The
                // union becomes the survivor's (compacted) list and its best
                // pair is re-queued.
                let list_j = std::mem::take(&mut nbrs[j]);
                if let Some(e) = refresh(
                    &clusters,
                    &mut nbrs,
                    &mut parent,
                    &mut stamp,
                    &mut round,
                    &mut scratch,
                    i,
                    Some(&list_j),
                ) {
                    heap.push(e);
                }
            } else {
                fallback
                    .as_mut()
                    .expect("built on the first dry pop")
                    .push(Reverse((
                        clusters[i].size,
                        clusters[i].first,
                        i,
                        clusters[i].generation,
                    )));
            }
        }
        // Materialize each survivor's membership from its chain: the last
        // target takes the groups, an earlier one copies them.
        let take = t + 1 == targets.len();
        let survivors = (0..n)
            .filter(|&k| alive[k])
            .map(|k| Cluster {
                groups: members(&next, &mut node_groups, k, take),
                ..clusters[k].clone()
            })
            .collect();
        partitions.push(survivors);
    }
    partitions
}

/// Splits the largest clusters until `target` clusters exist (Figure 6's
/// `If(|csi| < NumClusters)` branch). Prefers moving whole groups; splits a
/// lone group's iterations when necessary; pads with empty clusters if there
/// are fewer iterations than clusters.
fn split_to(clusters: &mut Vec<Cluster>, target: usize, n_bits: usize) {
    while clusters.len() < target {
        let Some(big) = (0..clusters.len()).max_by_key(|&i| clusters[i].size) else {
            clusters.push(Cluster::empty(n_bits));
            continue;
        };
        if clusters[big].size <= 1 {
            clusters.push(Cluster::empty(n_bits));
            continue;
        }
        let half = clusters[big].size / 2;
        let mut moved = Cluster::empty(n_bits);
        // Move whole groups (smallest first, preserving the big cluster's
        // densest sharing) until `moved` holds about half the iterations.
        clusters[big].groups.sort_by_key(|g| Reverse(g.size()));
        while moved.size < half {
            let last = clusters[big].groups.len() - 1;
            let need = half - moved.size;
            if clusters[big].groups.len() > 1 && clusters[big].groups[last].size() <= need {
                let g = clusters[big].remove(last, n_bits);
                moved.push(g);
            } else {
                // Split one group to make up the difference.
                let g = &mut clusters[big].groups[last];
                if g.size() <= need {
                    // Lone group smaller than need: take it whole.
                    let g = clusters[big].remove(last, n_bits);
                    moved.push(g);
                    break;
                }
                let part = g.split_off(need);
                clusters[big].size -= part.size();
                moved.push(part);
                break;
            }
        }
        clusters.push(moved);
    }
}

/// One donor's eviction index inside [`balance`], built at the donor's
/// first move and kept for the rest of the call.
///
/// The reference eviction step (kept as a test oracle) rescans every donor
/// group per move — quadratic when thousands of iterations must migrate.
/// This index makes a move O(log) amortized while reproducing the
/// reference's selections *exactly*:
///
/// - Groups keep the *position* they had when the index was built; an
///   evictee leaves an empty slot. The live slots are therefore always in
///   the order the reference's `Vec::remove` leaves, and "last index wins"
///   (the reference `max_by_key` tie-break) is "greatest position wins".
/// - A cluster donates only while above its limit and receives only while
///   below it, and no move lifts a recipient past its limit, so all of a
///   cluster's donations come before all of its receipts. While a cluster
///   is a recipient it only gains blocks — every dot towards it only
///   grows — and its `room` only shrinks, whichever donors feed it.
/// - Per recipient, a dot table and a max-heap of `(dot, size, position)`,
///   lazily invalidated against the table and the slot's current size.
///   Every gain by a recipient bumps, through sorted `(block, position)`
///   postings, exactly the sharers' dots and re-queues them, so a popped
///   entry that matches is the unique current one. A group popped oversize
///   can never fit that recipient again unless a split shrinks it, and a
///   split re-queues it towards every recipient.
struct DonorIndex {
    /// The donor's groups by position; an evictee leaves `None`.
    slots: Vec<Option<IterationGroup>>,
    /// `(block, position)` for every block of every group, sorted, so the
    /// groups touching one block form one run.
    postings: Vec<(usize, usize)>,
    /// Per cluster: the dot table and eviction heap towards it, built on
    /// the pair's first move.
    towards: Vec<Option<Toward>>,
}

/// One (donor, recipient) pair's view inside a [`DonorIndex`].
struct Toward {
    dot: Vec<u32>,
    heap: QuadHeap<(u32, usize, usize)>,
}

impl DonorIndex {
    fn new(groups: Vec<IterationGroup>, n_clusters: usize) -> Self {
        let mut postings: Vec<(usize, usize)> = groups
            .iter()
            .enumerate()
            .flat_map(|(s, g)| g.tag().iter_bits().map(move |b| (b, s)))
            .collect();
        postings.sort_unstable();
        Self {
            slots: groups.into_iter().map(Some).collect(),
            postings,
            towards: (0..n_clusters).map(|_| None).collect(),
        }
    }

    /// Takes the reference's choice towards recipient `r` (tag `rtag`) out
    /// of the donor: the live group maximizing `(dot, size)` among those
    /// with `size <= room`, or, when no whole group fits, a `quota`-sized
    /// piece split off the live group maximizing dot alone — greatest
    /// position on ties either way.
    fn evict(&mut self, r: usize, rtag: &Tag, room: usize, quota: usize) -> IterationGroup {
        let slots = &mut self.slots;
        let t = self.towards[r].get_or_insert_with(|| {
            let mut heap = QuadHeap::new();
            let dot = slots
                .iter()
                .enumerate()
                .map(|(s, slot)| match slot {
                    Some(g) => {
                        let dot = g.tag().dot(rtag);
                        heap.push((dot, g.size(), s));
                        dot
                    }
                    None => 0,
                })
                .collect();
            Toward { dot, heap }
        });
        while let Some((dot, size, s)) = t.heap.pop() {
            let current = dot == t.dot[s] && slots[s].as_ref().is_some_and(|g| g.size() == size);
            if current && size <= room {
                return slots[s].take().expect("current entries are live");
            }
            // Stale, or oversize: `room` only shrinks, so the group can
            // fit `r` again only once a split shrinks it and re-queues it.
        }
        let s = (0..slots.len())
            .filter(|&s| slots[s].is_some())
            .max_by_key(|&s| (t.dot[s], s))
            .expect("donor exceeds its limit, so it has groups");
        let g = slots[s].as_mut().expect("filtered on live slots");
        debug_assert!(g.size() > quota, "unfitting group must exceed quota");
        let part = g.split_off(quota);
        for t in self.towards.iter_mut().flatten() {
            t.heap.push((t.dot[s], g.size(), s));
        }
        part
    }

    /// Recipient `r` just gained `new_bits`: every live sharer's dot
    /// towards it grows by one per bit, and its fresh entry is queued.
    fn bump(&mut self, r: usize, new_bits: &[usize]) {
        let Some(t) = self.towards[r].as_mut() else {
            return;
        };
        for &b in new_bits {
            let start = self.postings.partition_point(|&(x, _)| x < b);
            for &(_, s) in self.postings[start..].iter().take_while(|&&(x, _)| x == b) {
                if let Some(g) = &self.slots[s] {
                    t.dot[s] += 1;
                    t.heap.push((t.dot[s], g.size(), s));
                }
            }
        }
    }

    /// The donor's groups with the empty slots dropped: its original order
    /// minus evictees.
    fn into_groups(self) -> Vec<IterationGroup> {
        self.slots.into_iter().flatten().collect()
    }
}

/// Greedy load balancing (Figure 6): while some cluster exceeds its upper
/// limit, evict groups from it into the most underfull cluster, choosing the
/// evicted group to maximize its tag's dot product with the recipient's tag,
/// and splitting a group when no whole group fits. Returns each cluster's
/// groups: its original order minus evictees, then its receipts in order.
fn balance(
    mut clusters: Vec<Cluster>,
    capacities: &[usize],
    threshold: f64,
) -> Vec<Vec<IterationGroup>> {
    let total: usize = clusters.iter().map(|c| c.size).sum();
    let total_cap: usize = capacities.iter().sum();
    let ideal: Vec<f64> = capacities
        .iter()
        .map(|&c| total as f64 * c as f64 / total_cap as f64)
        .collect();
    let up: Vec<usize> = ideal
        .iter()
        .map(|&i| (i * (1.0 + threshold)).ceil() as usize)
        .collect();
    let n = clusters.len();
    let mut index: Vec<Option<DonorIndex>> = (0..n).map(|_| None).collect();
    // Upper bound on moves: every move shifts >= 1 iteration of overflow.
    for _guard in 0..=total {
        let Some(donor) = (0..clusters.len())
            .filter(|&i| clusters[i].size > up[i])
            .max_by_key(|&i| clusters[i].size - up[i])
        else {
            break;
        };
        let Some(recipient) = (0..clusters.len())
            .filter(|&j| j != donor && clusters[j].size < up[j])
            .min_by(|&a, &b| {
                let fa = clusters[a].size as f64 / ideal[a].max(1.0);
                let fb = clusters[b].size as f64 / ideal[b].max(1.0);
                fa.partial_cmp(&fb).expect("sizes are finite")
            })
        else {
            break; // everyone else is full: threshold unsatisfiable, stop
        };
        if let Some(ix) = index[recipient].take() {
            // A former donor's first receipt: its donations are over, so
            // drop its empty slots and re-derive the tag its evictions left
            // stale (donor tags are not maintained).
            let c = &mut clusters[recipient];
            c.groups = ix.into_groups();
            c.tag = Tag::union_of(c.tag.n_bits(), c.groups.iter().map(IterationGroup::tag));
        }
        let excess = clusters[donor].size - up[donor];
        let room = up[recipient] - clusters[recipient].size;
        let quota = excess.min(room).max(1);
        let ix = index[donor]
            .get_or_insert_with(|| DonorIndex::new(std::mem::take(&mut clusters[donor].groups), n));
        let part = ix.evict(recipient, &clusters[recipient].tag, room, quota);
        clusters[donor].size -= part.size();
        let new_bits: Vec<usize> = part
            .tag()
            .iter_bits()
            .filter(|&b| !clusters[recipient].tag.get(b))
            .collect();
        clusters[recipient].push(part);
        // A donor at or under its limit never donates again; its tables
        // are left to go stale.
        for (d, ix) in index.iter_mut().enumerate() {
            if let Some(ix) = ix.as_mut().filter(|_| clusters[d].size > up[d]) {
                ix.bump(recipient, &new_bits);
            }
        }
    }
    clusters
        .into_iter()
        .zip(index)
        .map(|(c, ix)| ix.map_or(c.groups, DonorIndex::into_groups))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctam_topology::{catalog, CacheParams, Machine, NodeId, KB, MB};

    fn group(n_bits: usize, bits: &[usize], iters: std::ops::Range<u32>) -> IterationGroup {
        IterationGroup::new(
            Tag::from_bits(n_bits, bits.iter().copied()),
            iters.collect(),
        )
    }

    /// The machine of Figure 9: 4 cores, two L2s each shared by two cores,
    /// one L3 over everything.
    fn figure9() -> Machine {
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

    /// The 8 iteration groups of Figure 10(a): k iterations each, tags
    /// `σ_j` touching blocks `{j, j+2, j+4}` of 12.
    fn figure10_groups(k: u32) -> Vec<IterationGroup> {
        (0..8u32)
            .map(|j| {
                group(
                    12,
                    &[j as usize, j as usize + 2, j as usize + 4],
                    (j * k)..((j + 1) * k),
                )
            })
            .collect()
    }

    #[test]
    fn paper_example_figure10_clusters_evens_and_odds() {
        // At the first level (two L2s), the even-tag groups (which share
        // blocks pairwise) must separate from the odd-tag groups.
        let assignment = distribute(figure10_groups(4), &figure9(), 0.10);
        assert_eq!(assignment.n_cores(), 4);
        // Each core gets 2 groups of 4 iterations (perfect balance).
        for c in 0..4 {
            assert_eq!(assignment.core_size(c), 8, "core {c}");
        }
        // Parity of every group on a core must match, and the two cores of
        // each L2 pair must hold the same parity.
        let parity_of = |groups: &[IterationGroup]| -> Vec<usize> {
            groups
                .iter()
                .map(|g| g.tag().iter_bits().next().unwrap() % 2)
                .collect()
        };
        let p: Vec<Vec<usize>> = assignment.per_core().iter().map(|g| parity_of(g)).collect();
        for (c, parities) in p.iter().enumerate() {
            assert!(
                parities.windows(2).all(|w| w[0] == w[1]),
                "core {c} mixes parities"
            );
        }
        assert_eq!(p[0][0], p[1][0], "L2 pair (0,1) split across parities");
        assert_eq!(p[2][0], p[3][0], "L2 pair (2,3) split across parities");
        assert_ne!(p[0][0], p[2][0], "both parities on one socket");
    }

    #[test]
    fn distribution_preserves_all_iterations() {
        let groups = figure10_groups(5);
        let total: usize = groups.iter().map(|g| g.size()).sum();
        let a = distribute(groups, &figure9(), 0.10);
        assert_eq!(a.total_iterations(), total);
        let mut all: Vec<u32> = a
            .per_core()
            .iter()
            .flatten()
            .flat_map(|g| g.iterations().to_vec())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total);
    }

    #[test]
    fn balance_threshold_respected_with_splitting() {
        // One giant group + tiny ones: splitting must kick in.
        let mut groups = vec![group(4, &[0], 0..100)];
        groups.push(group(4, &[1], 100..104));
        groups.push(group(4, &[2], 104..108));
        let a = distribute(groups, &figure9(), 0.10);
        let sizes: Vec<usize> = (0..4).map(|c| a.core_size(c)).collect();
        let ideal: f64 = 108.0 / 4.0;
        for (c, &s) in sizes.iter().enumerate() {
            assert!(
                (s as f64) <= (ideal * 1.10).ceil(),
                "core {c} got {s} iterations (ideal {ideal})"
            );
        }
        assert_eq!(sizes.iter().sum::<usize>(), 108);
    }

    /// The original per-move full-scan eviction loop, kept verbatim as the
    /// differential reference for the [`DonorIndex`] fast path.
    fn balance_reference(
        clusters: &mut [Cluster],
        capacities: &[usize],
        threshold: f64,
        n_bits: usize,
    ) {
        let total: usize = clusters.iter().map(|c| c.size).sum();
        let total_cap: usize = capacities.iter().sum();
        if total == 0 || total_cap == 0 {
            return;
        }
        let ideal: Vec<f64> = capacities
            .iter()
            .map(|&c| total as f64 * c as f64 / total_cap as f64)
            .collect();
        let up: Vec<usize> = ideal
            .iter()
            .map(|&i| (i * (1.0 + threshold)).ceil() as usize)
            .collect();
        for _guard in 0..=total {
            let Some(donor) = (0..clusters.len())
                .filter(|&i| clusters[i].size > up[i])
                .max_by_key(|&i| clusters[i].size - up[i])
            else {
                break;
            };
            let Some(recipient) = (0..clusters.len())
                .filter(|&j| j != donor && clusters[j].size < up[j])
                .min_by(|&a, &b| {
                    let fa = clusters[a].size as f64 / ideal[a].max(1.0);
                    let fb = clusters[b].size as f64 / ideal[b].max(1.0);
                    fa.partial_cmp(&fb).expect("sizes are finite")
                })
            else {
                break;
            };
            let excess = clusters[donor].size - up[donor];
            let room = up[recipient] - clusters[recipient].size;
            let quota = excess.min(room).max(1);
            let fit = (0..clusters[donor].groups.len())
                .filter(|&gi| clusters[donor].groups[gi].size() <= room)
                .max_by_key(|&gi| {
                    (
                        clusters[donor].groups[gi]
                            .tag()
                            .dot(&clusters[recipient].tag),
                        clusters[donor].groups[gi].size(),
                    )
                });
            if let Some(gi) = fit {
                let g = clusters[donor].remove(gi, n_bits);
                clusters[recipient].push(g);
            } else {
                let gi = (0..clusters[donor].groups.len())
                    .max_by_key(|&gi| {
                        clusters[donor].groups[gi]
                            .tag()
                            .dot(&clusters[recipient].tag)
                    })
                    .expect("donor exceeds its limit, so it has groups");
                let g = &mut clusters[donor].groups[gi];
                let part = g.split_off(quota);
                clusters[donor].size -= part.size();
                clusters[recipient].push(part);
            }
        }
    }

    /// Sequentially numbered groups from `(bits, size - 1)` specs.
    fn spec_groups(n_bits: usize, specs: &[(Vec<usize>, u8)]) -> Vec<IterationGroup> {
        let mut start = 0u32;
        specs
            .iter()
            .map(|(bits, size)| {
                let n = u32::from(*size) + 1;
                let g = IterationGroup::new(
                    Tag::from_bits(n_bits, bits.iter().copied()),
                    (start..start + n).collect(),
                );
                start += n;
                g
            })
            .collect()
    }

    /// Balances `clusters` both ways and compares every cluster's groups,
    /// in order. The reference keeps tags, sizes and `first` exact, so
    /// equal groups imply equal clusters.
    fn assert_balance_matches_reference(
        clusters: Vec<Cluster>,
        caps: &[usize],
        threshold: f64,
    ) -> Result<(), proptest::TestCaseError> {
        let n_bits = clusters[0].tag.n_bits();
        let mut reference = clusters.clone();
        balance_reference(&mut reference, caps, threshold, n_bits);
        let fast = balance(clusters, caps, threshold);
        proptest::prop_assert_eq!(fast.len(), reference.len());
        for (f, r) in fast.iter().zip(&reference) {
            proptest::prop_assert_eq!(f, &r.groups);
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// The donor index must reproduce the reference eviction loop
        /// *exactly* — same groups in the same order in every cluster — for
        /// donors of every size, from a single group up.
        #[test]
        fn balance_matches_reference_scan(
            specs in proptest::collection::vec(
                (proptest::collection::vec(0usize..96, 1..4), 0u8..6),
                1..150,
            ),
            caps in proptest::collection::vec(1usize..4, 2..5),
            thr in 0u8..3,
        ) {
            let n_bits = 96;
            let threshold = f64::from(thr) * 0.05 + 0.05;
            // Deliberately skewed: cluster 0 holds everything and donates
            // to the rest, which start empty.
            let mut clusters = vec![Cluster::from_groups(n_bits, spec_groups(n_bits, &specs))];
            for _ in 1..caps.len() {
                clusters.push(Cluster::empty(n_bits));
            }
            assert_balance_matches_reference(clusters, &caps, threshold)?;
        }
    }

    proptest::proptest! {
        // Donor switches and ties are rarer than the single-donor path:
        // the cases that reach them take a few thousand draws to cover.
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4000))]

        /// Groups spread over every cluster: several donors, donors that
        /// overshoot and later receive, tags over 8 blocks so dots tie
        /// often, and sizes large enough to force split evictions.
        #[test]
        fn balance_matches_reference_scan_with_many_donors(
            specs in proptest::collection::vec(
                (proptest::collection::vec(0usize..8, 1..4), 0u8..40, 0usize..6),
                1..150,
            ),
            caps in proptest::collection::vec(1usize..4, 2..7),
            thr in 0u8..3,
        ) {
            let n_bits = 8;
            let threshold = f64::from(thr) * 0.05 + 0.05;
            let (shapes, homes): (Vec<_>, Vec<_>) = specs
                .into_iter()
                .map(|(bits, size, home)| ((bits, size), home % caps.len()))
                .unzip();
            let mut members: Vec<Vec<IterationGroup>> = vec![Vec::new(); caps.len()];
            for (g, home) in spec_groups(n_bits, &shapes).into_iter().zip(homes) {
                members[home].push(g);
            }
            let clusters = members
                .into_iter()
                .map(|gs| Cluster::from_groups(n_bits, gs))
                .collect();
            assert_balance_matches_reference(clusters, &caps, threshold)?;
        }
    }

    #[test]
    fn more_cores_than_groups_pads_with_splits_or_empties() {
        let groups = vec![group(4, &[0], 0..10)];
        let a = distribute(groups, &figure9(), 0.10);
        assert_eq!(a.total_iterations(), 10);
        // The lone group must have been split across cores.
        let nonempty = (0..4).filter(|&c| a.core_size(c) > 0).count();
        assert!(nonempty >= 2, "expected the group to be split");
    }

    #[test]
    fn empty_input_yields_empty_assignment() {
        let a = distribute(Vec::new(), &figure9(), 0.10);
        assert_eq!(a.total_iterations(), 0);
        assert_eq!(a.n_cores(), 4);
    }

    #[test]
    fn single_core_machine_gets_everything() {
        let mut b = Machine::builder("uni", 1.0, 100);
        let l2 = b.cache(NodeId::ROOT, 2, CacheParams::new(MB, 8, 64, 10));
        b.core_with_l1(l2, CacheParams::new(8 * KB, 8, 64, 2));
        let m = b.build();
        let a = distribute(figure10_groups(3), &m, 0.10);
        assert_eq!(a.core_size(0), 24);
    }

    #[test]
    fn works_on_commercial_machines() {
        for m in catalog::commercial_machines() {
            let a = distribute(figure10_groups(6), &m, 0.10);
            assert_eq!(a.total_iterations(), 48, "{}", m.name());
            assert_eq!(a.n_cores(), m.n_cores());
        }
    }

    #[test]
    fn partition_respects_proportional_capacities() {
        // Two children with capacities 1 and 3: sizes should track 25%/75%.
        let groups: Vec<IterationGroup> = (0..8)
            .map(|j| group(8, &[j], (j as u32 * 10)..((j as u32 + 1) * 10)))
            .collect();
        let parts = partition_groups(groups, &[1, 3], 0.10, 8);
        let s0 = total_size(&parts[0]);
        let s1 = total_size(&parts[1]);
        assert_eq!(s0 + s1, 80);
        assert!(s0 <= 25 && s1 >= 55, "got {s0}/{s1}");
    }

    #[test]
    fn split_for_balance_bounds_every_group() {
        let groups = vec![group(4, &[0], 0..97), group(4, &[1], 97..100)];
        let out = split_for_balance(groups, 4, 0.10);
        let limit = (100f64 / 4.0 * 1.1).ceil() as usize; // 28
        assert!(out.iter().all(|g| g.size() <= limit));
        let total: usize = out.iter().map(IterationGroup::size).sum();
        assert_eq!(total, 100);
        // Split pieces keep the donor's tag.
        assert!(out.iter().filter(|g| g.tag().get(0)).count() >= 4);
    }

    #[test]
    fn split_for_balance_is_identity_when_balanced() {
        let groups: Vec<IterationGroup> = (0..4)
            .map(|j| group(4, &[j], (j as u32 * 5)..((j as u32 + 1) * 5)))
            .collect();
        let out = split_for_balance(groups.clone(), 4, 0.10);
        assert_eq!(out, groups);
    }

    #[test]
    fn interleaved_distribution_slices_every_group_across_siblings() {
        // One big group per L2-pair cluster; with Interleave(1), both cores
        // of a pair must receive parts of it.
        let groups: Vec<IterationGroup> = (0..2)
            .map(|j| group(8, &[j, j + 4], (j as u32 * 40)..((j as u32 + 1) * 40)))
            .collect();
        let m = figure9();
        let sep = distribute_with(groups.clone(), &m, 0.10, LeafSplit::Separate);
        let int = distribute_with(groups, &m, 0.10, LeafSplit::Interleave(1));
        assert_eq!(int.total_iterations(), 80);
        assert_eq!(sep.total_iterations(), 80);
        // Interleave: the two cores of the pair holding group 0 both carry
        // its tag bit.
        let holders = |a: &Assignment, bit: usize| -> Vec<usize> {
            (0..a.n_cores())
                .filter(|&c| a.per_core()[c].iter().any(|g| g.tag().get(bit)))
                .collect()
        };
        assert!(
            holders(&int, 0).len() >= 2,
            "interleave must spread group 0: {:?}",
            holders(&int, 0)
        );
    }

    #[test]
    fn interleave_balances_to_within_one_piece() {
        let groups: Vec<IterationGroup> = (0..5)
            .map(|j| group(8, &[j], (j as u32 * 13)..((j as u32 + 1) * 13)))
            .collect();
        let m = figure9();
        let a = distribute_with(groups, &m, 0.10, LeafSplit::Interleave(2));
        let sizes: Vec<usize> = (0..4).map(|c| a.core_size(c)).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 65);
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 17, "sizes {sizes:?}"); // one piece of slack
    }

    #[test]
    fn contiguous_cut_never_reorders_program_order() {
        // With all-disjoint tags and equal sizes, the selected partition
        // must still cover everything exactly once.
        let groups: Vec<IterationGroup> = (0..12)
            .map(|j| group(16, &[j], (j as u32 * 4)..((j as u32 + 1) * 4)))
            .collect();
        let parts = partition_groups(groups, &[1, 1, 1], 0.10, 16);
        let mut all: Vec<u32> = parts
            .iter()
            .flatten()
            .flat_map(|g| g.iterations().to_vec())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..48).collect::<Vec<u32>>());
    }
}
