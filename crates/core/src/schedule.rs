//! Dependence-aware local iteration-group scheduling — the algorithm of
//! Figure 7 (Sections 3.5.2–3.5.3).
//!
//! Given the per-core iteration groups chosen by [`crate::cluster`], the
//! scheduler orders each core's groups in barrier-separated *rounds*. Within
//! a round it walks the cores of each shared-cache domain in order, picking
//! for each core the dependence-legal group that maximizes
//!
//! ```text
//! α · (θ_a · θ_x)  +  β · (θ_a · θ_y)
//! ```
//!
//! where `θ_x` is the tag of the group last scheduled on the *previous* core
//! (horizontal reuse: the two cores touch shared blocks at similar times, so
//! the blocks are still in the shared cache) and `θ_y` is the tag of the
//! group last scheduled on the *same* core (vertical reuse: consecutive
//! groups keep their blocks in the private L1). A barrier is inserted after
//! every round; dependencies are legal because a group is schedulable only
//! once all its predecessors ran in *earlier* rounds.

use std::error::Error;
use std::fmt;

use ctam_topology::Machine;

use crate::cluster::Assignment;
use crate::depgraph::GroupDepGraph;
use crate::group::IterationGroup;

/// Structural errors of schedule construction — the typed surface of what
/// used to be assertion panics, so pipeline callers can recover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// A round's core list has the wrong length.
    RaggedRound {
        /// Index of the offending round.
        round: usize,
        /// Cores the round actually covers.
        cores: usize,
        /// Cores every round must cover.
        expected: usize,
    },
    /// The dependence graph's node count differs from the number of groups.
    GraphSizeMismatch {
        /// Nodes in the graph.
        graph: usize,
        /// Groups in the assignment.
        groups: usize,
    },
    /// The dependence graph is cyclic; condense it first (see
    /// [`crate::depgraph::condense`]).
    CyclicDependences,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::RaggedRound {
                round,
                cores,
                expected,
            } => write!(
                f,
                "round {round} covers {cores} cores but every round must cover {expected}"
            ),
            ScheduleError::GraphSizeMismatch { graph, groups } => write!(
                f,
                "dependence graph has {graph} nodes but the assignment has {groups} groups"
            ),
            ScheduleError::CyclicDependences => {
                write!(
                    f,
                    "cyclic group dependence graph: condense before scheduling"
                )
            }
        }
    }
}

impl Error for ScheduleError {}

/// A complete schedule: `rounds[r][core]` is the ordered list of groups core
/// `core` executes in round `r`; a barrier separates consecutive rounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    rounds: Vec<Vec<Vec<IterationGroup>>>,
    n_cores: usize,
}

impl Schedule {
    /// A trivial one-round schedule that executes each core's groups in
    /// their assignment order with no barriers — the shape of `Base`,
    /// `Base+` and plain `TopologyAware` runs of fully-parallel nests.
    pub fn single_round(assignment: Assignment) -> Self {
        let per_core = assignment.into_per_core();
        let n_cores = per_core.len();
        Self {
            rounds: vec![per_core],
            n_cores,
        }
    }

    /// Builds a schedule from explicit rounds.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::RaggedRound`] if any round's core count differs from
    /// `n_cores`.
    pub fn from_rounds(
        rounds: Vec<Vec<Vec<IterationGroup>>>,
        n_cores: usize,
    ) -> Result<Self, ScheduleError> {
        for (round, r) in rounds.iter().enumerate() {
            if r.len() != n_cores {
                return Err(ScheduleError::RaggedRound {
                    round,
                    cores: r.len(),
                    expected: n_cores,
                });
            }
        }
        Ok(Self { rounds, n_cores })
    }

    /// The rounds, outermost first.
    pub fn rounds(&self) -> &[Vec<Vec<IterationGroup>>] {
        &self.rounds
    }

    /// Number of rounds (barriers = rounds − 1).
    pub fn n_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.n_cores
    }

    /// Number of groups across all rounds and cores.
    pub(crate) fn n_groups(&self) -> usize {
        self.rounds.iter().flatten().map(Vec::len).sum()
    }

    /// Total iterations in the schedule.
    pub fn total_iterations(&self) -> usize {
        self.rounds
            .iter()
            .flatten()
            .flatten()
            .map(IterationGroup::size)
            .sum()
    }
}

/// Tuning weights of the local scheduler: `alpha` weighs shared-cache
/// (horizontal) reuse, `beta` weighs private L1 (vertical) reuse. The
/// paper's default — and its experimentally best — setting is 0.5/0.5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleWeights {
    /// Shared-cache reuse factor (the paper's α).
    pub alpha: f64,
    /// L1 reuse factor (the paper's β).
    pub beta: f64,
}

impl Default for ScheduleWeights {
    fn default() -> Self {
        Self {
            alpha: 0.5,
            beta: 0.5,
        }
    }
}

/// Runs Figure 7: schedules each core's groups in dependence-legal,
/// affinity-maximizing rounds. `graph` must be over the flattened group list
/// in `(core, position)` order — build it with
/// [`flatten_assignment`] + [`GroupDepGraph::build`], or pass an
/// [`GroupDepGraph::edgeless`] graph for fully-parallel nests.
///
/// # Errors
///
/// [`ScheduleError::GraphSizeMismatch`] if `graph.len()` differs from the
/// total number of groups; [`ScheduleError::CyclicDependences`] if the graph
/// is cyclic (condense it first, see [`crate::depgraph::condense`]).
pub fn schedule_local(
    assignment: Assignment,
    machine: &Machine,
    graph: &GroupDepGraph,
    weights: ScheduleWeights,
) -> Result<Schedule, ScheduleError> {
    let per_core = assignment.into_per_core();
    let n_cores = per_core.len();
    let n_groups: usize = per_core.iter().map(Vec::len).sum();
    if graph.len() != n_groups {
        return Err(ScheduleError::GraphSizeMismatch {
            graph: graph.len(),
            groups: n_groups,
        });
    }

    // Flatten: global id -> (core, group); and per-core id lists.
    let mut flat: Vec<(usize, IterationGroup)> = Vec::with_capacity(n_groups);
    let mut core_groups: Vec<Vec<usize>> = vec![Vec::new(); n_cores];
    for (c, groups) in per_core.into_iter().enumerate() {
        for g in groups {
            core_groups[c].push(flat.len());
            flat.push((c, g));
        }
    }

    // Shared-cache domains at the first shared level; cores outside any
    // shared domain (or all cores, if nothing is shared) form singletons.
    let domains: Vec<Vec<usize>> = match machine.first_shared_level() {
        Some(level) => machine
            .shared_domains(level)
            .into_iter()
            .map(|(_, cores)| cores.into_iter().map(|c| c.index()).collect())
            .collect(),
        None => (0..n_cores).map(|c| vec![c]).collect(),
    };

    let mut scheduled = vec![false; n_groups]; // in a *completed* round
    let mut pending: Vec<Vec<usize>> = core_groups; // unscheduled, per core
    let mut id_rounds: Vec<Vec<Vec<usize>>> = Vec::new();
    // Cumulative per-core iteration counts (the s_i of Figure 7).
    let mut s = vec![0usize; n_cores];
    // Tag of the last group scheduled on each core, across rounds.
    let mut last_on_core: Vec<Option<usize>> = vec![None; n_cores];
    let mut remaining = n_groups;
    let schedulable =
        |g: usize, scheduled: &[bool]| -> bool { graph.preds(g).iter().all(|&p| scheduled[p]) };

    while remaining > 0 {
        let mut round: Vec<Vec<usize>> = vec![Vec::new(); n_cores];
        let mut scheduled_this_round = 0usize;
        for domain in &domains {
            // Tag of the last group scheduled in this round on the previous
            // core of the domain (the θ_x neighbour).
            let mut last_on_prev: Option<usize> = None;
            let domain_last = *domain.last().expect("domains are non-empty");
            for (pos, &c) in domain.iter().enumerate() {
                if pending[c].is_empty() {
                    continue;
                }
                let first_round = id_rounds.is_empty();
                // How many iterations this core may take this round: the
                // first round schedules exactly one group per core; later
                // rounds fill until the core catches up with its pace-setter
                // (the previous core, or the domain's last core for core 0).
                let pace = if pos == 0 {
                    s[domain_last]
                } else {
                    s[domain[pos - 1]]
                };
                loop {
                    let candidates: Vec<usize> = pending[c]
                        .iter()
                        .copied()
                        .filter(|&g| schedulable(g, &scheduled))
                        .collect();
                    if candidates.is_empty() {
                        break;
                    }
                    let must_take_one = round[c].is_empty();
                    if !must_take_one && s[c] >= pace {
                        break;
                    }
                    let pick = if first_round && pos == 0 && round[c].is_empty() {
                        // First core, first group: least 1-bits in the tag
                        // (start from the most specialized group).
                        *candidates
                            .iter()
                            .min_by_key(|&&g| (flat[g].1.tag().popcount(), g))
                            .expect("non-empty candidates")
                    } else {
                        // Maximize α·(θ_a · θ_x) + β·(θ_a · θ_y).
                        *candidates
                            .iter()
                            .max_by(|&&a, &&b| {
                                let score = |g: usize| {
                                    let horiz = last_on_prev
                                        .map_or(0, |x| flat[g].1.tag().dot(flat[x].1.tag()));
                                    let vert = last_on_core[c]
                                        .map_or(0, |y| flat[g].1.tag().dot(flat[y].1.tag()));
                                    weights.alpha * f64::from(horiz)
                                        + weights.beta * f64::from(vert)
                                };
                                score(a)
                                    .partial_cmp(&score(b))
                                    .expect("scores are finite")
                                    .then(b.cmp(&a)) // ties: smaller id
                            })
                            .expect("non-empty candidates")
                    };
                    pending[c].retain(|&g| g != pick);
                    s[c] += flat[pick].1.size();
                    last_on_core[c] = Some(pick);
                    last_on_prev = Some(pick);
                    round[c].push(pick);
                    scheduled_this_round += 1;
                    remaining -= 1;
                    if first_round {
                        break; // one group per core in round one
                    }
                }
            }
        }
        if scheduled_this_round == 0 {
            // Every core is blocked on dependencies that only resolve at the
            // barrier, or the pace conditions starved everyone. Force the
            // globally best schedulable group to guarantee progress.
            let forced = (0..n_groups)
                .filter(|&g| {
                    !scheduled[g]
                        && id_rounds.iter().flatten().flatten().all(|&h| h != g)
                        && round.iter().flatten().all(|&h| h != g)
                        && schedulable(g, &scheduled)
                })
                .min_by_key(|&g| (flat[g].1.tag().popcount(), g));
            let Some(g) = forced else {
                return Err(ScheduleError::CyclicDependences);
            };
            let c = flat[g].0;
            pending[c].retain(|&h| h != g);
            s[c] += flat[g].1.size();
            last_on_core[c] = Some(g);
            round[c].push(g);
            remaining -= 1;
        }
        for core_round in &round {
            for &g in core_round {
                scheduled[g] = true;
            }
        }
        id_rounds.push(round);
    }

    // Barriers exist to enforce *cross-core* dependencies (Section 3.5.2:
    // "the dependencies between iteration groups are enforced by the
    // inserted barrier synchronization construct"). When every dependence
    // stays within one core, the per-core order already honours it, so the
    // rounds collapse into one barrier-free round.
    let core_of = |g: usize| flat[g].0;
    let has_cross_core_edge =
        (0..n_groups).any(|g| graph.succs(g).iter().any(|&h| core_of(h) != core_of(g)));
    if !has_cross_core_edge {
        let mut merged: Vec<Vec<usize>> = vec![Vec::new(); n_cores];
        for round in id_rounds {
            for (c, ids) in round.into_iter().enumerate() {
                merged[c].extend(ids);
            }
        }
        id_rounds = vec![merged];
    }

    #[cfg(debug_assertions)]
    debug_check_rounds(&id_rounds, graph, &|g| flat[g].0);

    // Materialize: move the groups into the round structure.
    let mut slots: Vec<Option<IterationGroup>> = flat.into_iter().map(|(_, g)| Some(g)).collect();
    let rounds = id_rounds
        .into_iter()
        .map(|round| {
            round
                .into_iter()
                .map(|ids| {
                    ids.into_iter()
                        .map(|g| slots[g].take().expect("each group scheduled once"))
                        .collect()
                })
                .collect()
        })
        .collect();
    Ok(Schedule { rounds, n_cores })
}

/// Debug-build self-check of a scheduled round structure: every group lands
/// in exactly one round, and every dependence edge is enforced by a barrier
/// or by same-core order. Property tests exercise this for free through the
/// schedulers; release builds skip it.
#[cfg(debug_assertions)]
fn debug_check_rounds(
    id_rounds: &[Vec<Vec<usize>>],
    graph: &GroupDepGraph,
    core_of: &dyn Fn(usize) -> usize,
) {
    let n_groups = graph.len();
    let mut coord = vec![None; n_groups]; // (round, pos in core order)
    let mut seen = 0usize;
    for (r, round) in id_rounds.iter().enumerate() {
        for core in round {
            for (p, &g) in core.iter().enumerate() {
                debug_assert!(coord[g].is_none(), "group {g} scheduled twice");
                coord[g] = Some((r, p));
                seen += 1;
            }
        }
    }
    debug_assert_eq!(seen, n_groups, "every group must be scheduled");
    for a in 0..n_groups {
        let (ra, pa) = coord[a].expect("scheduled");
        for &b in graph.succs(a) {
            let (rb, pb) = coord[b].expect("scheduled");
            debug_assert!(
                ra < rb || (ra == rb && core_of(a) == core_of(b) && pa < pb),
                "dependence {a} -> {b} not enforced: ({ra},{pa}) vs ({rb},{pb})"
            );
        }
    }
}

/// Flattens an assignment into the `(core, position)`-ordered group list that
/// [`schedule_local`] and [`GroupDepGraph::build`] agree on.
pub fn flatten_assignment(assignment: &Assignment) -> Vec<IterationGroup> {
    assignment
        .per_core()
        .iter()
        .flat_map(|gs| gs.iter().cloned())
        .collect()
}

/// Orders each core's groups into dependence-legal rounds *without* the
/// affinity objective: round `r` holds every group whose predecessors all
/// sit in rounds `< r` (Kahn levels). This is the schedule used by plain
/// `TopologyAware` — "the iteration groups assigned to each core are
/// scheduled considering only data dependencies" — and collapses to a
/// single barrier-free round when the graph is edgeless.
///
/// # Errors
///
/// [`ScheduleError::GraphSizeMismatch`] if `graph.len()` differs from the
/// number of groups; [`ScheduleError::CyclicDependences`] if the graph is
/// cyclic.
pub fn schedule_dependence_only(
    assignment: Assignment,
    graph: &GroupDepGraph,
) -> Result<Schedule, ScheduleError> {
    let per_core = assignment.into_per_core();
    let n_cores = per_core.len();
    let n_groups: usize = per_core.iter().map(Vec::len).sum();
    if graph.len() != n_groups {
        return Err(ScheduleError::GraphSizeMismatch {
            graph: graph.len(),
            groups: n_groups,
        });
    }
    if graph.is_edgeless() {
        return Ok(Schedule::single_round(Assignment::from_per_core(per_core)));
    }
    // Kahn levels over the global graph.
    let mut level = vec![0usize; n_groups];
    let mut indeg: Vec<usize> = (0..n_groups).map(|g| graph.preds(g).len()).collect();
    let mut queue: Vec<usize> = (0..n_groups).filter(|&g| indeg[g] == 0).collect();
    let mut seen = 0usize;
    while let Some(g) = queue.pop() {
        seen += 1;
        for &h in graph.succs(g) {
            level[h] = level[h].max(level[g] + 1);
            indeg[h] -= 1;
            if indeg[h] == 0 {
                queue.push(h);
            }
        }
    }
    if seen != n_groups {
        return Err(ScheduleError::CyclicDependences);
    }
    // Map flat ids back to cores to detect cross-core dependencies; when
    // every edge stays within one core, a per-core topological order needs
    // no barriers at all.
    let mut core_of = vec![0usize; n_groups];
    {
        let mut gid = 0usize;
        for (c, groups) in per_core.iter().enumerate() {
            for _ in groups {
                core_of[gid] = c;
                gid += 1;
            }
        }
    }
    let has_cross_core_edge =
        (0..n_groups).any(|g| graph.succs(g).iter().any(|&h| core_of[h] != core_of[g]));
    let n_rounds = if has_cross_core_edge {
        level.iter().max().map_or(0, |&m| m + 1)
    } else {
        1
    };
    let mut rounds: Vec<Vec<Vec<IterationGroup>>> =
        (0..n_rounds).map(|_| vec![Vec::new(); n_cores]).collect();
    // Within a core, execute in ascending dependence level (stable within a
    // level, preserving program order).
    let mut gid = 0usize;
    let mut tagged: Vec<(usize, usize, IterationGroup)> = Vec::with_capacity(n_groups);
    for (c, groups) in per_core.into_iter().enumerate() {
        for g in groups {
            tagged.push((c, level[gid], g));
            gid += 1;
        }
    }
    tagged.sort_by_key(|&(c, l, ref g)| (c, l, g.iterations()[0]));
    for (c, l, g) in tagged {
        let r = if has_cross_core_edge { l } else { 0 };
        rounds[r][c].push(g);
    }
    Ok(Schedule { rounds, n_cores })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::Tag;
    use ctam_topology::{CacheParams, Machine, NodeId, KB, MB};

    fn mk_group(bits: &[usize], iters: std::ops::Range<u32>) -> IterationGroup {
        IterationGroup::new(Tag::from_bits(12, bits.iter().copied()), iters.collect())
    }

    /// 4 cores, 2 shared L2s (the Figure 9 machine).
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

    /// The groups of one core across all rounds, in execution order.
    fn core_order(sched: &Schedule, core: usize) -> Vec<&IterationGroup> {
        sched.rounds().iter().flat_map(|r| r[core].iter()).collect()
    }

    fn assignment4() -> Assignment {
        // Cross-core sharing within each L2 pair: core 0's groups overlap
        // core 1's ({0,2}·{2,4} = 1, {4,6}·{6,8} = 1), and likewise for the
        // odd-block pair on cores 2 and 3.
        Assignment::from_per_core(vec![
            vec![mk_group(&[0, 2], 0..4), mk_group(&[4, 6], 4..8)],
            vec![mk_group(&[2, 4], 8..12), mk_group(&[6, 8], 12..16)],
            vec![mk_group(&[1, 3], 16..20), mk_group(&[5, 7], 20..24)],
            vec![mk_group(&[3, 5], 24..28), mk_group(&[7, 9], 28..32)],
        ])
    }

    #[test]
    fn schedule_is_a_permutation_of_the_assignment() {
        let a = assignment4();
        let total = a.total_iterations();
        let graph = GroupDepGraph::edgeless(8);
        let sched = schedule_local(a, &fig9(), &graph, ScheduleWeights::default()).unwrap();
        assert_eq!(sched.total_iterations(), total);
        assert_eq!(sched.n_cores(), 4);
        // Each core still executes exactly its own groups.
        for c in 0..4 {
            assert_eq!(
                core_order(&sched, c)
                    .iter()
                    .map(|g| g.size())
                    .sum::<usize>(),
                8
            );
        }
    }

    #[test]
    fn horizontal_affinity_aligns_shared_groups() {
        // Core 0's groups share blocks {2,4} and {4,6} with core 1's; with a
        // pure-α objective core 1 must pick its block-4 group right after
        // core 0 schedules one containing block 4.
        let a = assignment4();
        let graph = GroupDepGraph::edgeless(8);
        let sched = schedule_local(
            a,
            &fig9(),
            &graph,
            ScheduleWeights {
                alpha: 1.0,
                beta: 0.0,
            },
        )
        .unwrap();
        // Round one: core 0 starts with its least-popcount group (tie ->
        // first), core 1 then picks the group maximizing dot with it.
        let r0 = &sched.rounds()[0];
        let c0_first = &r0[0][0];
        let c1_first = &r0[1][0];
        assert!(
            c0_first.tag().dot(c1_first.tag()) >= 1,
            "neighbour groups should share a block"
        );
    }

    #[test]
    fn dependence_rounds_are_legal() {
        // Group 1 (on core 1) depends on group 0 (core 0); they must land in
        // different rounds, dependence first.
        let a = Assignment::from_per_core(vec![
            vec![mk_group(&[0], 0..4)],
            vec![mk_group(&[1], 4..8)],
            vec![],
            vec![],
        ]);
        let mut graph = GroupDepGraph::edgeless(2);
        graph.add_edge(0, 1);
        let sched = schedule_local(a, &fig9(), &graph, ScheduleWeights::default()).unwrap();
        // Find rounds of each group.
        let round_of = |target: usize| -> usize {
            sched
                .rounds()
                .iter()
                .position(|r| {
                    r.iter()
                        .flatten()
                        .any(|g| g.iterations()[0] as usize == target)
                })
                .expect("group scheduled")
        };
        assert!(round_of(0) < round_of(4), "dependence must order rounds");
    }

    #[test]
    fn dependence_only_collapses_to_single_round_when_parallel() {
        let a = assignment4();
        let graph = GroupDepGraph::edgeless(8);
        let sched = schedule_dependence_only(a, &graph).unwrap();
        assert_eq!(sched.n_rounds(), 1);
    }

    #[test]
    fn vertical_affinity_orders_within_core() {
        // One core with three groups: {0,1}, {8,9}, {1, 2}. With pure-β the
        // second scheduled group must be the one sharing a block with the
        // first, not the disjoint one.
        let mut b = Machine::builder("uni2", 1.0, 100);
        let l2 = b.cache(NodeId::ROOT, 2, CacheParams::new(MB, 8, 64, 10));
        let l1 = CacheParams::new(8 * KB, 8, 64, 2);
        b.core_with_l1(l2, l1);
        b.core_with_l1(l2, l1);
        let m = b.build();
        let a = Assignment::from_per_core(vec![
            vec![
                mk_group(&[0, 1], 0..2),
                mk_group(&[8, 9], 2..4),
                mk_group(&[1, 2], 4..6),
            ],
            vec![],
        ]);
        let graph = GroupDepGraph::edgeless(3);
        let sched = schedule_local(
            a,
            &m,
            &graph,
            ScheduleWeights {
                alpha: 0.0,
                beta: 1.0,
            },
        )
        .unwrap();
        let order = core_order(&sched, 0);
        assert_eq!(order[0].iterations()[0], 0);
        assert_eq!(
            order[1].iterations()[0],
            4,
            "block-sharing group should follow, got {:?}",
            order.iter().map(|g| g.iterations()[0]).collect::<Vec<_>>()
        );
    }

    #[test]
    fn later_rounds_pace_cumulative_counts() {
        // With a chain dependence across cores, rounds must keep cumulative
        // iteration counts roughly aligned (the s_i pacing of Figure 7).
        let a = Assignment::from_per_core(vec![
            vec![mk_group(&[0], 0..10), mk_group(&[1], 10..20)],
            vec![mk_group(&[2], 20..30), mk_group(&[3], 30..40)],
            vec![],
            vec![],
        ]);
        let mut graph = GroupDepGraph::edgeless(4);
        graph.add_edge(0, 3); // core 1's second group waits on core 0's first
        let sched = schedule_local(a, &fig9(), &graph, ScheduleWeights::default()).unwrap();
        assert!(sched.n_rounds() >= 2, "cross-core edge forces a barrier");
        assert_eq!(sched.total_iterations(), 40);
        // Legality: the dependent group runs in a strictly later round.
        let round_of = |first: u32| {
            sched
                .rounds()
                .iter()
                .position(|r| r.iter().flatten().any(|g| g.iterations()[0] == first))
                .unwrap()
        };
        assert!(round_of(0) < round_of(30));
    }

    #[test]
    fn empty_cores_are_tolerated() {
        let a = Assignment::from_per_core(vec![vec![mk_group(&[0], 0..4)], vec![], vec![], vec![]]);
        let graph = GroupDepGraph::edgeless(1);
        let sched = schedule_local(a, &fig9(), &graph, ScheduleWeights::default()).unwrap();
        assert_eq!(sched.total_iterations(), 4);
        assert!(core_order(&sched, 1).is_empty());
    }

    #[test]
    fn from_rounds_validates_core_counts() {
        let rounds = vec![vec![Vec::new(); 3]];
        let s = Schedule::from_rounds(rounds, 3).unwrap();
        assert_eq!(s.n_cores(), 3);
    }

    #[test]
    fn from_rounds_rejects_ragged_rounds() {
        let rounds = vec![vec![Vec::new(); 2]];
        let err = Schedule::from_rounds(rounds, 3).unwrap_err();
        assert_eq!(
            err,
            ScheduleError::RaggedRound {
                round: 0,
                cores: 2,
                expected: 3
            }
        );
    }
}
