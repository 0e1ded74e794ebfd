//! The strategy arena: mapping backends behind one trait.
//!
//! The paper's evaluation is a fixed comparison between a handful of code
//! versions (Section 4.1). This module turns that closed set into an open
//! registry: every backend implements [`MappingStrategy`] against a shared
//! [`MappingContext`], and the [`Strategy`] enum is the thin parse/registry
//! handle the pipeline, benches, and figures address backends by.
//!
//! # Context lifecycle
//!
//! [`crate::pipeline::map_nest`] builds one [`MappingContext`] per nest
//! (dependence summary, enumerated [`IterationSpace`], [`BlockMap`],
//! reusable simulator scratch), hands it to the selected backend's
//! [`MappingStrategy::map`], and assembles the returned schedule into a
//! [`NestMapping`] via [`MappingContext::finish`]. Backends never re-run
//! analysis: everything derivable from the program and machine alone is in
//! the context before `map` is called.
//!
//! # Adding a backend
//!
//! Implement [`MappingStrategy::map`], add a [`Strategy`] variant wired up
//! in [`Strategy::backend`] with a stable [`Strategy::name`] (it keys
//! bench-cell fingerprints and figure legends), and append it to
//! [`Strategy::ALL`]. Registry-driven tests (the strategy-arena grid) and
//! figures pick the new backend up from `ALL`; its mappings must verify
//! clean on every catalog and zoo machine.

use std::fmt;
use std::str::FromStr;

use ctam_cachesim::trace::MulticoreTrace;
use ctam_cachesim::{SimScratch, Simulator};
use ctam_loopir::{dependence, NestId, Program};
use ctam_topology::Machine;

use crate::blocks::{choose_block_size, BlockMap};
use crate::cluster::Assignment;
use crate::depgraph::{condense, GroupDepGraph};
use crate::group::{group_iterations, IterationGroup};
use crate::pipeline::{append_trace_for, CtamParams, NestMapping, PipelineError};
use crate::schedule::{flatten_assignment, Schedule};
use crate::space::IterationSpace;

mod classic;
mod pcot;
mod treematch;

pub use pcot::Pcot;
pub use treematch::TreeMatch;

/// Everything a mapping backend may consume, built once per nest by
/// [`crate::pipeline::map_nest`].
///
/// The immutable analysis products (`dep`, `space` with its nest, `blocks`
/// with its block size) are public fields; the simulator scratch buffers
/// backing [`Self::measure_candidates`] stay private so candidate
/// measurement has a single, recycling implementation.
pub struct MappingContext<'a> {
    /// The program owning the nest.
    pub program: &'a Program,
    /// The target machine (cache topology + costs).
    pub machine: &'a Machine,
    /// Pass parameters.
    pub params: &'a CtamParams,
    /// Dependence summary driving grouping, condensation, and scheduling.
    pub dep: dependence::DependenceInfo,
    /// Enumerated iteration space at the mapping-unit granularity.
    pub space: IterationSpace,
    /// Block decomposition of the program's data space.
    pub blocks: BlockMap,
    scratch: SimScratch,
    trace: MulticoreTrace,
}

impl<'a> MappingContext<'a> {
    /// Runs the strategy-independent front half of the pass: dependence
    /// analysis, mapping-unit selection (the paper distributes the
    /// iterations of the outermost parallel loop, Section 4.1), block-size
    /// selection, and block tagging.
    pub fn build(
        program: &'a Program,
        nest: NestId,
        machine: &'a Machine,
        params: &'a CtamParams,
    ) -> Self {
        let dep = dependence::analyze_nest(program, nest).info;
        let depth = program.nest(nest).depth();
        let unit_prefix = dep
            .outermost_parallel()
            .map_or(depth, |l| (l + 1).min(depth));
        let space = IterationSpace::build_units(program, nest, unit_prefix);
        let block_bytes = params
            .block_bytes
            .unwrap_or_else(|| choose_block_size(machine, space.max_refs_per_iteration()));
        let blocks = BlockMap::new(program, block_bytes);
        let n_cores = machine.n_cores();
        Self {
            program,
            machine,
            params,
            dep,
            space,
            blocks,
            scratch: SimScratch::default(),
            trace: MulticoreTrace::new(n_cores),
        }
    }

    /// Number of cores of the target machine.
    pub fn n_cores(&self) -> usize {
        self.machine.n_cores()
    }

    /// Groups the mapping units of the space by their block tags.
    pub fn grouped_units(&self) -> Vec<IterationGroup> {
        group_iterations(&self.space, &self.blocks)
    }

    /// [`Self::grouped_units`] followed by dependence condensation — the
    /// group set the distribution-based strategies start from.
    pub fn condensed_groups(&self) -> Vec<IterationGroup> {
        let groups = self.grouped_units();
        let graph = GroupDepGraph::build(&groups, &self.space, &self.dep);
        condense(groups, &graph)
    }

    /// Rebuilds an acyclic per-core dependence graph after distribution:
    /// groups split by load balancing can re-introduce cycles, which are
    /// merged (each merged group lands on the core contributing most of its
    /// iterations).
    pub fn acyclic(&self, assignment: Assignment) -> (Assignment, GroupDepGraph) {
        let n_cores = assignment.n_cores();
        let flat = flatten_assignment(&assignment);
        // Fast path: a fully parallel nest constrains nothing.
        if self.dep.is_fully_parallel() {
            return (assignment, GroupDepGraph::edgeless(flat.len()));
        }
        // Fast path: already acyclic.
        let graph = GroupDepGraph::build(&flat, &self.space, &self.dep);
        if graph.is_acyclic() {
            return (assignment, graph);
        }
        // Remember which core owns each unit, condense globally, then send
        // every merged group to its majority core.
        let mut owner = vec![0usize; self.space.n_units()];
        for (c, groups) in assignment.per_core().iter().enumerate() {
            for g in groups {
                for &i in g.iterations() {
                    owner[i as usize] = c;
                }
            }
        }
        let merged = condense(flat, &graph);
        let mut per_core: Vec<Vec<IterationGroup>> = vec![Vec::new(); n_cores];
        for g in merged {
            let mut votes = vec![0usize; n_cores];
            for &i in g.iterations() {
                votes[owner[i as usize]] += 1;
            }
            let best = (0..n_cores)
                .max_by_key(|&c| votes[c])
                .expect("at least one core");
            per_core[best].push(g);
        }
        let assignment = Assignment::from_per_core(per_core);
        let flat = flatten_assignment(&assignment);
        let graph = GroupDepGraph::build(&flat, &self.space, &self.dep);
        debug_assert!(graph.is_acyclic(), "condensation yields a DAG");
        (assignment, graph)
    }

    /// Simulates each candidate schedule on the target machine and returns
    /// the one with the fewest total cycles — the measured candidate-set
    /// minimization the paper applies to its `Base+` tile sizes, shared by
    /// every strategy that generates more than one legal schedule. Ties
    /// keep the earliest candidate, so callers encode their preference in
    /// candidate order. One trace buffer and one simulator scratch are
    /// recycled across candidates (this loop is the mapping hot path).
    ///
    /// # Errors
    ///
    /// [`PipelineError::Sim`] if the simulator rejects a generated trace (a
    /// pipeline bug if it ever surfaces).
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn measure_candidates(
        &mut self,
        candidates: Vec<(Schedule, usize)>,
    ) -> Result<(Schedule, usize), PipelineError> {
        assert!(
            !candidates.is_empty(),
            "measure_candidates needs at least one candidate"
        );
        let sim = Simulator::new(self.machine);
        let mut best: Option<(Schedule, usize, u64)> = None;
        for (schedule, n) in candidates {
            self.trace.clear();
            append_trace_for(&mut self.trace, self.program, &self.space, &schedule);
            let cycles = sim.run_with(&self.trace, &mut self.scratch)?.total_cycles();
            if best.as_ref().is_none_or(|(_, _, c)| cycles < *c) {
                best = Some((schedule, n, cycles));
            }
        }
        let (schedule, n, _) = best.expect("candidates were measured");
        Ok((schedule, n))
    }

    /// Consumes the context and assembles the backend's result into the
    /// [`NestMapping`] the rest of the pipeline reports on. `n_groups` is
    /// the schedule's group count, as every backend returns it.
    pub fn finish(self, schedule: Schedule, n_groups: usize) -> NestMapping {
        debug_assert_eq!(n_groups, schedule.n_groups(), "group count of the schedule");
        NestMapping {
            schedule,
            space: self.space,
            block_bytes: self.blocks.block_bytes(),
            n_groups,
        }
    }
}

/// A mapping backend: consumes a built [`MappingContext`] and produces a
/// barrier-structured [`Schedule`] plus its group count.
pub trait MappingStrategy: Sync {
    /// Maps the nest described by `cx` onto `cx.machine`.
    ///
    /// # Errors
    ///
    /// Backend-specific; see [`PipelineError`].
    fn map(&self, cx: &mut MappingContext<'_>) -> Result<(Schedule, usize), PipelineError>;
}

/// The registered code versions — the paper's Section 4 comparison set plus
/// the arena's outside contenders. A thin registry handle: the behavior
/// lives in each variant's [`Strategy::backend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Original parallel code: contiguous chunks, program order.
    Base,
    /// Conventional per-core locality optimization (tiling) on Base's
    /// distribution.
    BasePlus,
    /// Local reorganization (Figure 7) on Base's distribution — the `Local`
    /// bars of Figure 15.
    Local,
    /// Cache-topology-aware distribution (Figure 6), dependence-only
    /// scheduling.
    TopologyAware,
    /// Distribution + local scheduling (Figures 6 + 7) — the `Combined`
    /// bars of Figure 15.
    Combined,
    /// Exact branch-and-bound distribution (the Figure 20 reference).
    Optimal,
    /// Cache-oblivious recursive tiling à la PCOT (Bondhugula et al.): a
    /// divide-and-conquer iteration order with no machine parameters — the
    /// topology-blind control of the arena.
    Pcot,
    /// TreeMatch-style mapper (Jeannot & Mercier): a group×group
    /// communication/sharing matrix recursively matched onto the machine
    /// tree.
    TreeMatch,
}

impl Strategy {
    /// All registered strategies: the paper's six in presentation order,
    /// then the arena backends in the order they were added.
    pub const ALL: [Strategy; 8] = [
        Strategy::Base,
        Strategy::BasePlus,
        Strategy::Local,
        Strategy::TopologyAware,
        Strategy::Combined,
        Strategy::Optimal,
        Strategy::Pcot,
        Strategy::TreeMatch,
    ];

    /// The backend implementing this strategy.
    pub fn backend(self) -> &'static dyn MappingStrategy {
        match self {
            Strategy::Base => &classic::Base,
            Strategy::BasePlus => &classic::BasePlus,
            Strategy::Local => &classic::Local,
            Strategy::TopologyAware => &classic::TOPOLOGY_AWARE,
            Strategy::Combined => &classic::COMBINED,
            Strategy::Optimal => &classic::Optimal,
            Strategy::Pcot => &Pcot,
            Strategy::TreeMatch => &TreeMatch,
        }
    }

    /// Display name matching the paper's figures (and, for the arena
    /// backends, their source papers). Stable: it keys figure legends and
    /// bench-cell fingerprints, so changing it invalidates committed
    /// outputs.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Base => "Base",
            Strategy::BasePlus => "Base+",
            Strategy::Local => "Local",
            Strategy::TopologyAware => "TopologyAware",
            Strategy::Combined => "Combined",
            Strategy::Optimal => "Optimal",
            Strategy::Pcot => "PCOT",
            Strategy::TreeMatch => "TreeMatch",
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error of [`Strategy::from_str`]: the name matched no registered
/// strategy. The message lists every valid name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseStrategyError {
    unknown: String,
}

impl ParseStrategyError {
    /// The name that failed to parse.
    pub fn unknown(&self) -> &str {
        &self.unknown
    }
}

impl fmt::Display for ParseStrategyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown strategy `{}`; expected one of ", self.unknown)?;
        for (i, s) in Strategy::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "`{}`", s.name())?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseStrategyError {}

impl FromStr for Strategy {
    type Err = ParseStrategyError;

    /// Parses a strategy by its exact [`Strategy::name`] (surrounding
    /// whitespace ignored). Unknown names are an error — never silently
    /// skipped — so typos in e.g. `CTAM_STRATEGIES` fail loudly.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = s.trim();
        Strategy::ALL
            .into_iter()
            .find(|k| k.name() == t)
            .ok_or_else(|| ParseStrategyError {
                unknown: t.to_string(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_from_str() {
        for s in Strategy::ALL {
            assert_eq!(s.name().parse::<Strategy>(), Ok(s));
            // Surrounding whitespace is tolerated.
            assert_eq!(format!("  {s} ").parse::<Strategy>(), Ok(s));
        }
    }

    #[test]
    fn unknown_names_error_and_list_the_registry() {
        let err = "Fastest".parse::<Strategy>().unwrap_err();
        assert_eq!(err.unknown(), "Fastest");
        let msg = err.to_string();
        for s in Strategy::ALL {
            assert!(msg.contains(s.name()), "{msg} should list {s}");
        }
        // Case matters: names are exact.
        assert!("base".parse::<Strategy>().is_err());
    }

    #[test]
    fn registry_names_are_unique_and_stable() {
        let names: Vec<&str> = Strategy::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "Base",
                "Base+",
                "Local",
                "TopologyAware",
                "Combined",
                "Optimal",
                "PCOT",
                "TreeMatch"
            ],
            "strategy names key committed figure output and bench fingerprints"
        );
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
