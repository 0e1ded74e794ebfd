//! End-to-end pipeline: program + machine + strategy → mapping → trace →
//! simulated execution.
//!
//! This is the surface the examples and the benchmark harness drive. It
//! mirrors the paper's tool flow: the pass consumes a parallel loop nest
//! (Phoenix/Omega in the paper, [`ctam_loopir`]/[`ctam_poly`] here), maps
//! iterations to cores for the target cache topology, and the result is
//! executed (real machines / Simics+GEMS in the paper,
//! [`ctam_cachesim`] here).

use std::error::Error;
use std::fmt;

use ctam_cachesim::trace::{MulticoreTrace, Op};
use ctam_cachesim::{SimError, SimReport, Simulator};
use ctam_loopir::{AccessKind, NestId, Program};
use ctam_topology::Machine;

use crate::group::IterationGroup;
use crate::optimal::OptimalError;
use crate::schedule::{Schedule, ScheduleError, ScheduleWeights};
use crate::space::IterationSpace;
use crate::strategies::MappingContext;

pub use crate::strategies::Strategy;

/// Tunable parameters of the pass (the paper's defaults are the `Default`).
///
/// They configure mapping only. Checks are calls a caller makes on what
/// [`map_nest`] and [`evaluate`] return: [`crate::verify::verify_mapping`],
/// [`crate::verify::certificate_for`] with [`ctam_cert::check_certificate`],
/// and [`crate::verify::advise_mapping`].
#[derive(Debug, Clone, PartialEq)]
pub struct CtamParams {
    /// Data block size in bytes; `None` selects it with the Section 4.1
    /// heuristic (capped at the paper's 2KB default).
    pub block_bytes: Option<u64>,
    /// Load-balance threshold of Figure 6 (paper default: 10%).
    pub balance_threshold: f64,
    /// α/β of the local scheduler (paper default: 0.5/0.5).
    pub weights: ScheduleWeights,
}

impl Default for CtamParams {
    fn default() -> Self {
        Self {
            block_bytes: None,
            balance_threshold: 0.10,
            weights: ScheduleWeights::default(),
        }
    }
}

/// Errors from the pipeline.
#[derive(Debug)]
pub enum PipelineError {
    /// The optimal search rejected the instance.
    Optimal(OptimalError),
    /// The simulator rejected the generated trace (a pipeline bug if it ever
    /// surfaces — traces are constructed to match the machine).
    Sim(SimError),
    /// Schedule construction failed structurally (ragged rounds, graph
    /// mismatch, cyclic dependences).
    Schedule(ScheduleError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Optimal(e) => write!(f, "optimal mapping failed: {e}"),
            PipelineError::Sim(e) => write!(f, "simulation failed: {e}"),
            PipelineError::Schedule(e) => write!(f, "schedule construction failed: {e}"),
        }
    }
}

impl Error for PipelineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PipelineError::Optimal(e) => Some(e),
            PipelineError::Sim(e) => Some(e),
            PipelineError::Schedule(e) => Some(e),
        }
    }
}

impl From<OptimalError> for PipelineError {
    fn from(e: OptimalError) -> Self {
        PipelineError::Optimal(e)
    }
}

impl From<SimError> for PipelineError {
    fn from(e: SimError) -> Self {
        PipelineError::Sim(e)
    }
}

impl From<ScheduleError> for PipelineError {
    fn from(e: ScheduleError) -> Self {
        PipelineError::Schedule(e)
    }
}

/// The mapping of one nest: the decisions of the pass (mapping-unit
/// granularity, block size, schedule) plus the iteration space they index.
#[derive(Debug, Clone, PartialEq)]
pub struct NestMapping {
    /// The barrier-structured schedule.
    pub schedule: Schedule,
    /// The enumerated iteration space at the chosen unit granularity (owned
    /// so traces can be rebuilt).
    pub space: IterationSpace,
    /// The block size used for tagging.
    pub block_bytes: u64,
    /// Number of iteration groups in the schedule.
    pub n_groups: usize,
}

/// Maps one nest for `machine` under `strategy`.
///
/// Builds one [`MappingContext`] (dependence analysis, mapping-unit
/// enumeration, block tagging — everything strategy-independent), hands it
/// to the strategy's registered [`crate::strategies::MappingStrategy`]
/// backend, and assembles the result. See [`crate::strategies`] for the
/// backend contract.
///
/// # Errors
///
/// [`PipelineError::Optimal`] when [`Strategy::Optimal`] is given an instance
/// with too many groups; otherwise backend-specific.
pub fn map_nest(
    program: &Program,
    nest: NestId,
    machine: &Machine,
    strategy: Strategy,
    params: &CtamParams,
) -> Result<NestMapping, PipelineError> {
    // The paper distributes the iterations of the parallelized loop — the
    // outermost loop without carried dependencies (Anderson-style, Section
    // 4.1) — each carrying its whole inner sweep. Nests with no parallel
    // level fall back to point granularity and rely on the dependence
    // machinery of Section 3.5.2. All of that is strategy-independent and
    // lives in the context build.
    let mut cx = MappingContext::build(program, nest, machine, params);
    let (schedule, n_groups) = strategy.backend().map(&mut cx)?;
    Ok(cx.finish(schedule, n_groups))
}

/// Appends the memory accesses of `mapping` to `trace`: per round, each
/// core's groups in order, each group's iterations in stored order, each
/// iteration's references in body order; a global barrier between rounds.
pub fn append_schedule_trace(trace: &mut MulticoreTrace, program: &Program, mapping: &NestMapping) {
    append_trace_for(trace, program, &mapping.space, &mapping.schedule);
}

/// [`append_schedule_trace`] without requiring an assembled [`NestMapping`]:
/// the candidate-measurement loop traces schedules before one exists.
pub fn append_trace_for(
    trace: &mut MulticoreTrace,
    program: &Program,
    space: &IterationSpace,
    schedule: &Schedule,
) {
    for (r, round) in schedule.rounds().iter().enumerate() {
        if r > 0 {
            trace.push_barrier_all();
        }
        for (core, groups) in round.iter().enumerate() {
            for g in groups {
                for &u in g.iterations() {
                    for acc in space.unit_accesses(u as usize) {
                        let addr = program.address_of(acc.array, acc.element);
                        let op = match acc.kind {
                            AccessKind::Read => Op::Read,
                            AccessKind::Write => Op::Write,
                        };
                        trace.push_access(core, addr, op);
                    }
                }
            }
        }
    }
}

/// The result of evaluating one program on one machine under one strategy.
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// Simulated execution report.
    pub report: SimReport,
    /// Per-nest mappings (in nest order).
    pub mappings: Vec<NestMapping>,
}

impl EvalResult {
    /// Simulated execution time in cycles.
    pub fn cycles(&self) -> u64 {
        self.report.total_cycles()
    }
}

/// Maps every nest of `program`, builds the multicore trace (nests separated
/// by barriers), and simulates it on `machine` — [`evaluate_ported`] with
/// the same machine on both sides.
///
/// # Errors
///
/// Propagates mapping errors ([`PipelineError::Optimal`]) and simulator errors.
pub fn evaluate(
    program: &Program,
    machine: &Machine,
    strategy: Strategy,
    params: &CtamParams,
) -> Result<EvalResult, PipelineError> {
    evaluate_ported(program, machine, machine, strategy, params)
}

/// Re-targets a schedule produced for one machine onto another with a
/// different core count: thread `t` of the tuned version runs on core
/// `t mod n_cores` of the hosting machine, rounds preserved. This is the
/// porting model of Figures 2 and 14 — the *version* (its iteration
/// partition and order) is fixed by `tuned_for`'s topology, only the
/// placement is adjusted to the host.
fn fold_schedule(schedule: &Schedule, n_cores: usize) -> Result<Schedule, ScheduleError> {
    let rounds = schedule
        .rounds()
        .iter()
        .map(|round| {
            let mut folded: Vec<Vec<IterationGroup>> = vec![Vec::new(); n_cores];
            for (t, groups) in round.iter().enumerate() {
                folded[t % n_cores].extend(groups.iter().cloned());
            }
            folded
        })
        .collect();
    Schedule::from_rounds(rounds, n_cores)
}

/// Evaluates the code version tuned for `tuned_for` when executed on
/// `run_on` — the cross-machine experiment of Figures 2 and 14. The mapping
/// is computed against `tuned_for`'s cache topology; the resulting threads
/// are then placed round-robin on `run_on`'s cores and simulated there.
///
/// With the same machine on both sides this is [`evaluate`]: no schedule is
/// folded. The returned mappings hold the folded schedules, so a caller
/// checks them against `run_on`, the machine they execute on.
///
/// # Errors
///
/// Same as [`evaluate`].
pub fn evaluate_ported(
    program: &Program,
    tuned_for: &Machine,
    run_on: &Machine,
    strategy: Strategy,
    params: &CtamParams,
) -> Result<EvalResult, PipelineError> {
    let mut trace = MulticoreTrace::new(run_on.n_cores());
    let mut mappings = Vec::new();
    for (nest_id, _) in program.nests() {
        let mut mapping = map_nest(program, nest_id, tuned_for, strategy, params)?;
        if run_on.n_cores() != tuned_for.n_cores() {
            mapping.schedule = fold_schedule(&mapping.schedule, run_on.n_cores())?;
        }
        if !mappings.is_empty() {
            trace.push_barrier_all();
        }
        append_schedule_trace(&mut trace, program, &mapping);
        mappings.push(mapping);
    }
    let report = Simulator::new(run_on).run(&trace)?;
    Ok(EvalResult { report, mappings })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use ctam_loopir::{ArrayRef, LoopNest};
    use ctam_poly::{AffineExpr, AffineMap, IntegerSet};
    use ctam_topology::catalog;

    /// A small 2D stencil program: B[i][j] = A[i][j] + A[i][j+1] + A[i+1][j].
    fn stencil(n: u64) -> Program {
        let mut p = Program::new("stencil");
        let a = p.add_array("A", &[n, n], 8);
        let b = p.add_array("B", &[n, n], 8);
        let d = IntegerSet::builder(2)
            .bounds(0, 0, n as i64 - 2)
            .bounds(1, 0, n as i64 - 2)
            .build();
        let sub = |di: i64, dj: i64| {
            AffineMap::new(
                2,
                vec![
                    AffineExpr::var(2, 0) + AffineExpr::constant(2, di),
                    AffineExpr::var(2, 1) + AffineExpr::constant(2, dj),
                ],
            )
        };
        p.add_nest(
            LoopNest::new("sweep", d)
                .with_ref(ArrayRef::write(b, sub(0, 0)))
                .with_ref(ArrayRef::read(a, sub(0, 0)))
                .with_ref(ArrayRef::read(a, sub(0, 1)))
                .with_ref(ArrayRef::read(a, sub(1, 0))),
        );
        p
    }

    #[test]
    fn all_strategies_execute_every_iteration() {
        let p = stencil(24);
        let m = catalog::harpertown();
        let params = CtamParams {
            block_bytes: Some(512),
            ..CtamParams::default()
        };
        let expected = 23 * 23 * 4; // iterations x refs
                                    // Every registered strategy except Optimal (which rejects large
                                    // instances by design; see optimal_errors_on_large_instances).
        for s in Strategy::ALL
            .into_iter()
            .filter(|&s| s != Strategy::Optimal)
        {
            let r = evaluate(&p, &m, s, &params).unwrap();
            assert_eq!(r.report.n_accesses(), expected, "{s}");
            assert!(r.cycles() > 0, "{s}");
        }
    }

    #[test]
    fn evaluation_is_deterministic() {
        let p = stencil(16);
        let m = catalog::dunnington();
        let params = CtamParams::default();
        let a = evaluate(&p, &m, Strategy::Combined, &params).unwrap();
        let b = evaluate(&p, &m, Strategy::Combined, &params).unwrap();
        assert_eq!(a.cycles(), b.cycles());
    }

    #[test]
    fn topology_aware_beats_base_on_sharing_heavy_kernel() {
        // A kernel whose iteration pairs share blocks in a pattern that
        // punishes naive contiguous distribution: iterations i and i + n/2
        // read the same row.
        let n: u64 = 64;
        let mut p = Program::new("pairs");
        let a = p.add_array("A", &[n / 2, 64], 8);
        let d = IntegerSet::builder(1).bounds(0, 0, n as i64 - 1).build();
        // Iteration i touches row i mod n/2: the two halves alias.
        let mut nest = LoopNest::new("alias", d);
        for col in 0..24 {
            // row = i mod 32 is not affine; emulate with an indirect table.
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
        let base = evaluate(&p, &m, Strategy::Base, &params).unwrap().cycles();
        let topo = evaluate(&p, &m, Strategy::TopologyAware, &params)
            .unwrap()
            .cycles();
        assert!(
            topo <= base,
            "topology-aware ({topo}) should not lose to base ({base})"
        );
    }

    #[test]
    fn multi_nest_programs_get_barriers_between_nests() {
        let mut p = stencil(12);
        // Second nest over the same arrays.
        let d = IntegerSet::builder(1).bounds(0, 0, 63).build();
        let a0 = p.arrays().next().unwrap().0;
        // A is 2-D: sweep its first row.
        p.add_nest(LoopNest::new("second", d).with_ref(ArrayRef::read(
            a0,
            AffineMap::new(1, vec![AffineExpr::constant(1, 0), AffineExpr::var(1, 0)]),
        )));
        let m = catalog::harpertown();
        let r = evaluate(&p, &m, Strategy::Base, &CtamParams::default()).unwrap();
        assert_eq!(r.mappings.len(), 2);
    }

    #[test]
    fn ported_version_runs_on_foreign_core_count() {
        let p = stencil(20);
        let dun = catalog::dunnington(); // 12 cores
        let harp = catalog::harpertown(); // 8 cores
        let params = CtamParams::default();
        let r = evaluate_ported(&p, &dun, &harp, Strategy::TopologyAware, &params).unwrap();
        assert_eq!(r.report.per_core_cycles().len(), 8);
        assert_eq!(r.report.n_accesses(), 19 * 19 * 4);
        // Porting onto the same machine is native evaluation: the same
        // simulated report and the same mappings.
        let native = evaluate(&p, &dun, Strategy::TopologyAware, &params).unwrap();
        let self_port = evaluate_ported(&p, &dun, &dun, Strategy::TopologyAware, &params).unwrap();
        assert_eq!(native.report, self_port.report);
        assert_eq!(native.mappings, self_port.mappings);
    }

    #[test]
    fn ported_schedules_preserve_barrier_structure() {
        // A nest with cross-core dependencies keeps its rounds when folded
        // onto a machine with fewer cores.
        let n: u64 = 24;
        let mut p = Program::new("chain2d");
        let a = p.add_array("A", &[n, n], 8);
        let d = IntegerSet::builder(2)
            .bounds(0, 1, n as i64 - 1)
            .bounds(1, 0, n as i64 - 1)
            .build();
        let read_up = AffineMap::new(
            2,
            vec![
                AffineExpr::var(2, 0) - AffineExpr::constant(2, 1),
                AffineExpr::var(2, 1),
            ],
        );
        p.add_nest(
            LoopNest::new("rows", d)
                .with_ref(ArrayRef::write(a, AffineMap::identity(2)))
                .with_ref(ArrayRef::read(a, read_up)),
        );
        let dun = catalog::dunnington();
        let harp = catalog::harpertown();
        let params = CtamParams::default();
        let native = evaluate(&p, &dun, Strategy::Combined, &params).unwrap();
        let ported = evaluate_ported(&p, &dun, &harp, Strategy::Combined, &params).unwrap();
        let native_rounds = native.mappings[0].schedule.n_rounds();
        let ported_rounds = ported.mappings[0].schedule.n_rounds();
        assert_eq!(native_rounds, ported_rounds, "folding must keep rounds");
        assert_eq!(ported.mappings[0].schedule.n_cores(), 8);
        assert_eq!(ported.report.n_accesses(), (n - 1) * n * 2);
    }

    /// Verifies every mapping of `result` against `run_on`, the machine it
    /// executes on, and has the independent checker judge the wire form of
    /// its certificate.
    fn assert_verified_and_certified(p: &Program, run_on: &Machine, result: &EvalResult) {
        for mapping in &result.mappings {
            let diags = verify::verify_mapping(p, run_on, mapping, &mapping.schedule);
            assert!(verify::is_clean(&diags), "{diags:?}");
            let cert = verify::certificate_for(p, run_on, mapping);
            let parsed = ctam_cert::Certificate::from_json(&cert.to_json()).unwrap();
            ctam_cert::check_certificate(&parsed).unwrap();
        }
    }

    #[test]
    fn certified_pipeline_accepts_its_own_mappings() {
        let p = stencil(16);
        let m = catalog::harpertown();
        let params = CtamParams::default();
        for s in [Strategy::Base, Strategy::TopologyAware, Strategy::Combined] {
            let r = evaluate(&p, &m, s, &params).unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_verified_and_certified(&p, &m, &r);
        }
        // The folded schedules of a ported run are checked on their host.
        let dun = catalog::dunnington();
        let r = evaluate_ported(&p, &dun, &m, Strategy::Combined, &params).unwrap();
        assert_verified_and_certified(&p, &m, &r);
    }

    #[test]
    fn certificates_mirror_the_verifier_verdict() {
        let p = stencil(12);
        let m = catalog::harpertown();
        let mapping = map_nest(
            &p,
            p.nests().next().unwrap().0,
            &m,
            Strategy::Combined,
            &CtamParams::default(),
        )
        .unwrap();
        let cert = verify::certificate_for(&p, &m, &mapping);
        // The stencil is all-affine with uniform dependences: the verifier
        // proves race freedom symbolically, and so must the certificate.
        assert_eq!(cert.verdict, ctam_cert::Verdict::SymbolicProof);
        let stats = ctam_cert::check_certificate(&cert).unwrap();
        assert_eq!(stats.n_points, 11 * 11);
        // And the JSON round-trip is the identity on the emitted object.
        let parsed = ctam_cert::Certificate::from_json(&cert.to_json()).unwrap();
        assert_eq!(parsed, cert);
    }

    #[test]
    fn optimal_errors_on_large_instances() {
        let p = stencil(32);
        let m = catalog::harpertown();
        let params = CtamParams {
            block_bytes: Some(64), // tiny blocks -> many groups
            ..CtamParams::default()
        };
        let r = evaluate(&p, &m, Strategy::Optimal, &params);
        assert!(matches!(r, Err(PipelineError::Optimal(_))));
    }
}
