//! Static verification of mappings and schedules.
//!
//! [`verify_mapping`] replays the paper's invariants over a finished
//! [`NestMapping`]/[`Schedule`] pair and reports violations as coded
//! [`Diagnostic`]s instead of panicking:
//!
//! * **coverage** (`CTAM-E001`/`E002`): the schedule executes every mapping
//!   unit of the iteration space exactly once (Section 3.3),
//! * **dependences** (`CTAM-E003`): every group-dependence edge is enforced
//!   by a barrier or by same-core program order (Section 3.5.3),
//! * **races** (`CTAM-E004`): no two cores touch the same element in the
//!   same barrier round with a write involved — proved symbolically from the
//!   dependence relations where possible (`CTAM-N301`, or `CTAM-N303` when
//!   index-array facts carried the dependence summary of an irregular
//!   nest), by element enumeration otherwise (`CTAM-N302`, with one
//!   `CTAM-W204` per indirect pair whose verdict rests on the concrete
//!   index tables),
//! * **structure** (`CTAM-W101`–`W103`): load balance within the Figure 6
//!   threshold, core fan-out matching the machine, stored tags covering the
//!   recomputed block footprints,
//! * **subscript lints** (`CTAM-W201`–`W203`): bounds, affinity, and
//!   coupled-subscript checks over the nest's array references (see
//!   [`ctam_loopir::lint`]),
//! * **topology lints** (`CTAM-T501`–`T507`): the [`toplint`] machine
//!   linter — capacity inversions, asymmetric arities, implausible
//!   latencies, coverage gaps, degenerate hierarchies. These judge the
//!   *machine*, not the schedule, so [`lint_topology`] runs them once per
//!   machine, and [`lint_shared_cpu_maps`] applies the laminarity check to
//!   raw sysfs-style `(level, shared_cpu_map)` masks before any tree exists.
//!
//! Every check is a call on what the pipeline returns, never a mode of it:
//! [`verify_mapping`] per mapping, [`lint_topology`] per machine,
//! [`certificate_for`] plus [`ctam_cert::check_certificate`] per mapping for
//! an independent opinion, and [`advise_mapping`] for predictions. A ported
//! run's mappings hold their folded schedules, so they are checked against
//! the machine they run on.
//!
//! The checks are pure: they never mutate their inputs and never panic on
//! malformed schedules — a schedule referencing out-of-range units or cores
//! yields diagnostics, not aborts.
//!
//! The `CTAM-A4xx` band comes from the [`advisor`] ([`advise_mapping`]): a
//! static locality & interference analyzer that predicts per-cache-level
//! sharing, conflict, and capacity behaviour from group tags, the topology
//! tree, and the barrier-round structure alone — no simulation. Advisories
//! are predictions, not proofs (see [`advisor`] for the soundness
//! caveats): they come only from a direct [`advise_mapping`] call and never
//! make a mapping unclean.
//!
//! # Diagnostic codes
//!
//! | code | name | severity | invariant |
//! |------|------|----------|-----------|
//! | `CTAM-E001` | `IterationUnmapped` | error | every mapping unit is scheduled (Section 3.3) |
//! | `CTAM-E002` | `IterationDoubleMapped` | error | no unit is scheduled twice (Section 3.3) |
//! | `CTAM-E003` | `DependenceViolation` | error | every group-dependence edge has its source in an earlier round, or in the same round on the same core at an earlier position (Section 3.5.3) |
//! | `CTAM-E004` | `RaceOnBlock` | error | no two cores touch the same array element in one round with a write involved (element granularity: block granularity would flag the legitimate false sharing of `Base` schedules) |
//! | `CTAM-W101` | `BalanceThresholdExceeded` | warning | per-core load within the Figure 6 threshold, with slack for one unsplittable group |
//! | `CTAM-W102` | `DegreeMismatch` | warning | schedule fan-out matches the machine's core count |
//! | `CTAM-W103` | `TagMismatch` | warning | stored group tags cover recomputed block footprints (a subset rule: load-balance splits and condensation legally leave stored ⊇ recomputed) |
//! | `CTAM-W201` | `SubscriptOutOfBounds` | warning | affine subscripts stay inside declared array extents (the trace builder clamps, so a violation is a modelling bug, not a crash) |
//! | `CTAM-W202` | `NonAffineSubscript` | warning | subscripts are affine or declared-indirect, so the dependence model is exact |
//! | `CTAM-W203` | `CoupledSubscript` | warning | subscript rows use one loop variable each (cheap per-row screens apply; the conflict-set test still resolves coupled rows) |
//! | `CTAM-W204` | `UnprovableIndirectPair` | warning | an indirect pair resisted every index-fact screen; its race verdict holds for the concrete tables only |
//! | `CTAM-A401` | `PredictedFalseSharing` | advice | no two cores write blocks sharing a cache line in one round |
//! | `CTAM-A402` | `AffinityLoss` | advice | the distribution keeps the strongest-sharing group pairs under one cache |
//! | `CTAM-A403` | `ReuseStarvedSchedule` | advice | the schedule achieves a healthy fraction of the Figure 7 reuse bound |
//! | `CTAM-A404` | `DeadTagBits` | advice | every tag bit (data block) is claimed by some group |
//! | `CTAM-N301` | `SymbolicRaceProof` | note | race freedom was proved from dependence relations, without enumeration |
//! | `CTAM-N302` | `RaceCheckEnumerated` | note | the symbolic proof was unavailable or inconclusive; the race check fell back to element-access enumeration |
//! | `CTAM-N303` | `IndexFactRaceProof` | note | race freedom was proved symbolically with index-array facts (range / injectivity / band screens) carrying the dependence summary, with zero enumerated pairs |
//! | `CTAM-T501` | `TopoCapacityInversion` | error | cache capacities grow outward (inclusion can hold) |
//! | `CTAM-T502` | `TopoAsymmetricArity` | warning | same-level siblings fan out alike; no cache/core child mixing |
//! | `CTAM-T503` | `TopoLineShrink` | warning | line sizes do not shrink outward |
//! | `CTAM-T504` | `TopoImplausibleLatency` | error | latencies are nonzero and grow with distance, below memory |
//! | `CTAM-T505` | `TopoLevelCoverageGap` | warning | every core's lookup path visits every level |
//! | `CTAM-T506` | `TopoNonLaminarSharing` | error | `shared_cpu_map` domains nest or are disjoint |
//! | `CTAM-T507` | `TopoDegenerateTree` | warning | the hierarchy has ≥2 cores, caches, and a shared level |
//!
//! A separate `CTAM-C6xx` band belongs to the **independent certificate
//! checker** ([`ctam_cert::check_certificate`]): [`certificate_for`] emits a
//! proof-carrying [`ctam_cert::Certificate`] for a mapping, and the checker
//! — a leaf crate that shares no code with the analyzer — re-validates
//! every obligation from the certificate's plain data alone.
//! Its rejections are [`ctam_cert::Rejection`] values, not [`Diagnostic`]s,
//! because they judge the certificate (and hence the toolchain), not the
//! schedule:
//!
//! | code | name | rejected obligation |
//! |------|------|---------------------|
//! | `CTAM-C601` | `Malformed` | shape errors: wrong arity, unbounded or oversized domain, dangling indices |
//! | `CTAM-C602` | `Coverage` | the claimed units do not partition the re-enumerated domain, or a unit is dropped/duplicated |
//! | `CTAM-C603` | `Placement` | a dependence or conflicting element pair crosses cores within a round |
//! | `CTAM-C604` | `Witness` | a claimed distance has no valid realizability witness |
//! | `CTAM-C605` | `Recheck` | re-derived conflict distances disagree with the claimed set |
//! | `CTAM-C606` | `IndexFacts` | claimed index-table facts do not hold for the table values (bands must be tight) |
//! | `CTAM-C607` | `PairCoverage` | the per-pair dispositions miss a same-array pair with a write, or the merged distance set is wrong |
//! | `CTAM-C608` | `Structure` | schedule/machine structure mismatch: out-of-range cores or units, subscripts leaving declared extents |
//! | `CTAM-C609` | `VerdictMismatch` | the claimed verdict is not the one the evidence supports |
//!
//! # Example
//!
//! ```
//! use ctam::pipeline::{map_nest, CtamParams, Strategy};
//! use ctam::verify::{is_clean, verify_mapping};
//! use ctam_loopir::{ArrayRef, LoopNest, Program};
//! use ctam_poly::{AffineMap, IntegerSet};
//! use ctam_topology::catalog;
//!
//! let mut program = Program::new("quickstart");
//! let a = program.add_array("A", &[1024], 8);
//! let domain = IntegerSet::builder(1).bounds(0, 0, 1023).build();
//! let nest = program.add_nest(
//!     LoopNest::new("touch", domain).with_ref(ArrayRef::read(a, AffineMap::identity(1))),
//! );
//! let machine = catalog::dunnington();
//! let mapping =
//!     map_nest(&program, nest, &machine, Strategy::Combined, &CtamParams::default()).unwrap();
//! let diags = verify_mapping(&program, &machine, &mapping, &mapping.schedule);
//! assert!(is_clean(&diags));
//! ```

pub mod advisor;
pub mod cert;
pub mod diag;
pub mod toplint;

mod coverage;
mod deps;
mod lints;
mod races;
mod structure;

pub use advisor::{advise_mapping, AdvisorReport, LevelPrediction, ReuseScore};
pub use cert::certificate_for;
pub use diag::{render_json, Code, Diagnostic, Severity};
pub use toplint::{lint_shared_cpu_maps, lint_topology};

use ctam_loopir::Program;
use ctam_topology::Machine;

use crate::blocks::BlockMap;
use crate::group::IterationGroup;
use crate::pipeline::NestMapping;
use crate::schedule::Schedule;

/// Tuning knobs of the verifier.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyOptions {
    /// Load-balance threshold for `CTAM-W101` (same meaning as
    /// [`crate::pipeline::CtamParams::balance_threshold`]).
    pub balance_threshold: f64,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        Self {
            balance_threshold: 0.10,
        }
    }
}

/// A schedule flattened to `(round, core, position)`-indexed groups: the
/// coordinate system every check and every diagnostic agrees on. Flat group
/// ids number the groups in that iteration order.
pub(crate) struct FlatSchedule<'a> {
    /// `(round, core, position, group)` per flat id.
    pub entries: Vec<(usize, usize, usize, &'a IterationGroup)>,
}

impl<'a> FlatSchedule<'a> {
    pub(crate) fn new(schedule: &'a Schedule) -> Self {
        let mut entries = Vec::new();
        for (r, round) in schedule.rounds().iter().enumerate() {
            for (c, groups) in round.iter().enumerate() {
                for (p, g) in groups.iter().enumerate() {
                    entries.push((r, c, p, g));
                }
            }
        }
        Self { entries }
    }

    /// The groups in flat order (cloned — the dependence graph builder takes
    /// an owned slice).
    pub(crate) fn groups(&self) -> Vec<IterationGroup> {
        self.entries.iter().map(|&(_, _, _, g)| g.clone()).collect()
    }
}

/// Verifies `schedule` against the mapping it came from (or a mutated
/// variant of it, which is how the mutation tests and the
/// `verify_mapping` example drive it), using default [`VerifyOptions`].
///
/// The schedule is passed separately from `mapping` so a corrupted copy can
/// be checked against the original mapping's iteration space and block
/// size; pass `&mapping.schedule` to verify the mapping as produced.
///
/// Returns all findings, errors first; an empty vector means the schedule
/// upholds every checked invariant.
pub fn verify_mapping(
    program: &Program,
    machine: &Machine,
    mapping: &NestMapping,
    schedule: &Schedule,
) -> Vec<Diagnostic> {
    verify_mapping_with(
        program,
        machine,
        mapping,
        schedule,
        &VerifyOptions::default(),
    )
}

/// [`verify_mapping`] with explicit [`VerifyOptions`].
pub fn verify_mapping_with(
    program: &Program,
    machine: &Machine,
    mapping: &NestMapping,
    schedule: &Schedule,
    options: &VerifyOptions,
) -> Vec<Diagnostic> {
    let nest = mapping.space.nest().index();
    let flat = FlatSchedule::new(schedule);
    let blocks = BlockMap::new(program, mapping.block_bytes);

    // The verifier derives its own dependence summary (it must not trust the
    // pass that produced the mapping), once, shared by the dependence and
    // race checks.
    let analysis = ctam_loopir::dependence::analyze_nest(program, mapping.space.nest());

    let mut diags = Vec::new();
    coverage::check(&mapping.space, &flat, nest, &mut diags);
    let coverage_clean = diags.is_empty();
    deps::check(&analysis.info, &mapping.space, &flat, nest, &mut diags);
    // The symbolic race proof rests on unit placement, which a schedule that
    // drops or duplicates units invalidates: only attempt it over clean
    // coverage, and fall back to element enumeration otherwise.
    let symbolic = if !coverage_clean {
        races::SymbolicRaces::Off
    } else if analysis.enumeration_free() {
        races::SymbolicRaces::From {
            dep: &analysis.info,
            index_facts: analysis.pairs.iter().any(|p| p.method.uses_index_facts()),
        }
    } else {
        // Enumerated pairs with an indirect subscript involved are the ones
        // whose verdicts hinge on the concrete index tables: one `CTAM-W204`
        // each so the consumer knows the proof does not generalise.
        let refs = program.nest(mapping.space.nest()).refs();
        let indirect = |r: usize| {
            matches!(
                refs.get(r).map(|rf| rf.subscript()),
                Some(ctam_loopir::Subscript::Indirect { .. })
            )
        };
        races::SymbolicRaces::Unavailable {
            indirect_pairs: analysis
                .pairs
                .iter()
                .filter(|p| {
                    p.method == ctam_loopir::PairMethod::Enumerated
                        && (indirect(p.ref_a) || indirect(p.ref_b))
                })
                .map(|p| (p.ref_a, p.ref_b))
                .collect(),
        }
    };
    races::check(
        program,
        &mapping.space,
        &blocks,
        &flat,
        nest,
        symbolic,
        &mut diags,
    );
    structure::check(
        machine,
        schedule,
        &mapping.space,
        &blocks,
        &flat,
        nest,
        options.balance_threshold,
        &mut diags,
    );
    lints::check(program, mapping.space.nest(), &mut diags);

    // Errors first, then the canonical total order within a severity — the
    // result no longer depends on the emission order of any check.
    diag::sort_diagnostics(&mut diags);
    diags
}

/// True if `diags` contains no error-severity finding.
pub fn is_clean(diags: &[Diagnostic]) -> bool {
    diags.iter().all(|d| d.severity() != Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{map_nest, CtamParams, Strategy};
    use ctam_loopir::{ArrayRef, LoopNest};
    use ctam_poly::{AffineExpr, AffineMap, IntegerSet};
    use ctam_topology::catalog;

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
    fn pipeline_outputs_verify_clean() {
        let p = stencil(16);
        let m = catalog::harpertown();
        let params = CtamParams {
            block_bytes: Some(512),
            ..CtamParams::default()
        };
        let (nest, _) = p.nests().next().unwrap();
        for s in [
            Strategy::Base,
            Strategy::BasePlus,
            Strategy::Local,
            Strategy::TopologyAware,
            Strategy::Combined,
        ] {
            let mapping = map_nest(&p, nest, &m, s, &params).unwrap();
            let diags = verify_mapping(&p, &m, &mapping, &mapping.schedule);
            assert!(
                is_clean(&diags),
                "{s}: {:?}",
                diags.iter().map(ToString::to_string).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn dropped_iteration_is_unmapped() {
        let p = stencil(12);
        let m = catalog::harpertown();
        let (nest, _) = p.nests().next().unwrap();
        let mapping = map_nest(&p, nest, &m, Strategy::Base, &CtamParams::default()).unwrap();
        // Drop the first group of the first non-empty core.
        let mut rounds: Vec<Vec<Vec<IterationGroup>>> = mapping.schedule.rounds().to_vec();
        'outer: for round in &mut rounds {
            for core in round.iter_mut() {
                if !core.is_empty() {
                    core.remove(0);
                    break 'outer;
                }
            }
        }
        let corrupted = Schedule::from_rounds(rounds, mapping.schedule.n_cores()).unwrap();
        let diags = verify_mapping(&p, &m, &mapping, &corrupted);
        assert!(
            diags.iter().any(|d| d.code() == Code::IterationUnmapped),
            "{diags:?}"
        );
    }

    #[test]
    fn imbalanced_schedule_reports_load_threshold_and_core() {
        let p = stencil(16);
        let m = catalog::harpertown();
        let (nest, _) = p.nests().next().unwrap();
        let mapping = map_nest(&p, nest, &m, Strategy::Base, &CtamParams::default()).unwrap();
        // Pile every group of every round onto core 0: unless core 0 holds a
        // single group, the imbalance cannot be blamed on one atomic group.
        let rounds: Vec<Vec<Vec<IterationGroup>>> = mapping
            .schedule
            .rounds()
            .iter()
            .map(|round| {
                let mut piled = vec![Vec::new(); round.len()];
                piled[0] = round.iter().flatten().cloned().collect();
                piled
            })
            .collect();
        let total: usize = rounds.iter().flatten().flatten().map(|g| g.size()).sum();
        let corrupted = Schedule::from_rounds(rounds, mapping.schedule.n_cores()).unwrap();
        let diags = verify_mapping(&p, &m, &mapping, &corrupted);
        let w101: Vec<_> = diags
            .iter()
            .filter(|d| d.code() == Code::BalanceThresholdExceeded)
            .collect();
        assert_eq!(w101.len(), 1, "{diags:?}");
        let d = w101[0];
        // The message carries the payload a consumer needs: the offending
        // core, its actual load, and the threshold that it broke.
        assert_eq!(d.core(), Some(0));
        assert!(
            d.message().contains(&format!("core 0 load is {total}")),
            "{}",
            d.message()
        );
        assert!(
            d.message().contains("10% balance threshold"),
            "{}",
            d.message()
        );
    }

    #[test]
    fn foreign_core_count_is_a_degree_mismatch_warning() {
        let p = stencil(12);
        let (nest, _) = p.nests().next().unwrap();
        let m = catalog::dunnington();
        let mapping = map_nest(&p, nest, &m, Strategy::Base, &CtamParams::default()).unwrap();
        // Checked against a machine with another core count: warning-only.
        let diags = verify_mapping(&p, &catalog::harpertown(), &mapping, &mapping.schedule);
        assert!(is_clean(&diags), "{diags:?}");
        assert!(
            diags.iter().any(|d| d.code() == Code::DegreeMismatch),
            "{diags:?}"
        );
    }

    #[test]
    fn duplicated_group_is_double_mapped() {
        let p = stencil(12);
        let m = catalog::harpertown();
        let (nest, _) = p.nests().next().unwrap();
        let mapping = map_nest(&p, nest, &m, Strategy::Base, &CtamParams::default()).unwrap();
        let mut rounds: Vec<Vec<Vec<IterationGroup>>> = mapping.schedule.rounds().to_vec();
        let dup = rounds[0]
            .iter()
            .flat_map(|c| c.iter())
            .next()
            .unwrap()
            .clone();
        rounds[0][0].push(dup);
        let corrupted = Schedule::from_rounds(rounds, mapping.schedule.n_cores()).unwrap();
        let diags = verify_mapping(&p, &m, &mapping, &corrupted);
        assert!(
            diags
                .iter()
                .any(|d| d.code() == Code::IterationDoubleMapped),
            "{diags:?}"
        );
    }
}
