//! Property and mutation tests for the static verifier.
//!
//! Two directions:
//!
//! - **Soundness of the pipeline**: every mapping the pipeline produces —
//!   for the paper's twelve workloads and for random programs — verifies
//!   clean. This is the verifier's acceptance bar.
//! - **Sensitivity of the verifier**: specific hand-made corruptions of a
//!   known-good schedule trigger exactly the diagnostic codes they should
//!   (round swap → `CTAM-E003`, dropped group → `CTAM-E001`, duplicated
//!   group → `CTAM-E002`, tag bit cleared → `CTAM-W103`, same-round
//!   dependence → `CTAM-E003`).

use ctam::pipeline::{
    evaluate, map_nest, CtamParams, NestMapping, PipelineError, Strategy as MapStrategy,
};
use ctam::verify::{is_clean, verify_mapping, Code, Diagnostic, Severity};
use ctam::{IterationGroup, Schedule, Tag};
use ctam_loopir::{ArrayRef, LoopNest, Program};
use ctam_poly::{AffineExpr, AffineMap, IntegerSet};
use ctam_topology::{catalog, Machine};
use ctam_workloads::{all, SizeClass};
use proptest::prelude::*;

fn error_codes(diags: &[Diagnostic]) -> Vec<Code> {
    diags
        .iter()
        .filter(|d| d.severity() == Severity::Error)
        .map(|d| d.code())
        .collect()
}

/// Acceptance: every strategy's output on the full Table 2 suite (test
/// size) verifies with zero error-severity diagnostics. `Optimal` may
/// reject an instance as too large; that is not a verification failure.
///
/// Mappings are produced per nest with `map_nest` (not `evaluate`) so the
/// test pays for mapping + verification but not for simulating each full
/// program trace six times — the simulator is covered by its own suites.
#[test]
fn all_workloads_all_strategies_verify_clean() {
    let machine = catalog::harpertown();
    let params = CtamParams::default();
    for w in all(SizeClass::Test) {
        for strategy in MapStrategy::ALL {
            for (nest, _) in w.program.nests() {
                let mapping = match map_nest(&w.program, nest, &machine, strategy, &params) {
                    Ok(m) => m,
                    Err(PipelineError::Optimal(_)) if strategy == MapStrategy::Optimal => {
                        continue;
                    }
                    Err(e) => panic!("{}/{strategy} failed to map: {e}", w.name),
                };
                let diags = verify_mapping(&w.program, &machine, &mapping, &mapping.schedule);
                assert!(
                    error_codes(&diags).is_empty(),
                    "{}/{strategy} produced error diagnostics: {diags:?}",
                    w.name
                );
            }
        }
    }
}

/// Every mapping `evaluate` returns verifies clean (spot check — the
/// acceptance sweep above covers the full matrix).
#[test]
fn pipeline_self_verification_accepts_workloads() {
    let machine = catalog::dunnington();
    let params = CtamParams::default();
    for name in ["applu", "equake"] {
        let w = ctam_workloads::by_name(name, SizeClass::Test).unwrap();
        for strategy in [MapStrategy::Base, MapStrategy::Combined] {
            let r = evaluate(&w.program, &machine, strategy, &params)
                .unwrap_or_else(|e| panic!("{}/{strategy} failed: {e}", w.name));
            for m in &r.mappings {
                let diags = verify_mapping(&w.program, &machine, m, &m.schedule);
                assert!(
                    is_clean(&diags),
                    "{}/{strategy} rejected by verification: {diags:?}",
                    w.name
                );
            }
        }
    }
}

/// A row sweep with a carried dependence (`A[i][j] += A[i-1][j]`), whose
/// Combined schedule has several rounds — the substrate for the mutation
/// tests below.
fn chained_mapping() -> (Program, Machine, NestMapping) {
    let n: u64 = 24;
    let mut p = Program::new("chain");
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
    let machine = catalog::harpertown();
    let (nest, _) = p.nests().next().unwrap();
    let mapping = map_nest(
        &p,
        nest,
        &machine,
        MapStrategy::Combined,
        &CtamParams::default(),
    )
    .expect("chain maps");
    assert!(
        mapping.schedule.n_rounds() > 1,
        "mutation substrate needs multiple rounds"
    );
    (p, machine, mapping)
}

#[test]
fn swapping_rounds_is_a_dependence_violation() {
    let (p, m, mapping) = chained_mapping();
    let mut rounds = mapping.schedule.rounds().to_vec();
    let last = rounds.len() - 1;
    rounds.swap(0, last);
    let broken = Schedule::from_rounds(rounds, mapping.schedule.n_cores()).unwrap();
    let codes = error_codes(&verify_mapping(&p, &m, &mapping, &broken));
    assert!(
        codes.contains(&Code::DependenceViolation),
        "expected CTAM-E003, got {codes:?}"
    );
}

#[test]
fn dropping_a_group_is_an_unmapped_iteration() {
    let (p, m, mapping) = chained_mapping();
    let mut rounds = mapping.schedule.rounds().to_vec();
    'outer: for round in &mut rounds {
        for core in round.iter_mut() {
            if !core.is_empty() {
                core.remove(0);
                break 'outer;
            }
        }
    }
    let broken = Schedule::from_rounds(rounds, mapping.schedule.n_cores()).unwrap();
    let codes = error_codes(&verify_mapping(&p, &m, &mapping, &broken));
    assert!(
        codes.contains(&Code::IterationUnmapped),
        "expected CTAM-E001, got {codes:?}"
    );
}

#[test]
fn duplicating_a_group_is_a_double_mapping() {
    let (p, m, mapping) = chained_mapping();
    let mut rounds = mapping.schedule.rounds().to_vec();
    let n_cores = mapping.schedule.n_cores();
    let victim = rounds[0].iter().position(|c| !c.is_empty()).unwrap();
    let copy = rounds[0][victim][0].clone();
    rounds[0][(victim + 1) % n_cores].push(copy);
    let broken = Schedule::from_rounds(rounds, n_cores).unwrap();
    let codes = error_codes(&verify_mapping(&p, &m, &mapping, &broken));
    assert!(
        codes.contains(&Code::IterationDoubleMapped),
        "expected CTAM-E002, got {codes:?}"
    );
}

#[test]
fn same_round_cross_core_dependence_is_a_violation() {
    let (p, m, mapping) = chained_mapping();
    let mut rounds = mapping.schedule.rounds().to_vec();
    let n_cores = mapping.schedule.n_cores();
    // Hoist every group of round 1 into round 0 on the same core: the
    // round-0 → round-1 dependences now share a round across cores.
    assert!(rounds.len() > 1);
    let hoisted = rounds.remove(1);
    for (core, groups) in hoisted.into_iter().enumerate() {
        rounds[0][core].extend(groups);
    }
    let broken = Schedule::from_rounds(rounds, n_cores).unwrap();
    let codes = error_codes(&verify_mapping(&p, &m, &mapping, &broken));
    assert!(
        codes.contains(&Code::DependenceViolation),
        "expected CTAM-E003, got {codes:?}"
    );
}

#[test]
fn clearing_a_tag_bit_is_a_tag_mismatch() {
    let (p, m, mapping) = chained_mapping();
    let mut rounds = mapping.schedule.rounds().to_vec();
    // Find a group with a non-empty tag and clear its lowest set bit.
    'outer: for round in &mut rounds {
        for core in round.iter_mut() {
            for g in core.iter_mut() {
                let stripped = {
                    let tag = g.tag();
                    tag.iter_bits().next().map(|bit| {
                        Tag::from_bits(tag.n_bits(), tag.iter_bits().filter(|&b| b != bit))
                    })
                };
                if let Some(stripped) = stripped {
                    let iterations = g.iterations().to_vec();
                    *g = IterationGroup::new(stripped, iterations);
                    break 'outer;
                }
            }
        }
    }
    let broken = Schedule::from_rounds(rounds, mapping.schedule.n_cores()).unwrap();
    let diags = verify_mapping(&p, &m, &mapping, &broken);
    assert!(
        diags.iter().any(|d| d.code() == Code::TagMismatch),
        "expected CTAM-W103, got {diags:?}"
    );
    // A stale tag is a locality bug, not a correctness bug: warning only.
    assert!(error_codes(&diags).is_empty());
}

/// A random 1-D program: an output write plus reads at random constant
/// offsets, the same shape as the cross-crate property suite.
fn arb_program() -> impl Strategy<Value = Program> {
    (16u64..120, proptest::collection::vec(-4i64..=4, 1..4)).prop_map(|(n, offsets)| {
        let mut p = Program::new("prop");
        let a = p.add_array("A", &[n + 8], 8);
        let out = p.add_array("OUT", &[n], 8);
        let d = IntegerSet::builder(1).bounds(0, 0, n as i64 - 1).build();
        let mut nest = LoopNest::new("n", d).with_ref(ArrayRef::write(out, AffineMap::identity(1)));
        for off in offsets {
            nest = nest.with_ref(ArrayRef::read(
                a,
                AffineMap::new(
                    1,
                    vec![AffineExpr::var(1, 0) + AffineExpr::constant(1, off + 4)],
                ),
            ));
        }
        p.add_nest(nest);
        p
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every non-exact strategy's mapping of a random program verifies
    /// clean; machines alternate between the two catalog topologies so
    /// both are exercised across the run.
    #[test]
    fn random_programs_verify_clean(p in arb_program(), pick_machine in prop::bool::ANY) {
        let machine = if pick_machine {
            catalog::harpertown()
        } else {
            catalog::dunnington()
        };
        let params = CtamParams::default();
        for strategy in [
            MapStrategy::Base,
            MapStrategy::BasePlus,
            MapStrategy::Local,
            MapStrategy::TopologyAware,
            MapStrategy::Combined,
        ] {
            let r = evaluate(&p, &machine, strategy, &params)
                .expect("non-exact strategies always map");
            for m in &r.mappings {
                let diags = verify_mapping(&p, &machine, m, &m.schedule);
                prop_assert!(
                    is_clean(&diags),
                    "{strategy} on {}: {diags:?}",
                    machine.name()
                );
            }
        }
    }
}
