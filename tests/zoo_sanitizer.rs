//! Differential sanitizer sweep over the random machine zoo.
//!
//! The zoo ([`ctam_topology::zoo`]) mass-produces lint-clean machines the
//! catalog never exercises: odd fan-outs, two-to-five-level hierarchies,
//! unusual line/latency ladders. This harness drives the whole stack over
//! hundreds of them and checks the properties that should hold on *any*
//! plausible machine, not just the paper's three:
//!
//! * the machine itself passes the `CTAM-T5xx` linter (generator contract),
//!   so a linter regression fails the very first machine,
//! * the pipeline maps on it, and every mapping verifies clean,
//! * the advisor's per-level interference ranking of Base vs TopologyAware
//!   stays weakly monotone against simulated misses (same predicate and
//!   margins as the catalog-wide `advisor_differential` harness),
//! * nothing panics anywhere along the way.
//!
//! Set `CTAM_ZOO_MACHINES` to change the sweep width (default 200; CI runs
//! 64 in release as part of the `topology-zoo` job).

use std::collections::BTreeMap;

use ctam::pipeline::{evaluate, evaluate_ported, map_nest, CtamParams, Strategy};
use ctam::verify::{advise_mapping, is_clean, lint_topology, verify_mapping};
use ctam_loopir::{ArrayRef, LoopNest, Program};
use ctam_poly::{AffineExpr, AffineMap, IntegerSet};
use ctam_topology::zoo::{self, Defect, ZooConfig};
use ctam_topology::Machine;

/// Fixed sweep seed: the CI reference and local runs see the same zoo.
const BASE_SEED: u64 = 0xC7A3_57A6;

/// Same confidence/slack margins as `advisor_differential`: a predicted gap
/// under `PRED_MARGIN` asserts nothing; a confident prediction tolerates
/// `MISS_SLACK` relative plus `ABS_SLACK` absolute simulated misses.
const PRED_MARGIN: f64 = 0.15;
const MISS_SLACK: f64 = 0.15;
const ABS_SLACK: f64 = 96.0;

fn sweep_width() -> usize {
    match std::env::var("CTAM_ZOO_MACHINES") {
        Ok(s) => s
            .parse()
            .unwrap_or_else(|_| panic!("CTAM_ZOO_MACHINES must be a number, got `{s}`")),
        Err(_) => 200,
    }
}

/// The sweep kernel: a small 2D stencil — enough sharing structure for the
/// mapper and advisor to have something to decide, small enough that a few
/// hundred machines stay cheap in debug builds.
fn stencil(n: u64) -> Program {
    let mut p = Program::new("zoo-stencil");
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

/// Per-strategy measurement: advisor interference and simulated misses,
/// both per cache level.
struct Column {
    strategy: Strategy,
    predicted: BTreeMap<u8, u64>,
    misses: BTreeMap<u8, u64>,
}

fn measure(p: &Program, machine: &Machine, strategy: Strategy, params: &CtamParams) -> Column {
    let r = evaluate(p, machine, strategy, params)
        .unwrap_or_else(|e| panic!("{} under {strategy}: {e}", machine.name()));
    let mut predicted: BTreeMap<u8, u64> = BTreeMap::new();
    for m in &r.mappings {
        let diags = verify_mapping(p, machine, m, &m.schedule);
        assert!(
            is_clean(&diags),
            "{} under {strategy}: {diags:?}",
            machine.name()
        );
        let report = advise_mapping(p, machine, m, &m.schedule);
        for lp in &report.levels {
            *predicted.entry(lp.level).or_insert(0) += lp.interference();
        }
    }
    Column {
        strategy,
        predicted,
        misses: r.report.levels().map(|(l, s)| (l, s.misses)).collect(),
    }
}

#[test]
fn zoo_sweep_maps_verifies_and_ranks_cleanly() {
    let n_machines = sweep_width();
    let cfg = ZooConfig::default();
    let p = stencil(12);
    // Every machine is linted once and every mapping verified (in
    // measure()); any finding fails the sweep.
    let params = CtamParams {
        block_bytes: Some(512),
        ..CtamParams::default()
    };

    let mut confident = 0usize;
    let mut violations: Vec<String> = Vec::new();
    for machine in zoo::zoo(BASE_SEED, n_machines, &cfg) {
        assert!(
            lint_topology(&machine).is_empty(),
            "{} left the generator unclean",
            machine.name()
        );
        let columns = [
            measure(&p, &machine, Strategy::Base, &params),
            measure(&p, &machine, Strategy::TopologyAware, &params),
        ];
        for a in &columns {
            for b in &columns {
                if a.strategy == b.strategy {
                    continue;
                }
                for (&level, &pa) in &a.predicted {
                    let Some(&pb) = b.predicted.get(&level) else {
                        continue;
                    };
                    let (Some(&ma), Some(&mb)) = (a.misses.get(&level), b.misses.get(&level))
                    else {
                        continue;
                    };
                    if (pa as f64) >= (pb as f64) * (1.0 - PRED_MARGIN) {
                        continue;
                    }
                    confident += 1;
                    if (ma as f64) > (mb as f64) * (1.0 + MISS_SLACK) + ABS_SLACK {
                        violations.push(format!(
                            "{} L{level}: pred {}={pa} < {}={pb}, misses {}={ma} > {}={mb}",
                            machine.name(),
                            a.strategy,
                            b.strategy,
                            a.strategy,
                            b.strategy,
                        ));
                    }
                }
            }
        }
    }
    assert!(
        violations.is_empty(),
        "{} ranking disagreement(s) over {confident} confident comparisons:\n{}",
        violations.len(),
        violations.join("\n")
    );
    // A sweep where the advisor never separated the strategies anywhere
    // would pass vacuously; demand some signal across the whole zoo.
    assert!(
        confident >= n_machines / 20,
        "advisor separated strategies only {confident} times over {n_machines} machines"
    );
}

/// A machine with an injected error-severity defect fails the linter with
/// its `CTAM-T5xx` code, and only the linter notices: the pipeline maps for
/// it and runs a ported version on it, and the mappings verify clean
/// (latency zero is nonsense for the cost model, but mapping verification
/// judges schedules, not machines). Linting the machine is the caller's
/// call.
#[test]
fn zero_latency_fails_the_lint_but_still_maps() {
    let p = stencil(12);
    let base = zoo::generate_clean(BASE_SEED, &ZooConfig::default());
    let broken = zoo::inject(&base, Defect::ZeroLatency);
    let lints = lint_topology(&broken);
    assert!(!is_clean(&lints), "{lints:?}");
    assert!(
        lints.iter().any(|d| d.code().id() == "CTAM-T504"),
        "{lints:?}"
    );

    let params = CtamParams::default();
    let (nest, _) = p.nests().next().unwrap();
    let native = map_nest(&p, nest, &broken, Strategy::Base, &params).unwrap();
    let ported = evaluate_ported(&p, &base, &broken, Strategy::Base, &params).unwrap();
    for m in std::iter::once(&native).chain(&ported.mappings) {
        let diags = verify_mapping(&p, &broken, m, &m.schedule);
        assert!(is_clean(&diags), "{diags:?}");
    }
}
