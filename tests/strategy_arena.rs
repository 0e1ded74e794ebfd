//! The strategy arena's registry-wide guarantees.
//!
//! Every backend registered in [`Strategy::ALL`] — the paper's six plus
//! the PCOT-style cache-oblivious tiler and the TreeMatch-style
//! topology matcher — must:
//!
//! * produce a mapping that `ctam::verify::verify_mapping` finds clean
//!   (coverage, dependences, races, structure) on every commercial-catalog
//!   machine and on lint-clean zoo machines, for every registry workload;
//! * keep the advisor's interference ranking weakly monotone against
//!   simulated misses (the `advisor_differential` margins) — the arena's
//!   new contenders don't get to confuse the static advisor;
//! * go through [`MappingContext::measure_candidates`] without changing
//!   any winner: the candidate-measurement refactor is pinned against a
//!   hand-rolled reference loop on the registry grid.
//!
//! Set `CTAM_SIZE=test|small|ref` to change the workload size (default
//! `test`). By default each test runs a deterministic slice of its grid
//! sized for debug builds (like `CTAM_ZOO_MACHINES` bounds the zoo
//! sweep); `CTAM_ARENA_FULL=1` — set by the `strategy-arena` CI job,
//! which runs in release — expands every grid to the full registry ×
//! commercial catalog.

use std::collections::BTreeMap;

use ctam::cluster::{distribute, distribute_with, split_for_balance, LeafSplit};
use ctam::optimal::optimal_assignment;
use ctam::pipeline::{append_trace_for, evaluate, map_nest, CtamParams, Strategy};
use ctam::schedule::{schedule_dependence_only, Schedule};
use ctam::strategies::MappingContext;
use ctam::verify::{advise_mapping, is_clean, lint_topology, verify_mapping};
use ctam_bench::experiments::coarse_block_bytes;
use ctam_bench::runner::size_from_env;
use ctam_cachesim::trace::MulticoreTrace;
use ctam_cachesim::{SimScratch, Simulator};
use ctam_topology::{catalog, zoo, Machine};
use ctam_workloads::{all, by_name, SizeClass, Workload};

/// Margins of the `advisor_differential` weak-monotonicity predicate.
const PRED_MARGIN: f64 = 0.15;
const MISS_SLACK: f64 = 0.15;
const ABS_SLACK: f64 = 96.0;

/// `CTAM_ARENA_FULL=1` runs the complete grids; the default is a
/// deterministic debug-sized slice.
fn full_grid() -> bool {
    std::env::var("CTAM_ARENA_FULL").is_ok_and(|v| v == "1")
}

/// The grid's workload axis: the full registry under `CTAM_ARENA_FULL`,
/// otherwise a spread that covers the structural extremes — a dense
/// stencil (applu), the sharing-heavy red-black SpMV (cg) and the
/// group-heavy gather (bodytrack).
fn grid_workloads(size: SizeClass) -> Vec<Workload> {
    if full_grid() {
        all(size)
    } else {
        ["applu", "cg", "bodytrack"]
            .iter()
            .map(|n| by_name(n, size).expect("registry app"))
            .collect()
    }
}

/// The grid's machine axis: the whole commercial catalog under
/// `CTAM_ARENA_FULL`, otherwise the 8-core Harpertown (shallow, wide L2
/// sharing) and the 12-core Dunnington (deep, asymmetric-friendly).
fn grid_machines() -> Vec<Machine> {
    if full_grid() {
        catalog::commercial_machines()
    } else {
        vec![catalog::harpertown(), catalog::dunnington()]
    }
}

/// Parameters for one (workload, strategy) point: coarse blocks for
/// `Optimal` so its exponential search stays tractable (exactly how
/// Figure 20 shrank its ILP instances).
fn grid_params(w: &Workload, s: Strategy) -> CtamParams {
    CtamParams {
        block_bytes: (s == Strategy::Optimal).then(|| coarse_block_bytes(w, 14)),
        ..CtamParams::default()
    }
}

fn assert_verifies_clean(w: &Workload, machine: &Machine, s: Strategy) {
    let params = grid_params(w, s);
    for (nest, _) in w.program.nests() {
        let mapping = map_nest(&w.program, nest, machine, s, &params).unwrap_or_else(|e| {
            panic!(
                "{} nest {} on {} under {s} failed to map: {e}",
                w.name,
                nest.index(),
                machine.name()
            )
        });
        let diags = verify_mapping(&w.program, machine, &mapping, &mapping.schedule);
        assert!(
            is_clean(&diags),
            "{} nest {} on {} under {s} failed verification: {diags:?}",
            w.name,
            nest.index(),
            machine.name()
        );
        assert_eq!(
            mapping.schedule.total_iterations(),
            mapping.space.n_units(),
            "{} on {} under {s}: schedule must cover every mapping unit",
            w.name,
            machine.name()
        );
    }
}

/// Every registered strategy maps every grid workload, and verifies clean,
/// on every grid machine (full registry × commercial catalog under
/// `CTAM_ARENA_FULL`).
#[test]
fn registry_passes_verifier_gate_on_commercial_catalog() {
    let size = size_from_env();
    let machines = grid_machines();
    let workloads = grid_workloads(size);
    let mut cells = 0usize;
    for machine in &machines {
        for w in &workloads {
            for s in Strategy::ALL {
                assert_verifies_clean(w, machine, s);
                cells += 1;
            }
        }
    }
    assert_eq!(
        cells,
        machines.len() * workloads.len() * Strategy::ALL.len(),
        "the grid really ran"
    );
}

/// Every registered strategy survives machines it was never tuned on:
/// lint-clean zoo topologies (random arities, depths, capacities), each
/// also checked by the `CTAM-T5xx` machine linter.
#[test]
fn registry_passes_verifier_gate_on_zoo_machines() {
    let size = size_from_env();
    // A fixed-seed spread of lint-clean generated machines; the deeper
    // sanitizer sweep lives in tests/zoo_sanitizer.rs. The debug slice
    // bounds machine size (big random trees make debug simulation the
    // grid's dominant cost); the full grid uses the sanitizer's config.
    let (n_machines, cfg) = if full_grid() {
        (4, zoo::ZooConfig::default())
    } else {
        (
            2,
            zoo::ZooConfig {
                max_levels: 4,
                max_cores: 16,
            },
        )
    };
    let machines = zoo::zoo(0x0A_2E4A, n_machines, &cfg);
    let apps = grid_workloads(size);
    for machine in &machines {
        let lints = lint_topology(machine);
        assert!(is_clean(&lints), "{}: {lints:?}", machine.name());
        for w in &apps {
            for s in Strategy::ALL {
                assert_verifies_clean(w, machine, s);
            }
        }
    }
}

struct Column {
    strategy: Strategy,
    predicted: BTreeMap<u8, u64>,
    misses: BTreeMap<u8, u64>,
}

fn measure(w: &Workload, machine: &Machine, strategy: Strategy, params: &CtamParams) -> Column {
    let r = evaluate(&w.program, machine, strategy, params)
        .unwrap_or_else(|e| panic!("{} on {} under {strategy}: {e}", w.name, machine.name()));
    let mut predicted: BTreeMap<u8, u64> = BTreeMap::new();
    for m in &r.mappings {
        let report = advise_mapping(&w.program, machine, m, &m.schedule);
        for lp in &report.levels {
            *predicted.entry(lp.level).or_insert(0) += lp.interference();
        }
    }
    let misses = r.report.levels().map(|(l, s)| (l, s.misses)).collect();
    Column {
        strategy,
        predicted,
        misses,
    }
}

/// The advisor's per-level interference ranking stays weakly monotone
/// against simulated misses when the arena's new backends join the
/// comparison — same predicate and margins as `advisor_differential`,
/// which pins the paper's quartet.
#[test]
fn advisor_ranking_stays_monotone_for_arena_backends() {
    let size = size_from_env();
    let params = CtamParams::default();
    let strategies = [
        Strategy::Base,
        Strategy::TopologyAware,
        Strategy::Pcot,
        Strategy::TreeMatch,
    ];
    let mut confident = 0usize;
    let mut violations: Vec<String> = Vec::new();
    for machine in &grid_machines() {
        for w in &grid_workloads(size) {
            let columns: Vec<Column> = strategies
                .iter()
                .map(|&s| measure(w, machine, s, &params))
                .collect();
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
                                "{} on {} L{level}: pred {}={pa} < {}={pb}, misses {}={ma} > {}={mb}",
                                w.name,
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
    }
    assert!(
        violations.is_empty(),
        "{} disagreement(s) over {confident} confident comparisons:\n{}",
        violations.len(),
        violations.join("\n")
    );
    assert!(
        confident > 0,
        "the advisor never separated the arena backends — vacuous grid"
    );
}

/// Hand-rolled reference of the pre-refactor candidate loop: build each
/// candidate's schedule, trace + simulate it, keep the first strictly
/// fastest.
fn reference_best(
    cx: &MappingContext<'_>,
    machine: &Machine,
    candidates: Vec<Schedule>,
) -> Schedule {
    let sim = Simulator::new(machine);
    let mut scratch = SimScratch::default();
    let mut trace = MulticoreTrace::new(machine.n_cores());
    let mut best: Option<(Schedule, u64)> = None;
    for schedule in candidates {
        trace.clear();
        append_trace_for(&mut trace, cx.program, &cx.space, &schedule);
        let cycles = sim.run_with(&trace, &mut scratch).unwrap().total_cycles();
        if best.as_ref().is_none_or(|(_, c)| cycles < *c) {
            best = Some((schedule, cycles));
        }
    }
    best.expect("candidates were measured").0
}

/// `measure_candidates` picks exactly the winners the dedicated per-arm
/// loops picked before the refactor: for every grid workload on every
/// grid machine, `TopologyAware`'s mapping equals a hand-rolled
/// reference over the three leaf-split candidates.
#[test]
fn measure_candidates_pins_topology_aware_winners() {
    let size = size_from_env();
    let params = CtamParams::default();
    for machine in &grid_machines() {
        for w in &grid_workloads(size) {
            for (nest, _) in w.program.nests() {
                let mapping =
                    map_nest(&w.program, nest, machine, Strategy::TopologyAware, &params).unwrap();
                let cx = MappingContext::build(&w.program, nest, machine, &params);
                let groups = cx.condensed_groups();
                let candidates: Vec<Schedule> = [
                    LeafSplit::Separate,
                    LeafSplit::Interleave(1),
                    LeafSplit::Interleave(2),
                ]
                .into_iter()
                .map(|leaf| {
                    let a =
                        distribute_with(groups.clone(), machine, params.balance_threshold, leaf);
                    let (a, graph) = cx.acyclic(a);
                    schedule_dependence_only(a, &graph).unwrap()
                })
                .collect();
                let expected = reference_best(&cx, machine, candidates);
                assert_eq!(
                    mapping.schedule,
                    expected,
                    "{} nest {} on {}: winner changed",
                    w.name,
                    nest.index(),
                    machine.name()
                );
            }
        }
    }
}

/// Same pinning for `Optimal`'s model-vs-heuristic pair, where the
/// tie-break direction matters (the model-optimal candidate wins ties).
#[test]
fn measure_candidates_pins_optimal_winners() {
    let size = size_from_env();
    let machine = catalog::dunnington();
    for w in &grid_workloads(size) {
        let params = CtamParams {
            block_bytes: Some(coarse_block_bytes(w, 14)),
            ..CtamParams::default()
        };
        for (nest, _) in w.program.nests() {
            let mapping = map_nest(&w.program, nest, &machine, Strategy::Optimal, &params).unwrap();
            let cx = MappingContext::build(&w.program, nest, &machine, &params);
            let groups = cx.condensed_groups();
            let a_heur = distribute(groups.clone(), &machine, params.balance_threshold);
            let groups = split_for_balance(groups, machine.n_cores(), params.balance_threshold);
            let a_model = optimal_assignment(groups, &machine, params.balance_threshold).unwrap();
            let candidates: Vec<Schedule> = [a_model, a_heur]
                .into_iter()
                .map(|a| {
                    let (a, graph) = cx.acyclic(a);
                    schedule_dependence_only(a, &graph).unwrap()
                })
                .collect();
            let expected = reference_best(&cx, &machine, candidates);
            assert_eq!(
                mapping.schedule,
                expected,
                "{} nest {} on {}: Optimal winner changed",
                w.name,
                nest.index(),
                machine.name()
            );
        }
    }
}

/// Coarse wall-clock tripwire for the arena's cost story (the precise
/// comparison is the `strategy_cost` criterion group in `pass_overhead`):
/// PCOT — which reads no machine parameters and simulates nothing — must
/// map faster than `TopologyAware`, which measures three candidates in
/// the simulator.
#[test]
fn pcot_maps_cheaper_than_topology_aware() {
    let params = CtamParams::default();
    let machine = catalog::dunnington();
    let w = by_name("applu", SizeClass::Test).unwrap();
    let time = |s: Strategy| {
        let t0 = std::time::Instant::now();
        for (nest, _) in w.program.nests() {
            map_nest(&w.program, nest, &machine, s, &params).unwrap();
        }
        t0.elapsed()
    };
    // Warm up once so neither side pays one-time costs.
    let _ = time(Strategy::Pcot);
    let _ = time(Strategy::TopologyAware);
    let pcot = time(Strategy::Pcot);
    let topo = time(Strategy::TopologyAware);
    assert!(
        pcot < topo,
        "PCOT ({pcot:?}) must be cheaper than TopologyAware ({topo:?})"
    );
}
