//! Differential validation of the static advisor against the cache simulator.
//!
//! The advisor ([`ctam::verify::advise_mapping`]) predicts per-cache-level
//! interference (cold footprint + cross-core write conflicts + capacity
//! excess, in cache lines) from group tags, the topology tree and the
//! barrier-round structure alone — no simulation. This harness checks the
//! prediction is *useful*: over the full workload registry × commercial
//! machine catalog, the advisor's per-level interference ranking of the
//! paper's {Base, Base+, Local, TopologyAware} strategies must agree
//! with the simulated per-level miss counts, up to tolerance. (The
//! registry's remaining backends — `Strategy::ALL` minus this subset —
//! face the same predicate in `tests/strategy_arena.rs`.)
//!
//! The agreement predicate is weak monotonicity rather than exact rank
//! equality: when the advisor predicts strategy A to interfere *clearly*
//! less than strategy B at some level (by more than `PRED_MARGIN`), the
//! simulator must not charge A *clearly* more misses than B at that level
//! (by more than `MISS_SLACK`, plus a small absolute allowance for the
//! tiny test-size traces). Near-ties in either metric assert nothing —
//! the advisor is a static over-approximation and is not expected to
//! resolve them.
//!
//! Set `CTAM_SIZE=test|small|ref` to change the workload size
//! (default `test`; CI runs the full grid at `test`).

use std::collections::BTreeMap;

use ctam::pipeline::{evaluate, CtamParams, Strategy};
use ctam::verify::advise_mapping;
use ctam_bench::runner::size_from_env;
use ctam_topology::catalog;
use ctam_workloads::{all, SizeClass};

/// A predicted-interference gap below this fraction is a near-tie: the
/// pair asserts nothing.
const PRED_MARGIN: f64 = 0.15;
/// Relative slack allowed on the simulated side of a confident prediction.
const MISS_SLACK: f64 = 0.15;
/// Absolute slack in misses, for test-size traces where a handful of cold
/// misses is a large relative swing.
const ABS_SLACK: f64 = 96.0;

/// One (strategy) column of a workload × machine cell: the advisor's
/// summed per-level interference and the simulator's per-level misses.
struct Column {
    strategy: Strategy,
    predicted: BTreeMap<u8, u64>,
    misses: BTreeMap<u8, u64>,
}

fn measure(
    w: &ctam_workloads::Workload,
    machine: &ctam_topology::Machine,
    strategy: Strategy,
    params: &CtamParams,
) -> Column {
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

#[test]
fn advisor_interference_ranking_agrees_with_simulated_misses() {
    let size = size_from_env();
    let params = CtamParams::default();
    let quartet = [
        Strategy::Base,
        Strategy::BasePlus,
        Strategy::Local,
        Strategy::TopologyAware,
    ];

    let mut cells = 0usize;
    let mut confident = 0usize;
    let mut violations: Vec<String> = Vec::new();
    for machine in catalog::commercial_machines() {
        for w in all(size) {
            let columns: Vec<Column> = quartet
                .iter()
                .map(|&s| measure(&w, &machine, s, &params))
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
                        // Only confident predictions assert anything.
                        if (pa as f64) >= (pb as f64) * (1.0 - PRED_MARGIN) {
                            continue;
                        }
                        confident += 1;
                        if (ma as f64) > (mb as f64) * (1.0 + MISS_SLACK) + ABS_SLACK {
                            violations.push(format!(
                                "{} on {} L{level}: pred {}={pa} < {}={pb}, misses {}={ma} > {}={mb} (ratio {:.2})",
                                w.name,
                                machine.name(),
                                a.strategy,
                                b.strategy,
                                a.strategy,
                                b.strategy,
                                ma as f64 / mb as f64,
                            ));
                        }
                    }
                }
            }
            cells += 1;
        }
    }
    assert!(
        violations.is_empty(),
        "{} disagreement(s) over {confident} confident comparisons:\n{}",
        violations.len(),
        violations.join("\n")
    );
    // The grid really ran, and the advisor was confident somewhere — an
    // advisor that never separates strategies would pass vacuously.
    assert_eq!(cells, 3 * 12, "expected the full machine × workload grid");
    assert!(
        confident >= cells,
        "advisor separated strategies in only {confident} comparisons over {cells} cells"
    );
}

/// The advisor itself must be deterministic and cheap relative to the
/// pipeline: running it over every mapping of a cell must not dominate
/// the evaluation it advises on. (The precise <5% bound is enforced by
/// the `pass_overhead` criterion group; this is a coarse tripwire that
/// runs with the plain test suite.)
#[test]
fn advisor_is_cheaper_than_the_pipeline_it_advises() {
    let params = CtamParams::default();
    let machine = catalog::harpertown();
    let w = ctam_workloads::by_name("applu", SizeClass::Test).unwrap();

    let t0 = std::time::Instant::now();
    let r = evaluate(&w.program, &machine, Strategy::TopologyAware, &params).unwrap();
    let pipeline = t0.elapsed();

    let t1 = std::time::Instant::now();
    for m in &r.mappings {
        let report = advise_mapping(&w.program, &machine, m, &m.schedule);
        assert!(!report.levels.is_empty());
    }
    let advisor = t1.elapsed();

    assert!(
        advisor < pipeline,
        "advisor took {advisor:?} vs {pipeline:?} for the whole pipeline"
    );
}
