//! Dependence-aware scheduling (Sections 3.5.2–3.5.3) on a loop with
//! carried dependencies: analyze distances, group iterations, build the
//! group dependence graph, condense cycles, and produce a barrier-separated
//! round schedule.
//!
//! Run with `cargo run --release --example dependence_scheduling`.

use ctam::blocks::BlockMap;
use ctam::cluster::distribute;
use ctam::depgraph::{condense, GroupDepGraph};
use ctam::group::group_iterations;
use ctam::schedule::{flatten_assignment, schedule_local, ScheduleWeights};
use ctam::space::IterationSpace;
use ctam_loopir::{dependence, ArrayRef, LoopNest, Program};
use ctam_poly::{AffineExpr, AffineMap, IntegerSet};
use ctam_topology::catalog;

fn main() {
    // The Figure 5 kernel: B[j] = B[j] + B[j+2k] + B[j-2k], k = 8 — a loop
    // the paper uses to illustrate iteration groups; its +-2k references
    // carry dependencies across iterations.
    let k: i64 = 8;
    let m: i64 = 512;
    let mut program = Program::new("fig5");
    let b = program.add_array("B", &[m as u64], 8);
    let domain = IntegerSet::builder(1)
        .names(["j"])
        .bounds(0, 2 * k, m - 2 * k)
        .build();
    let sub = |off: i64| {
        AffineMap::new(
            1,
            vec![AffineExpr::var(1, 0) + AffineExpr::constant(1, off)],
        )
    };
    let nest = program.add_nest(
        LoopNest::new("fig5", domain)
            .with_ref(ArrayRef::write(b, sub(0)))
            .with_ref(ArrayRef::read(b, sub(0)))
            .with_ref(ArrayRef::read(b, sub(2 * k)))
            .with_ref(ArrayRef::read(b, sub(-2 * k))),
    );

    // 1. Dependence analysis.
    let dep = dependence::analyze_nest(&program, nest).info;
    println!("distance vectors: {:?}", dep.distances());
    println!("fully parallel: {}", dep.is_fully_parallel());

    // 2. Tagging and grouping (256-byte blocks keep the example readable).
    let space = IterationSpace::build(&program, nest);
    let blocks = BlockMap::new(&program, 256);
    let groups = group_iterations(&space, &blocks);
    println!(
        "\n{} iteration groups over {} blocks",
        groups.len(),
        blocks.n_blocks()
    );
    for g in groups.iter().take(4) {
        println!("  {:?} with {} iterations", g.tag(), g.size());
    }

    // 3. Cycle condensation, distribution, dependence-aware local schedule.
    let graph = GroupDepGraph::build(&groups, &space, &dep);
    let groups = condense(groups, &graph);
    let machine = catalog::harpertown();
    let assignment = distribute(groups, &machine, 0.10);
    let flat = flatten_assignment(&assignment);
    let graph = GroupDepGraph::build(&flat, &space, &dep);
    println!(
        "\ngroup dependence graph: {} nodes, acyclic: {}",
        graph.len(),
        graph.is_acyclic()
    );

    let schedule = schedule_local(assignment, &machine, &graph, ScheduleWeights::default())
        .expect("acyclic condensed graph schedules");
    println!(
        "schedule: {} rounds ({} barriers) across {} cores",
        schedule.n_rounds(),
        schedule.n_rounds().saturating_sub(1),
        schedule.n_cores()
    );
    for (r, round) in schedule.rounds().iter().enumerate().take(3) {
        let per_core: Vec<usize> = round.iter().map(|gs| gs.len()).collect();
        println!("  round {r}: groups per core = {per_core:?}");
    }
    println!("(barriers between rounds enforce every cross-core dependence)");
}
