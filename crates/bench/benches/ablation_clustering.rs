//! Ablation: which ingredients of the distribution algorithm matter?
//!
//! DESIGN.md calls out three design choices; this harness removes them one
//! at a time on Dunnington and reports geomean cycles normalized to Base:
//!
//! * `full` — the complete Figure 6 algorithm;
//! * `flat` — topology-blind clustering: partition straight into N
//!   per-core clusters at once, ignoring the cache tree (tests whether the
//!   *hierarchy* matters, not just grouping);
//! * `no-balance` — a huge balance threshold (tests the load balancer);
//! * `coarse-tags` — 16KB blocks instead of 2KB (tests tag resolution).
//!
//! The pipeline-backed variants go through the parallel engine
//! (`CTAM_JOBS` workers); the bespoke `flat` variant fans over
//! [`ctam_bench::parallel_map`], which preserves application order.

use ctam::cluster::{partition_groups, Assignment};
use ctam::depgraph::GroupDepGraph;
use ctam::pipeline::{append_schedule_trace, map_nest, CtamParams, Strategy};
use ctam::schedule::{flatten_assignment, schedule_dependence_only};
use ctam::strategies::MappingContext;
use ctam_bench::{parallel_map, Cell};
use ctam_cachesim::trace::MulticoreTrace;
use ctam_cachesim::Simulator;
use ctam_topology::{catalog, Machine};
use ctam_workloads::{all, SizeClass};

/// Cycles under a topology-*blind* one-shot partition into per-core sets,
/// at the paper's 2KB blocks.
fn flat_cycles(w: &ctam_workloads::Workload, machine: &Machine, sim: &Simulator) -> u64 {
    let params = CtamParams {
        block_bytes: Some(2048),
        ..CtamParams::default()
    };
    let n_cores = machine.n_cores();
    let mut trace = MulticoreTrace::new(n_cores);
    let mut first = true;
    for (nest, _) in w.program.nests() {
        let cx = MappingContext::build(&w.program, nest, machine, &params);
        let parts = partition_groups(
            cx.grouped_units(),
            &vec![1usize; n_cores],
            params.balance_threshold,
            cx.blocks.n_blocks(),
        );
        let assignment = Assignment::from_per_core(parts);
        let flat = flatten_assignment(&assignment);
        let graph = GroupDepGraph::build(&flat, &cx.space, &cx.dep);
        if !graph.is_acyclic() {
            return u64::MAX; // skip pathological cases
        }
        let Ok(schedule) = schedule_dependence_only(assignment, &graph) else {
            return u64::MAX;
        };
        let mapping = cx.finish(schedule, flat.len());
        if !first {
            trace.push_barrier_all();
        }
        append_schedule_trace(&mut trace, &w.program, &mapping);
        first = false;
    }
    sim.run(&trace)
        .expect("trace matches machine")
        .total_cycles()
}

fn main() {
    let size = ctam_bench::runner::size_from_env();
    let engine = ctam_bench::Engine::from_env();
    let machine = catalog::dunnington();
    let sim = Simulator::new(&machine);
    let apps = all(size);
    let defaults = CtamParams::default();
    let no_balance_p = CtamParams {
        balance_threshold: 10.0,
        ..CtamParams::default()
    };
    let coarse_p = CtamParams {
        block_bytes: Some(16 * 1024),
        ..CtamParams::default()
    };
    let mut cells: Vec<Cell> = Vec::new();
    for w in &apps {
        cells.push(Cell::native(w, &machine, Strategy::Base, &defaults));
        cells.push(Cell::native(
            w,
            &machine,
            Strategy::TopologyAware,
            &defaults,
        ));
        cells.push(Cell::native(
            w,
            &machine,
            Strategy::TopologyAware,
            &no_balance_p,
        ));
        cells.push(Cell::native(
            w,
            &machine,
            Strategy::TopologyAware,
            &coarse_p,
        ));
    }
    engine.prefetch(&cells);
    let flats = parallel_map(engine.jobs(), &apps, |w| flat_cycles(w, &machine, &sim));

    let mut fig = ctam_bench::FigureData::new(
        "Ablation (Dunnington)",
        "cycles normalized to Base: full algorithm vs ablated variants",
        vec![
            "full".into(),
            "flat".into(),
            "no-balance".into(),
            "coarse-tags".into(),
        ],
    );
    for (w, &flat) in apps.iter().zip(&flats) {
        let base =
            ctam_bench::runner::cycles(&engine, w, &machine, Strategy::Base, &defaults) as f64;
        let full =
            ctam_bench::runner::cycles(&engine, w, &machine, Strategy::TopologyAware, &defaults)
                as f64;
        let flat = if flat == u64::MAX {
            f64::NAN
        } else {
            flat as f64
        };
        let no_balance = ctam_bench::runner::cycles(
            &engine,
            w,
            &machine,
            Strategy::TopologyAware,
            &no_balance_p,
        ) as f64;
        let coarse =
            ctam_bench::runner::cycles(&engine, w, &machine, Strategy::TopologyAware, &coarse_p)
                as f64;
        fig.push_row(
            w.name,
            vec![full / base, flat / base, no_balance / base, coarse / base],
        );
    }
    fig.push_geomean();
    println!("{fig}");
    // Exercise map_nest to keep the public surface covered in this target.
    let w = &all(SizeClass::Test)[0];
    let (nest, _) = w.program.nests().next().unwrap();
    let m = map_nest(
        &w.program,
        nest,
        &machine,
        Strategy::TopologyAware,
        &CtamParams::default(),
    )
    .expect("mapping succeeds");
    let _ = m.block_bytes;
}
