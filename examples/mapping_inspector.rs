//! Inspect *why* a mapping is good: static quality metrics (replication,
//! sharing cost, balance) for Base vs TopologyAware on one workload,
//! alongside the simulated outcome.
//!
//! Run with `cargo run --release --example mapping_inspector [workload]`.

use ctam::blocks::BlockMap;
use ctam::cluster::distribute;
use ctam::group::group_iterations;
use ctam::metrics::MappingMetrics;
use ctam::pipeline::{evaluate, CtamParams, Strategy};
use ctam::space::IterationSpace;
use ctam_loopir::dependence;
use ctam_topology::catalog;
use ctam_workloads::{by_name, SizeClass};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "povray".into());
    let w = by_name(&name, SizeClass::Test).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let machine = catalog::dunnington();
    println!("{} on {}\n", w.name, machine.name());

    let (nest, _) = w.program.nests().next().expect("workloads have nests");
    let dep = dependence::analyze_nest(&w.program, nest).info;
    let depth = w.program.nest(nest).depth();
    let prefix = dep
        .outermost_parallel()
        .map_or(depth, |l| (l + 1).min(depth));
    let space = IterationSpace::build_units(&w.program, nest, prefix);
    let blocks = BlockMap::new(&w.program, 2048);
    let groups = group_iterations(&space, &blocks);
    println!(
        "{} units, {} blocks, {} iteration groups",
        space.n_units(),
        blocks.n_blocks(),
        groups.len()
    );

    // Static view: Base's contiguous chunks vs topology-aware distribution.
    let base = ctam::baselines::base_assignment(&space, &blocks, machine.n_cores());
    let topo = distribute(groups, &machine, 0.10);
    println!(
        "\nBase chunks:\n{}",
        MappingMetrics::compute(&base, &machine)
    );
    println!(
        "TopologyAware:\n{}",
        MappingMetrics::compute(&topo, &machine)
    );

    // Dynamic view: the simulated outcome.
    let params = CtamParams::default();
    let rb = evaluate(&w.program, &machine, Strategy::Base, &params)?;
    let rt = evaluate(&w.program, &machine, Strategy::TopologyAware, &params)?;
    println!(
        "simulated: Base {} cycles, TopologyAware {} cycles ({:+.1}%)",
        rb.cycles(),
        rt.cycles(),
        100.0 * (rt.cycles() as f64 / rb.cycles() as f64 - 1.0)
    );

    Ok(())
}
