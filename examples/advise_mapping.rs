//! The static advisor, end to end: map a workload under several strategies
//! and print the `CTAM-A4xx` advisory band next to the per-level
//! interference predictions it derives from — group tags, topology tree and
//! barrier rounds only, no simulation anywhere.
//!
//! Output is deterministic for a given `CTAM_SIZE`; CI diffs it against
//! `ci/expected_advisor_ref.txt` at `CTAM_SIZE=ref`.
//!
//! Run with: `cargo run --release --example advise_mapping`
//! (set `CTAM_SIZE=test|small|ref` to change the workload size).

use ctam::pipeline::{map_nest, CtamParams, Strategy};
use ctam::verify::advise_mapping;
use ctam_topology::catalog;
use ctam_workloads::{by_name, SizeClass};

fn main() {
    let size = std::env::var("CTAM_SIZE").map_or(SizeClass::Reference, |v| {
        v.parse().unwrap_or_else(|e| panic!("CTAM_SIZE: {e}"))
    });
    let machine = catalog::harpertown();
    let params = CtamParams::default();
    println!(
        "== static advisor predictions ({size:?} size, {}) ==",
        machine.name()
    );
    for name in ["cg", "equake"] {
        let w = by_name(name, size).expect("registry app");
        for strategy in [Strategy::Base, Strategy::TopologyAware, Strategy::Combined] {
            println!();
            println!("-- {} under {strategy} --", w.name);
            for (nest, n) in w.program.nests() {
                let mapping =
                    map_nest(&w.program, nest, &machine, strategy, &params).expect("workload maps");
                let report = advise_mapping(&w.program, &machine, &mapping, &mapping.schedule);
                println!(
                    "nest {} ({}): {} group(s), {} round(s)",
                    nest.index(),
                    n.name(),
                    mapping.n_groups,
                    mapping.schedule.n_rounds()
                );
                for lp in &report.levels {
                    println!(
                        "  L{} ({:>3}B lines): footprint {:>6} shared {:>6} \
                         conflict {:>6} capacity-excess {:>6} | interference {:>6}",
                        lp.level,
                        lp.line_bytes,
                        lp.footprint_lines,
                        lp.shared_lines,
                        lp.conflict_lines,
                        lp.capacity_excess_lines,
                        lp.interference(),
                    );
                }
                println!(
                    "  reuse: achieved {:.1} of greedy bound {:.1}; {} dead block(s)",
                    report.reuse.achieved,
                    report.reuse.upper_bound,
                    report.dead_blocks.len()
                );
                if report.diagnostics.is_empty() {
                    println!("  no advisories");
                }
                for d in &report.diagnostics {
                    println!("  {d}");
                }
            }
        }
    }
}
