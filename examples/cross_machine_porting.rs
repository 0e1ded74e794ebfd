//! The Figure 2 experiment as an example: specialize `galgel` for each of
//! the three machines, run every version on every machine, and show that
//! the version tuned for the host wins (porting penalties off-diagonal).
//!
//! Run with `cargo run --release --example cross_machine_porting`.

use ctam::pipeline::{evaluate_ported, CtamParams, Strategy};
use ctam_topology::catalog;
use ctam_workloads::{by_name, SizeClass};

fn main() -> Result<(), ctam::pipeline::PipelineError> {
    let galgel = by_name("galgel", SizeClass::Test).expect("galgel is in the suite");
    let machines = catalog::commercial_machines();
    let params = CtamParams::default();

    // cycles[tuned_for][run_on]
    let mut cycles = vec![vec![0u64; machines.len()]; machines.len()];
    for (v, tuned) in machines.iter().enumerate() {
        for (h, host) in machines.iter().enumerate() {
            cycles[v][h] = evaluate_ported(
                &galgel.program,
                tuned,
                host,
                Strategy::TopologyAware,
                &params,
            )?
            .cycles();
        }
    }

    println!("galgel: normalized execution time per host (1.000 = best version)\n");
    print!("{:<22}", "version \\ runs on");
    for host in &machines {
        print!("{:>14}", host.name());
    }
    println!();
    for (v, tuned) in machines.iter().enumerate() {
        print!("{:<22}", format!("{} version", tuned.name()));
        for (h, _) in machines.iter().enumerate() {
            let best = (0..machines.len())
                .map(|x| cycles[x][h])
                .min()
                .expect("3 versions");
            print!("{:>14.3}", cycles[v][h] as f64 / best as f64);
        }
        println!();
    }
    println!(
        "\nReading: each column is one machine; the diagonal (host-tuned) should\n\
         be at or near 1.000, and foreign versions pay a porting penalty —\n\
         the paper's motivation for topology-aware specialization."
    );
    Ok(())
}
