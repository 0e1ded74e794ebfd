//! Full compiler-style flow from *source text*: parse a C-like loop-nest
//! program (the shape the paper presents its inputs in), analyze its
//! dependences, map it topology-aware, and compare simulated cycles
//! against the baseline.
//!
//! Run with `cargo run --release --example dsl_frontend`.

use ctam::pipeline::{evaluate, CtamParams, Strategy};
use ctam_loopir::{dependence, parse::parse_program};
use ctam_topology::catalog;

const SOURCE: &str = "
// A mode-coupled sweep over a 128x128 grid: row i combines its own data
// with its mirror row's, then a reduction accumulates per-mode energies.
program mirror {
    array A[128][128] : 8;
    array B[128][128] : 8;
    array E[128]      : 64;   // line-padded reduction slots

    for couple (i = 0 .. 127, j = 0 .. 127) {
        B[i][j] = A[i][j] + A[127 - i][j];
    }

    for energy (i = 0 .. 127, j = 0 .. 127) {
        E[i] += B[i][j] + B[127 - i][j];
    }
}";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = parse_program(SOURCE)?;
    println!(
        "parsed '{}': {} arrays, {} nests, {} KB of data\n",
        program.name(),
        program.arrays().count(),
        program.nests().count(),
        program.total_data_bytes() / 1024
    );

    for (id, nest) in program.nests() {
        let info = dependence::analyze_nest(&program, id).info;
        println!(
            "nest '{}': {} iterations, fully parallel: {}, parallel level: {:?}",
            nest.name(),
            nest.n_iterations(),
            info.is_fully_parallel(),
            info.outermost_parallel()
        );
    }

    let machine = catalog::harpertown();
    let params = CtamParams::default();
    println!("\non {}:", machine.name());
    let base = evaluate(&program, &machine, Strategy::Base, &params)?;
    let topo = evaluate(&program, &machine, Strategy::TopologyAware, &params)?;
    println!("  Base          : {} cycles", base.cycles());
    println!(
        "  TopologyAware : {} cycles ({:.1}% faster)",
        topo.cycles(),
        100.0 * (1.0 - topo.cycles() as f64 / base.cycles() as f64)
    );
    Ok(())
}
