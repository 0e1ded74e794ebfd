//! Quickstart: map a small stencil program onto Dunnington under every
//! strategy of the paper and compare simulated execution cycles.
//!
//! Run with `cargo run --release --example quickstart`.

use ctam::pipeline::{evaluate, CtamParams, Strategy};
use ctam_loopir::{ArrayRef, LoopNest, Program};
use ctam_poly::{AffineExpr, AffineMap, IntegerSet};
use ctam_topology::catalog;

fn main() -> Result<(), ctam::pipeline::PipelineError> {
    // A 96x96 symmetric-coupling sweep: row i combines its own data with
    // its mirror row's — B[i][j] = A[i][j] + A[n-1-i][j]. Rows far apart in
    // the loop share data, which is exactly the pattern a contiguous
    // distribution splits across sockets and a topology-aware one keeps
    // under one shared cache.
    let n: u64 = 128;
    let mut program = Program::new("mirror_sweep");
    let a = program.add_array("A", &[n, n], 8);
    let b = program.add_array("B", &[n, n], 8);
    let hi = n as i64 - 1;
    let domain = IntegerSet::builder(2)
        .names(["i", "j"])
        .bounds(0, 0, hi)
        .bounds(1, 0, hi)
        .build();
    let own = AffineMap::identity(2);
    let mirror = AffineMap::new(
        2,
        vec![
            AffineExpr::constant(2, hi) - AffineExpr::var(2, 0),
            AffineExpr::var(2, 1),
        ],
    );
    program.add_nest(
        LoopNest::new("sweep", domain)
            .with_ref(ArrayRef::write(b, own.clone()))
            .with_ref(ArrayRef::read(a, own))
            .with_ref(ArrayRef::read(a, mirror)),
    );

    let machine = catalog::harpertown();
    println!("{}", machine.describe());

    let params = CtamParams::default();
    println!("strategy        cycles   vs Base   L1 miss%  offchip");
    let base = evaluate(&program, &machine, Strategy::Base, &params)?.cycles() as f64;
    for strategy in [
        Strategy::Base,
        Strategy::BasePlus,
        Strategy::Local,
        Strategy::TopologyAware,
        Strategy::Combined,
    ] {
        let r = evaluate(&program, &machine, strategy, &params)?;
        let l1 = r
            .report
            .level_stats(1)
            .map_or(0.0, |s| s.miss_rate() * 100.0);
        println!(
            "{:<14} {:>8}    {:>6.3}   {:>7.1}  {:>7}",
            strategy.name(),
            r.cycles(),
            r.cycles() as f64 / base,
            l1,
            r.report.memory_accesses()
        );
    }
    Ok(())
}
