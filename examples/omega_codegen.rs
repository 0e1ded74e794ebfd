//! Omega-style code generation: after the pass assigns iteration groups to
//! cores, each core needs *code* that enumerates its iterations — the role
//! of the Omega Library's `codegen` in the paper (Section 3.4). This
//! example maps a triangular nest and prints the per-core loop nests that
//! [`ctam::emit_core_code`] regenerates from the mapping.
//!
//! Run with `cargo run --release --example omega_codegen`.

use ctam::emit_core_code;
use ctam::pipeline::{map_nest, CtamParams, Strategy};
use ctam_loopir::{ArrayRef, LoopNest, Program};
use ctam_poly::{generate_loop_nest, AffineExpr, AffineMap, IntegerSet};
use ctam_topology::{CacheParams, Machine, NodeId, KB, MB};

fn main() {
    // A triangular iteration space over a 64x64 array: 0<=i<64, 0<=j<=i.
    let mut program = Program::new("tri");
    let a = program.add_array("A", &[64, 64], 8);
    let domain = IntegerSet::builder(2)
        .names(["i", "j"])
        .bounds(0, 0, 63)
        .lower(1, 0)
        .le_var(1, 0)
        .build();
    let nest = program.add_nest(
        LoopNest::new("tri", domain.clone()).with_ref(ArrayRef::read(
            a,
            AffineMap::new(2, vec![AffineExpr::var(2, 0), AffineExpr::var(2, 1)]),
        )),
    );

    // The original nest, re-emitted by codegen.
    println!("// original nest:");
    println!("{}\n", generate_loop_nest(&domain).expect("bounded set"));

    // Map it onto a 4-core machine and emit per-core code: the rows of each
    // core's groups become row-interval loop nests.
    let mut b = Machine::builder("quad", 2.0, 120);
    let l1 = CacheParams::new(32 * KB, 8, 64, 3);
    for _ in 0..2 {
        let l2 = b.cache(NodeId::ROOT, 2, CacheParams::new(2 * MB, 8, 64, 12));
        b.core_with_l1(l2, l1);
        b.core_with_l1(l2, l1);
    }
    let machine = b.build();
    let params = CtamParams {
        block_bytes: Some(2048),
        ..CtamParams::default()
    };
    let mapping = map_nest(&program, nest, &machine, Strategy::TopologyAware, &params)
        .expect("the nest maps");
    for code in emit_core_code(&mapping, &program) {
        println!("{code}\n");
    }
}
