//! Symbolic dependence analysis and race proofs, end to end.
//!
//! Demonstrates the enumeration-free side of the verifier:
//!
//! 1. **Classification** — the per-nest parallelism report (DOALL levels,
//!    carried levels and their blocking reference pairs) for the stress
//!    kernels whose subscripts defeat the classic per-row tests.
//! 2. **Symbolic race proof** — `scaled_rowsum` at the configured size
//!    (default `ref`, where pairwise element enumeration of the dependence
//!    relation is far beyond a test budget) maps under `Base` and verifies
//!    with a `CTAM-N301` note: race freedom is proved from the dependence
//!    relations and the unit placement, with no element replay.
//! 3. **Fallback + detection** — a corrupted wavefront schedule shows the
//!    conservative side: the proof attempt reports `CTAM-N302` and the
//!    element-level enumeration still catches the planted race exactly.
//!
//! Output is deterministic for a given `CTAM_SIZE`; CI diffs it against
//! `ci/expected_symbolic_verify_ref.txt` at `CTAM_SIZE=ref`.
//!
//! Run with: `cargo run --release --example symbolic_verify`
//! (set `CTAM_SIZE=test|small|ref` to change the proof-section size).

use ctam::pipeline::{map_nest, CtamParams, Strategy};
use ctam::verify::{render_json, verify_mapping, Severity};
use ctam::Schedule;
use ctam_loopir::dependence;
use ctam_topology::catalog;
use ctam_workloads::{stress, SizeClass};

fn main() {
    let size = std::env::var("CTAM_SIZE").map_or(SizeClass::Reference, |v| {
        v.parse().unwrap_or_else(|e| panic!("CTAM_SIZE: {e}"))
    });

    println!("== 1. parallelism classification (stress kernels, test size) ==");
    for w in stress::stress_suite(SizeClass::Test) {
        for (id, nest) in w.program.nests() {
            let analysis = dependence::analyze_nest(&w.program, id);
            println!(
                "{}/{} [{}]: {}",
                w.name,
                nest.name(),
                if analysis.enumeration_free() {
                    "symbolic"
                } else {
                    "hybrid"
                },
                analysis.classify()
            );
            for p in &analysis.pairs {
                println!(
                    "    refs ({}, {}) via {}: {} distance(s) — {}",
                    p.ref_a,
                    p.ref_b,
                    p.method.name(),
                    p.distances.len(),
                    p.detail
                );
            }
        }
    }

    println!();
    println!("== 2. symbolic race proof (scaled_rowsum, {size:?} size) ==");
    let w = stress::scaled_rowsum(size);
    let machine = catalog::harpertown();
    let (nest, n) = w.program.nests().next().unwrap();
    println!(
        "{} iterations, {} references per iteration",
        n.n_iterations(),
        n.refs().len()
    );
    let mapping = map_nest(
        &w.program,
        nest,
        &machine,
        Strategy::Base,
        &CtamParams::default(),
    )
    .expect("rowsum maps");
    println!(
        "mapping: {}",
        dependence::analyze_nest(&w.program, nest).classify()
    );
    let diags = verify_mapping(&w.program, &machine, &mapping, &mapping.schedule);
    assert!(
        diags.iter().all(|d| d.severity() != Severity::Error),
        "expected a clean mapping"
    );
    for d in &diags {
        println!("  {d}");
    }
    println!("  as JSON: {}", render_json(&diags));

    println!();
    println!("== 3. fallback + detection (corrupted wavefront, test size) ==");
    let w = stress::coupled_diagonal(SizeClass::Test);
    let (nest, _) = w.program.nests().next().unwrap();
    let mapping = map_nest(
        &w.program,
        nest,
        &machine,
        Strategy::Combined,
        &CtamParams::default(),
    )
    .expect("wavefront maps");
    let clean = verify_mapping(&w.program, &machine, &mapping, &mapping.schedule);
    println!("as produced ({} round(s)):", mapping.schedule.n_rounds());
    for d in &clean {
        println!("  {d}");
    }
    // Corrupt: hoist every group of round 1 into round 0 on the same core —
    // the carried wavefront dependences now share a round across cores.
    let mut rounds = mapping.schedule.rounds().to_vec();
    assert!(rounds.len() > 1, "wavefront schedule has barriers");
    let hoisted = rounds.remove(1);
    for (core, groups) in hoisted.into_iter().enumerate() {
        rounds[0][core].extend(groups);
    }
    let broken = Schedule::from_rounds(rounds, mapping.schedule.n_cores()).expect("well-formed");
    let diags = verify_mapping(&w.program, &machine, &mapping, &broken);
    println!("after hoisting round 1 into round 0:");
    let mut shown = 0usize;
    for d in &diags {
        if shown < 4 || d.severity() != Severity::Error {
            println!("  {d}");
        } else if shown == 4 {
            let remaining = diags
                .iter()
                .filter(|d| d.severity() == Severity::Error)
                .count()
                - 4;
            println!("  ... and {remaining} further error(s)");
        }
        if d.severity() == Severity::Error {
            shown += 1;
        }
    }
    assert!(
        diags.iter().any(|d| d.severity() == Severity::Error),
        "the corruption must be detected"
    );
}
