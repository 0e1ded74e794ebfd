//! Index-array fact inference and irregular race proofs, end to end.
//!
//! Demonstrates the `ctam-ia` side of the verifier on the irregular
//! (indirect-subscript) kernels:
//!
//! 1. **Fact inference + classification** — per-table facts (range,
//!    monotonicity, injectivity, bandedness) inferred by a single scan, and
//!    the per-nest dependence report showing which screen settled each pair
//!    (`index-range`, `index-injective`, `index-banded`) or whether the
//!    engine fell back to enumerating the concrete tables.
//! 2. **Irregular race proof** — `spmv_csr` at the configured size (default
//!    `ref`) maps under `Combined` and verifies with a `CTAM-N303` note:
//!    race freedom is proved from the index-array facts with zero
//!    enumerated dependence pairs.
//! 3. **Fallback + detection** — `scatter_duplicates` defeats every fact
//!    screen: the verifier records the enumeration fallback (`CTAM-N302`)
//!    and names the unprovable pair (`CTAM-W204`); a corrupted schedule
//!    shows the enumerated verdict still catches the planted race.
//!
//! Output is deterministic for a given `CTAM_SIZE`; CI diffs it against
//! `ci/expected_irregular_ref.txt` at `CTAM_SIZE=ref`.
//!
//! Run with: `cargo run --release --example irregular_verify`
//! (set `CTAM_SIZE=test|small|ref` to change the proof-section size).

use ctam::pipeline::{map_nest, CtamParams, Strategy};
use ctam::verify::{render_json, verify_mapping, Severity};
use ctam::Schedule;
use ctam_loopir::{dependence, IndexFacts, Subscript};
use ctam_topology::catalog;
use ctam_workloads::{irregular, SizeClass};

fn main() {
    let size = std::env::var("CTAM_SIZE").map_or(SizeClass::Reference, |v| {
        v.parse().unwrap_or_else(|e| panic!("CTAM_SIZE: {e}"))
    });

    println!("== 1. index-array facts + classification (irregular kernels, test size) ==");
    for w in irregular::irregular_suite(SizeClass::Test) {
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
            for (r, rf) in nest.refs().iter().enumerate() {
                if let Subscript::Indirect { table, .. } = rf.subscript() {
                    println!(
                        "    table of ref {r} (`{}`): {}",
                        w.program.array(rf.array()).name(),
                        IndexFacts::from_table(table)
                    );
                }
            }
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
    println!("== 2. irregular race proof (spmv_csr, {size:?} size) ==");
    let w = irregular::spmv_csr(size);
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
        Strategy::Combined,
        &CtamParams::default(),
    )
    .expect("spmv maps");
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
    println!("== 3. fallback + detection (scatter_duplicates, test size) ==");
    let w = irregular::scatter_duplicates(SizeClass::Test);
    let (nest, _) = w.program.nests().next().unwrap();
    let mapping = map_nest(
        &w.program,
        nest,
        &machine,
        Strategy::Combined,
        &CtamParams::default(),
    )
    .expect("scatter maps");
    let clean = verify_mapping(&w.program, &machine, &mapping, &mapping.schedule);
    println!("as produced ({} round(s)):", mapping.schedule.n_rounds());
    for d in &clean {
        println!("  {d}");
    }
    // Corrupt: hoist every group of round 1 into round 0 on the same core —
    // the duplicate-target output dependences now share a round across cores.
    let mut rounds = mapping.schedule.rounds().to_vec();
    assert!(rounds.len() > 1, "duplicate scatter needs barriers");
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
