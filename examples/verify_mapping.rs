//! Demonstrates the static verifier (`ctam::verify`): map a nest with a
//! cross-iteration dependence, then corrupt the resulting schedule in three
//! ways and show the coded diagnostics each corruption triggers.
//!
//! Run with `cargo run --example verify_mapping`.

use ctam::pipeline::{map_nest, CtamParams, Strategy};
use ctam::verify::{render_json, verify_mapping, Severity};
use ctam::{IterationGroup, Schedule};
use ctam_loopir::{ArrayRef, LoopNest, Program};
use ctam_poly::{AffineExpr, AffineMap, IntegerSet};
use ctam_topology::catalog;

/// A row sweep with a carried dependence: A[i][j] += A[i-1][j].
fn chained_program(n: u64) -> Program {
    let mut p = Program::new("chain");
    let a = p.add_array("A", &[n, n], 8);
    let d = IntegerSet::builder(2)
        .bounds(0, 1, n as i64 - 1)
        .bounds(1, 0, n as i64 - 1)
        .build();
    let read_up = AffineMap::new(
        2,
        vec![
            AffineExpr::var(2, 0) - AffineExpr::constant(2, 1),
            AffineExpr::var(2, 1),
        ],
    );
    p.add_nest(
        LoopNest::new("rows", d)
            .with_ref(ArrayRef::write(a, AffineMap::identity(2)))
            .with_ref(ArrayRef::read(a, read_up)),
    );
    p
}

fn report(label: &str, diags: &[ctam::verify::Diagnostic]) {
    println!("--- {label} ---");
    if diags.is_empty() {
        println!("clean: no diagnostics");
    } else {
        let errors = diags
            .iter()
            .filter(|d| d.severity() == Severity::Error)
            .count();
        println!("{} diagnostic(s), {} error(s):", diags.len(), errors);
        for d in diags.iter().take(5) {
            println!("  {d}");
        }
        if diags.len() > 5 {
            println!("  ... and {} more", diags.len() - 5);
        }
        println!("first as JSON: {}", render_json(&diags[..1]));
    }
    println!();
}

fn main() {
    let program = chained_program(24);
    let machine = catalog::harpertown();
    let (nest, _) = program.nests().next().expect("one nest");
    let params = CtamParams::default();
    let mapping =
        map_nest(&program, nest, &machine, Strategy::Combined, &params).expect("mapping succeeds");
    println!(
        "mapped nest 0 on {}: {} groups, {} rounds x {} cores\n",
        machine.name(),
        mapping.n_groups,
        mapping.schedule.n_rounds(),
        mapping.schedule.n_cores()
    );

    // The pipeline's own output verifies clean.
    let diags = verify_mapping(&program, &machine, &mapping, &mapping.schedule);
    report("pristine schedule", &diags);

    let rounds: Vec<Vec<Vec<IterationGroup>>> = mapping.schedule.rounds().to_vec();
    let n_cores = mapping.schedule.n_cores();

    // Corruption 1: drop the first scheduled group — its iterations are
    // never executed (CTAM-E001 IterationUnmapped).
    let mut dropped = rounds.clone();
    'drop: for round in &mut dropped {
        for core in round.iter_mut() {
            if !core.is_empty() {
                core.remove(0);
                break 'drop;
            }
        }
    }
    let broken = Schedule::from_rounds(dropped, n_cores).expect("still rectangular");
    report(
        "dropped group",
        &verify_mapping(&program, &machine, &mapping, &broken),
    );

    // Corruption 2: duplicate a group onto another core in the same round —
    // its iterations run twice (CTAM-E002 IterationDoubleMapped) and the
    // copies race on the written row (CTAM-E004 RaceOnBlock).
    let mut duplicated = rounds.clone();
    let victim = duplicated[0]
        .iter()
        .position(|c| !c.is_empty())
        .expect("a non-empty core");
    let copy = duplicated[0][victim][0].clone();
    duplicated[0][(victim + 1) % n_cores].push(copy);
    let broken = Schedule::from_rounds(duplicated, n_cores).expect("still rectangular");
    report(
        "duplicated group",
        &verify_mapping(&program, &machine, &mapping, &broken),
    );

    // Corruption 3: reverse the rounds — every dependence now flows
    // backwards across the barriers (CTAM-E003 DependenceViolation).
    if rounds.len() > 1 {
        let mut reversed = rounds.clone();
        reversed.reverse();
        let broken = Schedule::from_rounds(reversed, n_cores).expect("still rectangular");
        let diags = verify_mapping(&program, &machine, &mapping, &broken);
        // Violations can be numerous; show a digest.
        println!("--- reversed rounds ---");
        println!("{} diagnostic(s); first three:", diags.len());
        for d in diags.iter().take(3) {
            println!("  {d}");
        }
        println!();
    }
}
