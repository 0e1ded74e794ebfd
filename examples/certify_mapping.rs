//! Proof-carrying mapping certificates, end to end.
//!
//! Demonstrates the `ctam-cert` trust anchor:
//!
//! 1. **Map, verify, certify** — the pipeline maps a nest; the caller
//!    verifies the mapping, emits its certificate, sends it through the
//!    JSON wire format and has the independent checker judge what arrives.
//! 2. **Certificate anatomy** — what a certificate carries for an affine
//!    wavefront (distances + realizability witnesses, symbolic-proof
//!    verdict) and for an indirect gather (index table with claimed facts,
//!    index-fact-proof verdict), with the checker's work statistics.
//! 3. **Registry sweep** — every nest of the Table 2 workload registry at
//!    the configured size maps under `Combined` and its certificate is
//!    accepted by [`ctam_cert::check_certificate`].
//! 4. **Mutation teeth** — every corruption class of `ctam_cert::mutate`
//!    applied to the section 2 certificates is rejected with its
//!    `CTAM-C6xx` code.
//!
//! Output is deterministic for a given `CTAM_SIZE`; CI diffs it against
//! `ci/expected_cert_ref.txt` at `CTAM_SIZE=ref`.
//!
//! Run with: `cargo run --release --example certify_mapping`
//! (set `CTAM_SIZE=test|small|ref` to change the sweep size).

use ctam::pipeline::{map_nest, CtamParams, NestMapping, Strategy};
use ctam::verify::{certificate_for, is_clean, verify_mapping};
use ctam_cert::{check_certificate, Certificate, ALL_CORRUPTIONS};
use ctam_loopir::{AccessKind, ArrayRef, LoopNest, Program, Subscript};
use ctam_poly::{AffineExpr, AffineMap, IntegerSet};
use ctam_topology::{catalog, Machine};
use ctam_workloads::{all, SizeClass};

/// `A[i][j] = A[i-1][j]`: row-carried flow dependence, distance `(1, 0)`.
fn wave(n: u64) -> Program {
    let mut p = Program::new("wave");
    let a = p.add_array("A", &[n, n], 8);
    let d = IntegerSet::builder(2)
        .bounds(0, 1, n as i64 - 1)
        .bounds(1, 0, n as i64 - 1)
        .build();
    let up = AffineMap::new(
        2,
        vec![
            AffineExpr::var(2, 0) - AffineExpr::constant(2, 1),
            AffineExpr::var(2, 1),
        ],
    );
    p.add_nest(
        LoopNest::new("rows", d)
            .with_ref(ArrayRef::write(a, AffineMap::identity(2)))
            .with_ref(ArrayRef::read(a, up)),
    );
    p
}

/// `A[idx[i]] = …; … = A[i + n]`: an injective index table whose facts
/// settle both reference pairs without enumeration.
fn indirect(n: u64) -> Program {
    let mut p = Program::new("indirect");
    let a = p.add_array("A", &[2 * n], 8);
    let d = IntegerSet::builder(1).bounds(0, 0, n as i64 - 1).build();
    let table: std::sync::Arc<[u64]> = (0..n).map(|i| (i * 7) % n).collect();
    let hi = AffineMap::new(
        1,
        vec![AffineExpr::var(1, 0) + AffineExpr::constant(1, n as i64)],
    );
    p.add_nest(
        LoopNest::new("gather", d)
            .with_ref(ArrayRef::new(
                a,
                Subscript::Indirect {
                    selector: AffineExpr::var(1, 0),
                    table,
                },
                AccessKind::Write,
            ))
            .with_ref(ArrayRef::read(a, hi)),
    );
    p
}

/// Verifies `mapping`, then sends its certificate through the JSON wire
/// format and has the independent checker judge what arrives.
fn verified_certificate(
    program: &Program,
    machine: &Machine,
    mapping: &NestMapping,
) -> Certificate {
    let diags = verify_mapping(program, machine, mapping, &mapping.schedule);
    assert!(is_clean(&diags), "{diags:?}");
    let cert = certificate_for(program, machine, mapping);
    let parsed = Certificate::from_json(&cert.to_json()).expect("certificate round-trips");
    check_certificate(&parsed).expect("pipeline certificate checks");
    parsed
}

fn describe(cert: &Certificate) {
    println!(
        "{} on {}: verdict {:?}, {} unit(s), {} group(s), {} merged distance(s)",
        cert.nest_name,
        cert.machine,
        cert.verdict,
        cert.n_units,
        cert.schedule.len(),
        cert.distances.len(),
    );
    for p in &cert.pairs {
        println!(
            "    pair ({}, {}) via {}: {} distance(s), {} candidate(s), {} witness(es)",
            p.ref_a,
            p.ref_b,
            p.method,
            p.distances.len(),
            p.candidates.len(),
            p.witnesses.len(),
        );
    }
    for t in &cert.tables {
        println!(
            "    table of {} row(s): range {:?}, injective {}, band {:?}",
            t.facts.len, t.facts.range, t.facts.injective, t.facts.band,
        );
    }
    let stats = check_certificate(cert).expect("pipeline certificate checks");
    println!(
        "    checker: {} point(s), {} unit(s), {} pair(s), {} witness(es), \
         {} exact re-derivation(s)",
        stats.n_points,
        stats.n_units,
        stats.n_pairs,
        stats.n_witnesses,
        stats.n_exact_rederivations,
    );
}

fn main() {
    let size = std::env::var("CTAM_SIZE").map_or(SizeClass::Reference, |v| {
        v.parse().unwrap_or_else(|e| panic!("CTAM_SIZE: {e}"))
    });
    let machine = catalog::harpertown();

    println!("== 1. map, verify, certify ==");
    let p = wave(16);
    let nest = p.nests().next().unwrap().0;
    let params = CtamParams::default();
    let mapping = map_nest(&p, nest, &machine, Strategy::Combined, &params).expect("wave maps");
    let affine_cert = verified_certificate(&p, &machine, &mapping);
    println!(
        "wave/rows maps under Combined, verifies clean and certifies: {} round(s) on {} core(s)",
        mapping.schedule.n_rounds(),
        mapping.schedule.n_cores(),
    );

    println!();
    println!("== 2. certificate anatomy ==");
    describe(&affine_cert);
    let pi = indirect(64);
    let nest = pi.nests().next().unwrap().0;
    let mapping = map_nest(&pi, nest, &machine, Strategy::Combined, &params).expect("gather maps");
    let indirect_cert = verified_certificate(&pi, &machine, &mapping);
    describe(&indirect_cert);

    println!();
    println!("== 3. registry sweep ({size:?} size, Combined on harpertown) ==");
    let mut accepted = 0usize;
    // Certification alone for the sweep: the element-replaying verifier is
    // its own CI job, and the checker re-enumerates the domain anyway.
    for w in all(size) {
        let mut verdicts = Vec::new();
        for (nest, _) in w.program.nests() {
            let mapping = map_nest(&w.program, nest, &machine, Strategy::Combined, &params)
                .expect("registry nest maps");
            let cert = certificate_for(&w.program, &machine, &mapping);
            let parsed = Certificate::from_json(&cert.to_json()).unwrap();
            check_certificate(&parsed).expect("registry certificate checks");
            accepted += 1;
            verdicts.push(format!("{:?}", parsed.verdict));
        }
        println!("{}: {}", w.name, verdicts.join(", "));
    }
    println!("{accepted} certificate(s) accepted");

    println!();
    println!("== 4. mutation teeth ==");
    for corruption in ALL_CORRUPTIONS {
        // Each corruption bites on at least one of the two fixtures.
        let bad = corruption
            .apply(&affine_cert)
            .or_else(|| corruption.apply(&indirect_cert))
            .expect("corruption applies to a fixture");
        let rejection = check_certificate(&bad).expect_err("corrupted certificate is rejected");
        assert_eq!(rejection.code, corruption.expected_code());
        println!(
            "{:<20} -> rejected with {}",
            corruption.name(),
            rejection.code
        );
    }
}
