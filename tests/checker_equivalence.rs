//! Differential validation of the certificate checker: `ctam_cert`'s
//! flat-domain checker must return exactly what the test-only reference in
//! `cert_reference/` returns — the same `CheckStats` for an accepted
//! certificate, the same `Rejection` (code and detail) for a rejected one.
//! The inputs are every certificate of the workload registry, the irregular
//! suite and the stress suite on the three commercial machines under PCOT
//! and Combined, each corruption class that applies to one, and seeded
//! perturbations of each (moved witnesses and distances, regrouped
//! schedules, dropped or added distances, cleared witnesses, another unit
//! prefix).
//!
//! Every pair of these grids needs fewer than 2^24 pairwise checks, so the
//! two work caps agree on them. The Small-size grid and the Reference-size
//! trust test are `#[ignore]`d; CI's `cert-check` job runs them with
//! `--include-ignored`.

mod cert_reference;

use ctam::pipeline::{map_nest, CtamParams, Strategy};
use ctam::verify::certificate_for;
use ctam_cert::{
    check_certificate, CertArray, CertConstraint, CertExpr, CertGroup, CertPair, CertRef,
    CertSubscript, Certificate, RejectCode, Verdict, ALL_CORRUPTIONS,
};
use ctam_topology::catalog;
use ctam_workloads::{irregular, stress, SizeClass, Workload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The registry, irregular and stress programs at `size`.
fn apps(size: SizeClass) -> Vec<Workload> {
    let mut apps = ctam_workloads::all(size);
    apps.extend(irregular::irregular_suite(size));
    apps.extend(stress::stress_suite(size));
    apps
}

/// Every nest's certificate of `apps` × the commercial machines ×
/// `strategies`, labelled.
fn certificates(apps: &[Workload], strategies: &[Strategy]) -> Vec<(String, Certificate)> {
    let params = CtamParams::default();
    let mut out = Vec::new();
    for w in apps {
        for machine in &catalog::commercial_machines() {
            for &strategy in strategies {
                for (nest, _) in w.program.nests() {
                    let label = format!(
                        "{}/{}/{}/nest {}",
                        w.name,
                        machine.name(),
                        strategy.name(),
                        nest.index()
                    );
                    let mapping = map_nest(&w.program, nest, machine, strategy, &params)
                        .unwrap_or_else(|e| panic!("{label}: {e}"));
                    out.push((label, certificate_for(&w.program, machine, &mapping)));
                }
            }
        }
    }
    out
}

fn assert_same(label: &str, cert: &Certificate) {
    assert_eq!(
        check_certificate(cert),
        cert_reference::check_certificate(cert),
        "{label}"
    );
}

/// A small signed step, never zero.
fn step(rng: &mut SmallRng) -> i64 {
    let s = rng.gen_range(1i64..=3);
    if rng.gen_bool(0.5) {
        s
    } else {
        -s
    }
}

/// One seeded perturbation of `cert`, or `None` when it has nothing the
/// drawn kind can perturb. Every number stays within a few units of one the
/// certificate already holds.
fn perturb(cert: &Certificate, rng: &mut SmallRng) -> Option<Certificate> {
    let mut c = cert.clone();
    let depth = c.depth;
    match rng.gen_range(0..6) {
        0 => {
            let with: Vec<usize> = (0..c.pairs.len())
                .filter(|&i| !c.pairs[i].witnesses.is_empty())
                .collect();
            let p = &mut c.pairs[*with.get(rng.gen_range(0..with.len().max(1)))?];
            let k = rng.gen_range(0..p.witnesses.len());
            let (d, w) = &mut p.witnesses[k];
            let v = if rng.gen_bool(0.5) { w } else { d };
            v[rng.gen_range(0..depth)] += step(rng);
        }
        1 => {
            let with: Vec<usize> = (0..c.pairs.len())
                .filter(|&i| !c.pairs[i].distances.is_empty())
                .collect();
            let p = &mut c.pairs[*with.get(rng.gen_range(0..with.len().max(1)))?];
            let k = rng.gen_range(0..p.distances.len());
            p.distances[k][rng.gen_range(0..depth)] += step(rng);
        }
        2 => {
            let g = rng.gen_range(0..c.schedule.len().max(1));
            let g = c.schedule.get_mut(g)?;
            if rng.gen_bool(0.5) {
                g.round = (g.round as i64 + step(rng)).max(0) as usize;
            } else {
                g.core = rng.gen_range(0..c.n_cores);
            }
        }
        3 => {
            let i = rng.gen_range(0..c.pairs.len().max(1));
            let p = c.pairs.get_mut(i)?;
            if !p.distances.is_empty() && rng.gen_bool(0.5) {
                let k = rng.gen_range(0..p.distances.len());
                p.distances.remove(k);
            } else {
                let mut d = vec![0; depth];
                d[rng.gen_range(0..depth)] = rng.gen_range(1..=3);
                p.distances.push(d);
            }
            // Half the time keep the merged set the union, so the change
            // reaches the per-pair recheck.
            if rng.gen_bool(0.5) {
                let mut merged: Vec<Vec<i64>> =
                    c.pairs.iter().flat_map(|p| p.distances.clone()).collect();
                merged.sort();
                merged.dedup();
                c.distances = merged;
            }
        }
        4 => {
            let cross = c.distances.first()?.clone();
            let pair = c.pairs.iter_mut().find(|p| !p.distances.is_empty())?;
            pair.witnesses.clear();
            pair.distances = vec![cross];
        }
        _ => {
            let prefix = rng.gen_range(0..=depth);
            if prefix == c.unit_prefix {
                return None;
            }
            c.unit_prefix = prefix;
        }
    }
    Some(c)
}

/// Both checkers on every certificate of the grid at `size`, on each
/// corruption that applies to it and on `n_perturbed` seeded perturbations.
fn grid_agrees(size: SizeClass, n_perturbed: usize) {
    let certs = certificates(&apps(size), &[Strategy::Pcot, Strategy::Combined]);
    let mut rng = SmallRng::seed_from_u64(23);
    let (mut accepted, mut rejected) = (0, 0);
    for (label, cert) in &certs {
        assert_same(label, cert);
        for corruption in ALL_CORRUPTIONS {
            if let Some(bad) = corruption.apply(cert) {
                assert_same(&format!("{label} {}", corruption.name()), &bad);
            }
        }
        for k in 0..n_perturbed {
            if let Some(bad) = perturb(cert, &mut rng) {
                let verdict = check_certificate(&bad);
                assert_eq!(
                    verdict,
                    cert_reference::check_certificate(&bad),
                    "{label} perturbation {k}"
                );
                if verdict.is_ok() {
                    accepted += 1;
                } else {
                    rejected += 1;
                }
            }
        }
    }
    // The perturbations reach both outcomes.
    assert!(
        accepted > 0 && rejected > 0,
        "{accepted} accepted, {rejected} rejected"
    );
}

#[test]
fn test_size_grid_matches_reference() {
    grid_agrees(SizeClass::Test, 6);
}

#[test]
#[ignore = "about a minute in release; CI's cert-check job runs it"]
fn small_size_grid_matches_reference() {
    grid_agrees(SizeClass::Small, 3);
}

/// `scaled_rowsum` at Reference needs 56.6 M pairwise checks per pair,
/// which is under the work cap: both pairs are re-derived exactly instead
/// of trusting the shipped candidate sets.
#[test]
#[ignore = "several seconds in release; CI's cert-check job runs it"]
fn scaled_rowsum_at_reference_is_exact() {
    let app = stress::scaled_rowsum(SizeClass::Reference);
    let certs = certificates(&[app], &[Strategy::Pcot]);
    assert_eq!(certs.len(), 3, "one nest on each commercial machine");
    for (label, cert) in &certs {
        let stats = check_certificate(cert).unwrap_or_else(|r| panic!("{label}: {r}"));
        assert_eq!(stats.n_exact_rederivations, stats.n_pairs, "{label}");
    }
}

/// Three points on the diagonal of a 12-deep box of 3^12 cells, all
/// writing one element: 9 pairwise checks, but the distance bitmap of the
/// exact box needs (5^12 − 1) / 2 ≈ 1.2·10^8 bits. The checker counts them
/// against the work cap before allocating and takes the over-cap path.
#[test]
fn distance_bitmap_counts_against_the_work_cap() {
    const DEPTH: usize = 12;
    let unit = |v: usize, x: i64| {
        (0..DEPTH)
            .map(|u| i64::from(u == v) * x)
            .collect::<Vec<_>>()
    };
    let mut domain = Vec::new();
    for v in 0..DEPTH {
        domain.push(CertConstraint {
            coeffs: unit(v, 1),
            constant: 0,
            eq: false,
        });
        domain.push(CertConstraint {
            coeffs: unit(v, -1),
            constant: 2,
            eq: false,
        });
        if v > 0 {
            let mut coeffs = unit(v, 1);
            coeffs[0] = -1;
            domain.push(CertConstraint {
                coeffs,
                constant: 0,
                eq: true,
            });
        }
    }
    let distances = vec![vec![1; DEPTH], vec![2; DEPTH]];
    let cert = Certificate {
        nest: 0,
        nest_name: "diagonal".to_owned(),
        machine: "toy".to_owned(),
        n_cores: 1,
        block_bytes: 64,
        depth: DEPTH,
        unit_prefix: DEPTH,
        domain,
        arrays: vec![CertArray {
            name: "A".to_owned(),
            dims: vec![1],
            elem_bytes: 8,
        }],
        refs: vec![CertRef {
            array: 0,
            write: true,
            subscript: CertSubscript::Affine(vec![CertExpr {
                coeffs: vec![0; DEPTH],
                constant: 0,
            }]),
        }],
        n_units: 3,
        unit_sizes: vec![1; 3],
        schedule: vec![CertGroup {
            round: 0,
            core: 0,
            units: vec![0, 1, 2],
        }],
        distances: distances.clone(),
        pairs: vec![CertPair {
            ref_a: 0,
            ref_b: 0,
            method: "enumerated".to_owned(),
            distances,
            candidates: vec![],
            witnesses: vec![],
        }],
        tables: vec![],
        verdict: Verdict::Enumerated,
    };
    // The reference, which counts only pairs, re-derives the two distances.
    let stats = cert_reference::check_certificate(&cert).unwrap();
    assert_eq!((stats.n_points, stats.n_exact_rederivations), (3, 1));
    let r = check_certificate(&cert).unwrap_err();
    assert_eq!(r.code, RejectCode::Recheck, "{r}");
    assert!(r.detail.contains("exceeds the checker's work cap"), "{r}");
}
