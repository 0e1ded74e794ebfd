//! Certificate grid: every mapping the pipeline produces for the Table 2
//! workload registry on every commercial catalog machine yields a
//! certificate the independent checker accepts, and the certificate's
//! verdict agrees with the verifier's `CTAM-N30x` race-proof note.

use ctam::pipeline::{map_nest, CtamParams, Strategy};
use ctam::verify::{certificate_for, verify_mapping, Code};
use ctam_cert::{check_certificate, Certificate, Verdict};
use ctam_topology::catalog;
use ctam_workloads::{all, SizeClass};

#[test]
fn registry_times_catalog_certificates_all_check() {
    let machines = catalog::commercial_machines();
    let params = CtamParams::default();
    let mut checked = 0usize;
    let mut by_verdict = [0usize; 3];
    for w in all(SizeClass::Test) {
        for machine in &machines {
            for (nest, _) in w.program.nests() {
                let mapping = map_nest(&w.program, nest, machine, Strategy::Combined, &params)
                    .unwrap_or_else(|e| panic!("{}/{}: {e}", w.name, machine.name()));
                let cert = certificate_for(&w.program, machine, &mapping);
                // Judge the wire form, as a consumer receives it.
                let parsed = Certificate::from_json(&cert.to_json())
                    .unwrap_or_else(|e| panic!("{}/{}: {e}", w.name, machine.name()));
                check_certificate(&parsed).unwrap_or_else(|e| {
                    panic!("{}/{} nest {}: {e}", w.name, machine.name(), nest.index())
                });
                checked += 1;
                by_verdict[match parsed.verdict {
                    Verdict::SymbolicProof => 0,
                    Verdict::IndexFactProof => 1,
                    Verdict::Enumerated => 2,
                }] += 1;

                // The verifier's race-proof note and the certificate's
                // verdict are computed by different layers; they must agree.
                let diags = verify_mapping(&w.program, machine, &mapping, &mapping.schedule);
                let note = diags.iter().find_map(|d| match d.code() {
                    Code::SymbolicRaceProof => Some(Verdict::SymbolicProof),
                    Code::IndexFactRaceProof => Some(Verdict::IndexFactProof),
                    Code::RaceCheckEnumerated => Some(Verdict::Enumerated),
                    _ => None,
                });
                if let Some(expected) = note {
                    assert_eq!(
                        parsed.verdict,
                        expected,
                        "{}/{} nest {}",
                        w.name,
                        machine.name(),
                        nest.index()
                    );
                }
            }
        }
    }
    assert!(checked >= 12 * machines.len(), "grid too small: {checked}");
    // The grid exercises both proof-carrying verdict kinds.
    assert!(by_verdict[0] > 0, "no symbolic-proof certificate in grid");
    assert!(by_verdict[1] > 0, "no index-fact-proof certificate in grid");
}
