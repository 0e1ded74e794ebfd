//! Round-trip properties of the workspace's JSON codecs:
//! `parse(serialize(x)) == x` and byte-stable re-serialization for
//! [`Machine`] and [`NestMapping`] documents.
//!
//! Machines cover the commercial catalog plus a 200-machine zoo batch;
//! mappings cover every nest of the Table 2 workload registry under every
//! registered strategy.

use ctam::codec::{mapping_from_json, mapping_to_json};
use ctam::pipeline::{map_nest, CtamParams, PipelineError, Strategy};
use ctam_topology::codec::{machine_from_json, machine_to_json};
use ctam_topology::zoo::{self, ZooConfig};
use ctam_topology::{catalog, Machine};
use ctam_workloads::{all, SizeClass};

fn assert_machine_roundtrips(m: &Machine) {
    let json = machine_to_json(m);
    let back = machine_from_json(&json).unwrap_or_else(|e| panic!("{}: {e}", m.name()));
    assert_eq!(&back, m, "{}", m.name());
    assert_eq!(
        machine_to_json(&back),
        json,
        "{}: unstable encoding",
        m.name()
    );
}

#[test]
fn catalog_machines_roundtrip() {
    for m in catalog::commercial_machines() {
        assert_machine_roundtrips(&m);
    }
    // Derived topologies round-trip too.
    let dun = catalog::dunnington();
    assert_machine_roundtrips(&dun.halved_capacities());
    assert_machine_roundtrips(&dun.truncated(2));
    assert_machine_roundtrips(&catalog::dunnington_scaled(4));
}

#[test]
fn two_hundred_zoo_machines_roundtrip() {
    for m in zoo::zoo(0xC0DEC, 200, &ZooConfig::default()) {
        assert_machine_roundtrips(&m);
    }
}

#[test]
fn registry_mappings_roundtrip() {
    let machine = catalog::harpertown();
    let params = CtamParams::default();
    for w in all(SizeClass::Test) {
        for strategy in Strategy::ALL {
            for (nest, _) in w.program.nests() {
                let mapping = match map_nest(&w.program, nest, &machine, strategy, &params) {
                    Ok(m) => m,
                    Err(PipelineError::Optimal(_)) => continue,
                    Err(e) => panic!("{}/{strategy}: {e}", w.name),
                };
                let json = mapping_to_json(&mapping);
                let back = mapping_from_json(&w.program, &json)
                    .unwrap_or_else(|e| panic!("{}/{strategy}: {e}", w.name));
                assert_eq!(back, mapping, "{}/{strategy}", w.name);
                assert_eq!(
                    mapping_to_json(&back),
                    json,
                    "{}/{strategy}: unstable encoding",
                    w.name
                );
            }
        }
    }
}
