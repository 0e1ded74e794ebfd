//! Suite-wide invariants over all twelve applications.

use ctam_loopir::{dependence, AccessKind};
use ctam_workloads::{all, SizeClass};

#[test]
fn every_access_of_every_workload_is_in_bounds() {
    // `nest_accesses` panics on out-of-range elements; sweep every
    // iteration of every nest at Test size.
    for w in all(SizeClass::Test) {
        for (id, nest) in w.program.nests() {
            for point in nest.iterations() {
                for acc in w.program.nest_accesses(id, &point) {
                    let n = w.program.array(acc.array).n_elements();
                    assert!(
                        acc.element < n,
                        "{}: {} element {} out of {}",
                        w.name,
                        acc.array,
                        acc.element,
                        n
                    );
                }
            }
        }
    }
}

#[test]
fn every_nest_has_a_parallel_loop_or_point_granularity() {
    // The mapping pipeline distributes the outermost parallel loop; every
    // kernel must either offer one or be analyzable at point granularity.
    for w in all(SizeClass::Test) {
        for (id, nest) in w.program.nests() {
            let info = dependence::analyze_nest(&w.program, id).info;
            assert!(
                info.outermost_parallel().is_some() || info.depth() == nest.depth(),
                "{}/{}: no parallelizable level",
                w.name,
                nest.name()
            );
        }
    }
}

#[test]
fn every_workload_writes_something() {
    for w in all(SizeClass::Test) {
        let writes = w
            .program
            .nests()
            .flat_map(|(_, n)| n.refs().iter())
            .filter(|r| r.kind() == AccessKind::Write)
            .count();
        assert!(writes >= 1, "{} never writes", w.name);
    }
}

#[test]
fn per_iteration_footprints_are_modest() {
    // Block-size selection assumes the most aggressive iteration's blocks
    // fit in L1; keep per-iteration reference counts sane.
    for w in all(SizeClass::Test) {
        for (_, nest) in w.program.nests() {
            assert!(
                nest.refs().len() <= 16,
                "{}/{}: {} refs per iteration",
                w.name,
                nest.name(),
                nest.refs().len()
            );
        }
    }
}

#[test]
fn data_sizes_span_the_cache_spectrum() {
    // The suite should include both sub-L2 and multi-L2-sized footprints so
    // the sharing effects have room to appear at several levels.
    let sizes: Vec<u64> = all(SizeClass::Small)
        .iter()
        .map(|w| w.data_bytes())
        .collect();
    assert!(
        sizes.iter().any(|&s| s < 1024 * 1024),
        "need a small-footprint app"
    );
    assert!(
        sizes.iter().any(|&s| s > 3 * 1024 * 1024 / 2),
        "need a multi-MB-footprint app"
    );
}

#[test]
fn reference_size_scales_iterations() {
    for (t, r) in all(SizeClass::Test).iter().zip(all(SizeClass::Reference)) {
        assert!(
            r.total_iterations() > 2 * t.total_iterations(),
            "{} should scale up at Reference size",
            t.name
        );
    }
}
