//! Qualitative shape checks against the paper's claims — robust directional
//! assertions, not absolute numbers (our substrate is a simulator, not the
//! authors' testbed).

use ctam::pipeline::{evaluate, evaluate_ported, CtamParams, Strategy};
use ctam_bench::runner::geomean;
use ctam_topology::catalog;
use ctam_workloads::{all, by_name, SizeClass};

fn ratio(
    w: &ctam_workloads::Workload,
    m: &ctam_topology::Machine,
    s: Strategy,
    params: &CtamParams,
) -> f64 {
    let base = evaluate(&w.program, m, Strategy::Base, params)
        .unwrap()
        .cycles() as f64;
    evaluate(&w.program, m, s, params).unwrap().cycles() as f64 / base
}

#[test]
fn topology_aware_wins_on_average() {
    // Figure 13's headline: TopologyAware beats Base on every machine (the
    // paper reports 28-30% average; we require a clear win).
    let params = CtamParams::default();
    for m in catalog::commercial_machines() {
        let ratios: Vec<f64> = all(SizeClass::Test)
            .iter()
            .map(|w| ratio(w, &m, Strategy::TopologyAware, &params))
            .collect();
        let g = geomean(&ratios);
        assert!(g < 1.0, "{}: geomean {g:.3} should beat Base", m.name());
    }
}

#[test]
fn sharing_heavy_apps_win_big() {
    // The apps whose sharing is non-adjacent are where the paper's
    // mechanism matters most.
    let params = CtamParams::default();
    let m = catalog::dunnington();
    for name in ["povray", "cg", "bodytrack", "freqmine"] {
        let w = by_name(name, SizeClass::Test).unwrap();
        let r = ratio(&w, &m, Strategy::TopologyAware, &params);
        assert!(r < 0.95, "{name}: expected a clear win, got {r:.3}");
    }
}

#[test]
fn native_version_beats_ported_versions_on_average() {
    // Figure 14's claim is an average: across the suite, running a version
    // tuned for another machine costs performance relative to the
    // host-tuned version. (Individual apps can be exceptions — a foreign
    // tree can accidentally fit one app's sharing structure.)
    let params = CtamParams::default();
    let suite = all(SizeClass::Test);
    let machines = catalog::commercial_machines();
    for host in &machines {
        let natives: Vec<f64> = suite
            .iter()
            .map(|w| {
                evaluate(&w.program, host, Strategy::TopologyAware, &params)
                    .unwrap()
                    .cycles() as f64
            })
            .collect();
        for tuned in &machines {
            if tuned.name() == host.name() {
                continue;
            }
            let ratios: Vec<f64> = suite
                .iter()
                .zip(&natives)
                .map(|(w, &native)| {
                    let ported =
                        evaluate_ported(&w.program, tuned, host, Strategy::TopologyAware, &params)
                            .unwrap()
                            .cycles() as f64;
                    ported / native
                })
                .collect();
            let g = geomean(&ratios);
            assert!(
                g >= 0.99,
                "{} version on {}: ported geomean {g:.3} should not beat native",
                tuned.name(),
                host.name()
            );
            // Cross-core-count ports (the Figure 2 Dunnington cases) pay a
            // clear penalty.
            if tuned.n_cores() != host.n_cores() {
                assert!(
                    g > 1.10,
                    "{} version on {}: cross-core-count port should cost >10%, got {g:.3}",
                    tuned.name(),
                    host.name()
                );
            }
        }
    }
}

#[test]
fn topology_aware_reduces_offchip_traffic() {
    // The mechanism behind the wins: fewer accesses leave the chip
    // (Section 4.2 reports large L2/L3 miss reductions).
    let params = CtamParams::default();
    let m = catalog::dunnington();
    let mut base_total = 0u64;
    let mut topo_total = 0u64;
    for w in all(SizeClass::Test) {
        base_total += evaluate(&w.program, &m, Strategy::Base, &params)
            .unwrap()
            .report
            .memory_accesses();
        topo_total += evaluate(&w.program, &m, Strategy::TopologyAware, &params)
            .unwrap()
            .report
            .memory_accesses();
    }
    assert!(
        topo_total < base_total,
        "off-chip accesses should drop: {topo_total} vs {base_total}"
    );
}

#[test]
fn smaller_caches_amplify_the_gains() {
    // Figure 19: with halved capacities, topology awareness matters more.
    let params = CtamParams::default();
    let full = catalog::dunnington();
    let halved = full.halved_capacities();
    let apps = ["povray", "bodytrack", "freqmine", "cg"];
    let gain = |m: &ctam_topology::Machine| -> f64 {
        let ratios: Vec<f64> = apps
            .iter()
            .map(|n| {
                let w = by_name(n, SizeClass::Test).unwrap();
                ratio(&w, m, Strategy::TopologyAware, &params)
            })
            .collect();
        geomean(&ratios)
    };
    let g_full = gain(&full);
    let g_halved = gain(&halved);
    assert!(
        g_halved <= g_full + 0.05,
        "halved caches should not materially shrink the win: {g_halved:.3} vs {g_full:.3}"
    );
    assert!(
        g_halved < 0.9,
        "the win must stay large on small caches: {g_halved:.3}"
    );
}

#[test]
fn optimal_is_at_least_as_good_as_the_heuristic() {
    // Figure 20: the exact reference never loses to the greedy scheme on
    // the same instance (coarse blocks keep the search tractable).
    let m = catalog::arch_i();
    for name in ["povray", "applu"] {
        let w = by_name(name, SizeClass::Test).unwrap();
        let block = ctam_bench::experiments::coarse_block_bytes(&w, 14);
        let params = CtamParams {
            block_bytes: Some(block),
            ..CtamParams::default()
        };
        let topo = evaluate(&w.program, &m, Strategy::TopologyAware, &params)
            .unwrap()
            .cycles();
        let opt = evaluate(&w.program, &m, Strategy::Optimal, &params)
            .unwrap()
            .cycles();
        assert!(opt <= topo, "{name}: optimal {opt} vs heuristic {topo}");
    }
}
