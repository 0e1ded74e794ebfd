//! Compilation-time overhead of the CTAM pass (Section 4.1: "the increase
//! in compilation times due to our scheme varied between 65% and 94% over
//! the compilation that includes a parallelization step").
//!
//! Criterion benchmark: measures the mapping time of `Base` (the
//! parallelization-only pipeline: enumerate + chunk) against
//! `TopologyAware` and `Combined` (tagging, clustering, balancing,
//! scheduling on top), per application.
//!
//! Unlike the figure targets, this one deliberately ignores `CTAM_JOBS`:
//! it times the *pass itself*, single-threaded, which is the quantity the
//! paper reports.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ctam::cluster::{distribute_each, distribute_with, LeafSplit};
use ctam::pipeline::{append_schedule_trace, map_nest, CtamParams, Strategy};
use ctam::verify::advise_mapping;
use ctam::{IterationGroup, Tag};
use ctam_cachesim::trace::MulticoreTrace;
use ctam_cachesim::Simulator;
use ctam_loopir::dependence;
use ctam_topology::{catalog, zoo, CacheParams, Machine, NodeId, KB, MB};
use ctam_workloads::{by_name, irregular, stress, SizeClass};

fn pass_overhead(c: &mut Criterion) {
    let machine = catalog::dunnington();
    let params = CtamParams::default();
    let mut group = c.benchmark_group("pass_overhead");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(8));
    // A representative spread: a dense stencil, a dense coupled kernel, a
    // banded sparse kernel and a scattered gather kernel. (The full twelve
    // at ten samples each would take tens of minutes on the group-heavy
    // apps; these four span the group-count range.)
    let apps = ["applu", "galgel", "equake", "bodytrack"];
    for name in apps {
        let w = by_name(name, SizeClass::Test).expect("known app");
        for strategy in [Strategy::Base, Strategy::TopologyAware, Strategy::Combined] {
            group.bench_with_input(BenchmarkId::new(strategy.name(), w.name), &w, |b, w| {
                b.iter(|| {
                    for (nest, _) in w.program.nests() {
                        let m = map_nest(&w.program, nest, &machine, strategy, &params)
                            .expect("mapping succeeds");
                        std::hint::black_box(m.n_groups);
                    }
                });
            });
        }
    }
    group.finish();
}

/// Symbolic vs. enumerated dependence analysis — the cost the hybrid
/// engine's per-pair ladder saves (or pays) per nest.
///
/// `galgel` is the registry's under-constrained case (`mode_reduce` forced
/// whole-nest enumeration before the symbolic engine); `scaled_rowsum` is
/// the stress kernel whose enumeration cost grows as `O(n³)` while the
/// symbolic cost scales with the distance count only. Enumerated timings use `Test`
/// size; the symbolic path is additionally timed at `Reference` size, where
/// enumeration is no longer a reasonable baseline.
fn dependence_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("dependence_cost");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(8));
    let cases: Vec<(&str, ctam_workloads::Workload)> = vec![
        ("galgel", by_name("galgel", SizeClass::Test).expect("known")),
        ("scaled_rowsum", stress::scaled_rowsum(SizeClass::Test)),
        (
            "coupled_diagonal",
            stress::coupled_diagonal(SizeClass::Test),
        ),
    ];
    for (name, w) in &cases {
        group.bench_with_input(BenchmarkId::new("symbolic", name), w, |b, w| {
            b.iter(|| {
                for (nest, _) in w.program.nests() {
                    std::hint::black_box(dependence::analyze_nest(&w.program, nest));
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("enumerated", name), w, |b, w| {
            b.iter(|| {
                for (nest, _) in w.program.nests() {
                    std::hint::black_box(dependence::analyze_exact(&w.program, nest));
                }
            });
        });
    }
    let rowsum_ref = stress::scaled_rowsum(SizeClass::Reference);
    group.bench_with_input(
        BenchmarkId::new("symbolic_ref", "scaled_rowsum"),
        &rowsum_ref,
        |b, w| {
            b.iter(|| {
                for (nest, _) in w.program.nests() {
                    std::hint::black_box(dependence::analyze_nest(&w.program, nest));
                }
            });
        },
    );
    group.finish();
}

/// Index-array fact screens vs. table enumeration on the irregular
/// kernels, across the size ladder. The screened path scans each table
/// once and settles the pairs from facts; the enumerated path replays the
/// full iteration domain against the concrete tables. `spmv_csr` and
/// `edge_gather` are fully screened (the gap is the engine's win);
/// `scatter_duplicates` defeats every screen, so its screened timing is
/// the fallback's overhead ceiling.
fn indirect_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("indirect_cost");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(8));
    for size in [SizeClass::Test, SizeClass::Small, SizeClass::Reference] {
        for w in irregular::irregular_suite(size) {
            let label = format!("{}/{:?}", w.name, size);
            group.bench_with_input(BenchmarkId::new("screened", &label), &w, |b, w| {
                b.iter(|| {
                    for (nest, _) in w.program.nests() {
                        std::hint::black_box(dependence::analyze_nest(&w.program, nest));
                    }
                });
            });
            group.bench_with_input(BenchmarkId::new("enumerated", &label), &w, |b, w| {
                b.iter(|| {
                    for (nest, _) in w.program.nests() {
                        std::hint::black_box(dependence::analyze_exact(&w.program, nest));
                    }
                });
            });
        }
    }
    group.finish();
}

/// Mapping cost across the strategy arena's contenders — the registry's
/// cost story in numbers. `PCOT` reads no machine parameters and simulates
/// nothing, so it must come in cheapest; `TreeMatch` builds a group×group
/// sharing matrix and matches it onto the topology tree, which is allowed
/// to cost more than `TopologyAware`'s three-candidate measurement but not
/// more than 3× of it (compare the per-app timings).
fn strategy_cost(c: &mut Criterion) {
    let machine = catalog::dunnington();
    let params = CtamParams::default();
    let mut group = c.benchmark_group("strategy_cost");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(8));
    for name in ["applu", "galgel", "bodytrack"] {
        let w = by_name(name, SizeClass::Test).expect("known app");
        for strategy in [
            Strategy::Base,
            Strategy::TopologyAware,
            Strategy::Pcot,
            Strategy::TreeMatch,
        ] {
            group.bench_with_input(BenchmarkId::new(strategy.name(), w.name), &w, |b, w| {
                b.iter(|| {
                    for (nest, _) in w.program.nests() {
                        let m = map_nest(&w.program, nest, &machine, strategy, &params)
                            .expect("mapping succeeds");
                        std::hint::black_box(m.n_groups);
                    }
                });
            });
        }
    }
    group.finish();
}

/// Cost of the static advisor relative to the pipeline it advises on — the
/// advisory band is only worth keeping on by default in tooling if it stays
/// well under 5% of the mapping pass it piggybacks on. Compare the
/// `advise`-suffixed timings (map + advise) against their plain partners.
fn advisor_cost(c: &mut Criterion) {
    let machine = catalog::dunnington();
    let params = CtamParams::default();
    let mut group = c.benchmark_group("advisor_cost");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(8));
    for name in ["applu", "bodytrack"] {
        let w = by_name(name, SizeClass::Test).expect("known app");
        group.bench_with_input(BenchmarkId::new("map_only", w.name), &w, |b, w| {
            b.iter(|| {
                for (nest, _) in w.program.nests() {
                    let m = map_nest(&w.program, nest, &machine, Strategy::Combined, &params)
                        .expect("mapping succeeds");
                    std::hint::black_box(m.n_groups);
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("map_and_advise", w.name), &w, |b, w| {
            b.iter(|| {
                for (nest, _) in w.program.nests() {
                    let m = map_nest(&w.program, nest, &machine, Strategy::Combined, &params)
                        .expect("mapping succeeds");
                    let r = advise_mapping(&w.program, &machine, &m, &m.schedule);
                    std::hint::black_box((m.n_groups, r.levels.len()));
                }
            });
        });
        // The advisor alone, on a pre-built mapping: the marginal cost.
        let mappings: Vec<_> = w
            .program
            .nests()
            .map(|(nest, _)| {
                map_nest(&w.program, nest, &machine, Strategy::Combined, &params)
                    .expect("mapping succeeds")
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::new("advise_only", w.name),
            &mappings,
            |b, mappings| {
                b.iter(|| {
                    for m in mappings {
                        let r = advise_mapping(&w.program, &machine, m, &m.schedule);
                        std::hint::black_box(r.levels.len());
                    }
                });
            },
        );
    }
    group.finish();
}

/// Cost of certifying on top of the pass — build the certificate,
/// serialize, re-parse, and run the independent checker. The checker
/// re-enumerates the iteration domain and re-settles every pair, so its
/// cost scales with the nest, not the schedule; compare `map_and_certify`
/// against `map_only`, and `certify_only` for the marginal cost on a
/// pre-built mapping.
fn cert_cost(c: &mut Criterion) {
    let machine = catalog::dunnington();
    let params = CtamParams::default();
    let mut group = c.benchmark_group("cert_cost");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(8));
    for name in ["applu", "cg", "bodytrack"] {
        let w = by_name(name, SizeClass::Test).expect("known app");
        group.bench_with_input(BenchmarkId::new("map_only", w.name), &w, |b, w| {
            b.iter(|| {
                for (nest, _) in w.program.nests() {
                    let m = map_nest(&w.program, nest, &machine, Strategy::Combined, &params)
                        .expect("mapping succeeds");
                    std::hint::black_box(m.n_groups);
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("map_and_certify", w.name), &w, |b, w| {
            b.iter(|| {
                for (nest, _) in w.program.nests() {
                    let m = map_nest(&w.program, nest, &machine, Strategy::Combined, &params)
                        .expect("mapping succeeds");
                    let cert = ctam::verify::certificate_for(&w.program, &machine, &m);
                    let parsed = ctam_cert::Certificate::from_json(&cert.to_json())
                        .expect("certificate round-trips");
                    let stats = ctam_cert::check_certificate(&parsed).expect("certificate checks");
                    std::hint::black_box((m.n_groups, stats.n_points));
                }
            });
        });
        // Certification alone, on pre-built mappings: the marginal cost.
        let mappings: Vec<_> = w
            .program
            .nests()
            .map(|(nest, _)| {
                map_nest(&w.program, nest, &machine, Strategy::Combined, &params)
                    .expect("mapping succeeds")
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::new("certify_only", w.name),
            &mappings,
            |b, mappings| {
                b.iter(|| {
                    for m in mappings {
                        let cert = ctam::verify::certificate_for(&w.program, &machine, m);
                        let parsed = ctam_cert::Certificate::from_json(&cert.to_json())
                            .expect("certificate round-trips");
                        let stats =
                            ctam_cert::check_certificate(&parsed).expect("certificate checks");
                        std::hint::black_box(stats.n_points);
                    }
                });
            },
        );
    }
    // Decoding alone, on the `certify` mix's two largest certificates
    // (PCOT at Small on Dunnington: 0.28 and 0.24 MB).
    for name in ["namd", "mesa"] {
        let w = by_name(name, SizeClass::Small).expect("known app");
        let json = w
            .program
            .nests()
            .map(|(nest, _)| {
                let m = map_nest(&w.program, nest, &machine, Strategy::Pcot, &params)
                    .expect("mapping succeeds");
                ctam::verify::certificate_for(&w.program, &machine, &m).to_json()
            })
            .max_by_key(String::len)
            .expect("the app has a nest");
        group.bench_with_input(BenchmarkId::new("decode", w.name), &json, |b, json| {
            b.iter(|| ctam_cert::Certificate::from_json(json).expect("certificate decodes"));
        });
    }
    // The verifier, race proof included, on the stress nest with the most
    // dependence directions (187 at Small).
    let w = stress::coupled_diagonal(SizeClass::Small);
    let (nest, _) = w.program.nests().next().expect("one nest");
    let m =
        map_nest(&w.program, nest, &machine, Strategy::Pcot, &params).expect("mapping succeeds");
    group.bench_with_input(BenchmarkId::new("verify", w.name), &m, |b, m| {
        b.iter(|| ctam::verify::verify_mapping(&w.program, &machine, m, &m.schedule));
    });
    group.finish();
}

/// A figure9-style 4-core machine (two L2 pairs under one L3) — small
/// enough that the scaling curves time the clustering pass, not the tree
/// walk.
fn quad_machine() -> Machine {
    let mut b = Machine::builder("quad", 1.0, 100);
    let l1 = CacheParams::new(8 * KB, 8, 64, 2);
    let l3 = b.cache(NodeId::ROOT, 3, CacheParams::new(8 * MB, 16, 64, 30));
    for _ in 0..2 {
        let l2 = b.cache(l3, 2, CacheParams::new(MB, 8, 64, 10));
        b.core_with_l1(l2, l1);
        b.core_with_l1(l2, l1);
    }
    b.build()
}

/// `n` synthetic stencil groups over a `blocks`-wide data space: group `g`
/// holds one iteration and touches the 3-block window starting at
/// `g·(blocks−3)/n` — adjacent groups overlap (sharing is sparse, like a
/// real stencil), distant ones don't.
fn stencil_groups(n: usize, blocks: usize) -> Vec<IterationGroup> {
    assert!(blocks >= 3);
    (0..n)
        .map(|g| {
            let base = g * (blocks - 3) / n;
            IterationGroup::new(
                Tag::from_bits(blocks, [base, base + 1, base + 2]),
                vec![u32::try_from(g).expect("group ids fit in u32")],
            )
        })
        .collect()
}

/// `n` groups with pairwise-disjoint single-bit tags: no pair ever shares a
/// block, so every merge takes the no-sharing fallback path.
fn disjoint_groups(n: usize) -> Vec<IterationGroup> {
    (0..n)
        .map(|g| {
            IterationGroup::new(
                Tag::from_bits(n, [g]),
                vec![u32::try_from(g).expect("group ids fit in u32")],
            )
        })
        .collect()
}

/// Scaling curves for the clustering pass: `distribute` wall-clock vs.
/// group count for stencil sharing, vs. block-space width at a fixed group
/// count, and for pure-fallback disjoint-tag programs; plus the three leaf
/// splits `TopologyAware` measures, distributed jointly on a root with four
/// equal children. Timings include one clone of the input groups per
/// iteration (`distribute` consumes its input).
fn cluster_scale(c: &mut Criterion) {
    let machine = quad_machine();
    let mut group = c.benchmark_group("cluster_scale");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(5));
    // Groups curve: stencil over a ring-like window space (blocks = n + 2).
    for exp in [12u32, 14, 16, 18, 20] {
        let n = 1usize << exp;
        let groups = stencil_groups(n, n + 2);
        group.bench_with_input(
            BenchmarkId::new("stencil_inverted", n),
            &groups,
            |b, groups| {
                b.iter(|| {
                    distribute_with(groups.clone(), &machine, 0.10, LeafSplit::Separate).n_cores()
                });
            },
        );
    }
    // Blocks curve: fixed group count, growing data space. Narrow spaces
    // pile many groups onto each block (dense postings); wide spaces spread
    // them out (sparse tags dominate).
    for blocks in [1usize << 12, 1 << 16, 1 << 20] {
        let n = 1usize << 16;
        let groups = stencil_groups(n, blocks);
        group.bench_with_input(
            BenchmarkId::new("blocks_inverted", blocks),
            &groups,
            |b, groups| {
                b.iter(|| {
                    distribute_with(groups.clone(), &machine, 0.10, LeafSplit::Separate).n_cores()
                });
            },
        );
    }
    // Fallback curve: disjoint tags, every merge through the lazy min-heap.
    for exp in [12u32, 14, 16] {
        let n = 1usize << exp;
        let groups = disjoint_groups(n);
        group.bench_with_input(
            BenchmarkId::new("disjoint_inverted", n),
            &groups,
            |b, groups| {
                b.iter(|| {
                    distribute_with(groups.clone(), &machine, 0.10, LeafSplit::Separate).n_cores()
                });
            },
        );
    }
    // Joint curve: Harpertown's root has four equal children, so its one
    // merge run serves both the nested bisection and the direct cut, and
    // one recursion serves every leaf split.
    let harpertown = catalog::harpertown();
    let splits = [
        LeafSplit::Separate,
        LeafSplit::Interleave(1),
        LeafSplit::Interleave(2),
    ];
    for exp in [12u32, 14, 16] {
        let n = 1usize << exp;
        let groups = stencil_groups(n, n + 2);
        group.bench_with_input(
            BenchmarkId::new("stencil_harpertown_each", n),
            &groups,
            |b, groups| {
                b.iter(|| distribute_each(groups.clone(), &harpertown, 0.10, &splits).len());
            },
        );
    }
    group.finish();
}

/// Host time per simulated access of the cache simulator: one cold
/// `Simulator::run` over each app's Reference-size `Base` trace (what the
/// evaluation figures simulate), on the three commercial machines and on a
/// 5-level zoo machine. The `ns/element` column is ns per access.
fn sim_cost(c: &mut Criterion) {
    let params = CtamParams::default();
    let mut machines = catalog::commercial_machines();
    machines.extend(
        zoo::zoo(0, 64, &zoo::ZooConfig::default())
            .into_iter()
            .find(|m| m.levels().len() == 5),
    );
    let mut group = c.benchmark_group("sim_cost");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(8));
    for name in ["applu", "galgel", "equake"] {
        let w = by_name(name, SizeClass::Reference).expect("known app");
        for machine in &machines {
            let mut trace = MulticoreTrace::new(machine.n_cores());
            for (i, (nest, _)) in w.program.nests().enumerate() {
                if i > 0 {
                    trace.push_barrier_all();
                }
                let m = map_nest(&w.program, nest, machine, Strategy::Base, &params)
                    .expect("mapping succeeds");
                append_schedule_trace(&mut trace, &w.program, &m);
            }
            let sim = Simulator::new(machine);
            group.throughput(Throughput::Elements(trace.n_accesses() as u64));
            group.bench_with_input(
                BenchmarkId::new(machine.name(), w.name),
                &trace,
                |b, trace| {
                    b.iter(|| {
                        sim.run(trace)
                            .expect("trace fits the machine")
                            .total_cycles()
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    pass_overhead,
    strategy_cost,
    dependence_cost,
    indirect_cost,
    advisor_cost,
    cert_cost,
    cluster_scale,
    sim_cost
);
criterion_main!(benches);
