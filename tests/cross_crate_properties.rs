//! Cross-crate property tests: for arbitrary small programs, every strategy
//! must execute exactly the program's accesses, preserve per-core
//! disjointness, and respect dependencies.

use ctam::blocks::BlockMap;
use ctam::cluster::distribute;
use ctam::depgraph::{condense, GroupDepGraph};
use ctam::group::group_iterations;
use ctam::pipeline::{evaluate, CtamParams, Strategy as MapStrategy};
use ctam::schedule::{flatten_assignment, schedule_local, ScheduleWeights};
use ctam::space::IterationSpace;
use ctam_loopir::{dependence, AccessKind, ArrayRef, LoopNest, Program, Subscript};
use ctam_poly::{AffineExpr, AffineMap, IntegerSet};
use ctam_topology::{catalog, Machine};
use proptest::prelude::*;

/// A random 1-D program: one array, a loop with a write and a few reads at
/// random constant offsets plus an optional gather.
fn arb_program() -> impl Strategy<Value = Program> {
    (
        16u64..200,                                 // iterations
        proptest::collection::vec(-8i64..=8, 1..4), // read offsets
        prop::bool::ANY,                            // include a gather?
        proptest::collection::vec(0u64..512, 16),   // gather table seed
    )
        .prop_map(|(n, offsets, gather, table)| {
            let mut p = Program::new("prop");
            let a = p.add_array("A", &[n + 16], 8);
            let out = p.add_array("OUT", &[n], 8);
            let d = IntegerSet::builder(1).bounds(0, 0, n as i64 - 1).build();
            let mut nest =
                LoopNest::new("n", d).with_ref(ArrayRef::write(out, AffineMap::identity(1)));
            for off in offsets {
                nest = nest.with_ref(ArrayRef::read(
                    a,
                    AffineMap::new(
                        1,
                        vec![AffineExpr::var(1, 0) + AffineExpr::constant(1, off + 8)],
                    ),
                ));
            }
            if gather {
                let table: Vec<u64> = table.iter().map(|&t| t % (n + 16)).collect();
                nest = nest.with_ref(ArrayRef::new(
                    a,
                    Subscript::Indirect {
                        selector: AffineExpr::var(1, 0),
                        table: table.into(),
                    },
                    AccessKind::Read,
                ));
            }
            p.add_nest(nest);
            p
        })
}

fn expected_accesses(p: &Program) -> u64 {
    p.nests()
        .map(|(_, n)| n.n_iterations() as u64 * n.refs().len() as u64)
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn strategies_conserve_accesses(p in arb_program()) {
        let machine = catalog::harpertown();
        let params = CtamParams { block_bytes: Some(256), ..CtamParams::default() };
        let expected = expected_accesses(&p);
        for s in [MapStrategy::Base, MapStrategy::BasePlus, MapStrategy::Local,
                  MapStrategy::TopologyAware, MapStrategy::Combined] {
            let r = evaluate(&p, &machine, s, &params).expect("pipeline runs");
            prop_assert_eq!(r.report.n_accesses(), expected, "{}", s);
        }
    }

    #[test]
    fn distribution_partitions_units(p in arb_program()) {
        let machine: Machine = catalog::dunnington();
        let (nest, _) = p.nests().next().unwrap();
        let space = IterationSpace::build(&p, nest);
        let blocks = BlockMap::new(&p, 256);
        let groups = group_iterations(&space, &blocks);
        let n_units = space.n_units();
        let a = distribute(groups, &machine, 0.10);
        let mut seen: Vec<u32> = a
            .per_core()
            .iter()
            .flatten()
            .flat_map(|g| g.iterations().to_vec())
            .collect();
        seen.sort_unstable();
        let all: Vec<u32> = (0..n_units as u32).collect();
        prop_assert_eq!(seen, all, "units must be partitioned exactly once");
    }

    #[test]
    fn schedule_respects_dependencies(p in arb_program()) {
        let machine = catalog::harpertown();
        let (nest, _) = p.nests().next().unwrap();
        let dep = dependence::analyze_nest(&p, nest).info;
        let space = IterationSpace::build(&p, nest);
        let blocks = BlockMap::new(&p, 256);
        let groups = group_iterations(&space, &blocks);
        let graph = GroupDepGraph::build(&groups, &space, &dep);
        let groups = condense(groups, &graph);
        let a = distribute(groups, &machine, 0.10);
        let flat = flatten_assignment(&a);
        let graph = GroupDepGraph::build(&flat, &space, &dep);
        prop_assume!(graph.is_acyclic());
        let sched = schedule_local(a, &machine, &graph, ScheduleWeights::default()).unwrap();

        // Map each group (by first unit) to its round; every edge must not
        // point backwards in round order when it crosses cores, and within
        // a core must not point backwards in execution order.
        let mut round_of = std::collections::HashMap::new();
        let mut order_of = std::collections::HashMap::new();
        for (r, round) in sched.rounds().iter().enumerate() {
            for (c, gs) in round.iter().enumerate() {
                for (k, g) in gs.iter().enumerate() {
                    round_of.insert(g.iterations()[0], (r, c));
                    order_of.insert(g.iterations()[0], k);
                }
            }
        }
        for (gi, g) in flat.iter().enumerate() {
            for &succ in graph.succs(gi) {
                let a_key = g.iterations()[0];
                let b_key = flat[succ].iterations()[0];
                let (ra, ca) = round_of[&a_key];
                let (rb, cb) = round_of[&b_key];
                if ca == cb && ra == rb {
                    prop_assert!(order_of[&a_key] < order_of[&b_key],
                        "same-core same-round dependence must run in order");
                } else if ca != cb {
                    prop_assert!(ra < rb, "cross-core dependence must cross a barrier");
                } else {
                    prop_assert!(ra <= rb, "within-core dependence must not go backwards");
                }
            }
        }
    }

    #[test]
    fn simulation_costs_are_bounded(p in arb_program()) {
        // Sanity envelope: every access costs at least L1 latency and at
        // most the full path + memory.
        let machine = catalog::nehalem();
        let params = CtamParams::default();
        let r = evaluate(&p, &machine, MapStrategy::Base, &params).expect("runs");
        let n = r.report.n_accesses();
        let work: u64 = r.report.per_core_cycles().iter().sum();
        let min_cost = 4; // Nehalem L1 latency
        let max_cost = 4 + 10 + 35 + 174; // L1+L2+L3+memory
        prop_assert!(work >= n * min_cost);
        prop_assert!(work <= n * max_cost);
    }
}
