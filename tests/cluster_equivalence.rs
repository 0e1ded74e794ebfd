//! Differential validation of the clustering pass: `ctam::cluster`'s
//! inverted-index merge and donor-indexed eviction must produce *identical*
//! partitions and assignments to the quadratic reference in
//! `cluster_reference/` — on random group sets at every word-boundary tag
//! width, on fixed cases that drive the no-sharing merge fallback, and on
//! the workload registry × commercial machine grid under every leaf-split
//! policy `TopologyAware` measures, one at a time and all at once through
//! `distribute_each`.
//!
//! The grid under all three policies at once is `#[ignore]`d: it takes
//! about two minutes in release on top of the default `Separate` rows'
//! one. CI's `cluster-scale` job runs it with `--include-ignored`.

mod cluster_reference;

use ctam::blocks::BlockMap;
use ctam::cluster::{distribute_each, distribute_with, partition_groups, LeafSplit};
use ctam::group::{group_iterations, IterationGroup};
use ctam::space::IterationSpace;
use ctam::tag::Tag;
use ctam_topology::{catalog, CacheParams, Machine, NodeId, KB, MB};
use ctam_workloads::{all, SizeClass};
use proptest::prelude::*;

/// Tag widths straddling the u64 word boundaries, plus a wide one where the
/// hybrid tag representation goes sparse.
const WIDTHS: [usize; 6] = [12, 63, 64, 65, 129, 4096];

/// The policies `TopologyAware` measures per nest.
const LEAF_SPLITS: [LeafSplit; 3] = [
    LeafSplit::Separate,
    LeafSplit::Interleave(1),
    LeafSplit::Interleave(2),
];

/// Builds disjoint sequentially-numbered groups from (bit set, size) specs.
fn make_groups(width: usize, specs: &[(Vec<usize>, u8)]) -> Vec<IterationGroup> {
    let mut start = 0u32;
    specs
        .iter()
        .map(|(bits, size)| {
            let n = u32::from(*size) + 1;
            let g = IterationGroup::new(
                Tag::from_bits(width, bits.iter().map(|&b| b % width)),
                (start..start + n).collect(),
            );
            start += n;
            g
        })
        .collect()
}

/// The machine of Figure 9: 4 cores, two L2s each shared by two cores, one
/// L3 over everything.
fn figure9() -> Machine {
    let mut b = Machine::builder("fig9", 1.0, 100);
    let l1 = CacheParams::new(8 * KB, 8, 64, 2);
    let l3 = b.cache(NodeId::ROOT, 3, CacheParams::new(8 * MB, 16, 64, 30));
    for _ in 0..2 {
        let l2 = b.cache(l3, 2, CacheParams::new(MB, 8, 64, 10));
        b.core_with_l1(l2, l1);
        b.core_with_l1(l2, l1);
    }
    b.build()
}

/// Asserts that `partition_groups` and `distribute_with` (on Figure 9's
/// machine, under every leaf split) agree with the reference.
fn assert_matches_reference(groups: &[IterationGroup], capacities: &[usize], threshold: f64) {
    let n_bits = groups[0].tag().n_bits();
    assert_eq!(
        partition_groups(groups.to_vec(), capacities, threshold, n_bits),
        cluster_reference::partition_groups(groups.to_vec(), capacities, threshold, n_bits),
        "partition over {capacities:?} at threshold {threshold}"
    );
    let machine = figure9();
    for leaf in LEAF_SPLITS {
        assert_eq!(
            distribute_with(groups.to_vec(), &machine, threshold, leaf),
            cluster_reference::distribute_with(groups.to_vec(), &machine, threshold, leaf),
            "distribution under {leaf:?} at threshold {threshold}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random group sets at every tag width, several child shapes; the
    /// even symmetric fan-outs above two take the nested bisection, whose
    /// 2-way cut shares its merge run with the direct cut.
    #[test]
    fn partitions_match_reference(
        specs in proptest::collection::vec(
            (proptest::collection::vec(0usize..10_000, 1..5), 0u8..16),
            2..24,
        ),
        csel in 0usize..7,
    ) {
        let capacities: &[usize] = match csel {
            0 => &[1, 1],
            1 => &[1, 1, 1],
            2 => &[2, 2],
            3 => &[1, 3],
            4 => &[1, 1, 1, 1],
            5 => &[2, 2, 2, 2],
            _ => &[1; 6],
        };
        for width in WIDTHS {
            let groups = make_groups(width, &specs);
            prop_assert_eq!(
                partition_groups(groups.clone(), capacities, 0.10, width),
                cluster_reference::partition_groups(groups, capacities, 0.10, width),
                "width {}", width
            );
        }
    }

    /// End-to-end agreement on the commercial machines at every tag width
    /// and under every leaf split, including the root look-ahead,
    /// splitting, interleaving and balancing layers — one split per call,
    /// and all three in one `distribute_each` call.
    #[test]
    fn distributions_match_reference(
        specs in proptest::collection::vec(
            (proptest::collection::vec(0usize..10_000, 1..5), 0u8..16),
            1..20,
        ),
    ) {
        for machine in catalog::commercial_machines() {
            for width in WIDTHS {
                let groups = make_groups(width, &specs);
                let joint = distribute_each(groups.clone(), &machine, 0.10, &LEAF_SPLITS);
                prop_assert_eq!(joint.len(), LEAF_SPLITS.len());
                for (leaf, each) in LEAF_SPLITS.into_iter().zip(joint) {
                    let reference =
                        cluster_reference::distribute_with(groups.clone(), &machine, 0.10, leaf);
                    prop_assert_eq!(
                        &distribute_with(groups.clone(), &machine, 0.10, leaf),
                        &reference,
                        "width {} on {} under {:?}", width, machine.name(), leaf
                    );
                    prop_assert_eq!(
                        each,
                        reference,
                        "width {} on {} under {:?}, jointly", width, machine.name(), leaf
                    );
                }
            }
        }
    }
}

/// The 8 iteration groups of Figure 10(a), 4 iterations each, with tags
/// `{j, j+2, j+4}` of 12 blocks: the even and odd tags share pairwise.
#[test]
fn paper_example_figure10_matches_reference() {
    let groups: Vec<IterationGroup> = (0..8u32)
        .map(|j| {
            let b = j as usize;
            IterationGroup::new(
                Tag::from_bits(12, [b, b + 2, b + 4]),
                (j * 4..(j + 1) * 4).collect(),
            )
        })
        .collect();
    assert_matches_reference(&groups, &[1, 1], 0.10);
}

/// Pairwise-disjoint tags with uneven sizes: no pair ever shares a block, so
/// every merge takes the no-sharing fallback, which must merge the two
/// smallest clusters in the reference's sort order.
#[test]
fn disjoint_tags_take_the_reference_fallback_merges() {
    let mut start = 0u32;
    let groups: Vec<IterationGroup> = [5u32, 3, 8, 1, 9, 2, 7, 4, 6]
        .iter()
        .enumerate()
        .map(|(j, &s)| {
            let g = IterationGroup::new(Tag::from_bits(16, [j]), (start..start + s).collect());
            start += s;
            g
        })
        .collect();
    for target in 1..=4 {
        for threshold in [0.10, 1.0] {
            assert_matches_reference(&groups, &vec![1; target], threshold);
        }
    }
}

/// Two sharing pairs plus disjoint stragglers: the sharing merges drain the
/// heap, and the fallback finishes the job. At four targets the nested
/// bisection's merge run reaches the 4-way partition after the heap has
/// run dry and goes on through the fallback to its 2-way cut.
#[test]
fn fallback_after_sharing_merges_matches_reference() {
    let groups: Vec<IterationGroup> = [
        (&[0, 1][..], 0..4),
        (&[1, 2], 4..6),
        (&[10, 11], 6..9),
        (&[11, 12], 9..14),
        (&[20], 14..15),
        (&[24], 15..22),
        (&[28], 22..25),
    ]
    .into_iter()
    .map(|(bits, iters)| {
        IterationGroup::new(Tag::from_bits(32, bits.iter().copied()), iters.collect())
    })
    .collect();
    for target in [2, 3, 4] {
        assert_matches_reference(&groups, &vec![1; target], 0.10);
    }
}

/// Every nest of the workload registry at Test size, on every commercial
/// machine, under each of `leaf_splits` (distributed in one
/// `distribute_each` call; the reference runs each split alone): identical
/// assignments. Real workloads drive `balance`'s eviction through donors of
/// every size, and the joint call shares their root candidates.
fn registry_grid(leaf_splits: &[LeafSplit]) {
    let machines = catalog::commercial_machines();
    for w in all(SizeClass::Test) {
        let blocks = BlockMap::new(&w.program, 512);
        for (nest, _) in w.program.nests() {
            let groups = group_iterations(&IterationSpace::build(&w.program, nest), &blocks);
            for m in &machines {
                let joint = distribute_each(groups.clone(), m, 0.10, leaf_splits);
                assert_eq!(joint.len(), leaf_splits.len());
                for (&leaf, each) in leaf_splits.iter().zip(joint) {
                    assert_eq!(
                        each,
                        cluster_reference::distribute_with(groups.clone(), m, 0.10, leaf),
                        "{} on {} under {leaf:?}",
                        w.name,
                        m.name()
                    );
                }
            }
        }
    }
}

#[test]
fn registry_times_machine_grid_assignments_identical() {
    registry_grid(&[LeafSplit::Separate]);
}

#[test]
#[ignore = "about two minutes in release; run with --include-ignored"]
fn registry_times_machine_grid_interleaved_assignments_identical() {
    registry_grid(&LEAF_SPLITS);
}
