//! `freqmine` (PARSEC): frequent-itemset mining with FP-growth.
//!
//! Dominant structure: walking a prefix tree. Every transaction touches the
//! hot nodes near the root; the rest of its walk stays inside the subtree of
//! its leading item (its *pattern class*). The transaction stream
//! interleaves classes, so transactions sharing a subtree are a stride
//! apart, not adjacent — contiguous distribution gives every core every
//! subtree, class-aware distribution keeps each subtree in one cache.

use std::sync::Arc;

use ctam_loopir::{AccessKind, ArrayRef, LoopNest, Program};
use ctam_poly::IntegerSet;

use rand::Rng;

use super::{gather1, id1};
use crate::registry::Workload;
use crate::util::rng_for;
use crate::SizeClass;

/// Tree-node reads per transaction (prefix-walk depth).
const K: usize = 6;

/// Pattern classes (top-level items); 24 divides evenly over 8- and
/// 12-core machines.
const CLASSES: u64 = 24;

/// Builds the kernel.
pub fn build(size: SizeClass) -> Workload {
    let transactions = 3000 * size.scale();
    let tree_nodes = 8192 * size.scale();
    let mut p = Program::new("freqmine");
    // FP-tree nodes are item/count/pointer records (32B); per-transaction
    // bookkeeping is a cache-line record (64B).
    let tree = p.add_array("fp_tree", &[tree_nodes], 32);
    let counts = p.add_array("counts", &[transactions], 64);

    let mut rng = rng_for("freqmine");
    // Walk: 2 hot-root reads (shared by everyone) + K-2 reads inside the
    // transaction's class subtree; classes interleave through the stream.
    let root_span = 256u64.min(tree_nodes);
    let subtree = (tree_nodes - root_span) / CLASSES;
    let table: Arc<[u64]> = {
        let mut t = Vec::with_capacity(transactions as usize * K);
        for i in 0..transactions {
            let class = i % CLASSES;
            let base = root_span + class * subtree;
            t.push(rng.gen_range(0..root_span));
            t.push(rng.gen_range(0..root_span));
            for _ in 2..K {
                t.push(rng.gen_range(base..base + subtree));
            }
        }
        t.into()
    };

    let domain = IntegerSet::builder(1)
        .names(["txn"])
        .bounds(0, 0, transactions as i64 - 1)
        .build();
    let mut nest = LoopNest::new("fp_walk", domain).with_ref(ArrayRef::write(counts, id1()));
    for k in 0..K {
        nest = nest.with_ref(ArrayRef::new(tree, gather1(K, k, &table), AccessKind::Read));
    }
    p.add_nest(nest);

    Workload {
        name: "freqmine",
        suite: "Parsec",
        parallel: true,
        description: "FP-growth mining: skewed prefix-tree walks, hot shared root blocks",
        program: p,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::testsupport::{check_sizes, check_workload};

    #[test]
    fn structure() {
        let w = build(SizeClass::Test);
        check_workload(&w);
    }

    #[test]
    fn sizes_scale() {
        check_sizes(build);
    }

    #[test]
    fn walks_touch_root_and_own_subtree() {
        let w = build(SizeClass::Test);
        let (id, _) = w.program.nests().next().unwrap();
        let reads = |i: i64| -> Vec<u64> {
            w.program
                .nest_accesses(id, &[i])
                .filter(|a| a.array.index() == 0)
                .map(|a| a.element)
                .collect()
        };
        let r = reads(5);
        // Two root reads, rest in class 5's subtree.
        assert!(r[0] < 256 && r[1] < 256);
        let subtree = (8192 - 256) / CLASSES;
        let base = 256 + 5 * subtree;
        assert!(r[2..].iter().all(|&e| e >= base && e < base + subtree));
        // Class mates are CLASSES apart.
        let mate = reads(5 + CLASSES as i64);
        assert!(mate[2..].iter().all(|&e| e >= base && e < base + subtree));
    }
}
