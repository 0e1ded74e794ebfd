//! Mapping quality metrics: how well an assignment fits a topology, without
//! running the simulator.
//!
//! These are the static quantities the paper's discussion revolves around —
//! data-block replication across caches (Figure 3b's waste), sharing
//! captured under common caches (Figure 3a's opportunity), and load
//! imbalance — packaged for diagnostics, tests and the ablation harness.

use std::fmt;

use ctam_topology::{Machine, NodeKind};

use crate::cluster::Assignment;
use crate::tag::Tag;

/// Static quality metrics of one assignment on one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingMetrics {
    /// Iterations (units) per core.
    pub core_loads: Vec<usize>,
    /// `max(load) / mean(load)` − 1; 0 means perfect balance.
    pub imbalance: f64,
    /// For each cache level: the total number of distinct blocks the caches
    /// at that level hold, summed over caches. Replicated blocks count once
    /// per holding cache.
    pub blocks_per_level: Vec<(u8, u64)>,
    /// For each cache level: how many distinct blocks are held by more than
    /// one cache at that level (cross-cache replication — the effective
    /// capacity the mapping wastes).
    pub replicated_per_level: Vec<(u8, u64)>,
    /// The latency-weighted sharing cost (the objective of
    /// [`crate::optimal`]).
    pub sharing_cost: u64,
}

impl MappingMetrics {
    /// Computes the metrics of `assignment` on `machine`.
    ///
    /// # Panics
    ///
    /// Panics if the assignment's core count differs from the machine's.
    pub fn compute(assignment: &Assignment, machine: &Machine) -> Self {
        assert_eq!(
            assignment.n_cores(),
            machine.n_cores(),
            "assignment/machine core count mismatch"
        );
        let n_bits = assignment
            .per_core()
            .iter()
            .flatten()
            .next()
            .map_or(0, |g| g.tag().n_bits());
        let core_tags: Vec<Tag> = assignment
            .per_core()
            .iter()
            .map(|gs| {
                let mut t = Tag::empty(n_bits);
                for g in gs {
                    t.or_assign(g.tag());
                }
                t
            })
            .collect();
        let core_loads: Vec<usize> = (0..assignment.n_cores())
            .map(|c| assignment.core_size(c))
            .collect();
        let total: usize = core_loads.iter().sum();
        let mean = total as f64 / core_loads.len().max(1) as f64;
        let imbalance = if total == 0 {
            0.0
        } else {
            core_loads.iter().copied().max().unwrap_or(0) as f64 / mean - 1.0
        };

        let mut blocks_per_level = Vec::new();
        let mut replicated_per_level = Vec::new();
        for level in machine.levels() {
            let domains = machine.shared_domains(level);
            let domain_tags: Vec<Tag> = domains
                .iter()
                .map(|(_, cores)| {
                    let mut t = Tag::empty(n_bits);
                    for c in cores {
                        t.or_assign(&core_tags[c.index()]);
                    }
                    t
                })
                .collect();
            let held: u64 = domain_tags.iter().map(|t| u64::from(t.popcount())).sum();
            // A block is replicated at this level if >= 2 domain tags hold it.
            let mut replicated = 0u64;
            for bit in 0..n_bits {
                let holders = domain_tags.iter().filter(|t| t.get(bit)).count();
                if holders >= 2 {
                    replicated += 1;
                }
            }
            blocks_per_level.push((level, held));
            replicated_per_level.push((level, replicated));
        }

        let sharing_cost = crate::optimal::sharing_cost(machine, &core_tags);
        Self {
            core_loads,
            imbalance,
            blocks_per_level,
            replicated_per_level,
            sharing_cost,
        }
    }
}

impl fmt::Display for MappingMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "imbalance {:.1}%, sharing cost {}",
            self.imbalance * 100.0,
            self.sharing_cost
        )?;
        for (&(level, held), &(_, rep)) in
            self.blocks_per_level.iter().zip(&self.replicated_per_level)
        {
            writeln!(
                f,
                "  L{level}: {held} block-copies, {rep} blocks replicated"
            )?;
        }
        Ok(())
    }
}

/// The capacity of the machine's first L1 cache, or 32 KiB for a machine
/// without one — the budget the block-size heuristic and the `Base+` tile
/// size fit their working sets into.
pub fn l1_capacity(machine: &Machine) -> u64 {
    machine
        .caches_at(1)
        .first()
        .map_or(32 * 1024, |&n| match machine.kind(n) {
            NodeKind::Cache { params, .. } => params.size_bytes(),
            _ => unreachable!("caches_at returns caches"),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::IterationGroup;
    use ctam_topology::{CacheParams, Machine, NodeId, KB, MB};

    fn quad() -> Machine {
        let mut b = Machine::builder("quad", 1.0, 100);
        let l1 = CacheParams::new(32 * KB, 8, 64, 3);
        for _ in 0..2 {
            let l2 = b.cache(NodeId::ROOT, 2, CacheParams::new(MB, 8, 64, 10));
            b.core_with_l1(l2, l1);
            b.core_with_l1(l2, l1);
        }
        b.build()
    }

    fn g(bits: &[usize], n: u32, start: u32) -> IterationGroup {
        IterationGroup::new(
            Tag::from_bits(8, bits.iter().copied()),
            (start..start + n).collect(),
        )
    }

    #[test]
    fn perfect_balance_is_zero_imbalance() {
        let a = Assignment::from_per_core(vec![
            vec![g(&[0], 4, 0)],
            vec![g(&[1], 4, 4)],
            vec![g(&[2], 4, 8)],
            vec![g(&[3], 4, 12)],
        ]);
        let m = MappingMetrics::compute(&a, &quad());
        assert_eq!(m.imbalance, 0.0);
        assert_eq!(m.core_loads, vec![4, 4, 4, 4]);
    }

    #[test]
    fn replication_is_counted_per_level() {
        // Block 0 on cores 0 and 2: different L2s -> replicated at L1 and L2.
        let a = Assignment::from_per_core(vec![
            vec![g(&[0], 2, 0)],
            vec![g(&[1], 2, 2)],
            vec![g(&[0], 2, 4)],
            vec![g(&[2], 2, 6)],
        ]);
        let m = MappingMetrics::compute(&a, &quad());
        assert_eq!(m.replicated_per_level, [(1, 1), (2, 1)]);
        // Same block on the same L2 pair instead: L2 replication disappears.
        let b = Assignment::from_per_core(vec![
            vec![g(&[0], 2, 0)],
            vec![g(&[0], 2, 2)],
            vec![g(&[1], 2, 4)],
            vec![g(&[2], 2, 6)],
        ]);
        let mb = MappingMetrics::compute(&b, &quad());
        assert_eq!(mb.replicated_per_level, [(1, 1), (2, 0)]);
        assert!(mb.sharing_cost < m.sharing_cost);
    }

    #[test]
    fn imbalance_measures_worst_core() {
        let a = Assignment::from_per_core(vec![
            vec![g(&[0], 8, 0)],
            vec![g(&[1], 4, 8)],
            vec![g(&[2], 2, 12)],
            vec![g(&[3], 2, 14)],
        ]);
        let m = MappingMetrics::compute(&a, &quad());
        // mean = 4, max = 8 -> imbalance 1.0
        assert!((m.imbalance - 1.0).abs() < 1e-9);
    }

    #[test]
    fn display_mentions_levels() {
        let a = Assignment::from_per_core(vec![vec![g(&[0], 1, 0)], vec![], vec![], vec![]]);
        let m = MappingMetrics::compute(&a, &quad());
        let s = m.to_string();
        assert!(s.contains("L1") && s.contains("L2"), "{s}");
    }

    #[test]
    fn l1_capacity_reads_the_machine() {
        assert_eq!(l1_capacity(&quad()), 32 * KB);
    }
}
