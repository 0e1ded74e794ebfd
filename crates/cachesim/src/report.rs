//! Simulation results: cycles and per-level cache statistics.

use std::collections::BTreeMap;
use std::fmt;

/// Hit/miss counts of one cache level, aggregated over all caches at that
/// level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Hits at this level.
    pub hits: u64,
    /// Misses at this level (the access continued to the next level).
    pub misses: u64,
}

impl LevelStats {
    /// Total lookups at this level.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss rate in `[0, 1]`; 0 when the level saw no accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

/// The result of simulating one [`crate::trace::MulticoreTrace`] on one
/// machine.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    pub(crate) total_cycles: u64,
    pub(crate) per_core_cycles: Vec<u64>,
    pub(crate) levels: BTreeMap<u8, LevelStats>,
    pub(crate) memory_accesses: u64,
    pub(crate) n_accesses: u64,
    pub(crate) invalidations: u64,
}

impl SimReport {
    /// Parallel execution time in cycles: the largest per-core clock
    /// (barriers synchronize the clocks, so this is the makespan).
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Final clock of each core.
    pub fn per_core_cycles(&self) -> &[u64] {
        &self.per_core_cycles
    }

    /// Aggregated hit/miss statistics of one cache level, if the machine has
    /// that level.
    pub fn level_stats(&self, level: u8) -> Option<&LevelStats> {
        self.levels.get(&level)
    }

    /// All levels, ascending.
    pub fn levels(&self) -> impl Iterator<Item = (u8, &LevelStats)> {
        self.levels.iter().map(|(&l, s)| (l, s))
    }

    /// Accesses that missed every on-chip level and went off-chip.
    pub fn memory_accesses(&self) -> u64 {
        self.memory_accesses
    }

    /// Total memory accesses simulated.
    pub fn n_accesses(&self) -> u64 {
        self.n_accesses
    }

    /// Peer-copy invalidations triggered by writes.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cycles={} accesses={} offchip={} inval={}",
            self.total_cycles, self.n_accesses, self.memory_accesses, self.invalidations
        )?;
        for (l, s) in &self.levels {
            writeln!(
                f,
                "  L{l}: {} hits / {} misses (miss rate {:.1}%)",
                s.hits,
                s.misses,
                s.miss_rate() * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_rate_handles_empty_level() {
        let s = LevelStats::default();
        assert_eq!(s.miss_rate(), 0.0);
        let s = LevelStats { hits: 3, misses: 1 };
        assert!((s.miss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn report_accessors() {
        let mut levels = BTreeMap::new();
        levels.insert(1, LevelStats { hits: 5, misses: 5 });
        let r = SimReport {
            total_cycles: 100,
            per_core_cycles: vec![100, 80],
            levels,
            memory_accesses: 5,
            n_accesses: 10,
            invalidations: 0,
        };
        assert_eq!(r.total_cycles(), 100);
        assert_eq!(r.level_stats(1).unwrap().hits, 5);
        assert!(r.level_stats(2).is_none());
        assert!(r.to_string().contains("L1"));
    }
}
