//! Parameters of a single cache component.

use std::fmt;

/// The largest cache size ingestion accepts: a size fits in 32 bits, the
/// width a cpuid-style cache description gives a cache's total size. It
/// keeps one parsed cache from asking the simulator for terabytes of
/// state; what a whole machine may simulate is a separate budget.
const MAX_SIZE_BYTES: u64 = u32::MAX as u64;

/// Size, geometry and latency of one cache.
///
/// # Example
///
/// ```
/// use ctam_topology::{CacheParams, KB};
///
/// // Dunnington's L1: 32KB, 8-way, 64-byte lines, 4-cycle latency (Table 1).
/// let l1 = CacheParams::new(32 * KB, 8, 64, 4);
/// assert_eq!(l1.n_sets(), 64);
/// assert_eq!(l1.n_lines(), 512);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheParams {
    size_bytes: u64,
    associativity: u32,
    line_bytes: u32,
    latency: u32,
}

impl CacheParams {
    /// Builds cache parameters.
    ///
    /// # Panics
    ///
    /// Panics unless `line_bytes` is a power of two, `associativity >= 1`,
    /// and `size_bytes` is a positive multiple of
    /// `associativity * line_bytes` (so the set count is integral) of at
    /// most `u32::MAX` bytes.
    pub fn new(size_bytes: u64, associativity: u32, line_bytes: u32, latency: u32) -> Self {
        match Self::try_new(size_bytes, associativity, line_bytes, latency) {
            Ok(p) => p,
            Err(e) => panic!("{e}"),
        }
    }

    /// The fallible form of [`CacheParams::new`] — the single geometry
    /// validation the spec parser and the ingestion front ends share.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated geometry rule:
    /// `line_bytes` must be a power of two, `associativity >= 1`, and
    /// `size_bytes` a positive multiple of `associativity * line_bytes` of
    /// at most `u32::MAX` bytes (4 GiB less one byte).
    pub fn try_new(
        size_bytes: u64,
        associativity: u32,
        line_bytes: u32,
        latency: u32,
    ) -> Result<Self, String> {
        if !line_bytes.is_power_of_two() {
            return Err(format!(
                "line size must be a power of two, got {line_bytes}"
            ));
        }
        if associativity < 1 {
            return Err("associativity must be at least 1".to_owned());
        }
        let way_bytes = u64::from(associativity) * u64::from(line_bytes);
        if size_bytes == 0 || !size_bytes.is_multiple_of(way_bytes) {
            return Err(format!(
                "cache size {size_bytes} is not a multiple of assoc*line = {way_bytes}"
            ));
        }
        if size_bytes > MAX_SIZE_BYTES {
            return Err(format!(
                "cache size {size_bytes} exceeds the {MAX_SIZE_BYTES}-byte ceiling"
            ));
        }
        Ok(Self {
            size_bytes,
            associativity,
            line_bytes,
            latency,
        })
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Number of ways per set.
    pub fn associativity(&self) -> u32 {
        self.associativity
    }

    /// Cache line (block) size in bytes.
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Access latency in cycles on a hit at this level.
    pub fn latency(&self) -> u32 {
        self.latency
    }

    /// Number of sets.
    pub fn n_sets(&self) -> u64 {
        self.size_bytes / (u64::from(self.associativity) * u64::from(self.line_bytes))
    }

    /// Total number of lines.
    pub fn n_lines(&self) -> u64 {
        self.size_bytes / u64::from(self.line_bytes)
    }

    /// Returns a copy with half the capacity (used for the reduced-capacity
    /// sensitivity study of Figure 19). Halving preserves associativity and
    /// line size by halving the set count; a cache already at one set has its
    /// associativity halved instead (never below 1 way).
    pub fn halved(&self) -> Self {
        let way_bytes = u64::from(self.associativity) * u64::from(self.line_bytes);
        if self.size_bytes / 2 >= way_bytes {
            Self {
                size_bytes: self.size_bytes / 2,
                ..*self
            }
        } else if self.associativity > 1 {
            Self {
                size_bytes: self.size_bytes / 2,
                associativity: self.associativity / 2,
                ..*self
            }
        } else {
            *self
        }
    }
}

impl fmt::Display for CacheParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let size = if self.size_bytes.is_multiple_of(crate::MB) {
            format!("{}MB", self.size_bytes / crate::MB)
        } else {
            format!("{}KB", self.size_bytes / crate::KB)
        };
        write!(
            f,
            "{size},{}-way,{}-byte line,{} cycle latency",
            self.associativity, self.line_bytes, self.latency
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KB, MB};

    #[test]
    fn geometry_derivations() {
        let p = CacheParams::new(6 * MB, 24, 64, 15); // Harpertown L2
        assert_eq!(p.n_lines(), 6 * MB / 64);
        assert_eq!(p.n_sets(), 6 * MB / (24 * 64));
    }

    #[test]
    fn halved_halves_sets_first() {
        let p = CacheParams::new(32 * KB, 8, 64, 4);
        let h = p.halved();
        assert_eq!(h.size_bytes(), 16 * KB);
        assert_eq!(h.associativity(), 8);
        assert_eq!(h.n_sets(), p.n_sets() / 2);
    }

    #[test]
    fn halved_falls_back_to_associativity() {
        // One set, 4 ways.
        let p = CacheParams::new(4 * 64, 4, 64, 1);
        let h = p.halved();
        assert_eq!(h.associativity(), 2);
        assert_eq!(h.n_sets(), 1);
    }

    #[test]
    fn halved_never_drops_below_one_line() {
        let p = CacheParams::new(64, 1, 64, 1);
        assert_eq!(p.halved(), p);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_lines() {
        let _ = CacheParams::new(1024, 2, 48, 1);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn rejects_fractional_sets() {
        let _ = CacheParams::new(1000, 4, 64, 1);
    }

    #[test]
    fn sizes_past_32_bits_are_rejected() {
        // 4 GiB is a legal geometry, one byte past the ceiling.
        let err = CacheParams::try_new(4 * 1024 * MB, 16, 64, 40).unwrap_err();
        assert_eq!(
            err,
            "cache size 4294967296 exceeds the 4294967295-byte ceiling"
        );
        assert!(CacheParams::try_new(2 * 1024 * MB, 16, 64, 40).is_ok());
    }

    #[test]
    fn display_matches_table1_style() {
        let p = CacheParams::new(32 * KB, 8, 64, 3);
        assert_eq!(p.to_string(), "32KB,8-way,64-byte line,3 cycle latency");
    }
}
