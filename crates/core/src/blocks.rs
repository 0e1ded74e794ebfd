//! Data-block partitioning (Section 3.3) and block-size selection
//! (Section 4.1).
//!
//! Data is partitioned into equal-sized logical blocks `β_0 … β_{n-1}`.
//! Following the paper: the partitioning is logical; blocks never cross
//! array boundaries (each array starts a new block); blocks are numbered
//! sequentially, array after array; and together they cover every element
//! the nest touches.

use ctam_loopir::{ArrayId, Program};
use ctam_topology::Machine;

use crate::metrics::l1_capacity;

/// The block partitioning of a program's data space.
///
/// # Example
///
/// ```
/// use ctam::blocks::BlockMap;
/// use ctam_loopir::Program;
///
/// let mut p = Program::new("t");
/// let a = p.add_array("A", &[512], 8); // 4096 bytes = 2 blocks of 2KB
/// let b = p.add_array("B", &[16], 8);  // 128 bytes = 1 (partial) block
/// let bm = BlockMap::new(&p, 2048);
/// assert_eq!(bm.n_blocks(), 3);
/// assert_eq!(bm.block_of(a, 0), 0);
/// assert_eq!(bm.block_of(a, 256), 1);
/// assert_eq!(bm.block_of(b, 0), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMap {
    block_bytes: u64,
    /// First block number of each array.
    first_block: Vec<usize>,
    /// Blocks per array.
    blocks_per_array: Vec<usize>,
    /// Element size of each array (captured from the program).
    elem_bytes: Vec<u32>,
    /// Base byte address of each array in the program's flat data space.
    base_addr: Vec<u64>,
    /// Declared size of each array in bytes.
    size_bytes: Vec<u64>,
    n_blocks: usize,
}

impl BlockMap {
    /// Partitions `program`'s arrays into blocks of `block_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes == 0`.
    pub fn new(program: &Program, block_bytes: u64) -> Self {
        assert!(block_bytes > 0, "block size must be positive");
        let mut first_block = Vec::new();
        let mut blocks_per_array = Vec::new();
        let mut elem_bytes = Vec::new();
        let mut base_addr = Vec::new();
        let mut size_bytes = Vec::new();
        let mut next = 0usize;
        for (id, decl) in program.arrays() {
            let n = decl.size_bytes().div_ceil(block_bytes) as usize;
            first_block.push(next);
            blocks_per_array.push(n);
            elem_bytes.push(decl.elem_bytes());
            base_addr.push(program.array_base(id));
            size_bytes.push(decl.size_bytes());
            next += n;
        }
        Self {
            block_bytes,
            first_block,
            blocks_per_array,
            elem_bytes,
            base_addr,
            size_bytes,
            n_blocks: next,
        }
    }

    /// The block size in bytes.
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Total number of blocks (the tag width).
    pub fn n_blocks(&self) -> usize {
        self.n_blocks
    }

    /// The global block number containing flat element `element` of `array`.
    ///
    /// Byte offsets are taken from the element's position within its own
    /// array, so blocks never straddle arrays.
    ///
    /// # Panics
    ///
    /// Panics if the array id is out of range or the element is outside the
    /// array.
    pub fn block_of(&self, array: ArrayId, element: u64) -> usize {
        let local = (element * u64::from(self.elem_bytes[array.index()])) / self.block_bytes;
        let local = local as usize;
        assert!(
            local < self.blocks_per_array[array.index()],
            "element {element} outside {array}"
        );
        self.first_block[array.index()] + local
    }

    /// The array owning global block `block`, as `(array position, local
    /// block within the array)`. Array positions follow declaration order
    /// (the order [`ctam_loopir::Program::arrays`] iterates).
    ///
    /// # Panics
    ///
    /// Panics if `block >= n_blocks()`.
    fn array_of_block(&self, block: usize) -> (usize, usize) {
        assert!(block < self.n_blocks, "block {block} out of range");
        // first_block is sorted ascending; find the last array starting at
        // or before `block`.
        let a = match self.first_block.binary_search(&block) {
            Ok(mut i) => {
                // Empty arrays (0 blocks) share a start index with their
                // successor; skip to the last array actually holding blocks.
                while self.blocks_per_array[i] == 0 {
                    i += 1;
                }
                i
            }
            Err(i) => i - 1,
        };
        (a, block - self.first_block[a])
    }

    /// The half-open byte extent `[lo, hi)` of `block` in the program's flat
    /// data address space — the addresses [`ctam_loopir::Program::address_of`]
    /// yields. The last block of an array is truncated at the array's
    /// declared size, so extents never claim alignment padding.
    ///
    /// # Panics
    ///
    /// Panics if `block >= n_blocks()`.
    pub fn byte_extent(&self, block: usize) -> (u64, u64) {
        let (a, local) = self.array_of_block(block);
        let lo = self.base_addr[a] + local as u64 * self.block_bytes;
        let hi = (lo + self.block_bytes).min(self.base_addr[a] + self.size_bytes[a]);
        (lo, hi)
    }

    /// The half-open range `[lo, hi)` of cache-line ids (`address /
    /// line_bytes`) that `block` maps onto for a cache with `line_bytes`
    /// lines — the granularity the advisor's sharing predictions work at.
    ///
    /// # Panics
    ///
    /// Panics if `block >= n_blocks()` or `line_bytes == 0`.
    pub fn line_extent(&self, block: usize, line_bytes: u32) -> (u64, u64) {
        assert!(line_bytes > 0, "line size must be positive");
        let (lo, hi) = self.byte_extent(block);
        let lb = u64::from(line_bytes);
        (lo / lb, hi.div_ceil(lb))
    }
}

/// The paper's default block size (Section 4.1): 2KB.
pub const DEFAULT_BLOCK_BYTES: u64 = 2048;

/// Block-size selection heuristic (Section 4.1): choose the largest
/// power-of-two block size, capped at the paper's 2KB default, such that the
/// data touched by the most aggressive iteration (its per-iteration blocks ×
/// the block size) fits in the target's L1 capacity. The paper profiles the
/// application to bound the most aggressive iteration *group*; the
/// per-iteration footprint is the profile quantity available before grouping
/// and yields the same fits-in-L1 guarantee for the groups it induces.
///
/// `max_blocks_per_iteration` comes from profiling (e.g.
/// [`crate::space::IterationSpace::max_refs_per_iteration`]).
pub fn choose_block_size(machine: &Machine, max_blocks_per_iteration: usize) -> u64 {
    let budget = l1_capacity(machine) / max_blocks_per_iteration.max(1) as u64;
    let mut size = DEFAULT_BLOCK_BYTES;
    while size > 64 && size > budget {
        size /= 2;
    }
    size
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctam_loopir::Program;
    use ctam_topology::catalog;

    fn prog() -> (Program, ArrayId, ArrayId) {
        let mut p = Program::new("t");
        let a = p.add_array("A", &[512], 8); // 4KB
        let b = p.add_array("B", &[300], 8); // 2400B
        (p, a, b)
    }

    #[test]
    fn blocks_do_not_cross_array_boundaries() {
        let (p, a, b) = prog();
        let bm = BlockMap::new(&p, 2048);
        // A: 2 blocks, B: ceil(2400/2048) = 2 blocks.
        assert_eq!(bm.n_blocks(), 4);
        assert_eq!(bm.block_of(a, 511), 1);
        assert_eq!(bm.block_of(b, 299), 3);
        // B starts a fresh block even though A's last block had slack... (A
        // is exactly 2 blocks here; the invariant is positional:)
        assert_eq!(bm.block_of(b, 0), 2);
    }

    #[test]
    fn consecutive_blocks_number_sequentially() {
        let (p, a, _) = prog();
        let bm = BlockMap::new(&p, 1024);
        assert_eq!(bm.block_of(a, 0), 0);
        assert_eq!(bm.block_of(a, 127), 0);
        assert_eq!(bm.block_of(a, 128), 1);
        assert_eq!(bm.block_of(a, 511), 3);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_array_element_rejected() {
        let (p, a, _) = prog();
        let bm = BlockMap::new(&p, 1024);
        let _ = bm.block_of(a, 512);
    }

    #[test]
    fn choose_block_size_respects_l1() {
        let m = catalog::dunnington(); // 32KB L1
                                       // A light iteration: default 2KB stands.
        assert_eq!(choose_block_size(&m, 4), 2048);
        // A heavy iteration touching 64 blocks: 32KB/64 = 512B.
        assert_eq!(choose_block_size(&m, 64), 512);
        // Never below 64B.
        assert_eq!(choose_block_size(&m, 100_000), 64);
    }

    #[test]
    fn small_arrays_round_up_to_one_block() {
        let mut p = Program::new("s");
        let a = p.add_array("A", &[1], 8);
        let bm = BlockMap::new(&p, 2048);
        assert_eq!(bm.n_blocks(), 1);
        assert_eq!(bm.block_of(a, 0), 0);
    }

    #[test]
    fn byte_extents_match_program_addresses() {
        let (p, a, b) = prog();
        let bm = BlockMap::new(&p, 2048);
        // A = 4KB at base 0: two full blocks.
        assert_eq!(bm.byte_extent(0), (0, 2048));
        assert_eq!(bm.byte_extent(1), (2048, 4096));
        // B = 2400B, base aligned to the next 64B boundary after A.
        let b_base = p.array_base(b);
        assert_eq!(bm.byte_extent(2), (b_base, b_base + 2048));
        // B's trailing block is truncated at the declared size — no
        // alignment padding is claimed.
        assert_eq!(bm.byte_extent(3), (b_base + 2048, b_base + 2400));
        // Extents agree with address_of at the block boundaries.
        assert_eq!(bm.byte_extent(1).0, p.address_of(a, 256));
        assert_eq!(bm.byte_extent(2).0, p.address_of(b, 0));
    }

    #[test]
    fn line_extents_cover_the_byte_extent() {
        let (p, _, _) = prog();
        let bm = BlockMap::new(&p, 2048);
        for block in 0..bm.n_blocks() {
            let (blo, bhi) = bm.byte_extent(block);
            let (llo, lhi) = bm.line_extent(block, 64);
            assert_eq!(llo, blo / 64);
            assert_eq!(lhi, bhi.div_ceil(64));
            assert!(lhi > llo, "block {block} maps to at least one line");
        }
        // A block smaller than a line still occupies that line.
        let mut p2 = Program::new("tiny");
        p2.add_array("T", &[2], 8); // 16 bytes
        let bm2 = BlockMap::new(&p2, 2048);
        assert_eq!(bm2.byte_extent(0), (0, 16));
        assert_eq!(bm2.line_extent(0, 64), (0, 1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn byte_extent_rejects_out_of_range_blocks() {
        let (p, _, _) = prog();
        let bm = BlockMap::new(&p, 2048);
        let _ = bm.byte_extent(bm.n_blocks());
    }
}
