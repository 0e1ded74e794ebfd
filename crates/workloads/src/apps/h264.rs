//! `H.264` (locally maintained, sequential): video encoding.
//!
//! Dominant structure: motion estimation over macroblocks processed in
//! *wavefront* order (each macroblock needs its left and upper neighbours'
//! decisions first, so encoders sweep anti-diagonals). Wavefront order
//! scatters raster-adjacent macroblocks across the iteration stream:
//! the macroblocks sharing a reference-frame search window sit a diagonal
//! apart, not next to each other — contiguous distribution spreads every
//! search window over many cores.

use std::sync::Arc;

use ctam_loopir::{AccessKind, ArrayRef, LoopNest, Program};
use ctam_poly::IntegerSet;

use super::gather1;
use crate::registry::Workload;
use crate::SizeClass;

/// Macroblocks per frame row.
const MB_PER_ROW: u64 = 40;

/// Elements per macroblock (64 pixels at 8B: a 2KB block at default size).
const MB_ELEMS: u64 = 64;

/// Reads into the current macroblock per iteration.
const CUR_READS: usize = 3;

/// Reads into the reference window per iteration.
const REF_READS: usize = 4;

/// The wavefront (anti-diagonal) visit order of an `rows x cols` grid.
fn wavefront(rows: u64, cols: u64) -> Vec<u64> {
    let mut order = Vec::with_capacity((rows * cols) as usize);
    for d in 0..(rows + cols - 1) {
        for r in 0..rows {
            if d >= r && d - r < cols {
                order.push(r * cols + (d - r));
            }
        }
    }
    order
}

/// Builds the kernel.
pub fn build(size: SizeClass) -> Workload {
    let mb_rows = 24 * size.scale();
    let n_mb = MB_PER_ROW * mb_rows;
    let frame_elems = n_mb * MB_ELEMS;
    let mut p = Program::new("h264");
    let cur = p.add_array("cur_frame", &[frame_elems], 8);
    let reference = p.add_array("ref_frame", &[frame_elems], 8);
    // Per-macroblock decisions (vectors, modes, costs) are a 64B record.
    let mv = p.add_array("motion_vectors", &[n_mb], 64);

    let order = wavefront(mb_rows, MB_PER_ROW);
    // Current-macroblock probes: spread points inside the block.
    let cur_table: Arc<[u64]> = order
        .iter()
        .flat_map(|&mb| {
            [0, MB_ELEMS / 2, MB_ELEMS - 1]
                .into_iter()
                .map(move |off| mb * MB_ELEMS + off)
        })
        .collect::<Vec<u64>>()
        .into();
    // Reference search window: own block, left/right neighbours, one row up.
    let ref_table: Arc<[u64]> = order
        .iter()
        .flat_map(|&mb| {
            let mb = mb as i64;
            [0i64, -1, 1, -(MB_PER_ROW as i64)]
                .into_iter()
                .map(move |d| {
                    let target = (mb + d).clamp(0, n_mb as i64 - 1) as u64;
                    target * MB_ELEMS
                })
        })
        .collect::<Vec<u64>>()
        .into();
    // Motion vector writes land at the macroblock's raster position.
    let mv_table: Arc<[u64]> = order.clone().into();

    let domain = IntegerSet::builder(1)
        .names(["wave"])
        .bounds(0, 0, n_mb as i64 - 1)
        .build();
    let mut nest = LoopNest::new("motion_est", domain).with_ref(ArrayRef::new(
        mv,
        gather1(1, 0, &mv_table),
        AccessKind::Write,
    ));
    for k in 0..CUR_READS {
        nest = nest.with_ref(ArrayRef::new(
            cur,
            gather1(CUR_READS, k, &cur_table),
            AccessKind::Read,
        ));
    }
    for k in 0..REF_READS {
        nest = nest.with_ref(ArrayRef::new(
            reference,
            gather1(REF_READS, k, &ref_table),
            AccessKind::Read,
        ));
    }
    p.add_nest(nest);

    Workload {
        name: "H.264",
        suite: "local",
        parallel: false,
        description: "video encoder: wavefront-order motion estimation, overlapping windows",
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
        let (_, nest) = w.program.nests().next().unwrap();
        assert_eq!(nest.refs().len(), 1 + CUR_READS + REF_READS);
    }

    #[test]
    fn sizes_scale() {
        check_sizes(build);
    }

    #[test]
    fn wavefront_covers_grid_once() {
        let order = wavefront(3, 4);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<u64>>());
        // Anti-diagonal 1 holds raster cells 1 (0,1) and 4 (1,0).
        assert_eq!(&order[1..3], &[1, 4]);
    }

    #[test]
    fn raster_neighbours_are_a_diagonal_apart() {
        // In wavefront order, (r, c) and (r, c+1) are separated by roughly
        // one diagonal's worth of iterations, not adjacent.
        let rows = 24u64;
        let order = wavefront(rows, MB_PER_ROW);
        let pos_of = |mb: u64| order.iter().position(|&x| x == mb).unwrap() as i64;
        let mid = 12 * MB_PER_ROW + 20; // safely interior
        let gap = (pos_of(mid + 1) - pos_of(mid)).abs();
        assert!(
            gap > 5,
            "wavefront should separate raster neighbours: {gap}"
        );
    }

    #[test]
    fn overlapping_reference_windows() {
        let w = build(SizeClass::Test);
        let (id, _) = w.program.nests().next().unwrap();
        // The iteration handling mb and the one handling mb+1 read a common
        // reference block.
        let order = wavefront(24, MB_PER_ROW);
        let mid = 12 * MB_PER_ROW + 20;
        let t_a = order.iter().position(|&x| x == mid).unwrap() as i64;
        let t_b = order.iter().position(|&x| x == mid + 1).unwrap() as i64;
        let refs = |t: i64| -> Vec<u64> {
            w.program
                .nest_accesses(id, &[t])
                .filter(|a| a.array.index() == 1)
                .map(|a| a.element)
                .collect()
        };
        let a = refs(t_a);
        let b = refs(t_b);
        assert!(a.iter().any(|e| b.contains(e)), "windows must overlap");
    }
}
