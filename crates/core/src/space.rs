//! A concretized iteration space: enumerated points with their resolved
//! element accesses, the working set the CTAM pass operates on.

use std::ops::Range;

use ctam_loopir::{ElementAccess, NestId, Program};

use crate::blocks::BlockMap;
use crate::tag::Tag;

/// The enumerated iterations of one loop nest, with per-iteration element
/// accesses cached (the "profile" the paper's block-size selection and
/// tagging steps consume).
///
/// # Mapping units
///
/// The paper distributes the iterations of *the parallelized loop* — the
/// outermost loop without carried dependencies — and each such iteration
/// carries its whole inner sweep. The space therefore partitions its points
/// into **units**: maximal runs of points sharing the first `unit_prefix`
/// index values. [`Self::build`] uses singleton units (every point its own
/// unit); [`Self::build_units`] groups by an index prefix. All mapping
/// machinery ([`crate::group`], [`crate::cluster`], [`crate::schedule`])
/// works on unit ids; traces expand units back to points.
///
/// # Layout
///
/// Points are kept in enumeration (lexicographic) order with a fixed
/// stride: `depth` coordinates per point, and `n_refs` accesses per point,
/// since every point resolves each reference of the body exactly once.
/// Units are contiguous runs of points, so a unit is a pair of offsets.
/// There is no point index: a caller that needs `p + d` for a constant `d`
/// finds it by merging over the ordered points, as
/// [`crate::depgraph::GroupDepGraph::build`] does.
#[derive(Debug, Clone)]
pub struct IterationSpace {
    nest: NestId,
    depth: usize,
    /// `depth` coordinates per point, points in lexicographic order.
    coords: Vec<i64>,
    n_refs: usize,
    /// `n_refs` accesses per point, each point's in body order.
    accesses: Vec<ElementAccess>,
    /// Unit `u` is points `unit_start[u]..unit_start[u + 1]`; the last
    /// entry is the number of points.
    unit_start: Vec<usize>,
    /// Inverse map: point -> unit.
    unit_of: Vec<u32>,
    /// Number of leading index positions that define a unit.
    unit_prefix: usize,
}

/// Equality compares the defining fields (nest, unit prefix, points, unit
/// partition); the accesses and the point-to-unit map are derived from them
/// and the program, so comparing them again would be redundant. Two spaces
/// are only meaningfully comparable when built from the same program.
impl PartialEq for IterationSpace {
    fn eq(&self, other: &Self) -> bool {
        self.nest == other.nest
            && self.unit_prefix == other.unit_prefix
            && self.depth == other.depth
            && self.coords == other.coords
            && self.unit_start == other.unit_start
    }
}

impl IterationSpace {
    /// Enumerates `nest` of `program` and resolves every reference; every
    /// point is its own mapping unit.
    pub fn build(program: &Program, nest: NestId) -> Self {
        let depth = program.nest(nest).depth();
        Self::build_units(program, nest, depth)
    }

    /// Like [`Self::build`], but mapping units are maximal runs of points
    /// sharing their first `unit_prefix` indices — e.g. `unit_prefix == 1`
    /// distributes outermost-loop iterations whole, as the paper's
    /// parallelization strategy does.
    ///
    /// # Panics
    ///
    /// Panics if `unit_prefix` exceeds the nest depth.
    pub fn build_units(program: &Program, nest: NestId, unit_prefix: usize) -> Self {
        let loop_nest = program.nest(nest);
        let depth = loop_nest.depth();
        assert!(unit_prefix <= depth, "unit prefix deeper than the nest");
        let mut space = Self {
            nest,
            depth,
            coords: Vec::new(),
            n_refs: loop_nest.refs().len(),
            accesses: Vec::new(),
            unit_start: Vec::new(),
            unit_of: Vec::new(),
            unit_prefix,
        };
        for p in loop_nest.domain().iter() {
            let i = space.unit_of.len();
            if i == 0 || space.point(i - 1)[..unit_prefix] != p[..unit_prefix] {
                space.unit_start.push(i);
            }
            space.unit_of.push((space.unit_start.len() - 1) as u32);
            space.accesses.extend(program.nest_accesses(nest, &p));
            space.coords.extend_from_slice(&p);
        }
        space.unit_start.push(space.unit_of.len());
        space
    }

    /// Number of mapping units.
    pub fn n_units(&self) -> usize {
        self.unit_start.len() - 1
    }

    /// The prefix length that defines units.
    pub fn unit_prefix(&self) -> usize {
        self.unit_prefix
    }

    /// The iteration indices of unit `u`, in lexicographic order.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn unit_members(&self, u: usize) -> Range<usize> {
        self.unit_start[u]..self.unit_start[u + 1]
    }

    /// The first (lexicographically least) point of unit `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn unit_point(&self, u: usize) -> &[i64] {
        self.point(self.unit_start[u])
    }

    /// The element accesses of unit `u`: its members' accesses, member by
    /// member in lexicographic order, each in body order.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn unit_accesses(&self, u: usize) -> &[ElementAccess] {
        let members = self.unit_members(u);
        &self.accesses[members.start * self.n_refs..members.end * self.n_refs]
    }

    /// The unit containing iteration `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn unit_of(&self, i: usize) -> usize {
        self.unit_of[i] as usize
    }

    /// The tag of unit `u`: one bit per data block its members access
    /// (Section 3.3).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn unit_tag(&self, u: usize, blocks: &BlockMap) -> Tag {
        let mut t = Tag::empty(blocks.n_blocks());
        for a in self.unit_accesses(u) {
            t.set(blocks.block_of(a.array, a.element));
        }
        t
    }

    /// The nest this space was built from.
    pub fn nest(&self) -> NestId {
        self.nest
    }

    /// The nest depth: the number of coordinates of every point.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of iterations.
    pub fn n_iterations(&self) -> usize {
        self.unit_of.len()
    }

    /// The point of iteration `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn point(&self, i: usize) -> &[i64] {
        &self.coords[i * self.depth..(i + 1) * self.depth]
    }

    /// The largest number of distinct elements any single iteration touches
    /// — the profile quantity behind block-size selection.
    pub fn max_refs_per_iteration(&self) -> usize {
        // A body without references stores no accesses; `max(1)` keeps the
        // chunk size legal for it.
        self.accesses
            .chunks(self.n_refs.max(1))
            .map(|a| {
                let mut els: Vec<_> = a.iter().map(|e| (e.array, e.element)).collect();
                els.sort_unstable();
                els.dedup();
                els.len()
            })
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctam_loopir::{ArrayRef, LoopNest};
    use ctam_poly::{AffineExpr, AffineMap, IntegerSet};

    fn simple() -> (Program, NestId) {
        let mut p = Program::new("t");
        let a = p.add_array("A", &[64], 8);
        let d = IntegerSet::builder(1).bounds(0, 0, 63).build();
        let id =
            p.add_nest(LoopNest::new("n", d).with_ref(ArrayRef::read(a, AffineMap::identity(1))));
        (p, id)
    }

    #[test]
    fn build_caches_points_and_accesses() {
        let (p, id) = simple();
        let s = IterationSpace::build(&p, id);
        assert_eq!(s.n_iterations(), 64);
        assert_eq!(s.depth(), 1);
        assert_eq!(s.point(10), [10]);
        assert_eq!(s.unit_accesses(5)[0].element, 5);
    }

    #[test]
    fn equality_compares_points_and_units() {
        let (p, id) = grid(8);
        let fresh = IterationSpace::build_units(&p, id, 1);
        assert_eq!(fresh.clone(), fresh);
        assert_eq!(IterationSpace::build_units(&p, id, 1), fresh);
        assert_ne!(IterationSpace::build_units(&p, id, 2), fresh);
    }

    #[test]
    fn tags_track_blocks() {
        let (p, id) = simple();
        let s = IterationSpace::build(&p, id);
        // 64 elements x 8B = 512B; 128B blocks -> 4 blocks of 16 elements.
        let bm = BlockMap::new(&p, 128);
        assert_eq!(bm.n_blocks(), 4);
        let t0 = s.unit_tag(0, &bm);
        let t16 = s.unit_tag(16, &bm);
        assert!(t0.get(0) && !t0.get(1));
        assert!(t16.get(1) && !t16.get(0));
    }

    #[test]
    fn max_refs_counts_distinct_elements() {
        let (p, id) = simple();
        let s = IterationSpace::build(&p, id);
        assert_eq!(s.max_refs_per_iteration(), 1);
    }

    fn grid(n: i64) -> (Program, NestId) {
        let mut p = Program::new("g");
        let a = p.add_array("A", &[n as u64, n as u64], 8);
        let d = IntegerSet::builder(2)
            .bounds(0, 0, n - 1)
            .bounds(1, 0, n - 1)
            .build();
        let id =
            p.add_nest(LoopNest::new("n", d).with_ref(ArrayRef::read(a, AffineMap::identity(2))));
        (p, id)
    }

    #[test]
    fn singleton_units_by_default() {
        let (p, id) = grid(4);
        let s = IterationSpace::build(&p, id);
        assert_eq!(s.n_units(), 16);
        assert_eq!(s.unit_members(3), 3..4);
        assert_eq!(s.unit_of(7), 7);
    }

    #[test]
    fn prefix_units_group_rows() {
        let (p, id) = grid(4);
        let s = IterationSpace::build_units(&p, id, 1);
        assert_eq!(s.n_units(), 4);
        assert_eq!(s.unit_members(1), 4..8);
        assert_eq!(s.unit_point(1), [1, 0]);
        assert_eq!(s.unit_of(6), 1);
        // Unit tag is the union of member tags.
        let bm = BlockMap::new(&p, 64); // 8 elements per block
        let t = s.unit_tag(0, &bm);
        // Row 0 = elements 0..4: block 0 only.
        assert!(t.get(0) && !t.get(1));
        let t1 = s.unit_tag(2, &bm);
        // Row 2 of the row-major 4x4 array is elements 8..12, in block 1
        // (elements 8..16).
        assert!(t1.get(1));
    }

    #[test]
    fn zero_prefix_is_one_unit() {
        let (p, id) = grid(3);
        let s = IterationSpace::build_units(&p, id, 0);
        assert_eq!(s.n_units(), 1);
        assert_eq!(s.unit_members(0).len(), 9);
    }

    #[test]
    #[should_panic(expected = "deeper than the nest")]
    fn overlong_prefix_rejected() {
        let (p, id) = grid(3);
        let _ = IterationSpace::build_units(&p, id, 3);
    }

    /// A nest of `depth` loops over `0..=n` each, inner loops skewed by
    /// `skew` times the next outer index (`skew < 0` makes them triangular:
    /// `j <= i`), with `refs` references `A[i + k][..]` into a
    /// `(n + 2)^depth` array; `n < 0` gives an empty domain.
    fn random_nest(depth: usize, n: i64, skew: i64, refs: &[(bool, i64)]) -> (Program, NestId) {
        let mut p = Program::new("r");
        let extent = (n.max(0) + 2) as u64;
        let a = p.add_array("A", &vec![extent; depth], 8);
        let mut b = IntegerSet::builder(depth).bounds(0, 0, n);
        for d in 1..depth {
            b = if skew < 0 {
                b.lower(d, 0).le_var(d, d - 1)
            } else {
                b.ge(AffineExpr::var(depth, d) - AffineExpr::var(depth, d - 1).scaled(skew))
                    .ge(
                        AffineExpr::var(depth, d - 1).scaled(skew) + AffineExpr::constant(depth, n)
                            - AffineExpr::var(depth, d),
                    )
            };
        }
        let mut nest = LoopNest::new("n", b.build());
        for &(write, k) in refs {
            let mut exprs: Vec<AffineExpr> =
                (0..depth).map(|d| AffineExpr::var(depth, d)).collect();
            exprs[0] = exprs[0].clone() + AffineExpr::constant(depth, k);
            let map = AffineMap::new(depth, exprs);
            nest = nest.with_ref(if write {
                ArrayRef::write(a, map)
            } else {
                ArrayRef::read(a, map)
            });
        }
        let id = p.add_nest(nest);
        (p, id)
    }

    /// Checks every accessor of the flat layout against a per-point rebuild
    /// from the domain's enumeration and `nest_accesses`.
    fn check_against_rebuild(
        p: &Program,
        id: NestId,
        prefix: usize,
    ) -> Result<(), proptest::TestCaseError> {
        let s = IterationSpace::build_units(p, id, prefix);
        let points: Vec<Vec<i64>> = p.nest(id).domain().iter().collect();
        let accesses: Vec<Vec<ElementAccess>> = points
            .iter()
            .map(|q| p.nest_accesses(id, q).collect())
            .collect();
        let mut units: Vec<Vec<usize>> = Vec::new();
        for (i, q) in points.iter().enumerate() {
            match units.last_mut() {
                Some(u) if points[u[0]][..prefix] == q[..prefix] => u.push(i),
                _ => units.push(vec![i]),
            }
        }
        proptest::prop_assert_eq!(s.n_iterations(), points.len());
        proptest::prop_assert_eq!(s.n_units(), units.len());
        for (i, q) in points.iter().enumerate() {
            proptest::prop_assert_eq!(s.point(i), q.as_slice());
        }
        for (u, members) in units.iter().enumerate() {
            proptest::prop_assert_eq!(s.unit_members(u).collect::<Vec<_>>(), members.clone());
            proptest::prop_assert_eq!(s.unit_point(u), points[members[0]].as_slice());
            let flat: Vec<ElementAccess> =
                members.iter().flat_map(|&i| accesses[i].clone()).collect();
            proptest::prop_assert_eq!(s.unit_accesses(u), flat.as_slice());
            for &i in members {
                proptest::prop_assert_eq!(s.unit_of(i), u);
            }
        }
        let distinct = accesses.iter().map(|a| {
            let mut els: Vec<_> = a.iter().map(|e| (e.array, e.element)).collect();
            els.sort_unstable();
            els.dedup();
            els.len()
        });
        proptest::prop_assert_eq!(s.max_refs_per_iteration(), distinct.max().unwrap_or(0));
        Ok(())
    }

    #[test]
    fn empty_domains_and_bodies_match_rebuild() {
        let cases = [
            random_nest(2, -1, 0, &[(true, 0)]),
            random_nest(2, 3, 1, &[]),
            random_nest(3, -1, -1, &[]),
        ];
        for (p, id) in &cases {
            for prefix in 0..=p.nest(*id).depth() {
                check_against_rebuild(p, *id, prefix).unwrap();
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The flat layout matches the per-point rebuild on rectangular,
        /// skewed and triangular nests of 1–3 loops, for every unit prefix.
        #[test]
        fn flat_layout_matches_per_point_rebuild(
            depth in 1usize..4,
            n in -1i64..6,
            skew in -1i64..3,
            refs in proptest::collection::vec((proptest::prop::bool::ANY, -1i64..2), 0..4),
            prefix_pick in 0usize..4,
        ) {
            let (p, id) = random_nest(depth, n, skew, &refs);
            check_against_rebuild(&p, id, prefix_pick % (depth + 1))?;
        }
    }
}
