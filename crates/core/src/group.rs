//! Iteration groups: maximal sets of iterations with identical tags
//! (Section 3.3/3.4).

use std::collections::HashMap;

use crate::blocks::BlockMap;
use crate::space::IterationSpace;
use crate::tag::Tag;

/// A set of mapping units (unit indices into an [`IterationSpace`]) sharing
/// one tag.
///
/// Two invariants from the paper hold by construction: different groups
/// share no units, and the groups of a nest collectively cover its entire
/// iteration set ([`group_iterations`] guarantees both; load balancing may
/// later *split* a group into two groups with the same tag).
///
/// For spaces built with singleton units the member ids are plain iteration
/// indices, matching the paper's Section 3.3 formulation directly; for
/// prefix units each member is one outer-loop iteration carrying its inner
/// sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterationGroup {
    tag: Tag,
    iterations: Vec<u32>,
}

impl IterationGroup {
    /// Builds a group from a tag and iteration indices.
    ///
    /// # Panics
    ///
    /// Panics if `iterations` is empty — empty groups are never created by
    /// grouping and would break size accounting downstream.
    pub fn new(tag: Tag, iterations: Vec<u32>) -> Self {
        assert!(!iterations.is_empty(), "iteration groups must be non-empty");
        Self { tag, iterations }
    }

    /// The group's tag (the paper's `θ`).
    pub fn tag(&self) -> &Tag {
        &self.tag
    }

    /// The member iterations, ascending.
    pub fn iterations(&self) -> &[u32] {
        &self.iterations
    }

    /// Group size `S(σ_θ)`: the number of member iterations.
    pub fn size(&self) -> usize {
        self.iterations.len()
    }

    /// The first (smallest) member iteration — the group's position in
    /// program order, used as a sort key throughout distribution.
    pub fn first(&self) -> u32 {
        self.iterations[0]
    }

    /// Splits off the last `k` iterations into a new group with the same tag
    /// (the load-balancing "break an iteration group" step of Figure 6).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < k < size()`.
    pub fn split_off(&mut self, k: usize) -> IterationGroup {
        assert!(
            k > 0 && k < self.size(),
            "split must leave both halves non-empty"
        );
        let rest = self.iterations.split_off(self.size() - k);
        IterationGroup {
            tag: self.tag.clone(),
            iterations: rest,
        }
    }
}

/// Groups the mapping units of `space` by tag. Groups are returned in
/// ascending order of first member unit, which makes the result
/// deterministic and roughly follows the original program order.
pub fn group_iterations(space: &IterationSpace, blocks: &BlockMap) -> Vec<IterationGroup> {
    let mut by_tag: HashMap<Tag, Vec<u32>> = HashMap::new();
    for u in 0..space.n_units() {
        by_tag
            .entry(space.unit_tag(u, blocks))
            .or_default()
            .push(u as u32);
    }
    let mut groups: Vec<IterationGroup> = by_tag
        .into_iter()
        .map(|(tag, units)| IterationGroup::new(tag, units))
        .collect();
    groups.sort_by_key(|g| g.iterations[0]);
    groups
}

/// Total iterations across a slice of groups.
pub fn total_size(groups: &[IterationGroup]) -> usize {
    groups.iter().map(IterationGroup::size).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctam_loopir::{ArrayRef, LoopNest, Program};
    use ctam_poly::{AffineMap, IntegerSet};

    fn space() -> (Program, IterationSpace, BlockMap) {
        let mut p = Program::new("t");
        let a = p.add_array("A", &[64], 8);
        let d = IntegerSet::builder(1).bounds(0, 0, 63).build();
        let id =
            p.add_nest(LoopNest::new("n", d).with_ref(ArrayRef::read(a, AffineMap::identity(1))));
        let s = IterationSpace::build(&p, id);
        let bm = BlockMap::new(&p, 128); // 4 blocks of 16 iterations
        (p, s, bm)
    }

    #[test]
    fn grouping_partitions_the_space() {
        let (_, s, bm) = space();
        let groups = group_iterations(&s, &bm);
        assert_eq!(groups.len(), 4);
        assert_eq!(total_size(&groups), 64);
        // Disjointness.
        let mut all: Vec<u32> = groups
            .iter()
            .flat_map(|g| g.iterations().to_vec())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 64);
    }

    #[test]
    fn groups_have_homogeneous_tags() {
        let (_, s, bm) = space();
        for g in group_iterations(&s, &bm) {
            for &i in g.iterations() {
                assert_eq!(&s.unit_tag(i as usize, &bm), g.tag());
            }
        }
    }

    #[test]
    fn split_preserves_tag_and_members() {
        let (_, s, bm) = space();
        let mut groups = group_iterations(&s, &bm);
        let g = &mut groups[0];
        let orig: Vec<u32> = g.iterations().to_vec();
        let right = g.split_off(5);
        assert_eq!(g.size(), 11);
        assert_eq!(right.size(), 5);
        assert_eq!(g.tag(), right.tag());
        let mut rejoined: Vec<u32> = g
            .iterations()
            .iter()
            .chain(right.iterations())
            .copied()
            .collect();
        rejoined.sort_unstable();
        assert_eq!(rejoined, orig);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn whole_group_split_rejected() {
        let (_, s, bm) = space();
        let mut groups = group_iterations(&s, &bm);
        let size = groups[0].size();
        let _ = groups[0].split_off(size);
    }
}
