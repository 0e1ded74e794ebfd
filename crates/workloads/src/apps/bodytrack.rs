//! `bodytrack` (PARSEC): body tracking with a particle filter.
//!
//! Dominant structure: per-particle likelihood evaluation — each particle
//! gathers pixels from the image region its pose hypothesis covers. After
//! the resampling step the particle array is *scattered*: consecutive
//! particles hypothesize about different body parts, while particles a
//! fixed stride apart evaluate the same image region. Contiguous
//! distribution hands every core every region; grouping by region keeps
//! each region's blocks in one cache subtree.

use std::sync::Arc;

use ctam_loopir::{AccessKind, ArrayRef, LoopNest, Program};
use ctam_poly::IntegerSet;

use rand::Rng;

use super::{gather1, id1};
use crate::registry::Workload;
use crate::util::rng_for;
use crate::SizeClass;

/// Image reads per particle.
const K: usize = 4;

/// Builds the kernel.
pub fn build(size: SizeClass) -> Workload {
    let particles = 3000 * size.scale();
    let image_elems = 12288 * size.scale();
    let mut p = Program::new("bodytrack");
    // Realistic record widths: an edge-map texel with gradients (16B), a
    // 30-float pose vector (128B as two lines), a weight/likelihood record
    // (64B). Per-particle state spanning whole cache lines is what keeps
    // real particle filters free of false sharing however particles are
    // scheduled.
    let image = p.add_array("edge_map", &[image_elems], 16);
    let weights = p.add_array("weights", &[particles], 64);
    let poses = p.add_array("poses", &[particles], 128);

    let mut rng = rng_for("bodytrack");
    // Post-resampling scatter: particle i evaluates region i mod n_regions,
    // so region-mates are `n_regions` apart in the loop. 24 regions divide
    // evenly over 8- and 12-core machines.
    let n_regions = 24;
    let region = image_elems / n_regions;
    let table: Arc<[u64]> = {
        let mut t = Vec::with_capacity(particles as usize * K);
        for i in 0..particles {
            let base = (i % n_regions) * region;
            for _ in 0..K {
                t.push(rng.gen_range(base..base + region));
            }
        }
        t.into()
    };

    let domain = IntegerSet::builder(1)
        .names(["particle"])
        .bounds(0, 0, particles as i64 - 1)
        .build();
    let mut nest = LoopNest::new("likelihood", domain)
        .with_ref(ArrayRef::read(poses, id1()))
        .with_ref(ArrayRef::write(weights, id1()));
    for k in 0..K {
        nest = nest.with_ref(ArrayRef::new(
            image,
            gather1(K, k, &table),
            AccessKind::Read,
        ));
    }
    p.add_nest(nest);

    Workload {
        name: "bodytrack",
        suite: "Parsec",
        parallel: true,
        description: "particle filter: region-local image gathers per particle",
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
    fn strided_particles_share_regions() {
        let w = build(SizeClass::Test);
        let (id, _) = w.program.nests().next().unwrap();
        let n_regions = 24;
        let region = 12288 / 24; // Test image
        let reg_of = |i: i64| -> u64 {
            w.program
                .nest_accesses(id, &[i])
                .find(|a| a.array.index() == 0)
                .map(|a| a.element / region)
                .unwrap()
        };
        // Particles a stride apart share a region; neighbours do not.
        assert_eq!(reg_of(3), reg_of(3 + n_regions));
        assert_ne!(reg_of(3), reg_of(4));
    }
}
