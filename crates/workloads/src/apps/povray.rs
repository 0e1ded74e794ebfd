//! `povray` (SPEC 2006, sequential): ray tracing.
//!
//! Dominant structure: per-pixel rays traversing a scene hierarchy —
//! adjacent pixels hit nearby geometry, so screen tiles share scene blocks,
//! while the framebuffer is written in raster order.

use std::sync::Arc;

use ctam_loopir::{AccessKind, ArrayRef, LoopNest, Program};
use ctam_poly::IntegerSet;

use super::{gather2, shift2};
use crate::registry::Workload;
use crate::util::{region_table, rng_for};
use crate::SizeClass;

/// Scene reads per ray.
const K: usize = 3;

/// Builds the kernel.
pub fn build(size: SizeClass) -> Workload {
    let h = 48 * size.scale();
    let w = 64 * size.scale();
    let scene_elems = 16384 * size.scale();
    let mut p = Program::new("povray");
    let scene = p.add_array("scene", &[scene_elems], 8);
    let fb = p.add_array("framebuffer", &[h, w], 8);

    let mut rng = rng_for("povray");
    // One row of rays shares a scene region (geometry coherence).
    let table: Arc<[u64]> = region_table(h * w, w, K, 1024, scene_elems, &mut rng).into();

    let domain = IntegerSet::builder(2)
        .names(["y", "x"])
        .bounds(0, 0, h as i64 - 1)
        .bounds(1, 0, w as i64 - 1)
        .build();
    let mut nest = LoopNest::new("trace", domain).with_ref(ArrayRef::write(fb, shift2(0, 0)));
    for k in 0..K {
        nest = nest.with_ref(ArrayRef::new(
            scene,
            gather2(w as i64, K, k, &table),
            AccessKind::Read,
        ));
    }
    p.add_nest(nest);

    Workload {
        name: "povray",
        suite: "Spec2006",
        parallel: false,
        description: "ray tracer: raster framebuffer writes + row-coherent scene gathers",
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
    fn same_row_rays_share_scene_region() {
        let w = build(SizeClass::Test);
        let (id, _) = w.program.nests().next().unwrap();
        let scene_of = |y: i64, x: i64| -> u64 {
            w.program
                .nest_accesses(id, &[y, x])
                .find(|a| a.array.index() == 0)
                .map(|a| a.element / 1024)
                .unwrap()
        };
        assert_eq!(scene_of(5, 0), scene_of(5, 63));
    }
}
