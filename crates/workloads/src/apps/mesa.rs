//! `mesa` (locally maintained, sequential): software rasterization.
//!
//! Dominant structure: triangle-order rasterization. Triangles arrive in
//! *scene* order (object by object as the display list replays), while
//! their pixels land wherever the object sits on screen; triangles of the
//! same object hit the same framebuffer/depth tiles and sample the same
//! texture, and the objects' triangles interleave in the stream (sorted by
//! state changes, not by screen position). Contiguous distribution hands
//! every core every object's tiles; object-aware distribution keeps each
//! object's framebuffer and texture blocks in one cache subtree.

use std::sync::Arc;

use ctam_loopir::{AccessKind, ArrayRef, LoopNest, Program};
use ctam_poly::IntegerSet;

use rand::Rng;

use super::{gather1, id1};
use crate::registry::Workload;
use crate::util::rng_for;
use crate::SizeClass;

/// Objects in the scene; 24 divides evenly over 8- and 12-core machines.
const OBJECTS: u64 = 24;

/// Framebuffer/depth writes per triangle.
const PIX: usize = 3;

/// Texture samples per triangle.
const TEX: usize = 3;

/// Builds the kernel.
pub fn build(size: SizeClass) -> Workload {
    let triangles = 3000 * size.scale();
    let pixels = 12288 * size.scale();
    let texels = 8192 * size.scale();
    let mut p = Program::new("mesa");
    let fb = p.add_array("framebuffer", &[pixels], 8);
    let z = p.add_array("zbuffer", &[pixels], 8);
    let tex = p.add_array("texture", &[texels], 16);
    let span = p.add_array("span_state", &[triangles], 64);

    let mut rng = rng_for("mesa");
    // Triangle t belongs to object t % OBJECTS; the object covers one
    // screen region and one texture region. Triangles tile the screen, so
    // each one rasterizes its own disjoint pixel span inside the object's
    // region (no two triangles write the same pixel — real triangles do not
    // overlap after depth sorting); texture samples are free to collide.
    let screen_region = pixels / OBJECTS;
    let tex_region = texels / OBJECTS;
    let mut pix_table = Vec::with_capacity(triangles as usize * PIX);
    let mut tex_table = Vec::with_capacity(triangles as usize * TEX);
    for t in 0..triangles {
        let obj = t % OBJECTS;
        let rank = t / OBJECTS;
        for k in 0..PIX as u64 {
            let span = (rank * PIX as u64 + k) % screen_region;
            pix_table.push(obj * screen_region + span);
        }
        for _ in 0..TEX {
            tex_table.push(obj * tex_region + rng.gen_range(0..tex_region));
        }
    }
    let pix_table: Arc<[u64]> = pix_table.into();
    let tex_table: Arc<[u64]> = tex_table.into();

    let domain = IntegerSet::builder(1)
        .names(["tri"])
        .bounds(0, 0, triangles as i64 - 1)
        .build();
    let mut nest = LoopNest::new("rasterize", domain).with_ref(ArrayRef::write(span, id1()));
    for k in 0..PIX {
        nest = nest
            .with_ref(ArrayRef::new(
                z,
                gather1(PIX, k, &pix_table),
                AccessKind::Read,
            ))
            .with_ref(ArrayRef::new(
                fb,
                gather1(PIX, k, &pix_table),
                AccessKind::Write,
            ));
    }
    for k in 0..TEX {
        nest = nest.with_ref(ArrayRef::new(
            tex,
            gather1(TEX, k, &tex_table),
            AccessKind::Read,
        ));
    }
    p.add_nest(nest);

    Workload {
        name: "mesa",
        suite: "local",
        parallel: false,
        description: "software rasterizer: object-order triangles over shared screen tiles",
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
        assert_eq!(nest.refs().len(), 1 + 2 * PIX + TEX);
    }

    #[test]
    fn sizes_scale() {
        check_sizes(build);
    }

    #[test]
    fn object_mates_share_screen_region() {
        let w = build(SizeClass::Test);
        let (id, _) = w.program.nests().next().unwrap();
        let region_of = |t: i64| -> u64 {
            w.program
                .nest_accesses(id, &[t])
                .find(|a| a.array.index() == 0) // framebuffer
                .map(|a| a.element / (12288 / OBJECTS))
                .unwrap()
        };
        assert_eq!(region_of(7), region_of(7 + OBJECTS as i64));
        assert_ne!(region_of(7), region_of(8));
    }
}
