//! Per-core code generation (Section 3.4).
//!
//! Once iterations are distributed and scheduled, each core needs code that
//! enumerates its iterations — the paper uses the Omega Library's `codegen`
//! for this. [`emit_core_code`] reconstructs, for every core, the integer
//! sets covering its mapping units (merging consecutive units into one set)
//! and renders them as C-like loop nests with [`ctam_poly::generate_union`].

use ctam_loopir::Program;
use ctam_poly::{generate_union, AffineExpr, Constraint, IntegerSet};

use crate::pipeline::NestMapping;

/// Builds the integer set of one maximal run of consecutive units: the
/// nest's domain restricted to the units' prefix range.
fn run_set(
    domain: &IntegerSet,
    mapping: &NestMapping,
    first_unit: usize,
    last_unit: usize,
) -> IntegerSet {
    let space = &mapping.space;
    let prefix = space.unit_prefix();
    let dim = domain.dim();
    let first_point = space.unit_point(first_unit);
    let last_point = space.unit_point(last_unit);
    let mut set = domain.clone();
    if prefix == 1 || first_unit == last_unit {
        // Constrain the prefix dims: a range on dim 0 for 1-prefix units,
        // exact equality on every prefix dim for a single unit.
        if first_unit == last_unit {
            for (d, &coord) in first_point.iter().enumerate().take(prefix) {
                set = set.with_constraint(Constraint::eq(
                    AffineExpr::var(dim, d) - AffineExpr::constant(dim, coord),
                ));
            }
        } else {
            set = set
                .with_constraint(Constraint::ge(
                    AffineExpr::var(dim, 0) - AffineExpr::constant(dim, first_point[0]),
                ))
                .with_constraint(Constraint::ge(
                    AffineExpr::constant(dim, last_point[0]) - AffineExpr::var(dim, 0),
                ));
        }
    } else {
        // Deeper prefixes: conservative per-run box over the prefix dims.
        for d in 0..prefix {
            let (lo, hi) = (
                first_point[d].min(last_point[d]),
                first_point[d].max(last_point[d]),
            );
            set = set
                .with_constraint(Constraint::ge(
                    AffineExpr::var(dim, d) - AffineExpr::constant(dim, lo),
                ))
                .with_constraint(Constraint::ge(
                    AffineExpr::constant(dim, hi) - AffineExpr::var(dim, d),
                ));
        }
    }
    set
}

/// Emits, for every core, C-like code enumerating its iterations in
/// schedule order (rounds flattened; barriers shown as comments). Returns
/// one string per core.
///
/// The sets behind the emitted nests partition the iteration space exactly:
/// consecutive mapping units merge into a single loop nest, scattered units
/// fall back to one nest each, and for multi-dimensional unit prefixes a
/// run is emitted per unit (exactness over brevity). `program` is the
/// program `mapping` was built from; the nest is the one `mapping.space`
/// records.
///
/// # Panics
///
/// Panics if `program` has no nest with that id.
pub fn emit_core_code(mapping: &NestMapping, program: &Program) -> Vec<String> {
    let domain = program.nest(mapping.space.nest()).domain();
    let n_cores = mapping.schedule.n_cores();
    let multi_prefix = mapping.space.unit_prefix() > 1;
    (0..n_cores)
        .map(|core| {
            let mut sets: Vec<IntegerSet> = Vec::new();
            let mut pieces: Vec<String> = Vec::new();
            for (r, round) in mapping.schedule.rounds().iter().enumerate() {
                if r > 0 {
                    pieces.push(format!("// --- barrier (round {r}) ---"));
                }
                for g in &round[core] {
                    // Maximal runs of consecutive unit ids.
                    let units = g.iterations();
                    let mut start = 0usize;
                    for k in 1..=units.len() {
                        let splits_here =
                            k == units.len() || units[k] != units[k - 1] + 1 || multi_prefix;
                        if splits_here {
                            sets.push(run_set(
                                domain,
                                mapping,
                                units[start] as usize,
                                units[k - 1] as usize,
                            ));
                            start = k;
                        }
                    }
                }
            }
            let mut out = format!("// ==== core {core} ====\n");
            if !pieces.is_empty() {
                out.push_str(&pieces.join("\n"));
                out.push('\n');
            }
            out.push_str(&generate_union(&sets));
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{map_nest, CtamParams, Strategy};
    use ctam_loopir::{ArrayRef, LoopNest, NestId};
    use ctam_poly::AffineMap;
    use ctam_topology::catalog;

    fn program_2d(n: u64) -> (Program, NestId) {
        let mut p = Program::new("emit");
        let a = p.add_array("A", &[n, n], 8);
        let d = IntegerSet::builder(2)
            .names(["i", "j"])
            .bounds(0, 0, n as i64 - 1)
            .bounds(1, 0, n as i64 - 1)
            .build();
        let id = p.add_nest(
            LoopNest::new("sweep", d).with_ref(ArrayRef::read(a, AffineMap::identity(2))),
        );
        (p, id)
    }

    #[test]
    fn emitted_sets_cover_the_space_exactly() {
        let (p, id) = program_2d(24);
        let m = catalog::harpertown();
        let mapping =
            map_nest(&p, id, &m, Strategy::TopologyAware, &CtamParams::default()).unwrap();
        // Reconstruct the sets the emitter uses and count their points.
        let code = emit_core_code(&mapping, &p);
        assert_eq!(code.len(), 8);
        // Every core's code must contain at least one loop over i.
        for (c, text) in code.iter().enumerate() {
            assert!(text.contains("for (i"), "core {c}: {text}");
        }
        // Unit conservation: the schedule covers all 24 row-units.
        assert_eq!(mapping.schedule.total_iterations(), 24);
    }

    #[test]
    fn base_chunks_emit_single_nests() {
        let (p, id) = program_2d(16);
        let m = catalog::harpertown();
        let mapping = map_nest(&p, id, &m, Strategy::Base, &CtamParams::default()).unwrap();
        let code = emit_core_code(&mapping, &p);
        // Base gives each core one contiguous row range: exactly one
        // iteration-group comment per core.
        for text in &code {
            assert_eq!(text.matches("// iteration group").count(), 1, "{text}");
        }
    }

    #[test]
    fn barriers_appear_as_comments() {
        // A dependent nest scheduled with rounds shows barrier separators.
        let n: u64 = 16;
        let mut p = Program::new("dep");
        let a = p.add_array("A", &[n, n], 8);
        let d = IntegerSet::builder(2)
            .names(["i", "j"])
            .bounds(0, 1, n as i64 - 1)
            .bounds(1, 0, n as i64 - 1)
            .build();
        let up = AffineMap::new(
            2,
            vec![
                AffineExpr::var(2, 0) - AffineExpr::constant(2, 1),
                AffineExpr::var(2, 1),
            ],
        );
        let id = p.add_nest(
            LoopNest::new("chain", d)
                .with_ref(ArrayRef::write(a, AffineMap::identity(2)))
                .with_ref(ArrayRef::read(a, up)),
        );
        let m = catalog::harpertown();
        let mapping = map_nest(&p, id, &m, Strategy::Combined, &CtamParams::default()).unwrap();
        if mapping.schedule.n_rounds() > 1 {
            let code = emit_core_code(&mapping, &p);
            assert!(code.iter().any(|t| t.contains("barrier")));
        }
    }
}
