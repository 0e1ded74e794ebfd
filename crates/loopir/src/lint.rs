//! Static subscript lints: bounds and affinity checks over a nest's array
//! references.
//!
//! These are the loop-IR-level hooks behind the `CTAM-W201` / `CTAM-W202`
//! diagnostics of the verification layer: a subscript that can index outside
//! its array's declared extents (the program model silently *clamps* such
//! accesses, see [`crate::ArrayDecl::flatten`], so the symptom is wrong
//! sharing behaviour rather than a crash), and a subscript that is not
//! affine (defeating exact dependence analysis — such references are handled
//! conservatively downstream).

use crate::dependence::expr_range;
use crate::{ArrayId, NestId, Program, Subscript};

/// What a subscript lint found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LintKind {
    /// The subscript can evaluate outside the array's declared extents.
    OutOfBounds,
    /// The subscript is not an affine function of the iteration vector.
    NonAffine,
    /// A subscript row couples two or more loop variables (e.g. `A[i+j]`):
    /// still affine — the symbolic engine handles it exactly — but outside
    /// the single-subscript tests (GCD/Banerjee screen per row, uniform
    /// test), so such rows typically cost a conflict-set projection.
    Coupled,
}

/// One finding of [`lint_nest`].
#[derive(Debug, Clone)]
pub struct SubscriptLint {
    /// The nest containing the offending reference.
    pub nest: NestId,
    /// Index of the reference in the nest's body order.
    pub ref_index: usize,
    /// The referenced array.
    pub array: ArrayId,
    /// What was found.
    pub kind: LintKind,
    /// Human-readable specifics (dimension, extent, attainable range, …).
    pub detail: String,
}

/// Lints every reference of `nest`: affine subscripts are interval-checked
/// against the referenced array's extents over the domain's bounding box
/// (exact for affine expressions, since extrema are attained at box
/// corners); indirect subscripts are flagged as non-affine and the
/// *reachable* rows of their index tables (the selector's range, when it
/// stays inside the table) checked against the array's element count, with
/// the offending row reported.
///
/// # Panics
///
/// Panics if `nest` is not a nest of `program`.
pub fn lint_nest(program: &Program, nest: NestId) -> Vec<SubscriptLint> {
    let n = program.nest(nest);
    let mut out = Vec::new();
    // A domain Fourier–Motzkin cannot bound is linted like an empty one.
    let bbox = n.domain().bounding_box().ok().flatten();
    for (ref_index, r) in n.refs().iter().enumerate() {
        let decl = program.array(r.array());
        let lint = |kind, detail| SubscriptLint {
            nest,
            ref_index,
            array: r.array(),
            kind,
            detail,
        };
        match r.subscript() {
            Subscript::Affine(map) => {
                if map.n_out() != decl.dims().len() {
                    out.push(lint(
                        LintKind::OutOfBounds,
                        format!(
                            "subscript arity {} does not match array `{}` rank {}",
                            map.n_out(),
                            decl.name(),
                            decl.dims().len()
                        ),
                    ));
                    continue;
                }
                let Some(bbox) = &bbox else { continue }; // empty domain: nothing runs
                for (d, expr) in map.exprs().iter().enumerate() {
                    let extent = decl.extent(d);
                    let range = expr_range(expr, bbox);
                    if !range.is_some_and(|(lo, hi)| lo >= 0 && hi < i128::from(extent)) {
                        let span = range
                            .map_or("beyond i128".to_owned(), |(lo, hi)| format!("[{lo}, {hi}]"));
                        out.push(lint(
                            LintKind::OutOfBounds,
                            format!(
                                "dimension {d} of `{}` spans {span} but the \
                                 declared extent is [0, {})",
                                decl.name(),
                                extent
                            ),
                        ));
                    }
                    let coupled = expr.coeffs().iter().filter(|&&c| c != 0).count() >= 2;
                    if coupled {
                        out.push(lint(
                            LintKind::Coupled,
                            format!(
                                "dimension {d} of `{}` couples {} loop variables \
                                 in one subscript row",
                                decl.name(),
                                expr.coeffs().iter().filter(|&&c| c != 0).count()
                            ),
                        ));
                    }
                }
            }
            Subscript::Indirect { selector, table } => {
                out.push(lint(
                    LintKind::NonAffine,
                    format!(
                        "indirect subscript into `{}` (table of {} entries) is \
                         outside the affine dependence model",
                        decl.name(),
                        table.len()
                    ),
                ));
                let Some(bbox) = &bbox else { continue }; // empty domain: nothing runs
                if table.is_empty() {
                    continue;
                }
                // Only rows the selector can actually reach matter: the
                // selector wraps modulo the table length, so a selector that
                // stays inside `[0, len)` pins the reachable row window,
                // while one that strays makes every row reachable.
                let (rlo, rhi) = match expr_range(selector, bbox) {
                    Some((lo, hi)) if lo >= 0 && hi < table.len() as i128 => {
                        (lo as usize, hi as usize)
                    }
                    _ => (0, table.len() - 1),
                };
                let n_elements = decl.n_elements();
                let mut worst = (table[rlo], rlo);
                for row in rlo + 1..=rhi {
                    if table[row] > worst.0 {
                        worst = (table[row], row);
                    }
                }
                if worst.0 >= n_elements {
                    out.push(lint(
                        LintKind::OutOfBounds,
                        format!(
                            "index table entry {} (row {}) exceeds `{}`'s {} elements",
                            worst.0,
                            worst.1,
                            decl.name(),
                            n_elements
                        ),
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessKind, ArrayRef, LoopNest};
    use ctam_poly::{AffineExpr, AffineMap, IntegerSet};
    use std::sync::Arc;

    fn domain(n: i64) -> IntegerSet {
        IntegerSet::builder(1).bounds(0, 0, n - 1).build()
    }

    #[test]
    fn in_bounds_affine_is_clean() {
        let mut p = Program::new("t");
        let a = p.add_array("A", &[64], 8);
        let id = p.add_nest(
            LoopNest::new("n", domain(64)).with_ref(ArrayRef::read(a, AffineMap::identity(1))),
        );
        assert!(lint_nest(&p, id).is_empty());
    }

    #[test]
    fn overshooting_subscript_flagged() {
        let mut p = Program::new("t");
        let a = p.add_array("A", &[64], 8);
        let shifted = AffineMap::new(1, vec![AffineExpr::var(1, 0) + AffineExpr::constant(1, 4)]);
        let id = p.add_nest(LoopNest::new("n", domain(64)).with_ref(ArrayRef::read(a, shifted)));
        let lints = lint_nest(&p, id);
        assert_eq!(lints.len(), 1);
        assert_eq!(lints[0].kind, LintKind::OutOfBounds);
        assert!(lints[0].detail.contains("[4, 67]"), "{}", lints[0].detail);
    }

    #[test]
    fn huge_coefficients_do_not_overflow_the_span() {
        // 2^62 * i over i in [0, 3] spans past `i64`; the lint still
        // reports the exact span.
        let p = crate::parse::parse_program(
            "program p { array A[16] : 8; for n (i = 0 .. 3) { A[4611686018427387904 * i] = 1; } }",
        )
        .unwrap();
        let (id, _) = p.nests().next().unwrap();
        let lints = lint_nest(&p, id);
        assert_eq!(lints.len(), 1);
        assert_eq!(
            lints[0].detail,
            "dimension 0 of `A` spans [0, 13835058055282163712] but the declared extent is [0, 16)"
        );
    }

    #[test]
    fn negative_reach_flagged() {
        let mut p = Program::new("t");
        let a = p.add_array("A", &[64], 8);
        let shifted = AffineMap::new(1, vec![AffineExpr::var(1, 0) - AffineExpr::constant(1, 1)]);
        let id = p.add_nest(LoopNest::new("n", domain(64)).with_ref(ArrayRef::read(a, shifted)));
        assert_eq!(lint_nest(&p, id).len(), 1);
    }

    #[test]
    fn coupled_row_flagged() {
        let mut p = Program::new("t");
        let a = p.add_array("A", &[32], 8);
        let d = IntegerSet::builder(2)
            .bounds(0, 0, 7)
            .bounds(1, 0, 7)
            .build();
        let sum = AffineMap::new(2, vec![AffineExpr::var(2, 0) + AffineExpr::var(2, 1)]);
        let id = p.add_nest(LoopNest::new("n", d).with_ref(ArrayRef::read(a, sum)));
        let lints = lint_nest(&p, id);
        assert_eq!(lints.len(), 1);
        assert_eq!(lints[0].kind, LintKind::Coupled);
        assert!(lints[0].detail.contains("couples 2"), "{}", lints[0].detail);
    }

    #[test]
    fn rank_mismatch_flagged() {
        let mut p = Program::new("t");
        let a = p.add_array("A", &[8, 8], 8);
        let id = p.add_nest(
            LoopNest::new("n", domain(8)).with_ref(ArrayRef::read(a, AffineMap::identity(1))),
        );
        let lints = lint_nest(&p, id);
        assert_eq!(lints.len(), 1);
        assert!(lints[0].detail.contains("rank"));
    }

    #[test]
    fn indirect_is_nonaffine_and_bounds_checked() {
        let mut p = Program::new("t");
        let a = p.add_array("A", &[16], 8);
        let table: Arc<[u64]> = vec![0, 5, 99].into();
        let id = p.add_nest(LoopNest::new("n", domain(8)).with_ref(ArrayRef::new(
            a,
            Subscript::Indirect {
                selector: AffineExpr::var(1, 0),
                table,
            },
            AccessKind::Read,
        )));
        let lints = lint_nest(&p, id);
        assert_eq!(lints.len(), 2);
        assert_eq!(lints[0].kind, LintKind::NonAffine);
        assert_eq!(lints[1].kind, LintKind::OutOfBounds);
        assert!(
            lints[1].detail.contains("entry 99 (row 2)"),
            "{}",
            lints[1].detail
        );
    }

    #[test]
    fn unreachable_bad_rows_are_not_flagged() {
        // Rows 4..8 hold out-of-bounds entries, but the selector only
        // reaches rows 0..4 — no wrap, no lint beyond non-affine.
        let mut p = Program::new("t");
        let a = p.add_array("A", &[16], 8);
        let table: Arc<[u64]> = vec![0, 1, 2, 3, 99, 99, 99, 99].into();
        let id = p.add_nest(LoopNest::new("n", domain(4)).with_ref(ArrayRef::new(
            a,
            Subscript::Indirect {
                selector: AffineExpr::var(1, 0),
                table,
            },
            AccessKind::Read,
        )));
        let lints = lint_nest(&p, id);
        assert_eq!(lints.len(), 1, "{lints:?}");
        assert_eq!(lints[0].kind, LintKind::NonAffine);
    }

    #[test]
    fn wrapping_selector_flags_the_whole_table() {
        // The same table, but the selector wraps modulo the 8-row table —
        // every row becomes reachable and row 4 is reported.
        let mut p = Program::new("t");
        let a = p.add_array("A", &[16], 8);
        let table: Arc<[u64]> = vec![0, 1, 2, 3, 99, 99, 99, 99].into();
        let id = p.add_nest(LoopNest::new("n", domain(12)).with_ref(ArrayRef::new(
            a,
            Subscript::Indirect {
                selector: AffineExpr::var(1, 0),
                table,
            },
            AccessKind::Read,
        )));
        let lints = lint_nest(&p, id);
        assert_eq!(lints.len(), 2, "{lints:?}");
        assert_eq!(lints[1].kind, LintKind::OutOfBounds);
        assert!(lints[1].detail.contains("(row 4)"), "{}", lints[1].detail);
    }
}
