//! Omega-style code generation: re-emit a loop nest that enumerates the
//! integer points of a set.
//!
//! The paper uses the Omega Library's `codegen` utility to turn each
//! iteration group assigned to a core back into executable loop code. This
//! module reproduces that capability textually: given an [`IntegerSet`], it
//! produces a C-like loop nest whose iterations are exactly the points of the
//! set (bounds derived per level by Fourier–Motzkin projection, with `max`/
//! `min`/`ceild`/`floord` combiners, exactly in Omega's output style).

use crate::expr::AffineExpr;
use crate::fm::{normalize_to_ge, project_onto_prefix, MAX_CONSTRAINTS};
use crate::set::IntegerSet;

/// Spaces per indentation level.
const INDENT: usize = 2;

/// Formats the bound contributed by one constraint on `var` at nesting
/// level `var` (outer dims are symbolic).
fn bound_term(e: &AffineExpr, var: usize, names: &[String], lower: bool) -> String {
    let c = e.coeff(var);
    debug_assert!(if lower { c > 0 } else { c < 0 });
    // c*var + rest >= 0. Lower: var >= ceild(-rest, c). Upper: var <= floord(rest, -c).
    let mut rest = e.clone();
    let coeffs = {
        let mut v = rest.coeffs().to_vec();
        v[var] = 0;
        v
    };
    rest = AffineExpr::new(coeffs, rest.constant_term());
    let (num, den) = if lower { (-rest, c) } else { (rest, -c) };
    let num_s = num.display_with(names);
    if den == 1 {
        num_s
    } else if lower {
        format!("ceild({num_s}, {den})")
    } else {
        format!("floord({num_s}, {den})")
    }
}

fn combine(terms: Vec<String>, f: &str) -> String {
    match terms.len() {
        0 => unreachable!("caller guarantees at least one bound"),
        1 => terms.into_iter().next().expect("len checked"),
        _ => format!("{f}({})", terms.join(", ")),
    }
}

/// Generates a C-like loop nest enumerating the points of `set`.
///
/// The innermost body is the statement `S(i, j, ...)` over the set's
/// dimension names. Returns `None` if the set is provably (rationally) empty
/// at the outermost level or unbounded in some enumeration direction, in
/// which case no loop nest with finite bounds exists.
///
/// # Panics
///
/// Panics if Fourier–Motzkin elimination fails, which
/// [`IntegerSet::bounding_box`] reports as an error first.
///
/// # Example
///
/// ```
/// use ctam_poly::{generate_loop_nest, IntegerSet};
///
/// let tri = IntegerSet::builder(2)
///     .names(["i", "j"])
///     .bounds(0, 0, 9)
///     .lower(1, 0)
///     .le_var(1, 0)
///     .build();
/// let code = generate_loop_nest(&tri).unwrap();
/// assert!(code.contains("for (i = 0; i <= 9; i++)"));
/// assert!(code.contains("for (j = 0; j <= i; j++)"));
/// ```
pub fn generate_loop_nest(set: &IntegerSet) -> Option<String> {
    let names = set.names().to_vec();
    let ge = normalize_to_ge(set.constraints());
    let mut lines: Vec<String> = Vec::new();
    let pad = |d: usize| " ".repeat(d * INDENT);
    let mut guards: Vec<String> = Vec::new();
    for d in 0..set.dim() {
        let proj = project_onto_prefix(&ge, d + 1, set.dim(), MAX_CONSTRAINTS)
            .unwrap_or_else(|e| panic!("Fourier–Motzkin elimination failed: {e}"));
        let mut lowers = Vec::new();
        let mut uppers = Vec::new();
        for e in &proj {
            match e.coeff(d).signum() {
                1 => lowers.push(bound_term(e, d, &names, true)),
                -1 => uppers.push(bound_term(e, d, &names, false)),
                _ => {
                    if d == 0 && e.last_var().is_none() && e.constant_term() < 0 {
                        return None; // rationally empty
                    }
                }
            }
        }
        lowers.sort();
        lowers.dedup();
        uppers.sort();
        uppers.dedup();
        if lowers.is_empty() || uppers.is_empty() {
            return None; // unbounded direction
        }
        let lo = combine(lowers, "max");
        let hi = combine(uppers, "min");
        let v = &names[d];
        lines.push(format!("{}for ({v} = {lo}; {v} <= {hi}; {v}++) {{", pad(d)));
    }
    // Residual guard: any original constraint not guaranteed by the per-level
    // rational bounds (integer gaps). FM bounds are exact for the systems we
    // emit, but equalities with non-unit coefficients can leave gaps, so we
    // conservatively re-emit equality guards.
    for c in set.constraints() {
        if matches!(c.kind(), crate::set::ConstraintKind::Eq) {
            guards.push(format!("{} == 0", c.expr().display_with(&names)));
        }
    }
    let body_depth = set.dim() + usize::from(!guards.is_empty());
    if !guards.is_empty() {
        lines.push(format!("{}if ({}) {{", pad(set.dim()), guards.join(" && ")));
    }
    lines.push(format!("{}S({});", pad(body_depth), names.join(", ")));
    if !guards.is_empty() {
        lines.push(format!("{}}}", pad(set.dim())));
    }
    for d in (0..set.dim()).rev() {
        lines.push(format!("{}}}", pad(d)));
    }
    Some(lines.join("\n"))
}

/// Generates code for a sequence of sets (e.g. the iteration groups scheduled
/// on one core, in schedule order), separated by comments.
///
/// Sets that are empty or unbounded are emitted as a comment noting the skip.
pub fn generate_union(sets: &[IntegerSet]) -> String {
    let mut out = Vec::new();
    for (k, s) in sets.iter().enumerate() {
        out.push(format!("// iteration group {k}"));
        match generate_loop_nest(s) {
            Some(code) => out.push(code),
            None => out.push("// (empty or unbounded set: skipped)".to_owned()),
        }
    }
    out.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rectangle_codegen() {
        let s = IntegerSet::builder(2)
            .names(["i", "j"])
            .bounds(0, 0, 3)
            .bounds(1, 2, 5)
            .build();
        let code = generate_loop_nest(&s).unwrap();
        assert!(code.contains("for (i = 0; i <= 3; i++)"), "{code}");
        assert!(code.contains("for (j = 2; j <= 5; j++)"), "{code}");
        assert!(code.contains("S(i, j);"), "{code}");
    }

    #[test]
    fn triangular_bounds_reference_outer_vars() {
        let s = IntegerSet::builder(2)
            .names(["i", "j"])
            .bounds(0, 0, 7)
            .lower(1, 0)
            .le_var(1, 0)
            .build();
        let code = generate_loop_nest(&s).unwrap();
        assert!(code.contains("j <= i"), "{code}");
    }

    #[test]
    fn strided_bound_uses_ceild() {
        // 2j >= i  =>  j >= ceild(i, 2)
        let s = IntegerSet::builder(2)
            .names(["i", "j"])
            .bounds(0, 0, 7)
            .bounds(1, 0, 7)
            .ge(crate::AffineExpr::new(vec![-1, 2], 0))
            .build();
        let code = generate_loop_nest(&s).unwrap();
        assert!(code.contains("ceild(i, 2)"), "{code}");
    }

    #[test]
    fn unbounded_set_returns_none() {
        let s = IntegerSet::builder(1).lower(0, 0).build();
        assert!(generate_loop_nest(&s).is_none());
    }

    #[test]
    fn union_labels_groups() {
        let a = IntegerSet::builder(1).bounds(0, 0, 1).build();
        let b = IntegerSet::builder(1).bounds(0, 5, 6).build();
        let code = generate_union(&[a, b]);
        assert!(code.contains("// iteration group 0"));
        assert!(code.contains("// iteration group 1"));
    }
}
