//! Lowering the DSL AST into the [`crate::Program`] IR.

use std::collections::HashMap;

use ctam_poly::{AffineExpr, AffineMap, IntegerSet};

use super::ast::{AstExpr, AstNest, AstProgram, AstRef};
use super::ParseError;
use crate::{AccessKind, ArrayId, ArrayRef, LoopNest, Program, Subscript};

/// Per-nest lowering context: index names → dimension numbers.
struct NestCtx<'a> {
    vars: HashMap<&'a str, usize>,
    depth: usize,
}

impl NestCtx<'_> {
    /// Lowers `expr` to an affine expression over the nest's dimensions,
    /// allowing only the first `visible` indices (used to keep loop bounds
    /// affine in *outer* indices only). Array references are not scalar
    /// values here.
    fn lower_affine(
        &self,
        expr: &AstExpr,
        visible: usize,
        at: (usize, usize),
    ) -> Result<AffineExpr, ParseError> {
        match expr {
            AstExpr::Number(v) => Ok(AffineExpr::constant(self.depth, *v)),
            AstExpr::Var(name) => match self.vars.get(name.as_str()) {
                Some(&d) if d < visible => Ok(AffineExpr::var(self.depth, d)),
                Some(_) => Err(ParseError::new(
                    format!("index '{name}' is not visible here (inner index in a bound)"),
                    at.0,
                    at.1,
                )),
                None => Err(ParseError::new(
                    format!("unknown index '{name}'"),
                    at.0,
                    at.1,
                )),
            },
            AstExpr::Ref(r) => Err(ParseError::new(
                format!(
                    "array reference '{}' is not allowed in this position",
                    r.array
                ),
                r.line,
                r.column,
            )),
            AstExpr::Add(a, b) => {
                Ok(self.lower_affine(a, visible, at)? + self.lower_affine(b, visible, at)?)
            }
            AstExpr::Sub(a, b) => {
                Ok(self.lower_affine(a, visible, at)? - self.lower_affine(b, visible, at)?)
            }
            AstExpr::Mul(a, b) => {
                let la = self.lower_affine(a, visible, at)?;
                let lb = self.lower_affine(b, visible, at)?;
                if la.is_constant() {
                    Ok(lb.scaled(la.constant_term()))
                } else if lb.is_constant() {
                    Ok(la.scaled(lb.constant_term()))
                } else {
                    Err(ParseError::new(
                        "product of two indices is not affine",
                        at.0,
                        at.1,
                    ))
                }
            }
        }
    }
}

/// Collects every array reference in an expression, in source order.
fn collect_refs<'a>(expr: &'a AstExpr, out: &mut Vec<&'a AstRef>) {
    match expr {
        AstExpr::Ref(r) => out.push(r),
        AstExpr::Add(a, b) | AstExpr::Sub(a, b) | AstExpr::Mul(a, b) => {
            collect_refs(a, out);
            collect_refs(b, out);
        }
        AstExpr::Number(_) | AstExpr::Var(_) => {}
    }
}

fn lower_nest(
    ast: &AstNest,
    arrays: &HashMap<&str, (ArrayId, usize)>,
) -> Result<LoopNest, ParseError> {
    let depth = ast.loops.len();
    let mut vars = HashMap::new();
    for (d, l) in ast.loops.iter().enumerate() {
        if vars.insert(l.var.as_str(), d).is_some() {
            return Err(ParseError::new(
                format!("duplicate loop index '{}'", l.var),
                1,
                1,
            ));
        }
    }
    let ctx = NestCtx { vars, depth };

    // Domain: lo_d <= x_d <= hi_d with bounds affine in outer indices.
    let mut builder = IntegerSet::builder(depth)
        .names(ast.loops.iter().map(|l| l.var.clone()).collect::<Vec<_>>());
    for (d, l) in ast.loops.iter().enumerate() {
        let lo = ctx.lower_affine(&l.lo, d, (1, 1))?;
        let hi = ctx.lower_affine(&l.hi, d, (1, 1))?;
        builder = builder
            .ge(AffineExpr::var(depth, d) - lo)
            .ge(hi - AffineExpr::var(depth, d));
    }
    let domain = builder.build();
    // Every later pass bounds and enumerates the domain by Fourier–Motzkin
    // elimination; bounding it once here proves those eliminations succeed.
    if let Err(e) = domain.bounding_box() {
        return Err(ParseError::new(
            format!("loop bounds of nest '{}' cannot be bounded: {e}", ast.name),
            1,
            1,
        ));
    }

    let mut nest = LoopNest::new(&ast.name, domain);
    let add_ref = |nest: LoopNest, r: &AstRef, kind: AccessKind| -> Result<LoopNest, ParseError> {
        let &(id, arity) = arrays.get(r.array.as_str()).ok_or_else(|| {
            ParseError::new(format!("undeclared array '{}'", r.array), r.line, r.column)
        })?;
        if r.subscripts.len() != arity {
            return Err(ParseError::new(
                format!(
                    "'{}' takes {arity} subscript(s), found {}",
                    r.array,
                    r.subscripts.len()
                ),
                r.line,
                r.column,
            ));
        }
        let exprs = r
            .subscripts
            .iter()
            .map(|s| ctx.lower_affine(s, depth, (r.line, r.column)))
            .collect::<Result<Vec<_>, _>>()?;
        let map = AffineMap::new(depth, exprs);
        Ok(nest.with_ref(ArrayRef::new(id, Subscript::Affine(map), kind)))
    };

    for stmt in &ast.body {
        nest = add_ref(nest, &stmt.target, AccessKind::Write)?;
        if stmt.accumulate {
            nest = add_ref(nest, &stmt.target, AccessKind::Read)?;
        }
        let mut reads = Vec::new();
        collect_refs(&stmt.value, &mut reads);
        for r in reads {
            nest = add_ref(nest, r, AccessKind::Read)?;
        }
    }
    Ok(nest)
}

/// Lowers a parsed program to the IR.
///
/// # Errors
///
/// [`ParseError`] on undeclared arrays, subscript arity mismatches,
/// non-affine expressions, duplicate declarations, arrays whose size in
/// bytes, or the cache-line-aligned end of the data layout, overflows `u64`,
/// or loop bounds whose Fourier–Motzkin bounding box overflows `i64` or
/// exceeds the elimination's constraint cap.
pub fn lower(ast: &AstProgram) -> Result<Program, ParseError> {
    let mut program = Program::new(&ast.name);
    let mut arrays: HashMap<&str, (ArrayId, usize)> = HashMap::new();
    for a in &ast.arrays {
        if arrays.contains_key(a.name.as_str()) {
            return Err(ParseError::new(
                format!("array '{}' declared twice", a.name),
                1,
                1,
            ));
        }
        if !program.fits(&a.dims, a.elem_bytes) {
            return Err(ParseError::new(
                format!("array '{}' does not fit in a 64-bit data space", a.name),
                1,
                1,
            ));
        }
        let id = program.add_array(&a.name, &a.dims, a.elem_bytes);
        arrays.insert(&a.name, (id, a.dims.len()));
    }
    for nest in &ast.nests {
        let lowered = lower_nest(nest, &arrays)?;
        program.add_nest(lowered);
    }
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::super::parse_program;

    #[test]
    fn duplicate_array_rejected() {
        let err =
            parse_program("program p { array A[4] : 8; array A[4] : 8; }").expect_err("duplicate");
        assert!(err.message.contains("twice"));
    }

    #[test]
    fn arrays_past_the_u64_data_space_rejected() {
        for src in [
            "program p { array A[4294967296][4294967296] : 8; \
             for n (i = 0 .. 3) { A[i][i] = A[i][i]; } }",
            "program p { array A[9223372036854775807] : 8; for n (i = 0 .. 3) { A[i] = A[i]; } }",
            // Each array fits, but the layout ends at 2^64.
            "program p { array A[1152921504606846976] : 8; array B[1152921504606846976] : 8; \
             for n (i = 0 .. 3) { A[i] = B[i]; } }",
        ] {
            let err = parse_program(src).expect_err(src);
            assert!(err.message.contains("64-bit data space"), "{err}");
        }
    }

    #[test]
    fn bounds_past_the_elimination_arithmetic_rejected() {
        // Bounding `j` eliminates `i`, which scales `i <= 2^30` by 2^40,
        // past `i64`.
        let src = "program p { array A[16] : 8; \
                   for n (i = 0 .. 1073741824, j = 0 .. 1099511627776 * i) { A[0] = A[0] + 1; } }";
        let err = parse_program(src).expect_err(src);
        assert_eq!(
            err.message,
            "loop bounds of nest 'n' cannot be bounded: \
             i64 overflow while eliminating dimension 0"
        );
    }

    #[test]
    fn duplicate_index_rejected() {
        let err = parse_program(
            "program p { array A[4] : 8; for n (i = 0 .. 3, i = 0 .. 3) { A[i] = 1; } }",
        )
        .expect_err("duplicate index");
        assert!(err.message.contains("duplicate"));
    }

    #[test]
    fn inner_index_in_outer_bound_rejected() {
        let err = parse_program(
            "program p { array A[8][8] : 8; for n (i = 0 .. j, j = 0 .. 7) {
                A[i][j] = 1;
            } }",
        )
        .expect_err("j not yet visible");
        assert!(err.message.contains("not visible") || err.message.contains("unknown"));
    }

    #[test]
    fn reference_in_bound_rejected() {
        let err =
            parse_program("program p { array A[8] : 8; for n (i = 0 .. A[0]) { A[i] = 1; } }")
                .expect_err("refs not allowed in bounds");
        assert!(err.message.contains("not allowed"));
    }

    #[test]
    fn reads_follow_source_order() {
        let p = parse_program(
            "program p { array A[8] : 8; array B[8] : 8;
              for n (i = 1 .. 6) { A[i] = B[i + 1] + A[i - 1]; } }",
        )
        .unwrap();
        let (_, nest) = p.nests().next().unwrap();
        // write A, read B, read A
        assert_eq!(nest.refs().len(), 3);
        assert_eq!(nest.refs()[0].array().index(), 0);
        assert_eq!(nest.refs()[1].array().index(), 1);
        assert_eq!(nest.refs()[2].array().index(), 0);
    }
}
