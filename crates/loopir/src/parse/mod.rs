//! A textual frontend for loop-nest programs.
//!
//! The paper presents its inputs as C-like code fragments (Figures 4 and
//! 5); this module parses that shape of program directly into a
//! [`crate::Program`], playing the role of the Phoenix front-end:
//!
//! ```text
//! program fig4 {
//!     array A[10][12] : 8;
//!     array B[64]     : 8;
//!
//!     for fig4_nest (i1 = 0 .. 9, i2 = 2 .. 11) {
//!         A[i1 + 1][i2 - 1] = A[i1][i2] + B[i1];
//!     }
//! }
//! ```
//!
//! * `array NAME[d0][d1]... : elem_bytes;` declares a row-major array;
//! * `for NAME (i = lo .. hi, j = lo .. hi, ...) { ... }` declares a nest
//!   whose bounds are affine in the *outer* indices (`j = 0 .. i` is a
//!   triangle);
//! * statements are assignments `REF = expr;` or accumulations
//!   `REF += expr;` whose subscripts are affine in the loop indices; every
//!   reference on the right-hand side becomes a read, the left-hand side a
//!   write (and for `+=`, a read as well).
//!
//! # Example
//!
//! ```
//! use ctam_loopir::parse::parse_program;
//!
//! let program = parse_program(
//!     "program p {
//!          array A[16] : 8;
//!          for touch (i = 0 .. 15) { A[i] = A[i] + 1; }
//!      }",
//! ).unwrap();
//! assert_eq!(program.name(), "p");
//! assert_eq!(program.nests().count(), 1);
//! ```

mod ast;
mod lexer;
mod lower;
mod parser;

pub use ast::{AstExpr, AstNest, AstProgram, AstRef, AstStmt};
pub use lexer::{Lexer, Token, TokenKind};
pub use lower::lower;
pub use parser::Parser;

use std::error::Error;
use std::fmt;

/// A parse or lowering error, with the 1-based line/column it points at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column.
    pub column: usize,
}

impl ParseError {
    pub(crate) fn new(message: impl Into<String>, line: usize, column: usize) -> Self {
        Self {
            message: message.into(),
            line,
            column,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.column, self.message)
    }
}

impl Error for ParseError {}

/// Parses a whole program from source text.
///
/// # Errors
///
/// Returns a [`ParseError`] pointing at the offending token for syntax
/// errors, undeclared arrays, arity mismatches, or non-affine subscripts.
pub fn parse_program(source: &str) -> Result<crate::Program, ParseError> {
    let tokens = Lexer::new(source).tokenize()?;
    let ast = Parser::new(tokens).parse_program()?;
    lower(&ast)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dependence;

    /// The paper's Figure 4 fragment.
    const FIG4: &str = "
        program fig4 {
            array A[10][12] : 8;
            for nest (i1 = 0 .. 8, i2 = 2 .. 11) {
                A[i1 + 1][i2 - 1] = A[i1 + 1][i2 - 1] + 1;
            }
        }";

    /// The paper's Figure 5 fragment with k = 2, m = 24.
    const FIG5: &str = "
        program fig5 {
            array B[24] : 8;
            for nest (j = 4 .. 19) {
                B[j] = B[j] + B[j + 4] + B[j - 4];
            }
        }";

    #[test]
    fn figure4_parses_and_resolves() {
        let p = parse_program(FIG4).unwrap();
        assert_eq!(p.arrays().count(), 1);
        let (id, nest) = p.nests().next().unwrap();
        assert_eq!(nest.depth(), 2);
        assert_eq!(nest.n_iterations(), 9 * 10);
        // Iteration (0, 2) writes and reads A[1][1] = element 13.
        let acc = p.nest_accesses(id, &[0, 2]).next().unwrap();
        assert_eq!(acc.element, 12 + 1);
    }

    #[test]
    fn figure5_dependences_match_hand_built_version() {
        let p = parse_program(FIG5).unwrap();
        let (id, _) = p.nests().next().unwrap();
        let info = dependence::analyze_nest(&p, id).info;
        assert_eq!(info.distances(), &[vec![4]]);
    }

    #[test]
    fn accumulation_reads_and_writes() {
        let p = parse_program("program acc { array S[8] : 8; for n (i = 0 .. 7) { S[i] += 2; } }")
            .unwrap();
        let (id, nest) = p.nests().next().unwrap();
        // += desugars to write + read of the same element.
        assert_eq!(nest.refs().len(), 2);
        let acc: Vec<_> = p.nest_accesses(id, &[3]).collect();
        assert!(acc.iter().any(|a| a.kind == crate::AccessKind::Write));
        assert!(acc.iter().any(|a| a.kind == crate::AccessKind::Read));
    }

    #[test]
    fn triangular_bounds_reference_outer_indices() {
        let p = parse_program(
            "program tri { array A[8][8] : 8; for n (i = 0 .. 7, j = 0 .. i) {
                A[i][j] = 1;
            } }",
        )
        .unwrap();
        let (_, nest) = p.nests().next().unwrap();
        assert_eq!(nest.n_iterations(), (1..=8).sum::<i64>() as usize);
    }

    #[test]
    fn undeclared_array_is_reported_with_position() {
        let err = parse_program("program p { for n (i = 0 .. 3) { X[i] = 1; } }")
            .expect_err("X is undeclared");
        assert!(err.message.contains('X'), "{err}");
        assert!(err.line >= 1);
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let err =
            parse_program("program p { array A[4][4] : 8; for n (i = 0 .. 3) { A[i] = 1; } }")
                .expect_err("A needs two subscripts");
        assert!(err.message.contains("subscript"), "{err}");
    }

    #[test]
    fn syntax_error_points_at_token() {
        let err = parse_program("program p { array A[4] 8; }").expect_err("missing colon");
        assert!(err.to_string().contains(':'), "{err}");
    }

    #[test]
    fn multiple_nests_parse_in_order() {
        let p = parse_program(
            "program two {
                array A[16] : 8;
                for first (i = 0 .. 15) { A[i] = 1; }
                for second (i = 0 .. 7) { A[i] = A[i + 8]; }
            }",
        )
        .unwrap();
        let names: Vec<&str> = p.nests().map(|(_, n)| n.name()).collect();
        assert_eq!(names, vec!["first", "second"]);
    }

    #[test]
    fn scaled_subscripts_are_affine() {
        let p = parse_program(
            "program s { array A[64] : 8; for n (i = 0 .. 7) { A[8 * i + 3] = 1; } }",
        )
        .unwrap();
        let (id, _) = p.nests().next().unwrap();
        assert_eq!(p.nest_accesses(id, &[2]).next().unwrap().element, 19);
    }

    #[test]
    fn nonlinear_subscript_rejected() {
        let err = parse_program(
            "program n { array A[64] : 8; for x (i = 0 .. 7, j = 0 .. 7) {
                A[i * j] = 1;
            } }",
        )
        .expect_err("i*j is not affine");
        assert!(err.message.contains("affine"), "{err}");
    }
}
