//! Loop-nest intermediate representation.
//!
//! This crate is the front/middle-end substrate of the reproduction: it
//! plays the role Microsoft Phoenix plays in the paper — representing
//! array/loop-intensive programs at the level the CTAM pass consumes:
//!
//! * [`ArrayDecl`] / [`Program`] — arrays laid out in a flat byte address
//!   space (the input to data-block partitioning),
//! * [`LoopNest`] — an iteration domain ([`ctam_poly::IntegerSet`]) plus a
//!   list of [`ArrayRef`]s with affine or indirect (index-array) subscripts,
//! * [`dependence`] — distance-vector dependence analysis for uniformly
//!   generated references, loop-carried dependence detection, and
//!   Anderson-style outermost-parallel-loop selection (the paper's
//!   parallelism-extraction step for sequential benchmarks),
//! * [`parse`] — a textual frontend for the C-like fragments the paper
//!   presents its inputs as (Figures 4 and 5).
//!
//! # Example
//!
//! The Figure 4 fragment `for i1, i2 { ... A[i1+1][i2-1] ... }`:
//!
//! ```
//! use ctam_loopir::{AccessKind, ArrayRef, LoopNest, Program, Subscript};
//! use ctam_poly::{AffineExpr, AffineMap, IntegerSet};
//!
//! let mut prog = Program::new("fig4");
//! let a = prog.add_array("A", &[8, 8], 8);
//! let domain = IntegerSet::builder(2)
//!     .names(["i1", "i2"])
//!     .bounds(0, 0, 5)
//!     .bounds(1, 2, 7)
//!     .build();
//! let subscript = AffineMap::new(2, vec![
//!     AffineExpr::var(2, 0) + AffineExpr::constant(2, 1),
//!     AffineExpr::var(2, 1) - AffineExpr::constant(2, 1),
//! ]);
//! let nest = LoopNest::new("fig4", domain)
//!     .with_ref(ArrayRef::new(a, Subscript::Affine(subscript), AccessKind::Read));
//! let nest_id = prog.add_nest(nest);
//! // Iteration (0, 2) reads A[1][1], flat element 1*8 + 1 = 9.
//! let access = prog.nest_accesses(nest_id, &[0, 2]).next().unwrap();
//! assert_eq!(access.element, 9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
pub mod dependence;
pub mod indices;
pub mod lint;
mod nest;
pub mod parse;
mod program;

pub use array::{ArrayDecl, ArrayId};
pub use dependence::{
    analyze_nest, DependenceInfo, LevelCarriers, NestAnalysis, PairMethod, PairSummary,
    ParallelismReport,
};
pub use indices::{FactViolation, IndexFacts};
pub use lint::{lint_nest, LintKind, SubscriptLint};
pub use nest::{AccessKind, ArrayRef, ElementAccess, LoopNest, NestId, Subscript};
pub use program::Program;
