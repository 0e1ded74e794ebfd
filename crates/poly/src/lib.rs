//! Polyhedral substrate for the CTAM reproduction.
//!
//! The PLDI'10 paper represents loop iterations, array elements, and the
//! mappings between them as integer points in polyhedra, manipulated through
//! the Omega Library. This crate is a self-contained, from-scratch
//! re-implementation of the slice of Omega the paper relies on:
//!
//! * [`AffineExpr`] — integer affine expressions over a set of dimensions,
//! * [`Constraint`] / [`IntegerSet`] — conjunctions of affine equalities and
//!   inequalities describing iteration and data spaces,
//! * [`AffineMap`] — affine mappings from iteration space to data space
//!   (array subscript functions),
//! * Fourier–Motzkin elimination behind the set operations: bounding boxes
//!   ([`IntegerSet::bounding_box`]), projection ([`IntegerSet::project`])
//!   and point enumeration (a lexicographic scan of all integer points of
//!   a set); elimination checks its arithmetic and caps its constraint
//!   count, reporting either as an [`FmError`],
//! * Omega-style code generation ([`generate_loop_nest`],
//!   [`generate_union`]): re-emitting a loop nest that enumerates the
//!   points of a set, used when generating per-core code.
//!
//! # Example
//!
//! The iteration space `K = {(i1, i2) | 0 <= i1 <= Q1-1 and 2 <= i2 <= Q2+1}`
//! from Figure 4 of the paper, with `Q1 = 4`, `Q2 = 3`:
//!
//! ```
//! use ctam_poly::{AffineExpr, IntegerSet};
//!
//! let set = IntegerSet::builder(2)
//!     .names(["i1", "i2"])
//!     .bounds(0, 0, 3)   // 0 <= i1 <= Q1-1 with Q1 = 4
//!     .bounds(1, 2, 4)   // 2 <= i2 <= Q2+1 with Q2 = 3
//!     .build();
//! assert_eq!(set.point_count(), 4 * 3);
//! assert!(set.contains(&[0, 2]));
//! assert!(!set.contains(&[0, 5]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codegen;
mod expr;
mod fm;
mod map;
mod set;

pub use codegen::{generate_loop_nest, generate_union};
pub use expr::AffineExpr;
pub use fm::FmError;
pub use map::AffineMap;
pub use set::{Constraint, ConstraintKind, IntegerSet, PointIter, SetBuilder};

/// A point in an integer space: one value per dimension.
pub type Point = Vec<i64>;
