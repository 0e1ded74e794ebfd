//! # ctam — Cache Topology Aware computation Mapping
//!
//! A from-scratch reproduction of the compiler pass of
//! *"Cache Topology Aware Computation Mapping for Multicores"*
//! (Kandemir et al., PLDI 2010): distributing the iterations of a parallel
//! loop across the cores of a multicore machine, and scheduling the
//! iterations assigned to each core, so that the on-chip cache hierarchy is
//! used as constructively as possible.
//!
//! The pass works in five steps:
//!
//! 1. **Block partitioning** ([`blocks`]): the program's data is logically
//!    cut into equal-sized blocks that never cross array boundaries.
//! 2. **Tagging and grouping** ([`tag`], [`space`], [`group`]): every
//!    iteration gets a bit-vector *tag* of the blocks it accesses;
//!    same-tag iterations form *iteration groups*.
//! 3. **Hierarchical distribution** ([`cluster`], Figure 6): groups are
//!    clustered down the machine's cache-hierarchy tree by greedy merging on
//!    the tag dot product, with per-level load balancing, until each cluster
//!    is one core's work.
//! 4. **Dependence handling** ([`depgraph`], Section 3.5.2): the
//!    iteration-group dependence graph is built from distance vectors and
//!    condensed to a DAG.
//! 5. **Local scheduling** ([`schedule`], Figure 7): each core's groups are
//!    ordered in barrier-separated rounds maximizing
//!    `α·(horizontal reuse) + β·(vertical reuse)`.
//!
//! [`baselines`] implements the paper's comparison points (`Base`, `Base+`,
//! `Local`), [`optimal`] the exact branch-and-bound reference of Figure 20,
//! and [`pipeline`] the end-to-end `program × machine × strategy →
//! simulated cycles` flow the benchmark harness drives. [`verify`]
//! re-checks any mapping statically and holds the table of every
//! diagnostic code.
//!
//! # Example
//!
//! ```
//! use ctam::pipeline::{evaluate, CtamParams, Strategy};
//! use ctam_loopir::{ArrayRef, LoopNest, Program};
//! use ctam_poly::{AffineMap, IntegerSet};
//! use ctam_topology::catalog;
//!
//! # fn main() -> Result<(), ctam::pipeline::PipelineError> {
//! let mut program = Program::new("quickstart");
//! let a = program.add_array("A", &[4096], 8);
//! let domain = IntegerSet::builder(1).bounds(0, 0, 4095).build();
//! program.add_nest(
//!     LoopNest::new("touch", domain).with_ref(ArrayRef::read(a, AffineMap::identity(1))),
//! );
//!
//! let machine = catalog::dunnington();
//! let params = CtamParams::default();
//! let base = evaluate(&program, &machine, Strategy::Base, &params)?;
//! let topo = evaluate(&program, &machine, Strategy::TopologyAware, &params)?;
//! assert!(topo.cycles() > 0 && base.cycles() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod blocks;
pub mod cluster;
pub mod codec;
pub mod depgraph;
pub mod emit;
pub mod group;
pub mod metrics;
pub mod optimal;
pub mod pipeline;
pub mod schedule;
pub mod space;
pub mod strategies;
pub mod tag;
pub mod verify;

pub use blocks::BlockMap;
pub use cluster::{distribute, Assignment};
pub use codec::{mapping_from_json, mapping_to_json};
pub use depgraph::{condense, GroupDepGraph};
pub use emit::emit_core_code;
pub use group::{group_iterations, IterationGroup};
pub use metrics::MappingMetrics;
pub use pipeline::{
    evaluate, evaluate_ported, map_nest, CtamParams, EvalResult, PipelineError, Strategy,
};
pub use schedule::{
    schedule_dependence_only, schedule_local, Schedule, ScheduleError, ScheduleWeights,
};
pub use space::IterationSpace;
pub use strategies::{MappingContext, MappingStrategy, ParseStrategyError};
pub use tag::Tag;
pub use verify::{verify_mapping, Diagnostic};
