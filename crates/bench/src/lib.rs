//! Benchmark harness reproducing every table and figure of the PLDI'10
//! evaluation (Section 4).
//!
//! Each `benches/figNN_*.rs` target prints the rows/series of one figure of
//! the paper, regenerated on the simulated machines. Run them all with
//! `cargo bench`, or one with `cargo bench --bench fig13_main_results`.
//!
//! The [`experiments`] module holds the experiment definitions; [`figure`]
//! the tabular output type; [`runner`] the shared evaluation plumbing;
//! [`jobs`] the deterministic parallel experiment engine that fans the
//! sweep's evaluation cells over worker threads (`CTAM_JOBS`) while keeping
//! figure output byte-identical to a sequential run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod figure;
pub mod jobs;
pub mod runner;

pub use figure::{first_line_diff, FigureData, Row};
pub use jobs::{parallel_map, Cell, Engine};
pub use runner::geomean;
