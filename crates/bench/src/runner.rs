//! Shared evaluation plumbing for the experiment definitions.
//!
//! The evaluation helpers ([`cycles`], [`report`], [`ported_cycles`]) route
//! through the [`crate::jobs::Engine`], so bench targets that prefetch
//! their cells get memoized, already-parallel results here; callers without
//! an engine in hand still get the same values, just evaluated on demand.

use crate::jobs::{Cell, Engine};
use ctam::pipeline::{CtamParams, Strategy};
use ctam_cachesim::SimReport;
use ctam_topology::Machine;
use ctam_workloads::{SizeClass, Workload};

/// Problem size from the `CTAM_SIZE` environment variable, parsed by
/// [`SizeClass`]'s `FromStr` (`test` / `small` / `ref` / `reference`, any
/// case). Unset or empty selects `test`, which runs the full suite in
/// seconds; `small` is the reference configuration the recorded
/// EXPERIMENTS.md numbers use — minutes of wall-clock with the parallel
/// engine (`CTAM_JOBS`), longer with `CTAM_JOBS=1`.
///
/// # Panics
///
/// Panics on an unrecognized value instead of silently running the wrong
/// problem size.
pub fn size_from_env() -> SizeClass {
    match std::env::var("CTAM_SIZE") {
        Ok(v) if !v.trim().is_empty() => v.parse().unwrap_or_else(|e| panic!("CTAM_SIZE: {e}")),
        _ => SizeClass::Test,
    }
}

/// Geometric mean (0 for an empty slice; non-positive entries are clamped
/// to a tiny epsilon so a single zero doesn't zero the whole mean).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|&v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Simulated execution cycles of `workload` on `machine` under `strategy`,
/// served from `engine`'s cell cache (evaluated now if absent).
///
/// # Panics
///
/// Panics on pipeline errors — experiment configurations are fixed, so an
/// error is a harness bug, not an input condition.
pub fn cycles(
    engine: &Engine,
    workload: &Workload,
    machine: &Machine,
    strategy: Strategy,
    params: &CtamParams,
) -> u64 {
    engine.cycles(&Cell::native(workload, machine, strategy, params))
}

/// Full simulation report (for the cache-miss tables), served from
/// `engine`'s cell cache.
///
/// # Panics
///
/// As [`cycles`].
pub fn report(
    engine: &Engine,
    workload: &Workload,
    machine: &Machine,
    strategy: Strategy,
    params: &CtamParams,
) -> SimReport {
    (*engine.report(&Cell::native(workload, machine, strategy, params))).clone()
}

/// Cycles of the version tuned for `tuned_for` when run on `run_on`
/// (Figures 2 and 14), served from `engine`'s cell cache.
///
/// # Panics
///
/// As [`cycles`].
pub fn ported_cycles(
    engine: &Engine,
    workload: &Workload,
    tuned_for: &Machine,
    run_on: &Machine,
    strategy: Strategy,
    params: &CtamParams,
) -> u64 {
    engine.cycles(&Cell::ported(workload, tuned_for, run_on, strategy, params))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-9);
    }
}
