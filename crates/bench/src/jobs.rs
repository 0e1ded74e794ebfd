//! The deterministic parallel experiment engine.
//!
//! The paper's evaluation is a large sweep: 12 applications × 3 machine
//! topologies × several strategies, plus sensitivity studies. Every point
//! of that sweep is an independent **cell** — a `(program, machine,
//! strategy, params)` evaluation (optionally tuned for a different machine
//! than it runs on, for the porting studies) whose result depends on
//! nothing but the cell itself. The [`Engine`] exploits that:
//!
//! * **fan-out** — [`Engine::prefetch`] evaluates a batch of cells over
//!   [`std::thread::scope`] workers (no external dependencies; the worker
//!   count comes from the `CTAM_JOBS` environment variable, defaulting to
//!   all available cores);
//! * **memoization** — results land in a cell-keyed cache, so figures that
//!   share cells (fig02/fig13/fig14 all evaluate baseline cells; most
//!   sensitivity studies re-evaluate `Base`) evaluate each distinct cell
//!   exactly once per engine;
//! * **ordered aggregation** — experiment code assembles figures *after*
//!   the fan-out by reading the cache in its own fixed order, so figure
//!   output is byte-identical to a sequential (`CTAM_JOBS=1`) run.
//!
//! Determinism needs no locking discipline: each cell evaluation is a pure
//! function (the simulator starts from cold caches; workload generation is
//! fixed-seed), so any interleaving of workers produces the same value for
//! every key, and assembly order is fixed by the experiment code.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use ctam::pipeline::{evaluate, evaluate_ported, CtamParams, Strategy};
use ctam_cachesim::SimReport;
use ctam_topology::{Machine, NodeKind};
use ctam_workloads::Workload;

/// One evaluation cell: a `(program, machine, strategy, params)` point of
/// the sweep, optionally tuned for a different machine than it runs on
/// (the porting model of Figures 2, 14 and 20).
#[derive(Clone)]
pub struct Cell<'a> {
    workload: &'a Workload,
    /// `Some(m)` for ported cells: the mapping is computed against `m`'s
    /// topology, then folded onto `machine`.
    tuned_for: Option<&'a Machine>,
    machine: &'a Machine,
    strategy: Strategy,
    params: CtamParams,
}

impl<'a> Cell<'a> {
    /// A native cell: mapped for and executed on `machine`.
    pub fn native(
        workload: &'a Workload,
        machine: &'a Machine,
        strategy: Strategy,
        params: &CtamParams,
    ) -> Self {
        Self {
            workload,
            tuned_for: None,
            machine,
            strategy,
            params: params.clone(),
        }
    }

    /// A ported cell: mapped for `tuned_for`, executed on `run_on`.
    pub fn ported(
        workload: &'a Workload,
        tuned_for: &'a Machine,
        run_on: &'a Machine,
        strategy: Strategy,
        params: &CtamParams,
    ) -> Self {
        Self {
            workload,
            tuned_for: Some(tuned_for),
            machine: run_on,
            strategy,
            params: params.clone(),
        }
    }

    /// Canonical memo key. Machines are keyed by *structure* (cache tree +
    /// geometry + latencies), not display name, so e.g. `dunnington()` and
    /// `dunnington_scaled(2)` — the same hardware under two names — share
    /// cells. Workloads are keyed by name plus size-dependent extents,
    /// params by their every field.
    fn key(&self) -> String {
        let mut k = format!(
            "{}#{}i#{}B|{}|{}",
            self.workload.name,
            self.workload.total_iterations(),
            self.workload.data_bytes(),
            self.strategy.name(),
            params_fingerprint(&self.params),
        );
        k.push('|');
        k.push_str(&machine_fingerprint(self.machine));
        if let Some(t) = self.tuned_for {
            k.push_str("|tuned:");
            k.push_str(&machine_fingerprint(t));
        }
        k
    }

    /// Evaluates the cell through the pipeline.
    ///
    /// # Panics
    ///
    /// Panics on pipeline errors — experiment configurations are fixed, so
    /// an error is a harness bug, not an input condition.
    fn eval(&self) -> SimReport {
        let r = match self.tuned_for {
            None => evaluate(
                &self.workload.program,
                self.machine,
                self.strategy,
                &self.params,
            )
            .unwrap_or_else(|e| {
                panic!(
                    "{} on {} ({}): {e}",
                    self.workload.name,
                    self.machine.name(),
                    self.strategy
                )
            }),
            Some(tuned) => evaluate_ported(
                &self.workload.program,
                tuned,
                self.machine,
                self.strategy,
                &self.params,
            )
            .unwrap_or_else(|e| {
                panic!(
                    "{} tuned for {} on {}: {e}",
                    self.workload.name,
                    tuned.name(),
                    self.machine.name()
                )
            }),
        };
        r.report
    }
}

/// Every field of the params, so no field can be left out of the key. The
/// `Debug` rendering of an `f64` is its shortest round-tripping decimal,
/// hence as exact as its bit pattern.
fn params_fingerprint(p: &CtamParams) -> String {
    format!("{p:?}")
}

/// Structural machine fingerprint: per level, every cache's geometry,
/// latency and the cores it serves, plus core count, clock and off-chip
/// latency. Two machines with equal fingerprints simulate identically.
fn machine_fingerprint(m: &Machine) -> String {
    let mut s = format!(
        "{}c@{}GHz/mem{}",
        m.n_cores(),
        m.clock_ghz(),
        m.memory_latency()
    );
    for level in m.levels() {
        for node in m.caches_at(level) {
            let NodeKind::Cache { params, .. } = m.kind(node) else {
                continue;
            };
            let cores: Vec<usize> = m.cores_under(node).iter().map(|c| c.index()).collect();
            write!(
                s,
                "|L{level}:{}x{}x{}@{}{:?}",
                params.size_bytes(),
                params.associativity(),
                params.line_bytes(),
                params.latency(),
                cores
            )
            .expect("writing to a String cannot fail");
        }
    }
    s
}

/// Worker count from the `CTAM_JOBS` environment variable. Unset (or set
/// to the empty string) defaults to all available cores.
///
/// # Panics
///
/// Panics when `CTAM_JOBS` is set to anything but a positive integer — a
/// typo must not silently fall back to a different parallelism.
pub fn jobs_from_env() -> usize {
    match std::env::var("CTAM_JOBS") {
        Err(_) => default_jobs(),
        Ok(s) if s.trim().is_empty() => default_jobs(),
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => panic!(
                "unrecognized CTAM_JOBS value {s:?}: expected a positive integer \
                 (unset or empty = all available cores)"
            ),
        },
    }
}

fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Parses a comma-separated strategy list (the `CTAM_STRATEGIES` grammar):
/// exact [`Strategy::name`]s, whitespace around items ignored, empty items
/// skipped. Unknown names are an error — a typo must not silently drop a
/// strategy from an experiment.
///
/// # Errors
///
/// The parse error of the first unrecognized name, or a message when the
/// list selects nothing at all.
pub fn parse_strategies(list: &str) -> Result<Vec<Strategy>, String> {
    let mut out = Vec::new();
    for item in list.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        out.push(item.parse::<Strategy>().map_err(|e| e.to_string())?);
    }
    if out.is_empty() {
        return Err("the list selects no strategies".into());
    }
    Ok(out)
}

/// Strategy filter from the `CTAM_STRATEGIES` environment variable: a
/// comma-separated list of [`Strategy::name`]s restricting what
/// registry-driven experiments (the strategy arena) run. Unset or empty
/// selects the whole registry ([`Strategy::ALL`]).
///
/// # Panics
///
/// Panics when `CTAM_STRATEGIES` contains an unknown name — unknown names
/// must error, not silently skip.
pub fn strategies_from_env() -> Vec<Strategy> {
    match std::env::var("CTAM_STRATEGIES") {
        Err(_) => Strategy::ALL.to_vec(),
        Ok(s) if s.trim().is_empty() => Strategy::ALL.to_vec(),
        Ok(s) => parse_strategies(&s)
            .unwrap_or_else(|e| panic!("unrecognized CTAM_STRATEGIES value {s:?}: {e}")),
    }
}

/// The parallel experiment engine: a worker pool plus a memoized cell
/// cache. See the [module docs](self) for the design.
pub struct Engine {
    jobs: usize,
    cache: Mutex<HashMap<String, Arc<SimReport>>>,
    /// Cells actually evaluated (memo misses); a statistic only.
    evaluated: AtomicUsize,
}

impl Engine {
    /// An engine with an explicit worker count (`1` = fully sequential).
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is zero.
    pub fn with_jobs(jobs: usize) -> Self {
        assert!(jobs >= 1, "the engine needs at least one worker");
        Self {
            jobs,
            cache: Mutex::new(HashMap::new()),
            evaluated: AtomicUsize::new(0),
        }
    }

    /// The engine a bench target wants: worker count from `CTAM_JOBS`.
    pub fn from_env() -> Self {
        Self::with_jobs(jobs_from_env())
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Number of cells evaluated so far (memo misses).
    pub fn evaluated_cells(&self) -> usize {
        self.evaluated.load(Ordering::Relaxed)
    }

    /// Evaluates every not-yet-cached cell of `cells` on the worker pool
    /// and caches the results. Duplicate cells are evaluated once.
    /// Returns once all cells are resident, so subsequent [`Self::report`]
    /// / [`Self::cycles`] lookups are cache hits in any order the caller
    /// assembles figures in.
    pub fn prefetch(&self, cells: &[Cell<'_>]) {
        let pending: Vec<(&Cell, String)> = {
            let cache = self.cache.lock().expect("cell cache lock");
            let mut seen = HashSet::new();
            cells
                .iter()
                .filter_map(|c| {
                    let key = c.key();
                    (!cache.contains_key(&key) && seen.insert(key.clone())).then_some((c, key))
                })
                .collect()
        };
        if pending.is_empty() {
            return;
        }
        let workers = self.jobs.min(pending.len());
        if workers <= 1 {
            for (c, key) in pending {
                self.eval_into_cache(c, key);
            }
        } else {
            let next = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((c, key)) = pending.get(i) else {
                            break;
                        };
                        self.eval_into_cache(c, key.clone());
                    });
                }
            });
        }
    }

    /// The full simulation report of `cell`, from cache or computed now
    /// (sequentially) on a miss.
    pub fn report(&self, cell: &Cell<'_>) -> Arc<SimReport> {
        let key = cell.key();
        let cached = self
            .cache
            .lock()
            .expect("cell cache lock")
            .get(&key)
            .cloned();
        match cached {
            Some(r) => r,
            None => self.eval_into_cache(cell, key),
        }
    }

    /// Simulated execution cycles of `cell` (see [`Self::report`]).
    pub fn cycles(&self, cell: &Cell<'_>) -> u64 {
        self.report(cell).total_cycles()
    }

    fn eval_into_cache(&self, cell: &Cell<'_>, key: String) -> Arc<SimReport> {
        let report = Arc::new(cell.eval());
        self.cache
            .lock()
            .expect("cell cache lock")
            .insert(key, Arc::clone(&report));
        self.evaluated.fetch_add(1, Ordering::Relaxed);
        report
    }
}

/// Deterministic parallel map: applies `f` to every item on `jobs` scoped
/// workers and returns the results **in input order**. For bespoke bench
/// targets whose per-row work is not a plain pipeline cell (prefetch
/// re-simulation, ablations) but is still independent per row.
pub fn parallel_map<T, U, F>(jobs: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    assert!(jobs >= 1, "need at least one worker");
    if jobs == 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<U>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..jobs.min(items.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                *slots[i].lock().expect("slot lock") = Some(f(item));
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot lock")
                .expect("every slot is filled before the scope ends")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctam::ScheduleWeights;
    use ctam_topology::catalog;
    use ctam_workloads::{by_name, SizeClass};

    #[test]
    fn parse_strategies_accepts_names_and_rejects_typos() {
        assert_eq!(
            parse_strategies("Base, TreeMatch ,PCOT").unwrap(),
            vec![Strategy::Base, Strategy::TreeMatch, Strategy::Pcot]
        );
        // Empty items are skipped, a fully empty list is an error.
        assert_eq!(
            parse_strategies(",Combined,").unwrap(),
            vec![Strategy::Combined]
        );
        assert!(parse_strategies(",,").is_err());
        // Unknown names error instead of silently skipping.
        let err = parse_strategies("Base,Topology").unwrap_err();
        assert!(err.contains("Topology"), "{err}");
        assert!(
            err.contains("TopologyAware"),
            "error lists valid names: {err}"
        );
    }

    #[test]
    fn memo_evaluates_each_cell_once() {
        let engine = Engine::with_jobs(2);
        let w = by_name("galgel", SizeClass::Test).unwrap();
        let m = catalog::harpertown();
        let p = CtamParams::default();
        let cell = Cell::native(&w, &m, Strategy::Base, &p);
        let cells = vec![cell.clone(), cell.clone(), cell.clone()];
        engine.prefetch(&cells);
        assert_eq!(engine.evaluated_cells(), 1);
        let a = engine.cycles(&cell);
        let b = engine.cycles(&cell);
        assert_eq!(a, b);
        assert_eq!(engine.evaluated_cells(), 1);
    }

    #[test]
    fn keys_distinguish_strategy_params_machine_and_size() {
        let w_test = by_name("applu", SizeClass::Test).unwrap();
        let w_small = by_name("applu", SizeClass::Small).unwrap();
        let dun = catalog::dunnington();
        let harp = catalog::harpertown();
        let p = CtamParams::default();
        let p2 = CtamParams {
            block_bytes: Some(1024),
            ..CtamParams::default()
        };
        let base = Cell::native(&w_test, &dun, Strategy::Base, &p).key();
        assert_ne!(
            base,
            Cell::native(&w_test, &dun, Strategy::BasePlus, &p).key()
        );
        assert_ne!(base, Cell::native(&w_test, &dun, Strategy::Base, &p2).key());
        assert_ne!(base, Cell::native(&w_test, &harp, Strategy::Base, &p).key());
        assert_ne!(base, Cell::native(&w_small, &dun, Strategy::Base, &p).key());
        assert_ne!(
            base,
            Cell::ported(&w_test, &harp, &dun, Strategy::Base, &p).key()
        );
    }

    #[test]
    fn params_key_covers_every_field() {
        // Destructured so a new `CtamParams` field fails to compile here
        // until it gets a variant below.
        let CtamParams {
            block_bytes,
            balance_threshold,
            weights,
        } = CtamParams::default();
        let d = CtamParams::default();
        let variants = [
            CtamParams {
                block_bytes: Some(block_bytes.unwrap_or(2048) / 2),
                ..d.clone()
            },
            CtamParams {
                balance_threshold: balance_threshold + 0.05,
                ..d.clone()
            },
            CtamParams {
                weights: ScheduleWeights {
                    alpha: weights.alpha + 0.25,
                    ..weights
                },
                ..d.clone()
            },
            CtamParams {
                weights: ScheduleWeights {
                    beta: weights.beta + 0.25,
                    ..weights
                },
                ..d.clone()
            },
        ];
        let base = params_fingerprint(&d);
        let mut keys = HashSet::from([base.clone()]);
        for v in &variants {
            assert!(keys.insert(params_fingerprint(v)), "{v:?} collides");
        }
        // Floats are keyed exactly: the nearest distinct f64 is a new key.
        let nudged = CtamParams {
            balance_threshold: f64::from_bits(balance_threshold.to_bits() + 1),
            ..d
        };
        assert_ne!(params_fingerprint(&nudged), base);
    }

    #[test]
    fn same_hardware_different_name_shares_cells() {
        // dunnington() is dunnington_scaled(2) under a display name; the
        // structural fingerprint must unify them.
        let named = catalog::dunnington();
        let scaled = catalog::dunnington_scaled(2);
        assert_eq!(machine_fingerprint(&named), machine_fingerprint(&scaled));
        // ...but a truncated mapper view is structurally different.
        assert_ne!(
            machine_fingerprint(&named),
            machine_fingerprint(&named.truncated(2))
        );
    }

    #[test]
    fn parallel_prefetch_matches_sequential_values() {
        // Two cells only — debug-profile evaluations are expensive; the
        // full parallel-vs-sequential sweep identity lives in
        // `tests/determinism.rs`.
        let w = by_name("equake", SizeClass::Test).unwrap();
        let m = catalog::harpertown();
        let p = CtamParams::default();
        let cells: Vec<Cell> = [Strategy::Base, Strategy::TopologyAware]
            .iter()
            .map(|&s| Cell::native(&w, &m, s, &p))
            .collect();
        let seq = Engine::with_jobs(1);
        let par = Engine::with_jobs(4);
        seq.prefetch(&cells);
        par.prefetch(&cells);
        for c in &cells {
            assert_eq!(seq.report(c), par.report(c), "{}", c.key());
        }
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(8, &items, |&i| i * i);
        assert_eq!(out, items.iter().map(|&i| i * i).collect::<Vec<_>>());
        let out1 = parallel_map(1, &items, |&i| i + 1);
        assert_eq!(out1[99], 100);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_jobs_rejected() {
        let _ = Engine::with_jobs(0);
    }
}
