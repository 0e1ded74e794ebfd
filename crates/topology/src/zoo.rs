//! A seeded generator of random cache topologies — the machine zoo.
//!
//! The catalog holds five machines; the mapper, advisor and simulator are
//! supposed to work on *any* plausible hierarchy. [`generate`] produces a
//! lint-clean machine per seed — deep NUMA-like trees (up to five cache
//! levels), mixed fan-outs, heterogeneous line sizes and latencies — for
//! differential sweeps, and [`inject`] mutates a clean machine with one
//! [`Defect`] so each `CTAM-T5xx` linter code can be shown to fire
//! (exclusive-style hierarchies where an inner level out-sizes its parent
//! are modelled by [`Defect::CapacityInversion`]; asymmetric sibling
//! arities by [`Defect::AsymmetricArity`]).
//!
//! Everything here is a pure function of the seed: the same seed yields
//! the same machine on every platform, which is what lets CI diff sweep
//! output and lets failures be reported as just a seed.
//!
//! # Example
//!
//! ```
//! use ctam_topology::{lint, zoo};
//!
//! let cfg = zoo::ZooConfig::default();
//! let m = zoo::generate_clean(42, &cfg);
//! assert!(lint::is_lint_clean(&m));
//! assert!(m.n_cores() >= 2);
//! let bad = zoo::inject(&m, zoo::Defect::ZeroLatency);
//! assert!(!lint::is_lint_clean(&bad));
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::lint::{self, TopoLintKind};
use crate::machine::{Machine, MachineBuilder, NodeId, NodeKind};
use crate::params::CacheParams;
use crate::KB;

/// Bounds on the shapes the zoo draws from.
#[derive(Debug, Clone)]
pub struct ZooConfig {
    /// Deepest hierarchy to generate (cache levels, 2..=this).
    pub max_levels: u8,
    /// Largest core count to accept; shapes over this are resampled.
    pub max_cores: usize,
}

impl Default for ZooConfig {
    fn default() -> Self {
        ZooConfig {
            max_levels: 5,
            max_cores: 48,
        }
    }
}

/// One deliberate implausibility that [`inject`] can plant in a clean
/// machine. Each defect makes exactly one linter category fire (it may
/// fire more than once); see [`Defect::expected_kind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Defect {
    /// Grow an inner cache past its parent (an exclusive-style hierarchy).
    CapacityInversion,
    /// Give one subtree an extra child so sibling arities disagree.
    AsymmetricArity,
    /// Shrink a parent cache's line below its children's.
    LineShrink,
    /// Zero out one cache latency.
    ZeroLatency,
    /// Add a socket whose cores skip the machine's outermost cache level.
    LevelSkip,
    /// Drop every shared level, leaving an all-private multicore.
    AllPrivate,
}

impl Defect {
    /// All injectable defects, in a fixed order for exhaustive tests.
    pub const ALL: [Defect; 6] = [
        Defect::CapacityInversion,
        Defect::AsymmetricArity,
        Defect::LineShrink,
        Defect::ZeroLatency,
        Defect::LevelSkip,
        Defect::AllPrivate,
    ];

    /// The linter category this defect is guaranteed to trigger.
    pub fn expected_kind(self) -> TopoLintKind {
        match self {
            Defect::CapacityInversion => TopoLintKind::CapacityInversion,
            Defect::AsymmetricArity => TopoLintKind::AsymmetricArity,
            Defect::LineShrink => TopoLintKind::LineShrinkOutward,
            Defect::ZeroLatency => TopoLintKind::ImplausibleLatency,
            Defect::LevelSkip => TopoLintKind::LevelCoverageGap,
            Defect::AllPrivate => TopoLintKind::DegenerateHierarchy,
        }
    }
}

/// Generates one random machine for `seed`. The construction keeps every
/// linter invariant by design — capacities and latencies grow strictly
/// outward, lines never shrink outward, the tree is symmetric, every core
/// sits at the same depth, and at least one level is shared — so the
/// result is lint-clean (asserted by [`generate_clean`], which retries
/// derived seeds should a future edit break that property).
pub fn generate(seed: u64, cfg: &ZooConfig) -> Machine {
    assert!(cfg.max_levels >= 2, "zoo machines need at least two levels");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_2007_CA57_AB1E);
    let name = format!("zoo-{seed}");

    // Draw a shape: depth, sockets, per-level fan-out. Resample until the
    // core count lands in [2, max_cores] and some level is shared.
    let mut shape = None;
    for _ in 0..128 {
        let depth = rng.gen_range(2..=cfg.max_levels);
        let sockets = rng.gen_range(1..=3usize);
        // fanout[l] = children per level-l cache, for l in 2..=depth.
        let fanouts: Vec<usize> = (2..=depth).map(|_| rng.gen_range(1..=3usize)).collect();
        let cores = sockets * fanouts.iter().product::<usize>();
        let has_shared = fanouts.iter().any(|&f| f > 1);
        if (2..=cfg.max_cores).contains(&cores) && has_shared {
            shape = Some((depth, sockets, fanouts));
            break;
        }
    }
    let (depth, sockets, fanouts) = shape.unwrap_or((3, 2, vec![2, 2]));

    // Draw per-level parameters, inner to outer, monotone by construction.
    // Sizes stay multiples of 16K and assoc*line stays <= 16*256 bytes, so
    // the set count is always integral.
    let mut lines = vec![0u32; depth as usize + 1];
    let mut sizes = vec![0u64; depth as usize + 1];
    let mut lats = vec![0u32; depth as usize + 1];
    lines[1] = if rng.gen_bool(0.3) { 32 } else { 64 };
    sizes[1] = KB * [16u64, 32, 64][rng.gen_range(0..3usize)];
    lats[1] = rng.gen_range(1..=4);
    for l in 2..=depth as usize {
        lines[l] = (lines[l - 1] * if rng.gen_bool(0.25) { 2 } else { 1 }).min(256);
        sizes[l] = sizes[l - 1] * rng.gen_range(2..=8u64);
        lats[l] = lats[l - 1] + rng.gen_range(4..=30u32);
    }
    let assocs: Vec<u32> = (0..=depth as usize)
        .map(|_| [2u32, 4, 8, 16][rng.gen_range(0..4usize)])
        .collect();
    let memory_latency = lats[depth as usize] + rng.gen_range(60..=300u32);
    let clock = [1.0, 1.6, 2.0, 2.4, 2.8, 3.2][rng.gen_range(0..6usize)];

    // The per-level parameter ladders, bundled so the recursive builder
    // threads one reference instead of five slices.
    struct Ladders {
        fanouts: Vec<usize>,
        lines: Vec<u32>,
        sizes: Vec<u64>,
        lats: Vec<u32>,
        assocs: Vec<u32>,
    }
    fn grow(b: &mut MachineBuilder, parent: NodeId, level: u8, p: &Ladders) {
        let l = level as usize;
        let params = CacheParams::new(p.sizes[l], p.assocs[l], p.lines[l], p.lats[l]);
        let node = b.cache(parent, level, params);
        if level == 1 {
            b.raw_core(node);
        } else {
            for _ in 0..p.fanouts[l - 2] {
                grow(b, node, level - 1, p);
            }
        }
    }
    let ladders = Ladders {
        fanouts,
        lines,
        sizes,
        lats,
        assocs,
    };
    let mut b = Machine::builder(&name, clock, memory_latency);
    for _ in 0..sockets {
        grow(&mut b, NodeId::ROOT, depth, &ladders);
    }
    b.build()
}

/// [`generate`], plus a guarantee: the returned machine is lint-clean.
/// Retries a few derived seeds if generation ever produces a finding.
///
/// # Panics
///
/// Panics if 16 consecutive derived seeds all fail the linter — which
/// would mean [`generate`] and the linter have diverged.
pub fn generate_clean(seed: u64, cfg: &ZooConfig) -> Machine {
    for attempt in 0..16u64 {
        let m = generate(seed.wrapping_add(attempt.wrapping_mul(0x9E37_79B9)), cfg);
        if lint::is_lint_clean(&m) {
            return m;
        }
    }
    panic!("zoo seed {seed}: no lint-clean machine in 16 attempts");
}

/// A deterministic batch: `n` lint-clean machines for seeds
/// `base_seed..base_seed + n`.
pub fn zoo(base_seed: u64, n: usize, cfg: &ZooConfig) -> Vec<Machine> {
    (0..n as u64)
        .map(|i| generate_clean(base_seed.wrapping_add(i), cfg))
        .collect()
}

/// Plants `defect` in a copy of `m`, renamed `<name>!<defect>`. The
/// mutation is deterministic (always the first eligible site in arena
/// order) so tests can pin exact findings.
///
/// # Panics
///
/// Panics if the machine has no eligible site — e.g. injecting
/// [`Defect::CapacityInversion`] into a single-level hierarchy. Every
/// machine from [`generate_clean`] has a site for every defect.
pub fn inject(m: &Machine, defect: Defect) -> Machine {
    let name = format!("{}!{defect:?}", m.name());
    match defect {
        Defect::CapacityInversion => {
            let target = first_nested_cache(m)
                .unwrap_or_else(|| panic!("{}: no nested cache to invert", m.name()));
            let psize = parent_params(m, target).size_bytes();
            rebuild_params(m, &name, target, |p| {
                let way = u64::from(p.associativity()) * u64::from(p.line_bytes());
                CacheParams::new(
                    (psize * 2).div_ceil(way) * way,
                    p.associativity(),
                    p.line_bytes(),
                    p.latency(),
                )
            })
        }
        Defect::LineShrink => {
            let child = first_nested_cache(m)
                .unwrap_or_else(|| panic!("{}: no nested cache to shrink over", m.name()));
            let target = m.parent(child).expect("nested cache has a parent");
            let new_line = m
                .cache_params(child)
                .expect("cache child")
                .line_bytes()
                .max(32)
                / 2;
            rebuild_params(m, &name, target, |p| {
                CacheParams::new(p.size_bytes(), p.associativity(), new_line, p.latency())
            })
        }
        Defect::ZeroLatency => {
            let target =
                first_cache(m).unwrap_or_else(|| panic!("{}: no cache to zero out", m.name()));
            rebuild_params(m, &name, target, |p| {
                CacheParams::new(p.size_bytes(), p.associativity(), p.line_bytes(), 0)
            })
        }
        Defect::AsymmetricArity => {
            let branch = branch_with_cache_siblings(m)
                .unwrap_or_else(|| panic!("{}: no node with two cache children", m.name()));
            // Give the branch's first child an extra copy of its own last
            // child: its arity now differs from its siblings'.
            let target = m.children(branch)[0];
            rebuild_with_duplicate(m, &name, target)
        }
        Defect::LevelSkip => {
            let first_top = m.children(NodeId::ROOT)[0];
            rebuild_with_skipped_socket(m, &name, first_top)
        }
        Defect::AllPrivate => m.truncated(1).with_name(&name),
    }
}

/// First cache node in arena order.
fn first_cache(m: &Machine) -> Option<NodeId> {
    all_caches(m).into_iter().next()
}

/// First cache node (arena order) whose parent is also a cache.
fn first_nested_cache(m: &Machine) -> Option<NodeId> {
    all_caches(m)
        .into_iter()
        .find(|&n| m.parent(n).and_then(|p| m.cache_params(p)).is_some())
}

/// First node (root first, then arena order) with at least two cache
/// children.
fn branch_with_cache_siblings(m: &Machine) -> Option<NodeId> {
    std::iter::once(NodeId::ROOT)
        .chain(all_caches(m))
        .find(|&n| {
            m.children(n)
                .iter()
                .filter(|&&c| matches!(m.kind(c), NodeKind::Cache { .. }))
                .count()
                >= 2
        })
}

fn all_caches(m: &Machine) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = m.levels().iter().flat_map(|&l| m.caches_at(l)).collect();
    out.sort();
    out
}

fn parent_params(m: &Machine, node: NodeId) -> CacheParams {
    m.parent(node)
        .and_then(|p| m.cache_params(p))
        .expect("caller guarantees a cache parent")
}

/// Keeps every cache as it is.
fn keep(_: NodeId, _: u8, params: CacheParams) -> Option<CacheParams> {
    Some(params)
}

/// Rebuilds `m` with the parameters of cache `target` passed through `f`,
/// preserving structure and core order.
fn rebuild_params(
    m: &Machine,
    name: &str,
    target: NodeId,
    f: impl FnOnce(CacheParams) -> CacheParams,
) -> Machine {
    let params = f(m.cache_params(target).expect("target is a cache"));
    let mut b = Machine::builder(name, m.clock_ghz(), m.memory_latency());
    b.copy_subtree(m, NodeId::ROOT, NodeId::ROOT, &mut |node, _, p| {
        Some(if node == target { params } else { p })
    });
    b.build()
}

/// Rebuilds `m` unchanged except that `target` gets one extra copy of its
/// last child subtree appended.
fn rebuild_with_duplicate(m: &Machine, name: &str, target: NodeId) -> Machine {
    // The copy goes to the end of the arena; copying the grown tree again,
    // depth first, puts it right after `target`'s own children.
    let mut grown = m.to_builder();
    let last = *m.children(target).last().expect("target has children");
    grown.copy_subtree(m, last, target, &mut keep);
    let grown = grown.build();
    let mut b = Machine::builder(name, m.clock_ghz(), m.memory_latency());
    b.copy_subtree(&grown, NodeId::ROOT, NodeId::ROOT, &mut keep);
    b.build()
}

/// Rebuilds `m` with one extra socket: a copy of the subtree at `top`
/// whose root cache is skipped, so its cores miss the outermost level.
fn rebuild_with_skipped_socket(m: &Machine, name: &str, top: NodeId) -> Machine {
    let mut b = Machine::builder(name, m.clock_ghz(), m.memory_latency());
    b.copy_subtree(m, NodeId::ROOT, NodeId::ROOT, &mut keep);
    b.copy_subtree(m, top, NodeId::ROOT, &mut |node, _, p| {
        (node != top).then_some(p)
    });
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::lint_machine;

    #[test]
    fn generation_is_deterministic() {
        let cfg = ZooConfig::default();
        let a = generate(7, &cfg);
        let b = generate(7, &cfg);
        assert_eq!(a, b);
        assert_ne!(a, generate(8, &cfg));
    }

    #[test]
    fn clean_machines_are_clean_and_shared() {
        let cfg = ZooConfig::default();
        for m in zoo(0xC7A3, 32, &cfg) {
            let lints = lint_machine(&m);
            assert!(lints.is_empty(), "{}: {lints:?}", m.name());
            assert!(m.first_shared_level().is_some(), "{}", m.name());
            assert!((2..=cfg.max_cores).contains(&m.n_cores()), "{}", m.name());
        }
    }

    #[test]
    fn every_defect_fires_its_code_and_only_when_injected() {
        let cfg = ZooConfig::default();
        for seed in [1u64, 99, 2007] {
            let clean = generate_clean(seed, &cfg);
            assert!(lint_machine(&clean).is_empty(), "seed {seed}");
            for defect in Defect::ALL {
                let bad = inject(&clean, defect);
                let lints = lint_machine(&bad);
                assert!(
                    lints.iter().any(|l| l.kind == defect.expected_kind()),
                    "seed {seed}, {defect:?}: expected {:?} in {lints:?}",
                    defect.expected_kind()
                );
            }
        }
    }

    #[test]
    fn injection_preserves_core_count_except_structural_defects() {
        let cfg = ZooConfig::default();
        let clean = generate_clean(5, &cfg);
        for defect in [
            Defect::CapacityInversion,
            Defect::LineShrink,
            Defect::ZeroLatency,
            Defect::AllPrivate,
        ] {
            assert_eq!(
                inject(&clean, defect).n_cores(),
                clean.n_cores(),
                "{defect:?}"
            );
        }
        assert!(inject(&clean, Defect::LevelSkip).n_cores() > clean.n_cores());
    }
}
