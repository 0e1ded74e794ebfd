//! `ctam-advisor`: static locality & interference predictions (`CTAM-A4xx`).
//!
//! From a finished mapping's group tags, the machine's cache-topology tree,
//! and the barrier-round structure of its schedule — and **without running
//! the simulator** — the advisor computes, per cache level:
//!
//! * **footprint mass**: distinct cache lines each shared-cache domain ever
//!   touches (the cold-miss mass, counted once per domain so replicated data
//!   costs every replica),
//! * **constructive sharing**: lines touched by two or more cores *under the
//!   same cache* in the same round (the sharing the paper's mapping tries to
//!   create),
//! * **cross-domain conflicts**: lines touched by two or more *different*
//!   caches of the level in the same round with a write involved — the
//!   coherence-invalidation mass of a write-invalidate protocol,
//! * **capacity excess**: per-round domain footprint beyond the cache's line
//!   capacity,
//!
//! plus a replay of the Figure 7 scheduling objective (α·horizontal +
//! β·vertical tag affinity) against a greedy per-group upper bound. The
//! findings surface as the advice-severity `CTAM-A401`–`A404` band.
//!
//! # Soundness
//!
//! Everything here is a *prediction from an abstract model*, not a proof:
//!
//! * The per-level predictions count exact element byte extents (the same
//!   addressing the trace builder feeds the simulator) binned to lines, but
//!   `A401` deliberately works at *block* granularity via the
//!   `crate::blocks` block→byte extents: any write into a block contests
//!   all of the block's lines, an over-approximation that flags sharing
//!   hazards the element trace of one input size may not exhibit.
//! * Per-round footprints ignore intra-round ordering, so LRU timing effects
//!   are invisible; the simulator remains the ground truth. The differential
//!   harness (`tests/advisor_differential.rs`) checks the advisor's per-level
//!   *ranking* of strategies against simulated misses, not absolute counts.
//! * For the per-level predictions and `A401` the advisor **recomputes**
//!   touch/write footprints from unit accesses rather than trusting stored
//!   tags (splits keep the whole tag on both halves, which would inflate
//!   every split strategy); `A402`–`A404` judge the clustering and
//!   scheduling decisions *as made*, so they use the stored tags.

use ctam_loopir::{AccessKind, Program};
use ctam_topology::Machine;

use crate::blocks::BlockMap;
use crate::pipeline::NestMapping;
use crate::schedule::{Schedule, ScheduleWeights};
use crate::tag::Tag;

use super::diag::{Code, Diagnostic};

/// α/β used to replay the Figure 7 objective for `CTAM-A403`: the paper's
/// default, 0.5/0.5.
const WEIGHTS: ScheduleWeights = ScheduleWeights {
    alpha: 0.5,
    beta: 0.5,
};

/// `CTAM-A403` fires when the achieved reuse score falls below this fraction
/// of the greedy upper bound.
const REUSE_FRACTION: f64 = 0.5;

/// Above this many groups the quadratic affinity scans (`A402`, the `A403`
/// upper bound) fall back to coarser linear summaries: per-core ORed tags
/// for `A402`, a popcount bound for `A403`.
const MAX_AFFINITY_GROUPS: usize = 256;

/// Predicted sharing/interference metrics for one cache level, in units of
/// cache lines at that level's (finest) line size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelPrediction {
    /// The cache level (1 = L1).
    pub level: u8,
    /// Line size the metrics are counted at.
    pub line_bytes: u32,
    /// Σ over the level's caches of the distinct lines the cache's cores
    /// ever touch — the cold mass, counting replicated data once per cache.
    pub footprint_lines: u64,
    /// Σ over caches and rounds of lines touched by ≥ 2 cores *under the
    /// same cache* in one round: constructive sharing.
    pub shared_lines: u64,
    /// Σ over rounds of lines touched under ≥ 2 *different* caches of this
    /// level in one round with a write involved: predicted coherence
    /// invalidations.
    pub conflict_lines: u64,
    /// Σ over caches and rounds of the round footprint beyond the cache's
    /// line capacity: predicted capacity churn.
    pub capacity_excess_lines: u64,
}

impl LevelPrediction {
    /// The scalar the differential harness ranks strategies by: cold mass
    /// plus coherence conflicts plus capacity excess. (Constructive sharing
    /// is excluded — it predicts hits, not misses.)
    pub fn interference(&self) -> u64 {
        self.footprint_lines + self.conflict_lines + self.capacity_excess_lines
    }
}

/// The Figure 7 objective replayed over a schedule, against a greedy bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReuseScore {
    /// Σ over scheduled groups of α·(θ_a·θ_x) + β·(θ_a·θ_y), where θ_x is
    /// the previous pick in the round's shared-domain walk and θ_y the
    /// previous group on the same core — exactly the quantity
    /// [`crate::schedule::schedule_local`] maximizes pick by pick.
    pub achieved: f64,
    /// A per-group greedy upper bound: each group scored against its best
    /// possible neighbour and best same-core companion (or, above the group
    /// cap, the popcount bound `(α+β)·Σ|θ|`).
    pub upper_bound: f64,
}

/// Everything the advisor computed for one mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct AdvisorReport {
    /// Per-cache-level predictions, ascending by level.
    pub levels: Vec<LevelPrediction>,
    /// The schedule's replayed reuse score.
    pub reuse: ReuseScore,
    /// Tag bit positions (data blocks) no group's stored tag claims.
    pub dead_blocks: Vec<usize>,
    /// The `CTAM-A4xx` advisories derived from the metrics above.
    pub diagnostics: Vec<Diagnostic>,
}

impl AdvisorReport {
    /// The prediction for `level`, if the machine has caches there.
    pub fn level(&self, level: u8) -> Option<&LevelPrediction> {
        self.levels.iter().find(|p| p.level == level)
    }
}

/// A set of cache-line ids as sorted, disjoint, half-open `[lo, hi)` runs —
/// block extents are contiguous, so interval arithmetic beats per-line
/// bitmaps by orders of magnitude on large arrays.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct LineSet {
    runs: Vec<(u64, u64)>,
}

impl LineSet {
    /// Sorts, drops empty runs, and merges overlapping/adjacent ones.
    fn normalize(mut runs: Vec<(u64, u64)>) -> Self {
        runs.retain(|&(lo, hi)| hi > lo);
        runs.sort_unstable();
        let mut out: Vec<(u64, u64)> = Vec::with_capacity(runs.len());
        for (lo, hi) in runs {
            match out.last_mut() {
                Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
                _ => out.push((lo, hi)),
            }
        }
        Self { runs: out }
    }

    fn from_tag(tag: &Tag, blocks: &BlockMap, line_bytes: u32) -> Self {
        Self::normalize(
            tag.iter_bits()
                .map(|b| blocks.line_extent(b, line_bytes))
                .collect(),
        )
    }

    /// Reinterprets a set of byte extents as the set of line ids it touches.
    fn to_lines(&self, line_bytes: u32) -> LineSet {
        let lb = u64::from(line_bytes);
        Self::normalize(
            self.runs
                .iter()
                .map(|&(lo, hi)| (lo / lb, hi.div_ceil(lb)))
                .collect(),
        )
    }

    fn len(&self) -> u64 {
        self.runs.iter().map(|&(lo, hi)| hi - lo).sum()
    }

    fn union_all<'a>(sets: impl IntoIterator<Item = &'a LineSet>) -> LineSet {
        let mut runs = Vec::new();
        for s in sets {
            runs.extend_from_slice(&s.runs);
        }
        Self::normalize(runs)
    }

    /// The lines covered by at least `k` of the given sets (boundary-event
    /// sweep; each input is internally disjoint, so its own runs never
    /// double-count).
    fn covered_at_least<'a>(sets: impl IntoIterator<Item = &'a LineSet>, k: usize) -> LineSet {
        let mut events: Vec<(u64, i64)> = Vec::new();
        for s in sets {
            for &(lo, hi) in &s.runs {
                events.push((lo, 1));
                events.push((hi, -1));
            }
        }
        events.sort_unstable();
        let mut out = Vec::new();
        let mut depth = 0i64;
        let mut start: Option<u64> = None;
        let mut i = 0;
        while i < events.len() {
            let x = events[i].0;
            while i < events.len() && events[i].0 == x {
                depth += events[i].1;
                i += 1;
            }
            if depth >= k as i64 {
                start.get_or_insert(x);
            } else if let Some(s) = start.take() {
                if x > s {
                    out.push((s, x));
                }
            }
        }
        // Depth always returns to zero at the last boundary, closing any
        // open run above.
        LineSet { runs: out }
    }

    fn intersection_len(&self, other: &LineSet) -> u64 {
        let (mut i, mut j, mut total) = (0usize, 0usize, 0u64);
        while i < self.runs.len() && j < other.runs.len() {
            let (alo, ahi) = self.runs[i];
            let (blo, bhi) = other.runs[j];
            let lo = alo.max(blo);
            let hi = ahi.min(bhi);
            if hi > lo {
                total += hi - lo;
            }
            if ahi <= bhi {
                i += 1;
            } else {
                j += 1;
            }
        }
        total
    }
}

/// Per-(round, core) footprints, recomputed from unit accesses (stored tags
/// over-claim after splits; see module docs). Two granularities: block tags
/// drive the `A401` block-extent check, exact byte extents drive the level
/// predictions (the same addressing the trace builder feeds the simulator).
struct Footprints {
    /// `[round][core]` blocks written (the `A401` block-extent inputs).
    write: Vec<Vec<Tag>>,
    /// `[round][core]` exact byte extents touched (element-granular).
    touch_bytes: Vec<Vec<LineSet>>,
    /// `[round][core]` exact byte extents written.
    write_bytes: Vec<Vec<LineSet>>,
}

fn recompute_footprints(
    program: &Program,
    mapping: &NestMapping,
    blocks: &BlockMap,
    schedule: &Schedule,
) -> Footprints {
    let n_rounds = schedule.n_rounds();
    let n_cores = schedule.n_cores();
    let empty = Tag::empty(blocks.n_blocks());
    let mut write = vec![vec![empty; n_cores]; n_rounds];
    let mut touch_raw = vec![vec![Vec::new(); n_cores]; n_rounds];
    let mut write_raw = vec![vec![Vec::new(); n_cores]; n_rounds];
    let space = &mapping.space;
    for (r, round) in schedule.rounds().iter().enumerate() {
        for (c, groups) in round.iter().enumerate().take(n_cores) {
            for g in groups {
                for &u in g.iterations() {
                    if (u as usize) >= space.n_units() {
                        continue; // malformed schedules are the verifier's job
                    }
                    for a in space.unit_accesses(u as usize) {
                        let lo = program.address_of(a.array, a.element);
                        let hi = lo + u64::from(program.array(a.array).elem_bytes());
                        touch_raw[r][c].push((lo, hi));
                        if a.kind == AccessKind::Write {
                            write[r][c].set(blocks.block_of(a.array, a.element));
                            write_raw[r][c].push((lo, hi));
                        }
                    }
                }
            }
        }
    }
    let to_sets = |raw: Vec<Vec<Vec<(u64, u64)>>>| {
        raw.into_iter()
            .map(|row| row.into_iter().map(LineSet::normalize).collect())
            .collect()
    };
    Footprints {
        write,
        touch_bytes: to_sets(touch_raw),
        write_bytes: to_sets(write_raw),
    }
}

/// Per-(round, core) touch/write line sets at one line granularity, from the
/// exact byte extents.
struct LineFootprints {
    touch: Vec<Vec<LineSet>>,
    write: Vec<Vec<LineSet>>,
}

impl LineFootprints {
    fn build(fp: &Footprints, line_bytes: u32) -> Self {
        let to_sets = |bytes: &Vec<Vec<LineSet>>| {
            bytes
                .iter()
                .map(|row| row.iter().map(|s| s.to_lines(line_bytes)).collect())
                .collect()
        };
        Self {
            touch: to_sets(&fp.touch_bytes),
            write: to_sets(&fp.write_bytes),
        }
    }
}

fn predict_levels(
    machine: &Machine,
    fp: &Footprints,
    n_rounds: usize,
    n_cores: usize,
) -> Vec<LevelPrediction> {
    // All catalog machines use one line size, so cache the expensive
    // byte-run->LineSet conversion per distinct granularity.
    let mut by_line: Vec<(u32, LineFootprints)> = Vec::new();
    let mut out = Vec::new();
    for level in machine.levels() {
        let Some(line_bytes) = machine.line_bytes_at(level) else {
            continue;
        };
        if !by_line.iter().any(|&(lb, _)| lb == line_bytes) {
            by_line.push((line_bytes, LineFootprints::build(fp, line_bytes)));
        }
        let sets = &by_line
            .iter()
            .find(|&&(lb, _)| lb == line_bytes)
            .expect("just inserted")
            .1;
        let domains = machine.shared_domains(level);
        let mut footprint = 0u64;
        let mut shared = 0u64;
        let mut conflict = 0u64;
        let mut capacity_excess = 0u64;
        for r in 0..n_rounds {
            let mut dom_touch: Vec<LineSet> = Vec::with_capacity(domains.len());
            let mut dom_write: Vec<LineSet> = Vec::with_capacity(domains.len());
            for (node, cores) in &domains {
                let core_touch: Vec<&LineSet> = cores
                    .iter()
                    .filter(|c| c.index() < n_cores)
                    .map(|c| &sets.touch[r][c.index()])
                    .collect();
                let core_write: Vec<&LineSet> = cores
                    .iter()
                    .filter(|c| c.index() < n_cores)
                    .map(|c| &sets.write[r][c.index()])
                    .collect();
                shared += LineSet::covered_at_least(core_touch.iter().copied(), 2).len();
                let t_union = LineSet::union_all(core_touch);
                if let Some(params) = machine.cache_params(*node) {
                    capacity_excess += t_union.len().saturating_sub(params.n_lines());
                }
                dom_touch.push(t_union);
                dom_write.push(LineSet::union_all(core_write));
            }
            let multi = LineSet::covered_at_least(dom_touch.iter(), 2);
            conflict += multi.intersection_len(&LineSet::union_all(dom_write.iter()));
        }
        for (_, cores) in &domains {
            let all: Vec<&LineSet> = (0..n_rounds)
                .flat_map(|r| {
                    cores
                        .iter()
                        .filter(|c| c.index() < n_cores)
                        .map(move |c| &sets.touch[r][c.index()])
                })
                .collect();
            footprint += LineSet::union_all(all).len();
        }
        out.push(LevelPrediction {
            level,
            line_bytes,
            footprint_lines: footprint,
            shared_lines: shared,
            conflict_lines: conflict,
            capacity_excess_lines: capacity_excess,
        });
    }
    out
}

/// `CTAM-A401`: per round, lines covered by two or more cores' write sets at
/// the machine's finest line granularity.
fn check_false_sharing(
    machine: &Machine,
    blocks: &BlockMap,
    fp: &Footprints,
    nest: usize,
    diags: &mut Vec<Diagnostic>,
) {
    let Some(line_bytes) = machine
        .levels()
        .into_iter()
        .filter_map(|l| machine.line_bytes_at(l))
        .min()
    else {
        return;
    };
    for (r, row) in fp.write.iter().enumerate() {
        let write_sets: Vec<LineSet> = row
            .iter()
            .map(|t| LineSet::from_tag(t, blocks, line_bytes))
            .collect();
        let contested = LineSet::covered_at_least(write_sets.iter(), 2);
        if contested.len() == 0 {
            continue;
        }
        // Name the worst-overlapping core pair as the example.
        let mut example: Option<(usize, usize, u64)> = None;
        for c1 in 0..write_sets.len() {
            for c2 in c1 + 1..write_sets.len() {
                let n = write_sets[c1].intersection_len(&write_sets[c2]);
                if n > 0 && example.is_none_or(|(_, _, best)| n > best) {
                    example = Some((c1, c2, n));
                }
            }
        }
        let (c1, c2, n) = example.expect("contested lines imply a pair");
        diags.push(
            Diagnostic::new(
                Code::PredictedFalseSharing,
                format!(
                    "round {r}: {} cache line(s) ({line_bytes}B) fall in the \
                     write footprint of two or more cores — e.g. cores {c1} \
                     and {c2} write-share {n} line(s); block-granular, so an \
                     over-approximation of true false sharing",
                    contested.len(),
                ),
            )
            .with_nest(nest)
            .with_round(r),
        );
    }
}

/// The stored group tags per core, all rounds flattened (the inputs `A402`
/// judges the distribution by).
fn stored_tags_per_core(schedule: &Schedule) -> Vec<Vec<&Tag>> {
    let mut per_core: Vec<Vec<&Tag>> = vec![Vec::new(); schedule.n_cores()];
    for round in schedule.rounds() {
        for (c, groups) in round.iter().enumerate().take(schedule.n_cores()) {
            per_core[c].extend(groups.iter().map(|g| g.tag()));
        }
    }
    per_core
}

/// `CTAM-A402`: under each parent of the first shared level's caches, a
/// cross-child group pair with higher tag affinity than every intra-child
/// pair means the distribution separated more sharing than it kept.
fn check_affinity_loss(
    machine: &Machine,
    schedule: &Schedule,
    nest: usize,
    diags: &mut Vec<Diagnostic>,
) {
    let Some(level) = machine.first_shared_level() else {
        return;
    };
    let per_core = stored_tags_per_core(schedule);
    let n_groups: usize = per_core.iter().map(Vec::len).sum();
    // Above the cap, collapse each core to one ORed pseudo-group so the scan
    // stays quadratic in cores, not groups.
    let collapsed: Vec<Vec<Tag>>;
    let per_core: Vec<Vec<&Tag>> = if n_groups > MAX_AFFINITY_GROUPS {
        collapsed = per_core
            .iter()
            .map(|tags| {
                tags.iter()
                    .fold(None::<Tag>, |acc, t| match acc {
                        None => Some((*t).clone()),
                        Some(a) => Some(a.or(t)),
                    })
                    .into_iter()
                    .collect()
            })
            .collect();
        collapsed.iter().map(|v| v.iter().collect()).collect()
    } else {
        per_core
    };
    // Group the level's caches by parent node; singleton parents are skipped
    // (nothing to trade off).
    let domains = machine.shared_domains(level);
    let mut parents: Vec<(Option<ctam_topology::NodeId>, Vec<usize>)> = Vec::new();
    for (i, (node, _)) in domains.iter().enumerate() {
        let p = machine.parent(*node);
        match parents.iter_mut().find(|(q, _)| *q == p) {
            Some((_, members)) => members.push(i),
            None => parents.push((p, vec![i])),
        }
    }
    let domain_tags = |d: usize| -> Vec<&Tag> {
        domains[d]
            .1
            .iter()
            .filter(|c| c.index() < per_core.len())
            .flat_map(|c| per_core[c.index()].iter().copied())
            .collect()
    };
    for (_, members) in parents.iter().filter(|(_, m)| m.len() > 1) {
        let mut best_intra = 0u32;
        for &d in members {
            let tags = domain_tags(d);
            for i in 0..tags.len() {
                for j in i + 1..tags.len() {
                    best_intra = best_intra.max(tags[i].dot(tags[j]));
                }
            }
        }
        let mut best_cross: Option<(u32, usize, usize)> = None;
        for (a, &d1) in members.iter().enumerate() {
            for &d2 in &members[a + 1..] {
                for t1 in &domain_tags(d1) {
                    for t2 in &domain_tags(d2) {
                        let dot = t1.dot(t2);
                        if best_cross.is_none_or(|(best, _, _)| dot > best) {
                            best_cross = Some((dot, d1, d2));
                        }
                    }
                }
            }
        }
        if let Some((cross, d1, d2)) = best_cross {
            if cross > best_intra && cross > 0 {
                diags.push(
                    Diagnostic::new(
                        Code::AffinityLoss,
                        format!(
                            "a group pair split across sibling L{level} caches \
                             {d1} and {d2} shares {cross} data block(s), more \
                             than any pair kept together under either cache \
                             (best intra-cache affinity: {best_intra}) — the \
                             distribution separated its strongest sharers",
                        ),
                    )
                    .with_nest(nest),
                );
            }
        }
    }
}

/// Replays the Figure 7 objective over `schedule` exactly as
/// [`crate::schedule::schedule_local`] scores picks, and bounds it greedily.
fn reuse_score(machine: &Machine, schedule: &Schedule) -> ReuseScore {
    let n_cores = schedule.n_cores();
    let domains: Vec<Vec<usize>> = match machine.first_shared_level() {
        Some(level) => machine
            .shared_domains(level)
            .into_iter()
            .map(|(_, cores)| {
                cores
                    .into_iter()
                    .map(|c| c.index())
                    .filter(|&c| c < n_cores)
                    .collect()
            })
            .collect(),
        None => (0..n_cores).map(|c| vec![c]).collect(),
    };
    let (alpha, beta) = (WEIGHTS.alpha, WEIGHTS.beta);
    let mut achieved = 0f64;
    let mut last_on_core: Vec<Option<&Tag>> = vec![None; n_cores];
    for round in schedule.rounds() {
        for domain in &domains {
            let mut last_on_prev: Option<&Tag> = None;
            for &c in domain {
                for g in round.get(c).map_or(&[][..], |v| &v[..]) {
                    let horiz = last_on_prev.map_or(0, |x| g.tag().dot(x));
                    let vert = last_on_core[c].map_or(0, |y| g.tag().dot(y));
                    achieved += alpha * f64::from(horiz) + beta * f64::from(vert);
                    last_on_prev = Some(g.tag());
                    last_on_core[c] = Some(g.tag());
                }
            }
        }
    }
    // Greedy bound: each group against its best possible domain neighbour
    // (θ_x) and best same-core companion (θ_y).
    let mut domain_of = vec![usize::MAX; n_cores];
    for (d, cores) in domains.iter().enumerate() {
        for &c in cores {
            domain_of[c] = d;
        }
    }
    let mut flat: Vec<(usize, &Tag)> = Vec::new();
    for round in schedule.rounds() {
        for (c, groups) in round.iter().enumerate().take(n_cores) {
            flat.extend(groups.iter().map(|g| (c, g.tag())));
        }
    }
    let upper_bound = if flat.len() > MAX_AFFINITY_GROUPS {
        // dot(θ_a, ·) ≤ |θ_a|, so (α+β)·Σ|θ| bounds any schedule.
        flat.iter()
            .map(|(_, t)| (alpha + beta) * f64::from(t.popcount()))
            .sum()
    } else {
        flat.iter()
            .enumerate()
            .map(|(i, &(c, t))| {
                let mut best_any = 0u32;
                let mut best_same = 0u32;
                for (j, &(c2, t2)) in flat.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    let dot = t.dot(t2);
                    if domain_of[c] == domain_of[c2] {
                        best_any = best_any.max(dot);
                    }
                    if c == c2 {
                        best_same = best_same.max(dot);
                    }
                }
                alpha * f64::from(best_any) + beta * f64::from(best_same)
            })
            .sum()
    };
    ReuseScore {
        achieved,
        upper_bound,
    }
}

/// Runs the advisor over a finished mapping/schedule pair. Purely static —
/// no cache simulation anywhere on this path (the `advisor_cost` criterion
/// group holds it under 5% of pipeline wall time).
///
/// The schedule is passed separately from `mapping` for the same reason
/// [`super::verify_mapping`] takes it separately: advising on mutated or
/// folded variants of a mapping's schedule.
pub fn advise_mapping(
    program: &Program,
    machine: &Machine,
    mapping: &NestMapping,
    schedule: &Schedule,
) -> AdvisorReport {
    let nest = mapping.space.nest().index();
    let blocks = BlockMap::new(program, mapping.block_bytes);
    let n_rounds = schedule.n_rounds();
    let n_cores = schedule.n_cores();
    let mut diagnostics = Vec::new();

    let fp = recompute_footprints(program, mapping, &blocks, schedule);
    let levels = predict_levels(machine, &fp, n_rounds, n_cores);
    check_false_sharing(machine, &blocks, &fp, nest, &mut diagnostics);
    check_affinity_loss(machine, schedule, nest, &mut diagnostics);

    let reuse = reuse_score(machine, schedule);
    if reuse.upper_bound > 0.0 && reuse.achieved < REUSE_FRACTION * reuse.upper_bound {
        diagnostics.push(
            Diagnostic::new(
                Code::ReuseStarvedSchedule,
                format!(
                    "achieved reuse score {:.1} is below {:.0}% of the greedy \
                     upper bound {:.1} — the round ordering leaves tag \
                     affinity (α={}, β={}) on the table",
                    reuse.achieved,
                    REUSE_FRACTION * 100.0,
                    reuse.upper_bound,
                    WEIGHTS.alpha,
                    WEIGHTS.beta,
                ),
            )
            .with_nest(nest),
        );
    }

    // A404: blocks no stored tag claims — dead width in every dot product.
    let mut claimed = Tag::empty(blocks.n_blocks());
    for round in schedule.rounds() {
        for groups in round {
            for g in groups {
                if g.tag().n_bits() == claimed.n_bits() {
                    claimed.or_assign(g.tag());
                }
            }
        }
    }
    let dead_blocks: Vec<usize> = (0..blocks.n_blocks())
        .filter(|&b| !claimed.get(b))
        .collect();
    if !dead_blocks.is_empty() {
        let sample: Vec<usize> = dead_blocks.iter().copied().take(8).collect();
        diagnostics.push(
            Diagnostic::new(
                Code::DeadTagBits,
                format!(
                    "{} of {} tag bit(s) (data blocks) are claimed by no \
                     group, e.g. blocks {:?} — dead width in every affinity \
                     dot product",
                    dead_blocks.len(),
                    blocks.n_blocks(),
                    sample,
                ),
            )
            .with_nest(nest),
        );
    }

    AdvisorReport {
        levels,
        reuse,
        dead_blocks,
        diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::IterationGroup;
    use crate::pipeline::{map_nest, CtamParams, Strategy};
    use ctam_loopir::{ArrayRef, LoopNest};
    use ctam_poly::{AffineExpr, AffineMap, IntegerSet};
    use ctam_topology::catalog;

    fn lines(runs: &[(u64, u64)]) -> LineSet {
        LineSet::normalize(runs.to_vec())
    }

    #[test]
    fn lineset_normalizes_and_measures() {
        let s = lines(&[(10, 12), (0, 4), (3, 6), (12, 12)]);
        assert_eq!(s.runs, vec![(0, 6), (10, 12)]);
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn lineset_union_and_coverage() {
        let a = lines(&[(0, 4), (10, 14)]);
        let b = lines(&[(2, 6)]);
        let c = lines(&[(3, 5), (12, 13)]);
        assert_eq!(LineSet::union_all([&a, &b, &c]).len(), 10);
        // Covered by >= 2: [2,5) from a∩b plus b∩c overlap, [12,13).
        let two = LineSet::covered_at_least([&a, &b, &c], 2);
        assert_eq!(two.runs, vec![(2, 5), (12, 13)]);
        let three = LineSet::covered_at_least([&a, &b, &c], 3);
        assert_eq!(three.runs, vec![(3, 4)]);
    }

    #[test]
    fn lineset_intersection_is_symmetric() {
        let a = lines(&[(0, 10), (20, 30)]);
        let b = lines(&[(5, 25)]);
        assert_eq!(a.intersection_len(&b), 10);
        assert_eq!(b.intersection_len(&a), 10);
        assert_eq!(a.intersection_len(&lines(&[])), 0);
    }

    /// A row-parallel stencil: `B[i][j] = A[i][j] + A[i][j+1] + A[i+1][j]`.
    fn stencil(n: u64) -> Program {
        let mut p = Program::new("stencil");
        let a = p.add_array("A", &[n, n], 8);
        let b = p.add_array("B", &[n, n], 8);
        let d = IntegerSet::builder(2)
            .bounds(0, 0, n as i64 - 2)
            .bounds(1, 0, n as i64 - 2)
            .build();
        let sub = |di: i64, dj: i64| {
            AffineMap::new(
                2,
                vec![
                    AffineExpr::var(2, 0) + AffineExpr::constant(2, di),
                    AffineExpr::var(2, 1) + AffineExpr::constant(2, dj),
                ],
            )
        };
        p.add_nest(
            LoopNest::new("sweep", d)
                .with_ref(ArrayRef::write(b, sub(0, 0)))
                .with_ref(ArrayRef::read(a, sub(0, 0)))
                .with_ref(ArrayRef::read(a, sub(0, 1)))
                .with_ref(ArrayRef::read(a, sub(1, 0))),
        );
        p
    }

    #[test]
    fn advisor_runs_on_pipeline_output_and_is_deterministic() {
        let p = stencil(16);
        let m = catalog::harpertown();
        let params = CtamParams {
            block_bytes: Some(512),
            ..CtamParams::default()
        };
        let (nest, _) = p.nests().next().unwrap();
        for s in [Strategy::Base, Strategy::Combined] {
            let mapping = map_nest(&p, nest, &m, s, &params).unwrap();
            let r1 = advise_mapping(&p, &m, &mapping, &mapping.schedule);
            let r2 = advise_mapping(&p, &m, &mapping, &mapping.schedule);
            assert_eq!(r1, r2, "{s}");
            // Harpertown has L1 and L2 predictions, both with positive
            // footprints (the nest touches real data).
            assert_eq!(r1.levels.len(), 2);
            for lp in &r1.levels {
                assert!(lp.footprint_lines > 0, "{s} L{}", lp.level);
                assert_eq!(lp.line_bytes, 64);
            }
            // The stencil writes disjoint rows of B per core: no dead tag
            // bits, and only advice-severity codes at most.
            for d in &r1.diagnostics {
                assert_eq!(d.severity(), crate::verify::Severity::Advice, "{d}");
            }
        }
    }

    #[test]
    fn shared_footprint_exceeds_private_on_shared_rows() {
        // Base on harpertown (pair-shared L2): the stencil's halo rows are
        // touched by adjacent cores, so per-L2 footprints overlap-count less
        // than the L1 sum.
        let p = stencil(24);
        let m = catalog::harpertown();
        let (nest, _) = p.nests().next().unwrap();
        let mapping = map_nest(&p, nest, &m, Strategy::Base, &CtamParams::default()).unwrap();
        let r = advise_mapping(&p, &m, &mapping, &mapping.schedule);
        let l1 = r.level(1).unwrap();
        let l2 = r.level(2).unwrap();
        // 8 private L1 domains vs 4 shared L2 domains over the same data:
        // the shared level can only fold footprints together.
        assert!(l2.footprint_lines <= l1.footprint_lines);
        assert!(l2.shared_lines >= l1.shared_lines);
    }

    #[test]
    fn contested_writes_raise_a401() {
        // Two cores in one round write the same block: classic predicted
        // false sharing.
        let p = stencil(12);
        let m = catalog::harpertown();
        let (nest, _) = p.nests().next().unwrap();
        let mapping = map_nest(&p, nest, &m, Strategy::Base, &CtamParams::default()).unwrap();
        // Rebuild a one-round schedule where cores 0 and 1 both hold the
        // same first group (a write-sharing round by construction).
        let g = mapping.schedule.rounds()[0]
            .iter()
            .flatten()
            .next()
            .unwrap()
            .clone();
        let mut round: Vec<Vec<IterationGroup>> = vec![Vec::new(); m.n_cores()];
        round[0] = vec![g.clone()];
        round[1] = vec![g];
        let contested = Schedule::from_rounds(vec![round], m.n_cores()).unwrap();
        let r = advise_mapping(&p, &m, &mapping, &contested);
        let a401 = r
            .diagnostics
            .iter()
            .find(|d| d.code() == Code::PredictedFalseSharing)
            .expect("duplicate write footprints must fire A401");
        assert_eq!(a401.round(), Some(0));
        assert!(
            a401.message().contains("cores 0 and 1"),
            "{}",
            a401.message()
        );
        // The duplicated round also write-conflicts across L2 domains? No —
        // cores 0 and 1 share one L2 on harpertown, so the conflict shows at
        // L1 (private domains), not L2.
        let l1 = r.level(1).unwrap();
        assert!(l1.conflict_lines > 0);
        let l2 = r.level(2).unwrap();
        assert_eq!(l2.conflict_lines, 0);
    }

    #[test]
    fn dead_tag_bits_raise_a404() {
        // A program with an array no nest touches: its blocks are dead tag
        // width by construction.
        let mut p = Program::new("deadwood");
        let a = p.add_array("A", &[64], 8);
        let _unused = p.add_array("UNUSED", &[512], 8);
        let d = IntegerSet::builder(1).bounds(0, 0, 63).build();
        p.add_nest(LoopNest::new("n", d).with_ref(ArrayRef::read(a, AffineMap::identity(1))));
        let m = catalog::harpertown();
        let (nest, _) = p.nests().next().unwrap();
        let mapping = map_nest(&p, nest, &m, Strategy::Base, &CtamParams::default()).unwrap();
        let r = advise_mapping(&p, &m, &mapping, &mapping.schedule);
        assert!(!r.dead_blocks.is_empty());
        let a404 = r
            .diagnostics
            .iter()
            .find(|d| d.code() == Code::DeadTagBits)
            .expect("untouched array blocks must fire A404");
        assert!(
            a404.message().contains("claimed by no"),
            "{}",
            a404.message()
        );
    }

    #[test]
    fn reuse_replay_matches_bound_shape() {
        let p = stencil(20);
        let m = catalog::dunnington();
        let (nest, _) = p.nests().next().unwrap();
        let mapping = map_nest(&p, nest, &m, Strategy::Combined, &CtamParams::default()).unwrap();
        let r = advise_mapping(&p, &m, &mapping, &mapping.schedule);
        assert!(r.reuse.achieved >= 0.0);
        assert!(
            r.reuse.achieved <= r.reuse.upper_bound + 1e-9,
            "achieved {} must not beat the bound {}",
            r.reuse.achieved,
            r.reuse.upper_bound
        );
    }
}
