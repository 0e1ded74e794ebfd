//! `CTAM-E004`: within one barrier round, no element may be written by one
//! core and touched by another.
//!
//! The check runs at *element* granularity: two cores touching different
//! elements of the same data block in one round is false sharing — a
//! performance hazard the pass is allowed to produce (`Base` does, by
//! construction) — not a correctness race. A genuine conflict is reported
//! once per `(round, array, block)` with the data block named in the
//! message, since blocks are the unit the rest of the pass reasons in.
//!
//! # Symbolic proof path
//!
//! When the nest is all-affine, the check first attempts a *symbolic* proof
//! (`CTAM-N301`) that avoids replaying any element access: every conflicting
//! iteration pair is `(I, I ± d)` for a dependence distance `d` of the
//! symbolic engine (the enumeration-free summary of
//! [`ctam_loopir::dependence::analyze_nest`], supplied by the caller so one
//! analysis serves every check), and iterations
//! sharing their first `unit_prefix` coordinates always land in the same
//! mapping unit (units are maximal runs of lexicographically consecutive
//! points sharing that prefix). So if, for every unit and every non-zero
//! distance prefix `δ`, the unit at `prefix ± δ` runs on the same core or in
//! a different round, no cross-core same-round conflict can exist. The scan
//! is one forward merge of the ordered units per `δ`, `O(units × distinct
//! prefixes)` comparisons instead of `O(iterations × refs)` per round, and
//! it reports the conflict that comes first in `(unit, δ, sign)` order.
//! Any potential cross-core hit — or an
//! unavailable symbolic analysis — falls back to the element-level
//! enumeration below (`CTAM-N302`), which decides exactly; the proof path
//! only ever *skips* enumeration when race freedom is established, so both
//! paths report the same errors.
//!
//! Irregular (indirect-subscript) nests take the same proof path when the
//! index-array fact screens of `ctam-ia` delivered an enumeration-free
//! summary; a successful proof is then reported as `CTAM-N303` instead of
//! `CTAM-N301`. When a pair with an indirect subscript resisted every
//! screen and had to be enumerated, each such pair additionally earns a
//! `CTAM-W204` warning: the enumeration-based verdict holds for the
//! concrete tables only.

use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap, HashSet};

use ctam_loopir::{AccessKind, ArrayId, DependenceInfo, Program};

use crate::blocks::BlockMap;
use crate::space::IterationSpace;

use super::diag::{Code, Diagnostic};
use super::FlatSchedule;

/// How the race check should attempt the symbolic proof.
pub(super) enum SymbolicRaces<'a> {
    /// Don't attempt it and don't note anything (coverage errors
    /// invalidated the unit-placement reasoning).
    Off,
    /// The nest is outside the enumeration-free symbolic model; note the
    /// fallback and enumerate.
    Unavailable {
        /// Reference pairs (body indices) that forced the fallback because
        /// an indirect subscript resisted every index-array screen and had
        /// to be enumerated against the concrete tables. One `CTAM-W204`
        /// warning each: the verdict below does not generalise to other
        /// table contents.
        indirect_pairs: Vec<(usize, usize)>,
    },
    /// Attempt the proof from this (symbolically derived, exact) dependence
    /// summary. `index_facts` records whether any pair of the summary was
    /// discharged by an index-array fact screen (range disjointness,
    /// injectivity, bandedness) — a successful proof is then reported as
    /// `CTAM-N303` instead of `CTAM-N301`, since it covers an irregular
    /// nest no affine engine could handle.
    From {
        /// The exact dependence summary the proof reasons from.
        dep: &'a DependenceInfo,
        /// True if an index-array fact screen contributed to the summary.
        index_facts: bool,
    },
}

/// Outcome of the symbolic proof attempt.
#[derive(Debug, PartialEq)]
enum Proof {
    /// Race freedom established; enumeration can be skipped (`CTAM-N301`).
    Proven { distances: usize, deltas: usize },
    /// Race freedom established for an irregular nest, with index-array
    /// facts carrying part of the dependence summary (`CTAM-N303`).
    ProvenIrregular { distances: usize, deltas: usize },
    /// Could not establish it symbolically; enumerate (the reason is
    /// reported in the `CTAM-N302` note).
    Fallback(String),
}

/// True if the symbolic race proof succeeds for this placement — exposed so
/// the certificate builder can mirror the verifier's verdict exactly.
pub(crate) fn proof_succeeds(
    dep: &DependenceInfo,
    space: &IterationSpace,
    flat: &FlatSchedule<'_>,
) -> bool {
    matches!(
        symbolic_proof(dep, space, flat),
        Proof::Proven { .. } | Proof::ProvenIrregular { .. }
    )
}

fn symbolic_proof(dep: &DependenceInfo, space: &IterationSpace, flat: &FlatSchedule<'_>) -> Proof {
    let prefix = space.unit_prefix();
    let crosses_units = |d: &Vec<i64>| d[..prefix].iter().any(|&x| x != 0);
    if !dep.distances().iter().any(crosses_units) {
        // Every dependence stays within a unit: units are atomic per core.
        return prove(dep.distances(), prefix, &[], &[]);
    }
    let n_units = space.n_units();
    let mut prefixes = Vec::with_capacity(n_units * prefix);
    for u in 0..n_units {
        prefixes.extend_from_slice(&space.unit_point(u)[..prefix]);
    }
    let mut placed = vec![(UNPLACED, 0); n_units];
    for &(r, core, _, g) in &flat.entries {
        for &u in g.iterations() {
            if u as usize >= n_units {
                return Proof::Fallback("schedule references out-of-range units".to_owned());
            }
            placed[u as usize] = (r, core);
        }
    }
    prove(dep.distances(), prefix, &prefixes, &placed)
}

/// The round of a unit no group places (the coverage check reports it).
const UNPLACED: usize = usize::MAX;

/// The race proof over `prefixes`, the units' `prefix`-long prefixes in
/// lexicographic order (one flat run), and their `(round, core)`
/// placements: for every unit `u` and every non-zero distance prefix `δ`,
/// the unit at `prefix(u) ± δ` must run on the same core or in another
/// round.
///
/// A translate of an ordered list is ordered, so each `δ` is one forward
/// merge of the units against their targets `prefix(u) + δ`. The conflict
/// reported is the first in `(unit, δ, sign)` order: a later pass stops at
/// the least unit found so far. Only `+δ` is probed: every `δ` is
/// lexicographically positive (a prefix of a dependence distance), so a
/// conflict at `prefix(u) − δ` is the pair that the lesser unit finds at
/// `+δ`, which comes first in that order.
fn prove(
    distances: &[Vec<i64>],
    prefix: usize,
    prefixes: &[i64],
    placed: &[(usize, usize)],
) -> Proof {
    let deltas: BTreeSet<&[i64]> = distances
        .iter()
        .map(|d| &d[..prefix])
        .filter(|d| d.iter().any(|&x| x != 0))
        .collect();
    let unit = |u: usize| &prefixes[u * prefix..(u + 1) * prefix];
    // `(u, v, δ)` of the first conflict so far.
    let mut first: Option<(usize, usize, &[i64])> = None;
    for &delta in &deltas {
        let (mut v, end) = (0, first.map_or(placed.len(), |(u, ..)| u));
        for (u, &(round, core)) in placed[..end].iter().enumerate() {
            if round == UNPLACED {
                continue;
            }
            let mut order = Ordering::Less;
            while v < placed.len() {
                order = cmp_shifted(unit(v), unit(u), delta);
                if order != Ordering::Less {
                    break;
                }
                v += 1;
            }
            if v == placed.len() {
                break; // later units' targets lie further still
            }
            let (r2, c2) = placed[v];
            if order == Ordering::Equal && r2 == round && c2 != core {
                first = Some((u, v, delta));
                break;
            }
        }
    }
    match first {
        Some((u, v, delta)) => {
            let ((round, core), (_, c2)) = (placed[u], placed[v]);
            Proof::Fallback(format!(
                "units {u} and {v} share round {round} on cores {core} and {c2} with \
                 dependence direction {delta:?}; resolving at element granularity"
            ))
        }
        None => Proof::Proven {
            distances: distances.len(),
            deltas: deltas.len(),
        },
    }
}

/// `p` against `q + d` in lexicographic order, computed exactly.
fn cmp_shifted(p: &[i64], q: &[i64], d: &[i64]) -> Ordering {
    let shifted = q
        .iter()
        .zip(d)
        .map(|(&x, &dx)| i128::from(x) + i128::from(dx));
    p.iter().map(|&x| i128::from(x)).cmp(shifted)
}

#[allow(clippy::too_many_arguments)]
pub(super) fn check(
    program: &Program,
    space: &IterationSpace,
    blocks: &BlockMap,
    flat: &FlatSchedule<'_>,
    nest: usize,
    symbolic: SymbolicRaces<'_>,
    diags: &mut Vec<Diagnostic>,
) {
    let attempt = match symbolic {
        SymbolicRaces::Off => None,
        SymbolicRaces::Unavailable { indirect_pairs } => {
            let refs = program.nest(space.nest()).refs();
            for &(i, j) in &indirect_pairs {
                let describe = |r: usize| {
                    refs.get(r).map_or_else(
                        || format!("reference {r}"),
                        |rf| format!("reference {r} (`{}`)", program.array(rf.array()).name()),
                    )
                };
                diags.push(
                    Diagnostic::new(
                        Code::UnprovableIndirectPair,
                        format!(
                            "no index-array fact screens the dependence between {} \
                             and {}; the pair was enumerated against the concrete \
                             index tables, so the race verdict holds for these \
                             tables only",
                            describe(i),
                            describe(j),
                        ),
                    )
                    .with_nest(nest),
                );
            }
            Some(Proof::Fallback(
                "symbolic dependence analysis unavailable (indirect or out-of-bounds \
                 subscripts, or resource limits exceeded)"
                    .to_owned(),
            ))
        }
        SymbolicRaces::From { dep, index_facts } => Some(match symbolic_proof(dep, space, flat) {
            Proof::Proven { distances, deltas } if index_facts => {
                Proof::ProvenIrregular { distances, deltas }
            }
            p => p,
        }),
    };
    if let Some(proof) = attempt {
        let proven = |code, distances: usize, deltas: usize, extra: &str| {
            Diagnostic::new(
                code,
                format!(
                    "race freedom proved symbolically{extra}: {distances} dependence \
                     distance(s), {deltas} cross-unit direction(s), none \
                     crossing cores within a round; element enumeration skipped"
                ),
            )
            .with_nest(nest)
        };
        match proof {
            Proof::Proven { distances, deltas } => {
                diags.push(proven(Code::SymbolicRaceProof, distances, deltas, ""));
                return;
            }
            Proof::ProvenIrregular { distances, deltas } => {
                diags.push(proven(
                    Code::IndexFactRaceProof,
                    distances,
                    deltas,
                    " from index-array facts",
                ));
                return;
            }
            Proof::Fallback(reason) => {
                diags.push(
                    Diagnostic::new(
                        Code::RaceCheckEnumerated,
                        format!("race check fell back to element enumeration: {reason}"),
                    )
                    .with_nest(nest),
                );
            }
        }
    }
    let n_units = space.n_units();
    let n_rounds = flat.entries.iter().map(|&(r, ..)| r + 1).max().unwrap_or(0);
    for round in 0..n_rounds {
        // element -> (first core seen, written anywhere so far).
        let mut seen: HashMap<(ArrayId, u64), (usize, bool)> = HashMap::new();
        // (array, block) pairs already reported this round.
        let mut reported: HashSet<(ArrayId, usize)> = HashSet::new();
        for (gid, &(r, core, _, g)) in flat.entries.iter().enumerate() {
            if r != round {
                continue;
            }
            for &u in g.iterations() {
                if u as usize >= n_units {
                    continue; // reported by the coverage check
                }
                for acc in space.unit_accesses(u as usize) {
                    let is_write = acc.kind == AccessKind::Write;
                    let entry = seen
                        .entry((acc.array, acc.element))
                        .or_insert((core, false));
                    let conflict = entry.0 != core && (entry.1 || is_write);
                    entry.1 |= is_write;
                    if conflict {
                        let block = blocks.block_of(acc.array, acc.element);
                        if reported.insert((acc.array, block)) {
                            diags.push(
                                Diagnostic::new(
                                    Code::RaceOnBlock,
                                    format!(
                                        "cores {} and {core} access element {} of \
                                         {} (data block {block}) in the same round \
                                         with a write and no barrier between them",
                                        entry.0,
                                        acc.element,
                                        program.array(acc.array).name(),
                                    ),
                                )
                                .with_nest(nest)
                                .with_group(gid)
                                .with_round(round)
                                .with_core(core),
                            );
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The race proof before the ordered merge: a map from unit prefixes to
    /// units, probed at `prefix(u) ± δ` for every unit, `δ` and sign.
    fn reference_prove(
        distances: &[Vec<i64>],
        prefix: usize,
        prefixes: &[i64],
        placed: &[(usize, usize)],
    ) -> Proof {
        if distances.is_empty() {
            return Proof::Proven {
                distances: 0,
                deltas: 0,
            };
        }
        let deltas: BTreeSet<Vec<i64>> = distances
            .iter()
            .map(|d| d[..prefix].to_vec())
            .filter(|d| d.iter().any(|&x| x != 0))
            .collect();
        if deltas.is_empty() {
            return Proof::Proven {
                distances: distances.len(),
                deltas: 0,
            };
        }
        let n_units = placed.len();
        let mut unit_at: HashMap<&[i64], usize> = HashMap::with_capacity(n_units);
        for u in 0..n_units {
            unit_at.insert(&prefixes[u * prefix..(u + 1) * prefix], u);
        }
        let placement: Vec<Option<(usize, usize)>> = placed
            .iter()
            .map(|&(r, c)| (r != UNPLACED).then_some((r, c)))
            .collect();
        let mut target = vec![0i64; prefix];
        for u in 0..n_units {
            let Some((round, core)) = placement[u] else {
                continue;
            };
            let p = &prefixes[u * prefix..(u + 1) * prefix];
            for delta in &deltas {
                for sign in [1i64, -1] {
                    for (t, (&pv, &dv)) in target.iter_mut().zip(p.iter().zip(delta)) {
                        *t = pv + sign * dv;
                    }
                    let Some(&v) = unit_at.get(target.as_slice()) else {
                        continue;
                    };
                    if let Some((r2, c2)) = placement[v] {
                        if r2 == round && c2 != core {
                            return Proof::Fallback(format!(
                                "units {u} and {v} share round {round} on cores {core} \
                                 and {c2} with dependence direction {delta:?}; resolving \
                                 at element granularity"
                            ));
                        }
                    }
                }
            }
        }
        Proof::Proven {
            distances: distances.len(),
            deltas: deltas.len(),
        }
    }

    /// The distinct `prefix`-long prefixes, in lexicographic order, of a
    /// `depth`-deep box of side `n` from `lo` (each coordinate at most the
    /// one before it when `triangular`).
    fn unit_prefixes(depth: usize, prefix: usize, lo: i64, n: i64, triangular: bool) -> Vec<i64> {
        let mut points: Vec<Vec<i64>> = vec![Vec::new()];
        for _ in 0..depth {
            let mut next = Vec::new();
            for p in points {
                let hi = match p.last() {
                    Some(&last) if triangular => last,
                    _ => lo + n - 1,
                };
                for x in lo..=hi {
                    let mut q = p.clone();
                    q.push(x);
                    next.push(q);
                }
            }
            points = next;
        }
        let mut prefixes: Vec<&[i64]> = points.iter().map(|p| &p[..prefix]).collect();
        prefixes.dedup();
        prefixes.concat()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The merge reports what the prefix map reports, on rectangular
        /// and triangular unit spaces 1–3 deep with random direction sets
        /// and placements that often leave units out and often share a
        /// round across cores.
        #[test]
        fn merge_matches_prefix_map_proof(
            depth in 1usize..4,
            prefix_pick in 0usize..3,
            lo in -3i64..3,
            n in 1i64..6,
            triangular in proptest::prop::bool::ANY,
            raw in proptest::collection::vec(-3i64..4, 1..19),
            mode in 0usize..4,
            picks in proptest::collection::vec(0usize..10, 1..60),
        ) {
            let prefix = 1 + prefix_pick % depth;
            let prefixes = unit_prefixes(depth, prefix, lo, n, triangular);
            // Lexicographically positive distances; the zero vector drops.
            let mut distances: Vec<Vec<i64>> = raw
                .chunks_exact(depth)
                .filter_map(|d| {
                    let lead = d.iter().find(|&&x| x != 0)?.signum();
                    Some(d.iter().map(|&x| x * lead).collect())
                })
                .collect();
            distances.sort();
            distances.dedup();
            let n_units = prefixes.len() / prefix;
            let placed: Vec<(usize, usize)> = (0..n_units)
                .map(|u| {
                    let pick = picks[u % picks.len()];
                    match (mode, pick) {
                        (_, 0) => (UNPLACED, 0),
                        // One core, or one round per unit: always race free.
                        (0, _) => (pick % 3, 0),
                        (1, _) => (u, pick % 3),
                        _ => (pick % 2, pick % 3),
                    }
                })
                .collect();
            proptest::prop_assert_eq!(
                prove(&distances, prefix, &prefixes, &placed),
                reference_prove(&distances, prefix, &prefixes, &placed)
            );
        }
    }

    #[test]
    fn the_first_conflict_is_the_least_unit_then_direction() {
        // Six units on one axis, unit 2 on core 1: direction [1] first
        // conflicts at unit 1, direction [2] at unit 0, which wins.
        let prefixes: Vec<i64> = (0..6).collect();
        let mut placed = vec![(0, 0); 6];
        placed[2] = (0, 1);
        let distances = vec![vec![1, 0], vec![2, -1]];
        let expected = "units 0 and 2 share round 0 on cores 0 and 1 with dependence \
                        direction [2]; resolving at element granularity";
        let fallback = Proof::Fallback(expected.to_owned());
        assert_eq!(prove(&distances, 1, &prefixes, &placed), fallback);
        // Another round, or no placement, for unit 2 proves race freedom.
        for unit_2 in [(1, 1), (UNPLACED, 0)] {
            placed[2] = unit_2;
            let proven = Proof::Proven {
                distances: 2,
                deltas: 2,
            };
            assert_eq!(prove(&distances, 1, &prefixes, &placed), proven);
        }
    }
}
