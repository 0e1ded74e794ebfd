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
//! costs `O(units × distinct prefixes)` instead of
//! `O(iterations × refs)` per round. Any potential cross-core hit — or an
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
    if dep.distances().is_empty() {
        return Proof::Proven {
            distances: 0,
            deltas: 0,
        };
    }
    let prefix = space.unit_prefix();
    let deltas: BTreeSet<Vec<i64>> = dep
        .distances()
        .iter()
        .map(|d| d[..prefix].to_vec())
        .filter(|d| d.iter().any(|&x| x != 0))
        .collect();
    if deltas.is_empty() {
        // Every dependence stays within a unit: units are atomic per core.
        return Proof::Proven {
            distances: dep.distances().len(),
            deltas: 0,
        };
    }
    let n_units = space.n_units();
    let mut unit_at: HashMap<&[i64], usize> = HashMap::with_capacity(n_units);
    for u in 0..n_units {
        unit_at.insert(&space.unit_point(u)[..prefix], u);
    }
    let mut placement: Vec<Option<(usize, usize)>> = vec![None; n_units];
    for &(r, core, _, g) in &flat.entries {
        for &u in g.iterations() {
            if u as usize >= n_units {
                return Proof::Fallback("schedule references out-of-range units".to_owned());
            }
            placement[u as usize] = Some((r, core));
        }
    }
    let mut target = vec![0i64; prefix];
    for u in 0..n_units {
        let Some((round, core)) = placement[u] else {
            continue; // unmapped: the coverage check reports it
        };
        let p = &space.unit_point(u)[..prefix];
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
        distances: dep.distances().len(),
        deltas: deltas.len(),
    }
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
