//! Dependence analysis: distance vectors, loop-carried dependence detection,
//! parallelism classification and outermost-parallel-loop selection.
//!
//! The engine resolves each same-array reference pair through a ladder of
//! tests, cheapest first, and only ever enumerates the iteration domain for
//! the pairs no symbolic test can see through:
//!
//! 1. read/read pairs never conflict — skipped;
//! 2. the classic *uniformly generated* test (equal linear parts, constant
//!    offset difference) pins the distance directly, with a symbolic
//!    realizability check against the concrete domain;
//! 3. GCD and Banerjee screens (`screen_pair`) prove many remaining pairs
//!    independent outright;
//! 4. conflict-set projection (`pair_distances`) extracts the exact
//!    distance set of any affine pair by Fourier–Motzkin projection with
//!    per-candidate integer rechecks — no domain enumeration;
//! 5. pairs involving indirect (index-array) subscripts run the `ctam-ia`
//!    screens over the table facts inferred by [`crate::indices`]:
//!    disjoint-range separation, injective same-table reduction to the
//!    affine selector problem, and band-widened conflict projection
//!    (`banded_candidates`);
//! 6. everything else — out-of-bounds affine references (whose accesses are
//!    clamped at evaluation time), indirect pairs the facts cannot
//!    separate, and pairs whose symbolic test exceeds its resource limits —
//!    falls back to a *pair-restricted* enumeration of the concrete domain,
//!    with the precise reason recorded per pair.
//!
//! The screens read the domain's bounding box, computed once per nest, and
//! both projection rungs list their candidates through one routine
//! (`distance_candidates`), capped at 2^16 per pair.
//!
//! [`analyze_nest`] runs the ladder and reports how every pair was settled
//! ([`NestAnalysis::enumeration_free`] tells whether any pair needed the
//! fallback; its `info` is the merged [`DependenceInfo`]);
//! [`analyze_exact`] remains as the classic whole-nest enumeration, the
//! reference the ladder is tested against.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use ctam_poly::{AffineExpr, AffineMap, Constraint, ConstraintKind, FmError, IntegerSet};

use crate::indices::IndexFacts;
use crate::nest::{AccessKind, NestId, Subscript};
use crate::program::Program;

/// Most candidate distances a projected distance polyhedron may hold before
/// its pair falls back to enumeration: weakly constrained subscripts (e.g. a
/// constant subscript over a large domain) produce domain-sized candidate
/// sets.
const MAX_CANDIDATES: usize = 1 << 16;

/// The dependence structure of one loop nest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependenceInfo {
    depth: usize,
    /// Distinct lexicographically-positive distance vectors
    /// (`sink iteration - source iteration`), sorted.
    distances: Vec<Vec<i64>>,
}

impl DependenceInfo {
    /// The nest depth the vectors are over.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The distance vectors, each lexicographically positive, sorted.
    pub fn distances(&self) -> &[Vec<i64>] {
        &self.distances
    }

    /// True if no iteration depends on another — "fully parallel" in the
    /// paper's Section 3.1 sense: any distribution of iterations is legal.
    pub fn is_fully_parallel(&self) -> bool {
        self.distances.is_empty()
    }

    /// Levels (0-based, outermost first) that carry at least one dependence:
    /// level `l` carries `d` when `d[0..l]` is all zeros and `d[l] > 0`.
    pub fn carried_levels(&self) -> BTreeSet<usize> {
        self.distances
            .iter()
            .filter_map(|d| d.iter().position(|&x| x != 0))
            .collect()
    }

    /// The outermost loop level with no carried dependence — the loop the
    /// paper's parallelism-extraction step (after Anderson) would choose to
    /// run in parallel. `None` if every level carries a dependence.
    pub fn outermost_parallel(&self) -> Option<usize> {
        let carried = self.carried_levels();
        (0..self.depth).find(|l| !carried.contains(l))
    }
}

/// Which rung of the ladder settled a reference pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PairMethod {
    /// Uniformly generated references: constant distance, checked for
    /// realizability against the concrete domain.
    Uniform,
    /// A GCD or Banerjee screen proved the pair independent.
    Screened,
    /// Conflict-set projection (Fourier–Motzkin plus integer rechecks).
    Symbolic,
    /// Indirect pair separated by disjoint index-fact value ranges.
    IndexRange,
    /// Same-table indirect pair with an injective table, reduced to the
    /// affine selector-equality problem.
    IndexInjective,
    /// Indirect pair whose band-widened affine conflict set admits no
    /// non-zero distance.
    IndexBanded,
    /// Pair-restricted enumeration of the concrete domain.
    Enumerated,
}

impl PairMethod {
    /// Short human-readable label.
    pub fn name(&self) -> &'static str {
        match self {
            PairMethod::Uniform => "uniform",
            PairMethod::Screened => "screened",
            PairMethod::Symbolic => "symbolic",
            PairMethod::IndexRange => "index-range",
            PairMethod::IndexInjective => "index-injective",
            PairMethod::IndexBanded => "index-banded",
            PairMethod::Enumerated => "enumerated",
        }
    }

    /// True for the `ctam-ia` rungs that rest on index-table facts.
    pub fn uses_index_facts(&self) -> bool {
        matches!(
            self,
            PairMethod::IndexRange | PairMethod::IndexInjective | PairMethod::IndexBanded
        )
    }
}

/// Per-pair outcome of [`analyze_nest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairSummary {
    /// Body index of the first reference of the pair.
    pub ref_a: usize,
    /// Body index of the second reference (`>= ref_a`; equal for a write's
    /// self-pair).
    pub ref_b: usize,
    /// The ladder rung that settled the pair.
    pub method: PairMethod,
    /// The pair's distance vectors, lexicographically positive, sorted.
    pub distances: Vec<Vec<i64>>,
    /// Why this rung (e.g. the screen that fired, or the reason for the
    /// enumeration fallback).
    pub detail: String,
    /// For projection-settled pairs: every lexicographically-normalized
    /// non-zero candidate of the projected distance polyhedron (the set
    /// `distances` was selected from). Empty for other rungs.
    pub candidates: Vec<Vec<i64>>,
    /// One `(distance, iteration)` realizability witness per distance, for
    /// rungs that can produce one (uniform and projection-settled pairs):
    /// the iteration and its shift by the distance both lie in the domain
    /// and touch the same element.
    pub witnesses: Vec<(Vec<i64>, Vec<i64>)>,
}

/// Full result of the hybrid dependence engine: the merged
/// [`DependenceInfo`] plus how every pair was settled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NestAnalysis {
    /// The merged dependence structure of the nest.
    pub info: DependenceInfo,
    /// One entry per same-array pair with at least one write, in body order.
    pub pairs: Vec<PairSummary>,
}

impl NestAnalysis {
    /// True if no pair needed domain enumeration — the distance set was
    /// obtained purely symbolically.
    pub fn enumeration_free(&self) -> bool {
        self.pairs
            .iter()
            .all(|p| p.method != PairMethod::Enumerated)
    }

    /// Classifies the nest's loop levels from the per-pair distances.
    pub fn classify(&self) -> ParallelismReport {
        let depth = self.info.depth;
        let mut carriers: BTreeMap<usize, LevelCarriers> = BTreeMap::new();
        for p in &self.pairs {
            for d in &p.distances {
                let Some(level) = d.iter().position(|&x| x != 0) else {
                    continue;
                };
                let entry = carriers.entry(level).or_insert_with(|| LevelCarriers {
                    level,
                    pairs: Vec::new(),
                    example: d.clone(),
                });
                if !entry.pairs.contains(&(p.ref_a, p.ref_b)) {
                    entry.pairs.push((p.ref_a, p.ref_b));
                }
                if *d < entry.example {
                    entry.example = d.clone();
                }
            }
        }
        let doall = (0..depth).filter(|l| !carriers.contains_key(l)).collect();
        ParallelismReport {
            depth,
            doall,
            carried: carriers.into_values().collect(),
            outermost_parallel: self.info.outermost_parallel(),
        }
    }
}

/// What blocks parallelism at one loop level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelCarriers {
    /// The carried level (0-based, outermost first).
    pub level: usize,
    /// Reference pairs (body indices) contributing a distance carried here.
    pub pairs: Vec<(usize, usize)>,
    /// Lexicographically smallest distance carried at this level.
    pub example: Vec<i64>,
}

/// Per-nest parallelism classification: which levels are DOALL, which carry
/// dependences, and which reference pairs block parallelism where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelismReport {
    /// Nest depth.
    pub depth: usize,
    /// Levels carrying no dependence (parallelizable as-is).
    pub doall: Vec<usize>,
    /// Carried levels, outermost first, with the blocking pairs.
    pub carried: Vec<LevelCarriers>,
    /// The level the mapper parallelizes (outermost DOALL), if any.
    pub outermost_parallel: Option<usize>,
}

impl fmt::Display for ParallelismReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "depth {}", self.depth)?;
        if self.carried.is_empty() {
            write!(f, ": fully parallel (DOALL at every level)")?;
        } else {
            write!(f, ": DOALL levels {:?}", self.doall)?;
            for c in &self.carried {
                write!(
                    f,
                    "; level {} carried by pairs {:?} (e.g. distance {:?})",
                    c.level, c.pairs, c.example
                )?;
            }
        }
        match self.outermost_parallel {
            Some(l) => write!(f, "; parallelized at level {l}")?,
            None => write!(f, "; no parallel level")?,
        }
        Ok(())
    }
}

/// Returns the lexicographically positive version of `d`, or `None` if `d`
/// is all zeros (an intra-iteration "dependence", which is not loop-carried).
fn lex_positive(mut d: Vec<i64>) -> Option<Vec<i64>> {
    match d.iter().find(|&&x| x != 0) {
        None => None,
        Some(&first) => {
            if first < 0 {
                for x in &mut d {
                    *x = -*x;
                }
            }
            Some(d)
        }
    }
}

/// Outcome of the uniformly-generated pair test.
enum Uniform {
    /// Not uniformly generated (or rows the test cannot handle).
    NotApplicable,
    /// Constant subscript rows differ: the pair can never conflict.
    Inconsistent,
    /// The rows do not pin every loop variable.
    UnderConstrained,
    /// The single possible distance `I_a - I_b`.
    Delta(Vec<i64>),
}

/// The classic test for uniformly generated references: equal linear parts,
/// every row a constant or a single-variable `±1` row, rows collectively
/// pinning every variable.
fn uniform_delta(ma: &AffineMap, mb: &AffineMap, depth: usize) -> Uniform {
    if ma.n_out() != mb.n_out() {
        return Uniform::NotApplicable;
    }
    let uniform = ma
        .exprs()
        .iter()
        .zip(mb.exprs())
        .all(|(ea, eb)| ea.coeffs() == eb.coeffs());
    if !uniform {
        return Uniform::NotApplicable;
    }
    let mut delta = vec![None; depth]; // I_a - I_b per variable
    for (ea, eb) in ma.exprs().iter().zip(mb.exprs()) {
        let nz: Vec<usize> = (0..depth).filter(|&v| ea.coeff(v) != 0).collect();
        match nz.as_slice() {
            [] => {
                if ea.constant_term() != eb.constant_term() {
                    return Uniform::Inconsistent;
                }
            }
            [v] if ea.coeff(*v).abs() == 1 => {
                // c*(Ia[v] - Ib[v]) = offB - offA
                let rhs = eb.constant_term() - ea.constant_term();
                let val = rhs * ea.coeff(*v); // c is +/-1 so this divides
                match delta[*v] {
                    None => delta[*v] = Some(val),
                    Some(prev) if prev == val => {}
                    Some(_) => return Uniform::Inconsistent,
                }
            }
            _ => return Uniform::NotApplicable, // coupled or scaled row
        }
    }
    if delta.iter().any(Option::is_none) {
        return Uniform::UnderConstrained;
    }
    Uniform::Delta(delta.into_iter().map(|x| x.expect("checked")).collect())
}

/// A constraint of `c`'s kind over `e`.
fn same_kind(c: &Constraint, e: AffineExpr) -> Constraint {
    match c.kind() {
        ConstraintKind::Ge => Constraint::ge(e),
        ConstraintKind::Eq => Constraint::eq(e),
    }
}

/// `e(I + shift)`: the shift folds into the constant term.
fn shifted(e: &AffineExpr, shift: &[i64]) -> AffineExpr {
    let mut constant = e.constant_term();
    for (v, &dv) in shift.iter().enumerate() {
        constant += e.coeff(v) * dv;
    }
    AffineExpr::new(e.coeffs().to_vec(), constant)
}

/// The iterations `I` with `I` and `I + shift` both in the domain and
/// `ea(I) = eb(I + shift)` for every row pair `(ea, eb)`.
fn shifted_slice<'a>(
    dom: &IntegerSet,
    shift: &[i64],
    rows: impl IntoIterator<Item = (&'a AffineExpr, &'a AffineExpr)>,
) -> IntegerSet {
    let mut set = dom.clone();
    for c in dom.constraints() {
        set = set.with_constraint(same_kind(c, shifted(c.expr(), shift)));
    }
    for (ea, eb) in rows {
        set = set.with_constraint(Constraint::eq(ea.clone() - shifted(eb, shift)));
    }
    set
}

/// Range of an affine expression over a bounding box, corner-selected per
/// coefficient sign, in `i128` (so composed flat-element expressions cannot
/// overflow the screens); `None` if even that overflows.
pub(crate) fn expr_range(e: &AffineExpr, bbox: &[(i64, i64)]) -> Option<(i128, i128)> {
    let mut lo = i128::from(e.constant_term());
    let mut hi = lo;
    for (v, &(blo, bhi)) in bbox.iter().enumerate() {
        let c = i128::from(e.coeff(v));
        let (at_lo, at_hi) = if c < 0 { (bhi, blo) } else { (blo, bhi) };
        lo = lo.checked_add(c * i128::from(at_lo))?;
        hi = hi.checked_add(c * i128::from(at_hi))?;
    }
    Some((lo, hi))
}

/// Flat-element expression of a multi-dimensional affine subscript
/// (row-major composition with the array's strides). Only called for
/// in-bounds references, so the composition is the element
/// [`Program::nest_accesses`] computes.
fn flat_expr(dims: &[u64], m: &AffineMap) -> AffineExpr {
    let mut out = AffineExpr::zero(m.n_in());
    let mut stride = 1i64;
    for (row, e) in m.exprs().iter().enumerate().rev() {
        out = out + e.clone() * stride;
        stride = stride.saturating_mul(dims[row] as i64);
    }
    out
}

/// How one reference enters the symbolic ladder.
enum RefModel<'a> {
    /// An affine subscript, rank-checked and in-bounds over the domain box.
    Affine(&'a AffineMap),
    /// An indirect subscript whose selector never wraps and whose table
    /// values stay inside the array (so the modular evaluation semantics of
    /// [`Program::nest_accesses`] coincide with plain indexing).
    Indirect {
        selector: &'a AffineExpr,
        table: &'a Arc<[u64]>,
        facts: IndexFacts,
    },
}

/// Classifies a reference for the ladder, or explains why it cannot be
/// modelled symbolically (the per-pair skip reason).
fn model_ref<'a>(
    program: &Program,
    r: &'a crate::nest::ArrayRef,
    bbox: &[(i64, i64)],
    facts_cache: &mut HashMap<usize, IndexFacts>,
) -> Result<RefModel<'a>, String> {
    let decl = program.array(r.array());
    let name = decl.name();
    match r.subscript() {
        Subscript::Affine(m) => {
            if m.n_out() != decl.dims().len() {
                return Err(format!("rank-mismatched subscript on `{name}`"));
            }
            for (e, &extent) in m.exprs().iter().zip(decl.dims()) {
                let in_bounds =
                    expr_range(e, bbox).is_some_and(|(lo, hi)| lo >= 0 && hi < i128::from(extent));
                if !in_bounds {
                    return Err(format!(
                        "out-of-bounds affine subscript on `{name}` (accesses are clamped)"
                    ));
                }
            }
            Ok(RefModel::Affine(m))
        }
        Subscript::Indirect { selector, table } => {
            if table.is_empty() {
                return Err(format!("empty index table on `{name}`"));
            }
            let in_table = expr_range(selector, bbox)
                .is_some_and(|(lo, hi)| lo >= 0 && hi < table.len() as i128);
            if !in_table {
                return Err(format!(
                    "indirect selector on `{name}` wraps modulo the table length"
                ));
            }
            let facts = facts_cache
                .entry(table.as_ptr() as usize)
                .or_insert_with(|| IndexFacts::from_table(table))
                .clone();
            let n_elements: u64 = decl.dims().iter().product();
            let (_, hi) = facts.range().expect("a non-empty table has a value range");
            if hi >= n_elements {
                return Err(format!(
                    "index table entries for `{name}` wrap modulo the array extent"
                ));
            }
            Ok(RefModel::Indirect {
                selector,
                table,
                facts,
            })
        }
    }
}

impl RefModel<'_> {
    /// Over-approximate flat-element value range over the domain box.
    fn element_range(&self, dims: &[u64], bbox: &[(i64, i64)]) -> Option<(i128, i128)> {
        match self {
            RefModel::Affine(m) => expr_range(&flat_expr(dims, m), bbox),
            RefModel::Indirect { facts, .. } => {
                let (lo, hi) = facts.range().expect("model_ref checked the range");
                Some((i128::from(lo), i128::from(hi)))
            }
        }
    }

    /// `(expr, band)` such that the reference's flat element is within
    /// `band` of `expr(I)` for every iteration — the banded-screen side.
    fn band_term(&self, dims: &[u64]) -> (AffineExpr, u64) {
        match self {
            RefModel::Affine(m) => (flat_expr(dims, m), 0),
            RefModel::Indirect {
                selector, facts, ..
            } => (
                (*selector).clone(),
                facts.band().expect("scanned facts carry a band"),
            ),
        }
    }
}

/// Which screen proved a reference pair independent; its `Debug` text is
/// the pair's detail.
#[derive(Debug)]
#[allow(dead_code)] // `row` is read only through the derived `Debug` text
enum Independence {
    /// The GCD row test: the gcd of subscript-row coefficients does not
    /// divide the constant gap (e.g. `A[2i]` vs `A[2j+1]`).
    Gcd { row: usize },
    /// The Banerjee bounds test: the two subscript-row ranges over the
    /// domain's bounding box do not intersect.
    Bounds { row: usize },
}

/// Why a projection rung could not complete; its text is the fallback
/// reason.
enum DependenceError {
    /// The Fourier–Motzkin projection overflowed or exceeded its cap.
    Fm(FmError),
    /// The projected distance polyhedron holds more than [`MAX_CANDIDATES`]
    /// candidates.
    TooManyCandidates,
}

impl fmt::Display for DependenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DependenceError::Fm(e) => write!(f, "projection failed: {e}"),
            DependenceError::TooManyCandidates => {
                write!(f, "more than {MAX_CANDIDATES} candidate distances")
            }
        }
    }
}

impl From<FmError> for DependenceError {
    fn from(e: FmError) -> Self {
        DependenceError::Fm(e)
    }
}

/// Outcome of the exact rung for an affine pair.
#[derive(Default)]
struct PairDependence {
    /// Exact distances, lexicographically positive and sorted; empty means
    /// independent.
    distances: Vec<Vec<i64>>,
    /// Set when a screen proved independence before any projection ran.
    screened: Option<Independence>,
    /// Every candidate of the projected distance polyhedron.
    candidates: Vec<Vec<i64>>,
    /// One `(distance, iteration)` witness per distance.
    witnesses: Vec<(Vec<i64>, Vec<i64>)>,
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The GCD and Banerjee screens on every subscript row of the pair. `Some`
/// proves the references never touch the same element for any two
/// iterations in the domain box (equal ones included); `None` means the
/// screens are inconclusive, not that a dependence exists.
fn screen_pair(bbox: &[(i64, i64)], a: &AffineMap, b: &AffineMap) -> Option<Independence> {
    for (row, (ea, eb)) in a.exprs().iter().zip(b.exprs()).enumerate() {
        // Solve ea(I) = eb(I'): the gcd of the variable part must divide
        // the gap.
        let g = ea
            .coeffs()
            .iter()
            .chain(eb.coeffs())
            .fold(0, |g, &c| gcd(g, c));
        let gap = eb.constant_term() - ea.constant_term();
        let divides = if g == 0 {
            gap == 0
        } else {
            gap.rem_euclid(g) == 0
        };
        if !divides {
            return Some(Independence::Gcd { row });
        }
        if let (Some((alo, ahi)), Some((blo, bhi))) = (expr_range(ea, bbox), expr_range(eb, bbox)) {
            if ahi < blo || bhi < alo {
                return Some(Independence::Bounds { row });
            }
        }
    }
    None
}

/// The row `ea(I) - eb(I + D)` over the `(D, I)` space.
fn gap_row(ea: &AffineExpr, eb: &AffineExpr, d: usize) -> AffineExpr {
    let mut coeffs = vec![0; 2 * d];
    for v in 0..d {
        coeffs[v] = -eb.coeff(v);
        coeffs[d + v] = ea.coeff(v) - eb.coeff(v);
    }
    AffineExpr::new(coeffs, ea.constant_term() - eb.constant_term())
}

/// The conflict system over `(D, I)` (`D` at dimensions `0..d`, `I` at
/// `d..2d`): `I` and `I + D` in the domain, plus the `rows` relating the
/// two references.
fn conflict_system(dom: &IntegerSet, rows: impl IntoIterator<Item = Constraint>) -> IntegerSet {
    let d = dom.dim();
    let mut set = IntegerSet::universe(2 * d);
    for c in dom.constraints() {
        let e = c.expr();
        let mut at_i = vec![0; 2 * d];
        at_i[d..].copy_from_slice(e.coeffs());
        let mut at_shift = at_i.clone();
        at_shift[..d].copy_from_slice(e.coeffs());
        for at in [at_i, at_shift] {
            set = set.with_constraint(same_kind(c, AffineExpr::new(at, e.constant_term())));
        }
    }
    rows.into_iter().fold(set, IntegerSet::with_constraint)
}

/// Projects a conflict system onto its distance block `D` and lists the
/// block's lexicographically-normalized non-zero integer points, sorted:
/// the candidate distances. The projection is rational, so candidates may
/// be unrealized; the exact rung rechecks them against the returned
/// distance polyhedron's slices.
fn distance_candidates(
    conflict: &IntegerSet,
    d: usize,
) -> Result<(IntegerSet, Vec<Vec<i64>>), DependenceError> {
    let dset = conflict.project(d)?;
    // `None`: rationally empty (a bounded domain always bounds D). The box
    // also bounds the point count, so the scan below stays under the cap.
    let Some(bbox) = dset.bounding_box()? else {
        return Ok((dset, Vec::new()));
    };
    let volume: u128 = bbox
        .iter()
        .map(|&(lo, hi)| (hi - lo + 1).max(0) as u128)
        .product();
    if volume > MAX_CANDIDATES as u128 {
        return Err(DependenceError::TooManyCandidates);
    }
    if d > 1 {
        // The scan reruns the eliminations of projecting onto dimension 0;
        // hold them to the projection's cap, like the projection itself.
        dset.project(1)?;
    }
    let candidates: BTreeSet<Vec<i64>> = dset.iter().filter_map(lex_positive).collect();
    Ok((dset, candidates.into_iter().collect()))
}

/// The exact rung for two affine references: the screens, then the
/// conflict-set projection, keeping each candidate realized by an integer
/// iteration pair with the first realizing iteration as its witness.
fn pair_distances(
    dom: &IntegerSet,
    bbox: &[(i64, i64)],
    a: &AffineMap,
    b: &AffineMap,
) -> Result<PairDependence, DependenceError> {
    if let Some(why) = screen_pair(bbox, a, b) {
        return Ok(PairDependence {
            screened: Some(why),
            ..PairDependence::default()
        });
    }
    let d = dom.dim();
    let rows = a.exprs().iter().zip(b.exprs());
    let gaps = rows
        .clone()
        .map(|(ea, eb)| Constraint::eq(gap_row(ea, eb, d)));
    let conflict = conflict_system(dom, gaps);
    let (dset, candidates) = distance_candidates(&conflict, d)?;
    let mut out = PairDependence::default();
    for norm in &candidates {
        // A conflict between `I` and `I'` yields both `I' - I` and its
        // mirror, which comes first in lexicographic order. The witness is
        // stored in the normalized orientation (`I + D` when the mirror
        // realized it), so it satisfies `b(W + D) = a(W)` or
        // `a(W + D) = b(W)`.
        let mirror: Vec<i64> = norm.iter().map(|&x| -x).collect();
        let witness = [(&mirror, true), (norm, false)]
            .into_iter()
            .filter(|(raw, _)| dset.contains(raw))
            .find_map(|(raw, flipped)| {
                let point = shifted_slice(dom, raw, rows.clone()).iter().next()?;
                Some(if flipped {
                    point.iter().zip(raw).map(|(x, dx)| x + dx).collect()
                } else {
                    point
                })
            });
        if let Some(w) = witness {
            out.distances.push(norm.clone());
            out.witnesses.push((norm.clone(), w));
        }
    }
    out.candidates = candidates;
    Ok(out)
}

/// Candidate distances of a band-widened conflict between two scalar index
/// expressions: the non-zero `D` with `I` and `I + D` in the domain and
/// `|a(I) − b(I + D)| ≤ slack`, lexicographically normalized and sorted.
///
/// When two references only satisfy `|flat(I) − a(I)| ≤ b_a` (an index
/// table within band `b_a` of its selector `a`), any conflict forces the
/// selectors within `b_a + b_b` of each other. The widened system has no
/// equality rows to recheck, so the result over-approximates: empty proves
/// independence, and a non-empty list only names distances the concrete
/// tables might realize.
fn banded_candidates(
    dom: &IntegerSet,
    a: &AffineExpr,
    b: &AffineExpr,
    slack: i64,
) -> Result<Vec<Vec<i64>>, DependenceError> {
    let d = dom.dim();
    let gap = gap_row(a, b, d);
    let slack = AffineExpr::constant(2 * d, slack);
    let band = [gap.clone() + slack.clone(), slack - gap].map(Constraint::ge);
    Ok(distance_candidates(&conflict_system(dom, band), d)?.1)
}

/// Runs the `ctam-ia` screens on a pair with at least one indirect side.
/// `Ok` is a settled summary; `Err` is the reason the pair falls back to
/// enumeration.
fn indirect_pair(
    dom: &IntegerSet,
    bbox: &[(i64, i64)],
    dims: &[u64],
    (i, j): (usize, usize),
    a: &RefModel<'_>,
    b: &RefModel<'_>,
) -> Result<PairSummary, String> {
    // Screen 1: disjoint element ranges can never touch the same element.
    if let (Some((alo, ahi)), Some((blo, bhi))) =
        (a.element_range(dims, bbox), b.element_range(dims, bbox))
    {
        if ahi < blo || bhi < alo {
            return Ok(PairSummary {
                ref_a: i,
                ref_b: j,
                method: PairMethod::IndexRange,
                distances: Vec::new(),
                detail: format!("element ranges [{alo}, {ahi}] and [{blo}, {bhi}] are disjoint"),
                candidates: Vec::new(),
                witnesses: Vec::new(),
            });
        }
    }

    // Screen 2: same injective table on both sides — elements collide
    // exactly when the selectors do, which is an affine problem.
    if let (
        RefModel::Indirect {
            selector: sa,
            table: ta,
            facts,
        },
        RefModel::Indirect {
            selector: sb,
            table: tb,
            ..
        },
    ) = (a, b)
    {
        let same_table = Arc::ptr_eq(ta, tb) || ta == tb;
        if same_table && facts.injective() {
            let ma = AffineMap::new(dom.dim(), vec![(*sa).clone()]);
            let mb = AffineMap::new(dom.dim(), vec![(*sb).clone()]);
            if let Ok(pd) = pair_distances(dom, bbox, &ma, &mb) {
                let detail = match pd.screened {
                    Some(screen) => {
                        format!("injective table: selector equality screened ({screen:?})")
                    }
                    None => "injective table: reduced to selector-equality projection".to_owned(),
                };
                return Ok(PairSummary {
                    ref_a: i,
                    ref_b: j,
                    method: PairMethod::IndexInjective,
                    distances: pd.distances,
                    detail,
                    candidates: pd.candidates,
                    witnesses: pd.witnesses,
                });
            }
        }
    }

    // Screen 3: widen each side to its band around an affine expression and
    // project the widened conflict set. Empty means independent; non-empty
    // candidates would need the concrete tables, so enumeration resolves
    // them exactly.
    let ((ea, ba), (eb, bb)) = (a.band_term(dims), b.band_term(dims));
    let slack = i64::try_from(u128::from(ba) + u128::from(bb)).unwrap_or(i64::MAX);
    match banded_candidates(dom, &ea, &eb, slack) {
        Ok(cands) if cands.is_empty() => Ok(PairSummary {
            ref_a: i,
            ref_b: j,
            method: PairMethod::IndexBanded,
            distances: Vec::new(),
            detail: format!("band-widened conflict set (slack {slack}) admits no distance"),
            candidates: Vec::new(),
            witnesses: Vec::new(),
        }),
        Ok(cands) => Err(format!(
            "{} band-widened candidate distance(s) need the concrete tables",
            cands.len()
        )),
        Err(e) => Err(format!("band-widened projection failed: {e}")),
    }
}

/// Hybrid per-pair dependence analysis: symbolic wherever possible,
/// pair-restricted enumeration only where not. The result is always exact
/// for the concrete domain.
pub fn analyze_nest(program: &Program, nest: NestId) -> NestAnalysis {
    let n = program.nest(nest);
    let depth = n.depth();
    let dom = n.domain();
    let bbox = match dom.bounding_box() {
        Ok(Some(bb)) => Ok(bb),
        Ok(None) => Err("empty or unbounded iteration domain".to_owned()),
        Err(e) => Err(format!("iteration domain cannot be bounded: {e}")),
    };
    let mut facts_cache: HashMap<usize, IndexFacts> = HashMap::new();

    let mut pairs: Vec<PairSummary> = Vec::new();
    // (ref_a, ref_b, why) for pairs needing the enumeration fallback.
    let mut pending: Vec<(usize, usize, String)> = Vec::new();
    for (i, a) in n.refs().iter().enumerate() {
        for (j, b) in n.refs().iter().enumerate().skip(i) {
            if a.array() != b.array() {
                continue;
            }
            if a.kind() == AccessKind::Read && b.kind() == AccessKind::Read {
                continue;
            }
            let bb = match &bbox {
                Ok(bb) => bb,
                Err(why) => {
                    pending.push((i, j, why.clone()));
                    continue;
                }
            };
            let model_a = model_ref(program, a, bb, &mut facts_cache);
            let model_b = model_ref(program, b, bb, &mut facts_cache);
            let (model_a, model_b) = match (model_a, model_b) {
                (Ok(x), Ok(y)) => (x, y),
                (ra, rb) => {
                    let mut reasons: Vec<String> = Vec::new();
                    for r in [ra, rb] {
                        if let Err(e) = r {
                            if !reasons.contains(&e) {
                                reasons.push(e);
                            }
                        }
                    }
                    pending.push((i, j, reasons.join("; ")));
                    continue;
                }
            };
            let (ma, mb) = match (&model_a, &model_b) {
                (RefModel::Affine(ma), RefModel::Affine(mb)) => (*ma, *mb),
                _ => {
                    let dims = program.array(a.array()).dims();
                    match indirect_pair(dom, bb, dims, (i, j), &model_a, &model_b) {
                        Ok(summary) => pairs.push(summary),
                        Err(why) => pending.push((i, j, why)),
                    }
                    continue;
                }
            };
            match uniform_delta(ma, mb, depth) {
                Uniform::Inconsistent => {
                    pairs.push(PairSummary {
                        ref_a: i,
                        ref_b: j,
                        method: PairMethod::Uniform,
                        distances: Vec::new(),
                        detail: "uniform references with mismatched constant rows".to_owned(),
                        candidates: Vec::new(),
                        witnesses: Vec::new(),
                    });
                    continue;
                }
                Uniform::Delta(d) => {
                    let mut distances = Vec::new();
                    let mut witnesses = Vec::new();
                    if let Some(d) = lex_positive(d) {
                        // The constant distance must be realized by some
                        // iteration pair of the concrete domain; the first
                        // realizing iteration doubles as the witness.
                        if let Some(w) = shifted_slice(dom, &d, []).iter().next() {
                            witnesses.push((d.clone(), w));
                            distances.push(d);
                        }
                    }
                    pairs.push(PairSummary {
                        ref_a: i,
                        ref_b: j,
                        method: PairMethod::Uniform,
                        candidates: distances.clone(),
                        distances,
                        detail: "uniformly generated references".to_owned(),
                        witnesses,
                    });
                    continue;
                }
                Uniform::NotApplicable | Uniform::UnderConstrained => {}
            }
            match pair_distances(dom, bb, ma, mb) {
                Ok(pd) => {
                    let (method, detail) = match pd.screened {
                        Some(why) => (PairMethod::Screened, format!("{why:?}")),
                        None => (PairMethod::Symbolic, "conflict-set projection".to_owned()),
                    };
                    pairs.push(PairSummary {
                        ref_a: i,
                        ref_b: j,
                        method,
                        distances: pd.distances,
                        detail,
                        candidates: pd.candidates,
                        witnesses: pd.witnesses,
                    });
                }
                Err(e) => pending.push((i, j, e.to_string())),
            }
        }
    }

    if !pending.is_empty() {
        enumerate_pairs(program, nest, &pending, &mut pairs);
    }
    pairs.sort_by_key(|p| (p.ref_a, p.ref_b));

    let mut distances: BTreeSet<Vec<i64>> = BTreeSet::new();
    for p in &pairs {
        for d in &p.distances {
            distances.insert(d.clone());
        }
    }
    NestAnalysis {
        info: DependenceInfo {
            depth,
            distances: distances.into_iter().collect(),
        },
        pairs,
    }
}

/// Enumerates the concrete domain once, recording distances only for the
/// `pending` pairs (body-index pairs the symbolic ladder could not settle).
fn enumerate_pairs(
    program: &Program,
    nest: NestId,
    pending: &[(usize, usize, String)],
    pairs: &mut Vec<PairSummary>,
) {
    let n = program.nest(nest);
    let wanted: BTreeSet<(usize, usize)> = pending.iter().map(|&(a, b, _)| (a, b)).collect();
    let involved: BTreeSet<usize> = wanted.iter().flat_map(|&(a, b)| [a, b]).collect();
    let iterations = n.iterations();
    // element (array, flat) -> list of (iteration index, ref index)
    let mut touched: HashMap<(usize, u64), Vec<(usize, usize)>> = HashMap::new();
    for (it_idx, point) in iterations.iter().enumerate() {
        for (ref_idx, acc) in program.nest_accesses(nest, point).enumerate() {
            if involved.contains(&ref_idx) {
                touched
                    .entry((acc.array.index(), acc.element))
                    .or_default()
                    .push((it_idx, ref_idx));
            }
        }
    }
    let mut per_pair: BTreeMap<(usize, usize), BTreeSet<Vec<i64>>> =
        wanted.iter().map(|&k| (k, BTreeSet::new())).collect();
    for users in touched.values() {
        for (i, &(ia, ra)) in users.iter().enumerate() {
            for &(ib, rb) in &users[i..] {
                if ia == ib {
                    continue;
                }
                let key = (ra.min(rb), ra.max(rb));
                let Some(set) = per_pair.get_mut(&key) else {
                    continue; // e.g. a read/read combination of involved refs
                };
                let d: Vec<i64> = iterations[ib]
                    .iter()
                    .zip(&iterations[ia])
                    .map(|(x, y)| x - y)
                    .collect();
                if let Some(d) = lex_positive(d) {
                    set.insert(d);
                }
            }
        }
    }
    for &(a, b, ref why) in pending {
        let distances = per_pair
            .remove(&(a, b))
            .map(|s| s.into_iter().collect())
            .unwrap_or_default();
        pairs.push(PairSummary {
            ref_a: a,
            ref_b: b,
            method: PairMethod::Enumerated,
            distances,
            detail: format!("enumerated: {why}"),
            candidates: Vec::new(),
            witnesses: Vec::new(),
        });
    }
}

/// Exact dependence analysis by enumerating the concrete iteration domain:
/// collects, for every element, the iterations that touch it, and records
/// the distinct source→sink distance vectors among pairs where at least one
/// side writes.
///
/// Precise (it sees through indirect subscripts) but costs
/// `O(iterations × refs)` time and memory plus quadratic work per shared
/// element; intended for moderate domain sizes and as the reference
/// implementation the symbolic engine is tested against.
pub fn analyze_exact(program: &Program, nest: NestId) -> DependenceInfo {
    let n = program.nest(nest);
    let depth = n.depth();
    // element (array, flat) -> list of (iteration index, writes?)
    let iterations = n.iterations();
    let mut touched: HashMap<(usize, u64), Vec<(usize, bool)>> = HashMap::new();
    for (it_idx, point) in iterations.iter().enumerate() {
        for acc in program.nest_accesses(nest, point) {
            let writes = acc.kind == AccessKind::Write;
            touched
                .entry((acc.array.index(), acc.element))
                .or_default()
                .push((it_idx, writes));
        }
    }
    let mut distances: BTreeSet<Vec<i64>> = BTreeSet::new();
    for users in touched.values() {
        for (i, &(ia, wa)) in users.iter().enumerate() {
            for &(ib, wb) in &users[i + 1..] {
                if !(wa || wb) || ia == ib {
                    continue;
                }
                let d: Vec<i64> = iterations[ib]
                    .iter()
                    .zip(&iterations[ia])
                    .map(|(x, y)| x - y)
                    .collect();
                if let Some(d) = lex_positive(d) {
                    distances.insert(d);
                }
            }
        }
    }
    DependenceInfo {
        depth,
        distances: distances.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nest::{ArrayRef, LoopNest};
    use ctam_poly::{AffineExpr, AffineMap, IntegerSet};

    /// Figure 5 of the paper: `B[j] = B[j] + B[j+2k] + B[j-2k]` with k = 2.
    fn fig5() -> (Program, NestId) {
        let k = 2i64;
        let mut p = Program::new("fig5");
        let b = p.add_array("B", &[48], 8);
        let d = IntegerSet::builder(1)
            .names(["j"])
            .bounds(0, 2 * k, 48 - 2 * k - 1)
            .build();
        let sub = |off: i64| {
            AffineMap::new(
                1,
                vec![AffineExpr::var(1, 0) + AffineExpr::constant(1, off)],
            )
        };
        let nest = LoopNest::new("fig5", d)
            .with_ref(ArrayRef::write(b, sub(0)))
            .with_ref(ArrayRef::read(b, sub(0)))
            .with_ref(ArrayRef::read(b, sub(2 * k)))
            .with_ref(ArrayRef::read(b, sub(-2 * k)));
        let id = p.add_nest(nest);
        (p, id)
    }

    #[test]
    fn fig5_symbolic_matches_exact_without_enumeration() {
        let (p, id) = fig5();
        let a = analyze_nest(&p, id);
        assert!(a.enumeration_free());
        assert_eq!(a.info.distances(), analyze_exact(&p, id).distances());
        assert_eq!(a.info.distances(), &[vec![4]]);
    }

    #[test]
    fn independent_columns_are_parallel_outer() {
        // A[i][j] = A[i][j-1]: carried at level 1 (j), parallel at level 0.
        let mut p = Program::new("cols");
        let a = p.add_array("A", &[8, 8], 8);
        let d = IntegerSet::builder(2)
            .bounds(0, 0, 7)
            .bounds(1, 1, 7)
            .build();
        let w = AffineMap::identity(2);
        let r = AffineMap::new(
            2,
            vec![
                AffineExpr::var(2, 0),
                AffineExpr::var(2, 1) - AffineExpr::constant(2, 1),
            ],
        );
        let id = p.add_nest(
            LoopNest::new("n", d)
                .with_ref(ArrayRef::write(a, w))
                .with_ref(ArrayRef::read(a, r)),
        );
        let info = analyze_nest(&p, id).info;
        assert_eq!(info.distances(), &[vec![0, 1]]);
        assert_eq!(info.carried_levels(), BTreeSet::from([1]));
        assert_eq!(info.outermost_parallel(), Some(0));
    }

    #[test]
    fn fully_parallel_nest() {
        // C[i] = A[i] + B[i]: no dependence.
        let mut p = Program::new("add");
        let a = p.add_array("A", &[16], 8);
        let b = p.add_array("B", &[16], 8);
        let c = p.add_array("C", &[16], 8);
        let d = IntegerSet::builder(1).bounds(0, 0, 15).build();
        let id = p.add_nest(
            LoopNest::new("n", d)
                .with_ref(ArrayRef::write(c, AffineMap::identity(1)))
                .with_ref(ArrayRef::read(a, AffineMap::identity(1)))
                .with_ref(ArrayRef::read(b, AffineMap::identity(1))),
        );
        let info = analyze_nest(&p, id).info;
        assert!(info.is_fully_parallel());
        assert_eq!(info.outermost_parallel(), Some(0));
    }

    #[test]
    fn indirect_refs_fall_back_to_exact() {
        let mut p = Program::new("gather");
        let x = p.add_array("x", &[32], 8);
        let d = IntegerSet::builder(1).bounds(0, 0, 7).build();
        let id = p.add_nest(LoopNest::new("n", d).with_ref(ArrayRef::new(
            x,
            Subscript::Indirect {
                selector: AffineExpr::var(1, 0),
                table: vec![0u64, 1, 2, 3, 0, 1, 2, 3].into(),
            },
            AccessKind::Write,
        )));
        let analysis = analyze_nest(&p, id);
        assert!(!analysis.enumeration_free());
        assert!(analysis
            .pairs
            .iter()
            .all(|p| p.method == PairMethod::Enumerated));
        // Iterations j and j+4 write the same element.
        assert_eq!(analysis.info.distances(), &[vec![4]]);
    }

    #[test]
    fn hybrid_nest_keeps_symbolic_pairs_symbolic() {
        // Satellite regression: one indirect pair must no longer force the
        // whole nest into enumeration — the affine pair stays symbolic.
        let mut p = Program::new("hybrid");
        let a = p.add_array("A", &[64], 8);
        let x = p.add_array("x", &[64], 8);
        let d = IntegerSet::builder(1).bounds(0, 1, 31).build();
        let shift = AffineMap::new(1, vec![AffineExpr::var(1, 0) - AffineExpr::constant(1, 1)]);
        let id = p.add_nest(
            LoopNest::new("n", d)
                .with_ref(ArrayRef::write(a, AffineMap::identity(1)))
                .with_ref(ArrayRef::read(a, shift))
                .with_ref(ArrayRef::new(
                    x,
                    Subscript::Indirect {
                        selector: AffineExpr::var(1, 0),
                        table: (0..16u64).chain(0..16).collect::<Vec<_>>().into(),
                    },
                    AccessKind::Write,
                )),
        );
        let analysis = analyze_nest(&p, id);
        assert!(!analysis.enumeration_free());
        let affine_pair = analysis
            .pairs
            .iter()
            .find(|p| (p.ref_a, p.ref_b) == (0, 1))
            .expect("A-pair analyzed");
        assert_eq!(affine_pair.method, PairMethod::Uniform);
        assert_eq!(affine_pair.distances, vec![vec![1]]);
        let indirect_pair = analysis
            .pairs
            .iter()
            .find(|p| (p.ref_a, p.ref_b) == (2, 2))
            .expect("x self-pair analyzed");
        assert_eq!(indirect_pair.method, PairMethod::Enumerated);
        assert_eq!(indirect_pair.distances, vec![vec![16]]);
        // The merged result matches full enumeration.
        assert_eq!(analysis.info.distances(), analyze_exact(&p, id).distances());
    }

    #[test]
    fn scaled_subscripts_are_integer_exact() {
        // A[2i] vs A[2i+1]: rationally dependent, integrally independent.
        // The GCD screen must prove independence (satellite: the rational FM
        // core alone would not).
        let mut p = Program::new("evenodd");
        let a = p.add_array("A", &[130], 8);
        let d = IntegerSet::builder(1).bounds(0, 0, 63).build();
        let even = AffineMap::new(1, vec![AffineExpr::var(1, 0) * 2]);
        let odd = AffineMap::new(
            1,
            vec![AffineExpr::var(1, 0) * 2 + AffineExpr::constant(1, 1)],
        );
        let id = p.add_nest(
            LoopNest::new("n", d)
                .with_ref(ArrayRef::write(a, even))
                .with_ref(ArrayRef::read(a, odd)),
        );
        let analysis = analyze_nest(&p, id);
        assert!(analysis.info.is_fully_parallel());
        assert!(analysis.enumeration_free());
        let pair = analysis
            .pairs
            .iter()
            .find(|p| (p.ref_a, p.ref_b) == (0, 1))
            .expect("pair analyzed");
        assert_eq!(pair.method, PairMethod::Screened);
        assert_eq!(analyze_exact(&p, id).distances(), &[] as &[Vec<i64>]);
    }

    #[test]
    fn under_constrained_rows_resolve_symbolically() {
        // W[i] += A[i][j] over (i,j): the uniform test cannot pin delta_j,
        // but the conflict set yields exactly the (0, t) distances.
        let mut p = Program::new("rowsum");
        let w = p.add_array("W", &[8], 8);
        let a = p.add_array("A", &[8, 8], 8);
        let d = IntegerSet::builder(2)
            .bounds(0, 0, 7)
            .bounds(1, 0, 7)
            .build();
        let row = AffineMap::new(2, vec![AffineExpr::var(2, 0)]);
        let id = p.add_nest(
            LoopNest::new("n", d)
                .with_ref(ArrayRef::write(w, row.clone()))
                .with_ref(ArrayRef::read(w, row))
                .with_ref(ArrayRef::read(a, AffineMap::identity(2))),
        );
        let analysis = analyze_nest(&p, id);
        assert!(analysis.enumeration_free());
        assert_eq!(analysis.info.distances(), analyze_exact(&p, id).distances());
        assert_eq!(analysis.info.carried_levels(), BTreeSet::from([1]));
        assert_eq!(analysis.info.outermost_parallel(), Some(0));
    }

    #[test]
    fn classification_names_blocking_pairs() {
        let (p, id) = fig5();
        let report = analyze_nest(&p, id).classify();
        assert_eq!(report.depth, 1);
        assert!(report.doall.is_empty());
        assert_eq!(report.outermost_parallel, None);
        assert_eq!(report.carried.len(), 1);
        let c = &report.carried[0];
        assert_eq!(c.level, 0);
        assert_eq!(c.example, vec![4]);
        // B[j] (write, ref 0) against B[j+4] and B[j-4] (refs 2 and 3).
        assert_eq!(c.pairs, vec![(0, 2), (0, 3)]);
        let shown = report.to_string();
        assert!(shown.contains("level 0 carried"), "{shown}");
    }

    #[test]
    fn unrealized_uniform_distance_is_dropped() {
        // A[i] vs A[i-12] over i in [0, 8): the uniform shift is 12, but no
        // iteration pair of the concrete domain realizes it.
        let mut p = Program::new("short");
        let a = p.add_array("A", &[24], 8);
        let d = IntegerSet::builder(1).bounds(0, 0, 7).build();
        let far = AffineMap::new(1, vec![AffineExpr::var(1, 0) - AffineExpr::constant(1, 12)]);
        let id = p.add_nest(
            LoopNest::new("n", d)
                .with_ref(ArrayRef::write(a, AffineMap::identity(1)))
                .with_ref(ArrayRef::read(a, far)),
        );
        // Out-of-bounds subscript (i-12 < 0): the engine falls back to
        // enumeration, which sees the clamped accesses.
        let info = analyze_nest(&p, id).info;
        assert_eq!(info.distances(), analyze_exact(&p, id).distances());
        assert!(!info.distances().contains(&vec![12]));
    }

    #[test]
    fn reads_never_conflict() {
        let mut p = Program::new("ro");
        let a = p.add_array("A", &[8], 8);
        let d = IntegerSet::builder(1).bounds(0, 0, 7).build();
        let zero = AffineMap::new(1, vec![AffineExpr::constant(1, 0)]);
        let id = p.add_nest(
            LoopNest::new("n", d)
                .with_ref(ArrayRef::read(a, zero.clone()))
                .with_ref(ArrayRef::read(a, zero)),
        );
        let info = analyze_nest(&p, id).info;
        assert!(info.is_fully_parallel());
    }

    #[test]
    fn disjoint_index_ranges_screen_without_enumeration() {
        // Indirect write into [0, 7], affine read from [32, 39]: the value
        // ranges never meet.
        let mut p = Program::new("ranges");
        let a = p.add_array("A", &[64], 8);
        let d = IntegerSet::builder(1).bounds(0, 0, 7).build();
        let hi = AffineMap::new(1, vec![AffineExpr::var(1, 0) + AffineExpr::constant(1, 32)]);
        let id = p.add_nest(
            LoopNest::new("n", d)
                .with_ref(ArrayRef::new(
                    a,
                    Subscript::Indirect {
                        selector: AffineExpr::var(1, 0),
                        table: vec![3u64, 1, 4, 7, 5, 0, 2, 6].into(),
                    },
                    AccessKind::Write,
                ))
                .with_ref(ArrayRef::read(a, hi)),
        );
        let analysis = analyze_nest(&p, id);
        assert!(analysis.enumeration_free(), "{:?}", analysis.pairs);
        let pair = analysis
            .pairs
            .iter()
            .find(|p| (p.ref_a, p.ref_b) == (0, 1))
            .expect("mixed pair analyzed");
        assert_eq!(pair.method, PairMethod::IndexRange);
        assert!(pair.distances.is_empty());
        assert_eq!(analysis.info.distances(), analyze_exact(&p, id).distances());
    }

    #[test]
    fn injective_table_reduces_to_selector_problem() {
        // x[perm[i]] = x[perm[i-1]]: the permutation makes element equality
        // equivalent to selector equality, so the exact distance 1 falls out
        // of the affine machinery with no enumeration.
        let mut p = Program::new("perm");
        let x = p.add_array("x", &[8], 8);
        let d = IntegerSet::builder(1).bounds(0, 1, 7).build();
        let table: Arc<[u64]> = vec![3u64, 6, 0, 7, 1, 4, 2, 5].into();
        let id = p.add_nest(
            LoopNest::new("n", d)
                .with_ref(ArrayRef::new(
                    x,
                    Subscript::Indirect {
                        selector: AffineExpr::var(1, 0),
                        table: Arc::clone(&table),
                    },
                    AccessKind::Write,
                ))
                .with_ref(ArrayRef::new(
                    x,
                    Subscript::Indirect {
                        selector: AffineExpr::var(1, 0) - AffineExpr::constant(1, 1),
                        table,
                    },
                    AccessKind::Read,
                )),
        );
        let analysis = analyze_nest(&p, id);
        assert!(analysis.enumeration_free(), "{:?}", analysis.pairs);
        let flow = analysis
            .pairs
            .iter()
            .find(|p| (p.ref_a, p.ref_b) == (0, 1))
            .expect("pair analyzed");
        assert_eq!(flow.method, PairMethod::IndexInjective);
        assert_eq!(flow.distances, vec![vec![1]]);
        let own = analysis
            .pairs
            .iter()
            .find(|p| (p.ref_a, p.ref_b) == (0, 0))
            .expect("self-pair analyzed");
        assert_eq!(own.method, PairMethod::IndexInjective);
        assert!(own.distances.is_empty());
        assert_eq!(analysis.info.distances(), analyze_exact(&p, id).distances());
    }

    #[test]
    fn banded_table_screens_strided_pair() {
        // A[swap[2i]] vs A[2i] with the adjacent-swap permutation (band 1):
        // a conflict would need |2D| <= 1, so only D = 0 — independent,
        // proved by the widened projection alone.
        let n = 16u64;
        let mut p = Program::new("band");
        let a = p.add_array("A", &[2 * n], 8);
        let d = IntegerSet::builder(1).bounds(0, 0, n as i64 - 1).build();
        let swap: Arc<[u64]> = (0..2 * n).map(|r| r ^ 1).collect::<Vec<_>>().into();
        let even = AffineMap::new(1, vec![AffineExpr::var(1, 0) * 2]);
        let id = p.add_nest(
            LoopNest::new("n", d)
                .with_ref(ArrayRef::new(
                    a,
                    Subscript::Indirect {
                        selector: AffineExpr::var(1, 0) * 2,
                        table: swap,
                    },
                    AccessKind::Write,
                ))
                .with_ref(ArrayRef::read(a, even)),
        );
        let analysis = analyze_nest(&p, id);
        assert!(analysis.enumeration_free(), "{:?}", analysis.pairs);
        let mixed = analysis
            .pairs
            .iter()
            .find(|p| (p.ref_a, p.ref_b) == (0, 1))
            .expect("mixed pair analyzed");
        assert_eq!(mixed.method, PairMethod::IndexBanded);
        assert!(mixed.distances.is_empty());
        // The write self-pair rides the injective reduction.
        let own = analysis
            .pairs
            .iter()
            .find(|p| (p.ref_a, p.ref_b) == (0, 0))
            .expect("self-pair analyzed");
        assert_eq!(own.method, PairMethod::IndexInjective);
        assert_eq!(analysis.info.distances(), analyze_exact(&p, id).distances());
        assert!(analysis.info.is_fully_parallel());
    }

    #[test]
    fn skip_reasons_are_distinct() {
        // Satellite: the catch-all "indirect, out-of-bounds or
        // rank-mismatched" reason is gone — each fallback names its cause.
        let mut p = Program::new("reasons");
        let a = p.add_array("A", &[8], 8);
        let x = p.add_array("x", &[8], 8);
        let y = p.add_array("y", &[4], 8);
        let d = IntegerSet::builder(1).bounds(0, 0, 7).build();
        let far = AffineMap::new(1, vec![AffineExpr::var(1, 0) + AffineExpr::constant(1, 4)]);
        let id = p.add_nest(
            LoopNest::new("n", d)
                // Out-of-bounds affine self-pair.
                .with_ref(ArrayRef::write(a, far))
                // Selector range [0, 7] wraps a 4-row table.
                .with_ref(ArrayRef::new(
                    x,
                    Subscript::Indirect {
                        selector: AffineExpr::var(1, 0),
                        table: vec![0u64, 1, 2, 3].into(),
                    },
                    AccessKind::Write,
                ))
                // Table values wrap modulo y's 4 elements.
                .with_ref(ArrayRef::new(
                    y,
                    Subscript::Indirect {
                        selector: AffineExpr::var(1, 0),
                        table: vec![0u64, 1, 2, 3, 4, 5, 6, 7].into(),
                    },
                    AccessKind::Write,
                )),
        );
        let analysis = analyze_nest(&p, id);
        let detail_of = |pair: (usize, usize)| -> &str {
            let s = analysis
                .pairs
                .iter()
                .find(|p| (p.ref_a, p.ref_b) == pair)
                .expect("pair analyzed");
            assert_eq!(s.method, PairMethod::Enumerated);
            &s.detail
        };
        assert!(
            detail_of((0, 0)).contains("out-of-bounds affine subscript on `A`"),
            "{}",
            detail_of((0, 0))
        );
        assert!(
            detail_of((1, 1)).contains("selector on `x` wraps modulo the table length"),
            "{}",
            detail_of((1, 1))
        );
        assert!(
            detail_of((2, 2)).contains("entries for `y` wrap modulo the array extent"),
            "{}",
            detail_of((2, 2))
        );
        assert_eq!(analysis.info.distances(), analyze_exact(&p, id).distances());
    }

    #[test]
    fn unscreenable_indirect_pair_reports_candidates() {
        // Non-injective, overlapping, same-range table: the banded screen
        // runs but leaves candidates, and the fallback reason says so.
        let mut p = Program::new("cands");
        let x = p.add_array("x", &[32], 8);
        let d = IntegerSet::builder(1).bounds(0, 0, 7).build();
        let id = p.add_nest(LoopNest::new("n", d).with_ref(ArrayRef::new(
            x,
            Subscript::Indirect {
                selector: AffineExpr::var(1, 0),
                table: vec![0u64, 1, 2, 3, 0, 1, 2, 3].into(),
            },
            AccessKind::Write,
        )));
        let analysis = analyze_nest(&p, id);
        let own = &analysis.pairs[0];
        assert_eq!(own.method, PairMethod::Enumerated);
        assert!(
            own.detail.contains("band-widened candidate distance(s)"),
            "{}",
            own.detail
        );
        assert_eq!(own.distances, vec![vec![4]]);
    }

    fn map1(coeff: i64, konst: i64) -> AffineMap {
        AffineMap::new(
            1,
            vec![AffineExpr::var(1, 0) * coeff + AffineExpr::constant(1, konst)],
        )
    }

    fn line(n: i64) -> IntegerSet {
        IntegerSet::builder(1).bounds(0, 0, n - 1).build()
    }

    /// The exact rung over `dom`'s bounding box, as `analyze_nest` runs it.
    fn exact(dom: &IntegerSet, a: &AffineMap, b: &AffineMap) -> PairDependence {
        let bbox = dom.bounding_box().unwrap().expect("bounded domain");
        pair_distances(dom, &bbox, a, b).unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn even_vs_odd_subscripts_are_independent_by_gcd() {
        // A[2i] vs A[2i'+1]: rationally dependent (i' = i - 1/2), but gcd 2
        // does not divide the gap 1 — the integer-exactness case.
        let dom = line(64);
        let (w, r) = (map1(2, 0), map1(2, 1));
        let gcd_row0 = |s: Option<Independence>| matches!(s, Some(Independence::Gcd { row: 0 }));
        assert!(gcd_row0(screen_pair(&[(0, 63)], &w, &r)));
        let pd = exact(&dom, &w, &r);
        assert!(pd.distances.is_empty());
        assert!(gcd_row0(pd.screened));
    }

    #[test]
    fn disjoint_ranges_are_independent_by_bounds() {
        // A[i] vs A[i + 100] over i in [0, 50): ranges [0,49] and [100,149].
        let pd = exact(&line(50), &map1(1, 0), &map1(1, 100));
        assert!(matches!(pd.screened, Some(Independence::Bounds { row: 0 })));
    }

    #[test]
    fn shifted_reference_has_unit_distance() {
        // A[i] vs A[i-1]: conflict at I' = I + 1, distance 1.
        let pd = exact(&line(10), &map1(1, 0), &map1(1, -1));
        assert_eq!(pd.distances, vec![vec![1]]);
        assert!(pd.screened.is_none());
    }

    #[test]
    fn scaled_pair_distance_respects_integrality() {
        // A[2i] vs A[2i-4]: distance 2 (not the rational 2i = 2i'-4 family).
        let pd = exact(&line(32), &map1(2, 0), &map1(2, -4));
        assert_eq!(pd.distances, vec![vec![2]]);
    }

    #[test]
    fn two_dimensional_diagonal_conflicts() {
        // B[i+j] vs B[i+j-1] over a square: distances along i+j = 1.
        let dom = IntegerSet::builder(2)
            .bounds(0, 0, 3)
            .bounds(1, 0, 3)
            .build();
        let sum = AffineMap::new(2, vec![AffineExpr::var(2, 0) + AffineExpr::var(2, 1)]);
        let sum_m1 = AffineMap::new(
            2,
            vec![AffineExpr::var(2, 0) + AffineExpr::var(2, 1) - AffineExpr::constant(2, 1)],
        );
        let pd = exact(&dom, &sum, &sum_m1);
        // D0 + D1 = 1 with both iterations in the box, normalized: includes
        // (0,1) and (1,0), plus skewed pairs like (1,-2) .. (3,-2) etc.
        assert!(pd.distances.contains(&vec![0, 1]));
        assert!(pd.distances.contains(&vec![1, 0]));
        assert!(pd.distances.iter().all(|dv| (dv[0] + dv[1]).abs() == 1));
    }

    #[test]
    fn self_pair_of_injective_reference_has_no_distance() {
        let pd = exact(&line(16), &map1(1, 0), &map1(1, 0));
        assert!(pd.distances.is_empty());
        assert!(pd.screened.is_none());
    }

    #[test]
    fn candidate_cap_is_reported() {
        // S[0] vs S[0] over a line of 2^16 points: every non-zero D in
        // (-2^16, 2^16) is a candidate.
        let dom = line(1 << 16);
        let konst = map1(0, 0);
        let err = pair_distances(&dom, &[(0, (1 << 16) - 1)], &konst, &konst)
            .err()
            .expect("over the cap");
        assert!(matches!(err, DependenceError::TooManyCandidates));
        assert_eq!(err.to_string(), "more than 65536 candidate distances");
    }

    #[test]
    fn empty_domain_pairs_enumerate_to_nothing() {
        // The rungs never see an empty domain: its pairs go straight to
        // the (empty) enumeration.
        let mut p = Program::new("empty");
        let a = p.add_array("A", &[8], 8);
        let d = IntegerSet::builder(1).bounds(0, 5, 2).build();
        let id = p.add_nest(
            LoopNest::new("n", d)
                .with_ref(ArrayRef::write(a, map1(1, 0)))
                .with_ref(ArrayRef::read(a, map1(1, -1))),
        );
        let analysis = analyze_nest(&p, id);
        assert!(analysis.info.is_fully_parallel());
        for pair in &analysis.pairs {
            assert_eq!(pair.method, PairMethod::Enumerated);
            assert_eq!(
                pair.detail,
                "enumerated: empty or unbounded iteration domain"
            );
        }
    }

    #[test]
    fn banded_widening_excludes_far_distances() {
        // a = 2i (a band-1 table's selector, doubled), b = 2i: any conflict
        // needs |2D| <= 1, so D = 0 is the only candidate — and the zero
        // vector is never reported. Independence, no enumeration.
        let two_i = AffineExpr::var(1, 0) * 2;
        let got = banded_candidates(&line(32), &two_i, &two_i, 1).unwrap_or_else(|e| panic!("{e}"));
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn banded_widening_lists_near_distances() {
        // |I - (I + D)| <= 2 over a line: candidates D in {1, 2} after
        // normalization (the over-approximation callers must resolve).
        let i = AffineExpr::var(1, 0);
        let got = banded_candidates(&line(16), &i, &i, 2).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(got, vec![vec![1], vec![2]]);
    }

    #[test]
    fn banded_respects_candidate_cap() {
        let i = AffineExpr::var(1, 0);
        let got = banded_candidates(&line(1 << 17), &i, &i, 1 << 16);
        assert!(matches!(got, Err(DependenceError::TooManyCandidates)));
    }

    #[test]
    fn matches_enumeration_on_a_triangle() {
        // Non-rectangular domain: 0 <= i <= 7, 0 <= j <= i, A[i][j] vs
        // A[i-1][j]: distance (1, 0) wherever both points are in the
        // triangle.
        let dom = IntegerSet::builder(2)
            .bounds(0, 0, 7)
            .lower(1, 0)
            .le_var(1, 0)
            .build();
        let up = AffineMap::new(
            2,
            vec![
                AffineExpr::var(2, 0) - AffineExpr::constant(2, 1),
                AffineExpr::var(2, 1),
            ],
        );
        let pd = exact(&dom, &AffineMap::identity(2), &up);
        assert_eq!(pd.distances, vec![vec![1, 0]]);
    }

    #[test]
    fn distance_polyhedron_bounding_is_capped() {
        // A 9-point domain whose redundant coupled bound makes bounding the
        // write/read pair's distance polyhedron ask for 42 million
        // constraints in one elimination step, gigabytes of memory: the
        // step's cap turns that into an enumerated pair.
        let mut p = Program::new("blowup");
        let a = p.add_array("A", &[56, 60], 8);
        let d = IntegerSet::builder(3)
            .bounds(0, -2, -2)
            .bounds(1, 2, 10)
            .bounds(2, 0, 0)
            .ge(AffineExpr::new(vec![-1, 2, -1], 1))
            .build();
        let row = |c: [i64; 3], k: i64| AffineExpr::new(c.to_vec(), k);
        let w = AffineMap::new(3, vec![row([0, 2, -2], -1), row([2, 2, -2], 8)]);
        let r = AffineMap::new(3, vec![row([-1, -1, 0], 12), row([-2, 1, -2], 13)]);
        let id = p.add_nest(
            LoopNest::new("n", d)
                .with_ref(ArrayRef::write(a, w))
                .with_ref(ArrayRef::read(a, r)),
        );
        let analysis = analyze_nest(&p, id);
        let pair = &analysis.pairs[1];
        assert_eq!(
            (pair.ref_a, pair.ref_b, pair.method),
            (0, 1, PairMethod::Enumerated)
        );
        assert!(pair.detail.ends_with("(limit 1048576)"), "{}", pair.detail);
        assert_eq!(analysis.info, analyze_exact(&p, id));
    }

    /// `A[i][j] = A[j][i]` over an `n × n` square.
    fn transpose(n: i64) -> (Program, NestId) {
        let mut p = Program::new("transpose");
        let a = p.add_array("A", &[n as u64, n as u64], 8);
        let d = IntegerSet::builder(2)
            .bounds(0, 0, n - 1)
            .bounds(1, 0, n - 1)
            .build();
        let swapped = AffineMap::new(2, vec![AffineExpr::var(2, 1), AffineExpr::var(2, 0)]);
        let id = p.add_nest(
            LoopNest::new("t", d)
                .with_ref(ArrayRef::write(a, AffineMap::identity(2)))
                .with_ref(ArrayRef::read(a, swapped)),
        );
        (p, id)
    }

    #[test]
    fn candidate_cap_sends_the_pair_to_enumeration() {
        // The transpose pair's distance box is (2n - 1)^2: 239^2 = 57,121
        // candidates at n = 120 stay under the 2^16 cap, 259^2 = 67,081 at
        // n = 130 do not.
        for (n, method) in [(120, PairMethod::Symbolic), (130, PairMethod::Enumerated)] {
            let (p, id) = transpose(n);
            let analysis = analyze_nest(&p, id);
            let pair = analysis
                .pairs
                .iter()
                .find(|p| (p.ref_a, p.ref_b) == (0, 1))
                .expect("pair analyzed");
            assert_eq!(pair.method, method, "n = {n}");
            if method == PairMethod::Enumerated {
                assert_eq!(
                    pair.detail,
                    "enumerated: more than 65536 candidate distances"
                );
            }
            assert_eq!(analysis.info, analyze_exact(&p, id), "n = {n}");
        }
    }
}
