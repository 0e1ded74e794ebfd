//! The independent certificate checker: re-establishes every obligation of a
//! [`Certificate`] from first principles and rejects with a coded
//! `CTAM-C6xx` reason on the first violation.
//!
//! The checker shares **no code** with the analyzer that produced the
//! certificate. It enumerates the iteration domain by interval
//! bound-propagation over the serialized constraint rows, recounts the
//! mapping-unit partition, re-validates every index-table fact by a direct
//! scan, substitutes every distance witness into the pair's subscripts, and
//! re-derives exact conflict sets by a sorted join wherever affordable.
//! The domain is one flat, lexicographically ordered array of points,
//! indexed by the ranks of their cells in a bitmap over the enumeration
//! box, so a shifted point is found by arithmetic, never built; the join
//! records each matching pair's distance as one bit of a bitmap of
//! mixed-radix codes. The only claims taken on trust are the *completeness*
//! of the analyzer's Fourier–Motzkin candidate sets for symbolic pairs whose
//! exact re-derivation would exceed [`WORK_CAP`] — see DESIGN.md §12 for the
//! trusted-computing-base argument.

use std::cell::OnceCell;
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};

use crate::model::{
    affine_value, CertExpr, CertPair, CertRef, CertSubscript, CertTable, Certificate, Verdict,
};

/// Hard cap on the number of enumerated iteration points (the checker
/// refuses domains it cannot afford to enumerate instead of guessing).
pub const MAX_POINTS: u128 = 1 << 26;

/// Cap on the work of an exact conflict-set re-derivation: its pairwise
/// checks plus the bits of its distance bitmap. Above it the checker falls
/// back to witness + per-candidate refutation checking (which trusts
/// Fourier–Motzkin completeness).
pub const WORK_CAP: u128 = 1 << 26;

/// The coded rejection classes of the checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectCode {
    /// `CTAM-C601`: the certificate is malformed — mismatched vector
    /// arities, an unbounded or oversized iteration domain, an unknown pair
    /// method, a non-normalized distance.
    Malformed,
    /// `CTAM-C602`: the unit partition or its schedule coverage is wrong —
    /// recounted units disagree, a unit is missing, duplicated, or out of
    /// range.
    Coverage,
    /// `CTAM-C603`: the placement violates the claimed race freedom or the
    /// dependence execution order.
    Placement,
    /// `CTAM-C604`: a distance witness is invalid — outside the domain, or
    /// substituting it into the subscripts exhibits no conflict.
    Witness,
    /// `CTAM-C605`: a dependence disposition fails its recheck — a screen
    /// does not re-prove, a claimed distance set disagrees with the exact
    /// re-derivation, a candidate is realized but unclaimed.
    Recheck,
    /// `CTAM-C606`: an index table violates its claimed facts (or a claimed
    /// band is not tight).
    IndexFacts,
    /// `CTAM-C607`: the per-pair dispositions do not cover exactly the
    /// conflicting reference pairs, or the merged distance set is not their
    /// union.
    PairCoverage,
    /// `CTAM-C608`: a structural bound is violated — core, array, table or
    /// subscript out of range, zero block size.
    Structure,
    /// `CTAM-C609`: the claimed verdict is inconsistent with the pair
    /// methods that support it.
    VerdictMismatch,
}

impl RejectCode {
    /// The stable diagnostic id, e.g. `CTAM-C604`.
    pub fn id(&self) -> &'static str {
        match self {
            RejectCode::Malformed => "CTAM-C601",
            RejectCode::Coverage => "CTAM-C602",
            RejectCode::Placement => "CTAM-C603",
            RejectCode::Witness => "CTAM-C604",
            RejectCode::Recheck => "CTAM-C605",
            RejectCode::IndexFacts => "CTAM-C606",
            RejectCode::PairCoverage => "CTAM-C607",
            RejectCode::Structure => "CTAM-C608",
            RejectCode::VerdictMismatch => "CTAM-C609",
        }
    }

    /// A short human name for the class.
    pub fn name(&self) -> &'static str {
        match self {
            RejectCode::Malformed => "malformed certificate",
            RejectCode::Coverage => "coverage violation",
            RejectCode::Placement => "placement violation",
            RejectCode::Witness => "invalid witness",
            RejectCode::Recheck => "recheck failed",
            RejectCode::IndexFacts => "index-fact violation",
            RejectCode::PairCoverage => "pair coverage gap",
            RejectCode::Structure => "structural violation",
            RejectCode::VerdictMismatch => "verdict mismatch",
        }
    }
}

impl std::fmt::Display for RejectCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.id(), self.name())
    }
}

/// A coded rejection: the class plus a human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejection {
    /// The rejection class.
    pub code: RejectCode,
    /// What exactly failed.
    pub detail: String,
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.detail)
    }
}

impl std::error::Error for Rejection {}

fn reject(code: RejectCode, detail: impl Into<String>) -> Rejection {
    Rejection {
        code,
        detail: detail.into(),
    }
}

/// What an accepted certificate was checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckStats {
    /// Enumerated iteration points.
    pub n_points: usize,
    /// Recounted mapping units.
    pub n_units: usize,
    /// Checked reference pairs.
    pub n_pairs: usize,
    /// Validated distance witnesses.
    pub n_witnesses: usize,
    /// Pairs whose exact conflict set was re-derived (vs. trusted candidate
    /// sets above the work cap).
    pub n_exact_rederivations: usize,
}

// ---------------------------------------------------------------------------
// Domain enumeration by interval bound propagation.
// ---------------------------------------------------------------------------

/// The cells of a box, first coordinate most significant, with a presence
/// bit per cell and a running popcount per 64-bit word: a present cell's
/// rank is its index among the present cells, in lexicographic order.
struct Cells {
    lo: Vec<i64>,
    ext: Vec<u64>,
    bits: Vec<u64>,
    ranks: Vec<u32>,
}

impl Cells {
    /// The index of `points`' cells in the box `lo .. lo + ext` (at most
    /// [`MAX_POINTS`] cells).
    fn new<'a>(lo: &[i64], ext: &[u64], points: impl Iterator<Item = &'a [i64]>) -> Self {
        let n: u64 = ext.iter().product();
        let mut cells = Cells {
            lo: lo.to_vec(),
            ext: ext.to_vec(),
            bits: vec![0; n.div_ceil(64) as usize],
            ranks: Vec::new(),
        };
        for p in points {
            // `p + 0 · p` is `p`.
            if let Some(c) = cells.cell(p, p, 0) {
                cells.bits[c / 64] |= 1 << (c % 64);
            }
        }
        // The count of present cells before each word.
        let count =
            |total: &mut u32, w: &u64| Some(std::mem::replace(total, *total + w.count_ones()));
        cells.ranks = cells.bits.iter().scan(0, count).collect();
        cells
    }

    /// The cell at `p + sign · d`, computed exactly, if inside the box.
    fn cell(&self, p: &[i64], d: &[i64], sign: i128) -> Option<usize> {
        let mut cell = 0;
        for (v, (&x, &dx)) in p.iter().zip(d).enumerate() {
            let off = i128::from(x) + sign * i128::from(dx) - i128::from(self.lo[v]);
            if !(0..i128::from(self.ext[v])).contains(&off) {
                return None;
            }
            cell = cell * self.ext[v] as usize + off as usize;
        }
        Some(cell)
    }

    /// The rank of `p + sign · d`, if that cell is present.
    fn find(&self, p: &[i64], d: &[i64], sign: i128) -> Option<usize> {
        let c = self.cell(p, d, sign)?;
        let (word, bit) = (self.bits[c / 64], c % 64);
        let below = (word & ((1 << bit) - 1)).count_ones();
        (word >> bit & 1 == 1).then(|| (self.ranks[c / 64] + below) as usize)
    }
}

/// The iteration domain: `depth` coordinates per point, in lexicographic
/// order, and the rank index of their cells.
struct Domain {
    depth: usize,
    coords: Vec<i64>,
    cells: Cells,
}

impl Domain {
    fn point(&self, i: usize) -> &[i64] {
        &self.coords[i * self.depth..(i + 1) * self.depth]
    }

    fn points(&self) -> std::slice::ChunksExact<'_, i64> {
        self.coords.chunks_exact(self.depth)
    }

    /// The index of the point `p + d`, if it is in the domain.
    fn find(&self, p: &[i64], d: &[i64]) -> Option<usize> {
        self.cells.find(p, d, 1)
    }
}

fn satisfies(cert: &Certificate, p: &[i64]) -> Result<bool, Rejection> {
    for (i, c) in cert.domain.iter().enumerate() {
        let Some(v) = affine_value(&c.coeffs, c.constant, p) else {
            return Err(reject(
                RejectCode::Malformed,
                format!("domain constraint {i} overflows 128 bits at {p:?}"),
            ));
        };
        if !(v == 0 || (!c.eq && v > 0)) {
            return Ok(false);
        }
    }
    Ok(true)
}

fn enumerate_domain(cert: &Certificate) -> Result<Domain, Rejection> {
    let depth = cert.depth;
    // Expand every constraint to `coeffs . I + k >= 0` form.
    let mut ge: Vec<(Vec<i128>, i128)> = Vec::new();
    for c in &cert.domain {
        let coeffs: Vec<i128> = c.coeffs.iter().map(|&x| i128::from(x)).collect();
        ge.push((coeffs.clone(), i128::from(c.constant)));
        if c.eq {
            ge.push((
                coeffs.iter().map(|&x| -x).collect(),
                -i128::from(c.constant),
            ));
        }
    }
    let mut lo: Vec<Option<i128>> = vec![None; depth];
    let mut hi: Vec<Option<i128>> = vec![None; depth];
    let overflow = || reject(RejectCode::Malformed, "domain bound propagation overflowed");
    for _ in 0..64 {
        let mut changed = false;
        for (coeffs, k) in &ge {
            for v in 0..depth {
                let cv = coeffs[v];
                if cv == 0 {
                    continue;
                }
                // cv * x_v >= -k - sum_{u != v} c_u x_u; bound the RHS from
                // below by maximizing the sum over the current intervals.
                let mut bound = -k;
                let mut known = true;
                for u in 0..depth {
                    if u == v || coeffs[u] == 0 {
                        continue;
                    }
                    let endpoint = if coeffs[u] > 0 { hi[u] } else { lo[u] };
                    match endpoint {
                        Some(e) => {
                            let term = coeffs[u].checked_mul(e).ok_or_else(overflow)?;
                            bound = bound.checked_sub(term).ok_or_else(overflow)?;
                        }
                        None => {
                            known = false;
                            break;
                        }
                    }
                }
                if !known {
                    continue;
                }
                if cv > 0 {
                    let nl = -(-bound).div_euclid(cv); // ⌈bound / cv⌉
                    if lo[v].is_none_or(|l| nl > l) {
                        lo[v] = Some(nl);
                        changed = true;
                    }
                } else {
                    // cv x >= bound with cv < 0  <=>  (-cv) x <= -bound.
                    let nh = (-bound).div_euclid(-cv);
                    if hi[v].is_none_or(|h| nh < h) {
                        hi[v] = Some(nh);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    let mut box_lo = Vec::with_capacity(depth);
    let mut box_hi = Vec::with_capacity(depth);
    let mut empty = false;
    for v in 0..depth {
        let (Some(l), Some(h)) = (lo[v], hi[v]) else {
            return Err(reject(
                RejectCode::Malformed,
                format!("iteration variable {v} is unbounded; refusing to enumerate"),
            ));
        };
        if l > h {
            empty = true;
        }
        let l = i64::try_from(l.max(i128::from(i64::MIN)))
            .map_err(|_| reject(RejectCode::Malformed, "domain bound exceeds i64"))?;
        let h = i64::try_from(h.min(i128::from(i64::MAX)))
            .map_err(|_| reject(RejectCode::Malformed, "domain bound exceeds i64"))?;
        box_lo.push(l);
        box_hi.push(h);
    }
    // An empty domain keeps an empty box, where every lookup misses.
    let extent = |l: i64, h: i64| {
        if empty {
            0
        } else {
            i128::from(h) - i128::from(l) + 1
        }
    };
    let volume = (box_lo.iter().zip(&box_hi))
        .try_fold(1u128, |n, (&l, &h)| n.checked_mul(extent(l, h) as u128));
    let Some(volume) = volume.filter(|&n| n <= MAX_POINTS) else {
        let n = volume.map_or_else(|| "over 2^128".to_owned(), |n| n.to_string());
        return Err(reject(
            RejectCode::Malformed,
            format!("domain box holds {n} points, over the checker's cap"),
        ));
    };
    // Odometer over the box in lexicographic order.
    let (mut coords, mut cur) = (Vec::new(), box_lo.clone());
    for _ in 0..volume {
        if satisfies(cert, &cur)? {
            coords.extend_from_slice(&cur);
        }
        for d in (0..depth).rev() {
            if cur[d] < box_hi[d] {
                cur[d] += 1;
                break;
            }
            cur[d] = box_lo[d];
        }
    }
    let ext: Vec<u64> = (box_lo.iter().zip(&box_hi))
        .map(|(&l, &h)| extent(l, h) as u64)
        .collect();
    let cells = Cells::new(&box_lo, &ext, coords.chunks_exact(depth));
    Ok(Domain {
        depth,
        coords,
        cells,
    })
}

// ---------------------------------------------------------------------------
// Reference evaluation (mirrors the program model's concrete semantics).
// ---------------------------------------------------------------------------

/// Concrete flat element touched by `r` at `point`, with the program model's
/// clamp (affine) and wrap (indirect) semantics.
fn concrete_element(cert: &Certificate, r: &CertRef, point: &[i64]) -> Result<u64, Rejection> {
    let dims = &cert.arrays[r.array].dims;
    let eval = |e: &CertExpr| {
        e.eval(point).ok_or_else(|| {
            let name = &cert.arrays[r.array].name;
            let what = format!("a subscript of `{name}` overflows 128 bits at {point:?}");
            reject(RejectCode::Malformed, what)
        })
    };
    match &r.subscript {
        // `check_shapes` bounds the element count, so `flat` fits.
        CertSubscript::Affine(rows) => {
            let mut flat: u64 = 0;
            for (d, row) in rows.iter().enumerate() {
                let extent = dims[d];
                let clamped = eval(row)?.clamp(0, i128::from(extent) - 1) as u64;
                flat = flat * extent + clamped;
            }
            Ok(flat)
        }
        CertSubscript::Indirect { selector, table } => {
            let t = &cert.tables[*table];
            if t.values.is_empty() {
                return Err(reject(
                    RejectCode::Structure,
                    format!(
                        "reference on `{}` uses an empty index table",
                        cert.arrays[r.array].name
                    ),
                ));
            }
            let n_elements: u64 = dims.iter().product();
            if n_elements == 0 {
                return Err(reject(
                    RejectCode::Structure,
                    format!("array `{}` has a zero extent", cert.arrays[r.array].name),
                ));
            }
            let sel = eval(selector)?.rem_euclid(t.values.len() as i128);
            Ok(t.values[sel as usize] % n_elements)
        }
    }
}

/// Exact per-variable bounding box of the enumerated points.
fn exact_box(dom: &Domain) -> Option<Vec<(i64, i64)>> {
    let mut bx: Vec<(i64, i64)> = dom.points().next()?.iter().map(|&x| (x, x)).collect();
    for p in dom.points() {
        for (b, &x) in bx.iter_mut().zip(p) {
            *b = (b.0.min(x), b.1.max(x));
        }
    }
    Some(bx)
}

/// The range of `e` over the box, or `None` when a partial sum, constant
/// first, leaves `i128`. Every point of the box then evaluates `e` with
/// partial sums inside these, so [`CertExpr::eval`] is exact there.
fn expr_range(e: &CertExpr, bx: &[(i64, i64)]) -> Option<(i128, i128)> {
    let (mut lo, mut hi) = (i128::from(e.constant), i128::from(e.constant));
    for (&c, &(blo, bhi)) in e.coeffs.iter().zip(bx) {
        let c = i128::from(c);
        let (at_lo, at_hi) = (c * i128::from(blo), c * i128::from(bhi));
        lo = lo.checked_add(at_lo.min(at_hi))?;
        hi = hi.checked_add(at_lo.max(at_hi))?;
    }
    Some((lo, hi))
}

/// Requires a symbolically-modelled reference to be in bounds over the exact
/// box, so unclamped subscript algebra coincides with the concrete
/// semantics. (The analyzer established the same over a box at least as
/// large, so honest certificates always pass.)
fn require_in_bounds(
    cert: &Certificate,
    r: &CertRef,
    ridx: usize,
    bx: &[(i64, i64)],
) -> Result<(), Rejection> {
    let arr = &cert.arrays[r.array];
    let range = |e: &CertExpr, what: String| {
        expr_range(e, bx).ok_or_else(|| {
            let what = format!("reference {ridx} {what} overflows 128 bits over the domain box");
            reject(RejectCode::Structure, what)
        })
    };
    match &r.subscript {
        CertSubscript::Affine(rows) => {
            for (d, row) in rows.iter().enumerate() {
                let (lo, hi) = range(row, format!("row {d}"))?;
                if lo < 0 || hi >= i128::from(arr.dims[d]) {
                    return Err(reject(
                        RejectCode::Structure,
                        format!(
                            "reference {ridx} row {d} spans [{lo}, {hi}] outside `{}`'s extent {}",
                            arr.name, arr.dims[d]
                        ),
                    ));
                }
            }
        }
        CertSubscript::Indirect { selector, table } => {
            let t = &cert.tables[*table];
            let (lo, hi) = range(selector, "selector".to_owned())?;
            if lo < 0 || hi >= t.values.len() as i128 {
                return Err(reject(
                    RejectCode::Structure,
                    format!(
                        "reference {ridx} selector spans [{lo}, {hi}] outside table length {}",
                        t.values.len()
                    ),
                ));
            }
            let n_elements: u64 = arr.dims.iter().product();
            if let Some(&worst) = t.values.iter().max() {
                if worst >= n_elements {
                    return Err(reject(
                        RejectCode::Structure,
                        format!(
                            "table value {worst} wraps modulo `{}`'s {} elements",
                            arr.name, n_elements
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Exact conflict-set re-derivation by a sorted join.
// ---------------------------------------------------------------------------

/// Each point's `width`-row key, as `(key, point)` sorted by key.
fn sorted_keys(keys: &[i128], width: usize) -> Vec<(&[i128], usize)> {
    let mut sorted: Vec<(&[i128], usize)> = keys.chunks_exact(width).zip(0..).collect();
    sorted.sort_unstable();
    sorted
}

/// A key function of [`exact_distances`]: row `r` of a point's key.
type Key<'a> = &'a dyn Fn(&[i64], usize) -> i128;

/// Exact set of lexicographically normalized non-zero distances `q - p` over
/// the point pairs whose `width`-row keys agree, `key_a(p, row) == key_b(q,
/// row)`, or `None` when the pairwise work plus the distance bitmap's bits
/// exceed [`WORK_CAP`]. `key_b` is `None` when it is `key_a`.
///
/// Each side is sorted by key and its runs of equal keys are paired. A
/// point's code is its offset in the exact box `bx` in mixed radix `2·span +
/// 1` per variable, first variable most significant: a pair's normalized
/// distance has code `|code(q) − code(p)|`, and code order is lex order.
/// With one key the join is a self-join: a run visits each unordered pair
/// once (code 0, `p == q`, is never read), though its work still counts
/// the run's full product.
fn exact_distances(
    dom: &Domain,
    bx: &[(i64, i64)],
    width: usize,
    key_a: Key<'_>,
    key_b: Option<Key<'_>>,
) -> Option<BTreeSet<Vec<i64>>> {
    let keys = |key: Key<'_>| -> Vec<i128> {
        dom.points()
            .flat_map(|p| (0..width).map(move |r| key(p, r)))
            .collect()
    };
    let (keys_a, keys_b) = (keys(key_a), key_b.map(keys));
    let sa = sorted_keys(&keys_a, width);
    let sb = keys_b.as_deref().map(|k| sorted_keys(k, width));
    let sb = sb.as_deref().unwrap_or(&sa);
    let mut runs = Vec::new();
    let (mut i, mut j, mut work) = (0, 0, 0u128);
    while i < sa.len() && j < sb.len() {
        match sa[i].0.cmp(sb[j].0) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                let k = sa[i].0;
                let ie = i + sa[i..].iter().take_while(|e| e.0 == k).count();
                let je = j + sb[j..].iter().take_while(|e| e.0 == k).count();
                work += (ie - i) as u128 * (je - j) as u128;
                runs.push((i..ie, j..je));
                (i, j) = (ie, je);
            }
        }
    }
    if work == 0 {
        return Some(BTreeSet::new());
    }
    // Every code fits in `[-bits, bits]`; the bitmap is counted as work
    // before it is allocated.
    let radix: Vec<u128> = bx.iter().map(|&(l, h)| 2 * (h - l) as u128 + 1).collect();
    let bits = radix.iter().try_fold(1u128, |n, &r| n.checked_mul(r))? / 2;
    if work.saturating_add(bits) > WORK_CAP {
        return None;
    }
    let place: Vec<i64> = (1..=radix.len())
        .map(|v| radix[v..].iter().product::<u128>() as i64)
        .collect();
    let code = |p: &[i64]| -> i64 {
        let digits = p.iter().zip(bx).zip(&place);
        digits.map(|((&x, b), &w)| (x - b.0) * w).sum()
    };
    let codes = |side: &[(&[i128], usize)]| -> Vec<i64> {
        side.iter().map(|&(_, i)| code(dom.point(i))).collect()
    };
    let codes_a = codes(&sa);
    let codes_b = key_b.map(|_| codes(sb));
    let codes_b = codes_b.as_deref().unwrap_or(&codes_a);
    let mut seen = vec![0u64; (bits as usize + 1).div_ceil(64)];
    for (ra, rb) in runs {
        let run_b = &codes_b[rb];
        for (k, &x) in codes_a[ra].iter().enumerate() {
            let first = if key_b.is_some() { 0 } else { k + 1 };
            for &y in &run_b[first..] {
                let d = x.abs_diff(y) as usize;
                seen[d / 64] |= 1 << (d % 64);
            }
        }
    }
    // Balanced digits: each in `[-span, span]`, the remainder below half
    // the place value.
    let decode = |mut rest: i64| -> Vec<i64> {
        let digits = place.iter().map(|&p| {
            let digit = (rest + p / 2).div_euclid(p);
            rest -= digit * p;
            digit
        });
        digits.collect()
    };
    let set = (1..=bits as usize).filter(|&c| seen[c / 64] >> (c % 64) & 1 == 1);
    Some(set.map(|c| decode(c as i64)).collect())
}

// ---------------------------------------------------------------------------
// Table facts.
// ---------------------------------------------------------------------------

/// The first value of `values` to repeat, in table order (found by sorting
/// `(value, position)`).
fn first_repeat(values: &[u64]) -> Option<u64> {
    let mut sorted: Vec<(u64, usize)> = values.iter().copied().zip(0..).collect();
    sorted.sort_unstable();
    let second = sorted.windows(2).filter(|w| w[0].0 == w[1].0);
    second.map(|w| w[1].1).min().map(|at| values[at])
}

/// `repeat` is the table's [`first_repeat`] where it claims injectivity.
fn check_table(idx: usize, t: &CertTable, repeat: Option<u64>) -> Result<(), Rejection> {
    let f = &t.facts;
    let fail = |what: String| reject(RejectCode::IndexFacts, format!("table {idx}: {what}"));
    if f.len != t.values.len() {
        return Err(fail(format!(
            "claims length {} but holds {} values",
            f.len,
            t.values.len()
        )));
    }
    if let Some((lo, hi)) = f.range {
        if let Some(&v) = t.values.iter().find(|&&v| v < lo || v > hi) {
            return Err(fail(format!(
                "value {v} escapes the claimed range [{lo}, {hi}]"
            )));
        }
    }
    if f.nondecreasing && t.values.windows(2).any(|w| w[1] < w[0]) {
        return Err(fail(
            "claimed nondecreasing but a value decreases".to_owned(),
        ));
    }
    if f.strictly_increasing && t.values.windows(2).any(|w| w[1] <= w[0]) {
        return Err(fail(
            "claimed strictly increasing but a value repeats or decreases".to_owned(),
        ));
    }
    if let Some(v) = repeat {
        return Err(fail(format!("claimed injective but value {v} repeats")));
    }
    if f.permutation {
        let mut sorted = t.values.clone();
        sorted.sort_unstable();
        if sorted.iter().enumerate().any(|(i, &v)| v != i as u64) {
            return Err(fail("claimed a permutation but is not one".to_owned()));
        }
    }
    if let Some(band) = f.band {
        let tight = t
            .values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i128::from(v) - i as i128).unsigned_abs())
            .max()
            .unwrap_or(0);
        if u128::from(band) != tight {
            return Err(fail(format!(
                "claims band {band} but the tight band is {tight} \
                 (banded proofs require the exact maximum deviation)"
            )));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The checker.
// ---------------------------------------------------------------------------

fn check_shapes(cert: &Certificate) -> Result<(), Rejection> {
    let depth = cert.depth;
    if depth == 0 {
        return Err(reject(
            RejectCode::Malformed,
            "nest depth must be at least 1",
        ));
    }
    if cert.unit_prefix > depth {
        return Err(reject(
            RejectCode::Malformed,
            format!("unit prefix {} exceeds depth {depth}", cert.unit_prefix),
        ));
    }
    if cert.n_cores == 0 {
        return Err(reject(RejectCode::Structure, "machine has no cores"));
    }
    if cert.block_bytes == 0 {
        return Err(reject(RejectCode::Structure, "block size is zero"));
    }
    for (i, c) in cert.domain.iter().enumerate() {
        if c.coeffs.len() != depth {
            return Err(reject(
                RejectCode::Malformed,
                format!(
                    "domain constraint {i} has {} coefficients, depth is {depth}",
                    c.coeffs.len()
                ),
            ));
        }
    }
    for (i, a) in cert.arrays.iter().enumerate() {
        if a.dims.is_empty() {
            return Err(reject(
                RejectCode::Malformed,
                format!("array {i} has no dimensions"),
            ));
        }
        if a.dims.contains(&0) {
            return Err(reject(
                RejectCode::Structure,
                format!("array `{}` has a zero extent", a.name),
            ));
        }
        if a.elem_bytes == 0 {
            return Err(reject(
                RejectCode::Structure,
                format!("array `{}` has zero-byte elements", a.name),
            ));
        }
        let elements = a.dims.iter().try_fold(1u64, |n, &d| n.checked_mul(d));
        if elements.is_none() {
            return Err(reject(
                RejectCode::Structure,
                format!("array `{}` holds over 2^64 elements", a.name),
            ));
        }
    }
    for (i, r) in cert.refs.iter().enumerate() {
        if r.array >= cert.arrays.len() {
            return Err(reject(
                RejectCode::Structure,
                format!(
                    "reference {i} names array {} of {}",
                    r.array,
                    cert.arrays.len()
                ),
            ));
        }
        match &r.subscript {
            CertSubscript::Affine(rows) => {
                if rows.len() != cert.arrays[r.array].dims.len() {
                    return Err(reject(
                        RejectCode::Structure,
                        format!(
                            "reference {i} has {} subscript rows for a rank-{} array",
                            rows.len(),
                            cert.arrays[r.array].dims.len()
                        ),
                    ));
                }
                for e in rows {
                    if e.coeffs.len() != depth {
                        return Err(reject(
                            RejectCode::Malformed,
                            format!("reference {i} subscript arity mismatch"),
                        ));
                    }
                }
            }
            CertSubscript::Indirect { selector, table } => {
                if selector.coeffs.len() != depth {
                    return Err(reject(
                        RejectCode::Malformed,
                        format!("reference {i} selector arity mismatch"),
                    ));
                }
                if *table >= cert.tables.len() {
                    return Err(reject(
                        RejectCode::Structure,
                        format!(
                            "reference {i} names table {} of {}",
                            table,
                            cert.tables.len()
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Recounts units as maximal runs of lexicographically consecutive points
/// sharing their first `unit_prefix` coordinates; returns per-point unit ids
/// and per-unit point ranges.
fn recount_units(cert: &Certificate, dom: &Domain) -> (Vec<usize>, Vec<(usize, usize)>) {
    let prefix = cert.unit_prefix;
    let mut unit_of = Vec::with_capacity(dom.points().len());
    let mut units: Vec<(usize, usize)> = Vec::new();
    for (i, p) in dom.points().enumerate() {
        if i == 0 || dom.point(i - 1)[..prefix] != p[..prefix] {
            units.push((i, 0));
        }
        let last = units.len() - 1;
        units[last].1 += 1;
        unit_of.push(last);
    }
    (unit_of, units)
}

struct Placement {
    /// `(round, core, position-on-that-core-in-that-round)` per group.
    group_pos: Vec<(usize, usize, usize)>,
    /// Owning group index per unit.
    group_of: Vec<usize>,
}

fn check_coverage(cert: &Certificate, units: &[(usize, usize)]) -> Result<Placement, Rejection> {
    if cert.n_units != units.len() {
        return Err(reject(
            RejectCode::Coverage,
            format!(
                "certificate claims {} units, recount finds {}",
                cert.n_units,
                units.len()
            ),
        ));
    }
    if cert.unit_sizes.len() != units.len() {
        return Err(reject(
            RejectCode::Coverage,
            format!(
                "unit_sizes lists {} entries for {} units",
                cert.unit_sizes.len(),
                units.len()
            ),
        ));
    }
    for (u, (&claimed, &(_, actual))) in cert.unit_sizes.iter().zip(units).enumerate() {
        if claimed != actual {
            return Err(reject(
                RejectCode::Coverage,
                format!("unit {u} claims {claimed} iterations, recount finds {actual}"),
            ));
        }
    }
    let mut owner: Vec<Option<usize>> = vec![None; units.len()];
    let mut group_pos = Vec::with_capacity(cert.schedule.len());
    let mut pos_count: HashMap<(usize, usize), usize> = HashMap::new();
    for (gid, g) in cert.schedule.iter().enumerate() {
        if g.core >= cert.n_cores {
            return Err(reject(
                RejectCode::Structure,
                format!(
                    "group {gid} is placed on core {} of {}",
                    g.core, cert.n_cores
                ),
            ));
        }
        let pos = pos_count.entry((g.round, g.core)).or_insert(0);
        group_pos.push((g.round, g.core, *pos));
        *pos += 1;
        for &u in &g.units {
            if u >= units.len() {
                return Err(reject(
                    RejectCode::Coverage,
                    format!(
                        "group {gid} references unit {u} but only {} units exist",
                        units.len()
                    ),
                ));
            }
            if let Some(prev) = owner[u] {
                return Err(reject(
                    RejectCode::Coverage,
                    format!("unit {u} is scheduled by groups {prev} and {gid}"),
                ));
            }
            owner[u] = Some(gid);
        }
    }
    let mut group_of = Vec::with_capacity(units.len());
    for (u, o) in owner.iter().enumerate() {
        match o {
            Some(g) => group_of.push(*g),
            None => {
                return Err(reject(
                    RejectCode::Coverage,
                    format!("unit {u} is not scheduled by any group"),
                ))
            }
        }
    }
    Ok(Placement {
        group_pos,
        group_of,
    })
}

fn check_pair_set(cert: &Certificate) -> Result<(), Rejection> {
    let mut expected: BTreeSet<(usize, usize)> = BTreeSet::new();
    for i in 0..cert.refs.len() {
        for j in i..cert.refs.len() {
            let (a, b) = (&cert.refs[i], &cert.refs[j]);
            if a.array == b.array && (a.write || b.write) {
                expected.insert((i, j));
            }
        }
    }
    let mut got: BTreeSet<(usize, usize)> = BTreeSet::new();
    for p in &cert.pairs {
        if p.ref_a >= cert.refs.len() || p.ref_b >= cert.refs.len() {
            return Err(reject(
                RejectCode::Structure,
                format!(
                    "pair ({}, {}) names a reference out of range",
                    p.ref_a, p.ref_b
                ),
            ));
        }
        if p.ref_a > p.ref_b {
            return Err(reject(
                RejectCode::Malformed,
                format!("pair ({}, {}) is not in canonical order", p.ref_a, p.ref_b),
            ));
        }
        if !got.insert((p.ref_a, p.ref_b)) {
            return Err(reject(
                RejectCode::PairCoverage,
                format!("pair ({}, {}) is disposed twice", p.ref_a, p.ref_b),
            ));
        }
    }
    if let Some(&(a, b)) = expected.difference(&got).next() {
        return Err(reject(
            RejectCode::PairCoverage,
            format!("conflicting pair ({a}, {b}) has no disposition"),
        ));
    }
    if let Some(&(a, b)) = got.difference(&expected).next() {
        return Err(reject(
            RejectCode::PairCoverage,
            format!("pair ({a}, {b}) cannot conflict but carries a disposition"),
        ));
    }
    Ok(())
}

fn check_distance_shapes(cert: &Certificate, p: &CertPair) -> Result<(), Rejection> {
    let label = format!("pair ({}, {})", p.ref_a, p.ref_b);
    for d in p.distances.iter().chain(&p.candidates) {
        if d.len() != cert.depth {
            return Err(reject(
                RejectCode::Malformed,
                format!("{label}: distance arity mismatch"),
            ));
        }
        match d.iter().find(|&&x| x != 0) {
            None => {
                return Err(reject(
                    RejectCode::Malformed,
                    format!("{label}: the zero vector is not a loop-carried distance"),
                ))
            }
            Some(&first) if first < 0 => {
                return Err(reject(
                    RejectCode::Malformed,
                    format!("{label}: distance {d:?} is not lexicographically positive"),
                ))
            }
            _ => {}
        }
    }
    for (d, w) in &p.witnesses {
        if d.len() != cert.depth || w.len() != cert.depth {
            return Err(reject(
                RejectCode::Malformed,
                format!("{label}: witness arity mismatch"),
            ));
        }
    }
    Ok(())
}

/// Validates every carried witness: both endpoints in the domain, and the
/// substitution exhibits the conflict in one orientation.
fn check_witnesses(cert: &Certificate, dom: &Domain, p: &CertPair) -> Result<usize, Rejection> {
    let label = format!("pair ({}, {})", p.ref_a, p.ref_b);
    let (ra, rb) = (&cert.refs[p.ref_a], &cert.refs[p.ref_b]);
    for (d, w) in &p.witnesses {
        if dom.cells.find(w, d, 0).is_none() {
            return Err(reject(
                RejectCode::Witness,
                format!("{label}: witness point {w:?} is outside the iteration domain"),
            ));
        }
        let Some(j) = dom.find(w, d) else {
            let shifted: Vec<i128> = w
                .iter()
                .zip(d)
                .map(|(&x, &y)| i128::from(x) + i128::from(y))
                .collect();
            return Err(reject(
                RejectCode::Witness,
                format!("{label}: witness endpoint {shifted:?} is outside the iteration domain"),
            ));
        };
        let shifted = dom.point(j);
        let fwd = concrete_element(cert, ra, w)? == concrete_element(cert, rb, shifted)?;
        let bwd = concrete_element(cert, rb, w)? == concrete_element(cert, ra, shifted)?;
        if !fwd && !bwd {
            return Err(reject(
                RejectCode::Witness,
                format!(
                    "{label}: substituting witness {w:?} (distance {d:?}) into the \
                     subscripts exhibits no conflict in either orientation"
                ),
            ));
        }
    }
    Ok(p.witnesses.len())
}

/// Re-derives the uniformly-generated distance: equal linear parts, constant
/// rows matching, single-variable `±1` rows pinning every variable.
fn expected_uniform(
    dom: &Domain,
    rows_a: &[CertExpr],
    rows_b: &[CertExpr],
) -> Result<Vec<Vec<i64>>, String> {
    let depth = dom.depth;
    if rows_a.len() != rows_b.len() {
        return Err("subscript rank mismatch".to_owned());
    }
    if rows_a
        .iter()
        .zip(rows_b)
        .any(|(ea, eb)| ea.coeffs != eb.coeffs)
    {
        return Err("linear parts differ".to_owned());
    }
    let mut delta: Vec<Option<i128>> = vec![None; depth];
    for (ea, eb) in rows_a.iter().zip(rows_b) {
        let nz: Vec<usize> = (0..depth).filter(|&v| ea.coeffs[v] != 0).collect();
        match nz.as_slice() {
            [] => {
                if ea.constant != eb.constant {
                    return Ok(Vec::new()); // constant rows differ: no conflict ever
                }
            }
            [v] if ea.coeffs[*v].unsigned_abs() == 1 => {
                let gap = i128::from(eb.constant) - i128::from(ea.constant);
                let val = gap * i128::from(ea.coeffs[*v]);
                match delta[*v] {
                    None => delta[*v] = Some(val),
                    Some(prev) if prev == val => {}
                    Some(_) => return Ok(Vec::new()), // contradictory rows: no conflict
                }
            }
            _ => return Err("a row is coupled or scaled".to_owned()),
        }
    }
    let delta: Vec<i128> = (delta.into_iter().collect::<Option<_>>())
        .ok_or_else(|| "the rows do not pin every variable".to_owned())?;
    let Some(&lead) = delta.iter().find(|&&x| x != 0) else {
        return Ok(Vec::new()); // the only conflict is intra-iteration
    };
    // Lexicographically normalized; one beyond `i64` spans more than the
    // box, so no pair of points realizes it.
    let d = delta.iter().map(|&x| i64::try_from(x * lead.signum()));
    let Ok(d) = d.collect::<Result<Vec<i64>, _>>() else {
        return Ok(Vec::new());
    };
    let realized = dom.points().any(|p| dom.find(p, &d).is_some());
    Ok(if realized { vec![d] } else { Vec::new() })
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Re-runs the GCD and Banerjee screens over the exact box; `true` if some
/// row proves independence.
fn rescreen(rows_a: &[CertExpr], rows_b: &[CertExpr], bx: &[(i64, i64)]) -> bool {
    if rows_a.len() != rows_b.len() {
        return false;
    }
    for (ea, eb) in rows_a.iter().zip(rows_b) {
        let mut g = 0;
        for &c in ea.coeffs.iter().chain(&eb.coeffs) {
            g = gcd(g, c.unsigned_abs());
        }
        let gap = i128::from(eb.constant) - i128::from(ea.constant);
        if g == 0 {
            if gap != 0 {
                return true;
            }
        } else if gap.rem_euclid(i128::from(g)) != 0 {
            return true;
        }
        let ranges = (expr_range(ea, bx), expr_range(eb, bx));
        if let (Some((alo, ahi)), Some((blo, bhi))) = ranges {
            if ahi < blo || bhi < alo {
                return true;
            }
        }
    }
    false
}

fn distances_set(rows: &[Vec<i64>]) -> BTreeSet<Vec<i64>> {
    rows.iter().cloned().collect()
}

/// Candidate-carried checking for a symbolic pair when exact re-derivation
/// is over budget: every claimed distance must be a witnessed candidate, and
/// every unclaimed candidate must be refuted by a realization scan. Trusts
/// the candidate set's completeness (the Fourier–Motzkin claim).
fn check_against_candidates(
    dom: &Domain,
    p: &CertPair,
    realized: impl Fn(&[i64], &[i64]) -> bool,
) -> Result<(), Rejection> {
    let label = format!("pair ({}, {})", p.ref_a, p.ref_b);
    let cands = distances_set(&p.candidates);
    let claimed = distances_set(&p.distances);
    if let Some(d) = claimed.difference(&cands).next() {
        return Err(reject(
            RejectCode::Recheck,
            format!("{label}: claimed distance {d:?} is not a projection candidate"),
        ));
    }
    let witnessed: BTreeSet<&Vec<i64>> = p.witnesses.iter().map(|(d, _)| d).collect();
    if let Some(d) = claimed.iter().find(|d| !witnessed.contains(d)) {
        return Err(reject(
            RejectCode::Witness,
            format!("{label}: claimed distance {d:?} carries no witness"),
        ));
    }
    for c in cands.difference(&claimed) {
        let hit = dom.points().find(|&pt| {
            dom.find(pt, c)
                .is_some_and(|j| realized(pt, dom.point(j)) || realized(dom.point(j), pt))
        });
        if let Some(pt) = hit {
            return Err(reject(
                RejectCode::Recheck,
                format!(
                    "{label}: candidate {c:?} is realized at {pt:?} but not among \
                     the claimed distances"
                ),
            ));
        }
    }
    Ok(())
}

/// Rechecks one pair by its method; `Ok(false)` when the exact
/// re-derivation was over the work cap and candidate sets were trusted.
#[allow(clippy::too_many_lines)]
fn check_pair(
    cert: &Certificate,
    dom: &Domain,
    bx: &[(i64, i64)],
    repeat: &dyn Fn(usize) -> Option<u64>,
    p: &CertPair,
) -> Result<bool, Rejection> {
    let label = format!("pair ({}, {})", p.ref_a, p.ref_b);
    let (ra, rb) = (&cert.refs[p.ref_a], &cert.refs[p.ref_b]);
    let claimed = distances_set(&p.distances);
    let method_fail = |what: String| reject(RejectCode::Recheck, format!("{label}: {what}"));
    let disagree = |derived: &BTreeSet<Vec<i64>>, with: &str| {
        method_fail(format!(
            "claimed distances {:?} disagree with the {with} ({} distance(s))",
            p.distances,
            derived.len()
        ))
    };
    // The screens, which must claim no distances.
    let screen = match p.method.as_str() {
        "screened" => Some("a screened pair"),
        "index-range" => Some("a range-screened pair"),
        "index-banded" => Some("a band-screened pair"),
        "uniform" | "symbolic" | "index-injective" | "enumerated" => None,
        other => {
            return Err(reject(
                RejectCode::Malformed,
                format!("{label}: unknown disposition method `{other}`"),
            ))
        }
    };
    let (enumerated, mut exact) = (p.method == "enumerated", true);
    if !enumerated {
        if let Some(what) = screen.filter(|_| !claimed.is_empty()) {
            return Err(method_fail(format!("{what} must claim no distances")));
        }
        if dom.coords.is_empty() {
            if !claimed.is_empty() {
                return Err(method_fail(
                    "distances claimed over an empty domain".to_owned(),
                ));
            }
            return Ok(exact);
        }
        // Methods other than `enumerated` reason over unclamped subscripts and
        // therefore require the references in bounds (as the analyzer did).
        require_in_bounds(cert, ra, p.ref_a, bx)?;
        require_in_bounds(cert, rb, p.ref_b, bx)?;
    }
    let affine_rows = |which: usize| match &cert.refs[which].subscript {
        CertSubscript::Affine(rows) => Ok(&rows[..]),
        CertSubscript::Indirect { .. } => Err(method_fail(format!(
            "method `{}` needs an affine reference {which}",
            p.method
        ))),
    };
    let indirect = |which: usize| match &cert.refs[which].subscript {
        CertSubscript::Indirect { selector, table } => Ok((selector, *table)),
        CertSubscript::Affine(_) => Err(method_fail(
            "injective reduction needs indirect references".to_owned(),
        )),
    };
    match p.method.as_str() {
        "uniform" => {
            let expected = expected_uniform(dom, affine_rows(p.ref_a)?, affine_rows(p.ref_b)?)
                .map_err(|e| method_fail(format!("pair is not uniformly generated: {e}")))?;
            if claimed != distances_set(&expected) {
                return Err(method_fail(format!(
                    "claimed distances {:?} disagree with the uniform re-derivation {:?}",
                    p.distances, expected
                )));
            }
        }
        "screened" => {
            let independent = rescreen(affine_rows(p.ref_a)?, affine_rows(p.ref_b)?, bx);
            if !independent {
                return Err(method_fail(
                    "neither the GCD nor the bounds screen re-proves independence".to_owned(),
                ));
            }
        }
        "index-range" => {
            let side_range = |r: &CertRef| -> Result<(u64, u64), Rejection> {
                dom.points().try_fold((u64::MAX, 0), |(lo, hi), pt| {
                    let e = concrete_element(cert, r, pt)?;
                    Ok((lo.min(e), hi.max(e)))
                })
            };
            let (alo, ahi) = side_range(ra)?;
            let (blo, bhi) = side_range(rb)?;
            if !(ahi < blo || bhi < alo) {
                return Err(method_fail(format!(
                    "exact element ranges [{alo}, {ahi}] and [{blo}, {bhi}] overlap"
                )));
            }
        }
        "symbolic" | "index-injective" => {
            // Conflicts are equal subscript rows, or equal selectors into an injective table.
            let (rows_a, rows_b, what) = if p.method == "symbolic" {
                let rows = (affine_rows(p.ref_a)?, affine_rows(p.ref_b)?);
                (rows.0, rows.1, "exact conflict re-derivation")
            } else {
                let (sel_a, tbl_a) = indirect(p.ref_a)?;
                let (sel_b, tbl_b) = indirect(p.ref_b)?;
                if cert.tables[tbl_a].values != cert.tables[tbl_b].values {
                    return Err(method_fail(
                        "injective reduction needs the same table on both sides".to_owned(),
                    ));
                }
                // Verify injectivity directly (the reduction's premise).
                if let Some(v) = repeat(tbl_a) {
                    return Err(method_fail(format!(
                        "the shared table is not injective (value {v} repeats)"
                    )));
                }
                let rows = (std::slice::from_ref(sel_a), std::slice::from_ref(sel_b));
                (rows.0, rows.1, "exact selector-conflict re-derivation")
            };
            // Both references are in bounds over the box, so every point's
            // rows evaluate exactly (see `expr_range`).
            let exact_at = |e: &CertExpr, pt: &[i64]| e.eval(pt).expect("in bounds over the box");
            let key_a = |pt: &[i64], r: usize| exact_at(&rows_a[r], pt);
            let key_b = |pt: &[i64], r: usize| exact_at(&rows_b[r], pt);
            let other = (rows_a != rows_b).then_some(&key_b as Key<'_>);
            match exact_distances(dom, bx, rows_a.len(), &key_a, other) {
                Some(derived) if claimed != derived => return Err(disagree(&derived, what)),
                Some(_) => {}
                None => {
                    exact = false;
                    check_against_candidates(dom, p, |s, t| {
                        (0..rows_a.len()).all(|r| key_a(s, r) == key_b(t, r))
                    })?;
                }
            }
        }
        "index-banded" => {
            // Both sides must have a band: affine rows are band 0, indirect
            // sides need a (tightness-checked) band claim.
            for (r, which) in [(ra, p.ref_a), (rb, p.ref_b)] {
                if let CertSubscript::Indirect { table, .. } = &r.subscript {
                    if cert.tables[*table].facts.band.is_none() {
                        return Err(method_fail(format!(
                            "reference {which} has no band claim to widen"
                        )));
                    }
                }
            }
        }
        _ => {}
    }
    if p.method == "index-banded" || enumerated {
        // Conflicts are equal concrete elements: the pair set holds only
        // pairs on one array. The concrete tables travel with the
        // certificate, so the banded emptiness claim is rechecked exactly
        // when affordable.
        let element = |r: &CertRef, pt: &[i64]| {
            concrete_element(cert, r, pt).map_or(i128::from(u64::MAX), i128::from)
        };
        let key_a = |pt: &[i64], _| element(ra, pt);
        let key_b = |pt: &[i64], _| element(rb, pt);
        let one_function = ra.array == rb.array && ra.subscript == rb.subscript;
        let other = (!one_function).then_some(&key_b as Key<'_>);
        let derived = exact_distances(dom, bx, 1, &key_a, other);
        match derived {
            None if enumerated => {
                return Err(method_fail(
                    "concrete re-enumeration exceeds the checker's work cap".to_owned(),
                ));
            }
            None => exact = false,
            Some(derived) if !enumerated => {
                if let Some(d) = derived.first() {
                    return Err(method_fail(format!(
                        "band-screened pair has a concrete conflict at distance {d:?}"
                    )));
                }
            }
            Some(derived) if claimed != derived => {
                return Err(disagree(&derived, "concrete re-enumeration"));
            }
            Some(_) => {}
        }
    }
    Ok(exact)
}

/// Mirrors the verifier's symbolic race proof: for every unit and every
/// non-zero distance prefix, the unit at `prefix ± δ` must run on the same
/// core or in a different round.
fn check_symbolic_races(
    cert: &Certificate,
    dom: &Domain,
    units: &[(usize, usize)],
    placement: &Placement,
) -> Result<(), Rejection> {
    let prefix = cert.unit_prefix;
    let deltas: BTreeSet<&[i64]> = cert
        .distances
        .iter()
        .map(|d| &d[..prefix])
        .filter(|d| d.iter().any(|&x| x != 0))
        .collect();
    if deltas.is_empty() {
        return Ok(());
    }
    // Units are the distinct prefixes in lexicographic order, so a prefix
    // cell's rank is its unit id.
    let starts = units.iter().map(|&(start, _)| &dom.point(start)[..prefix]);
    let unit_at = Cells::new(&dom.cells.lo[..prefix], &dom.cells.ext[..prefix], starts);
    let placed = |u: usize| {
        let g = placement.group_of[u];
        (placement.group_pos[g].0, placement.group_pos[g].1)
    };
    for (u, &(start, _)) in units.iter().enumerate() {
        let (round, core) = placed(u);
        let p = &dom.point(start)[..prefix];
        for delta in &deltas {
            for sign in [1, -1] {
                let Some(v) = unit_at.find(p, delta, sign) else {
                    continue;
                };
                let (r2, c2) = placed(v);
                if r2 == round && c2 != core {
                    return Err(reject(
                        RejectCode::Placement,
                        format!(
                            "units {u} and {v} share round {round} on cores {core} and {c2} \
                             with dependence direction {delta:?}; the symbolic race proof \
                             does not hold"
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Mirrors the verifier's group-granularity dependence-order check: every
/// cross-group dependence edge must run source-before-sink.
fn check_dependence_order(
    cert: &Certificate,
    dom: &Domain,
    unit_of: &[usize],
    placement: &Placement,
) -> Result<(), Rejection> {
    let prefix = cert.unit_prefix;
    let cross: Vec<&Vec<i64>> = cert
        .distances
        .iter()
        .filter(|d| d[..prefix].iter().any(|&x| x != 0))
        .collect();
    if cross.is_empty() {
        return Ok(());
    }
    for (i, p) in dom.points().enumerate() {
        let ga = placement.group_of[unit_of[i]];
        for d in &cross {
            let Some(j) = dom.find(p, d) else {
                continue;
            };
            let gb = placement.group_of[unit_of[j]];
            if ga == gb {
                continue;
            }
            let (ra, ca, pa) = placement.group_pos[ga];
            let (rb, cb, pb) = placement.group_pos[gb];
            let legal = ra < rb || (ra == rb && ca == cb && pa < pb);
            if !legal {
                return Err(reject(
                    RejectCode::Placement,
                    format!(
                        "dependence {d:?} flows from group {ga} (round {ra}, core {ca}) \
                         to group {gb} (round {rb}, core {cb}) against execution order"
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// Element-granularity round scan for enumerated verdicts: within one round
/// no element may be written by one core and touched by another.
fn check_element_races(
    cert: &Certificate,
    dom: &Domain,
    units: &[(usize, usize)],
) -> Result<(), Rejection> {
    // (round, array, element) -> (first core, any write).
    let mut seen: HashMap<(usize, usize, u64), (usize, bool)> = HashMap::new();
    for g in &cert.schedule {
        for &u in &g.units {
            let (start, len) = units[u];
            for i in start..start + len {
                for (ridx, r) in cert.refs.iter().enumerate() {
                    let elem = concrete_element(cert, r, dom.point(i))?;
                    let entry = seen
                        .entry((g.round, r.array, elem))
                        .or_insert((g.core, false));
                    if entry.0 != g.core && (entry.1 || r.write) {
                        return Err(reject(
                            RejectCode::Placement,
                            format!(
                                "cores {} and {} touch element {elem} of `{}` (reference \
                                 {ridx}) in round {} with a write and no barrier between",
                                entry.0, g.core, cert.arrays[r.array].name, g.round
                            ),
                        ));
                    }
                    entry.1 |= r.write;
                }
            }
        }
    }
    Ok(())
}

/// Checks a certificate from first principles.
///
/// # Errors
///
/// The first violated obligation, as a coded [`Rejection`].
pub fn check_certificate(cert: &Certificate) -> Result<CheckStats, Rejection> {
    check_shapes(cert)?;
    let dom = enumerate_domain(cert)?;
    let (unit_of, units) = recount_units(cert, &dom);
    let placement = check_coverage(cert, &units)?;
    let repeats = vec![OnceCell::new(); cert.tables.len()];
    let repeat = |t: usize| *repeats[t].get_or_init(|| first_repeat(&cert.tables[t].values));
    for (i, t) in cert.tables.iter().enumerate() {
        check_table(i, t, t.facts.injective.then(|| repeat(i)).flatten())?;
    }
    check_pair_set(cert)?;

    let mut stats = CheckStats {
        n_points: dom.points().len(),
        n_units: units.len(),
        n_pairs: cert.pairs.len(),
        ..CheckStats::default()
    };
    let bx = exact_box(&dom).unwrap_or_default();
    let mut merged: BTreeSet<Vec<i64>> = BTreeSet::new();
    let mut any_index_facts = false;
    let mut any_enumerated = false;
    for p in &cert.pairs {
        check_distance_shapes(cert, p)?;
        stats.n_witnesses += check_witnesses(cert, &dom, p)?;
        if check_pair(cert, &dom, &bx, &repeat, p)? {
            stats.n_exact_rederivations += 1;
        }
        any_index_facts |= p.method.starts_with("index-");
        any_enumerated |= p.method == "enumerated";
        merged.extend(p.distances.iter().cloned());
    }
    if merged != distances_set(&cert.distances) {
        return Err(reject(
            RejectCode::PairCoverage,
            format!(
                "merged distance set lists {} vector(s) but the pair union holds {}",
                cert.distances.len(),
                merged.len()
            ),
        ));
    }

    match cert.verdict {
        Verdict::SymbolicProof => {
            if any_enumerated {
                return Err(reject(
                    RejectCode::VerdictMismatch,
                    "a symbolic-proof verdict cannot rest on an enumerated pair",
                ));
            }
            if any_index_facts {
                return Err(reject(
                    RejectCode::VerdictMismatch,
                    "index-array facts carry this proof; the verdict must say so",
                ));
            }
        }
        Verdict::IndexFactProof => {
            if any_enumerated {
                return Err(reject(
                    RejectCode::VerdictMismatch,
                    "an index-fact-proof verdict cannot rest on an enumerated pair",
                ));
            }
            if !any_index_facts {
                return Err(reject(
                    RejectCode::VerdictMismatch,
                    "no pair uses index-array facts; the verdict claims they carry the proof",
                ));
            }
        }
        Verdict::Enumerated => {}
    }

    match cert.verdict {
        Verdict::SymbolicProof | Verdict::IndexFactProof => {
            check_symbolic_races(cert, &dom, &units, &placement)?;
        }
        Verdict::Enumerated => {
            check_element_races(cert, &dom, &units)?;
        }
    }
    check_dependence_order(cert, &dom, &unit_of, &placement)?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{
        CertArray, CertConstraint, CertFacts, CertGroup, CertSubscript, Certificate,
    };

    fn expr(coeffs: Vec<i64>, constant: i64) -> CertExpr {
        CertExpr { coeffs, constant }
    }

    /// A 1-D chain: write A[i], read A[i-1] over i in [1, n); two cores in
    /// two rounds, first half then second half.
    fn chain(n: i64) -> Certificate {
        let half = ((n - 1) / 2) as usize;
        let units: Vec<usize> = (0..(n - 1) as usize).collect();
        Certificate {
            nest: 0,
            nest_name: "chain".to_owned(),
            machine: "toy".to_owned(),
            n_cores: 2,
            block_bytes: 64,
            depth: 1,
            unit_prefix: 1,
            domain: vec![
                CertConstraint {
                    coeffs: vec![1],
                    constant: -1,
                    eq: false,
                },
                CertConstraint {
                    coeffs: vec![-1],
                    constant: n - 1,
                    eq: false,
                },
            ],
            arrays: vec![CertArray {
                name: "A".to_owned(),
                dims: vec![n as u64],
                elem_bytes: 8,
            }],
            refs: vec![
                crate::model::CertRef {
                    array: 0,
                    write: true,
                    subscript: CertSubscript::Affine(vec![expr(vec![1], 0)]),
                },
                crate::model::CertRef {
                    array: 0,
                    write: false,
                    subscript: CertSubscript::Affine(vec![expr(vec![1], -1)]),
                },
            ],
            n_units: (n - 1) as usize,
            unit_sizes: vec![1; (n - 1) as usize],
            schedule: vec![
                CertGroup {
                    round: 0,
                    core: 0,
                    units: units[..half].to_vec(),
                },
                CertGroup {
                    round: 1,
                    core: 1,
                    units: units[half..].to_vec(),
                },
            ],
            distances: vec![vec![1]],
            pairs: vec![
                CertPair {
                    ref_a: 0,
                    ref_b: 0,
                    method: "uniform".to_owned(),
                    distances: vec![],
                    candidates: vec![],
                    witnesses: vec![],
                },
                CertPair {
                    ref_a: 0,
                    ref_b: 1,
                    method: "uniform".to_owned(),
                    distances: vec![vec![1]],
                    candidates: vec![],
                    witnesses: vec![(vec![1], vec![1])],
                },
            ],
            tables: vec![],
            verdict: Verdict::SymbolicProof,
        }
    }

    #[test]
    fn accepts_a_valid_chain_certificate() {
        let c = chain(9);
        let stats = check_certificate(&c).unwrap();
        assert_eq!(stats.n_points, 8);
        assert_eq!(stats.n_units, 8);
        assert_eq!(stats.n_pairs, 2);
        assert_eq!(stats.n_witnesses, 1);
    }

    #[test]
    fn rejects_cross_core_same_round_dependence() {
        let mut c = chain(9);
        // Flatten the two rounds: the chain dependence now crosses cores
        // within round 0 — both the race proof and the order check break.
        c.schedule[1].round = 0;
        let r = check_certificate(&c).unwrap_err();
        assert_eq!(r.code, RejectCode::Placement, "{r}");
    }

    #[test]
    fn rejects_bad_witness_and_missing_unit() {
        let mut c = chain(9);
        c.pairs[1].witnesses[0].1 = vec![1 << 40];
        assert_eq!(check_certificate(&c).unwrap_err().code, RejectCode::Witness);
        let mut c = chain(9);
        c.schedule[0].units.pop();
        assert_eq!(
            check_certificate(&c).unwrap_err().code,
            RejectCode::Coverage
        );
    }

    #[test]
    fn rejects_tampered_distances() {
        let mut c = chain(9);
        c.pairs[1].distances = vec![vec![2]];
        c.distances = vec![vec![2]];
        assert_eq!(check_certificate(&c).unwrap_err().code, RejectCode::Recheck);
    }

    #[test]
    fn rejects_unbounded_domains() {
        let mut c = chain(9);
        c.domain.remove(1);
        assert_eq!(
            check_certificate(&c).unwrap_err().code,
            RejectCode::Malformed
        );
    }

    #[test]
    fn witness_endpoints_are_computed_exactly() {
        let mut c = chain(9);
        c.pairs[1].witnesses[0].0 = vec![i64::MAX];
        let r = check_certificate(&c).unwrap_err();
        assert_eq!(r.code, RejectCode::Witness);
        assert_eq!(
            r.detail,
            "pair (0, 1): witness endpoint [9223372036854775808] is outside the iteration domain"
        );
    }

    #[test]
    fn subscripts_are_evaluated_exactly() {
        // `A[i64::MAX · i − 1]` clamps to the last element at every point.
        let mut c = chain(9);
        c.refs[1].subscript = CertSubscript::Affine(vec![expr(vec![i64::MAX], -1)]);
        c.pairs[1].method = "enumerated".to_owned();
        c.pairs[1].witnesses.clear();
        let r = check_certificate(&c).unwrap_err();
        assert_eq!(r.code, RejectCode::Recheck);
        assert_eq!(
            r.detail,
            "pair (0, 1): claimed distances [[1]] disagree with the concrete \
             re-enumeration (7 distance(s))"
        );
    }

    #[test]
    fn screens_take_coefficients_of_any_magnitude() {
        // `A[i + i64::MIN · j]` over `j = 0`: in bounds, and the GCD of its
        // coefficients is 1.
        let mut c = chain(9);
        c.depth = 2;
        c.unit_prefix = 2;
        for row in &mut c.domain {
            row.coeffs.push(0);
        }
        let pin = |x: i64| CertConstraint {
            coeffs: vec![0, x],
            constant: 0,
            eq: false,
        };
        c.domain.extend([pin(1), pin(-1)]);
        for r in &mut c.refs {
            let CertSubscript::Affine(rows) = &mut r.subscript else {
                unreachable!()
            };
            rows[0].coeffs.push(i64::MIN);
        }
        for p in &mut c.pairs {
            p.method = "screened".to_owned();
            p.distances.clear();
            p.witnesses.clear();
        }
        let r = check_certificate(&c).unwrap_err();
        assert_eq!(r.code, RejectCode::Recheck);
        assert_eq!(
            r.detail,
            "pair (0, 0): neither the GCD nor the bounds screen re-proves independence"
        );
    }

    #[test]
    fn uniform_distances_are_derived_exactly() {
        // `A[i - 8]` against `A[i + i64::MAX]` at `i = 8`: their distance,
        // 2^63 + 7, fits no `i64`, and no two points realize it.
        let mut c = chain(9);
        c.domain[0].constant = -8;
        c.arrays[0].dims = vec![u64::MAX];
        c.refs[0].subscript = CertSubscript::Affine(vec![expr(vec![1], -8)]);
        c.refs[1].subscript = CertSubscript::Affine(vec![expr(vec![1], i64::MAX)]);
        c.n_units = 1;
        c.unit_sizes = vec![1];
        c.schedule.truncate(1);
        c.schedule[0].units = vec![0];
        c.distances.clear();
        c.pairs[1].distances.clear();
        c.pairs[1].witnesses.clear();
        let stats = check_certificate(&c).unwrap();
        assert_eq!((stats.n_points, stats.n_exact_rederivations), (1, 2));
    }

    #[test]
    fn box_volumes_past_u128_are_refused() {
        // Three variables of 2^43 values each: 2^129 cells.
        let mut c = chain(9);
        c.depth = 3;
        c.unit_prefix = 3;
        c.domain = (0..3)
            .flat_map(|v| {
                let unit = |x: i64| (0..3).map(|u| if u == v { x } else { 0 }).collect();
                [(unit(1), 0), (unit(-1), (1 << 43) - 1)]
            })
            .map(|(coeffs, constant)| CertConstraint {
                coeffs,
                constant,
                eq: false,
            })
            .collect();
        for r in &mut c.refs {
            let CertSubscript::Affine(rows) = &mut r.subscript else {
                unreachable!()
            };
            rows[0].coeffs = vec![1, 0, 0];
        }
        let r = check_certificate(&c).unwrap_err();
        assert_eq!(r.code, RejectCode::Malformed);
        assert_eq!(
            r.detail,
            "domain box holds over 2^128 points, over the checker's cap"
        );
    }

    #[test]
    fn arrays_past_64_bits_of_elements_are_refused() {
        // `A[i + 2^39][i]` over a 2^40 × 2^40 array: its flat element
        // index needs 80 bits.
        let mut c = chain(9);
        c.arrays[0].dims = vec![1 << 40, 1 << 40];
        for r in &mut c.refs {
            r.subscript = CertSubscript::Affine(vec![expr(vec![1], 1 << 39), expr(vec![1], 0)]);
        }
        c.pairs[1].method = "enumerated".to_owned();
        c.pairs[1].witnesses.clear();
        let r = check_certificate(&c).unwrap_err();
        assert_eq!(r.code, RejectCode::Structure);
        assert_eq!(r.detail, "array `A` holds over 2^64 elements");
    }

    /// The one point `(1 − 2^63, 1 − 2^63, 1 − 2^63)`, written by `A[e]`
    /// and read by `A[0]`; the read and write are uniform pairs.
    fn corner(e: CertExpr) -> Certificate {
        let mut c = chain(9);
        c.depth = 3;
        c.unit_prefix = 3;
        c.domain = (0..3)
            .map(|v| CertConstraint {
                coeffs: (0..3).map(|u| i64::from(u == v)).collect(),
                constant: i64::MAX,
                eq: true,
            })
            .collect();
        c.refs[0].subscript = CertSubscript::Affine(vec![e]);
        c.refs[1].subscript = CertSubscript::Affine(vec![expr(vec![0; 3], 0)]);
        c.n_units = 1;
        c.unit_sizes = vec![1];
        c.schedule.truncate(1);
        c.schedule[0].units = vec![0];
        c.distances.clear();
        for p in &mut c.pairs {
            p.distances.clear();
            p.witnesses.clear();
        }
        c
    }

    #[test]
    fn domain_sums_past_128_bits_are_refused() {
        let mut c = corner(expr(vec![0; 3], 0));
        c.domain.push(CertConstraint {
            coeffs: vec![i64::MIN; 3],
            constant: 0,
            eq: false,
        });
        let r = check_certificate(&c).unwrap_err();
        assert_eq!(r.code, RejectCode::Malformed);
        let at = "[-9223372036854775807, -9223372036854775807, -9223372036854775807]";
        assert_eq!(
            r.detail,
            format!("domain constraint 3 overflows 128 bits at {at}")
        );
    }

    #[test]
    fn subscript_sums_past_128_bits_are_refused() {
        // Three products of nearly 2^126 each, evaluated at a witness.
        let mut c = corner(expr(vec![i64::MIN; 3], 0));
        let point = vec![-i64::MAX; 3];
        c.pairs[0].witnesses = vec![(vec![0; 3], point)];
        let r = check_certificate(&c).unwrap_err();
        assert_eq!(r.code, RejectCode::Malformed);
        let at = "[-9223372036854775807, -9223372036854775807, -9223372036854775807]";
        assert_eq!(
            r.detail,
            format!("a subscript of `A` overflows 128 bits at {at}")
        );
    }

    #[test]
    fn subscript_ranges_past_128_bits_are_refused() {
        // The same sums, bounded over the domain box for the uniform pair.
        let c = corner(expr(vec![i64::MIN; 3], 0));
        let r = check_certificate(&c).unwrap_err();
        assert_eq!(r.code, RejectCode::Structure);
        assert_eq!(
            r.detail,
            "reference 0 row 0 overflows 128 bits over the domain box"
        );
    }

    #[test]
    fn self_joins_derive_what_the_full_product_derives() {
        for (method, verdict) in [
            ("symbolic", Verdict::SymbolicProof),
            ("enumerated", Verdict::Enumerated),
        ] {
            // `A[i] = A[i] + A[i - 1]` on one core: the write with itself
            // and with the read `A[i]` are self-joins (one subscript
            // function), which only `p == q` satisfies.
            let mut c = chain(9);
            c.schedule = vec![CertGroup {
                round: 0,
                core: 0,
                units: (0..8).collect(),
            }];
            c.refs.push(c.refs[0].clone());
            c.refs[2].write = false;
            c.pairs.push(c.pairs[0].clone());
            c.pairs[2].ref_b = 2;
            for p in &mut c.pairs {
                p.method = method.to_owned();
            }
            c.verdict = verdict;
            let stats = check_certificate(&c).unwrap();
            assert_eq!(
                (stats.n_pairs, stats.n_exact_rederivations),
                (3, 3),
                "{method}"
            );
            // `A[3]` everywhere: each pair, self-joins included, realizes
            // every distance 1..=7.
            for r in &mut c.refs {
                r.subscript = CertSubscript::Affine(vec![expr(vec![0], 3)]);
            }
            c.distances = (1..=7).map(|d| vec![d]).collect();
            for p in &mut c.pairs {
                p.distances = c.distances.clone();
            }
            let stats = check_certificate(&c).unwrap();
            assert_eq!(stats.n_exact_rederivations, 3, "{method}");
            // A self pair that leaves one out is caught.
            c.pairs[0].distances.pop();
            let r = check_certificate(&c).unwrap_err();
            assert_eq!(r.code, RejectCode::Recheck, "{method}: {r}");
            assert!(
                r.detail.starts_with("pair (0, 0): claimed distances"),
                "{r}"
            );
        }
    }

    /// `A[t[i]]` written over `i` in `0..4` with `t = [3, 1, 3, 1]`, whose
    /// first repeat in table order (3) is not its smallest repeated value.
    fn gather_with_repeats() -> Certificate {
        let mut c = chain(4);
        c.domain[0].constant = 0;
        c.refs = vec![crate::model::CertRef {
            array: 0,
            write: true,
            subscript: CertSubscript::Indirect {
                selector: expr(vec![1], 0),
                table: 0,
            },
        }];
        c.n_units = 4;
        c.unit_sizes = vec![1; 4];
        c.schedule = vec![CertGroup {
            round: 0,
            core: 0,
            units: vec![0, 1, 2, 3],
        }];
        c.distances = vec![];
        c.pairs = vec![CertPair {
            ref_a: 0,
            ref_b: 0,
            method: "index-injective".to_owned(),
            distances: vec![],
            candidates: vec![],
            witnesses: vec![],
        }];
        c.tables = vec![crate::model::CertTable {
            values: vec![3, 1, 3, 1],
            facts: CertFacts {
                len: 4,
                range: None,
                nondecreasing: false,
                strictly_increasing: false,
                injective: false,
                permutation: false,
                band: None,
            },
        }];
        c.verdict = Verdict::IndexFactProof;
        c
    }

    #[test]
    fn injectivity_reports_the_first_repeat_in_table_order() {
        let mut c = gather_with_repeats();
        let r = check_certificate(&c).unwrap_err();
        assert_eq!(r.code, RejectCode::Recheck);
        assert_eq!(
            r.detail,
            "pair (0, 0): the shared table is not injective (value 3 repeats)"
        );
        c.tables[0].facts.injective = true;
        let r = check_certificate(&c).unwrap_err();
        assert_eq!(r.code, RejectCode::IndexFacts);
        assert_eq!(r.detail, "table 0: claimed injective but value 3 repeats");
    }

    #[test]
    fn rejects_untight_bands() {
        let mut c = chain(9);
        c.tables.push(crate::model::CertTable {
            values: vec![0, 1, 2, 3],
            facts: CertFacts {
                len: 4,
                range: Some((0, 3)),
                nondecreasing: true,
                strictly_increasing: true,
                injective: true,
                permutation: true,
                band: Some(1), // tight band is 0
            },
        });
        assert_eq!(
            check_certificate(&c).unwrap_err().code,
            RejectCode::IndexFacts
        );
    }
}
