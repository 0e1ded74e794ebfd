//! Test-only reference model of the certificate checker: the
//! straightforward first-principles recheck that `ctam_cert::check` must
//! match verdict for verdict.
//!
//! Points are one `Vec<i64>` each, indexed by a `HashMap`; a shifted point
//! is a fresh vector looked up in it. The exact conflict join buckets points
//! by key in two `BTreeMap`s and inserts every matching pair's normalized
//! distance into a `BTreeSet`. Subscripts evaluate in `i64`, and every
//! index-injective pair re-proves its table's injectivity with a set of its
//! own. Its work cap is 2^24 pairwise checks. Nothing here is tuned; it
//! exists so the differential tests can compare `Result`s against it, on
//! inputs small enough and tame enough (every sum fits in `i64`) that it
//! neither overflows nor runs for long.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use ctam_cert::{
    CertExpr, CertPair, CertRef, CertSubscript, CertTable, Certificate, CheckStats, RejectCode,
    Rejection, Verdict,
};

/// Hard cap on the number of enumerated iteration points.
const MAX_POINTS: u128 = 1 << 26;

/// Cap on the pairwise work of an exact conflict-set re-derivation.
const WORK_CAP: u128 = 1 << 24;

fn reject(code: RejectCode, detail: impl Into<String>) -> Rejection {
    Rejection {
        code,
        detail: detail.into(),
    }
}

/// `e` at `point`, in `i64`.
fn eval(e: &CertExpr, point: &[i64]) -> i64 {
    e.constant + e.coeffs.iter().zip(point).map(|(c, x)| c * x).sum::<i64>()
}

// ---------------------------------------------------------------------------
// Domain enumeration by interval bound propagation.
// ---------------------------------------------------------------------------

fn div_floor128(a: i128, b: i128) -> i128 {
    debug_assert!(b > 0);
    a.div_euclid(b)
}

fn div_ceil128(a: i128, b: i128) -> i128 {
    debug_assert!(b > 0);
    -((-a).div_euclid(b))
}

struct Domain {
    points: Vec<Vec<i64>>,
    index: HashMap<Vec<i64>, usize>,
}

impl Domain {
    fn contains(&self, p: &[i64]) -> bool {
        self.index.contains_key(p)
    }

    fn shifted(&self, p: &[i64], d: &[i64]) -> Vec<i64> {
        p.iter().zip(d).map(|(&x, &dx)| x + dx).collect()
    }
}

fn satisfies(cert: &Certificate, p: &[i64]) -> bool {
    cert.domain.iter().all(|c| {
        let v: i128 = i128::from(c.constant)
            + c.coeffs
                .iter()
                .zip(p)
                .map(|(&a, &x)| i128::from(a) * i128::from(x))
                .sum::<i128>();
        if c.eq {
            v == 0
        } else {
            v >= 0
        }
    })
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
                    let nl = div_ceil128(bound, cv);
                    if lo[v].is_none_or(|l| nl > l) {
                        lo[v] = Some(nl);
                        changed = true;
                    }
                } else {
                    // cv x >= bound with cv < 0  <=>  (-cv) x <= -bound.
                    let nh = div_floor128(-bound, -cv);
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
    let mut points = Vec::new();
    if !empty {
        let volume: u128 = (0..depth)
            .map(|v| (i128::from(box_hi[v]) - i128::from(box_lo[v]) + 1).max(0) as u128)
            .product();
        if volume > MAX_POINTS {
            return Err(reject(
                RejectCode::Malformed,
                format!("domain box holds {volume} points, over the checker's cap"),
            ));
        }
        // Odometer over the box in lexicographic order.
        let mut cur = box_lo.clone();
        'outer: loop {
            if satisfies(cert, &cur) {
                points.push(cur.clone());
            }
            let mut d = depth;
            loop {
                if d == 0 {
                    break 'outer;
                }
                d -= 1;
                if cur[d] < box_hi[d] {
                    cur[d] += 1;
                    break;
                }
                cur[d] = box_lo[d];
            }
        }
    }
    let index = points
        .iter()
        .enumerate()
        .map(|(i, p)| (p.clone(), i))
        .collect();
    Ok(Domain { points, index })
}

// ---------------------------------------------------------------------------
// Reference evaluation (mirrors the program model's concrete semantics).
// ---------------------------------------------------------------------------

/// Concrete flat element touched by `r` at `point`, with the program model's
/// clamp (affine) and wrap (indirect) semantics.
fn concrete_element(cert: &Certificate, r: &CertRef, point: &[i64]) -> Result<u64, Rejection> {
    let dims = &cert.arrays[r.array].dims;
    match &r.subscript {
        CertSubscript::Affine(rows) => {
            let mut flat: u64 = 0;
            for (d, row) in rows.iter().enumerate() {
                let extent = dims[d];
                let clamped = eval(row, point).clamp(0, extent as i64 - 1) as u64;
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
            let sel = eval(selector, point).rem_euclid(t.values.len() as i64);
            Ok(t.values[sel as usize] % n_elements)
        }
    }
}

/// Exact per-variable bounding box of the enumerated points.
fn exact_box(points: &[Vec<i64>], depth: usize) -> Option<Vec<(i64, i64)>> {
    let first = points.first()?;
    let mut bx: Vec<(i64, i64)> = first.iter().map(|&x| (x, x)).collect();
    for p in points {
        for (v, &x) in p.iter().enumerate().take(depth) {
            bx[v].0 = bx[v].0.min(x);
            bx[v].1 = bx[v].1.max(x);
        }
    }
    Some(bx)
}

fn expr_range(e: &CertExpr, bx: &[(i64, i64)]) -> (i128, i128) {
    let mut lo = i128::from(e.constant);
    let mut hi = lo;
    for (v, &(blo, bhi)) in bx.iter().enumerate() {
        let c = i128::from(e.coeffs[v]);
        if c > 0 {
            lo += c * i128::from(blo);
            hi += c * i128::from(bhi);
        } else if c < 0 {
            lo += c * i128::from(bhi);
            hi += c * i128::from(blo);
        }
    }
    (lo, hi)
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
    match &r.subscript {
        CertSubscript::Affine(rows) => {
            for (d, row) in rows.iter().enumerate() {
                let (lo, hi) = expr_range(row, bx);
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
            let (lo, hi) = expr_range(selector, bx);
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
// Exact conflict-set re-derivation by value buckets.
// ---------------------------------------------------------------------------

fn lex_normalize(mut d: Vec<i64>) -> Option<Vec<i64>> {
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

/// Exact set of lexicographically-normalized non-zero distances between
/// iterations where `key_a(p) == key_b(q)`, or `None` when the pairwise work
/// exceeds [`WORK_CAP`].
fn exact_distances_by_key<K: Ord + Clone>(
    points: &[Vec<i64>],
    key_a: impl Fn(&[i64]) -> K,
    key_b: impl Fn(&[i64]) -> K,
) -> Option<BTreeSet<Vec<i64>>> {
    let mut by_a: BTreeMap<K, Vec<usize>> = BTreeMap::new();
    let mut by_b: BTreeMap<K, Vec<usize>> = BTreeMap::new();
    for (i, p) in points.iter().enumerate() {
        by_a.entry(key_a(p)).or_default().push(i);
        by_b.entry(key_b(p)).or_default().push(i);
    }
    let mut work: u128 = 0;
    for (k, la) in &by_a {
        if let Some(lb) = by_b.get(k) {
            work += la.len() as u128 * lb.len() as u128;
            if work > WORK_CAP {
                return None;
            }
        }
    }
    let mut out = BTreeSet::new();
    for (k, la) in &by_a {
        let Some(lb) = by_b.get(k) else { continue };
        for &ia in la {
            for &ib in lb {
                let d: Vec<i64> = points[ib]
                    .iter()
                    .zip(&points[ia])
                    .map(|(x, y)| x - y)
                    .collect();
                if let Some(d) = lex_normalize(d) {
                    out.insert(d);
                }
            }
        }
    }
    Some(out)
}

fn affine_key(rows: &[CertExpr], p: &[i64]) -> Vec<i64> {
    rows.iter().map(|e| eval(e, p)).collect()
}

// ---------------------------------------------------------------------------
// Table facts.
// ---------------------------------------------------------------------------

fn check_table(idx: usize, t: &CertTable) -> Result<(), Rejection> {
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
    if f.injective {
        let mut seen: BTreeSet<u64> = BTreeSet::new();
        for &v in &t.values {
            if !seen.insert(v) {
                return Err(fail(format!("claimed injective but value {v} repeats")));
            }
        }
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
    let mut unit_of = Vec::with_capacity(dom.points.len());
    let mut units: Vec<(usize, usize)> = Vec::new();
    for (i, p) in dom.points.iter().enumerate() {
        let starts_new = match i.checked_sub(1).map(|j| &dom.points[j]) {
            None => true,
            Some(prev) => prev[..prefix] != p[..prefix],
        };
        if starts_new {
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
    let ra = &cert.refs[p.ref_a];
    let rb = &cert.refs[p.ref_b];
    for (d, w) in &p.witnesses {
        if !dom.contains(w) {
            return Err(reject(
                RejectCode::Witness,
                format!("{label}: witness point {w:?} is outside the iteration domain"),
            ));
        }
        let shifted = dom.shifted(w, d);
        if !dom.contains(&shifted) {
            return Err(reject(
                RejectCode::Witness,
                format!("{label}: witness endpoint {shifted:?} is outside the iteration domain"),
            ));
        }
        let fwd = concrete_element(cert, ra, w)? == concrete_element(cert, rb, &shifted)?;
        let bwd = concrete_element(cert, rb, w)? == concrete_element(cert, ra, &shifted)?;
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
    cert: &Certificate,
    dom: &Domain,
    rows_a: &[CertExpr],
    rows_b: &[CertExpr],
) -> Result<Vec<Vec<i64>>, String> {
    let depth = cert.depth;
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
    let mut delta: Vec<Option<i64>> = vec![None; depth];
    for (ea, eb) in rows_a.iter().zip(rows_b) {
        let nz: Vec<usize> = (0..depth).filter(|&v| ea.coeffs[v] != 0).collect();
        match nz.as_slice() {
            [] => {
                if ea.constant != eb.constant {
                    return Ok(Vec::new()); // constant rows differ: no conflict ever
                }
            }
            [v] if ea.coeffs[*v].abs() == 1 => {
                let val = (eb.constant - ea.constant) * ea.coeffs[*v];
                match delta[*v] {
                    None => delta[*v] = Some(val),
                    Some(prev) if prev == val => {}
                    Some(_) => return Ok(Vec::new()), // contradictory rows: no conflict
                }
            }
            _ => return Err("a row is coupled or scaled".to_owned()),
        }
    }
    if delta.iter().any(Option::is_none) {
        return Err("the rows do not pin every variable".to_owned());
    }
    let delta: Vec<i64> = delta.into_iter().map(|x| x.unwrap_or(0)).collect();
    match lex_normalize(delta) {
        None => Ok(Vec::new()), // the only conflict is intra-iteration
        Some(d) => {
            let realized = dom.points.iter().any(|p| dom.contains(&dom.shifted(p, &d)));
            Ok(if realized { vec![d] } else { Vec::new() })
        }
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
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
            g = gcd(g, c);
        }
        let gap = eb.constant - ea.constant;
        if g == 0 {
            if gap != 0 {
                return true;
            }
        } else if gap.rem_euclid(g) != 0 {
            return true;
        }
        let (alo, ahi) = expr_range(ea, bx);
        let (blo, bhi) = expr_range(eb, bx);
        if ahi < blo || bhi < alo {
            return true;
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
        let hit = dom.points.iter().find(|pt| {
            let q = dom.shifted(pt, c);
            dom.contains(&q) && (realized(pt, &q) || realized(&q, pt))
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

struct PairOutcome {
    uses_index_facts: bool,
    enumerated: bool,
    exact: bool,
}

#[allow(clippy::too_many_lines)]
fn check_pair(cert: &Certificate, dom: &Domain, p: &CertPair) -> Result<PairOutcome, Rejection> {
    let label = format!("pair ({}, {})", p.ref_a, p.ref_b);
    let ra = &cert.refs[p.ref_a];
    let rb = &cert.refs[p.ref_b];
    let claimed = distances_set(&p.distances);
    let bx = exact_box(&dom.points, cert.depth);
    let mut outcome = PairOutcome {
        uses_index_facts: false,
        enumerated: false,
        exact: true,
    };
    let method_fail = |what: String| reject(RejectCode::Recheck, format!("{label}: {what}"));
    // Methods other than `enumerated` reason over unclamped subscripts and
    // therefore require the references in bounds (as the analyzer did).
    let symbolic_prereqs = |cert: &Certificate| -> Result<Vec<(i64, i64)>, Rejection> {
        let bx = bx
            .clone()
            .ok_or_else(|| method_fail("symbolic disposition over an empty domain".to_owned()))?;
        require_in_bounds(cert, ra, p.ref_a, &bx)?;
        require_in_bounds(cert, rb, p.ref_b, &bx)?;
        Ok(bx)
    };
    let affine_rows = |r: &CertRef, which: usize| -> Result<Vec<CertExpr>, Rejection> {
        match &r.subscript {
            CertSubscript::Affine(rows) => Ok(rows.clone()),
            CertSubscript::Indirect { .. } => Err(method_fail(format!(
                "method `{}` needs an affine reference {which}",
                p.method
            ))),
        }
    };
    match p.method.as_str() {
        "uniform" => {
            if dom.points.is_empty() {
                if !claimed.is_empty() {
                    return Err(method_fail(
                        "distances claimed over an empty domain".to_owned(),
                    ));
                }
                return Ok(outcome);
            }
            symbolic_prereqs(cert)?;
            let rows_a = affine_rows(ra, p.ref_a)?;
            let rows_b = affine_rows(rb, p.ref_b)?;
            let expected = expected_uniform(cert, dom, &rows_a, &rows_b)
                .map_err(|e| method_fail(format!("pair is not uniformly generated: {e}")))?;
            if claimed != distances_set(&expected) {
                return Err(method_fail(format!(
                    "claimed distances {:?} disagree with the uniform re-derivation {:?}",
                    p.distances, expected
                )));
            }
        }
        "screened" => {
            if !claimed.is_empty() {
                return Err(method_fail(
                    "a screened pair must claim no distances".to_owned(),
                ));
            }
            if dom.points.is_empty() {
                return Ok(outcome);
            }
            let bx = symbolic_prereqs(cert)?;
            let rows_a = affine_rows(ra, p.ref_a)?;
            let rows_b = affine_rows(rb, p.ref_b)?;
            if !rescreen(&rows_a, &rows_b, &bx) {
                return Err(method_fail(
                    "neither the GCD nor the bounds screen re-proves independence".to_owned(),
                ));
            }
        }
        "symbolic" => {
            if dom.points.is_empty() {
                if !claimed.is_empty() {
                    return Err(method_fail(
                        "distances claimed over an empty domain".to_owned(),
                    ));
                }
                return Ok(outcome);
            }
            symbolic_prereqs(cert)?;
            let rows_a = affine_rows(ra, p.ref_a)?;
            let rows_b = affine_rows(rb, p.ref_b)?;
            let exact = exact_distances_by_key(
                &dom.points,
                |pt| affine_key(&rows_a, pt),
                |pt| affine_key(&rows_b, pt),
            );
            match exact {
                Some(derived) => {
                    if claimed != derived {
                        return Err(method_fail(format!(
                            "claimed distances {:?} disagree with the exact conflict \
                             re-derivation ({} distance(s))",
                            p.distances,
                            derived.len()
                        )));
                    }
                }
                None => {
                    outcome.exact = false;
                    check_against_candidates(dom, p, |s, t| {
                        affine_key(&rows_a, s) == affine_key(&rows_b, t)
                    })?;
                }
            }
        }
        "index-range" => {
            if !claimed.is_empty() {
                return Err(method_fail(
                    "a range-screened pair must claim no distances".to_owned(),
                ));
            }
            outcome.uses_index_facts = true;
            if dom.points.is_empty() {
                return Ok(outcome);
            }
            symbolic_prereqs(cert)?;
            let side_range = |r: &CertRef| -> Result<(u64, u64), Rejection> {
                let mut lo = u64::MAX;
                let mut hi = 0;
                for pt in &dom.points {
                    let e = concrete_element(cert, r, pt)?;
                    lo = lo.min(e);
                    hi = hi.max(e);
                }
                Ok((lo, hi))
            };
            let (alo, ahi) = side_range(ra)?;
            let (blo, bhi) = side_range(rb)?;
            if !(ahi < blo || bhi < alo) {
                return Err(method_fail(format!(
                    "exact element ranges [{alo}, {ahi}] and [{blo}, {bhi}] overlap"
                )));
            }
        }
        "index-injective" => {
            outcome.uses_index_facts = true;
            if dom.points.is_empty() {
                if !claimed.is_empty() {
                    return Err(method_fail(
                        "distances claimed over an empty domain".to_owned(),
                    ));
                }
                return Ok(outcome);
            }
            symbolic_prereqs(cert)?;
            let (sel_a, tbl_a) = match &ra.subscript {
                CertSubscript::Indirect { selector, table } => (selector, *table),
                CertSubscript::Affine(_) => {
                    return Err(method_fail(
                        "injective reduction needs indirect references".to_owned(),
                    ))
                }
            };
            let (sel_b, tbl_b) = match &rb.subscript {
                CertSubscript::Indirect { selector, table } => (selector, *table),
                CertSubscript::Affine(_) => {
                    return Err(method_fail(
                        "injective reduction needs indirect references".to_owned(),
                    ))
                }
            };
            if cert.tables[tbl_a].values != cert.tables[tbl_b].values {
                return Err(method_fail(
                    "injective reduction needs the same table on both sides".to_owned(),
                ));
            }
            // Verify injectivity directly (the reduction's premise).
            let mut seen: BTreeSet<u64> = BTreeSet::new();
            for &v in &cert.tables[tbl_a].values {
                if !seen.insert(v) {
                    return Err(method_fail(format!(
                        "the shared table is not injective (value {v} repeats)"
                    )));
                }
            }
            let exact =
                exact_distances_by_key(&dom.points, |pt| eval(sel_a, pt), |pt| eval(sel_b, pt));
            match exact {
                Some(derived) => {
                    if claimed != derived {
                        return Err(method_fail(format!(
                            "claimed distances {:?} disagree with the exact \
                             selector-conflict re-derivation ({} distance(s))",
                            p.distances,
                            derived.len()
                        )));
                    }
                }
                None => {
                    outcome.exact = false;
                    check_against_candidates(dom, p, |s, t| eval(sel_a, s) == eval(sel_b, t))?;
                }
            }
        }
        "index-banded" => {
            if !claimed.is_empty() {
                return Err(method_fail(
                    "a band-screened pair must claim no distances".to_owned(),
                ));
            }
            outcome.uses_index_facts = true;
            if dom.points.is_empty() {
                return Ok(outcome);
            }
            symbolic_prereqs(cert)?;
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
            // The concrete tables travel with the certificate, so the
            // banded emptiness claim is rechecked exactly when affordable.
            let exact = exact_distances_by_key(
                &dom.points,
                |pt| concrete_element(cert, ra, pt).unwrap_or(u64::MAX),
                |pt| concrete_element(cert, rb, pt).unwrap_or(u64::MAX),
            );
            match exact {
                Some(derived) => {
                    if let Some(d) = derived.first() {
                        return Err(method_fail(format!(
                            "band-screened pair has a concrete conflict at distance {d:?}"
                        )));
                    }
                }
                None => outcome.exact = false,
            }
        }
        "enumerated" => {
            outcome.enumerated = true;
            let derived = exact_distances_by_key(
                &dom.points,
                |pt| (ra.array, concrete_element(cert, ra, pt).unwrap_or(u64::MAX)),
                |pt| (rb.array, concrete_element(cert, rb, pt).unwrap_or(u64::MAX)),
            );
            let Some(derived) = derived else {
                return Err(method_fail(
                    "concrete re-enumeration exceeds the checker's work cap".to_owned(),
                ));
            };
            if claimed != derived {
                return Err(method_fail(format!(
                    "claimed distances {:?} disagree with the concrete re-enumeration \
                     ({} distance(s))",
                    p.distances,
                    derived.len()
                )));
            }
        }
        other => {
            return Err(reject(
                RejectCode::Malformed,
                format!("{label}: unknown disposition method `{other}`"),
            ))
        }
    }
    Ok(outcome)
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
    let deltas: BTreeSet<Vec<i64>> = cert
        .distances
        .iter()
        .map(|d| d[..prefix].to_vec())
        .filter(|d| d.iter().any(|&x| x != 0))
        .collect();
    if deltas.is_empty() {
        return Ok(());
    }
    let mut unit_at: HashMap<&[i64], usize> = HashMap::with_capacity(units.len());
    for (u, &(start, _)) in units.iter().enumerate() {
        unit_at.insert(&dom.points[start][..prefix], u);
    }
    let placed = |u: usize| {
        let g = placement.group_of[u];
        (placement.group_pos[g].0, placement.group_pos[g].1)
    };
    let mut target = vec![0i64; prefix];
    for (u, &(start, _)) in units.iter().enumerate() {
        let (round, core) = placed(u);
        let p = &dom.points[start][..prefix];
        for delta in &deltas {
            for sign in [1i64, -1] {
                for (t, (&pv, &dv)) in target.iter_mut().zip(p.iter().zip(delta)) {
                    *t = pv + sign * dv;
                }
                let Some(&v) = unit_at.get(target.as_slice()) else {
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
    for (i, p) in dom.points.iter().enumerate() {
        let ga = placement.group_of[unit_of[i]];
        for d in &cross {
            let q = dom.shifted(p, d);
            let Some(&j) = dom.index.get(&q) else {
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
            for p in &dom.points[start..start + len] {
                for (ridx, r) in cert.refs.iter().enumerate() {
                    let elem = concrete_element(cert, r, p)?;
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
    for (i, t) in cert.tables.iter().enumerate() {
        check_table(i, t)?;
    }
    check_pair_set(cert)?;

    let mut stats = CheckStats {
        n_points: dom.points.len(),
        n_units: units.len(),
        n_pairs: cert.pairs.len(),
        ..CheckStats::default()
    };
    let mut merged: BTreeSet<Vec<i64>> = BTreeSet::new();
    let mut any_index_facts = false;
    let mut any_enumerated = false;
    for p in &cert.pairs {
        check_distance_shapes(cert, p)?;
        stats.n_witnesses += check_witnesses(cert, &dom, p)?;
        let outcome = check_pair(cert, &dom, p)?;
        any_index_facts |= outcome.uses_index_facts;
        any_enumerated |= outcome.enumerated;
        if outcome.exact {
            stats.n_exact_rederivations += 1;
        }
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
