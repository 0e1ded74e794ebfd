//! The certificate data model: a self-contained, serializable record of one
//! mapping verdict and all the evidence needed to re-validate it.
//!
//! A [`Certificate`] carries *plain data only* — integer constraint rows,
//! subscript coefficient tables, concrete index tables, schedules as
//! `(round, core, units)` triples, per-pair dependence dispositions with
//! their candidate points and distance witnesses. Nothing here references
//! the analyzer's types: the checker ([`crate::check`]) must be able to
//! re-establish every obligation from these numbers alone.

use crate::json::{
    self, field, int_array, int_matrix, read_i64_rows, read_i64s, read_usizes, JsonValue,
};

/// Format tag every certificate document carries.
pub const FORMAT: &str = "ctam-cert";
/// Current certificate format version.
pub const VERSION: i64 = 1;

/// One domain constraint `coeffs · I + constant {>=,==} 0`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertConstraint {
    /// Per-variable coefficients (length = nest depth).
    pub coeffs: Vec<i64>,
    /// Constant term.
    pub constant: i64,
    /// `true` for an equality row, `false` for `>= 0`.
    pub eq: bool,
}

/// One affine expression `coeffs · I + constant`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertExpr {
    /// Per-variable coefficients (length = nest depth).
    pub coeffs: Vec<i64>,
    /// Constant term.
    pub constant: i64,
}

impl CertExpr {
    /// Evaluates the expression at a point, in `i128` so that a product of
    /// an `i64` coefficient and an `i64` coordinate is exact; `None` when a
    /// partial sum, constant first, leaves `i128`.
    pub fn eval(&self, point: &[i64]) -> Option<i128> {
        affine_value(&self.coeffs, self.constant, point)
    }
}

/// `constant + coeffs · point` in `i128`, or `None` when a partial sum
/// leaves it.
pub(crate) fn affine_value(coeffs: &[i64], constant: i64, point: &[i64]) -> Option<i128> {
    let mut terms = coeffs.iter().zip(point);
    terms.try_fold(i128::from(constant), |sum, (&c, &x)| {
        sum.checked_add(i128::from(c) * i128::from(x))
    })
}

/// One array declaration of the certified nest's program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertArray {
    /// Array name (diagnostic payload only).
    pub name: String,
    /// Per-dimension extents.
    pub dims: Vec<u64>,
    /// Bytes per element.
    pub elem_bytes: u32,
}

/// A reference's subscript function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertSubscript {
    /// Affine rows, one per array dimension.
    Affine(Vec<CertExpr>),
    /// `table[selector(I)]` indirect addressing into a flat element index.
    Indirect {
        /// The affine selector into the table.
        selector: CertExpr,
        /// Index into [`Certificate::tables`].
        table: usize,
    },
}

/// One array reference of the nest body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertRef {
    /// Index into [`Certificate::arrays`].
    pub array: usize,
    /// `true` for a write.
    pub write: bool,
    /// The subscript function.
    pub subscript: CertSubscript,
}

/// One scheduled group: a set of mapping units placed on a core in a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertGroup {
    /// Barrier round.
    pub round: usize,
    /// Core index.
    pub core: usize,
    /// Mapping-unit ids, in execution order.
    pub units: Vec<usize>,
}

/// The claimed facts about one concrete index table (mirrors the analyzer's
/// `IndexFacts`, as plain data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertFacts {
    /// Claimed table length.
    pub len: usize,
    /// Claimed inclusive value range.
    pub range: Option<(u64, u64)>,
    /// Values claimed nondecreasing.
    pub nondecreasing: bool,
    /// Values claimed strictly increasing.
    pub strictly_increasing: bool,
    /// Values claimed pairwise distinct.
    pub injective: bool,
    /// Values claimed a permutation of `0..len`.
    pub permutation: bool,
    /// Claimed band: `|table[i] - i| <= band` for all rows. For a banded
    /// independence proof this must be the *tightest* such band (the checker
    /// enforces equality with the scanned maximum, so the trusted
    /// banded-projection claim is a function of the table, not of the
    /// certificate author).
    pub band: Option<u64>,
}

/// One concrete index table with its claimed facts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertTable {
    /// The table values (flat element indices).
    pub values: Vec<u64>,
    /// The facts the proof relied on.
    pub facts: CertFacts,
}

/// The ladder rung that settled a pair, with its evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertPair {
    /// Body index of the first reference.
    pub ref_a: usize,
    /// Body index of the second reference (`>= ref_a`).
    pub ref_b: usize,
    /// Rung name: one of `uniform`, `screened`, `symbolic`, `index-range`,
    /// `index-injective`, `index-banded`, `enumerated`.
    pub method: String,
    /// Claimed dependence distances, lexicographically positive, sorted.
    pub distances: Vec<Vec<i64>>,
    /// The candidate integer points of the projected conflict set (symbolic
    /// rungs): every claimed distance must come from here, and every
    /// candidate *not* claimed must be refutable by the checker's scan.
    pub candidates: Vec<Vec<i64>>,
    /// `(distance, witness iteration)` pairs: substituting the witness into
    /// the pair's subscripts must exhibit the claimed conflict.
    pub witnesses: Vec<(Vec<i64>, Vec<i64>)>,
}

/// The overall verdict the certificate claims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `CTAM-N301`: race freedom proved symbolically from affine distances.
    SymbolicProof,
    /// `CTAM-N303`: the proof additionally rests on index-array facts.
    IndexFactProof,
    /// `CTAM-N302`: some pair needed concrete enumeration; the checker
    /// re-enumerates instead of checking witnesses.
    Enumerated,
}

impl Verdict {
    /// Stable wire name.
    pub fn name(&self) -> &'static str {
        match self {
            Verdict::SymbolicProof => "symbolic-proof",
            Verdict::IndexFactProof => "index-fact-proof",
            Verdict::Enumerated => "enumerated",
        }
    }

    /// Parses a wire name.
    pub fn from_name(s: &str) -> Option<Verdict> {
        match s {
            "symbolic-proof" => Some(Verdict::SymbolicProof),
            "index-fact-proof" => Some(Verdict::IndexFactProof),
            "enumerated" => Some(Verdict::Enumerated),
            _ => None,
        }
    }
}

/// A proof-carrying mapping certificate: everything the independent checker
/// needs to re-validate one nest's mapping verdict from first principles.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// Index of the nest within its program.
    pub nest: usize,
    /// Nest name (diagnostic payload only).
    pub nest_name: String,
    /// Name of the machine the schedule targets.
    pub machine: String,
    /// Core count of that machine.
    pub n_cores: usize,
    /// Data-block size used for tagging.
    pub block_bytes: u64,
    /// Nest depth (loop variables).
    pub depth: usize,
    /// Mapping-unit prefix length: iterations sharing their first
    /// `unit_prefix` coordinates form one unit.
    pub unit_prefix: usize,
    /// The iteration domain's constraints.
    pub domain: Vec<CertConstraint>,
    /// Array declarations, in program order.
    pub arrays: Vec<CertArray>,
    /// The nest's references, in body order.
    pub refs: Vec<CertRef>,
    /// Claimed number of mapping units.
    pub n_units: usize,
    /// Claimed per-unit iteration counts.
    pub unit_sizes: Vec<usize>,
    /// The schedule, flattened to groups in `(round, core, position)` order.
    pub schedule: Vec<CertGroup>,
    /// The merged distance set over all pairs.
    pub distances: Vec<Vec<i64>>,
    /// Per-pair dispositions, in `(ref_a, ref_b)` order.
    pub pairs: Vec<CertPair>,
    /// Concrete index tables referenced by indirect subscripts.
    pub tables: Vec<CertTable>,
    /// The claimed verdict.
    pub verdict: Verdict,
}

fn expr_json(e: &CertExpr) -> JsonValue {
    JsonValue::Object(vec![
        ("coeffs".to_owned(), int_array(e.coeffs.iter().copied())),
        ("constant".to_owned(), JsonValue::Int(e.constant)),
    ])
}

fn expr_from_json(v: &JsonValue) -> Result<CertExpr, String> {
    Ok(CertExpr {
        coeffs: read_i64s(field(v, "coeffs")?, "expr coeffs")?,
        constant: field(v, "constant")?
            .as_i64()
            .ok_or("expr constant must be an integer")?,
    })
}

fn pairs_json(pairs: &[(Vec<i64>, Vec<i64>)]) -> JsonValue {
    JsonValue::Array(
        pairs
            .iter()
            .map(|(d, w)| {
                JsonValue::Array(vec![
                    int_array(d.iter().copied()),
                    int_array(w.iter().copied()),
                ])
            })
            .collect(),
    )
}

/// A realizability witness: a carried distance and the source point it
/// was observed at.
type DistanceWitness = (Vec<i64>, Vec<i64>);

fn pairs_from_json(v: &JsonValue) -> Result<Vec<DistanceWitness>, String> {
    v.as_array()
        .ok_or("witnesses must be an array")?
        .iter()
        .map(|item| {
            let parts = item.as_array().ok_or("witness must be a [d, w] pair")?;
            if parts.len() != 2 {
                return Err("witness must be a [d, w] pair".to_owned());
            }
            Ok((
                read_i64s(&parts[0], "witness distance")?,
                read_i64s(&parts[1], "witness point")?,
            ))
        })
        .collect()
}

impl Certificate {
    /// Serializes the certificate as a compact self-describing JSON document.
    pub fn to_json(&self) -> String {
        self.to_value().render()
    }

    /// The certificate as a [`JsonValue`] tree.
    pub fn to_value(&self) -> JsonValue {
        let domain = JsonValue::Array(
            self.domain
                .iter()
                .map(|c| {
                    JsonValue::Object(vec![
                        ("coeffs".to_owned(), int_array(c.coeffs.iter().copied())),
                        ("constant".to_owned(), JsonValue::Int(c.constant)),
                        ("eq".to_owned(), JsonValue::Bool(c.eq)),
                    ])
                })
                .collect(),
        );
        let arrays = JsonValue::Array(
            self.arrays
                .iter()
                .map(|a| {
                    JsonValue::Object(vec![
                        ("name".to_owned(), JsonValue::Str(a.name.clone())),
                        (
                            "dims".to_owned(),
                            int_array(a.dims.iter().map(|&d| d as i64)),
                        ),
                        (
                            "elem_bytes".to_owned(),
                            JsonValue::Int(i64::from(a.elem_bytes)),
                        ),
                    ])
                })
                .collect(),
        );
        let refs = JsonValue::Array(
            self.refs
                .iter()
                .map(|r| {
                    let mut fields = vec![
                        ("array".to_owned(), JsonValue::Int(r.array as i64)),
                        ("write".to_owned(), JsonValue::Bool(r.write)),
                    ];
                    match &r.subscript {
                        CertSubscript::Affine(rows) => fields.push((
                            "affine".to_owned(),
                            JsonValue::Array(rows.iter().map(expr_json).collect()),
                        )),
                        CertSubscript::Indirect { selector, table } => {
                            fields.push(("selector".to_owned(), expr_json(selector)));
                            fields.push(("table".to_owned(), JsonValue::Int(*table as i64)));
                        }
                    }
                    JsonValue::Object(fields)
                })
                .collect(),
        );
        let schedule = JsonValue::Array(
            self.schedule
                .iter()
                .map(|g| {
                    JsonValue::Object(vec![
                        ("round".to_owned(), JsonValue::Int(g.round as i64)),
                        ("core".to_owned(), JsonValue::Int(g.core as i64)),
                        (
                            "units".to_owned(),
                            int_array(g.units.iter().map(|&u| u as i64)),
                        ),
                    ])
                })
                .collect(),
        );
        let pairs = JsonValue::Array(
            self.pairs
                .iter()
                .map(|p| {
                    JsonValue::Object(vec![
                        ("ref_a".to_owned(), JsonValue::Int(p.ref_a as i64)),
                        ("ref_b".to_owned(), JsonValue::Int(p.ref_b as i64)),
                        ("method".to_owned(), JsonValue::Str(p.method.clone())),
                        ("distances".to_owned(), int_matrix(&p.distances)),
                        ("candidates".to_owned(), int_matrix(&p.candidates)),
                        ("witnesses".to_owned(), pairs_json(&p.witnesses)),
                    ])
                })
                .collect(),
        );
        let tables = JsonValue::Array(
            self.tables
                .iter()
                .map(|t| {
                    let f = &t.facts;
                    let range = match f.range {
                        Some((lo, hi)) => JsonValue::Array(vec![
                            JsonValue::Int(lo as i64),
                            JsonValue::Int(hi as i64),
                        ]),
                        None => JsonValue::Null,
                    };
                    let band = match f.band {
                        Some(b) => JsonValue::Int(b as i64),
                        None => JsonValue::Null,
                    };
                    JsonValue::Object(vec![
                        (
                            "values".to_owned(),
                            int_array(t.values.iter().map(|&v| v as i64)),
                        ),
                        (
                            "facts".to_owned(),
                            JsonValue::Object(vec![
                                ("len".to_owned(), JsonValue::Int(f.len as i64)),
                                ("range".to_owned(), range),
                                ("nondecreasing".to_owned(), JsonValue::Bool(f.nondecreasing)),
                                (
                                    "strictly_increasing".to_owned(),
                                    JsonValue::Bool(f.strictly_increasing),
                                ),
                                ("injective".to_owned(), JsonValue::Bool(f.injective)),
                                ("permutation".to_owned(), JsonValue::Bool(f.permutation)),
                                ("band".to_owned(), band),
                            ]),
                        ),
                    ])
                })
                .collect(),
        );
        JsonValue::Object(vec![
            ("format".to_owned(), JsonValue::Str(FORMAT.to_owned())),
            ("version".to_owned(), JsonValue::Int(VERSION)),
            ("nest".to_owned(), JsonValue::Int(self.nest as i64)),
            (
                "nest_name".to_owned(),
                JsonValue::Str(self.nest_name.clone()),
            ),
            ("machine".to_owned(), JsonValue::Str(self.machine.clone())),
            ("n_cores".to_owned(), JsonValue::Int(self.n_cores as i64)),
            (
                "block_bytes".to_owned(),
                JsonValue::Int(self.block_bytes as i64),
            ),
            ("depth".to_owned(), JsonValue::Int(self.depth as i64)),
            (
                "unit_prefix".to_owned(),
                JsonValue::Int(self.unit_prefix as i64),
            ),
            ("domain".to_owned(), domain),
            ("arrays".to_owned(), arrays),
            ("refs".to_owned(), refs),
            ("n_units".to_owned(), JsonValue::Int(self.n_units as i64)),
            (
                "unit_sizes".to_owned(),
                int_array(self.unit_sizes.iter().map(|&s| s as i64)),
            ),
            ("schedule".to_owned(), schedule),
            ("distances".to_owned(), int_matrix(&self.distances)),
            ("pairs".to_owned(), pairs),
            ("tables".to_owned(), tables),
            (
                "verdict".to_owned(),
                JsonValue::Str(self.verdict.name().to_owned()),
            ),
        ])
    }

    /// Parses a certificate from its JSON encoding.
    ///
    /// # Errors
    ///
    /// A description of the first syntax or shape error. Parsing validates
    /// document structure only; semantic validation is [`crate::check`]'s
    /// job.
    pub fn from_json(input: &str) -> Result<Certificate, String> {
        let v = json::parse(input)?;
        Self::from_value(&v)
    }

    /// Parses a certificate from a [`JsonValue`] tree.
    ///
    /// # Errors
    ///
    /// Same as [`Certificate::from_json`].
    pub fn from_value(v: &JsonValue) -> Result<Certificate, String> {
        let format = field(v, "format")?.as_str().unwrap_or_default();
        if format != FORMAT {
            return Err(format!("not a certificate document (format `{format}`)"));
        }
        let version = field(v, "version")?.as_i64().unwrap_or(0);
        if version != VERSION {
            return Err(format!("unsupported certificate version {version}"));
        }
        let domain = field(v, "domain")?
            .as_array()
            .ok_or("domain must be an array")?
            .iter()
            .map(|c| {
                Ok(CertConstraint {
                    coeffs: read_i64s(field(c, "coeffs")?, "constraint coeffs")?,
                    constant: field(c, "constant")?
                        .as_i64()
                        .ok_or("constraint constant must be an integer")?,
                    eq: field(c, "eq")?
                        .as_bool()
                        .ok_or("constraint eq must be a bool")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let arrays = field(v, "arrays")?
            .as_array()
            .ok_or("arrays must be an array")?
            .iter()
            .map(|a| {
                let dims = read_i64s(field(a, "dims")?, "array dims")?
                    .into_iter()
                    .map(|d| u64::try_from(d).map_err(|_| "negative extent".to_owned()))
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(CertArray {
                    name: field(a, "name")?
                        .as_str()
                        .ok_or("array name must be a string")?
                        .to_owned(),
                    dims,
                    elem_bytes: field(a, "elem_bytes")?
                        .as_i64()
                        .and_then(|b| u32::try_from(b).ok())
                        .ok_or("elem_bytes must be a non-negative integer")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let refs = field(v, "refs")?
            .as_array()
            .ok_or("refs must be an array")?
            .iter()
            .map(|r| {
                let subscript = if let Some(rows) = r.get("affine") {
                    CertSubscript::Affine(
                        rows.as_array()
                            .ok_or("affine must be an array")?
                            .iter()
                            .map(expr_from_json)
                            .collect::<Result<Vec<_>, String>>()?,
                    )
                } else {
                    CertSubscript::Indirect {
                        selector: expr_from_json(field(r, "selector")?)?,
                        table: field(r, "table")?
                            .as_usize()
                            .ok_or("table index must be a non-negative integer")?,
                    }
                };
                Ok(CertRef {
                    array: field(r, "array")?
                        .as_usize()
                        .ok_or("ref array must be a non-negative integer")?,
                    write: field(r, "write")?
                        .as_bool()
                        .ok_or("ref write must be a bool")?,
                    subscript,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let schedule = field(v, "schedule")?
            .as_array()
            .ok_or("schedule must be an array")?
            .iter()
            .map(|g| {
                Ok(CertGroup {
                    round: field(g, "round")?
                        .as_usize()
                        .ok_or("round must be a non-negative integer")?,
                    core: field(g, "core")?
                        .as_usize()
                        .ok_or("core must be a non-negative integer")?,
                    units: read_usizes(field(g, "units")?, "group units")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let pairs = field(v, "pairs")?
            .as_array()
            .ok_or("pairs must be an array")?
            .iter()
            .map(|p| {
                Ok(CertPair {
                    ref_a: field(p, "ref_a")?
                        .as_usize()
                        .ok_or("ref_a must be a non-negative integer")?,
                    ref_b: field(p, "ref_b")?
                        .as_usize()
                        .ok_or("ref_b must be a non-negative integer")?,
                    method: field(p, "method")?
                        .as_str()
                        .ok_or("method must be a string")?
                        .to_owned(),
                    distances: read_i64_rows(field(p, "distances")?, "pair distances")?,
                    candidates: read_i64_rows(field(p, "candidates")?, "pair candidates")?,
                    witnesses: pairs_from_json(field(p, "witnesses")?)?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let tables = field(v, "tables")?
            .as_array()
            .ok_or("tables must be an array")?
            .iter()
            .map(|t| {
                let values = read_i64s(field(t, "values")?, "table values")?
                    .into_iter()
                    .map(|x| u64::try_from(x).map_err(|_| "negative table value".to_owned()))
                    .collect::<Result<Vec<_>, String>>()?;
                let f = field(t, "facts")?;
                let range = match field(f, "range")? {
                    JsonValue::Null => None,
                    pair => {
                        let xs = read_i64s(pair, "facts range")?;
                        if xs.len() != 2 || xs[0] < 0 || xs[1] < 0 {
                            return Err("facts range must be [lo, hi]".to_owned());
                        }
                        Some((xs[0] as u64, xs[1] as u64))
                    }
                };
                let band = match field(f, "band")? {
                    JsonValue::Null => None,
                    b => Some(
                        b.as_u64()
                            .ok_or("facts band must be a non-negative integer")?,
                    ),
                };
                let flag = |key: &str| -> Result<bool, String> {
                    field(f, key)?
                        .as_bool()
                        .ok_or_else(|| format!("facts {key} must be a bool"))
                };
                Ok(CertTable {
                    values,
                    facts: CertFacts {
                        len: field(f, "len")?
                            .as_usize()
                            .ok_or("facts len must be a non-negative integer")?,
                        range,
                        nondecreasing: flag("nondecreasing")?,
                        strictly_increasing: flag("strictly_increasing")?,
                        injective: flag("injective")?,
                        permutation: flag("permutation")?,
                        band,
                    },
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let verdict_name = field(v, "verdict")?
            .as_str()
            .ok_or("verdict must be a string")?;
        let verdict = Verdict::from_name(verdict_name)
            .ok_or_else(|| format!("unknown verdict `{verdict_name}`"))?;
        let get_usize = |key: &str| -> Result<usize, String> {
            field(v, key)?
                .as_usize()
                .ok_or_else(|| format!("{key} must be a non-negative integer"))
        };
        Ok(Certificate {
            nest: get_usize("nest")?,
            nest_name: field(v, "nest_name")?
                .as_str()
                .ok_or("nest_name must be a string")?
                .to_owned(),
            machine: field(v, "machine")?
                .as_str()
                .ok_or("machine must be a string")?
                .to_owned(),
            n_cores: get_usize("n_cores")?,
            block_bytes: field(v, "block_bytes")?
                .as_u64()
                .ok_or("block_bytes must be a non-negative integer")?,
            depth: get_usize("depth")?,
            unit_prefix: get_usize("unit_prefix")?,
            domain,
            arrays,
            refs,
            n_units: get_usize("n_units")?,
            unit_sizes: read_usizes(field(v, "unit_sizes")?, "unit_sizes")?,
            schedule,
            distances: read_i64_rows(field(v, "distances")?, "distances")?,
            pairs,
            tables,
            verdict,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Certificate {
        Certificate {
            nest: 0,
            nest_name: "sweep".to_owned(),
            machine: "Toy".to_owned(),
            n_cores: 2,
            block_bytes: 64,
            depth: 1,
            unit_prefix: 1,
            domain: vec![
                CertConstraint {
                    coeffs: vec![1],
                    constant: 0,
                    eq: false,
                },
                CertConstraint {
                    coeffs: vec![-1],
                    constant: 3,
                    eq: false,
                },
            ],
            arrays: vec![CertArray {
                name: "A".to_owned(),
                dims: vec![4],
                elem_bytes: 8,
            }],
            refs: vec![
                CertRef {
                    array: 0,
                    write: true,
                    subscript: CertSubscript::Affine(vec![CertExpr {
                        coeffs: vec![1],
                        constant: 0,
                    }]),
                },
                CertRef {
                    array: 0,
                    write: false,
                    subscript: CertSubscript::Indirect {
                        selector: CertExpr {
                            coeffs: vec![1],
                            constant: 0,
                        },
                        table: 0,
                    },
                },
            ],
            n_units: 4,
            unit_sizes: vec![1, 1, 1, 1],
            schedule: vec![
                CertGroup {
                    round: 0,
                    core: 0,
                    units: vec![0, 1],
                },
                CertGroup {
                    round: 0,
                    core: 1,
                    units: vec![2, 3],
                },
            ],
            distances: vec![],
            pairs: vec![CertPair {
                ref_a: 0,
                ref_b: 1,
                method: "symbolic".to_owned(),
                distances: vec![],
                candidates: vec![vec![1]],
                witnesses: vec![(vec![1], vec![0])],
            }],
            tables: vec![CertTable {
                values: vec![0, 1, 2, 3],
                facts: CertFacts {
                    len: 4,
                    range: Some((0, 3)),
                    nondecreasing: true,
                    strictly_increasing: true,
                    injective: true,
                    permutation: true,
                    band: Some(0),
                },
            }],
            verdict: Verdict::SymbolicProof,
        }
    }

    #[test]
    fn json_roundtrip_is_identity() {
        let c = sample();
        let json = c.to_json();
        let parsed = Certificate::from_json(&json).unwrap();
        assert_eq!(parsed, c);
        // And the serialization itself is stable.
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn rejects_foreign_documents() {
        assert!(Certificate::from_json("{\"format\":\"other\"}").is_err());
        assert!(Certificate::from_json("[1,2]").is_err());
        assert!(Certificate::from_json("not json").is_err());
    }

    #[test]
    fn verdict_names_roundtrip() {
        for v in [
            Verdict::SymbolicProof,
            Verdict::IndexFactProof,
            Verdict::Enumerated,
        ] {
            assert_eq!(Verdict::from_name(v.name()), Some(v));
        }
        assert_eq!(Verdict::from_name("bogus"), None);
    }
}
