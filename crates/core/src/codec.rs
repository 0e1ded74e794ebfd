//! JSON (de)serialization for [`NestMapping`], on the workspace's shared
//! self-describing codec ([`ctam_cert::json`]).
//!
//! A mapping document records what the pipeline *decided* — the unit
//! granularity, the barrier-structured schedule with each group's tag and
//! unit list, the block size, and the parallelism classification. It does
//! not embed the iteration space (that is derivable), so deserialization
//! takes the [`Program`] the mapping was computed for and rebuilds the
//! space with [`IterationSpace::build_units`]. For any mapping the pipeline
//! produces, `mapping_from_json(program, &mapping_to_json(m)) == m`.

use ctam_cert::json::{self, field, int_array, read_i64s, read_usizes, JsonValue};
use ctam_loopir::dependence::{LevelCarriers, ParallelismReport};
use ctam_loopir::Program;

use crate::blocks::BlockMap;
use crate::group::IterationGroup;
use crate::pipeline::NestMapping;
use crate::schedule::Schedule;
use crate::space::IterationSpace;
use crate::tag::Tag;

/// Format tag every mapping document carries.
pub const FORMAT: &str = "ctam-mapping";
/// Current mapping document version.
pub const VERSION: i64 = 2;

fn group_value(g: &IterationGroup) -> JsonValue {
    JsonValue::Object(vec![
        (
            "tag_bits".to_owned(),
            JsonValue::Int(g.tag().n_bits() as i64),
        ),
        (
            "tag".to_owned(),
            int_array(g.tag().iter_bits().map(|b| b as i64)),
        ),
        (
            "units".to_owned(),
            int_array(g.iterations().iter().map(|&u| i64::from(u))),
        ),
    ])
}

/// Parses one group whose tag must range over the program's `n_blocks`
/// blocks; the width is checked before the tag is built.
fn group_from_value(v: &JsonValue, n_blocks: usize) -> Result<IterationGroup, String> {
    let n_bits = field(v, "tag_bits")?
        .as_usize()
        .ok_or("tag_bits must be a non-negative integer")?;
    if n_bits != n_blocks {
        return Err(format!(
            "tag_bits {n_bits} differs from the program's {n_blocks} blocks"
        ));
    }
    let bits = read_usizes(field(v, "tag")?, "group tag")?;
    if let Some(&b) = bits.iter().find(|&&b| b >= n_bits) {
        return Err(format!("tag bit {b} out of range for {n_bits} bits"));
    }
    let units = read_usizes(field(v, "units")?, "group units")?
        .into_iter()
        .map(|u| u32::try_from(u).map_err(|_| "unit id overflows u32".to_owned()))
        .collect::<Result<Vec<_>, String>>()?;
    if units.is_empty() {
        return Err("group units must be non-empty".to_owned());
    }
    Ok(IterationGroup::new(Tag::from_bits(n_bits, bits), units))
}

fn parallelism_value(p: &ParallelismReport) -> JsonValue {
    JsonValue::Object(vec![
        ("depth".to_owned(), JsonValue::Int(p.depth as i64)),
        (
            "doall".to_owned(),
            int_array(p.doall.iter().map(|&l| l as i64)),
        ),
        (
            "carried".to_owned(),
            JsonValue::Array(
                p.carried
                    .iter()
                    .map(|c| {
                        JsonValue::Object(vec![
                            ("level".to_owned(), JsonValue::Int(c.level as i64)),
                            (
                                "pairs".to_owned(),
                                JsonValue::Array(
                                    c.pairs
                                        .iter()
                                        .map(|&(a, b)| int_array([a as i64, b as i64]))
                                        .collect(),
                                ),
                            ),
                            ("example".to_owned(), int_array(c.example.iter().copied())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "outermost_parallel".to_owned(),
            match p.outermost_parallel {
                Some(l) => JsonValue::Int(l as i64),
                None => JsonValue::Null,
            },
        ),
    ])
}

fn parallelism_from_value(v: &JsonValue) -> Result<ParallelismReport, String> {
    let carried = field(v, "carried")?
        .as_array()
        .ok_or("carried must be an array")?
        .iter()
        .map(|c| {
            let pairs = field(c, "pairs")?
                .as_array()
                .ok_or("carrier pairs must be an array")?
                .iter()
                .map(|p| {
                    let xs = read_usizes(p, "carrier pair")?;
                    if xs.len() != 2 {
                        return Err("carrier pair must be [a, b]".to_owned());
                    }
                    Ok((xs[0], xs[1]))
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(LevelCarriers {
                level: field(c, "level")?
                    .as_usize()
                    .ok_or("carrier level must be a non-negative integer")?,
                pairs,
                example: read_i64s(field(c, "example")?, "carrier example")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ParallelismReport {
        depth: field(v, "depth")?
            .as_usize()
            .ok_or("depth must be a non-negative integer")?,
        doall: read_usizes(field(v, "doall")?, "doall levels")?,
        carried,
        outermost_parallel: match field(v, "outermost_parallel")? {
            JsonValue::Null => None,
            l => Some(
                l.as_usize()
                    .ok_or("outermost_parallel must be null or a non-negative integer")?,
            ),
        },
    })
}

/// The mapping as a [`JsonValue`] tree.
pub fn mapping_to_value(m: &NestMapping) -> JsonValue {
    JsonValue::Object(vec![
        ("format".to_owned(), JsonValue::Str(FORMAT.to_owned())),
        ("version".to_owned(), JsonValue::Int(VERSION)),
        (
            "nest".to_owned(),
            JsonValue::Int(m.space.nest().index() as i64),
        ),
        (
            "unit_prefix".to_owned(),
            JsonValue::Int(m.space.unit_prefix() as i64),
        ),
        (
            "block_bytes".to_owned(),
            JsonValue::Int(m.block_bytes as i64),
        ),
        ("n_groups".to_owned(), JsonValue::Int(m.n_groups as i64)),
        (
            "n_cores".to_owned(),
            JsonValue::Int(m.schedule.n_cores() as i64),
        ),
        (
            "rounds".to_owned(),
            JsonValue::Array(
                m.schedule
                    .rounds()
                    .iter()
                    .map(|round| {
                        JsonValue::Array(
                            round
                                .iter()
                                .map(|groups| {
                                    JsonValue::Array(groups.iter().map(group_value).collect())
                                })
                                .collect(),
                        )
                    })
                    .collect(),
            ),
        ),
        ("parallelism".to_owned(), parallelism_value(&m.parallelism)),
    ])
}

/// Serializes the mapping as a compact self-describing JSON document.
pub fn mapping_to_json(m: &NestMapping) -> String {
    mapping_to_value(m).render()
}

/// Parses a mapping from a [`JsonValue`] tree, rebuilding the iteration
/// space from `program`.
///
/// # Errors
///
/// A description of the first structural error: wrong format tag or
/// version, a nest index `program` does not have, a unit prefix deeper than
/// the nest, a block size of 0, a schedule with no rounds, ragged rounds, a
/// tag width other than the program's block count, or a unit id outside
/// the rebuilt space. Each is found before the document's sizes drive an
/// allocation: with at least one round, the document's own length bounds
/// the core count.
pub fn mapping_from_value(program: &Program, v: &JsonValue) -> Result<NestMapping, String> {
    let format = field(v, "format")?.as_str().unwrap_or_default();
    if format != FORMAT {
        return Err(format!("not a mapping document (format `{format}`)"));
    }
    let version = field(v, "version")?.as_i64().unwrap_or(0);
    if version != VERSION {
        return Err(format!("unsupported mapping document version {version}"));
    }
    let nest_index = field(v, "nest")?
        .as_usize()
        .ok_or("nest must be a non-negative integer")?;
    let (nest_id, nest) = program
        .nests()
        .find(|(id, _)| id.index() == nest_index)
        .ok_or_else(|| format!("program has no nest {nest_index}"))?;
    let unit_prefix = field(v, "unit_prefix")?
        .as_usize()
        .ok_or("unit_prefix must be a non-negative integer")?;
    if unit_prefix > nest.depth() {
        return Err(format!(
            "unit_prefix {unit_prefix} exceeds nest depth {}",
            nest.depth()
        ));
    }
    let block_bytes = field(v, "block_bytes")?
        .as_u64()
        .ok_or("block_bytes must be a non-negative integer")?;
    if block_bytes == 0 {
        return Err("block_bytes must be positive".to_owned());
    }
    let n_blocks = BlockMap::new(program, block_bytes).n_blocks();
    let n_cores = field(v, "n_cores")?
        .as_usize()
        .ok_or("n_cores must be a non-negative integer")?;
    let rounds = field(v, "rounds")?
        .as_array()
        .ok_or("rounds must be an array")?;
    if rounds.is_empty() {
        return Err("schedule must have at least one round".to_owned());
    }
    let rounds = rounds
        .iter()
        .map(|round| {
            round
                .as_array()
                .ok_or("round must be an array of per-core group lists")?
                .iter()
                .map(|groups| {
                    groups
                        .as_array()
                        .ok_or("core groups must be an array")?
                        .iter()
                        .map(|g| group_from_value(g, n_blocks))
                        .collect::<Result<Vec<_>, String>>()
                })
                .collect::<Result<Vec<_>, String>>()
        })
        .collect::<Result<Vec<_>, String>>()?;
    let schedule = Schedule::from_rounds(rounds, n_cores).map_err(|e| e.to_string())?;
    let space = IterationSpace::build_units(program, nest_id, unit_prefix);
    let n_units = space.n_units();
    let groups = schedule.rounds().iter().flatten().flatten();
    if let Some(u) = groups
        .flat_map(IterationGroup::iterations)
        .find(|&&u| u as usize >= n_units)
    {
        return Err(format!("unit {u} out of range for {n_units} units"));
    }
    Ok(NestMapping {
        schedule,
        space,
        block_bytes,
        n_groups: field(v, "n_groups")?
            .as_usize()
            .ok_or("n_groups must be a non-negative integer")?,
        parallelism: parallelism_from_value(field(v, "parallelism")?)?,
    })
}

/// Parses a mapping from its JSON encoding.
///
/// # Errors
///
/// Same as [`mapping_from_value`], plus JSON syntax errors.
pub fn mapping_from_json(program: &Program, input: &str) -> Result<NestMapping, String> {
    mapping_from_value(program, &json::parse(input)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{map_nest, CtamParams, Strategy};
    use ctam_loopir::{ArrayRef, LoopNest};
    use ctam_poly::{AffineExpr, AffineMap, IntegerSet};
    use ctam_topology::catalog;

    fn wave(n: u64) -> Program {
        let mut p = Program::new("wave");
        let a = p.add_array("A", &[n, n], 8);
        let d = IntegerSet::builder(2)
            .bounds(0, 1, n as i64 - 1)
            .bounds(1, 0, n as i64 - 1)
            .build();
        let up = AffineMap::new(
            2,
            vec![
                AffineExpr::var(2, 0) - AffineExpr::constant(2, 1),
                AffineExpr::var(2, 1),
            ],
        );
        p.add_nest(
            LoopNest::new("rows", d)
                .with_ref(ArrayRef::write(a, AffineMap::identity(2)))
                .with_ref(ArrayRef::read(a, up)),
        );
        p
    }

    #[test]
    fn pipeline_mappings_roundtrip() {
        let p = wave(16);
        let m = catalog::harpertown();
        let nest = p.nests().next().unwrap().0;
        for s in [Strategy::Base, Strategy::TopologyAware, Strategy::Combined] {
            let mapping = map_nest(&p, nest, &m, s, &CtamParams::default()).unwrap();
            let json = mapping_to_json(&mapping);
            let back = mapping_from_json(&p, &json).unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(back, mapping, "{s}");
            assert_eq!(mapping_to_json(&back), json, "{s}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        let p = wave(8);
        assert!(mapping_from_json(&p, "{\"format\":\"other\"}").is_err());
        assert!(mapping_from_json(&p, "no").is_err());
        // A mapping for a nest the program does not have.
        let mapping = map_nest(
            &p,
            p.nests().next().unwrap().0,
            &catalog::harpertown(),
            Strategy::Base,
            &CtamParams::default(),
        )
        .unwrap();
        let json = mapping_to_json(&mapping);
        let other_nest = json.replace("\"nest\":0", "\"nest\":7");
        assert!(mapping_from_json(&p, &other_nest).is_err());
        // A version-1 document, which still carried the `exact` flag.
        let v1 = json
            .replace("\"version\":2", "\"version\":1")
            .replace("}}", ",\"exact\":true}}");
        let err = mapping_from_json(&p, &v1).unwrap_err();
        assert_eq!(err, "unsupported mapping document version 1");
        // A unit id past the rebuilt space, and an empty unit list.
        let n_units = mapping.space.n_units();
        let far = json.replacen("\"units\":[", "\"units\":[999999,", 1);
        let err = mapping_from_json(&p, &far).unwrap_err();
        assert_eq!(err, format!("unit 999999 out of range for {n_units} units"));
        let empty = json.replacen("\"units\":[", "\"units\":[],\"was\":[", 1);
        let err = mapping_from_json(&p, &empty).unwrap_err();
        assert_eq!(err, "group units must be non-empty");
    }

    /// `wave(8)`'s Base mapping on Harpertown as a document, with `edits`
    /// replacing top-level fields.
    fn edited_document(edits: &[(&str, JsonValue)]) -> (Program, NestMapping, JsonValue) {
        let p = wave(8);
        let nest = p.nests().next().unwrap().0;
        let m = catalog::harpertown();
        let mapping = map_nest(&p, nest, &m, Strategy::Base, &CtamParams::default()).unwrap();
        let JsonValue::Object(mut fields) = mapping_to_value(&mapping) else {
            unreachable!("a mapping document is an object")
        };
        for (key, value) in edits {
            fields.iter_mut().find(|(k, _)| k == key).unwrap().1 = value.clone();
        }
        (p, mapping, JsonValue::Object(fields))
    }

    #[test]
    fn rejects_a_zero_block_size() {
        // Verifying or advising on the mapping would divide by it.
        let (p, _, doc) = edited_document(&[("block_bytes", JsonValue::Int(0))]);
        let err = mapping_from_value(&p, &doc).unwrap_err();
        assert_eq!(err, "block_bytes must be positive");
    }

    #[test]
    fn rejects_a_schedule_without_rounds() {
        // No round can be ragged, so nothing bounds the core count that
        // verification allocates per core.
        let (p, _, doc) = edited_document(&[
            ("rounds", JsonValue::Array(Vec::new())),
            ("n_cores", JsonValue::Int(1 << 40)),
        ]);
        let err = mapping_from_value(&p, &doc).unwrap_err();
        assert_eq!(err, "schedule must have at least one round");
    }

    #[test]
    fn rejects_a_tag_width_other_than_the_block_count() {
        // A width just above the block count; a huge one with enough set
        // bits would make the tag allocate its dense form.
        let (p, mapping, doc) = edited_document(&[]);
        let n_blocks = BlockMap::new(&p, mapping.block_bytes).n_blocks();
        let json = doc.render().replacen(
            &format!("\"tag_bits\":{n_blocks},"),
            &format!("\"tag_bits\":{},", n_blocks + 1),
            1,
        );
        let err = mapping_from_json(&p, &json).unwrap_err();
        assert_eq!(
            err,
            format!(
                "tag_bits {} differs from the program's {n_blocks} blocks",
                n_blocks + 1
            )
        );
    }
}
