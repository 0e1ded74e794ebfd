//! JSON (de)serialization for [`NestMapping`], on the workspace's shared
//! self-describing codec ([`ctam_cert::json`]).
//!
//! A mapping document records what the pipeline *decided*, each decision
//! once: the unit granularity (`unit_prefix`), the block size
//! (`block_bytes`), and the barrier-structured schedule (`rounds`, each a
//! list of per-core group lists, each group its tag's set bits and its unit
//! list). Everything else is derived on decoding, from the document or from
//! the [`Program`] the mapping was computed for: the iteration space is
//! rebuilt with [`IterationSpace::build_units`], every tag is as wide as the
//! program's block count at the document's block size, the core count is
//! the length of the first round, and the group count is a count of the
//! groups. For any mapping the pipeline produces,
//! `mapping_from_json(program, &mapping_to_json(m)) == m`.

use ctam_cert::json::{self, field, int_array, read_usizes, JsonValue};
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
pub const VERSION: i64 = 3;

fn group_value(g: &IterationGroup) -> JsonValue {
    JsonValue::Object(vec![
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

/// Parses one group whose tag ranges over the program's `n_blocks` blocks;
/// every bit is checked before the tag is built.
fn group_from_value(v: &JsonValue, n_blocks: usize) -> Result<IterationGroup, String> {
    let bits = read_usizes(field(v, "tag")?, "group tag")?;
    if let Some(&b) = bits.iter().find(|&&b| b >= n_blocks) {
        return Err(format!("tag bit {b} out of range for {n_blocks} blocks"));
    }
    let units = read_usizes(field(v, "units")?, "group units")?
        .into_iter()
        .map(|u| u32::try_from(u).map_err(|_| "unit id overflows u32".to_owned()))
        .collect::<Result<Vec<_>, String>>()?;
    if units.is_empty() {
        return Err("group units must be non-empty".to_owned());
    }
    Ok(IterationGroup::new(Tag::from_bits(n_blocks, bits), units))
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
/// tag bit at or past the program's block count, or a unit id outside the
/// rebuilt space. Each is found before the document's sizes drive an
/// allocation: the document's own length bounds the core count, and the
/// program bounds every tag's width.
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
    let rounds = field(v, "rounds")?
        .as_array()
        .ok_or("rounds must be an array")?
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
    let n_cores = rounds
        .first()
        .ok_or("schedule must have at least one round")?
        .len();
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
        n_groups: schedule.n_groups(),
        schedule,
        space,
        block_bytes,
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
    use crate::pipeline::{map_nest, CtamParams, PipelineError, Strategy};
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

    /// The keys of a JSON object, in document order.
    fn keys(v: &JsonValue) -> Vec<&str> {
        let JsonValue::Object(fields) = v else {
            panic!("expected an object, got {v:?}")
        };
        fields.iter().map(|(k, _)| k.as_str()).collect()
    }

    #[test]
    fn pipeline_mappings_roundtrip() {
        let p = wave(16);
        let m = catalog::harpertown();
        let nest = p.nests().next().unwrap().0;
        for s in Strategy::ALL {
            let mapping = match map_nest(&p, nest, &m, s, &CtamParams::default()) {
                Ok(mapping) => mapping,
                Err(PipelineError::Optimal(_)) => continue,
                Err(e) => panic!("{s}: {e}"),
            };
            let json = mapping_to_json(&mapping);
            let back = mapping_from_json(&p, &json).unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(back, mapping, "{s}");
            assert_eq!(mapping_to_json(&back), json, "{s}");
            // Each decision once: nothing the decoder derives is on the wire.
            let doc = mapping_to_value(&mapping);
            assert_eq!(
                keys(&doc),
                [
                    "format",
                    "version",
                    "nest",
                    "unit_prefix",
                    "block_bytes",
                    "rounds"
                ],
                "{s}"
            );
            let rounds = doc.get("rounds").and_then(JsonValue::as_array).unwrap();
            for groups in rounds.iter().flat_map(|r| r.as_array().unwrap()) {
                for g in groups.as_array().unwrap() {
                    assert_eq!(keys(g), ["tag", "units"], "{s}");
                }
            }
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
        // Older versions, though a version-2 document (which also repeated
        // each tag's width) holds every field version 3 reads.
        let n_blocks = BlockMap::new(&p, mapping.block_bytes).n_blocks();
        let v2 = json
            .replace("\"version\":3", "\"version\":2")
            .replace("{\"tag\":", &format!("{{\"tag_bits\":{n_blocks},\"tag\":"));
        let err = mapping_from_json(&p, &v2).unwrap_err();
        assert_eq!(err, "unsupported mapping document version 2");
        let v1 = json.replace("\"version\":3", "\"version\":1");
        let err = mapping_from_json(&p, &v1).unwrap_err();
        assert_eq!(err, "unsupported mapping document version 1");
        // A tag bit one past the last block.
        let wide = json.replacen("\"tag\":[", &format!("\"tag\":[{n_blocks},"), 1);
        let err = mapping_from_json(&p, &wide).unwrap_err();
        assert_eq!(
            err,
            format!("tag bit {n_blocks} out of range for {n_blocks} blocks")
        );
        // A unit id past the rebuilt space, and an empty unit list.
        let n_units = mapping.space.n_units();
        let far = json.replacen("\"units\":[", "\"units\":[999999,", 1);
        let err = mapping_from_json(&p, &far).unwrap_err();
        assert_eq!(err, format!("unit 999999 out of range for {n_units} units"));
        let empty = json.replacen("\"units\":[", "\"units\":[],\"was\":[", 1);
        let err = mapping_from_json(&p, &empty).unwrap_err();
        assert_eq!(err, "group units must be non-empty");
        // Rounds that differ in core count.
        let cores = |n: usize| JsonValue::Array(vec![JsonValue::Array(Vec::new()); n]);
        let (p, ragged) =
            edited_document(&[("rounds", JsonValue::Array(vec![cores(2), cores(1)]))]);
        let err = mapping_from_value(&p, &ragged).unwrap_err();
        assert_eq!(err, "round 1 covers 1 cores but every round must cover 2");
    }

    /// `wave(8)`'s Base mapping on Harpertown as a document, with `edits`
    /// replacing top-level fields.
    fn edited_document(edits: &[(&str, JsonValue)]) -> (Program, JsonValue) {
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
        (p, JsonValue::Object(fields))
    }

    #[test]
    fn rejects_a_zero_block_size() {
        // Verifying or advising on the mapping would divide by it.
        let (p, doc) = edited_document(&[("block_bytes", JsonValue::Int(0))]);
        let err = mapping_from_value(&p, &doc).unwrap_err();
        assert_eq!(err, "block_bytes must be positive");
    }

    #[test]
    fn rejects_a_schedule_without_rounds() {
        // The first round gives the core count that verification allocates
        // per core; without one nothing would bound it.
        let (p, doc) = edited_document(&[("rounds", JsonValue::Array(Vec::new()))]);
        let err = mapping_from_value(&p, &doc).unwrap_err();
        assert_eq!(err, "schedule must have at least one round");
    }
}
