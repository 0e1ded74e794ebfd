//! JSON (de)serialization for [`Machine`], on the workspace's shared
//! self-describing codec ([`ctam_cert::json`]).
//!
//! Unlike the one-line spec grammar ([`crate::spec`]), which can only
//! express machines whose cache children are identical subtrees, this codec
//! serializes the hierarchy tree verbatim — any machine a
//! [`crate::MachineBuilder`] can build round-trips. The tree is emitted and
//! rebuilt in depth-first preorder, so machines whose arena is in that
//! insertion order (the builder's natural order; everything in the catalog
//! and the zoo) satisfy `machine_from_json(&machine_to_json(m)) == m` under
//! [`Machine`]'s structural equality. Machines assembled in another
//! insertion order round-trip to an isomorphic tree with renumbered nodes.

use ctam_cert::json::{self, field, JsonValue};

use crate::machine::{Machine, MachineBuilder, NodeId, NodeKind};
use crate::params::CacheParams;

/// Format tag every machine document carries.
pub const FORMAT: &str = "ctam-machine";
/// Current machine document version.
pub const VERSION: i64 = 1;

fn node_value(m: &Machine, node: NodeId) -> JsonValue {
    match m.kind(node) {
        NodeKind::Memory => unreachable!("the memory root is implicit in the document"),
        NodeKind::Core(_) => JsonValue::Object(vec![("core".to_owned(), JsonValue::Bool(true))]),
        NodeKind::Cache { level, params } => JsonValue::Object(vec![
            ("level".to_owned(), JsonValue::Int(i64::from(level))),
            (
                "size_bytes".to_owned(),
                JsonValue::Int(params.size_bytes() as i64),
            ),
            (
                "associativity".to_owned(),
                JsonValue::Int(i64::from(params.associativity())),
            ),
            (
                "line_bytes".to_owned(),
                JsonValue::Int(i64::from(params.line_bytes())),
            ),
            (
                "latency".to_owned(),
                JsonValue::Int(i64::from(params.latency())),
            ),
            (
                "children".to_owned(),
                JsonValue::Array(m.children(node).iter().map(|&c| node_value(m, c)).collect()),
            ),
        ]),
    }
}

/// The machine as a [`JsonValue`] tree.
pub fn machine_to_value(m: &Machine) -> JsonValue {
    JsonValue::Object(vec![
        ("format".to_owned(), JsonValue::Str(FORMAT.to_owned())),
        ("version".to_owned(), JsonValue::Int(VERSION)),
        ("name".to_owned(), JsonValue::Str(m.name().to_owned())),
        ("clock_ghz".to_owned(), JsonValue::Float(m.clock_ghz())),
        (
            "memory_latency".to_owned(),
            JsonValue::Int(i64::from(m.memory_latency())),
        ),
        (
            "tree".to_owned(),
            JsonValue::Array(
                m.children(NodeId::ROOT)
                    .iter()
                    .map(|&t| node_value(m, t))
                    .collect(),
            ),
        ),
    ])
}

/// Serializes the machine as a compact self-describing JSON document.
pub fn machine_to_json(m: &Machine) -> String {
    machine_to_value(m).render()
}

fn build_node(
    b: &mut MachineBuilder,
    parent: NodeId,
    parent_level: Option<u8>,
    v: &JsonValue,
) -> Result<(), String> {
    if v.get("core").is_some() {
        if parent_level.is_none() {
            return Err("a core cannot sit directly under the memory root".to_owned());
        }
        b.raw_core(parent);
        return Ok(());
    }
    let level = field(v, "level")?
        .as_i64()
        .and_then(|l| u8::try_from(l).ok())
        .ok_or("cache level must fit a u8")?;
    if level == 0 {
        return Err("cache level must be >= 1".to_owned());
    }
    if let Some(pl) = parent_level {
        if level >= pl {
            return Err(format!(
                "cache L{level} cannot be nested under L{pl}: levels must decrease toward cores"
            ));
        }
    }
    let geom = |key: &str| -> Result<u32, String> {
        field(v, key)?
            .as_i64()
            .and_then(|x| u32::try_from(x).ok())
            .ok_or_else(|| format!("cache {key} must be a non-negative integer"))
    };
    let size = field(v, "size_bytes")?
        .as_u64()
        .ok_or("cache size_bytes must be a non-negative integer")?;
    let params = CacheParams::try_new(
        size,
        geom("associativity")?,
        geom("line_bytes")?,
        geom("latency")?,
    )
    .map_err(|e| format!("invalid cache geometry: {e}"))?;
    let children = field(v, "children")?
        .as_array()
        .ok_or("cache children must be an array")?;
    if children.is_empty() {
        return Err(format!(
            "cache L{level} has no children; every cache must serve cores"
        ));
    }
    let node = b.cache(parent, level, params);
    for c in children {
        build_node(b, node, Some(level), c)?;
    }
    Ok(())
}

/// Parses a machine from a [`JsonValue`] tree.
///
/// # Errors
///
/// A description of the first structural error: wrong format tag, malformed
/// geometry, empty caches, non-decreasing levels, or a machine without
/// cores.
pub fn machine_from_value(v: &JsonValue) -> Result<Machine, String> {
    let format = field(v, "format")?.as_str().unwrap_or_default();
    if format != FORMAT {
        return Err(format!("not a machine document (format `{format}`)"));
    }
    let version = field(v, "version")?.as_i64().unwrap_or(0);
    if version != VERSION {
        return Err(format!("unsupported machine document version {version}"));
    }
    let name = field(v, "name")?
        .as_str()
        .ok_or("machine name must be a string")?;
    let clock = field(v, "clock_ghz")?
        .as_f64()
        .ok_or("clock_ghz must be a number")?;
    if !(clock.is_finite() && clock > 0.0) {
        return Err("clock_ghz must be positive and finite".to_owned());
    }
    let memory_latency = field(v, "memory_latency")?
        .as_i64()
        .and_then(|x| u32::try_from(x).ok())
        .ok_or("memory_latency must be a non-negative integer")?;
    let tree = field(v, "tree")?
        .as_array()
        .ok_or("tree must be an array")?;
    let mut b = Machine::builder(name, clock, memory_latency);
    let mut any_core = false;
    for t in tree {
        build_node(&mut b, NodeId::ROOT, None, t)?;
        any_core = true;
    }
    if !any_core {
        return Err("machine must have at least one top-level subtree".to_owned());
    }
    Ok(b.build())
}

/// Parses a machine from its JSON encoding.
///
/// # Errors
///
/// Same as [`machine_from_value`], plus JSON syntax errors.
pub fn machine_from_json(input: &str) -> Result<Machine, String> {
    machine_from_value(&json::parse(input)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn catalog_machines_roundtrip() {
        for m in catalog::commercial_machines() {
            let json = machine_to_json(&m);
            let back = machine_from_json(&json).unwrap_or_else(|e| panic!("{}: {e}", m.name()));
            assert_eq!(back, m, "{}", m.name());
            // And the encoding itself is stable.
            assert_eq!(machine_to_json(&back), json, "{}", m.name());
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(machine_from_json("{\"format\":\"other\"}").is_err());
        assert!(machine_from_json("nope").is_err());
        // A cache with no children is structurally invalid.
        let bad = r#"{"format":"ctam-machine","version":1,"name":"x","clock_ghz":1.0,
            "memory_latency":100,"tree":[{"level":2,"size_bytes":1048576,
            "associativity":8,"line_bytes":64,"latency":10,"children":[]}]}"#;
        assert!(machine_from_json(bad).is_err());
        // A core directly under the memory root is not representable.
        let core_at_root = r#"{"format":"ctam-machine","version":1,"name":"x",
            "clock_ghz":1.0,"memory_latency":100,"tree":[{"core":true}]}"#;
        assert!(machine_from_json(core_at_root).is_err());
        // Levels must decrease toward the cores.
        let inverted = r#"{"format":"ctam-machine","version":1,"name":"x","clock_ghz":1.0,
            "memory_latency":100,"tree":[{"level":1,"size_bytes":32768,
            "associativity":8,"line_bytes":64,"latency":3,"children":[{"level":2,
            "size_bytes":1048576,"associativity":8,"line_bytes":64,"latency":10,
            "children":[{"core":true}]}]}]}"#;
        assert!(machine_from_json(inverted).is_err());
    }

    #[test]
    fn rejects_a_cache_past_32_bits() {
        let small =
            crate::spec::parse_machine("toy 2.0GHz 100c: 2x[L2 1M 8w 12c: 2x[L1 32K 8w 3c]]")
                .unwrap();
        let json = machine_to_json(&small);
        let huge = json.replace("\"size_bytes\":1048576", "\"size_bytes\":1099511627776");
        assert_ne!(huge, json);
        let err = machine_from_json(&huge).unwrap_err();
        assert_eq!(
            err,
            "invalid cache geometry: cache size 1099511627776 exceeds the \
             4294967295-byte ceiling"
        );
    }
}
