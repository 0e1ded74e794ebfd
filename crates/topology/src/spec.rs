//! A compact textual format for cache topologies.
//!
//! Machines like Figure 1's can be written on one line, in the spirit of
//! `hwloc`'s synthetic topology strings:
//!
//! ```text
//! Dunnington 2.4GHz 120c: 2x[L3 12M 16w 36c: 3x[L2 3M 12w 10c: 2x[L1 32K 8w 4c]]]
//! ```
//!
//! reads as: clock 2.4 GHz, memory latency 120 cycles, two sockets each with
//! an L3 (12 MiB, 16-way, 36-cycle), each over three L2s (3 MiB, 12-way,
//! 10-cycle), each over two private L1s (32 KiB, 8-way, 4-cycle). Every
//! innermost cache gets one core. Line size defaults to 64 bytes; append
//! e.g. `128b` to a cache to override it.
//!
//! # Example
//!
//! ```
//! use ctam_topology::spec::parse_machine;
//!
//! let m = parse_machine(
//!     "toy 2.0GHz 100c: 2x[L2 1M 8w 12c: 2x[L1 32K 8w 3c]]",
//! ).unwrap();
//! assert_eq!(m.n_cores(), 4);
//! assert_eq!(m.first_shared_level(), Some(2));
//! ```

use std::error::Error;
use std::fmt;

use crate::machine::{Machine, MachineBuilder, NodeId};
use crate::params::CacheParams;
use crate::{KB, MB};

/// A topology-spec parse error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the spec string.
    pub offset: usize,
}

impl SpecError {
    /// Renders the error with a caret pointing at the offending column of
    /// the source it was produced from:
    ///
    /// ```text
    /// line 1, column 31: invalid cache geometry: cache size 5242880 is not a multiple of assoc*line = 448
    ///   m 2.0GHz 100c: 2x[L2 5M 7w 10c]
    ///                                ^
    /// ```
    ///
    /// `src` must be the string the error's `offset` indexes into; offsets
    /// past the end point one past the last column (unexpected end of
    /// input).
    pub fn render(&self, src: &str) -> String {
        let offset = self.offset.min(src.len());
        let line_start = src[..offset].rfind('\n').map_or(0, |i| i + 1);
        let line_no = src[..offset].matches('\n').count() + 1;
        let line_end = src[offset..].find('\n').map_or(src.len(), |i| offset + i);
        let col = src[line_start..offset].chars().count() + 1;
        format!(
            "line {line_no}, column {col}: {}\n  {}\n  {}^",
            self.message,
            &src[line_start..line_end],
            " ".repeat(col - 1)
        )
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at byte {}: {}", self.offset, self.message)
    }
}

impl Error for SpecError {}

pub(crate) struct Cursor<'a> {
    pub(crate) src: &'a str,
    pub(crate) pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn skip_ws(&mut self) {
        while self.src[self.pos..].starts_with(|c: char| c.is_whitespace()) {
            self.pos += 1;
        }
    }

    pub(crate) fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    pub(crate) fn error(&self, message: impl Into<String>) -> SpecError {
        SpecError {
            message: message.into(),
            offset: self.pos,
        }
    }

    pub(crate) fn eat(&mut self, token: &str) -> Result<(), SpecError> {
        self.skip_ws();
        if self.rest().starts_with(token) {
            self.pos += token.len();
            Ok(())
        } else {
            Err(self.error(format!("expected '{token}'")))
        }
    }

    pub(crate) fn try_eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    /// Parses a decimal integer. `_` may be used as a digit-group separator
    /// (`12_288`), anywhere except before the first digit.
    pub(crate) fn number(&mut self) -> Result<u64, SpecError> {
        self.skip_ws();
        let raw: String = self
            .rest()
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '_')
            .collect();
        let digits: String = raw.chars().filter(char::is_ascii_digit).collect();
        if digits.is_empty() || !raw.starts_with(|c: char| c.is_ascii_digit()) {
            return Err(self.error("expected a number"));
        }
        self.pos += raw.len();
        digits
            .parse()
            .map_err(|_| self.error("number out of range"))
    }

    pub(crate) fn decimal(&mut self) -> Result<f64, SpecError> {
        self.skip_ws();
        let text: String = self
            .rest()
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .collect();
        if text.is_empty() {
            return Err(self.error("expected a decimal number"));
        }
        self.pos += text.len();
        text.parse()
            .map_err(|_| self.error("malformed decimal number"))
    }

    pub(crate) fn word(&mut self) -> Result<&'a str, SpecError> {
        self.skip_ws();
        let len = self
            .rest()
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == '-')
            .map(char::len_utf8)
            .sum();
        if len == 0 {
            return Err(self.error("expected a name"));
        }
        let w = &self.rest()[..len];
        self.pos += len;
        Ok(w)
    }
}

/// One cache description from the spec.
pub(crate) struct SpecCache {
    pub(crate) level: u8,
    pub(crate) params: CacheParams,
}

/// Parses `L<level> <size>(K|M|B) <assoc>w <latency>c [<line>b]`.
pub(crate) fn parse_cache(c: &mut Cursor<'_>) -> Result<SpecCache, SpecError> {
    c.eat("L")?;
    let level = c.number()?;
    if level == 0 || level > 16 {
        return Err(c.error("cache level must be in 1..=16"));
    }
    let size_num = c.number()?;
    let unit = if c.try_eat("M") {
        MB
    } else if c.try_eat("K") {
        KB
    } else if c.try_eat("B") {
        1
    } else {
        return Err(c.error("cache size needs a K, M or B suffix"));
    };
    let size = size_num
        .checked_mul(unit)
        .ok_or_else(|| c.error("cache size out of range"))?;
    let assoc = c.number()?;
    c.eat("w")?;
    let latency = c.number()?;
    c.eat("c")?;
    let line = {
        let save = c.pos;
        match c.number() {
            Ok(n) if c.try_eat("b") => n,
            _ => {
                c.pos = save;
                64
            }
        }
    };
    if assoc > u64::from(u32::MAX) || latency > u64::from(u32::MAX) {
        return Err(c.error("associativity/latency out of range"));
    }
    let line = u32::try_from(line).map_err(|_| {
        c.error(format!(
            "invalid cache geometry: line size {line} out of range"
        ))
    })?;
    let params = CacheParams::try_new(size, assoc as u32, line, latency as u32)
        .map_err(|e| c.error(format!("invalid cache geometry: {e}")))?;
    Ok(SpecCache {
        level: level as u8,
        params,
    })
}

/// Parses `<count>x[cache (: group)?]` recursively under `parent`.
fn parse_group(
    c: &mut Cursor<'_>,
    b: &mut MachineBuilder,
    parent: NodeId,
) -> Result<(), SpecError> {
    c.skip_ws();
    let count = if c.rest().starts_with(|ch: char| ch.is_ascii_digit()) {
        let n = c.number()?;
        c.eat("x")?;
        n
    } else {
        1
    };
    if count == 0 || count > 1024 {
        return Err(c.error("replication count must be in 1..=1024"));
    }
    c.eat("[")?;
    let start = c.pos;
    for _ in 0..count {
        c.pos = start; // re-parse the same body for each replica
        let cache = parse_cache(c)?;
        let node = b.cache(parent, cache.level, cache.params);
        if c.try_eat(":") {
            parse_group(c, b, node)?;
        } else {
            // Innermost cache: one core behind it.
            b.raw_core(node);
        }
        c.eat("]")?;
    }
    Ok(())
}

/// Parses a one-line machine spec:
/// `NAME <clock>GHz <memory-latency>c: <groups>`.
///
/// # Errors
///
/// [`SpecError`] pointing at the first offending byte.
pub fn parse_machine(spec: &str) -> Result<Machine, SpecError> {
    let mut c = Cursor { src: spec, pos: 0 };
    let name = c.word()?.to_owned();
    let clock = c.decimal()?;
    c.eat("GHz")?;
    let mem = c.number()?;
    c.eat("c")?;
    c.eat(":")?;
    if clock <= 0.0 || mem > u64::from(u32::MAX) {
        return Err(c.error("clock/memory latency out of range"));
    }
    let mut b = Machine::builder(&name, clock, mem as u32);
    loop {
        parse_group(&mut c, &mut b, NodeId::ROOT)?;
        c.skip_ws();
        if c.rest().is_empty() {
            break;
        }
    }
    Ok(b.build())
}

/// Emits one subtree (a cache and everything below it) in spec syntax.
fn subtree_spec(m: &Machine, node: NodeId) -> String {
    let crate::machine::NodeKind::Cache { level, params } = m.kind(node) else {
        panic!("to_spec: a core directly under the memory root is not representable");
    };
    let size = params.size_bytes();
    let size_txt = if size.is_multiple_of(MB) {
        format!("{}M", size / MB)
    } else if size.is_multiple_of(KB) {
        format!("{}K", size / KB)
    } else {
        format!("{size}B")
    };
    let mut out = format!(
        "L{level} {size_txt} {}w {}c",
        params.associativity(),
        params.latency()
    );
    if params.line_bytes() != 64 {
        out.push_str(&format!(" {}b", params.line_bytes()));
    }
    let children = m.children(node);
    let n_cores = children
        .iter()
        .filter(|&&c| matches!(m.kind(c), crate::machine::NodeKind::Core(_)))
        .count();
    if n_cores > 0 {
        assert!(
            n_cores == children.len() && n_cores == 1,
            "to_spec: an innermost cache must hold exactly one core and nothing else \
             (node {} has {} cores among {} children)",
            node.index(),
            n_cores,
            children.len()
        );
        return out;
    }
    let bodies: Vec<String> = children.iter().map(|&c| subtree_spec(m, c)).collect();
    assert!(
        bodies.windows(2).all(|w| w[0] == w[1]),
        "to_spec: the children of cache node {} are not identical subtrees",
        node.index()
    );
    assert!(
        bodies.len() <= 1024,
        "to_spec: cache node {} has more than 1024 children",
        node.index()
    );
    out.push_str(&format!(": {}x[{}]", bodies.len(), bodies[0]));
    out
}

impl Machine {
    /// Serializes the machine back to the one-line spec format, the inverse
    /// of [`parse_machine`]: `parse_machine(&m.to_spec()).unwrap() == m` for
    /// any machine the grammar can express whose arena is in depth-first
    /// insertion order (as `parse_machine`, the catalog and the zoo all
    /// produce). Machines built in another insertion order round-trip to an
    /// isomorphic tree with renumbered nodes. Adjacent identical root
    /// subtrees are run-length encoded into `Nx[...]` groups (split at the
    /// grammar's 1024 cap).
    ///
    /// # Panics
    ///
    /// Panics on machines the spec grammar cannot express:
    /// - the name is not a single spec word (`[A-Za-z0-9_-]+`), or the clock
    ///   is not positive;
    /// - a core sits directly under the memory root;
    /// - an innermost cache holds more than one core, or mixes cores with
    ///   caches;
    /// - a cache's children are not identical subtrees (the grammar allows
    ///   asymmetry only between top-level groups), or number more than 1024.
    pub fn to_spec(&self) -> String {
        assert!(
            !self.name().is_empty()
                && self
                    .name()
                    .chars()
                    .all(|c| c.is_alphanumeric() || c == '_' || c == '-'),
            "to_spec: machine name {:?} is not a spec word",
            self.name()
        );
        assert!(self.clock_ghz() > 0.0, "to_spec: clock must be positive");
        let mut out = format!(
            "{} {}GHz {}c:",
            self.name(),
            self.clock_ghz(),
            self.memory_latency()
        );
        let bodies: Vec<String> = self
            .children(NodeId::ROOT)
            .iter()
            .map(|&t| subtree_spec(self, t))
            .collect();
        let mut i = 0;
        while i < bodies.len() {
            let mut j = i + 1;
            while j < bodies.len() && bodies[j] == bodies[i] && j - i < 1024 {
                j += 1;
            }
            out.push_str(&format!(" {}x[{}]", j - i, bodies[i]));
            i = j;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    const DUNNINGTON: &str =
        "Dunnington 2.4GHz 120c: 2x[L3 12M 16w 36c: 3x[L2 3M 12w 10c: 2x[L1 32K 8w 4c]]]";

    #[test]
    fn dunnington_spec_matches_the_catalog() {
        let parsed = parse_machine(DUNNINGTON).unwrap();
        let built = catalog::dunnington();
        assert_eq!(parsed.n_cores(), built.n_cores());
        assert_eq!(parsed.levels(), built.levels());
        assert_eq!(parsed.total_cache_bytes(), built.total_cache_bytes());
        assert_eq!(parsed.memory_latency(), built.memory_latency());
        for a in 0..parsed.n_cores() {
            for b in 0..parsed.n_cores() {
                assert_eq!(
                    parsed.affinity_level(a.into(), b.into()),
                    built.affinity_level(a.into(), b.into()),
                    "cores {a},{b}"
                );
            }
        }
    }

    #[test]
    fn harpertown_two_level_spec() {
        let m =
            parse_machine("Harpertown 3.2GHz 320c: 4x[L2 6M 24w 15c: 2x[L1 32K 8w 3c]]").unwrap();
        assert_eq!(m.n_cores(), 8);
        assert_eq!(m.levels(), vec![1, 2]);
    }

    #[test]
    fn custom_line_size() {
        let m = parse_machine("w 1.0GHz 100c: 1x[L1 32K 8w 3c 128b]").unwrap();
        let crate::machine::NodeKind::Cache { params, .. } = m.kind(m.caches_at(1)[0]) else {
            panic!("expected a cache");
        };
        assert_eq!(params.line_bytes(), 128);
    }

    #[test]
    fn errors_point_into_the_string() {
        let err = parse_machine("m 2.0GHz 100c: 2x[L2 5M 7w 10c]").unwrap_err();
        assert!(err.message.contains("geometry"), "{err}");
        assert!(err.offset > 0);
        assert!(parse_machine("m 2.0GHz: 1x[L1 32K 8w 3c]").is_err());
        assert!(parse_machine("m 2.0GHz 100c: 0x[L1 32K 8w 3c]").is_err());
    }

    #[test]
    fn non_power_of_two_line_size_is_a_geometry_error() {
        let err = parse_machine("m 1.0GHz 100c: 1x[L1 32K 8w 3c 48b]").unwrap_err();
        assert!(err.message.contains("geometry"), "{err}");
    }

    #[test]
    fn size_not_a_multiple_of_assoc_times_line_is_a_geometry_error() {
        // 2KB cache, 8 ways x 512B lines = 4KB per set row: 2048 % 4096 != 0.
        let err = parse_machine("m 1.0GHz 100c: 1x[L1 2K 8w 3c 512b]").unwrap_err();
        assert!(err.message.contains("geometry"), "{err}");
        // The same geometry with a legal line parses fine, so the error is
        // attributable to the size/assoc/line relation alone.
        assert!(parse_machine("m 1.0GHz 100c: 1x[L1 2K 8w 3c 64b]").is_ok());
    }

    #[test]
    fn line_size_beyond_u32_is_a_geometry_error() {
        // 2^33 bytes: a power of two, but wider than CacheParams can hold.
        let err = parse_machine("m 1.0GHz 100c: 1x[L1 32K 8w 3c 8589934592b]").unwrap_err();
        assert!(err.message.contains("geometry"), "{err}");
    }

    #[test]
    fn caches_past_32_bits_are_a_geometry_error() {
        // A 1 TiB L2: a legal geometry whose simulated tag array alone
        // would take 128 GiB.
        let err =
            parse_machine("toy 2.0GHz 100c: 2x[L2 1048576M 8w 12c: 2x[L1 32K 8w 3c]]").unwrap_err();
        assert_eq!(
            err.message,
            "invalid cache geometry: cache size 1099511627776 exceeds the \
             4294967295-byte ceiling"
        );
    }

    #[test]
    fn underscore_grouped_sizes_parse() {
        let m = parse_machine("m 2.4GHz 120c: 1x[L3 12_288K 16w 36c: 2x[L1 32K 8w 4c]]").unwrap();
        let p = m.cache_params(m.caches_at(3)[0]).unwrap();
        assert_eq!(p.size_bytes(), 12 * MB);
        // `_` works in any numeric position, not just sizes.
        let m2 = parse_machine("m 2.4GHz 1_20c: 1x[L1 3_2K 8w 4c]").unwrap();
        assert_eq!(m2.memory_latency(), 120);
        // A leading `_` is a name character, not a number.
        assert!(parse_machine("m 2.4GHz _120c: 1x[L1 32K 8w 4c]").is_err());
    }

    #[test]
    fn byte_size_suffix_parses() {
        let m = parse_machine("m 1.0GHz 100c: 1x[L1 32768B 8w 3c]").unwrap();
        let p = m.cache_params(m.caches_at(1)[0]).unwrap();
        assert_eq!(p.size_bytes(), 32 * KB);
    }

    #[test]
    fn trailing_whitespace_is_accepted() {
        let m = parse_machine("m 1.0GHz 100c: 1x[L1 32K 8w 3c]  \n").unwrap();
        assert_eq!(m.n_cores(), 1);
    }

    #[test]
    fn render_points_a_caret_at_the_column() {
        let src = "m 2.0GHz 100c: 2x[L2 5M 7w 10c]";
        let err = parse_machine(src).unwrap_err();
        let rendered = err.render(src);
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 3, "{rendered}");
        assert!(lines[0].starts_with("line 1, column "), "{rendered}");
        assert_eq!(lines[1], format!("  {src}"));
        // The caret column matches the reported byte offset (ASCII input).
        assert_eq!(lines[2], format!("  {}^", " ".repeat(err.offset)));
    }

    #[test]
    fn render_handles_offsets_past_the_end() {
        let src = "m 2.0GHz 100c:";
        let err = parse_machine(src).unwrap_err();
        let rendered = err.render(src);
        assert!(rendered.contains('^'), "{rendered}");
    }

    #[test]
    fn to_spec_round_trips_the_catalog() {
        for m in [
            catalog::harpertown(),
            catalog::nehalem(),
            catalog::dunnington(),
            catalog::dunnington_scaled(3),
            catalog::dunnington_scaled(4),
            catalog::arch_i(),
            catalog::arch_ii(),
        ] {
            let spec = m.to_spec();
            let back = parse_machine(&spec).unwrap_or_else(|e| {
                panic!(
                    "{}: to_spec output failed to parse:\n{}",
                    m.name(),
                    e.render(&spec)
                )
            });
            assert_eq!(back, m, "{} round-trip through {spec:?}", m.name());
        }
    }

    #[test]
    fn to_spec_run_length_encodes_root_groups() {
        let spec = catalog::harpertown().to_spec();
        assert_eq!(
            spec,
            "Harpertown 3.2GHz 320c: 4x[L2 6M 24w 15c: 2x[L1 32K 8w 3c]]"
        );
    }

    #[test]
    fn to_spec_emits_byte_sizes_and_line_overrides() {
        let m = parse_machine("m 1.0GHz 100c: 1x[L1 1536B 2w 3c 128b]").unwrap();
        let spec = m.to_spec();
        assert!(spec.contains("1536B") && spec.contains("128b"), "{spec}");
        assert_eq!(parse_machine(&spec).unwrap(), m);
    }

    #[test]
    #[should_panic(expected = "not a spec word")]
    fn to_spec_rejects_unspellable_names() {
        let _ = catalog::dunnington().halved_capacities().to_spec(); // "Dunnington/halved"
    }

    #[test]
    fn multiple_top_level_groups() {
        // An asymmetric machine: one fat socket, one thin.
        let m = parse_machine(
            "asym 2.0GHz 100c: 1x[L2 2M 8w 12c: 4x[L1 32K 8w 3c]] 1x[L2 2M 8w 12c: 2x[L1 32K 8w 3c]]",
        )
        .unwrap();
        assert_eq!(m.n_cores(), 6);
        assert_eq!(m.shared_domains(2).len(), 2);
    }
}
