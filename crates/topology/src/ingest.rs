//! Ingestion of real-machine cache descriptions into [`Machine`] trees.
//!
//! Two textual formats are supported, modelled on the two ways real
//! systems expose their cache topology:
//!
//! * **cpuid-style deterministic cache leaves** ([`parse_cpuid_leaves`]):
//!   one line per cache level with its geometry and the *sharing width*
//!   (how many logical CPUs share one instance), the shape `cpuid` leaf 4
//!   reports and tools walk to build a topology. CPUs are assumed
//!   contiguous: instance `i` of a level with width `w` serves CPUs
//!   `i*w .. (i+1)*w`.
//!
//!   ```text
//!   # Intel Harpertown, from cpuid leaf 4
//!   machine Harpertown 3.2GHz 320c cores 8
//!   leaf L1 32K 8w 3c shared 1
//!   leaf L2 6M 24w 15c shared 2
//!   ```
//!
//! * **sysfs-style `index<N>` dumps** ([`parse_sysfs_dump`]): one line per
//!   `(cpu, cache index)` pair with an explicit `shared_cpu_map` bit mask,
//!   the shape of `/sys/devices/system/cpu/cpu*/cache/index*/`. This form
//!   carries no placement assumption at all — the tree is reconstructed
//!   from the masks, which must form a laminar family
//!   (checked with [`crate::lint::lint_shared_maps`]).
//!
//!   ```text
//!   machine toy 2.0GHz 100c
//!   cpu0 index0: level 1 size 32K ways 8 line 64 latency 3 shared_cpu_map 0x1
//!   cpu0 index1: level 2 size 1M ways 8 line 64 latency 12 shared_cpu_map 0x3
//!   cpu1 index0: level 1 size 32K ways 8 line 64 latency 3 shared_cpu_map 0x2
//!   cpu1 index1: level 2 size 1M ways 8 line 64 latency 12 shared_cpu_map 0x3
//!   ```
//!
//! Both parsers reuse the spec parser's cache grammar and geometry
//! validation, skip blank lines and `#` comments, and report errors with
//! 1-based line numbers. Ingestion checks only what is needed to build a
//! *tree* (laminarity, contiguous CPU numbering, divisible sharing
//! widths); physical plausibility is the linter's job — run
//! [`crate::lint::lint_machine`] on the result.

use std::error::Error;
use std::fmt;

use crate::lint;
use crate::machine::{Machine, MachineBuilder, NodeId};
use crate::params::CacheParams;
use crate::spec::{parse_cache, Cursor, SpecError};
use crate::{KB, MB};

/// An ingestion error with the 1-based line it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestError {
    /// What went wrong.
    pub message: String,
    /// 1-based line number in the dump.
    pub line: usize,
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for IngestError {}

fn err(line: usize, message: impl Into<String>) -> IngestError {
    IngestError {
        message: message.into(),
        line,
    }
}

fn from_spec(line_no: usize, line: &str, e: SpecError) -> IngestError {
    err(
        line_no,
        format!(
            "{} (column {})",
            e.message,
            line[..e.offset.min(line.len())].chars().count() + 1
        ),
    )
}

/// The non-comment, non-blank lines of a dump, with their 1-based numbers.
fn content_lines(src: &str) -> impl Iterator<Item = (usize, &str)> {
    src.lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
}

/// Parses `machine <name> <clock>GHz <mem>c` from a header cursor and
/// returns `(name, clock, memory_latency)`.
fn parse_header(c: &mut Cursor<'_>) -> Result<(String, f64, u32), SpecError> {
    c.eat("machine")?;
    let name = c.word()?.to_owned();
    let clock = c.decimal()?;
    c.eat("GHz")?;
    let mem = c.number()?;
    c.eat("c")?;
    if clock <= 0.0 || mem > u64::from(u32::MAX) {
        return Err(c.error("clock/memory latency out of range"));
    }
    Ok((name, clock, mem as u32))
}

/// One cache level from a cpuid-style dump.
struct Leaf {
    level: u8,
    params: CacheParams,
    width: usize,
    line_no: usize,
}

/// Parses a cpuid-style deterministic-cache-leaf table (see the module
/// docs for the format) into a machine. Sharing widths must nest — every
/// outer width a multiple of the next inner one — and the innermost width
/// may exceed 1 (SMT siblings sharing an L1). A core count that is not a
/// multiple of the outermost width leaves the last instances partially
/// populated.
///
/// # Errors
///
/// [`IngestError`] on syntax errors, duplicate levels, zero or
/// non-nesting widths, or a missing/zero `cores` count.
pub fn parse_cpuid_leaves(src: &str) -> Result<Machine, IngestError> {
    let mut lines = content_lines(src);
    let Some((hline_no, hline)) = lines.next() else {
        return Err(err(1, "empty dump: expected a `machine ...` header"));
    };
    let mut c = Cursor { src: hline, pos: 0 };
    let (name, clock, mem) = parse_header(&mut c).map_err(|e| from_spec(hline_no, hline, e))?;
    let n_cores = (|| -> Result<u64, SpecError> {
        c.eat("cores")?;
        let n = c.number()?;
        c.skip_ws();
        if !c.rest().is_empty() {
            return Err(c.error("trailing input after the header"));
        }
        Ok(n)
    })()
    .map_err(|e| from_spec(hline_no, hline, e))?;
    if n_cores == 0 || n_cores > 4096 {
        return Err(err(hline_no, "core count must be in 1..=4096"));
    }
    let n_cores = n_cores as usize;

    let mut leaves: Vec<Leaf> = Vec::new();
    for (line_no, line) in lines {
        let mut c = Cursor { src: line, pos: 0 };
        let leaf = (|| -> Result<Leaf, SpecError> {
            c.eat("leaf")?;
            let cache = parse_cache(&mut c)?;
            c.eat("shared")?;
            let width = c.number()?;
            c.skip_ws();
            if !c.rest().is_empty() {
                return Err(c.error("trailing input after the leaf"));
            }
            if width == 0 || width > n_cores as u64 {
                return Err(c.error(format!(
                    "sharing width must be in 1..={n_cores} (the core count)"
                )));
            }
            Ok(Leaf {
                level: cache.level,
                params: cache.params,
                width: width as usize,
                line_no,
            })
        })()
        .map_err(|e| from_spec(line_no, line, e))?;
        if leaves.iter().any(|l| l.level == leaf.level) {
            return Err(err(line_no, format!("duplicate leaf for L{}", leaf.level)));
        }
        leaves.push(leaf);
    }

    // Outermost first; widths must nest as we descend.
    leaves.sort_by_key(|l| std::cmp::Reverse(l.level));
    for pair in leaves.windows(2) {
        let (outer, inner) = (&pair[0], &pair[1]);
        if !outer.width.is_multiple_of(inner.width) {
            return Err(err(
                inner.line_no,
                format!(
                    "L{} sharing width {} does not divide the L{} width {}: \
                     instances cannot nest",
                    inner.level, inner.width, outer.level, outer.width
                ),
            ));
        }
    }

    let mut b = Machine::builder(&name, clock, mem);
    fn grow(b: &mut MachineBuilder, parent: NodeId, leaves: &[Leaf], lo: usize, hi: usize) {
        let Some(leaf) = leaves.first() else {
            for _ in lo..hi {
                b.raw_core(parent);
            }
            return;
        };
        let mut start = lo;
        while start < hi {
            let node = b.cache(parent, leaf.level, leaf.params);
            grow(b, node, &leaves[1..], start, (start + leaf.width).min(hi));
            start += leaf.width;
        }
    }
    grow(&mut b, NodeId::ROOT, &leaves, 0, n_cores);
    Ok(b.build())
}

/// One `(cpu, index)` record from a sysfs-style dump.
struct SysfsRecord {
    level: u8,
    params: CacheParams,
    mask: u128,
    line_no: usize,
}

/// Parses a sysfs-style `shared_cpu_map` dump (see the module docs for the
/// format) into a machine. Instances are deduplicated by `(level, mask)`;
/// the tree is rebuilt by nesting masks, and cores are numbered by CPU
/// bit. At most 128 CPUs (one mask word).
///
/// # Errors
///
/// [`IngestError`] on syntax errors, a record whose mask omits its own
/// CPU, conflicting geometry for one instance, CPU numbering holes,
/// non-laminar masks, or a mask family no tree can serve.
pub fn parse_sysfs_dump(src: &str) -> Result<Machine, IngestError> {
    let mut lines = content_lines(src);
    let Some((hline_no, hline)) = lines.next() else {
        return Err(err(1, "empty dump: expected a `machine ...` header"));
    };
    let mut hc = Cursor { src: hline, pos: 0 };
    let (name, clock, mem) = (|| -> Result<_, SpecError> {
        let h = parse_header(&mut hc)?;
        hc.skip_ws();
        if !hc.rest().is_empty() {
            return Err(hc.error("trailing input after the header"));
        }
        Ok(h)
    })()
    .map_err(|e| from_spec(hline_no, hline, e))?;

    let mut records: Vec<SysfsRecord> = Vec::new();
    for (line_no, line) in lines {
        let mut c = Cursor { src: line, pos: 0 };
        let rec = (|| -> Result<SysfsRecord, SpecError> {
            c.eat("cpu")?;
            let cpu = c.number()?;
            if cpu >= 128 {
                return Err(c.error("cpu index must be below 128 (one mask word)"));
            }
            c.eat("index")?;
            let _index = c.number()?;
            c.eat(":")?;
            c.eat("level")?;
            let level = c.number()?;
            if level == 0 || level > 16 {
                return Err(c.error("cache level must be in 1..=16"));
            }
            c.eat("size")?;
            let size_num = c.number()?;
            let size = if c.try_eat("M") {
                size_num.checked_mul(MB)
            } else if c.try_eat("K") {
                size_num.checked_mul(KB)
            } else {
                c.try_eat("B");
                Some(size_num)
            }
            .ok_or_else(|| c.error("cache size out of range"))?;
            c.eat("ways")?;
            let ways = c.number()?;
            c.eat("line")?;
            let line_bytes = c.number()?;
            c.eat("latency")?;
            let latency = c.number()?;
            c.eat("shared_cpu_map")?;
            let mask = hex_mask(&mut c)?;
            c.skip_ws();
            if !c.rest().is_empty() {
                return Err(c.error("trailing input after the record"));
            }
            if mask & (1u128 << cpu) == 0 {
                return Err(c.error(format!(
                    "shared_cpu_map {mask:#x} does not include its own cpu{cpu}"
                )));
            }
            if ways > u64::from(u32::MAX)
                || line_bytes > u64::from(u32::MAX)
                || latency > u64::from(u32::MAX)
            {
                return Err(c.error("ways/line/latency out of range"));
            }
            let params = CacheParams::try_new(size, ways as u32, line_bytes as u32, latency as u32)
                .map_err(|m| c.error(m))?;
            Ok(SysfsRecord {
                level: level as u8,
                params,
                mask,
                line_no,
            })
        })()
        .map_err(|e| from_spec(line_no, line, e))?;
        if let Some(prev) = records
            .iter()
            .find(|r| r.level == rec.level && r.mask == rec.mask)
        {
            if prev.params != rec.params {
                return Err(err(
                    rec.line_no,
                    format!(
                        "L{} instance {:#x} re-described with different geometry \
                         (first seen on line {})",
                        rec.level, rec.mask, prev.line_no
                    ),
                ));
            }
        } else {
            records.push(rec);
        }
    }
    if records.is_empty() {
        return Err(err(hline_no, "dump has a header but no cache records"));
    }

    // CPU numbering must be dense from 0.
    let all: u128 = records.iter().fold(0, |acc, r| acc | r.mask);
    let n_cores = all.count_ones() as usize;
    if all != ((1u128 << n_cores) - 1) {
        return Err(err(
            hline_no,
            format!("cpu numbering has holes: union of masks is {all:#x}"),
        ));
    }

    // The masks must form a laminar family a tree can represent. Check
    // pairwise against everything seen earlier so the error points at the
    // record that introduced the conflict, not at the header.
    for (i, later) in records.iter().enumerate() {
        for earlier in &records[..i] {
            let pair = [(earlier.level, earlier.mask), (later.level, later.mask)];
            if let Some(l) = lint::lint_shared_maps(&pair).first() {
                return Err(err(later.line_no, l.message.clone()));
            }
        }
    }

    // Build outermost-first: widest masks, then higher levels. Each
    // instance hangs under the tightest already-placed superset; each core
    // under the tightest cache containing its bit. Laminarity (checked
    // above) guarantees "tightest" is unique and every cache ends up with
    // at least one descendant core.
    records.sort_by(|a, b| {
        (b.mask.count_ones(), b.level, a.mask).cmp(&(a.mask.count_ones(), a.level, b.mask))
    });
    let mut b = Machine::builder(&name, clock, mem);
    let mut placed: Vec<(u128, u8, NodeId)> = Vec::new();
    for r in &records {
        let parent = placed
            .iter()
            .filter(|&&(m, l, _)| m | r.mask == m && l > r.level)
            .min_by_key(|&&(m, l, _)| (m.count_ones(), l))
            .map(|&(_, _, n)| n);
        let node = b.cache(parent.unwrap_or(NodeId::ROOT), r.level, r.params);
        placed.push((r.mask, r.level, node));
    }
    for cpu in 0..n_cores {
        let bit = 1u128 << cpu;
        let parent = placed
            .iter()
            .filter(|&&(m, _, _)| m & bit != 0)
            .min_by_key(|&&(m, l, _)| (m.count_ones(), l))
            .map(|&(_, _, n)| n);
        b.raw_core(parent.unwrap_or(NodeId::ROOT));
    }
    Ok(b.build())
}

/// Parses a sysfs-style hexadecimal CPU mask: optional `0x` prefix,
/// `,`-separated 32-bit words allowed (`00000000,00000003`).
fn hex_mask(c: &mut Cursor<'_>) -> Result<u128, SpecError> {
    c.skip_ws();
    let raw: String = c
        .rest()
        .chars()
        .take_while(|ch| ch.is_ascii_hexdigit() || *ch == ',' || *ch == 'x')
        .collect();
    if raw.is_empty() {
        return Err(c.error("expected a hexadecimal cpu mask"));
    }
    c.pos += raw.len();
    let digits: String = raw
        .trim_start_matches("0x")
        .trim_start_matches("0X")
        .chars()
        .filter(|ch| *ch != ',')
        .collect();
    if digits.is_empty() || digits.contains('x') {
        return Err(c.error("malformed hexadecimal cpu mask"));
    }
    let trimmed = digits.trim_start_matches('0');
    if trimmed.len() > 32 {
        return Err(c.error("cpu mask wider than 128 bits"));
    }
    let mask = u128::from_str_radix(if trimmed.is_empty() { "0" } else { trimmed }, 16)
        .map_err(|_| c.error("malformed hexadecimal cpu mask"))?;
    if mask == 0 {
        return Err(c.error("cpu mask must not be empty"));
    }
    Ok(mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{catalog, lint};

    const HARPERTOWN_CPUID: &str = "\
# Intel Harpertown, cpuid leaf 4
machine Harpertown 3.2GHz 320c cores 8
leaf L1 32K 8w 3c shared 1
leaf L2 6M 24w 15c shared 2
";

    #[test]
    fn cpuid_harpertown_matches_the_catalog() {
        let m = parse_cpuid_leaves(HARPERTOWN_CPUID).unwrap();
        let built = catalog::harpertown();
        assert_eq!(m.n_cores(), built.n_cores());
        assert_eq!(m.levels(), built.levels());
        assert_eq!(m.total_cache_bytes(), built.total_cache_bytes());
        for a in 0..m.n_cores() {
            for b in 0..m.n_cores() {
                assert_eq!(
                    m.affinity_level(a.into(), b.into()),
                    built.affinity_level(a.into(), b.into()),
                    "cores {a},{b}"
                );
            }
        }
        assert!(lint::is_lint_clean(&m));
    }

    #[test]
    fn cpuid_three_levels_and_smt() {
        // Nehalem-like with 2-way SMT on the L1.
        let m = parse_cpuid_leaves(
            "machine smt 2.9GHz 174c cores 16\n\
             leaf L1 32K 8w 4c shared 2\n\
             leaf L2 256K 8w 10c shared 2\n\
             leaf L3 8M 16w 35c shared 8\n",
        )
        .unwrap();
        assert_eq!(m.n_cores(), 16);
        assert_eq!(m.levels(), vec![1, 2, 3]);
        // SMT siblings meet at their shared L1.
        assert_eq!(m.affinity_level(0.into(), 1.into()), Some(1));
        assert_eq!(m.affinity_level(0.into(), 2.into()), Some(3));
        assert_eq!(m.affinity_level(0.into(), 8.into()), None);
    }

    #[test]
    fn cpuid_partial_last_chunk_is_allowed() {
        let m = parse_cpuid_leaves(
            "machine odd 2.0GHz 100c cores 6\n\
             leaf L1 32K 8w 3c shared 1\n\
             leaf L2 1M 8w 12c shared 4\n",
        )
        .unwrap();
        assert_eq!(m.n_cores(), 6);
        let domains = m.shared_domains(2);
        assert_eq!(domains.len(), 2);
        assert_eq!(domains[0].1.len(), 4);
        assert_eq!(domains[1].1.len(), 2);
    }

    #[test]
    fn cpuid_rejects_bad_input() {
        // Non-nesting widths.
        let e = parse_cpuid_leaves(
            "machine x 2.0GHz 100c cores 12\n\
             leaf L1 32K 8w 3c shared 2\n\
             leaf L2 1M 8w 12c shared 3\n",
        )
        .unwrap_err();
        assert!(e.message.contains("does not divide"), "{e}");
        assert_eq!(e.line, 2);
        // Duplicate level.
        let e = parse_cpuid_leaves(
            "machine x 2.0GHz 100c cores 4\n\
             leaf L1 32K 8w 3c shared 1\n\
             leaf L1 64K 8w 3c shared 2\n",
        )
        .unwrap_err();
        assert!(e.message.contains("duplicate"), "{e}");
        // Bad geometry flows through the spec validator.
        let e = parse_cpuid_leaves("machine x 2.0GHz 100c cores 4\nleaf L1 5M 7w 3c shared 1\n")
            .unwrap_err();
        assert!(e.message.contains("geometry"), "{e}");
        // Missing core count.
        assert!(parse_cpuid_leaves("machine x 2.0GHz 100c\nleaf L1 32K 8w 3c shared 1\n").is_err());
        assert!(parse_cpuid_leaves("").is_err());
    }

    fn toy_sysfs() -> String {
        // 4 cpus: private L1s, two L2 pairs, one L3 over everything.
        let mut s = String::from("machine toy 2.0GHz 100c\n");
        for cpu in 0..4u32 {
            s.push_str(&format!(
                "cpu{cpu} index0: level 1 size 32K ways 8 line 64 latency 3 \
                 shared_cpu_map {:#x}\n",
                1u32 << cpu
            ));
            s.push_str(&format!(
                "cpu{cpu} index1: level 2 size 1M ways 8 line 64 latency 12 \
                 shared_cpu_map {:#x}\n",
                0x3u32 << (cpu & !1)
            ));
            s.push_str(&format!(
                "cpu{cpu} index2: level 3 size 8M ways 16 line 64 latency 30 \
                 shared_cpu_map 0xf\n"
            ));
        }
        s
    }

    #[test]
    fn sysfs_round_trips_a_toy_machine() {
        let m = parse_sysfs_dump(&toy_sysfs()).unwrap();
        assert_eq!(m.n_cores(), 4);
        assert_eq!(m.levels(), vec![1, 2, 3]);
        assert_eq!(m.first_shared_level(), Some(2));
        assert_eq!(m.affinity_level(0.into(), 1.into()), Some(2));
        assert_eq!(m.affinity_level(0.into(), 2.into()), Some(3));
        assert!(lint::is_lint_clean(&m));
        // The mask-built tree serializes to the same spec as the
        // equivalent hand-written machine.
        assert_eq!(
            m.to_spec(),
            "toy 2GHz 100c: 1x[L3 8M 16w 30c: 2x[L2 1M 8w 12c: 2x[L1 32K 8w 3c]]]"
        );
    }

    #[test]
    fn sysfs_accepts_comma_separated_masks() {
        let m = parse_sysfs_dump(
            "machine w 1.0GHz 90c\n\
             cpu0 index0: level 1 size 32K ways 8 line 64 latency 3 \
             shared_cpu_map 00000000,00000001\n\
             cpu1 index0: level 1 size 32K ways 8 line 64 latency 3 \
             shared_cpu_map 00000000,00000002\n\
             cpu0 index1: level 2 size 1M ways 8 line 64 latency 12 \
             shared_cpu_map 00000000,00000003\n\
             cpu1 index1: level 2 size 1M ways 8 line 64 latency 12 \
             shared_cpu_map 00000000,00000003\n",
        )
        .unwrap();
        assert_eq!(m.n_cores(), 2);
        assert_eq!(m.first_shared_level(), Some(2));
    }

    #[test]
    fn sysfs_rejects_bad_input() {
        // Mask missing its own cpu.
        let e = parse_sysfs_dump(
            "machine x 1.0GHz 90c\n\
             cpu0 index0: level 1 size 32K ways 8 line 64 latency 3 shared_cpu_map 0x2\n",
        )
        .unwrap_err();
        assert!(e.message.contains("does not include"), "{e}");
        assert_eq!(e.line, 2);
        // Non-laminar masks.
        let e = parse_sysfs_dump(
            "machine x 1.0GHz 90c\n\
             cpu0 index1: level 2 size 1M ways 8 line 64 latency 12 shared_cpu_map 0x3\n\
             cpu1 index1: level 2 size 1M ways 8 line 64 latency 12 shared_cpu_map 0x3\n\
             cpu2 index1: level 2 size 1M ways 8 line 64 latency 12 shared_cpu_map 0x6\n",
        )
        .unwrap_err();
        assert!(e.message.contains("overlap"), "{e}");
        // Hole in the cpu numbering.
        let e = parse_sysfs_dump(
            "machine x 1.0GHz 90c\n\
             cpu0 index0: level 1 size 32K ways 8 line 64 latency 3 shared_cpu_map 0x1\n\
             cpu2 index0: level 1 size 32K ways 8 line 64 latency 3 shared_cpu_map 0x4\n",
        )
        .unwrap_err();
        assert!(e.message.contains("holes"), "{e}");
        // Conflicting geometry for one instance.
        let e = parse_sysfs_dump(
            "machine x 1.0GHz 90c\n\
             cpu0 index0: level 1 size 32K ways 8 line 64 latency 3 shared_cpu_map 0x3\n\
             cpu1 index0: level 1 size 64K ways 8 line 64 latency 3 shared_cpu_map 0x3\n",
        )
        .unwrap_err();
        assert!(e.message.contains("different geometry"), "{e}");
        // Geometry validation is shared with CacheParams.
        let e = parse_sysfs_dump(
            "machine x 1.0GHz 90c\n\
             cpu0 index0: level 1 size 1000B ways 3 line 64 latency 3 shared_cpu_map 0x1\n",
        )
        .unwrap_err();
        assert!(e.message.contains("multiple"), "{e}");
    }

    #[test]
    fn both_ingesters_reject_a_cache_past_32_bits() {
        let e = parse_cpuid_leaves(
            "machine toy 2.0GHz 100c cores 4\n\
             leaf L1 32K 8w 3c shared 1\n\
             leaf L2 1048576M 8w 12c shared 2\n",
        )
        .unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("4294967295-byte ceiling"), "{e}");
        let e = parse_sysfs_dump(
            "machine toy 2.0GHz 100c\n\
             cpu0 index0: level 1 size 32K ways 8 line 64 latency 3 shared_cpu_map 0x1\n\
             cpu0 index1: level 2 size 1048576M ways 8 line 64 latency 12 shared_cpu_map 0x1\n",
        )
        .unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("4294967295-byte ceiling"), "{e}");
    }

    #[test]
    fn level_containment_inversion_is_rejected() {
        // An L3 strictly inside an L2's domain: no tree can nest that.
        let e = parse_sysfs_dump(
            "machine x 1.0GHz 90c\n\
             cpu0 index0: level 3 size 8M ways 16 line 64 latency 30 shared_cpu_map 0x3\n\
             cpu1 index0: level 3 size 8M ways 16 line 64 latency 30 shared_cpu_map 0x3\n\
             cpu0 index1: level 2 size 1M ways 8 line 64 latency 12 shared_cpu_map 0xf\n\
             cpu1 index1: level 2 size 1M ways 8 line 64 latency 12 shared_cpu_map 0xf\n\
             cpu2 index1: level 2 size 1M ways 8 line 64 latency 12 shared_cpu_map 0xf\n\
             cpu3 index1: level 2 size 1M ways 8 line 64 latency 12 shared_cpu_map 0xf\n",
        )
        .unwrap_err();
        assert!(e.message.contains("strictly inside"), "{e}");
    }
}
