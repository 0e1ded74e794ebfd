//! Diagnostic codes, severities, coordinates, and rendering (plain text and
//! JSON on the workspace's serde-free [`ctam_cert::json`] codec).

use std::fmt;

use ctam_cert::json::JsonValue;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The mapping may produce wrong results if executed (dropped or
    /// duplicated work, dependence or race violations).
    Error,
    /// The mapping is executable but deviates from the paper's invariants
    /// (imbalance, stale tags, topology mismatch) or the input program is
    /// suspicious (subscript lints).
    Warning,
    /// The mapping is correct and within the paper's invariants, but the
    /// advisor's static model *predicts* degraded locality or interference
    /// (false sharing, affinity loss, reuse starvation). Predictions, not
    /// proofs: see the `CTAM-A4xx` band.
    Advice,
    /// Informational: records *how* a property was established (e.g. a race
    /// proof obtained symbolically vs. by enumeration). Never indicates a
    /// problem.
    Note,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Advice => "advice",
            Severity::Note => "note",
        })
    }
}

/// The fixed catalogue of checks. Every diagnostic carries exactly one code;
/// the `CTAM-Exxx` range makes a mapping unclean ([`super::is_clean`]),
/// `CTAM-Wxxx` is advisory, `CTAM-A4xx` carries the advisor's
/// locality/interference *predictions* (never correctness findings), and
/// `CTAM-N3xx` is purely informational.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// `CTAM-E001`: an iteration unit of the space appears in no round of
    /// the schedule (Section 3.3: groups cover the iteration set).
    IterationUnmapped,
    /// `CTAM-E002`: an iteration unit appears more than once — or the
    /// schedule references a unit the space does not contain (Section 3.3:
    /// groups are disjoint).
    IterationDoubleMapped,
    /// `CTAM-E003`: a group dependence edge whose sink runs no later than
    /// its source: predecessors must complete in earlier barrier rounds, or
    /// earlier on the same core within a round (Section 3.5.3).
    DependenceViolation,
    /// `CTAM-E004`: two groups in the same barrier round on different cores
    /// access the same element (reported with its data block) and at least
    /// one writes — nothing orders the accesses.
    RaceOnBlock,
    /// `CTAM-W101`: a core's load exceeds the Figure 6 balance threshold
    /// beyond what its largest atomic group forces.
    BalanceThresholdExceeded,
    /// `CTAM-W102`: the schedule's core fan-out differs from the machine's
    /// cache-tree leaf degree (e.g. a schedule folded onto a foreign
    /// machine).
    DegreeMismatch,
    /// `CTAM-W103`: a group touches a data block its stored tag does not
    /// claim — the clustering and scheduling heuristics under-estimated its
    /// footprint.
    TagMismatch,
    /// `CTAM-W201`: a subscript can index outside its array's declared
    /// extents (the model clamps, so sharing estimates are skewed).
    SubscriptOutOfBounds,
    /// `CTAM-W202`: a non-affine (indirect) subscript — outside the exact
    /// dependence model, handled conservatively.
    NonAffineSubscript,
    /// `CTAM-W203`: an affine subscript row coupling two or more loop
    /// variables (e.g. `A[i+j]`) — handled exactly by the symbolic engine,
    /// but outside the per-row screens, so analysis costs a conflict-set
    /// projection.
    CoupledSubscript,
    /// `CTAM-W204`: a pair of references involving an indirect subscript
    /// that none of the index-array screens (disjoint ranges, injectivity,
    /// banded widening) could discharge — the dependence engine enumerated
    /// the concrete tables, so the race verdict does not generalise to other
    /// table contents.
    UnprovableIndirectPair,
    /// `CTAM-A401`: two cores in the same barrier round both write data
    /// blocks that map onto a common cache line — the advisor predicts
    /// coherence ping-pong (false sharing) on that line.
    PredictedFalseSharing,
    /// `CTAM-A402`: a pair of groups placed under *different* children of a
    /// shared cache has higher tag affinity (dot product) than every pair
    /// kept together under either child — the distribution gave up more
    /// sharing than it kept.
    AffinityLoss,
    /// `CTAM-A403`: the schedule's achieved Figure 7 reuse score (α·
    /// horizontal + β·vertical affinity) falls below half of a greedy
    /// per-group upper bound — the round ordering squanders available reuse.
    ReuseStarvedSchedule,
    /// `CTAM-A404`: tag bit positions (data blocks) no group claims — dead
    /// width in every dot product the heuristics computed.
    DeadTagBits,
    /// `CTAM-N301`: the race check proved every round race-free from the
    /// symbolic dependence relations and the unit placement alone, without
    /// replaying element accesses.
    SymbolicRaceProof,
    /// `CTAM-N302`: the race check fell back to element-access enumeration
    /// (indirect subscripts, symbolic resource limits, or a potential
    /// cross-core conflict that needed element-level resolution).
    RaceCheckEnumerated,
    /// `CTAM-N303`: the race check proved every round race-free symbolically
    /// *and* the dependence summary rests on index-array facts (range,
    /// injectivity, bandedness) rather than affine subscripts alone — the
    /// irregular nest was proved race-free without enumerating a single
    /// iteration pair.
    IndexFactRaceProof,
    /// `CTAM-T501`: a cache is larger than the cache above it — inclusion
    /// cannot hold and the capacity-driven clustering is meaningless. Fatal:
    /// no physical inclusive hierarchy looks like this.
    TopoCapacityInversion,
    /// `CTAM-T502`: sibling caches at the same level fan out differently,
    /// or a cache mixes core and cache children. Suspicious but mappable.
    TopoAsymmetricArity,
    /// `CTAM-T503`: a cache's line size is smaller than a cache's below it —
    /// one inner line would span several outer lines.
    TopoLineShrink,
    /// `CTAM-T504`: a zero cache latency, an outer level faster than an
    /// inner one, a cache no faster than off-chip memory, or a zero memory
    /// latency. Fatal: the cost model divides by these.
    TopoImplausibleLatency,
    /// `CTAM-T505`: some cores' lookup paths skip a cache level other cores
    /// have — per-level analyses would compare incommensurate paths.
    TopoLevelCoverageGap,
    /// `CTAM-T506`: `shared_cpu_map` masks that are not a laminar family —
    /// no tree machine can represent the sharing relation. Fatal: the model
    /// is tree-shaped by construction.
    TopoNonLaminarSharing,
    /// `CTAM-T507`: a degenerate hierarchy (single core, no caches, or a
    /// multicore with only private caches) that makes
    /// `first_shared_level` — the anchor of topology-aware mapping —
    /// meaningless.
    TopoDegenerateTree,
}

impl Code {
    /// The stable machine-readable identifier, e.g. `"CTAM-E003"`.
    pub fn id(&self) -> &'static str {
        match self {
            Code::IterationUnmapped => "CTAM-E001",
            Code::IterationDoubleMapped => "CTAM-E002",
            Code::DependenceViolation => "CTAM-E003",
            Code::RaceOnBlock => "CTAM-E004",
            Code::BalanceThresholdExceeded => "CTAM-W101",
            Code::DegreeMismatch => "CTAM-W102",
            Code::TagMismatch => "CTAM-W103",
            Code::SubscriptOutOfBounds => "CTAM-W201",
            Code::NonAffineSubscript => "CTAM-W202",
            Code::CoupledSubscript => "CTAM-W203",
            Code::UnprovableIndirectPair => "CTAM-W204",
            Code::PredictedFalseSharing => "CTAM-A401",
            Code::AffinityLoss => "CTAM-A402",
            Code::ReuseStarvedSchedule => "CTAM-A403",
            Code::DeadTagBits => "CTAM-A404",
            Code::SymbolicRaceProof => "CTAM-N301",
            Code::RaceCheckEnumerated => "CTAM-N302",
            Code::IndexFactRaceProof => "CTAM-N303",
            Code::TopoCapacityInversion => "CTAM-T501",
            Code::TopoAsymmetricArity => "CTAM-T502",
            Code::TopoLineShrink => "CTAM-T503",
            Code::TopoImplausibleLatency => "CTAM-T504",
            Code::TopoLevelCoverageGap => "CTAM-T505",
            Code::TopoNonLaminarSharing => "CTAM-T506",
            Code::TopoDegenerateTree => "CTAM-T507",
        }
    }

    /// The short name, e.g. `"DependenceViolation"`.
    pub fn name(&self) -> &'static str {
        match self {
            Code::IterationUnmapped => "IterationUnmapped",
            Code::IterationDoubleMapped => "IterationDoubleMapped",
            Code::DependenceViolation => "DependenceViolation",
            Code::RaceOnBlock => "RaceOnBlock",
            Code::BalanceThresholdExceeded => "BalanceThresholdExceeded",
            Code::DegreeMismatch => "DegreeMismatch",
            Code::TagMismatch => "TagMismatch",
            Code::SubscriptOutOfBounds => "SubscriptOutOfBounds",
            Code::NonAffineSubscript => "NonAffineSubscript",
            Code::CoupledSubscript => "CoupledSubscript",
            Code::UnprovableIndirectPair => "UnprovableIndirectPair",
            Code::PredictedFalseSharing => "PredictedFalseSharing",
            Code::AffinityLoss => "AffinityLoss",
            Code::ReuseStarvedSchedule => "ReuseStarvedSchedule",
            Code::DeadTagBits => "DeadTagBits",
            Code::SymbolicRaceProof => "SymbolicRaceProof",
            Code::RaceCheckEnumerated => "RaceCheckEnumerated",
            Code::IndexFactRaceProof => "IndexFactRaceProof",
            Code::TopoCapacityInversion => "TopoCapacityInversion",
            Code::TopoAsymmetricArity => "TopoAsymmetricArity",
            Code::TopoLineShrink => "TopoLineShrink",
            Code::TopoImplausibleLatency => "TopoImplausibleLatency",
            Code::TopoLevelCoverageGap => "TopoLevelCoverageGap",
            Code::TopoNonLaminarSharing => "TopoNonLaminarSharing",
            Code::TopoDegenerateTree => "TopoDegenerateTree",
        }
    }

    /// The severity every diagnostic with this code carries.
    pub fn severity(&self) -> Severity {
        match self {
            Code::IterationUnmapped
            | Code::IterationDoubleMapped
            | Code::DependenceViolation
            | Code::RaceOnBlock
            | Code::TopoCapacityInversion
            | Code::TopoImplausibleLatency
            | Code::TopoNonLaminarSharing => Severity::Error,
            Code::BalanceThresholdExceeded
            | Code::DegreeMismatch
            | Code::TagMismatch
            | Code::SubscriptOutOfBounds
            | Code::NonAffineSubscript
            | Code::CoupledSubscript
            | Code::UnprovableIndirectPair
            | Code::TopoAsymmetricArity
            | Code::TopoLineShrink
            | Code::TopoLevelCoverageGap
            | Code::TopoDegenerateTree => Severity::Warning,
            Code::PredictedFalseSharing
            | Code::AffinityLoss
            | Code::ReuseStarvedSchedule
            | Code::DeadTagBits => Severity::Advice,
            Code::SymbolicRaceProof | Code::RaceCheckEnumerated | Code::IndexFactRaceProof => {
                Severity::Note
            }
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.id())
    }
}

/// One verification finding: a code, a message, and the coordinates of the
/// offence where they apply.
///
/// Group coordinates index the *flattened schedule*: groups numbered in
/// `(round, core, position)` order, which is stable and reconstructible from
/// the [`crate::schedule::Schedule`] alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    code: Code,
    message: String,
    nest: Option<usize>,
    group: Option<usize>,
    round: Option<usize>,
    core: Option<usize>,
}

impl Diagnostic {
    /// Builds a diagnostic with no coordinates attached.
    pub fn new(code: Code, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
            nest: None,
            group: None,
            round: None,
            core: None,
        }
    }

    /// Attaches the offending nest index.
    #[must_use]
    pub fn with_nest(mut self, nest: usize) -> Self {
        self.nest = Some(nest);
        self
    }

    /// Attaches the offending flat group index.
    #[must_use]
    pub fn with_group(mut self, group: usize) -> Self {
        self.group = Some(group);
        self
    }

    /// Attaches the offending round.
    #[must_use]
    pub fn with_round(mut self, round: usize) -> Self {
        self.round = Some(round);
        self
    }

    /// Attaches the offending core.
    #[must_use]
    pub fn with_core(mut self, core: usize) -> Self {
        self.core = Some(core);
        self
    }

    /// The diagnostic's code.
    pub fn code(&self) -> Code {
        self.code
    }

    /// The code's severity.
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }

    /// The human-readable message (no coordinates).
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The offending nest index, if attached.
    pub fn nest(&self) -> Option<usize> {
        self.nest
    }

    /// The offending flat group index, if attached.
    pub fn group(&self) -> Option<usize> {
        self.group
    }

    /// The offending round, if attached.
    pub fn round(&self) -> Option<usize> {
        self.round
    }

    /// The offending core, if attached.
    pub fn core(&self) -> Option<usize> {
        self.core
    }

    /// The diagnostic as one JSON object: code, name, severity and
    /// message, then whichever coordinates are attached.
    fn to_value(&self) -> JsonValue {
        let text = |s: &str| JsonValue::Str(s.to_owned());
        let mut fields = vec![
            ("code".to_owned(), text(self.code.id())),
            ("name".to_owned(), text(self.code.name())),
            ("severity".to_owned(), text(&self.severity().to_string())),
            ("message".to_owned(), text(&self.message)),
        ];
        for (key, v) in [
            ("nest", self.nest),
            ("group", self.group),
            ("round", self.round),
            ("core", self.core),
        ] {
            if let Some(v) = v {
                fields.push((key.to_owned(), JsonValue::Int(v as i64)));
            }
        }
        JsonValue::Object(fields)
    }

    /// Renders the diagnostic as one compact JSON object.
    pub fn to_json(&self) -> String {
        self.to_value().render()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{} {}]: {}",
            self.severity(),
            self.code.id(),
            self.code.name(),
            self.message
        )?;
        let coords: Vec<String> = [
            ("nest", self.nest),
            ("group", self.group),
            ("round", self.round),
            ("core", self.core),
        ]
        .iter()
        .filter_map(|(k, v)| v.map(|v| format!("{k} {v}")))
        .collect();
        if !coords.is_empty() {
            write!(f, " ({})", coords.join(", "))?;
        }
        Ok(())
    }
}

/// The canonical diagnostic ordering: severity, then code id, then
/// coordinates (nest, round, core, group), then message. Total — two
/// diagnostics compare equal only if they are field-for-field identical —
/// so any stable sort using it yields one deterministic order regardless of
/// the emission (e.g. pair-iteration) order of the checks.
fn diagnostic_order(a: &Diagnostic, b: &Diagnostic) -> std::cmp::Ordering {
    let key = |d: &Diagnostic| {
        (
            d.severity(),
            d.code().id(),
            d.nest(),
            d.round(),
            d.core(),
            d.group(),
        )
    };
    key(a).cmp(&key(b)).then_with(|| a.message.cmp(&b.message))
}

/// Sorts a diagnostic list into the canonical [`diagnostic_order`].
pub(crate) fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(diagnostic_order);
}

/// Renders a diagnostic list as a JSON array.
pub fn render_json(diags: &[Diagnostic]) -> String {
    JsonValue::Array(diags.iter().map(Diagnostic::to_value).collect()).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_have_stable_ids_and_severities() {
        assert_eq!(Code::IterationUnmapped.id(), "CTAM-E001");
        assert_eq!(Code::RaceOnBlock.severity(), Severity::Error);
        assert_eq!(Code::NonAffineSubscript.id(), "CTAM-W202");
        assert_eq!(Code::TagMismatch.severity(), Severity::Warning);
        assert_eq!(Code::UnprovableIndirectPair.id(), "CTAM-W204");
        assert_eq!(Code::UnprovableIndirectPair.severity(), Severity::Warning);
        assert_eq!(Code::IndexFactRaceProof.id(), "CTAM-N303");
        assert_eq!(Code::IndexFactRaceProof.severity(), Severity::Note);
    }

    #[test]
    fn topology_codes_have_stable_ids_and_severities() {
        for (code, id, severity) in [
            (Code::TopoCapacityInversion, "CTAM-T501", Severity::Error),
            (Code::TopoAsymmetricArity, "CTAM-T502", Severity::Warning),
            (Code::TopoLineShrink, "CTAM-T503", Severity::Warning),
            (Code::TopoImplausibleLatency, "CTAM-T504", Severity::Error),
            (Code::TopoLevelCoverageGap, "CTAM-T505", Severity::Warning),
            (Code::TopoNonLaminarSharing, "CTAM-T506", Severity::Error),
            (Code::TopoDegenerateTree, "CTAM-T507", Severity::Warning),
        ] {
            assert_eq!(code.id(), id);
            assert_eq!(code.severity(), severity);
        }
    }

    #[test]
    fn display_includes_code_and_coords() {
        let d = Diagnostic::new(Code::DependenceViolation, "edge 3 -> 1 inverted")
            .with_nest(0)
            .with_round(2)
            .with_core(1)
            .with_group(5);
        let s = d.to_string();
        assert!(s.starts_with("error[CTAM-E003 DependenceViolation]"), "{s}");
        assert!(s.contains("nest 0") && s.contains("round 2"), "{s}");
    }

    #[test]
    fn advisory_codes_have_stable_ids_and_the_advice_severity() {
        for (code, id) in [
            (Code::PredictedFalseSharing, "CTAM-A401"),
            (Code::AffinityLoss, "CTAM-A402"),
            (Code::ReuseStarvedSchedule, "CTAM-A403"),
            (Code::DeadTagBits, "CTAM-A404"),
        ] {
            assert_eq!(code.id(), id);
            assert_eq!(code.severity(), Severity::Advice);
        }
        // Advice sorts after real problems but before informational notes.
        assert!(Severity::Warning < Severity::Advice);
        assert!(Severity::Advice < Severity::Note);
        assert_eq!(Severity::Advice.to_string(), "advice");
    }

    #[test]
    fn json_escapes_and_orders_fields() {
        let d = Diagnostic::new(Code::TagMismatch, "tag \"odd\"\nbit").with_group(7);
        let j = d.to_json();
        assert!(j.contains(r#""code":"CTAM-W103""#), "{j}");
        assert!(j.contains(r#"\"odd\"\nbit"#), "{j}");
        assert!(j.contains(r#""group":7"#), "{j}");
        let arr = render_json(&[d.clone(), d]);
        assert!(arr.starts_with('[') && arr.ends_with(']'));
        assert_eq!(arr.matches("CTAM-W103").count(), 2);
    }

    #[test]
    fn shuffled_diagnostics_sort_canonically() {
        // Deliberately out of order: advice before error, high code before
        // low, later round before earlier.
        let mut diags = vec![
            Diagnostic::new(Code::DeadTagBits, "advice last").with_nest(0),
            Diagnostic::new(Code::RaceOnBlock, "race b")
                .with_nest(0)
                .with_round(2),
            Diagnostic::new(Code::RaceOnBlock, "race a")
                .with_nest(0)
                .with_round(1),
            Diagnostic::new(Code::IterationUnmapped, "coverage first").with_nest(0),
        ];
        sort_diagnostics(&mut diags);
        let codes: Vec<_> = diags.iter().map(|d| (d.code().id(), d.round())).collect();
        assert_eq!(
            codes,
            vec![
                ("CTAM-E001", None),
                ("CTAM-E004", Some(1)),
                ("CTAM-E004", Some(2)),
                ("CTAM-A404", None),
            ]
        );
        // Sorting is idempotent.
        let mut again = diags.clone();
        sort_diagnostics(&mut again);
        assert_eq!(again, diags);
    }

    /// Minimal JSON string unescaper for the round-trip test below: undoes
    /// exactly the escapes [`ctam_cert::json::escape_into`] may produce.
    fn unescape_json(s: &str) -> String {
        let mut out = String::new();
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next().expect("dangling backslash") {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let cp = u32::from_str_radix(&hex, 16).expect("four hex digits");
                    out.push(char::from_u32(cp).expect("valid scalar"));
                }
                e => panic!("unexpected escape \\{e}"),
            }
        }
        out
    }

    /// Extracts the raw (still-escaped) value of `"message":"..."` from one
    /// rendered diagnostic, walking escapes so an embedded `\"` never
    /// terminates the scan early.
    fn raw_message_field(json: &str) -> &str {
        let start = json.find(r#""message":""#).expect("message field") + r#""message":""#.len();
        let bytes = json.as_bytes();
        let mut i = start;
        while bytes[i] != b'"' {
            i += if bytes[i] == b'\\' { 2 } else { 1 };
        }
        &json[start..i]
    }

    #[test]
    fn json_string_escaping_round_trips_control_chars() {
        // Every C0 control char, plus the chars with dedicated escapes and a
        // sampling of multi-byte unicode.
        let mut nasty = String::new();
        for b in 0u32..0x20 {
            nasty.push(char::from_u32(b).unwrap());
        }
        nasty.push_str("\"\\/ plain text \u{7f} é 語 🦀");
        let d = Diagnostic::new(Code::TagMismatch, nasty.clone());
        let json = d.to_json();
        // The rendered JSON must contain no raw control characters at all.
        assert!(
            json.chars().all(|c| (c as u32) >= 0x20),
            "raw control char leaked into {json:?}"
        );
        // And the message must survive an unescape round-trip byte-for-byte.
        assert_eq!(unescape_json(raw_message_field(&json)), nasty);
    }

    #[test]
    fn json_round_trips_every_single_escaped_char() {
        // Each problem char alone, so a miscounted escape can't hide behind
        // its neighbours.
        for b in (0u32..0x20).chain(['"' as u32, '\\' as u32]) {
            let c = char::from_u32(b).unwrap();
            let msg = format!("a{c}b");
            let d = Diagnostic::new(Code::RaceOnBlock, msg.clone());
            let json = d.to_json();
            assert_eq!(
                unescape_json(raw_message_field(&json)),
                msg,
                "char U+{b:04X} mangled in {json:?}"
            );
        }
    }
}
