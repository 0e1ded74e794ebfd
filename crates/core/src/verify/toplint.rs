//! Conversion of topology-linter findings into coded `CTAM-T5xx`
//! diagnostics.
//!
//! The raw checks live in [`ctam_topology::lint`] so they stay usable
//! without this crate (the sysfs ingester rejects non-laminar
//! `shared_cpu_map` dumps with them, for instance). This module gives each
//! [`TopoLintKind`] a stable code in the `CTAM-T5xx` band and reports the
//! findings as the same [`Diagnostic`]s as mapping checks, so an
//! error-severity machine finding makes the machine unclean
//! ([`super::is_clean`]) exactly like a coverage or race error makes a
//! mapping unclean. A machine does not change between mappings, so callers
//! lint it once, not once per mapping.
//!
//! | code | kind | severity |
//! |------|------|----------|
//! | `CTAM-T501` | capacity inversion | error |
//! | `CTAM-T502` | asymmetric arity | warning |
//! | `CTAM-T503` | line shrinks outward | warning |
//! | `CTAM-T504` | implausible latency | error |
//! | `CTAM-T505` | level coverage gap | warning |
//! | `CTAM-T506` | non-laminar sharing | error |
//! | `CTAM-T507` | degenerate tree | warning |

use ctam_topology::lint::{self, TopoLint, TopoLintKind};
use ctam_topology::Machine;

use super::diag::{Code, Diagnostic};

/// The `CTAM-T5xx` code for one linter finding kind.
fn code_for(kind: TopoLintKind) -> Code {
    match kind {
        TopoLintKind::CapacityInversion => Code::TopoCapacityInversion,
        TopoLintKind::AsymmetricArity => Code::TopoAsymmetricArity,
        TopoLintKind::LineShrinkOutward => Code::TopoLineShrink,
        TopoLintKind::ImplausibleLatency => Code::TopoImplausibleLatency,
        TopoLintKind::LevelCoverageGap => Code::TopoLevelCoverageGap,
        TopoLintKind::NonLaminarSharing => Code::TopoNonLaminarSharing,
        TopoLintKind::DegenerateHierarchy => Code::TopoDegenerateTree,
    }
}

fn to_diagnostic(machine_name: &str, l: TopoLint) -> Diagnostic {
    Diagnostic::new(code_for(l.kind), format!("{machine_name}: {}", l.message))
}

/// Runs [`ctam_topology::lint::lint_machine`] and returns the findings as
/// coded diagnostics. The node/level anchors of the raw findings are part
/// of the message text (diagnostic coordinates are schedule coordinates —
/// round/core/group — which a topology finding does not have).
pub fn lint_topology(machine: &Machine) -> Vec<Diagnostic> {
    lint::lint_machine(machine)
        .into_iter()
        .map(|l| to_diagnostic(machine.name(), l))
        .collect()
}

/// Checks raw `(level, shared_cpu_map)` masks for laminarity — the sysfs
/// form of a topology, before any tree exists — returning `CTAM-T506`
/// diagnostics for partial overlaps and level/containment inversions.
pub fn lint_shared_cpu_maps(maps: &[(u8, u128)]) -> Vec<Diagnostic> {
    lint::lint_shared_maps(maps)
        .into_iter()
        .map(|l| to_diagnostic("shared_cpu_map", l))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::Severity;
    use ctam_topology::{catalog, zoo};

    #[test]
    fn clean_machines_produce_no_diagnostics() {
        for m in catalog::commercial_machines() {
            assert!(lint_topology(&m).is_empty(), "{}", m.name());
        }
    }

    #[test]
    fn every_defect_maps_to_its_code() {
        let base = zoo::generate_clean(7, &zoo::ZooConfig::default());
        let expected = [
            (zoo::Defect::CapacityInversion, "CTAM-T501", Severity::Error),
            (zoo::Defect::AsymmetricArity, "CTAM-T502", Severity::Warning),
            (zoo::Defect::LineShrink, "CTAM-T503", Severity::Warning),
            (zoo::Defect::ZeroLatency, "CTAM-T504", Severity::Error),
            (zoo::Defect::LevelSkip, "CTAM-T505", Severity::Warning),
            (zoo::Defect::AllPrivate, "CTAM-T507", Severity::Warning),
        ];
        assert_eq!(expected.len(), zoo::Defect::ALL.len());
        for (defect, id, severity) in expected {
            let diags = lint_topology(&zoo::inject(&base, defect));
            assert!(
                diags
                    .iter()
                    .any(|d| d.code().id() == id && d.severity() == severity),
                "{defect:?} should fire {id}: {diags:?}"
            );
        }
    }

    #[test]
    fn non_laminar_masks_are_errors() {
        let diags = lint_shared_cpu_maps(&[(2, 0b0110), (2, 0b0011)]);
        assert!(!diags.is_empty());
        for d in &diags {
            assert_eq!(d.code(), Code::TopoNonLaminarSharing);
            assert_eq!(d.severity(), Severity::Error);
        }
    }
}
