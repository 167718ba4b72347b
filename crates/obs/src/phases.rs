//! [`PhasesReport`]: the JSON shape served by `GET /phases`.
//!
//! The streaming analyzer (crates/analyzer) computes phase structure
//! incrementally while a serve-mode job runs; this module owns only the
//! *wire shape* of that state so the HTTP layer and the golden-file test
//! stay in the dependency-free obs crate. The analyzer fills the struct,
//! [`PhasesReport::to_json`] renders it deterministically (fixed key
//! order, stable float formatting), and `crates/obs/tests/golden/
//! phases.json` locks the rendering against endpoint drift.

use std::fmt::{self, Write};

/// One phase as seen by the streaming analyzer at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// Stable phase label (centroid index).
    pub id: usize,
    /// Training steps currently assigned to this phase.
    pub occupancy: u64,
    /// `occupancy` as a fraction of all assigned steps.
    pub share: f64,
    /// Centroid in the scaled (and, when engaged, PCA-projected)
    /// feature space.
    pub centroid: Vec<f64>,
}

/// A phase-transition event: the first step observed under a new label.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTransition {
    /// Step at which the assignment switched.
    pub step: u64,
    /// The label it switched to.
    pub phase: usize,
}

/// Snapshot of live phase structure, served as JSON by `GET /phases`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhasesReport {
    /// Per-phase occupancy and centroids; empty until the first update.
    pub phases: Vec<PhaseStat>,
    /// Fraction of previously-labeled sampled steps whose assignment
    /// survived the latest update unchanged (1.0 = perfectly stable).
    pub stability: f64,
    /// Consecutive updates at or above the stability threshold.
    pub stable_windows: u64,
    /// Incremental updates performed (sealed windows that carried new
    /// completed steps).
    pub updates: u64,
    /// Steps assigned to a phase so far.
    pub steps_assigned: u64,
    /// Step of the most recent label change in the timeline, if any.
    pub last_transition_step: Option<u64>,
    /// The phase-transition timeline in step order.
    pub transitions: Vec<PhaseTransition>,
}

impl PhasesReport {
    /// Renders the report as a deterministic JSON document (sorted,
    /// fixed key order — the exact bytes are golden-tested), written into
    /// one string sized up front.
    pub fn to_json(&self) -> String {
        let centroid_values: usize = self.phases.iter().map(|p| p.centroid.len()).sum();
        let mut out = String::with_capacity(
            200 + 80 * self.phases.len() + 24 * centroid_values + 40 * self.transitions.len(),
        );
        self.write_json(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    fn write_json(&self, out: &mut String) -> fmt::Result {
        out.push_str("{\n  \"phases\": [");
        for (i, phase) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "\n    {{\"id\": {}, \"occupancy\": {}, \"share\": ",
                phase.id, phase.occupancy
            )?;
            write_float(out, phase.share)?;
            out.push_str(", \"centroid\": [");
            for (j, &v) in phase.centroid.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                write_float(out, v)?;
            }
            out.push_str("]}");
        }
        if !self.phases.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"stability\": ");
        write_float(out, self.stability)?;
        write!(
            out,
            ",\n  \"stable_windows\": {},\n  \"updates\": {},\n  \"steps_assigned\": {},\n",
            self.stable_windows, self.updates, self.steps_assigned
        )?;
        match self.last_transition_step {
            Some(step) => writeln!(out, "  \"last_transition_step\": {step},")?,
            None => out.push_str("  \"last_transition_step\": null,\n"),
        }
        out.push_str("  \"transitions\": [");
        for (i, t) in self.transitions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "\n    {{\"step\": {}, \"phase\": {}}}",
                t.step, t.phase
            )?;
        }
        if !self.transitions.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        Ok(())
    }
}

/// Writes a float as JSON: its shortest round-trip form, or `null` when
/// not finite.
fn write_float(out: &mut String, v: f64) -> fmt::Result {
    if v.is_finite() {
        write!(out, "{v}")
    } else {
        out.push_str("null");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_is_valid_json_with_all_keys() {
        let json = PhasesReport::default().to_json();
        assert!(json.contains("\"phases\": []"));
        assert!(json.contains("\"last_transition_step\": null"));
        assert!(json.contains("\"transitions\": []"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn populated_report_renders_every_field() {
        let report = PhasesReport {
            phases: vec![PhaseStat {
                id: 0,
                occupancy: 3,
                share: 0.75,
                centroid: vec![0.5, 1.0],
            }],
            stability: 0.9,
            stable_windows: 2,
            updates: 4,
            steps_assigned: 4,
            last_transition_step: Some(9),
            transitions: vec![PhaseTransition { step: 9, phase: 1 }],
        };
        let json = report.to_json();
        assert!(json.contains("\"id\": 0"), "{json}");
        assert!(json.contains("\"centroid\": [0.5, 1]"), "{json}");
        assert!(json.contains("\"stability\": 0.9"), "{json}");
        assert!(json.contains("\"last_transition_step\": 9"), "{json}");
        assert!(json.contains("{\"step\": 9, \"phase\": 1}"), "{json}");
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        let report = PhasesReport {
            stability: f64::NAN,
            ..PhasesReport::default()
        };
        assert!(report.to_json().contains("\"stability\": null"));
    }
}
