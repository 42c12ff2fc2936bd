//! The benchmark's manifest, `BENCHMARK.json` at the repository root: the
//! single definition of every workload name and metric (name, unit,
//! direction, bound) that the runs report and `compare` judges.

use amulet_util::{parse_json, JsonValue};
use std::sync::OnceLock;

/// One metric as the manifest defines it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name, as reported.
    pub name: String,
    /// Unit, as reported.
    pub unit: String,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed manifest.
#[derive(Debug)]
pub struct Manifest {
    /// Workload names, in manifest order.
    pub workloads: Vec<String>,
    /// End-to-end metrics (reported by untraced runs).
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics (reported by traced runs).
    pub per_layer: Vec<MetricSpec>,
}

impl Manifest {
    /// The metrics a run reports: per-layer when traced, end-to-end
    /// otherwise.
    pub fn metrics(&self, trace: bool) -> &[MetricSpec] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Looks a metric up in either list.
    pub fn spec(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

fn parse(text: &str) -> Result<Manifest, String> {
    let root = parse_json(text)?;
    let list = |key: &str| -> Result<&[JsonValue], String> {
        root.get(key)
            .and_then(JsonValue::as_arr)
            .ok_or(format!("manifest: missing array {key:?}"))
    };
    let field = |v: &JsonValue, key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(JsonValue::as_str)
            .map(str::to_owned)
            .ok_or(format!("manifest: entry without {key:?}"))
    };
    let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
        list(key)?
            .iter()
            .map(|m| {
                Ok(MetricSpec {
                    name: field(m, "name")?,
                    unit: field(m, "unit")?,
                    higher_is_better: field(m, "better")? == "higher",
                    bound: m.get("bound").and_then(JsonValue::as_f64),
                })
            })
            .collect()
    };
    Ok(Manifest {
        workloads: list("workloads")?
            .iter()
            .map(|w| field(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// The manifest compiled into this binary.
pub fn manifest() -> &'static Manifest {
    static MANIFEST: OnceLock<Manifest> = OnceLock::new();
    MANIFEST.get_or_init(|| {
        parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is well-formed")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_parses_and_defines_setup_time() {
        let m = manifest();
        assert!(!m.workloads.is_empty());
        let setup = m.spec("setup_s").expect("setup_s is mandatory");
        assert_eq!(setup.unit, "s");
        assert!(!setup.higher_is_better);
        let largest = m
            .end_to_end
            .iter()
            .filter_map(|s| s.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "set-up time has the largest bound"
        );
        assert!(m.end_to_end.iter().all(|s| s.bound.is_some()));
        assert!(m.per_layer.iter().all(|s| s.bound.is_none()));
    }
}
