//! What a run measured: per workload, whether its outputs were correct,
//! how many operations it attempted and how many failed, and every sample
//! of every metric. Serialised as the results JSON that `compare` reads,
//! and summarised as the one-line JSON the last line of a run prints.

use crate::manifest::manifest;
use crate::stats::{median, quartiles, tail};
use amulet_util::{json_string, parse_json, JsonObj, JsonValue};

/// Every sample of one metric; its reported value is their median.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (from the manifest).
    pub name: String,
    /// Unit (from the manifest).
    pub unit: String,
    /// The samples, in measurement order.
    pub samples: Vec<f64>,
}

impl Metric {
    /// The reported value: the median of the samples.
    pub fn value(&self) -> f64 {
        median(&self.samples)
    }
}

/// One workload's run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted (process runs, submits, mirror passes).
    pub attempted: u64,
    /// Operations that failed (non-zero exit, error, rejection, timeout).
    pub failed: u64,
    /// The metrics, in the order they were recorded.
    pub metrics: Vec<Metric>,
    /// What went wrong, one line each (not serialised).
    pub problems: Vec<String>,
}

impl Outcome {
    /// An empty, so far correct outcome.
    pub fn new(workload: &str) -> Self {
        Outcome {
            workload: workload.to_string(),
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            problems: Vec::new(),
        }
    }

    /// Records a metric, taking its unit from the manifest.
    ///
    /// # Panics
    ///
    /// Panics if the manifest does not define `name` — the code and
    /// `BENCHMARK.json` must name the same metrics.
    pub fn metric(&mut self, name: &str, samples: Vec<f64>) {
        let spec = manifest()
            .spec(name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in BENCHMARK.json"));
        self.metrics.push(Metric {
            name: name.to_string(),
            unit: spec.unit.clone(),
            samples,
        });
    }

    /// Records an output mismatch: the run is no longer correct.
    pub fn mismatch(&mut self, what: String) {
        self.correct = false;
        self.problems.push(what);
    }

    /// Records a failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.problems.push(what);
    }

    /// Checks that exactly the manifest's metrics for this kind of run were
    /// recorded, each once and with at least one finite sample.
    pub fn check_complete(&self, trace: bool) -> Result<(), String> {
        let mut want: Vec<&str> = manifest()
            .metrics(trace)
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        let mut got: Vec<&str> = self.metrics.iter().map(|m| m.name.as_str()).collect();
        want.sort_unstable();
        got.sort_unstable();
        if want != got {
            return Err(format!(
                "{}: metrics {got:?}, manifest {want:?}",
                self.workload
            ));
        }
        match self
            .metrics
            .iter()
            .find(|m| m.samples.is_empty() || m.samples.iter().any(|x| !x.is_finite()))
        {
            Some(m) => Err(format!(
                "{}: {} has no finite samples",
                self.workload, m.name
            )),
            None => Ok(()),
        }
    }

    /// The one-line summary the benchmark's last output line carries:
    /// `correct`, `attempted`, `failed` and each metric's value and unit.
    pub fn summary_line(&self) -> String {
        let mut metrics = JsonObj::new();
        for m in &self.metrics {
            metrics = metrics.raw(
                &m.name,
                &JsonObj::new()
                    .num("value", m.value())
                    .str("unit", &m.unit)
                    .finish(),
            );
        }
        JsonObj::new()
            .bool("correct", self.correct)
            .int("attempted", self.attempted)
            .int("failed", self.failed)
            .raw("metrics", &metrics.finish())
            .finish()
    }

    /// A human-readable table: one row per metric with its sample count,
    /// quartiles and median, and for timings the tail percentile where
    /// there are enough samples for one.
    pub fn table(&self) -> String {
        let mut s = format!(
            "{} — correct: {}, attempted: {}, failed: {}\n  {:<28} {:>8} {:>4} {:>14} {:>14} {:>14}  tail\n",
            self.workload, self.correct, self.attempted, self.failed, "metric", "unit", "n", "q1", "median", "q3"
        );
        for m in &self.metrics {
            let (q1, q3) = quartiles(&m.samples);
            let timing = matches!(m.unit.as_str(), "s" | "ms" | "us");
            let tail = tail(&m.samples)
                .filter(|_| timing)
                .map(|(p, v)| format!("p{p:.1} = {v:.6}"))
                .unwrap_or_default();
            s += &format!(
                "  {:<28} {:>8} {:>4} {:>14.6} {:>14.6} {:>14.6}  {tail}\n",
                m.name,
                m.unit,
                m.samples.len(),
                q1,
                m.value(),
                q3
            );
        }
        s
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let samples: Vec<String> = m.samples.iter().map(|x| format!("{x}")).collect();
                JsonObj::new()
                    .str("name", &m.name)
                    .str("unit", &m.unit)
                    .raw("samples", &format!("[{}]", samples.join(",")))
                    .finish()
            })
            .collect();
        JsonObj::new()
            .str("workload", &self.workload)
            .bool("correct", self.correct)
            .int("attempted", self.attempted)
            .int("failed", self.failed)
            .raw("metrics", &format!("[{}]", metrics.join(",")))
            .finish()
    }

    fn from_json(v: &JsonValue) -> Result<Self, String> {
        let str_of = |v: &JsonValue, key: &str| {
            v.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_owned)
                .ok_or(format!("results: missing {key:?}"))
        };
        let int_of = |key: &str| {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or(format!("results: missing {key:?}"))
        };
        let metrics = v
            .get("metrics")
            .and_then(JsonValue::as_arr)
            .ok_or("results: missing metrics")?
            .iter()
            .map(|m| {
                Ok(Metric {
                    name: str_of(m, "name")?,
                    unit: str_of(m, "unit")?,
                    samples: m
                        .get("samples")
                        .and_then(JsonValue::as_arr)
                        .ok_or("results: missing samples")?
                        .iter()
                        .map(|x| x.as_f64().ok_or("results: non-numeric sample"))
                        .collect::<Result<_, _>>()?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Outcome {
            workload: str_of(v, "workload")?,
            correct: v
                .get("correct")
                .and_then(JsonValue::as_bool)
                .ok_or("results: missing correct")?,
            attempted: int_of("attempted")?,
            failed: int_of("failed")?,
            metrics,
            problems: Vec::new(),
        })
    }
}

/// A results file: the run's settings and every workload's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Results {
    /// The `--seed` of the run.
    pub seed: u64,
    /// Whether the run was traced (per-layer metrics).
    pub trace: bool,
    /// Whether the run used the smoke shapes.
    pub smoke: bool,
    /// The `--seconds` of the run.
    pub seconds: f64,
    /// One outcome per workload run.
    pub outcomes: Vec<Outcome>,
}

impl Results {
    /// Serialises to one JSON document.
    pub fn to_json(&self) -> String {
        let outcomes: Vec<String> = self.outcomes.iter().map(Outcome::to_json).collect();
        JsonObj::new()
            .str("seed", &self.seed.to_string())
            .bool("trace", self.trace)
            .bool("smoke", self.smoke)
            .num("seconds", self.seconds)
            .raw("workloads", &format!("[{}]", outcomes.join(",")))
            .finish()
    }

    /// Parses [`Results::to_json`] output.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = parse_json(text)?;
        let flag = |key: &str| {
            v.get(key)
                .and_then(JsonValue::as_bool)
                .ok_or(format!("results: missing {key:?}"))
        };
        Ok(Results {
            seed: v
                .get("seed")
                .and_then(JsonValue::as_str)
                .and_then(|s| s.parse().ok())
                .ok_or("results: missing seed")?,
            trace: flag("trace")?,
            smoke: flag("smoke")?,
            seconds: v
                .get("seconds")
                .and_then(JsonValue::as_f64)
                .ok_or("results: missing seconds")?,
            outcomes: v
                .get("workloads")
                .and_then(JsonValue::as_arr)
                .ok_or("results: missing workloads")?
                .iter()
                .map(Outcome::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    /// The summary line of a run over several workloads: correctness and
    /// operation counts over all of them, and where the results went.
    pub fn summary_line(&self, path: &str) -> String {
        JsonObj::new()
            .bool("correct", self.outcomes.iter().all(|o| o.correct))
            .int("attempted", self.outcomes.iter().map(|o| o.attempted).sum())
            .int("failed", self.outcomes.iter().map(|o| o.failed).sum())
            .raw("results", &json_string(path))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_round_trip_through_json() {
        let mut a = Outcome::new("pht_baseline");
        a.attempted = 7;
        a.failed = 1;
        a.metric("cases_per_s", vec![123_456.789, 130_000.5, 1.0 / 3.0]);
        a.metric("setup_s", vec![0.000_123_456_789]);
        let mut b = Outcome::new("serve_submit");
        b.mismatch("fingerprint differs".into());
        b.metric("latency_ms", vec![180.25, 15.125]);
        let results = Results {
            seed: u64::MAX,
            trace: false,
            smoke: true,
            seconds: 2.5,
            outcomes: vec![a, b],
        };
        let mut back = Results::parse(&results.to_json()).unwrap();
        // Problems are for the console, not the file.
        back.outcomes[1].problems = results.outcomes[1].problems.clone();
        assert_eq!(back, results);
        assert!(Results::parse("{\"seed\":1}").is_err());
    }

    #[test]
    fn summary_line_carries_values_and_units() {
        let mut o = Outcome::new("pht_baseline");
        o.attempted = 3;
        o.metric("setup_s", vec![3.0, 1.0, 2.0]);
        let line = o.summary_line();
        let v = parse_json(&line).unwrap();
        assert_eq!(v.get("correct").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(JsonValue::as_u64), Some(3));
        let setup = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(JsonValue::as_f64), Some(2.0));
        assert_eq!(setup.get("unit").and_then(JsonValue::as_str), Some("s"));
    }
}
