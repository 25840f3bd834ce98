//! Results: what one run reports, the result files, and `compare`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::json::{self, Json};
use crate::stats;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// The measured value, all digits.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples the value summarises.
    pub n: usize,
    /// What the value is on this workload (percentile picked, source).
    pub note: String,
}

impl Metric {
    /// A metric over `n` samples.
    pub fn new(
        name: &str,
        value: f64,
        unit: &'static str,
        n: usize,
        note: impl Into<String>,
    ) -> Self {
        Metric {
            name: name.to_owned(),
            value,
            unit,
            n,
            note: note.into(),
        }
    }
}

/// Everything one run of one workload reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// Run seed.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Whether `--smoke` scaled it down.
    pub smoke: bool,
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that failed (error where success was due, unanswered,
    /// task short of pushes).
    pub failed: u64,
    /// The contract metrics: every end-to-end metric, or with tracing
    /// every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Further numbers worth keeping beside them (not gated).
    pub extras: Vec<Metric>,
    /// Why the outputs are not correct; empty when they are.
    pub problems: Vec<String>,
    /// Open-loop phases the generator could not keep up with.
    pub void_phases: Vec<String>,
    /// Wall time of the whole run, seconds.
    pub wall_s: f64,
}

impl Outcome {
    /// Outputs were checked and are correct.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The contract line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn contract_line(&self) -> String {
        let mut metrics = Json::obj();
        for m in &self.metrics {
            metrics = metrics.with(
                &m.name,
                Json::obj()
                    .with("value", Json::Num(m.value))
                    .with("unit", Json::Str(m.unit.to_owned())),
            );
        }
        Json::obj()
            .with("correct", Json::Bool(self.correct()))
            .with("attempted", Json::Num(self.attempted.max(1) as f64))
            .with("failed", Json::Num(self.failed as f64))
            .with("metrics", metrics)
            .render()
    }

    /// The result file: the contract fields plus sample counts, notes,
    /// extras and the reasons for any failure.
    pub fn to_json(&self) -> Json {
        let list = |ms: &[Metric]| {
            let mut obj = Json::obj();
            for m in ms {
                obj = obj.with(
                    &m.name,
                    Json::obj()
                        .with("value", Json::Num(m.value))
                        .with("unit", Json::Str(m.unit.to_owned()))
                        .with("n", Json::Num(m.n as f64))
                        .with("note", Json::Str(m.note.clone())),
                );
            }
            obj
        };
        let strings = |v: &[String]| Json::Arr(v.iter().cloned().map(Json::Str).collect());
        Json::obj()
            .with("workload", Json::Str(self.workload.clone()))
            .with("seed", Json::Num(self.seed as f64))
            .with("seconds", Json::Num(self.seconds as f64))
            .with("trace", Json::Bool(self.trace))
            .with("smoke", Json::Bool(self.smoke))
            .with("correct", Json::Bool(self.correct()))
            .with("attempted", Json::Num(self.attempted as f64))
            .with("failed", Json::Num(self.failed as f64))
            .with("wall_s", Json::Num(self.wall_s))
            .with("metrics", list(&self.metrics))
            .with("extras", list(&self.extras))
            .with("problems", strings(&self.problems))
            .with("void_phases", strings(&self.void_phases))
    }

    /// `workload metric value unit n` rows, contract metrics first.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in self.metrics.iter().chain(&self.extras) {
            out.push_str(&format!(
                "{:<15} {:<26} {:>16.4} {:<8} n={:<8} {}\n",
                self.workload, m.name, m.value, m.unit, m.n, m.note
            ));
        }
        out
    }
}

/// One end-to-end metric's contract: which way is better and how much
/// worse its median may get.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// `true` when higher is better.
    pub higher_is_better: bool,
    /// Allowed worsening, as a share of the reference median.
    pub bound: f64,
}

/// Reads the end-to-end bounds out of `BENCHMARK.json`.
///
/// # Errors
///
/// A message when the file is unreadable or not the contract's shape.
pub fn read_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without a name")?
                    .to_owned(),
                higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// A set of result files: workload → metric → one value per run.
pub type ResultSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Loads every untraced `*.json` result under `path` (a directory, or one
/// file). Also returns the total `failed` count and the runs that were
/// not correct.
///
/// # Errors
///
/// A message naming the first unreadable or malformed file.
pub fn load_set(path: &Path) -> Result<(ResultSet, u64, Vec<String>), String> {
    let mut files: Vec<PathBuf> = if path.is_dir() {
        std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect()
    } else {
        vec![path.to_path_buf()]
    };
    files.sort();
    let mut set = ResultSet::new();
    let mut failed = 0u64;
    let mut incorrect = Vec::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        if doc.get("trace") == Some(&Json::Bool(true)) {
            continue;
        }
        let Some(workload) = doc.get("workload").and_then(Json::as_str) else {
            continue;
        };
        failed += doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        if doc.get("correct") != Some(&Json::Bool(true)) {
            incorrect.push(file.display().to_string());
        }
        let by_metric = set.entry(workload.to_owned()).or_default();
        if let Some(metrics) = doc.get("metrics") {
            for (name, value) in json::metric_values(metrics) {
                by_metric.entry(name).or_default().push(value);
            }
        }
    }
    Ok((set, failed, incorrect))
}

/// One row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareRow {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// `(q1, median, q3)` of set A.
    pub a: (f64, f64, f64),
    /// `(q1, median, q3)` of set B.
    pub b: (f64, f64, f64),
    /// Runs in A and B.
    pub runs: (usize, usize),
    /// How much worse B's median is than A's, as a share of A's (negative
    /// when B is better).
    pub worse_by: f64,
    /// The larger of the two sets' (q3 − q1) / median.
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
    /// B's median is worse than A's by more than the bound.
    pub beyond: bool,
}

/// Compares two result sets metric by metric against the bounds.
pub fn compare(a: &ResultSet, b: &ResultSet, bounds: &[Bound]) -> Vec<CompareRow> {
    let mut rows = Vec::new();
    for (workload, metrics_a) in a {
        let Some(metrics_b) = b.get(workload) else {
            continue;
        };
        for bound in bounds {
            let (Some(va), Some(vb)) = (metrics_a.get(&bound.name), metrics_b.get(&bound.name))
            else {
                continue;
            };
            let qa = stats::quartiles(va);
            let qb = stats::quartiles(vb);
            let base = qa.1.abs().max(f64::MIN_POSITIVE);
            let worse_by = if bound.higher_is_better {
                (qa.1 - qb.1) / base
            } else {
                (qb.1 - qa.1) / base
            };
            let spread_of = |q: (f64, f64, f64)| (q.2 - q.0) / q.1.abs().max(f64::MIN_POSITIVE);
            rows.push(CompareRow {
                workload: workload.clone(),
                metric: bound.name.clone(),
                a: qa,
                b: qb,
                runs: (va.len(), vb.len()),
                worse_by,
                spread: spread_of(qa).max(spread_of(qb)),
                bound: bound.bound,
                beyond: worse_by > bound.bound,
            });
        }
    }
    rows
}

/// Renders a comparison as a table.
pub fn render_compare(rows: &[CompareRow]) -> String {
    let mut out = format!(
        "{:<15} {:<13} {:>12} {:>12} {:>12} | {:>12} {:>12} {:>12} | {:>8} {:>8} {:>6}\n",
        "workload",
        "metric",
        "A q1",
        "A median",
        "A q3",
        "B q1",
        "B median",
        "B q3",
        "worse",
        "spread",
        "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<15} {:<13} {:>12.4} {:>12.4} {:>12.4} | {:>12.4} {:>12.4} {:>12.4} | {:>+7.1}% {:>7.1}% {:>5.0}%{}\n",
            r.workload,
            r.metric,
            r.a.0,
            r.a.1,
            r.a.2,
            r.b.0,
            r.b.1,
            r.b.2,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            if r.beyond {
                "  BEYOND BOUND"
            } else if r.spread > r.bound {
                "  spread > bound"
            } else {
                ""
            }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(workload: &str, metric: &str, values: &[f64]) -> ResultSet {
        let mut s = ResultSet::new();
        s.entry(workload.to_owned())
            .or_default()
            .insert(metric.to_owned(), values.to_vec());
        s
    }

    #[test]
    fn compare_flags_a_median_beyond_its_bound_in_the_worse_direction() {
        let lower = Bound {
            name: "lat_p50_ms".to_owned(),
            higher_is_better: false,
            bound: 0.10,
        };
        let a = set("live_mix", "lat_p50_ms", &[1.00, 1.02, 0.98, 1.01, 0.99]);
        let slower = set("live_mix", "lat_p50_ms", &[1.20, 1.22, 1.18, 1.21, 1.19]);
        let faster = set("live_mix", "lat_p50_ms", &[0.70, 0.72, 0.68, 0.71, 0.69]);
        let row = &compare(&a, &slower, std::slice::from_ref(&lower))[0];
        assert!(row.beyond && (row.worse_by - 0.20).abs() < 1e-9);
        let row = &compare(&a, &faster, std::slice::from_ref(&lower))[0];
        assert!(!row.beyond && row.worse_by < 0.0);

        let higher = Bound {
            name: "sat_per_s".to_owned(),
            higher_is_better: true,
            bound: 0.05,
        };
        let a = set("live_mix", "sat_per_s", &[100.0, 101.0, 99.0]);
        let b = set("live_mix", "sat_per_s", &[90.0, 91.0, 89.0]);
        assert!(compare(&a, &b, std::slice::from_ref(&higher))[0].beyond);
        assert!(!compare(&b, &a, &[higher])[0].beyond);
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            workload: "w".to_owned(),
            attempted: 10,
            metrics: vec![Metric::new("setup_s", 0.5123, "s", 3, "median")],
            extras: vec![Metric::new("extra", 1.0, "count", 1, "")],
            ..Outcome::default()
        };
        let doc = json::parse(&outcome.contract_line()).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), 1, "extras stay out of the contract line");
        assert_eq!(metrics[0].1.get("unit").unwrap().as_str(), Some("s"));
    }
}
