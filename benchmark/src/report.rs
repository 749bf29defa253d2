//! One workload's result: its text rows, its JSON form (written by
//! `run`, read back by `compare` through `mm_telemetry::json`), and the
//! one-line object the PR driver reads from the last line of stdout.

use crate::stats::Summary;
use mm_telemetry::json::JsonValue;
use std::fmt::Write as _;

/// One metric of one workload. `summary` is `None` when the metric is
/// not measurable on this host or workload.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricResult {
    pub name: String,
    pub unit: String,
    pub summary: Option<Summary>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    pub seed: u64,
    pub traced: bool,
    /// One operation = one repetition.
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// Seed 1 only: do the architectural statistics equal the golden?
    pub sim_fingerprint_match: Option<bool>,
    pub metrics: Vec<MetricResult>,
}

/// A JSON number, or `null` for what JSON cannot carry.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn opt_bool(v: Option<bool>) -> String {
    v.map_or("null".to_owned(), |b| b.to_string())
}

impl WorkloadResult {
    pub fn metric(&self, name: &str) -> Option<&MetricResult> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The text rows: every metric by name with its unit, then the
    /// operation counts.
    pub fn rows(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            match m.summary {
                None => {
                    let _ = writeln!(out, "{:<44} not_measurable", m.name);
                }
                Some(s) if s.n == 1 => {
                    let _ = writeln!(out, "{:<44} {} {}", m.name, json_num(s.median), m.unit);
                }
                Some(s) => {
                    let _ = writeln!(
                        out,
                        "{:<44} {} {}  (q1 {} q3 {} n {})",
                        m.name,
                        json_num(s.median),
                        m.unit,
                        json_num(s.q1),
                        json_num(s.q3),
                        s.n
                    );
                }
            }
        }
        let _ = writeln!(out, "{:<44} {}", "ops_attempted", self.ops_attempted);
        let _ = writeln!(out, "{:<44} {}", "ops_failed", self.ops_failed);
        let _ = writeln!(
            out,
            "{:<44} {}",
            "sim_fingerprint_match",
            opt_bool(self.sim_fingerprint_match)
        );
        out
    }

    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"name\":{},\"seed\":{},\"traced\":{},\"ops_attempted\":{},\"ops_failed\":{},\
             \"sim_fingerprint_match\":{},\"metrics\":{{",
            json_str(&self.name),
            self.seed,
            self.traced,
            self.ops_attempted,
            self.ops_failed,
            opt_bool(self.sim_fingerprint_match)
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n  {}:{{\"unit\":{}",
                json_str(&m.name),
                json_str(&m.unit)
            );
            match m.summary {
                Some(s) => {
                    let _ = write!(
                        out,
                        ",\"median\":{},\"q1\":{},\"q3\":{},\"n\":{}}}",
                        json_num(s.median),
                        json_num(s.q1),
                        json_num(s.q3),
                        s.n
                    );
                }
                None => out.push_str(",\"median\":null}"),
            }
        }
        out.push_str("}}");
        out
    }

    pub fn from_json(v: &JsonValue) -> Result<WorkloadResult, String> {
        let field = |key: &str| {
            v.get(key)
                .ok_or_else(|| format!("workload result lacks \"{key}\""))
        };
        let num = |key: &str| {
            field(key)?
                .as_u64()
                .ok_or_else(|| format!("\"{key}\" is not a whole number"))
        };
        let JsonValue::Object(members) = field("metrics")? else {
            return Err("\"metrics\" is not an object".to_owned());
        };
        let metrics = members
            .iter()
            .map(|(name, m)| {
                let part = |key: &str| m.get(key).and_then(JsonValue::as_f64);
                let summary = match (part("median"), part("q1"), part("q3"), part("n")) {
                    (Some(median), Some(q1), Some(q3), Some(n)) => Some(Summary {
                        median,
                        q1,
                        q3,
                        n: n as usize,
                    }),
                    (None, ..) => None,
                    _ => return Err(format!("metric {name} lacks quartiles")),
                };
                Ok(MetricResult {
                    name: name.clone(),
                    unit: m
                        .get("unit")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_owned(),
                    summary,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(WorkloadResult {
            name: field("name")?
                .as_str()
                .ok_or("\"name\" is not a string")?
                .to_owned(),
            seed: num("seed")?,
            traced: field("traced")?
                .as_bool()
                .ok_or("\"traced\" is not a bool")?,
            ops_attempted: num("ops_attempted")?,
            ops_failed: num("ops_failed")?,
            sim_fingerprint_match: field("sim_fingerprint_match")?.as_bool(),
            metrics,
        })
    }

    /// The PR driver's line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, each metric a number. A metric that is not
    /// measurable reads 0 here (the line cannot carry `null`); the text
    /// rows and the JSON result say `not_measurable` / `null`.
    pub fn contract_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = m.summary.map_or(0.0, |s| s.median);
                let value = if value.is_finite() { value } else { 0.0 };
                format!(
                    "{}:{{\"value\":{value},\"unit\":{}}}",
                    json_str(&m.name),
                    json_str(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.ops_failed == 0,
            self.ops_attempted,
            self.ops_failed,
            metrics.join(",")
        )
    }
}

/// The workload results in a result file: a suite file's `workloads`
/// array, or the one object `run --workload W --out FILE` writes.
pub fn parse_results(text: &str) -> Result<Vec<WorkloadResult>, String> {
    let v = mm_telemetry::json::parse(text)?;
    match v.get("workloads").and_then(JsonValue::as_array) {
        Some(list) => list.iter().map(WorkloadResult::from_json).collect(),
        None => Ok(vec![WorkloadResult::from_json(&v)?]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WorkloadResult {
        WorkloadResult {
            name: "busy_mesh_64".to_owned(),
            seed: 1,
            traced: false,
            ops_attempted: 9,
            ops_failed: 0,
            sim_fingerprint_match: Some(true),
            metrics: vec![
                MetricResult {
                    name: "sim_cycles_per_s".to_owned(),
                    unit: "cycles/s".to_owned(),
                    summary: Some(Summary {
                        median: 81234.5678,
                        q1: 80000.25,
                        q3: 82000.75,
                        n: 9,
                    }),
                },
                MetricResult {
                    name: "core.shard.w2_speedup".to_owned(),
                    unit: "ratio".to_owned(),
                    summary: None,
                },
            ],
        }
    }

    #[test]
    fn json_round_trips() {
        let r = sample();
        assert_eq!(parse_results(&r.to_json()), Ok(vec![r.clone()]));
        let suite = format!(
            "{{\"seed\":1,\"workloads\":[{},{}]}}",
            r.to_json(),
            r.to_json()
        );
        assert_eq!(parse_results(&suite), Ok(vec![r.clone(), r]));
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_numbers_only() {
        let line = sample().contract_line();
        let v = mm_telemetry::json::parse(&line).expect("valid JSON");
        let JsonValue::Object(members) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(JsonValue::as_bool), Some(true));
        let speedup = v
            .get("metrics")
            .and_then(|m| m.get("core.shard.w2_speedup"));
        assert_eq!(
            speedup
                .and_then(|m| m.get("value"))
                .and_then(JsonValue::as_f64),
            Some(0.0)
        );
        assert!(sample().rows().contains("not_measurable"));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(json_num(f64::NAN), "null");
    }
}
