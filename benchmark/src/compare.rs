//! `compare A.json B.json`: per workload × end-to-end metric, the base,
//! the new value, their ratio and a verdict against the metric's bound.

use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::report::WorkloadResult;
use crate::stats::Summary;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// Either side's run-to-run spread (inter-quartile distance over
    /// median) is wider than the bound: the data cannot say "same".
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `new / base` and the verdict on one metric.
pub fn verdict(metric: &EndToEnd, base: &Summary, new: &Summary) -> (f64, Verdict) {
    let ratio = new.median / base.median;
    if base.spread() > metric.bound || new.spread() > metric.bound {
        return (ratio, Verdict::Unresolved);
    }
    let worsening = match metric.better {
        Better::Higher => 1.0 - ratio,
        Better::Lower => ratio - 1.0,
    };
    let v = if worsening > metric.bound {
        Verdict::Worse
    } else if worsening < -metric.bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (ratio, v)
}

/// The outcome of comparing two result sets.
pub struct Comparison {
    /// The table, one row per workload × end-to-end metric.
    pub table: String,
    pub verdicts: Vec<Verdict>,
    /// A workload or metric missing on one side, or a higher share of
    /// failed operations on the new side.
    pub problems: Vec<String>,
}

impl Comparison {
    /// No `worse`, nothing missing, no more failures than the base.
    pub fn acceptable(&self) -> bool {
        self.problems.is_empty() && !self.verdicts.contains(&Verdict::Worse)
    }

    pub fn all_same(&self) -> bool {
        self.problems.is_empty() && self.verdicts.iter().all(|v| *v == Verdict::Same)
    }
}

/// The table, then one line per problem.
impl std::fmt::Display for Comparison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.table)?;
        self.problems
            .iter()
            .try_for_each(|p| writeln!(f, "problem: {p}"))
    }
}

pub fn compare(base: &[WorkloadResult], new: &[WorkloadResult]) -> Comparison {
    let mut c = Comparison {
        table: format!(
            "{:<24} {:<18} {:>14} {:>14} {:>8}  verdict\n",
            "workload", "metric", "base", "new", "new/base"
        ),
        verdicts: Vec::new(),
        problems: Vec::new(),
    };
    for b in base {
        let Some(n) = new.iter().find(|n| n.name == b.name) else {
            c.problems
                .push(format!("{}: missing from the new results", b.name));
            continue;
        };
        let failed_share = |r: &WorkloadResult| r.ops_failed as f64 / r.ops_attempted.max(1) as f64;
        if failed_share(n) > failed_share(b) {
            c.problems.push(format!(
                "{}: failed operations rose from {}/{} to {}/{}",
                b.name, b.ops_failed, b.ops_attempted, n.ops_failed, n.ops_attempted
            ));
        }
        for metric in &END_TO_END {
            let side = |r: &WorkloadResult| r.metric(metric.name).and_then(|m| m.summary);
            let (Some(bs), Some(ns)) = (side(b), side(n)) else {
                c.problems
                    .push(format!("{}: {} missing on one side", b.name, metric.name));
                continue;
            };
            let (ratio, v) = verdict(metric, &bs, &ns);
            c.verdicts.push(v);
            let _ = writeln!(
                c.table,
                "{:<24} {:<18} {:>14.6} {:>14.6} {:>8.4}  {}",
                b.name,
                metric.name,
                bs.median,
                ns.median,
                ratio,
                v.as_str()
            );
        }
    }
    for n in new {
        if !base.iter().any(|b| b.name == n.name) {
            c.problems
                .push(format!("{}: missing from the base results", n.name));
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::MetricResult;

    fn tight(median: f64) -> Summary {
        Summary {
            median,
            q1: median * 0.995,
            q3: median * 1.005,
            n: 9,
        }
    }

    fn result(cycles_per_s: Summary, failed: u64) -> WorkloadResult {
        let metric = |name: &str, summary| MetricResult {
            name: name.to_owned(),
            unit: String::new(),
            summary: Some(summary),
        };
        WorkloadResult {
            name: "w".to_owned(),
            seed: 1,
            traced: false,
            ops_attempted: 10,
            ops_failed: failed,
            sim_fingerprint_match: None,
            metrics: vec![
                metric("sim_cycles_per_s", cycles_per_s),
                metric("setup_s", tight(0.25)),
                metric("peak_rss_mib", Summary::single(64.0)),
                metric("sim_cycles_per_op", Summary::single(8.1)),
            ],
        }
    }

    const SPEED: EndToEnd = EndToEnd {
        name: "speed",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    };
    const COST: EndToEnd = EndToEnd {
        name: "cost",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    };

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let v = |m: &EndToEnd, base: f64, new: f64| verdict(m, &tight(base), &tight(new)).1;
        assert_eq!(v(&SPEED, 100.0, 105.0), Verdict::Same);
        assert_eq!(v(&SPEED, 100.0, 95.0), Verdict::Same);
        assert_eq!(v(&SPEED, 100.0, 120.0), Verdict::Better);
        assert_eq!(v(&SPEED, 100.0, 80.0), Verdict::Worse);
        assert_eq!(v(&COST, 1.0, 1.2), Verdict::Same);
        assert_eq!(v(&COST, 1.0, 1.3), Verdict::Worse);
        assert_eq!(v(&COST, 1.0, 0.7), Verdict::Better);
        let (ratio, _) = verdict(&COST, &tight(2.0), &tight(1.0));
        assert_eq!(ratio, 0.5);
    }

    #[test]
    fn wide_spread_is_unresolved_never_same() {
        let noisy = Summary {
            median: 100.0,
            q1: 90.0,
            q3: 105.0,
            n: 9,
        };
        // Equal medians, but a 15 % spread against a 10 % bound.
        assert_eq!(
            verdict(&SPEED, &noisy, &tight(100.0)).1,
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&SPEED, &tight(100.0), &noisy).1,
            Verdict::Unresolved
        );
        // Even a large apparent loss stays unresolved.
        assert_eq!(verdict(&SPEED, &noisy, &tight(50.0)).1, Verdict::Unresolved);
    }

    #[test]
    fn comparison_flags_worse_missing_and_failures() {
        let base = [result(tight(100.0), 0)];
        let same = compare(&base, &[result(tight(101.0), 0)]);
        assert!(same.all_same() && same.acceptable());
        assert_eq!(same.verdicts.len(), END_TO_END.len());
        assert!(same.table.contains("sim_cycles_per_op"));

        let worse = compare(&base, &[result(tight(50.0), 0)]);
        assert!(!worse.acceptable() && !worse.all_same());

        let better = compare(&base, &[result(tight(150.0), 0)]);
        assert!(better.acceptable() && !better.all_same());

        let failing = compare(&base, &[result(tight(100.0), 1)]);
        assert!(!failing.acceptable());
        assert!(failing.problems[0].contains("failed operations rose"));

        let missing = compare(&base, &[]);
        assert!(!missing.acceptable());
        let mut renamed = result(tight(100.0), 0);
        renamed.name = "other".to_owned();
        assert_eq!(compare(&base, &[renamed]).problems.len(), 2);
    }
}
