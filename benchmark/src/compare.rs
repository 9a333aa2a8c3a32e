//! `compare A.json B.json`: two sets of runs, judged by the bounds in
//! `BENCHMARK.json`.
//!
//! One row per (end-to-end metric, workload): B's median against A's.
//! `worse` when B is worse by more than the metric's bound; `better`
//! when it is better by more than the bound; `unresolved` when either
//! side's run-to-run spread (interquartile distance over median, as the
//! driver computes it) is wider than the bound and the runs of one side
//! do not all beat the runs of the other; `same` otherwise.

use serde::Json;

use crate::measure::{median, spread};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A bounded metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug)]
pub struct Bounded {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The `end_to_end` list of a parsed `BENCHMARK.json`.
pub fn bounded_metrics(benchmark: &Json) -> Result<Vec<Bounded>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|e| {
            let text = |k: &str| {
                e.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("end_to_end entry lacks {k}"))
            };
            Ok(Bounded {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: match text("better")?.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("better is {other:?}")),
                },
                bound: e
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end entry lacks bound")?,
            })
        })
        .collect()
}

/// Judge B's runs of one metric against A's.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    // Fold direction away: larger `goodness` is better.
    let sign = if higher_is_better { 1.0 } else { -1.0 };
    let (med_a, med_b) = (median(a), median(b));
    let change = if med_a == 0.0 {
        if med_b == 0.0 {
            0.0
        } else {
            sign * med_b.signum()
        }
    } else {
        sign * (med_b - med_a) / med_a.abs()
    };
    let noisy = [a, b]
        .iter()
        .any(|runs| spread(runs).is_some_and(|s| s > bound));
    if noisy {
        let all_b_beat_a = b.iter().all(|&y| a.iter().all(|&x| sign * y > sign * x));
        let all_a_beat_b = a.iter().all(|&x| b.iter().all(|&y| sign * x > sign * y));
        return if all_b_beat_a {
            Verdict::Better
        } else if all_a_beat_b && change < -bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if change < -bound {
        Verdict::Worse
    } else if change > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// `set["runs"][workload]` as per-metric value lists.
fn runs_of(set: &Json, workload: &str, metric: &str) -> Vec<f64> {
    set.get("runs")
        .and_then(|r| r.get(workload))
        .and_then(Json::as_arr)
        .map(|runs| {
            runs.iter()
                .filter_map(|run| run.get(metric).and_then(Json::as_f64))
                .collect()
        })
        .unwrap_or_default()
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub median_a: f64,
    pub median_b: f64,
    pub spread_a: Option<f64>,
    pub spread_b: Option<f64>,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Every (metric, workload) pair both sets have runs for.
pub fn compare_sets(benchmark: &Json, a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let metrics = bounded_metrics(benchmark)?;
    let workloads: Vec<String> = benchmark
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no workloads list")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    let mut rows = Vec::new();
    for workload in &workloads {
        for m in &metrics {
            let (ra, rb) = (runs_of(a, workload, &m.name), runs_of(b, workload, &m.name));
            if ra.is_empty() || rb.is_empty() {
                continue;
            }
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name.clone(),
                median_a: median(&ra),
                median_b: median(&rb),
                spread_a: spread(&ra),
                spread_b: spread(&rb),
                bound: m.bound,
                verdict: judge(&ra, &rb, m.higher_is_better, m.bound),
            });
        }
    }
    if rows.is_empty() {
        return Err("the two sets share no (metric, workload) pair".into());
    }
    Ok(rows)
}

pub fn render(rows: &[Row]) -> String {
    let pct = |s: Option<f64>| s.map_or("   n/a".to_string(), |s| format!("{:5.1}%", s * 100.0));
    let mut out = format!(
        "{:<16} {:<26} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  verdict\n",
        "workload", "metric", "median A", "median B", "change", "iqr A", "iqr B", "bound"
    );
    for r in rows {
        let change = if r.median_a == 0.0 {
            0.0
        } else {
            (r.median_b - r.median_a) / r.median_a.abs() * 100.0
        };
        out.push_str(&format!(
            "{:<16} {:<26} {:>14.6} {:>14.6} {:>+7.1}% {:>7} {:>7} {:>5.0}%  {}\n",
            r.workload,
            r.metric,
            r.median_a,
            r.median_b,
            change,
            pct(r.spread_a),
            pct(r.spread_b),
            r.bound * 100.0,
            r.verdict.name()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = |c: f64| vec![c * 0.99, c, c * 1.01, c, c * 1.005];
        // Lower is better, 10 % bound.
        assert_eq!(
            judge(&steady(100.0), &steady(104.0), false, 0.10),
            Verdict::Same
        );
        assert_eq!(
            judge(&steady(100.0), &steady(115.0), false, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            judge(&steady(100.0), &steady(80.0), false, 0.10),
            Verdict::Better
        );
        // Higher is better flips it.
        assert_eq!(
            judge(&steady(100.0), &steady(80.0), true, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            judge(&steady(100.0), &steady(115.0), true, 0.10),
            Verdict::Better
        );
        // Spread wider than the bound: unresolved, unless one side sweeps.
        let noisy = vec![80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            judge(&noisy, &steady(104.0), false, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(judge(&noisy, &steady(50.0), false, 0.10), Verdict::Better);
        assert_eq!(judge(&noisy, &steady(200.0), false, 0.10), Verdict::Worse);
        // Exact metrics: equal values are the same, any drift is judged.
        assert_eq!(judge(&[0.5, 0.5], &[0.5, 0.5], false, 0.0), Verdict::Same);
        assert_eq!(judge(&[0.5, 0.5], &[0.6, 0.6], false, 0.0), Verdict::Worse);
    }

    #[test]
    fn sets_are_compared_pair_by_pair() {
        let benchmark: Json = serde_json::from_str(
            r#"{"workloads":[{"name":"w1","why":"x"},{"name":"w2","why":"y"}],
                "end_to_end":[{"name":"lat_ms","unit":"ms","better":"lower","bound":0.1},
                              {"name":"tput","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .unwrap();
        let a: Json = serde_json::from_str(
            r#"{"runs":{"w1":[{"lat_ms":10.0,"tput":100},{"lat_ms":10.1,"tput":101}],
                        "w2":[{"lat_ms":5.0}]}}"#,
        )
        .unwrap();
        let b: Json = serde_json::from_str(
            r#"{"runs":{"w1":[{"lat_ms":12.0,"tput":100},{"lat_ms":12.1,"tput":102}],
                        "w2":[{"lat_ms":5.0}]}}"#,
        )
        .unwrap();
        let rows = compare_sets(&benchmark, &a, &b).unwrap();
        let verdicts: Vec<(&str, &str, Verdict)> = rows
            .iter()
            .map(|r| (r.workload.as_str(), r.metric.as_str(), r.verdict))
            .collect();
        assert_eq!(
            verdicts,
            vec![
                ("w1", "lat_ms", Verdict::Worse),
                ("w1", "tput", Verdict::Same),
                ("w2", "lat_ms", Verdict::Same),
            ]
        );
        assert!(render(&rows).contains("worse"));
    }
}
