//! `--compare A B`: two result files (written by `--out`), judged against
//! the bounds `BENCHMARK.json` fixes.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::stats::{self, Summary};

/// (workload, metric) → (unit, values), in order of first appearance.
type Series = Vec<((String, String), (String, Vec<f64>))>;

/// Reads the result lines of a file, one JSON document per line.
pub fn read_results(text: &str) -> Result<Series, String> {
    let mut series: Series = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .ok_or(format!("line {}: no workload", n + 1))?;
        let metrics = doc
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or(format!("line {}: no metrics", n + 1))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or(format!("line {}: {name} has no value", n + 1))?;
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
            let key = (workload.to_string(), name.clone());
            match series.iter_mut().find(|(k, _)| *k == key) {
                Some((_, (_, values))) => values.push(value),
                None => series.push((key, (unit.to_string(), vec![value]))),
            }
        }
    }
    Ok(series)
}

/// A metric's regression bound and direction, from `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    pub share: f64,
    pub higher_is_better: bool,
}

pub fn read_bounds(benchmark_json: &str) -> Result<BTreeMap<String, Bound>, String> {
    let doc = json::parse(benchmark_json)?;
    let items = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("no end_to_end list")?;
    let mut bounds = BTreeMap::new();
    for item in items {
        let name = item
            .get("name")
            .and_then(Value::as_str)
            .ok_or("metric without a name")?;
        let share = item
            .get("bound")
            .and_then(Value::as_f64)
            .ok_or(format!("{name} has no bound"))?;
        let higher_is_better = item.get("better").and_then(Value::as_str) == Some("higher");
        bounds.insert(
            name.to_string(),
            Bound {
                share,
                higher_is_better,
            },
        );
    }
    Ok(bounds)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A per-layer metric: reported, never judged.
    NoBound,
    /// The run-to-run spread of a side exceeds the bound: not "unchanged".
    Unresolved,
    Regressed,
    WithinBound,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::NoBound => "-",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "REGRESSED",
            Verdict::WithinBound => "within bound",
        }
    }
}

pub fn judge(a: &Summary, b: &Summary, bound: Option<Bound>) -> Verdict {
    let Some(bound) = bound else {
        return Verdict::NoBound;
    };
    if a.spread().max(b.spread()) > bound.share {
        return Verdict::Unresolved;
    }
    let worse_by = if a.median == 0.0 {
        0.0
    } else if bound.higher_is_better {
        1.0 - b.median / a.median
    } else {
        b.median / a.median - 1.0
    };
    if worse_by > bound.share {
        Verdict::Regressed
    } else {
        Verdict::WithinBound
    }
}

/// Prints one row per (workload, metric) present in both files; returns
/// how many regressed.
pub fn compare(
    a_text: &str,
    b_text: &str,
    bounds: &BTreeMap<String, Bound>,
) -> Result<usize, String> {
    let (a, b) = (read_results(a_text)?, read_results(b_text)?);
    let mut regressed = 0;
    println!(
        "{:<16} {:<30} {:<8} {:>38} {:>38} {:>22}  verdict",
        "workload", "metric", "unit", "A median [q1, q3] n", "B median [q1, q3] n", "B/A (base A)"
    );
    for ((workload, metric), (unit, a_values)) in &a {
        let Some((_, (_, b_values))) = b.iter().find(|(k, _)| k.0 == *workload && k.1 == *metric)
        else {
            continue;
        };
        let (sa, sb) = (stats::summarize(a_values), stats::summarize(b_values));
        let verdict = judge(&sa, &sb, bounds.get(metric).copied());
        regressed += usize::from(verdict == Verdict::Regressed);
        let side = |s: &Summary| format!("{:.6} [{:.6}, {:.6}] {}", s.median, s.q1, s.q3, s.n);
        let ratio = if sa.median == 0.0 {
            f64::NAN
        } else {
            sb.median / sa.median
        };
        println!(
            "{workload:<16} {metric:<30} {unit:<8} {:>38} {:>38} {:>22}  {}",
            side(&sa),
            side(&sb),
            format!("{ratio:.4} ({:.6})", sa.median),
            verdict.label()
        );
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(workload: &str, value: f64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": 1, \"metrics\": \
             {{\"ops_per_s\": {{\"value\": {value}, \"unit\": \"1/s\"}}}}}}\n"
        )
    }

    #[test]
    fn results_group_by_workload_and_metric() {
        let text = line("a", 1.0) + &line("b", 5.0) + "\n" + &line("a", 3.0);
        let series = read_results(&text).unwrap();
        assert_eq!(series.len(), 2);
        assert_eq!(
            series[0],
            (
                ("a".into(), "ops_per_s".into()),
                ("1/s".into(), vec![1.0, 3.0])
            )
        );
        assert!(read_results("{\"metrics\": {}}").is_err());
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let bounds = read_bounds(
            r#"{"end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
                               {"name": "op_p50_us", "unit": "us", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let (rate, lat) = (bounds["ops_per_s"], bounds["op_p50_us"]);
        let tight = |m: f64| stats::summarize(&[m * 0.99, m, m * 1.01]);
        assert_eq!(
            judge(&tight(100.0), &tight(85.0), Some(rate)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&tight(100.0), &tight(95.0), Some(rate)),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(&tight(100.0), &tight(150.0), Some(rate)),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(&tight(100.0), &tight(115.0), Some(lat)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&tight(100.0), &tight(50.0), Some(lat)),
            Verdict::WithinBound
        );
        // Spread wider than the bound: the pair is unresolved, not unchanged.
        let noisy = stats::summarize(&[80.0, 100.0, 120.0]);
        assert_eq!(judge(&noisy, &tight(100.0), Some(lat)), Verdict::Unresolved);
        assert_eq!(judge(&tight(1.0), &tight(9.0), None), Verdict::NoBound);
    }
}
