//! `compare A.json B.json`: one row per (end-to-end metric, workload) with
//! both values, the ratio with its base, the bound, and a verdict. A pair
//! whose run-to-run quartile spread exceeds the bound is `unresolved`, not
//! `same`: the benchmark cannot tell at that noise level.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, WORKLOADS};

#[derive(Debug, Clone, Copy, PartialEq)]
struct Reading {
    value: f64,
    /// Interquartile range as a share of the median, within the run.
    spread: f64,
}

fn reading(doc: &Json, workload: &str, metric: &str) -> Option<Reading> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    let value = m.get("value")?.as_f64()?;
    let (q1, q3) = (m.get("q1")?.as_f64()?, m.get("q3")?.as_f64()?);
    let spread = if value == 0.0 {
        0.0
    } else {
        (q3 - q1) / value.abs()
    };
    Some(Reading { value, spread })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// `a` is the base, `b` the candidate.
fn verdict(a: Reading, b: Reading, better: Better, bound: f64) -> Verdict {
    if a.spread.max(b.spread) > bound {
        return Verdict::Unresolved;
    }
    // Positive = worse, as a share of the base.
    let worsening = match better {
        Better::Lower => (b.value - a.value) / a.value.abs(),
        Better::Higher => (a.value - b.value) / a.value.abs(),
    };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Prints the table; `Ok(false)` when any row is worse or unresolved.
pub fn run(paths: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = paths else {
        return Err("compare needs two result files".into());
    };
    let (a_doc, b_doc) = (Json::read_file(a_path)?, Json::read_file(b_path)?);
    println!("base A = {a_path}\ncand B = {b_path}");
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>10} {:>6} {:>8}  {:<10} identical",
        "workload", "metric", "A", "B", "B/A", "bound", "spread", "verdict"
    );
    let mut clean = true;
    let mut rows = 0;
    for (workload, _) in WORKLOADS {
        for d in END_TO_END {
            let (Some(a), Some(b)) = (
                reading(&a_doc, workload, d.name),
                reading(&b_doc, workload, d.name),
            ) else {
                continue;
            };
            rows += 1;
            let v = verdict(a, b, d.better, d.bound);
            clean &= !matches!(v, Verdict::Worse | Verdict::Unresolved);
            println!(
                "{:<16} {:<18} {:>14.6} {:>14.6} {:>10.4} {:>5.0}% {:>7.1}%  {:<10} {}",
                workload,
                d.name,
                a.value,
                b.value,
                b.value / a.value,
                d.bound * 100.0,
                a.spread.max(b.spread) * 100.0,
                format!("{v:?}").to_lowercase(),
                if a.value == b.value { "yes" } else { "no" },
            );
        }
    }
    if rows == 0 {
        return Err("the two files share no (workload, metric) pair".into());
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(value: f64, spread: f64) -> Reading {
        Reading { value, spread }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        assert_eq!(
            verdict(r(1.0, 0.0), r(1.05, 0.0), Better::Lower, 0.1),
            Verdict::Same
        );
        assert_eq!(
            verdict(r(1.0, 0.0), r(1.2, 0.0), Better::Lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(r(1.0, 0.0), r(0.8, 0.0), Better::Lower, 0.1),
            Verdict::Better
        );
        assert_eq!(
            verdict(r(100.0, 0.0), r(80.0, 0.0), Better::Higher, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(r(1.0, 0.2), r(1.5, 0.0), Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }
}
