//! `--compare A.json[,A2…] B.json[,B2…]`: two sets of `--out` records, per
//! workload and metric — set medians, quartiles, the relative difference
//! and, for end-to-end metrics, the verdict against the bound
//! `BENCHMARK.json` fixes. Exits non-zero when B is worse than A beyond a
//! bound on any metric — and, with `--max-spread X`, when the single-run
//! spread (max − min) / median of an end-to-end timing exceeds `X` in either
//! set. `benchmark/aa.sh` runs it both ways round on two sets from the same
//! tree.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::json::Json;
use crate::spec;
use crate::stats::quartiles;

/// workload → (metric, unit, values — one per run).
type Sets = BTreeMap<String, Vec<(String, String, Vec<f64>)>>;

fn load(list: &str) -> Result<Sets, String> {
    let mut sets = Sets::new();
    for path in list.split(',').filter(|p| !p.is_empty()) {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{path}: no workload"))?;
        let metrics = doc
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_obj)
            .ok_or(format!("{path}: no result.metrics"))?;
        let entry = sets.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("{path}: {name} has no value"))?;
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            match entry.iter_mut().find(|(n, ..)| n == name) {
                Some((.., values)) => values.push(value),
                None => entry.push((name.clone(), unit.to_string(), vec![value])),
            }
        }
    }
    Ok(sets)
}

/// name → (higher is better, bound) for the end-to-end metrics.
fn bounds() -> BTreeMap<String, (bool, f64)> {
    let contract = spec::contract();
    spec::entries(&contract, "end_to_end")
        .iter()
        .map(|m| {
            let bound = m.get("bound").and_then(Json::as_f64).expect("a bound");
            let higher = spec::field(m, "better") == "higher";
            (spec::field(m, "name").to_string(), (higher, bound))
        })
        .collect()
}

/// Relative worsening of `b` against `a`: positive when B is worse.
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    let rel = (b - a) / a.abs();
    if higher_is_better {
        -rel
    } else {
        rel
    }
}

/// (max − min) / median of one set: the single-run spread.
pub fn spread(values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / quartiles(values)[1].abs()
}

pub fn run(a_list: &str, b_list: &str, max_spread: Option<f64>) -> ExitCode {
    let (a, b) = match (load(a_list), load(b_list)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let bounds = bounds();
    let (mut regressed, mut noisy) = (0, 0);
    for (workload, a_metrics) in &a {
        let Some(b_metrics) = b.get(workload) else {
            println!("\n{workload}: only in A");
            continue;
        };
        println!(
            "\n{workload}  (A: {} runs, B: {} runs)",
            a_metrics[0].2.len(),
            b_metrics[0].2.len()
        );
        println!(
            "{:<36} {:>15} {:>15} {:>9} {:>8} {:>8} {:>8} {:>8}  verdict",
            "metric", "median A", "median B", "B vs A", "iqr A", "iqr B", "spread A", "spread B"
        );
        for (name, unit, av) in a_metrics {
            let Some((.., bv)) = b_metrics.iter().find(|(n, ..)| n == name) else {
                continue;
            };
            let (qa, qb) = (quartiles(av), quartiles(bv));
            // The set median as Python's `statistics.median` gives it.
            let (ma, mb) = (qa[1], qb[1]);
            let rel = (mb - ma) / ma.abs();
            let mut verdict = match bounds.get(name) {
                Some(&(higher, bound)) => {
                    let w = worsening(ma, mb, higher);
                    if w > bound {
                        regressed += 1;
                        format!("WORSE by {:.2} % > bound {:.2} %", w * 100.0, bound * 100.0)
                    } else {
                        format!("within {:.2} %", bound * 100.0)
                    }
                }
                None => String::new(),
            };
            let timing = bounds.contains_key(name) && matches!(unit.as_str(), "s" | "ms");
            if let Some(limit) = max_spread.filter(|l| timing && spread(av).max(spread(bv)) > *l) {
                noisy += 1;
                verdict += &format!("; NOISY: spread > {:.0} %", limit * 100.0);
            }
            println!(
                "{name:<36} {ma:>15.6} {mb:>15.6} {:>8.2}% {:>7.2}% {:>7.2}% {:>7.2}% {:>7.2}%  {verdict}",
                rel * 100.0,
                (qa[2] - qa[0]) / qa[1].abs() * 100.0,
                (qb[2] - qb[0]) / qb[1].abs() * 100.0,
                spread(av) * 100.0,
                spread(bv) * 100.0,
            );
        }
    }
    for workload in b.keys().filter(|w| !a.contains_key(*w)) {
        println!("\n{workload}: only in B");
    }
    if regressed + noisy > 0 {
        println!("\n{regressed} metric(s) worse than their bound, {noisy} timing(s) over the spread limit");
        ExitCode::FAILURE
    } else {
        println!("\nno end-to-end metric is worse in B than in A by more than its bound");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_is_signed_by_the_metric_direction() {
        assert!((worsening(100.0, 110.0, false) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, true) + 0.10).abs() < 1e-12);
        assert!((worsening(1.0, 0.99, true) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert!((spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0]), 0.0);
    }
}
