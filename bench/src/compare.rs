//! `compare`: two result sets of the benchmark side by side — for a parent
//! and a change, or for two runs of the same code.

use crate::metrics::{field, END_TO_END, PER_LAYER};
use crate::{Better, WORKLOADS};
use serde::value::Value;
use std::path::Path;

#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// The two values differ by no more than the metric's bound.
    Within,
    /// The difference exceeds the bound: between runs of the same code the
    /// noise is wider than the bound; between a parent and a change it is a
    /// move the change has to account for.
    Unresolved,
}

/// Relative difference of `b` against `a`, signed so that positive is worse.
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let rel = if a == 0.0 { 0.0 } else { (b - a) / a.abs() };
    match better {
        Better::Lower => rel,
        Better::Higher => -rel,
    }
}

pub fn verdict(a: f64, b: f64, better: Better, bound: f64) -> Verdict {
    if worsening(a, b, better).abs() <= bound {
        Verdict::Within
    } else {
        Verdict::Unresolved
    }
}

fn metric(doc: &Value, name: &str) -> Option<f64> {
    field(field(field(doc, "metrics")?, name)?, "value")?
        .as_num()?
        .parse()
        .ok()
}

/// The result document of one pass (`trace`: 0 end-to-end, 1 per-layer).
fn load(dir: &Path, workload: &str, trace: u8) -> Result<Value, String> {
    let path = dir.join(format!("{workload}.trace{trace}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Print every workload × end-to-end metric of the two sets with the
/// relative difference and the bound, then the exact counts that differ.
/// Returns how many pairs are unresolved or unequal.
pub fn run(a: &Path, b: &Path) -> Result<usize, String> {
    let mut bad = 0;
    println!(
        "{:<18} {:<28} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for workload in WORKLOADS {
        let (da, db) = (load(a, workload, 0)?, load(b, workload, 0)?);
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (metric(&da, m.name), metric(&db, m.name)) else {
                return Err(format!(
                    "{workload}: {} is missing from a result set",
                    m.name
                ));
            };
            let v = verdict(va, vb, m.better, m.bound);
            println!(
                "{:<18} {:<28} {:>14.6} {:>14.6} {:>+8.2}% {:>6.0}%  {}",
                workload,
                m.name,
                va,
                vb,
                100.0 * worsening(va, vb, m.better),
                100.0 * m.bound,
                if v == Verdict::Within {
                    "ok"
                } else {
                    "unresolved"
                }
            );
            bad += usize::from(v == Verdict::Unresolved);
        }
        let (da, db) = (load(a, workload, 1)?, load(b, workload, 1)?);
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let (va, vb) = (metric(&da, m.name), metric(&db, m.name));
            if va != vb {
                println!(
                    "{workload:<18} {:<28} exact count differs: {va:?} vs {vb:?}",
                    m.name
                );
                bad += 1;
            }
        }
    }
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_applies_the_bound_in_the_metrics_direction() {
        use Better::{Higher, Lower};
        // Lower is better: +9 % is inside a 10 % bound, +11 % is not.
        assert_eq!(verdict(100.0, 109.0, Lower, 0.10), Verdict::Within);
        assert_eq!(verdict(100.0, 111.0, Lower, 0.10), Verdict::Unresolved);
        // A gain larger than the bound is also a difference to account for.
        assert_eq!(verdict(100.0, 80.0, Lower, 0.10), Verdict::Unresolved);
        // Higher is better: the sign flips, the bound does not.
        assert!(worsening(100.0, 90.0, Higher) > 0.0);
        assert!(worsening(100.0, 90.0, Lower) < 0.0);
        assert_eq!(verdict(100.0, 95.0, Higher, 0.10), Verdict::Within);
        assert_eq!(verdict(100.0, 85.0, Higher, 0.10), Verdict::Unresolved);
        // Equal values, including two zeros, are within any bound.
        assert_eq!(verdict(0.0, 0.0, Lower, 0.02), Verdict::Within);
        assert_eq!(verdict(1.6, 1.6, Lower, 0.02), Verdict::Within);
    }

    #[test]
    fn metric_reads_a_result_document() {
        let doc: Value = serde_json::from_str(
            r#"{"workload":"w","metrics":{"store_p50_ms":{"value":2.25,"unit":"ms"}}}"#,
        )
        .unwrap();
        assert_eq!(metric(&doc, "store_p50_ms"), Some(2.25));
        assert_eq!(metric(&doc, "absent"), None);
    }
}
