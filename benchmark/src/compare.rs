//! `compare A.json B.json`: holds every end-to-end metric of suite result
//! B against A (the base) by the metric's direction and bound.

use std::path::Path;
use std::process::ExitCode;

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::workloads::Workload;

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn field(doc: &Json, workload: &str, group: &str, metric: &str, key: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get(group)?
        .get(metric)?
        .get(key)?
        .as_f64()
}

/// By how much `b` is worse than `a`, as a share of `a` (negative: better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    }
}

/// The verdict on one end-to-end metric.
///
/// A worsening beyond the bound is a regression. Otherwise a wall-clock
/// metric whose recorded round-to-round spread is wider than its bound is
/// *unresolved*: the runs cannot tell a change of that size from noise, so
/// "unchanged" would claim more than was measured.
pub fn verdict(worse_by: f64, bound: f64, wall: bool, spread: f64) -> &'static str {
    if worse_by > bound {
        "REGRESSION"
    } else if wall && spread > bound {
        "unresolved"
    } else if worse_by < -bound {
        "better"
    } else {
        "ok"
    }
}

/// Compares two suite result files; fails on a regression, on a workload
/// missing from either file, and on a run whose output check failed.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<ExitCode, String> {
    let a = load(a_path)?;
    let b = load(b_path)?;
    println!(
        "base A = {} · B = {} · ratio = B / A",
        a_path.display(),
        b_path.display()
    );
    let mut failed = false;
    for workload in Workload::ALL {
        let name = workload.name();
        println!("\n{name}");
        println!(
            "  {:<42} {:>16} {:>16} {:>8}  verdict",
            "metric", "A", "B", "B/A"
        );
        for doc in [&a, &b] {
            let correct = doc
                .get("workloads")
                .and_then(|w| w.get(name))
                .and_then(|w| w.get("correct"));
            if correct != Some(&Json::Bool(true)) {
                println!("  OUTPUT CHECK FAILED or workload missing in one file");
                failed = true;
            }
        }
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (
                field(&a, name, "end_to_end", m.name, "value"),
                field(&b, name, "end_to_end", m.name, "value"),
            ) else {
                println!("  {:<42} missing", m.name);
                failed = true;
                continue;
            };
            let spread = [&a, &b]
                .into_iter()
                .filter_map(|doc| field(doc, name, "end_to_end", m.name, "spread"))
                .fold(0.0, f64::max);
            let worse_by = worsening(m.better, va, vb);
            let verdict = verdict(worse_by, m.bound, m.wall, spread);
            failed |= verdict == "REGRESSION";
            println!(
                "  {:<42} {va:>16.4} {vb:>16.4} {:>8.4}  {verdict} ({} is better, bound {:.1} %, spread {:.1} %)",
                m.name,
                if va == 0.0 { 0.0 } else { vb / va },
                m.better.as_str(),
                m.bound * 100.0,
                spread * 100.0
            );
        }
        for m in &PER_LAYER {
            let va = field(&a, name, "per_layer", m.name, "value").unwrap_or(0.0);
            let vb = field(&b, name, "per_layer", m.name, "value").unwrap_or(0.0);
            println!(
                "  {:<42} {va:>16.4} {vb:>16.4} {:>8.4}",
                m.name,
                if va == 0.0 { 0.0 } else { vb / va }
            );
        }
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        // 12 % fewer steps per second against a 10 % bound.
        let w = worsening(Better::Higher, 100.0, 88.0);
        assert_eq!(verdict(w, 0.10, true, 0.02), "REGRESSION");
        // 5 % more bytes against a 10 % bound.
        let w = worsening(Better::Lower, 100.0, 105.0);
        assert_eq!(verdict(w, 0.10, false, 0.0), "ok");
        // Within the bound, but the rounds spread wider than the bound.
        assert_eq!(verdict(w, 0.10, true, 0.2), "unresolved");
        // A count has no spread to hide behind.
        assert_eq!(verdict(w, 0.10, false, 0.2), "ok");
        let w = worsening(Better::Lower, 100.0, 80.0);
        assert_eq!(verdict(w, 0.10, true, 0.02), "better");
    }
}
