//! `compare <dirA> <dirB>`: medians and quartiles of two sets of runs, per
//! workload and end-to-end metric, with every move beyond the metric's
//! `BENCHMARK.json` bound flagged.

use crate::stats::quartiles;
use sdea_obs::json::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads.
#[derive(Debug)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    /// Read so the self-tests can hold it against what the code emits.
    #[cfg_attr(not(test), allow(dead_code))]
    pub per_layer: Vec<Declared>,
}

/// Reads `BENCHMARK.json`.
pub fn load_spec(path: &Path) -> Result<Spec, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| -> Result<Vec<Declared>, String> {
        let items = json.get(key).and_then(Json::as_array).ok_or(format!("no {key} list"))?;
        items
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or(format!("{key}: no {f}"))
                };
                Ok(Declared {
                    name: field("name")?,
                    unit: field("unit")?,
                    better: field("better")?,
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    let workloads = json
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or("no workloads list")?
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or("workload without a name")
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Spec { workloads, end_to_end: list("end_to_end")?, per_layer: list("per_layer")? })
}

/// How the second side's median moved against the first's.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// Worse by more than the bound.
    Regression,
    /// Better by more than the bound.
    Improved,
    /// Within the bound.
    Within,
    /// The first side's own spread is wider than the bound, so a move
    /// within it cannot be told from noise.
    Unresolved,
}

/// Relative change of `b` against `a`, signed so positive is worse.
fn worsening(a: f64, b: f64, better: &str) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    if better == "lower" {
        change
    } else {
        -change
    }
}

/// Judges a move from the runs `a` to the runs `b` against `bound`.
fn verdict(a: &[f64], b: &[f64], better: &str, bound: f64) -> Verdict {
    let (a1, am, a3) = quartiles(a);
    let (_, bm, _) = quartiles(b);
    let worse = worsening(am, bm, better);
    let spread = (a3 - a1).abs() / am.abs().max(f64::MIN_POSITIVE);
    if worse > bound {
        Verdict::Regression
    } else if -worse > bound {
        Verdict::Improved
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Within
    }
}

/// workload -> metric -> values of every full (non-smoke) `run` result in
/// `dir`.
fn collect(dir: &Path) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.ends_with(".json") || name.contains("-smoke") {
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{name}: {e}"))?;
        let json = Json::parse(&text).map_err(|e| format!("{name}: {e}"))?;
        if json.get("mode").and_then(Json::as_str) != Some("run") {
            continue;
        }
        let workload =
            json.get("workload").and_then(Json::as_str).ok_or(format!("{name}: no workload"))?;
        let Some(Json::Obj(metrics)) = json.get("metrics") else {
            return Err(format!("{name}: no metrics object"));
        };
        for (metric, v) in metrics {
            if let Some(value) = v.get("value").and_then(Json::as_f64) {
                out.entry(workload.to_string())
                    .or_default()
                    .entry(metric.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(out)
}

/// Prints the comparison; `Ok(true)` when any metric regressed.
pub fn run(spec: &Spec, dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let (a, b) = (collect(dir_a)?, collect(dir_b)?);
    let mut regressed = false;
    println!(
        "{:<13} {:<13} {:>40} {:>40} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "worse"
    );
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let (Some(va), Some(vb)) = (
                a.get(workload).and_then(|w| w.get(&m.name)),
                b.get(workload).and_then(|w| w.get(&m.name)),
            ) else {
                continue;
            };
            let bound = m.bound.unwrap_or(0.0);
            let v = verdict(va, vb, &m.better, bound);
            regressed |= v == Verdict::Regression;
            let show = |vals: &[f64]| {
                let (q1, med, q3) = quartiles(vals);
                format!("{med:.4} {} [{q1:.4}, {q3:.4}] ({})", m.unit, vals.len())
            };
            let worse = worsening(quartiles(va).1, quartiles(vb).1, &m.better);
            println!(
                "{workload:<13} {:<13} {:>40} {:>40} {:>+7.1}%  {v:?} (bound {:.0}%)",
                m.name,
                show(va),
                show(vb),
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_respects_direction_and_bound() {
        let a = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(verdict(&a, &[111.0, 112.0, 110.0, 111.0], "lower", 0.10), Verdict::Regression);
        assert_eq!(verdict(&a, &[109.0, 108.0, 110.0, 109.0], "lower", 0.10), Verdict::Within);
        assert_eq!(verdict(&a, &[85.0, 86.0, 84.0, 85.0], "lower", 0.10), Verdict::Improved);
        assert_eq!(verdict(&a, &[85.0, 86.0, 84.0, 85.0], "higher", 0.10), Verdict::Regression);
        let noisy = [50.0, 150.0, 100.0, 100.0];
        assert_eq!(verdict(&noisy, &[105.0; 4], "lower", 0.10), Verdict::Unresolved);
    }

    #[test]
    fn worsening_is_positive_when_worse() {
        assert!((worsening(10.0, 11.0, "lower") - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, "higher") + 0.1).abs() < 1e-12);
    }
}
