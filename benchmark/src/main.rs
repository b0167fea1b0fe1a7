//! `sdea-benchmark`: the repository benchmark.
//!
//! ```text
//! sdea-benchmark [run|trace] --workload <name> [--seed <u64>] [--seconds <s>] [--trace 0|1] [--smoke]
//! sdea-benchmark --smoke                  # every workload, short, same checks
//! sdea-benchmark compare <dirA> <dirB>
//! ```
//!
//! `run` (or `--trace 0`) measures the end-to-end metrics with the
//! program's instrumentation off; `trace` (or `--trace 1`) adds a second,
//! traced phase and reports the per-layer metrics. The last line on
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. A full record of the run, with its provenance, goes to
//! `benchmark/out/`. The exit code is 0 only when every correctness check
//! held. See `benchmark/README.md`.

mod align;
mod client;
mod compare;
mod inputs;
mod layers;
mod metrics;
mod phase;
mod serve;
mod stats;
mod trace;
mod train;

use metrics::{assemble, Outcome, END_TO_END, PER_LAYER};
use phase::{Ctx, Phase};
use sdea_obs::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::exit;

/// Worker threads of the program's fork-join layer: the two cores of the
/// machine the baseline was measured on, pinned so results do not depend
/// on where the benchmark runs.
const THREADS: usize = 2;
const DEFAULT_SEED: u64 = 2022;
/// Matches `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;
const SMOKE_SECONDS: f64 = 2.0;
/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["train", "serve-entity", "serve-value", "align-bulk"];

/// What a workload hands back: its set-up time, the untraced phase, the
/// traced phase when asked for, per-layer values it measured outside the
/// phases, and checks made outside the phases.
pub struct Report {
    pub setup_s: f64,
    pub untraced: Phase,
    pub traced: Option<Phase>,
    pub layer: BTreeMap<&'static str, f64>,
    pub extra: Outcome,
}

/// The repository root (the directory holding `benchmark/`).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

enum Cmd {
    Run(RunArgs),
    Compare(PathBuf, PathBuf),
}

const USAGE: &str = "usage: sdea-benchmark [run|trace] \
     --workload <train|serve-entity|serve-value|align-bulk> \
     [--seed <u64>] [--seconds <s>] [--trace 0|1] [--smoke]\n       \
     sdea-benchmark --smoke\n       sdea-benchmark compare <dirA> <dirB>";

fn parse(args: &[String]) -> Result<Cmd, String> {
    let mut rest = args;
    let mut run =
        RunArgs { workload: None, seed: DEFAULT_SEED, seconds: None, trace: false, smoke: false };
    match rest.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = rest else { return Err("compare takes two directories".into()) };
            return Ok(Cmd::Compare(a.into(), b.into()));
        }
        Some("run") => rest = &rest[1..],
        Some("trace") => {
            run.trace = true;
            rest = &rest[1..];
        }
        _ => {}
    }
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}"));
                }
                run.workload = Some(w.clone());
            }
            "--seed" => run.seed = value()?.parse().map_err(|_| "--seed takes a u64")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                run.seconds = Some(s);
            }
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => run.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if run.workload.is_none() && !run.smoke {
        return Err("--workload is required".into());
    }
    Ok(Cmd::Run(run))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse(&args) {
        Err(msg) => {
            eprintln!("sdea-benchmark: {msg}\n{USAGE}");
            2
        }
        Ok(Cmd::Compare(a, b)) => {
            match compare::load_spec(&repo_root().join("BENCHMARK.json"))
                .and_then(|spec| compare::run(&spec, &a, &b))
            {
                Ok(regressed) => i32::from(regressed),
                Err(e) => {
                    eprintln!("sdea-benchmark: {e}");
                    2
                }
            }
        }
        Ok(Cmd::Run(run)) => {
            refuse_sdea_environment();
            match &run.workload {
                Some(w) => run_workload(w, &run),
                None => smoke_all(&run),
            }
        }
    };
    exit(code);
}

/// The program reads `SDEA_*` variables (threads, observability, memory
/// counting, fault injection, batching) that would silently change what
/// is measured; the benchmark sets those in code and refuses to start
/// when any is present.
fn refuse_sdea_environment() {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SDEA_"))
        .collect();
    if !set.is_empty() {
        eprintln!("sdea-benchmark: refusing to run with {} set; unset it", set.join(", "));
        exit(2);
    }
}

/// `--smoke` without a workload: each workload in its own process, traced,
/// at smoke size.
fn smoke_all(run: &RunArgs) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("sdea-benchmark: cannot find own executable: {e}");
            return 1;
        }
    };
    let mut code = 0;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["trace", "--smoke", "--workload", w, "--seed", &run.seed.to_string()])
            .status();
        match status {
            Ok(s) if s.success() => eprintln!("sdea-benchmark: smoke {w}: ok"),
            Ok(s) => {
                eprintln!("sdea-benchmark: smoke {w}: failed ({s})");
                code = 1;
            }
            Err(e) => {
                eprintln!("sdea-benchmark: smoke {w}: cannot start: {e}");
                code = 1;
            }
        }
    }
    code
}

/// Removes the run's private directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_workload(workload: &str, run: &RunArgs) -> i32 {
    sdea_tensor::set_thread_budget(THREADS);
    sdea_obs::set_enabled(false);
    sdea_obs::mem::set_counting(true);
    let mode = if run.trace { "trace" } else { "run" };
    let prov = layers::Provenance::collect(THREADS);
    eprintln!(
        "sdea-benchmark: {workload} seed {} mode {mode}{} | rev {} | {} | nproc {} | threads {}",
        run.seed,
        if run.smoke { " smoke" } else { "" },
        prov.git_rev,
        prov.cpu_model,
        prov.nproc,
        prov.threads
    );
    let tmp = format!("{workload}-{}-{}", run.seed, std::process::id());
    let scratch = Scratch(out_dir().join("tmp").join(tmp));
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("sdea-benchmark: cannot create {}: {e}", scratch.0.display());
        return 1;
    }
    let ctx = Ctx {
        seed: run.seed,
        seconds: run.seconds.unwrap_or(if run.smoke { SMOKE_SECONDS } else { DEFAULT_SECONDS }),
        trace: run.trace,
        sizes: inputs::Sizes::new(run.smoke),
        scratch: scratch.0.clone(),
    };
    let report = match workload {
        "train" => train::run(&ctx),
        "serve-entity" => serve::run(&ctx, serve::Query::Entity),
        "serve-value" => serve::run(&ctx, serve::Query::Value),
        "align-bulk" => align::run(&ctx),
        _ => unreachable!("workload names are validated when parsed"),
    };
    drop(scratch);
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sdea-benchmark: {workload}: {e}");
            return 1;
        }
    };

    let mut totals = Outcome::default();
    totals.absorb(&report.untraced.out);
    totals.absorb(&report.extra);
    let values = match &report.traced {
        None => {
            let mut e2e = report.untraced.out.e2e.clone();
            e2e.insert("setup_s", report.setup_s);
            assemble(END_TO_END, &e2e, false)
        }
        Some(traced) => {
            totals.absorb(&traced.out);
            let mut layer = traced.layers.clone();
            layer.extend(&report.layer);
            let base = report.untraced.out.primary_s;
            if base > 0.0 {
                layer.insert("bench.trace_overhead_frac", traced.out.primary_s / base - 1.0);
            }
            assemble(PER_LAYER, &layer, true)
        }
    };
    let values = match values {
        Ok(v) => v,
        Err(e) => {
            eprintln!("sdea-benchmark: {workload}: {e}");
            return 1;
        }
    };
    for (n, u, v) in &values {
        eprintln!("  {n:<28} {v:>14.6} {u}");
    }
    let metrics_json = Json::Obj(
        values
            .iter()
            .map(|(n, u, v)| {
                (n.to_string(), Json::obj(vec![("value", Json::Num(*v)), ("unit", Json::str(*u))]))
            })
            .collect(),
    );
    let correct = totals.correct();
    write_outputs(workload, run, mode, &prov, &totals, &metrics_json);
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(totals.attempted as f64)),
        ("failed", Json::Num(totals.failed as f64)),
        ("metrics", metrics_json),
    ]);
    println!("{}", result.encode());
    i32::from(!correct)
}

/// Writes the run record (and, traced, the spans) under `benchmark/out/`.
/// Smoke runs write only `*-smoke` files. A write failure is reported but
/// does not change the result.
fn write_outputs(
    workload: &str,
    run: &RunArgs,
    mode: &str,
    prov: &layers::Provenance,
    totals: &Outcome,
    metrics: &Json,
) {
    let smoke = if run.smoke { "-smoke" } else { "" };
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let meta = |kind: &str| {
        vec![
            ("kind", Json::str(kind)),
            ("workload", Json::str(workload)),
            ("seed", Json::Num(run.seed as f64)),
            ("mode", Json::str(mode)),
            ("smoke", Json::Bool(run.smoke)),
            ("git_rev", Json::str(prov.git_rev.as_str())),
            ("cpu_model", Json::str(prov.cpu_model.as_str())),
            ("nproc", Json::Num(prov.nproc as f64)),
            ("threads", Json::Num(prov.threads as f64)),
        ]
    };
    let mut record = meta("result");
    record.push(("correct", Json::Bool(totals.correct())));
    record.push(("attempted", Json::Num(totals.attempted as f64)));
    record.push(("failed", Json::Num(totals.failed as f64)));
    let checks = totals
        .checks
        .iter()
        .map(|(n, ok)| Json::obj(vec![("check", Json::str(n.as_str())), ("ok", Json::Bool(*ok))]));
    record.push(("checks", Json::Arr(checks.collect())));
    record.push(("metrics", metrics.clone()));
    let dir = out_dir();
    let mut files = vec![(
        dir.join(format!("{workload}-{}-{mode}-{stamp}{smoke}.json", run.seed)),
        Json::obj(record).encode() + "\n",
    )];
    if run.trace {
        let header = Json::obj(meta("meta")).encode() + "\n";
        let path = dir.join(format!("{workload}-{}{smoke}.trace.jsonl", run.seed));
        files.push((path, header + &trace::to_jsonl(&trace::drain())));
    }
    for (path, body) in files {
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
            eprintln!("sdea-benchmark: cannot write {}: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric name as the benchmark contract allows it.
    fn valid_name(name: &str) -> bool {
        name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// A unit as the benchmark contract allows it.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn name_rules_reject_what_the_contract_forbids() {
        assert!(valid_name("p50_ms") && valid_name("tensor.pool_hit_ratio"));
        assert!(!valid_name("_x") && !valid_name("a b") && !valid_name(&"x".repeat(65)));
        assert!(valid_unit("rows/s") && valid_unit("%") && !valid_unit("") && !valid_unit("a b"));
    }

    fn spec() -> compare::Spec {
        compare::load_spec(&repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        let spec = spec();
        let declared = |d: &[compare::Declared]| -> Vec<(String, String, String)> {
            d.iter().map(|m| (m.name.clone(), m.unit.clone(), m.better.clone())).collect()
        };
        let emitted = |d: &[metrics::Decl]| -> Vec<(String, String, String)> {
            d.iter().map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string())).collect()
        };
        assert_eq!(declared(&spec.end_to_end), emitted(END_TO_END));
        assert_eq!(declared(&spec.per_layer), emitted(PER_LAYER));
        assert_eq!(spec.workloads, WORKLOADS);
    }

    #[test]
    fn metric_names_units_and_caps_follow_the_contract() {
        let spec = spec();
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let mut seen = std::collections::BTreeSet::new();
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(valid_name(&m.name), "bad name {}", m.name);
            assert!(valid_unit(&m.unit), "bad unit {}", m.unit);
            assert!(m.better == "lower" || m.better == "higher", "{}: better", m.name);
            assert!(seen.insert(m.name.clone()), "{} declared twice", m.name);
        }
        for m in &spec.end_to_end {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s declared");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        let max = spec.end_to_end.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(max), "setup_s carries the largest bound");
    }

    /// The benchmark builds with the root's release profile, so its
    /// numbers are the numbers of the shipped build.
    #[test]
    fn release_profile_matches_the_root_manifest() {
        let section = |path: PathBuf| -> Vec<String> {
            let text = std::fs::read_to_string(&path).expect("manifest readable");
            text.lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(|l| l.trim().to_string())
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect()
        };
        let ours = section(Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml"));
        assert!(!ours.is_empty());
        assert_eq!(ours, section(repo_root().join("Cargo.toml")));
    }

    #[test]
    fn arguments_parse_in_both_forms() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let Ok(Cmd::Run(r)) = parse(&args("--workload train --seed 7 --seconds 15 --trace 1"))
        else {
            panic!("the BENCHMARK.json form parses")
        };
        assert_eq!(
            (r.workload.as_deref(), r.seed, r.seconds, r.trace),
            (Some("train"), 7, Some(15.0), true)
        );
        let Ok(Cmd::Run(r)) = parse(&args("run --workload align-bulk")) else {
            panic!("the run form parses")
        };
        assert_eq!((r.seed, r.trace, r.smoke), (DEFAULT_SEED, false, false));
        assert!(matches!(
            parse(&args("trace --smoke")),
            Ok(Cmd::Run(RunArgs { trace: true, smoke: true, .. }))
        ));
        assert!(matches!(parse(&args("compare a b")), Ok(Cmd::Compare(..))));
        for bad in ["--workload nope", "--trace 2", "--seed x", "", "--seconds 0 --workload train"]
        {
            assert!(parse(&args(bad)).is_err(), "{bad:?} must be refused");
        }
    }
}
