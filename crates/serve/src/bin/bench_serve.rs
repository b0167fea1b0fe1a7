//! `bench_serve` — load generator for the alignment service.
//!
//! Self-contained: trains a tiny SDEA model on a synthetic dataset
//! in-process, serves it on an ephemeral loopback port, then fires
//! closed-loop client threads at it and reports client-observed latency
//! (p50/p99) and throughput (QPS) per concurrency level to
//! `results/BENCH_serve.json` (`results/BENCH_serve_smoke.json` with
//! `--smoke`, so a smoke run never overwrites the full one).
//!
//! Closed-loop means each client thread sends its next request only after
//! the previous response lands, so concurrency = in-flight requests and
//! the batcher's coalescing window is what turns concurrency into larger
//! embed batches — visible as `serve.batch_size` in `/metrics`.
//!
//! Flags: `--smoke` (fewer requests, CI-friendly), `--requests N`
//! (per-thread request count), `--levels a,b,...` (concurrency levels).
//! An unknown argument, or a malformed or missing value for `--requests`
//! or `--levels`, exits 2 naming it, before the fixture trains.

#![forbid(unsafe_code)]

use sdea_obs::json::Json;
use sdea_serve::{http, BatchConfig, ServeState, Server};
use std::path::Path;
use std::process::exit;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (smoke, per_thread, levels) = match load_shape(&args) {
        Ok(shape) => shape,
        Err(msg) => {
            eprintln!("bench_serve: {msg}");
            exit(2);
        }
    };

    eprintln!("bench_serve: training tiny fixture model...");
    let (state, queries) = build_fixture();
    let server = match Server::bind("127.0.0.1:0", state, &BatchConfig::from_env()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_serve: cannot bind: {e}");
            exit(1);
        }
    };
    let (addr, shutdown) = match (server.local_addr(), server.shutdown_handle()) {
        (Ok(a), Ok(h)) => (a.to_string(), h),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_serve: cannot resolve bound address: {e}");
            exit(1);
        }
    };
    // lint: serve-spawn — the server under test runs beside the clients.
    let server_thread = std::thread::spawn(move || server.run());

    let mut level_reports: Vec<Json> = Vec::new();
    for &concurrency in &levels {
        let r = run_level(&addr, &queries, concurrency, per_thread);
        eprintln!(
            "bench_serve: c={concurrency} p50 {:.2}ms p99 {:.2}ms {:.0} qps ({} ok / {} err)",
            r.p50_ms, r.p99_ms, r.qps, r.ok, r.errors
        );
        level_reports.push(Json::obj(vec![
            ("concurrency", Json::Num(concurrency as f64)),
            ("requests", Json::Num(r.ok as f64)),
            ("errors", Json::Num(r.errors as f64)),
            ("p50_ms", Json::Num(r.p50_ms)),
            ("p99_ms", Json::Num(r.p99_ms)),
            ("qps", Json::Num(r.qps)),
        ]));
    }

    let _ = http::request(&addr, "POST", "/admin/shutdown", "");
    shutdown.shutdown();
    let _ = server_thread.join();

    let report = Json::obj(vec![
        ("bench", Json::str("serve")),
        ("smoke", Json::Bool(smoke)),
        ("requests_per_thread", Json::Num(per_thread as f64)),
        ("levels", Json::Arr(level_reports)),
    ]);
    let out = Path::new("results").join(if smoke {
        "BENCH_serve_smoke.json"
    } else {
        "BENCH_serve.json"
    });
    if let Err(e) = std::fs::create_dir_all("results") {
        eprintln!("bench_serve: cannot create results/: {e}");
        exit(1);
    }
    if let Err(e) = sdea_obs::fsio::atomic_write(&out, report.encode().as_bytes()) {
        eprintln!("bench_serve: cannot write {}: {e}", out.display());
        exit(1);
    }
    println!("wrote {}", out.display());
}

/// `(smoke, requests per thread, concurrency levels)` from the command
/// line: `--smoke`, and `--requests` and `--levels` each parsed strictly.
/// Any other argument is an error naming it.
fn load_shape(args: &[String]) -> Result<(bool, usize, Vec<usize>), String> {
    use sdea_obs::env::{check_parse, flag, parse_flags};
    let flags = parse_flags(args, &["--requests", "--levels"], &["--smoke"])?;
    let smoke = flag(&flags, "--smoke").is_some();
    let per_thread =
        check_parse::<usize>("--requests", flag(&flags, "--requests"), "a request count")?
            .unwrap_or(if smoke { 20 } else { 200 });
    let Some(raw) = flag(&flags, "--levels") else {
        return Ok((smoke, per_thread, vec![1, 4]));
    };
    let expected = "comma-separated positive concurrency levels";
    let levels = raw
        .split(',')
        .map(|level| match check_parse::<usize>("--levels", Some(level), expected)? {
            Some(c) if c > 0 => Ok(c),
            _ => Err(format!("invalid --levels={raw:?}: expected {expected}")),
        })
        .collect::<Result<_, String>>()?;
    Ok((smoke, per_thread, levels))
}

/// Trains the unit-test-sized model on a synthetic DBP15K-style dataset
/// and returns serving state plus query texts sampled from KG1.
fn build_fixture() -> (ServeState, Vec<String>) {
    let profile = sdea_synth::DatasetProfile::dbp15k_zh_en(60, 2022);
    let ds = sdea_synth::generate(&profile);
    let mut rng = sdea_tensor::Rng::seed_from_u64(2022);
    let split = ds.seeds.split_paper(&mut rng);
    let mut corpus: Vec<String> = ds.kg1().attr_triples().iter().map(|t| t.value.clone()).collect();
    corpus.extend(ds.kg2().attr_triples().iter().map(|t| t.value.clone()));
    let cfg = sdea_core::SdeaConfig { seed: 2022, ..sdea_core::SdeaConfig::test_tiny() };
    let model = match (sdea_core::SdeaPipeline {
        kg1: ds.kg1(),
        kg2: ds.kg2(),
        split: &split,
        corpus: &corpus,
        cfg,
        variant: sdea_core::rel_module::RelVariant::Full,
    })
    .try_run()
    {
        Ok(m) => m,
        Err(e) => {
            eprintln!("bench_serve: fixture training failed: {e}");
            exit(1);
        }
    };
    let Some(encoder) = model.attr_module else {
        eprintln!("bench_serve: fixture run produced no encoder");
        exit(1);
    };
    let retriever = sdea_index::ExactRetriever::new(&model.h_a2);
    let names: Vec<String> = (0..ds.kg2().num_entities())
        .map(|i| ds.kg2().entity_name(sdea_kg::EntityId(i as u32)).to_string())
        .collect();
    let queries: Vec<String> = corpus.iter().take(64).cloned().collect();
    let state =
        ServeState { model: Arc::new(sdea_serve::ModelState { encoder, retriever }), names };
    (state, queries)
}

struct LevelResult {
    ok: usize,
    errors: usize,
    p50_ms: f64,
    p99_ms: f64,
    qps: f64,
}

fn run_level(addr: &str, queries: &[String], concurrency: usize, per_thread: usize) -> LevelResult {
    let addr = addr.to_string();
    let started = Instant::now();
    let mut handles = Vec::new();
    for worker in 0..concurrency {
        let addr = addr.clone();
        let queries: Vec<String> = queries.to_vec();
        // lint: serve-spawn — one closed-loop client per concurrency slot.
        handles.push(std::thread::spawn(move || {
            let mut latencies_ms = Vec::with_capacity(per_thread);
            let mut errors = 0usize;
            for i in 0..per_thread {
                let q = &queries[(worker + i * concurrency) % queries.len()];
                let body = Json::obj(vec![("text", Json::str(q.as_str())), ("k", Json::Num(3.0))])
                    .encode();
                let t0 = Instant::now();
                match http::request(&addr, "POST", "/v1/align", &body) {
                    Ok((200, _)) => latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3),
                    _ => errors += 1,
                }
            }
            (latencies_ms, errors)
        }));
    }
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut errors = 0usize;
    for h in handles {
        let (l, e) = h.join().unwrap_or((Vec::new(), per_thread));
        latencies_ms.extend(l);
        errors += e;
    }
    let wall = started.elapsed().as_secs_f64();
    latencies_ms.sort_by(f64::total_cmp);
    let pct = |p: f64| -> f64 {
        if latencies_ms.is_empty() {
            return f64::NAN;
        }
        let idx = ((latencies_ms.len() as f64 - 1.0) * p).round() as usize;
        latencies_ms[idx]
    };
    LevelResult {
        ok: latencies_ms.len(),
        errors,
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
        qps: latencies_ms.len() as f64 / wall.max(1e-9),
    }
}
