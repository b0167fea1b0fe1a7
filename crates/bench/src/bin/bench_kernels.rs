//! Kernel + pipeline throughput benchmark for the tiled-matmul work.
//!
//! Measures single-thread GFLOP/s of the register-tiled matmul against the
//! pre-tiling naive kernel (`sdea_tensor::kernels::reference`) at square
//! sizes {128, 256, 512}, and single-thread GELU throughput of
//! `Graph::gelu` against the same formula through libm's `f32::tanh`;
//! optionally runs one quick-scale FR-EN pipeline at the current thread
//! budget, and writes everything — kernel numbers, stage wall times pulled
//! from the observability span registry, and final alignment metrics — to
//! `results/BENCH_pr3.json`.
//!
//! Usage: `bench_kernels [--kernels-only]`. The `--kernels-only` mode is
//! what `scripts/ci.sh` runs (seconds, not minutes); `scripts/bench_kernels.sh`
//! runs the full version including the pipeline comparison.

#![forbid(unsafe_code)]

use sdea_bench::runner::{bench_sdea_config, bench_seed, load_dataset, report_dir, run_sdea};
use sdea_core::rel_module::RelVariant;
use sdea_obs::json::Json;
use sdea_synth::DatasetProfile;
use sdea_tensor::{kernels, with_thread_budget, Graph, Rng, Tensor};
use std::time::Instant;

/// Times `f` adaptively: repeats until ~200 ms elapsed, three rounds, and
/// returns the best per-call seconds (minimum is the standard choice for
/// throughput benches — it filters scheduler noise, not real work).
fn best_secs(mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut iters = 0u32;
        let t0 = Instant::now();
        loop {
            f();
            iters += 1;
            if t0.elapsed().as_secs_f64() >= 0.2 {
                break;
            }
        }
        best = best.min(t0.elapsed().as_secs_f64() / iters as f64);
    }
    best
}

fn bench_kernels_json() -> Json {
    let mut rows = Vec::new();
    for &n in &[128usize, 256, 512] {
        let mut rng = Rng::seed_from_u64(n as u64);
        let a = Tensor::rand_normal(&[n, n], 1.0, &mut rng);
        let b = Tensor::rand_normal(&[n, n], 1.0, &mut rng);
        let flop = 2.0 * (n as f64).powi(3);
        let (ref_secs, tiled_secs) = with_thread_budget(1, || {
            let mut out = vec![0.0f32; n * n];
            let r = best_secs(|| {
                kernels::reference::matmul_into(a.data(), b.data(), &mut out, n, n, n);
                std::hint::black_box(&out);
            });
            let t = best_secs(|| {
                std::hint::black_box(a.matmul(&b));
            });
            (r, t)
        });
        let ref_gflops = flop / ref_secs / 1e9;
        let tiled_gflops = flop / tiled_secs / 1e9;
        let speedup = ref_secs / tiled_secs;
        println!(
            "matmul {n:>3}^3  reference {ref_gflops:6.2} GFLOP/s   tiled {tiled_gflops:6.2} GFLOP/s   speedup {speedup:4.2}x"
        );
        rows.push(Json::obj(vec![
            ("n", Json::Num(n as f64)),
            ("reference_secs", Json::Num(ref_secs)),
            ("tiled_secs", Json::Num(tiled_secs)),
            ("reference_gflops", Json::Num(ref_gflops)),
            ("tiled_gflops", Json::Num(tiled_gflops)),
            ("speedup", Json::Num(speedup)),
        ]));
    }
    Json::Arr(rows)
}

/// GELU as `Graph::gelu` computed it through libm's `f32::tanh`.
fn gelu_libm(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh())
}

/// Single-thread GELU throughput in elements per second: the libm formula
/// against `Graph::gelu` (forward, one 64 × 1024 feed-forward activation
/// of N(0, 2²) pre-activations). Exits 1 unless the two outputs are
/// bitwise equal, which holds where libm's `tanhf` is fdlibm's.
fn bench_gelu_json() -> Json {
    let mut rng = Rng::seed_from_u64(4);
    let x = Tensor::rand_normal(&[64, 1024], 2.0, &mut rng);
    let kernel = || {
        let g = Graph::new();
        let v = g.constant(x.clone());
        g.value_cloned(g.gelu(v))
    };
    let libm = x.map(gelu_libm);
    let bitwise = libm.data().iter().zip(kernel().data()).all(|(a, b)| a.to_bits() == b.to_bits());
    if !bitwise {
        eprintln!("gelu: Graph::gelu differs from the libm formula");
        std::process::exit(1);
    }
    let (libm_secs, kernel_secs) = with_thread_budget(1, || {
        let l = best_secs(|| {
            std::hint::black_box(x.map(gelu_libm));
        });
        let k = best_secs(|| {
            std::hint::black_box(kernel());
        });
        (l, k)
    });
    let n = x.len() as f64;
    let (libm_rate, kernel_rate) = (n / libm_secs, n / kernel_secs);
    println!(
        "gelu {n} elems  libm tanh {:6.1} Melem/s   kernel {:6.1} Melem/s   speedup {:4.2}x",
        libm_rate / 1e6,
        kernel_rate / 1e6,
        libm_secs / kernel_secs
    );
    Json::obj(vec![
        ("elements", Json::Num(n)),
        ("libm_secs", Json::Num(libm_secs)),
        ("kernel_secs", Json::Num(kernel_secs)),
        ("libm_elems_per_s", Json::Num(libm_rate)),
        ("kernel_elems_per_s", Json::Num(kernel_rate)),
        ("speedup", Json::Num(libm_secs / kernel_secs)),
    ])
}

/// The pre-optimization pipeline wall time to compare against. Prefers the
/// `SDEA_BASELINE_WALL` env var (seconds — set it to a same-machine,
/// same-arguments measurement of the previous revision, which is the only
/// fair baseline; malformed values are a hard startup error); falls back to
/// `wall_secs` scraped out of the committed calibrate run report with plain
/// string scanning (the report encoder always writes
/// `"wall_secs":<number>`).
fn baseline_wall_secs() -> Option<(f64, &'static str)> {
    if let Some(v) =
        sdea_obs::env::parse_or_exit::<f64>("SDEA_BASELINE_WALL", "a wall time in seconds")
    {
        return Some((v, "SDEA_BASELINE_WALL"));
    }
    let text =
        std::fs::read_to_string(report_dir().join("run_report_calibrate_FR-EN.json")).ok()?;
    let at = text.find("\"wall_secs\":")? + "\"wall_secs\":".len();
    let rest = &text[at..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok().map(|v| (v, "run_report_calibrate_FR-EN.json"))
}

fn bench_pipeline_json() -> Json {
    let seed = bench_seed();
    let profile = DatasetProfile::dbp15k_fr_en(300, seed);
    let t0 = Instant::now();
    let bundle = load_dataset(&profile);
    println!("dataset {} generated in {:.1}s", profile.name, t0.elapsed().as_secs_f64());
    let cfg = bench_sdea_config(seed);
    let (outcome, _model) = run_sdea(&bundle, &cfg, RelVariant::Full);
    let snap = sdea_obs::snapshot();
    let stage =
        |name: &str| Json::Num(snap.spans.get(name).map(|s| s.total_secs).unwrap_or(f64::NAN));
    println!(
        "pipeline wall {:.1}s  H@1 {:.4}  MRR {:.4}  (threads={})",
        outcome.seconds,
        outcome.metrics.hits1,
        outcome.metrics.mrr,
        sdea_tensor::max_threads()
    );
    let mut fields = vec![
        ("dataset", Json::str(profile.name)),
        ("threads", Json::Num(sdea_tensor::max_threads() as f64)),
        ("wall_secs", Json::Num(outcome.seconds)),
        ("test_hits1", Json::Num(outcome.metrics.hits1)),
        ("test_hits10", Json::Num(outcome.metrics.hits10)),
        ("test_mrr", Json::Num(outcome.metrics.mrr)),
        ("attr_stage_secs", stage("pipeline.attr_stage")),
        ("rel_stage_secs", stage("pipeline.rel_stage")),
        ("final_embed_secs", stage("pipeline.final_embed")),
    ];
    if let Some((base, source)) = baseline_wall_secs() {
        println!("baseline wall {base:.1}s ({source}) -> speedup {:.2}x", base / outcome.seconds);
        fields.push(("baseline_wall_secs", Json::Num(base)));
        fields.push(("baseline_source", Json::str(source)));
        fields.push(("speedup_vs_baseline", Json::Num(base / outcome.seconds)));
    }
    Json::obj(fields)
}

fn main() {
    let kernels_only = std::env::args().any(|a| a == "--kernels-only");
    sdea_obs::set_enabled(true);
    let mut fields = vec![
        ("bench", Json::str("bench_kernels_pr3")),
        ("kernels_single_thread", bench_kernels_json()),
        ("gelu_single_thread", bench_gelu_json()),
    ];
    if !kernels_only {
        fields.push(("pipeline_quick", bench_pipeline_json()));
    }
    let out = Json::obj(fields);
    let dir = report_dir();
    let _ = std::fs::create_dir_all(&dir);
    // The kernels-only smoke run gets its own file so it never clobbers
    // the full report's pipeline section.
    let path = dir.join(if kernels_only { "BENCH_pr3_kernels.json" } else { "BENCH_pr3.json" });
    match sdea_obs::fsio::atomic_write(&path, out.encode().as_bytes()) {
        Ok(()) => println!("bench report -> {}", path.display()),
        Err(e) => {
            eprintln!("bench report failed: {e}");
            std::process::exit(1);
        }
    }
}
