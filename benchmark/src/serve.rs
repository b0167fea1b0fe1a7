//! `serve-entity` and `serve-value`: the alignment service under load.
//!
//! The fixture model is saved and started the way `sdea_serve` starts
//! (`ServeState::load` + `Server::bind`) on a loopback port in this
//! process. An open loop then sends seeded Poisson arrivals and times each
//! request from when it was due, so a stall also charges the requests it
//! delays; a closed loop of two back-to-back connections then measures
//! the highest rate the server sustains. Load never exceeds two sender
//! threads and two connections.
//!
//! The two workloads differ only in the query text: a whole entity
//! description (long; truncated at the encoder's `max_seq`) or one
//! attribute value (short). An encoder that pads every row to `max_seq`
//! does the same work for both.

use crate::client;
use crate::inputs::{train_fixture, Fixture};
use crate::metrics::Outcome;
use crate::phase::{self, repeat_setup, run_phase, Ctx};
use crate::stats::{self, derive_seed, median, poisson_schedule, tail, SplitMix64};
use crate::trace::{self, timed};
use crate::Report;
use sdea_core::AttrSequencer;
use sdea_index::Retriever;
use sdea_serve::{BatchConfig, ServeState, Server};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Candidates requested per query.
const K: usize = 10;
/// Open-loop arrival rate (requests per second), about a sixth of what
/// two closed-loop connections sustain: low enough that queueing stays
/// short and latency tracks the service time instead of amplifying every
/// slow spell of a shared machine.
const RATE: f64 = 30.0;
/// Share of the phase given to the open loop; the closed loop gets the rest.
const OPEN_SHARE: f64 = 0.8;
/// Client threads, and so connections, of each loop.
const SENDERS: usize = 2;
/// Queries whose served answer is compared bitwise with the offline path.
const CHECKED_QUERIES: usize = 64;
/// Chance is about 1/180 and the fixture answers 0.15-0.37 of queries
/// right; this floor only catches a broken serving path.
const MIN_HITS1: f64 = 0.03;

/// What each request asks for.
pub enum Query {
    /// One KG1 entity's full attribute sequence.
    Entity,
    /// One attribute value of a KG1 entity.
    Value,
}

struct Request {
    body: String,
    text: String,
    /// The KG2 row of the queried entity's counterpart.
    gold: usize,
}

struct Files {
    data: PathBuf,
    model: PathBuf,
    encoder: PathBuf,
}

pub fn run(ctx: &Ctx, query: Query) -> Result<Report, String> {
    let mut layer = BTreeMap::new();
    let fixture = train_fixture(&ctx.sizes)?;
    layer.insert("synth.generate_s", fixture.generate_s);
    layer.insert("core.fixture_train_s", fixture.train_s);
    let files = Files {
        data: ctx.scratch.join("data"),
        model: ctx.scratch.join("model.sdt"),
        encoder: ctx.scratch.join("encoder.sdqe"),
    };
    let (saved, persist_s) = timed("io.persist", || persist(&fixture, &files));
    saved.map_err(|e| format!("cannot save the fixture: {e}"))?;
    layer.insert("io.persist_s", persist_s);

    let open_n = (RATE * ctx.seconds * OPEN_SHARE).round().max(1.0) as usize;
    let requests = sample_requests(&fixture, query, ctx.seed, open_n);
    let mut load_times = Vec::new();
    let (server, setup_s) = repeat_setup(|| {
        let (state, load_s) = timed("serve.state_load", || {
            ServeState::load(&files.data, &files.model, &files.encoder, None)
        });
        load_times.push(load_s);
        let state = state.map_err(|e| format!("cannot load the served model: {e}"))?;
        timed("serve.bind", || Server::bind("127.0.0.1:0", state, &BatchConfig::default()))
            .0
            .map_err(|e| format!("cannot bind: {e}"))
    })?;
    layer.insert("io.load_s", median(&load_times));
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let stop = server.shutdown_handle().map_err(|e| e.to_string())?;

    std::thread::scope(|s| {
        let running = s.spawn(move || server.run());
        let result = measure(ctx, &addr, &requests, &files, &mut layer);
        stop.shutdown();
        match running.join() {
            Ok(Ok(())) => result,
            Ok(Err(e)) => Err(format!("server failed: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    })
    .map(|(untraced, traced, extra)| Report { setup_s, untraced, traced, layer, extra })
}

type Measured = (phase::Phase, Option<phase::Phase>, Outcome);

fn measure(
    ctx: &Ctx,
    addr: &SocketAddr,
    requests: &[Request],
    files: &Files,
    layer: &mut BTreeMap<&'static str, f64>,
) -> Result<Measured, String> {
    let untraced = run_phase(false, || load_phase(ctx, addr, requests, &mut 0.0));
    let mut extra = Outcome::default();
    let encoder = sdea_core::encoder_io::load_encoder(&files.encoder)
        .map_err(|e| format!("cannot reload the encoder: {e}"))?;
    let table = sdea_core::model_io::load_model(&files.model)
        .map_err(|e| format!("cannot reload the model: {e}"))?
        .h_a2;
    check_against_offline(ctx.seed, addr, requests, &encoder, &table, &mut extra);
    let traced = if ctx.trace {
        let mut client_rt = 0.0;
        let traced = run_phase(true, || load_phase(ctx, addr, requests, &mut client_rt));
        let inside: f64 = ["serve.queue_wait_ms", "serve.embed_ms", "serve.retrieve_ms"]
            .iter()
            .map(|n| traced.layers.get(n).copied().unwrap_or(0.0))
            .sum();
        layer.insert("serve.unaccounted_ms", client_rt * 1e3 - inside);
        let texts: Vec<String> = requests.iter().map(|r| r.text.clone()).collect();
        let (rows, tokenize_s) = timed("text.tokenize_queries", || {
            texts.iter().map(|t| encoder.tokenize_query(t)).collect::<Vec<_>>()
        });
        let (p50, pad) = phase::text_stats(&rows, encoder.config().max_seq);
        layer.insert("text.tokenize_s", tokenize_s);
        layer.insert("text.tokens_p50", p50);
        layer.insert("text.pad_frac", pad);
        phase::probes(&encoder, &texts, &table, layer);
        Some(traced)
    } else {
        None
    };
    Ok((untraced, traced, extra))
}

/// Saves what `sdea align --out --encoder-out` and `sdea generate` leave
/// behind for the server: KG2 (for names), the tables and the encoder.
fn persist(fixture: &Fixture, files: &Files) -> std::io::Result<()> {
    std::fs::create_dir_all(&files.data)?;
    sdea_kg::io::save_kg(
        fixture.ds.kg2(),
        &files.data.join("rel_triples_2"),
        &files.data.join("attr_triples_2"),
    )?;
    sdea_core::model_io::save_model(&fixture.model, &files.model)?;
    sdea_core::encoder_io::save_encoder(&fixture.encoder, &files.encoder)
}

/// `n` requests for linked KG1 entities picked uniformly with replacement
/// (each entity recurs about `n / links` times).
fn sample_requests(fixture: &Fixture, query: Query, seed: u64, n: usize) -> Vec<Request> {
    let kg1 = fixture.ds.kg1();
    let pairs = &fixture.ds.seeds.pairs;
    let mut order_rng = sdea_tensor::Rng::seed_from_u64(derive_seed(seed, 11));
    let sequencer = AttrSequencer::new(kg1, &mut order_rng);
    let mut rng = SplitMix64::new(seed, 12);
    (0..n)
        .map(|_| {
            let (e1, e2) = pairs[rng.below(pairs.len())];
            let text = match query {
                Query::Entity => sequencer.sequence(e1).to_string(),
                Query::Value => {
                    let values: Vec<&str> =
                        kg1.attr_triples_of(e1).map(|t| t.value.as_str()).collect();
                    if values.is_empty() {
                        String::new()
                    } else {
                        values[rng.below(values.len())].to_string()
                    }
                }
            };
            Request { body: client::align_body(&text, K), text, gold: e2.0 as usize }
        })
        .collect()
}

/// One answered request: when it was due, sent and answered, and what came
/// back.
struct Answer {
    index: usize,
    due: Instant,
    sent: Instant,
    done: Instant,
    result: Result<Vec<(usize, f32)>, String>,
}

/// The open loop, then the closed loop. `client_rt` receives the mean
/// client round trip (send to answer) over both loops, in seconds, to set
/// against the server's mean queue, embed and retrieve times, which cover
/// the same requests.
fn load_phase(ctx: &Ctx, addr: &SocketAddr, requests: &[Request], client_rt: &mut f64) -> Outcome {
    let mut out = Outcome::default();
    let schedule = poisson_schedule(ctx.seed, RATE, requests.len());
    let open = open_loop(addr, requests, &schedule);
    let closed_s = ctx.seconds * (1.0 - OPEN_SHARE);
    let closed = closed_loop(addr, requests, closed_s);

    let mut latency_ms = Vec::new();
    let mut late_ms = Vec::new();
    let mut rt_s = Vec::new();
    let (mut hits, mut rr, mut answered) = (0usize, 0.0, 0usize);
    for a in &open {
        late_ms.push((a.sent - a.due).as_secs_f64() * 1e3);
        match &a.result {
            Ok(cands) if cands.len() == K => {
                latency_ms.push((a.done - a.due).as_secs_f64() * 1e3);
                rt_s.push((a.done - a.sent).as_secs_f64());
                let gold = requests[a.index].gold;
                let pos = cands.iter().position(|&(row, _)| row == gold);
                hits += usize::from(pos == Some(0));
                rr += pos.map_or(0.0, |p| 1.0 / (p + 1) as f64);
                answered += 1;
            }
            Ok(cands) => {
                out.failed += 1;
                eprintln!("sdea-benchmark: request {} got {} candidates", a.index, cands.len());
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("sdea-benchmark: request {} failed: {e}", a.index);
            }
        }
    }
    out.attempted = (open.len() + closed.round_trips.len() + closed.failed) as u64;
    out.failed += closed.failed as u64;
    out.check("serve: every request answered 200 with k candidates", out.failed == 0);
    if answered > 0 {
        let hits1 = hits as f64 / answered as f64;
        out.check(format!("serve: Hits@1 {hits1:.3} >= {MIN_HITS1}"), hits1 >= MIN_HITS1);
        out.e2e.insert("p50_ms", median(&latency_ms));
        out.e2e.insert("tail_ms", tail(&latency_ms));
        out.layer.insert("quality.hits1", hits1);
        out.layer.insert("quality.mrr", rr / answered as f64);
        out.primary_s = median(&latency_ms) / 1e3;
    }
    rt_s.extend(&closed.round_trips);
    *client_rt = rt_s.iter().sum::<f64>() / rt_s.len().max(1) as f64;
    out.e2e.insert("rows_per_s", closed.round_trips.len() as f64 / closed.wall.max(1e-9));
    out.layer.insert("bench.gen_late_p99_ms", stats::quantile(&stats::sorted(&late_ms), 0.99));
    out
}

/// Sends every request at its due time (offsets in seconds) from
/// [`SENDERS`] threads; a request whose due time passes while both threads
/// are busy is sent late, and its latency still counts from the due time.
fn open_loop(addr: &SocketAddr, requests: &[Request], schedule: &[f64]) -> Vec<Answer> {
    // A short lead so the first due time is not already in the past.
    let t0 = Instant::now() + Duration::from_millis(5);
    let next = AtomicUsize::new(0);
    let answers = Mutex::new(Vec::with_capacity(requests.len()));
    std::thread::scope(|s| {
        for _ in 0..SENDERS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= requests.len() {
                    break;
                }
                let due = t0 + Duration::from_secs_f64(schedule[i]);
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                let result = client::align(addr, &requests[i].body);
                let done = Instant::now();
                let span = trace::record("bench.request", None, Some(i as u64), due, done);
                trace::record("bench.gen_late", Some(span), Some(i as u64), due, sent);
                trace::record("client.roundtrip", Some(span), Some(i as u64), sent, done);
                answers.lock().expect("sender panicked").push(Answer {
                    index: i,
                    due,
                    sent,
                    done,
                    result,
                });
            });
        }
    });
    let mut answers = answers.into_inner().expect("sender panicked");
    answers.sort_by_key(|a| a.index);
    answers
}

/// What the closed loop saw: the round trip of every answered request (in
/// seconds), the failures, and the wall time from start to last answer.
struct Closed {
    round_trips: Vec<f64>,
    failed: usize,
    wall: f64,
}

/// [`SENDERS`] connections sending back to back for `seconds`.
fn closed_loop(addr: &SocketAddr, requests: &[Request], seconds: f64) -> Closed {
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let senders: Vec<(Vec<f64>, usize, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SENDERS)
            .map(|_| {
                s.spawn(|| {
                    let (mut round_trips, mut failed, mut last) = (Vec::new(), 0, start);
                    while start.elapsed().as_secs_f64() < seconds {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let sent = Instant::now();
                        let result = client::align(addr, &requests[i % requests.len()].body);
                        last = Instant::now();
                        trace::record(
                            "bench.request",
                            None,
                            Some((requests.len() + i) as u64),
                            sent,
                            last,
                        );
                        match result {
                            Ok(c) if c.len() == K => round_trips.push((last - sent).as_secs_f64()),
                            _ => failed += 1,
                        }
                    }
                    (round_trips, failed, last)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("closed-loop sender panicked")).collect()
    });
    let last = senders.iter().map(|s| s.2).max().unwrap_or(start);
    Closed {
        round_trips: senders.iter().flat_map(|s| s.0.iter().copied()).collect(),
        failed: senders.iter().map(|s| s.1).sum(),
        wall: (last - start).as_secs_f64(),
    }
}

/// Served answers must equal the offline path bit for bit: the saved
/// encoder's `embed_token_rows` plus an exact search of the saved table.
fn check_against_offline(
    seed: u64,
    addr: &SocketAddr,
    requests: &[Request],
    encoder: &sdea_core::AttrModule,
    table: &sdea_tensor::Tensor,
    out: &mut Outcome,
) {
    let retriever = sdea_index::ExactRetriever::new(table);
    let mut rng = SplitMix64::new(seed, 13);
    let mut mismatched = 0;
    for _ in 0..CHECKED_QUERIES {
        let r = &requests[rng.below(requests.len())];
        out.attempted += 1;
        let served = match client::align(addr, &r.body) {
            Ok(c) => c,
            Err(e) => {
                out.failed += 1;
                eprintln!("sdea-benchmark: check request failed: {e}");
                continue;
            }
        };
        let row = encoder.tokenize_query(&r.text);
        let emb = encoder.embed_token_rows(std::slice::from_ref(&row));
        let offline = retriever.search(&emb, K).remove(0);
        let bits =
            |v: &[(usize, f32)]| v.iter().map(|&(i, s)| (i, s.to_bits())).collect::<Vec<_>>();
        if bits(&served) != bits(&offline) {
            mismatched += 1;
        }
    }
    out.check(
        format!("serve: {CHECKED_QUERIES} served answers equal the offline encoder + exact search bitwise ({mismatched} differ)"),
        mismatched == 0 && out.failed == 0,
    );
}
