//! End-to-end exercise of the HTTP surface: health, alignment queries,
//! input validation, metrics, and graceful shutdown — against a real
//! listener on an ephemeral loopback port.

use sdea_core::attr_module::AttrModule;
use sdea_core::SdeaConfig;
use sdea_obs::json::Json;
use sdea_serve::{http, BatchConfig, ModelState, ServeState, Server};
use sdea_tensor::Rng;
use std::sync::Arc;
use std::time::Duration;

fn serve_state() -> (ServeState, Vec<String>) {
    let corpus: Vec<String> =
        (0..12).map(|i| format!("museum halle{i} opened {} items {}", 1900 + i, 500 * i)).collect();
    let mut rng = Rng::seed_from_u64(9);
    let mut cfg = SdeaConfig::test_tiny();
    cfg.mlm_epochs = 0;
    let encoder = AttrModule::build(&cfg, &corpus, &mut rng);
    let table = encoder.embed_batch(&corpus);
    let retriever: Box<dyn sdea_index::Retriever> =
        Box::new(sdea_index::ExactRetriever::new(&table));
    let names: Vec<String> = (0..corpus.len()).map(|i| format!("kg2_entity_{i}")).collect();
    let state = ServeState { model: Arc::new(ModelState { encoder, retriever }), names };
    (state, corpus)
}

type Running = (String, sdea_serve::ShutdownHandle, std::thread::JoinHandle<std::io::Result<()>>);

fn start() -> Running {
    start_with_timeout(Duration::from_secs(10))
}

fn start_with_timeout(request_timeout: Duration) -> Running {
    let (state, _) = serve_state();
    let cfg = BatchConfig { window: Duration::from_micros(200), max_batch: 8, request_timeout };
    let server = Server::bind("127.0.0.1:0", state, &cfg).expect("bind ephemeral");
    let addr = server.local_addr().expect("bound").to_string();
    let shutdown = server.shutdown_handle().expect("bound");
    let thread = std::thread::spawn(move || server.run());
    (addr, shutdown, thread)
}

#[test]
fn full_request_cycle() {
    let (addr, shutdown, thread) = start();

    let (status, body) = http::request(&addr, "GET", "/healthz", "").expect("healthz");
    assert_eq!(status, 200);
    assert!(body.contains("ok"), "{body}");

    // A self-query: the served top-1 for an indexed text is that text's
    // own row (cosine 1 with itself).
    let query = Json::obj(vec![
        ("text", Json::str("museum halle3 opened 1903 items 1500")),
        ("k", Json::Num(3.0)),
    ])
    .encode();
    let (status, body) = http::request(&addr, "POST", "/v1/align", &query).expect("align");
    assert_eq!(status, 200, "{body}");
    let parsed = Json::parse(&body).expect("response is JSON");
    let candidates = parsed.get("candidates").and_then(|v| v.as_array()).expect("candidates");
    assert_eq!(candidates.len(), 3);
    assert_eq!(candidates[0].get("index").and_then(|v| v.as_f64()), Some(3.0));
    assert_eq!(candidates[0].get("name").and_then(|v| v.as_str()), Some("kg2_entity_3"));
    let top_score = candidates[0].get("score").and_then(|v| v.as_f64()).expect("score");
    assert!((top_score - 1.0).abs() < 1e-5, "self-similarity ~1, got {top_score}");

    // Validation: bad JSON, missing field, bad k, wrong method, 404.
    let (status, _) = http::request(&addr, "POST", "/v1/align", "{nope").expect("send");
    assert_eq!(status, 400);
    let (status, _) = http::request(&addr, "POST", "/v1/align", "{\"k\": 2}").expect("send");
    assert_eq!(status, 400);
    let (status, _) =
        http::request(&addr, "POST", "/v1/align", "{\"text\": \"x\", \"k\": 0}").expect("send");
    assert_eq!(status, 400);
    let (status, _) = http::request(&addr, "GET", "/v1/align", "").expect("send");
    assert_eq!(status, 405);
    let (status, _) = http::request(&addr, "GET", "/nothing", "").expect("send");
    assert_eq!(status, 404);

    // Metrics reflect the traffic above.
    let (status, body) = http::request(&addr, "GET", "/metrics", "").expect("metrics");
    assert_eq!(status, 200);
    let metrics = Json::parse(&body).expect("metrics JSON");
    let requests = metrics
        .get("counters")
        .and_then(|c| c.get("serve.requests"))
        .and_then(|v| v.as_f64())
        .expect("serve.requests counter");
    assert!(requests >= 7.0, "saw {requests} requests");

    // Graceful shutdown over HTTP; run() returns and the port closes.
    let (status, _) = http::request(&addr, "POST", "/admin/shutdown", "").expect("shutdown");
    assert_eq!(status, 200);
    thread.join().expect("server thread").expect("clean run");
    drop(shutdown);
}

#[test]
fn oversized_bodies_are_rejected() {
    let (addr, shutdown, thread) = start();
    let huge = "x".repeat(http::MAX_BODY_BYTES + 1);
    let (status, _) = http::request(&addr, "POST", "/v1/align", &huge).expect("send");
    assert_eq!(status, 413);
    shutdown.shutdown();
    thread.join().expect("server thread").expect("clean run");
}

/// A client that connects and sends nothing, or sends less body than its
/// `Content-Length`, gets a 408 once a read has waited the request timeout
/// (counted as a bad request), and an idle connection does not hold up
/// the drain after shutdown.
#[test]
fn stalled_clients_time_out_and_do_not_block_shutdown() {
    use std::io::{Read, Write};
    let timeout = Duration::from_millis(300);
    let (addr, shutdown, thread) = start_with_timeout(timeout);
    // Client-side deadlines turn a server that never answers into a
    // failure instead of a hung test.
    let response = |stream: &mut std::net::TcpStream| {
        stream.set_read_timeout(Some(timeout * 10)).expect("client read timeout");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("server answers, then closes");
        raw
    };
    let bad_requests = || {
        let (_, body) = http::request(&addr, "GET", "/metrics", "").expect("metrics");
        let metrics = Json::parse(&body).expect("metrics JSON");
        let counters = metrics.get("counters").cloned().expect("counters");
        counters.get("serve.bad_requests").and_then(|v| v.as_f64()).unwrap_or(0.0)
    };
    let before = bad_requests();

    let mut idle = std::net::TcpStream::connect(&addr).expect("connect");
    assert!(response(&mut idle).starts_with("HTTP/1.1 408 "));
    let mut short = std::net::TcpStream::connect(&addr).expect("connect");
    short
        .write_all(b"POST /v1/align HTTP/1.1\r\nContent-Length: 40\r\n\r\n{\"text\"")
        .expect("send a partial body");
    assert!(response(&mut short).starts_with("HTTP/1.1 408 "));
    assert!(bad_requests() >= before + 2.0, "timed-out reads count as bad requests");

    // An idle connection is accepted before shutdown (the health check
    // behind it is answered, so the accept loop has passed it); `run()`
    // must still return within about one timeout.
    let _held_open = std::net::TcpStream::connect(&addr).expect("connect");
    let (status, _) = http::request(&addr, "GET", "/healthz", "").expect("healthz");
    assert_eq!(status, 200);
    let stopped = std::time::Instant::now();
    shutdown.shutdown();
    while !thread.is_finished() && stopped.elapsed() < timeout * 10 {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(thread.is_finished(), "run() still draining {:?} after shutdown", stopped.elapsed());
    thread.join().expect("server thread").expect("clean run");
}
