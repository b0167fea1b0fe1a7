//! The HTTP server: accept loop, routing, and graceful shutdown.
//!
//! Thread-per-connection over [`std::net::TcpListener`]: connections are
//! short-lived (one request each), the expensive work is already
//! serialized through the [`Batcher`] worker, and the alternative — a
//! hand-rolled poll loop — buys nothing at loopback-service scale.
//!
//! Every accepted stream reads and writes under
//! [`BatchConfig::request_timeout`] (`SDEA_REQUEST_TIMEOUT_MS`): a client
//! that connects and goes silent, or sends less body than its
//! `Content-Length`, gets a 408 once a read waits that long, so it can
//! neither pin its connection thread nor stall shutdown.
//!
//! Shutdown (`POST /admin/shutdown` or [`ShutdownHandle::shutdown`]) is
//! graceful: the accept loop stops taking connections, every in-flight
//! request runs to completion, the batch worker drains its queue, and
//! only then does [`Server::run`] return.

use crate::batcher::{BatchConfig, Batcher, SubmitError};
use crate::http::{self, Request};
use crate::state::ServeState;
use sdea_obs::json::Json;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Hard cap on candidates per query, whatever the client asks for.
pub const MAX_K: usize = 100;

fn err_body(msg: &str) -> String {
    Json::obj(vec![("error", Json::str(msg))]).encode()
}

/// Signals a running server to stop; cloneable across threads.
#[derive(Clone)]
pub struct ShutdownHandle {
    running: Arc<AtomicBool>,
    addr: std::net::SocketAddr,
}

impl ShutdownHandle {
    /// Initiates graceful shutdown and returns immediately.
    pub fn shutdown(&self) {
        if self.running.swap(false, Ordering::SeqCst) {
            // Unblock the blocking accept() with one throwaway connection.
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
    batcher: Arc<Batcher>,
    running: Arc<AtomicBool>,
    /// (active connection count, its condvar) — the drain barrier.
    inflight: Arc<(Mutex<usize>, Condvar)>,
    /// Read and write timeout of every accepted stream.
    io_timeout: Duration,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// batch worker. The listener is live after this returns — requests
    /// queue in the OS backlog until [`run`](Server::run) is called.
    pub fn bind(addr: &str, state: ServeState, cfg: &BatchConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let batcher = Arc::new(Batcher::new(state.model.clone(), cfg));
        Ok(Server {
            listener,
            state: Arc::new(state),
            batcher,
            running: Arc::new(AtomicBool::new(true)),
            inflight: Arc::new((Mutex::new(0), Condvar::new())),
            io_timeout: cfg.request_timeout,
        })
    }

    /// The bound address (the actual port when bound with port 0).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop [`run`](Server::run) from another thread.
    pub fn shutdown_handle(&self) -> io::Result<ShutdownHandle> {
        Ok(ShutdownHandle { running: self.running.clone(), addr: self.local_addr()? })
    }

    /// Serves until shutdown, then drains in-flight requests and returns.
    pub fn run(self) -> io::Result<()> {
        let shutdown = self.shutdown_handle()?;
        for stream in self.listener.incoming() {
            if !self.running.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            sdea_obs::add("serve.connections", 1);
            // A zero timeout is rejected by the OS and leaves the stream
            // blocking, as before deadlines existed.
            let _ = stream.set_read_timeout(Some(self.io_timeout));
            let _ = stream.set_write_timeout(Some(self.io_timeout));
            {
                let (count, _) = &*self.inflight;
                *count.lock().unwrap_or_else(|e| e.into_inner()) += 1;
            }
            let state = self.state.clone();
            let batcher = self.batcher.clone();
            let inflight = self.inflight.clone();
            let shutdown = shutdown.clone();
            // lint: serve-spawn — one short-lived thread per connection.
            std::thread::spawn(move || {
                handle_connection(stream, &state, &batcher, &shutdown);
                let (count, signal) = &*inflight;
                let mut n = count.lock().unwrap_or_else(|e| e.into_inner());
                *n -= 1;
                signal.notify_all();
            });
        }
        // Drain: wait for every accepted connection to finish, then let
        // the batcher drop — which drains its queue and joins the worker.
        let (count, signal) = &*self.inflight;
        let mut n = count.lock().unwrap_or_else(|e| e.into_inner());
        while *n > 0 {
            n = signal.wait(n).unwrap_or_else(|e| e.into_inner());
        }
        Ok(())
    }
}

fn handle_connection(
    mut stream: TcpStream,
    state: &ServeState,
    batcher: &Batcher,
    shutdown: &ShutdownHandle,
) {
    let request = match http::read_request(&mut stream) {
        Ok(r) => r,
        Err(e) => {
            sdea_obs::add("serve.bad_requests", 1);
            http::write_response(&mut stream, e.status(), &err_body(&e.message()));
            return;
        }
    };
    sdea_obs::add("serve.requests", 1);
    let (status, body) = route(&request, state, batcher, shutdown);
    http::write_response(&mut stream, status, &body);
}

fn route(
    request: &Request,
    state: &ServeState,
    batcher: &Batcher,
    shutdown: &ShutdownHandle,
) -> (u16, String) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => (200, Json::obj(vec![("status", Json::str("ok"))]).encode()),
        ("GET", "/metrics") => (200, metrics_json().encode()),
        ("POST", "/v1/align") => align(request, state, batcher),
        ("POST", "/admin/shutdown") => {
            shutdown.shutdown();
            (200, Json::obj(vec![("status", Json::str("shutting down"))]).encode())
        }
        (_, "/healthz" | "/metrics" | "/v1/align" | "/admin/shutdown") => {
            (405, err_body("method not allowed"))
        }
        _ => (404, err_body("no such endpoint")),
    }
}

/// Parses the optional `"k"` field of an align request. Absent means the
/// default of 5; present means it must be a finite JSON number that is a
/// whole value `>= 1` (values above [`MAX_K`] clamp). Every invalid shape
/// — wrong type, non-finite, fractional, zero, negative — is a distinct
/// 400 diagnostic naming the field, never a silent default.
fn parse_k(parsed: &Json) -> Result<usize, String> {
    let Some(v) = parsed.get("k") else {
        return Ok(5);
    };
    let Some(f) = v.as_f64() else {
        return Err("\"k\" must be a number".into());
    };
    if !f.is_finite() {
        return Err("\"k\" must be finite".into());
    }
    if f.fract() != 0.0 {
        return Err("\"k\" must be an integer".into());
    }
    if f < 1.0 {
        return Err("\"k\" must be >= 1".into());
    }
    Ok((f as usize).min(MAX_K))
}

fn align(request: &Request, state: &ServeState, batcher: &Batcher) -> (u16, String) {
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return (400, err_body("body is not UTF-8"));
    };
    let parsed = match Json::parse(text) {
        Ok(v) => v,
        Err(e) => return (400, err_body(&format!("bad JSON: {e}"))),
    };
    let Some(query) = parsed.get("text").and_then(|v| v.as_str()) else {
        return (400, err_body("missing required string field \"text\""));
    };
    let k = match parse_k(&parsed) {
        Ok(k) => k,
        Err(msg) => return (400, err_body(&msg)),
    };
    // Tokenize here on the connection thread; the batch worker only runs
    // the model.
    let tokens = state.model.encoder.tokenize_query(query);
    match batcher.submit(tokens, k) {
        Ok(hits) => {
            sdea_obs::add("serve.align_ok", 1);
            let candidates: Vec<Json> = hits
                .into_iter()
                .map(|(row, score)| {
                    Json::obj(vec![
                        ("index", Json::Num(row as f64)),
                        ("name", Json::str(state.names[row].as_str())),
                        ("score", Json::Num(score as f64)),
                    ])
                })
                .collect();
            (200, Json::obj(vec![("candidates", Json::Arr(candidates))]).encode())
        }
        Err(SubmitError::Busy) => {
            sdea_obs::add("serve.rejected", 1);
            (503, err_body("queue full, retry later"))
        }
        Err(SubmitError::Timeout) => {
            sdea_obs::add("serve.rejected", 1);
            (503, err_body("request timed out"))
        }
    }
}

/// The observability registry as JSON: counter totals, span timings and
/// histogram summaries (which include the `serve.queue_wait` and
/// `serve.batch_size` distributions).
fn metrics_json() -> Json {
    let snap = sdea_obs::snapshot();
    let counters: Vec<(String, Json)> =
        snap.counters.iter().map(|(k, &v)| (k.clone(), Json::Num(v as f64))).collect();
    let spans: Vec<(String, Json)> = snap
        .spans
        .iter()
        .map(|(k, s)| {
            let fields = Json::obj(vec![
                ("count", Json::Num(s.count as f64)),
                ("total_secs", Json::Num(s.total_secs)),
                ("min_secs", Json::Num(s.min_secs)),
                ("max_secs", Json::Num(s.max_secs)),
            ]);
            (k.clone(), fields)
        })
        .collect();
    let histograms: Vec<(String, Json)> = snap
        .histograms
        .iter()
        .map(|(k, h)| {
            let fields = Json::obj(vec![
                ("count", Json::Num(h.count as f64)),
                ("mean", Json::Num(h.mean())),
                ("min", Json::Num(h.min)),
                ("max", Json::Num(h.max)),
            ]);
            (k.clone(), fields)
        })
        .collect();
    Json::Obj(vec![
        ("counters".to_string(), Json::Obj(counters)),
        ("spans".to_string(), Json::Obj(spans)),
        ("histograms".to_string(), Json::Obj(histograms)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k_of(body: &str) -> Result<usize, String> {
        parse_k(&Json::parse(body).expect("test body parses"))
    }

    #[test]
    fn absent_k_defaults_to_five() {
        assert_eq!(k_of(r#"{"text":"q"}"#), Ok(5));
    }

    #[test]
    fn valid_k_is_accepted_and_clamped() {
        assert_eq!(k_of(r#"{"k":1}"#), Ok(1));
        assert_eq!(k_of(r#"{"k":7}"#), Ok(7));
        assert_eq!(k_of(r#"{"k":100}"#), Ok(MAX_K));
        // Above the cap: clamp, not reject (documented API behavior).
        assert_eq!(k_of(r#"{"k":5000}"#), Ok(MAX_K));
        assert_eq!(k_of(r#"{"k":1e3}"#), Ok(MAX_K), "whole-valued exponent form is an integer");
    }

    #[test]
    fn zero_k_is_a_400_naming_the_field() {
        let err = k_of(r#"{"k":0}"#).unwrap_err();
        assert!(err.contains("\"k\""), "diagnostic must name the field: {err}");
    }

    #[test]
    fn negative_k_is_a_400_naming_the_field() {
        for body in [r#"{"k":-1}"#, r#"{"k":-100}"#, r#"{"k":-0.5}"#] {
            let err = k_of(body).unwrap_err();
            assert!(err.contains("\"k\""), "{body}: diagnostic must name the field: {err}");
        }
    }

    #[test]
    fn fractional_k_is_a_400_naming_the_field() {
        for body in [r#"{"k":1.5}"#, r#"{"k":2.0000001}"#, r#"{"k":0.9999}"#] {
            let err = k_of(body).unwrap_err();
            assert!(err.contains("\"k\""), "{body}: diagnostic must name the field: {err}");
        }
    }

    #[test]
    fn non_finite_k_is_a_400_naming_the_field() {
        // JSON has no Infinity literal, but an overflowing exponent parses
        // to one; it must be rejected as non-finite, not silently clamped
        // (inf.fract() is NaN, so the old integer guard happened to reject
        // it — this pins the behavior with an explicit diagnostic).
        for body in [r#"{"k":1e999}"#, r#"{"k":-1e999}"#] {
            let err = k_of(body).unwrap_err();
            assert!(err.contains("\"k\""), "{body}: diagnostic must name the field: {err}");
        }
    }

    #[test]
    fn non_number_k_is_a_400_naming_the_field() {
        for body in
            [r#"{"k":"5"}"#, r#"{"k":true}"#, r#"{"k":null}"#, r#"{"k":[5]}"#, r#"{"k":{}}"#]
        {
            let err = k_of(body).unwrap_err();
            assert!(err.contains("\"k\""), "{body}: diagnostic must name the field: {err}");
        }
    }
}
