//! `sdea_serve` — run or talk to the alignment service.
//!
//! Subcommands:
//!
//! * `serve <dir> <model.sdt> <encoder.sdqe> [--addr HOST:PORT]
//!   [--port-file F]` — load the model and serve until
//!   `POST /admin/shutdown`. `--addr` defaults to `127.0.0.1:7878`;
//!   port `0` picks an ephemeral port, and `--port-file` writes the
//!   actual port (for scripted callers).
//! * `query <addr> <text> [--k K]` — one alignment query, printed as
//!   `rank. name score` lines (the JSON body goes to stdout with `--raw`).
//! * `shutdown <addr>` — graceful remote shutdown.
//!
//! Arguments after a subcommand's positionals must be its own flags: an
//! unknown argument, or a flag missing its value, exits 2 naming it
//! before anything is loaded or sent.
//!
//! Batching knobs come from the environment (`SDEA_BATCH_WINDOW_US`,
//! `SDEA_MAX_BATCH`, `SDEA_REQUEST_TIMEOUT_MS`), and the thread budget
//! from `SDEA_THREADS`; malformed values abort startup with a diagnostic
//! rather than being silently ignored.

#![forbid(unsafe_code)]

use sdea_obs::env::{flag, parse_flags};
use sdea_serve::http;
use sdea_serve::{BatchConfig, ServeState, Server};
use std::path::Path;
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(|s| s.as_str()) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("shutdown") => cmd_shutdown(&args[1..]),
        _ => {
            eprintln!(
                "usage: sdea_serve <serve|query|shutdown> ...\n\
                 \n  sdea_serve serve <dir> <model.sdt> <encoder.sdqe> [--addr HOST:PORT]\
                 \n             [--port-file F]\
                 \n  sdea_serve query <addr> <text> [--k K] [--raw]\
                 \n  sdea_serve shutdown <addr>"
            );
            2
        }
    };
    exit(code);
}

fn cmd_serve(args: &[String]) -> i32 {
    const USAGE: &str =
        "usage: sdea_serve serve <dir> <model.sdt> <encoder.sdqe> [--addr HOST:PORT] \
         [--port-file F]";
    let [dir, model_path, encoder_path, rest @ ..] = args else {
        eprintln!("{USAGE}");
        return 2;
    };
    let flags = match parse_flags(rest, &["--addr", "--port-file"], &[]) {
        Ok(f) => f,
        Err(msg) => {
            eprintln!("sdea_serve serve: {msg}\n{USAGE}");
            return 2;
        }
    };
    let addr = flag(&flags, "--addr").unwrap_or("127.0.0.1:7878");
    let cfg = BatchConfig::from_env();
    // Resolve the thread budget eagerly: `SDEA_THREADS` is otherwise parsed
    // lazily on the first parallel region, which for a server would mean
    // dying on the first request instead of at startup.
    let threads = sdea_tensor::max_threads();
    let state = match ServeState::load(
        Path::new(dir),
        Path::new(model_path),
        Path::new(encoder_path),
        None,
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot load model state: {e}");
            return 1;
        }
    };
    let server = match Server::bind(addr, state, &cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return 1;
        }
    };
    let local = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cannot resolve bound address: {e}");
            return 1;
        }
    };
    if let Some(port_file) = flag(&flags, "--port-file") {
        if let Err(e) = sdea_obs::fsio::atomic_write(port_file, local.port().to_string().as_bytes())
        {
            eprintln!("cannot write port file {port_file}: {e}");
            return 1;
        }
    }
    eprintln!("sdea_serve listening on {local} ({threads} threads)");
    match server.run() {
        Ok(()) => {
            eprintln!("sdea_serve: drained and stopped");
            0
        }
        Err(e) => {
            eprintln!("server error: {e}");
            1
        }
    }
}

fn cmd_query(args: &[String]) -> i32 {
    const USAGE: &str = "usage: sdea_serve query <addr> <text> [--k K] [--raw]";
    let [addr, text, rest @ ..] = args else {
        eprintln!("{USAGE}");
        return 2;
    };
    let flags = match parse_flags(rest, &["--k"], &["--raw"]) {
        Ok(f) => f,
        Err(msg) => {
            eprintln!("sdea_serve query: {msg}\n{USAGE}");
            return 2;
        }
    };
    let k = match sdea_obs::env::check_parse::<usize>(
        "--k",
        flag(&flags, "--k"),
        "a non-negative integer",
    ) {
        Ok(k) => k.unwrap_or(5),
        Err(msg) => {
            eprintln!("sdea_serve: {msg}");
            return 2;
        }
    };
    let body = sdea_obs::json::Json::obj(vec![
        ("text", sdea_obs::json::Json::str(text.as_str())),
        ("k", sdea_obs::json::Json::Num(k as f64)),
    ])
    .encode();
    let (status, response) = match http::request(addr, "POST", "/v1/align", &body) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("request failed: {e}");
            return 1;
        }
    };
    if status != 200 {
        eprintln!("server returned {status}: {response}");
        return 1;
    }
    if flag(&flags, "--raw").is_some() {
        println!("{response}");
        return 0;
    }
    let parsed = match sdea_obs::json::Json::parse(&response) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bad response JSON: {e}");
            return 1;
        }
    };
    let candidates = parsed.get("candidates").and_then(|v| v.as_array()).unwrap_or(&[]);
    for (rank, c) in candidates.iter().enumerate() {
        let name = c.get("name").and_then(|v| v.as_str()).unwrap_or("?");
        let score = c.get("score").and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
        println!("{}. {name} {score:+.4}", rank + 1);
    }
    0
}

fn cmd_shutdown(args: &[String]) -> i32 {
    const USAGE: &str = "usage: sdea_serve shutdown <addr>";
    let [addr, rest @ ..] = args else {
        eprintln!("{USAGE}");
        return 2;
    };
    if let Err(msg) = parse_flags(rest, &[], &[]) {
        eprintln!("sdea_serve shutdown: {msg}\n{USAGE}");
        return 2;
    }
    match http::request(addr, "POST", "/admin/shutdown", "") {
        Ok((200, _)) => 0,
        Ok((status, body)) => {
            eprintln!("server returned {status}: {body}");
            1
        }
        Err(e) => {
            eprintln!("request failed: {e}");
            1
        }
    }
}
