//! Request batching: the core of the serving data path.
//!
//! Concurrent `/v1/align` requests each cost one transformer forward; run
//! naively that is one tiny batch per request and the matmul kernels never
//! amortize. The [`Batcher`] funnels all requests through one bounded
//! queue into a single worker thread that coalesces whatever arrives
//! within a short window (`SDEA_BATCH_WINDOW_US`, capped at
//! `SDEA_MAX_BATCH` rows) into one `embed_token_rows` call plus one
//! exact search at the batch's largest requested `k`. Each request's row
//! is then cut to its own `k`: under the `desc_nan_last` total order with
//! ties broken by lower index, a top-`k` list is a prefix of the top-`K`
//! list for any `k ≤ K`.
//!
//! Batching is invisible in the results: the encoder pads a batch only
//! to its longest row, but a row's real positions get the same bits at
//! any padded length (padded keys take exactly zero attention weight and
//! every kernel sums in ascending order), and it pools per row. So a
//! query's embedding — and therefore its candidate scores — is bitwise
//! identical whether it was embedded alone, in a batch of 32 longer or
//! shorter rows, or interleaved with any other traffic (pinned by
//! `tests/determinism.rs`).
//!
//! Requests tokenize on their own connection thread (the cheap part) and
//! queue token rows, so the worker spends its time only on the forwards.

use crate::state::ModelState;
use sdea_index::{Hit, Retriever};
use std::sync::mpsc::{self, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bound on queued (not yet batched) requests; beyond it submissions are
/// rejected immediately with [`SubmitError::Busy`] instead of building an
/// unbounded backlog.
pub const QUEUE_DEPTH: usize = 1024;

/// Tunables of the batching layer, resolved once at startup.
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// How long the worker waits for more requests after the first one.
    pub window: Duration,
    /// Hard cap on rows per embed batch.
    pub max_batch: usize,
    /// Per-request end-to-end deadline; past it the client gets a 503.
    pub request_timeout: Duration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            window: Duration::from_micros(1000),
            max_batch: 32,
            request_timeout: Duration::from_millis(5000),
        }
    }
}

impl BatchConfig {
    /// Reads `SDEA_BATCH_WINDOW_US`, `SDEA_MAX_BATCH` and
    /// `SDEA_REQUEST_TIMEOUT_MS`. Malformed values abort startup
    /// ([`sdea_obs::env`]); unset keeps the defaults above.
    pub fn from_env() -> Self {
        let d = BatchConfig::default();
        let window = sdea_obs::env::parse_or_exit::<u64>(
            "SDEA_BATCH_WINDOW_US",
            "a batch window in microseconds",
        )
        .map_or(d.window, Duration::from_micros);
        let max_batch =
            sdea_obs::env::parse_or_exit::<usize>("SDEA_MAX_BATCH", "a positive batch size cap")
                .unwrap_or(d.max_batch);
        if max_batch == 0 {
            sdea_obs::env::die("SDEA_MAX_BATCH is 0: expected a positive batch size cap");
        }
        let request_timeout = sdea_obs::env::parse_or_exit::<u64>(
            "SDEA_REQUEST_TIMEOUT_MS",
            "a request timeout in milliseconds",
        )
        .map_or(d.request_timeout, Duration::from_millis);
        BatchConfig { window, max_batch, request_timeout }
    }
}

/// Why a submission failed; the server maps both to HTTP 503.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at [`QUEUE_DEPTH`] (or the worker is gone).
    Busy,
    /// The request sat past its deadline without a result.
    Timeout,
}

struct Job {
    tokens: Vec<u32>,
    k: usize,
    enqueued: Instant,
    reply: SyncSender<Vec<Hit>>,
}

/// Owns the batching queue and its worker thread. Dropping the batcher
/// closes the queue; the worker finishes every job already accepted
/// (graceful drain) and exits, and `drop` joins it.
pub struct Batcher {
    tx: SyncSender<Job>,
    worker: Option<std::thread::JoinHandle<()>>,
    request_timeout: Duration,
}

impl Batcher {
    /// Starts the worker over `state`.
    pub fn new(state: Arc<ModelState>, cfg: &BatchConfig) -> Batcher {
        let (tx, rx) = mpsc::sync_channel::<Job>(QUEUE_DEPTH);
        let window = cfg.window;
        let max_batch = cfg.max_batch;
        // lint: serve-spawn — the one long-lived embed/search worker.
        let worker = std::thread::spawn(move || {
            batch_loop(&state, &rx, window, max_batch);
        });
        Batcher { tx, worker: Some(worker), request_timeout: cfg.request_timeout }
    }

    /// Queues one tokenized query and blocks for its top-`k` hits, at most
    /// the configured request timeout.
    pub fn submit(&self, tokens: Vec<u32>, k: usize) -> Result<Vec<Hit>, SubmitError> {
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        let job = Job { tokens, k, enqueued: Instant::now(), reply: reply_tx };
        match self.tx.try_send(job) {
            Ok(()) => {}
            Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
                return Err(SubmitError::Busy);
            }
        }
        reply_rx.recv_timeout(self.request_timeout).map_err(|_| SubmitError::Timeout)
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        // Closing the channel is the drain signal; recv in the loop then
        // reports Disconnected once the queue is empty.
        let (dead_tx, _) = mpsc::sync_channel(1);
        self.tx = dead_tx;
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

fn batch_loop(state: &ModelState, rx: &mpsc::Receiver<Job>, window: Duration, max_batch: usize) {
    while let Ok(first) = rx.recv() {
        let deadline = Instant::now() + window;
        let mut jobs = vec![first];
        while jobs.len() < max_batch {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match rx.recv_timeout(deadline - now) {
                Ok(job) => jobs.push(job),
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        sdea_obs::add("serve.batches", 1);
        sdea_obs::add("serve.batched_queries", jobs.len() as u64);
        sdea_obs::record("serve.batch_size", jobs.len() as f64);
        for job in &jobs {
            sdea_obs::record("serve.queue_wait", job.enqueued.elapsed().as_secs_f64());
        }
        let rows: Vec<Vec<u32>> = jobs.iter_mut().map(|j| std::mem::take(&mut j.tokens)).collect();
        let emb = {
            let _span = sdea_obs::span("serve.embed");
            state.encoder.embed_token_rows(&rows)
        };
        let k_max = jobs.iter().map(|j| j.k).max().unwrap_or(0);
        let results = {
            let _span = sdea_obs::span("serve.retrieve");
            state.retriever.search(&emb, k_max)
        };
        for (job, mut row) in jobs.into_iter().zip(results) {
            row.truncate(job.k);
            // A requester that already timed out dropped its receiver;
            // that's fine, the result is simply discarded.
            let _ = job.reply.send(row);
        }
    }
}
