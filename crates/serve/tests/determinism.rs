//! Batching must be invisible in the results: a query's candidate scores
//! are bitwise identical whether it was embedded alone, coalesced into
//! one batch with every other query, or raced through the batcher from
//! concurrent threads — at any thread budget.

use sdea_core::attr_module::AttrModule;
use sdea_core::SdeaConfig;
use sdea_index::{ExactRetriever, Hit, IndexConfig, IndexKind, IvfRetriever, Retriever};
use sdea_serve::{BatchConfig, Batcher, ModelState};
use sdea_tensor::par::with_thread_budget;
use sdea_tensor::Rng;
use std::sync::Arc;
use std::time::Duration;

/// Which serving stack a fixture builds; every variant must be equally
/// batch-invisible.
enum Stack {
    /// Exact scan.
    Exact,
    /// Quantized IVF — the backend whose rescore pool is sized from `k`.
    QuantizedIvf,
}

fn fixture_with(stack: Stack) -> (Arc<ModelState>, Vec<String>) {
    let corpus: Vec<String> = (0..24)
        .map(|i| format!("city ville{i} population {} founded {}", 1000 * i, 1800 + i))
        .collect();
    let mut rng = Rng::seed_from_u64(42);
    let mut cfg = SdeaConfig::test_tiny();
    cfg.mlm_epochs = 0;
    let encoder = AttrModule::build(&cfg, &corpus, &mut rng);
    // Index the embeddings of the first 16 texts as the "KG2 table".
    let table = encoder.embed_batch(&corpus[..16]);
    let retriever: Box<dyn Retriever> = match stack {
        Stack::QuantizedIvf => Box::new(IvfRetriever::build(
            &table,
            &IndexConfig { kind: IndexKind::Ivf, nlist: 4, nprobe: 2, quantize: true },
        )),
        Stack::Exact => Box::new(ExactRetriever::new(&table)),
    };
    let queries: Vec<String> = corpus[16..].to_vec();
    (Arc::new(ModelState { encoder, retriever }), queries)
}

fn fixture() -> (Arc<ModelState>, Vec<String>) {
    fixture_with(Stack::Exact)
}

/// Ground truth: embed all queries in one direct call and search once.
fn direct(state: &ModelState, queries: &[String], k: usize) -> Vec<Vec<Hit>> {
    state.retriever.search(&state.encoder.embed_batch(queries), k)
}

/// Pushes every query through a batcher configured to coalesce them all.
fn via_one_batch(state: &Arc<ModelState>, queries: &[String], k: usize) -> Vec<Vec<Hit>> {
    let cfg = BatchConfig {
        window: Duration::from_millis(200),
        max_batch: queries.len().max(1),
        request_timeout: Duration::from_secs(30),
    };
    let batcher = Arc::new(Batcher::new(state.clone(), &cfg));
    let handles: Vec<_> = queries
        .iter()
        .map(|q| {
            let batcher = batcher.clone();
            let tokens = state.encoder.tokenize_query(q);
            std::thread::spawn(move || batcher.submit(tokens, k).expect("no timeout in test"))
        })
        .collect();
    handles.into_iter().map(|h| h.join().expect("client thread ok")).collect()
}

/// One query per batch: window zero, batch cap one.
fn via_sequential(state: &Arc<ModelState>, queries: &[String], k: usize) -> Vec<Vec<Hit>> {
    let cfg = BatchConfig {
        window: Duration::from_micros(0),
        max_batch: 1,
        request_timeout: Duration::from_secs(30),
    };
    let batcher = Batcher::new(state.clone(), &cfg);
    queries
        .iter()
        .map(|q| batcher.submit(state.encoder.tokenize_query(q), k).expect("no timeout in test"))
        .collect()
}

fn assert_bitwise_equal(a: &[Vec<Hit>], b: &[Vec<Hit>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: query count");
    for (qi, (ra, rb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ra.len(), rb.len(), "{what}: hit count for query {qi}");
        for ((ia, sa), (ib, sb)) in ra.iter().zip(rb) {
            assert_eq!(ia, ib, "{what}: index for query {qi}");
            assert_eq!(sa.to_bits(), sb.to_bits(), "{what}: score bits for query {qi}");
        }
    }
}

fn check_at_budget(budget: usize) {
    with_thread_budget(budget, || {
        let (state, queries) = fixture();
        let k = 4;
        let expected = direct(&state, &queries, k);
        let sequential = via_sequential(&state, &queries, k);
        assert_bitwise_equal(&sequential, &expected, "sequential vs direct");
        let batched = via_one_batch(&state, &queries, k);
        assert_bitwise_equal(&batched, &expected, "coalesced vs direct");
    });
}

#[test]
fn batching_is_bitwise_invisible_single_thread() {
    check_at_budget(1);
}

#[test]
fn batching_is_bitwise_invisible_eight_threads() {
    check_at_budget(8);
}

/// Regression (quantized IVF): the backend sizes its exact-rescore pool
/// from `k`, so answering a mixed-k batch with one max-k search and
/// truncating per request is NOT bitwise faithful — a k=1 request could
/// see different hits batched vs alone. The worker's per-distinct-k
/// sub-searches must make every mixed-k batched answer bitwise equal to
/// the same request running sequentially, at any thread budget.
#[test]
fn mixed_k_quantized_batches_match_sequential_bitwise() {
    for budget in [1usize, 8] {
        with_thread_budget(budget, || {
            let (state, queries) = fixture_with(Stack::QuantizedIvf);
            let ks: Vec<usize> =
                [1usize, 3, 5, 2].iter().cycle().take(queries.len()).copied().collect();
            // Sequential reference: each request in its own batch.
            let cfg = BatchConfig {
                window: Duration::from_micros(0),
                max_batch: 1,
                request_timeout: Duration::from_secs(30),
            };
            let batcher = Batcher::new(state.clone(), &cfg);
            let expected: Vec<Vec<Hit>> = queries
                .iter()
                .zip(&ks)
                .map(|(q, &k)| {
                    batcher.submit(state.encoder.tokenize_query(q), k).expect("no timeout")
                })
                .collect();
            drop(batcher);
            // Concurrent: all requests coalesced into one mixed-k batch.
            let cfg = BatchConfig {
                window: Duration::from_millis(200),
                max_batch: queries.len(),
                request_timeout: Duration::from_secs(30),
            };
            let batcher = Arc::new(Batcher::new(state.clone(), &cfg));
            let handles: Vec<_> = queries
                .iter()
                .zip(&ks)
                .map(|(q, &k)| {
                    let batcher = batcher.clone();
                    let tokens = state.encoder.tokenize_query(q);
                    std::thread::spawn(move || batcher.submit(tokens, k).expect("no timeout"))
                })
                .collect();
            let got: Vec<Vec<Hit>> =
                handles.into_iter().map(|h| h.join().expect("client thread ok")).collect();
            for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
                assert_eq!(g.len(), ks[i].min(state.retriever.len()), "hit count for query {i}");
                assert_bitwise_equal(
                    std::slice::from_ref(g),
                    std::slice::from_ref(e),
                    &format!("mixed-k batch, query {i} (k={}, threads={budget})", ks[i]),
                );
            }
        });
    }
}

/// Mixed-k batches truncate per request without changing scores.
#[test]
fn per_request_k_is_honored_within_one_batch() {
    let (state, queries) = fixture();
    let cfg = BatchConfig {
        window: Duration::from_millis(200),
        max_batch: 8,
        request_timeout: Duration::from_secs(30),
    };
    let batcher = Arc::new(Batcher::new(state.clone(), &cfg));
    let ks = [1usize, 3, 5];
    let handles: Vec<_> = queries
        .iter()
        .zip(ks.iter().cycle())
        .map(|(q, &k)| {
            let batcher = batcher.clone();
            let tokens = state.encoder.tokenize_query(q);
            std::thread::spawn(move || (k, batcher.submit(tokens, k).expect("no timeout")))
        })
        .collect();
    let expected = direct(&state, &queries, 5);
    for (i, h) in handles.into_iter().enumerate() {
        let (k, hits) = h.join().expect("client thread ok");
        assert_eq!(hits.len(), k);
        assert_bitwise_equal(
            std::slice::from_ref(&hits),
            std::slice::from_ref(&expected[i][..k].to_vec()),
            "truncated batch",
        );
    }
}
