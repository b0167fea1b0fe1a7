//! Thread-budget invariance of the core pipeline stages that fan out
//! through the fork-join layer: batched entity embedding, candidate
//! generation and bootstrap pair mining. Inputs are sized to fan out;
//! [`parallel`] fails a case whose parallel run stayed serial.

use sdea_core::bootstrap::mutual_nearest_pairs;
use sdea_core::{AttrModule, CandidateSet, SdeaConfig};
use sdea_kg::EntityId;
use sdea_tensor::{fanouts_on_this_thread, with_thread_budget, Rng, Tensor};

/// Runs `f` at `budget` (> 1) and fails unless it fanned out at least
/// once: a case under the serial cutoff would compare serial with serial.
fn parallel<R>(budget: usize, f: impl FnOnce() -> R) -> R {
    let before = fanouts_on_this_thread();
    let out = with_thread_budget(budget, f);
    assert!(fanouts_on_this_thread() > before, "nothing fanned out at budget {budget}");
    out
}

fn toy_corpus(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("entity epsilon{i} born {} in zeta{}", 1900 + i % 90, i % 13)).collect()
}

fn toy_module(corpus: &[String], seed: u64) -> AttrModule {
    let mut cfg = SdeaConfig::test_tiny();
    cfg.mlm_epochs = 0;
    AttrModule::build(&cfg, corpus, &mut Rng::seed_from_u64(seed))
}

#[test]
fn embed_all_bitwise_equal_across_budgets() {
    let corpus = toy_corpus(150); // > 2 batches of 64
    let module = toy_module(&corpus, 1);
    let cache = module.token_cache(&corpus);
    let serial = with_thread_budget(1, || module.embed_all(&cache, &mut Rng::seed_from_u64(9)));
    let par = parallel(8, || module.embed_all(&cache, &mut Rng::seed_from_u64(9)));
    assert_eq!(serial, par);
    assert_eq!(serial.shape(), &[150, module.config().embed_dim]);
}

/// A row's eval embedding is bitwise the same alone, next to longer and
/// shorter neighbours, and at any position of any row order, through
/// both `embed_rows` and `embed_token_rows`, at budgets 1 and 8. The rows
/// include an empty one (`[CLS]` only) and one cut at `max_seq`, and
/// their lengths vary, so batches pad to different lengths.
#[test]
fn row_embedding_is_independent_of_its_batch() {
    let corpus: Vec<String> = (0..150)
        .map(|i| {
            let words: Vec<String> =
                (0..i % 11).map(|w| format!("w{}", (i * 7 + w) % 40)).collect();
            format!("entity {} {}", i % 17, words.join(" "))
        })
        .collect();
    let module = toy_module(&corpus, 5);
    let max_seq = module.config().max_seq;
    let mut cache = module.token_cache(&corpus);
    let long: Vec<u32> = cache.iter().flatten().copied().take(3 * max_seq).collect();
    assert_eq!(long.len(), 3 * max_seq, "corpus too small for a truncated row");
    cache.push(Vec::new());
    cache.push(long);
    let (empty, truncated) = (cache.len() - 2, cache.len() - 1);
    let lens: Vec<usize> = cache.iter().map(Vec::len).collect();
    assert!(lens.iter().filter(|&&l| l > 0 && l + 1 < max_seq).count() > 100, "{lens:?}");

    let bits = |t: &Tensor, row: usize| t.row(row).iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let alone: Vec<Vec<u32>> = with_thread_budget(1, || {
        cache.iter().map(|r| bits(&module.embed_token_rows(std::slice::from_ref(r)), 0)).collect()
    });
    let mut shuffled: Vec<usize> = (0..cache.len()).collect();
    Rng::seed_from_u64(11).shuffle(&mut shuffled);
    let orders = [(0..cache.len()).collect(), (0..cache.len()).rev().collect(), shuffled];
    let check_orders = || {
        for order in &orders {
            let t = module.embed_rows(&cache, order, &mut Rng::seed_from_u64(0));
            for (pos, &r) in order.iter().enumerate() {
                assert_eq!(bits(&t, pos), alone[r], "row {r} at position {pos}");
            }
        }
    };
    with_thread_budget(1, check_orders);
    parallel(8, check_orders);
    for budget in [1, 8] {
        with_thread_budget(budget, || {
            for r in [0, 1, 7, 42, empty, truncated] {
                for other in [empty, truncated, 3] {
                    let pair = [cache[r].clone(), cache[other].clone()];
                    let t = module.embed_token_rows(&pair);
                    assert_eq!(bits(&t, 0), alone[r], "row {r} before row {other}");
                    let t = module.embed_token_rows(&[pair[1].clone(), pair[0].clone()]);
                    assert_eq!(bits(&t, 1), alone[r], "row {r} after row {other}");
                }
            }
        });
    }
}

#[test]
fn embed_all_does_not_consume_caller_rng() {
    let corpus = toy_corpus(70);
    let mut rng = Rng::seed_from_u64(2);
    let mut cfg = SdeaConfig::test_tiny();
    cfg.mlm_epochs = 0;
    let module = AttrModule::build(&cfg, &corpus, &mut rng);
    let cache = module.token_cache(&corpus);
    let mut r1 = Rng::seed_from_u64(42);
    let mut r2 = Rng::seed_from_u64(42);
    let _ = module.embed_all(&cache, &mut r1);
    assert_eq!(r1.next_u64(), r2.next_u64(), "eval embedding must not advance the RNG");
}

#[test]
fn candidate_generation_budget_invariant() {
    let mut rng = Rng::seed_from_u64(3);
    let src = Tensor::rand_normal(&[800, 32], 1.0, &mut rng);
    let tgt = Tensor::rand_normal(&[3000, 32], 1.0, &mut rng);
    let sources: Vec<EntityId> = (0..800u32).map(EntityId).collect();
    let serial = with_thread_budget(1, || CandidateSet::generate(&sources, &src, &tgt, 15));
    let par = parallel(8, || CandidateSet::generate(&sources, &src, &tgt, 15));
    for &s in &sources {
        assert_eq!(serial.of(s), par.of(s), "source {s:?}");
    }
}

#[test]
fn bootstrap_pairs_budget_invariant() {
    let mut rng = Rng::seed_from_u64(4);
    let base = Tensor::rand_normal(&[400, 24], 1.0, &mut rng);
    // Perturbed copy: plenty of confident mutual-nearest pairs plus noise.
    let noise = Tensor::rand_normal(&[400, 24], 0.05, &mut rng);
    let other = base.add(&noise);
    let serial = with_thread_budget(1, || mutual_nearest_pairs(&base, &other, 0.8));
    let par = parallel(8, || mutual_nearest_pairs(&base, &other, 0.8));
    assert_eq!(serial, par);
    assert!(!serial.is_empty(), "perturbed copies should produce confident pairs");
}
