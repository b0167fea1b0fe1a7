//! Thread-budget invariance of the scoring layer: cosine similarity,
//! ranking metrics and the row argsort must be bit-identical serial vs
//! parallel, and the argsort must be a complete descending order. Inputs
//! are sized to fan out; [`parallel`] fails a case whose parallel run
//! stayed serial.

use sdea_eval::{argsort_rows_desc, cosine_matrix, evaluate_ranking};
use sdea_tensor::{fanouts_on_this_thread, with_thread_budget, Rng, Tensor};

/// Runs `f` at `budget` (> 1) and fails unless it fanned out at least
/// once: a case under the serial cutoff would compare serial with serial.
fn parallel<R>(budget: usize, f: impl FnOnce() -> R) -> R {
    let before = fanouts_on_this_thread();
    let out = with_thread_budget(budget, f);
    assert!(fanouts_on_this_thread() > before, "nothing fanned out at budget {budget}");
    out
}

fn embeddings(n: usize, d: usize, seed: u64) -> Tensor {
    let mut rng = Rng::seed_from_u64(seed);
    Tensor::rand_normal(&[n, d], 1.0, &mut rng)
}

#[test]
fn cosine_matrix_bitwise_equal_across_budgets() {
    let a = embeddings(400, 48, 1);
    let b = embeddings(370, 48, 2);
    let serial = with_thread_budget(1, || cosine_matrix(&a, &b));
    for budget in [2, 8] {
        let par = parallel(budget, || cosine_matrix(&a, &b));
        assert_eq!(serial.data(), par.data(), "budget {budget}");
    }
}

#[test]
fn evaluate_ranking_bitwise_equal_across_budgets() {
    let a = embeddings(1600, 32, 3);
    let b = embeddings(1600, 32, 4);
    let sim = cosine_matrix(&a, &b);
    let gold: Vec<usize> = (0..1600).collect();
    let serial = with_thread_budget(1, || evaluate_ranking(&sim, &gold));
    let par = parallel(8, || evaluate_ranking(&sim, &gold));
    assert_eq!(serial, par);
}

#[test]
fn argsort_rows_budget_invariant_and_complete() {
    let sim = embeddings(500, 700, 9);
    let s1 = with_thread_budget(1, || argsort_rows_desc(&sim));
    let s8 = parallel(8, || argsort_rows_desc(&sim));
    assert_eq!(s1, s8);
    for (i, order) in s1.iter().enumerate() {
        assert_eq!(order.len(), 700);
        let row = sim.row(i);
        for w in order.windows(2) {
            assert!(row[w[0]] >= row[w[1]], "row {i} not descending");
        }
    }
}
