//! Thread-budget invariance of the scoring layer: cosine similarity,
//! ranking metrics and the row argsort must be bit-identical serial vs
//! parallel, and the argsort must be a complete descending order.

use sdea_eval::{argsort_rows_desc, cosine_matrix, evaluate_ranking};
use sdea_tensor::{with_thread_budget, Rng, Tensor};

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
        let par = with_thread_budget(budget, || cosine_matrix(&a, &b));
        assert_eq!(serial.data(), par.data(), "budget {budget}");
    }
}

#[test]
fn evaluate_ranking_bitwise_equal_across_budgets() {
    let a = embeddings(250, 32, 3);
    let b = embeddings(250, 32, 4);
    let sim = cosine_matrix(&a, &b);
    let gold: Vec<usize> = (0..250).collect();
    let serial = with_thread_budget(1, || evaluate_ranking(&sim, &gold));
    let par = with_thread_budget(8, || evaluate_ranking(&sim, &gold));
    assert_eq!(serial, par);
}

#[test]
fn argsort_rows_budget_invariant_and_complete() {
    let sim = embeddings(80, 140, 9);
    let s1 = with_thread_budget(1, || argsort_rows_desc(&sim));
    let s8 = with_thread_budget(8, || argsort_rows_desc(&sim));
    assert_eq!(s1, s8);
    for (i, order) in s1.iter().enumerate() {
        assert_eq!(order.len(), 140);
        let row = sim.row(i);
        for w in order.windows(2) {
            assert!(row[w[0]] >= row[w[1]], "row {i} not descending");
        }
    }
}
