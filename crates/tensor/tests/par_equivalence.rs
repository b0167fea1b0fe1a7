//! The fork-join layer's core guarantee: every parallelized kernel is
//! bit-identical at any thread budget. These tests compare budget 1 (fully
//! serial) against larger budgets on inputs large enough to cross the
//! fan-out thresholds; [`parallel`] fails a case whose parallel run stayed
//! serial.

use sdea_tensor::{fanouts_on_this_thread, with_thread_budget, CsrMatrix, Rng, Tensor};

/// Budgets exercised by the tiled-kernel suites: serial, an even split, a
/// prime that never divides the tile grid evenly, and the CI budget.
const BUDGETS: [usize; 3] = [2, 7, 8];

/// Runs `f` at `budget` (> 1) and fails unless it fanned out at least
/// once: a case under the serial cutoff would compare serial with serial.
fn parallel<R>(budget: usize, f: impl FnOnce() -> R) -> R {
    let before = fanouts_on_this_thread();
    let out = with_thread_budget(budget, f);
    assert!(fanouts_on_this_thread() > before, "nothing fanned out at budget {budget}");
    out
}

fn pair(n: usize, k: usize, m: usize, seed: u64) -> (Tensor, Tensor) {
    let mut rng = Rng::seed_from_u64(seed);
    (Tensor::rand_normal(&[n, k], 1.0, &mut rng), Tensor::rand_normal(&[k, m], 1.0, &mut rng))
}

#[test]
fn matmul_bitwise_equal_across_budgets() {
    let (a, b) = pair(257, 96, 131, 1);
    let serial = with_thread_budget(1, || a.matmul(&b));
    for budget in [2, 3, 8] {
        let par = parallel(budget, || a.matmul(&b));
        assert_eq!(serial.data(), par.data(), "budget {budget}");
    }
}

#[test]
fn matmul_t_bitwise_equal_across_budgets() {
    let mut rng = Rng::seed_from_u64(2);
    let a = Tensor::rand_normal(&[300, 64], 1.0, &mut rng);
    let b = Tensor::rand_normal(&[290, 64], 1.0, &mut rng);
    let serial = with_thread_budget(1, || a.matmul_t(&b));
    let par = parallel(8, || a.matmul_t(&b));
    assert_eq!(serial.data(), par.data());
}

#[test]
fn t_matmul_bitwise_equal_across_budgets() {
    let mut rng = Rng::seed_from_u64(3);
    let a = Tensor::rand_normal(&[64, 280], 1.0, &mut rng);
    let b = Tensor::rand_normal(&[64, 310], 1.0, &mut rng);
    let serial = with_thread_budget(1, || a.t_matmul(&b));
    let par = parallel(8, || a.t_matmul(&b));
    assert_eq!(serial.data(), par.data());
}

#[test]
fn bmm_bitwise_equal_across_budgets() {
    let mut rng = Rng::seed_from_u64(4);
    let a = Tensor::rand_normal(&[12, 80, 96], 1.0, &mut rng);
    let b = Tensor::rand_normal(&[12, 96, 64], 1.0, &mut rng);
    let serial = with_thread_budget(1, || a.bmm(&b));
    let par = parallel(8, || a.bmm(&b));
    assert_eq!(serial.data(), par.data());
}

#[test]
fn l2_normalize_rows_bitwise_equal_across_budgets() {
    let mut rng = Rng::seed_from_u64(5);
    let a = Tensor::rand_normal(&[20000, 128], 1.0, &mut rng);
    let serial = with_thread_budget(1, || a.l2_normalize_rows());
    let par = parallel(8, || a.l2_normalize_rows());
    assert_eq!(serial.data(), par.data());
}

/// The register-tiled microkernel has 4-row × 8-column full tiles plus tail
/// kernels; these shapes hit a single output column (12289×257×1), all-tail
/// 7-column panels with a 1-row tail (2053×157×7), and mixed full+tail
/// tiles at odd k (1031×131×67) at every budget, including a prime one.
/// Each is large enough to fan out: a 1×1 product never leaves one worker.
#[test]
fn tiled_matmul_family_bitwise_equal_at_odd_shapes_and_budgets() {
    for &(n, k, m, seed) in
        &[(12289usize, 257usize, 1usize, 10u64), (2053, 157, 7, 11), (1031, 131, 67, 12)]
    {
        let (a, b) = pair(n, k, m, seed);
        let mut rng = Rng::seed_from_u64(seed ^ 0xabcd);
        let bt = Tensor::rand_normal(&[m, k], 1.0, &mut rng);
        let at = Tensor::rand_normal(&[k, n], 1.0, &mut rng);
        let serial = with_thread_budget(1, || (a.matmul(&b), a.matmul_t(&bt), at.t_matmul(&b)));
        for budget in BUDGETS {
            let par = (
                parallel(budget, || a.matmul(&b)),
                parallel(budget, || a.matmul_t(&bt)),
                parallel(budget, || at.t_matmul(&b)),
            );
            assert_eq!(serial.0.data(), par.0.data(), "matmul {n}x{k}x{m} budget {budget}");
            assert_eq!(serial.1.data(), par.1.data(), "matmul_t {n}x{k}x{m} budget {budget}");
            assert_eq!(serial.2.data(), par.2.data(), "t_matmul {n}x{k}x{m} budget {budget}");
        }
    }
}

#[test]
fn matmul_bias_bitwise_equal_across_budgets() {
    let (a, b) = pair(613, 96, 77, 13);
    let mut rng = Rng::seed_from_u64(14);
    let bias = Tensor::rand_normal(&[77], 1.0, &mut rng);
    let serial = with_thread_budget(1, || a.matmul_bias(&b, &bias));
    for budget in BUDGETS {
        let par = parallel(budget, || a.matmul_bias(&b, &bias));
        assert_eq!(serial.data(), par.data(), "budget {budget}");
    }
}

#[test]
fn bmm_nt_and_bmm_tn_bitwise_equal_across_budgets() {
    let mut rng = Rng::seed_from_u64(15);
    // bmm_nt: [b,n,k] × [b,m,k] -> [b,n,m]
    let q = Tensor::rand_normal(&[12, 80, 96], 1.0, &mut rng);
    let kx = Tensor::rand_normal(&[12, 64, 96], 1.0, &mut rng);
    // bmm_tn: [b,K,N] × [b,K,M] -> [b,N,M]
    let a = Tensor::rand_normal(&[12, 96, 80], 1.0, &mut rng);
    let b = Tensor::rand_normal(&[12, 96, 64], 1.0, &mut rng);
    let serial = with_thread_budget(1, || (q.bmm_nt(&kx), a.bmm_tn(&b)));
    for budget in BUDGETS {
        let par = (parallel(budget, || q.bmm_nt(&kx)), parallel(budget, || a.bmm_tn(&b)));
        assert_eq!(serial.0.data(), par.0.data(), "bmm_nt budget {budget}");
        assert_eq!(serial.1.data(), par.1.data(), "bmm_tn budget {budget}");
    }
}

#[test]
fn sparse_matmul_dense_bitwise_equal_across_budgets() {
    let mut rng = Rng::seed_from_u64(16);
    let rows = 4000usize;
    let cols = 900usize;
    let triplets: Vec<(usize, usize, f32)> =
        (0..rows * 8).map(|_| (rng.below(rows), rng.below(cols), rng.uniform(-1.0, 1.0))).collect();
    let a = CsrMatrix::from_triplets(rows, cols, &triplets);
    let x = Tensor::rand_normal(&[cols, 64], 1.0, &mut rng);
    let serial = with_thread_budget(1, || a.matmul_dense(&x));
    for budget in BUDGETS {
        let par = parallel(budget, || a.matmul_dense(&x));
        assert_eq!(serial.data(), par.data(), "spmm budget {budget}");
    }
}

#[test]
fn backward_through_parallel_matmul_is_budget_invariant() {
    use sdea_tensor::Graph;
    let mut rng = Rng::seed_from_u64(6);
    let x = Tensor::rand_normal(&[400, 96], 1.0, &mut rng);
    let w = Tensor::rand_normal(&[96, 128], 1.0, &mut rng);
    let grads = || {
        let g = Graph::new();
        let xv = g.leaf(x.clone(), true);
        let wv = g.leaf(w.clone(), true);
        let y = g.matmul(xv, wv);
        let loss = g.sum_all(y);
        g.backward(loss);
        (g.grad(xv).unwrap().clone(), g.grad(wv).unwrap().clone())
    };
    let (gx1, gw1) = with_thread_budget(1, grads);
    let (gx8, gw8) = parallel(8, grads);
    assert_eq!(gx1.data(), gx8.data());
    assert_eq!(gw1.data(), gw8.data());
}
