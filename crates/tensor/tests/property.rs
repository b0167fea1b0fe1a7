//! Property-based tests for the tensor/autograd engine.

use proptest::prelude::*;
use sdea_tensor::{kernels, with_thread_budget, CsrMatrix, Graph, Rng, Tensor};
use std::sync::Arc;

fn tensor_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-3.0f32..3.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec(v, &[rows, cols]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (A·B)·C == A·(B·C) within float tolerance.
    #[test]
    fn matmul_is_associative(
        a in tensor_strategy(3, 4),
        b in tensor_strategy(4, 5),
        c in tensor_strategy(5, 2),
    ) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// A·(B + C) == A·B + A·C.
    #[test]
    fn matmul_distributes_over_add(
        a in tensor_strategy(3, 4),
        b in tensor_strategy(4, 3),
        c in tensor_strategy(4, 3),
    ) {
        let left = a.matmul(&b.add(&c));
        let right = a.matmul(&b).add(&a.matmul(&c));
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// (A·B)ᵀ == Bᵀ·Aᵀ.
    #[test]
    fn transpose_reverses_product(
        a in tensor_strategy(3, 4),
        b in tensor_strategy(4, 2),
    ) {
        let left = a.matmul(&b).transpose2();
        let right = b.transpose2().matmul(&a.transpose2());
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// Softmax output is a probability distribution for any input.
    #[test]
    fn softmax_is_distribution(t in tensor_strategy(4, 6)) {
        let s = t.softmax_lastdim();
        for r in 0..4 {
            let row = s.row(r);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
        }
    }

    /// Autograd gradient of sum(x ⊙ w) wrt x equals w exactly.
    #[test]
    fn grad_of_linear_form_is_weight(
        x in tensor_strategy(3, 5),
        w in tensor_strategy(3, 5),
    ) {
        let g = Graph::new();
        let xv = g.leaf(x, true);
        let wv = g.constant(w.clone());
        let loss = g.sum_all(g.mul(xv, wv));
        g.backward(loss);
        let grad = g.grad(xv).unwrap();
        for (a, b) in grad.data().iter().zip(w.data()) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }

    /// Backward through matmul: analytic == central finite differences.
    #[test]
    fn matmul_grad_matches_numeric(seed in 0u64..10_000) {
        let mut rng = Rng::seed_from_u64(seed);
        let x0 = Tensor::rand_normal(&[2, 3], 0.7, &mut rng);
        let w = Tensor::rand_normal(&[3, 2], 0.7, &mut rng);
        let f = |t: &Tensor| -> f32 {
            let g = Graph::new();
            let xv = g.leaf(t.clone(), false);
            let wv = g.constant(w.clone());
            let y = g.matmul(xv, wv);
            g.value_cloned(g.sum_all(g.square(y))).item()
        };
        let g = Graph::new();
        let xv = g.leaf(x0.clone(), true);
        let wv = g.constant(w.clone());
        let y = g.matmul(xv, wv);
        let loss = g.sum_all(g.square(y));
        g.backward(loss);
        let analytic = g.grad(xv).unwrap();
        for i in 0..x0.len() {
            let mut plus = x0.clone();
            plus.data_mut()[i] += 1e-3;
            let mut minus = x0.clone();
            minus.data_mut()[i] -= 1e-3;
            let numeric = (f(&plus) - f(&minus)) / 2e-3;
            let a = analytic.data()[i];
            prop_assert!(
                (a - numeric).abs() <= 2e-2 * (1.0 + a.abs().max(numeric.abs())),
                "grad[{}]: analytic {} vs numeric {}", i, a, numeric
            );
        }
    }

    /// spmm equals dense matmul for random sparse matrices.
    #[test]
    fn spmm_matches_dense(
        entries in prop::collection::vec((0usize..4, 0usize..5, -2.0f32..2.0), 0..15),
        x in tensor_strategy(5, 3),
    ) {
        let csr = CsrMatrix::from_triplets(4, 5, &entries);
        let sparse = csr.matmul_dense(&x);
        // dense reference
        let mut dense = Tensor::zeros(&[4, 5]);
        for &(r, c, v) in &entries {
            dense.row_mut(r)[c] += v;
        }
        let expected = dense.matmul(&x);
        for (a, b) in sparse.data().iter().zip(expected.data()) {
            prop_assert!((a - b).abs() < 1e-3);
        }
    }

    /// spmm backward: gradient of sum(A·X) wrt X is Aᵀ·1.
    #[test]
    fn spmm_grad_is_transpose(
        entries in prop::collection::vec((0usize..4, 0usize..5, -2.0f32..2.0), 1..12),
    ) {
        let csr = Arc::new(CsrMatrix::from_triplets(4, 5, &entries));
        let g = Graph::new();
        let x = g.leaf(Tensor::ones(&[5, 2]), true);
        let y = g.spmm(Arc::clone(&csr), x);
        let loss = g.sum_all(y);
        g.backward(loss);
        let grad = g.grad(x).unwrap();
        let expected = csr.t_matmul_dense(&Tensor::ones(&[4, 2]));
        for (a, b) in grad.data().iter().zip(expected.data()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    /// l2-normalized rows have unit norm (or zero).
    #[test]
    fn l2_normalize_rows_property(t in tensor_strategy(4, 6)) {
        let n = t.l2_normalize_rows();
        for r in 0..4 {
            let norm: f32 = n.row(r).iter().map(|&v| v * v).sum::<f32>().sqrt();
            prop_assert!(norm < 1.0 + 1e-4);
            // Either a unit row or an all-zero row (which normalizes to zero).
            prop_assert!(!(1e-6..=0.99).contains(&norm), "norm {}", norm);
        }
    }

    /// The register-tiled `matmul` equals the naive single-accumulator
    /// reference kernel EXACTLY (bit-for-bit, not within tolerance) at
    /// thread budget 1, for arbitrary shapes including empty inner dims.
    #[test]
    fn tiled_matmul_matches_reference_exactly(
        n in 1usize..24, k in 0usize..20, m in 1usize..40, seed in 0u64..10_000,
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let a = Tensor::rand_normal(&[n, k], 1.0, &mut rng);
        let b = Tensor::rand_normal(&[k, m], 1.0, &mut rng);
        let tiled = with_thread_budget(1, || a.matmul(&b));
        let mut expect = vec![0.0f32; n * m];
        kernels::reference::matmul_into(a.data(), b.data(), &mut expect, n, k, m);
        prop_assert_eq!(tiled.data(), &expect[..]);
    }

    /// Same exactness for the transposed variants `A·Bᵀ` and `Aᵀ·B`.
    #[test]
    fn tiled_transposed_matmuls_match_reference_exactly(
        n in 1usize..20, k in 1usize..20, m in 1usize..36, seed in 0u64..10_000,
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let a = Tensor::rand_normal(&[n, k], 1.0, &mut rng);
        let bt = Tensor::rand_normal(&[m, k], 1.0, &mut rng);
        let at = Tensor::rand_normal(&[k, n], 1.0, &mut rng);
        let b = Tensor::rand_normal(&[k, m], 1.0, &mut rng);
        let (got_nt, got_tn) = with_thread_budget(1, || (a.matmul_t(&bt), at.t_matmul(&b)));
        let mut expect = vec![0.0f32; n * m];
        kernels::reference::matmul_t_into(a.data(), bt.data(), &mut expect, n, k, m);
        prop_assert_eq!(got_nt.data(), &expect[..]);
        kernels::reference::t_matmul_into(at.data(), b.data(), &mut expect, n, k, m);
        prop_assert_eq!(got_tn.data(), &expect[..]);
    }

    /// Serialization round-trips arbitrary tensors bit-exactly.
    #[test]
    fn serialize_round_trip(t in tensor_strategy(3, 7)) {
        let mut buf = Vec::new();
        sdea_tensor::serialize::write_tensor(&mut buf, &t);
        let back = sdea_tensor::serialize::read_tensor(&mut &buf[..]).unwrap();
        prop_assert_eq!(back, t);
    }
}
