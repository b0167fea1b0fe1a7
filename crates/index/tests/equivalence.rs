//! The tentpole guarantee: an [`IvfRetriever`] probing *all* clusters is
//! bitwise-identical to [`ExactRetriever`] — same hit indices, same score
//! bits — at any `SDEA_THREADS` budget, with and without the int8
//! quantized store (which is bypassed entirely at `nprobe = all`).

use sdea_index::{
    build_retriever, ExactRetriever, IndexConfig, IndexKind, IvfRetriever, Retriever,
};
use sdea_tensor::{fanouts_on_this_thread, with_thread_budget, Rng, Tensor};

fn world(n: usize, d: usize, seed: u64) -> (Tensor, Tensor) {
    // Clustered targets + perturbed queries, the aligned-entity shape the
    // index is for. A few degenerate rows keep the edge cases honest.
    let mut rng = Rng::seed_from_u64(seed);
    let centers = Tensor::rand_normal(&[7, d], 1.0, &mut rng);
    let mut tgt = Vec::with_capacity(n * d);
    let mut qry = Vec::with_capacity(n * d);
    for i in 0..n {
        let base = centers.row(i % 7);
        for &b in base {
            tgt.push(b + 0.2 * rng.normal());
            qry.push(b + 0.2 * rng.normal());
        }
    }
    for v in tgt.iter_mut().take(d) {
        *v = 0.0; // an all-zero target row
    }
    (Tensor::from_vec(tgt, &[n, d]), Tensor::from_vec(qry, &[n, d]))
}

fn assert_bitwise_equal(a: &[Vec<(usize, f32)>], b: &[Vec<(usize, f32)>], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: query count");
    for (qi, (ha, hb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ha.len(), hb.len(), "{ctx}: hit count for query {qi}");
        for (r, (&(ia, sa), &(ib, sb))) in ha.iter().zip(hb).enumerate() {
            assert_eq!(ia, ib, "{ctx}: index at rank {r} of query {qi}");
            assert_eq!(
                sa.to_bits(),
                sb.to_bits(),
                "{ctx}: score bits at rank {r} of query {qi} ({sa} vs {sb})"
            );
        }
    }
}

#[test]
fn nprobe_all_is_bitwise_identical_to_exact() {
    let (tgt, qry) = world(160, 24, 11);
    let exact = ExactRetriever::new(&tgt);
    for quantize in [false, true] {
        for budget in [1usize, 8] {
            let hits_exact = with_thread_budget(budget, || exact.search(&qry, 10));
            let cfg = IndexConfig { kind: IndexKind::Ivf, nlist: 12, nprobe: 0, quantize };
            let ivf = IvfRetriever::build(&tgt, &cfg);
            let hits_ivf = with_thread_budget(budget, || ivf.search(&qry, 10));
            let ctx = format!("quantize={quantize} budget={budget}");
            assert_bitwise_equal(&hits_exact, &hits_ivf, &ctx);
        }
    }
}

#[test]
fn nprobe_at_least_nlist_also_bypasses() {
    let (tgt, qry) = world(80, 16, 12);
    let exact = ExactRetriever::new(&tgt).search(&qry, 5);
    let cfg = IndexConfig { kind: IndexKind::Ivf, nlist: 8, nprobe: 64, quantize: true };
    let ivf = IvfRetriever::build(&tgt, &cfg).search(&qry, 5);
    assert_bitwise_equal(&exact, &ivf, "nprobe > nlist");
}

#[test]
fn results_are_thread_budget_invariant_when_probing() {
    // Approximate mode (nprobe < nlist) must still be deterministic across
    // budgets — approximation changes *what* is searched, never *when*.
    // The world is large enough for the cluster scan and the per-query
    // finish to fan out; a search that stayed serial would compare serial
    // with serial.
    let (tgt, qry) = world(1500, 32, 13);
    let cfg = IndexConfig { kind: IndexKind::Ivf, nlist: 14, nprobe: 3, quantize: true };
    let ivf = IvfRetriever::build(&tgt, &cfg);
    let h1 = with_thread_budget(1, || ivf.search(&qry, 10));
    let before = fanouts_on_this_thread();
    let h8 = with_thread_budget(8, || ivf.search(&qry, 10));
    assert!(fanouts_on_this_thread() > before, "the probing search never fanned out");
    assert_bitwise_equal(&h1, &h8, "budget 1 vs 8, nprobe=3");
}

#[test]
fn build_retriever_dispatches_on_kind() {
    let (tgt, qry) = world(60, 8, 14);
    let exact = build_retriever(&tgt, &IndexConfig::default());
    let ivf_all = build_retriever(
        &tgt,
        &IndexConfig { kind: IndexKind::Ivf, nlist: 6, nprobe: 0, quantize: false },
    );
    assert_bitwise_equal(&exact.search(&qry, 7), &ivf_all.search(&qry, 7), "boxed dispatch");
}
