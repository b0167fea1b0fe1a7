//! Reverse-mode autograd tape.
//!
//! A [`Graph`] owns one training step's computation: every op appends a node
//! (value + parent ids + backward closure). [`Graph::backward`] seeds the
//! root gradient and walks the tape in reverse, calling each node's backward
//! closure to produce per-parent gradients which are accumulated.
//!
//! Model weights persist across steps in a [`crate::optim::ParamStore`];
//! [`Graph::param`] copies a parameter onto the tape and remembers the
//! binding so [`Graph::accumulate_param_grads`] can push gradients back.

use crate::fdlibm::tanhf;
use crate::optim::{ParamId, ParamStore};
use crate::pool::BufferPool;
use crate::tensor::Tensor;
use std::cell::{Cell, Ref, RefCell};
use std::rc::Rc;

/// Handle to a node on a [`Graph`] tape.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Var {
    pub(crate) id: usize,
}

/// What a backward closure sends to one parent.
pub(crate) enum Flow {
    /// Identity Jacobian: the output gradient flows to this parent
    /// element-for-element (lengths match; shapes may differ, e.g. through a
    /// reshape). [`Graph::backward`] forwards the tensor without copying
    /// whenever it can.
    Pass,
    /// An explicit gradient tensor, shaped like the parent.
    Grad(Tensor),
}

/// Backward closure: given (grad wrt output, output value, parent values),
/// return one [`Flow`] per parent.
pub(crate) type BackFn = Box<dyn Fn(&Tensor, &Tensor, &[&Tensor]) -> Vec<Flow>>;

pub(crate) struct Node {
    pub parents: Vec<usize>,
    pub backward: Option<BackFn>,
    pub requires_grad: bool,
    pub param: Option<ParamId>,
}

pub(crate) struct Inner {
    pub values: Vec<Tensor>,
    pub grads: Vec<Option<Tensor>>,
    pub nodes: Vec<Node>,
}

/// An autograd tape. Create one per forward/backward pass.
///
/// With [`Graph::with_pool`], node values and gradients are recycled through
/// a [`BufferPool`] when the graph drops, so the next step's tape reuses
/// this step's allocations.
pub struct Graph {
    pub(crate) inner: RefCell<Inner>,
    pub(crate) pool: Option<Rc<BufferPool>>,
    retain_grads: Cell<bool>,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Graph {
    fn drop(&mut self) {
        if let Some(pool) = &self.pool {
            let inner = self.inner.get_mut();
            for t in inner.values.drain(..) {
                pool.put_tensor(t);
            }
            for g in inner.grads.drain(..).flatten() {
                pool.put_tensor(g);
            }
        }
    }
}

impl Graph {
    /// An empty tape.
    pub fn new() -> Self {
        Graph {
            inner: RefCell::new(Inner { values: Vec::new(), grads: Vec::new(), nodes: Vec::new() }),
            pool: None,
            retain_grads: Cell::new(false),
        }
    }

    /// An empty tape whose allocations are recycled through `pool` — both
    /// on drop and inside backward closures that produce temporaries.
    pub fn with_pool(pool: Rc<BufferPool>) -> Self {
        let mut g = Self::new();
        g.pool = Some(pool);
        g
    }

    /// When enabled, [`Graph::backward`] keeps the gradient of every
    /// intermediate node (matching the pre-pool behavior) instead of only
    /// leaves; costs one extra tensor copy per pass-through node.
    pub fn set_retain_grads(&self, on: bool) {
        self.retain_grads.set(on);
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.inner.borrow().nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn push(
        &self,
        value: Tensor,
        parents: Vec<usize>,
        backward: Option<BackFn>,
        requires_grad: bool,
        param: Option<ParamId>,
    ) -> Var {
        let mut inner = self.inner.borrow_mut();
        let id = inner.nodes.len();
        inner.values.push(value);
        inner.grads.push(None);
        inner.nodes.push(Node { parents, backward, requires_grad, param });
        Var { id }
    }

    /// Records a leaf tensor. `requires_grad` controls whether a gradient is
    /// accumulated for it during [`Graph::backward`].
    pub fn leaf(&self, value: Tensor, requires_grad: bool) -> Var {
        self.push(value, Vec::new(), None, requires_grad, None)
    }

    /// Records a constant (no gradient).
    pub fn constant(&self, value: Tensor) -> Var {
        self.leaf(value, false)
    }

    /// Copies a parameter from the store onto the tape (through the buffer
    /// pool when one is attached) and records the binding so its gradient
    /// can later be pushed back.
    pub fn param(&self, store: &ParamStore, id: ParamId) -> Var {
        let value = crate::pool::copy_tensor(&self.pool, store.value(id));
        self.push(value, Vec::new(), None, true, Some(id))
    }

    /// Shared read access to a node's value.
    pub fn value(&self, v: Var) -> Ref<'_, Tensor> {
        Ref::map(self.inner.borrow(), |i| &i.values[v.id])
    }

    /// Clones a node's value out of the tape.
    pub fn value_cloned(&self, v: Var) -> Tensor {
        self.inner.borrow().values[v.id].clone()
    }

    /// The gradient of a node after [`Graph::backward`], if one was produced.
    pub fn grad(&self, v: Var) -> Option<Tensor> {
        self.inner.borrow().grads[v.id].clone()
    }

    fn requires(&self, ids: &[usize]) -> bool {
        let inner = self.inner.borrow();
        ids.iter().any(|&i| inner.nodes[i].requires_grad)
    }

    /// Generic unary op.
    pub(crate) fn unary(
        &self,
        a: Var,
        forward: impl FnOnce(&Tensor) -> Tensor,
        backward: BackFn,
    ) -> Var {
        let value = forward(&self.inner.borrow().values[a.id]);
        let rg = self.requires(&[a.id]);
        self.push(value, vec![a.id], if rg { Some(backward) } else { None }, rg, None)
    }

    /// Generic binary op.
    pub(crate) fn binary(
        &self,
        a: Var,
        b: Var,
        forward: impl FnOnce(&Tensor, &Tensor) -> Tensor,
        backward: BackFn,
    ) -> Var {
        let value = {
            let inner = self.inner.borrow();
            forward(&inner.values[a.id], &inner.values[b.id])
        };
        let rg = self.requires(&[a.id, b.id]);
        self.push(value, vec![a.id, b.id], if rg { Some(backward) } else { None }, rg, None)
    }

    /// Runs reverse-mode differentiation from a scalar root.
    ///
    /// Panics if the root is not a single-element tensor.
    ///
    /// [`Flow::Pass`] parents receive the output gradient itself: the last
    /// empty pass-through slot takes the tensor by move (zero-copy — the
    /// common chain `a → b → c` of reshapes/adds never duplicates the
    /// gradient), earlier ones get pool-backed copies, and occupied slots
    /// accumulate flat. Unless [`Graph::set_retain_grads`] is on, a consumed
    /// node's own gradient is dropped (recycled) rather than kept.
    pub fn backward(&self, root: Var) {
        let mut inner = self.inner.borrow_mut();
        assert_eq!(
            inner.values[root.id].len(),
            1,
            "backward root must be scalar, got shape {:?}",
            inner.values[root.id].shape()
        );
        inner.grads[root.id] = Some(Tensor::scalar(1.0));

        let retain = self.retain_grads.get();
        let Inner { values, grads, nodes } = &mut *inner;
        let mut pending: Vec<usize> = Vec::new();
        for id in (0..=root.id).rev() {
            if grads[id].is_none() || nodes[id].backward.is_none() {
                continue;
            }
            let mut gout = grads[id].take();
            let node = &nodes[id];
            let back = node.backward.as_ref().expect("checked above");
            let parent_vals: Vec<&Tensor> = node.parents.iter().map(|&p| &values[p]).collect();
            let flows = back(gout.as_ref().expect("checked above"), &values[id], &parent_vals);
            debug_assert_eq!(flows.len(), node.parents.len());
            pending.clear();
            for (&p, flow) in node.parents.iter().zip(flows) {
                if !nodes[p].requires_grad {
                    if let Flow::Grad(t) = flow {
                        crate::pool::recycle(&self.pool, t);
                    }
                    continue;
                }
                match flow {
                    Flow::Grad(pg) => {
                        debug_assert_eq!(
                            pg.shape(),
                            values[p].shape(),
                            "backward produced grad of wrong shape for node {p}"
                        );
                        match &mut grads[p] {
                            Some(g) => {
                                g.add_assign(&pg);
                                crate::pool::recycle(&self.pool, pg);
                            }
                            slot @ None => *slot = Some(pg),
                        }
                    }
                    Flow::Pass => {
                        debug_assert_eq!(
                            gout.as_ref().expect("gout alive during fan-out").len(),
                            values[p].len(),
                            "pass-through grad length mismatch for node {p}"
                        );
                        pending.push(p);
                    }
                }
            }
            // Distribute gout to pass-through parents. Slots are re-checked
            // on every step because a node may list the same parent twice
            // (e.g. `add(x, x)`): the first delivery fills the slot, the
            // second must accumulate into it.
            let n_pend = pending.len();
            for (i, &p) in pending.iter().enumerate() {
                let src = gout.as_ref().expect("gout alive during fan-out");
                match &mut grads[p] {
                    Some(g) => {
                        // Flat accumulate: lengths match, shapes may not.
                        for (o, &v) in g.data_mut().iter_mut().zip(src.data()) {
                            *o += v;
                        }
                    }
                    slot @ None => {
                        let shape = values[p].shape();
                        let t = if i + 1 == n_pend && !retain {
                            let moved = gout.take().expect("last pending takes gout");
                            Tensor::from_vec(moved.into_data(), shape)
                        } else {
                            let data = match &self.pool {
                                Some(pl) => pl.take_copy_of(src.data()),
                                None => src.data().to_vec(),
                            };
                            Tensor::from_vec(data, shape)
                        };
                        *slot = Some(t);
                    }
                }
            }
            match gout {
                Some(g) if retain => grads[id] = Some(g),
                Some(g) => crate::pool::recycle(&self.pool, g),
                None => {}
            }
        }
    }

    /// After [`Graph::backward`], adds every bound parameter's gradient into
    /// the store's accumulators. Returns how many parameters received grads.
    pub fn accumulate_param_grads(&self, store: &mut ParamStore) -> usize {
        let inner = self.inner.borrow();
        let mut n = 0;
        for (id, node) in inner.nodes.iter().enumerate() {
            if let (Some(pid), Some(g)) = (node.param, inner.grads[id].as_ref()) {
                store.grad_mut(pid).add_assign(g);
                n += 1;
            }
        }
        n
    }

    // ------------------------------------------------------ arithmetic ops

    /// Elementwise addition (same shape).
    pub fn add(&self, a: Var, b: Var) -> Var {
        self.binary(a, b, |x, y| x.add(y), Box::new(|_, _, _| vec![Flow::Pass, Flow::Pass]))
    }

    /// Elementwise subtraction (same shape).
    pub fn sub(&self, a: Var, b: Var) -> Var {
        self.binary(
            a,
            b,
            |x, y| x.sub(y),
            Box::new(|g, _, _| vec![Flow::Pass, Flow::Grad(g.scale(-1.0))]),
        )
    }

    /// Hadamard product (same shape).
    pub fn mul(&self, a: Var, b: Var) -> Var {
        self.binary(
            a,
            b,
            |x, y| x.mul(y),
            Box::new(|g, _, ps| vec![Flow::Grad(g.mul(ps[1])), Flow::Grad(g.mul(ps[0]))]),
        )
    }

    /// Multiplication by a constant.
    pub fn scale(&self, a: Var, c: f32) -> Var {
        self.unary(a, |x| x.scale(c), Box::new(move |g, _, _| vec![Flow::Grad(g.scale(c))]))
    }

    /// Adds a constant to every element.
    pub fn add_scalar(&self, a: Var, c: f32) -> Var {
        self.unary(a, |x| x.map(|v| v + c), Box::new(|_, _, _| vec![Flow::Pass]))
    }

    /// Negation.
    pub fn neg(&self, a: Var) -> Var {
        self.scale(a, -1.0)
    }

    /// `1 - a`, used by GRU update gates.
    pub fn one_minus(&self, a: Var) -> Var {
        self.unary(a, |x| x.map(|v| 1.0 - v), Box::new(|g, _, _| vec![Flow::Grad(g.scale(-1.0))]))
    }

    /// Elementwise square.
    pub fn square(&self, a: Var) -> Var {
        self.unary(
            a,
            |x| x.map(|v| v * v),
            Box::new(|g, _, ps| vec![Flow::Grad(g.zip(ps[0], |gv, xv| 2.0 * gv * xv))]),
        )
    }

    // ------------------------------------------------------ activations

    /// Rectified linear unit.
    pub fn relu(&self, a: Var) -> Var {
        self.unary(
            a,
            |x| x.map(|v| v.max(0.0)),
            Box::new(|g, out, _| {
                vec![Flow::Grad(g.zip(out, |gv, ov| if ov > 0.0 { gv } else { 0.0 }))]
            }),
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self, a: Var) -> Var {
        self.unary(
            a,
            |x| x.map(tanhf),
            Box::new(|g, out, _| vec![Flow::Grad(g.zip(out, |gv, ov| gv * (1.0 - ov * ov)))]),
        )
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self, a: Var) -> Var {
        self.unary(
            a,
            |x| x.map(|v| 1.0 / (1.0 + (-v).exp())),
            Box::new(|g, out, _| vec![Flow::Grad(g.zip(out, |gv, ov| gv * ov * (1.0 - ov)))]),
        )
    }

    /// GELU (tanh approximation), the transformer's feed-forward activation.
    pub fn gelu(&self, a: Var) -> Var {
        const C: f32 = 0.797_884_6; // sqrt(2/pi)
        fn gelu_f(x: f32) -> f32 {
            0.5 * x * (1.0 + tanhf(C * (x + 0.044715 * x * x * x)))
        }
        fn dgelu_f(x: f32) -> f32 {
            let u = C * (x + 0.044715 * x * x * x);
            let t = tanhf(u);
            let du = C * (1.0 + 3.0 * 0.044715 * x * x);
            0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
        }
        self.unary(
            a,
            |x| x.map(gelu_f),
            Box::new(|g, _, ps| vec![Flow::Grad(g.zip(ps[0], |gv, xv| gv * dgelu_f(xv)))]),
        )
    }

    // ------------------------------------------------------ linear algebra

    /// Rank-2 matrix product `[n,k] x [k,m] -> [n,m]`.
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        let pool = self.pool.clone();
        self.binary(
            a,
            b,
            |x, y| x.matmul(y),
            Box::new(move |g, _, ps| {
                let da = g.matmul_t_with(ps[1], crate::pool::take_uninit(&pool, ps[0].len()));
                let db = ps[0].t_matmul_with(g, crate::pool::take_uninit(&pool, ps[1].len()));
                vec![Flow::Grad(da), Flow::Grad(db)]
            }),
        )
    }

    /// Batched matrix product `[b,n,k] x [b,k,m] -> [b,n,m]`.
    pub fn bmm(&self, a: Var, b: Var) -> Var {
        let pool = self.pool.clone();
        self.binary(
            a,
            b,
            |x, y| x.bmm(y),
            Box::new(move |g, _, ps| {
                // dA = g x B^T, dB = A^T x g, per batch — both through the
                // transpose-free kernels (no materialized permutations).
                let da = g.bmm_nt_scaled(ps[1], 1.0, crate::pool::take_uninit(&pool, ps[0].len()));
                let db = ps[0].bmm_tn_scaled(g, 1.0, crate::pool::take_uninit(&pool, ps[1].len()));
                vec![Flow::Grad(da), Flow::Grad(db)]
            }),
        )
    }

    /// Rank-2 transpose.
    pub fn transpose2(&self, a: Var) -> Var {
        self.unary(a, |x| x.transpose2(), Box::new(|g, _, _| vec![Flow::Grad(g.transpose2())]))
    }

    /// Transposes the last two axes of a rank-3 tensor.
    pub fn transpose_last2(&self, a: Var) -> Var {
        self.unary(
            a,
            |x| x.transpose_last2(),
            Box::new(|g, _, _| vec![Flow::Grad(g.transpose_last2())]),
        )
    }

    /// Adds a `[d]` bias vector to every row of a `[n,d]` (or `[.., d]`) tensor.
    pub fn add_bias(&self, x: Var, bias: Var) -> Var {
        let pool = self.pool.clone();
        self.binary(
            x,
            bias,
            |x, b| {
                let d = b.len();
                assert_eq!(x.shape().last(), Some(&d), "add_bias dim mismatch");
                let mut out = x.clone();
                for chunk in out.data_mut().chunks_mut(d) {
                    for (c, &bv) in chunk.iter_mut().zip(b.data()) {
                        *c += bv;
                    }
                }
                out
            },
            Box::new(move |g, _, ps| {
                let db = g.col_sums_with(crate::pool::take_uninit(&pool, ps[1].len()));
                vec![Flow::Pass, Flow::Grad(Tensor::from_vec(db.into_data(), ps[1].shape()))]
            }),
        )
    }

    /// Scales each row `i` of `x: [n,d]` by `s[i]` (`s: [n]`).
    pub fn mul_col(&self, x: Var, s: Var) -> Var {
        let pool = self.pool.clone();
        self.binary(
            x,
            s,
            |x, s| {
                assert_eq!(x.rank(), 2);
                assert_eq!(s.shape(), &[x.shape()[0]], "mul_col scaler shape");
                let d = x.shape()[1];
                let mut out = x.clone();
                for (i, chunk) in out.data_mut().chunks_mut(d).enumerate() {
                    let sv = s.data()[i];
                    chunk.iter_mut().for_each(|c| *c *= sv);
                }
                out
            },
            Box::new(move |g, _, ps| {
                let d = ps[0].shape()[1];
                let n = ps[0].shape()[0];
                let mut dx = crate::pool::copy_tensor(&pool, g);
                let mut ds = vec![0.0f32; n];
                for (i, dsi) in ds.iter_mut().enumerate() {
                    let sv = ps[1].data()[i];
                    let grow = &g.data()[i * d..(i + 1) * d];
                    let xrow = ps[0].row(i);
                    *dsi = grow.iter().zip(xrow).map(|(&gv, &xv)| gv * xv).sum();
                    for c in dx.row_mut(i) {
                        *c *= sv;
                    }
                }
                vec![Flow::Grad(dx), Flow::Grad(Tensor::from_vec(ds, &[n]))]
            }),
        )
    }

    /// Per-row dot product of two `[n,d]` tensors, producing `[n]`.
    pub fn rows_dot(&self, a: Var, b: Var) -> Var {
        let pool = self.pool.clone();
        self.binary(
            a,
            b,
            |x, y| {
                assert_eq!(x.shape(), y.shape());
                assert_eq!(x.rank(), 2);
                let (n, d) = (x.shape()[0], x.shape()[1]);
                let mut out = vec![0.0f32; n];
                for (i, o) in out.iter_mut().enumerate() {
                    *o = x.data()[i * d..(i + 1) * d]
                        .iter()
                        .zip(&y.data()[i * d..(i + 1) * d])
                        .map(|(&p, &q)| p * q)
                        .sum();
                }
                Tensor::from_vec(out, &[n])
            },
            Box::new(move |g, _, ps| {
                let (n, d) = (ps[0].shape()[0], ps[0].shape()[1]);
                let mut da = crate::pool::copy_tensor(&pool, ps[1]);
                let mut db = crate::pool::copy_tensor(&pool, ps[0]);
                for i in 0..n {
                    let gv = g.data()[i];
                    da.data_mut()[i * d..(i + 1) * d].iter_mut().for_each(|v| *v *= gv);
                    db.data_mut()[i * d..(i + 1) * d].iter_mut().for_each(|v| *v *= gv);
                }
                vec![Flow::Grad(da), Flow::Grad(db)]
            }),
        )
    }

    /// Sums each row of `[n,d]` into `[n]`.
    pub fn rows_sum(&self, x: Var) -> Var {
        self.unary(
            x,
            |x| {
                assert_eq!(x.rank(), 2);
                let (n, d) = (x.shape()[0], x.shape()[1]);
                let out: Vec<f32> =
                    (0..n).map(|i| x.data()[i * d..(i + 1) * d].iter().sum()).collect();
                Tensor::from_vec(out, &[n])
            },
            Box::new(|g, _, ps| {
                let (n, d) = (ps[0].shape()[0], ps[0].shape()[1]);
                let mut dx = Tensor::zeros(&[n, d]);
                for i in 0..n {
                    let gv = g.data()[i];
                    dx.row_mut(i).iter_mut().for_each(|v| *v = gv);
                }
                vec![Flow::Grad(dx)]
            }),
        )
    }

    // ------------------------------------------------------ reductions

    /// Sum of all elements, producing a scalar.
    pub fn sum_all(&self, x: Var) -> Var {
        self.unary(
            x,
            |x| Tensor::scalar(x.sum()),
            Box::new(|g, _, ps| vec![Flow::Grad(Tensor::full(ps[0].shape(), g.item()))]),
        )
    }

    /// Mean of all elements, producing a scalar.
    pub fn mean_all(&self, x: Var) -> Var {
        self.unary(
            x,
            |x| Tensor::scalar(x.sum() / x.len().max(1) as f32),
            Box::new(|g, _, ps| {
                let n = ps[0].len().max(1) as f32;
                vec![Flow::Grad(Tensor::full(ps[0].shape(), g.item() / n))]
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Central finite differences on a scalar-valued function of one leaf.
    pub(crate) fn numeric_grad(f: impl Fn(&Tensor) -> f32, at: &Tensor, eps: f32) -> Tensor {
        let mut g = Tensor::zeros(at.shape());
        for i in 0..at.len() {
            let mut plus = at.clone();
            plus.data_mut()[i] += eps;
            let mut minus = at.clone();
            minus.data_mut()[i] -= eps;
            g.data_mut()[i] = (f(&plus) - f(&minus)) / (2.0 * eps);
        }
        g
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "{what}: grad[{i}] analytic={x} numeric={y}"
            );
        }
    }

    /// Grad-checks a graph function of a single input tensor.
    fn grad_check(shape: &[usize], seed: u64, f: impl Fn(&Graph, Var) -> Var, what: &str) {
        let mut rng = Rng::seed_from_u64(seed);
        let x0 = Tensor::rand_normal(shape, 0.8, &mut rng);
        let g = Graph::new();
        let x = g.leaf(x0.clone(), true);
        let y = f(&g, x);
        g.backward(y);
        let analytic = g.grad(x).expect("no grad");
        let numeric = numeric_grad(
            |t| {
                let g2 = Graph::new();
                let xv = g2.leaf(t.clone(), false);
                let yv = f(&g2, xv);
                g2.value_cloned(yv).item()
            },
            &x0,
            1e-3,
        );
        assert_close(&analytic, &numeric, 2e-2, what);
    }

    #[test]
    fn grad_add_mul_chain() {
        grad_check(
            &[2, 3],
            1,
            |g, x| {
                let y = g.mul(x, x);
                let z = g.add(y, x);
                g.sum_all(z)
            },
            "add/mul",
        );
    }

    #[test]
    fn grad_matmul() {
        let mut rng = Rng::seed_from_u64(2);
        let w0 = Tensor::rand_normal(&[3, 4], 0.8, &mut rng);
        let w = w0.clone();
        grad_check(
            &[2, 3],
            3,
            move |g, x| {
                let wv = g.constant(w.clone());
                let y = g.matmul(x, wv);
                g.sum_all(g.square(y))
            },
            "matmul lhs",
        );
        let x0 = Tensor::rand_normal(&[2, 3], 0.8, &mut rng);
        let xc = x0.clone();
        grad_check(
            &[3, 4],
            4,
            move |g, w| {
                let xv = g.constant(xc.clone());
                let y = g.matmul(xv, w);
                g.sum_all(g.square(y))
            },
            "matmul rhs",
        );
        let _ = w0;
    }

    #[test]
    fn grad_bmm() {
        let mut rng = Rng::seed_from_u64(5);
        let b0 = Tensor::rand_normal(&[2, 4, 3], 0.7, &mut rng);
        grad_check(
            &[2, 3, 4],
            6,
            move |g, x| {
                let bv = g.constant(b0.clone());
                let y = g.bmm(x, bv);
                g.mean_all(g.square(y))
            },
            "bmm",
        );
    }

    #[test]
    fn grad_activations() {
        grad_check(&[2, 4], 7, |g, x| g.sum_all(g.relu(x)), "relu");
        grad_check(&[2, 4], 8, |g, x| g.sum_all(g.tanh(x)), "tanh");
        grad_check(&[2, 4], 9, |g, x| g.sum_all(g.sigmoid(x)), "sigmoid");
        grad_check(&[2, 4], 10, |g, x| g.sum_all(g.gelu(x)), "gelu");
    }

    #[test]
    fn gelu_and_tanh_equal_their_reference_formulas_bitwise() {
        use crate::fdlibm::reference::tanhf;
        const C: f32 = 0.797_884_6;
        // Steps of 2^-12 over [-30, 30] reach every branch of tanhf, and of
        // the expm1f under it, as both ops' argument; the rest are tiny,
        // subnormal and non-finite inputs.
        let mut xs: Vec<f32> = (-(30 << 12)..=30 << 12).map(|i| i as f32 / 4096.0).collect();
        for x in [1e-20, 1e-30, f32::MIN_POSITIVE, 1e-40, 0.0, f32::INFINITY, f32::NAN] {
            xs.extend([x, -x]);
        }
        let run = |op: fn(&Graph, Var) -> Var| {
            let g = Graph::new();
            let x = g.leaf(Tensor::from_vec(xs.clone(), &[xs.len()]), true);
            let y = op(&g, x);
            g.backward(g.sum_all(y));
            (g.value_cloned(y), g.grad(x).unwrap())
        };
        let (gelu, dgelu) = run(Graph::gelu);
        let (tanh, dtanh) = run(Graph::tanh);
        let same = |a: f32, b: f32| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        for (i, &x) in xs.iter().enumerate() {
            let t = tanhf(C * (x + 0.044715 * x * x * x));
            let du = C * (1.0 + 3.0 * 0.044715 * x * x);
            for (what, got, want) in [
                ("gelu", gelu.data()[i], 0.5 * x * (1.0 + t)),
                ("gelu grad", dgelu.data()[i], 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du),
                ("tanh", tanh.data()[i], tanhf(x)),
                ("tanh grad", dtanh.data()[i], 1.0 - tanhf(x) * tanhf(x)),
            ] {
                assert!(same(got, want), "{what}({x:e}): {got:e} != reference {want:e}");
            }
        }
    }

    #[test]
    fn grad_bias_and_rows() {
        let mut rng = Rng::seed_from_u64(11);
        let b0 = Tensor::rand_normal(&[4], 0.5, &mut rng);
        grad_check(
            &[3, 4],
            12,
            move |g, x| {
                let b = g.constant(b0.clone());
                g.sum_all(g.square(g.add_bias(x, b)))
            },
            "add_bias x",
        );
        let x0 = Tensor::rand_normal(&[3, 4], 0.5, &mut rng);
        grad_check(
            &[4],
            13,
            move |g, b| {
                let x = g.constant(x0.clone());
                g.sum_all(g.square(g.add_bias(x, b)))
            },
            "add_bias b",
        );
        grad_check(&[3, 4], 14, |g, x| g.sum_all(g.square(g.rows_sum(x))), "rows_sum");
    }

    #[test]
    fn grad_mul_col_and_rows_dot() {
        let mut rng = Rng::seed_from_u64(15);
        let s0 = Tensor::rand_normal(&[3], 0.7, &mut rng);
        grad_check(
            &[3, 4],
            16,
            move |g, x| {
                let s = g.constant(s0.clone());
                g.sum_all(g.square(g.mul_col(x, s)))
            },
            "mul_col x",
        );
        let x0 = Tensor::rand_normal(&[3, 4], 0.7, &mut rng);
        grad_check(
            &[3],
            17,
            move |g, s| {
                let x = g.constant(x0.clone());
                g.sum_all(g.square(g.mul_col(x, s)))
            },
            "mul_col s",
        );
        let y0 = Tensor::rand_normal(&[3, 4], 0.7, &mut rng);
        grad_check(
            &[3, 4],
            18,
            move |g, x| {
                let y = g.constant(y0.clone());
                g.sum_all(g.square(g.rows_dot(x, y)))
            },
            "rows_dot",
        );
    }

    #[test]
    fn backward_accumulates_over_shared_subexpression() {
        // y = x*x + x*x => dy/dx = 4x
        let g = Graph::new();
        let x = g.leaf(Tensor::from_vec(vec![3.0], &[1]), true);
        let sq = g.mul(x, x);
        let y = g.add(sq, sq);
        let loss = g.sum_all(y);
        g.backward(loss);
        assert!((g.grad(x).unwrap().item() - 12.0).abs() < 1e-5);
    }

    #[test]
    fn constants_get_no_grad() {
        let g = Graph::new();
        let x = g.leaf(Tensor::scalar(2.0), true);
        let c = g.constant(Tensor::scalar(5.0));
        let y = g.mul(x, c);
        let loss = g.sum_all(y);
        g.backward(loss);
        assert!(g.grad(c).is_none());
        assert!((g.grad(x).unwrap().item() - 5.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "must be scalar")]
    fn backward_requires_scalar_root() {
        let g = Graph::new();
        let x = g.leaf(Tensor::zeros(&[2, 2]), true);
        g.backward(x);
    }

    #[test]
    fn one_minus_and_add_scalar() {
        grad_check(&[2, 3], 19, |g, x| g.sum_all(g.square(g.one_minus(x))), "one_minus");
        grad_check(&[2, 3], 20, |g, x| g.sum_all(g.square(g.add_scalar(x, 0.7))), "add_scalar");
    }
}
