//! Dense row-major `f32` tensors.
//!
//! [`Tensor`] is a plain value type: a shape plus a contiguous buffer. All
//! the numeric kernels used by both forward evaluation and the autograd
//! backward passes live here as ordinary methods; the tape in
//! [`crate::graph`] composes them.

use crate::rng::Rng;

/// A dense row-major tensor of `f32` values.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    // ---------------------------------------------------------------- ctors

    /// A tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let n = shape.iter().product();
        Tensor { shape: shape.to_vec(), data: vec![0.0; n] }
    }

    /// A tensor of ones with the given shape.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// A tensor filled with a constant.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n = shape.iter().product();
        Tensor { shape: shape.to_vec(), data: vec![value; n] }
    }

    /// Wraps an existing buffer. Panics if the element count mismatches.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(data.len(), n, "data length {} != shape product {}", data.len(), n);
        Tensor { shape: shape.to_vec(), data }
    }

    /// A scalar (rank-0 is represented as shape `[1]`).
    pub fn scalar(value: f32) -> Self {
        Tensor { shape: vec![1], data: vec![value] }
    }

    /// Uniform random tensor in `[lo, hi)`.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut Rng) -> Self {
        let n: usize = shape.iter().product();
        let data = (0..n).map(|_| rng.uniform(lo, hi)).collect();
        Tensor { shape: shape.to_vec(), data }
    }

    /// Normal random tensor with the given standard deviation.
    pub fn rand_normal(shape: &[usize], std: f32, rng: &mut Rng) -> Self {
        let n: usize = shape.iter().product();
        let data = (0..n).map(|_| rng.normal() * std).collect();
        Tensor { shape: shape.to_vec(), data }
    }

    // ------------------------------------------------------------ accessors

    /// The shape of the tensor.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Rank (number of dimensions).
    #[inline]
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// The raw buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the raw buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Scalar value of a single-element tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(self.data.len(), 1, "item() on tensor of shape {:?}", self.shape);
        self.data[0]
    }

    /// For a rank-2 tensor, the `i`-th row as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        debug_assert_eq!(self.rank(), 2);
        let d = self.shape[1];
        &self.data[i * d..(i + 1) * d]
    }

    /// For a rank-2 tensor, the `i`-th row mutably.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        debug_assert_eq!(self.rank(), 2);
        let d = self.shape[1];
        &mut self.data[i * d..(i + 1) * d]
    }

    /// Element access for rank-2 tensors.
    #[inline]
    pub fn at2(&self, i: usize, j: usize) -> f32 {
        debug_assert_eq!(self.rank(), 2);
        self.data[i * self.shape[1] + j]
    }

    /// Reinterprets the buffer with a new shape of the same element count.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        assert_eq!(n, self.data.len(), "reshape {:?} -> {:?}", self.shape, shape);
        Tensor { shape: shape.to_vec(), data: self.data.clone() }
    }

    /// In-place reshape (no copy).
    pub fn reshape_in_place(&mut self, shape: &[usize]) {
        let n: usize = shape.iter().product();
        assert_eq!(n, self.data.len());
        self.shape = shape.to_vec();
    }

    // --------------------------------------------------------- elementwise

    /// Elementwise binary op into a fresh tensor; shapes must match.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "zip shape mismatch");
        let data = self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)).collect();
        Tensor { shape: self.shape.clone(), data }
    }

    /// Elementwise map into a fresh tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// `self + other`.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// `self - other`.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    /// Hadamard product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    /// Scales by a constant.
    pub fn scale(&self, c: f32) -> Tensor {
        self.map(|x| x * c)
    }

    /// Accumulates `other` into `self` (`self += other`).
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// `self += c * other` (axpy).
    pub fn axpy(&mut self, c: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += c * b;
        }
    }

    /// Fills with zeros, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Squared L2 norm of the whole buffer.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Frobenius / L2 norm.
    pub fn norm(&self) -> f32 {
        self.sq_norm().sqrt()
    }

    /// Dot product of two same-shaped tensors viewed as flat vectors.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape);
        self.data.iter().zip(other.data.iter()).map(|(&a, &b)| a * b).sum()
    }

    // ------------------------------------------------------------- matmul

    /// Rank-2 matrix multiplication `[n,k] x [k,m] -> [n,m]` through the
    /// register-tiled microkernel (see [`crate::kernels`]): B is packed
    /// into column panels once per call, then row blocks fan out across
    /// the thread budget.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        self.matmul_with(other, None, None)
    }

    /// `self × other + bias` with the `[m]` bias added in the kernel
    /// write-back epilogue (one pass over the output instead of two).
    pub fn matmul_bias(&self, other: &Tensor, bias: &Tensor) -> Tensor {
        self.matmul_with(other, Some(bias), None)
    }

    /// Shared `matmul` driver: optional fused bias and an optional
    /// pre-allocated output buffer (pool reuse; contents are overwritten).
    pub(crate) fn matmul_with(
        &self,
        other: &Tensor,
        bias: Option<&Tensor>,
        buf: Option<Vec<f32>>,
    ) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul lhs rank {:?}", self.shape);
        assert_eq!(other.rank(), 2, "matmul rhs rank {:?}", other.shape);
        let (n, k) = (self.shape[0], self.shape[1]);
        let (k2, m) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dim: {:?} x {:?}", self.shape, other.shape);
        if let Some(b) = bias {
            assert_eq!(b.len(), m, "matmul bias dim {} != {}", b.len(), m);
        }
        let mut out = take_buf(buf, n * m);
        if n * m > 0 {
            let bias = bias.map(|b| b.data());
            crate::kernels::with_pack_scratch(|scratch| {
                crate::kernels::pack_b(&other.data, k, m, scratch);
                let packed: &[f32] = scratch;
                crate::par::par_row_chunks(&mut out, n, m, k * m, |row0, block| {
                    let rows = block.len() / m;
                    crate::kernels::matmul_packed(
                        &self.data[row0 * k..(row0 + rows) * k],
                        packed,
                        rows,
                        k,
                        m,
                        1.0,
                        bias,
                        block,
                    );
                });
            });
        }
        Tensor { shape: vec![n, m], data: out }
    }

    /// `self^T x other` for rank-2 tensors: `[k,n]^T=[n,k]`… computes
    /// `[n,m]` from `self: [k,n]`, `other: [k,m]` without materializing the
    /// transpose. Used by matmul backward.
    pub fn t_matmul(&self, other: &Tensor) -> Tensor {
        self.t_matmul_with(other, None)
    }

    pub(crate) fn t_matmul_with(&self, other: &Tensor, buf: Option<Vec<f32>>) -> Tensor {
        let (k, n) = (self.shape[0], self.shape[1]);
        let (k2, m) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "t_matmul inner dim");
        let mut out = take_buf(buf, n * m);
        if n * m > 0 {
            crate::kernels::with_pack_scratch(|scratch| {
                crate::kernels::pack_b(&other.data, k, m, scratch);
                let packed: &[f32] = scratch;
                crate::par::par_row_chunks(&mut out, n, m, k * m, |row0, block| {
                    let rows = block.len() / m;
                    // Each worker transposes its own A-column block into
                    // row-major form; the per-element sum order (ascending
                    // k) is the same for any row split.
                    let mut at = Vec::new();
                    crate::kernels::transpose_block(&self.data, k, n, row0, rows, &mut at);
                    crate::kernels::matmul_packed(&at, packed, rows, k, m, 1.0, None, block);
                });
            });
        }
        Tensor { shape: vec![n, m], data: out }
    }

    /// `self x other^T` for rank-2 tensors: `self: [n,k]`, `other: [m,k]`,
    /// result `[n,m]`, without materializing the transpose.
    pub fn matmul_t(&self, other: &Tensor) -> Tensor {
        self.matmul_t_with(other, None)
    }

    pub(crate) fn matmul_t_with(&self, other: &Tensor, buf: Option<Vec<f32>>) -> Tensor {
        let (n, k) = (self.shape[0], self.shape[1]);
        let (m, k2) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul_t inner dim");
        let mut out = take_buf(buf, n * m);
        if n * m > 0 {
            crate::kernels::with_pack_scratch(|scratch| {
                crate::kernels::pack_bt(&other.data, k, m, scratch);
                let packed: &[f32] = scratch;
                crate::par::par_row_chunks(&mut out, n, m, k * m, |row0, block| {
                    let rows = block.len() / m;
                    crate::kernels::matmul_packed(
                        &self.data[row0 * k..(row0 + rows) * k],
                        packed,
                        rows,
                        k,
                        m,
                        1.0,
                        None,
                        block,
                    );
                });
            });
        }
        Tensor { shape: vec![n, m], data: out }
    }

    /// Rank-2 transpose.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.rank(), 2);
        let (n, m) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; n * m];
        for i in 0..n {
            for j in 0..m {
                out[j * n + i] = self.data[i * m + j];
            }
        }
        Tensor { shape: vec![m, n], data: out }
    }

    /// Batched matmul `[b,n,k] x [b,k,m] -> [b,n,m]`.
    pub fn bmm(&self, other: &Tensor) -> Tensor {
        self.bmm_scaled(other, 1.0, None)
    }

    /// Batched `A x B^T`: `[b,n,k] x [b,m,k] -> [b,n,m]` without
    /// materializing the transpose (attention scores `Q·Kᵀ`).
    pub fn bmm_nt(&self, other: &Tensor) -> Tensor {
        self.bmm_nt_scaled(other, 1.0, None)
    }

    /// Batched `A^T x B`: `[b,k,n] x [b,k,m] -> [b,n,m]` without
    /// materializing the transpose (attention backward `dK = gᵀ·Q`).
    pub fn bmm_tn(&self, other: &Tensor) -> Tensor {
        self.bmm_tn_scaled(other, 1.0, None)
    }

    pub(crate) fn bmm_scaled(&self, other: &Tensor, alpha: f32, buf: Option<Vec<f32>>) -> Tensor {
        assert_eq!(self.rank(), 3);
        assert_eq!(other.rank(), 3);
        let (b, n, k) = (self.shape[0], self.shape[1], self.shape[2]);
        let (b2, k2, m) = (other.shape[0], other.shape[1], other.shape[2]);
        assert_eq!(b, b2, "bmm batch mismatch");
        assert_eq!(k, k2, "bmm inner dim");
        let mut out = take_buf(buf, b * n * m);
        if b * n * m > 0 {
            // One "row" per batch: each worker owns whole [n,m] output slabs
            // and packs its batch's B panel into a reused local buffer.
            crate::par::par_row_chunks(&mut out, b, n * m, n * k * m, |b0, block| {
                let mut packed = Vec::new();
                for (i, o) in block.chunks_mut(n * m).enumerate() {
                    let bi = b0 + i;
                    crate::kernels::pack_b(
                        &other.data[bi * k * m..(bi + 1) * k * m],
                        k,
                        m,
                        &mut packed,
                    );
                    crate::kernels::matmul_packed(
                        &self.data[bi * n * k..(bi + 1) * n * k],
                        &packed,
                        n,
                        k,
                        m,
                        alpha,
                        None,
                        o,
                    );
                }
            });
        }
        Tensor { shape: vec![b, n, m], data: out }
    }

    pub(crate) fn bmm_nt_scaled(
        &self,
        other: &Tensor,
        alpha: f32,
        buf: Option<Vec<f32>>,
    ) -> Tensor {
        assert_eq!(self.rank(), 3);
        assert_eq!(other.rank(), 3);
        let (b, n, k) = (self.shape[0], self.shape[1], self.shape[2]);
        let (b2, m, k2) = (other.shape[0], other.shape[1], other.shape[2]);
        assert_eq!(b, b2, "bmm_nt batch mismatch");
        assert_eq!(k, k2, "bmm_nt inner dim");
        let mut out = take_buf(buf, b * n * m);
        if b * n * m > 0 {
            crate::par::par_row_chunks(&mut out, b, n * m, n * k * m, |b0, block| {
                let mut packed = Vec::new();
                for (i, o) in block.chunks_mut(n * m).enumerate() {
                    let bi = b0 + i;
                    crate::kernels::pack_bt(
                        &other.data[bi * m * k..(bi + 1) * m * k],
                        k,
                        m,
                        &mut packed,
                    );
                    crate::kernels::matmul_packed(
                        &self.data[bi * n * k..(bi + 1) * n * k],
                        &packed,
                        n,
                        k,
                        m,
                        alpha,
                        None,
                        o,
                    );
                }
            });
        }
        Tensor { shape: vec![b, n, m], data: out }
    }

    pub(crate) fn bmm_tn_scaled(
        &self,
        other: &Tensor,
        alpha: f32,
        buf: Option<Vec<f32>>,
    ) -> Tensor {
        assert_eq!(self.rank(), 3);
        assert_eq!(other.rank(), 3);
        let (b, k, n) = (self.shape[0], self.shape[1], self.shape[2]);
        let (b2, k2, m) = (other.shape[0], other.shape[1], other.shape[2]);
        assert_eq!(b, b2, "bmm_tn batch mismatch");
        assert_eq!(k, k2, "bmm_tn inner dim");
        let mut out = take_buf(buf, b * n * m);
        if b * n * m > 0 {
            crate::par::par_row_chunks(&mut out, b, n * m, n * k * m, |b0, block| {
                let mut packed = Vec::new();
                let mut at = Vec::new();
                for (i, o) in block.chunks_mut(n * m).enumerate() {
                    let bi = b0 + i;
                    crate::kernels::pack_b(
                        &other.data[bi * k * m..(bi + 1) * k * m],
                        k,
                        m,
                        &mut packed,
                    );
                    crate::kernels::transpose_block(
                        &self.data[bi * k * n..(bi + 1) * k * n],
                        k,
                        n,
                        0,
                        n,
                        &mut at,
                    );
                    crate::kernels::matmul_packed(&at, &packed, n, k, m, alpha, None, o);
                }
            });
        }
        Tensor { shape: vec![b, n, m], data: out }
    }

    /// Transposes the last two axes of a rank-3 tensor.
    pub fn transpose_last2(&self) -> Tensor {
        assert_eq!(self.rank(), 3);
        let (b, n, m) = (self.shape[0], self.shape[1], self.shape[2]);
        let mut out = vec![0.0f32; b * n * m];
        for bi in 0..b {
            let src = &self.data[bi * n * m..(bi + 1) * n * m];
            let dst = &mut out[bi * n * m..(bi + 1) * n * m];
            for i in 0..n {
                for j in 0..m {
                    dst[j * n + i] = src[i * m + j];
                }
            }
        }
        Tensor { shape: vec![b, m, n], data: out }
    }

    // ----------------------------------------------------------- rows / nn

    /// Softmax over the last dimension (any rank >= 1), numerically stable.
    pub fn softmax_lastdim(&self) -> Tensor {
        let d = *self.shape.last().expect("softmax on rank-0");
        let mut out = self.data.clone();
        for chunk in out.chunks_mut(d) {
            let max = chunk.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for x in chunk.iter_mut() {
                *x = (*x - max).exp();
                sum += *x;
            }
            let inv = 1.0 / sum;
            for x in chunk.iter_mut() {
                *x *= inv;
            }
        }
        Tensor { shape: self.shape.clone(), data: out }
    }

    /// Log-softmax over the last dimension.
    pub fn log_softmax_lastdim(&self) -> Tensor {
        let d = *self.shape.last().expect("log_softmax on rank-0");
        let mut out = self.data.clone();
        for chunk in out.chunks_mut(d) {
            let max = chunk.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for x in chunk.iter() {
                sum += (*x - max).exp();
            }
            let lse = max + sum.ln();
            for x in chunk.iter_mut() {
                *x -= lse;
            }
        }
        Tensor { shape: self.shape.clone(), data: out }
    }

    /// L2-normalizes each row of a rank-2 tensor (zero rows stay zero).
    pub fn l2_normalize_rows(&self) -> Tensor {
        assert_eq!(self.rank(), 2);
        let mut out = self.clone();
        let (rows, d) = (self.shape[0], self.shape[1]);
        if d > 0 {
            crate::par::par_row_chunks(&mut out.data, rows, d, 2 * d, |_, block| {
                for chunk in block.chunks_mut(d) {
                    let n: f32 = chunk.iter().map(|&x| x * x).sum::<f32>().sqrt();
                    if n > 1e-12 {
                        let inv = 1.0 / n;
                        chunk.iter_mut().for_each(|x| *x *= inv);
                    }
                }
            });
        }
        out
    }

    /// The canonical cosine-space view of a rank-2 embedding table: every
    /// row L2-normalized, zero rows left as zero vectors (their cosine
    /// against anything is exactly `0.0`, never NaN).
    ///
    /// This is *the* normalization helper for every similarity consumer —
    /// `sdea_eval::cosine_matrix` and `sdea_index::ExactRetriever` both
    /// call it, so the zero-row convention and the exact operation sequence
    /// (and therefore bit-identity between those paths) live in one place.
    /// A thin wrapper over [`Tensor::l2_normalize_rows`], which is also a
    /// differentiable graph op.
    pub fn normalized_view(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "normalized_view expects a rank-2 table");
        self.l2_normalize_rows()
    }

    /// Gathers rows of a rank-2 table into a new rank-2 tensor.
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        assert_eq!(self.rank(), 2);
        let d = self.shape[1];
        let mut data = Vec::with_capacity(indices.len() * d);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Tensor { shape: vec![indices.len(), d], data }
    }

    /// Stacks rank-1 tensors of equal length into rows of a rank-2 tensor.
    pub fn stack_rows(rows: &[&Tensor]) -> Tensor {
        assert!(!rows.is_empty());
        let d = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * d);
        for r in rows {
            assert_eq!(r.len(), d, "stack_rows length mismatch");
            data.extend_from_slice(&r.data);
        }
        Tensor { shape: vec![rows.len(), d], data }
    }

    /// Concatenates rank-2 tensors along the last dimension.
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty());
        let n = parts[0].shape[0];
        let total: usize = parts.iter().map(|p| p.shape[1]).sum();
        let mut data = Vec::with_capacity(n * total);
        for i in 0..n {
            for p in parts {
                assert_eq!(p.shape[0], n, "concat_cols row mismatch");
                data.extend_from_slice(p.row(i));
            }
        }
        Tensor { shape: vec![n, total], data }
    }

    /// Mean over rows of a rank-2 tensor, producing shape `[d]`.
    pub fn mean_rows(&self) -> Tensor {
        assert_eq!(self.rank(), 2);
        let (n, d) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; d];
        for i in 0..n {
            for (o, &x) in out.iter_mut().zip(self.row(i)) {
                *o += x;
            }
        }
        let inv = 1.0 / n.max(1) as f32;
        out.iter_mut().for_each(|x| *x *= inv);
        Tensor { shape: vec![d], data: out }
    }

    /// Sums over all leading dimensions: `[.., d] -> [d]` (bias gradients).
    pub fn col_sums(&self) -> Tensor {
        self.col_sums_with(None)
    }

    pub(crate) fn col_sums_with(&self, buf: Option<Vec<f32>>) -> Tensor {
        let d = *self.shape.last().expect("col_sums on rank-0");
        let mut out = take_buf(buf, d);
        out.iter_mut().for_each(|x| *x = 0.0);
        if d > 0 {
            for chunk in self.data.chunks_exact(d) {
                for (o, &v) in out.iter_mut().zip(chunk) {
                    *o += v;
                }
            }
        }
        Tensor { shape: vec![d], data: out }
    }

    /// Consumes the tensor and returns its backing buffer (pool recycling).
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Checks all entries are finite; used by tests and the trainer's
    /// divergence guard.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

/// Resolves the output allocation for a kernel call: reuse `buf` (resized to
/// `len`) when the caller recycled one from a pool, else allocate fresh.
/// Contents are unspecified — every kernel fully overwrites its output.
fn take_buf(buf: Option<Vec<f32>>, len: usize) -> Vec<f32> {
    match buf {
        Some(mut v) => {
            v.resize(len, 0.0);
            v
        }
        None => vec![0.0f32; len],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small_known() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = Rng::seed_from_u64(1);
        let a = Tensor::rand_normal(&[3, 3], 1.0, &mut rng);
        let eye = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], &[3, 3]);
        let c = a.matmul(&eye);
        for (x, y) in c.data().iter().zip(a.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let mut rng = Rng::seed_from_u64(2);
        let a = Tensor::rand_normal(&[4, 3], 1.0, &mut rng);
        let b = Tensor::rand_normal(&[4, 5], 1.0, &mut rng);
        let via_t = a.transpose2().matmul(&b);
        let fused = a.t_matmul(&b);
        assert_eq!(via_t.shape(), fused.shape());
        for (x, y) in via_t.data().iter().zip(fused.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let mut rng = Rng::seed_from_u64(3);
        let a = Tensor::rand_normal(&[4, 3], 1.0, &mut rng);
        let b = Tensor::rand_normal(&[5, 3], 1.0, &mut rng);
        let via_t = a.matmul(&b.transpose2());
        let fused = a.matmul_t(&b);
        for (x, y) in via_t.data().iter().zip(fused.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn bmm_matches_per_batch_matmul() {
        let mut rng = Rng::seed_from_u64(4);
        let a = Tensor::rand_normal(&[2, 3, 4], 1.0, &mut rng);
        let b = Tensor::rand_normal(&[2, 4, 5], 1.0, &mut rng);
        let c = a.bmm(&b);
        assert_eq!(c.shape(), &[2, 3, 5]);
        for bi in 0..2 {
            let a2 = Tensor::from_vec(a.data()[bi * 12..(bi + 1) * 12].to_vec(), &[3, 4]);
            let b2 = Tensor::from_vec(b.data()[bi * 20..(bi + 1) * 20].to_vec(), &[4, 5]);
            let c2 = a2.matmul(&b2);
            for (x, y) in c.data()[bi * 15..(bi + 1) * 15].iter().zip(c2.data()) {
                assert!((x - y).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 5.0], &[2, 3]);
        let s = t.softmax_lastdim();
        for i in 0..2 {
            let sum: f32 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
            assert!(s.row(i).iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let t = Tensor::from_vec(vec![1000.0, 1001.0, 1002.0], &[1, 3]);
        let s = t.softmax_lastdim();
        assert!(s.all_finite());
        let t2 = Tensor::from_vec(vec![0.0, 1.0, 2.0], &[1, 3]);
        let s2 = t2.softmax_lastdim();
        for (a, b) in s.data().iter().zip(s2.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn log_softmax_exp_matches_softmax() {
        let t = Tensor::from_vec(vec![0.3, -1.2, 2.0, 0.0], &[1, 4]);
        let ls = t.log_softmax_lastdim();
        let s = t.softmax_lastdim();
        for (a, b) in ls.data().iter().zip(s.data()) {
            assert!((a.exp() - b).abs() < 1e-6);
        }
    }

    #[test]
    fn l2_normalize_rows_unit_norm() {
        let t = Tensor::from_vec(vec![3.0, 4.0, 0.0, 0.0], &[2, 2]);
        let n = t.l2_normalize_rows();
        assert!((n.row(0).iter().map(|x| x * x).sum::<f32>() - 1.0).abs() < 1e-6);
        assert_eq!(n.row(1), &[0.0, 0.0]); // zero row preserved
    }

    #[test]
    fn transpose2_round_trip() {
        let mut rng = Rng::seed_from_u64(5);
        let a = Tensor::rand_normal(&[3, 7], 1.0, &mut rng);
        assert_eq!(a.transpose2().transpose2(), a);
    }

    #[test]
    fn transpose_last2_round_trip() {
        let mut rng = Rng::seed_from_u64(6);
        let a = Tensor::rand_normal(&[2, 3, 4], 1.0, &mut rng);
        assert_eq!(a.transpose_last2().transpose_last2(), a);
    }

    #[test]
    fn gather_and_stack() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let g = t.gather_rows(&[2, 0, 2]);
        assert_eq!(g.shape(), &[3, 2]);
        assert_eq!(g.data(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    fn concat_cols_layout() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![9.0, 8.0], &[2, 1]);
        let c = Tensor::concat_cols(&[&a, &b]);
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.data(), &[1.0, 2.0, 9.0, 3.0, 4.0, 8.0]);
    }

    #[test]
    fn mean_rows_average() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let m = t.mean_rows();
        assert_eq!(m.data(), &[2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn zip_shape_mismatch_panics() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = a.add(&b);
    }

    #[test]
    fn shape_and_data_accessors_agree() {
        let mut rng = Rng::seed_from_u64(7);
        let t = Tensor::rand_normal(&[4, 5], 1.0, &mut rng);
        // Binary round trips are exercised by serialize.rs tests; here we
        // assert field access consistency.
        assert_eq!(t.shape(), &[4, 5]);
        assert_eq!(t.data().len(), 20);
    }
}
