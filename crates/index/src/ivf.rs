//! The IVF backend: deterministic seeded k-means, `nprobe` cluster
//! probing, an optional int8 quantized member scan with exact `f32`
//! re-scoring, and atomic `SDIX` persistence.
//!
//! ## Determinism
//!
//! Everything is bit-identical at any `SDEA_THREADS` budget and across
//! runs: k-means initialization is a seeded Fisher–Yates draw, the
//! assignment step maps rows independently through
//! [`par_map_collect`], centroid updates sum members in ascending row
//! order, and all iteration is over index-sorted `Vec`s (no hash-ordered
//! collections — `sdea-lint` D-HASH-ITER holds by construction). Probed
//! candidates are sorted ascending before ranking so ties break by lower
//! row index, exactly like the exact path.
//!
//! The probe scan itself is cluster-batched: each cluster's member rows
//! are gathered and pre-packed into the matmul microkernel's panel
//! format ([`pack_bt`]) at build, and a search scores all queries
//! probing a cluster with one direct [`matmul_packed`] call (the
//! quantized path dequantizes and packs the block on the fly). The tiled
//! kernels are bit-identical to the single-accumulator reference dot
//! (the `sdea-tensor` property suite's exactness contract), so batching
//! changes throughput, never a single output bit.
//!
//! ## Exactness escape hatch
//!
//! With `nprobe` = all clusters (`IndexConfig::nprobe == 0`, the default)
//! `search` bypasses clustering entirely and calls the same exact scan as
//! [`ExactRetriever`](crate::ExactRetriever), so hits and metrics are
//! bitwise identical. Approximation only enters when a caller opts into
//! `nprobe < nlist`.
//!
//! ## `SDIX` blob layout (little-endian, container version 2)
//!
//! Wrapped in the standard blob container (`kind "SDIX" | version |
//! payload_len | crc32 | payload`, see `sdea_tensor::serialize`):
//!
//! ```text
//! u32 n            rows indexed
//! u32 d            embedding width
//! u32 nlist        clusters
//! u8  quantize     0 | 1
//! u32 emb_crc      crc32 of the normalized table's f32 LE bytes
//! tensor centroids [nlist, d]   (write_tensor)
//! u32 × n          cluster assignment per row
//! if quantize:
//!   f32 × d        per-dim scale
//!   f32 × d        per-dim offset
//!   i8  × n·d      codes
//! ```
//!
//! `emb_crc` binds the index to the table it was built from: loading
//! against different embeddings is a mismatch (stale), not corruption.
//! Writes go through `atomic_write_retry` (tmp + fsync + rename);
//! [`IvfRetriever::load_or_build`] quarantines a corrupt file to
//! `<path>.corrupt` and rebuilds, mirroring the checkpoint store.

use crate::exact::exact_search;
use crate::{counters, top_k_scored, Hit, IndexConfig, Retriever};
use sdea_tensor::kernels::{matmul_packed, pack_bt};
use sdea_tensor::qkernels::{exact_dot, quantize_rows, QuantParams};
use sdea_tensor::serialize::{
    atomic_write_retry, blob_payload, blob_to_bytes, crc32, read_tensor, write_tensor, WireRead,
    WireWrite,
};
use sdea_tensor::{par_map_collect, Rng, Tensor};
use std::io;
use std::path::Path;

/// Blob kind tag of a persisted IVF index.
pub const INDEX_KIND: &[u8; 4] = b"SDIX";

/// k-means refinement iterations (with early stop on a fixed assignment).
const KMEANS_ITERS: usize = 10;

/// Seed of the k-means initialization draw. Fixed: the index must be a
/// pure function of the table and `IndexConfig`, so rebuilds (e.g. after
/// quarantine) reproduce the identical structure.
const KMEANS_SEED: u64 = 0x5dea_1d8e;

/// Quantized shortlist size as a multiple of `k`: the int8 scan keeps
/// `RESCORE_MULT · k` candidates for exact `f32` re-scoring, absorbing
/// quantization rank noise around the cut-off.
pub const RESCORE_MULT: usize = 4;

/// Int8 member store: one signed byte per element plus per-dim params.
struct Quant {
    codes: Vec<i8>,
    params: QuantParams,
}

/// IVF retriever over one embedding table.
pub struct IvfRetriever {
    /// The indexed table, rows L2-normalized once at build.
    norm: Tensor,
    /// `[nlist, d]` cluster centroids (L2-normalized).
    centroids: Tensor,
    /// Cluster id per indexed row.
    assign: Vec<u32>,
    /// Member rows per cluster, ascending.
    clusters: Vec<Vec<u32>>,
    /// Each cluster's member rows pre-packed into the microkernel's panel
    /// format ([`pack_bt`]) at build, so a probe calls [`matmul_packed`]
    /// directly with zero per-search packing. Empty for the quantized
    /// path, which dequantizes and packs blocks on the fly from `quant`.
    packed: Vec<Vec<f32>>,
    /// Optional int8 store over `norm`.
    quant: Option<Quant>,
    /// Clusters probed per query; 0 = all (exact bypass).
    nprobe: usize,
}

impl IvfRetriever {
    /// Builds the index over `emb: [n, d]` per `cfg` (its `kind` field is
    /// ignored — callers go through [`crate::build_retriever`]).
    pub fn build(emb: &Tensor, cfg: &IndexConfig) -> Self {
        assert_eq!(emb.rank(), 2, "IvfRetriever expects a rank-2 table");
        let _span = sdea_obs::span("index.build");
        let norm = emb.normalized_view();
        let n = norm.shape()[0];
        let nlist = cfg.effective_nlist(n);
        let (centroids, assign) = kmeans(&norm, nlist);
        let quant = cfg.quantize.then(|| {
            let (codes, params) = quantize_rows(norm.data(), n, norm.shape()[1]);
            Quant { codes, params }
        });
        let clusters = members_of(&assign, nlist);
        let packed = packed_blocks(&norm, &clusters, quant.is_some());
        IvfRetriever { norm, centroids, assign, clusters, packed, quant, nprobe: cfg.nprobe }
    }

    /// Cluster count.
    pub fn nlist(&self) -> usize {
        self.clusters.len()
    }

    /// Sets the probe count (`0` = all clusters / exact). A runtime knob:
    /// it changes which shortlist a search scans, never the built index.
    pub fn set_nprobe(&mut self, nprobe: usize) {
        self.nprobe = nprobe;
    }

    /// Bytes held by the member-scan representation: the int8 store when
    /// quantized (codes + per-dim params), else the packed `f32` panels.
    pub fn scan_bytes(&self) -> usize {
        match &self.quant {
            Some(q) => q.codes.len() + 8 * q.params.dim(),
            None => 4 * self.packed.iter().map(Vec::len).sum::<usize>(),
        }
    }

    fn probe_all(&self) -> bool {
        self.nprobe == 0 || self.nprobe >= self.nlist()
    }

    /// Reconstructs cluster `c`'s member block from the int8 store,
    /// element-for-element the same operations as
    /// [`dequantize_row`](sdea_tensor::qkernels::dequantize_row), so
    /// scanning the block is bitwise-identical to scanning dequantized
    /// rows one at a time.
    fn dequant_block(&self, store: &Quant, c: usize) -> Vec<f32> {
        let d = self.dim();
        let mut data = Vec::with_capacity(self.clusters[c].len() * d);
        for &id in &self.clusters[c] {
            let row = &store.codes[id as usize * d..(id as usize + 1) * d];
            for (j, &code) in row.iter().enumerate() {
                data.push(store.params.offset[j] + store.params.scale[j] * code as f32);
            }
        }
        data
    }

    /// Ranks one query's candidate pool `(row id, scan score)`, already
    /// sorted ascending by id so ties break toward the lower row index,
    /// like the exact path. When quantized, the scan scores only pick a
    /// `RESCORE_MULT·k` shortlist that is re-scored exactly in `f32`;
    /// unquantized scan scores already are the exact cosine.
    fn finish_row(&self, q: &[f32], pool: &[(u32, f32)], k: usize) -> Vec<Hit> {
        counters().shortlist_len.add(pool.len() as u64);
        let scores: Vec<f32> = pool.iter().map(|&(_, s)| s).collect();
        match &self.quant {
            Some(_) => {
                let keep = (k.saturating_mul(RESCORE_MULT)).max(k).min(pool.len());
                let mut ids: Vec<u32> =
                    top_k_scored(&scores, keep).into_iter().map(|(i, _)| pool[i].0).collect();
                ids.sort_unstable();
                counters().exact_rescored.add(ids.len() as u64);
                let exact: Vec<f32> =
                    ids.iter().map(|&id| exact_dot(q, self.norm.row(id as usize))).collect();
                top_k_scored(&exact, k).into_iter().map(|(i, s)| (ids[i] as usize, s)).collect()
            }
            None => {
                counters().exact_rescored.add(pool.len() as u64);
                top_k_scored(&scores, k).into_iter().map(|(i, s)| (pool[i].0 as usize, s)).collect()
            }
        }
    }

    // ------------------------------------------------------- persistence

    /// Serializes the built structure (not the `f32` table itself — the
    /// embeddings live in their own checkpoints; `emb_crc` binds the two).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        let (n, d) = (self.norm.shape()[0], self.norm.shape()[1]);
        payload.put_u32_le(n as u32);
        payload.put_u32_le(d as u32);
        payload.put_u32_le(self.nlist() as u32);
        payload.put_u8(self.quant.is_some() as u8);
        payload.put_u32_le(table_crc(&self.norm));
        write_tensor(&mut payload, &self.centroids);
        for &a in &self.assign {
            payload.put_u32_le(a);
        }
        if let Some(q) = &self.quant {
            for &s in &q.params.scale {
                payload.put_f32_le(s);
            }
            for &o in &q.params.offset {
                payload.put_f32_le(o);
            }
            payload.put_slice(&q.codes.iter().map(|&c| c as u8).collect::<Vec<u8>>());
        }
        blob_to_bytes(INDEX_KIND, &payload)
    }

    /// Reconstructs an index from `SDIX` bytes against the table it was
    /// built from. Structural damage is `InvalidData` (quarantine-worthy);
    /// a shape/crc/config mismatch with `emb`/`cfg` is `InvalidInput`
    /// (stale — rebuild, don't quarantine).
    pub fn from_bytes(bytes: &[u8], emb: &Tensor, cfg: &IndexConfig) -> io::Result<Self> {
        let corrupt = |m: &str| io::Error::new(io::ErrorKind::InvalidData, format!("SDIX: {m}"));
        let stale = |m: String| io::Error::new(io::ErrorKind::InvalidInput, m);
        let mut buf = blob_payload(bytes, INDEX_KIND)?;
        if buf.remaining() < 4 * 4 + 1 {
            return Err(corrupt("truncated header"));
        }
        let n = buf.get_u32_le() as usize;
        let d = buf.get_u32_le() as usize;
        let nlist = buf.get_u32_le() as usize;
        let quantize = buf.get_u8() != 0;
        let emb_crc = buf.get_u32_le();
        if emb.rank() != 2 || emb.shape() != [n, d] {
            return Err(stale(format!(
                "SDIX: built over a [{n}, {d}] table, embeddings are {:?}",
                emb.shape()
            )));
        }
        if quantize != cfg.quantize || (n > 0 && nlist != cfg.effective_nlist(n)) {
            return Err(stale(format!(
                "SDIX: stored nlist={nlist} quantize={quantize}, config wants nlist={} \
                 quantize={}",
                cfg.effective_nlist(n),
                cfg.quantize
            )));
        }
        let norm = emb.normalized_view();
        if table_crc(&norm) != emb_crc {
            return Err(stale("SDIX: embedding table changed since the index was built".into()));
        }
        let centroids = read_tensor(&mut buf)?;
        if centroids.rank() != 2 || centroids.shape() != [nlist, d] {
            return Err(corrupt("centroid shape mismatch"));
        }
        if buf.remaining() < 4 * n {
            return Err(corrupt("truncated assignments"));
        }
        let mut assign = Vec::with_capacity(n);
        for _ in 0..n {
            let a = buf.get_u32_le();
            if a as usize >= nlist.max(1) {
                return Err(corrupt("assignment out of range"));
            }
            assign.push(a);
        }
        let quant = if quantize {
            if buf.remaining() < 8 * d + n * d {
                return Err(corrupt("truncated quantized store"));
            }
            let mut scale = Vec::with_capacity(d);
            for _ in 0..d {
                scale.push(buf.get_f32_le());
            }
            let mut offset = Vec::with_capacity(d);
            for _ in 0..d {
                offset.push(buf.get_f32_le());
            }
            let mut raw = vec![0u8; n * d];
            buf.copy_to_slice(&mut raw);
            let codes = raw.into_iter().map(|b| b as i8).collect();
            Some(Quant { codes, params: QuantParams { scale, offset } })
        } else {
            None
        };
        if buf.remaining() != 0 {
            return Err(corrupt("trailing bytes"));
        }
        let clusters = members_of(&assign, nlist);
        let packed = packed_blocks(&norm, &clusters, quant.is_some());
        Ok(IvfRetriever { norm, centroids, assign, clusters, packed, quant, nprobe: cfg.nprobe })
    }

    /// Atomically persists the index as an `SDIX` blob.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        atomic_write_retry(path, &self.to_bytes(), "index.save")
    }

    /// Loads an `SDIX` blob built over `emb` under `cfg`.
    pub fn load(path: impl AsRef<Path>, emb: &Tensor, cfg: &IndexConfig) -> io::Result<Self> {
        Self::from_bytes(&std::fs::read(path)?, emb, cfg)
    }

    /// Warm-load path: loads `path` if it holds a valid index for
    /// `emb`/`cfg`; otherwise builds one and persists it. A corrupt blob
    /// is quarantined to `<path>.corrupt` (counter `index.quarantined`)
    /// before the rebuild, mirroring the checkpoint store's
    /// quarantine-and-fall-back discipline; a merely stale blob (different
    /// table or config) is overwritten in place.
    pub fn load_or_build(
        path: impl AsRef<Path>,
        emb: &Tensor,
        cfg: &IndexConfig,
    ) -> io::Result<Self> {
        let path = path.as_ref();
        match Self::load(path, emb, cfg) {
            Ok(idx) => return Ok(idx),
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) if e.kind() == io::ErrorKind::InvalidInput => {
                sdea_obs::add("index.stale_rebuilt", 1);
                eprintln!("note: rebuilding stale index {} ({e})", path.display());
            }
            Err(e) => {
                let mut quarantined = path.as_os_str().to_owned();
                quarantined.push(".corrupt");
                sdea_obs::add("index.quarantined", 1);
                eprintln!(
                    "warning: quarantining corrupt index {} -> {} ({e})",
                    path.display(),
                    Path::new(&quarantined).display()
                );
                std::fs::rename(path, &quarantined)?;
            }
        }
        let idx = Self::build(emb, cfg);
        idx.save(path)?;
        Ok(idx)
    }
}

impl std::fmt::Debug for IvfRetriever {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IvfRetriever")
            .field("n", &self.len())
            .field("d", &self.dim())
            .field("nlist", &self.nlist())
            .field("nprobe", &self.nprobe)
            .field("quantized", &self.quant.is_some())
            .finish()
    }
}

impl Retriever for IvfRetriever {
    fn search(&self, queries: &Tensor, k: usize) -> Vec<Vec<Hit>> {
        assert_eq!(queries.rank(), 2, "search expects rank-2 queries");
        assert_eq!(queries.shape()[1], self.dim(), "embedding width mismatch");
        let (nq, n, d) = (queries.shape()[0], self.len(), self.dim());
        if self.probe_all() {
            // Exact bypass: the ExactRetriever scan itself, so nprobe = all
            // is bitwise-identical to the exact backend.
            return exact_search(&self.norm, queries, k);
        }
        let _span = sdea_obs::span("index.search_ivf");
        let q = queries.normalized_view();
        let nlist = self.nlist();
        let nprobe = self.nprobe.min(nlist);
        // Centroid scores for the whole batch in one tiled matmul
        // (bitwise-identical to a per-row dot), then the probe set per
        // query.
        let csim = q.matmul_t(&self.centroids);
        let probed: Vec<Vec<usize>> = par_map_collect(nq, (nlist * d).max(1), |i| {
            top_k_scored(csim.row(i), nprobe).into_iter().map(|(c, _)| c).collect()
        });
        counters().probes.add(probed.iter().map(|p| p.len() as u64).sum());
        // Invert to per-cluster query lists so each populated cluster is
        // scanned with a single tiled matmul over the queries probing it
        // and its contiguous member block (dequantized on the fly for the
        // int8 store — same ops as a per-row dequantize, so bitwise-equal).
        let mut by_cluster: Vec<Vec<usize>> = vec![Vec::new(); nlist];
        for (i, probes) in probed.iter().enumerate() {
            for &c in probes {
                by_cluster[c].push(i);
            }
        }
        let avg_members = n / nlist.max(1) + 1;
        let scan_cost = d * avg_members * (nq * nprobe / nlist.max(1) + 1);
        let cluster_scores: Vec<Option<Vec<f32>>> = par_map_collect(nlist, scan_cost, |c| {
            let queriers = &by_cluster[c];
            let members = &self.clusters[c];
            if queriers.is_empty() || members.is_empty() {
                return None;
            }
            let mut qbuf = Vec::with_capacity(queriers.len() * d);
            for &i in queriers {
                qbuf.extend_from_slice(q.row(i));
            }
            let mut out = vec![0.0f32; queriers.len() * members.len()];
            match &self.quant {
                Some(store) => {
                    let mut panels = Vec::new();
                    pack_bt(&self.dequant_block(store, c), d, members.len(), &mut panels);
                    matmul_packed(
                        &qbuf,
                        &panels,
                        queriers.len(),
                        d,
                        members.len(),
                        1.0,
                        None,
                        &mut out,
                    );
                }
                None => {
                    matmul_packed(
                        &qbuf,
                        &self.packed[c],
                        queriers.len(),
                        d,
                        members.len(),
                        1.0,
                        None,
                        &mut out,
                    );
                }
            }
            Some(out)
        });
        // Serial scatter in ascending cluster order — deterministic no
        // matter how the scan above was scheduled.
        let mut pools: Vec<Vec<(u32, f32)>> = vec![Vec::new(); nq];
        for (c, scores) in cluster_scores.iter().enumerate() {
            let Some(scores) = scores else { continue };
            let m = self.clusters[c].len();
            for (r, &qi) in by_cluster[c].iter().enumerate() {
                let row = &scores[r * m..(r + 1) * m];
                pools[qi].extend(self.clusters[c].iter().zip(row).map(|(&id, &s)| (id, s)));
            }
        }
        // Ids ascend within each cluster segment, so with one probed
        // cluster this is a no-op and the sort is near-free.
        for pool in &mut pools {
            pool.sort_unstable_by_key(|&(id, _)| id);
        }
        let cost = d * (avg_members * nprobe).max(1);
        par_map_collect(nq, cost, |i| self.finish_row(q.row(i), &pools[i], k))
    }

    fn len(&self) -> usize {
        self.norm.shape()[0]
    }

    fn dim(&self) -> usize {
        self.norm.shape()[1]
    }
}

/// CRC-32 of a table's `f32` rows in LE byte order — the binding between a
/// persisted index and the embedding table it was built from.
fn table_crc(t: &Tensor) -> u32 {
    let mut bytes = Vec::with_capacity(4 * t.len());
    for &x in t.data() {
        bytes.put_f32_le(x);
    }
    crc32(&bytes)
}

/// Gathers each cluster's members and packs them into the microkernel
/// panel format for the tiled scan. Skipped (empty) for the quantized
/// path, whose scan blocks come from the int8 store instead.
fn packed_blocks(norm: &Tensor, clusters: &[Vec<u32>], quantized: bool) -> Vec<Vec<f32>> {
    if quantized {
        return Vec::new();
    }
    let d = norm.shape()[1];
    clusters
        .iter()
        .map(|members| {
            let rows: Vec<usize> = members.iter().map(|&i| i as usize).collect();
            let block = norm.gather_rows(&rows);
            let mut panels = Vec::new();
            pack_bt(block.data(), d, members.len(), &mut panels);
            panels
        })
        .collect()
}

/// Nearest-centroid assignment by dot product: strictly-greater wins, so
/// ties break toward the lower centroid index. Requires at least one
/// centroid.
fn nearest_centroids(norm: &Tensor, centroids: &Tensor) -> Vec<u32> {
    let (n, d) = (norm.shape()[0], norm.shape()[1]);
    let nlist = centroids.shape()[0];
    par_map_collect(n, (nlist * d).max(1), |i| {
        let row = norm.row(i);
        let mut best = 0u32;
        let mut best_v = f32::NEG_INFINITY;
        for c in 0..nlist {
            let v = exact_dot(row, centroids.row(c));
            if v > best_v {
                best_v = v;
                best = c as u32;
            }
        }
        best
    })
}

/// Ascending member lists per cluster.
fn members_of(assign: &[u32], nlist: usize) -> Vec<Vec<u32>> {
    let mut clusters = vec![Vec::new(); nlist];
    for (i, &a) in assign.iter().enumerate() {
        clusters[a as usize].push(i as u32);
    }
    clusters
}

/// Deterministic spherical k-means over a row-normalized table: seeded
/// Fisher–Yates initialization, dot-product assignment (ties to the lower
/// centroid index), centroid = L2-normalized mean of members summed in
/// ascending row order. Empty clusters keep their previous centroid.
fn kmeans(norm: &Tensor, nlist: usize) -> (Tensor, Vec<u32>) {
    let (n, d) = (norm.shape()[0], norm.shape()[1]);
    if n == 0 || nlist == 0 {
        return (Tensor::zeros(&[0, d]), Vec::new());
    }
    let _span = sdea_obs::span("index.kmeans");
    let mut order: Vec<usize> = (0..n).collect();
    Rng::seed_from_u64(KMEANS_SEED ^ nlist as u64).shuffle(&mut order);
    let mut centroids = norm.gather_rows(&order[..nlist]);
    let mut assign: Vec<u32> = Vec::new();
    for _ in 0..KMEANS_ITERS {
        let next = nearest_centroids(norm, &centroids);
        let converged = next == assign;
        assign = next;
        if converged {
            break;
        }
        let clusters = members_of(&assign, nlist);
        let rows = par_map_collect(nlist, (n / nlist + 1) * d.max(1), |c| {
            if clusters[c].is_empty() {
                return centroids.row(c).to_vec();
            }
            let mut sum = vec![0.0f32; d];
            for &i in &clusters[c] {
                for (s, &x) in sum.iter_mut().zip(norm.row(i as usize)) {
                    *s += x;
                }
            }
            let nrm: f32 = sum.iter().map(|&x| x * x).sum::<f32>().sqrt();
            if nrm > 1e-12 {
                let inv = 1.0 / nrm;
                sum.iter_mut().for_each(|x| *x *= inv);
            }
            sum
        });
        centroids = Tensor::from_vec(rows.concat(), &[nlist, d]);
    }
    (centroids, assign)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExactRetriever, IndexKind};
    use sdea_tensor::with_thread_budget;

    fn clustered_table(n: usize, d: usize, centers: usize, seed: u64) -> Tensor {
        let mut rng = Rng::seed_from_u64(seed);
        let c = Tensor::rand_normal(&[centers, d], 1.0, &mut rng);
        let mut data = Vec::with_capacity(n * d);
        for i in 0..n {
            let base = c.row(i % centers);
            data.extend(base.iter().map(|&b| b + 0.15 * rng.normal()));
        }
        Tensor::from_vec(data, &[n, d])
    }

    fn ivf_cfg(nprobe: usize, quantize: bool) -> IndexConfig {
        IndexConfig { kind: IndexKind::Ivf, nlist: 8, nprobe, quantize }
    }

    #[test]
    fn kmeans_is_thread_budget_invariant() {
        let t = clustered_table(300, 16, 6, 1).normalized_view();
        let (c1, a1) = with_thread_budget(1, || kmeans(&t, 8));
        let (c8, a8) = with_thread_budget(8, || kmeans(&t, 8));
        assert_eq!(a1, a8);
        assert_eq!(c1.data(), c8.data());
    }

    #[test]
    fn every_row_is_assigned_once() {
        let t = clustered_table(120, 8, 5, 2);
        let ivf = IvfRetriever::build(&t, &ivf_cfg(2, false));
        assert_eq!(ivf.assign.len(), 120);
        let total: usize = ivf.clusters.iter().map(Vec::len).sum();
        assert_eq!(total, 120);
        for (c, members) in ivf.clusters.iter().enumerate() {
            assert!(members.windows(2).all(|w| w[0] < w[1]), "cluster {c} not ascending");
        }
    }

    #[test]
    fn probing_few_clusters_still_finds_most_neighbours() {
        let t = clustered_table(400, 16, 8, 3);
        let q = clustered_table(50, 16, 8, 99);
        let exact = ExactRetriever::new(&t).search(&q, 10);
        let ivf = IvfRetriever::build(&t, &ivf_cfg(3, false));
        let approx = ivf.search(&q, 10);
        let mut hits = 0usize;
        for (e, a) in exact.iter().zip(&approx) {
            let truth: Vec<usize> = e.iter().map(|&(i, _)| i).collect();
            hits += a.iter().filter(|&&(i, _)| truth.contains(&i)).count();
        }
        let recall = hits as f64 / (50.0 * 10.0);
        assert!(recall > 0.6, "recall@10 {recall} too low for clustered data");
    }

    #[test]
    fn quantized_scan_rescores_exactly() {
        let t = clustered_table(200, 12, 4, 4);
        let q = clustered_table(20, 12, 4, 5);
        let plain = IvfRetriever::build(&t, &ivf_cfg(2, false)).search(&q, 5);
        let quant = IvfRetriever::build(&t, &ivf_cfg(2, true)).search(&q, 5);
        // Same probed clusters; scores of any shared id must be the exact
        // f32 cosine in both (re-scoring discards the quantized value).
        for (p, qh) in plain.iter().zip(&quant) {
            for &(id, s) in qh {
                if let Some(&(_, ps)) = p.iter().find(|&&(pid, _)| pid == id) {
                    assert_eq!(s.to_bits(), ps.to_bits(), "id {id}");
                }
            }
        }
    }

    #[test]
    fn single_row_and_empty_tables() {
        let one = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        let q = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        let ivf = IvfRetriever::build(&one, &ivf_cfg(1, true));
        let hits = ivf.search(&q, 3);
        assert_eq!(hits[0].len(), 1);
        assert_eq!(hits[0][0].0, 0);

        let empty = Tensor::zeros(&[0, 2]);
        let ivf = IvfRetriever::build(&empty, &ivf_cfg(1, false));
        assert!(ivf.is_empty());
        assert_eq!(ivf.search(&q, 3), vec![Vec::<Hit>::new()]);
    }

    #[test]
    fn rebuild_is_bit_identical() {
        let t = clustered_table(150, 8, 4, 6);
        let a = IvfRetriever::build(&t, &ivf_cfg(2, true));
        let b = IvfRetriever::build(&t, &ivf_cfg(2, true));
        assert_eq!(a.assign, b.assign);
        assert_eq!(a.centroids.data(), b.centroids.data());
        assert_eq!(a.to_bytes(), b.to_bytes());
    }
}
