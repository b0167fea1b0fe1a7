//! What every workload shares: the run context, repeated set-up, the
//! traced/untraced phase wrapper, and direct single-call probes.

use crate::inputs::Sizes;
use crate::layers;
use crate::metrics::Outcome;
use crate::stats::median;
use crate::trace::{self, timed};
use sdea_core::AttrModule;
use sdea_index::Retriever;
use sdea_tensor::Tensor;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Set-up runs this many times per run and reports its median, so that
/// work moved into set-up shows without one slow start deciding it.
const SETUP_REPS: usize = 9;

/// Everything a workload needs to know about its run.
pub struct Ctx {
    pub seed: u64,
    /// Length of one timed phase.
    pub seconds: f64,
    /// Whether to add the traced phase and report per-layer metrics.
    pub trace: bool,
    pub sizes: Sizes,
    /// A private directory for this run's files, removed at exit.
    pub scratch: PathBuf,
}

/// Runs `setup` [`SETUP_REPS`] times and keeps the last result; returns it
/// with the median set-up time.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (state, secs) = timed("bench.setup", &mut setup);
        last = Some(state?);
        times.push(secs);
    }
    Ok((last.expect("SETUP_REPS is positive"), median(&times)))
}

/// One timed phase and what the program's instrumentation saw during it.
pub struct Phase {
    pub out: Outcome,
    /// `sdea_obs` and process figures, then the phase's own per-layer
    /// values on top (meaningful only when traced).
    pub layers: BTreeMap<&'static str, f64>,
}

/// Runs one timed phase. Traced, it turns `sdea_obs` and the benchmark's
/// own spans on for exactly this phase; either way the allocator peak is
/// rebased at the start, so `peak_heap_mb` covers this phase alone.
pub fn run_phase(traced: bool, phase: impl FnOnce() -> Outcome) -> Phase {
    sdea_obs::reset();
    sdea_obs::set_enabled(traced);
    trace::set_enabled(traced);
    sdea_obs::mem::reset_peak();
    let before = sdea_obs::mem::stats();
    let cpu0 = layers::cpu_seconds();
    let t0 = Instant::now();
    let mut out = phase();
    let wall = t0.elapsed().as_secs_f64();
    let cpu1 = layers::cpu_seconds();
    let after = sdea_obs::mem::stats();
    sdea_obs::set_enabled(false);
    trace::set_enabled(false);
    let snap = sdea_obs::snapshot();
    out.e2e.entry("peak_heap_mb").or_insert(after.peak_bytes as f64 / 1e6);
    let mut layers = layers::from_obs(&snap, &before, &after, out.attempted);
    if let (Some(a), Some(b)) = (cpu0, cpu1) {
        layers.insert("proc.cpu_util", (b - a) / wall.max(1e-9));
    }
    layers.insert("bench.ops", out.attempted as f64);
    layers.append(&mut out.layer);
    Phase { out, layers }
}

/// Token statistics of the rows a workload encodes: the median row length
/// and the share of the encoder's padded input that is padding,
/// `1 - sum(min(len + 1, max_seq)) / (rows * max_seq)`.
pub fn text_stats(rows: &[Vec<u32>], max_seq: usize) -> (f64, f64) {
    if rows.is_empty() {
        return (0.0, 0.0);
    }
    let lens: Vec<f64> = rows.iter().map(|r| r.len() as f64).collect();
    let used: usize = rows.iter().map(|r| (r.len() + 1).min(max_seq)).sum();
    (median(&lens), 1.0 - used as f64 / (rows.len() * max_seq) as f64)
}

/// Direct timings of single public calls on the workload's own encoder,
/// texts and target table: query tokenization, one- and two-row embeds,
/// and a one-query exact search.
pub fn probes(
    encoder: &AttrModule,
    texts: &[String],
    table: &Tensor,
    layer: &mut BTreeMap<&'static str, f64>,
) {
    trace::set_enabled(true);
    let texts = &texts[..texts.len().min(32)];
    let mut tok_us = Vec::new();
    let mut rows = Vec::new();
    for t in texts {
        let (row, s) = timed("core.tokenize_query", || encoder.tokenize_query(t));
        tok_us.push(s * 1e6);
        rows.push(row);
    }
    let b1: Vec<f64> = rows
        .iter()
        .map(|r| {
            timed("core.embed_b1", || encoder.embed_token_rows(std::slice::from_ref(r))).1 * 1e3
        })
        .collect();
    let b2: Vec<f64> = rows
        .chunks_exact(2)
        .map(|pair| timed("core.embed_b2", || encoder.embed_token_rows(pair)).1 * 1e3)
        .collect();
    let retriever = sdea_index::ExactRetriever::new(table);
    let query = encoder.embed_token_rows(&rows[..1]);
    let search_us: Vec<f64> = (0..texts.len())
        .map(|_| timed("index.search_b1", || retriever.search(&query, 10)).1 * 1e6)
        .collect();
    trace::set_enabled(false);
    layer.insert("core.tokenize_query_us", median(&tok_us));
    layer.insert("core.embed_b1_ms", median(&b1));
    layer.insert("core.embed_b2_ms", median(&b2));
    layer.insert("index.search_b1_us", median(&search_us));
}

/// FNV-1a over the bit patterns of a tensor's values: two tables hash
/// equal only if they are bitwise identical (up to collisions).
pub fn hash_tensors(tables: &[&Tensor]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in tables {
        for d in t.shape() {
            h = (h ^ *d as u64).wrapping_mul(0x0100_0000_01b3);
        }
        for v in t.data() {
            h = (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pad_frac_counts_cls_and_truncation() {
        // lengths 3, 5 and 200 at max_seq 8: 4 + 6 + 8 of 24 slots are real.
        let rows = vec![vec![1; 3], vec![1; 5], vec![1; 200]];
        let (p50, pad) = text_stats(&rows, 8);
        assert_eq!(p50, 5.0);
        assert_eq!(pad, 1.0 - 18.0 / 24.0);
    }

    #[test]
    fn hash_sees_single_bit_changes() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        let b = Tensor::from_vec(vec![1.0, f32::from_bits(2.0f32.to_bits() ^ 1)], &[1, 2]);
        assert_eq!(hash_tensors(&[&a]), hash_tensors(&[&a.clone()]));
        assert_ne!(hash_tensors(&[&a]), hash_tensors(&[&b]));
        assert_ne!(
            hash_tensors(&[&a]),
            hash_tensors(&[&Tensor::from_vec(vec![1.0, 2.0], &[2, 1])])
        );
    }
}
