//! Crash-safe checkpoint/resume for the two-stage pipeline.
//!
//! ## Layout
//!
//! A checkpoint directory holds one `manifest.sdm` plus the artifact files
//! it references. Every file is a checksummed blob container (see
//! [`sdea_tensor::serialize`]) written atomically, so a crash at any
//! instant leaves the directory describing a consistent earlier state:
//! the manifest is only rewritten *after* the artifacts it points at are
//! durably on disk.
//!
//! * `attr_ep*.ckpt` / `rel_ep*.ckpt` — [`StageState`] snapshots taken at
//!   fine-tuning epoch boundaries (every `checkpoint_every` epochs; the
//!   last two per stage are kept).
//! * `attr_done.ckpt` — the attribute-stage boundary artifact: both `H_a`
//!   tables plus the stage report. Once present, resume skips Algorithm 2
//!   (and the tokenizer/LM build feeding it) entirely.
//! * `train_pairs.ckpt` — the bootstrap-round boundary artifact: the
//!   (possibly augmented) training pair list the relation stage trains on.
//!
//! ## Resume determinism
//!
//! The pipeline derives all four RNG streams from `cfg.seed` in a fixed
//! order, and model construction is deterministic given its stream — so a
//! resumed run only needs the *mid-stage* state a checkpoint captures: the
//! parameter values (restored by name into a freshly rebuilt, identically
//! laid out store), the Adam moments, the consuming stream's RNG state,
//! and the early-stopping bookkeeping. Replaying the remaining epochs from
//! that state is bit-identical to the uninterrupted run at any thread
//! budget (asserted by `tests/checkpoint_resume.rs`).
//!
//! ## Fault tolerance
//!
//! Loads that fail verification quarantine the file (renamed to
//! `<name>.corrupt`, counted in `ckpt.quarantined`) and fall back to the
//! previous record; a checkpoint *write* failure after bounded retries is
//! reported and training continues — a failed checkpoint never kills a
//! healthy run. A manifest whose config fingerprint disagrees with the
//! current run is a hard `InvalidData` error: silently mixing
//! configurations would produce wrong weights.

use crate::attr_module::AttrFitReport;
use crate::config::SdeaConfig;
use crate::rel_module::RelVariant;
use sdea_kg::EntityId;
use sdea_tensor::serialize::{
    atomic_write_retry, blob_payload, blob_to_bytes, read_tensor, store_from_bytes, store_to_bytes,
    write_tensor, WireRead, WireWrite,
};
use sdea_tensor::{ParamStore, Tensor};
use std::io;
use std::path::{Path, PathBuf};

/// Blob kind of the checkpoint manifest.
pub const MANIFEST_KIND: &[u8; 4] = b"SDMF";
/// Blob kind of a [`StageState`] epoch snapshot.
pub const STAGE_KIND: &[u8; 4] = b"SDSS";
/// Blob kind of the attribute-stage boundary artifact.
pub const ATTR_DONE_KIND: &[u8; 4] = b"SDAD";
/// Blob kind of the training-pair (bootstrap boundary) artifact.
pub const PAIRS_KIND: &[u8; 4] = b"SDTP";

/// Which fine-tuning stage a checkpoint belongs to.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Algorithm 2 (attribute-module fine-tuning).
    Attr,
    /// Algorithm 3 (relation-stage training).
    Rel,
}

impl Stage {
    fn prefix(self) -> &'static str {
        match self {
            Stage::Attr => "attr",
            Stage::Rel => "rel",
        }
    }

    /// Fault-injection site name of this stage's epoch-checkpoint write.
    pub fn fault_site(self) -> &'static str {
        match self {
            Stage::Attr => "stage.attr.write",
            Stage::Rel => "stage.rel.write",
        }
    }
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum RecordKind {
    AttrEpoch = 0,
    AttrDone = 1,
    TrainPairs = 2,
    RelEpoch = 3,
}

impl RecordKind {
    fn from_u8(v: u8) -> Option<RecordKind> {
        Some(match v {
            0 => RecordKind::AttrEpoch,
            1 => RecordKind::AttrDone,
            2 => RecordKind::TrainPairs,
            3 => RecordKind::RelEpoch,
            _ => return None,
        })
    }

    fn of_stage(stage: Stage) -> RecordKind {
        match stage {
            Stage::Attr => RecordKind::AttrEpoch,
            Stage::Rel => RecordKind::RelEpoch,
        }
    }
}

#[derive(Clone, Debug)]
struct Record {
    kind: RecordKind,
    epoch: u32,
    file: String,
}

/// Everything a fine-tuning loop needs to continue bit-identically from an
/// epoch boundary. `next_epoch` epochs are already complete; the RNG state
/// is captured *after* the last completed epoch's draws.
pub struct StageState {
    /// First epoch the resumed loop should run.
    pub next_epoch: u32,
    /// State of the stream the loop consumes (shuffles + negatives).
    pub rng: [u64; 4],
    /// Live parameter values (restored into the rebuilt model by name).
    pub store: ParamStore,
    /// Adam step count.
    pub adam_t: u64,
    /// Adam first moments (positional — layouts match because model
    /// construction is deterministic).
    pub adam_m: Vec<Tensor>,
    /// Adam second moments.
    pub adam_v: Vec<Tensor>,
    /// Early-stopping best-weights snapshot (positional).
    pub best_snapshot: Vec<Tensor>,
    /// Best validation Hits@1 so far.
    pub best_hits: f64,
    /// Best mean training loss so far (the no-validation fallback).
    pub best_loss: f64,
    /// Validations without improvement.
    pub strikes: u32,
    /// Per-epoch mean losses so far.
    pub epoch_losses: Vec<f32>,
    /// Per-epoch validation Hits@1 so far.
    pub valid_hits1: Vec<f64>,
    /// Best epoch so far.
    pub best_epoch: u32,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn need(buf: &&[u8], n: usize, what: &str) -> io::Result<()> {
    if buf.remaining() < n {
        return Err(bad(&format!("truncated checkpoint field: {what}")));
    }
    Ok(())
}

fn write_tensor_list(buf: &mut Vec<u8>, ts: &[Tensor]) {
    buf.put_u32_le(ts.len() as u32);
    for t in ts {
        write_tensor(buf, t);
    }
}

fn read_tensor_list(buf: &mut &[u8], what: &str) -> io::Result<Vec<Tensor>> {
    need(buf, 4, what)?;
    let n = buf.get_u32_le() as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(read_tensor(buf)?);
    }
    Ok(out)
}

fn write_report_fields(buf: &mut Vec<u8>, losses: &[f32], hits: &[f64], best_epoch: u32) {
    buf.put_u32_le(losses.len() as u32);
    for &l in losses {
        buf.put_f32_le(l);
    }
    buf.put_u32_le(hits.len() as u32);
    for &h in hits {
        buf.put_f64_le(h);
    }
    buf.put_u32_le(best_epoch);
}

fn read_report_fields(buf: &mut &[u8]) -> io::Result<(Vec<f32>, Vec<f64>, u32)> {
    need(buf, 4, "loss-curve length")?;
    let n = buf.get_u32_le() as usize;
    need(buf, n * 4, "loss curve")?;
    let losses = (0..n).map(|_| buf.get_f32_le()).collect();
    need(buf, 4, "hits-curve length")?;
    let n = buf.get_u32_le() as usize;
    need(buf, n * 8, "hits curve")?;
    let hits = (0..n).map(|_| buf.get_f64_le()).collect();
    need(buf, 4, "best epoch")?;
    Ok((losses, hits, buf.get_u32_le()))
}

fn stage_state_bytes(st: &StageState) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.put_u32_le(st.next_epoch);
    for &s in &st.rng {
        buf.put_u64_le(s);
    }
    let store = store_to_bytes(&st.store);
    buf.put_u64_le(store.len() as u64);
    buf.put_slice(&store);
    buf.put_u64_le(st.adam_t);
    write_tensor_list(&mut buf, &st.adam_m);
    write_tensor_list(&mut buf, &st.adam_v);
    write_tensor_list(&mut buf, &st.best_snapshot);
    buf.put_f64_le(st.best_hits);
    buf.put_f64_le(st.best_loss);
    buf.put_u32_le(st.strikes);
    write_report_fields(&mut buf, &st.epoch_losses, &st.valid_hits1, st.best_epoch);
    blob_to_bytes(STAGE_KIND, &buf)
}

fn stage_state_from_bytes(bytes: &[u8]) -> io::Result<StageState> {
    let mut buf = blob_payload(bytes, STAGE_KIND)?;
    need(&buf, 4 + 32, "epoch + rng state")?;
    let next_epoch = buf.get_u32_le();
    let mut rng = [0u64; 4];
    for s in &mut rng {
        *s = buf.get_u64_le();
    }
    need(&buf, 8, "store length")?;
    let store_len = buf.get_u64_le() as usize;
    need(&buf, store_len, "store blob")?;
    let store = store_from_bytes(&buf[..store_len])?;
    buf = &buf[store_len..];
    need(&buf, 8, "adam step count")?;
    let adam_t = buf.get_u64_le();
    let adam_m = read_tensor_list(&mut buf, "adam m")?;
    let adam_v = read_tensor_list(&mut buf, "adam v")?;
    let best_snapshot = read_tensor_list(&mut buf, "best snapshot")?;
    need(&buf, 8 + 8 + 4, "early-stop state")?;
    let best_hits = buf.get_f64_le();
    let best_loss = buf.get_f64_le();
    let strikes = buf.get_u32_le();
    let (epoch_losses, valid_hits1, best_epoch) = read_report_fields(&mut buf)?;
    Ok(StageState {
        next_epoch,
        rng,
        store,
        adam_t,
        adam_m,
        adam_v,
        best_snapshot,
        best_hits,
        best_loss,
        strikes,
        epoch_losses,
        valid_hits1,
        best_epoch,
    })
}

fn attr_done_bytes(h_a1: &Tensor, h_a2: &Tensor, report: &AttrFitReport) -> Vec<u8> {
    let mut buf = Vec::new();
    write_tensor(&mut buf, h_a1);
    write_tensor(&mut buf, h_a2);
    write_report_fields(
        &mut buf,
        &report.epoch_losses,
        &report.valid_hits1,
        report.best_epoch as u32,
    );
    blob_to_bytes(ATTR_DONE_KIND, &buf)
}

fn attr_done_from_bytes(bytes: &[u8]) -> io::Result<(Tensor, Tensor, AttrFitReport)> {
    let mut buf = blob_payload(bytes, ATTR_DONE_KIND)?;
    let h_a1 = read_tensor(&mut buf)?;
    let h_a2 = read_tensor(&mut buf)?;
    let (epoch_losses, valid_hits1, best_epoch) = read_report_fields(&mut buf)?;
    Ok((h_a1, h_a2, AttrFitReport { epoch_losses, valid_hits1, best_epoch: best_epoch as usize }))
}

fn pairs_bytes(pairs: &[(EntityId, EntityId)]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + pairs.len() * 8);
    buf.put_u32_le(pairs.len() as u32);
    for &(a, b) in pairs {
        buf.put_u32_le(a.0);
        buf.put_u32_le(b.0);
    }
    blob_to_bytes(PAIRS_KIND, &buf)
}

fn pairs_from_bytes(bytes: &[u8]) -> io::Result<Vec<(EntityId, EntityId)>> {
    let mut buf = blob_payload(bytes, PAIRS_KIND)?;
    need(&buf, 4, "pair count")?;
    let n = buf.get_u32_le() as usize;
    need(&buf, n * 8, "pair list")?;
    Ok((0..n).map(|_| (EntityId(buf.get_u32_le()), EntityId(buf.get_u32_le()))).collect())
}

/// FNV-1a 64 fingerprint of everything that shapes the computation: every
/// hyper-parameter except execution knobs (`threads`, `obs`, and the
/// checkpoint fields themselves — results are identical across those), the
/// ablation variant, the dataset dimensions, and the bootstrap threshold.
/// A manifest written under a different fingerprint must not be resumed.
pub fn config_fingerprint(
    cfg: &SdeaConfig,
    variant: RelVariant,
    dims: (usize, usize),
    split_sizes: (usize, usize),
    bootstrap_threshold: Option<f32>,
) -> u64 {
    // The canonical string is a persisted format: an existing checkpoint
    // directory resumes only while it hashes the same. Its `ix…` tail is a
    // removed retrieval option at its exact-search values, the only ones
    // left, so it stays as a literal.
    let canon = format!(
        "v={:?};n1={};n2={};tr={};va={};boot={:?};vb={};lh={};ll={};lhd={};lf={};ms={};ed={};me={};\
         mc={};mb={};mlr={:08x};mg={:08x};ae={};ab={};alr={:08x};re={};rb={};rlr={:08x};nc={};pa={};\
         mn={};dr={:08x};po={:?};nz={};seed={};ix=Exact;ixl=0;ixp=0;ixq=false",
        variant,
        dims.0,
        dims.1,
        split_sizes.0,
        split_sizes.1,
        bootstrap_threshold.map(f32::to_bits),
        cfg.vocab_budget,
        cfg.lm_hidden,
        cfg.lm_layers,
        cfg.lm_heads,
        cfg.lm_ffn,
        cfg.max_seq,
        cfg.embed_dim,
        cfg.mlm_epochs,
        cfg.mlm_corpus_cap,
        cfg.mlm_batch,
        cfg.mlm_lr.to_bits(),
        cfg.margin.to_bits(),
        cfg.attr_epochs,
        cfg.attr_batch,
        cfg.attr_lr.to_bits(),
        cfg.rel_epochs,
        cfg.rel_batch,
        cfg.rel_lr.to_bits(),
        cfg.n_candidates,
        cfg.patience,
        cfg.max_neighbors,
        cfg.dropout.to_bits(),
        cfg.pooling,
        cfg.normalize_embeddings,
        cfg.seed,
    );
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in canon.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Manages a checkpoint directory: the manifest, its artifact files, and
/// the quarantine-and-fall-back load path.
#[derive(Debug)]
pub struct Checkpointer {
    dir: PathBuf,
    fingerprint: u64,
    records: Vec<Record>,
    every: usize,
}

/// Epoch checkpoints kept per stage (the newest, plus one fallback).
const KEEP_PER_STAGE: usize = 2;

impl Checkpointer {
    /// Opens (or initializes) a checkpoint directory. A well-formed
    /// existing manifest resumes; a corrupt one is quarantined and the run
    /// starts fresh; a manifest written under a different
    /// [`config_fingerprint`] is an `InvalidData` error.
    pub fn open(dir: impl Into<PathBuf>, fingerprint: u64, every: usize) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut me = Checkpointer { dir, fingerprint, records: Vec::new(), every };
        let path = me.manifest_path();
        if path.exists() {
            match me.load_manifest(&path) {
                Ok(records) => {
                    if !records.is_empty() {
                        sdea_obs::add("ckpt.resumes", 1);
                    }
                    me.records = records;
                }
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    if e.to_string().contains("fingerprint") {
                        return Err(e);
                    }
                    quarantine(&path);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(me)
    }

    /// Epochs between mid-stage checkpoints (0 = stage boundaries only).
    pub fn every(&self) -> usize {
        self.every
    }

    /// Whether epoch `epoch` (0-based, just completed) should checkpoint.
    pub fn due(&self, epoch: usize) -> bool {
        self.every > 0 && (epoch + 1).is_multiple_of(self.every)
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("manifest.sdm")
    }

    fn load_manifest(&self, path: &Path) -> io::Result<Vec<Record>> {
        let bytes = std::fs::read(path)?;
        let mut buf = blob_payload(&bytes, MANIFEST_KIND)?;
        need(&buf, 8 + 4, "manifest header")?;
        let fp = buf.get_u64_le();
        if fp != self.fingerprint {
            return Err(bad(&format!(
                "checkpoint fingerprint mismatch: directory {} was written by a run with a \
                 different configuration/dataset (found {fp:#018x}, expected {:#018x}); \
                 point --resume at a matching checkpoint or use a fresh directory",
                self.dir.display(),
                self.fingerprint
            )));
        }
        let n = buf.get_u32_le() as usize;
        let mut records = Vec::with_capacity(n);
        for _ in 0..n {
            need(&buf, 1 + 4 + 4, "manifest record")?;
            let kind = RecordKind::from_u8(buf.get_u8())
                .ok_or_else(|| bad("unknown manifest record kind"))?;
            let epoch = buf.get_u32_le();
            let name_len = buf.get_u32_le() as usize;
            need(&buf, name_len, "manifest record name")?;
            let mut name = vec![0u8; name_len];
            buf.copy_to_slice(&mut name);
            let file =
                String::from_utf8(name).map_err(|_| bad("manifest file name is not UTF-8"))?;
            records.push(Record { kind, epoch, file });
        }
        Ok(records)
    }

    fn write_manifest(&self) -> io::Result<()> {
        let mut buf = Vec::new();
        buf.put_u64_le(self.fingerprint);
        buf.put_u32_le(self.records.len() as u32);
        for r in &self.records {
            buf.put_u8(r.kind as u8);
            buf.put_u32_le(r.epoch);
            buf.put_u32_le(r.file.len() as u32);
            buf.put_slice(r.file.as_bytes());
        }
        atomic_write_retry(
            self.manifest_path(),
            &blob_to_bytes(MANIFEST_KIND, &buf),
            "manifest.write",
        )
    }

    /// Commits `record` after its file landed: appends it, drops `prune`d
    /// records from the manifest, persists the manifest, and only then
    /// deletes the pruned files (a crash in between leaves orphans, never
    /// dangling references).
    fn commit(&mut self, record: Record, prune: impl Fn(&Record) -> bool) -> io::Result<()> {
        let mut pruned: Vec<Record> = Vec::new();
        self.records.retain(|r| {
            let drop = prune(r);
            if drop {
                pruned.push(r.clone());
            }
            !drop
        });
        self.records.push(record);
        self.write_manifest()?;
        for r in pruned {
            let _ = std::fs::remove_file(self.dir.join(&r.file));
        }
        Ok(())
    }

    /// Writes a [`StageState`] epoch checkpoint and commits it, keeping the
    /// last [`KEEP_PER_STAGE`] per stage.
    pub fn record_stage_epoch(&mut self, stage: Stage, state: &StageState) -> io::Result<()> {
        let _span = sdea_obs::span("ckpt.stage_write");
        let file = format!("{}_ep{:05}.ckpt", stage.prefix(), state.next_epoch);
        atomic_write_retry(self.dir.join(&file), &stage_state_bytes(state), stage.fault_site())?;
        sdea_obs::add("ckpt.stage_writes", 1);
        let kind = RecordKind::of_stage(stage);
        let keep: Vec<String> = self
            .records
            .iter()
            .filter(|r| r.kind == kind)
            .rev()
            .take(KEEP_PER_STAGE - 1)
            .map(|r| r.file.clone())
            .collect();
        self.commit(Record { kind, epoch: state.next_epoch, file }, |r| {
            r.kind == kind && !keep.contains(&r.file)
        })
    }

    /// Writes the attribute-stage boundary artifact; the stage's epoch
    /// checkpoints are obsolete afterwards and are pruned with it.
    pub fn record_attr_done(
        &mut self,
        h_a1: &Tensor,
        h_a2: &Tensor,
        report: &AttrFitReport,
    ) -> io::Result<()> {
        let file = "attr_done.ckpt".to_string();
        atomic_write_retry(
            self.dir.join(&file),
            &attr_done_bytes(h_a1, h_a2, report),
            "artifact.write",
        )?;
        self.commit(Record { kind: RecordKind::AttrDone, epoch: 0, file }, |r| {
            matches!(r.kind, RecordKind::AttrEpoch | RecordKind::AttrDone)
        })
    }

    /// Writes the bootstrap-boundary training-pair artifact.
    pub fn record_train_pairs(&mut self, pairs: &[(EntityId, EntityId)]) -> io::Result<()> {
        let file = "train_pairs.ckpt".to_string();
        atomic_write_retry(self.dir.join(&file), &pairs_bytes(pairs), "artifact.write")?;
        self.commit(Record { kind: RecordKind::TrainPairs, epoch: 0, file }, |r| {
            r.kind == RecordKind::TrainPairs
        })
    }

    /// Loads a record's file through `parse`, walking same-kind records
    /// newest-first and quarantining any file that fails verification.
    fn load_latest<T>(
        &mut self,
        kind: RecordKind,
        parse: impl Fn(&[u8]) -> io::Result<T>,
    ) -> Option<T> {
        loop {
            let idx = self.records.iter().rposition(|r| r.kind == kind)?;
            let path = self.dir.join(&self.records[idx].file);
            match std::fs::read(&path).and_then(|bytes| parse(&bytes)) {
                Ok(v) => {
                    sdea_obs::add("ckpt.loads", 1);
                    return Some(v);
                }
                Err(e) => {
                    eprintln!(
                        "checkpoint {} failed verification ({e}); quarantining and falling back",
                        path.display()
                    );
                    quarantine(&path);
                    self.records.remove(idx);
                }
            }
        }
    }

    /// Latest loadable [`StageState`] of `stage`, if any.
    pub fn latest_stage_state(&mut self, stage: Stage) -> Option<StageState> {
        let _span = sdea_obs::span("ckpt.stage_load");
        self.load_latest(RecordKind::of_stage(stage), stage_state_from_bytes)
    }

    /// The attribute-stage boundary artifact, if present and intact.
    pub fn attr_done(&mut self) -> Option<(Tensor, Tensor, AttrFitReport)> {
        self.load_latest(RecordKind::AttrDone, attr_done_from_bytes)
    }

    /// The bootstrap-boundary training pairs, if present and intact.
    pub fn train_pairs(&mut self) -> Option<Vec<(EntityId, EntityId)>> {
        self.load_latest(RecordKind::TrainPairs, pairs_from_bytes)
    }
}

/// Renames a failed file to `<name>.corrupt` (best-effort) so it is never
/// read again but stays available for postmortem.
fn quarantine(path: &Path) {
    sdea_obs::add("ckpt.quarantined", 1);
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".corrupt");
    let _ = std::fs::rename(path, path.with_file_name(name));
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdea_tensor::Rng;

    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sdea_ckpt_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fake_state(seed: u64, next_epoch: u32) -> StageState {
        let mut rng = Rng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        store.add("a.w", Tensor::rand_normal(&[3, 4], 1.0, &mut rng));
        store.add_frozen("a.b", Tensor::rand_normal(&[4], 1.0, &mut rng));
        let m = vec![Tensor::rand_normal(&[3, 4], 0.1, &mut rng), Tensor::zeros(&[4])];
        let v = vec![Tensor::rand_normal(&[3, 4], 0.1, &mut rng), Tensor::zeros(&[4])];
        let snap = store.snapshot();
        StageState {
            next_epoch,
            rng: rng.state(),
            store,
            adam_t: 17,
            adam_m: m,
            adam_v: v,
            best_snapshot: snap,
            best_hits: 0.25,
            best_loss: 0.75,
            strikes: 2,
            epoch_losses: vec![0.9, 0.7],
            valid_hits1: vec![0.1, 0.25],
            best_epoch: 1,
        }
    }

    #[test]
    fn stage_state_round_trip_is_exact() {
        let st = fake_state(1, 2);
        let back = stage_state_from_bytes(&stage_state_bytes(&st)).unwrap();
        assert_eq!(back.next_epoch, st.next_epoch);
        assert_eq!(back.rng, st.rng);
        assert_eq!(back.store.snapshot(), st.store.snapshot());
        assert_eq!(back.store.name(sdea_tensor::ParamId(0)), "a.w");
        assert!(!back.store.is_trainable(sdea_tensor::ParamId(1)));
        assert_eq!(back.adam_t, st.adam_t);
        assert_eq!(back.adam_m, st.adam_m);
        assert_eq!(back.adam_v, st.adam_v);
        assert_eq!(back.best_snapshot, st.best_snapshot);
        assert_eq!(back.best_hits, st.best_hits);
        assert_eq!(back.best_loss, st.best_loss);
        assert_eq!(back.strikes, st.strikes);
        assert_eq!(back.epoch_losses, st.epoch_losses);
        assert_eq!(back.valid_hits1, st.valid_hits1);
        assert_eq!(back.best_epoch, st.best_epoch);
    }

    #[test]
    fn artifacts_round_trip() {
        let mut rng = Rng::seed_from_u64(2);
        let h1 = Tensor::rand_normal(&[5, 4], 1.0, &mut rng);
        let h2 = Tensor::rand_normal(&[6, 4], 1.0, &mut rng);
        let report =
            AttrFitReport { epoch_losses: vec![0.5], valid_hits1: vec![0.3], best_epoch: 0 };
        let attr_bytes = attr_done_bytes(&h1, &h2, &report);
        assert_eq!(&attr_bytes[..4], ATTR_DONE_KIND, "boundary artifact carries its kind");
        let (b1, b2, br) = attr_done_from_bytes(&attr_bytes).unwrap();
        assert_eq!(b1, h1);
        assert_eq!(b2, h2);
        assert_eq!(br.epoch_losses, report.epoch_losses);
        assert_eq!(br.valid_hits1, report.valid_hits1);

        let pairs = vec![(EntityId(0), EntityId(3)), (EntityId(9), EntityId(1))];
        let pb = pairs_bytes(&pairs);
        assert_eq!(&pb[..4], PAIRS_KIND, "pair artifact carries its kind");
        assert_eq!(pairs_from_bytes(&pb).unwrap(), pairs);
    }

    #[test]
    fn manifest_round_trip_and_pruning() {
        let dir = test_dir("manifest");
        let mut c = Checkpointer::open(&dir, 42, 1).unwrap();
        for ep in 1..=4u32 {
            c.record_stage_epoch(Stage::Rel, &fake_state(ep as u64, ep)).unwrap();
        }
        // Only the last KEEP_PER_STAGE records (and files) survive.
        let rel: Vec<u32> =
            c.records.iter().filter(|r| r.kind == RecordKind::RelEpoch).map(|r| r.epoch).collect();
        assert_eq!(rel, vec![3, 4]);
        assert!(!dir.join("rel_ep00001.ckpt").exists());
        assert!(dir.join("rel_ep00004.ckpt").exists());

        // A re-opened checkpointer sees the same records and loads the
        // newest state.
        let mut c2 = Checkpointer::open(&dir, 42, 1).unwrap();
        let st = c2.latest_stage_state(Stage::Rel).unwrap();
        assert_eq!(st.next_epoch, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_mismatch_is_invalid_data() {
        let dir = test_dir("fp");
        let mut c = Checkpointer::open(&dir, 1, 1).unwrap();
        c.record_train_pairs(&[(EntityId(0), EntityId(0))]).unwrap();
        let err = Checkpointer::open(&dir, 2, 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("fingerprint"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_epoch_checkpoint_quarantines_and_falls_back() {
        let dir = test_dir("fallback");
        let mut c = Checkpointer::open(&dir, 7, 1).unwrap();
        c.record_stage_epoch(Stage::Rel, &fake_state(1, 1)).unwrap();
        c.record_stage_epoch(Stage::Rel, &fake_state(2, 2)).unwrap();
        // Corrupt the newest file on disk.
        let newest = dir.join("rel_ep00002.ckpt");
        let mut bytes = std::fs::read(&newest).unwrap();
        assert_eq!(&bytes[..4], STAGE_KIND, "epoch snapshot carries its kind");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&newest, &bytes).unwrap();

        let mut c2 = Checkpointer::open(&dir, 7, 1).unwrap();
        let st = c2.latest_stage_state(Stage::Rel).unwrap();
        assert_eq!(st.next_epoch, 1, "fell back to the previous good checkpoint");
        assert!(dir.join("rel_ep00002.ckpt.corrupt").exists(), "corrupt file quarantined");
        assert!(!newest.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_quarantines_and_starts_fresh() {
        let dir = test_dir("badman");
        let mut c = Checkpointer::open(&dir, 7, 1).unwrap();
        c.record_train_pairs(&[(EntityId(1), EntityId(2))]).unwrap();
        let manifest = dir.join("manifest.sdm");
        let mut bytes = std::fs::read(&manifest).unwrap();
        assert_eq!(&bytes[..4], MANIFEST_KIND, "manifest carries its kind");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&manifest, &bytes).unwrap();

        let mut c2 = Checkpointer::open(&dir, 7, 1).unwrap();
        assert!(c2.train_pairs().is_none(), "fresh start after quarantine");
        assert!(dir.join("manifest.sdm.corrupt").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every single-byte corruption of a stage checkpoint is rejected with
    /// `InvalidData` — the property-level acceptance criterion, at the
    /// checkpoint (not just store) layer.
    #[test]
    fn any_byte_flip_in_stage_state_is_rejected() {
        let bytes = stage_state_bytes(&fake_state(3, 5));
        // Exhaustive over the header + stride through the payload (full
        // exhaustive is covered for stores in sdea-tensor).
        let positions = (0..bytes.len().min(64)).chain((64..bytes.len()).step_by(97));
        for i in positions {
            let mut c = bytes.clone();
            c[i] ^= 0x01;
            match stage_state_from_bytes(&c) {
                Ok(_) => panic!("flip at byte {i} accepted"),
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "byte {i}"),
            }
        }
    }

    #[test]
    fn fingerprint_separates_configs_and_ignores_execution_knobs() {
        let cfg = SdeaConfig::test_tiny();
        let base = config_fingerprint(&cfg, RelVariant::Full, (10, 10), (4, 2), None);
        let mut other = cfg.clone();
        other.rel_lr *= 2.0;
        assert_ne!(base, config_fingerprint(&other, RelVariant::Full, (10, 10), (4, 2), None));
        assert_ne!(base, config_fingerprint(&cfg, RelVariant::NoGru, (10, 10), (4, 2), None));
        assert_ne!(base, config_fingerprint(&cfg, RelVariant::Full, (11, 10), (4, 2), None));
        assert_ne!(base, config_fingerprint(&cfg, RelVariant::Full, (10, 10), (4, 2), Some(0.9)));
        let mut knobs = cfg.clone();
        knobs.threads = 8;
        knobs.obs = false;
        knobs.checkpoint_every = 5;
        knobs.checkpoint_dir = Some("elsewhere".into());
        assert_eq!(base, config_fingerprint(&knobs, RelVariant::Full, (10, 10), (4, 2), None));
    }

    /// The fingerprint decides whether an existing checkpoint directory is
    /// resumed, so its value for a given config is a persisted format:
    /// these literals were written by earlier releases and must not move.
    #[test]
    fn fingerprint_values_are_pinned() {
        let fp =
            |cfg: &SdeaConfig| config_fingerprint(cfg, RelVariant::Full, (10, 10), (4, 2), None);
        assert_eq!(fp(&SdeaConfig::default()), 0x58cb_c079_181b_fbcc);
        assert_eq!(fp(&SdeaConfig::test_tiny()), 0x43a9_6a82_924a_a2bc);
    }
}
