//! The immutable model state a server answers queries from.
//!
//! Everything is loaded once at startup — query encoder, target embedding
//! table, retrieval index, entity names — and shared read-only across
//! connection threads. Every load failure is a typed `io::Error` surfaced
//! before the listener binds: a serving process either starts with a
//! complete, validated model or not at all.

use sdea_core::attr_module::AttrModule;
use sdea_index::{IndexConfig, IndexKind, IvfRetriever, Retriever};
use sdea_tensor::Tensor;
use std::io;
use std::path::Path;

/// What the batch worker needs: the encoder and the index over KG2's
/// attribute-embedding table.
pub struct ModelState {
    /// The persisted query encoder (tokenizer + transformer + pooling).
    pub encoder: AttrModule,
    /// Index over the KG2 attribute table; hit indices are KG2 rows.
    pub retriever: Box<dyn Retriever>,
}

/// [`ModelState`] plus presentation data for responses.
pub struct ServeState {
    /// Shared with the batch worker.
    pub model: std::sync::Arc<ModelState>,
    /// KG2 entity names, row-aligned with the indexed table.
    pub names: Vec<String>,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl ServeState {
    /// Loads everything the server needs:
    ///
    /// * `dataset_dir` — OpenEA-layout directory; only KG2 entity names
    ///   are used, to label candidates.
    /// * `model_path` — tables from `sdea align --out`; serving ranks in
    ///   the attribute space (`h_a2`), the space queries embed into.
    /// * `encoder_path` — query encoder from `sdea align --encoder-out`.
    /// * `index_path` — optional persisted `SDIX` index; loaded when it
    ///   matches, (re)built and saved when absent or stale. `None` scans
    ///   exactly without touching disk.
    pub fn load(
        dataset_dir: &Path,
        model_path: &Path,
        encoder_path: &Path,
        index_path: Option<&Path>,
    ) -> io::Result<ServeState> {
        let kg2 = sdea_kg::io::load_kg(
            &dataset_dir.join("rel_triples_2"),
            &dataset_dir.join("attr_triples_2"),
        )?;
        let model = sdea_core::model_io::load_model(model_path)?;
        let encoder = sdea_core::encoder_io::load_encoder(encoder_path)?;
        let table = model.h_a2;
        if kg2.num_entities() != table.shape()[0] {
            return Err(invalid(format!(
                "dataset/model mismatch: KG2 has {} entities but the model table has {} rows",
                kg2.num_entities(),
                table.shape()[0]
            )));
        }
        let d = encoder.config().embed_dim;
        if table.shape()[1] != d {
            return Err(invalid(format!(
                "encoder/model mismatch: encoder embeds into {d} dims but the table is {} wide",
                table.shape()[1]
            )));
        }
        let retriever = build_index(&table, index_path)?;
        let names: Vec<String> = (0..kg2.num_entities())
            .map(|i| kg2.entity_name(sdea_kg::EntityId(i as u32)).to_string())
            .collect();
        Ok(ServeState { model: std::sync::Arc::new(ModelState { encoder, retriever }), names })
    }
}

/// IVF with `nprobe = 0` probes every cluster, so the persisted index
/// returns bit-identical scores to the exact scan — serving gets the
/// warm-start of a saved index without an accuracy knob to misconfigure.
fn build_index(table: &Tensor, index_path: Option<&Path>) -> io::Result<Box<dyn Retriever>> {
    match index_path {
        None => Ok(Box::new(sdea_index::ExactRetriever::new(table))),
        Some(path) => {
            let cfg = IndexConfig { kind: IndexKind::Ivf, ..IndexConfig::default() };
            Ok(Box::new(IvfRetriever::load_or_build(path, table, &cfg)?))
        }
    }
}
