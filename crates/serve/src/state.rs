//! The immutable model state a server answers queries from.
//!
//! Everything is loaded once at startup — query encoder, target embedding
//! table, entity names — and shared read-only across
//! connection threads. Every load failure is a typed `io::Error` surfaced
//! before the listener binds: a serving process either starts with a
//! complete, validated model or not at all.

use sdea_core::attr_module::AttrModule;
use sdea_index::ExactRetriever;
use std::io;
use std::path::Path;

/// What the batch worker needs: the encoder and the exact retriever over
/// KG2's attribute-embedding table.
pub struct ModelState {
    /// The persisted query encoder (tokenizer + transformer + pooling).
    pub encoder: AttrModule,
    /// Retriever over the KG2 attribute table; hit indices are KG2 rows.
    pub retriever: ExactRetriever,
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
    /// * `index_path` — must be `None`. Persisted retrieval indexes were
    ///   removed, and `Some(_)` is an `InvalidInput` error, returned before
    ///   any file is read. The parameter goes at the next edit of the
    ///   benchmark package, which passes `None`.
    pub fn load(
        dataset_dir: &Path,
        model_path: &Path,
        encoder_path: &Path,
        index_path: Option<&Path>,
    ) -> io::Result<ServeState> {
        if let Some(path) = index_path {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "persisted retrieval indexes were removed; serving always scans exactly \
                     (got index path {})",
                    path.display()
                ),
            ));
        }
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
        let retriever = ExactRetriever::new(&table);
        let names: Vec<String> = (0..kg2.num_entities())
            .map(|i| kg2.entity_name(sdea_kg::EntityId(i as u32)).to_string())
            .collect();
        Ok(ServeState { model: std::sync::Arc::new(ModelState { encoder, retriever }), names })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_index_path_is_rejected_before_any_file_is_read() {
        let missing = Path::new("no/such/dir");
        let err = ServeState::load(missing, missing, missing, Some(Path::new("x.sdix")))
            .err()
            .expect("an index path must be rejected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert!(err.to_string().contains("x.sdix"), "{err}");
    }
}
