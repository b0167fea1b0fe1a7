//! Inputs every workload shares: generated worlds on disk in the OpenEA
//! layout, the trained fixture model, and the sizes of each run.

use crate::trace::timed;
use sdea_core::{AttrModule, SdeaConfig, SdeaModel, SdeaPipeline};
use sdea_kg::{AlignmentSeeds, KnowledgeGraph};
use sdea_synth::{DatasetProfile, GeneratedDataset};
use std::io;
use std::path::Path;

/// The fixture model is trained on one pinned world, so every seed serves
/// and bulk-aligns with the same encoder and only the traffic and the
/// unseen world vary with the seed.
pub const FIXTURE_SEED: u64 = 2022;

/// How big a run is. `--smoke` shrinks every workload to seconds.
pub struct Sizes {
    /// ZH-EN links of each training world.
    pub train_links: usize,
    /// Attribute and relation epochs of a training job. Both stay at or
    /// below the default early-stopping patience (5), so every job trains
    /// exactly this many epochs and job time does not depend on when
    /// validation stops improving.
    pub train_epochs: (usize, usize),
    /// ZH-EN links of the fixture world.
    pub fixture_links: usize,
    /// ZH-EN links of the bulk-alignment world before scaling, and the
    /// scale factor.
    pub bulk_links: usize,
    pub bulk_scale: usize,
}

impl Sizes {
    pub fn new(smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                train_links: 60,
                train_epochs: (1, 1),
                fixture_links: 60,
                bulk_links: 100,
                bulk_scale: 1,
            }
        } else {
            Sizes {
                train_links: 150,
                train_epochs: (3, 5),
                fixture_links: 150,
                bulk_links: 300,
                bulk_scale: 3,
            }
        }
    }
}

/// A world as `sdea align` reads it from disk.
pub struct World {
    pub kg1: KnowledgeGraph,
    pub kg2: KnowledgeGraph,
    pub seeds: AlignmentSeeds,
}

/// Writes a generated dataset in the OpenEA layout (`sdea generate`).
pub fn save_world(ds: &GeneratedDataset, dir: &Path) -> io::Result<()> {
    use sdea_kg::io::{save_kg, save_links};
    std::fs::create_dir_all(dir)?;
    save_kg(ds.kg1(), &dir.join("rel_triples_1"), &dir.join("attr_triples_1"))?;
    save_kg(ds.kg2(), &dir.join("rel_triples_2"), &dir.join("attr_triples_2"))?;
    save_links(&ds.seeds, ds.kg1(), ds.kg2(), &dir.join("ent_links"))
}

/// Reads a world written by [`save_world`] (what `sdea align <dir>` does).
pub fn load_world(dir: &Path) -> io::Result<World> {
    use sdea_kg::io::{load_kg, load_links};
    let kg1 = load_kg(&dir.join("rel_triples_1"), &dir.join("attr_triples_1"))?;
    let kg2 = load_kg(&dir.join("rel_triples_2"), &dir.join("attr_triples_2"))?;
    let seeds = load_links(&kg1, &kg2, &dir.join("ent_links"))?;
    Ok(World { kg1, kg2, seeds })
}

/// The pre-training corpus `sdea align` builds: every attribute value of
/// both graphs.
pub fn corpus(kg1: &KnowledgeGraph, kg2: &KnowledgeGraph) -> Vec<String> {
    kg1.attr_triples().iter().chain(kg2.attr_triples()).map(|t| t.value.clone()).collect()
}

/// The trained fixture: its world, embedding tables and query encoder.
pub struct Fixture {
    pub ds: GeneratedDataset,
    pub model: SdeaModel,
    pub encoder: AttrModule,
    pub generate_s: f64,
    pub train_s: f64,
}

/// Trains the fixture: the default configuration cut to one attribute and
/// one relation epoch, on the pinned ZH-EN world.
pub fn train_fixture(sizes: &Sizes) -> Result<Fixture, String> {
    let profile = DatasetProfile::dbp15k_zh_en(sizes.fixture_links, FIXTURE_SEED);
    let (ds, generate_s) = timed("synth.generate", || sdea_synth::generate(&profile));
    let mut rng = sdea_tensor::Rng::seed_from_u64(FIXTURE_SEED);
    let split = ds.seeds.split_paper(&mut rng);
    let corpus = corpus(ds.kg1(), ds.kg2());
    let cfg =
        SdeaConfig { seed: FIXTURE_SEED, attr_epochs: 1, rel_epochs: 1, ..SdeaConfig::default() };
    let pipeline = SdeaPipeline {
        kg1: ds.kg1(),
        kg2: ds.kg2(),
        split: &split,
        corpus: &corpus,
        cfg,
        variant: sdea_core::rel_module::RelVariant::Full,
    };
    let (model, train_s) = timed("core.fixture_train", || pipeline.try_run());
    let mut model = model.map_err(|e| format!("fixture training failed: {e}"))?;
    let encoder = model.attr_module.take().ok_or("fixture training produced no encoder")?;
    Ok(Fixture { ds, model, encoder, generate_s, train_s })
}
