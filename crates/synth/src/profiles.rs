//! Per-benchmark dataset profiles.
//!
//! Each profile fixes the two sides' [`DerivationSpec`]s so that the
//! generated pair reproduces the *phenomena* the paper attributes to that
//! benchmark (Section V-A1, Tables I and VI):
//!
//! | family  | density     | long tails | names across KGs            |
//! |---------|-------------|-----------|------------------------------|
//! | DBP15K  | dense       | few       | ZH/JA ciphered, FR near-literal |
//! | SRPRS   | sparse      | many      | literal (well-aligned)       |
//! | OpenEA D-W | sparse, disjoint facts | many | unalignable (Q-ids)  |
//!
//! Scale: datasets are generated at 1/10 of the originals (1 500 links for
//! the 15K sets, 10 000 for the 100K set) so a full table regenerates on a
//! laptop CPU in minutes. DESIGN.md documents this substitution.

use crate::derive::{derive_kg, DerivationSpec, GeneratedKg, PartitionSpec};
use crate::language::{Lang, SchemaDialect, ValueFormat};
use crate::world::{EntityKind, World, WorldConfig};
use sdea_kg::AlignmentSeeds;

/// Which benchmark a profile belongs to.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BenchmarkFamily {
    /// DBP15K (dense multilingual DBpedia).
    Dbp15k,
    /// SRPRS (sparse, realistic degree distribution).
    Srprs,
    /// OpenEA V1 (sparse + unalignable names).
    OpenEa,
}

/// A dataset recipe.
#[derive(Clone, Debug)]
pub struct DatasetProfile {
    /// Dataset name as in the paper (e.g. `ZH-EN`).
    pub name: &'static str,
    /// Benchmark family.
    pub family: BenchmarkFamily,
    /// Target number of alignment links.
    pub n_links: usize,
    /// Spec of KG1.
    pub spec1: DerivationSpec,
    /// Spec of KG2.
    pub spec2: DerivationSpec,
    /// Master seed.
    pub seed: u64,
}

/// A generated dataset: two KGs plus ground-truth links.
#[derive(Clone, Debug)]
pub struct GeneratedDataset {
    /// Dataset name.
    pub name: &'static str,
    /// Benchmark family.
    pub family: BenchmarkFamily,
    /// First KG with world mapping.
    pub gen1: GeneratedKg,
    /// Second KG with world mapping.
    pub gen2: GeneratedKg,
    /// Ground-truth seed links.
    pub seeds: AlignmentSeeds,
    /// Kind of each world entity (indexed by world id).
    pub world_kinds: Vec<EntityKind>,
}

impl GeneratedDataset {
    /// Convenience: the first KG.
    pub fn kg1(&self) -> &sdea_kg::KnowledgeGraph {
        &self.gen1.kg
    }

    /// Convenience: the second KG.
    pub fn kg2(&self) -> &sdea_kg::KnowledgeGraph {
        &self.gen2.kg
    }
}

fn dense_spec(
    lang: Lang,
    dialect: SchemaDialect,
    format: ValueFormat,
    seed: u64,
) -> DerivationSpec {
    DerivationSpec {
        lang,
        dialect,
        format,
        entity_keep: 0.97,
        rel_keep: 0.92,
        rel_partition: None,
        attr_keep: 0.92,
        name_attr_prob: 0.95,
        comment_prob: 0.85,
        long_tail_frac: 0.04,
        qid_names: false,
        date_year_only: 0.10,
        seed,
    }
}

fn sparse_spec(
    lang: Lang,
    dialect: SchemaDialect,
    format: ValueFormat,
    seed: u64,
) -> DerivationSpec {
    DerivationSpec {
        lang,
        dialect,
        format,
        entity_keep: 0.97,
        rel_keep: 0.38,
        rel_partition: None,
        attr_keep: 0.75,
        name_attr_prob: 0.92,
        comment_prob: 0.70,
        long_tail_frac: 0.30,
        qid_names: false,
        date_year_only: 0.20,
        seed,
    }
}

fn openea_spec(
    lang: Lang,
    dialect: SchemaDialect,
    format: ValueFormat,
    side: u8,
    qid: bool,
    seed: u64,
) -> DerivationSpec {
    DerivationSpec {
        lang,
        dialect,
        format,
        entity_keep: 0.97,
        rel_keep: 0.55,
        rel_partition: Some(PartitionSpec { side, shared: 0.04 }),
        attr_keep: 0.80,
        name_attr_prob: if qid { 0.0 } else { 0.92 },
        comment_prob: 0.55,
        long_tail_frac: 0.25,
        qid_names: qid,
        date_year_only: 0.45,
        seed,
    }
}

impl DatasetProfile {
    /// DBP15K ZH-EN.
    pub fn dbp15k_zh_en(n_links: usize, seed: u64) -> Self {
        DatasetProfile {
            name: "ZH-EN",
            family: BenchmarkFamily::Dbp15k,
            n_links,
            spec1: dense_spec(
                Lang::Zh,
                SchemaDialect::Alt,
                ValueFormat::DottedMetric,
                seed * 31 + 1,
            ),
            spec2: dense_spec(Lang::En, SchemaDialect::Dbp, ValueFormat::IsoCm, seed * 31 + 2),
            seed,
        }
    }

    /// DBP15K JA-EN.
    pub fn dbp15k_ja_en(n_links: usize, seed: u64) -> Self {
        DatasetProfile {
            name: "JA-EN",
            family: BenchmarkFamily::Dbp15k,
            n_links,
            spec1: dense_spec(
                Lang::Ja,
                SchemaDialect::Alt,
                ValueFormat::DottedMetric,
                seed * 31 + 3,
            ),
            spec2: dense_spec(Lang::En, SchemaDialect::Dbp, ValueFormat::IsoCm, seed * 31 + 4),
            seed: seed + 1,
        }
    }

    /// DBP15K FR-EN.
    pub fn dbp15k_fr_en(n_links: usize, seed: u64) -> Self {
        DatasetProfile {
            name: "FR-EN",
            family: BenchmarkFamily::Dbp15k,
            n_links,
            spec1: dense_spec(
                Lang::Fr,
                SchemaDialect::Alt,
                ValueFormat::DottedMetric,
                seed * 31 + 5,
            ),
            spec2: dense_spec(Lang::En, SchemaDialect::Dbp, ValueFormat::IsoCm, seed * 31 + 6),
            seed: seed + 2,
        }
    }

    /// SRPRS EN-FR.
    pub fn srprs_en_fr(n_links: usize, seed: u64) -> Self {
        DatasetProfile {
            name: "EN-FR",
            family: BenchmarkFamily::Srprs,
            n_links,
            spec1: sparse_spec(Lang::En, SchemaDialect::Dbp, ValueFormat::IsoCm, seed * 31 + 7),
            spec2: sparse_spec(
                Lang::Fr,
                SchemaDialect::Alt,
                ValueFormat::DottedMetric,
                seed * 31 + 8,
            ),
            seed: seed + 3,
        }
    }

    /// SRPRS EN-DE.
    pub fn srprs_en_de(n_links: usize, seed: u64) -> Self {
        DatasetProfile {
            name: "EN-DE",
            family: BenchmarkFamily::Srprs,
            n_links,
            spec1: sparse_spec(Lang::En, SchemaDialect::Dbp, ValueFormat::IsoCm, seed * 31 + 9),
            spec2: sparse_spec(
                Lang::De,
                SchemaDialect::Alt,
                ValueFormat::DottedMetric,
                seed * 31 + 10,
            ),
            seed: seed + 4,
        }
    }

    /// SRPRS DBP-WD (monolingual; WD ids replaced by names per the paper).
    pub fn srprs_dbp_wd(n_links: usize, seed: u64) -> Self {
        DatasetProfile {
            name: "DBP-WD",
            family: BenchmarkFamily::Srprs,
            n_links,
            spec1: sparse_spec(Lang::En, SchemaDialect::Dbp, ValueFormat::IsoCm, seed * 31 + 11),
            spec2: sparse_spec(
                Lang::En,
                SchemaDialect::Alt,
                ValueFormat::DottedMetric,
                seed * 31 + 12,
            ),
            seed: seed + 5,
        }
    }

    /// SRPRS DBP-YG (YAGO side is attribute-poor).
    pub fn srprs_dbp_yg(n_links: usize, seed: u64) -> Self {
        let mut yg =
            sparse_spec(Lang::En, SchemaDialect::Alt, ValueFormat::DottedMetric, seed * 31 + 14);
        // YAGO: 21 attributes, ~1.5 attr triples per entity in Table I.
        yg.attr_keep = 0.15;
        yg.comment_prob = 0.25;
        DatasetProfile {
            name: "DBP-YG",
            family: BenchmarkFamily::Srprs,
            n_links,
            spec1: sparse_spec(Lang::En, SchemaDialect::Dbp, ValueFormat::IsoCm, seed * 31 + 13),
            spec2: yg,
            seed: seed + 6,
        }
    }

    /// OpenEA D_W_15K_V1 (default scale) / D_W_100K_V1 (larger `n_links`).
    pub fn openea_d_w(n_links: usize, seed: u64) -> Self {
        DatasetProfile {
            name: if n_links > 5000 { "D_W_100K_V1" } else { "D_W_15K_V1" },
            family: BenchmarkFamily::OpenEa,
            n_links,
            spec1: openea_spec(
                Lang::En,
                SchemaDialect::Dbp,
                ValueFormat::IsoCm,
                0,
                false,
                seed * 31 + 15,
            ),
            spec2: openea_spec(
                Lang::WdId,
                SchemaDialect::Alt,
                ValueFormat::DottedMetric,
                1,
                true,
                seed * 31 + 16,
            ),
            seed: seed + 7,
        }
    }

    /// Grows the profile `factor`× by multiplying its link target.
    /// [`generate`] oversizes the world proportionally to `n_links`, so
    /// entity and triple counts scale near-linearly while every
    /// distributional phenomenon the profile encodes (density, long tails,
    /// name formats) is preserved — the knob behind the `--scale` CLI flag
    /// and the memory scaling benchmark. `factor = 1` is the
    /// identity; determinism is unchanged (same seed ⇒ same bytes).
    pub fn scaled(mut self, factor: usize) -> Self {
        assert!(factor >= 1, "scale factor must be >= 1");
        self.n_links *= factor;
        self
    }

    /// All nine datasets of the paper at reproduction scale.
    pub fn all_paper_datasets(seed: u64) -> Vec<DatasetProfile> {
        vec![
            Self::dbp15k_zh_en(1500, seed),
            Self::dbp15k_ja_en(1500, seed),
            Self::dbp15k_fr_en(1500, seed),
            Self::srprs_en_fr(1500, seed),
            Self::srprs_en_de(1500, seed),
            Self::srprs_dbp_wd(1500, seed),
            Self::srprs_dbp_yg(1500, seed),
            Self::openea_d_w(1500, seed),
            Self::openea_d_w(10_000, seed),
        ]
    }
}

/// Generates a dataset from a profile.
pub fn generate(profile: &DatasetProfile) -> GeneratedDataset {
    // Oversize the world so that after presence sampling both sides still
    // share >= n_links alignable entities.
    let keep = profile.spec1.entity_keep * profile.spec2.entity_keep;
    let n_core = ((profile.n_links as f64) / keep * 1.12).ceil() as usize;
    let world = World::generate(WorldConfig { n_core, seed: profile.seed });
    let gen1 = derive_kg(&world, &profile.spec1);
    let gen2 = derive_kg(&world, &profile.spec2);
    // Ground truth: world entities (non-concept) present in both sides.
    let mut pairs = Vec::new();
    for wid in world.alignable() {
        if let (Some(&e1), Some(&e2)) =
            (gen1.entity_of_world.get(&wid), gen2.entity_of_world.get(&wid))
        {
            pairs.push((e1, e2));
        }
    }
    pairs.truncate(profile.n_links);
    let world_kinds = world.entities.iter().map(|e| e.kind).collect();
    GeneratedDataset {
        name: profile.name,
        family: profile.family,
        gen1,
        gen2,
        seeds: AlignmentSeeds::new(pairs),
        world_kinds,
    }
}

/// Fraction of seed pairs whose two entities share at least one aligned
/// neighbour pair — the quantity behind the paper's D-W error analysis
/// ("99.6% of the to-be-aligned entities in the test set have no matching
/// neighbors").
pub fn matching_neighbor_fraction(ds: &GeneratedDataset) -> f64 {
    use std::collections::HashSet;
    let mut have = 0usize;
    for &(e1, e2) in &ds.seeds.pairs {
        let n1: HashSet<usize> = ds
            .gen1
            .kg
            .neighbors(e1)
            .iter()
            .map(|&(n, _, _)| ds.gen1.world_of[n.0 as usize])
            .collect();
        let shared = ds.gen2.kg.neighbors(e2).iter().any(|&(n, _, _)| {
            let w = ds.gen2.world_of[n.0 as usize];
            // Concept hubs match trivially; the paper counts informative
            // (specific-entity) matches.
            n1.contains(&w) && ds.world_kinds[w] != EntityKind::Concept
        });
        if shared {
            have += 1;
        }
    }
    have as f64 / ds.seeds.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdea_kg::DegreeBuckets;

    #[test]
    fn small_dataset_generates_with_requested_links() {
        let p = DatasetProfile::dbp15k_zh_en(150, 3);
        let ds = generate(&p);
        assert_eq!(ds.seeds.len(), 150);
        assert!(ds.kg1().num_entities() >= 150);
        assert!(ds.kg2().num_entities() >= 150);
    }

    #[test]
    fn seeds_reference_valid_entities() {
        let ds = generate(&DatasetProfile::srprs_en_fr(120, 5));
        for &(e1, e2) in &ds.seeds.pairs {
            assert!((e1.0 as usize) < ds.kg1().num_entities());
            assert!((e2.0 as usize) < ds.kg2().num_entities());
        }
    }

    #[test]
    fn seeds_are_bijective() {
        let ds = generate(&DatasetProfile::dbp15k_fr_en(200, 7));
        let lefts: std::collections::HashSet<_> = ds.seeds.pairs.iter().map(|p| p.0).collect();
        let rights: std::collections::HashSet<_> = ds.seeds.pairs.iter().map(|p| p.1).collect();
        assert_eq!(lefts.len(), ds.seeds.len());
        assert_eq!(rights.len(), ds.seeds.len());
    }

    #[test]
    fn seeds_map_same_world_entity() {
        let ds = generate(&DatasetProfile::openea_d_w(150, 9));
        for &(e1, e2) in &ds.seeds.pairs {
            assert_eq!(
                ds.gen1.world_of[e1.0 as usize], ds.gen2.world_of[e2.0 as usize],
                "seed pair must denote the same world entity"
            );
        }
    }

    #[test]
    fn srprs_is_sparser_than_dbp15k() {
        let dense = generate(&DatasetProfile::dbp15k_zh_en(300, 11));
        let sparse = generate(&DatasetProfile::srprs_en_fr(300, 11));
        let d_dense = DegreeBuckets::of_pair(dense.kg1(), dense.kg2());
        let d_sparse = DegreeBuckets::of_pair(sparse.kg1(), sparse.kg2());
        assert!(
            d_sparse.upto3 > d_dense.upto3 + 0.15,
            "SRPRS 1..3 fraction {:.2} should exceed DBP15K {:.2} (Table VI shape)",
            d_sparse.upto3,
            d_dense.upto3
        );
        assert!(d_sparse.mean_degree < d_dense.mean_degree);
    }

    #[test]
    fn openea_w_side_has_qid_names() {
        let ds = generate(&DatasetProfile::openea_d_w(150, 13));
        let qids =
            ds.gen2.kg.entities().filter(|&e| ds.gen2.kg.entity_name(e).starts_with('Q')).count();
        assert!(qids * 10 >= ds.kg2().num_entities() * 8, "most W names are Q-ids");
        // and the name attribute is absent on the W side
        let has_label =
            ds.gen2.kg.attr_triples().iter().any(|t| ds.gen2.kg.attribute_name(t.attr) == "label");
        assert!(!has_label, "W side must not expose readable names");
    }

    #[test]
    fn openea_has_few_matching_neighbors() {
        let open = generate(&DatasetProfile::openea_d_w(300, 17));
        let dense = generate(&DatasetProfile::dbp15k_zh_en(300, 17));
        let f_open = matching_neighbor_fraction(&open);
        let f_dense = matching_neighbor_fraction(&dense);
        assert!(
            f_open < f_dense * 0.6,
            "OpenEA matching-neighbor fraction {f_open:.2} should be far below DBP15K {f_dense:.2}"
        );
    }

    #[test]
    fn all_paper_datasets_enumerate_nine() {
        let all = DatasetProfile::all_paper_datasets(1);
        assert_eq!(all.len(), 9);
        let names: Vec<&str> = all.iter().map(|p| p.name).collect();
        assert!(names.contains(&"ZH-EN"));
        assert!(names.contains(&"DBP-YG"));
        assert!(names.contains(&"D_W_100K_V1"));
    }

    #[test]
    fn generation_is_deterministic() {
        let p = DatasetProfile::srprs_dbp_yg(100, 21);
        let a = generate(&p);
        let b = generate(&p);
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.kg1().rel_triples(), b.kg1().rel_triples());
        assert_eq!(a.kg2().attr_triples(), b.kg2().attr_triples());
    }

    #[test]
    fn scaled_profile_roughly_doubles_entities_at_2x() {
        let base = DatasetProfile::dbp15k_zh_en(150, 3);
        let ds1 = generate(&base);
        let ds2 = generate(&DatasetProfile::dbp15k_zh_en(150, 3).scaled(2));
        assert_eq!(ds2.seeds.len(), 300, "2x scale doubles the link target exactly");
        for (n1, n2) in [
            (ds1.kg1().num_entities(), ds2.kg1().num_entities()),
            (ds1.kg2().num_entities(), ds2.kg2().num_entities()),
        ] {
            let ratio = n2 as f64 / n1 as f64;
            assert!(
                (1.7..=2.3).contains(&ratio),
                "entities should ~double at 2x scale, got {n1} -> {n2} (ratio {ratio:.2})"
            );
        }
    }

    #[test]
    fn scaled_generation_is_deterministic() {
        let a = generate(&DatasetProfile::srprs_en_fr(80, 21).scaled(3));
        let b = generate(&DatasetProfile::srprs_en_fr(80, 21).scaled(3));
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.kg1().rel_triples(), b.kg1().rel_triples());
        assert_eq!(a.kg1().attr_triples(), b.kg1().attr_triples());
        assert_eq!(a.kg2().rel_triples(), b.kg2().rel_triples());
        assert_eq!(a.kg2().attr_triples(), b.kg2().attr_triples());
    }

    #[test]
    fn yg_side_is_attribute_poor() {
        let ds = generate(&DatasetProfile::srprs_dbp_yg(300, 23));
        let per_entity_1 = ds.kg1().attr_triples().len() as f64 / ds.kg1().num_entities() as f64;
        let per_entity_2 = ds.kg2().attr_triples().len() as f64 / ds.kg2().num_entities() as f64;
        assert!(
            per_entity_2 < per_entity_1 * 0.6,
            "YG side {per_entity_2:.2} attrs/entity vs DBP {per_entity_1:.2}"
        );
    }
}
