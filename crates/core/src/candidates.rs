//! Candidate generation (`GenCandidates` in Algorithms 2 and 3): for each
//! source entity, the top-k most similar target entities under the current
//! embeddings. Negatives sampled from this set are *hard* negatives, which
//! is what makes the margin loss effective.

use sdea_index::{build_retriever, IndexConfig, Retriever};
use sdea_kg::EntityId;
use sdea_tensor::{Rng, Tensor};

/// Top-k candidate lists for a set of source entities.
#[derive(Clone, Debug)]
pub struct CandidateSet {
    /// `candidates[i]` = target entity ids ranked by similarity.
    lists: Vec<Vec<EntityId>>,
    /// Source ids in the same order as `lists`.
    sources: Vec<EntityId>,
    index_of: std::collections::HashMap<EntityId, usize>,
}

impl CandidateSet {
    /// Builds candidate lists from embeddings with the default (exact)
    /// retrieval backend — the top-`k` columns of each row of
    /// `cosine_matrix(src_emb, tgt_emb)`, bit for bit.
    ///
    /// `src_emb`: `[n_src, d]` embeddings of `sources`;
    /// `tgt_emb`: `[n_tgt, d]` embeddings of ALL target entities (row = id).
    pub fn generate(sources: &[EntityId], src_emb: &Tensor, tgt_emb: &Tensor, k: usize) -> Self {
        Self::generate_with(sources, src_emb, tgt_emb, k, &IndexConfig::default())
    }

    /// [`CandidateSet::generate`] through the retrieval backend selected by
    /// `index` (`SdeaConfig::index`): exact, or IVF with an optional int8
    /// quantized member scan.
    pub fn generate_with(
        sources: &[EntityId],
        src_emb: &Tensor,
        tgt_emb: &Tensor,
        k: usize,
        index: &IndexConfig,
    ) -> Self {
        let retr = build_retriever(tgt_emb, index);
        Self::from_retriever(sources, src_emb, retr.as_ref(), k)
    }

    /// Builds candidate lists from an already-built [`Retriever`] over the
    /// target table (row = entity id), for callers that amortize one index
    /// across many candidate generations.
    pub fn from_retriever(
        sources: &[EntityId],
        src_emb: &Tensor,
        retr: &dyn Retriever,
        k: usize,
    ) -> Self {
        assert_eq!(src_emb.shape()[0], sources.len());
        let _span = sdea_obs::span("candidates.generate");
        let lists = retr
            .search(src_emb, k)
            .into_iter()
            .map(|row| row.into_iter().map(|(j, _)| EntityId(j as u32)).collect())
            .collect();
        let index_of = sources.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        CandidateSet { lists, sources: sources.to_vec(), index_of }
    }

    /// The candidate list of a source entity.
    pub fn of(&self, source: EntityId) -> &[EntityId] {
        &self.lists[self.index_of[&source]]
    }

    /// Samples a negative for `(source, gold)`: a random candidate of
    /// `source` that is not `gold` (Algorithm 2 line 6). Falls back to a
    /// uniformly random target when every candidate equals the gold.
    ///
    /// Degenerate case: when the target side has at most one entity there
    /// is no entity other than the gold to draw, so the gold itself is
    /// returned (its margin-loss contribution is zero) and the
    /// `candidates.no_negative` warning counter is incremented — the
    /// uniform-fallback loop would otherwise rejection-sample forever.
    pub fn sample_negative(
        &self,
        source: EntityId,
        gold: EntityId,
        n_targets: usize,
        rng: &mut Rng,
    ) -> EntityId {
        let list = self.of(source);
        // Rejection-sample directly against the candidate slice — candidate
        // lists rarely contain the gold more than once, so this terminates
        // in one or two draws without allocating a filtered copy.
        if list.iter().any(|&c| c != gold) {
            loop {
                let c = *rng.choose(list);
                if c != gold {
                    return c;
                }
            }
        }
        if n_targets <= 1 {
            sdea_obs::add("candidates.no_negative", 1);
            return gold;
        }
        loop {
            let c = EntityId(rng.below(n_targets) as u32);
            if c != gold {
                return c;
            }
        }
    }

    /// The sources covered by this set.
    pub fn sources(&self) -> &[EntityId] {
        &self.sources
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emb(rows: &[[f32; 2]]) -> Tensor {
        Tensor::from_vec(rows.iter().flatten().copied().collect(), &[rows.len(), 2])
    }

    #[test]
    fn candidates_ranked_by_similarity() {
        let sources = vec![EntityId(0)];
        let src = emb(&[[1.0, 0.0]]);
        let tgt = emb(&[[0.0, 1.0], [1.0, 0.1], [1.0, 0.0]]);
        let cs = CandidateSet::generate(&sources, &src, &tgt, 2);
        assert_eq!(cs.of(EntityId(0)), &[EntityId(2), EntityId(1)]);
    }

    #[test]
    fn negative_never_equals_gold() {
        let sources = vec![EntityId(5)];
        let src = emb(&[[1.0, 0.0]]);
        let tgt = emb(&[[1.0, 0.0], [0.9, 0.1], [0.8, 0.0]]);
        let cs = CandidateSet::generate(&sources, &src, &tgt, 3);
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..50 {
            let neg = cs.sample_negative(EntityId(5), EntityId(0), 3, &mut rng);
            assert_ne!(neg, EntityId(0));
        }
    }

    /// Regression: `n_targets == 1` with the sole target being the gold
    /// used to spin forever in the uniform-fallback loop (`below(1)` only
    /// ever returns 0). The degenerate guard must terminate and return the
    /// gold, since no true negative exists.
    #[test]
    fn single_target_equal_to_gold_terminates() {
        let sources = vec![EntityId(0)];
        let src = emb(&[[1.0, 0.0]]);
        let tgt = emb(&[[1.0, 0.0]]);
        let cs = CandidateSet::generate(&sources, &src, &tgt, 3);
        let mut rng = Rng::seed_from_u64(3);
        let neg = cs.sample_negative(EntityId(0), EntityId(0), 1, &mut rng);
        assert_eq!(neg, EntityId(0), "degenerate case must return the gold");
    }

    #[test]
    fn fallback_when_all_candidates_are_gold() {
        let sources = vec![EntityId(0)];
        let src = emb(&[[1.0, 0.0]]);
        let tgt = emb(&[[1.0, 0.0], [0.0, 1.0]]);
        let cs = CandidateSet::generate(&sources, &src, &tgt, 1);
        // Only candidate is the gold; must fall back to the other target.
        let mut rng = Rng::seed_from_u64(2);
        let neg = cs.sample_negative(EntityId(0), EntityId(0), 2, &mut rng);
        assert_eq!(neg, EntityId(1));
    }
}
