//! Models and seeded inputs.
//!
//! Sentences come from `deept_data::sentiment::generate` over the same
//! vocabulary each model was trained on (the vocabulary is the first thing
//! the generator draws, so it depends only on the corpus seed). The
//! benchmark seed picks sentences, positions, radii and norms; only
//! sentences the model classifies correctly are used.

use std::collections::BTreeMap;
use std::path::Path;

use deept_core::PNorm;
use deept_data::sentiment::Example;
use deept_nn::TransformerClassifier;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A model file of the repository and the corpus seed of its vocabulary.
#[derive(Debug, Clone, Copy)]
pub struct ModelSpec {
    pub id: &'static str,
    pub file: &'static str,
    /// Raw model JSON (`true`) or a `deept-checkpoint-v1` envelope.
    pub raw: bool,
    pub corpus_seed: u64,
    /// Reference radius per norm (ℓ1, ℓ2, ℓ∞): about the median certified
    /// DeepT-Fast radius, measured once. Query radii and search brackets
    /// are set from it, and `radius_mean` is expressed in it, so that
    /// radii of different norms and models weigh alike.
    pub radius: [f64; 3],
}

impl ModelSpec {
    pub fn radius_scale(&self, p: PNorm) -> f64 {
        self.radius[NORMS.iter().position(|&n| n == p).expect("known norm")]
    }
}

/// 4 layers, embedding 16, standard layer norm: the reference shape.
pub const M4_STD: ModelSpec = ModelSpec {
    id: "m4",
    file: "artifacts/models/sst_m4_base_std_quick.json",
    raw: true,
    corpus_seed: 101,
    radius: [0.004, 0.002, 0.0005],
};
/// 1 layer, embedding 32, hidden 128, trained.
pub const M1_WIDE: ModelSpec = ModelSpec {
    id: "m1w",
    file: "artifacts/models/sst_m1_wide_nostd_quick.json",
    raw: true,
    corpus_seed: 101,
    radius: [0.8, 0.8, 0.11],
};
/// 2 layers, embedding 32, hidden 128, trained.
pub const M2_WIDE: ModelSpec = ModelSpec {
    id: "m2w",
    file: "artifacts/models/sst_m2_wide_nostd_quick.json",
    raw: true,
    corpus_seed: 101,
    radius: [0.35, 0.15, 0.035],
};
/// Loads a model through the program's own loaders.
pub fn load_model(root: &Path, spec: &ModelSpec) -> Result<TransformerClassifier, String> {
    let path = root.join(spec.file);
    if spec.raw {
        deept_nn::io::load_json(&path).map_err(|e| format!("{}: {e}", path.display()))
    } else {
        deept_nn::checkpoint::load::<TransformerClassifier>(&path)
            .map(|c| c.model)
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Sentences the generator draws for a model's corpus, bucketed by length.
/// The first 1200 draws (the model's own train/test split) are skipped.
pub struct SentencePool {
    by_len: BTreeMap<usize, Vec<Example>>,
}

impl SentencePool {
    pub fn new(model: &TransformerClassifier, corpus_seed: u64) -> Self {
        let mut spec = deept_data::sentiment::sst_spec();
        spec.train = 5200;
        spec.test = 0;
        spec.max_len = spec.max_len.min(model.config.max_len);
        let ds = deept_data::sentiment::generate(spec, &mut ChaCha8Rng::seed_from_u64(corpus_seed));
        let mut seen = std::collections::BTreeSet::new();
        let mut by_len: BTreeMap<usize, Vec<Example>> = BTreeMap::new();
        for ex in ds.train.into_iter().skip(1200) {
            if seen.insert(ex.0.clone()) {
                by_len.entry(ex.0.len()).or_default().push(ex);
            }
        }
        SentencePool { by_len }
    }

    /// Every sentence of length `len`, in a seeded order.
    pub fn shuffled(&self, len: usize, rng: &mut ChaCha8Rng) -> Vec<Example> {
        let mut v = self.by_len.get(&len).cloned().unwrap_or_default();
        v.shuffle(rng);
        v
    }

    /// Seeded draw of `n` distinct, correctly classified sentences of
    /// length `len`. Draws come from a per-call shuffle, so callers that
    /// need sentences distinct across lengths get them for free.
    pub fn draw(
        &self,
        model: &TransformerClassifier,
        len: usize,
        n: usize,
        rng: &mut ChaCha8Rng,
    ) -> Vec<Example> {
        let mut cands: Vec<&Example> = self
            .by_len
            .get(&len)
            .map(|v| v.iter().collect())
            .unwrap_or_default();
        cands.shuffle(rng);
        cands
            .into_iter()
            .filter(|(t, l)| model.predict(t) == *l)
            .take(n)
            .cloned()
            .collect()
    }
}

pub const NORMS: [PNorm; 3] = [PNorm::L1, PNorm::L2, PNorm::Linf];

pub fn norm_name(p: PNorm) -> &'static str {
    match p {
        PNorm::L1 => "l1",
        PNorm::L2 => "l2",
        PNorm::Linf => "linf",
    }
}

/// Query radii as multiples of a model's typical certified radius; each
/// operation class cycles through all of them.
pub const EPS_MULTS: [f64; 6] = [0.2, 0.35, 0.5, 0.7, 0.9, 1.2];

/// A perturbed position in stratum `class` (mod 3): the first token, the
/// first half of the others, or the second half. The first token feeds the
/// pooled embedding, so its radii differ most; cycling the strata keeps
/// the position mix fixed across seeds.
pub fn position_in(class: usize, len: usize, rng: &mut ChaCha8Rng) -> usize {
    let half = ((len - 1) / 2).max(1);
    match class % 3 {
        0 => 0,
        1 => rng.gen_range(1..=half),
        _ => rng.gen_range((half + 1).min(len - 1)..len),
    }
}
