//! Seeded operation schedules for `serve-fresh`.

use std::collections::{BTreeSet, HashMap};

use deept_core::PNorm;
use deept_data::sentiment::Example;
use deept_nn::TransformerClassifier;
use deept_serve::protocol::{CertifyRequest, RadiusSearchSpec};
use deept_verifier::VerifiableTransformer;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::inputs::{self, ModelSpec, SentencePool};
use crate::loadgen::Op;

/// A model as the benchmark holds it in process, next to the server's copy.
pub(crate) struct Loaded {
    pub(crate) spec: ModelSpec,
    pub(crate) model: TransformerClassifier,
    pub(crate) net: VerifiableTransformer,
    pub(crate) pool: SentencePool,
}

/// Draws distinct, correctly classified sentences per (model, length).
pub(crate) struct Picker<'a> {
    models: &'a [Loaded],
    shuffled: HashMap<(usize, usize), Vec<Example>>,
    used: BTreeSet<Vec<usize>>,
}

impl<'a> Picker<'a> {
    pub(crate) fn new(models: &'a [Loaded], rng: &mut ChaCha8Rng) -> Self {
        let mut shuffled = HashMap::new();
        for (m, l) in models.iter().enumerate() {
            for len in 4..=l.model.config.max_len {
                shuffled.insert((m, len), l.pool.shuffled(len, rng));
            }
        }
        Picker {
            models,
            shuffled,
            used: BTreeSet::new(),
        }
    }

    fn pick(&mut self, model: usize, len: usize) -> Result<(Vec<usize>, usize), String> {
        let list = self
            .shuffled
            .get_mut(&(model, len))
            .ok_or_else(|| format!("no sentences of length {len}"))?;
        let model = &self.models[model].model;
        while let Some(s) = list.pop() {
            if model.predict(&s.0) == s.1 && self.used.insert(s.0.clone()) {
                return Ok(s);
            }
        }
        Err(format!("ran out of distinct sentences of length {len}"))
    }
}

fn eps_request(
    models: &[Loaded],
    m: usize,
    tokens: &[usize],
    position: usize,
    p: PNorm,
    variant: &str,
    eps: f64,
) -> CertifyRequest {
    CertifyRequest {
        model_id: models[m].spec.id.to_string(),
        tokens: tokens.to_vec(),
        position,
        norm: inputs::norm_name(p).to_string(),
        variant: variant.to_string(),
        eps: Some(eps),
        radius_search: None,
        synonyms: None,
        deadline_ms: None,
        trace: false,
    }
}

fn radius_request(
    models: &[Loaded],
    m: usize,
    tokens: &[usize],
    position: usize,
    p: PNorm,
    iters: usize,
) -> CertifyRequest {
    CertifyRequest {
        eps: None,
        radius_search: Some(RadiusSearchSpec {
            start: 2.0 * models[m].spec.radius_scale(p),
            iters,
        }),
        ..eps_request(models, m, tokens, position, p, "fast", 0.0)
    }
}

/// One class of fresh operations: model, variant, lengths cycled through,
/// and whether it is a radius search.
pub(crate) struct FreshClass {
    model: usize,
    variant: &'static str,
    pub(crate) lengths: &'static [usize],
    radius: bool,
}

/// The classes of fresh operations, indexed by `FRESH_ORDER`.
pub(crate) const FRESH_CLASSES: &[FreshClass] = &[
    FreshClass {
        model: 0,
        variant: "fast",
        lengths: &[4, 5, 6, 7, 8, 9, 10],
        radius: false,
    },
    FreshClass {
        model: 1,
        variant: "fast",
        lengths: &[4, 5, 6, 7, 8, 9, 10],
        radius: false,
    },
    FreshClass {
        model: 0,
        variant: "combined",
        lengths: &[4, 6, 8],
        radius: false,
    },
    FreshClass {
        model: 0,
        variant: "precise",
        lengths: &[5, 7],
        radius: false,
    },
    FreshClass {
        model: 1,
        variant: "combined",
        lengths: &[4, 5],
        radius: false,
    },
    FreshClass {
        model: 1,
        variant: "precise",
        lengths: &[4, 5],
        radius: false,
    },
    FreshClass {
        model: 0,
        variant: "fast",
        lengths: &[4, 5, 6, 7, 8],
        radius: true,
    },
];

/// One block of sixteen fresh operations, as indices into `FRESH_CLASSES`:
/// on the 1-layer model 3 Fast, 2 Combined, 2 Precise and 3 radius
/// searches, on the 2-layer model 4 Fast, 1 Combined and 1 Precise. The
/// order is fixed, with the costly operations (2-layer Combined and
/// Precise, radius searches) spread apart, so that which operations queue
/// behind which does not change with the seed; the seed picks only what
/// each operation asks.
pub(crate) const FRESH_ORDER: [usize; 16] = [5, 0, 1, 6, 2, 1, 3, 6, 4, 0, 1, 2, 6, 3, 1, 0];

/// What a class's `k`-th operation looks like. Every nine consecutive
/// operations cover each (norm, position stratum) pair once, in a seeded
/// order; lengths and radius multiples cycle in seeded orders of their own.
/// So the mix is nearly exact within a run and within each capacity block,
/// whatever the seed.
pub(crate) struct Plan {
    lengths: Vec<usize>,
    mults: Vec<f64>,
    seed: u64,
}

impl Plan {
    pub(crate) fn new(lengths: &[usize], rng: &mut ChaCha8Rng) -> Plan {
        let mut lengths = lengths.to_vec();
        lengths.shuffle(rng);
        let mut mults = inputs::EPS_MULTS.to_vec();
        mults.shuffle(rng);
        Plan {
            lengths,
            mults,
            seed: rng.gen(),
        }
    }

    fn at(&self, k: usize) -> (usize, PNorm, usize, f64) {
        let mut block: Vec<usize> = (0..9).collect();
        block.shuffle(&mut ChaCha8Rng::seed_from_u64(self.seed ^ (k / 9) as u64));
        let cell = block[k % 9];
        let l = self.lengths.len();
        (
            self.lengths[k % l],
            inputs::NORMS[cell % 3],
            cell / 3,
            self.mults[(k / l) % self.mults.len()],
        )
    }
}

/// Fresh traffic: evenly spaced arrivals; every operation has its own
/// sentence, position, radius and norm.
fn fresh_ops(
    models: &[Loaded],
    picker: &mut Picker<'_>,
    rng: &mut ChaCha8Rng,
    qps: f64,
    secs: f64,
    plans: &[Plan],
    counters: &mut [usize],
) -> Result<Vec<Op>, String> {
    let n = (qps * secs).round() as usize;
    let mut ops = Vec::with_capacity(n);
    for i in 0..n {
        let c = FRESH_ORDER[i % FRESH_ORDER.len()];
        let class = &FRESH_CLASSES[c];
        let (len, p, stratum, mult) = plans[c].at(counters[c]);
        counters[c] += 1;
        let (tokens, _) = picker.pick(class.model, len)?;
        let position = inputs::position_in(stratum, len, rng);
        let req = if class.radius {
            radius_request(models, class.model, &tokens, position, p, 6)
        } else {
            let eps = mult * models[class.model].spec.radius_scale(p);
            eps_request(
                models,
                class.model,
                &tokens,
                position,
                p,
                class.variant,
                eps,
            )
        };
        ops.push(Op {
            due: i as f64 / qps,
            conn: i,
            req,
        });
    }
    Ok(ops)
}

pub(crate) struct Traffic<'a> {
    pub(crate) picker: Picker<'a>,
    pub(crate) rng: ChaCha8Rng,
    pub(crate) plans: Vec<Plan>,
    pub(crate) counters: Vec<usize>,
}

impl Traffic<'_> {
    pub(crate) fn ops(
        &mut self,
        models: &[Loaded],
        qps: f64,
        secs: f64,
    ) -> Result<Vec<Op>, String> {
        fresh_ops(
            models,
            &mut self.picker,
            &mut self.rng,
            qps,
            secs,
            &self.plans,
            &mut self.counters,
        )
    }
}
