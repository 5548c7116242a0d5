//! Differential containment: concrete executions versus abstract states.
//!
//! The harness propagates a T1 input region through the abstract verifier
//! once, capturing the zonotope after every encoder layer plus the final
//! logits via a [`ZonotopeObserver`]. It then samples concrete perturbed
//! embeddings inside the same ℓp ball, runs them through the *concrete*
//! network layer by layer, and checks that each intermediate activation sits
//! inside the corresponding zonotope's interval bounds. Any escape is a
//! soundness violation in some abstract transformer between the two stages.

use deept_core::PNorm;
use deept_core::Zonotope;
use deept_nn::transformer::TransformerClassifier;
use deept_telemetry::NoopProbe;
use deept_tensor::Matrix;
use deept_verifier::deept::{propagate_batch, DeepTConfig, Member, ZonotopeObserver};
use deept_verifier::network::{t1_region, VerifiableTransformer};
use rand::Rng;

/// A concrete activation that escaped its abstract state.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainmentViolation {
    /// Which abstract state was escaped: `"input"`, `"layer i"` or
    /// `"logits"`.
    pub stage: String,
    /// Flat variable index (row-major) inside the stage.
    pub index: usize,
    /// The concrete value.
    pub value: f64,
    /// Abstract interval lower bound at that variable.
    pub lo: f64,
    /// Abstract interval upper bound at that variable.
    pub hi: f64,
    /// How far outside the interval the value lies (beyond tolerance).
    pub excess: f64,
}

/// Collects the per-stage zonotopes of one propagation.
#[derive(Default)]
pub struct SnapshotCollector {
    /// The input region.
    pub input: Option<Zonotope>,
    /// Abstract state after each encoder layer, in order.
    pub layers: Vec<Zonotope>,
    /// The final logits zonotope.
    pub logits: Option<Zonotope>,
}

impl ZonotopeObserver for SnapshotCollector {
    fn input(&mut self, _member: usize, z: &Zonotope) {
        self.input = Some(z.clone());
    }

    fn layer_output(&mut self, _member: usize, i: usize, z: &Zonotope) {
        debug_assert_eq!(i, self.layers.len(), "layers must arrive in order");
        self.layers.push(z.clone());
    }

    fn logits(&mut self, _member: usize, z: &Zonotope) {
        self.logits = Some(z.clone());
    }
}

/// Tolerance for concrete-vs-abstract comparisons: the abstract transformers
/// are sound in real arithmetic, but the concrete forward pass and the
/// abstract bound computation round differently, so containment only holds
/// up to accumulated floating-point noise. Matches the slack used by the
/// verifier's own propagation tests.
fn tol(v: f64) -> f64 {
    1e-7 * (1.0 + v.abs())
}

fn check_stage(stage: &str, z: &Zonotope, concrete: &Matrix, out: &mut Vec<ContainmentViolation>) {
    let (lo, hi) = z.bounds();
    for (k, &v) in concrete.as_slice().iter().enumerate() {
        // NaN bounds (poisoned abstract state) fail closed upstream; the
        // comparisons below are false for NaN so they never flag here.
        let (l, h) = (lo[k], hi[k]);
        let t = tol(v);
        if v < l - t || v > h + t {
            let excess = (l - v).max(v - h) - t;
            out.push(ContainmentViolation {
                stage: stage.to_string(),
                index: k,
                value: v,
                lo: l,
                hi: h,
                excess,
            });
        }
    }
}

/// Runs the differential containment harness on one certification instance.
///
/// Samples `samples` concrete perturbed embeddings inside the ℓp ball of
/// `radius` around the embedding of `tokens` at `position` (alternating
/// interior and extreme-point noise), executes each through the concrete
/// encoder layer by layer, and compares every intermediate activation and
/// the final logits against the abstract states captured from one
/// deadline-free [`propagate_batch`] run. Returns all violations found.
#[allow(clippy::too_many_arguments)]
pub fn check_containment(
    model: &TransformerClassifier,
    tokens: &[usize],
    position: usize,
    radius: f64,
    p: PNorm,
    cfg: &DeepTConfig,
    samples: usize,
    rng: &mut impl Rng,
) -> Vec<ContainmentViolation> {
    let net = VerifiableTransformer::from(model);
    let emb = model.embed(tokens);
    let region = t1_region(&emb, position, radius, p);
    let mut snaps = SnapshotCollector::default();
    let _ = propagate_batch(&net, &[Member::new(&region)], cfg, &NoopProbe, &mut snaps);
    let input = snaps
        .input
        .as_ref()
        .expect("propagation always snapshots its input");

    let mut violations = Vec::new();
    for s in 0..samples {
        // Half the samples sit at extreme points of the noise region, where
        // inward-rounded bounds are most likely to be escaped.
        let (phi, eps) = if s % 2 == 0 {
            region.sample_noise(rng)
        } else {
            region.sample_extreme_noise(rng)
        };
        let x0 = Matrix::from_vec(emb.rows(), emb.cols(), region.evaluate(&phi, &eps))
            .expect("evaluate yields rows*cols values");
        check_stage("input", input, &x0, &mut violations);
        let mut x = x0;
        for (i, (layer, z)) in net.layers.iter().zip(&snaps.layers).enumerate() {
            x = layer.forward(&x, net.layer_norm, net.head_dim);
            check_stage(&format!("layer {i}"), z, &x, &mut violations);
            if z.has_non_finite() {
                // The verifier failed closed at this layer (unbounded
                // logits); deeper snapshots are placeholders.
                return violations;
            }
        }
        let logits = model.classify(&x);
        if let Some(z) = &snaps.logits {
            check_stage("logits", z, &logits, &mut violations);
        }
    }
    violations
}
