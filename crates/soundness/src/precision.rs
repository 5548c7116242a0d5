//! Precision nesting: `f32` generator storage must only widen bounds.
//!
//! `DEEPT_PREC=f32` compresses ε generator blocks to `f32` with outward
//! error accounting — round-to-nearest plus a fresh slack symbol for
//! existing coefficients, round-away-from-zero for fresh appends, and an
//! `n·ε` widening of the ℓ1 row scans. Every individual step encloses its
//! `f64` counterpart, so the final logits interval computed in `f32` mode
//! must *contain* the `f64` reference interval (up to a relative
//! floating-point tolerance for the differing relaxation pivots the wider
//! intermediate intervals induce). A `f32` bound strictly inside the `f64`
//! reference would mean the compression claimed precision it does not
//! have — the exact failure mode the outward-rounding design exists to
//! prevent.

use deept_core::eps;
use deept_core::PNorm;
use deept_nn::transformer::TransformerClassifier;
use deept_telemetry::NoopProbe;
use deept_verifier::deept::{propagate_batch, DeepTConfig, Member};
use deept_verifier::network::{t1_region, VerifiableTransformer};

use crate::containment::SnapshotCollector;

/// A final-logit bound where the `f32` interval failed to contain the
/// `f64` reference interval.
#[derive(Debug, Clone, PartialEq)]
pub struct PrecisionViolation {
    /// Flat logit index.
    pub index: usize,
    /// `f64` reference interval.
    pub lo64: f64,
    /// `f64` reference interval.
    pub hi64: f64,
    /// `f32`-mode interval.
    pub lo32: f64,
    /// `f32`-mode interval.
    pub hi32: f64,
    /// How far inside the reference the `f32` bound sits (beyond
    /// tolerance).
    pub shrinkage: f64,
}

/// Relative tolerance for the nesting comparison. The two modes pick
/// slightly different relaxation pivots (λ, μ are computed from the
/// already-widened `f32` intermediate bounds), so exact pointwise nesting
/// of the final intervals is not a theorem — but any real shrinkage from
/// unsound rounding is far larger than last-bit pivot noise.
fn tol(v: f64) -> f64 {
    1e-9 * (1.0 + v.abs())
}

/// Propagates one instance twice — forcing `f64` then `f32` generator
/// storage — and checks that every final-logit `f32` interval contains the
/// `f64` reference interval. Restores the environment-default precision
/// before returning. The caller must hold
/// `deept_tensor::parallel::test_lock()`-style exclusivity if tests run
/// concurrently; the fuzz CLI is single-threaded per seed.
pub fn check_f32_nesting(
    model: &TransformerClassifier,
    tokens: &[usize],
    position: usize,
    radius: f64,
    p: PNorm,
    cfg: &DeepTConfig,
) -> Vec<PrecisionViolation> {
    let net = VerifiableTransformer::from(model);
    let emb = model.embed(tokens);
    let region = t1_region(&emb, position, radius, p);

    let bounds_under = |f32_mode: bool| {
        eps::set_force_f32(Some(f32_mode));
        let mut snaps = SnapshotCollector::default();
        let _ = propagate_batch(&net, &[Member::new(&region)], cfg, &NoopProbe, &mut snaps);
        snaps.logits.as_ref().map(|z| z.bounds())
    };
    let ref64 = bounds_under(false);
    let got32 = bounds_under(true);
    eps::set_force_f32(None);

    let mut violations = Vec::new();
    let (Some((lo64, hi64)), Some((lo32, hi32))) = (ref64, got32) else {
        return violations;
    };
    for k in 0..lo64.len() {
        // A poisoned (NaN) f32 bound fails closed: NaN comparisons are
        // false, so it never flags; ±∞ f32 bounds contain everything.
        let t = tol(lo64[k]).max(tol(hi64[k]));
        let shrink_lo = lo32[k] - lo64[k]; // > 0 ⇒ f32 lower bound too tight
        let shrink_hi = hi64[k] - hi32[k]; // > 0 ⇒ f32 upper bound too tight
        let shrinkage = shrink_lo.max(shrink_hi) - t;
        if shrinkage > 0.0 {
            violations.push(PrecisionViolation {
                index: k,
                lo64: lo64[k],
                hi64: hi64[k],
                lo32: lo32[k],
                hi32: hi32[k],
                shrinkage,
            });
        }
    }
    violations
}
