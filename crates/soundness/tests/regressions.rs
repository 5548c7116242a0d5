//! Regression tests for soundness bugs found by the differential fuzzer.
//!
//! Every named violation the fuzzer surfaced is pinned here on its original
//! trigger, so the fix cannot silently regress.

use deept_core::elementwise::{reciprocal_relaxation, sqrt_relaxation, Activation};
use deept_nn::transformer::{LayerNormKind, TransformerClassifier, TransformerConfig};
use deept_soundness::containment::SnapshotCollector;
use deept_soundness::{check_relaxations, check_transformers, run, FuzzConfig};
use deept_telemetry::NoopProbe;
use deept_verifier::deept::{propagate, propagate_batch, DeepTConfig, Member};
use deept_verifier::network::{t1_region, VerifiableTransformer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn tiny_model(ln: LayerNormKind, layers: usize) -> TransformerClassifier {
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    TransformerClassifier::new(
        TransformerConfig {
            vocab_size: 13,
            max_len: 6,
            embed_dim: 8,
            num_heads: 2,
            hidden_dim: 12,
            num_layers: layers,
            num_classes: 2,
            layer_norm: ln,
        },
        &mut rng,
    )
}

/// Fuzzer finding #1 (degenerate-interval midpoint collapse): intervals with
/// `0 < u − l < 1e-12` returned the midpoint value as an exact constant,
/// excluding both endpoint values. Original trigger: `Exp` on
/// `[2.426902651674089, 2.4269026516744354]` — `exp(u)` exceeded the
/// "exact" band by ≈ 2e-12 absolute. The fixed relaxation must cover both
/// endpoints pointwise, with zero tolerance.
#[test]
fn degenerate_exp_interval_covers_endpoints() {
    let (l, u) = (2.426902651674089_f64, 2.4269026516744354_f64);
    assert!(u > l && u - l < 1e-12, "trigger must stay degenerate");
    let r = Activation::Exp.relaxation(l, u);
    for x in [l, u] {
        let y = x.exp();
        assert!(
            r.lambda * x + r.mu - r.beta <= y && y <= r.lambda * x + r.mu + r.beta,
            "exp({x}) = {y} escapes the degenerate band"
        );
    }
}

/// Fuzzer finding #2 (reciprocal/√ domain guard): `l ≤ 0` used to panic
/// mid-certification (an `assert!`); it now poisons the relaxation so the
/// verifier fails closed. `l = f64::MIN_POSITIVE` is in-domain and must
/// still produce a finite sound band.
#[test]
fn nonpositive_reciprocal_and_sqrt_poison_instead_of_panicking() {
    for l in [0.0, -f64::MIN_POSITIVE, -1e-15, -0.5] {
        assert!(reciprocal_relaxation(l, l + 1.0).mu.is_nan(), "l = {l}");
        assert!(sqrt_relaxation(l, l + 1.0).mu.is_nan(), "l = {l}");
    }
    assert!(reciprocal_relaxation(f64::MIN_POSITIVE, 1.0).mu.is_finite());
    assert!(sqrt_relaxation(f64::MIN_POSITIVE, 1.0).mu.is_finite());
}

/// The micro-checker families run clean on a fixed seed (they found the two
/// bugs above before the fixes).
#[test]
fn microcheckers_clean_on_fixed_seed() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let violations = check_relaxations(60, &mut rng);
    assert!(violations.is_empty(), "{violations:?}");
    let violations = check_transformers(20, &mut rng);
    assert!(violations.is_empty(), "{violations:?}");
}

/// A full (small) fuzzing run is clean end to end: micro-checks,
/// differential containment on both layer-norm flavours and all norms, and
/// attack consistency.
#[test]
fn full_fuzz_run_clean_on_fixed_seed() {
    let report = run(&FuzzConfig { seed: 1, cases: 24 });
    assert_eq!(
        report.total_violations(),
        0,
        "fuzz run found violations: {}",
        report.summary()
    );
    assert!(report.containment_samples > 0 && report.attack_instances > 0);
}

/// The snapshot probe only observes: a propagation with a
/// [`SnapshotCollector`] attached returns logits bitwise identical to the
/// plain path, and snapshots one state per encoder layer.
#[test]
fn snapshots_leave_propagation_bitwise_identical() {
    for ln in [LayerNormKind::NoStd, LayerNormKind::Std { epsilon: 1e-5 }] {
        let model = tiny_model(ln, 2);
        let net = VerifiableTransformer::from(&model);
        let region = t1_region(&model.embed(&[1, 5, 9, 2]), 1, 0.05, deept_core::PNorm::L2);
        let cfg = DeepTConfig::fast(4000);
        let plain = propagate(&net, &region, &cfg);
        let mut snaps = SnapshotCollector::default();
        let probed = propagate_batch(&net, &[Member::new(&region)], &cfg, &NoopProbe, &mut snaps)
            .remove(0)
            .expect("Deadline::none() never expires");
        assert_eq!(plain, probed, "snapshots must not perturb the result");
        assert_eq!(snaps.layers.len(), 2, "one snapshot per encoder layer");
        assert_eq!(
            snaps.logits.as_ref(),
            Some(&plain),
            "logits snapshot is the returned zonotope"
        );
        assert!(snaps.input.is_some());
    }
}
