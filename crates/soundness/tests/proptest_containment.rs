//! Property test: one encoder layer's abstract output contains 256 random
//! concrete points, for every perturbation norm and at 1 and 4 worker
//! threads (the parallel kernels must not change what is contained).

use deept_core::PNorm;
use deept_nn::transformer::{LayerNormKind, TransformerClassifier, TransformerConfig};
use deept_soundness::containment::SnapshotCollector;
use deept_telemetry::NoopProbe;
use deept_tensor::{parallel, Matrix};
use deept_verifier::deept::{propagate_batch, DeepTConfig, Member};
use deept_verifier::network::t1_region;
use deept_verifier::network::VerifiableTransformer;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn one_layer_model(ln: LayerNormKind, model_seed: u64) -> TransformerClassifier {
    let mut rng = ChaCha8Rng::seed_from_u64(model_seed);
    TransformerClassifier::new(
        TransformerConfig {
            vocab_size: 13,
            max_len: 6,
            embed_dim: 8,
            num_heads: 2,
            hidden_dim: 12,
            num_layers: 1,
            num_classes: 2,
            layer_norm: ln,
        },
        &mut rng,
    )
}

fn check_layer_containment(
    ln: LayerNormKind,
    p: PNorm,
    threads: usize,
    model_seed: u64,
    noise_seed: u64,
    radius: f64,
) -> Result<(), TestCaseError> {
    let model = one_layer_model(ln, model_seed);
    let net = VerifiableTransformer::from(&model);
    let tokens = [1usize, 5, 9, 2];
    let emb = model.embed(&tokens);
    let region = t1_region(&emb, 1, radius, p);

    parallel::set_thread_override(Some(threads));
    let mut snaps = SnapshotCollector::default();
    let cfg = DeepTConfig::fast(4000);
    let _ = propagate_batch(&net, &[Member::new(&region)], &cfg, &NoopProbe, &mut snaps);
    parallel::set_thread_override(None);

    let layer_z = &snaps.layers[0];
    let (lo, hi) = layer_z.bounds();
    let mut rng = ChaCha8Rng::seed_from_u64(noise_seed);
    for s in 0..256 {
        let (phi, eps) = if s % 2 == 0 {
            region.sample_noise(&mut rng)
        } else {
            region.sample_extreme_noise(&mut rng)
        };
        let x0 = Matrix::from_vec(emb.rows(), emb.cols(), region.evaluate(&phi, &eps))
            .expect("evaluate yields rows*cols values");
        let y = net.layers[0].forward(&x0, net.layer_norm, net.head_dim);
        for (k, &v) in y.as_slice().iter().enumerate() {
            let tol = 1e-7 * (1.0 + v.abs());
            prop_assert!(
                v >= lo[k] - tol && v <= hi[k] + tol,
                "{ln:?}/{p:?}/{threads} threads: activation {k} = {v} outside [{}, {}]",
                lo[k],
                hi[k]
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// 256 concrete points through one encoder layer stay inside the
    /// abstract layer output, for all p ∈ {1, 2, ∞} × threads ∈ {1, 4} and
    /// both layer-norm flavours.
    #[test]
    fn encoder_layer_contains_256_points(
        model_seed in 0u64..1000,
        noise_seed in 0u64..1000,
        radius in 0.005f64..0.2,
    ) {
        let _g = parallel::test_lock();
        for ln in [LayerNormKind::NoStd, LayerNormKind::Std { epsilon: 1e-5 }] {
            for p in [PNorm::L1, PNorm::L2, PNorm::Linf] {
                for threads in [1usize, 4] {
                    check_layer_containment(ln, p, threads, model_seed, noise_seed, radius)?;
                }
            }
        }
    }
}
