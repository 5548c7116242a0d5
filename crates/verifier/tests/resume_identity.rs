//! Warm-path identity pin for the cross-request state cache: resuming a
//! propagation from any cached layer-boundary snapshot yields **bitwise
//! identical** margins to the cold start — across every compute-kernel
//! mode (`DEEPT_KERNEL=naive|blocked|simd`), ε storage layout
//! (`DEEPT_EPS=dense|blocked`) and thread override (`DEEPT_THREADS=1|4`).
//! CI additionally runs this file under the real environment variables in
//! the warm-identity matrix job; the in-process mode sweep below keeps the
//! guarantee pinned in the default `cargo test` run too.

use deept_core::eps::set_force_dense;
use deept_core::{PNorm, Zonotope};
use deept_nn::{LayerNormKind, TransformerClassifier, TransformerConfig};
use deept_tensor::parallel;
use deept_tensor::parallel::KernelMode;
use deept_verifier::deept::{certify, propagate_batch, DeepTConfig, Member, ZonotopeObserver};
use deept_verifier::network::{t1_region, VerifiableTransformer};
use deept_verifier::Deadline;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn tiny_model(ln: LayerNormKind) -> TransformerClassifier {
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    TransformerClassifier::new(
        TransformerConfig {
            vocab_size: 13,
            max_len: 6,
            embed_dim: 8,
            num_heads: 2,
            hidden_dim: 12,
            num_layers: 2,
            num_classes: 2,
            layer_norm: ln,
        },
        &mut rng,
    )
}

struct CollectStates {
    states: Vec<Zonotope>,
}

impl ZonotopeObserver for CollectStates {
    fn layer_output(&mut self, _member: usize, _i: usize, z: &Zonotope) {
        self.states.push(z.clone());
    }
}

/// Cold margins plus the margins of a resume from every layer boundary,
/// under the process-global mode currently in force.
fn cold_and_warm_margins(ln: LayerNormKind, p: PNorm) -> Vec<Vec<f64>> {
    let model = tiny_model(ln);
    let net = VerifiableTransformer::from(&model);
    let tokens = [1usize, 5, 9, 2];
    let emb = model.embed(&tokens);
    let cfg = DeepTConfig::fast(60);
    let region = t1_region(&emb, 1, 0.03, p);
    let cold = certify(&net, &region, 0, &cfg);
    let mut snap = CollectStates { states: Vec::new() };
    let noop = deept_telemetry::NoopProbe;
    let _ = propagate_batch(&net, &[Member::new(&region)], &cfg, &noop, &mut snap);
    let mut all = vec![cold.margins.clone()];
    for (k, state) in snap.states.iter().enumerate() {
        let member = Member {
            start_layer: k + 1,
            ..Member::new(state)
        };
        let logits = propagate_batch(&net, &[member], &cfg, &noop, &mut ())
            .remove(0)
            .expect("Deadline::none() never expires");
        let warm =
            deept_verifier::network::margins_from_zonotope_deadline(&logits, 0, Deadline::none())
                .expect("no deadline");
        assert_eq!(cold.margins, warm, "warm resume from layer {k} diverged");
        all.push(warm);
    }
    all
}

#[test]
fn warm_resume_margins_bitwise_identical_across_modes() {
    let _guard = parallel::test_lock();
    let kernels = [KernelMode::Blocked, KernelMode::Simd];
    for ln in [LayerNormKind::NoStd, LayerNormKind::Std { epsilon: 1e-6 }] {
        for p in [PNorm::L1, PNorm::L2, PNorm::Linf] {
            let mut reference: Option<Vec<Vec<f64>>> = None;
            for kernel in kernels {
                parallel::set_kernel_mode(Some(kernel));
                for threads in [1usize, 4] {
                    parallel::set_thread_override(Some(threads));
                    for dense in [true, false] {
                        set_force_dense(Some(dense));
                        let got = cold_and_warm_margins(ln, p);
                        match &reference {
                            None => reference = Some(got),
                            Some(want) => assert_eq!(
                                want, &got,
                                "diverged: ln={ln:?} p={p:?} kernel={kernel:?} \
                                 threads={threads} dense={dense}"
                            ),
                        }
                    }
                }
            }
        }
    }
    set_force_dense(None);
    parallel::set_kernel_mode(None);
    parallel::set_thread_override(None);
}
