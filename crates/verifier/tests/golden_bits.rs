//! Cross-version pin of the DeepT verifier's output: the exact `f64` bit
//! patterns of the logits zonotope's center and its lower and upper bounds,
//! for Fast, Precise and Combined × ℓ1, ℓ2, ℓ∞ on a small standard-layer-
//! norm model, plus one run resumed mid-stack with a protected ε prefix.
//!
//! Every other identity suite compares two paths of the *same* build
//! (fused ≡ serial, warm ≡ cold, kernel ≡ kernel); this one compares the
//! build against constants recorded from an earlier version, so a
//! refactor of the propagation loop that shifts a single bit fails here.
//!
//! The constants are valid at the default `f64` generator storage only
//! (`DEEPT_PREC=f32` rounds fresh symbols and legitimately moves the
//! bits), so the test forces `f64` in-process. They pin the optimized
//! kernel rungs: `DEEPT_KERNEL=naive` routes the dot product to the
//! reference oracle, which is not bitwise equal to them on every query
//! (Combined ℓ∞ differs here), so that rung is swapped for the default
//! one. The blocked and SIMD rungs, the ε layout and the worker count are
//! bitwise-neutral at `f64` and are left as the environment sets them.

use deept_core::eps::set_force_f32;
use deept_core::{PNorm, Zonotope};
use deept_nn::{LayerNormKind, TransformerClassifier, TransformerConfig};
use deept_tensor::parallel::{self, KernelMode};
use deept_verifier::deept::{propagate, propagate_batch, DeepTConfig, Member, ZonotopeObserver};
use deept_verifier::network::{t1_region, VerifiableTransformer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn tiny_model() -> TransformerClassifier {
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
            layer_norm: LayerNormKind::Std { epsilon: 1e-5 },
        },
        &mut rng,
    )
}

/// `[center, lower, upper]` bit patterns of a `1 × classes` logits zonotope.
fn logit_bits(z: &Zonotope) -> Vec<[u64; 3]> {
    let (lo, hi) = z.bounds();
    z.center()
        .iter()
        .zip(lo.iter().zip(&hi))
        .map(|(c, (l, u))| [c.to_bits(), l.to_bits(), u.to_bits()])
        .collect()
}

struct Layer0 {
    state: Option<Zonotope>,
}

impl ZonotopeObserver for Layer0 {
    fn layer_output(&mut self, _member: usize, i: usize, z: &Zonotope) {
        if i == 0 {
            self.state = Some(z.clone());
        }
    }
}

/// One labelled bit table per pinned run, in a fixed order.
fn observed() -> Vec<(String, Vec<[u64; 3]>)> {
    let model = tiny_model();
    let net = VerifiableTransformer::from(&model);
    let emb = model.embed(&[1usize, 5, 9, 2]);
    let mut out = Vec::new();
    for (name, cfg) in [
        ("fast", DeepTConfig::fast(60)),
        ("precise", DeepTConfig::precise(60)),
        ("combined", DeepTConfig::combined(60)),
    ] {
        for p in [PNorm::L1, PNorm::L2, PNorm::Linf] {
            let region = t1_region(&emb, 1, 0.005, p);
            out.push((
                format!("{name}/{p:?}"),
                logit_bits(&propagate(&net, &region, &cfg)),
            ));
        }
    }
    // Resume from the layer-0 state of a cold ℓ2 run at `start_layer = 1`,
    // with the first 8 ε columns protected from the layer-1 reduction.
    let cfg = DeepTConfig::fast(16);
    let region = t1_region(&emb, 1, 0.005, PNorm::L2);
    let mut snap = Layer0 { state: None };
    let noop = deept_telemetry::NoopProbe;
    let _ = propagate_batch(&net, &[Member::new(&region)], &cfg, &noop, &mut snap);
    let state = snap.state.expect("a 2-layer model has a layer-0 state");
    let protect = 8;
    assert!(
        state.num_eps() >= protect,
        "the layer-0 state carries ε symbols"
    );
    let member = Member {
        start_layer: 1,
        protect_eps: protect,
        ..Member::new(&state)
    };
    let resumed = propagate_batch(&net, &[member], &cfg, &noop, &mut ())
        .remove(0)
        .expect("Deadline::none() never expires");
    out.push(("resumed/L2".to_string(), logit_bits(&resumed)));
    out
}

/// `(run, [[center, lower, upper]; classes])`, recorded at `f64`.
const GOLDEN: &[(&str, [[u64; 3]; 2])] = &[
    (
        "fast/L1",
        [
            [0xbfd5d10fb892d9e8, 0xbfd6e1db370a0892, 0xbfd4c0443a1bab3e],
            [0x3fe1f3f9021ef5ff, 0x3fe13a8c21c03a21, 0x3fe2ad65e27db1dd],
        ],
    ),
    (
        "fast/L2",
        [
            [0xbfd5be16b7b814c7, 0xbfd79ee60c0a54bb, 0xbfd3dd476365d4d3],
            [0x3fe1f00c17153cc8, 0x3fe0c6d5110ebeca, 0x3fe319431d1bbac6],
        ],
    ),
    (
        "fast/Linf",
        [
            [0xbfd50e9dbdfd96f3, 0xbfdcf663dfcdd5a8, 0xbfca4daf385ab07d],
            [0x3fe1c88494a5db6a, 0x3fdc6ee97e52fc4a, 0x3fe559946a2238af],
        ],
    ),
    (
        "precise/L1",
        [
            [0xbfd5d1269e654de4, 0xbfd6e1088c863430, 0xbfd4c144b0446798],
            [0x3fe1f3e75fef0164, 0x3fe13b05a01cb9e4, 0x3fe2acc91fc148e4],
        ],
    ),
    (
        "precise/L2",
        [
            [0xbfd5be7160411bdd, 0xbfd79c50c972ddca, 0xbfd3e091f70f59f0],
            [0x3fe1efe8d5366bc8, 0x3fe0c836b72b0959, 0x3fe3179af341ce37],
        ],
    ),
    (
        "precise/Linf",
        [
            [0xbfd51f503b59b3b0, 0xbfdc7b28c3798ea4, 0xbfcb86ef6673b178],
            [0x3fe1caf3b55804d9, 0x3fdccbbec2d6b6a1, 0x3fe530080944ae62],
        ],
    ),
    (
        "combined/L1",
        [
            [0xbfd5d12767028c69, 0xbfd6e1111bfd6b5a, 0xbfd4c13db207ad78],
            [0x3fe1f3e89274642a, 0x3fe13b02361c0541, 0x3fe2acceeeccc313],
        ],
    ),
    (
        "combined/L2",
        [
            [0xbfd5be6ffb45418a, 0xbfd79c68931912db, 0xbfd3e07763717039],
            [0x3fe1efeb971c5067, 0x3fe0c82b8e0ade61, 0x3fe317aba02dc26d],
        ],
    ),
    (
        "combined/Linf",
        [
            [0xbfd51e202789953b, 0xbfdc83eb372d34ec, 0xbfcb70aa2fcbeb14],
            [0x3fe1cae0459d24a0, 0x3fdcc45db9404f08, 0x3fe53391ae9a21bc],
        ],
    ),
    (
        "resumed/L2",
        [
            [0xbfd5bd3c0835390e, 0xbfd7a6762e938a50, 0xbfd3d401e1d6e7cc],
            [0x3fe1efd166aee76b, 0x3fe0c1e1ae7d19d8, 0x3fe31dc11ee0b4fe],
        ],
    ),
];

#[test]
fn logits_match_recorded_bits() {
    let _guard = parallel::test_lock();
    set_force_f32(Some(false));
    if parallel::kernel_mode() == KernelMode::Naive {
        parallel::set_kernel_mode(Some(KernelMode::Simd));
    }
    let got = observed();
    set_force_f32(None);
    parallel::set_kernel_mode(None);
    let table: String = got
        .iter()
        .map(|(name, bits)| format!("    (\"{name}\", {bits:#x?}),\n"))
        .collect();
    assert_eq!(got.len(), GOLDEN.len(), "observed table:\n{table}");
    for ((name, bits), (g_name, g_bits)) in got.iter().zip(GOLDEN) {
        assert_eq!(name, g_name);
        assert_eq!(
            bits.as_slice(),
            g_bits.as_slice(),
            "{name} diverged; observed table:\n{table}"
        );
    }
}
