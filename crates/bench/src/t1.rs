//! The shared T1 sweep: maximum certified radius per (sentence, position,
//! norm, verifier), the engine behind Tables 1–7.

use deept_core::{NormOrder, PNorm};
use deept_nn::TransformerClassifier;
use deept_telemetry::{NoopProbe, TraceCollector, VerificationTrace};
use deept_tensor::{parallel, Matrix};
use deept_verifier::crown::{self, CrownConfig, CrownInput};
use deept_verifier::deadline::Deadline;
use deept_verifier::deept::{self, DeepTConfig};
use deept_verifier::network::{t1_region, VerifiableTransformer};
use deept_verifier::radius::{
    max_certified_radius_deadline, max_certified_radius_probed, RadiusOutcome,
};

use crate::report::{min_avg, RadiusRow};
use crate::Scale;

/// Verifier under test in a sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VerifierKind {
    /// DeepT with the Fast dot product.
    DeepTFast,
    /// DeepT-Fast with the ℓp-first dual-norm order (§6.5 ablation).
    DeepTFastPFirst,
    /// DeepT-Fast without the softmax sum refinement (A.5 ablation).
    DeepTFastNoRefine,
    /// DeepT with the Precise dot product.
    DeepTPrecise,
    /// The Combined variant (Precise last layer only, A.6).
    DeepTCombined,
    /// CROWN-BaF-role linear bounds (collapse at attention scores).
    CrownBaf,
    /// CROWN-Backward-role linear bounds (no collapse).
    CrownBackward,
    /// Interval bound propagation.
    Interval,
}

impl VerifierKind {
    /// Display name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            VerifierKind::DeepTFast => "DeepT-Fast",
            VerifierKind::DeepTFastPFirst => "DeepT-Fast(p-first)",
            VerifierKind::DeepTFastNoRefine => "DeepT-Fast(no-ref)",
            VerifierKind::DeepTPrecise => "DeepT-Precise",
            VerifierKind::DeepTCombined => "DeepT-Combined",
            VerifierKind::CrownBaf => "CROWN-BaF",
            VerifierKind::CrownBackward => "CROWN-Backward",
            VerifierKind::Interval => "Interval",
        }
    }

    fn deept_config(self, scale: Scale) -> Option<DeepTConfig> {
        match self {
            VerifierKind::DeepTFast => Some(DeepTConfig::fast(scale.fast_budget())),
            VerifierKind::DeepTFastPFirst => {
                Some(DeepTConfig::fast(scale.fast_budget()).with_norm_order(NormOrder::PFirst))
            }
            VerifierKind::DeepTFastNoRefine => {
                Some(DeepTConfig::fast(scale.fast_budget()).with_softmax_refinement(false))
            }
            VerifierKind::DeepTPrecise => Some(DeepTConfig::precise(scale.precise_budget())),
            VerifierKind::DeepTCombined => Some(DeepTConfig::combined(scale.precise_budget())),
            _ => None,
        }
    }

    fn crown_config(self) -> Option<CrownConfig> {
        match self {
            VerifierKind::CrownBaf => Some(CrownConfig::baf()),
            VerifierKind::CrownBackward => Some(CrownConfig::backward()),
            VerifierKind::Interval => Some(CrownConfig::interval()),
            _ => None,
        }
    }
}

/// Maximum certified radius for one (sentence, position, norm) query.
pub fn certified_radius(
    model: &TransformerClassifier,
    tokens: &[usize],
    label: usize,
    position: usize,
    p: PNorm,
    kind: VerifierKind,
    scale: Scale,
) -> f64 {
    let net = VerifiableTransformer::from(model);
    let emb = model.embed(tokens);
    certified_radius_prepared(&net, &emb, label, position, p, kind, scale)
}

/// [`certified_radius`] with the verifier view and the embedded sentence
/// prepared by the caller. The sweep builds both once (the network per
/// model, the embedding per sentence) instead of once per query — the
/// binary search only ever varies the region radius.
pub fn certified_radius_prepared(
    net: &VerifiableTransformer,
    emb: &Matrix,
    label: usize,
    position: usize,
    p: PNorm,
    kind: VerifierKind,
    scale: Scale,
) -> f64 {
    let iters = scale.radius_iters();
    // Each query gets its own budget from `--timeout-ms`; with no flag the
    // deadline never expires and the query sequence is unchanged.
    let deadline = Deadline::after_ms(crate::query_timeout_ms());
    let outcome = if let Some(cfg) = kind.deept_config(scale) {
        max_certified_radius_deadline(
            |r| {
                let region = t1_region(emb, position, r, p);
                let member = deept::Member {
                    deadline,
                    ..deept::Member::new(&region)
                };
                let mut res =
                    deept::certify_batch(net, &[member], label, &cfg, &NoopProbe, &mut ());
                Ok(res.remove(0)?.certified)
            },
            0.01,
            iters,
            deadline,
            &NoopProbe,
        )
    } else {
        // The CROWN baselines have no cooperative checkpoints inside a
        // query; the deadline is still polled between queries.
        let cfg = kind.crown_config().expect("crown kind");
        max_certified_radius_deadline(
            |r| {
                let input = CrownInput::t1(emb, position, r, p);
                Ok(crown::certify(net, &input, label, &cfg).certified)
            },
            0.01,
            iters,
            deadline,
            &NoopProbe,
        )
    };
    match outcome {
        RadiusOutcome::Completed(r) => r,
        RadiusOutcome::TimedOut {
            lower_bound,
            queries,
        } => {
            deept_telemetry::info!(
                "bench",
                "query ({} position {position} {p}) timed out after {queries} queries; \
                 using partial radius {lower_bound:.6}",
                kind.name()
            );
            lower_bound
        }
    }
}

/// Runs one representative radius search under an active [`TraceCollector`]
/// and returns the assembled trace: per-iteration and per-layer spans,
/// noise-symbol counts, width growth and the radius query sequence.
///
/// Used by the table binaries to emit a hotspot summary and a structured
/// trace JSON next to their result tables. The probed run is bitwise
/// identical to the plain one, so sampling one query does not perturb the
/// benchmark.
pub fn sample_trace(
    model: &TransformerClassifier,
    tokens: &[usize],
    label: usize,
    position: usize,
    p: PNorm,
    kind: VerifierKind,
    scale: Scale,
) -> VerificationTrace {
    let net = VerifiableTransformer::from(model);
    let emb = model.embed(tokens);
    let iters = scale.radius_iters();
    let collector = TraceCollector::new();
    if let Some(cfg) = kind.deept_config(scale) {
        max_certified_radius_probed(
            |r| {
                let region = t1_region(&emb, position, r, p);
                deept::certify_probed(&net, &region, label, &cfg, &collector).certified
            },
            0.01,
            iters,
            &collector,
        );
    } else {
        let cfg = kind.crown_config().expect("crown kind");
        max_certified_radius_probed(
            |r| {
                let input = CrownInput::t1(&emb, position, r, p);
                crown::certify_probed(&net, &input, label, &cfg, &collector).certified
            },
            0.01,
            iters,
            &collector,
        );
    }
    let mut trace = collector.finish();
    trace.set_meta("verifier", kind.name());
    trace.set_meta("norm", &p.to_string());
    trace.set_meta("position", &position.to_string());
    trace.set_meta("tokens", &tokens.len().to_string());
    let kernel = deept_tensor::parallel::kernel_mode();
    trace.set_meta("kernel", kernel.label());
    trace.set_meta(
        "isa",
        match kernel {
            deept_tensor::parallel::KernelMode::Simd => deept_tensor::simd::active_isa().label(),
            _ => "scalar",
        },
    );
    trace.set_meta(
        "prec",
        if deept_core::eps::prec_f32() {
            "f32"
        } else {
            "f64"
        },
    );
    trace
}

/// Traces one representative query for a table binary — the first
/// evaluation sentence, perturbed at position 0 — then prints the hotspot
/// summary next to the table output and saves the structured trace as
/// `artifacts/results/<name>_trace.json`. No-op on an empty sentence set.
pub fn emit_table_trace(
    name: &str,
    model: &TransformerClassifier,
    sentences: &[(Vec<usize>, usize)],
    p: PNorm,
    kind: VerifierKind,
    scale: Scale,
) {
    let Some((tokens, label)) = sentences.first() else {
        return;
    };
    let mut trace = sample_trace(model, tokens, *label, 0, p, kind, scale);
    trace.set_meta("table", name);
    crate::report::print_trace_summary(&format!("{name} — {}", kind.name()), &trace, 5);
    crate::report::save_trace(&format!("{name}_trace"), &trace);
}

/// Runs the full sweep for one model: all sentences × positions × norms,
/// parallelized across queries. Returns one row per norm.
pub fn radius_sweep(
    model: &TransformerClassifier,
    sentences: &[(Vec<usize>, usize)],
    norms: &[PNorm],
    kind: VerifierKind,
    scale: Scale,
    layers: usize,
) -> Vec<RadiusRow> {
    // Hoisted out of the query loop: the verifier view of the model (shared
    // by every query) and the embedding of each sentence (shared by every
    // position and norm probing it).
    let net = VerifiableTransformer::from(model);
    let embeddings: Vec<Matrix> = sentences.iter().map(|(t, _)| model.embed(t)).collect();
    let mut rows = Vec::new();
    for &p in norms {
        let queries: Vec<(usize, usize)> = sentences
            .iter()
            .enumerate()
            .flat_map(|(si, (tokens, _))| {
                let n_pos = scale.positions().min(tokens.len());
                // Spread evaluated positions across the sentence.
                (0..n_pos).map(move |k| (si, k * tokens.len() / n_pos))
            })
            .collect();
        let start = std::time::Instant::now();
        let radii = parallel::par_map(&queries, 1, |&(si, pos)| {
            let label = sentences[si].1;
            certified_radius_prepared(&net, &embeddings[si], label, pos, p, kind, scale)
        });
        let elapsed = start.elapsed().as_secs_f64();
        let (min, avg) = min_avg(&radii);
        rows.push(RadiusRow {
            layers,
            norm: p.to_string(),
            verifier: kind.name().to_string(),
            min,
            avg,
            time_s: elapsed,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepared_and_plain_radius_queries_agree() {
        use deept_nn::transformer::{LayerNormKind, TransformerConfig};
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let model = TransformerClassifier::new(
            TransformerConfig {
                vocab_size: 11,
                max_len: 6,
                embed_dim: 8,
                num_heads: 2,
                hidden_dim: 12,
                num_layers: 1,
                num_classes: 2,
                layer_norm: LayerNormKind::NoStd,
            },
            &mut rng,
        );
        let tokens = [1usize, 4, 7];
        let label = model.predict(&tokens);
        let scale = Scale::Quick;
        let plain = certified_radius(
            &model,
            &tokens,
            label,
            1,
            PNorm::L2,
            VerifierKind::DeepTFast,
            scale,
        );
        let net = VerifiableTransformer::from(&model);
        let emb = model.embed(&tokens);
        let prepared = certified_radius_prepared(
            &net,
            &emb,
            label,
            1,
            PNorm::L2,
            VerifierKind::DeepTFast,
            scale,
        );
        assert_eq!(plain, prepared);
    }

    #[test]
    fn verifier_names_are_distinct() {
        let kinds = [
            VerifierKind::DeepTFast,
            VerifierKind::DeepTPrecise,
            VerifierKind::DeepTCombined,
            VerifierKind::CrownBaf,
            VerifierKind::CrownBackward,
            VerifierKind::Interval,
        ];
        let mut names: Vec<&str> = kinds.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), kinds.len());
    }
}
