//! Resume-identity gate: warm propagation resumed from a layer snapshot
//! must be bitwise identical to the cold start it claims to shortcut.
//!
//! The serving layer's cross-request state cache (`crates/serve`) stores
//! the zonotope after every encoder layer and resumes warm queries with
//! [`propagate_batch`] at `start_layer = k + 1`.
//! Its entire soundness story is one identity: replaying layers
//! `k+1..n` from the post-layer-`k` snapshot yields the same logits —
//! bit for bit — as running all `n` layers from the input region. This
//! module falsifies that identity directly over randomized models,
//! norms and verifier configurations:
//!
//! * a cold run captures every layer-boundary snapshot plus the final
//!   logits;
//! * for every `k`, a warm run resumes from snapshot `k` and must
//!   reproduce the cold suffix snapshots *and* the cold logits exactly
//!   (`f64::to_bits` equality, not approximate);
//! * resuming at `start_layer = 0` from the input region must match the
//!   plain propagation, pinning the suffix entry point's degenerate case.
//!
//! Any surviving difference is a [`ResumeViolation`] — it would mean a
//! warm certificate can diverge from the cold answer the client was
//! promised.

use deept_core::{PNorm, Zonotope};
use deept_nn::transformer::TransformerClassifier;
use deept_telemetry::NoopProbe;
use deept_verifier::deept::{propagate_batch, DeepTConfig, Member, ZonotopeObserver};
use deept_verifier::network::{t1_region, VerifiableTransformer};

use crate::containment::SnapshotCollector;

/// Collects suffix snapshots keyed by their absolute layer index (the
/// shared [`SnapshotCollector`] insists on layers arriving from `0`, which
/// a warm resume starting mid-stack violates by design).
#[derive(Default)]
struct SuffixCollector {
    layers: Vec<(usize, Zonotope)>,
}

impl ZonotopeObserver for SuffixCollector {
    fn layer_output(&mut self, _member: usize, i: usize, z: &Zonotope) {
        self.layers.push((i, z.clone()));
    }
}

/// A warm resume that failed to reproduce its cold run bitwise.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumeViolation {
    /// The layer the warm run started at (`0` = resumed from the input).
    pub start_layer: usize,
    /// What diverged.
    pub kind: ResumeViolationKind,
}

/// The first divergence between a cold run and a warm resume.
#[derive(Debug, Clone, PartialEq)]
pub enum ResumeViolationKind {
    /// The warm logits zonotope differs from the cold one.
    LogitsMismatch {
        /// First logit index whose interval differs.
        index: usize,
        /// Cold interval at that index.
        cold: (f64, f64),
        /// Warm interval at that index.
        warm: (f64, f64),
    },
    /// An intermediate suffix snapshot differs from the cold snapshot at
    /// the same layer (caught before the logits, pinpointing the layer).
    SnapshotMismatch {
        /// The layer whose post-state diverged.
        layer: usize,
    },
    /// The warm run produced a different number of suffix snapshots than
    /// the cold run has left after the resume point.
    SnapshotCountMismatch {
        /// Snapshots the cold run recorded past the resume point.
        expected: usize,
        /// Snapshots the warm run recorded.
        got: usize,
    },
}

/// A deadline-free one-member sweep of `input` from `start_layer`.
fn propagate(
    net: &VerifiableTransformer,
    input: &Zonotope,
    cfg: &DeepTConfig,
    start_layer: usize,
    observer: &mut dyn ZonotopeObserver,
) -> Zonotope {
    let member = Member {
        start_layer,
        ..Member::new(input)
    };
    match propagate_batch(net, &[member], cfg, &NoopProbe, observer).remove(0) {
        Ok(z) => z,
        Err(_) => unreachable!("Deadline::none() never expires"),
    }
}

/// `true` iff two zonotopes are identical down to the bit pattern of every
/// centre and generator coefficient. Stricter than `PartialEq` in both
/// directions: `-0.0` and `0.0` count as different, and two identical
/// NaN payloads count as equal (derived `PartialEq` would reject them).
fn bitwise_eq(a: &Zonotope, b: &Zonotope) -> bool {
    fn bits_eq(x: &[f64], y: &[f64]) -> bool {
        x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
    }
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.p() == b.p()
        && bits_eq(a.center(), b.center())
        && bits_eq(a.phi().as_slice(), b.phi().as_slice())
        && bits_eq(
            a.eps_dense_matrix().as_slice(),
            b.eps_dense_matrix().as_slice(),
        )
}

fn logits_mismatch(start_layer: usize, cold: &Zonotope, warm: &Zonotope) -> ResumeViolation {
    let (clo, chi) = cold.bounds();
    let (wlo, whi) = warm.bounds();
    let index = (0..clo.len().min(wlo.len()))
        .find(|&i| clo[i].to_bits() != wlo[i].to_bits() || chi[i].to_bits() != whi[i].to_bits())
        .unwrap_or(0);
    ResumeViolation {
        start_layer,
        kind: ResumeViolationKind::LogitsMismatch {
            index,
            cold: (
                clo.get(index).copied().unwrap_or(f64::NAN),
                chi.get(index).copied().unwrap_or(f64::NAN),
            ),
            warm: (
                wlo.get(index).copied().unwrap_or(f64::NAN),
                whi.get(index).copied().unwrap_or(f64::NAN),
            ),
        },
    }
}

/// Runs one cold propagation and then resumes from every layer boundary
/// (and from the input itself), asserting each warm run is bitwise
/// identical to the cold run. Returns all divergences found.
pub fn check_resume_identity(
    model: &TransformerClassifier,
    tokens: &[usize],
    position: usize,
    radius: f64,
    p: PNorm,
    cfg: &DeepTConfig,
) -> Vec<ResumeViolation> {
    let net = VerifiableTransformer::from(model);
    let emb = model.embed(tokens);
    let region = t1_region(&emb, position, radius, p);

    let mut cold = SnapshotCollector::default();
    let cold_logits = propagate(&net, &region, cfg, 0, &mut cold);

    // Non-finite states are outside the resume contract: the serving
    // cache refuses to store them (`Zonotope::has_non_finite`), because
    // inf/NaN arithmetic need not replay deterministically. A cold run
    // that blows up is a precision problem, not a resume problem.
    if cold_logits.has_non_finite() || cold.layers.iter().any(Zonotope::has_non_finite) {
        return Vec::new();
    }

    let mut violations = Vec::new();

    // Degenerate resume: start_layer = 0 from the input region must be the
    // plain propagation, snapshots included.
    let starts: Vec<(usize, &Zonotope)> = std::iter::once((0usize, &region))
        .chain(cold.layers.iter().enumerate().map(|(k, z)| (k + 1, z)))
        .collect();

    for (start, state) in starts {
        let mut warm = SuffixCollector::default();
        let warm_logits = propagate(&net, state, cfg, start, &mut warm);

        // The warm run must replay exactly the layers the cold run had
        // left, producing the same snapshots…
        let expected = &cold.layers[start..];
        if warm.layers.len() != expected.len() {
            violations.push(ResumeViolation {
                start_layer: start,
                kind: ResumeViolationKind::SnapshotCountMismatch {
                    expected: expected.len(),
                    got: warm.layers.len(),
                },
            });
        } else if let Some(layer) =
            warm.layers
                .iter()
                .zip(expected)
                .enumerate()
                .find_map(|(j, ((i, w), c))| {
                    (*i != start + j || !bitwise_eq(w, c)).then_some(start + j)
                })
        {
            violations.push(ResumeViolation {
                start_layer: start,
                kind: ResumeViolationKind::SnapshotMismatch { layer },
            });
        }

        // …and the same logits, bit for bit.
        if !bitwise_eq(&warm_logits, &cold_logits) {
            violations.push(logits_mismatch(start, &cold_logits, &warm_logits));
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use deept_nn::transformer::{LayerNormKind, TransformerConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn model(ln: LayerNormKind) -> TransformerClassifier {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        TransformerClassifier::new(
            TransformerConfig {
                vocab_size: 11,
                max_len: 5,
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

    #[test]
    fn resume_identity_holds_on_clean_models() {
        for ln in [LayerNormKind::NoStd, LayerNormKind::Std { epsilon: 1e-5 }] {
            let m = model(ln);
            for p in [PNorm::L1, PNorm::L2, PNorm::Linf] {
                let v = check_resume_identity(&m, &[1, 2, 3], 1, 0.05, p, &DeepTConfig::fast(4000));
                assert!(v.is_empty(), "unexpected resume divergence: {v:?}");
            }
        }
    }

    #[test]
    fn a_perturbed_snapshot_is_detected() {
        // Resuming from a *wrong* state must not silently agree: feed the
        // checker a model whose suffix we resume with a corrupted snapshot
        // by comparing two different models' runs manually.
        let m = model(LayerNormKind::NoStd);
        let net = VerifiableTransformer::from(&m);
        let emb = m.embed(&[1, 2, 3]);
        let region = t1_region(&emb, 1, 0.05, PNorm::Linf);
        let cfg = DeepTConfig::fast(4000);
        let mut cold = SnapshotCollector::default();
        let cold_logits = propagate(&net, &region, &cfg, 0, &mut cold);

        // Corrupt the first snapshot and resume from it.
        let bad = &cold.layers[0];
        let mut warm = SuffixCollector::default();
        let shifted = {
            // Shift the region slightly instead: a genuinely different
            // state must produce different logits.
            let other = t1_region(&emb, 1, 0.051, PNorm::Linf);
            let mut c2 = SnapshotCollector::default();
            let _ = propagate(&net, &other, &cfg, 0, &mut c2);
            c2.layers[0].clone()
        };
        let warm_logits = propagate(&net, &shifted, &cfg, 1, &mut warm);
        assert!(
            !bitwise_eq(&warm_logits, &cold_logits),
            "a different snapshot must yield different logits"
        );
        // Sanity: the honest snapshot still matches.
        let mut warm2 = SuffixCollector::default();
        let honest = propagate(&net, bad, &cfg, 1, &mut warm2);
        assert!(bitwise_eq(&honest, &cold_logits));
    }
}
