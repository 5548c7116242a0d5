//! The DeepT verifier: propagates a Multi-norm Zonotope through an encoder
//! Transformer (§5), in its Fast, Precise and Combined configurations.

use deept_core::dot::{parallel_stats_since, zono_matmul_probed, DotConfig, DotVariant};
use deept_core::reduce::reduce_eps_probed;
use deept_core::softmax::{softmax_rows_probed, SoftmaxConfig};
use deept_core::{NormOrder, Zonotope};
use deept_nn::transformer::{EncoderLayer, LayerNorm, LayerNormKind};
use deept_telemetry::{NoopProbe, Probe, SpanKind};
use deept_tensor::{parallel, Matrix};

use crate::deadline::{Deadline, DeadlineExceeded};
use crate::network::{margins_from_zonotope_deadline, CertResult, VerifiableTransformer};

/// Configuration of the DeepT verifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeepTConfig {
    /// Dot-product transformer configuration (Fast / Precise, norm order).
    pub dot: DotConfig,
    /// Softmax configuration (sum refinement on/off).
    pub softmax: SoftmaxConfig,
    /// ℓ∞ noise-symbol budget enforced at every layer input (§5.1 / §6.1);
    /// `None` disables reduction.
    pub reduction_budget: Option<usize>,
    /// Use the Precise dot product only in the last layer and Fast elsewhere
    /// (the Combined verifier of Appendix A.6). When set, `dot.variant`
    /// applies to the last layer and Fast is used before it.
    pub precise_last_layer_only: bool,
}

impl DeepTConfig {
    /// DeepT-Fast with the paper's defaults (ℓ∞-first dual-norm order,
    /// softmax sum refinement on).
    pub fn fast(reduction_budget: usize) -> Self {
        DeepTConfig {
            dot: DotConfig::fast(),
            softmax: SoftmaxConfig::default(),
            reduction_budget: Some(reduction_budget),
            precise_last_layer_only: false,
        }
    }

    /// DeepT-Precise: the pairwise ε–ε dot-product bound everywhere.
    pub fn precise(reduction_budget: usize) -> Self {
        DeepTConfig {
            dot: DotConfig::precise(),
            softmax: SoftmaxConfig::default(),
            reduction_budget: Some(reduction_budget),
            precise_last_layer_only: false,
        }
    }

    /// The Combined verifier of Appendix A.6: Fast in all layers except the
    /// last, Precise in the last.
    pub fn combined(reduction_budget: usize) -> Self {
        DeepTConfig {
            dot: DotConfig::precise(),
            softmax: SoftmaxConfig::default(),
            reduction_budget: Some(reduction_budget),
            precise_last_layer_only: true,
        }
    }

    /// Overrides the dual-norm application order (§6.5 ablation).
    pub fn with_norm_order(mut self, order: NormOrder) -> Self {
        self.dot.order = order;
        self
    }

    /// Disables or re-enables the softmax sum refinement (Appendix A.5
    /// ablation).
    pub fn with_softmax_refinement(mut self, on: bool) -> Self {
        self.softmax = if on {
            SoftmaxConfig::default()
        } else {
            SoftmaxConfig::without_refinement()
        };
        self
    }
}

/// Observer of the per-member abstract states of a propagation sweep, used
/// by the differential containment harness (the `deept-soundness` crate),
/// the serve state cache and the refinement ladder.
///
/// Unlike [`deept_telemetry::Probe`] — which lives *below* `deept-core` in
/// the crate graph and can therefore only see scalar statistics — this trait
/// receives the [`Zonotope`]s themselves, so a harness can compare each
/// abstract state against the matching concrete activation. Observers only
/// read: every hook takes `&Zonotope` immediately after the state is
/// computed, on the same value the propagation continues with, so the
/// returned logits are bitwise identical whatever the observer. `member`
/// indexes the sweep's member slice; `()` observes nothing.
pub trait ZonotopeObserver {
    /// The member's input state, once it passed its entry deadline check.
    fn input(&mut self, _member: usize, _z: &Zonotope) {}
    /// The member's abstract state after encoder layer `layer` (its input
    /// reduction, if any, has already been applied — reduction only
    /// loosens, so the layer output still contains every concrete layer
    /// output).
    fn layer_output(&mut self, _member: usize, _layer: usize, _z: &Zonotope) {}
    /// The member's final logits zonotope (`1 × classes`). Also called on
    /// the non-finite early exit, with the unbounded logits placeholder.
    fn logits(&mut self, _member: usize, _z: &Zonotope) {}
}

impl ZonotopeObserver for () {}

/// One member of a propagation sweep: an input region over the sweep's
/// network plus the arguments that vary per query. [`Member::new`] is a
/// cold, deadline-free run of the whole network; override fields with
/// struct-update syntax (`Member { deadline, ..Member::new(input) }`).
#[derive(Debug, Clone, Copy)]
pub struct Member<'a> {
    /// The state entering encoder layer `start_layer`: the input region of
    /// a cold run, or the state snapshotted after layer `start_layer - 1`
    /// by an earlier run over the *exact same* region, network and config.
    pub input: &'a Zonotope,
    /// First encoder layer to run; `net.layers.len()` goes straight to
    /// pooling.
    pub start_layer: usize,
    /// Leading ε columns of `input` protected from every per-layer
    /// reduction, so their column indices survive to the logits (the
    /// refinement ladder reads per-symbol margin gradients off them). The
    /// reduction budget is raised to at least this many symbols.
    pub protect_eps: usize,
    /// Cooperative deadline, polled on entry, before every layer the member
    /// runs and before pooling.
    pub deadline: Deadline,
}

impl<'a> Member<'a> {
    /// A cold, unprotected, deadline-free member over `input`.
    pub fn new(input: &'a Zonotope) -> Self {
        Member {
            input,
            start_layer: 0,
            protect_eps: 0,
            deadline: Deadline::none(),
        }
    }
}

/// Propagates an input-region zonotope through the whole network and returns
/// the logits zonotope (`1 × classes`).
pub fn propagate(net: &VerifiableTransformer, input: &Zonotope, cfg: &DeepTConfig) -> Zonotope {
    only(propagate_batch(
        net,
        &[Member::new(input)],
        cfg,
        &NoopProbe,
        &mut (),
    ))
}

/// Propagates every member through the network in one lockstep sweep and
/// returns each member's logits zonotope (`1 × classes`), or
/// [`DeadlineExceeded`] for a member whose deadline expired at a
/// checkpoint.
///
/// This is the one propagation loop: a single query is a sweep of one.
/// The outer loop walks encoder layers, the inner loop walks the members
/// that run that layer, so a batch traverses each layer's weights together.
/// Every member runs the same per-layer pipeline (reduction → encoder
/// layer, then pooling) on its own state; members never exchange abstract
/// state, so a member's logits are **bitwise identical** to a one-member
/// sweep of it, and a resumed member's to its cold start.
///
/// Per member, in order: the deadline is checked on entry and
/// `observer.input` fires; before each layer from `start_layer` on the
/// deadline is checked, the layer runs and `observer.layer_output` fires; a
/// state with a non-finite entry ends the member at once with unbounded
/// logits (`observer.logits` fires on them); otherwise the deadline is
/// checked before pooling and `observer.logits` fires on the pooled
/// logits. An expired member leaves the sweep; its siblings go on.
///
/// Telemetry: if any member passes its entry check, the sweep reports one
/// [`SpanKind::Propagate`] span to `probe`, holding each running member's
/// `EncoderLayer(i)` and `Pooling` spans. Every layer, abstract transformer
/// and reduction reports zonotope precision stats and thread-pool counters
/// only when the probe is enabled, and the probe never changes a bit of the
/// result (see `tests/telemetry_trace.rs`). A one-member sweep also puts
/// its logits stats and thread-pool counters on the `Propagate` span.
///
/// # Panics
///
/// Panics if a member's `start_layer` exceeds `net.layers.len()`.
pub fn propagate_batch(
    net: &VerifiableTransformer,
    members: &[Member<'_>],
    cfg: &DeepTConfig,
    probe: &dyn Probe,
    observer: &mut dyn ZonotopeObserver,
) -> Vec<Result<Zonotope, DeadlineExceeded>> {
    assert!(
        members.iter().all(|m| m.start_layer <= net.layers.len()),
        "start layer out of range"
    );
    // A member propagates while its slot in `states` holds a state, and
    // leaves the sweep with its entry in `results`: logits or a timeout.
    let mut states: Vec<Option<Zonotope>> = Vec::with_capacity(members.len());
    let mut results: Vec<Option<Result<Zonotope, DeadlineExceeded>>> = vec![None; members.len()];
    for (m, member) in members.iter().enumerate() {
        states.push(match member.deadline.check() {
            Ok(()) => {
                observer.input(m, member.input);
                Some(member.input.clone())
            }
            Err(e) => {
                results[m] = Some(Err(e));
                None
            }
        });
    }
    if states.iter().any(Option::is_some) {
        probe.span_enter(SpanKind::Propagate);
        let par = (members.len() == 1 && probe.enabled()).then(parallel::snapshot);
        let last = net.layers.len().saturating_sub(1);
        for (i, layer) in net.layers.iter().enumerate() {
            for (m, member) in members.iter().enumerate() {
                if i < member.start_layer {
                    continue;
                }
                let Some(x) = states[m].take() else { continue };
                // Cancellation checkpoint: between layers, never
                // mid-transformer, so a completed run is unaffected by the
                // deadline's presence.
                if let Err(e) = member.deadline.check() {
                    results[m] = Some(Err(e));
                    continue;
                }
                let x = layer_step(net, layer, x, i, last, cfg, member.protect_eps, probe);
                observer.layer_output(m, i, &x);
                if x.has_non_finite() {
                    let unbounded = unbounded_logits(net, &x);
                    observer.logits(m, &unbounded);
                    results[m] = Some(Ok(unbounded));
                } else {
                    states[m] = Some(x);
                }
            }
        }
        for (m, member) in members.iter().enumerate() {
            let Some(x) = states[m].take() else { continue };
            results[m] = Some(member.deadline.check().map(|()| {
                let logits = pool_logits(net, &x, probe);
                observer.logits(m, &logits);
                logits
            }));
        }
        if let Some(before) = par {
            probe.parallel(parallel_stats_since(&before));
        }
        let stats = match &results[..] {
            [Some(Ok(z))] if probe.enabled() => Some(z.telemetry_stats()),
            _ => None,
        };
        probe.span_exit(SpanKind::Propagate, stats, 0);
    }
    results
        .into_iter()
        .map(|r| r.expect("every sweep member resolves to a result"))
        .collect()
}

/// The only result of a deadline-free one-member sweep.
fn only<T>(results: Vec<Result<T, DeadlineExceeded>>) -> T {
    match results.into_iter().next() {
        Some(Ok(out)) => out,
        _ => unreachable!("Deadline::none() never expires"),
    }
}

/// One encoder layer worth of abstract propagation — input reduction plus
/// the layer's transformers, with per-layer telemetry.
#[allow(clippy::too_many_arguments)]
fn layer_step(
    net: &VerifiableTransformer,
    layer: &EncoderLayer,
    x: Zonotope,
    i: usize,
    last: usize,
    cfg: &DeepTConfig,
    protect: usize,
    probe: &dyn Probe,
) -> Zonotope {
    let dot = if cfg.precise_last_layer_only && i != last {
        DotConfig {
            variant: DotVariant::Fast,
            ..cfg.dot
        }
    } else {
        cfg.dot
    };
    // The layer span also covers the input reduction, so per-layer
    // telemetry attributes dropped symbols to the layer they feed.
    probe.span_enter(SpanKind::EncoderLayer(i));
    let par = probe.enabled().then(parallel::snapshot);
    let eps_before = probe.enabled().then(deept_core::eps::snapshot);
    // Noise-symbol reduction at every layer input, before the residual
    // branch splits (§5.1). The budget can never drop below the
    // protected prefix (reduce_eps requires protect ≤ budget).
    let x = if let Some(budget) = cfg.reduction_budget {
        reduce_eps_probed(&x, budget.max(1).max(protect), protect, probe).0
    } else {
        x
    };
    let eps_in = x.num_eps();
    let x = encoder_layer(
        &x,
        layer,
        net.layer_norm,
        net.head_dim,
        dot,
        cfg.softmax,
        probe,
    );
    let created = x.num_eps().saturating_sub(eps_in);
    if let Some(before) = par {
        probe.parallel(parallel_stats_since(&before));
    }
    if let Some(eps_before) = eps_before {
        probe.eps_storage(deept_core::eps::storage_stats_since(
            &eps_before,
            x.eps_store(),
        ));
    }
    let stats = probe.enabled().then(|| x.telemetry_stats());
    probe.span_exit(SpanKind::EncoderLayer(i), stats, created);
    x
}

/// Bounds blew up (e.g. exp overflow): unbounded logits so certification
/// fails gracefully instead of propagating NaN arithmetic further.
fn unbounded_logits(net: &VerifiableTransformer, x: &Zonotope) -> Zonotope {
    let inf = Matrix::full(1, net.num_classes, f64::INFINITY);
    Zonotope::constant(&inf, x.p())
}

/// Pooling: first output embedding only (Figure 2), then the classifier
/// head.
fn pool_logits(net: &VerifiableTransformer, x: &Zonotope, probe: &dyn Probe) -> Zonotope {
    probe.span_enter(SpanKind::Pooling);
    let par = probe.enabled().then(parallel::snapshot);
    let pooled = x.select_rows(&[0]);
    let hidden = pooled
        .matmul_right(&net.head.wp)
        .add_row_bias(net.head.bp.row(0))
        .tanh();
    let logits = hidden
        .matmul_right(&net.head.wc)
        .add_row_bias(net.head.bc.row(0));
    if let Some(before) = par {
        probe.parallel(parallel_stats_since(&before));
    }
    let stats = probe.enabled().then(|| logits.telemetry_stats());
    probe.span_exit(SpanKind::Pooling, stats, 0);
    logits
}

/// Certifies that every point of the input region classifies as
/// `true_label`.
pub fn certify(
    net: &VerifiableTransformer,
    input: &Zonotope,
    true_label: usize,
    cfg: &DeepTConfig,
) -> CertResult {
    certify_probed(net, input, true_label, cfg, &NoopProbe)
}

/// [`certify`] with telemetry; see [`propagate_batch`].
pub fn certify_probed(
    net: &VerifiableTransformer,
    input: &Zonotope,
    true_label: usize,
    cfg: &DeepTConfig,
    probe: &dyn Probe,
) -> CertResult {
    only(certify_batch(
        net,
        &[Member::new(input)],
        true_label,
        cfg,
        probe,
        &mut (),
    ))
}

/// Certifies that every point of every member's region classifies as
/// `true_label`: the [`propagate_batch`] sweep, then each member's
/// per-class margin queries, with the member's deadline polled between
/// them. A member that completes is bitwise identical to a deadline-free
/// [`certify`] of the same query.
pub fn certify_batch(
    net: &VerifiableTransformer,
    members: &[Member<'_>],
    true_label: usize,
    cfg: &DeepTConfig,
    probe: &dyn Probe,
    observer: &mut dyn ZonotopeObserver,
) -> Vec<Result<CertResult, DeadlineExceeded>> {
    propagate_batch(net, members, cfg, probe, observer)
        .into_iter()
        .zip(members)
        .map(|(logits, member)| {
            let margins = margins_from_zonotope_deadline(&logits?, true_label, member.deadline)?;
            Ok(CertResult::from_margins(margins))
        })
        .collect()
}

/// One encoder layer in the abstract domain.
fn encoder_layer(
    x: &Zonotope,
    layer: &EncoderLayer,
    ln: LayerNormKind,
    head_dim: usize,
    dot: DotConfig,
    softmax: SoftmaxConfig,
    probe: &dyn Probe,
) -> Zonotope {
    // Multi-head self-attention (Eq. 1).
    probe.span_enter(SpanKind::Attention);
    let par = probe.enabled().then(parallel::snapshot);
    let scale = 1.0 / (head_dim as f64).sqrt();
    let mut heads = Vec::with_capacity(layer.attention.heads.len());
    for h in &layer.attention.heads {
        let q = x.matmul_right(&h.wq).scale(scale);
        let k = x.matmul_right(&h.wk);
        let v = x.matmul_right(&h.wv);
        let scores = zono_matmul_probed(&q, &k.transpose(), dot, probe);
        let attn = softmax_rows_probed(&scores, softmax, probe);
        heads.push(zono_matmul_probed(&attn, &v, dot, probe));
    }
    let merged = Zonotope::concat_cols(&heads);
    let z = merged
        .matmul_right(&layer.attention.w0)
        .add_row_bias(layer.attention.b0.row(0));
    let attn_created = z.num_eps().saturating_sub(x.num_eps());
    if let Some(before) = par {
        probe.parallel(parallel_stats_since(&before));
    }
    let stats = probe.enabled().then(|| z.telemetry_stats());
    probe.span_exit(SpanKind::Attention, stats, attn_created);

    // Residual + normalization.
    probe.span_enter(SpanKind::LayerNorm);
    let par = probe.enabled().then(parallel::snapshot);
    let x = layer_norm_abstract(&x.add(&z), &layer.ln1, ln, dot);
    if let Some(before) = par {
        probe.parallel(parallel_stats_since(&before));
    }
    let stats = probe.enabled().then(|| x.telemetry_stats());
    probe.span_exit(
        SpanKind::LayerNorm,
        stats,
        x.num_eps().saturating_sub(z.num_eps()),
    );

    // Feed-forward network.
    probe.span_enter(SpanKind::Ffn);
    let par = probe.enabled().then(parallel::snapshot);
    let h = x
        .matmul_right(&layer.ffn.w1)
        .add_row_bias(layer.ffn.b1.row(0))
        .relu();
    let y = h
        .matmul_right(&layer.ffn.w2)
        .add_row_bias(layer.ffn.b2.row(0));
    if let Some(before) = par {
        probe.parallel(parallel_stats_since(&before));
    }
    let stats = probe.enabled().then(|| y.telemetry_stats());
    probe.span_exit(
        SpanKind::Ffn,
        stats,
        y.num_eps().saturating_sub(x.num_eps()),
    );

    probe.span_enter(SpanKind::LayerNorm);
    let par = probe.enabled().then(parallel::snapshot);
    let out = layer_norm_abstract(&x.add(&y), &layer.ln2, ln, dot);
    if let Some(before) = par {
        probe.parallel(parallel_stats_since(&before));
    }
    let stats = probe.enabled().then(|| out.telemetry_stats());
    probe.span_exit(
        SpanKind::LayerNorm,
        stats,
        out.num_eps().saturating_sub(y.num_eps()),
    );
    out
}

/// Abstract layer normalization.
///
/// The no-std flavour is purely affine (exact). The standard flavour
/// composes mean subtraction, element-wise squaring (multiplication
/// transformer), the √ and reciprocal transformers, and a final
/// multiplication by the broadcast inverse standard deviation.
fn layer_norm_abstract(
    x: &Zonotope,
    ln: &LayerNorm,
    kind: LayerNormKind,
    dot: DotConfig,
) -> Zonotope {
    let centred = x.subtract_row_mean();
    let normed = match kind {
        LayerNormKind::NoStd => centred,
        LayerNormKind::Std { epsilon } => {
            let e = x.cols();
            // var = mean(centred²) per row.
            let sq = deept_core::dot::mul_elementwise(&centred, &centred, dot);
            let mean_w = Matrix::full(e, 1, 1.0 / e as f64);
            let var = sq.matmul_right(&mean_w); // (N × 1)
            let var = var.add_const(&Matrix::full(var.rows(), 1, epsilon));
            // 1/√(var): the abstract square can dip below zero while the
            // true variance is ≥ 0, so the composed sqrt→reciprocal
            // expression would inherit spuriously negative inputs. We
            // therefore concretize here: interval bounds of var (floored at
            // ε on domain grounds), mapped through the monotone 1/√·, give
            // a per-row interval represented with one fresh ε symbol.
            let (lv, uv) = var.bounds();
            let n_rows = var.rows();
            let mut center = Matrix::zeros(n_rows, 1);
            let mut radii = Matrix::zeros(n_rows, 1);
            for r in 0..n_rows {
                let l = lv[r].max(epsilon);
                let u = uv[r].max(epsilon);
                // Outward-rounded interval. Each endpoint of 1/√· carries up
                // to ~1.5 ulp of rounding (√ then divide) and the midpoint
                // and radius arithmetic round again; the old radius
                // 0.5·(hi − lo) rounded *inward*, so a concrete 1/√var at an
                // interval endpoint could land strictly outside the
                // represented box. Widen the endpoints by two ulps and take
                // the directed maximum distance from the centre, nudged up.
                let hi = (1.0 / l.sqrt()).next_up().next_up();
                let lo = (1.0 / u.sqrt()).next_down().next_down();
                let mid = 0.5 * (hi + lo);
                center.set(r, 0, mid);
                radii.set(r, 0, (hi - mid).max(mid - lo).next_up());
            }
            let boxed = Zonotope::from_box(&center, &radii, x.p());
            // Align symbol spaces: the boxed interval shares no φ/ε with x,
            // so lift it into x's symbol layout with its fresh symbols at
            // the tail. The lift is structural — the diagonal fresh-symbol
            // block just moves to a higher column offset.
            let phi_pad = Matrix::zeros(n_rows, centred.num_phi());
            let eps_lift = boxed.eps_store().lifted(centred.num_eps());
            let inv_std = Zonotope::from_parts_store(
                n_rows,
                1,
                boxed.center().to_vec(),
                phi_pad,
                eps_lift,
                x.p(),
            );
            // Broadcast to (N × E) and multiply element-wise.
            let ones = Matrix::full(1, e, 1.0);
            let inv_b = inv_std.matmul_right(&ones);
            let mut centred_padded = centred.clone();
            centred_padded.pad_eps(inv_b.num_eps());
            deept_core::dot::mul_elementwise(&centred_padded, &inv_b, dot)
        }
    };
    normed
        .mul_row_weights(ln.gamma.row(0))
        .add_row_bias(ln.beta.row(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use deept_core::PNorm;
    use deept_nn::transformer::{TransformerClassifier, TransformerConfig};
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

    fn check_propagation_sound(ln: LayerNormKind, p: PNorm, cfg: &DeepTConfig, seed: u64) {
        let model = tiny_model(ln, 2);
        let net = VerifiableTransformer::from(&model);
        let tokens = [1usize, 5, 9, 2];
        let emb = model.embed(&tokens);
        let region = crate::network::t1_region(&emb, 1, 0.05, p);
        let logits = propagate(&net, &region, cfg);
        let (lo, hi) = logits.bounds();
        // Sample concrete embeddings from the region, run the concrete
        // network, check containment.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..60 {
            let (phi, eps) = region.sample_noise(&mut rng);
            let x = region.evaluate(&phi, &eps);
            let xm = Matrix::from_vec(emb.rows(), emb.cols(), x)
                .expect("Zonotope::evaluate yields rows*cols values for a rows x cols zonotope");
            let out = model.classify(&model.encode(&xm));
            for c in 0..2 {
                assert!(
                    out.at(0, c) >= lo[c] - 1e-7 && out.at(0, c) <= hi[c] + 1e-7,
                    "{ln:?}/{p:?}: logit {c} = {} outside [{}, {}]",
                    out.at(0, c),
                    lo[c],
                    hi[c]
                );
            }
        }
    }

    #[test]
    fn propagation_sound_no_std_all_norms() {
        for p in [PNorm::L1, PNorm::L2, PNorm::Linf] {
            check_propagation_sound(LayerNormKind::NoStd, p, &DeepTConfig::fast(4000), 1);
        }
    }

    #[test]
    fn propagation_sound_std_layer_norm() {
        check_propagation_sound(
            LayerNormKind::Std { epsilon: 1e-5 },
            PNorm::L2,
            &DeepTConfig::fast(4000),
            2,
        );
    }

    #[test]
    fn propagation_sound_precise_and_combined() {
        check_propagation_sound(
            LayerNormKind::NoStd,
            PNorm::Linf,
            &DeepTConfig::precise(500),
            3,
        );
        check_propagation_sound(
            LayerNormKind::NoStd,
            PNorm::Linf,
            &DeepTConfig::combined(500),
            4,
        );
    }

    #[test]
    fn propagation_sound_with_reduction_pressure() {
        // A harsh budget forces reductions at every layer.
        check_propagation_sound(LayerNormKind::NoStd, PNorm::L2, &DeepTConfig::fast(16), 5);
    }

    #[test]
    fn zero_radius_certifies_correct_class() {
        let model = tiny_model(LayerNormKind::NoStd, 1);
        let net = VerifiableTransformer::from(&model);
        let tokens = [3usize, 4, 5];
        let emb = model.embed(&tokens);
        let pred = model.predict(&tokens);
        let region = crate::network::t1_region(&emb, 0, 0.0, PNorm::L2);
        let res = certify(&net, &region, pred, &DeepTConfig::fast(4000));
        assert!(res.certified, "zero radius must certify: {:?}", res.margins);
        // And certifying the wrong label must fail.
        let res_wrong = certify(&net, &region, 1 - pred, &DeepTConfig::fast(4000));
        assert!(!res_wrong.certified);
    }

    #[test]
    fn certification_is_monotone_in_radius() {
        let model = tiny_model(LayerNormKind::NoStd, 1);
        let net = VerifiableTransformer::from(&model);
        let tokens = [3usize, 4, 5];
        let emb = model.embed(&tokens);
        let pred = model.predict(&tokens);
        let cfg = DeepTConfig::fast(4000);
        let margin = |r: f64| {
            let region = crate::network::t1_region(&emb, 1, r, PNorm::L2);
            certify(&net, &region, pred, &cfg).margins[1 - pred]
        };
        let m0 = margin(0.001);
        let m1 = margin(0.01);
        let m2 = margin(0.1);
        assert!(m0 >= m1 && m1 >= m2, "margins not monotone: {m0} {m1} {m2}");
    }

    #[test]
    fn expired_deadline_aborts_certification() {
        let model = tiny_model(LayerNormKind::NoStd, 2);
        let net = VerifiableTransformer::from(&model);
        let tokens = [1usize, 2, 3];
        let emb = model.embed(&tokens);
        let region = crate::network::t1_region(&emb, 0, 0.01, PNorm::L2);
        let member = Member {
            deadline: Deadline::at(std::time::Instant::now() - std::time::Duration::from_millis(1)),
            ..Member::new(&region)
        };
        let res = certify_batch(
            &net,
            &[member],
            0,
            &DeepTConfig::fast(4000),
            &NoopProbe,
            &mut (),
        );
        assert_eq!(res, [Err(DeadlineExceeded)]);
    }

    #[test]
    fn generous_deadline_matches_unlimited_certification_bitwise() {
        let model = tiny_model(LayerNormKind::NoStd, 2);
        let net = VerifiableTransformer::from(&model);
        let tokens = [1usize, 5, 9];
        let emb = model.embed(&tokens);
        let cfg = DeepTConfig::fast(4000);
        let region = crate::network::t1_region(&emb, 1, 0.02, PNorm::Linf);
        let pred = model.predict(&tokens);
        let plain = certify(&net, &region, pred, &cfg);
        let member = Member {
            deadline: Deadline::after(std::time::Duration::from_secs(3600)),
            ..Member::new(&region)
        };
        let limited = certify_batch(&net, &[member], pred, &cfg, &NoopProbe, &mut ())
            .remove(0)
            .expect("generous deadline must not expire");
        assert_eq!(plain, limited);
    }

    /// Collects every layer-boundary state, as the serve state cache does.
    struct CollectStates {
        states: Vec<Zonotope>,
    }

    impl ZonotopeObserver for CollectStates {
        fn layer_output(&mut self, _member: usize, i: usize, z: &Zonotope) {
            assert_eq!(i, self.states.len(), "layer outputs arrive in order");
            self.states.push(z.clone());
        }
    }

    #[test]
    fn resume_from_every_layer_matches_cold_bitwise() {
        // The state-cache contract: resuming from the snapshot taken after
        // layer k, with start_layer = k + 1, reproduces the cold logits
        // bit for bit — for every layer, config and norm.
        let model = tiny_model(LayerNormKind::NoStd, 3);
        let net = VerifiableTransformer::from(&model);
        let tokens = [1usize, 5, 9, 2];
        let emb = model.embed(&tokens);
        for cfg in [
            DeepTConfig::fast(60),
            DeepTConfig::precise(500),
            DeepTConfig::combined(500),
        ] {
            for p in [PNorm::L1, PNorm::L2, PNorm::Linf] {
                let region = crate::network::t1_region(&emb, 1, 0.03, p);
                let mut snap = CollectStates { states: Vec::new() };
                let cold =
                    propagate_batch(&net, &[Member::new(&region)], &cfg, &NoopProbe, &mut snap)
                        .remove(0)
                        .expect("Deadline::none() never expires");
                assert_eq!(snap.states.len(), net.layers.len());
                let (cl, cu) = cold.bounds();
                for (k, state) in snap.states.iter().enumerate() {
                    let member = Member {
                        start_layer: k + 1,
                        ..Member::new(state)
                    };
                    let warm = propagate_batch(&net, &[member], &cfg, &NoopProbe, &mut ())
                        .remove(0)
                        .expect("Deadline::none() never expires");
                    let (wl, wu) = warm.bounds();
                    assert_eq!(cl, wl, "{p:?} layer {k}: lower bounds diverged");
                    assert_eq!(cu, wu, "{p:?} layer {k}: upper bounds diverged");
                }
            }
        }
    }

    /// Records per-member snapshots from a batched sweep.
    struct CollectBatchStates {
        states: Vec<Vec<(usize, Zonotope)>>,
    }

    impl ZonotopeObserver for CollectBatchStates {
        fn layer_output(&mut self, member: usize, layer: usize, z: &Zonotope) {
            self.states[member].push((layer, z.clone()));
        }
    }

    #[test]
    fn resumable_batch_mid_stack_matches_serial_bitwise() {
        // A fused synonym sweep resumes every member from a shared cached
        // state; each member's margins must equal the cold serial result
        // exactly, whatever layer it joins at.
        let model = tiny_model(LayerNormKind::NoStd, 3);
        let net = VerifiableTransformer::from(&model);
        let tokens = [1usize, 5, 9, 2];
        let emb = model.embed(&tokens);
        let pred = model.predict(&tokens);
        let cfg = DeepTConfig::fast(60);
        for p in [PNorm::L2, PNorm::Linf] {
            let regions: Vec<_> = [0.001, 0.01, 0.05]
                .iter()
                .map(|&eps| crate::network::t1_region(&emb, 1, eps, p))
                .collect();
            // Cold pass, capturing per-member layer states through the sink.
            let members: Vec<Member<'_>> = regions.iter().map(Member::new).collect();
            let mut sink = CollectBatchStates {
                states: vec![Vec::new(); regions.len()],
            };
            let cold = certify_batch(&net, &members, pred, &cfg, &NoopProbe, &mut sink);
            // Resume each member from a different depth (0 = cold re-run,
            // 1..=layers = snapshot states), in one batch.
            let n_layers = net.layers.len();
            let starts: Vec<usize> = (0..regions.len())
                .map(|m| (m + 1) % (n_layers + 1))
                .collect();
            let inputs: Vec<Zonotope> = starts
                .iter()
                .enumerate()
                .map(|(m, &s)| {
                    if s == 0 {
                        regions[m].clone()
                    } else {
                        let (layer, z) = &sink.states[m][s - 1];
                        assert_eq!(*layer, s - 1);
                        z.clone()
                    }
                })
                .collect();
            let warm_members: Vec<Member<'_>> = inputs
                .iter()
                .zip(&starts)
                .map(|(r, &start_layer)| Member {
                    start_layer,
                    ..Member::new(r)
                })
                .collect();
            let warm = certify_batch(&net, &warm_members, pred, &cfg, &NoopProbe, &mut ());
            for (m, (c, w)) in cold.iter().zip(&warm).enumerate() {
                assert_eq!(
                    c.as_ref().expect("no deadline"),
                    w.as_ref().expect("no deadline"),
                    "{p:?} member {m} (start {}): warm diverged from cold",
                    starts[m]
                );
            }
            // The serial snapshot collector and the batched sink see the
            // same states for the same query.
            let mut serial = CollectStates { states: Vec::new() };
            let _ = propagate_batch(
                &net,
                &[Member::new(&regions[0])],
                &cfg,
                &NoopProbe,
                &mut serial,
            );
            assert_eq!(serial.states.len(), sink.states[0].len());
            for (k, (layer, z)) in sink.states[0].iter().enumerate() {
                assert_eq!(*layer, k);
                assert_eq!(&serial.states[k], z, "{p:?}: sink state {k} diverged");
            }
        }
    }

    #[test]
    fn protected_prefix_still_sound_and_keeps_region_symbols() {
        // Propagating with the input region's ε columns protected must keep
        // those columns addressable at the logits and stay sound (protection
        // only changes *which* symbols a reduction folds away).
        let model = tiny_model(LayerNormKind::NoStd, 2);
        let net = VerifiableTransformer::from(&model);
        let tokens = [1usize, 5, 9, 2];
        let emb = model.embed(&tokens);
        let region = crate::network::t1_region(&emb, 1, 0.05, PNorm::Linf);
        let protect = region.num_eps();
        assert!(protect > 0, "Linf region must carry input ε symbols");
        let cfg = DeepTConfig::fast(16);
        let member = Member {
            protect_eps: protect,
            ..Member::new(&region)
        };
        let logits = propagate_batch(&net, &[member], &cfg, &NoopProbe, &mut ())
            .remove(0)
            .expect("Deadline::none() never expires");
        assert!(
            logits.num_eps() >= protect,
            "protected region symbols must survive to the logits"
        );
        let (lo, hi) = logits.bounds();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..40 {
            let (phi, eps) = region.sample_noise(&mut rng);
            let x = region.evaluate(&phi, &eps);
            let xm = Matrix::from_vec(emb.rows(), emb.cols(), x).expect("shape");
            let out = model.classify(&model.encode(&xm));
            for c in 0..2 {
                assert!(
                    out.at(0, c) >= lo[c] - 1e-7 && out.at(0, c) <= hi[c] + 1e-7,
                    "logit {c} = {} outside [{}, {}]",
                    out.at(0, c),
                    lo[c],
                    hi[c]
                );
            }
        }
    }

    #[test]
    fn batched_lockstep_matches_serial_bitwise() {
        // The fused serve path leans on this: a batch member's result must
        // equal the serially-certified result exactly, for every config and
        // norm, with per-member deadlines honoured independently.
        let model = tiny_model(LayerNormKind::NoStd, 2);
        let net = VerifiableTransformer::from(&model);
        let tokens = [1usize, 5, 9, 2];
        let emb = model.embed(&tokens);
        let pred = model.predict(&tokens);
        for cfg in [
            DeepTConfig::fast(60),
            DeepTConfig::precise(500),
            DeepTConfig::combined(500),
        ] {
            for p in [PNorm::L1, PNorm::L2, PNorm::Linf] {
                let regions: Vec<_> = [0.001, 0.01, 0.05]
                    .iter()
                    .map(|&eps| crate::network::t1_region(&emb, 1, eps, p))
                    .collect();
                let members: Vec<Member<'_>> = regions.iter().map(Member::new).collect();
                let batched = certify_batch(&net, &members, pred, &cfg, &NoopProbe, &mut ());
                for (region, got) in regions.iter().zip(&batched) {
                    let serial = certify(&net, region, pred, &cfg);
                    assert_eq!(
                        got.as_ref().expect("no deadline in play"),
                        &serial,
                        "{p:?}: fused result diverged from serial"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_member_deadlines_are_independent() {
        let model = tiny_model(LayerNormKind::NoStd, 2);
        let net = VerifiableTransformer::from(&model);
        let tokens = [1usize, 2, 3];
        let emb = model.embed(&tokens);
        let pred = model.predict(&tokens);
        let cfg = DeepTConfig::fast(4000);
        let live = crate::network::t1_region(&emb, 0, 0.01, PNorm::L2);
        let dead = crate::network::t1_region(&emb, 0, 0.02, PNorm::L2);
        let expired = Deadline::at(std::time::Instant::now() - std::time::Duration::from_millis(1));
        let members = [
            Member {
                deadline: expired,
                ..Member::new(&dead)
            },
            Member::new(&live),
        ];
        let out = certify_batch(&net, &members, pred, &cfg, &NoopProbe, &mut ());
        assert_eq!(out[0], Err(DeadlineExceeded));
        let serial = certify(&net, &live, pred, &cfg);
        assert_eq!(
            out[1].as_ref().expect("unlimited member must finish"),
            &serial,
            "an expired sibling must not perturb a live member"
        );
    }

    /// Records each member's logits hook and whether any of its layer
    /// outputs held a non-finite entry.
    struct ExitWatch {
        logits: Vec<Option<Zonotope>>,
        non_finite: Vec<bool>,
    }

    impl ZonotopeObserver for ExitWatch {
        fn layer_output(&mut self, member: usize, _layer: usize, z: &Zonotope) {
            self.non_finite[member] |= z.has_non_finite();
        }
        fn logits(&mut self, member: usize, z: &Zonotope) {
            self.logits[member] = Some(z.clone());
        }
    }

    #[test]
    fn non_finite_member_in_a_fused_sweep() {
        // Member 1's region is so wide that its bounds overflow mid-stack
        // (the early exit `verifier.nonfinite_exits` counts); it must get
        // the unbounded placeholder and a failed verdict without touching
        // its siblings.
        let model = tiny_model(LayerNormKind::Std { epsilon: 1e-5 }, 2);
        let net = VerifiableTransformer::from(&model);
        let tokens = [1usize, 5, 9, 2];
        let emb = model.embed(&tokens);
        let pred = model.predict(&tokens);
        let cfg = DeepTConfig::fast(60);
        let regions = [
            crate::network::t1_region(&emb, 1, 0.01, PNorm::L2),
            crate::network::t1_region(&emb, 1, 1e300, PNorm::Linf),
            crate::network::t1_region(&emb, 2, 0.02, PNorm::L1),
        ];
        let members: Vec<Member<'_>> = regions.iter().map(Member::new).collect();
        let mut watch = ExitWatch {
            logits: vec![None; members.len()],
            non_finite: vec![false; members.len()],
        };
        let fused = certify_batch(&net, &members, pred, &cfg, &NoopProbe, &mut watch);
        assert_eq!(watch.non_finite, [false, true, false]);
        let blown = fused[1].as_ref().expect("no deadline in play");
        assert!(!blown.certified, "an overflowed region must not certify");
        let placeholder = watch.logits[1]
            .as_ref()
            .expect("the non-finite member's logits hook fires");
        assert!(placeholder.center().iter().all(|&c| c == f64::INFINITY));
        for m in [0, 2] {
            let mut alone = ExitWatch {
                logits: vec![None],
                non_finite: vec![false],
            };
            let serial = certify_batch(&net, &members[m..=m], pred, &cfg, &NoopProbe, &mut alone);
            assert_eq!(fused[m], serial[0], "member {m}: verdict diverged");
            assert_eq!(
                watch.logits[m], alone.logits[0],
                "member {m}: logits diverged"
            );
        }
    }

    #[test]
    fn multi_member_sweep_trace_shape() {
        // The benchmark's per-layer breakdown reads this shape: one
        // propagate span holding every member's layer and pooling spans.
        let model = tiny_model(LayerNormKind::NoStd, 2);
        let net = VerifiableTransformer::from(&model);
        let emb = model.embed(&[1usize, 5, 9, 2]);
        let regions: Vec<_> = [0.001, 0.01, 0.02]
            .iter()
            .map(|&eps| crate::network::t1_region(&emb, 1, eps, PNorm::L2))
            .collect();
        let members: Vec<Member<'_>> = regions.iter().map(Member::new).collect();
        let collector = deept_telemetry::TraceCollector::new();
        let _ = propagate_batch(&net, &members, &DeepTConfig::fast(60), &collector, &mut ());
        let trace = collector.finish();
        assert_eq!(trace.unbalanced_exits, 0);
        assert_eq!(trace.spans.len(), 1, "one propagate span per sweep");
        let root = &trace.spans[0];
        assert_eq!(root.group, "propagate");
        let count = |label: &str| root.children.iter().filter(|c| c.label == label).count();
        for i in 0..net.layers.len() {
            assert_eq!(count(&format!("encoder_layer[{i}]")), 3, "layer {i}");
        }
        assert_eq!(count("pooling"), 3);
        assert_eq!(root.children.len(), 3 * net.layers.len() + 3);
    }

    #[test]
    fn precise_never_worse_than_fast_on_linf() {
        let model = tiny_model(LayerNormKind::NoStd, 1);
        let net = VerifiableTransformer::from(&model);
        let tokens = [1usize, 2, 3];
        let emb = model.embed(&tokens);
        let pred = model.predict(&tokens);
        let region = crate::network::t1_region(&emb, 1, 0.02, PNorm::Linf);
        let fast = certify(&net, &region, pred, &DeepTConfig::fast(100_000));
        let precise = certify(&net, &region, pred, &DeepTConfig::precise(100_000));
        assert!(
            precise.margins[1 - pred] >= fast.margins[1 - pred] - 1e-9,
            "precise {} < fast {}",
            precise.margins[1 - pred],
            fast.margins[1 - pred]
        );
    }
}
