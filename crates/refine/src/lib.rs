//! **deept-refine** — a deadline-aware CEGAR escalation ladder.
//!
//! DeepT's Fast and Precise verifiers answer most queries, but anything the
//! abstract domain cannot separate comes back "unknown". This crate turns
//! those answers into certified / falsified ones with a three-level ladder:
//!
//! 1. **Fast** — one DeepT-Fast propagation;
//! 2. **Precise** — one DeepT-Precise propagation (capturing the layer-0
//!    output snapshot for later resumption);
//! 3. **Refine** — randomized falsification ([`attack_t1`]) followed by
//!    best-first branch-and-bound over noise-symbol splits.
//!
//! The refinement stage maintains a priority queue of subproblems ordered
//! by margin lower bound (worst first). Each node carries a region zonotope
//! and the encoder layer it enters the network at:
//!
//! * **ℓ∞ queries** branch at the *input*: the perturbation ball is a
//!   diagonal ε box, so bisecting an ε symbol is exact input-ball bisection
//!   along one embedding coordinate, and a concrete misclassifying sample
//!   is a genuine adversarial example.
//! * **ℓ1/ℓ2 queries** carry their joint budget in φ symbols, which cannot
//!   be split per-coordinate (the norm constraint couples them). These
//!   branch on the ε symbols of the Precise pass's layer-0 *snapshot*
//!   (softmax/reciprocal/reduction noise), resuming propagation from layer
//!   1 via the verifier's suffix entry point — only layers downstream of
//!   the split are re-propagated.
//!
//! Split candidates are ranked by the margin gradient read directly off the
//! logits zonotope: node regions are propagated with their ε columns
//! *protected* from reduction, so region symbol `j`'s output coefficient
//! `β_t,j − β_f,j` (true vs. worst class) is exact — coefficient magnitude
//! already folds in the symbol's interval width.
//!
//! Concrete counterexamples prune branches early: a misclassifying sample
//! at an intermediate-layer node is possibly spurious (snapshots
//! over-approximate), but it survives *any* further split of that region,
//! so the subtree can never certify and is abandoned. At an input-level
//! node the same sample is a genuine [`RefineOutcome::Falsified`].
//!
//! On deadline expiry the ladder returns
//! [`RefineOutcome::Unknown`] with a *sound* partial bound: the minimum
//! over certified-leaf margins, pruned-leaf bounds and the inherited bounds
//! of still-open nodes (a child region is a subset of its parent, so the
//! parent's measured margin lower-bounds every descendant).
//!
//! Everything is deterministic for a fixed seed and node budget: margins
//! are bitwise reproducible across `DEEPT_THREADS` / `DEEPT_KERNEL` /
//! `DEEPT_EPS` (the PR 2/5/7 guarantees), sampling uses per-node seeded
//! ChaCha8 streams, and the queue breaks ties by node id — so the branch
//! tree itself is pinned by the equivalence tests.

#![deny(clippy::print_stdout)]

mod hot;
pub mod split;

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

use deept_core::reduce::reduce_eps;
use deept_core::{PNorm, Zonotope};
use deept_nn::transformer::TransformerClassifier;
use deept_telemetry::{NoopProbe, Probe, SpanKind};
use deept_tensor::{ops, Matrix};
use deept_verifier::attack::attack_t1;
use deept_verifier::deept::{
    certify_batch, propagate_batch, DeepTConfig, Member, ZonotopeObserver,
};
use deept_verifier::network::{margins_from_zonotope, t1_region};
use deept_verifier::{Deadline, DeadlineExceeded, VerifiableTransformer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

pub use split::{restrict_eps, Half};

/// Tuning knobs of the escalation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefineConfig {
    /// Reduction budget of the level-0 Fast pass.
    pub fast_budget: usize,
    /// Reduction budget of the level-1 Precise pass.
    pub precise_budget: usize,
    /// Reduction budget per branch-and-bound node (raised to the protected
    /// region-symbol count when smaller).
    pub refine_budget: usize,
    /// Maximum split depth of any branch.
    pub max_depth: usize,
    /// Maximum branch-and-bound nodes explored (the deterministic budget;
    /// the wall-clock [`Deadline`] can stop the search earlier).
    pub max_nodes: usize,
    /// Sample budget of the global [`attack_t1`] falsification attempt.
    pub attack_samples: usize,
    /// Concrete samples drawn per node for counterexample pruning.
    pub prune_samples: usize,
    /// Seed of every randomized component (attack + per-node sampling).
    pub seed: u64,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig {
            fast_budget: 2000,
            precise_budget: 500,
            refine_budget: 192,
            max_depth: 12,
            max_nodes: 128,
            attack_samples: 200,
            prune_samples: 12,
            seed: 0,
        }
    }
}

/// The ladder level that produced the final verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefineLevel {
    /// DeepT-Fast alone decided.
    Fast,
    /// DeepT-Precise decided.
    Precise,
    /// The refinement stage (attack or branch-and-bound) decided.
    Refine,
}

impl RefineLevel {
    /// Lower-case wire/report name.
    pub fn as_str(&self) -> &'static str {
        match self {
            RefineLevel::Fast => "fast",
            RefineLevel::Precise => "precise",
            RefineLevel::Refine => "refine",
        }
    }
}

/// Final verdict of one refined query.
#[derive(Debug, Clone, PartialEq)]
pub enum RefineOutcome {
    /// Every point of the input region classifies as the true label; the
    /// margin is a sound lower bound on `y_true − y_worst` over the region.
    Certified {
        /// Worst-class margin lower bound.
        margin: f64,
    },
    /// A concrete input-region embedding that misclassifies.
    Falsified {
        /// The adversarial embedding matrix (same shape as the input).
        adversarial_example: Matrix,
    },
    /// Neither proven nor falsified (deadline, depth or node budget); the
    /// bound is still a sound margin lower bound over the region.
    Unknown {
        /// Sound partial margin lower bound (may be `−∞`).
        lower_bound: f64,
    },
}

impl RefineOutcome {
    /// Lower-case wire/report name of the verdict.
    pub fn verdict(&self) -> &'static str {
        match self {
            RefineOutcome::Certified { .. } => "certified",
            RefineOutcome::Falsified { .. } => "falsified",
            RefineOutcome::Unknown { .. } => "unknown",
        }
    }
}

/// What the branch-and-bound loop did with one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeAction {
    /// The node's region certified.
    Certified,
    /// The node was split on the given region symbol.
    Split {
        /// ε column that was bisected.
        symbol: usize,
    },
    /// A concrete counterexample at an intermediate layer made the subtree
    /// hopeless (possibly spurious, so not a falsification).
    Pruned,
    /// A genuine input-level adversarial example was found here.
    Falsified,
    /// Depth/candidate exhaustion: the node stays unknown.
    Stuck,
}

/// One explored node of the branch tree, in exploration order. The full
/// trace is the determinism fingerprint pinned by the equivalence tests.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeTrace {
    /// Exploration-order id (root = 0).
    pub id: usize,
    /// Parent node id (`None` for the root).
    pub parent: Option<usize>,
    /// Split depth.
    pub depth: usize,
    /// Encoder layer the node's region enters the network at.
    pub start_layer: usize,
    /// Sound margin lower bound measured at this node.
    pub margin: f64,
    /// What happened to the node.
    pub action: NodeAction,
}

/// Everything one ladder run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RefineReport {
    /// The verdict.
    pub outcome: RefineOutcome,
    /// Ladder level that decided.
    pub level: RefineLevel,
    /// Escalations taken (0 = Fast decided, 1 = Precise, 2 = Refine ran).
    pub escalations: usize,
    /// Branch-and-bound splits performed.
    pub branches: usize,
    /// Subtrees pruned by concrete counterexamples.
    pub pruned: usize,
    /// Branch-and-bound nodes explored.
    pub nodes_explored: usize,
    /// Whether the wall-clock deadline cut the run short.
    pub timed_out: bool,
    /// Wall-clock seconds per level `[fast, precise, refine]`.
    pub level_seconds: [f64; 3],
    /// The branch tree, in exploration order.
    pub trace: Vec<NodeTrace>,
}

/// One open subproblem.
struct Node {
    id: usize,
    parent: Option<usize>,
    depth: usize,
    start_layer: usize,
    /// Sound margin lower bound inherited from the parent's evaluation.
    bound: f64,
    region: Zonotope,
}

/// Max-heap entry: the worst (most negative) bound pops first; ties break
/// toward the older node so exploration order is deterministic.
struct QueueEntry(Node);

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.0.bound.to_bits() == other.0.bound.to_bits() && self.0.id == other.0.id
    }
}
impl Eq for QueueEntry {}
impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .0
            .bound
            .total_cmp(&self.0.bound)
            .then_with(|| other.0.id.cmp(&self.0.id))
    }
}

/// Captures the abstract state after encoder layer 0 during the Precise
/// pass, so ℓ1/ℓ2 refinement can resume from layer 1.
#[derive(Default)]
struct Layer0Snapshot {
    z1: Option<Zonotope>,
}

impl ZonotopeObserver for Layer0Snapshot {
    fn layer_output(&mut self, _member: usize, i: usize, z: &Zonotope) {
        if i == 0 {
            self.z1 = Some(z.clone());
        }
    }
}

/// Worst (minimum) margin over the non-true classes; `+∞` when there is no
/// competing class.
fn worst_margin(margins: &[f64]) -> f64 {
    margins.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Index of the worst competing class, if any.
fn worst_class(margins: &[f64], true_label: usize) -> Option<usize> {
    margins
        .iter()
        .enumerate()
        .filter(|&(f, _)| f != true_label)
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(f, _)| f)
}

/// Concrete forward pass from the boundary in front of encoder layer
/// `start_layer` to a predicted class.
fn classify_from(model: &TransformerClassifier, x: &Matrix, start_layer: usize) -> usize {
    let mut x = x.clone();
    for layer in &model.layers[start_layer..] {
        x = layer.forward(&x, model.config.layer_norm, model.config.head_dim());
    }
    ops::argmax(model.classify(&x).row(0))
}

/// Draws deterministic samples from `region` and returns the first
/// misclassifying concrete state, if any. Half the samples are extreme
/// (noise at ±1), half interior.
fn find_counterexample(
    model: &TransformerClassifier,
    region: &Zonotope,
    start_layer: usize,
    true_label: usize,
    samples: usize,
    rng: &mut ChaCha8Rng,
) -> Option<Matrix> {
    for s in 0..samples {
        let (phi, eps) = if s % 2 == 0 {
            region.sample_extreme_noise(rng)
        } else {
            region.sample_noise(rng)
        };
        let flat = region.evaluate(&phi, &eps);
        let x = Matrix::from_vec(region.rows(), region.cols(), flat)
            .expect("region evaluation yields rows*cols values");
        if classify_from(model, &x, start_layer) != true_label {
            return Some(x);
        }
    }
    None
}

/// Picks the split symbol with the largest margin gradient
/// `|β_t,j − β_f,j|` over the protected region columns `0..protect`; ties
/// break toward the lowest column. Returns `None` when every protected
/// coefficient is zero or non-finite (nothing to gain from splitting).
fn best_split_symbol(
    logits: &Zonotope,
    true_label: usize,
    worst: usize,
    protect: usize,
) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for j in 0..protect.min(logits.num_eps()) {
        let g = (logits.eps_at(true_label, j) - logits.eps_at(worst, j)).abs();
        if !g.is_finite() || g == 0.0 {
            continue;
        }
        match best {
            Some((_, bg)) if g <= bg => {}
            _ => best = Some((j, g)),
        }
    }
    best.map(|(j, _)| j)
}

/// Runs the full escalation ladder on one T1 query; see the crate docs.
///
/// `true_label` is the class to certify — the ladder requires it to match
/// the model's clean prediction (otherwise the unperturbed embedding is
/// already a counterexample, returned as [`RefineOutcome::Falsified`]).
#[allow(clippy::too_many_arguments)]
pub fn refine_certify(
    model: &TransformerClassifier,
    tokens: &[usize],
    position: usize,
    radius: f64,
    p: PNorm,
    true_label: usize,
    cfg: &RefineConfig,
    deadline: Deadline,
) -> RefineReport {
    refine_certify_probed(
        model, tokens, position, radius, p, true_label, cfg, deadline, &NoopProbe,
    )
}

/// [`refine_certify`] with telemetry: the ladder reports one
/// [`SpanKind::RefineNode`] span per branch-and-bound node, in exploration
/// order, carrying the node's logits precision stats.
#[allow(clippy::too_many_arguments)]
pub fn refine_certify_probed(
    model: &TransformerClassifier,
    tokens: &[usize],
    position: usize,
    radius: f64,
    p: PNorm,
    true_label: usize,
    cfg: &RefineConfig,
    deadline: Deadline,
    probe: &dyn Probe,
) -> RefineReport {
    let net = VerifiableTransformer::from(model);
    let emb = model.embed(tokens);
    let region = t1_region(&emb, position, radius, p);

    let mut report = RefineReport {
        outcome: RefineOutcome::Unknown {
            lower_bound: f64::NEG_INFINITY,
        },
        level: RefineLevel::Fast,
        escalations: 0,
        branches: 0,
        pruned: 0,
        nodes_explored: 0,
        timed_out: false,
        level_seconds: [0.0; 3],
        trace: Vec::new(),
    };

    // The center of the ball must already classify correctly; otherwise the
    // unperturbed embedding falsifies the query outright.
    if classify_from(model, &emb, 0) != true_label {
        report.outcome = RefineOutcome::Falsified {
            adversarial_example: emb,
        };
        return report;
    }

    // Level 0: Fast.
    let t0 = Instant::now();
    let member = Member {
        deadline,
        ..Member::new(&region)
    };
    let fast = certify_batch(
        &net,
        &[member],
        true_label,
        &DeepTConfig::fast(cfg.fast_budget),
        probe,
        &mut (),
    )
    .remove(0);
    report.level_seconds[0] = t0.elapsed().as_secs_f64();
    hot::fast_seconds().observe(report.level_seconds[0]);
    let mut best_bound = f64::NEG_INFINITY;
    match fast {
        Err(DeadlineExceeded) => {
            report.timed_out = true;
            return report;
        }
        Ok(res) => {
            let m = worst_margin(&res.margins);
            best_bound = best_bound.max(m);
            if res.certified {
                report.outcome = RefineOutcome::Certified { margin: m };
                return report;
            }
        }
    }

    // Level 1: Precise, snapshotting the layer-0 output for resumption.
    report.escalations = 1;
    hot::escalations_total().inc();
    report.level = RefineLevel::Precise;
    let t1 = Instant::now();
    let pcfg = DeepTConfig::precise(cfg.precise_budget);
    let mut snap = Layer0Snapshot::default();
    let precise = propagate_batch(&net, &[member], &pcfg, &NoopProbe, &mut snap).remove(0);
    report.level_seconds[1] = t1.elapsed().as_secs_f64();
    hot::precise_seconds().observe(report.level_seconds[1]);
    match precise {
        Err(DeadlineExceeded) => {
            report.timed_out = true;
            report.outcome = RefineOutcome::Unknown {
                lower_bound: best_bound,
            };
            return report;
        }
        Ok(logits) => {
            let margins = margins_from_zonotope(&logits, true_label);
            let m = worst_margin(&margins);
            best_bound = best_bound.max(m);
            if m > 0.0 {
                report.outcome = RefineOutcome::Certified { margin: m };
                return report;
            }
        }
    }

    // Level 2: refinement. First a global falsification attempt …
    report.escalations = 2;
    hot::escalations_total().inc();
    report.level = RefineLevel::Refine;
    let t2 = Instant::now();
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    if let Some(adv) = attack_t1(
        model,
        tokens,
        position,
        radius,
        p,
        cfg.attack_samples,
        &mut rng,
    ) {
        report.level_seconds[2] = t2.elapsed().as_secs_f64();
        hot::refine_seconds().observe(report.level_seconds[2]);
        report.outcome = RefineOutcome::Falsified {
            adversarial_example: adv,
        };
        return report;
    }

    // … then best-first branch-and-bound over noise-symbol splits.
    let (root_region, start_layer) = match p {
        // ℓ∞: the input ball is a diagonal ε box — branch at the input.
        PNorm::Linf => (region, 0usize),
        // ℓ1/ℓ2: branch on the layer-0 snapshot's ε symbols, compacted to
        // the node budget first so `protect` stays affordable.
        _ => match snap.z1 {
            Some(z1) => (reduce_eps(&z1, cfg.refine_budget.max(1), 0).0, 1usize),
            // No encoder layers: nothing to resume from, nothing to split.
            None => {
                report.level_seconds[2] = t2.elapsed().as_secs_f64();
                hot::refine_seconds().observe(report.level_seconds[2]);
                report.outcome = RefineOutcome::Unknown {
                    lower_bound: best_bound,
                };
                return report;
            }
        },
    };

    let rcfg = DeepTConfig::precise(cfg.refine_budget);
    let mut heap = BinaryHeap::new();
    heap.push(QueueEntry(Node {
        id: 0,
        parent: None,
        depth: 0,
        start_layer,
        bound: best_bound,
        region: root_region,
    }));
    let mut next_id = 1usize;
    let mut certified_min = f64::INFINITY;
    let mut stuck_bound = f64::INFINITY;
    let mut any_stuck = false;
    let mut falsified: Option<Matrix> = None;

    while let Some(QueueEntry(node)) = heap.pop() {
        if deadline.expired() {
            report.timed_out = true;
            heap.push(QueueEntry(node));
            break;
        }
        if report.nodes_explored >= cfg.max_nodes {
            heap.push(QueueEntry(node));
            break;
        }
        report.nodes_explored += 1;
        hot::nodes_total().inc();

        // Protect the node's region symbols through every reduction so the
        // logits expose exact per-symbol margin gradients.
        let protect = node.region.num_eps();
        probe.span_enter(SpanKind::RefineNode(node.id));
        let member = Member {
            input: &node.region,
            start_layer: node.start_layer,
            protect_eps: protect,
            deadline,
        };
        let propagated = propagate_batch(&net, &[member], &rcfg, probe, &mut ()).remove(0);
        let stats = match &propagated {
            Ok(z) => probe.enabled().then(|| z.telemetry_stats()),
            Err(_) => None,
        };
        probe.span_exit(SpanKind::RefineNode(node.id), stats, 0);
        let logits = match propagated {
            Ok(l) => l,
            Err(DeadlineExceeded) => {
                report.timed_out = true;
                heap.push(QueueEntry(node));
                break;
            }
        };
        let margins = margins_from_zonotope(&logits, true_label);
        // The parent's bound holds for every subregion, so the node's sound
        // bound is the better of the two.
        let margin = worst_margin(&margins).max(node.bound);

        if margin > 0.0 {
            certified_min = certified_min.min(margin);
            report.trace.push(NodeTrace {
                id: node.id,
                parent: node.parent,
                depth: node.depth,
                start_layer: node.start_layer,
                margin,
                action: NodeAction::Certified,
            });
            continue;
        }

        // Concrete counterexample search: genuine at the input boundary,
        // subtree-pruning everywhere else.
        let mut nrng = ChaCha8Rng::seed_from_u64(
            cfg.seed ^ (node.id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        if let Some(x) = find_counterexample(
            model,
            &node.region,
            node.start_layer,
            true_label,
            cfg.prune_samples,
            &mut nrng,
        ) {
            if node.start_layer == 0 {
                report.trace.push(NodeTrace {
                    id: node.id,
                    parent: node.parent,
                    depth: node.depth,
                    start_layer: node.start_layer,
                    margin,
                    action: NodeAction::Falsified,
                });
                falsified = Some(x);
                break;
            }
            // Spurious or not, the sample survives any further split of
            // this region — the subtree can never certify.
            report.pruned += 1;
            hot::prunes_total().inc();
            any_stuck = true;
            stuck_bound = stuck_bound.min(margin);
            report.trace.push(NodeTrace {
                id: node.id,
                parent: node.parent,
                depth: node.depth,
                start_layer: node.start_layer,
                margin,
                action: NodeAction::Pruned,
            });
            continue;
        }

        let symbol = if node.depth >= cfg.max_depth || !margin.is_finite() {
            None
        } else {
            worst_class(&margins, true_label)
                .and_then(|w| best_split_symbol(&logits, true_label, w, protect))
        };
        let Some(symbol) = symbol else {
            any_stuck = true;
            stuck_bound = stuck_bound.min(margin);
            report.trace.push(NodeTrace {
                id: node.id,
                parent: node.parent,
                depth: node.depth,
                start_layer: node.start_layer,
                margin,
                action: NodeAction::Stuck,
            });
            continue;
        };

        report.branches += 1;
        hot::branches_total().inc();
        report.trace.push(NodeTrace {
            id: node.id,
            parent: node.parent,
            depth: node.depth,
            start_layer: node.start_layer,
            margin,
            action: NodeAction::Split { symbol },
        });
        for half in [Half::Lower, Half::Upper] {
            heap.push(QueueEntry(Node {
                id: next_id,
                parent: Some(node.id),
                depth: node.depth + 1,
                start_layer: node.start_layer,
                bound: margin,
                region: restrict_eps(&node.region, symbol, half),
            }));
            next_id += 1;
        }
    }

    report.level_seconds[2] = t2.elapsed().as_secs_f64();
    hot::refine_seconds().observe(report.level_seconds[2]);

    if let Some(adv) = falsified {
        report.outcome = RefineOutcome::Falsified {
            adversarial_example: adv,
        };
        return report;
    }
    let open_bound = heap.iter().map(|e| e.0.bound).fold(f64::INFINITY, f64::min);
    if heap.is_empty() && !any_stuck {
        // Every leaf certified; the region's margin is the worst leaf's.
        report.outcome = RefineOutcome::Certified {
            margin: certified_min,
        };
    } else {
        // Margin over the union region = min over its parts; every node's
        // bound already folds in its ancestors' (and the flat passes')
        // sound bounds, so this is ≥ what Fast/Precise alone established.
        report.outcome = RefineOutcome::Unknown {
            lower_bound: certified_min.min(stuck_bound).min(open_bound),
        };
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use deept_nn::transformer::{LayerNormKind, TransformerConfig};

    fn tiny_model(ln: LayerNormKind, layers: usize, seed: u64) -> TransformerClassifier {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
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

    #[test]
    fn tiny_radius_certifies_at_fast_level() {
        let model = tiny_model(LayerNormKind::NoStd, 1, 42);
        let tokens = [3usize, 4, 5];
        let label = model.predict(&tokens);
        let report = refine_certify(
            &model,
            &tokens,
            0,
            1e-5,
            PNorm::Linf,
            label,
            &RefineConfig::default(),
            Deadline::none(),
        );
        assert!(matches!(report.outcome, RefineOutcome::Certified { .. }));
        assert_eq!(report.level, RefineLevel::Fast);
        assert_eq!(report.escalations, 0);
    }

    #[test]
    fn wrong_label_is_falsified_by_the_clean_input() {
        let model = tiny_model(LayerNormKind::NoStd, 1, 42);
        let tokens = [3usize, 4, 5];
        let label = model.predict(&tokens);
        let report = refine_certify(
            &model,
            &tokens,
            0,
            0.01,
            PNorm::Linf,
            1 - label,
            &RefineConfig::default(),
            Deadline::none(),
        );
        assert!(matches!(report.outcome, RefineOutcome::Falsified { .. }));
    }

    #[test]
    fn huge_radius_is_falsified() {
        let model = tiny_model(LayerNormKind::NoStd, 1, 42);
        let tokens = [3usize, 4, 5];
        let label = model.predict(&tokens);
        let report = refine_certify(
            &model,
            &tokens,
            1,
            5.0,
            PNorm::Linf,
            label,
            &RefineConfig::default(),
            Deadline::none(),
        );
        match &report.outcome {
            RefineOutcome::Falsified {
                adversarial_example,
            } => {
                // The counterexample really misclassifies.
                let got = classify_from(&model, adversarial_example, 0);
                assert_ne!(got, label, "adversarial example must misclassify");
            }
            other => panic!("expected falsification at radius 5.0, got {other:?}"),
        }
    }

    #[test]
    fn refinement_certifies_queries_the_flat_passes_lose() {
        // Starve the flat passes (tiny budgets) so the ladder has to branch,
        // and give refinement room to win.
        let model = tiny_model(LayerNormKind::NoStd, 2, 42);
        let tokens = [1usize, 5, 9, 2];
        let label = model.predict(&tokens);
        let cfg = RefineConfig {
            fast_budget: 1,
            precise_budget: 1,
            refine_budget: 400,
            max_nodes: 64,
            ..RefineConfig::default()
        };
        let report = refine_certify(
            &model,
            &tokens,
            1,
            0.075,
            PNorm::Linf,
            label,
            &cfg,
            Deadline::none(),
        );
        assert_eq!(report.escalations, 2, "flat passes must fail first");
        assert!(
            matches!(report.outcome, RefineOutcome::Certified { .. }),
            "refinement should close this query: {:?}",
            report.outcome
        );
        assert!(report.branches > 0, "must actually branch");
    }

    #[test]
    fn l2_queries_refine_from_the_layer_snapshot() {
        let model = tiny_model(LayerNormKind::NoStd, 2, 42);
        let tokens = [1usize, 5, 9, 2];
        let label = model.predict(&tokens);
        let cfg = RefineConfig {
            fast_budget: 4,
            precise_budget: 200,
            refine_budget: 300,
            max_nodes: 32,
            ..RefineConfig::default()
        };
        let report = refine_certify(
            &model,
            &tokens,
            1,
            0.01,
            PNorm::L2,
            label,
            &cfg,
            Deadline::none(),
        );
        if report.escalations == 2 {
            // All refinement nodes must resume from layer 1 (symbol-level
            // splits), never pretend to be input-level.
            assert!(report.trace.iter().all(|t| t.start_layer == 1));
            assert!(
                !matches!(report.outcome, RefineOutcome::Falsified { .. })
                    || report
                        .trace
                        .iter()
                        .all(|t| t.action != NodeAction::Falsified),
                "intermediate nodes must never produce genuine falsifications"
            );
        }
    }

    #[test]
    fn expired_deadline_returns_sound_partial_bound() {
        let model = tiny_model(LayerNormKind::NoStd, 2, 42);
        let tokens = [1usize, 5, 9, 2];
        let label = model.predict(&tokens);
        let report = refine_certify(
            &model,
            &tokens,
            1,
            0.02,
            PNorm::Linf,
            label,
            &RefineConfig::default(),
            Deadline::at(std::time::Instant::now() - std::time::Duration::from_millis(1)),
        );
        assert!(report.timed_out);
        assert!(matches!(report.outcome, RefineOutcome::Unknown { .. }));
    }

    #[test]
    fn unknown_bound_is_sound_under_node_starvation() {
        // One-node budget: the ladder explores the root, then stops with
        // the open children still queued; the reported bound must not
        // exceed what Fast/Precise alone established (both are sound).
        let model = tiny_model(LayerNormKind::NoStd, 2, 42);
        let tokens = [1usize, 5, 9, 2];
        let label = model.predict(&tokens);
        let cfg = RefineConfig {
            fast_budget: 4,
            precise_budget: 4,
            max_nodes: 1,
            ..RefineConfig::default()
        };
        let report = refine_certify(
            &model,
            &tokens,
            1,
            0.02,
            PNorm::Linf,
            label,
            &cfg,
            Deadline::none(),
        );
        if let RefineOutcome::Unknown { lower_bound } = report.outcome {
            // Concretely sample the region: every concrete margin must sit
            // above the reported lower bound.
            let emb = model.embed(&tokens);
            let region = t1_region(&emb, 1, 0.02, PNorm::Linf);
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            for _ in 0..50 {
                let (phi, eps) = region.sample_noise(&mut rng);
                let x = Matrix::from_vec(region.rows(), region.cols(), region.evaluate(&phi, &eps))
                    .expect("shape");
                let logits = model.classify(&model.encode(&x));
                let concrete = logits.at(0, label) - logits.at(0, 1 - label);
                assert!(
                    concrete >= lower_bound - 1e-9,
                    "concrete margin {concrete} below reported bound {lower_bound}"
                );
            }
        }
    }

    #[test]
    fn report_is_deterministic_for_fixed_seed() {
        let model = tiny_model(LayerNormKind::NoStd, 2, 42);
        let tokens = [1usize, 5, 9, 2];
        let label = model.predict(&tokens);
        let cfg = RefineConfig {
            fast_budget: 4,
            precise_budget: 4,
            max_nodes: 16,
            ..RefineConfig::default()
        };
        let run = || {
            refine_certify(
                &model,
                &tokens,
                1,
                0.02,
                PNorm::Linf,
                label,
                &cfg,
                Deadline::none(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.branches, b.branches);
    }
}
