//! `radius-deep`: closed loop, one caller, in process. DeepT-Fast binary
//! searches for the maximum certified radius on the 4-layer std-LN model.

use std::path::Path;
use std::time::{Duration, Instant};

use deept_core::PNorm;
use deept_nn::TransformerClassifier;
use deept_telemetry::Probe;
use deept_verifier::attack::attack_t1;
use deept_verifier::deept::certify_probed;
use deept_verifier::network::t1_region;
use deept_verifier::radius::max_certified_radius_probed;
use deept_verifier::{DeepTConfig, VerifiableTransformer};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::inputs::{self, SentencePool, M4_STD};
use crate::recorder::{Analysis, Recorder};
use crate::stats::{self, ratio, HostCheck};
use crate::{Opts, Outcome};

/// Sentence lengths of the search set; each (length, norm) cell gets the
/// same number of searches, so the set's cost and radius mix do not drift
/// with the seed.
const LENGTHS: [usize; 3] = [5, 6, 7];
/// Bisection rounds after bracketing (the radius is resolved to
/// `start / 2^ITERS`).
const ITERS: usize = 7;
/// Attempts per search at most.
const MAX_TRIES: usize = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 41;
/// Random attack samples per certified search (soundness check).
const ATTACK_SAMPLES: usize = 64;

struct Search {
    tokens: Vec<usize>,
    label: usize,
    position: usize,
    norm: PNorm,
}

#[derive(Default)]
struct Pass {
    wall_s: f64,
    radii: Vec<f64>,
    probe_ms: Vec<f64>,
    /// Bisection probes (the radius-0 classification check excluded) and
    /// how many of them certified.
    probes: usize,
    certified: usize,
    /// Searches measured again because the host was disturbed.
    redone: usize,
    /// Repeated searches whose radius differed from the first attempt.
    unstable: usize,
}

/// One search: its radius and the wall time of each certify call.
fn search(
    model: &TransformerClassifier,
    net: &VerifiableTransformer,
    s: &Search,
    probe: &dyn Probe,
    rec: Option<&Recorder>,
) -> (f64, Vec<(f64, bool, f64)>) {
    let cfg = DeepTConfig::fast(2000);
    let emb = model.embed(&s.tokens);
    let mut calls = Vec::new();
    let radius = max_certified_radius_probed(
        |radius| {
            let region = t1_region(&emb, s.position, radius, s.norm);
            let t = Instant::now();
            if let Some(r) = rec {
                r.enter("certify", None);
            }
            let res = certify_probed(net, &region, s.label, &cfg, probe);
            if let Some(r) = rec {
                r.exit("certify", None, None, 0);
            }
            calls.push((radius, res.certified, t.elapsed().as_secs_f64() * 1e3));
            res.certified
        },
        M4_STD.radius_scale(s.norm) * 2.0,
        ITERS,
        probe,
    );
    (radius, calls)
}

/// One timed search.
struct Attempt {
    radius: f64,
    calls: Vec<(f64, bool, f64)>,
    secs: f64,
    host: HostCheck,
}

fn attempt(
    model: &TransformerClassifier,
    net: &VerifiableTransformer,
    s: &Search,
    probe: &dyn Probe,
    rec: Option<&Recorder>,
) -> Attempt {
    let ((radius, calls, secs), host) = HostCheck::around(|| {
        let t = Instant::now();
        let (radius, calls) = search(model, net, s, probe, rec);
        (radius, calls, t.elapsed().as_secs_f64())
    });
    Attempt {
        radius,
        calls,
        secs,
        host,
    }
}

/// Runs the searches in order. Untraced, searches during which the host
/// was disturbed (see `HostCheck`) are then run again, most disturbed
/// first, until all are calm or `redo_until` passes; each search keeps its
/// least disturbed attempt.
fn run_pass(
    model: &TransformerClassifier,
    net: &VerifiableTransformer,
    set: &[Search],
    rec: Option<&Recorder>,
    redo_until: Instant,
) -> Pass {
    let noop = deept_telemetry::NoopProbe;
    let probe: &dyn Probe = match rec {
        Some(r) => r,
        None => &noop,
    };
    let mut pass = Pass::default();
    let mut kept = Vec::with_capacity(set.len());
    for (i, s) in set.iter().enumerate() {
        if let Some(r) = rec {
            r.set_op(i as u64);
            r.enter("search", None);
        }
        kept.push(attempt(model, net, s, probe, rec));
        if let Some(r) = rec {
            r.exit("search", None, None, 0);
        }
    }
    let mut tries = vec![1usize; set.len()];
    while rec.is_none() && Instant::now() < redo_until {
        let best = stats::best_ref(kept.iter().map(|a| a.host));
        let Some((i, score)) = kept
            .iter()
            .enumerate()
            .filter(|&(i, _)| tries[i] < MAX_TRIES)
            .map(|(i, a)| (i, a.host.score(best)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
        else {
            break;
        };
        if score <= 1.0 {
            break;
        }
        let again = attempt(model, net, &set[i], probe, None);
        tries[i] += 1;
        pass.redone += 1;
        if again.radius.to_bits() != kept[i].radius.to_bits() {
            pass.unstable += 1;
        }
        let best = best.min(again.host.ref_ms);
        if again.host.score(best) < kept[i].host.score(best) {
            kept[i] = again;
        }
    }
    for a in kept {
        pass.wall_s += a.secs;
        for (r, certified, ms) in a.calls {
            pass.probe_ms.push(ms);
            if r > 0.0 {
                pass.probes += 1;
                pass.certified += usize::from(certified);
            }
        }
        pass.radii.push(a.radius);
    }
    pass
}

pub fn run(root: &Path, opts: &Opts) -> Result<Outcome, String> {
    // Set-up: the model load and verifier build a caller pays before its
    // first query, repeated and reported as a median.
    let mut setups = Vec::new();
    let mut loaded = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let model = inputs::load_model(root, &M4_STD)?;
        let net = VerifiableTransformer::from(&model);
        setups.push(t.elapsed().as_secs_f64());
        loaded = Some((model, net));
    }
    let (model, net) = loaded.expect("at least one set-up ran");

    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed ^ 0x7261_6469_7573);
    let pool = SentencePool::new(&model, M4_STD.corpus_seed);
    let reps = if opts.tiny { 1 } else { 3 };
    let lengths: &[usize] = if opts.tiny { &LENGTHS[..1] } else { &LENGTHS };
    let mut set = Vec::new();
    for &len in lengths {
        let sentences = pool.draw(&model, len, reps * inputs::NORMS.len(), &mut rng);
        if sentences.len() < reps * inputs::NORMS.len() {
            return Err(format!(
                "too few correctly classified sentences of length {len}"
            ));
        }
        for (k, (tokens, label)) in sentences.into_iter().enumerate() {
            // Three sentences per (length, norm) cell, one in each position
            // stratum, so every (length, norm, stratum) cell runs once.
            let stratum = k / inputs::NORMS.len() + len;
            let position = inputs::position_in(stratum, len, &mut rng);
            set.push(Search {
                tokens,
                label,
                position,
                norm: inputs::NORMS[k % inputs::NORMS.len()],
            });
        }
    }
    set.shuffle(&mut rng);

    let mut out = Outcome::default();
    if opts.trace {
        // Untraced and traced passes over the same subset give the
        // tracing overhead; per-layer numbers come from the traced pass.
        let subset = &set[..set.len().min(9)];
        let now = Instant::now();
        let plain = run_pass(&model, &net, subset, None, now);
        let rec = Recorder::default();
        deept_core::eps::reset_peak_resident_bytes();
        let par0 = deept_tensor::parallel::snapshot();
        let eps0 = deept_core::eps::snapshot();
        let pass = run_pass(&model, &net, subset, Some(&rec), now);
        let par = deept_tensor::parallel::snapshot().since(&par0);
        let eps = deept_core::eps::snapshot();
        let arena = eps.arena.since(&eps0.arena);
        // A second untraced pass after the traced one, so warm-up does not
        // land on one side of the ratio only.
        let plain_after = run_pass(&model, &net, subset, None, now);
        let untraced_s = 0.5 * (plain.wall_s + plain_after.wall_s);
        let unbalanced = rec.unbalanced();
        let an = Analysis::new(rec.spans());
        let gap = an.worst_tree_gap();
        if unbalanced > 0 || gap > 1e-6 {
            eprintln!("radius-deep: span trees unbalanced ({unbalanced}) or self-time gap {gap:e}");
            out.correct = false;
        }
        let m = &mut out.metrics;
        crate::core_metrics(&an, m);
        crate::verifier_metrics(&an, m);
        crate::layer_metrics(&an, m);
        m.insert(
            "core.densifications",
            (eps.densifications - eps0.densifications) as f64,
        );
        m.insert(
            "core.eps_peak_bytes",
            deept_core::eps::peak_resident_bytes() as f64,
        );
        m.insert("tensor.par_invocations", par.invocations as f64);
        m.insert("tensor.par_tasks", par.tasks as f64);
        m.insert("tensor.par_busy_s", par.busy_ns as f64 * 1e-9);
        let prop: f64 = an.named("propagate").map(|s| s.duration()).sum();
        m.insert(
            "tensor.par_busy_ratio",
            ratio(par.busy_ns as f64 * 1e-9, prop),
        );
        m.insert(
            "tensor.arena_hit_ratio",
            ratio(arena.hits as f64, (arena.hits + arena.misses) as f64),
        );
        m.insert("trace.overhead_ratio", ratio(pass.wall_s, untraced_s));
        check_soundness(&model, subset, &pass, opts, &mut out);
    } else {
        // Searches the host disturbed are measured again while the run is
        // within its time budget.
        let redo_until = Instant::now() + Duration::from_secs_f64(1.25 * opts.seconds);
        let pass = run_pass(&model, &net, &set, None, redo_until);
        check_soundness(&model, &set, &pass, opts, &mut out);
        let n = pass.probe_ms.len();
        let m = &mut out.metrics;
        m.insert("setup_s", stats::median(&setups));
        m.insert("peak_rss_mb", stats::peak_rss_mib(None).unwrap_or(0.0));
        m.insert("wall_s", pass.wall_s);
        let rel: Vec<f64> = set
            .iter()
            .zip(&pass.radii)
            .map(|(s, r)| r / M4_STD.radius_scale(s.norm))
            .collect();
        m.insert("radius_mean", stats::mean(&rel));
        m.insert("p50_ms", stats::median(&pass.probe_ms));
        m.insert(
            "tail_ms",
            stats::quantile(&pass.probe_ms, stats::tail_quantile(n)),
        );
        // Placeholders the shared metric set forces on an in-process
        // closed loop: certify calls per second of the set (wall_s again),
        // and the share of bisection probes that certified (near one half
        // by the nature of bisection).
        m.insert("max_rate_qps", n as f64 / pass.wall_s);
        m.insert(
            "certified_frac",
            ratio(pass.certified as f64, pass.probes as f64),
        );
        eprintln!(
            "radius-deep: {} searches ({} measured again because the host was disturbed), {n} certify calls, tail = p{:.1}",
            set.len(),
            pass.redone,
            100.0 * stats::tail_quantile(n),
        );
        if pass.unstable > 0 {
            eprintln!(
                "radius-deep: {} repeated searches changed their radius",
                pass.unstable
            );
            out.failed += pass.unstable as u64;
            out.correct = false;
        }
    }
    Ok(out)
}

/// Soundness: attack every certified search at its certified radius; any
/// flip is a violation. With a planted fault the first certified radius is
/// inflated until the attack finds a flip, showing that the check bites.
fn check_soundness(
    model: &TransformerClassifier,
    set: &[Search],
    pass: &Pass,
    opts: &Opts,
    out: &mut Outcome,
) {
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed);
    let mut planted = opts.plant;
    out.attempted += set.len() as u64;
    for (s, &r) in set.iter().zip(&pass.radii) {
        if r <= 0.0 {
            continue;
        }
        let mut claim = r;
        let mut flipped = attack_t1(
            model,
            &s.tokens,
            s.position,
            claim,
            s.norm,
            ATTACK_SAMPLES,
            &mut rng,
        );
        while planted && flipped.is_none() && claim < 1e4 {
            claim *= 4.0;
            flipped = attack_t1(
                model,
                &s.tokens,
                s.position,
                claim,
                s.norm,
                ATTACK_SAMPLES,
                &mut rng,
            );
        }
        planted = false;
        if flipped.is_some() {
            eprintln!(
                "radius-deep: soundness violation: attack flips {:?} at position {} inside certified {:?} radius {claim}",
                s.tokens, s.position, s.norm
            );
            out.failed += 1;
            out.correct = false;
        }
    }
}
