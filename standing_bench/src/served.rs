//! `serve-fresh`: open-loop traffic to a spawned `deept serve` in its
//! default configuration, every operation on its own sentence.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::{Duration, Instant};

use deept_core::PNorm;
use deept_metrics::RegistrySnapshot;
use deept_serve::protocol::{CertifyResult, ErrorCode, Response};
use deept_verifier::deept::certify;
use deept_verifier::network::t1_region;
use deept_verifier::radius::max_certified_radius;
use deept_verifier::{DeepTConfig, VerifiableTransformer};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::inputs::{SentencePool, M1_WIDE, M2_WIDE};
use crate::loadgen::{self, Op, Report};
use crate::recorder::{Analysis, Recorder};
use crate::server::{set_up, Server};
use crate::stats::{self, ratio, HostCheck};
use crate::traffic::{Loaded, Picker, Plan, Traffic, FRESH_CLASSES, FRESH_ORDER};
use crate::{Opts, Outcome};

/// Offered load of the nominal phase, operations per second.
const NOMINAL_QPS: f64 = 12.0;
/// Blocks of `BLOCK_OPS` operations the nominal phase is timed over.
const BLOCKS: usize = 8;
/// Operations per nominal block: one mix, `FRESH_ORDER`. Each block starts
/// on an idle server, so a host stall inside one block cannot queue up work
/// for the next, and no block can hold more work than the server's 16-job
/// queue.
const BLOCK_OPS: usize = FRESH_ORDER.len();
/// Requests each generator connection keeps unanswered in the capacity
/// phase: two in all over two connections, one for each of the server's
/// two workers, so neither waits for work and no job queues behind
/// another (nothing to fuse, as at the nominal rate).
const SAT_WINDOW: usize = 1;
/// Operations per capacity block: three whole mixes.
const SAT_OPS: usize = 3 * BLOCK_OPS;
/// Capacity blocks `max_rate_qps` is measured over.
const SAT_BLOCKS: usize = 4;

/// Outcome of one phase of traffic.
#[derive(Clone)]
struct Phase {
    ops: Vec<Op>,
    report: Report,
    metrics_before: RegistrySnapshot,
    metrics_after: RegistrySnapshot,
    /// What the host did around the phase.
    host: HostCheck,
    /// The server's peak resident set during the phase, MiB.
    server_peak_mb: f64,
}

impl Phase {
    fn latencies(&self) -> Vec<f64> {
        self.ops
            .iter()
            .zip(&self.report.results)
            .map(|(op, r)| r.latency_ms(op.due))
            .collect()
    }

    /// Operations whose final answer is not a certification: errors,
    /// refusals, unplanned timeouts and lost requests.
    fn failures(&self) -> usize {
        self.report
            .results
            .iter()
            .filter(|r| r.lost || !matches!(r.response, Some(Response::Certify { .. })))
            .count()
    }

    /// Latencies with every failed operation read as the generator's
    /// cut-off: it misses every latency limit.
    fn limit_latencies(&self) -> Vec<f64> {
        let mut lat = self.latencies();
        for (l, r) in lat.iter_mut().zip(&self.report.results) {
            if r.lost || !matches!(r.response, Some(Response::Certify { .. })) {
                *l = CUTOFF_S * 1e3;
            }
        }
        lat
    }

    fn tail_ms(&self) -> f64 {
        let lat = self.limit_latencies();
        stats::quantile(&lat, stats::tail_quantile(lat.len()))
    }

    /// Server seconds spent propagating during the phase.
    fn propagation_s(&self) -> f64 {
        let name = "deept_serve_propagation_seconds";
        match (
            self.metrics_after.histogram(name),
            self.metrics_before.histogram(name),
        ) {
            (Some(a), Some(b)) => a.delta_since(b).sum(),
            (Some(a), None) => a.sum(),
            _ => 0.0,
        }
    }

    /// The blocks as one phase: operations and results in block order,
    /// counters from the first block's start to the last block's end.
    fn merge(blocks: &[Phase]) -> Phase {
        let first = blocks.first().expect("at least one block");
        let last = blocks.last().expect("at least one block");
        Phase {
            ops: blocks.iter().flat_map(|b| b.ops.clone()).collect(),
            report: Report {
                results: blocks
                    .iter()
                    .flat_map(|b| b.report.results.clone())
                    .collect(),
                late_ms: blocks
                    .iter()
                    .flat_map(|b| b.report.late_ms.clone())
                    .collect(),
                backlog_max: blocks
                    .iter()
                    .map(|b| b.report.backlog_max)
                    .max()
                    .unwrap_or(0),
                backlog_at_end: last.report.backlog_at_end,
                connections: first.report.connections,
            },
            metrics_before: first.metrics_before.clone(),
            metrics_after: last.metrics_after.clone(),
            host: HostCheck {
                stolen: stats::mean(&blocks.iter().map(|b| b.host.stolen).collect::<Vec<_>>()),
                ref_ms: blocks.iter().map(|b| b.host.ref_ms).fold(0.0, f64::max),
            },
            server_peak_mb: blocks.iter().map(|b| b.server_peak_mb).fold(0.0, f64::max),
        }
    }
}

/// How long after the last due time the generator waits for answers.
const CUTOFF_S: f64 = 60.0;

fn run_phase(
    server: &Server,
    ops: Vec<Op>,
    trace: bool,
    window: Option<usize>,
) -> Result<Phase, String> {
    let (phase, host) = HostCheck::around(|| -> Result<_, String> {
        if let Some(pid) = server.pid() {
            stats::reset_peak_rss(pid)?;
        }
        let metrics_before = server.metrics()?;
        let span = ops.last().map_or(0.0, |o| o.due);
        let report = loadgen::run(&server.addr, &ops, trace, span + CUTOFF_S, window)?;
        let metrics_after = server.metrics()?;
        Ok((metrics_before, report, metrics_after))
    });
    let (metrics_before, report, metrics_after) = phase?;
    Ok(Phase {
        ops,
        report,
        metrics_before,
        metrics_after,
        host,
        server_peak_mb: stats::peak_rss_mib(server.pid()).unwrap_or(0.0),
    })
}

/// Runs blocks of measured work from `next` one after another. While fewer
/// than `blocks` of them were calm (see `HostCheck`) and `redo_until` has
/// not passed, another block runs. Returns every block run, in order.
fn calm_blocks(
    blocks: usize,
    redo_until: Instant,
    mut next: impl FnMut() -> Result<Phase, String>,
) -> Result<Vec<Phase>, String> {
    let mut out: Vec<Phase> = Vec::new();
    loop {
        let best = stats::best_ref(out.iter().map(|b| b.host));
        let calm = out.iter().filter(|b| b.host.score(best) <= 1.0).count();
        if calm >= blocks || (out.len() >= blocks && Instant::now() >= redo_until) {
            return Ok(out);
        }
        out.push(next()?);
    }
}

/// Seconds a nominal block's schedule spans.
const BLOCK_S: f64 = BLOCK_OPS as f64 / NOMINAL_QPS;

/// The nominal phase: blocks of `BLOCK_OPS` operations at the nominal
/// rate on the same server, each started no sooner than the nominal rate
/// allows. The first blocks run `planned`, further ones fresh operations.
fn nominal_blocks(
    server: &Server,
    blocks: usize,
    redo_until: Instant,
    planned: Vec<Vec<Op>>,
    models: &[Loaded],
    traffic: &mut Traffic<'_>,
) -> Result<Vec<Phase>, String> {
    let mut planned = planned.into_iter();
    calm_blocks(blocks, redo_until, || {
        let ops = match planned.next() {
            Some(ops) => ops,
            None => traffic.ops(models, NOMINAL_QPS, BLOCK_S)?,
        };
        let t = Instant::now();
        let phase = run_phase(server, ops, false, None)?;
        // Keep the offered rate at or below the nominal rate.
        let rest = BLOCK_S - t.elapsed().as_secs_f64();
        if rest > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(rest));
        }
        Ok(phase)
    })
}

/// The `blocks` least disturbed blocks, in the order they ran.
fn timed_blocks(all: &[Phase], blocks: usize) -> Vec<Phase> {
    let best = stats::best_ref(all.iter().map(|b| b.host));
    let mut order: Vec<usize> = (0..all.len()).collect();
    order.sort_by(|&a, &b| all[a].host.score(best).total_cmp(&all[b].host.score(best)));
    order.truncate(blocks);
    order.sort_unstable();
    order.into_iter().map(|i| all[i].clone()).collect()
}

/// Bitwise comparison of served answers against the in-process verifier,
/// plus a label check on every answer.
fn check_answers(
    models: &[Loaded],
    phase: &Phase,
    every: usize,
    plant: &mut bool,
) -> (usize, usize) {
    let mut compared = 0;
    let mut mismatches = 0;
    let index: HashMap<&str, usize> = models
        .iter()
        .enumerate()
        .map(|(i, l)| (l.spec.id, i))
        .collect();
    for (i, (op, r)) in phase.ops.iter().zip(&phase.report.results).enumerate() {
        let Some(Response::Certify { label, result, .. }) = &r.response else {
            continue;
        };
        let m = index[op.req.model_id.as_str()];
        let l = &models[m];
        let truth = l.model.predict(&op.req.tokens);
        let mut bad = *label != truth;
        let sampled = i % every == 0;
        if sampled {
            let p = PNorm::parse(&op.req.norm).expect("benchmark norms parse");
            let cfg = match op.req.variant.as_str() {
                "precise" => DeepTConfig::precise(2000),
                "combined" => DeepTConfig::combined(2000),
                _ => DeepTConfig::fast(2000),
            };
            let emb = l.model.embed(&op.req.tokens);
            match (result, op.req.eps, op.req.radius_search) {
                (CertifyResult::Fixed { certified, margins }, Some(eps), _) => {
                    compared += 1;
                    let want = certify(
                        &l.net,
                        &t1_region(&emb, op.req.position, eps, p),
                        truth,
                        &cfg,
                    );
                    let mut got = *certified;
                    if std::mem::take(plant) {
                        got = !got;
                    }
                    bad |= got != want.certified
                        || margins.len() != want.margins.len()
                        || margins
                            .iter()
                            .zip(&want.margins)
                            .any(|(a, b)| a.to_bits() != b.to_bits());
                }
                (CertifyResult::Radius { radius, .. }, _, Some(spec)) => {
                    compared += 1;
                    let want = max_certified_radius(
                        |r| {
                            certify(&l.net, &t1_region(&emb, op.req.position, r, p), truth, &cfg)
                                .certified
                        },
                        spec.start,
                        spec.iters,
                    );
                    let mut got = *radius;
                    if std::mem::take(plant) {
                        got *= 2.0;
                    }
                    bad |= got.to_bits() != want.to_bits();
                }
                _ => {}
            }
        }
        if bad {
            eprintln!(
                "served answer disagrees with the in-process verifier: {:?} -> {result:?}",
                op.req
            );
            mismatches += 1;
        }
    }
    (compared, mismatches)
}

fn counter_delta(p: &Phase, name: &str) -> f64 {
    let a = p.metrics_after.counter_value(name).unwrap_or(0);
    let b = p.metrics_before.counter_value(name).unwrap_or(0);
    a.saturating_sub(b) as f64
}

fn hist_q(p: &Phase, name: &str, q: f64) -> f64 {
    match (
        p.metrics_after.histogram(name),
        p.metrics_before.histogram(name),
    ) {
        (Some(a), Some(b)) => a.delta_since(b).quantile(q).unwrap_or(0.0),
        (Some(a), None) => a.quantile(q).unwrap_or(0.0),
        _ => 0.0,
    }
}

/// Serve-layer counters over one phase, from `metrics` deltas.
fn serve_metrics(p: &Phase, m: &mut BTreeMap<&'static str, f64>) {
    m.insert(
        "serve.queue_wait_ms_p50",
        1e3 * hist_q(p, "deept_serve_queue_wait_seconds", 0.5),
    );
    m.insert(
        "serve.queue_wait_ms_p99",
        1e3 * hist_q(p, "deept_serve_queue_wait_seconds", 0.99),
    );
    m.insert(
        "serve.propagation_ms_p50",
        1e3 * hist_q(p, "deept_serve_propagation_seconds", 0.5),
    );
    m.insert(
        "serve.propagation_ms_p99",
        1e3 * hist_q(p, "deept_serve_propagation_seconds", 0.99),
    );
    m.insert(
        "serve.cache_lookup_us_p50",
        1e6 * hist_q(p, "deept_serve_cache_lookup_seconds", 0.5),
    );
    m.insert(
        "serve.overloaded",
        counter_delta(p, "deept_serve_overloaded_total"),
    );
    m.insert(
        "serve.deadline_timeouts",
        counter_delta(p, "deept_serve_deadline_timeouts_total"),
    );
    let hits = counter_delta(p, "deept_serve_cache_hits_total");
    let misses = counter_delta(p, "deept_serve_cache_misses_total");
    m.insert("serve.result_cache_hit_ratio", ratio(hits, hits + misses));
    m.insert(
        "serve.coalesced",
        counter_delta(p, "deept_serve_coalesced_total"),
    );
    m.insert(
        "serve.fused_members_per_batch",
        ratio(
            counter_delta(p, "deept_serve_fused_members_total"),
            counter_delta(p, "deept_serve_fused_batches_total"),
        ),
    );
    let sh = counter_delta(p, "deept_state_cache_hits_total");
    let sm = counter_delta(p, "deept_state_cache_misses_total");
    m.insert("serve.state_cache_hit_ratio", ratio(sh, sh + sm));
    m.insert(
        "serve.state_resumed_layers",
        counter_delta(p, "deept_state_cache_resumed_layers_total"),
    );
    m.insert(
        "serve.state_cache_resident_bytes",
        p.metrics_after
            .gauge_value("deept_state_cache_resident_bytes")
            .unwrap_or(0.0),
    );
    m.insert(
        "loadgen.late_ms_p99",
        stats::quantile(&p.report.late_ms, 0.99),
    );
    m.insert("loadgen.backlog_max", p.report.backlog_max as f64);
}

pub fn run(root: &Path, opts: &Opts) -> Result<Outcome, String> {
    let specs = [M1_WIDE, M2_WIDE];
    // Set-up nine times from scratch; keep the last server.
    let mut setups = Vec::new();
    let mut kept = None;
    for n in 0..9 {
        if let Some((server, _)) = kept.take() {
            Server::stop(server)?;
        }
        let (secs, server, models) = set_up(root, opts, &specs, n)?;
        setups.push(secs);
        kept = Some((server, models));
    }
    let (mut server, raw) = kept.expect("set-up ran");
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed ^ (1 << 40));
    let models: Vec<Loaded> = raw
        .into_iter()
        .map(|(spec, model)| Loaded {
            net: VerifiableTransformer::from(&model),
            pool: SentencePool::new(&model, spec.corpus_seed),
            spec,
            model,
        })
        .collect();
    let picker = Picker::new(&models, &mut rng);
    let plans = FRESH_CLASSES
        .iter()
        .map(|c| Plan::new(c.lengths, &mut rng))
        .collect();
    let mut traffic = Traffic {
        picker,
        plans,
        rng: ChaCha8Rng::seed_from_u64(rng.gen()),
        counters: vec![0; FRESH_CLASSES.len()],
    };
    let (blocks, sat_blocks, sat_ops) = if opts.tiny {
        (2, 1, BLOCK_OPS)
    } else {
        (BLOCKS, SAT_BLOCKS, SAT_OPS)
    };
    let mut out = Outcome::default();
    let mut plant = opts.plant;
    // The first blocks of both phases are drawn up front, so that they, and
    // the verdicts and radii read from them, depend on the seed alone and
    // not on how many disturbed blocks were measured again.
    let nominal_plan = (0..blocks)
        .map(|_| traffic.ops(&models, NOMINAL_QPS, BLOCK_S))
        .collect::<Result<Vec<_>, _>>()?;
    let capacity_plan = (0..sat_blocks)
        .map(|_| capacity_ops(&models, &mut traffic, sat_ops))
        .collect::<Result<Vec<_>, _>>()?;

    // Disturbed blocks are measured again until this instant.
    let redo_until = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let all = nominal_blocks(
        &server,
        blocks,
        redo_until,
        nominal_plan,
        &models,
        &mut traffic,
    )?;
    // The benchmark's own memory right after the nominal phase, before its
    // re-checks and the capacity blocks. The server's is the median over
    // the timed blocks of its peak in each block: the peak over the whole
    // phase is the one block where the costliest operations happened to
    // overlap, and moved by a third from run to run.
    let own_peak_mb = stats::peak_rss_mib(None).unwrap_or(0.0);
    let every = Phase::merge(&all);
    out.attempted += every.ops.len() as u64;
    out.failed += every.failures() as u64;
    let (compared, mismatches) = check_answers(&models, &every, 4, &mut plant);
    out.failed += mismatches as u64;
    if mismatches > 0 || every.failures() > 0 {
        out.correct = false;
    }
    // Answers (verdicts, radii) come from the planned blocks, which do not
    // depend on the host; times from the calm blocks.
    let first = Phase::merge(&all[..blocks]);
    if opts.trace {
        // The same blocks again on a fresh server with `trace: true`.
        Server::stop(server)?;
        server = set_up(root, opts, &specs, setups.len()).map(|(_, s, _)| s)?;
        let mut traced = Vec::new();
        for b in &all[..blocks] {
            traced.push(run_phase(&server, b.ops.clone(), true, None)?);
        }
        let traced = Phase::merge(&traced);
        traced_metrics(opts, &models, &first, &traced, &mut plant, &mut out);
    } else {
        let timed = timed_blocks(&all, blocks);
        let timed_phase = Phase::merge(&timed);
        let (max_rate, sat) = capacity(
            opts,
            &models,
            &server,
            sat_blocks,
            redo_until,
            capacity_plan,
            &mut traffic,
            &mut plant,
            &mut out,
        )?;
        let m = &mut out.metrics;
        m.insert("setup_s", stats::median(&setups));
        m.insert("max_rate_qps", max_rate);
        let server_peak_mb: Vec<f64> = timed.iter().map(|b| b.server_peak_mb).collect();
        m.insert("peak_rss_mb", own_peak_mb + stats::median(&server_peak_mb));
        m.insert("wall_s", timed.iter().map(|b| b.propagation_s()).sum());
        let lat = timed_phase.limit_latencies();
        m.insert("p50_ms", stats::median(&lat));
        m.insert("tail_ms", timed_phase.tail_ms());
        let planned: Vec<Phase> = all[..blocks]
            .iter()
            .chain(&sat[..sat_blocks])
            .cloned()
            .collect();
        precision_metrics(&models, &Phase::merge(&planned), m);
        summarize(opts, &all, &timed_phase, compared);
    }
    Server::stop(server)?;
    if plant {
        return Err("the planted fault found no answer to corrupt".into());
    }
    Ok(out)
}

/// `certified_frac` and `radius_mean` over the answers of a phase.
fn precision_metrics(models: &[Loaded], phase: &Phase, m: &mut BTreeMap<&'static str, f64>) {
    let answered = || {
        phase
            .ops
            .iter()
            .zip(&phase.report.results)
            .filter_map(|(op, r)| match &r.response {
                Some(Response::Certify { result, .. }) => Some((op, result)),
                _ => None,
            })
    };
    let verdicts: Vec<bool> = answered()
        .filter_map(|(_, result)| match result {
            CertifyResult::Fixed { certified, .. } => Some(*certified),
            _ => None,
        })
        .collect();
    let radii: Vec<f64> = answered()
        .filter_map(|(op, result)| match result {
            CertifyResult::Radius { radius, .. } => {
                let p = PNorm::parse(&op.req.norm).expect("benchmark norms parse");
                let spec = &models.iter().find(|l| l.spec.id == op.req.model_id)?.spec;
                Some(radius / spec.radius_scale(p))
            }
            _ => None,
        })
        .collect();
    m.insert("radius_mean", stats::mean(&radii));
    m.insert(
        "certified_frac",
        ratio(
            verdicts.iter().filter(|v| **v).count() as f64,
            verdicts.len() as f64,
        ),
    );
}

/// Answers and seconds of a capacity block between its answers `k` and
/// `n − 1 − k` (counting from 0), where `k` is the number of requests the
/// generator keeps unanswered, so that the start, before the server is
/// full, and the drain at the end are left out.
fn steady_span(phase: &Phase, k: usize) -> (f64, f64) {
    let mut done: Vec<f64> = phase.report.results.iter().map(|r| r.done).collect();
    done.sort_by(f64::total_cmp);
    let n = done.len();
    if n < 2 * k + 2 {
        return (n as f64, done.last().copied().unwrap_or(0.0));
    }
    ((n - 1 - 2 * k) as f64, done[n - 1 - k] - done[k])
}

/// `n` fresh operations of the mix, all due at once.
fn capacity_ops(models: &[Loaded], traffic: &mut Traffic<'_>, n: usize) -> Result<Vec<Op>, String> {
    let mut ops = traffic.ops(models, 1.0, n as f64)?;
    for op in &mut ops {
        op.due = 0.0;
    }
    Ok(ops)
}

/// Capacity after the nominal phase: the highest rate the server sustains
/// without a growing backlog, i.e. the rate at which it answers fresh
/// operations while never idle. Each block sends its operations (`SAT_OPS`
/// of the same mix) as a closed loop that keeps `SAT_WINDOW` requests
/// unanswered per connection; the answer is the rate over the `blocks`
/// least disturbed blocks taken together. The first blocks run `planned`,
/// further ones fresh operations. Returns the rate and every block run.
#[allow(clippy::too_many_arguments)]
fn capacity(
    opts: &Opts,
    models: &[Loaded],
    server: &Server,
    blocks: usize,
    redo_until: Instant,
    planned: Vec<Vec<Op>>,
    traffic: &mut Traffic<'_>,
    plant: &mut bool,
    out: &mut Outcome,
) -> Result<(f64, Vec<Phase>), String> {
    let ops = planned.first().map_or(SAT_OPS, Vec::len);
    let mut planned = planned.into_iter();
    let k = SAT_WINDOW * loadgen::max_connections();
    let all = calm_blocks(blocks, redo_until, || {
        let ops = match planned.next() {
            Some(ops) => ops,
            None => capacity_ops(models, traffic, ops)?,
        };
        run_phase(server, ops, false, Some(SAT_WINDOW))
    })?;
    let best = stats::best_ref(all.iter().map(|b| b.host));
    for phase in &all {
        let (_, mm) = check_answers(models, phase, 8, plant);
        if mm > 0 || phase.failures() > 0 {
            out.failed += (mm + phase.failures()) as u64;
            out.correct = false;
        }
        out.attempted += phase.ops.len() as u64;
        let (n, secs) = steady_span(phase, k);
        eprintln!(
            "{}: capacity block: {} ops, {:.2} ops/s, {:.1}% stolen, reference {:.2} ms, \
             disturbance {:.2}",
            opts.workload,
            phase.ops.len(),
            ratio(n, secs),
            100.0 * phase.host.stolen,
            phase.host.ref_ms,
            phase.host.score(best),
        );
    }
    let (n, secs) = timed_blocks(&all, blocks)
        .iter()
        .map(|p| steady_span(p, k))
        .fold((0.0, 0.0), |(n, s), (dn, ds)| (n + dn, s + ds));
    Ok((ratio(n, secs), all))
}

/// Per-layer metrics from the traced pass. Serve counters and generator
/// numbers come from the untraced pass of the same schedule, because the
/// server never fuses traced requests.
fn traced_metrics(
    opts: &Opts,
    models: &[Loaded],
    nominal: &Phase,
    traced: &Phase,
    plant: &mut bool,
    out: &mut Outcome,
) {
    let rec = Recorder::default();
    for (i, r) in traced.report.results.iter().enumerate() {
        let root_span = rec.push(i as u64, "op", r.sent, r.done, None);
        if let Some(Response::Certify { trace: Some(t), .. }) = &r.response {
            rec.ingest_trace(i as u64, root_span, t, r.done);
        }
    }
    let unbalanced = rec.unbalanced();
    let an = Analysis::new(rec.spans());
    let gap = an.worst_tree_gap();
    // A burst the untraced server fuses may be refused here; refusals are
    // reported, not failed.
    let refused = traced
        .report
        .results
        .iter()
        .filter(|r| {
            matches!(
                r.response,
                Some(Response::Error {
                    code: ErrorCode::Overloaded,
                    ..
                })
            )
        })
        .count();
    let traced_failures = traced.failures() - refused;
    if unbalanced > 0 || gap > 1e-6 || traced_failures > 0 {
        eprintln!(
            "{}: traced run: {unbalanced} unbalanced exits, self-time gap {gap:e}, {traced_failures} failures",
            opts.workload
        );
        out.correct = false;
    }
    let m = &mut out.metrics;
    crate::core_metrics(&an, m);
    crate::layer_metrics(&an, m);
    let par = an.outermost(|s| s.par);
    let busy: f64 = par.iter().map(|p| p.busy_ns as f64 * 1e-9).sum();
    m.insert(
        "tensor.par_invocations",
        par.iter().map(|p| p.invocations as f64).sum(),
    );
    m.insert("tensor.par_tasks", par.iter().map(|p| p.tasks as f64).sum());
    m.insert("tensor.par_busy_s", busy);
    let prop_s: f64 = an.named("propagate").map(|s| s.duration()).sum();
    m.insert("tensor.par_busy_ratio", ratio(busy, prop_s));
    let eps = an.outermost(|s| s.eps);
    let hits: u64 = eps.iter().map(|e| e.arena_hits).sum();
    let misses: u64 = eps.iter().map(|e| e.arena_misses).sum();
    m.insert(
        "tensor.arena_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    m.insert(
        "core.densifications",
        eps.iter().map(|e| e.densifications as f64).sum(),
    );
    crate::verifier_metrics(&an, m);
    serve_metrics(nominal, m);
    // Mean latency over the operations answered in both passes.
    let both: Vec<usize> = (0..traced.ops.len())
        .filter(|&i| {
            [traced, nominal]
                .iter()
                .all(|p| matches!(p.report.results[i].response, Some(Response::Certify { .. })))
        })
        .collect();
    let mean_lat = |p: &Phase| {
        let lat = p.latencies();
        stats::mean(&both.iter().map(|&i| lat[i]).collect::<Vec<_>>())
    };
    m.insert(
        "trace.overhead_ratio",
        ratio(mean_lat(traced), mean_lat(nominal)),
    );
    deept_core::eps::reset_peak_resident_bytes();
    let (compared, mismatches) = check_answers(models, traced, 10, plant);
    m.insert(
        "core.eps_peak_bytes",
        deept_core::eps::peak_resident_bytes() as f64,
    );
    out.failed += mismatches as u64;
    if mismatches > 0 {
        out.correct = false;
    }
    eprintln!(
        "{}: traced {} ops ({refused} refused: traced requests are not fused), {compared} compared",
        opts.workload,
        traced.ops.len()
    );
}

/// One stderr summary of the nominal phase, for reading a run: `all` is
/// every block run, `nominal` the timed ones merged.
fn summarize(opts: &Opts, all: &[Phase], nominal: &Phase, compared: usize) {
    let best = stats::best_ref(all.iter().map(|b| b.host));
    let scores: Vec<String> = all
        .iter()
        .map(|b| format!("{:.2}", b.host.score(best)))
        .collect();
    eprintln!(
        "{}: {} nominal blocks run, {} timed; host disturbance per block (calm <= 1): {}",
        opts.workload,
        all.len(),
        nominal.ops.len() / BLOCK_OPS,
        scores.join(" ")
    );
    let lat = nominal.latencies();
    let mut kinds: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (op, l) in nominal.ops.iter().zip(&lat) {
        let kind = if op.req.radius_search.is_some() {
            "radius"
        } else {
            op.req.variant.as_str()
        };
        kinds
            .entry(format!("{}/{kind}", op.req.model_id))
            .or_default()
            .push(*l);
    }
    for (kind, l) in &kinds {
        eprintln!(
            "{}: {kind}: {} ops, median {:.1} ms",
            opts.workload,
            l.len(),
            stats::median(l)
        );
    }
    let mut errors: BTreeMap<String, usize> = BTreeMap::new();
    for r in all.iter().flat_map(|b| &b.report.results) {
        match &r.response {
            Some(Response::Error { code, .. }) => {
                *errors.entry(format!("{code:?}")).or_default() += 1
            }
            None => *errors.entry("lost".into()).or_default() += 1,
            _ => {}
        }
    }
    if !errors.is_empty() {
        eprintln!("{}: failed operations by kind: {errors:?}", opts.workload);
    }
    let mut c = BTreeMap::new();
    serve_metrics(&Phase::merge(all), &mut c);
    eprintln!(
        "{}: {} ops at {}/s over {} connections, tail = p{:.1}, {compared} answers compared \
         bitwise, late p99 {:.2} ms, backlog max {}, cache hit ratio {:.3}, coalesced {}, \
         fused/batch {:.2}, state hit ratio {:.3}",
        opts.workload,
        lat.len(),
        NOMINAL_QPS,
        nominal.report.connections,
        100.0 * stats::tail_quantile(lat.len()),
        c["loadgen.late_ms_p99"],
        c["loadgen.backlog_max"],
        c["serve.result_cache_hit_ratio"],
        c["serve.coalesced"],
        c["serve.fused_members_per_batch"],
        c["serve.state_cache_hit_ratio"],
    );
}
