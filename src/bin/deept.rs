//! `deept` — command-line certification of Transformer sentiment
//! classifiers.
//!
//! ```text
//! deept train   --out model.json [--layers 2] [--yelp] [--std-ln] [--epochs 6]
//! deept certify --model model.json --sentence "pos0_1 neu3 not0 neg2_0" \
//!               [--position 1] [--norm l2] [--radius 0.05] [--refine] \
//!               [--trace trace.json] [--timeout-ms 5000]
//! deept synonyms --model model.json --sentence "..." [--k 4] [--dist 0.8] \
//!               [--syn-dir artifacts/synonyms]
//! deept export-model [--out artifacts/models/toy.json] [--layers 1] [--epochs 2]
//! deept serve   [--addr 127.0.0.1:7878 | --stdio] [--workers 2] [--queue 16] \
//!               [--cache 256] [--deadline-ms N] [--metrics-addr 127.0.0.1:9090] \
//!               [--fuse-max 8 | --no-fuse] [--shards N] \
//!               [--state-cache-mb 32] [--syn-dir DIR] \
//!               [--model id=ckpt.json]...
//! deept request --addr 127.0.0.1:7878 (--status | --metrics | --shutdown |
//!               --load-model id=path |
//!               --certify --model-id id --tokens "1 2 3" [--eps 1e-4 | --radius-search]
//!               [--start 0.01] [--iters 16] [--position 0] [--norm l2]
//!               [--variant fast|precise|combined|refine|synonyms]
//!               [--syn-k 4] [--syn-dist 0.8]
//!               [--deadline-ms N] [--trace-response])
//! deept loadgen --addr 127.0.0.1:7878 --model-id id [--tokens "1 2 3"] \
//!               [--concurrency 2] [--duration-s 5 | --requests N] [--rate R] \
//!               [--eps 1e-3] [--cached] [--wave K] [--edit-stream] \
//!               [--out BENCH_6.json]
//! deept bench-metrics [--repeats 7] [--max-ratio 1.02] [--out bench_metrics.json]
//! deept fuzz-soundness [--seed N | --seed A..B] [--cases M]
//! deept bench-refine [--out BENCH_8.json] [--deadline-ms 2000] [--queries N]
//! deept --trace trace.json
//! ```
//!
//! `train` produces a JSON bundle (model + vocabulary); `certify` reports
//! the classification, then either checks one radius or binary-searches the
//! maximum certified radius (`--timeout-ms` bounds the search with a
//! cooperative deadline). With `--refine` (requires `--radius`) the query
//! runs the [`deept::refine`] escalation ladder instead: Fast, then
//! Precise, then deadline-aware branch-and-bound refinement, returning
//! certified / falsified / a sound partial bound. `bench-refine` measures
//! the certified-rate gain of that ladder over the flat passes on a set of
//! frontier queries and writes `BENCH_8.json`; `synonyms` certifies threat
//! model T2 against
//! embedding-space nearest-neighbour substitutions and cross-checks with
//! bounded enumeration.
//!
//! `export-model` trains a toy classifier and writes it as a fingerprinted
//! `deept-checkpoint-v1` file; `serve` runs the long-lived certification
//! server over TCP (or stdio for CI) against such checkpoints; `request`
//! is the matching one-shot client, printing the raw JSON response.
//!
//! `--trace <path>` records the verification under a
//! [`deept::telemetry::TraceCollector`]: per-layer spans with wall-clock
//! timing, noise-symbol counts, interval-width stats and the radius-search
//! query sequence, written as structured JSON. The bare `deept --trace`
//! form runs a self-contained demo on a small random transformer, so the
//! trace format can be inspected without training a model first.

use std::process::ExitCode;

use deept::data::sentiment;
use deept::data::{SynonymArtifact, SynonymSets, Vocab};
use deept::nn::train::{accuracy, train, TrainConfig};
use deept::nn::{LayerNormKind, TransformerClassifier, TransformerConfig};
use deept::serve::client::request_once;
use deept::serve::protocol::{CertifyRequest, RadiusSearchSpec, Request, Response, SynonymSpec};
use deept::serve::server::{ServeConfig, Server};
use deept::telemetry::{NoopProbe, Probe, TraceCollector, VerificationTrace};
use deept::verifier::deadline::{Deadline, DeadlineExceeded};
use deept::verifier::deept::{certify_batch, DeepTConfig, Member};
use deept::verifier::network::{t1_region, VerifiableTransformer};
use deept::verifier::radius::{max_certified_radius_deadline, RadiusOutcome};
use deept::verifier::synonym;
use deept::zonotope::PNorm;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Everything needed to certify sentences later: the weights and the
/// vocabulary that token names resolve against.
#[derive(Serialize, Deserialize)]
struct Bundle {
    model: TransformerClassifier,
    vocab: Vocab,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("train") => cmd_train(&args[1..]),
        Some("certify") => cmd_certify(&args[1..]),
        Some("synonyms") => cmd_synonyms(&args[1..]),
        Some("export-model") => cmd_export_model(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("request") => cmd_request(&args[1..]),
        Some("loadgen") => cmd_loadgen(&args[1..]),
        Some("bench-metrics") => cmd_bench_metrics(&args[1..]),
        Some("fuzz-soundness") => cmd_fuzz_soundness(&args[1..]),
        Some("bench-eps") => cmd_bench_eps(&args[1..]),
        Some("bench-kernels") => cmd_bench_kernels(&args[1..]),
        Some("bench-refine") => cmd_bench_refine(&args[1..]),
        Some("--trace") => cmd_demo_trace(&args),
        _ => {
            eprintln!(
                "usage: deept <train|certify|synonyms|export-model|serve|request|loadgen\
                 |bench-metrics|fuzz-soundness|bench-eps|bench-kernels|bench-refine> \
                 [options] | \
                 deept --trace <path>  (see --help in source)"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One-line description of the compute backend in effect: kernel-mode
/// rung, the SIMD ISA runtime dispatch selected, and the generator
/// precision. Printed in `certify` output and stamped into trace metadata
/// so a saved trace records which code path produced it.
fn backend_labels() -> (&'static str, &'static str, &'static str) {
    let kernel = deept::tensor::parallel::kernel_mode().label();
    let isa = match deept::tensor::parallel::kernel_mode() {
        deept::tensor::parallel::KernelMode::Simd => deept::tensor::simd::active_isa().label(),
        _ => "scalar",
    };
    let prec = if deept::zonotope::eps::prec_f32() {
        "f32"
    } else {
        "f64"
    };
    (kernel, isa, prec)
}

/// Stamps the backend triple into a trace's metadata.
fn set_backend_meta(trace: &mut VerificationTrace) {
    let (kernel, isa, prec) = backend_labels();
    trace.set_meta("kernel", kernel);
    trace.set_meta("isa", isa);
    trace.set_meta("prec", prec);
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn has(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// All values of a repeatable flag, e.g. `--model a=x.json --model b=y.json`.
fn flag_all(args: &[String], name: &str) -> Vec<String> {
    args.windows(2)
        .filter(|w| w[0] == name)
        .map(|w| w[1].clone())
        .collect()
}

fn cmd_train(args: &[String]) -> Result<(), String> {
    let out = flag(args, "--out").ok_or("--out <path> is required")?;
    let layers: usize = flag(args, "--layers")
        .map(|s| s.parse().map_err(|_| "--layers must be a number"))
        .transpose()?
        .unwrap_or(2);
    let epochs: usize = flag(args, "--epochs")
        .map(|s| s.parse().map_err(|_| "--epochs must be a number"))
        .transpose()?
        .unwrap_or(6);
    let mut spec = if has(args, "--yelp") {
        sentiment::yelp_spec()
    } else {
        sentiment::sst_spec()
    };
    spec.train = spec.train.min(900);
    spec.test = spec.test.min(200);
    spec.max_len = spec.max_len.min(10);

    let mut rng = ChaCha8Rng::seed_from_u64(
        flag(args, "--seed")
            .and_then(|s| s.parse().ok())
            .unwrap_or(1),
    );
    let ds = sentiment::generate(spec, &mut rng);
    let layer_norm = if has(args, "--std-ln") {
        LayerNormKind::Std { epsilon: 1e-5 }
    } else {
        LayerNormKind::NoStd
    };
    let mut model = TransformerClassifier::new(
        TransformerConfig {
            vocab_size: ds.vocab.len(),
            max_len: spec.max_len,
            embed_dim: 16,
            num_heads: 4,
            hidden_dim: 32,
            num_layers: layers,
            num_classes: 2,
            layer_norm,
        },
        &mut rng,
    );
    eprintln!("training {layers}-layer transformer ({epochs} epochs)…");
    train(
        &mut model,
        &ds.train,
        TrainConfig {
            epochs,
            batch_size: 16,
            lr: 2e-3,
        },
        &mut rng,
    );
    println!("test accuracy: {:.3}", accuracy(&model, &ds.test));
    let bundle = Bundle {
        model,
        vocab: ds.vocab,
    };
    deept::nn::io::save_json(&bundle, &out).map_err(|e| e.to_string())?;
    println!("saved bundle to {out}");
    // Print a few example sentences so the user has valid token names.
    print!("example sentence: ");
    let (toks, _) = &ds.test[0];
    let names: Vec<&str> = toks
        .iter()
        .map(|&t| bundle_token_name(&bundle, t))
        .collect();
    println!("{}", names.join(" "));
    Ok(())
}

fn bundle_token_name(b: &Bundle, id: usize) -> &str {
    b.vocab.token(id).name.as_str()
}

fn load_bundle(args: &[String]) -> Result<Bundle, String> {
    let path = flag(args, "--model").ok_or("--model <path> is required")?;
    deept::nn::io::load_json(&path).map_err(|e| e.to_string())
}

fn parse_sentence(bundle: &Bundle, args: &[String]) -> Result<Vec<usize>, String> {
    let raw = flag(args, "--sentence").ok_or("--sentence \"tok tok …\" is required")?;
    raw.split_whitespace()
        .map(|w| {
            (0..bundle.vocab.len())
                .find(|&i| bundle.vocab.token(i).name == w)
                .ok_or_else(|| format!("unknown token {w:?}"))
        })
        .collect()
}

fn cmd_certify(args: &[String]) -> Result<(), String> {
    let bundle = load_bundle(args)?;
    let tokens = parse_sentence(&bundle, args)?;
    let position: usize = flag(args, "--position")
        .map(|s| s.parse().map_err(|_| "--position must be a number"))
        .transpose()?
        .unwrap_or(0);
    if position >= tokens.len() {
        return Err("--position out of range".into());
    }
    let p = PNorm::parse(&flag(args, "--norm").unwrap_or_else(|| "l2".into()))
        .ok_or("--norm must be 1, 2 or inf")?;
    let timeout_ms: Option<u64> = flag(args, "--timeout-ms")
        .map(|s| s.parse().map_err(|_| "--timeout-ms must be a number"))
        .transpose()?;
    // The deadline is fixed before any verification starts; with no
    // --timeout-ms it never expires and the query sequence is unchanged.
    let deadline = Deadline::after_ms(timeout_ms);
    let label = bundle.model.predict(&tokens);
    println!(
        "prediction: {} ({})",
        label,
        if label == 1 { "positive" } else { "negative" }
    );
    let (kernel, isa, prec) = backend_labels();
    println!("backend: kernel={kernel} isa={isa} prec={prec}");
    let net = VerifiableTransformer::from(&bundle.model);
    let emb = bundle.model.embed(&tokens);
    let cfg = DeepTConfig::fast(2000);
    let trace_path = flag(args, "--trace");
    let collector = trace_path.as_ref().map(|_| TraceCollector::new());
    let probe: &dyn Probe = match &collector {
        Some(c) => c,
        None => &NoopProbe,
    };
    let mut timed_out = false;
    let refine = has(args, "--refine");
    if refine {
        let radius: f64 = flag(args, "--radius")
            .ok_or("--refine requires --radius (the ladder answers eps queries only)")?
            .parse()
            .map_err(|_| "--radius must be a number")?;
        let report = deept::refine::refine_certify_probed(
            &bundle.model,
            &tokens,
            position,
            radius,
            p,
            label,
            &deept::refine::RefineConfig::default(),
            deadline,
            probe,
        );
        println!(
            "radius {radius} ({p}) at position {position}: {} at the {} level \
             ({} nodes, {} branches, {} pruned, {} escalations)",
            report.outcome.verdict(),
            report.level.as_str(),
            report.nodes_explored,
            report.branches,
            report.pruned,
            report.escalations,
        );
        match &report.outcome {
            deept::refine::RefineOutcome::Certified { margin } => {
                println!("  certified margin lower bound: {margin:.6}");
            }
            deept::refine::RefineOutcome::Falsified { .. } => {
                println!("  concrete adversarial embedding found inside the ball");
            }
            deept::refine::RefineOutcome::Unknown { lower_bound } => {
                println!("  sound partial margin lower bound: {lower_bound:.6}");
            }
        }
        timed_out = report.timed_out;
    } else if let Some(radius) = flag(args, "--radius") {
        let radius: f64 = radius.parse().map_err(|_| "--radius must be a number")?;
        let region = t1_region(&emb, position, radius, p);
        let member = Member {
            deadline,
            ..Member::new(&region)
        };
        match certify_batch(&net, &[member], label, &cfg, probe, &mut ()).remove(0) {
            Ok(res) => println!(
                "radius {radius} ({p}) at position {position}: certified = {} (margin {:.5})",
                res.certified,
                res.margins[1 - label]
            ),
            Err(DeadlineExceeded) => {
                println!("radius {radius} ({p}) at position {position}: timed out");
                timed_out = true;
            }
        }
    } else {
        let check = |radius: f64| -> Result<bool, DeadlineExceeded> {
            let region = t1_region(&emb, position, radius, p);
            let member = Member {
                deadline,
                ..Member::new(&region)
            };
            Ok(certify_batch(&net, &[member], label, &cfg, probe, &mut ())
                .remove(0)?
                .certified)
        };
        match max_certified_radius_deadline(check, 0.01, 16, deadline, probe) {
            RadiusOutcome::Completed(r) => {
                println!("maximum certified {p} radius at position {position}: {r:.6}");
            }
            RadiusOutcome::TimedOut {
                lower_bound,
                queries,
            } => {
                println!(
                    "timed out after {queries} queries; largest certified {p} radius \
                     so far at position {position}: {lower_bound:.6}"
                );
                timed_out = true;
            }
        }
    }
    if let (Some(path), Some(collector)) = (trace_path, collector) {
        let mut trace = collector.finish();
        trace.set_meta(
            "verifier",
            if refine { "DeepT-Refine" } else { "DeepT-Fast" },
        );
        trace.set_meta("norm", &p.to_string());
        trace.set_meta("position", &position.to_string());
        trace.set_meta("tokens", &tokens.len().to_string());
        set_backend_meta(&mut trace);
        write_trace(&path, &trace)?;
    }
    if timed_out {
        return Err(format!(
            "verification deadline of {} ms exceeded",
            timeout_ms.unwrap_or(0)
        ));
    }
    Ok(())
}

/// `deept --trace <path>` with no subcommand: certify a small random
/// transformer end to end and dump the resulting trace, so the telemetry
/// format can be exercised without a trained model.
fn cmd_demo_trace(args: &[String]) -> Result<(), String> {
    let path = flag(args, "--trace").ok_or("--trace <path> is required")?;
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let model = TransformerClassifier::new(
        TransformerConfig {
            vocab_size: 12,
            max_len: 6,
            embed_dim: 8,
            num_heads: 2,
            hidden_dim: 16,
            num_layers: 2,
            num_classes: 2,
            layer_norm: LayerNormKind::NoStd,
        },
        &mut rng,
    );
    let tokens = [1, 2, 3, 4];
    let label = model.predict(&tokens);
    let net = VerifiableTransformer::from(&model);
    let emb = model.embed(&tokens);
    let cfg = DeepTConfig::fast(2000);
    let collector = TraceCollector::new();
    let outcome = max_certified_radius_deadline(
        |radius| {
            let region = t1_region(&emb, 0, radius, PNorm::L2);
            Ok(certify_batch(
                &net,
                &[Member::new(&region)],
                label,
                &cfg,
                &collector,
                &mut (),
            )
            .remove(0)?
            .certified)
        },
        0.01,
        12,
        Deadline::none(),
        &collector,
    );
    let r = match outcome {
        RadiusOutcome::Completed(r) => r,
        RadiusOutcome::TimedOut { .. } => unreachable!("demo runs with no deadline"),
    };
    let mut trace = collector.finish();
    trace.set_meta("mode", "demo");
    trace.set_meta("verifier", "DeepT-Fast");
    trace.set_meta("norm", "l2");
    trace.set_meta("tokens", &tokens.len().to_string());
    set_backend_meta(&mut trace);
    println!("demo: 2-layer random transformer, maximum certified l2 radius {r:.6}");
    write_trace(&path, &trace)
}

/// Saves a trace as JSON and prints its hotspot summary.
fn write_trace(path: &str, trace: &VerificationTrace) -> Result<(), String> {
    trace
        .save_json(std::path::Path::new(path))
        .map_err(|e| format!("could not write {path}: {e}"))?;
    println!("{}", trace.render_summary(5));
    println!("trace written to {path}");
    Ok(())
}

fn cmd_synonyms(args: &[String]) -> Result<(), String> {
    let bundle = load_bundle(args)?;
    let tokens = parse_sentence(&bundle, args)?;
    let k: usize = flag(args, "--k")
        .map(|s| s.parse().map_err(|_| "--k must be a number"))
        .transpose()?
        .unwrap_or(4);
    let dist: f64 = flag(args, "--dist")
        .map(|s| s.parse().map_err(|_| "--dist must be a number"))
        .transpose()?
        .unwrap_or(0.8);
    // The O(V²) embedding scan runs once per (model fingerprint, k, dist)
    // and is persisted as an artifact; later invocations — and the serve
    // synonym catalog — load it instead of rescanning.
    let syn_dir = flag(args, "--syn-dir").unwrap_or_else(|| "artifacts/synonyms".into());
    let dir = std::path::Path::new(&syn_dir);
    let fingerprint =
        deept::nn::checkpoint::fingerprint(&bundle.model).map_err(|e| e.to_string())?;
    let synonyms = match SynonymArtifact::load(dir, &fingerprint, k, dist) {
        Some(artifact) => {
            eprintln!(
                "synonym sets loaded from {}",
                SynonymArtifact::path_in(dir, &fingerprint, k, dist).display()
            );
            artifact.sets
        }
        None => {
            let sets = SynonymSets::from_embeddings(&bundle.model.token_embed, k, dist);
            let artifact = SynonymArtifact {
                fingerprint: fingerprint.clone(),
                k,
                dist,
                sets,
            };
            match artifact.save(dir) {
                Ok(path) => eprintln!("synonym sets persisted to {}", path.display()),
                Err(e) => eprintln!("warning: could not persist synonym sets: {e}"),
            }
            artifact.sets
        }
    };
    let label = bundle.model.predict(&tokens);
    println!(
        "prediction: {label}, {} synonym combinations",
        synonyms.combinations(&tokens)
    );
    for &t in &tokens {
        let names: Vec<&str> = synonyms
            .of(t)
            .iter()
            .map(|&s| bundle_token_name(&bundle, s))
            .collect();
        println!(
            "  {:<10} → {}",
            bundle_token_name(&bundle, t),
            if names.is_empty() {
                "∅".into()
            } else {
                names.join(", ")
            }
        );
    }
    let cfg = DeepTConfig::fast(2000);
    let res = synonym::certify_deept(&bundle.model, &tokens, &synonyms, label, &cfg);
    println!("T2 certified: {}", res.certified);
    let enu = synonym::enumerate(&bundle.model, &tokens, &synonyms, label, 50_000);
    println!(
        "enumeration cross-check: robust = {} ({} combinations checked{})",
        enu.robust,
        enu.checked,
        if enu.exhausted {
            ", exhausted"
        } else {
            ", budget hit"
        }
    );
    if res.certified && enu.exhausted {
        assert!(enu.robust, "certificate contradicted by enumeration");
    }
    Ok(())
}

/// Trains a small sentiment classifier and writes it as a fingerprinted
/// `deept-checkpoint-v1` file, then reloads it to prove the round trip.
fn cmd_export_model(args: &[String]) -> Result<(), String> {
    let out = flag(args, "--out").unwrap_or_else(|| "artifacts/models/toy.json".into());
    let layers: usize = flag(args, "--layers")
        .map(|s| s.parse().map_err(|_| "--layers must be a number"))
        .transpose()?
        .unwrap_or(1);
    let epochs: usize = flag(args, "--epochs")
        .map(|s| s.parse().map_err(|_| "--epochs must be a number"))
        .transpose()?
        .unwrap_or(2);
    let seed: u64 = flag(args, "--seed")
        .map(|s| s.parse().map_err(|_| "--seed must be a number"))
        .transpose()?
        .unwrap_or(1);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut spec = sentiment::sst_spec();
    spec.train = spec.train.min(300);
    spec.test = spec.test.min(100);
    spec.max_len = spec.max_len.min(8);
    let ds = sentiment::generate(spec, &mut rng);
    let mut model = TransformerClassifier::new(
        TransformerConfig {
            vocab_size: ds.vocab.len(),
            max_len: spec.max_len,
            embed_dim: 16,
            num_heads: 4,
            hidden_dim: 32,
            num_layers: layers,
            num_classes: 2,
            layer_norm: LayerNormKind::NoStd,
        },
        &mut rng,
    );
    eprintln!("training {layers}-layer transformer ({epochs} epochs)…");
    train(
        &mut model,
        &ds.train,
        TrainConfig {
            epochs,
            batch_size: 16,
            lr: 2e-3,
        },
        &mut rng,
    );
    println!("test accuracy: {:.3}", accuracy(&model, &ds.test));
    let fingerprint = deept::nn::checkpoint::save(&model, &out).map_err(|e| e.to_string())?;
    // Reload to prove the round trip: the fingerprint check inside `load`
    // fails unless serialize → deserialize → serialize is byte-identical.
    let reloaded =
        deept::nn::checkpoint::load::<TransformerClassifier>(&out).map_err(|e| e.to_string())?;
    assert_eq!(reloaded.fingerprint, fingerprint);
    assert_eq!(
        reloaded.model, model,
        "checkpoint round trip changed weights"
    );
    println!("checkpoint written to {out} (fingerprint {fingerprint})");
    Ok(())
}

/// Parses the worker tuning flags shared by single-server and shard mode.
fn serve_config(args: &[String]) -> Result<ServeConfig, String> {
    let mut cfg = ServeConfig::default();
    if let Some(v) = flag(args, "--workers") {
        cfg.workers = v.parse().map_err(|_| "--workers must be a number")?;
    }
    if let Some(v) = flag(args, "--queue") {
        cfg.queue_capacity = v.parse().map_err(|_| "--queue must be a number")?;
    }
    if let Some(v) = flag(args, "--cache") {
        cfg.cache_capacity = v.parse().map_err(|_| "--cache must be a number")?;
    }
    if let Some(v) = flag(args, "--budget") {
        cfg.reduction_budget = v.parse().map_err(|_| "--budget must be a number")?;
    }
    if let Some(v) = flag(args, "--deadline-ms") {
        cfg.default_deadline_ms = Some(v.parse().map_err(|_| "--deadline-ms must be a number")?);
    }
    if let Some(v) = flag(args, "--fuse-max") {
        cfg.fuse_max = v.parse().map_err(|_| "--fuse-max must be a number")?;
    }
    if has(args, "--no-fuse") {
        cfg.fuse_max = 1;
    }
    if let Some(v) = flag(args, "--state-cache-mb") {
        let mb: usize = v.parse().map_err(|_| "--state-cache-mb must be a number")?;
        cfg.state_cache_bytes = mb << 20;
    }
    if let Some(v) = flag(args, "--syn-dir") {
        cfg.synonym_dir = Some(std::path::PathBuf::from(v));
    }
    Ok(cfg)
}

fn parse_preloads(args: &[String]) -> Result<Vec<(String, String)>, String> {
    flag_all(args, "--model")
        .into_iter()
        .map(|spec| {
            spec.split_once('=')
                .map(|(id, path)| (id.to_string(), path.to_string()))
                .ok_or_else(|| {
                    "--model takes id=path, e.g. --model toy=artifacts/models/toy.json".to_string()
                })
        })
        .collect()
}

/// Runs the certification server over TCP or stdio; with `--shards N`,
/// forks `N` single-shard worker processes and fronts them with the
/// fingerprint-hash router.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let shards: usize = flag(args, "--shards")
        .map(|v| v.parse().map_err(|_| "--shards must be a number"))
        .transpose()?
        .unwrap_or(0);
    if shards > 1 {
        return cmd_serve_sharded(args, shards);
    }
    let cfg = serve_config(args)?;
    let preloads = parse_preloads(args)?;
    let server = Server::new(cfg);
    for (id, path) in preloads {
        let fingerprint = server
            .registry()
            .load_from_path(&id, &path)
            .map_err(|e| format!("could not preload {id} from {path}: {e}"))?;
        eprintln!("preloaded model {id} from {path} (fingerprint {fingerprint})");
    }
    if let Some(metrics_addr) = flag(args, "--metrics-addr") {
        let bound = server
            .spawn_metrics_listener(&metrics_addr)
            .map_err(|e| format!("could not bind metrics listener on {metrics_addr}: {e}"))?;
        eprintln!("metrics on http://{bound}/metrics (self-profile on /profile)");
    }
    if has(args, "--stdio") {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        server
            .serve_stdio(stdin.lock(), stdout.lock())
            .map_err(|e| e.to_string())?;
    } else {
        let addr = flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:7878".into());
        let listener = std::net::TcpListener::bind(&addr)
            .map_err(|e| format!("could not bind {addr}: {e}"))?;
        let bound = listener.local_addr().map_err(|e| e.to_string())?;
        if has(args, "--announce") {
            // Shard workers bind an ephemeral port and hand it to the
            // parent router over stdout; one line, then silence.
            println!("DEEPT_SHARD_ADDR {bound}");
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
        }
        eprintln!("serving on {bound} (send {{\"type\":\"shutdown\"}} to stop)");
        server.serve_listener(listener).map_err(|e| e.to_string())?;
    }
    eprintln!("{}", server.stats().render_summary());
    Ok(())
}

/// Forks `shards` single-shard `deept serve --announce` worker processes
/// on ephemeral ports and serves the shard router in front of them.
/// Models route to shards by checkpoint-fingerprint hash; `status`,
/// `metrics` and `shutdown` aggregate or broadcast across the fleet.
fn cmd_serve_sharded(args: &[String], shards: usize) -> Result<(), String> {
    use deept::serve::router::{Router, RouterConfig};
    use std::io::BufRead as _;
    use std::process::{Child, Command, Stdio};

    if has(args, "--stdio") {
        return Err("--stdio and --shards are mutually exclusive".into());
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    // Tuning flags every shard inherits verbatim.
    let passthrough = [
        "--workers",
        "--queue",
        "--cache",
        "--budget",
        "--deadline-ms",
        "--fuse-max",
        "--state-cache-mb",
        "--syn-dir",
    ];
    let mut shard_args: Vec<String> = vec![
        "serve".into(),
        "--announce".into(),
        "--addr".into(),
        "127.0.0.1:0".into(),
    ];
    for name in passthrough {
        if let Some(v) = flag(args, name) {
            shard_args.push(name.into());
            shard_args.push(v);
        }
    }
    if has(args, "--no-fuse") {
        shard_args.push("--no-fuse".into());
    }
    let mut children: Vec<Child> = Vec::with_capacity(shards);
    let mut addrs: Vec<String> = Vec::with_capacity(shards);
    let spawn_result = (|| -> Result<(), String> {
        for i in 0..shards {
            let mut child = Command::new(&exe)
                .args(&shard_args)
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("could not fork shard {i}: {e}"))?;
            let stdout = child
                .stdout
                .take()
                .ok_or_else(|| format!("shard {i} stdout not captured"))?;
            children.push(child);
            let mut line = String::new();
            std::io::BufReader::new(stdout)
                .read_line(&mut line)
                .map_err(|e| format!("shard {i} died before announcing its address: {e}"))?;
            let addr = line
                .trim()
                .strip_prefix("DEEPT_SHARD_ADDR ")
                .ok_or_else(|| format!("shard {i} announced {line:?}, expected DEEPT_SHARD_ADDR"))?
                .to_string();
            eprintln!("shard {i} on {addr}");
            addrs.push(addr);
        }
        Ok(())
    })();
    if let Err(e) = spawn_result {
        // Don't leave half a fleet running behind a failed startup.
        for mut child in children {
            let _ = child.kill();
            let _ = child.wait();
        }
        return Err(e);
    }
    let router = Router::new(RouterConfig {
        shards: addrs,
        ..RouterConfig::default()
    });
    for (id, path) in parse_preloads(args)? {
        match router.handle(deept::serve::protocol::Request::LoadModel {
            model_id: id.clone(),
            path: path.clone(),
        }) {
            Response::ModelLoaded { fingerprint, .. } => {
                let shard = router.assignment(&id).unwrap_or(0);
                eprintln!(
                    "preloaded model {id} from {path} onto shard {shard} \
                     (fingerprint {fingerprint})"
                );
            }
            other => return Err(format!("could not preload {id} from {path}: {other:?}")),
        }
    }
    if let Some(metrics_addr) = flag(args, "--metrics-addr") {
        let bound = router
            .spawn_metrics_listener(&metrics_addr)
            .map_err(|e| format!("could not bind metrics listener on {metrics_addr}: {e}"))?;
        eprintln!("aggregated metrics on http://{bound}/metrics");
    }
    let addr = flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:7878".into());
    eprintln!("routing {shards} shards on {addr} (send {{\"type\":\"shutdown\"}} to stop)");
    let served = router.serve_tcp(&addr).map_err(|e| e.to_string());
    // The shutdown broadcast told every shard to drain; reap the worker
    // processes so none are left behind.
    for (i, mut child) in children.into_iter().enumerate() {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => eprintln!("shard {i} exited with {status}"),
            Err(e) => eprintln!("could not reap shard {i}: {e}"),
        }
    }
    served
}

/// One-shot client: sends a single request and prints the JSON response.
fn cmd_request(args: &[String]) -> Result<(), String> {
    let addr = flag(args, "--addr").ok_or("--addr <host:port> is required")?;
    let request = if has(args, "--status") {
        Request::Status
    } else if has(args, "--metrics") {
        Request::Metrics
    } else if has(args, "--shutdown") {
        Request::Shutdown
    } else if let Some(spec) = flag(args, "--load-model") {
        let (id, path) = spec
            .split_once('=')
            .ok_or("--load-model takes id=path, e.g. --load-model toy=ckpt.json")?;
        Request::LoadModel {
            model_id: id.to_string(),
            path: path.to_string(),
        }
    } else if has(args, "--certify") {
        let tokens: Vec<usize> = flag(args, "--tokens")
            .ok_or("--tokens \"1 2 3\" is required with --certify")?
            .split_whitespace()
            .map(|t| t.parse().map_err(|_| format!("bad token id {t:?}")))
            .collect::<Result<_, _>>()?;
        let eps: Option<f64> = flag(args, "--eps")
            .map(|s| s.parse().map_err(|_| "--eps must be a number"))
            .transpose()?;
        let radius_search = if has(args, "--radius-search") {
            let mut spec = RadiusSearchSpec::default();
            if let Some(v) = flag(args, "--start") {
                spec.start = v.parse().map_err(|_| "--start must be a number")?;
            }
            if let Some(v) = flag(args, "--iters") {
                spec.iters = v.parse().map_err(|_| "--iters must be a number")?;
            }
            Some(spec)
        } else {
            None
        };
        let synonyms = match (flag(args, "--syn-k"), flag(args, "--syn-dist")) {
            (None, None) => None,
            (k, dist) => {
                let mut spec = SynonymSpec::default();
                if let Some(v) = k {
                    spec.k = v.parse().map_err(|_| "--syn-k must be a number")?;
                }
                if let Some(v) = dist {
                    spec.dist = v.parse().map_err(|_| "--syn-dist must be a number")?;
                }
                Some(spec)
            }
        };
        Request::Certify(CertifyRequest {
            model_id: flag(args, "--model-id").ok_or("--model-id is required with --certify")?,
            tokens,
            position: flag(args, "--position")
                .map(|s| s.parse().map_err(|_| "--position must be a number"))
                .transpose()?
                .unwrap_or(0),
            norm: flag(args, "--norm").unwrap_or_else(|| "l2".into()),
            variant: flag(args, "--variant").unwrap_or_else(|| "fast".into()),
            eps,
            radius_search,
            synonyms,
            deadline_ms: flag(args, "--deadline-ms")
                .map(|s| s.parse().map_err(|_| "--deadline-ms must be a number"))
                .transpose()?,
            trace: has(args, "--trace-response"),
        })
    } else {
        return Err(
            "specify one of --status, --metrics, --shutdown, --load-model id=path or --certify"
                .into(),
        );
    };
    let response = request_once(&addr, &request).map_err(|e| e.to_string())?;
    println!(
        "{}",
        serde_json::to_string(&response).map_err(|e| e.to_string())?
    );
    if let Response::Error { code, message, .. } = &response {
        return Err(format!("server returned {code:?}: {message}"));
    }
    Ok(())
}

/// `deept loadgen` — drives a live server with certification load and
/// writes a latency/throughput report (see [`deept::serve::loadgen`]).
fn cmd_loadgen(args: &[String]) -> Result<(), String> {
    use deept::serve::loadgen::{self, LoadgenConfig};
    use std::time::Duration;

    let mut cfg = LoadgenConfig {
        addr: flag(args, "--addr").ok_or("--addr <host:port> is required")?,
        model_id: flag(args, "--model-id").ok_or("--model-id is required")?,
        ..LoadgenConfig::default()
    };
    if let Some(v) = flag(args, "--tokens") {
        cfg.tokens = v
            .split_whitespace()
            .map(|t| t.parse().map_err(|_| format!("bad token id {t:?}")))
            .collect::<Result<_, _>>()?;
    }
    if let Some(v) = flag(args, "--position") {
        cfg.position = v.parse().map_err(|_| "--position must be a number")?;
    }
    if let Some(v) = flag(args, "--eps") {
        cfg.eps = v.parse().map_err(|_| "--eps must be a number")?;
    }
    if let Some(v) = flag(args, "--norm") {
        cfg.norm = v;
    }
    if let Some(v) = flag(args, "--variant") {
        cfg.variant = v;
    }
    if let Some(v) = flag(args, "--concurrency") {
        cfg.concurrency = v.parse().map_err(|_| "--concurrency must be a number")?;
        if cfg.concurrency == 0 {
            return Err("--concurrency must be at least 1".into());
        }
    }
    if let Some(v) = flag(args, "--duration-s") {
        let secs: f64 = v.parse().map_err(|_| "--duration-s must be a number")?;
        cfg.duration = Some(Duration::from_secs_f64(secs));
    }
    if let Some(v) = flag(args, "--requests") {
        cfg.requests = Some(v.parse().map_err(|_| "--requests must be a number")?);
        if flag(args, "--duration-s").is_none() {
            cfg.duration = None; // request-bounded runs end when the count drains
        }
    }
    if let Some(v) = flag(args, "--rate") {
        cfg.rate = Some(v.parse().map_err(|_| "--rate must be a number")?);
    }
    if has(args, "--cached") {
        cfg.unique_eps = false;
    }
    if let Some(v) = flag(args, "--wave") {
        cfg.wave = v.parse().map_err(|_| "--wave must be a number")?;
    }
    if has(args, "--edit-stream") {
        cfg.edit_stream = true;
    }
    let report = loadgen::run(&cfg).map_err(|e| format!("loadgen failed: {e}"))?;
    let json = serde_json::to_string(&report).map_err(|e| e.to_string())?;
    if let Some(out) = flag(args, "--out") {
        std::fs::write(&out, format!("{json}\n"))
            .map_err(|e| format!("could not write {out}: {e}"))?;
        eprintln!("report written to {out}");
    }
    println!("{json}");
    if let Some(lat) = &report.latency {
        eprintln!(
            "loadgen: {} mode, {} sent, {} ok ({:.1} certified q/s), \
             p50 {:.1} ms, p95 {:.1} ms, p99 {:.1} ms",
            report.mode,
            report.sent,
            report.ok,
            report.certified_queries_per_sec,
            lat.p50_s * 1e3,
            lat.p95_s * 1e3,
            lat.p99_s * 1e3,
        );
    }
    if report.ok == 0 {
        return Err(format!(
            "no successful certifications ({} overloaded, {} timeouts, {} errors)",
            report.overloaded, report.timeouts, report.errors
        ));
    }
    Ok(())
}

/// `deept bench-metrics` — measures the overhead of the metrics gate on the
/// core propagation path and proves the bitwise-identity guarantee: logit
/// bounds with metrics enabled must equal bounds with `DEEPT_METRICS=off`
/// exactly, and the median slowdown must stay under `--max-ratio`.
fn cmd_bench_metrics(args: &[String]) -> Result<(), String> {
    use std::time::Instant;

    let repeats: usize = flag(args, "--repeats")
        .map(|s| s.parse().map_err(|_| "--repeats must be a number"))
        .transpose()?
        .unwrap_or(7);
    let max_ratio: f64 = flag(args, "--max-ratio")
        .map(|s| s.parse().map_err(|_| "--max-ratio must be a number"))
        .transpose()?
        .unwrap_or(1.02);
    let out_path = flag(args, "--out");

    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let model = TransformerClassifier::new(
        TransformerConfig {
            vocab_size: 12,
            max_len: 6,
            embed_dim: 16,
            num_heads: 4,
            hidden_dim: 32,
            num_layers: 2,
            num_classes: 2,
            layer_norm: LayerNormKind::NoStd,
        },
        &mut rng,
    );
    let tokens = [1, 2, 3, 4, 5, 6];
    let net = VerifiableTransformer::from(&model);
    let emb = model.embed(&tokens);
    let cfg = DeepTConfig::fast(2000);
    let region = t1_region(&emb, 0, 0.01, PNorm::L2);

    let run_once = || {
        let t0 = Instant::now();
        let logits = deept::verifier::deept::propagate(&net, &region, &cfg);
        (t0.elapsed().as_secs_f64(), logits.bounds())
    };
    // Warm-up (thread pool, scratch arena) before any timing.
    let _ = run_once();

    fn median(xs: &mut [f64]) -> f64 {
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        xs[xs.len() / 2]
    }

    // Interleave the two gate states so drift (thermal, scheduler) hits
    // both distributions equally.
    let mut on_times = Vec::with_capacity(repeats);
    let mut off_times = Vec::with_capacity(repeats);
    let mut on_bounds = None;
    let mut off_bounds = None;
    for _ in 0..repeats {
        deept::metrics::set_enabled(Some(true));
        let (t, b) = run_once();
        on_times.push(t);
        on_bounds = Some(b);
        deept::metrics::set_enabled(Some(false));
        let (t, b) = run_once();
        off_times.push(t);
        off_bounds = Some(b);
    }
    deept::metrics::set_enabled(None);

    if on_bounds != off_bounds {
        return Err(
            "metrics gate changed certification bounds: results must be bitwise identical".into(),
        );
    }
    let on_ms = median(&mut on_times) * 1e3;
    let off_ms = median(&mut off_times) * 1e3;
    let ratio = on_ms / off_ms;
    let json = format!(
        "{{\"median_ms_metrics_on\": {on_ms:.4}, \"median_ms_metrics_off\": {off_ms:.4}, \
         \"overhead_ratio\": {ratio:.4}, \"max_ratio\": {max_ratio}, \
         \"bounds_bitwise_identical\": true}}\n"
    );
    if let Some(out) = &out_path {
        std::fs::write(out, &json).map_err(|e| format!("could not write {out}: {e}"))?;
    }
    println!("{json}");
    eprintln!(
        "bench-metrics: on {on_ms:.3} ms, off {off_ms:.3} ms, ratio {ratio:.4} \
         (gate {max_ratio})"
    );
    if ratio > max_ratio {
        return Err(format!(
            "metrics overhead ratio {ratio:.4} exceeds the {max_ratio} gate"
        ));
    }
    Ok(())
}

/// `deept fuzz-soundness [--seed N | --seed A..B] [--cases M]`
///
/// Runs the differential soundness fuzzer of `deept::soundness` — the
/// relaxation/transformer micro-checker, the concrete-vs-abstract
/// containment harness and the attack-below-certified-radius consistency
/// gate — under one or more deterministic seeds. Exits nonzero if any
/// violation is found, printing each one.
fn cmd_fuzz_soundness(args: &[String]) -> Result<(), String> {
    let spec = flag(args, "--seed").unwrap_or_else(|| "0".into());
    let seeds: Vec<u64> = if let Some((a, b)) = spec.split_once("..") {
        let a: u64 = a
            .trim()
            .parse()
            .map_err(|_| "--seed range start must be a number")?;
        let b: u64 = b
            .trim()
            .parse()
            .map_err(|_| "--seed range end must be a number")?;
        if b < a {
            return Err("--seed range must be ascending (A..B, inclusive)".into());
        }
        (a..=b).collect()
    } else {
        vec![spec.parse().map_err(|_| "--seed must be N or A..B")?]
    };
    let cases: usize = flag(args, "--cases")
        .map(|s| s.parse().map_err(|_| "--cases must be a number"))
        .transpose()?
        .unwrap_or(200);

    let mut total = 0usize;
    for seed in seeds {
        let report = deept::soundness::run(&deept::soundness::FuzzConfig { seed, cases });
        println!("{}", report.summary());
        for v in &report.relaxation_violations {
            println!("  relaxation violation: {v:?}");
        }
        for v in &report.transformer_violations {
            println!("  transformer violation: {v:?}");
        }
        for v in &report.containment_violations {
            println!("  containment violation: {v:?}");
        }
        for v in &report.attack_violations {
            println!("  attack-below-certified-radius: {v:?}");
        }
        for v in &report.precision_violations {
            println!("  f32-nesting violation: {v:?}");
        }
        for v in &report.refine_violations {
            println!("  refined-verdict violation: {v:?}");
        }
        total += report.total_violations();
    }
    if total > 0 {
        return Err(format!("soundness fuzzing found {total} violation(s)"));
    }
    println!("soundness fuzzing clean: 0 violations");
    Ok(())
}

/// `deept bench-eps [--out BENCH_5.json] [--repeats N] [--layers L] [--len T]
/// [--embed E] [--hidden H] [--budget B] [--radius R] [--trace-dir DIR]`
///
/// Times full abstract propagation of a random transformer under both
/// ε-generator layouts — `dense` (the historical monolithic matrix) and
/// `blocked` (diagonal fresh-symbol blocks with lazy densification) — and
/// writes a JSON summary: per-mode median propagation seconds, per-layer
/// median seconds, peak ε columns, peak resident generator bytes,
/// densification count and scratch-arena hit rate, plus the headline
/// `speedup_vs_dense`. Both modes produce bitwise-identical bounds (pinned
/// by the `eps_mode_equivalence` tests), so this measures representation
/// cost only.
fn cmd_bench_eps(args: &[String]) -> Result<(), String> {
    use deept::verifier::deept::propagate_batch;
    use deept::zonotope::eps;
    use deept::zonotope::Zonotope;
    use std::time::Instant;

    let out_path = flag(args, "--out").unwrap_or_else(|| "BENCH_5.json".into());
    let repeats: usize = flag(args, "--repeats")
        .map(|s| s.parse().map_err(|_| "--repeats must be a number"))
        .transpose()?
        .unwrap_or(5);
    let layers: usize = flag(args, "--layers")
        .map(|s| s.parse().map_err(|_| "--layers must be a number"))
        .transpose()?
        .unwrap_or(2);
    let len: usize = flag(args, "--len")
        .map(|s| s.parse().map_err(|_| "--len must be a number"))
        .transpose()?
        .unwrap_or(6);
    let budget: usize = flag(args, "--budget")
        .map(|s| s.parse().map_err(|_| "--budget must be a number"))
        .transpose()?
        .unwrap_or(100);
    let hidden: usize = flag(args, "--hidden")
        .map(|s| s.parse().map_err(|_| "--hidden must be a number"))
        .transpose()?
        .unwrap_or(32);
    let embed: usize = flag(args, "--embed")
        .map(|s| s.parse().map_err(|_| "--embed must be a number"))
        .transpose()?
        .unwrap_or(8);
    let radius: f64 = flag(args, "--radius")
        .map(|s| s.parse().map_err(|_| "--radius must be a number"))
        .transpose()?
        .unwrap_or(0.05);

    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let model = TransformerClassifier::new(
        TransformerConfig {
            vocab_size: 12,
            max_len: len,
            embed_dim: embed,
            num_heads: 2,
            hidden_dim: hidden,
            num_layers: layers,
            num_classes: 2,
            layer_norm: LayerNormKind::NoStd,
        },
        &mut rng,
    );
    let tokens: Vec<usize> = (0..len).map(|i| 1 + (i % 10)).collect();
    let net = VerifiableTransformer::from(&model);
    let emb = model.embed(&tokens);
    let cfg = DeepTConfig::fast(budget);
    let region = t1_region(&emb, 0, radius, PNorm::L2);

    /// Peak layer-output symbol count plus per-layer timing marks for one
    /// propagation. (Peak resident *bytes* come from the store-level
    /// high-water mark instead: layer outputs are densified in both modes,
    /// so boundary samples cannot see the blocked layout's savings.)
    #[derive(Default)]
    struct PeakProbe {
        peak_eps_cols: usize,
        layer_marks: Vec<std::time::Instant>,
        started: Option<std::time::Instant>,
    }
    impl deept::verifier::ZonotopeObserver for PeakProbe {
        fn input(&mut self, _member: usize, _z: &Zonotope) {
            self.started = Some(std::time::Instant::now());
        }
        fn layer_output(&mut self, _member: usize, _i: usize, z: &Zonotope) {
            self.peak_eps_cols = self.peak_eps_cols.max(z.num_eps());
            self.layer_marks.push(std::time::Instant::now());
        }
    }

    fn median(xs: &mut [f64]) -> f64 {
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        xs[xs.len() / 2]
    }

    struct ModeResult {
        median_s: f64,
        layer_median_s: Vec<f64>,
        peak_eps_cols: usize,
        peak_resident_bytes: usize,
        densifications: u64,
        arena_hits: u64,
        arena_misses: u64,
        bounds: (Vec<f64>, Vec<f64>),
    }

    let run_mode = |dense: bool| -> ModeResult {
        eps::set_force_dense(Some(dense));
        // Warm-up: populates the scratch arena and the thread pool.
        let _ = deept::verifier::deept::propagate(&net, &region, &cfg);
        let before = eps::snapshot();
        eps::reset_peak_resident_bytes();
        let mut totals = Vec::with_capacity(repeats);
        let mut per_layer: Vec<Vec<f64>> = vec![Vec::with_capacity(repeats); layers];
        let mut peak_eps_cols = 0usize;
        let mut bounds = (Vec::new(), Vec::new());
        for _ in 0..repeats {
            let mut probe = PeakProbe::default();
            let t0 = Instant::now();
            let logits =
                propagate_batch(&net, &[Member::new(&region)], &cfg, &NoopProbe, &mut probe)
                    .remove(0)
                    .expect("Deadline::none() never expires");
            totals.push(t0.elapsed().as_secs_f64());
            let mut prev = probe.started.unwrap_or(t0);
            for (i, &mark) in probe.layer_marks.iter().enumerate() {
                per_layer[i].push((mark - prev).as_secs_f64());
                prev = mark;
            }
            peak_eps_cols = peak_eps_cols.max(probe.peak_eps_cols);
            bounds = logits.bounds();
        }
        let after = eps::snapshot();
        let arena = after.arena.since(&before.arena);
        ModeResult {
            median_s: median(&mut totals),
            layer_median_s: per_layer.iter_mut().map(|xs| median(xs)).collect(),
            peak_eps_cols,
            peak_resident_bytes: eps::peak_resident_bytes(),
            densifications: after.densifications - before.densifications,
            arena_hits: arena.hits,
            arena_misses: arena.misses,
            bounds,
        }
    };

    let dense = run_mode(true);
    let blocked = run_mode(false);
    if let Some(dir) = flag(args, "--trace-dir") {
        for (mode, force) in [("dense", true), ("blocked", false)] {
            eps::set_force_dense(Some(force));
            let collector = TraceCollector::new();
            let _ = propagate_batch(&net, &[Member::new(&region)], &cfg, &collector, &mut ());
            let trace = collector.finish();
            trace
                .save_json(std::path::Path::new(&format!(
                    "{dir}/bench_eps_{mode}.json"
                )))
                .map_err(|e| format!("could not write trace: {e}"))?;
        }
    }
    eps::set_force_dense(None);

    if dense.bounds != blocked.bounds {
        return Err("ε-mode bounds diverged: dense and blocked must be bitwise identical".into());
    }
    let speedup = dense.median_s / blocked.median_s;
    let arena_total = blocked.arena_hits + blocked.arena_misses;
    let arena_hit_rate = if arena_total > 0 {
        blocked.arena_hits as f64 / arena_total as f64
    } else {
        0.0
    };

    let mode_json = |m: &ModeResult| {
        let layer_list = m
            .layer_median_s
            .iter()
            .enumerate()
            .map(|(i, s)| format!("{{\"layer\": {i}, \"median_ms\": {:.4}}}", s * 1e3))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\n      \"median_ms\": {:.4},\n      \"per_layer\": [{layer_list}],\n      \
             \"peak_eps_cols\": {},\n      \"peak_resident_generator_bytes\": {},\n      \
             \"densifications\": {}\n    }}",
            m.median_s * 1e3,
            m.peak_eps_cols,
            m.peak_resident_bytes,
            m.densifications,
        )
    };
    let (lo, hi) = &blocked.bounds;
    let logit_lo = lo.iter().cloned().fold(f64::INFINITY, f64::min);
    let logit_hi = hi.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let json = format!(
        "{{\n  \"config\": {{\"layers\": {layers}, \"len\": {len}, \"repeats\": {repeats}, \
         \"budget\": {budget}, \"radius\": {radius}, \"threads\": {}}},\n  \"modes\": {{\n    \"dense\": {},\n    \"blocked\": {}\n  }},\n  \
         \"speedup_vs_dense\": {:.3},\n  \"arena_hit_rate\": {:.3},\n  \
         \"logit_bounds\": [{logit_lo}, {logit_hi}],\n  \
         \"bounds_bitwise_identical\": true\n}}\n",
        deept::tensor::parallel::num_threads(),
        mode_json(&dense),
        mode_json(&blocked),
        speedup,
        arena_hit_rate,
    );
    std::fs::write(&out_path, &json).map_err(|e| format!("could not write {out_path}: {e}"))?;
    println!("{json}");
    println!(
        "eps-storage bench: dense {:.2} ms, blocked {:.2} ms, speedup {speedup:.2}x, \
         peak eps {} -> {} cols resident {} -> {} bytes",
        dense.median_s * 1e3,
        blocked.median_s * 1e3,
        dense.peak_eps_cols,
        blocked.peak_eps_cols,
        dense.peak_resident_bytes,
        blocked.peak_resident_bytes,
    );
    println!("bench written to {out_path}");
    Ok(())
}

/// `deept bench-kernels [--out BENCH_7.json] [--repeats N] [--layers L]
/// [--len T] [--embed E] [--hidden H] [--budget B]`
///
/// Benchmarks the compute-kernel dispatch ladder (`naive` / `blocked` /
/// `simd`) and the `f32` generator-storage mode, writing a JSON summary:
///
/// * per-kernel microbench medians (`dot`, `matmul`,
///   `matmul_transpose_b`, `eps_col_abs_sums`) with the simd-vs-blocked
///   speedup per kernel — outputs are asserted bitwise identical across
///   all three rungs;
/// * end-to-end abstract-propagation medians per kernel mode (bounds
///   asserted bitwise identical) and the simd-vs-blocked speedup;
/// * peak resident generator bytes of a relaxation-chain workload under
///   `f64` vs `f32` storage (`memory_ratio_f64_over_f32`), with the `f32`
///   logits interval checked to contain the `f64` reference.
///
/// Numeric gates (≥2x on a microbench, ≥1.15x end-to-end, ≥1.8x memory)
/// live in `scripts/bench_smoke.sh`, which parses this file.
fn cmd_bench_kernels(args: &[String]) -> Result<(), String> {
    use deept::tensor::parallel::{self, KernelMode};
    use deept::tensor::{vector, Matrix};
    use deept::zonotope::eps::{self, EpsStore};
    use deept::zonotope::Zonotope;
    use std::time::Instant;

    let out_path = flag(args, "--out").unwrap_or_else(|| "BENCH_7.json".into());
    let repeats: usize = flag(args, "--repeats")
        .map(|s| s.parse().map_err(|_| "--repeats must be a number"))
        .transpose()?
        .unwrap_or(7);
    let layers: usize = flag(args, "--layers")
        .map(|s| s.parse().map_err(|_| "--layers must be a number"))
        .transpose()?
        .unwrap_or(2);
    let len: usize = flag(args, "--len")
        .map(|s| s.parse().map_err(|_| "--len must be a number"))
        .transpose()?
        .unwrap_or(12);
    let embed: usize = flag(args, "--embed")
        .map(|s| s.parse().map_err(|_| "--embed must be a number"))
        .transpose()?
        .unwrap_or(64);
    let hidden: usize = flag(args, "--hidden")
        .map(|s| s.parse().map_err(|_| "--hidden must be a number"))
        .transpose()?
        .unwrap_or(32);
    let budget: usize = flag(args, "--budget")
        .map(|s| s.parse().map_err(|_| "--budget must be a number"))
        .transpose()?
        .unwrap_or(300);

    const KERNELS: [KernelMode; 3] = [KernelMode::Naive, KernelMode::Blocked, KernelMode::Simd];

    fn median(xs: &mut [f64]) -> f64 {
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        xs[xs.len() / 2]
    }

    /// Deterministic pseudo-random matrix (no RNG state shared with the
    /// model builder below).
    fn gen(rows: usize, cols: usize, salt: u64) -> Matrix {
        let data: Vec<f64> = (0..rows * cols)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(salt.wrapping_mul(1442695040888963407) | 1);
                ((x >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect();
        Matrix::from_vec(rows, cols, data).expect("sized")
    }

    /// Times `body` under every kernel rung: median seconds per rung plus
    /// the per-rung result, which must be identical across rungs. Samples
    /// are interleaved round-robin across rungs so clock/thermal drift
    /// hits every distribution equally (same discipline as
    /// `bench-metrics`).
    fn per_kernel<R: PartialEq + std::fmt::Debug>(
        name: &str,
        repeats: usize,
        mut body: impl FnMut() -> R,
    ) -> Result<[f64; 3], String> {
        let mut reference: Option<R> = None;
        for mode in KERNELS {
            parallel::set_kernel_mode(Some(mode));
            let got = body(); // warm-up + correctness sample
            match &reference {
                None => reference = Some(got),
                Some(want) => {
                    if want != &got {
                        parallel::set_kernel_mode(None);
                        return Err(format!(
                            "{name}: {mode:?} result diverged from Naive — kernel rungs \
                             must be bitwise identical"
                        ));
                    }
                }
            }
        }
        let mut times: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for _ in 0..repeats {
            for (slot, mode) in KERNELS.iter().enumerate() {
                parallel::set_kernel_mode(Some(*mode));
                let t0 = Instant::now();
                let r = body();
                times[slot].push(t0.elapsed().as_secs_f64());
                std::hint::black_box(&r);
            }
        }
        parallel::set_kernel_mode(None);
        let mut medians = [0.0f64; 3];
        for (slot, xs) in times.iter_mut().enumerate() {
            medians[slot] = median(xs);
        }
        Ok(medians)
    }

    // --- Microbenches -----------------------------------------------------
    // Shapes cross the KC=128 panel boundary and leave ragged 4-lane tails.
    let dot_x: Vec<f64> = (0..4096).map(|i| ((i % 17) as f64 - 8.0) * 0.11).collect();
    let dot_y: Vec<f64> = (0..4096).map(|i| ((i % 13) as f64 - 6.0) * 0.07).collect();
    let mm_a = gen(96, 261, 1);
    let mm_b = gen(261, 130, 2);
    let tb_bt = gen(130, 261, 3);
    let scan_store = EpsStore::from_matrix(gen(384, 384, 4));

    let micro = [
        (
            "dot",
            per_kernel("dot", repeats, || {
                let mut acc = 0.0;
                for _ in 0..64 {
                    acc += vector::dot(&dot_x, &dot_y);
                }
                acc
            })?,
        ),
        (
            "matmul",
            per_kernel("matmul", repeats, || mm_a.matmul(&mm_b))?,
        ),
        (
            "matmul_transpose_b",
            per_kernel("matmul_transpose_b", repeats, || {
                mm_a.matmul_transpose_b(&tb_bt)
            })?,
        ),
        (
            "eps_col_abs_sums",
            per_kernel("eps_col_abs_sums", repeats, || scan_store.col_abs_sums())?,
        ),
    ];

    // --- End-to-end propagation per kernel rung ---------------------------
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let model = TransformerClassifier::new(
        TransformerConfig {
            vocab_size: 12,
            max_len: len,
            embed_dim: embed,
            num_heads: 4,
            hidden_dim: hidden,
            num_layers: layers,
            num_classes: 2,
            layer_norm: LayerNormKind::NoStd,
        },
        &mut rng,
    );
    let tokens: Vec<usize> = (0..len).map(|i| 1 + (i % 10)).collect();
    let net = VerifiableTransformer::from(&model);
    let emb = model.embed(&tokens);
    let cfg = DeepTConfig::fast(budget);
    let region = t1_region(&emb, 0, 0.02, PNorm::L2);

    let e2e_repeats = repeats.clamp(3, 5);
    let e2e = per_kernel("propagate", e2e_repeats, || {
        deept::verifier::deept::propagate(&net, &region, &cfg).bounds()
    })?;

    // --- f32 generator storage: memory + nesting --------------------------
    // A relaxation chain is the workload the compression targets: a wide
    // dense input block plus one fresh diagonal block per layer, with no
    // row-mixing matmul whose f64 output would mask the savings.
    let chain_rows = 48usize;
    let chain_eps = 48usize;
    let chain_layers = 48usize;
    eps::set_force_dense(Some(false));
    let run_chain = |f32_on: bool| -> (usize, (Vec<f64>, Vec<f64>)) {
        eps::set_force_f32(Some(f32_on));
        let center: Vec<f64> = (0..chain_rows).map(|i| (i as f64 * 0.13).sin()).collect();
        let gens = gen(chain_rows, chain_eps, 7).scale(0.02);
        let z = Zonotope::from_parts(
            chain_rows,
            1,
            center,
            Matrix::zeros(chain_rows, 0),
            gens,
            PNorm::Linf,
        );
        eps::reset_peak_resident_bytes();
        let mut z = z;
        for _ in 0..chain_layers {
            z = z.tanh();
        }
        let peak = eps::peak_resident_bytes();
        (peak, z.bounds())
    };
    let (peak64, bounds64) = run_chain(false);
    let (peak32, bounds32) = run_chain(true);
    eps::set_force_f32(None);
    eps::set_force_dense(None);
    let mem_ratio = peak64 as f64 / peak32.max(1) as f64;
    // Nesting: the f32 interval must contain the f64 reference (up to the
    // relaxation-pivot tolerance used by the soundness fuzzer).
    for k in 0..bounds64.0.len() {
        let t = 1e-9 * (1.0 + bounds64.0[k].abs().max(bounds64.1[k].abs()));
        if bounds32.0[k] - bounds64.0[k] > t || bounds64.1[k] - bounds32.1[k] > t {
            return Err(format!(
                "f32 storage produced a tighter bound than the f64 reference at \
                 variable {k}: f64 [{}, {}], f32 [{}, {}]",
                bounds64.0[k], bounds64.1[k], bounds32.0[k], bounds32.1[k]
            ));
        }
    }

    // --- Report -----------------------------------------------------------
    let micro_json = micro
        .iter()
        .map(|(name, m)| {
            format!(
                "    \"{name}\": {{\"naive_ms\": {:.4}, \"blocked_ms\": {:.4}, \
                 \"simd_ms\": {:.4}, \"speedup_simd_vs_blocked\": {:.3}}}",
                m[0] * 1e3,
                m[1] * 1e3,
                m[2] * 1e3,
                m[1] / m[2],
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let best_micro = micro
        .iter()
        .map(|(_, m)| m[1] / m[2])
        .fold(0.0f64, f64::max);
    let e2e_speedup = e2e[1] / e2e[2];
    let isa = deept::tensor::simd::active_isa().label();
    let json = format!(
        "{{\n  \"config\": {{\"layers\": {layers}, \"len\": {len}, \"embed\": {embed}, \
         \"hidden\": {hidden}, \"budget\": {budget}, \"repeats\": {repeats}, \
         \"threads\": {}, \"isa\": \"{isa}\"}},\n  \"micro\": {{\n{micro_json}\n  }},\n  \
         \"best_micro_speedup_simd_vs_blocked\": {best_micro:.3},\n  \
         \"end_to_end\": {{\"naive_ms\": {:.4}, \"blocked_ms\": {:.4}, \"simd_ms\": {:.4}, \
         \"speedup_simd_vs_blocked\": {e2e_speedup:.3}}},\n  \
         \"bounds_bitwise_identical_across_kernels\": true,\n  \
         \"f32_storage\": {{\"peak_resident_generator_bytes_f64\": {peak64}, \
         \"peak_resident_generator_bytes_f32\": {peak32}, \
         \"memory_ratio_f64_over_f32\": {mem_ratio:.3}, \
         \"f32_bounds_contain_f64\": true}}\n}}\n",
        deept::tensor::parallel::num_threads(),
        e2e[0] * 1e3,
        e2e[1] * 1e3,
        e2e[2] * 1e3,
    );
    std::fs::write(&out_path, &json).map_err(|e| format!("could not write {out_path}: {e}"))?;
    println!("{json}");
    println!(
        "kernel bench ({isa}): best micro speedup {best_micro:.2}x, end-to-end \
         {e2e_speedup:.2}x, f32 memory ratio {mem_ratio:.2}x"
    );
    println!("bench written to {out_path}");
    Ok(())
}

/// `deept bench-refine [--out BENCH_8.json] [--deadline-ms 2000]
/// [--models N] [--nodes K]`
///
/// Measures what the refinement ladder buys over the flat passes on *hard*
/// queries. For each of `--models` seeded tiny transformers the bench
/// first finds the flat certification frontier (the maximum radius
/// DeepT-Precise certifies, by bisection), then poses ℓ∞ queries at radii
/// just above it — queries the flat passes lose by construction. Each
/// query runs three ways under the same fresh per-query deadline:
/// DeepT-Fast only, DeepT-Precise, and the full escalation ladder. The
/// JSON reports per-method certified counts and the *recovery rate*: the
/// fraction of queries left unknown by both flat passes that refinement
/// certifies. CI gates on `recovery_rate >= 0.2`.
fn cmd_bench_refine(args: &[String]) -> Result<(), String> {
    use deept::refine::{refine_certify, RefineConfig, RefineOutcome};
    use deept::verifier::deept::certify;
    use deept::verifier::radius::max_certified_radius;
    use std::time::Instant;

    let out_path = flag(args, "--out").unwrap_or_else(|| "BENCH_8.json".into());
    let deadline_ms: u64 = flag(args, "--deadline-ms")
        .map(|s| s.parse().map_err(|_| "--deadline-ms must be a number"))
        .transpose()?
        .unwrap_or(2000);
    let models: usize = flag(args, "--models")
        .map(|s| s.parse().map_err(|_| "--models must be a number"))
        .transpose()?
        .unwrap_or(4);
    let nodes: usize = flag(args, "--nodes")
        .map(|s| s.parse().map_err(|_| "--nodes must be a number"))
        .transpose()?
        .unwrap_or(256);

    // Radii as multiples of the flat frontier: barely above it (where
    // branch-and-bound has the best shot) through clearly above it.
    let factors = [1.02, 1.10, 1.25];
    let rcfg = RefineConfig {
        refine_budget: 400,
        max_nodes: nodes,
        ..RefineConfig::default()
    };

    struct Row {
        model_seed: u64,
        radius: f64,
        frontier: f64,
        fast_certified: bool,
        precise_certified: bool,
        refine_verdict: &'static str,
        refine_nodes: usize,
        fast_ms: f64,
        precise_ms: f64,
        refine_ms: f64,
    }
    let mut rows: Vec<Row> = Vec::new();

    for m in 0..models {
        let seed = 40 + m as u64;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let model = TransformerClassifier::new(
            TransformerConfig {
                vocab_size: 13,
                max_len: 6,
                embed_dim: 8,
                num_heads: 2,
                hidden_dim: 12,
                num_layers: 2,
                num_classes: 2,
                layer_norm: LayerNormKind::NoStd,
            },
            &mut rng,
        );
        let tokens: Vec<usize> = (0..4).map(|i| 1 + (i * 3 + m) % 12).collect();
        let position = 1usize;
        let label = model.predict(&tokens);
        let net = VerifiableTransformer::from(&model);
        let emb = model.embed(&tokens);
        let precise_cfg = DeepTConfig::precise(500);
        let fast_cfg = DeepTConfig::fast(2000);
        // The flat frontier: everything below this radius the flat passes
        // already certify, so the interesting queries start just above.
        let frontier = max_certified_radius(
            |r| {
                let region = t1_region(&emb, position, r, PNorm::Linf);
                certify(&net, &region, label, &precise_cfg).certified
            },
            0.01,
            14,
        );
        if frontier <= 0.0 {
            continue;
        }
        for f in factors {
            let radius = frontier * f;
            let region = t1_region(&emb, position, radius, PNorm::Linf);

            let t0 = Instant::now();
            let member = Member {
                deadline: Deadline::after_ms(Some(deadline_ms)),
                ..Member::new(&region)
            };
            let fast_certified =
                certify_batch(&net, &[member], label, &fast_cfg, &NoopProbe, &mut ())
                    .remove(0)
                    .is_ok_and(|r| r.certified);
            let fast_ms = t0.elapsed().as_secs_f64() * 1e3;

            let t0 = Instant::now();
            let member = Member {
                deadline: Deadline::after_ms(Some(deadline_ms)),
                ..Member::new(&region)
            };
            let precise_certified =
                certify_batch(&net, &[member], label, &precise_cfg, &NoopProbe, &mut ())
                    .remove(0)
                    .is_ok_and(|r| r.certified);
            let precise_ms = t0.elapsed().as_secs_f64() * 1e3;

            let t0 = Instant::now();
            let report = refine_certify(
                &model,
                &tokens,
                position,
                radius,
                PNorm::Linf,
                label,
                &rcfg,
                Deadline::after_ms(Some(deadline_ms)),
            );
            let refine_ms = t0.elapsed().as_secs_f64() * 1e3;
            let refine_verdict = match report.outcome {
                RefineOutcome::Certified { .. } => "certified",
                RefineOutcome::Falsified { .. } => "falsified",
                RefineOutcome::Unknown { .. } => "unknown",
            };
            rows.push(Row {
                model_seed: seed,
                radius,
                frontier,
                fast_certified,
                precise_certified,
                refine_verdict,
                refine_nodes: report.nodes_explored,
                fast_ms,
                precise_ms,
                refine_ms,
            });
        }
    }

    let queries = rows.len();
    let fast_certified = rows.iter().filter(|r| r.fast_certified).count();
    let precise_certified = rows.iter().filter(|r| r.precise_certified).count();
    let refine_certified = rows
        .iter()
        .filter(|r| r.refine_verdict == "certified")
        .count();
    let hard: Vec<&Row> = rows
        .iter()
        .filter(|r| !r.fast_certified && !r.precise_certified)
        .collect();
    let recovered = hard
        .iter()
        .filter(|r| r.refine_verdict == "certified")
        .count();
    let recovery_rate = if hard.is_empty() {
        0.0
    } else {
        recovered as f64 / hard.len() as f64
    };

    let row_json = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"model_seed\": {}, \"radius\": {:.6}, \"frontier\": {:.6}, \
                 \"fast_certified\": {}, \"precise_certified\": {}, \
                 \"refine_verdict\": \"{}\", \"refine_nodes\": {}, \
                 \"fast_ms\": {:.2}, \"precise_ms\": {:.2}, \"refine_ms\": {:.2}}}",
                r.model_seed,
                r.radius,
                r.frontier,
                r.fast_certified,
                r.precise_certified,
                r.refine_verdict,
                r.refine_nodes,
                r.fast_ms,
                r.precise_ms,
                r.refine_ms,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"config\": {{\"deadline_ms\": {deadline_ms}, \"models\": {models}, \
         \"max_nodes\": {nodes}, \"factors\": [1.02, 1.10, 1.25]}},\n  \"queries\": [\n{row_json}\n  ],\n  \
         \"totals\": {{\"queries\": {queries}, \"fast_certified\": {fast_certified}, \
         \"precise_certified\": {precise_certified}, \"refine_certified\": {refine_certified}, \
         \"hard_queries\": {}, \"refine_recovered\": {recovered}, \
         \"recovery_rate\": {recovery_rate:.3}}}\n}}\n",
        hard.len(),
    );
    std::fs::write(&out_path, &json).map_err(|e| format!("could not write {out_path}: {e}"))?;
    println!("{json}");
    println!(
        "refine bench: {queries} frontier queries, fast {fast_certified} certified, \
         precise {precise_certified}, refine {refine_certified}; refinement recovered \
         {recovered}/{} flat-unknown queries ({:.0}%)",
        hard.len(),
        recovery_rate * 100.0,
    );
    println!("bench written to {out_path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_parsing() {
        let a = args(&["--model", "m.json", "--norm", "inf"]);
        assert_eq!(flag(&a, "--model").as_deref(), Some("m.json"));
        assert_eq!(flag(&a, "--norm").as_deref(), Some("inf"));
        assert_eq!(flag(&a, "--missing"), None);
        assert!(!has(&a, "--yelp"));
        assert!(has(&args(&["--yelp"]), "--yelp"));
    }

    #[test]
    fn certify_requires_model() {
        let err = cmd_certify(&args(&["--sentence", "x"])).unwrap_err();
        assert!(err.contains("--model"));
    }

    #[test]
    fn flag_all_collects_repeats() {
        let a = args(&[
            "--model",
            "a=x.json",
            "--workers",
            "4",
            "--model",
            "b=y.json",
        ]);
        assert_eq!(flag_all(&a, "--model"), vec!["a=x.json", "b=y.json"]);
        assert!(flag_all(&a, "--queue").is_empty());
    }

    #[test]
    fn request_requires_addr_and_action() {
        let err = cmd_request(&args(&["--status"])).unwrap_err();
        assert!(err.contains("--addr"));
        let err = cmd_request(&args(&["--addr", "127.0.0.1:1"])).unwrap_err();
        assert!(err.contains("--status"));
    }

    #[test]
    fn request_certify_requires_tokens_and_model_id() {
        let err = cmd_request(&args(&["--addr", "127.0.0.1:1", "--certify"])).unwrap_err();
        assert!(err.contains("--tokens"));
        let err = cmd_request(&args(&[
            "--addr",
            "127.0.0.1:1",
            "--certify",
            "--tokens",
            "1 2 nope",
        ]))
        .unwrap_err();
        assert!(err.contains("bad token id"));
    }

    #[test]
    fn serve_model_flag_requires_id_eq_path() {
        let err = cmd_serve(&args(&["--model", "no-equals-sign", "--stdio"])).unwrap_err();
        assert!(err.contains("id=path"));
    }

    #[test]
    fn load_model_flag_requires_id_eq_path() {
        let err = cmd_request(&args(&[
            "--addr",
            "127.0.0.1:1",
            "--load-model",
            "no-equals-sign",
        ]))
        .unwrap_err();
        assert!(err.contains("id=path"));
    }

    #[test]
    fn unknown_tokens_are_rejected() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
        let mut spec = sentiment::sst_spec();
        spec.train = 1;
        spec.test = 1;
        let ds = sentiment::generate(spec, &mut rng);
        let bundle = Bundle {
            model: TransformerClassifier::new(
                TransformerConfig {
                    vocab_size: ds.vocab.len(),
                    max_len: 6,
                    embed_dim: 8,
                    num_heads: 2,
                    hidden_dim: 8,
                    num_layers: 1,
                    num_classes: 2,
                    layer_norm: LayerNormKind::NoStd,
                },
                &mut rng,
            ),
            vocab: ds.vocab,
        };
        let err =
            parse_sentence(&bundle, &args(&["--sentence", "definitely_not_a_token"])).unwrap_err();
        assert!(err.contains("unknown token"));
        // And a real token resolves.
        let name = bundle.vocab.token(0).name.clone();
        let ids = parse_sentence(&bundle, &args(&["--sentence", &name])).unwrap();
        assert_eq!(ids, vec![0]);
    }
}
