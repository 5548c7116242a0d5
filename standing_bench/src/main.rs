//! The standing benchmark of DeepT-rs.
//!
//! `deept-standing-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload (see `README.md`), checks the program's answers and
//! prints one JSON result line last on stdout. `--self-test` runs every
//! workload at a tiny size with and without a planted wrong verdict.
//! `standing_bench/run.py` builds the program and this harness, then runs it.

mod inputs;
mod loadgen;
mod radius_deep;
mod recorder;
mod served;
mod server;
mod stats;
mod traffic;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use recorder::Analysis;

/// End-to-end metrics (tracing off): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("wall_s", "s"),
    ("radius_mean", "ratio"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("max_rate_qps", "1/s"),
    ("certified_frac", "fraction"),
];

/// Per-layer metrics (traced run): name and unit. Layers a workload does
/// not reach read 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.layer_norm_s", "s"),
    ("core.softmax_s", "s"),
    ("core.ffn_s", "s"),
    ("core.attention_s", "s"),
    ("core.reduction_s", "s"),
    ("core.pooling_s", "s"),
    ("core.dot_product_s", "s"),
    ("core.eps_created", "count"),
    ("core.eps_dropped", "count"),
    ("core.densifications", "count"),
    ("core.eps_peak_bytes", "bytes"),
    ("tensor.par_invocations", "count"),
    ("tensor.par_tasks", "count"),
    ("tensor.par_busy_s", "s"),
    ("tensor.par_busy_ratio", "ratio"),
    ("tensor.arena_hit_ratio", "ratio"),
    ("verifier.certify_calls", "count"),
    ("verifier.certify_ms_p50", "ms"),
    ("verifier.radius_iters_per_search", "count"),
    ("verifier.nonfinite_exits", "count"),
    ("verifier.layer0_s", "s"),
    ("verifier.layer1_s", "s"),
    ("verifier.layer2_s", "s"),
    ("verifier.layer3_s", "s"),
    ("verifier.layer0_eps", "count"),
    ("verifier.layer1_eps", "count"),
    ("verifier.layer2_eps", "count"),
    ("verifier.layer3_eps", "count"),
    ("verifier.layer0_max_width", "width"),
    ("verifier.layer1_max_width", "width"),
    ("verifier.layer2_max_width", "width"),
    ("verifier.layer3_max_width", "width"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.propagation_ms_p50", "ms"),
    ("serve.propagation_ms_p99", "ms"),
    ("serve.cache_lookup_us_p50", "us"),
    ("serve.overloaded", "count"),
    ("serve.deadline_timeouts", "count"),
    ("serve.result_cache_hit_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.fused_members_per_batch", "count"),
    ("serve.state_cache_hit_ratio", "ratio"),
    ("serve.state_resumed_layers", "count"),
    ("serve.state_cache_resident_bytes", "bytes"),
    ("loadgen.late_ms_p99", "ms"),
    ("loadgen.backlog_max", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("host.steal_frac", "fraction"),
];

pub const WORKLOADS: &[&str] = &["radius-deep", "serve-fresh"];

#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes, for the self-test.
    pub tiny: bool,
    /// Plant one wrong verdict, for the self-test.
    pub plant: bool,
    pub deept_bin: PathBuf,
    /// Per-run scratch directory inside the checkout.
    pub tmp: PathBuf,
}

/// What a workload run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
        }
    }
}

/// Stage self times and ε counts from a span analysis.
pub fn core_metrics(an: &Analysis, m: &mut BTreeMap<&'static str, f64>) {
    for (metric, span) in [
        ("core.layer_norm_s", "layer_norm"),
        ("core.softmax_s", "softmax"),
        ("core.ffn_s", "ffn"),
        ("core.attention_s", "attention"),
        ("core.reduction_s", "reduction"),
        ("core.pooling_s", "pooling"),
        ("core.dot_product_s", "dot_product"),
    ] {
        m.insert(metric, an.self_time(span));
    }
    m.insert(
        "core.eps_created",
        an.spans.iter().map(|s| s.created as f64).sum(),
    );
    m.insert(
        "core.eps_dropped",
        an.spans.iter().map(|s| s.dropped as f64).sum(),
    );
}

/// Verifier counters from a span analysis, counted the same way on every
/// workload: certify calls and non-finite exits per propagated member
/// (batch members count one each), time per member, and bisection steps
/// (`radius_iter` spans) per radius search.
pub fn verifier_metrics(an: &Analysis, m: &mut BTreeMap<&'static str, f64>) {
    let props = an.propagations();
    let members: usize = props.iter().map(|p| p.0).sum();
    let per_member_ms: Vec<f64> = props
        .iter()
        .map(|&(n, _, secs)| secs * 1e3 / n as f64)
        .collect();
    m.insert("verifier.certify_calls", members as f64);
    m.insert("verifier.certify_ms_p50", stats::median(&per_member_ms));
    m.insert(
        "verifier.nonfinite_exits",
        props.iter().map(|p| (p.0 - p.1) as f64).sum(),
    );
    m.insert(
        "verifier.radius_iters_per_search",
        stats::ratio(
            an.named("radius_iter").count() as f64,
            an.named("radius_search").count() as f64,
        ),
    );
}

/// Per-encoder-layer time, live ε symbols and output width.
pub fn layer_metrics(an: &Analysis, m: &mut BTreeMap<&'static str, f64>) {
    const NAMES: [[&str; 3]; 4] = [
        [
            "verifier.layer0_s",
            "verifier.layer0_eps",
            "verifier.layer0_max_width",
        ],
        [
            "verifier.layer1_s",
            "verifier.layer1_eps",
            "verifier.layer1_max_width",
        ],
        [
            "verifier.layer2_s",
            "verifier.layer2_eps",
            "verifier.layer2_max_width",
        ],
        [
            "verifier.layer3_s",
            "verifier.layer3_eps",
            "verifier.layer3_max_width",
        ],
    ];
    for (i, (t, eps, width)) in an.layers() {
        if let Some([a, b, c]) = NAMES.get(i) {
            m.insert(a, t);
            m.insert(b, eps);
            m.insert(c, width);
        }
    }
}

fn parse_args(args: &[String]) -> Result<(Opts, bool, PathBuf), String> {
    let get = |name: &str| -> Option<String> {
        args.windows(2).find(|w| w[0] == name).map(|w| w[1].clone())
    };
    let root = PathBuf::from(get("--root").unwrap_or_else(|| ".".into()));
    let deept_bin = PathBuf::from(get("--deept-bin").ok_or("--deept-bin <path> is required")?);
    let self_test = args.iter().any(|a| a == "--self-test");
    let workload = get("--workload").unwrap_or_default();
    if !self_test && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    let seed = get("--seed")
        .unwrap_or_else(|| "0".into())
        .parse()
        .map_err(|_| "--seed must be a whole number")?;
    let seconds: f64 = get("--seconds")
        .unwrap_or_else(|| "30".into())
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => return Err("--trace must be 0 or 1".into()),
    };
    let tmp = root
        .join(".bench_tmp")
        .join(format!("run-{}-{seed}", std::process::id()));
    Ok((
        Opts {
            workload,
            seed,
            seconds,
            trace,
            tiny: false,
            plant: false,
            deept_bin,
            tmp,
        },
        self_test,
        root,
    ))
}

fn run_workload(root: &Path, opts: &Opts) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.tmp).map_err(|e| format!("{}: {e}", opts.tmp.display()))?;
    let window = stats::StealWindow::start();
    let mut res = match opts.workload.as_str() {
        "radius-deep" => radius_deep::run(root, opts),
        "serve-fresh" => served::run(root, opts),
        other => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&opts.tmp);
    // How much of the CPU time the machine wanted the hypervisor took
    // during the run: a validity signal for every timing, not program speed.
    let stolen = window.share();
    eprintln!(
        "{}: the hypervisor took {:.1}% of the CPU time the machine wanted during the run",
        opts.workload,
        100.0 * stolen
    );
    if let Ok(out) = &mut res {
        out.metrics.insert("host.steal_frac", stolen);
    }
    res
}

/// Renders the result line: exactly the metric set of the mode, each with
/// its unit. A metric the workload did not produce is an error for the
/// end-to-end set and reads 0 in the per-layer set.
fn result_line(out: &Outcome, trace: bool) -> Result<String, String> {
    let set = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in set {
        let value = match out.metrics.get(name) {
            Some(v) => *v,
            None if trace => 0.0,
            None => return Err(format!("workload produced no value for {name}")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite: {value}"));
        }
        // `{:?}` prints the shortest representation that reads back to the
        // same f64, so every measured digit survives.
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    ))
}

/// Every workload at a tiny size: clean runs must be correct and print
/// every named metric with the unit `BENCHMARK.json` gives it; a planted
/// wrong verdict must be caught.
fn self_test(root: &Path, base: &Opts) -> Result<(), String> {
    let spec: serde_json::Value = serde_json::from_str(
        &std::fs::read_to_string(root.join("BENCHMARK.json")).map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;
    let declared = |key: &str| -> Vec<(String, String)> {
        spec[key]
            .as_array()
            .map(|a| {
                a.iter()
                    .map(|m| {
                        (
                            m["name"].as_str().unwrap_or("").to_string(),
                            m["unit"].as_str().unwrap_or("").to_string(),
                        )
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    for w in WORKLOADS {
        for (trace, plant) in [(false, false), (true, false), (false, true)] {
            let opts = Opts {
                workload: w.to_string(),
                trace,
                plant,
                tiny: true,
                seconds: 2.0,
                ..base.clone()
            };
            let out = run_workload(root, &opts)?;
            let line = result_line(&out, trace)?;
            let v: serde_json::Value = serde_json::from_str(&line).map_err(|e| e.to_string())?;
            for (name, unit) in declared(if trace { "per_layer" } else { "end_to_end" }) {
                if v["metrics"][name.as_str()]["unit"].as_str() != Some(unit.as_str()) {
                    return Err(format!("{w}: metric {name} missing or not in {unit}"));
                }
            }
            if plant && (out.correct || out.failed == 0) {
                return Err(format!("{w}: planted wrong verdict was not caught"));
            }
            if !plant && (!out.correct || out.failed > 0) {
                return Err(format!(
                    "{w} (trace {trace}): clean tiny run failed its checks"
                ));
            }
            eprintln!("self-test: {w} trace={trace} plant={plant}: ok");
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, self_testing, root) = match parse_args(&args) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if self_testing {
        match self_test(&root, &opts) {
            Ok(()) => println!("self-test: OK"),
            Err(e) => {
                eprintln!("self-test failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    match run_workload(&root, &opts)
        .and_then(|out| Ok((result_line(&out, opts.trace)?, out.correct)))
    {
        Ok((line, correct)) => {
            println!("{line}");
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
