//! Telemetry equivalence and structure: an active probe must observe the
//! verification without perturbing it — the probed propagation returns a
//! bitwise-identical logits zonotope — and the collected trace must mirror
//! the pipeline's actual shape (per-layer spans, transformer sub-spans,
//! radius-search steps) and serialize to well-formed JSON.

mod common;

use deept::telemetry::TraceCollector;
use deept::verifier::deept::{
    certify, certify_probed, propagate, propagate_batch, DeepTConfig, Member,
};
use deept::verifier::network::{t1_region, VerifiableTransformer};
use deept::verifier::radius::{max_certified_radius, max_certified_radius_probed};
use deept::zonotope::PNorm;

#[test]
fn probed_propagation_is_bitwise_identical() {
    let (model, ds) = common::trained_transformer(2, 21);
    let (tokens, label) = common::correct_sentence(&model, &ds);
    let net = VerifiableTransformer::from(&model);
    let emb = model.embed(&tokens);
    let cfg = DeepTConfig::fast(1500);
    for p in [PNorm::L1, PNorm::L2, PNorm::Linf] {
        let region = t1_region(&emb, 1, 0.02, p);
        let plain = propagate(&net, &region, &cfg);
        let collector = TraceCollector::new();
        let probed = propagate_batch(&net, &[Member::new(&region)], &cfg, &collector, &mut ())
            .remove(0)
            .expect("Deadline::none() never expires");
        // Bitwise identity: the probe observes, it never influences.
        assert_eq!(plain, probed, "probed logits differ for {p:?}");
        let plain_cert = certify(&net, &region, label, &cfg);
        let probed_cert = certify_probed(&net, &region, label, &cfg, &collector);
        assert_eq!(plain_cert.certified, probed_cert.certified);
        assert_eq!(plain_cert.margins, probed_cert.margins);
    }
}

#[test]
fn trace_mirrors_pipeline_structure() {
    let layers = 2;
    let (model, ds) = common::trained_transformer(layers, 22);
    let (tokens, label) = common::correct_sentence(&model, &ds);
    let net = VerifiableTransformer::from(&model);
    let emb = model.embed(&tokens);
    let cfg = DeepTConfig::fast(1500);
    let collector = TraceCollector::new();
    certify_probed(
        &net,
        &t1_region(&emb, 1, 0.02, PNorm::L2),
        label,
        &cfg,
        &collector,
    );
    let trace = collector.finish();

    assert_eq!(trace.unbalanced_exits, 0, "span enters/exits must pair up");
    assert_eq!(trace.spans.len(), 1, "one top-level propagate span");
    let root = &trace.spans[0];
    assert_eq!(root.group, "propagate");
    assert!(root.duration_s >= 0.0);
    let stats = root.stats.expect("propagate records logits stats");
    assert!(stats.mean_width > 0.0 && stats.max_width >= stats.mean_width);
    // The propagate span carries thread-pool counters for all kernel work
    // inside it (workers, chunk tasks, busy time).
    let par = root.parallel.expect("propagate records parallel stats");
    assert!(par.workers >= 1);
    assert!(par.invocations >= 1, "kernels ran on the parallel layer");
    assert!(par.tasks >= par.invocations);

    let layer_spans: Vec<_> = root
        .children
        .iter()
        .filter(|c| c.group == "encoder_layer")
        .collect();
    assert_eq!(layer_spans.len(), layers, "one span per encoder layer");
    for (i, layer) in layer_spans.iter().enumerate() {
        assert_eq!(layer.index, Some(i));
        assert_eq!(layer.label, format!("encoder_layer[{i}]"));
        assert!(layer.stats.is_some(), "layer output stats recorded");
        // Each encoder layer runs attention, two layer norms and the FFN.
        let groups: Vec<&str> = layer.children.iter().map(|c| c.group.as_str()).collect();
        assert!(groups.contains(&"attention"), "layer {i}: {groups:?}");
        assert!(groups.contains(&"ffn"), "layer {i}: {groups:?}");
        assert_eq!(
            groups.iter().filter(|g| **g == "layer_norm").count(),
            2,
            "layer {i}: {groups:?}"
        );
        // Attention contains the per-head dot products and softmaxes.
        let attention = layer
            .children
            .iter()
            .find(|c| c.group == "attention")
            .expect("attention span");
        let heads = model.config.num_heads;
        let dots = attention
            .children
            .iter()
            .filter(|c| c.group == "dot_product")
            .count();
        let softmaxes = attention
            .children
            .iter()
            .filter(|c| c.group == "softmax")
            .count();
        assert_eq!(dots, 2 * heads, "scores + attention·values per head");
        assert_eq!(softmaxes, heads);
    }
    assert!(
        root.children.iter().any(|c| c.group == "pooling"),
        "pooling span present"
    );
    // The per-layer width table is derivable from the trace.
    let widths = trace.layer_widths();
    assert_eq!(widths.len(), layers);
    for row in &widths {
        assert!(row.mean_width > 0.0);
    }
}

#[test]
fn radius_search_steps_and_spans_are_recorded() {
    let (model, ds) = common::trained_transformer(1, 23);
    let (tokens, label) = common::correct_sentence(&model, &ds);
    let net = VerifiableTransformer::from(&model);
    let emb = model.embed(&tokens);
    let cfg = DeepTConfig::fast(1500);
    let verify =
        |radius: f64| certify(&net, &t1_region(&emb, 1, radius, PNorm::L2), label, &cfg).certified;
    let plain = max_certified_radius(verify, 0.01, 10);

    let collector = TraceCollector::new();
    let probed = max_certified_radius_probed(
        |radius| {
            certify_probed(
                &net,
                &t1_region(&emb, 1, radius, PNorm::L2),
                label,
                &cfg,
                &collector,
            )
            .certified
        },
        0.01,
        10,
        &collector,
    );
    assert_eq!(
        plain, probed,
        "probed binary search returns the same radius"
    );

    let trace = collector.finish();
    assert_eq!(trace.unbalanced_exits, 0);
    assert!(!trace.radius_steps.is_empty());
    for (i, step) in trace.radius_steps.iter().enumerate() {
        assert_eq!(step.iteration, i, "query indices are sequential");
        assert!(step.radius > 0.0);
    }
    let best = trace
        .radius_steps
        .iter()
        .filter(|s| s.certified)
        .map(|s| s.radius)
        .fold(0.0, f64::max);
    assert_eq!(
        best, probed,
        "best certified query equals the returned radius"
    );
    // One radius_search root wrapping one radius_iter span per query.
    let root = &trace.spans[0];
    assert_eq!(root.group, "radius_search");
    let iters = root
        .children
        .iter()
        .filter(|c| c.group == "radius_iter")
        .count();
    assert_eq!(iters, trace.radius_steps.len());
}

#[test]
fn trace_serializes_to_wellformed_json() {
    let (model, ds) = common::trained_transformer(1, 24);
    let (tokens, label) = common::correct_sentence(&model, &ds);
    let net = VerifiableTransformer::from(&model);
    let emb = model.embed(&tokens);
    let cfg = DeepTConfig::fast(1500);
    let collector = TraceCollector::new();
    certify_probed(
        &net,
        &t1_region(&emb, 1, 0.02, PNorm::L2),
        label,
        &cfg,
        &collector,
    );
    let mut trace = collector.finish();
    trace.set_meta("verifier", "DeepT-Fast");

    let path = std::env::temp_dir().join("deept_telemetry_trace_test.json");
    trace.save_json(&path).expect("trace written");
    let json = std::fs::read_to_string(&path).expect("trace readable");
    std::fs::remove_file(&path).ok();
    for needle in [
        "\"meta\"",
        "\"verifier\": \"DeepT-Fast\"",
        "\"spans\"",
        "\"encoder_layer[0]\"",
        "\"num_eps\"",
        "\"duration_s\"",
        "\"parallel\"",
        "\"busy_ns\"",
    ] {
        assert!(json.contains(needle), "missing {needle}");
    }
    // The JSON round-trips through serde_json's parser (the bench harness
    // and external tooling read these files).
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    assert!(parsed["total_s"].as_f64().expect("total_s") >= 0.0);
    assert_eq!(parsed["unbalanced_exits"].as_u64(), Some(0));
    assert!(parsed["spans"]
        .as_array()
        .map(|a| !a.is_empty())
        .unwrap_or(false));
}
