//! Cached handles into the process-global (gated) metrics registry for the
//! abstract-propagation hot paths.
//!
//! Counters here only feed the live scrape endpoint; they never influence
//! the computation they count (the PR 1 bitwise-identical guarantee), and
//! when `DEEPT_METRICS=off` every bump is a single relaxed atomic load.

use deept_metrics::hot_counter;

hot_counter!(
    matmul_total,
    "deept_zono_matmul_total",
    "Zonotope-zonotope matrix products computed."
);
hot_counter!(
    softmax_total,
    "deept_softmax_total",
    "Softmax abstract transformers applied."
);
hot_counter!(
    reductions_total,
    "deept_reductions_total",
    "Noise-symbol reductions performed."
);
hot_counter!(
    reduction_symbols_dropped_total,
    "deept_reduction_symbols_dropped_total",
    "Epsilon noise symbols folded away by reductions."
);
hot_counter!(
    eps_densifications_total,
    "deept_eps_densifications_total",
    "Diag-to-Dense conversions in the blocked epsilon generator store."
);
