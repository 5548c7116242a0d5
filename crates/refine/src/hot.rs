//! Cached handles into the process-global (gated) metrics registry for the
//! refinement ladder.
//!
//! Same discipline as `deept-core`'s hot counters: these only feed the live
//! scrape endpoint, never the computation, and every bump is a single
//! relaxed atomic load when `DEEPT_METRICS=off`.

use deept_metrics::{hot_counter, Histogram};
use std::sync::OnceLock;

hot_counter!(
    escalations_total,
    "deept_refine_escalations_total",
    "Ladder escalations (Fast→Precise and Precise→Refine)."
);
hot_counter!(
    branches_total,
    "deept_refine_branches_total",
    "Branch-and-bound splits performed by the refinement stage."
);
hot_counter!(
    prunes_total,
    "deept_refine_prunes_total",
    "Refinement subtrees pruned by a concrete counterexample."
);
hot_counter!(
    nodes_total,
    "deept_refine_nodes_total",
    "Branch-and-bound nodes explored by the refinement stage."
);

macro_rules! level_histogram {
    ($fn_name:ident, $level:literal) => {
        pub(crate) fn $fn_name() -> &'static Histogram {
            static H: OnceLock<Histogram> = OnceLock::new();
            H.get_or_init(|| {
                deept_metrics::global().histogram_with(
                    "deept_refine_level_seconds",
                    &[("level", $level)],
                    "Wall-clock seconds spent per escalation-ladder level.",
                )
            })
        }
    };
}

level_histogram!(fast_seconds, "fast");
level_histogram!(precise_seconds, "precise");
level_histogram!(refine_seconds, "refine");
