//! **deept-metrics** — live metrics for DeepT-rs.
//!
//! A process-friendly registry of named [`Counter`]s, [`Gauge`]s and
//! log-linear-bucket [`Histogram`]s (bounded relative quantile error,
//! mergeable across threads via per-thread shards flushed on read), plus
//! [`PhaseProfiler`], a sampling self-profiler that turns the
//! [`deept_telemetry::Probe`] span stream into cumulative per-phase
//! wall-clock totals and collapsed-stack (flamegraph-compatible) text.
//!
//! Two kinds of registry:
//!
//! * **Per-instance** ([`Registry::new`]) — always on; `deept-serve` gives
//!   each server its own so request counters are exact per server.
//! * **Process-global** ([`global`]) — shared by hot-path library crates
//!   (`deept-tensor`, `deept-core`, `deept-verifier`); *gated* on
//!   [`enabled`], controlled by the `DEEPT_METRICS` environment variable
//!   (`off`/`0`/`false` disable it; anything else, including unset, enables
//!   it). Gated writes are a single relaxed atomic load when disabled.
//!
//! Snapshots ([`RegistrySnapshot`]) are plain serde structs with integer
//! histogram state, so they merge order-independently, round-trip through
//! JSON byte-identically, and render to Prometheus text exposition format
//! 0.0.4 via [`RegistrySnapshot::to_prometheus`].

mod expo;
pub mod hist;
mod profile;
mod registry;

pub use hist::{
    bucket_index, bucket_lower, bucket_representative, bucket_upper, ticks_to_value,
    value_to_ticks, BucketCount, HistogramSnapshot, GRID, GRID_BITS, QUANTILE_RELATIVE_ERROR,
};
pub use profile::{PathStat, PhaseProfiler, PhaseTotal};
pub use registry::{
    Counter, CounterSample, Gauge, GaugeSample, Histogram, HistogramSample, Registry,
    RegistrySnapshot,
};

/// The logging crate, re-exported so `deept-tensor` can log warnings
/// through this crate without a dependency edge of its own (packages that
/// build the library crates by path keep their lockfiles unchanged).
#[doc(hidden)]
pub use deept_telemetry as telemetry;

use std::sync::atomic::{AtomicI8, Ordering};
use std::sync::OnceLock;

/// Tri-state runtime override set by [`set_enabled`]: -1 = follow the
/// environment, 0 = forced off, 1 = forced on.
static OVERRIDE: AtomicI8 = AtomicI8::new(-1);
static FROM_ENV: OnceLock<bool> = OnceLock::new();

/// Whether gated (process-global) metrics are currently recording.
///
/// Reads the `DEEPT_METRICS` environment variable once (default: enabled;
/// `off`, `0` or `false` disable), unless overridden by [`set_enabled`].
pub fn enabled() -> bool {
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => false,
        1 => true,
        _ => *FROM_ENV.get_or_init(|| {
            !matches!(
                std::env::var("DEEPT_METRICS").as_deref(),
                Ok("off") | Ok("0") | Ok("false")
            )
        }),
    }
}

/// Overrides the `DEEPT_METRICS` gate at runtime: `Some(on)` forces the
/// state, `None` returns control to the environment variable. Used by the
/// overhead bench and the metrics-identity regression test to flip the gate
/// within one process.
pub fn set_enabled(on: Option<bool>) {
    OVERRIDE.store(on.map_or(-1, i8::from), Ordering::Relaxed);
}

/// The process-wide gated registry that hot-path crates publish into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::gated)
}

/// Defines `pub(crate) fn $fn_name() -> &'static Counter`: a cached handle
/// to the counter `$metric` in the process-global (gated) registry,
/// registered with `$help` on first use. A hot path then pays one
/// `OnceLock` load per bump instead of a registry lookup.
#[macro_export]
macro_rules! hot_counter {
    ($fn_name:ident, $metric:literal, $help:literal) => {
        pub(crate) fn $fn_name() -> &'static $crate::Counter {
            static C: ::std::sync::OnceLock<$crate::Counter> = ::std::sync::OnceLock::new();
            C.get_or_init(|| $crate::global().counter($metric, $help))
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_override_controls_global_writes() {
        let c = global().counter("deept_metrics_selftest_total", "Gate test counter.");
        set_enabled(Some(false));
        c.inc();
        let off = c.value();
        set_enabled(Some(true));
        c.inc();
        let on = c.value();
        set_enabled(None);
        assert_eq!(off, 0, "gated counter must drop writes while disabled");
        assert_eq!(on, 1);
    }
}
