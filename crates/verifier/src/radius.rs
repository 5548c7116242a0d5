//! Maximum certified radius via binary search (§6.1), with optional
//! cooperative cancellation between queries.

use deept_telemetry::{NoopProbe, Probe, RadiusStep, SpanKind};

use crate::deadline::{Deadline, DeadlineExceeded};

// Cached handle into the process-global (gated) metrics registry: total
// verifier queries issued by radius searches (observability only; never
// influences the search).
deept_metrics::hot_counter!(
    radius_queries_total,
    "deept_radius_queries_total",
    "Certification queries issued by radius binary searches."
);

/// Result of a deadline-aware radius search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RadiusOutcome {
    /// The search ran to completion; the payload is the certified radius.
    Completed(f64),
    /// The deadline expired mid-search. `lower_bound` is the largest radius
    /// certified before the cut-off (a sound partial answer; `0.0` when no
    /// query finished), `queries` the number of completed verifier calls.
    TimedOut {
        /// Largest radius certified before the cut-off.
        lower_bound: f64,
        /// Verifier queries completed before the cut-off.
        queries: usize,
    },
}

impl RadiusOutcome {
    /// The best certified lower bound, whether or not the search finished.
    pub fn lower_bound(&self) -> f64 {
        match *self {
            RadiusOutcome::Completed(r) => r,
            RadiusOutcome::TimedOut { lower_bound, .. } => lower_bound,
        }
    }

    /// Whether the search ran out of budget.
    pub fn timed_out(&self) -> bool {
        matches!(self, RadiusOutcome::TimedOut { .. })
    }
}

/// Finds (a lower bound on) the largest radius `r` for which `verify(r)`
/// holds, assuming `verify` is monotone (certifiable at `r` implies
/// certifiable below `r` — true for all verifiers in this crate).
///
/// The search first grows an upper bracket exponentially from `start`, then
/// bisects for `iters` rounds. Returns `0.0` if even an infinitesimal radius
/// fails (e.g. the point is misclassified).
pub fn max_certified_radius(verify: impl FnMut(f64) -> bool, start: f64, iters: usize) -> f64 {
    max_certified_radius_probed(verify, start, iters, &NoopProbe)
}

/// [`max_certified_radius`] with telemetry: the whole search runs inside a
/// `radius_search` span, each certification query inside a `radius_iter`
/// span, and every query additionally reports a [`RadiusStep`] with the
/// radius tried and the outcome. The query sequence is unchanged.
pub fn max_certified_radius_probed(
    mut verify: impl FnMut(f64) -> bool,
    start: f64,
    iters: usize,
    probe: &dyn Probe,
) -> f64 {
    let outcome =
        max_certified_radius_deadline(|r| Ok(verify(r)), start, iters, Deadline::none(), probe);
    match outcome {
        RadiusOutcome::Completed(r) => r,
        // Unreachable: the closure never errors and Deadline::none() never
        // expires.
        RadiusOutcome::TimedOut { lower_bound, .. } => lower_bound,
    }
}

/// [`max_certified_radius_probed`] with a cooperative [`Deadline`].
///
/// The deadline is polled between search iterations, and the `verify`
/// closure may itself unwind with [`DeadlineExceeded`] (e.g. from
/// [`certify_batch`](crate::deept::certify_batch) checking between encoder
/// layers or per-class margin queries). Either way the search stops
/// at a query boundary and reports the best certified radius found so far —
/// a sound lower bound — instead of hanging past the budget.
///
/// With `Deadline::none()` and an infallible closure the query sequence,
/// probe spans and result are bitwise identical to
/// [`max_certified_radius_probed`].
pub fn max_certified_radius_deadline(
    mut verify: impl FnMut(f64) -> Result<bool, DeadlineExceeded>,
    start: f64,
    iters: usize,
    deadline: Deadline,
    probe: &dyn Probe,
) -> RadiusOutcome {
    assert!(start > 0.0, "start radius must be positive");
    probe.span_enter(SpanKind::RadiusSearch);
    let mut queries = 0;
    let mut iteration = 0;
    // `record = false` for the radius-0 misclassification sanity check: it
    // is a plain classification query, not a step of the §6.1 binary
    // search, so it gets neither a radius_iter span nor a RadiusStep (all
    // recorded steps therefore have a strictly positive radius).
    let mut check = |radius: f64, record: bool| -> Result<bool, DeadlineExceeded> {
        deadline.check()?;
        let certified = if record {
            probe.span_enter(SpanKind::RadiusIter(iteration));
            let result = verify(radius);
            probe.span_exit(SpanKind::RadiusIter(iteration), None, 0);
            let certified = result?;
            probe.radius_step(RadiusStep {
                iteration,
                radius,
                certified,
            });
            iteration += 1;
            certified
        } else {
            verify(radius)?
        };
        queries += 1;
        Ok(certified)
    };
    // Largest radius certified so far, kept outside the search body so a
    // timeout can still report it.
    let mut best = 0.0;
    let result = (|| -> Result<f64, DeadlineExceeded> {
        if !check(0.0, false)? {
            return Ok(0.0);
        }
        let mut lo = 0.0;
        let mut hi = start;
        let mut grow = 0;
        while check(hi, true)? && grow < 40 {
            lo = hi;
            best = lo;
            hi *= 2.0;
            grow += 1;
        }
        if grow == 40 {
            return Ok(lo); // effectively unbounded; report the bracket
        }
        for _ in 0..iters {
            let mid = 0.5 * (lo + hi);
            if check(mid, true)? {
                lo = mid;
                best = lo;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    })();
    probe.span_exit(SpanKind::RadiusSearch, None, 0);
    radius_queries_total().add(queries as u64);
    match result {
        Ok(r) => RadiusOutcome::Completed(r),
        Err(DeadlineExceeded) => RadiusOutcome::TimedOut {
            lower_bound: best,
            queries,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn finds_threshold() {
        // verify(r) = r <= 0.37
        let r = max_certified_radius(|r| r <= 0.37, 0.01, 40);
        assert!((r - 0.37).abs() < 1e-6);
    }

    #[test]
    fn misclassified_point_gives_zero() {
        assert_eq!(max_certified_radius(|_| false, 0.1, 20), 0.0);
    }

    #[test]
    fn threshold_below_start_is_found() {
        let r = max_certified_radius(|r| r <= 0.003, 0.1, 40);
        assert!((r - 0.003).abs() < 1e-6);
    }

    #[test]
    fn counts_calls_reasonably() {
        let mut calls = 0;
        let _ = max_certified_radius(
            |r| {
                calls += 1;
                r <= 0.25
            },
            0.01,
            20,
        );
        assert!(calls < 70, "too many verifier calls: {calls}");
    }

    #[test]
    fn unlimited_deadline_matches_plain_search() {
        let plain = max_certified_radius(|r| r <= 0.37, 0.01, 40);
        let outcome = max_certified_radius_deadline(
            |r| Ok(r <= 0.37),
            0.01,
            40,
            Deadline::none(),
            &deept_telemetry::NoopProbe,
        );
        assert_eq!(outcome, RadiusOutcome::Completed(plain));
        assert!(!outcome.timed_out());
    }

    #[test]
    fn expired_deadline_times_out_before_any_query() {
        let mut calls = 0;
        let outcome = max_certified_radius_deadline(
            |_| {
                calls += 1;
                Ok(true)
            },
            0.01,
            40,
            Deadline::at(Instant::now() - Duration::from_millis(1)),
            &deept_telemetry::NoopProbe,
        );
        assert_eq!(calls, 0);
        assert_eq!(
            outcome,
            RadiusOutcome::TimedOut {
                lower_bound: 0.0,
                queries: 0
            }
        );
    }

    #[test]
    fn closure_timeout_reports_partial_lower_bound() {
        // The closure certifies radii up to 0.5 but gives out after a few
        // queries, mimicking certify_batch unwinding mid-search.
        let mut calls = 0;
        let outcome = max_certified_radius_deadline(
            |r| {
                if calls >= 4 {
                    return Err(DeadlineExceeded);
                }
                calls += 1;
                Ok(r <= 0.5)
            },
            0.01,
            40,
            Deadline::none(),
            &deept_telemetry::NoopProbe,
        );
        match outcome {
            RadiusOutcome::TimedOut {
                lower_bound,
                queries,
            } => {
                assert_eq!(queries, 4);
                // Queries: 0.0, 0.01, 0.02, 0.04 — all certified, so the
                // best certified radius seen is 0.04.
                assert!((lower_bound - 0.04).abs() < 1e-12, "{lower_bound}");
                assert_eq!(outcome.lower_bound(), lower_bound);
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn timed_out_lower_bound_is_sound() {
        // Whatever the interruption point, the reported bound never exceeds
        // the true threshold.
        for budget in 0..12 {
            let mut calls = 0;
            let outcome = max_certified_radius_deadline(
                |r| {
                    if calls >= budget {
                        return Err(DeadlineExceeded);
                    }
                    calls += 1;
                    Ok(r <= 0.37)
                },
                0.01,
                40,
                Deadline::none(),
                &deept_telemetry::NoopProbe,
            );
            assert!(outcome.lower_bound() <= 0.37 + 1e-12);
        }
    }
}
