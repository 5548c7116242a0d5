//! The [`Probe`] trait: the hook surface that abstract-propagation code is
//! instrumented against.
//!
//! Library crates (`deept-core`, `deept-verifier`) call probe methods at the
//! boundaries of every interesting stage — encoder layers, abstract
//! transformers, noise-symbol reductions, radius-search iterations — but
//! never depend on any collection machinery. The default implementation of
//! every method is empty and [`NoopProbe::enabled`] returns `false`, so an
//! uninstrumented run pays only a virtual call that does nothing and skips
//! all metric computation (instrumentation sites must guard anything
//! expensive behind [`Probe::enabled`]).

/// Identity of an instrumented stage of the verification pipeline.
///
/// Indices (layer number, radius-search iteration) are part of the identity
/// so traces can be grouped per layer; [`SpanKind::group`] strips them for
/// hotspot aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Whole-network abstract propagation.
    Propagate,
    /// One encoder layer (0-based).
    EncoderLayer(usize),
    /// Multi-head self-attention inside an encoder layer.
    Attention,
    /// One zonotope–zonotope dot product (scores or attention·values).
    DotProduct,
    /// The softmax abstract transformer over one score matrix.
    Softmax,
    /// One abstract layer normalization.
    LayerNorm,
    /// The feed-forward block (dense → ReLU → dense).
    Ffn,
    /// One `DecorrelateMin_k` noise-symbol reduction.
    Reduction,
    /// Pooling plus the classification head.
    Pooling,
    /// A whole binary search for the maximum certified radius.
    RadiusSearch,
    /// One certification query of the radius search (0-based).
    RadiusIter(usize),
    /// One branch-and-bound node of the abstraction-refinement ladder
    /// (`crates/refine`), numbered in exploration order.
    RefineNode(usize),
}

impl SpanKind {
    /// Aggregation key: the stage name without per-instance indices.
    pub fn group(&self) -> &'static str {
        match self {
            SpanKind::Propagate => "propagate",
            SpanKind::EncoderLayer(_) => "encoder_layer",
            SpanKind::Attention => "attention",
            SpanKind::DotProduct => "dot_product",
            SpanKind::Softmax => "softmax",
            SpanKind::LayerNorm => "layer_norm",
            SpanKind::Ffn => "ffn",
            SpanKind::Reduction => "reduction",
            SpanKind::Pooling => "pooling",
            SpanKind::RadiusSearch => "radius_search",
            SpanKind::RadiusIter(_) => "radius_iter",
            SpanKind::RefineNode(_) => "refine_node",
        }
    }

    /// Display label including the instance index, e.g. `encoder_layer[2]`.
    pub fn label(&self) -> String {
        match self {
            SpanKind::EncoderLayer(i) => format!("encoder_layer[{i}]"),
            SpanKind::RadiusIter(i) => format!("radius_iter[{i}]"),
            SpanKind::RefineNode(i) => format!("refine_node[{i}]"),
            other => other.group().to_string(),
        }
    }

    /// The instance index, if this kind carries one.
    pub fn index(&self) -> Option<usize> {
        match self {
            SpanKind::EncoderLayer(i) | SpanKind::RadiusIter(i) | SpanKind::RefineNode(i) => {
                Some(*i)
            }
            _ => None,
        }
    }
}

/// Precision snapshot of a zonotope, sampled at span boundaries.
///
/// Widths are concrete interval widths `u_k − l_k` per abstracted variable;
/// symbol counts separate the jointly ℓp-bounded `φ` symbols from the
/// independent ℓ∞ `ε` symbols.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ZonotopeStats {
    /// Logical rows of the variable matrix.
    pub rows: usize,
    /// Logical columns of the variable matrix.
    pub cols: usize,
    /// Number of ℓp-bounded `φ` noise symbols.
    pub num_phi: usize,
    /// Number of ℓ∞ `ε` noise symbols.
    pub num_eps: usize,
    /// Mean interval width over all variables.
    pub mean_width: f64,
    /// Maximum interval width over all variables.
    pub max_width: f64,
}

/// One noise-symbol reduction event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReduceEvent {
    /// ε symbols before the reduction.
    pub before: usize,
    /// ε symbols after the reduction.
    pub after: usize,
    /// Symbols folded away.
    pub dropped: usize,
}

/// Parallel-execution counters for one stage, reported by instrumentation
/// sites that wrap work running on the parallel worker pool.
///
/// Counters are deltas over the stage (not process totals). `busy_ns` sums
/// worker busy time across workers, so `busy_ns` compared against the
/// span's wall-clock duration shows the effective speedup of the stage;
/// `tasks / invocations` shows how finely work was actually split (1.0
/// means everything ran inline on the calling thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParallelStats {
    /// Configured worker count at the time the stage ran.
    pub workers: usize,
    /// Parallel-layer entry points reached inside the stage.
    pub invocations: u64,
    /// Chunk tasks executed inside the stage.
    pub tasks: u64,
    /// Worker busy time in nanoseconds, summed across workers.
    pub busy_ns: u64,
}

impl ParallelStats {
    /// Accumulates another stage's counters into this one (used when
    /// several reports land on the same span).
    pub fn merge(&mut self, other: &ParallelStats) {
        self.workers = self.workers.max(other.workers);
        self.invocations += other.invocations;
        self.tasks += other.tasks;
        self.busy_ns += other.busy_ns;
    }

    /// Whether any parallel-layer work was observed at all.
    pub fn is_empty(&self) -> bool {
        self.invocations == 0
    }
}

/// ε-generator storage counters for one stage, reported by instrumentation
/// sites when the block-structured store is in play.
///
/// Layout fields (`blocks`, `diag_cols`, `dense_cols`) describe the stage's
/// *output* store; event fields (`densifications`, `arena_hits`,
/// `arena_misses`) are deltas over the stage. `densifications` counts
/// Diag→Dense block conversions — the lazy materializations triggered by
/// row-mixing linear maps — and the arena counters measure scratch-buffer
/// reuse on the propagation path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EpsStorageStats {
    /// Stored blocks in the stage's output generator store.
    pub blocks: usize,
    /// Columns held in diagonal (one-nonzero) blocks.
    pub diag_cols: usize,
    /// Columns held in dense blocks.
    pub dense_cols: usize,
    /// Diag→Dense conversions during the stage.
    pub densifications: u64,
    /// Scratch-arena requests served from the pool during the stage.
    pub arena_hits: u64,
    /// Scratch-arena requests that fell back to fresh allocations.
    pub arena_misses: u64,
}

impl EpsStorageStats {
    /// Accumulates another report onto this one (used when several reports
    /// land on the same span): layout fields keep the latest report, event
    /// deltas add up.
    pub fn merge(&mut self, other: &EpsStorageStats) {
        self.blocks = other.blocks;
        self.diag_cols = other.diag_cols;
        self.dense_cols = other.dense_cols;
        self.densifications += other.densifications;
        self.arena_hits += other.arena_hits;
        self.arena_misses += other.arena_misses;
    }

    /// Fraction of arena requests served from the pool, if any were made.
    pub fn arena_hit_rate(&self) -> Option<f64> {
        let total = self.arena_hits + self.arena_misses;
        (total > 0).then(|| self.arena_hits as f64 / total as f64)
    }
}

/// One certification query inside a radius binary search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadiusStep {
    /// 0-based query index within the search.
    pub iteration: usize,
    /// Radius queried.
    pub radius: f64,
    /// Whether certification succeeded at this radius.
    pub certified: bool,
}

/// Observer of the verification pipeline. All methods default to no-ops.
///
/// Implementations must be cheap and must never influence the computation
/// they observe: an active probe is required to leave results bitwise
/// identical to an unprobed run (enforced by the equivalence tests).
pub trait Probe {
    /// Whether instrumentation sites should compute (possibly expensive)
    /// metrics such as [`ZonotopeStats`]. `false` for [`NoopProbe`].
    fn enabled(&self) -> bool {
        false
    }

    /// A stage begins.
    fn span_enter(&self, _kind: SpanKind) {}

    /// A stage ends. `stats` describes the stage's output zonotope when the
    /// probe is enabled and a zonotope is in scope; `symbols_created` counts
    /// fresh ε symbols appended by the stage.
    fn span_exit(&self, _kind: SpanKind, _stats: Option<ZonotopeStats>, _symbols_created: usize) {}

    /// A noise-symbol reduction ran (attributed to the current open span).
    fn reduction(&self, _event: ReduceEvent) {}

    /// Parallel-execution counters for work that just ran (attributed to
    /// the current open span; merged if the span receives several reports).
    fn parallel(&self, _stats: ParallelStats) {}

    /// ε-storage counters for work that just ran (attributed to the current
    /// open span; merged if the span receives several reports).
    fn eps_storage(&self, _stats: EpsStorageStats) {}

    /// A radius-search query finished.
    fn radius_step(&self, _step: RadiusStep) {}
}

/// The zero-cost default probe: records nothing, reports `enabled() = false`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopProbe;

impl Probe for NoopProbe {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_probe_is_disabled_and_inert() {
        let p = NoopProbe;
        assert!(!p.enabled());
        // All hooks accept calls without side effects or panics.
        p.span_enter(SpanKind::Propagate);
        p.span_exit(SpanKind::Propagate, Some(ZonotopeStats::default()), 3);
        p.reduction(ReduceEvent {
            before: 10,
            after: 4,
            dropped: 6,
        });
        p.parallel(ParallelStats {
            workers: 4,
            invocations: 2,
            tasks: 8,
            busy_ns: 1_000,
        });
        p.radius_step(RadiusStep {
            iteration: 0,
            radius: 0.1,
            certified: true,
        });
    }

    #[test]
    fn parallel_stats_merge_adds_counters_and_maxes_workers() {
        let mut a = ParallelStats {
            workers: 2,
            invocations: 1,
            tasks: 2,
            busy_ns: 100,
        };
        assert!(!a.is_empty());
        assert!(ParallelStats::default().is_empty());
        a.merge(&ParallelStats {
            workers: 8,
            invocations: 3,
            tasks: 12,
            busy_ns: 900,
        });
        assert_eq!(
            a,
            ParallelStats {
                workers: 8,
                invocations: 4,
                tasks: 14,
                busy_ns: 1_000,
            }
        );
    }

    #[test]
    fn span_labels_and_groups() {
        assert_eq!(SpanKind::EncoderLayer(2).label(), "encoder_layer[2]");
        assert_eq!(SpanKind::EncoderLayer(2).group(), "encoder_layer");
        assert_eq!(SpanKind::EncoderLayer(2).index(), Some(2));
        assert_eq!(SpanKind::DotProduct.label(), "dot_product");
        assert_eq!(SpanKind::DotProduct.index(), None);
        assert_eq!(SpanKind::RadiusIter(7).label(), "radius_iter[7]");
    }
}
