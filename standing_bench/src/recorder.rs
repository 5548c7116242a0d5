//! The benchmark's own span recorder.
//!
//! Spans carry a name, start, end, parent and the operation they belong to.
//! Three sources feed one recorder: the benchmark's own spans around its
//! calls into the program, the program's `Probe` hook surface (in-process
//! runs), and the per-request trace payloads a server returns for
//! `trace: true` requests. A span's self time is its duration minus the part
//! of its interval that its children cover.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use deept_telemetry::{
    EpsStorageStats, ParallelStats, Probe, ReduceEvent, SpanKind, ZonotopeStats,
};
use serde_json::Value;

#[derive(Debug, Clone)]
pub struct Span {
    pub op: u64,
    pub name: String,
    pub index: Option<usize>,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub num_eps: Option<usize>,
    pub max_width: Option<f64>,
    pub created: usize,
    pub dropped: usize,
    pub par: Option<ParallelStats>,
    pub eps: Option<EpsStorageStats>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    unbalanced: usize,
}

pub struct Recorder {
    t0: Instant,
    state: Mutex<State>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            t0: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }
}

impl Recorder {
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("recorder lock poisoned by a panicking span")
    }

    pub fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Sets the operation id stamped on spans opened from now on.
    pub fn set_op(&self, op: u64) {
        self.lock().op = op;
    }

    pub fn enter(&self, name: &str, index: Option<usize>) {
        let now = self.now();
        let mut st = self.lock();
        let parent = st.stack.last().copied();
        let op = st.op;
        st.spans.push(Span {
            op,
            name: name.to_string(),
            index,
            start: now,
            end: now,
            parent,
            num_eps: None,
            max_width: None,
            created: 0,
            dropped: 0,
            par: None,
            eps: None,
        });
        let id = st.spans.len() - 1;
        st.stack.push(id);
    }

    /// Closes the innermost open span. An exit that does not match it is
    /// counted as unbalanced and closes nothing.
    pub fn exit(
        &self,
        name: &str,
        index: Option<usize>,
        stats: Option<ZonotopeStats>,
        created: usize,
    ) {
        let now = self.now();
        let mut st = self.lock();
        let Some(&top) = st.stack.last() else {
            st.unbalanced += 1;
            return;
        };
        if st.spans[top].name != name || st.spans[top].index != index {
            st.unbalanced += 1;
            return;
        }
        st.stack.pop();
        let span = &mut st.spans[top];
        span.end = now;
        span.created = created;
        if let Some(s) = stats {
            span.num_eps = Some(s.num_eps);
            span.max_width = Some(s.max_width);
        }
    }

    /// Adds a closed span with explicit times (seconds since start).
    pub fn push(&self, op: u64, name: &str, start: f64, end: f64, parent: Option<usize>) -> usize {
        let mut st = self.lock();
        st.spans.push(Span {
            op,
            name: name.to_string(),
            index: None,
            start,
            end,
            parent,
            num_eps: None,
            max_width: None,
            created: 0,
            dropped: 0,
            par: None,
            eps: None,
        });
        st.spans.len() - 1
    }

    /// Grafts a server trace payload under `parent`. The payload carries
    /// durations and nesting but no clock, so its root spans are laid out
    /// back to back ending at `end` (the moment the response was read) and
    /// children back to back from their parent's start, in execution order.
    pub fn ingest_trace(&self, op: u64, parent: usize, trace: &Value, end: f64) {
        let Some(roots) = trace.get("spans").and_then(Value::as_array) else {
            return;
        };
        let total: f64 = roots.iter().map(span_duration).sum();
        let mut st = self.lock();
        let mut at = end - total;
        for r in roots {
            at = graft(&mut st.spans, op, Some(parent), r, at);
        }
        st.unbalanced += trace
            .get("unbalanced_exits")
            .and_then(Value::as_f64)
            .unwrap_or(0.0) as usize;
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Exits that did not match the innermost open span, plus spans left
    /// open, across every source.
    pub fn unbalanced(&self) -> usize {
        let st = self.lock();
        st.unbalanced + st.stack.len()
    }
}

fn span_duration(v: &Value) -> f64 {
    v.get("duration_s").and_then(Value::as_f64).unwrap_or(0.0)
}

fn graft(spans: &mut Vec<Span>, op: u64, parent: Option<usize>, v: &Value, start: f64) -> f64 {
    let dur = span_duration(v);
    let get_u = |obj: Option<&Value>, k: &str| {
        obj.and_then(|o| o.get(k))
            .and_then(Value::as_f64)
            .unwrap_or(0.0) as u64
    };
    let stats = v.get("stats");
    let par = v.get("parallel").map(|p| ParallelStats {
        workers: get_u(Some(p), "workers") as usize,
        invocations: get_u(Some(p), "invocations"),
        tasks: get_u(Some(p), "tasks"),
        busy_ns: get_u(Some(p), "busy_ns"),
    });
    let eps = v.get("eps_storage").map(|e| EpsStorageStats {
        densifications: get_u(Some(e), "densifications"),
        arena_hits: get_u(Some(e), "arena_hits"),
        arena_misses: get_u(Some(e), "arena_misses"),
        ..EpsStorageStats::default()
    });
    let dropped = v
        .get("reduce")
        .and_then(Value::as_array)
        .map(|rs| rs.iter().map(|r| get_u(Some(r), "dropped") as usize).sum())
        .unwrap_or(0);
    spans.push(Span {
        op,
        name: v
            .get("group")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string(),
        index: v.get("index").and_then(Value::as_f64).map(|i| i as usize),
        start,
        end: start + dur,
        parent,
        num_eps: stats.map(|_| get_u(stats, "num_eps") as usize),
        max_width: stats
            .and_then(|s| s.get("max_width"))
            .and_then(Value::as_f64),
        created: v
            .get("symbols_created")
            .and_then(Value::as_f64)
            .unwrap_or(0.0) as usize,
        dropped,
        par,
        eps,
    });
    let id = spans.len() - 1;
    let mut at = start;
    if let Some(children) = v.get("children").and_then(Value::as_array) {
        for c in children {
            at = graft(spans, op, Some(id), c, at);
        }
    }
    start + dur
}

impl Probe for Recorder {
    fn enabled(&self) -> bool {
        true
    }

    fn span_enter(&self, kind: SpanKind) {
        self.enter(kind.group(), kind.index());
    }

    fn span_exit(&self, kind: SpanKind, stats: Option<ZonotopeStats>, symbols_created: usize) {
        self.exit(kind.group(), kind.index(), stats, symbols_created);
    }

    fn reduction(&self, event: ReduceEvent) {
        let mut st = self.lock();
        if let Some(&top) = st.stack.last() {
            st.spans[top].dropped += event.dropped;
        }
    }

    fn parallel(&self, stats: ParallelStats) {
        let mut st = self.lock();
        if let Some(&top) = st.stack.last() {
            st.spans[top]
                .par
                .get_or_insert_with(ParallelStats::default)
                .merge(&stats);
        }
    }

    fn eps_storage(&self, stats: EpsStorageStats) {
        let mut st = self.lock();
        if let Some(&top) = st.stack.last() {
            st.spans[top]
                .eps
                .get_or_insert_with(EpsStorageStats::default)
                .merge(&stats);
        }
    }
}

/// Derived views over a closed set of spans.
pub struct Analysis {
    pub spans: Vec<Span>,
    pub self_s: Vec<f64>,
    children: Vec<Vec<usize>>,
}

impl Analysis {
    pub fn new(spans: Vec<Span>) -> Self {
        let mut children = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let self_s = (0..spans.len())
            .map(|i| {
                let mut iv: Vec<(f64, f64)> = children[i]
                    .iter()
                    .map(|&c| {
                        (
                            spans[c].start.max(spans[i].start),
                            spans[c].end.min(spans[i].end),
                        )
                    })
                    .filter(|(a, b)| b > a)
                    .collect();
                iv.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0.0;
                let mut cur: Option<(f64, f64)> = None;
                for (a, b) in iv {
                    match cur {
                        Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            cur = Some((a, b));
                        }
                        None => cur = Some((a, b)),
                    }
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
                (spans[i].duration() - covered).max(0.0)
            })
            .collect();
        Analysis {
            spans,
            self_s,
            children,
        }
    }

    /// Total self time of every span named `name`.
    pub fn self_time(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .zip(&self.self_s)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .sum()
    }

    pub fn named(&self, name: &str) -> impl Iterator<Item = &Span> + '_ {
        let name = name.to_string();
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Largest relative gap, over every root span, between the sum of self
    /// times in its tree and its own duration.
    pub fn worst_tree_gap(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_some() || s.duration() <= 0.0 {
                continue;
            }
            let mut sum = 0.0;
            let mut todo = vec![i];
            while let Some(j) = todo.pop() {
                sum += self.self_s[j];
                todo.extend(&self.children[j]);
            }
            worst = worst.max((sum - s.duration()).abs() / s.duration());
        }
        worst
    }

    /// Sums a per-span counter over the outermost spans that report it: a
    /// program span's pool and ε-storage counters already include its
    /// children's, so nested reports are not added again.
    pub fn outermost<T: Copy>(&self, get: impl Fn(&Span) -> Option<T>) -> Vec<T> {
        let mut out = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let Some(v) = get(s) else { continue };
            let mut p = self.spans[i].parent;
            let mut shadowed = false;
            while let Some(j) = p {
                if get(&self.spans[j]).is_some() {
                    shadowed = true;
                    break;
                }
                p = self.spans[j].parent;
            }
            if !shadowed {
                out.push(v);
            }
        }
        out
    }

    /// One row per `propagate` span: (members, members that reached
    /// pooling, seconds). A batched propagation runs several members
    /// through each layer; its members are the most layer steps any one
    /// layer saw (exact when every member starts at the same layer). A
    /// member stops without pooling when its bounds stop being finite.
    pub fn propagations(&self) -> Vec<(usize, usize, f64)> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "propagate")
            .map(|(i, s)| {
                let mut steps: BTreeMap<usize, usize> = BTreeMap::new();
                let mut pooled = 0;
                for &c in &self.children[i] {
                    match self.spans[c].name.as_str() {
                        "pooling" => pooled += 1,
                        "encoder_layer" => {
                            *steps.entry(self.spans[c].index.unwrap_or(0)).or_default() += 1
                        }
                        _ => {}
                    }
                }
                let members = steps
                    .values()
                    .copied()
                    .max()
                    .unwrap_or(0)
                    .max(pooled)
                    .max(1);
                (members, pooled, s.duration())
            })
            .collect()
    }

    /// Per-encoder-layer rows: total seconds, median live ε symbols and
    /// median finite max width of the layer's output.
    pub fn layers(&self) -> BTreeMap<usize, (f64, f64, f64)> {
        let mut acc: BTreeMap<usize, (f64, Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for s in self.named("encoder_layer") {
            let Some(i) = s.index else { continue };
            let e = acc.entry(i).or_default();
            e.0 += s.duration();
            if let Some(n) = s.num_eps {
                e.1.push(n as f64);
            }
            if let Some(w) = s.max_width.filter(|w| w.is_finite()) {
                e.2.push(w);
            }
        }
        acc.into_iter()
            .map(|(i, (t, n, w))| (i, (t, crate::stats::median(&n), crate::stats::median(&w))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_interval() {
        let rec = Recorder::default();
        let root = rec.push(1, "op", 0.0, 10.0, None);
        rec.push(1, "a", 1.0, 4.0, Some(root));
        rec.push(1, "b", 3.0, 6.0, Some(root));
        let an = Analysis::new(rec.spans());
        assert!((an.self_s[root] - 5.0).abs() < 1e-12);
        assert!(an.worst_tree_gap() < 0.2);
    }

    #[test]
    fn mismatched_exit_is_counted() {
        let rec = Recorder::default();
        rec.enter("x", None);
        rec.exit("y", None, None, 0);
        rec.exit("x", None, None, 0);
        assert_eq!(rec.unbalanced(), 1);
    }

    #[test]
    fn trace_payload_nests_under_parent() {
        let rec = Recorder::default();
        let root = rec.push(7, "op", 0.0, 1.0, None);
        let trace: Value = serde_json::from_str(
            r#"{"unbalanced_exits":0,"spans":[{"group":"propagate","duration_s":0.5,
            "children":[{"group":"encoder_layer","index":0,"duration_s":0.3,"stats":{"num_eps":5,"max_width":2.0}}]}]}"#,
        )
        .unwrap();
        rec.ingest_trace(7, root, &trace, 1.0);
        let an = Analysis::new(rec.spans());
        assert!((an.self_time("op") - 0.5).abs() < 1e-9);
        assert!((an.self_time("propagate") - 0.2).abs() < 1e-9);
        assert_eq!(an.layers()[&0].1, 5.0);
        assert!(an.worst_tree_gap() < 1e-9);
    }
}
