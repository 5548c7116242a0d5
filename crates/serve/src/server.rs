//! The certification server: worker pool, request handling, batch fusion
//! and the transport glue for the event-loop / stdio front ends.
//!
//! # Lifecycle
//!
//! [`Server::new`] spawns the worker pool immediately; requests can then
//! be fed from any transport. [`Server::serve_listener`] runs the
//! nonblocking [`event_loop`](crate::event_loop) — one I/O thread
//! multiplexing every connection over `poll(2)`, no per-connection
//! threads and no accept backoff sleep. [`Server::serve_stdio`] speaks
//! the same protocol over any `BufRead`/`Write` pair, which is how CI
//! exercises the server without a socket. A `shutdown` request (or stdio
//! EOF) stops intake; already queued and in-flight jobs drain to
//! completion before the workers exit, so no accepted request is ever
//! dropped.
//!
//! # Request flow
//!
//! `certify` requests are validated, then looked up in the result cache —
//! a hit answers inline, bit-for-bit identical to the run that populated
//! it, without consuming a queue slot. Misses are enqueued on the bounded
//! [`JobQueue`]; a full queue yields an `overloaded` error immediately
//! (backpressure, not unbounded buffering). Each request carries a
//! [`Deadline`] fixed at *arrival* time, so time spent waiting in the
//! queue counts against the budget; workers poll it cooperatively between
//! radius-search iterations, encoder layers and margin queries, and an
//! expired request yields a `timeout` error instead of hanging a worker.
//!
//! # Batch fusion
//!
//! Two mechanisms share work between concurrent identical or related
//! requests, both preserving bitwise-identical answers:
//!
//! - **Coalescing**: a certify request whose [`CacheKey`] matches a job
//!   already admitted but not yet finished attaches to that leader
//!   instead of queueing its own copy. The leader's successful response
//!   is shared verbatim (results are deterministic, so this is the exact
//!   response the waiter's own run would have produced). If the leader
//!   times out, waiters whose own deadlines still have budget are
//!   re-dispatched individually — the fused-deadline rule: shared work
//!   runs under the leader's deadline, stragglers finish on their own.
//! - **Lockstep batching**: a worker that dequeues a fusible eps query
//!   drains up to `fuse_max - 1` same-group siblings (same checkpoint
//!   fingerprint, tokens, position, norm and variant) from the queue and
//!   runs them through one
//!   [`certify_batch`](deept_verifier::deept::certify_batch) sweep — the
//!   same propagation loop a single query runs as a sweep of one —
//!   sharing the prediction, the embedding and the per-layer sweep while
//!   executing each member's abstract-transformer calls verbatim. The
//!   batched results are bitwise identical to serial runs, and each
//!   member keeps its own deadline.
//!
//! Every certification sweep (a single eps query, a fused batch, a
//! synonym sweep) goes through `certify_cached`: each member resumes from
//! its deepest cached layer snapshot, and the layers the sweep ran are
//! published back to the state cache.

use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use deept_core::{PNorm, Zonotope};
use deept_metrics::PhaseProfiler;
use deept_refine::{refine_certify_probed, RefineConfig, RefineOutcome};
use deept_telemetry::{NoopProbe, Probe, TraceCollector};
use deept_verifier::deadline::{Deadline, DeadlineExceeded};
use deept_verifier::deept::{certify_batch, DeepTConfig, Member, ZonotopeObserver};
use deept_verifier::network::{t1_region, t2_region, CertResult};
use deept_verifier::radius::{max_certified_radius_deadline, RadiusOutcome};
use deept_verifier::statehash::{config_hash, region_hash};
use deept_verifier::synonym;

use crate::cache::{CacheKey, LruCache, QueryKey};
use crate::event_loop::{self, ReplyHandle};
use crate::metrics::ServeMetrics;
use crate::protocol::{
    self, CertifyRequest, CertifyResult, ErrorCode, RadiusSearchSpec, Request, Response,
    StatusReport, SynonymSpec, Variant,
};
use crate::queue::{JobQueue, SubmitError};
use crate::registry::{ModelEntry, ModelRegistry};
use crate::state_cache::{StateCache, StateEntry, StateKey};
use crate::sync::lock;
use crate::synonyms::SynonymCatalog;
use std::collections::HashMap;
use std::path::PathBuf;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing certification jobs.
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are rejected with
    /// `overloaded`.
    pub queue_capacity: usize,
    /// Result-cache capacity in entries.
    pub cache_capacity: usize,
    /// ℓ∞ noise-symbol reduction budget passed to the verifier.
    pub reduction_budget: usize,
    /// Deadline applied to requests that do not carry their own
    /// `deadline_ms`; `None` means unlimited.
    pub default_deadline_ms: Option<u64>,
    /// Maximum members in one fused lockstep batch (and the switch for
    /// in-flight coalescing). Values `<= 1` disable fusion entirely:
    /// every request runs its own serial propagation.
    pub fuse_max: usize,
    /// Byte budget for the cross-request zonotope [`StateCache`]; zero
    /// disables snapshot capture and resume entirely.
    pub state_cache_bytes: usize,
    /// Directory of persisted synonym-set artifacts (as written by
    /// `deept synonyms`); `None` computes sets in-process and keeps them
    /// only in memory.
    pub synonym_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 16,
            cache_capacity: 256,
            reduction_budget: 2000,
            default_deadline_ms: None,
            fuse_max: 8,
            state_cache_bytes: 32 << 20,
            synonym_dir: None,
        }
    }
}

/// A validated certification query.
#[derive(Debug, Clone, Copy)]
enum Query {
    Eps(f64),
    RadiusSearch(RadiusSearchSpec),
    Synonyms(SynonymSpec),
}

/// Everything a worker needs to run one certification.
struct JobSpec {
    request_id: u64,
    model_id: String,
    tokens: Vec<usize>,
    position: usize,
    norm: PNorm,
    variant: Variant,
    query: Query,
    deadline: Deadline,
    want_trace: bool,
    key: CacheKey,
}

/// Where a finished job's response goes: a blocking caller parked on a
/// channel (stdio / in-process `handle`) or an event-loop completion slot.
pub(crate) enum ReplySink {
    Sync(mpsc::Sender<Response>),
    Async(ReplyHandle),
}

impl ReplySink {
    pub(crate) fn send(&self, response: Response) {
        match self {
            // The requester may have disconnected; dropping the reply is
            // fine in both transports.
            ReplySink::Sync(tx) => {
                let _ = tx.send(response);
            }
            ReplySink::Async(handle) => handle.send(response),
        }
    }
}

struct Job {
    entry: Arc<ModelEntry>,
    spec: JobSpec,
    /// When the request arrived; measures end-to-end latency at finish.
    arrival: Instant,
    /// When the job entered the queue; measures queue wait at dequeue.
    submitted: Instant,
    reply: ReplySink,
}

/// How `submit_certify` resolved a request.
enum Submitted {
    /// Answered without touching the queue (cache hit, validation error,
    /// overload, draining).
    Inline(Response),
    /// Admitted; the reply sink receives the response when a worker (or a
    /// fused leader) finishes.
    Queued,
}

struct Inner {
    cfg: ServeConfig,
    registry: ModelRegistry,
    cache: Mutex<LruCache<CacheKey, (usize, CertifyResult)>>,
    metrics: ServeMetrics,
    profiler: PhaseProfiler,
    next_request_id: AtomicU64,
    queue: JobQueue<Job>,
    /// Cache keys admitted but not yet finished, each with the waiters
    /// coalesced onto that leader. Leaders insert their key (empty vec)
    /// while holding this lock across the queue submit, so a waiter can
    /// never attach to a key whose submission failed.
    inflight: Mutex<HashMap<CacheKey, Vec<Job>>>,
    /// Cross-request per-layer zonotope snapshots for mid-stack resume.
    state_cache: Mutex<StateCache>,
    /// Memoized synonym sets per (fingerprint, k, dist).
    synonyms: SynonymCatalog,
    shutdown: AtomicBool,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Auxiliary service threads (metrics listener); finished handles are
    /// reaped on every push so the vector stays bounded.
    service_threads: Mutex<Vec<JoinHandle<()>>>,
}

/// A running certification server; clones share the same instance.
pub struct Server {
    inner: Arc<Inner>,
}

impl Clone for Server {
    fn clone(&self) -> Self {
        Server {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Server {
    /// Starts the worker pool and returns the server, ready to handle
    /// requests from any transport.
    ///
    /// Worker threads that fail to spawn degrade the pool instead of
    /// panicking: the server keeps running with the workers it got, and
    /// if none could be spawned the queue is closed so certify requests
    /// fail fast with `shutting_down` rather than hanging forever.
    pub fn new(cfg: ServeConfig) -> Server {
        let workers = cfg.workers.max(1);
        let queue_capacity = cfg.queue_capacity.max(1);
        let cache_capacity = cfg.cache_capacity;
        let state_cache_bytes = cfg.state_cache_bytes;
        let synonym_dir = cfg.synonym_dir.clone();
        let server = Server {
            inner: Arc::new(Inner {
                cfg,
                registry: ModelRegistry::new(),
                cache: Mutex::new(LruCache::new(cache_capacity)),
                metrics: ServeMetrics::new(),
                profiler: PhaseProfiler::new(),
                next_request_id: AtomicU64::new(1),
                queue: JobQueue::new(queue_capacity),
                inflight: Mutex::new(HashMap::new()),
                state_cache: Mutex::new(StateCache::new(state_cache_bytes)),
                synonyms: SynonymCatalog::new(synonym_dir),
                shutdown: AtomicBool::new(false),
                workers: Mutex::new(Vec::new()),
                service_threads: Mutex::new(Vec::new()),
            }),
        };
        let mut handles: Vec<JoinHandle<()>> = Vec::with_capacity(workers);
        for i in 0..workers {
            let inner = Arc::clone(&server.inner);
            match thread::Builder::new()
                .name(format!("deept-worker-{i}"))
                .spawn(move || worker_loop(&inner))
            {
                Ok(handle) => handles.push(handle),
                Err(e) => deept_telemetry::warn!(
                    "serve",
                    "could not spawn worker {i}: {e}; continuing with {} worker(s)",
                    handles.len()
                ),
            }
        }
        if handles.is_empty() {
            deept_telemetry::warn!(
                "serve",
                "no worker threads could be spawned; certify requests will be refused"
            );
            server.inner.queue.close();
        }
        *lock(&server.inner.workers) = handles;
        server
    }

    /// The model registry, for preloading models in-process.
    pub fn registry(&self) -> &ModelRegistry {
        &self.inner.registry
    }

    /// A point-in-time snapshot of the server counters (the same report a
    /// `status` request returns, read from the metrics registry).
    pub fn stats(&self) -> StatusReport {
        self.status_report()
    }

    /// This server's metrics registry merged with the process-global
    /// hot-path registry — the payload of `metrics` requests and
    /// `GET /metrics` scrapes.
    pub fn metrics_snapshot(&self) -> deept_metrics::RegistrySnapshot {
        self.inner.metrics.merged_snapshot()
    }

    /// The span-stream self-profiler shared by all workers (active whenever
    /// metrics are enabled and the request did not ask for a full trace).
    pub fn profiler(&self) -> &PhaseProfiler {
        &self.inner.profiler
    }

    /// Whether a shutdown has been requested.
    pub fn shutting_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Auxiliary service threads currently tracked (finished handles are
    /// reaped whenever a new one is pushed). Exposed for leak tests.
    pub fn tracked_thread_handles(&self) -> usize {
        lock(&self.inner.service_threads).len()
    }

    /// Handles one request synchronously. Certify misses block until a
    /// worker delivers the result; everything else answers inline.
    ///
    /// Assigns the request a server-unique `request_id`, echoed in the
    /// response (including error replies) and in `DEEPT_LOG` lines emitted
    /// while the request is in flight.
    pub fn handle(&self, req: Request) -> Response {
        let id = self.inner.next_request_id.fetch_add(1, Ordering::Relaxed);
        let arrival = Instant::now();
        self.inner.metrics.received.inc();
        let mut response = match req {
            Request::Status => Response::Status(self.status_report()),
            Request::Metrics => Response::Metrics {
                snapshot: self.metrics_snapshot(),
                request_id: None,
            },
            Request::LoadModel { model_id, path } => self.handle_load(&model_id, &path, id),
            Request::Shutdown => self.handle_shutdown(id),
            Request::Certify(c) => {
                let (tx, rx) = mpsc::channel();
                match self.submit_certify(c, id, arrival, ReplySink::Sync(tx)) {
                    Submitted::Inline(response) => response,
                    Submitted::Queued => match rx.recv() {
                        Ok(response) => response,
                        Err(_) => error(ErrorCode::Internal, "worker dropped the reply channel"),
                    },
                }
            }
        };
        response.set_request_id(id);
        response
    }

    /// Handles one request from the event loop. Returns `Some` when the
    /// response is ready inline; `None` when the request was queued, in
    /// which case the [`ReplyHandle`] delivers the response later.
    pub(crate) fn handle_async(&self, req: Request, reply: ReplyHandle) -> Option<Response> {
        let id = self.inner.next_request_id.fetch_add(1, Ordering::Relaxed);
        let arrival = Instant::now();
        self.inner.metrics.received.inc();
        let inline = match req {
            Request::Status => Response::Status(self.status_report()),
            Request::Metrics => Response::Metrics {
                snapshot: self.metrics_snapshot(),
                request_id: None,
            },
            Request::LoadModel { model_id, path } => self.handle_load(&model_id, &path, id),
            Request::Shutdown => self.handle_shutdown(id),
            Request::Certify(c) => {
                match self.submit_certify(c, id, arrival, ReplySink::Async(reply)) {
                    Submitted::Inline(response) => response,
                    Submitted::Queued => return None,
                }
            }
        };
        let mut response = inline;
        response.set_request_id(id);
        Some(response)
    }

    fn status_report(&self) -> StatusReport {
        let m = &self.inner.metrics;
        StatusReport {
            received: m.received.value(),
            completed: m.completed.value(),
            cache_hits: m.cache_hits.value(),
            cache_misses: m.cache_misses.value(),
            deadline_aborts: m.deadline_timeouts.value(),
            state_cache_hits: m.state_hits.value(),
            state_cache_misses: m.state_misses.value(),
            state_cache_evictions: m.state_evictions.value(),
            state_cache_resident_bytes: m.state_resident_bytes.value() as u64,
            state_cache_resumed_layers: m.state_resumed_layers.value(),
            overloaded: m.overloaded.value(),
            queue_depth: m.queue_depth.value() as u64,
            in_flight: m.in_flight.value() as u64,
            workers: self.inner.cfg.workers.max(1),
            queue_capacity: self.inner.queue.capacity(),
            models: self.inner.registry.list(),
            uptime_seconds: m.started.elapsed().as_secs_f64(),
            request_id: None,
        }
    }

    fn handle_load(&self, model_id: &str, path: &str, request_id: u64) -> Response {
        if self.shutting_down() {
            return error(ErrorCode::ShuttingDown, "server is draining");
        }
        match self.inner.registry.load_from_path(model_id, path) {
            Ok(fingerprint) => {
                deept_telemetry::info!(
                    "serve",
                    "req-{request_id}: loaded model {model_id:?} from {path} \
                     (fingerprint {fingerprint})"
                );
                Response::ModelLoaded {
                    model_id: model_id.to_string(),
                    fingerprint,
                    request_id: None,
                }
            }
            Err(e) => error(
                ErrorCode::BadRequest,
                &format!("could not load checkpoint {path}: {e}"),
            ),
        }
    }

    fn handle_shutdown(&self, request_id: u64) -> Response {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Refuse new submissions but let queued jobs drain to the workers.
        self.inner.queue.close();
        let m = &self.inner.metrics;
        let queued = m.queue_depth.value() as u64;
        let in_flight = m.in_flight.value() as u64;
        deept_telemetry::info!(
            "serve",
            "req-{request_id}: shutdown requested; draining {queued} queued + \
             {in_flight} in-flight jobs"
        );
        Response::ShuttingDown {
            pending: queued + in_flight,
            request_id: None,
        }
    }

    /// How many waiters may coalesce onto one in-flight leader before
    /// further identical requests bounce with `overloaded`. Scales with
    /// the queue so coalesced demand stays bounded like queued demand.
    fn waiter_cap(&self) -> usize {
        self.inner.queue.capacity().saturating_mul(4).max(16)
    }

    /// Validates a certify request and resolves it inline (cache hit or
    /// error) or admits it: onto an identical in-flight leader when
    /// fusion is enabled, otherwise onto the job queue.
    fn submit_certify(
        &self,
        req: CertifyRequest,
        request_id: u64,
        arrival: Instant,
        reply: ReplySink,
    ) -> Submitted {
        if self.shutting_down() {
            return Submitted::Inline(error(ErrorCode::ShuttingDown, "server is draining"));
        }
        let Some(norm) = PNorm::parse(&req.norm) else {
            return Submitted::Inline(error(
                ErrorCode::BadRequest,
                &format!("unknown norm {:?} (expected 1, 2 or inf)", req.norm),
            ));
        };
        let Some(variant) = Variant::parse(&req.variant) else {
            return Submitted::Inline(error(
                ErrorCode::BadRequest,
                &format!(
                    "unknown variant {:?} (expected fast, precise, combined, refine or synonyms)",
                    req.variant
                ),
            ));
        };
        // A T2 synonym sweep perturbs every position inside per-position
        // ℓ∞ boxes spanning the substitution embeddings; the request's
        // `norm` field does not apply, so the key is normalized to ℓ∞ and
        // `eps` / `radius_search` are rejected.
        let norm = if variant == Variant::Synonyms {
            PNorm::Linf
        } else {
            norm
        };
        let query = if variant == Variant::Synonyms {
            if req.eps.is_some() || req.radius_search.is_some() {
                return Submitted::Inline(error(
                    ErrorCode::BadRequest,
                    "variant \"synonyms\" takes neither eps nor radius_search",
                ));
            }
            let spec = req.synonyms.unwrap_or_default();
            if spec.k == 0 {
                return Submitted::Inline(error(
                    ErrorCode::BadRequest,
                    "synonyms.k must be at least 1",
                ));
            }
            if !(spec.dist.is_finite() && spec.dist > 0.0) {
                return Submitted::Inline(error(
                    ErrorCode::BadRequest,
                    "synonyms.dist must be finite and positive",
                ));
            }
            Query::Synonyms(spec)
        } else if req.synonyms.is_some() {
            return Submitted::Inline(error(
                ErrorCode::BadRequest,
                "a synonyms spec requires variant \"synonyms\"",
            ));
        } else {
            match (req.eps, req.radius_search) {
                (Some(eps), None) => {
                    if !(eps.is_finite() && eps >= 0.0) {
                        return Submitted::Inline(error(
                            ErrorCode::BadRequest,
                            "eps must be finite and non-negative",
                        ));
                    }
                    Query::Eps(eps)
                }
                (None, Some(spec)) => {
                    if !(spec.start.is_finite() && spec.start > 0.0) {
                        return Submitted::Inline(error(
                            ErrorCode::BadRequest,
                            "radius_search.start must be finite and positive",
                        ));
                    }
                    Query::RadiusSearch(spec)
                }
                _ => {
                    return Submitted::Inline(error(
                        ErrorCode::BadRequest,
                        "specify exactly one of eps and radius_search",
                    ));
                }
            }
        };
        if variant == Variant::Refine && matches!(query, Query::RadiusSearch(_)) {
            return Submitted::Inline(error(
                ErrorCode::BadRequest,
                "variant \"refine\" supports eps queries only",
            ));
        }
        let Some(entry) = self.inner.registry.get(&req.model_id) else {
            return Submitted::Inline(error(
                ErrorCode::UnknownModel,
                &format!("no model {:?} in the registry", req.model_id),
            ));
        };
        let config = &entry.model.config;
        if req.tokens.is_empty() || req.tokens.len() > config.max_len {
            return Submitted::Inline(error(
                ErrorCode::BadRequest,
                &format!(
                    "token count must be in 1..={} (got {})",
                    config.max_len,
                    req.tokens.len()
                ),
            ));
        }
        if let Some(&bad) = req.tokens.iter().find(|&&t| t >= config.vocab_size) {
            return Submitted::Inline(error(
                ErrorCode::BadRequest,
                &format!(
                    "token id {bad} outside vocabulary of size {}",
                    config.vocab_size
                ),
            ));
        }
        if req.position >= req.tokens.len() {
            return Submitted::Inline(error(
                ErrorCode::BadRequest,
                &format!(
                    "position {} outside token sequence of length {}",
                    req.position,
                    req.tokens.len()
                ),
            ));
        }
        // The budget starts at arrival: queue wait counts against it.
        let deadline = Deadline::after_ms(req.deadline_ms.or(self.inner.cfg.default_deadline_ms));
        let key = CacheKey {
            fingerprint: entry.fingerprint.clone(),
            tokens: req.tokens.clone(),
            position: req.position,
            norm,
            variant,
            query: match query {
                Query::Eps(eps) => QueryKey::Eps(eps.to_bits()),
                Query::RadiusSearch(spec) => {
                    QueryKey::RadiusSearch(spec.start.to_bits(), spec.iters)
                }
                Query::Synonyms(spec) => QueryKey::Synonyms(spec.dist.to_bits(), spec.k),
            },
        };
        let m = &self.inner.metrics;
        m.model_requests(&req.model_id).inc();
        let lookup_started = Instant::now();
        let cached = lock(&self.inner.cache).get(&key);
        m.cache_lookup
            .observe(lookup_started.elapsed().as_secs_f64());
        if let Some((label, result)) = cached {
            m.cache_hits.inc();
            m.total.observe(arrival.elapsed().as_secs_f64());
            deept_telemetry::debug!("serve", "req-{request_id}: cache hit");
            return Submitted::Inline(Response::Certify {
                model_id: req.model_id,
                fingerprint: entry.fingerprint.clone(),
                label,
                result,
                cached: true,
                trace: None,
                request_id: None,
            });
        }
        let job = Job {
            entry,
            spec: JobSpec {
                request_id,
                model_id: req.model_id,
                tokens: req.tokens,
                position: req.position,
                norm,
                variant,
                query,
                deadline,
                want_trace: req.trace,
                key: key.clone(),
            },
            arrival,
            submitted: Instant::now(),
            reply,
        };
        // Trace requests never coalesce (their response is unique to
        // them) and never lead a coalescing group.
        let coalescable = self.inner.cfg.fuse_max > 1 && !job.spec.want_trace;
        if coalescable {
            let mut inflight = lock(&self.inner.inflight);
            if let Some(waiters) = inflight.get_mut(&key) {
                if waiters.len() >= self.waiter_cap() {
                    m.overloaded.inc();
                    return Submitted::Inline(error(
                        ErrorCode::Overloaded,
                        "too many requests coalesced on one in-flight computation; retry later",
                    ));
                }
                m.cache_misses.inc();
                m.coalesced.inc();
                deept_telemetry::debug!(
                    "serve",
                    "req-{request_id}: coalesced onto in-flight identical computation"
                );
                waiters.push(job);
                return Submitted::Queued;
            }
            // Become the leader. The inflight lock is held across the
            // submit so no waiter can attach before admission is decided.
            // The depth gauge is bumped *before* the submit: the worker's
            // decrement at dequeue must never run first, or its
            // saturating `sub` pins the gauge one too high forever.
            m.queue_depth.add(1.0);
            match self.inner.queue.submit(job) {
                Ok(()) => {
                    inflight.insert(key, Vec::new());
                    m.cache_misses.inc();
                    deept_telemetry::debug!("serve", "req-{request_id}: queued (fusion leader)");
                    Submitted::Queued
                }
                Err(e) => {
                    m.queue_depth.sub(1.0);
                    Submitted::Inline(self.submit_refusal(e))
                }
            }
        } else {
            m.queue_depth.add(1.0);
            match self.inner.queue.submit(job) {
                Ok(()) => {
                    m.cache_misses.inc();
                    deept_telemetry::debug!("serve", "req-{request_id}: queued");
                    Submitted::Queued
                }
                Err(e) => {
                    m.queue_depth.sub(1.0);
                    Submitted::Inline(self.submit_refusal(e))
                }
            }
        }
    }

    fn submit_refusal(&self, e: SubmitError) -> Response {
        match e {
            SubmitError::Overloaded => {
                self.inner.metrics.overloaded.inc();
                error(
                    ErrorCode::Overloaded,
                    &format!(
                        "job queue is full ({} waiting); retry later",
                        self.inner.queue.capacity()
                    ),
                )
            }
            SubmitError::Closed => error(ErrorCode::ShuttingDown, "server is draining"),
        }
    }

    /// Binds `addr` and serves until a `shutdown` request arrives, then
    /// drains and returns.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if binding or polling fails.
    pub fn serve_tcp(&self, addr: &str) -> io::Result<()> {
        self.serve_listener(TcpListener::bind(addr)?)
    }

    /// Serves an already-bound listener (useful with an ephemeral port)
    /// until a `shutdown` request arrives, then drains and returns.
    ///
    /// All connections are multiplexed on the calling thread by the
    /// `poll(2)` event loop — no thread per connection, bounded buffers
    /// per connection, backpressure by suspending reads.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if polling fails; the server is
    /// drained either way.
    pub fn serve_listener(&self, listener: TcpListener) -> io::Result<()> {
        let result = event_loop::run(self, listener);
        self.drain();
        result
    }

    /// Speaks the protocol over a `BufRead`/`Write` pair: one request per
    /// line, one response per line. EOF or a `shutdown` request ends the
    /// session; either way queued jobs drain before this returns.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if reading or writing fails.
    pub fn serve_stdio(&self, reader: impl BufRead, mut writer: impl Write) -> io::Result<()> {
        for line in reader.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let response = match protocol::parse_request(&line) {
                Ok(req) => self.handle(req),
                Err(e) => error(ErrorCode::BadRequest, &format!("malformed request: {e}")),
            };
            let is_shutdown = matches!(response, Response::ShuttingDown { .. });
            protocol::write_line(&mut writer, &response)?;
            if is_shutdown {
                break;
            }
        }
        self.drain();
        Ok(())
    }

    /// Stops intake, drains queued and in-flight jobs, joins workers and
    /// service threads, and logs the final counter summary. Idempotent.
    pub fn drain(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.queue.close();
        let workers = std::mem::take(&mut *lock(&self.inner.workers));
        for handle in workers {
            let _ = handle.join();
        }
        let service = std::mem::take(&mut *lock(&self.inner.service_threads));
        for handle in service {
            let _ = handle.join();
        }
        deept_telemetry::info!("serve", "{}", self.stats().render_summary());
    }

    /// Tracks a service thread handle, reaping finished handles first so
    /// the vector cannot grow without bound.
    fn push_service_handle(&self, handle: JoinHandle<()>) {
        let mut handles = lock(&self.inner.service_threads);
        handles.retain(|h| !h.is_finished());
        handles.push(handle);
    }

    /// Binds a plain-TCP HTTP/1.0 scrape listener on `addr` and serves it
    /// from a background thread until the server drains. Returns the bound
    /// address (useful with an ephemeral port such as `127.0.0.1:0`).
    ///
    /// `GET /metrics` answers with the merged registry snapshot in
    /// Prometheus text exposition format 0.0.4; `GET /profile` answers with
    /// the self-profiler's collapsed-stack text (flamegraph-compatible).
    ///
    /// The listener thread blocks in `poll(2)` between connections (no
    /// busy sleep), logs transient accept failures at warn level and only
    /// exits on fatal ones.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if binding or spawning the
    /// listener thread fails (no panic on spawn failure).
    pub fn spawn_metrics_listener(&self, addr: &str) -> io::Result<SocketAddr> {
        let server = self.clone();
        let source = ScrapeSource {
            done: Box::new({
                let server = self.clone();
                move || server.shutting_down()
            }),
            metrics: Box::new({
                let server = server.clone();
                move || server.metrics_snapshot().to_prometheus()
            }),
            profile: Box::new(move || server.profiler().collapsed()),
        };
        let (bound, handle) = spawn_scrape_listener(addr, source)?;
        self.push_service_handle(handle);
        Ok(bound)
    }
}

impl event_loop::Frontend for Server {
    fn dispatch(&self, req: Request, reply: ReplyHandle) -> Option<Response> {
        self.handle_async(req, reply)
    }

    fn shutting_down(&self) -> bool {
        Server::shutting_down(self)
    }
}

/// What an HTTP scrape listener exposes: a shutdown signal plus the two
/// page renderers. Shared by the server and the shard router.
pub(crate) struct ScrapeSource {
    pub done: Box<dyn Fn() -> bool + Send>,
    pub metrics: Box<dyn Fn() -> String + Send>,
    pub profile: Box<dyn Fn() -> String + Send>,
}

/// Whether an accept failure is transient (log and keep serving) rather
/// than fatal (log and stop). Connection-level failures and descriptor
/// exhaustion recover; anything else likely means the listener is gone.
fn is_transient_accept_error(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::ConnectionAborted | ErrorKind::ConnectionReset | ErrorKind::TimedOut
    ) || matches!(e.raw_os_error(), Some(code) if code == 23 || code == 24) // ENFILE / EMFILE
}

/// Binds `addr` and serves HTTP/1.0 scrapes from a named background
/// thread until `source.done()` reports true.
pub(crate) fn spawn_scrape_listener(
    addr: &str,
    source: ScrapeSource,
) -> io::Result<(SocketAddr, JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let bound = listener.local_addr()?;
    deept_telemetry::info!("serve", "metrics listener on http://{bound}/metrics");
    let handle = thread::Builder::new()
        .name("deept-metrics".to_string())
        .spawn(move || {
            while !(source.done)() {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        // Scrapes are cheap (snapshot + render); handle
                        // them inline so drain has one thread to join.
                        let _ = serve_scrape(&source, stream);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        // Park in poll(2) until a connection is pending;
                        // the timeout bounds shutdown latency.
                        if let Err(e) = event_loop::wait_acceptable(&listener, 250) {
                            deept_telemetry::warn!(
                                "serve",
                                "metrics listener poll failed: {e}; stopping scrape endpoint"
                            );
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) if is_transient_accept_error(&e) => {
                        deept_telemetry::warn!("serve", "metrics listener accept failed: {e}");
                    }
                    Err(e) => {
                        deept_telemetry::warn!(
                            "serve",
                            "metrics listener accept failed fatally: {e}; \
                             stopping scrape endpoint"
                        );
                        break;
                    }
                }
            }
        })?;
    Ok((bound, handle))
}

pub(crate) fn error(code: ErrorCode, message: &str) -> Response {
    Response::Error {
        code,
        message: message.to_string(),
        request_id: None,
    }
}

fn verifier_config(variant: Variant, reduction_budget: usize) -> DeepTConfig {
    match variant {
        Variant::Fast => DeepTConfig::fast(reduction_budget),
        Variant::Precise => DeepTConfig::precise(reduction_budget),
        Variant::Combined => DeepTConfig::combined(reduction_budget),
        // A synonym sweep batches many boxes through the cheap pass (the
        // same configuration `deept synonyms` uses offline).
        Variant::Synonyms => DeepTConfig::fast(reduction_budget),
        // The refinement ladder manages its own per-level budgets and
        // never goes through a single flat config.
        Variant::Refine => unreachable!("refine jobs bypass the flat verifier config"),
    }
}

/// Collects every post-layer state of every sweep member so the worker
/// can publish them to the [`StateCache`] afterwards.
struct SnapshotCollector {
    states: Vec<Vec<(usize, Zonotope)>>,
}

impl ZonotopeObserver for SnapshotCollector {
    fn layer_output(&mut self, member: usize, layer: usize, z: &Zonotope) {
        self.states[member].push((layer, z.clone()));
    }
}

/// `(region_hash, config_hash)` of one query, computed once and shared by
/// the probe and the publish steps.
type StateHashes = (u64, u64);

/// The deepest usable snapshot for `region`, as `(resume_layer, entry)`
/// where `resume_layer` is the first encoder layer still to run. Probes
/// deepest-first; a hit is witness-verified inside the cache (exact
/// `PartialEq` on region and config — a hash collision is a miss, never a
/// wrong resume). Returns `None` on a cold region.
fn deepest_snapshot(
    inner: &Inner,
    entry: &ModelEntry,
    norm: PNorm,
    region: &Zonotope,
    cfg: &DeepTConfig,
    hashes: StateHashes,
) -> Option<(usize, Arc<StateEntry>)> {
    let n_layers = entry.net.layers.len();
    if inner.cfg.state_cache_bytes == 0 || n_layers == 0 {
        return None;
    }
    let (r_hash, c_hash) = hashes;
    let mut key = StateKey {
        fingerprint: entry.fingerprint.clone(),
        norm,
        cfg_hash: c_hash,
        region_hash: r_hash,
        layer: 0,
    };
    let mut cache = lock(&inner.state_cache);
    for layer in (0..n_layers).rev() {
        key.layer = layer;
        if let Some(hit) = cache.get(&key, region, cfg) {
            return Some((layer + 1, hit));
        }
    }
    None
}

/// Publishes the layer snapshots of a finished (or deadline-cut) run.
/// Publishing on timeout is deliberate: the completed prefix is still
/// valid, which is exactly what makes the retry of a timed-out request
/// cheap. Non-finite states certify nothing downstream and are skipped.
fn publish_snapshots(
    inner: &Inner,
    entry: &ModelEntry,
    norm: PNorm,
    region: &Zonotope,
    cfg: &DeepTConfig,
    hashes: StateHashes,
    states: Vec<(usize, Zonotope)>,
) {
    if inner.cfg.state_cache_bytes == 0 || states.is_empty() {
        return;
    }
    let (r_hash, c_hash) = hashes;
    let mut cache = lock(&inner.state_cache);
    let evictions_before = cache.evictions();
    for (layer, state) in states {
        if state.has_non_finite() {
            continue;
        }
        let key = StateKey {
            fingerprint: entry.fingerprint.clone(),
            norm,
            cfg_hash: c_hash,
            region_hash: r_hash,
            layer,
        };
        cache.insert(
            key,
            Arc::new(StateEntry {
                region: region.clone(),
                cfg: *cfg,
                state,
            }),
        );
    }
    let m = &inner.metrics;
    m.state_evictions.add(cache.evictions() - evictions_before);
    m.state_resident_bytes.set(cache.resident_bytes() as f64);
}

/// [`certify_batch`] with cross-request state-cache resume: each query
/// `(region, deadline)` joins the sweep at its deepest witness-verified
/// snapshot (bitwise identical to the cold run — the sweep replays the
/// remaining layers on the exact state the cold run produced), and every
/// layer the sweep executed is published back, even when a deadline
/// expires mid-stack. Returns each member's outcome plus the layer it
/// resumed from (`0` = cold start).
fn certify_cached(
    inner: &Inner,
    entry: &ModelEntry,
    norm: PNorm,
    queries: &[(Zonotope, Deadline)],
    label: usize,
    cfg: &DeepTConfig,
    probe: &dyn Probe,
) -> Vec<(Result<CertResult, DeadlineExceeded>, usize)> {
    let m = &inner.metrics;
    let use_cache = inner.cfg.state_cache_bytes > 0;
    let mut hashes: Vec<StateHashes> = Vec::new();
    let mut hits: Vec<Option<(usize, Arc<StateEntry>)>> = vec![None; queries.len()];
    if use_cache {
        let c_hash = config_hash(cfg);
        for ((region, _), hit) in queries.iter().zip(&mut hits) {
            let h = (region_hash(region), c_hash);
            hashes.push(h);
            *hit = deepest_snapshot(inner, entry, norm, region, cfg, h);
            match hit {
                Some((start, _)) => {
                    m.state_hits.inc();
                    m.state_resumed_layers.add(*start as u64);
                }
                None => m.state_misses.inc(),
            }
        }
    }
    let members: Vec<Member<'_>> = queries
        .iter()
        .zip(&hits)
        .map(|((region, deadline), hit)| match hit {
            Some((start, cached)) => Member {
                start_layer: *start,
                deadline: *deadline,
                ..Member::new(&cached.state)
            },
            None => Member {
                deadline: *deadline,
                ..Member::new(region)
            },
        })
        .collect();
    let mut collector = SnapshotCollector {
        states: vec![Vec::new(); queries.len()],
    };
    let observer: &mut dyn ZonotopeObserver = if use_cache { &mut collector } else { &mut () };
    let outcomes = certify_batch(&entry.net, &members, label, cfg, probe, observer);
    if use_cache {
        for (((region, _), h), states) in queries.iter().zip(hashes).zip(collector.states) {
            publish_snapshots(inner, entry, norm, region, cfg, h, states);
        }
    }
    let starts = members.iter().map(|member| member.start_layer);
    outcomes.into_iter().zip(starts).collect()
}

/// Whether a job can join a lockstep batch at all: plain eps queries
/// without tracing. Refine runs its own ladder and radius searches have
/// data-dependent iteration counts, so both stay serial.
fn is_fusible(job: &Job) -> bool {
    matches!(job.spec.query, Query::Eps(_))
        && job.spec.variant != Variant::Refine
        && !job.spec.want_trace
}

/// Whether `candidate` shares `seed`'s fusion group: same checkpoint,
/// tokens, position, norm and variant (eps may differ — the batch sweep
/// keeps every member's own input region).
fn same_fusion_group(seed: &Job, candidate: &Job) -> bool {
    is_fusible(candidate)
        && candidate.entry.fingerprint == seed.entry.fingerprint
        && candidate.spec.tokens == seed.spec.tokens
        && candidate.spec.position == seed.spec.position
        && candidate.spec.norm == seed.spec.norm
        && candidate.spec.variant == seed.spec.variant
}

fn worker_loop(inner: &Inner) {
    while let Some(job) = inner.queue.next() {
        let m = &inner.metrics;
        m.queue_depth.sub(1.0);
        let mut batch = vec![job];
        if inner.cfg.fuse_max > 1 && is_fusible(&batch[0]) {
            let siblings = inner
                .queue
                .take_matching(inner.cfg.fuse_max - 1, |j| same_fusion_group(&batch[0], j));
            m.queue_depth.sub(siblings.len() as f64);
            batch.extend(siblings);
        }
        for job in &batch {
            m.queue_wait.observe(job.submitted.elapsed().as_secs_f64());
        }
        m.in_flight.add(batch.len() as f64);
        let started = Instant::now();
        if batch.len() == 1 {
            let job = batch.pop().expect("batch has exactly one member");
            let response = run_job(inner, &job.entry, &job.spec);
            m.propagation.observe(started.elapsed().as_secs_f64());
            m.in_flight.sub(1.0);
            m.completed.inc();
            deept_telemetry::debug!(
                "serve",
                "req-{}: completed in {:.1} ms",
                job.spec.request_id,
                started.elapsed().as_secs_f64() * 1e3
            );
            finish_job(inner, job, response);
        } else {
            run_batch(inner, batch, started);
        }
    }
}

/// Runs a fused batch of same-group eps queries through the lockstep
/// batched propagation: one prediction, one embedding, one layer sweep —
/// per-member results bitwise identical to serial runs, each member on
/// its own deadline.
fn run_batch(inner: &Inner, batch: Vec<Job>, started: Instant) {
    let m = &inner.metrics;
    m.fused_batches.inc();
    m.fused_members.add(batch.len() as u64);
    let entry = Arc::clone(&batch[0].entry);
    let spec0 = &batch[0].spec;
    // Same fingerprint + tokens across the group, so prediction and
    // embedding are shared; `predict`/`embed` are deterministic, making
    // this bitwise identical to per-member calls.
    let label = entry.model.predict(&spec0.tokens);
    let emb = entry.model.embed(&spec0.tokens);
    let probe: &dyn Probe = if deept_metrics::enabled() {
        &inner.profiler
    } else {
        &NoopProbe
    };
    let cfg = verifier_config(spec0.variant, inner.cfg.reduction_budget);
    let queries: Vec<(Zonotope, Deadline)> = batch
        .iter()
        .map(|job| {
            let Query::Eps(eps) = job.spec.query else {
                unreachable!("fusible jobs are eps queries")
            };
            let region = t1_region(&emb, job.spec.position, eps, job.spec.norm);
            (region, job.spec.deadline)
        })
        .collect();
    let outcomes = certify_cached(inner, &entry, spec0.norm, &queries, label, &cfg, probe);
    let elapsed = started.elapsed().as_secs_f64();
    deept_telemetry::debug!(
        "serve",
        "fused batch of {} completed in {:.1} ms",
        outcomes.len(),
        elapsed * 1e3
    );
    for (job, (outcome, _)) in batch.into_iter().zip(outcomes) {
        // Each member experienced the whole batch wall time.
        m.propagation.observe(elapsed);
        m.in_flight.sub(1.0);
        m.completed.inc();
        let response = match outcome {
            Ok(res) => {
                let result = CertifyResult::Fixed {
                    certified: res.certified,
                    margins: res.margins,
                };
                lock(&inner.cache).insert(job.spec.key.clone(), (label, result.clone()));
                Response::Certify {
                    model_id: job.spec.model_id.clone(),
                    fingerprint: entry.fingerprint.clone(),
                    label,
                    result,
                    cached: false,
                    trace: None,
                    request_id: Some(job.spec.request_id),
                }
            }
            Err(DeadlineExceeded) => {
                m.deadline_timeouts.inc();
                let mut resp = error(ErrorCode::Timeout, "certification deadline exceeded");
                resp.set_request_id(job.spec.request_id);
                resp
            }
        };
        finish_job(inner, job, response);
    }
}

/// Delivers a finished job's response and resolves any waiters coalesced
/// onto its cache key.
///
/// A successful leader shares its response with every waiter (results
/// are deterministic, so the shared payload is exactly what the waiter's
/// own run would have produced; only the `request_id` is restamped and
/// any trace stripped). On a failed leader the fused-deadline rule
/// applies: waiters whose own deadline already expired get a timeout,
/// the rest are re-dispatched individually.
fn finish_job(inner: &Inner, job: Job, response: Response) {
    let m = &inner.metrics;
    let waiters = if inner.cfg.fuse_max > 1 && !job.spec.want_trace {
        lock(&inner.inflight)
            .remove(&job.spec.key)
            .unwrap_or_default()
    } else {
        Vec::new()
    };
    let succeeded = !matches!(response, Response::Error { .. });
    for waiter in waiters {
        if succeeded {
            let mut shared = response.clone();
            if let Response::Certify { trace, .. } = &mut shared {
                *trace = None;
            }
            shared.set_request_id(waiter.spec.request_id);
            m.completed.inc();
            m.total.observe(waiter.arrival.elapsed().as_secs_f64());
            waiter.reply.send(shared);
        } else if waiter.spec.deadline.check().is_err() {
            m.deadline_timeouts.inc();
            m.completed.inc();
            m.total.observe(waiter.arrival.elapsed().as_secs_f64());
            let mut resp = error(
                ErrorCode::Timeout,
                "certification deadline exceeded while coalesced",
            );
            resp.set_request_id(waiter.spec.request_id);
            waiter.reply.send(resp);
        } else {
            // Fused-deadline rule: the shared computation ran under the
            // leader's deadline; this straggler still has budget, so it
            // finishes individually.
            m.fused_requeued.inc();
            m.queue_depth.add(1.0);
            deept_telemetry::debug!(
                "serve",
                "req-{}: re-dispatched individually after fused leader failure",
                waiter.spec.request_id
            );
            inner.queue.requeue(waiter);
        }
    }
    m.total.observe(job.arrival.elapsed().as_secs_f64());
    job.reply.send(response);
}

fn run_job(inner: &Inner, entry: &ModelEntry, spec: &JobSpec) -> Response {
    let label = entry.model.predict(&spec.tokens);
    let emb = entry.model.embed(&spec.tokens);
    let collector = spec.want_trace.then(TraceCollector::new);
    // Trace requests get the full collector; otherwise the span stream
    // feeds the sampling self-profiler, unless metrics are disabled
    // entirely (`DEEPT_METRICS=off`), which restores the zero-probe path.
    let probe: &dyn Probe = match &collector {
        Some(c) => c,
        None if deept_metrics::enabled() => &inner.profiler,
        None => &NoopProbe,
    };
    // First encoder layer this run actually executed (0 = cold start);
    // stamped into the trace meta as `resumed_from_layer`.
    let mut resumed_from = 0usize;
    let outcome: Result<CertifyResult, String> = if spec.variant == Variant::Refine {
        // `submit_certify` rejects refine radius searches up front.
        let Query::Eps(eps) = spec.query else {
            unreachable!("refine radius searches are rejected at validation")
        };
        let report = refine_certify_probed(
            &entry.model,
            &spec.tokens,
            spec.position,
            eps,
            spec.norm,
            label,
            &RefineConfig::default(),
            spec.deadline,
            probe,
        );
        if report.timed_out {
            // A ladder cut short by the deadline yields a timeout error,
            // never a cached partial verdict (the PR 3 rule).
            Err(format!(
                "refinement deadline exceeded after {} nodes at the {} level",
                report.nodes_explored,
                report.level.as_str()
            ))
        } else {
            let margin = match &report.outcome {
                RefineOutcome::Certified { margin } => Some(*margin),
                RefineOutcome::Unknown { lower_bound } if lower_bound.is_finite() => {
                    Some(*lower_bound)
                }
                _ => None,
            };
            Ok(CertifyResult::Refined {
                verdict: report.outcome.verdict().to_string(),
                margin,
                level: report.level.as_str().to_string(),
                nodes: report.nodes_explored,
            })
        }
    } else {
        let cfg = verifier_config(spec.variant, inner.cfg.reduction_budget);
        match spec.query {
            Query::Eps(eps) => {
                let region = t1_region(&emb, spec.position, eps, spec.norm);
                let (res, start) = certify_cached(
                    inner,
                    entry,
                    spec.norm,
                    &[(region, spec.deadline)],
                    label,
                    &cfg,
                    probe,
                )
                .remove(0);
                resumed_from = start;
                match res {
                    Ok(res) => Ok(CertifyResult::Fixed {
                        certified: res.certified,
                        margins: res.margins,
                    }),
                    Err(DeadlineExceeded) => Err("certification deadline exceeded".to_string()),
                }
            }
            Query::Synonyms(syn) => {
                let (res, start) = run_synonyms(inner, entry, spec, syn, label, &emb, &cfg, probe);
                resumed_from = start;
                res
            }
            Query::RadiusSearch(search) => {
                let mut queries = 0usize;
                let outcome = max_certified_radius_deadline(
                    |radius| -> Result<bool, DeadlineExceeded> {
                        queries += 1;
                        let region = t1_region(&emb, spec.position, radius, spec.norm);
                        let member = Member {
                            deadline: spec.deadline,
                            ..Member::new(&region)
                        };
                        let res = certify_batch(&entry.net, &[member], label, &cfg, probe, &mut ())
                            .remove(0)?;
                        Ok(res.certified)
                    },
                    search.start,
                    search.iters,
                    spec.deadline,
                    probe,
                );
                match outcome {
                    RadiusOutcome::Completed(radius) => {
                        Ok(CertifyResult::Radius { radius, queries })
                    }
                    RadiusOutcome::TimedOut {
                        lower_bound,
                        queries,
                    } => Err(format!(
                        "radius search deadline exceeded after {queries} queries; \
                     largest certified radius so far {lower_bound}"
                    )),
                }
            }
        }
    };
    match outcome {
        Ok(result) => {
            lock(&inner.cache).insert(spec.key.clone(), (label, result.clone()));
            let trace = collector.map(|c| {
                let mut t = c.finish();
                t.set_meta("verifier", &format!("DeepT-{}", spec.variant));
                t.set_meta("norm", &spec.norm.to_string());
                t.set_meta("model", &spec.model_id);
                t.set_meta("fingerprint", &entry.fingerprint);
                let kernel = deept_tensor::parallel::kernel_mode();
                t.set_meta("kernel", kernel.label());
                t.set_meta(
                    "isa",
                    match kernel {
                        deept_tensor::parallel::KernelMode::Simd => {
                            deept_tensor::simd::active_isa().label()
                        }
                        _ => "scalar",
                    },
                );
                t.set_meta(
                    "prec",
                    if deept_core::eps::prec_f32() {
                        "f32"
                    } else {
                        "f64"
                    },
                );
                t.set_meta("resumed_from_layer", &resumed_from.to_string());
                serde_json::from_str(&t.to_json()).unwrap_or(serde_json::Value::Null)
            });
            Response::Certify {
                model_id: spec.model_id.clone(),
                fingerprint: entry.fingerprint.clone(),
                label,
                result,
                cached: false,
                trace,
                request_id: Some(spec.request_id),
            }
        }
        Err(message) => {
            inner.metrics.deadline_timeouts.inc();
            let mut resp = error(ErrorCode::Timeout, &message);
            resp.set_request_id(spec.request_id);
            resp
        }
    }
}

/// Runs a first-class T2 synonym sweep: member 0 is the full region
/// (every position simultaneously free to substitute — the paper's T2
/// verdict), members 1.. are the per-position regions behind the
/// `positions` breakdown. All members go through the resumable lockstep
/// sweep, sharing the layer loop and any state-cache prefix; repeating or
/// extending a sweep over the same sentence resumes every unchanged
/// member mid-stack. Returns the result plus the full-region member's
/// resume layer (`0` = cold).
///
/// Timeouts are all-or-nothing (the PR 3 rule): any expired member fails
/// the whole sweep and nothing reaches the result cache — though the
/// completed layer prefixes stay in the state cache, so the retry is
/// cheap.
#[allow(clippy::too_many_arguments)]
fn run_synonyms(
    inner: &Inner,
    entry: &ModelEntry,
    spec: &JobSpec,
    syn: SynonymSpec,
    label: usize,
    emb: &deept_tensor::Matrix,
    cfg: &DeepTConfig,
    probe: &dyn Probe,
) -> (Result<CertifyResult, String>, usize) {
    let sets = inner.synonyms.get_or_build(entry, syn.k, syn.dist);
    let alts = synonym::alternatives(&entry.model, &spec.tokens, &sets);
    let n_tokens = spec.tokens.len();
    let mut regions = vec![t2_region(emb, &alts)];
    let mut member_pos: Vec<Option<usize>> = vec![None];
    for (i, a) in alts.iter().enumerate() {
        if a.is_empty() {
            continue; // no synonyms at this position: vacuously robust
        }
        let mut only: Vec<Vec<Vec<f64>>> = vec![Vec::new(); n_tokens];
        only[i] = a.clone();
        regions.push(t2_region(emb, &only));
        member_pos.push(Some(i));
    }
    let queries: Vec<(Zonotope, Deadline)> = regions
        .into_iter()
        .map(|region| (region, spec.deadline))
        .collect();
    let outcomes = certify_cached(inner, entry, PNorm::Linf, &queries, label, cfg, probe);
    let resumed_from = outcomes[0].1;
    let mut results = Vec::with_capacity(outcomes.len());
    for (outcome, _) in outcomes {
        match outcome {
            Ok(res) => results.push(res),
            Err(DeadlineExceeded) => {
                return (
                    Err("synonym sweep deadline exceeded".to_string()),
                    resumed_from,
                );
            }
        }
    }
    let full = &results[0];
    let mut positions = vec![true; n_tokens];
    for (res, pos) in results.iter().zip(&member_pos) {
        if let Some(i) = pos {
            positions[*i] = res.certified;
        }
    }
    let result = CertifyResult::Synonyms {
        certified: full.certified,
        positions,
        margins: full.margins.clone(),
        combinations: sets.combinations(&spec.tokens).to_string(),
    };
    (Ok(result), resumed_from)
}

/// Answers one HTTP/1.0 scrape request on `stream` and closes it.
fn serve_scrape(source: &ScrapeSource, stream: TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // "GET /metrics HTTP/1.1" — only the path matters; remaining headers
    // are ignored (the socket closes after the response anyway).
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                (source.metrics)(),
            ),
            "/profile" => ("200 OK", "text/plain; charset=utf-8", (source.profile)()),
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "try /metrics or /profile\n".to_string(),
            ),
        }
    };
    write!(
        writer,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    writer.write_all(body.as_bytes())?;
    writer.flush()
}
