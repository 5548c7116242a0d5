//! A persistent parked-worker pool for deterministic data parallelism.
//!
//! Work is split into contiguous chunks whose boundaries depend only on the
//! item count, the grain size and the worker count, never on thread
//! scheduling. Combined with the two rules the kernels follow —
//!
//! 1. workers write **disjoint** output rows, and
//! 2. every reduction is accumulated at a fixed per-item granularity and
//!    folded in ascending item order on the calling thread —
//!
//! results are bitwise identical for any worker count, including 1.
//!
//! Chunks run on a process-lifetime pool of at most [`num_threads`] − 1
//! workers, started lazily (never more than a call asks for) and parked on
//! a condition variable between calls; no OS thread is spawned per call.
//! A multi-chunk call offers chunks `1..n` to the pool through one shared
//! queue, runs chunk 0 itself, then claims back every chunk no worker has
//! taken yet. The caller therefore never waits for a chunk that has not
//! started: nested calls cannot deadlock, and concurrent callers (serve
//! workers, per-query sweeps) degrade to inline work instead of
//! oversubscribing the cores. A panicking chunk is re-raised on the caller
//! with its original payload once every chunk has finished, and the pool
//! stays usable. If a worker cannot be spawned the pool logs a warning and
//! the work runs inline.
//!
//! The worker count comes from the `DEEPT_THREADS` environment variable
//! (read once), defaulting to [`std::thread::available_parallelism`];
//! tests can force a count in-process with [`set_thread_override`].
//!
//! The module also keeps global counters (invocations, tasks, busy
//! nanoseconds) that the telemetry layer snapshots around spans to report
//! per-stage parallelism, and the `DEEPT_KERNEL={naive,blocked,simd}`
//! ladder ([`KernelMode`]) that routes matrix products and the zonotope
//! dot-product transformer between their reference, cache-blocked, and
//! SIMD implementations (used by the differential tests and the
//! before/after benches). All three rungs produce bitwise-identical `f64`
//! results; `naive` is single-threaded, the other two are parallel.

use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

static ENV_THREADS: OnceLock<usize> = OnceLock::new();
/// In-process override; 0 means "no override, use the environment".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Worker count used by the `par_*` functions.
///
/// Priority: [`set_thread_override`] > `DEEPT_THREADS` > available
/// parallelism. Always at least 1.
pub fn num_threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if o != 0 {
        return o;
    }
    *ENV_THREADS.get_or_init(|| {
        std::env::var("DEEPT_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// Forces the worker count in-process (`None` restores the environment
/// default). Intended for the determinism tests, which run the same
/// computation at 1/2/8 workers and assert bitwise-equal results.
pub fn set_thread_override(n: Option<usize>) {
    THREAD_OVERRIDE.store(n.unwrap_or(0), Ordering::Relaxed);
}

/// Which implementation family the matrix kernels and the zonotope
/// dot-product transformer run.
///
/// The three rungs of the dispatch ladder are bitwise-compatible in `f64`:
/// `Blocked` pins the exact per-element accumulation order of `Naive`, and
/// `Simd` maps that order 1:1 onto vector lanes (no FMA, no reassociation),
/// so switching modes never changes a single output bit — only throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// Single-threaded reference loops (the differential-test oracle).
    Naive,
    /// Cache-blocked, thread-parallel scalar kernels.
    Blocked,
    /// Blocked kernels with runtime-dispatched SIMD inner loops
    /// (AVX2 on x86_64, NEON on aarch64, scalar fallback elsewhere).
    Simd,
}

impl KernelMode {
    /// Stable label used for metrics, trace metadata and reports; matches
    /// the `DEEPT_KERNEL` spelling.
    pub fn label(self) -> &'static str {
        match self {
            KernelMode::Naive => "naive",
            KernelMode::Blocked => "blocked",
            KernelMode::Simd => "simd",
        }
    }
}

static KERNEL_MODE_ENV: OnceLock<KernelMode> = OnceLock::new();
/// 0 = follow the environment, 1 = naive, 2 = blocked, 3 = simd.
static KERNEL_MODE: AtomicUsize = AtomicUsize::new(0);

/// The kernel mode in effect: [`set_kernel_mode`] override first, else the
/// `DEEPT_KERNEL` environment variable (`naive` / `blocked` / anything else
/// or unset → `simd`, read once). The optimized paths check this once per
/// call.
pub fn kernel_mode() -> KernelMode {
    match KERNEL_MODE.load(Ordering::Relaxed) {
        1 => KernelMode::Naive,
        2 => KernelMode::Blocked,
        3 => KernelMode::Simd,
        _ => *KERNEL_MODE_ENV.get_or_init(|| {
            match std::env::var("DEEPT_KERNEL").as_deref().map(str::trim) {
                Ok("naive") => KernelMode::Naive,
                Ok("blocked") => KernelMode::Blocked,
                _ => KernelMode::Simd,
            }
        }),
    }
}

/// Forces a kernel mode in-process, overriding `DEEPT_KERNEL`; `None`
/// restores the environment default. Used by the differential tests and
/// benches to measure every rung of the ladder in one run.
pub fn set_kernel_mode(mode: Option<KernelMode>) {
    let v = match mode {
        None => 0,
        Some(KernelMode::Naive) => 1,
        Some(KernelMode::Blocked) => 2,
        Some(KernelMode::Simd) => 3,
    };
    KERNEL_MODE.store(v, Ordering::Relaxed);
}

/// Whether kernels should run their naive reference implementations.
/// Equivalent to `kernel_mode() == KernelMode::Naive`.
pub fn force_naive() -> bool {
    kernel_mode() == KernelMode::Naive
}

/// Routes kernels to the naive reference path (`true`) or the optimized
/// path (`false`, i.e. [`KernelMode::Simd`], which is bitwise-identical to
/// `Blocked`) in-process. Thin wrapper kept for the differential benches.
pub fn set_force_naive(naive: bool) {
    set_kernel_mode(Some(if naive {
        KernelMode::Naive
    } else {
        KernelMode::Simd
    }));
}

static INVOCATIONS: AtomicU64 = AtomicU64::new(0);
static TASKS: AtomicU64 = AtomicU64::new(0);
static BUSY_NS: AtomicU64 = AtomicU64::new(0);

/// Monotonic counters describing all `par_*` work since process start.
///
/// The telemetry layer snapshots these at span boundaries; the difference
/// of two snapshots describes the parallel work inside the span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParallelSnapshot {
    /// `par_*` entry points reached (including single-task fallbacks).
    pub invocations: u64,
    /// Chunk tasks executed (1 per invocation when work ran sequentially).
    pub tasks: u64,
    /// Nanoseconds of worker busy time, summed across workers.
    pub busy_ns: u64,
}

impl ParallelSnapshot {
    /// Counter deltas since `earlier`.
    pub fn since(&self, earlier: &ParallelSnapshot) -> ParallelSnapshot {
        ParallelSnapshot {
            invocations: self.invocations - earlier.invocations,
            tasks: self.tasks - earlier.tasks,
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }
}

/// Reads the current global counters.
pub fn snapshot() -> ParallelSnapshot {
    ParallelSnapshot {
        invocations: INVOCATIONS.load(Ordering::Relaxed),
        tasks: TASKS.load(Ordering::Relaxed),
        busy_ns: BUSY_NS.load(Ordering::Relaxed),
    }
}

fn record_busy(started: Instant) {
    BUSY_NS.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

/// Splits `0..len` into `chunks` contiguous ranges of near-equal size
/// (earlier ranges get the remainder), in ascending order.
fn chunk_ranges(len: usize, chunks: usize) -> Vec<Range<usize>> {
    let chunks = chunks.clamp(1, len.max(1));
    let base = len / chunks;
    let rem = len % chunks;
    let mut ranges = Vec::with_capacity(chunks);
    let mut start = 0;
    for c in 0..chunks {
        let size = base + usize::from(c < rem);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// How many chunks to cut `len` items into so that no chunk is smaller
/// than `min_grain` (except when `len` itself is smaller).
fn chunk_count(len: usize, min_grain: usize) -> usize {
    num_threads().min(len / min_grain.max(1)).max(1)
}

/// Locks `m`, recovering the guard if a panic poisoned it: no code in this
/// module panics while holding one of its locks (chunk bodies never run
/// under a lock), so the data is valid at every step.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One multi-chunk call in flight. It lives on the calling thread's stack;
/// the pool's queue refers to it through lifetime-erased [`Entry`]s.
struct Job<'a> {
    body: &'a (dyn Fn(usize) + Sync),
    chunks: usize,
    /// Lowest chunk index nobody has claimed yet (chunk 0 is the caller's).
    /// `Relaxed` suffices: the counter only hands out indices; the chunk
    /// inputs were published by the queue lock and the outputs are
    /// published by it again when the worker releases its entry.
    next: AtomicUsize,
    /// Queue entries for this job that are still queued or held by a
    /// worker. Read and written only while holding the pool's queue lock,
    /// which orders every access, hence `Relaxed`.
    refs: AtomicUsize,
    /// Panic of the lowest-indexed panicking chunk, with that index.
    panic: Mutex<Option<(usize, Box<dyn Any + Send>)>>,
}

impl Job<'_> {
    fn run(&self, chunk: usize) {
        let t0 = Instant::now();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| (self.body)(chunk)));
        record_busy(t0);
        if let Err(payload) = outcome {
            let mut slot = lock(&self.panic);
            if slot.as_ref().is_none_or(|(first, _)| chunk < *first) {
                *slot = Some((chunk, payload));
            }
        }
    }

    /// Runs unclaimed chunks until none is left.
    fn run_claimed(&self) {
        loop {
            let chunk = self.next.fetch_add(1, Ordering::Relaxed);
            if chunk >= self.chunks {
                return;
            }
            self.run(chunk);
        }
    }
}

/// A queued offer of a job's chunks to one worker.
struct Entry(*const Job<'static>);

// SAFETY: an `Entry` only crosses threads through the pool's queue, and the
// job it points to outlives it: `run_chunks` does not return (or unwind)
// until every entry it queued has been popped by a worker and released
// (`refs` decremented under the queue lock, after which the worker no longer
// touches the job) or removed from the queue by the caller. `Job` itself is
// `Sync`, so shared access from several workers is sound.
unsafe impl Send for Entry {}

/// The process-lifetime pool: one job queue shared by every caller.
struct Pool {
    queue: Mutex<VecDeque<Entry>>,
    /// Signals parked workers that an entry was queued.
    work: Condvar,
    /// Signals callers that some job's `refs` dropped to zero.
    released: Condvar,
}

static POOL: Pool = Pool {
    queue: Mutex::new(VecDeque::new()),
    work: Condvar::new(),
    released: Condvar::new(),
};

/// Workers started so far; the pool never shrinks. Workers are detached
/// on purpose: they park for the life of the process and never panic,
/// since every chunk runs under `catch_unwind`.
static STARTED: AtomicUsize = AtomicUsize::new(0);
/// Serializes pool growth; `true` once a spawn has failed, after which the
/// pool stays at its current size.
static GROWTH: Mutex<bool> = Mutex::new(false);

/// Workers a call cut into `chunks` chunks may enlist: one per chunk beyond
/// the caller's own, capped at `threads − 1`.
fn workers_for(chunks: usize, threads: usize) -> usize {
    chunks.saturating_sub(1).min(threads.saturating_sub(1))
}

/// Starts workers until `want` exist (or a spawn fails); returns how many
/// of the running workers the caller may enlist, at most `want`.
fn ensure_workers(want: usize) -> usize {
    let started = STARTED.load(Ordering::Acquire);
    if started >= want {
        return want;
    }
    let mut failed = lock(&GROWTH);
    let mut started = STARTED.load(Ordering::Acquire);
    while !*failed && started < want {
        let spawned = std::thread::Builder::new()
            .name(format!("deept-par-{started}"))
            .spawn(worker_loop);
        match spawned {
            Ok(_) => {
                started += 1;
                STARTED.store(started, Ordering::Release);
            }
            Err(e) => {
                *failed = true;
                deept_metrics::telemetry::warn!(
                    "parallel",
                    "could not start pool worker {}: {e}; running with {started} worker(s), the rest inline",
                    started + 1
                );
            }
        }
    }
    started.min(want)
}

/// A parked worker: pops one entry at a time and runs whatever chunks of
/// its job are still unclaimed.
fn worker_loop() {
    let mut queue = lock(&POOL.queue);
    loop {
        let Some(entry) = queue.pop_front() else {
            queue = POOL.work.wait(queue).unwrap_or_else(|e| e.into_inner());
            continue;
        };
        drop(queue);
        // SAFETY: the entry was queued by `run_chunks`, which keeps the job
        // alive until this entry's reference is released below (see `Entry`).
        let job = unsafe { &*entry.0 };
        job.run_claimed();
        queue = lock(&POOL.queue);
        if job.refs.fetch_sub(1, Ordering::Relaxed) == 1 {
            POOL.released.notify_all();
        }
        // `job` is not touched again: its caller may return once the queue
        // lock is released.
    }
}

/// Runs `body(i)` for every `i` in `0..chunks`, each exactly once: chunk 0
/// on the calling thread, the others on whichever of the calling thread and
/// the pool's workers claims them first. Returns once every chunk has
/// finished; if any chunk panicked, re-raises the lowest-indexed chunk's
/// panic with its original payload.
fn run_chunks(chunks: usize, body: &(dyn Fn(usize) + Sync)) {
    let job = Job {
        body,
        chunks,
        next: AtomicUsize::new(1),
        refs: AtomicUsize::new(0),
        panic: Mutex::new(None),
    };
    let helpers = ensure_workers(workers_for(chunks, num_threads()));
    let erased = (&job as *const Job<'_>).cast::<Job<'static>>();
    if helpers > 0 {
        let mut queue = lock(&POOL.queue);
        job.refs.store(helpers, Ordering::Relaxed);
        queue.extend((0..helpers).map(|_| Entry(erased)));
        drop(queue);
        for _ in 0..helpers {
            POOL.work.notify_one();
        }
    }
    job.run(0);
    job.run_claimed();
    if helpers > 0 {
        // Withdraw the offers no worker took, then wait for the workers
        // still running chunks of this job to release theirs.
        let mut queue = lock(&POOL.queue);
        let before = queue.len();
        queue.retain(|e| !std::ptr::eq(e.0, erased));
        job.refs.fetch_sub(before - queue.len(), Ordering::Relaxed);
        while job.refs.load(Ordering::Relaxed) > 0 {
            queue = POOL.released.wait(queue).unwrap_or_else(|e| e.into_inner());
        }
    }
    if let Some((_, payload)) = job.panic.into_inner().unwrap_or_else(|e| e.into_inner()) {
        panic::resume_unwind(payload);
    }
}

/// Runs `f` over contiguous sub-ranges of `0..len` on up to
/// [`num_threads`] workers and returns the per-chunk results **in range
/// order**. Falls back to one inline call when a single worker is
/// configured or the work is below `min_grain` items.
///
/// The chunking depends only on `len`, `min_grain` and the worker count —
/// callers that fold the returned results in order at a fixed per-item
/// granularity get results independent of how chunks were scheduled.
pub fn par_chunks<R, F>(len: usize, min_grain: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    if len == 0 {
        return Vec::new();
    }
    INVOCATIONS.fetch_add(1, Ordering::Relaxed);
    let chunks = chunk_count(len, min_grain);
    TASKS.fetch_add(chunks as u64, Ordering::Relaxed);
    if chunks == 1 {
        let t0 = Instant::now();
        let r = f(0..len);
        record_busy(t0);
        return vec![r];
    }
    let ranges = chunk_ranges(len, chunks);
    let slots: Vec<Mutex<Option<R>>> = ranges.iter().map(|_| Mutex::new(None)).collect();
    run_chunks(chunks, &|c| {
        let r = f(ranges[c].clone());
        *lock(&slots[c]) = Some(r);
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every chunk ran")
        })
        .collect()
}

/// Applies `f` to every item of `items` in parallel, returning results in
/// item order.
pub fn par_map<T, R, F>(items: &[T], min_grain: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let nested = par_chunks(items.len(), min_grain, |r| {
        items[r].iter().map(&f).collect::<Vec<R>>()
    });
    nested.into_iter().flatten().collect()
}

/// Splits the row-major buffer `data` (rows of `cols` elements) into
/// contiguous row chunks and runs `f(row_range, chunk)` on up to
/// [`num_threads`] workers. Chunks are disjoint `&mut` slices, so workers
/// can never race on an element; `f` must not make one row's result depend
/// on another worker's rows.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `cols` (for `cols > 0`).
pub fn par_rows<F>(data: &mut [f64], cols: usize, min_rows: usize, f: F)
where
    F: Fn(Range<usize>, &mut [f64]) + Sync,
{
    if data.is_empty() || cols == 0 {
        return;
    }
    assert_eq!(data.len() % cols, 0, "par_rows: ragged row buffer");
    let rows = data.len() / cols;
    INVOCATIONS.fetch_add(1, Ordering::Relaxed);
    let chunks = chunk_count(rows, min_rows);
    TASKS.fetch_add(chunks as u64, Ordering::Relaxed);
    if chunks == 1 {
        let t0 = Instant::now();
        f(0..rows, data);
        record_busy(t0);
        return;
    }
    let mut rest = data;
    let parts: Vec<_> = chunk_ranges(rows, chunks)
        .into_iter()
        .map(|r| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(r.len() * cols);
            rest = tail;
            Mutex::new(Some((r, head)))
        })
        .collect();
    run_chunks(chunks, &|c| {
        let (r, chunk) = lock(&parts[c]).take().expect("each chunk is claimed once");
        f(r, chunk);
    });
}

/// Serializes tests that mutate the process-global thread override, kernel
/// routing or counters. Not part of the public API.
#[doc(hidden)]
pub fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_without_overlap() {
        for len in [0usize, 1, 2, 7, 16, 101] {
            for chunks in [1usize, 2, 3, 8, 200] {
                let rs = chunk_ranges(len, chunks);
                let mut next = 0;
                for r in &rs {
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, len);
                // Sizes differ by at most one.
                let sizes: Vec<usize> = rs.iter().map(|r| r.len()).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1);
            }
        }
    }

    #[test]
    fn par_chunks_returns_in_order_at_any_width() {
        let _g = test_lock();
        for threads in [1, 2, 8] {
            set_thread_override(Some(threads));
            let parts = par_chunks(100, 1, |r| r.clone());
            let flat: Vec<usize> = parts.into_iter().flatten().collect();
            assert_eq!(flat, (0..100).collect::<Vec<_>>());
        }
        set_thread_override(None);
    }

    #[test]
    fn par_map_preserves_order() {
        let _g = test_lock();
        set_thread_override(Some(4));
        let items: Vec<usize> = (0..57).collect();
        let out = par_map(&items, 1, |&x| x * 2);
        assert_eq!(out, (0..57).map(|x| x * 2).collect::<Vec<_>>());
        set_thread_override(None);
    }

    #[test]
    fn par_rows_writes_disjoint_rows() {
        let _g = test_lock();
        for threads in [1, 2, 8] {
            set_thread_override(Some(threads));
            let mut data = vec![0.0; 33 * 4];
            par_rows(&mut data, 4, 1, |range, chunk| {
                for (local, row) in range.enumerate() {
                    for c in 0..4 {
                        chunk[local * 4 + c] = (row * 4 + c) as f64;
                    }
                }
            });
            let expect: Vec<f64> = (0..33 * 4).map(|x| x as f64).collect();
            assert_eq!(data, expect);
        }
        set_thread_override(None);
    }

    #[test]
    fn small_work_runs_inline() {
        let _g = test_lock();
        set_thread_override(Some(8));
        let before = snapshot();
        let parts = par_chunks(3, 16, |r| r.len());
        assert_eq!(parts, vec![3]);
        let d = snapshot().since(&before);
        assert_eq!(d.invocations, 1);
        assert_eq!(d.tasks, 1);
        set_thread_override(None);
    }

    #[test]
    fn counters_accumulate() {
        let _g = test_lock();
        set_thread_override(Some(2));
        let before = snapshot();
        par_chunks(64, 1, |r| r.len());
        let d = snapshot().since(&before);
        assert_eq!(d.invocations, 1);
        assert_eq!(d.tasks, 2);
        set_thread_override(None);
    }

    #[test]
    fn pool_sizing_follows_requested_chunks_at_absurd_thread_counts() {
        // Pure sizing arithmetic: no `par_*` call, so no worker starts.
        let _g = test_lock();
        set_thread_override(Some(100_000));
        assert_eq!(workers_for(chunk_count(10, 1), num_threads()), 9);
        assert_eq!(workers_for(chunk_count(10, 16), num_threads()), 0);
        assert_eq!(workers_for(chunk_count(1 << 20, 4), num_threads()), 99_999);
        set_thread_override(None);
        assert_eq!(workers_for(8, 2), 1);
        assert_eq!(workers_for(1, 8), 0);
        assert_eq!(workers_for(0, 0), 0);
    }

    #[test]
    fn force_naive_override_round_trips() {
        let _g = test_lock();
        set_force_naive(true);
        assert!(force_naive());
        set_force_naive(false);
        assert!(!force_naive());
        set_kernel_mode(None);
    }

    #[test]
    fn kernel_mode_override_round_trips() {
        let _g = test_lock();
        for mode in [KernelMode::Naive, KernelMode::Blocked, KernelMode::Simd] {
            set_kernel_mode(Some(mode));
            assert_eq!(kernel_mode(), mode);
        }
        set_kernel_mode(None);
    }
}
