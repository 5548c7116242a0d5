//! A small per-thread scratch arena for `Vec<f64>` buffers.
//!
//! The abstract-propagation hot path builds and drops large coefficient
//! buffers (densified ε blocks, matmul scratch) at every transformer. The
//! arena recycles those allocations: [`take_zeroed`] hands out a zeroed
//! buffer, preferring a pooled allocation with enough capacity, and
//! [`give`] returns a buffer to the calling thread's pool.
//!
//! The pool is thread-local, so there is no synchronization on the
//! take/give path; only the hit/miss telemetry counters are (relaxed)
//! atomics, shared process-wide so [`crate::parallel`]-style snapshots can
//! report arena effectiveness per pipeline stage.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

// Cached handles into the process-global (gated) metrics registry. The
// local `HITS`/`MISSES` atomics stay authoritative for the per-stage
// snapshot API; these only feed the live scrape endpoint.
deept_metrics::hot_counter!(
    global_hits,
    "deept_arena_hits_total",
    "Scratch-arena requests served from the per-thread pool."
);
deept_metrics::hot_counter!(
    global_misses,
    "deept_arena_misses_total",
    "Scratch-arena requests that fell back to fresh allocations."
);

/// Buffers retained per thread. Beyond this, the oldest pooled buffer is
/// dropped to make room — the pool exists to serve the steady-state working
/// set of one propagation, not to hoard every transient. Evicting the oldest
/// rather than the returned buffer matters on long-lived threads (the main
/// thread, the parallel pool's workers): a pool filled by one wide product
/// with buffers that fit no later request would otherwise never refill.
const MAX_POOLED: usize = 16;

/// Buffers whose capacity exceeds the request by more than this factor are
/// not handed out, so one huge historical allocation cannot pin its memory
/// by being recycled for tiny requests forever.
const MAX_SLACK: usize = 8;

thread_local! {
    static POOL: RefCell<Vec<Vec<f64>>> = const { RefCell::new(Vec::new()) };
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// A zeroed buffer of exactly `len` elements, recycled from the thread's
/// pool when a buffer with sufficient capacity is available.
pub fn take_zeroed(len: usize) -> Vec<f64> {
    let pooled = POOL.with(|p| {
        let mut pool = p.borrow_mut();
        let fit = pool
            .iter()
            .position(|b| b.capacity() >= len && b.capacity() <= len.max(1) * MAX_SLACK);
        fit.map(|i| pool.swap_remove(i))
    });
    match pooled {
        Some(mut buf) => {
            HITS.fetch_add(1, Ordering::Relaxed);
            global_hits().inc();
            buf.clear();
            buf.resize(len, 0.0);
            buf
        }
        None => {
            MISSES.fetch_add(1, Ordering::Relaxed);
            global_misses().inc();
            vec![0.0; len]
        }
    }
}

/// Returns a buffer to the calling thread's pool for later reuse.
///
/// Zero-capacity buffers are simply dropped; a full pool drops its oldest
/// buffer to make room.
pub fn give(mut buf: Vec<f64>) {
    if buf.capacity() == 0 {
        return;
    }
    buf.clear();
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() == MAX_POOLED {
            pool.remove(0);
        }
        pool.push(buf);
    });
}

/// Process-wide arena counters at a point in time; see [`snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaSnapshot {
    /// Requests served from the pool.
    pub hits: u64,
    /// Requests that fell back to a fresh allocation.
    pub misses: u64,
}

impl ArenaSnapshot {
    /// Counter deltas accumulated since `earlier`.
    pub fn since(&self, earlier: &ArenaSnapshot) -> ArenaSnapshot {
        ArenaSnapshot {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
        }
    }
}

/// Reads the process-wide hit/miss counters.
pub fn snapshot() -> ArenaSnapshot {
    ArenaSnapshot {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_hits_after_give() {
        let before = snapshot();
        let a = take_zeroed(128);
        assert_eq!(a.len(), 128);
        assert!(a.iter().all(|&x| x == 0.0));
        give(a);
        let mut b = take_zeroed(100); // fits in the recycled capacity
        assert_eq!(b.len(), 100);
        assert!(b.iter().all(|&x| x == 0.0));
        let delta = snapshot().since(&before);
        assert!(delta.hits >= 1, "recycled take must count a hit: {delta:?}");
        // Dirty data must never leak through a recycle.
        b.iter_mut().for_each(|x| *x = 7.0);
        give(b);
        let c = take_zeroed(50);
        assert!(c.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn oversized_buffers_are_not_recycled_for_tiny_requests() {
        give(Vec::with_capacity(1 << 16));
        let before = snapshot();
        let small = take_zeroed(4);
        assert!(small.capacity() < (1 << 16));
        let delta = snapshot().since(&before);
        assert!(delta.misses >= 1);
    }

    #[test]
    fn a_pool_full_of_misfits_refills_with_returned_buffers() {
        for _ in 0..MAX_POOLED {
            give(Vec::with_capacity(1 << 16));
        }
        give(take_zeroed(8));
        POOL.with(|p| {
            let pool = p.borrow();
            assert_eq!(pool.len(), MAX_POOLED);
            assert!(
                pool.iter().any(|b| b.capacity() < 1 << 16),
                "the returned buffer must displace a misfit"
            );
        });
    }

    #[test]
    fn zero_len_take_and_empty_give_are_fine() {
        let z = take_zeroed(0);
        assert!(z.is_empty());
        give(Vec::new());
    }
}
