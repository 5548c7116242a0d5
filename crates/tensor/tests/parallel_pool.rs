//! Concurrency tests for the parked-worker pool behind the `par_*`
//! functions: concurrent and nested callers get the one-thread result
//! bitwise, and a panicking chunk neither loses its payload nor breaks the
//! pool for the next call.

use deept_tensor::parallel::{self, par_chunks, par_map, par_rows, set_thread_override};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const ROWS: usize = 37;
const COLS: usize = 5;

/// Row-wise kernel whose values depend on the row index only.
fn fill_rows(data: &mut [f64]) {
    par_rows(data, COLS, 1, |range, chunk| {
        for (local, row) in range.enumerate() {
            for c in 0..COLS {
                let x = (row * COLS + c) as f64;
                chunk[local * COLS + c] = (x * 0.37).sin() / (1.0 + x.sqrt());
            }
        }
    });
}

/// Per-item partial sums folded in ascending item order, as the kernels do.
fn chunked_sum(len: usize) -> f64 {
    par_chunks(len, 1, |r| {
        r.map(|i| ((i as f64) * 0.11).cos() * 1e-3)
            .collect::<Vec<f64>>()
    })
    .into_iter()
    .flatten()
    .fold(0.0, |acc, x| acc + x)
}

/// `par_map` whose items each run a nested `par_rows`.
fn nested_sums() -> Vec<u64> {
    let items: Vec<usize> = (0..9).collect();
    par_map(&items, 1, |&k| {
        let mut data = vec![0.0; ROWS * COLS];
        fill_rows(&mut data);
        data.iter()
            .fold(k as f64, |acc, &x| acc * 0.5 + x)
            .to_bits()
    })
}

#[derive(Debug, PartialEq)]
struct Results {
    rows: Vec<u64>,
    sum: u64,
    nested: Vec<u64>,
}

fn run_all() -> Results {
    let mut data = vec![0.0; ROWS * COLS];
    fill_rows(&mut data);
    Results {
        rows: data.iter().map(|x| x.to_bits()).collect(),
        sum: chunked_sum(1001).to_bits(),
        nested: nested_sums(),
    }
}

#[test]
fn parallel_concurrent_callers_match_one_thread_bitwise() {
    let _g = parallel::test_lock();
    set_thread_override(Some(1));
    let expect = Arc::new(run_all());
    set_thread_override(Some(2));
    for _ in 0..50 {
        let barrier = Arc::new(Barrier::new(2));
        let callers: Vec<_> = (0..2)
            .map(|_| {
                let (barrier, expect) = (Arc::clone(&barrier), Arc::clone(&expect));
                std::thread::spawn(move || {
                    barrier.wait();
                    assert_eq!(run_all(), *expect);
                })
            })
            .collect();
        for c in callers {
            c.join().expect("caller thread");
        }
    }
    set_thread_override(None);
}

#[test]
fn parallel_panicking_chunk_is_reraised_and_pool_survives() {
    let _g = parallel::test_lock();
    set_thread_override(Some(2));
    // A chunk other than the caller's own, and the caller's chunk 0.
    for (bad_row, msg) in [(ROWS - 1, "last chunk failed"), (0, "first chunk failed")] {
        let mut data = vec![0.0; ROWS * COLS];
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            par_rows(&mut data, COLS, 1, |range, _| {
                if range.contains(&bad_row) {
                    panic!("{msg}");
                }
            })
        }))
        .expect_err("the chunk's panic must reach the caller");
        assert_eq!(
            caught.downcast_ref::<String>().map(String::as_str),
            Some(msg)
        );
    }
    let caught = panic::catch_unwind(|| {
        par_chunks(64, 1, |r| {
            if r.start > 0 {
                std::panic::panic_any(42u32);
            }
            r.len()
        })
    })
    .expect_err("par_chunks must re-raise too");
    assert_eq!(caught.downcast_ref::<u32>(), Some(&42));
    // Both chunks panic, and chunk 0 (the caller's) waits until the other
    // chunk's panic has been recorded — so it finishes last whenever a
    // worker took chunk 1. The lowest-indexed chunk's payload must win.
    for _ in 0..5 {
        let later_failed = AtomicBool::new(false);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            par_chunks(64, 1, |r| -> usize {
                if r.start == 0 {
                    let t = Instant::now();
                    while !later_failed.load(Ordering::SeqCst)
                        && t.elapsed() < Duration::from_secs(2)
                    {
                        std::thread::yield_now();
                    }
                } else {
                    later_failed.store(true, Ordering::SeqCst);
                }
                std::panic::panic_any(r.start)
            })
        }))
        .expect_err("every chunk panicked");
        assert_eq!(caught.downcast_ref::<usize>(), Some(&0));
    }

    // The pool is still usable and still exact.
    let parallel_result = run_all();
    set_thread_override(Some(1));
    assert_eq!(parallel_result, run_all());
    set_thread_override(None);
}
