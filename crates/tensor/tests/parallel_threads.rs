//! Regression test for spawn-per-call parallelism: repeated multi-chunk
//! calls must reuse the pool's parked workers, never start new OS threads.
//! Kept alone in its own test binary so no sibling test changes the
//! process's thread count while it runs.

#![cfg(target_os = "linux")]

use deept_tensor::parallel::{self, par_rows, set_thread_override};
use std::collections::HashSet;
use std::sync::Mutex;

/// The `Threads:` line of `/proc/self/status`.
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

#[test]
fn parallel_calls_reuse_parked_workers() {
    let _g = parallel::test_lock();
    set_thread_override(Some(2));
    let mut data = vec![0.0; 64 * 3];
    let call =
        |data: &mut [f64], seen: &Mutex<HashSet<std::thread::ThreadId>>, peak: &Mutex<usize>| {
            par_rows(data, 3, 1, |range, chunk| {
                seen.lock().unwrap().insert(std::thread::current().id());
                let mut p = peak.lock().unwrap();
                *p = (*p).max(os_threads());
                for (local, row) in range.enumerate() {
                    chunk[local * 3] = row as f64;
                }
            });
        };
    let (seen, peak) = (Mutex::new(HashSet::new()), Mutex::new(0));
    // The first call starts the pool; measure from there.
    call(&mut data, &seen, &peak);
    let baseline = os_threads();
    seen.lock().unwrap().clear();
    for _ in 0..1000 {
        call(&mut data, &seen, &peak);
    }
    let peak = *peak.lock().unwrap();
    assert!(
        peak <= baseline && os_threads() <= baseline,
        "thread count grew: {baseline} after warm-up, {peak} at peak"
    );
    let distinct = seen.lock().unwrap().len();
    assert!(
        distinct <= 2,
        "1000 calls ran on {distinct} distinct threads"
    );
    set_thread_override(None);
}
