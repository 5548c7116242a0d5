//! Order statistics, process-memory readings and host checks shared by the
//! workloads.

use std::time::Instant;

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values`; `0.0` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The tail percentile the sample supports: the highest quantile that
/// still leaves at least ten samples above it (`1 − 10/n`), capped at
/// p99. With fewer than twenty samples this falls back to the median.
pub fn tail_quantile(n: usize) -> f64 {
    if n < 20 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).min(0.99)
}

/// `a / b`, or 0 when there is nothing to divide by.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `VmHWM` (peak resident set) of a process in MiB, read from
/// `/proc/<pid>/status`; `None` where procfs is unavailable.
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Lowers the `VmHWM` of process `pid` to its current resident set, so
/// that the next reading covers only what ran since.
pub fn reset_peak_rss(pid: u32) -> Result<(), String> {
    std::fs::write(format!("/proc/{pid}/clear_refs"), "5")
        .map_err(|e| format!("resetting the peak resident set of process {pid}: {e}"))
}

/// Share of the machine's wanted CPU time that the hypervisor took, above
/// which a block of measured work reads as measuring the host rather than
/// the program. Calm stretches of a shared 2-vCPU machine stay under 3%.
pub const STEAL_MAX: f64 = 0.05;

/// How much slower than its fastest time in the run the reference loop may
/// run around a block of measured work before the block reads as measuring
/// the host. A shared machine also slows a guest down without reporting
/// stolen time (a busy neighbour on the same core or on the shared cache, a
/// lower clock): for seconds at a time the program and the reference loop
/// then run up to 1.7 times slower.
pub const SLOW_MAX: f64 = 1.3;

/// Host speed, in ms: the fastest of three runs of a fixed reference loop on
/// two threads at once (one per vCPU of the machine the benchmark was tuned
/// on), each doing a few hundred thousand floating-point steps and two
/// passes over 4 MiB of its own memory. It touches nothing of the program,
/// so only the host can change its time.
pub fn host_ms() -> f64 {
    fn one() -> f64 {
        let mut buf = vec![1.0f64; 1 << 19];
        let t = Instant::now();
        let mut x = 1.0f64;
        let mut acc = 0.0f64;
        for _ in 0..100_000 {
            x = x * 1.000_000_1 + 1e-9;
            acc += x.sqrt();
        }
        for _ in 0..2 {
            for v in buf.iter_mut() {
                *v = *v * 0.5 + acc * 1e-12;
            }
        }
        std::hint::black_box(&buf);
        t.elapsed().as_secs_f64() * 1e3
    }
    (0..3)
        .map(|_| {
            std::thread::scope(|s| {
                let other = s.spawn(one);
                let mine = one();
                mine.max(other.join().unwrap_or(f64::INFINITY))
            })
        })
        .fold(f64::INFINITY, f64::min)
}

/// What the host did around one block of measured work.
#[derive(Debug, Clone, Copy)]
pub struct HostCheck {
    /// Stolen share of the CPU time the machine wanted during the block.
    pub stolen: f64,
    /// Reference loop time right before and right after the block.
    pub ref_ms: f64,
}

impl HostCheck {
    /// Runs `f` between two host-speed samples.
    pub fn around<T>(f: impl FnOnce() -> T) -> (T, HostCheck) {
        let before = host_ms();
        let window = StealWindow::start();
        let out = f();
        let stolen = window.share();
        let ref_ms = before.max(host_ms());
        (out, HostCheck { stolen, ref_ms })
    }

    /// How disturbed the block was against the fastest reference time of
    /// the run: at most 1 is calm.
    pub fn score(&self, best_ref_ms: f64) -> f64 {
        (self.stolen / STEAL_MAX).max(self.ref_ms / best_ref_ms / SLOW_MAX)
    }
}

/// The fastest reference time among `checks`.
pub fn best_ref(checks: impl IntoIterator<Item = HostCheck>) -> f64 {
    checks
        .into_iter()
        .map(|c| c.ref_ms)
        .fold(f64::INFINITY, f64::min)
}

/// Cumulative (wanted, stolen) CPU ticks of the machine from `/proc/stat`:
/// wanted is every tick that was not idle or waiting on I/O, stolen
/// included. `None` where procfs is unavailable.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    let idle = fields.get(3)? + fields.get(4)?;
    Some((fields.iter().take(8).sum::<u64>() - idle, *fields.get(7)?))
}

/// A window over which the stolen CPU share is measured.
#[derive(Clone, Copy)]
pub struct StealWindow(Option<(u64, u64)>);

impl StealWindow {
    pub fn start() -> Self {
        StealWindow(cpu_ticks())
    }

    /// Stolen share of the CPU time the machine wanted since `start`; 0
    /// without procfs.
    pub fn share(&self) -> f64 {
        match (self.0, cpu_ticks()) {
            (Some((w0, s0)), Some((w1, s1))) => ratio((s1 - s0) as f64, (w1 - w0) as f64),
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_quantile(10), 0.5);
        assert!((tail_quantile(200) - 0.95).abs() < 1e-12);
        assert_eq!(tail_quantile(100_000), 0.99);
    }
}
