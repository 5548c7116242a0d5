//! Open-loop load generator.
//!
//! One process, at most `nproc` threads and as many connections: each
//! thread owns one connection and pipelines over it, which is sound because
//! the server's event loop answers each connection in FIFO order. Requests
//! go out on a seeded schedule whether or not earlier ones were answered,
//! and every operation is timed from the moment it was due, so a stall
//! shows as latency on everything queued behind it.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use deept_serve::protocol::{parse_response, CertifyRequest, Request, Response};

/// One scheduled operation.
#[derive(Debug, Clone)]
pub struct Op {
    /// Seconds after the schedule start at which the operation is due.
    pub due: f64,
    pub conn: usize,
    pub req: CertifyRequest,
}

/// What happened to one operation.
#[derive(Debug, Clone, Default)]
pub struct OpResult {
    /// Seconds after the schedule start when the request went out.
    pub sent: f64,
    /// Seconds after the schedule start when the final response arrived.
    pub done: f64,
    pub response: Option<Response>,
    /// Transport failure or no answer before the run's cut-off.
    pub lost: bool,
}

impl OpResult {
    pub fn latency_ms(&self, due: f64) -> f64 {
        (self.done - due) * 1e3
    }
}

#[derive(Clone)]
pub struct Report {
    pub results: Vec<OpResult>,
    pub late_ms: Vec<f64>,
    pub backlog_max: usize,
    /// Operations due but unanswered at the moment the last one was due.
    pub backlog_at_end: usize,
    /// Connections used, one generator thread each.
    pub connections: usize,
}

/// The generator's thread and connection budget.
pub fn max_connections() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, 2)
}

struct Shared<'a> {
    ops: &'a [Op],
    dues: Vec<f64>,
    completed: AtomicUsize,
    backlog_max: AtomicUsize,
    backlog_at_end: AtomicUsize,
    t0: Instant,
    cutoff: f64,
    trace: bool,
    window: Option<usize>,
}

impl Shared<'_> {
    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    fn note_backlog(&self, now: f64) {
        let due = self.dues.partition_point(|&d| d <= now);
        let backlog = due.saturating_sub(self.completed.load(Ordering::SeqCst));
        self.backlog_max.fetch_max(backlog, Ordering::SeqCst);
        if now >= *self.dues.last().unwrap_or(&0.0) {
            // First observation after the last op fell due.
            let _ = self.backlog_at_end.compare_exchange(
                usize::MAX,
                backlog,
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
        }
    }
}

/// Runs `ops` (sorted by `due`) against `addr` and waits for every answer
/// or until `cutoff_s` after the schedule start. With `window`, each
/// connection also holds back a due request while it has that many
/// unanswered, which makes a closed loop of an all-due-at-once schedule.
pub fn run(
    addr: &str,
    ops: &[Op],
    trace: bool,
    cutoff_s: f64,
    window: Option<usize>,
) -> Result<Report, String> {
    let connections = max_connections();
    let mut streams = Vec::new();
    for _ in 0..connections {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        streams.push(s);
    }
    let shared = Shared {
        ops,
        dues: ops.iter().map(|o| o.due).collect(),
        completed: AtomicUsize::new(0),
        backlog_max: AtomicUsize::new(0),
        backlog_at_end: AtomicUsize::new(usize::MAX),
        t0: Instant::now(),
        cutoff: cutoff_s,
        trace,
        window,
    };
    let mut results = vec![OpResult::default(); ops.len()];
    let mut late = Vec::new();
    let mut per_conn: Vec<Vec<usize>> = vec![Vec::new(); connections];
    for (i, op) in ops.iter().enumerate() {
        per_conn[op.conn % connections].push(i);
    }
    // The calling thread drives connection 0; one scoped thread per
    // further connection.
    let outcome: Vec<Result<DriveOut, String>> = std::thread::scope(|sc| {
        let mut handles = Vec::new();
        let mut mine = None;
        for (c, (stream, idx)) in streams.into_iter().zip(per_conn).enumerate() {
            let shared = &shared;
            if c == 0 {
                mine = Some((stream, idx));
            } else {
                handles.push(sc.spawn(move || drive(shared, stream, &idx)));
            }
        }
        let (stream, idx) = mine.expect("at least one connection");
        let mut out = vec![drive(&shared, stream, &idx)];
        for h in handles {
            out.push(
                h.join()
                    .unwrap_or_else(|_| Err("generator thread panicked".into())),
            );
        }
        out
    });
    for r in outcome {
        let (rs, l) = r?;
        for (i, res) in rs {
            results[i] = res;
        }
        late.extend(l);
    }
    let at_end = shared.backlog_at_end.load(Ordering::SeqCst);
    Ok(Report {
        results,
        late_ms: late,
        backlog_max: shared.backlog_max.load(Ordering::SeqCst),
        backlog_at_end: if at_end == usize::MAX { 0 } else { at_end },
        connections,
    })
}

fn request_line(op: &Op, trace: bool) -> String {
    let mut req = op.req.clone();
    req.trace = trace;
    let mut s = serde_json::to_string(&Request::Certify(req)).expect("requests serialize");
    s.push('\n');
    s
}

type DriveOut = (Vec<(usize, OpResult)>, Vec<f64>);

fn drive(shared: &Shared<'_>, mut stream: TcpStream, idx: &[usize]) -> Result<DriveOut, String> {
    let mut results: Vec<(usize, OpResult)> =
        idx.iter().map(|&i| (i, OpResult::default())).collect();
    let mut late = Vec::new();
    let mut next = 0usize;
    // Slots (into `results`) awaiting a response, in send order.
    let mut inflight: VecDeque<usize> = VecDeque::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let mut finished = 0usize;
    while finished < idx.len() {
        let now = shared.now();
        if now > shared.cutoff {
            break;
        }
        let open = |inflight: usize| shared.window.is_none_or(|w| inflight < w);
        while next < idx.len() && shared.ops[idx[next]].due <= now && open(inflight.len()) {
            let op = &shared.ops[idx[next]];
            let line = request_line(op, shared.trace);
            let sent = shared.now();
            if let Err(e) = stream.write_all(line.as_bytes()) {
                return Err(format!("send failed: {e}"));
            }
            results[next].1.sent = sent;
            late.push((sent - op.due) * 1e3);
            inflight.push_back(next);
            next += 1;
        }
        shared.note_backlog(shared.now());
        let wait = if next < idx.len() && open(inflight.len()) {
            (shared.ops[idx[next]].due - shared.now()).max(0.0)
        } else {
            0.05
        };
        if inflight.is_empty() {
            if wait > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(wait.min(0.05)));
            }
            continue;
        }
        stream
            .set_read_timeout(Some(Duration::from_secs_f64(wait.clamp(0.0002, 0.05))))
            .map_err(|e| e.to_string())?;
        match stream.read(&mut chunk) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(format!("receive failed: {e}")),
        }
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).collect();
            let text = String::from_utf8_lossy(&line);
            let Some(slot) = inflight.pop_front() else {
                return Err(format!("unsolicited response: {text}"));
            };
            let resp = parse_response(&text).map_err(|e| format!("bad response {text}: {e}"))?;
            let r = &mut results[slot].1;
            r.done = shared.now();
            r.response = Some(resp);
            finished += 1;
            shared.completed.fetch_add(1, Ordering::SeqCst);
        }
    }
    for (_, r) in results.iter_mut() {
        if r.response.is_none() {
            r.lost = true;
            r.done = shared.now();
        }
    }
    Ok((results, late))
}
