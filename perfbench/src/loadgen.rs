//! The open-loop load generator: one thread per connection sends its
//! share of a pre-generated schedule on time, whatever the server does,
//! and times each response from the moment its request was due.

use crate::check::{check, Outcome};
use crate::gen::{Kind, Op, Request};
use freqywm::service::{OpKind, Span, SpanRing, Stage};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What happened to one scheduled op.
#[derive(Debug, Clone)]
pub struct Record {
    pub due_ns: u64,
    pub req: Arc<Request>,
    /// Send time minus due time; `None` when the phase ended first.
    pub late_ns: Option<u64>,
    /// Response time minus due time.
    pub latency_ns: Option<u64>,
    pub outcome: Outcome,
}

impl Record {
    pub fn kind(&self) -> Kind {
        self.req.kind
    }
}

#[derive(Debug)]
pub struct PhaseResult {
    /// One record per op, in schedule order.
    pub records: Vec<Record>,
    /// Time from the phase start to its last response.
    pub elapsed: Duration,
}

/// Lead time between connecting and the first due time, so every
/// connection thread is running when the schedule starts.
const START_LEAD: Duration = Duration::from_millis(20);
/// Shortest read timeout worth a syscall; closer sends just spin.
const MIN_WAIT: Duration = Duration::from_micros(20);

/// Runs `ops` over one connection per address in `addrs` (op `conn`
/// indexes `addrs`). Responses are matched to requests in order, as the
/// protocol returns them per connection. Ops still unanswered `drain`
/// after the last due time count as timed out. With `spans`, each
/// answered op also records a span there (the traced run).
pub fn run_phase(
    addrs: &[SocketAddr],
    ops: &[Op],
    drain: Duration,
    spans: Option<&SpanRing>,
) -> std::io::Result<PhaseResult> {
    let streams: Vec<TcpStream> = addrs
        .iter()
        .map(|a| {
            let s = TcpStream::connect(a)?;
            s.set_nodelay(true)?;
            Ok(s)
        })
        .collect::<std::io::Result<_>>()?;
    let last_due = ops.iter().map(|o| o.due_ns).max().unwrap_or(0);
    let start = Instant::now() + START_LEAD;
    let deadline = start + Duration::from_nanos(last_due) + drain;
    let mut records: Vec<Option<Record>> = vec![None; ops.len()];
    let mut finished = start;
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, stream)| {
                let mine: Vec<usize> = (0..ops.len()).filter(|&i| ops[i].conn == c).collect();
                scope.spawn(move || drive(stream, start, deadline, &mine, ops, spans))
            })
            .collect();
        for h in handles {
            let (done, recs) = h.join().expect("load generator thread panicked");
            finished = finished.max(done);
            for (i, r) in recs {
                records[i] = Some(r);
            }
        }
    });
    Ok(PhaseResult {
        records: records
            .into_iter()
            .map(|r| r.expect("every op recorded"))
            .collect(),
        elapsed: finished.saturating_duration_since(start),
    })
}

fn op_kind(kind: Kind) -> OpKind {
    match kind {
        Kind::Register => OpKind::from_op("register"),
        Kind::Embed => OpKind::Embed,
        Kind::Detect => OpKind::Detect,
        Kind::Maintain => OpKind::Maintain,
    }
}

/// One connection's send/receive loop. Returns when every op is
/// answered or the deadline passes, with the time of the last response.
fn drive(
    mut stream: TcpStream,
    start: Instant,
    deadline: Instant,
    mine: &[usize],
    ops: &[Op],
    spans: Option<&SpanRing>,
) -> (Instant, Vec<(usize, Record)>) {
    let due = |i: usize| start + Duration::from_nanos(ops[i].due_ns);
    let mut out: Vec<(usize, Record)> = Vec::with_capacity(mine.len());
    let mut late: Vec<Option<u64>> = vec![None; mine.len()];
    let mut outstanding: VecDeque<usize> = VecDeque::new();
    let mut next = 0usize;
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut last_response = start;
    let mut broken: Option<String> = None;
    let record = |i: usize, late_ns, latency_ns, outcome| Record {
        due_ns: ops[i].due_ns,
        req: Arc::clone(&ops[i].req),
        late_ns,
        latency_ns,
        outcome,
    };
    'run: loop {
        let mut now = Instant::now();
        while next < mine.len() && now >= due(mine[next]) {
            let i = mine[next];
            if let Err(e) = stream.write_all(ops[i].req.line.as_bytes()) {
                broken = Some(format!("send failed: {e}"));
                break 'run;
            }
            now = Instant::now();
            late[next] = Some(now.duration_since(due(i)).as_nanos() as u64);
            outstanding.push_back(next);
            next += 1;
        }
        if next == mine.len() && outstanding.is_empty() {
            break;
        }
        if now >= deadline {
            break;
        }
        let wait = if next < mine.len() {
            due(mine[next]).saturating_duration_since(now)
        } else {
            deadline.saturating_duration_since(now)
        };
        if wait < MIN_WAIT {
            continue;
        }
        match crate::sys::wait_readable(stream.as_raw_fd(), wait) {
            Ok(true) => {}
            Ok(false) => continue,
            Err(e) => {
                broken = Some(format!("poll failed: {e}"));
                break;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                broken = Some("server closed the connection".to_string());
                break;
            }
            Ok(n) => {
                let t = Instant::now();
                pending.extend_from_slice(&chunk[..n]);
                while let Some(pos) = pending.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = pending.drain(..=pos).collect();
                    let line = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                    let Some(k) = outstanding.pop_front() else {
                        broken = Some(format!("response with no request: {line}"));
                        break 'run;
                    };
                    let i = mine[k];
                    let latency = t.duration_since(due(i));
                    let outcome = check(&line, &ops[i].req);
                    if let Some(ring) = spans {
                        ring.record(&Span::ending_now(
                            "",
                            &ops[i].req.tenant,
                            op_kind(ops[i].req.kind),
                            Stage::Respond,
                            latency.as_micros() as u64,
                        ));
                    }
                    out.push((
                        i,
                        record(i, late[k], Some(latency.as_nanos() as u64), outcome),
                    ));
                    last_response = t;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => {
                broken = Some(format!("receive failed: {e}"));
                break;
            }
        }
    }
    let unanswered = |_: usize| match &broken {
        Some(why) => Outcome::Failed(why.clone()),
        None => Outcome::TimedOut,
    };
    for &k in &outstanding {
        out.push((mine[k], record(mine[k], late[k], None, unanswered(k))));
    }
    for (k, &i) in mine.iter().enumerate().skip(next) {
        out.push((i, record(i, None, None, unanswered(k))));
    }
    (last_response, out)
}

/// Sends one line on a fresh connection and returns the response line.
pub fn request(addr: SocketAddr, line: &str) -> std::io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    let mut resp = String::new();
    if reader.read_line(&mut resp)? == 0 {
        return Err(std::io::Error::new(
            ErrorKind::UnexpectedEof,
            "server closed before answering",
        ));
    }
    Ok(resp.trim_end().to_string())
}

/// Round-trip times of `reps` sequential sends of one request (one
/// outstanding at a time), in microseconds, each response checked.
pub fn round_trips(addr: SocketAddr, op: &Op, reps: usize) -> Result<Vec<f64>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    let mut out = Vec::with_capacity(reps);
    let mut resp = String::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        writer
            .write_all(op.req.line.as_bytes())
            .map_err(|e| e.to_string())?;
        resp.clear();
        reader.read_line(&mut resp).map_err(|e| e.to_string())?;
        out.push(t0.elapsed().as_secs_f64() * 1e6);
        let outcome = check(resp.trim_end(), &op.req);
        if !outcome.is_ok() {
            return Err(format!("round trip answered {outcome:?}"));
        }
    }
    Ok(out)
}
