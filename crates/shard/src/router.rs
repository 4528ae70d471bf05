//! The router reactor: one thread multiplexing many JSON-lines clients
//! onto N backend engine shards.
//!
//! The router speaks the engine's exact protocol on its client side, so
//! clients cannot tell a router from a single engine. It runs on the
//! `freqywm-net` reactor core ([`Core`]), which owns listeners, client
//! I/O, connection caps, scrapes, idle reaping and the drain; the
//! router is the [`Handler`] plugged into it and keeps only routing:
//!
//! * **clients** — responses kept in per-client ordered slots so
//!   pipelined requests answer in request order even when they fan out
//!   to different shards;
//! * **backends** — one multiplexed, pipelined connection per shard,
//!   registered with the core's poller under handler tokens.
//!   Each forwarded request is pushed onto that backend's in-flight
//!   FIFO; the engine's `Session` answers in order per connection, so
//!   FIFO position is the whole correlation protocol. Dead backends
//!   get reconnect-with-backoff (a connector thread per attempt, never
//!   the reactor thread) and idle ones get periodic `metrics` health
//!   probes;
//! * **routing** — [`RouteInfo`] from the proto layer: tenant-keyed ops
//!   hash onto one shard ([`ShardMap::shard_of`]), `dispute` routes
//!   only when both tenants share a shard (else a protocol error),
//!   `metrics` fans out to every live shard and merges
//!   ([`aggregate_shard_metrics`]) with the router's own shard map
//!   attached, `shutdown` fans out and then drains the whole tier;
//! * **drain** — a `shutdown` op starts the core's drain, shuts every
//!   backend down, acks the client once all backends acked, flushes and
//!   exits. SIGTERM/SIGINT (when enabled) drain the *router only*:
//!   in-flight work finishes, clients close, backends stay up.

use crate::config::RouterConfig;
use crate::ring::ShardMap;
use crate::signal;
use freqywm_net::{Core, Event, Handler, Interest, LineConn, LineEvent, Waker, HANDLER_TOKEN_BASE};
use freqywm_obs::prom::{PromKind, PromText};
use freqywm_service::metrics::{
    aggregate_shard_metrics, latency_to_prom, LatencyHistogram, NetCounters, ShardMetricsPiece,
};
use freqywm_service::proto::{
    err_response, frame_too_large_response, id_echo, json, route_of, token_eq, RouteInfo,
};
use json::Value;
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Core alias for the router's client state.
type RCore<'a> = Core<'a, ClientSlots>;

/// Backend response frames (metrics blobs) may exceed client request
/// caps; a response larger than this means the stream lost framing.
const BACKEND_MAX_FRAME: usize = 8 << 20;
/// Upper bound on one poller wait, so signal flags and timers are
/// observed promptly even if a wake byte is lost.
const MAX_POLL: Duration = Duration::from_millis(500);

/// Runs the router until a `shutdown` op completes its tier drain (or a
/// drain signal, when enabled). The listeners must already be bound —
/// callers announce the addresses themselves. With `metrics_listener`
/// the router also answers HTTP `GET /metrics` with its tier
/// exposition (router counters, per-shard role / log_seq / replication
/// lag / RTT) — `freqywm router --metrics-listen`.
pub fn run_router(
    listener: TcpListener,
    metrics_listener: Option<TcpListener>,
    config: RouterConfig,
) -> io::Result<()> {
    if config.shards.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "router needs at least one --shard backend",
        ));
    }
    let counters = NetCounters::default();
    let mut core = Core::new(listener, metrics_listener, config.net.clone(), &counters)?;
    if config.handle_signals {
        signal::install_drain_handler(core.waker().as_raw_fd());
    }
    let mut router = Router::new(config, core.waker());
    for idx in 0..router.backends.len() {
        router.spawn_connector(idx);
    }
    let result = core.run(&mut router);
    router.stop_prober();
    signal::detach_drain_handler();
    result
}

enum CSlot {
    Ready(String),
    Pending,
}

/// A client's ordered response slots: pipelined requests answer in
/// request order even when they fan out to different shards.
#[derive(Default)]
struct ClientSlots {
    slots: VecDeque<CSlot>,
    /// Absolute sequence number of `slots[0]`.
    base: usize,
    authed: bool,
}

impl ClientSlots {
    fn push_ready(&mut self, resp: String) {
        self.slots.push_back(CSlot::Ready(resp));
    }

    /// Reserves the next in-order response slot; returns its absolute
    /// sequence number.
    fn push_pending(&mut self) -> usize {
        let seq = self.base + self.slots.len();
        self.slots.push_back(CSlot::Pending);
        seq
    }

    fn resolve(&mut self, seq: usize, resp: String) {
        let idx = seq - self.base;
        self.slots[idx] = CSlot::Ready(resp);
    }
}

/// One request in flight on a backend connection, in FIFO order.
enum Pending {
    /// Forward the response line verbatim to this client slot.
    Client {
        client: u64,
        seq: usize,
        /// Prerendered id echo, for synthesising an error if the
        /// backend dies before answering.
        id_part: String,
    },
    /// One piece of a fan-out (`metrics` / `shutdown`).
    Fanout { fanout: u64 },
    /// Router-internal health probe: a *successful* response (and only
    /// that) proves the backend healthy and resets its reconnect
    /// backoff — an auth-error reply must do neither.
    Probe,
    /// Router-internal backend auth hello: consumed without touching
    /// health (the probe that follows it is the judge).
    Hello,
    /// `promote` issued during failover: the ack completes the
    /// promotion and releases this shard's parked requests.
    Promote,
}

/// A tenant request held while its shard fails over to a standby
/// (primary dead, promotion in flight) instead of erroring: flushed to
/// the promoted backend on ack, errored if promotion fails or the
/// failover deadline passes.
struct ParkedRequest {
    client: u64,
    seq: usize,
    id_part: String,
    line: String,
}

/// Bound on parked requests per shard during failover; beyond it new
/// arrivals error immediately (backpressure, not unbounded memory).
const MAX_PARKED: usize = 4096;

struct BackendConn {
    io: LineConn,
    /// Each entry is (send time, correlation); the send time feeds the
    /// per-backend latency histogram when the FIFO response arrives.
    inflight: VecDeque<(Instant, Pending)>,
}

struct BackendSlot {
    addr: String,
    conn: Option<BackendConn>,
    /// A connector thread is dialing; don't spawn another.
    connecting: bool,
    /// Last exchange succeeded (any response line); false from connect
    /// until the first response and after any failure.
    healthy: bool,
    /// Requests forwarded to this shard over the router's lifetime.
    routed: u64,
    /// Send→response round-trip latency per request on this backend
    /// (includes the shard's own queueing and run time — this is the
    /// latency the *router* observes, surfaced in the shard map).
    latency: LatencyHistogram,
    backoff: Duration,
    next_attempt: Instant,
    /// Standby address for failover; consumed (moved into `addr`) when
    /// the primary is declared dead.
    standby: Option<String>,
    /// `Some(deadline)` while a standby promotion is in progress (dial
    /// plus `promote` op). Requests park until the deadline, then
    /// error; the promotion itself keeps retrying past it.
    promoting: Option<Instant>,
    /// This slot's `addr` is a promoted standby (for operators: the
    /// original primary is gone and unmonitored).
    failed_over: bool,
    /// Requests parked during failover, in arrival order.
    parked: VecDeque<ParkedRequest>,
    /// Replication role the backend last reported ("primary" /
    /// "follower"), refreshed by every health probe and metrics fanout.
    role: Option<String>,
    /// Durable-log sequence the backend last reported; with the
    /// standby prober's reading this yields the pair's replication lag.
    log_seq: Option<u64>,
}

enum FanoutKind {
    Metrics,
    Shutdown,
    /// A `trace` query: forward the client's request line to every live
    /// shard and merge the span arrays, tagging each span with the
    /// shard it came from.
    Trace,
    /// A `history` query: forward the client's request line verbatim
    /// (it carries `last`) and return the per-shard responses as a
    /// series array, each tagged with its shard index.
    History,
}

/// What the background prober last learned about one standby.
#[derive(Debug, Clone, Copy, Default)]
struct StandbyProbe {
    /// The standby answered a metrics probe.
    up: bool,
    /// Its reported durable-log sequence.
    log_seq: Option<u64>,
}

/// Shared state between the reactor and the standby prober thread: the
/// addresses to probe (a standby is consumed on failover, at which
/// point its slot goes `None`) and the latest readings.
struct StandbyProberState {
    addrs: Mutex<Vec<Option<String>>>,
    probes: Mutex<Vec<StandbyProbe>>,
    stop: Mutex<bool>,
    stopped: Condvar,
}

/// The standby prober: the reactor never dials standbys (they serve no
/// traffic), so replication lag needs its own slow loop — every probe
/// interval, each configured standby gets one blocking `metrics`
/// request on a throwaway connection, and its `log_seq` lands in the
/// shared state for the shard map and the exposition to read.
fn standby_prober_loop(
    state: Arc<StandbyProberState>,
    interval: Duration,
    connect_timeout: Duration,
    auth_token: Option<String>,
) {
    loop {
        let addrs: Vec<Option<String>> = state.addrs.lock().expect("prober addrs").clone();
        for (idx, addr) in addrs.iter().enumerate() {
            let probe = match addr {
                Some(addr) => {
                    probe_standby(addr, connect_timeout, auth_token.as_deref()).unwrap_or_default()
                }
                None => StandbyProbe::default(),
            };
            state.probes.lock().expect("prober probes")[idx] = probe;
        }
        let guard = state.stop.lock().expect("prober stop");
        let (guard, _) = state
            .stopped
            .wait_timeout(guard, interval)
            .expect("prober stop");
        if *guard {
            return;
        }
    }
}

/// One blocking metrics exchange with a standby; `None` on any failure
/// (connect, timeout, bad response) — the standby is then just "down".
fn probe_standby(
    addr: &str,
    connect_timeout: Duration,
    auth_token: Option<&str>,
) -> Option<StandbyProbe> {
    let stream = connect_backend(addr, connect_timeout).ok()?;
    stream
        .set_read_timeout(Some(connect_timeout.max(Duration::from_secs(1))))
        .ok()?;
    let mut writer = stream.try_clone().ok()?;
    let mut reader = BufReader::new(stream);
    let mut request = String::new();
    if let Some(token) = auth_token {
        request.push_str(&format!(
            "{{\"op\":\"hello\",\"token\":\"{}\"}}\n",
            json::escape(token)
        ));
    }
    request.push_str("{\"op\":\"metrics\"}\n");
    writer.write_all(request.as_bytes()).ok()?;
    let mut line = String::new();
    if auth_token.is_some() {
        reader.read_line(&mut line).ok()?; // hello ack
        line.clear();
    }
    reader.read_line(&mut line).ok()?;
    let v = json::parse(line.trim()).ok()?;
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        return None;
    }
    let log_seq = v
        .get("metrics")
        .and_then(|m| m.get("log_seq"))
        .and_then(Value::as_u64);
    Some(StandbyProbe { up: true, log_seq })
}

struct Fanout {
    client: u64,
    seq: usize,
    id_part: String,
    kind: FanoutKind,
    remaining: usize,
    /// Per-shard parsed responses (None: shard down or reply lost).
    pieces: Vec<Option<Value>>,
}

#[derive(Default)]
struct RouterStats {
    accepted: u64,
    forwarded: u64,
    refused: u64,
    /// Forwarded requests that died with their backend — every one was
    /// resolved with an error (never a hang). Failover tests assert
    /// client-visible errors ≤ this count.
    inflight_failed: u64,
}

/// The router [`Handler`]: everything the reactor core does not own.
struct Router {
    config: RouterConfig,
    map: ShardMap,
    waker: Waker,
    connect_rx: Receiver<(usize, io::Result<TcpStream>)>,
    connect_tx: Sender<(usize, io::Result<TcpStream>)>,
    backends: Vec<BackendSlot>,
    fanouts: HashMap<u64, Fanout>,
    next_fanout: u64,
    stats: RouterStats,
    /// Shared with the standby prober thread (None when no standbys).
    prober: Option<(Arc<StandbyProberState>, std::thread::JoinHandle<()>)>,
}

/// Returns the request line with a router-minted `"trace"` field
/// inserted when the client did not supply one, so every tenant-routed
/// request is correlatable across the tier (client → router → shard).
/// Client-supplied ids are forwarded verbatim — the insert is textual
/// (right after the opening brace), never a reparse/rewrite.
fn ensure_trace(line: &str, req: &Value) -> String {
    if req.get("trace").and_then(Value::as_str).is_some() {
        return line.to_string();
    }
    let Some(pos) = line.find('{') else {
        return line.to_string(); // unparseable lines never route here
    };
    let trace = freqywm_obs::next_trace_id();
    let rest = &line[pos + 1..];
    let comma = if rest.trim_start().starts_with('}') {
        ""
    } else {
        ","
    };
    format!("{}\"trace\":\"{}\"{}{}", &line[..=pos], trace, comma, rest)
}

/// Whether a backend response line reports success (`"ok": true`).
fn line_ok(line: &str) -> bool {
    json::parse(line)
        .map(|v| v.get("ok").and_then(Value::as_bool) == Some(true))
        .unwrap_or(false)
}

fn err_with_part(id_part: &str, msg: &str) -> String {
    format!(
        "{{\"ok\":false{id_part},\"error\":\"{}\"}}",
        json::escape(msg)
    )
}

fn connect_backend(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let resolved = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("cannot resolve {addr}")))?;
    TcpStream::connect_timeout(&resolved, timeout)
}

impl Router {
    fn new(config: RouterConfig, waker: Waker) -> Self {
        let (connect_tx, connect_rx) = channel();
        let now = Instant::now();
        let mut standbys = config.standbys.clone();
        standbys.resize(config.shards.len(), None);
        let prober = if standbys.iter().any(Option::is_some) {
            let state = Arc::new(StandbyProberState {
                addrs: Mutex::new(standbys.clone()),
                probes: Mutex::new(vec![StandbyProbe::default(); config.shards.len()]),
                stop: Mutex::new(false),
                stopped: Condvar::new(),
            });
            let thread_state = Arc::clone(&state);
            let interval = config.probe_interval;
            let connect_timeout = config.connect_timeout;
            let token = config.shard_auth_token.clone();
            let handle = std::thread::spawn(move || {
                standby_prober_loop(thread_state, interval, connect_timeout, token)
            });
            Some((state, handle))
        } else {
            None
        };
        let backends = config
            .shards
            .iter()
            .zip(standbys)
            .map(|(addr, standby)| BackendSlot {
                addr: addr.clone(),
                conn: None,
                connecting: false,
                healthy: false,
                routed: 0,
                latency: LatencyHistogram::default(),
                backoff: config.reconnect_min,
                next_attempt: now,
                standby,
                promoting: None,
                failed_over: false,
                parked: VecDeque::new(),
                role: None,
                log_seq: None,
            })
            .collect();
        let map = ShardMap::new(config.shards.clone());
        Router {
            config,
            map,
            waker,
            connect_rx,
            connect_tx,
            backends,
            fanouts: HashMap::new(),
            next_fanout: 1,
            stats: RouterStats::default(),
            prober,
        }
    }

    fn stop_prober(&mut self) {
        if let Some((state, handle)) = self.prober.take() {
            *state.stop.lock().expect("prober stop") = true;
            state.stopped.notify_all();
            let _ = handle.join();
        }
    }

    // ----- timers -----------------------------------------------------

    fn tick_reconnects(&mut self) {
        let now = Instant::now();
        for idx in 0..self.backends.len() {
            let b = &self.backends[idx];
            if b.conn.is_none() && !b.connecting && now >= b.next_attempt {
                self.spawn_connector(idx);
            }
        }
    }

    fn tick_probes(&mut self, core: &mut RCore) {
        for idx in 0..self.backends.len() {
            let due = match &self.backends[idx].conn {
                Some(conn) => {
                    conn.inflight.is_empty()
                        && conn.io.last_activity.elapsed() >= self.config.probe_interval
                }
                None => false,
            };
            if due {
                self.send_backend(core, idx, "{\"op\":\"metrics\"}", Pending::Probe);
            }
        }
    }

    /// The latest standby probe readings (empty default when no
    /// standbys are configured / no prober runs).
    fn standby_probes(&self) -> Vec<StandbyProbe> {
        match &self.prober {
            Some((state, _)) => state.probes.lock().expect("prober probes").clone(),
            None => vec![StandbyProbe::default(); self.backends.len()],
        }
    }

    /// Replication lag of shard `idx`: primary `log_seq` minus the
    /// standby's, when both sides have reported one.
    fn repl_lag(&self, idx: usize, probes: &[StandbyProbe]) -> Option<u64> {
        let primary = self.backends[idx].log_seq?;
        let standby = probes.get(idx).and_then(|p| p.log_seq)?;
        Some(primary.saturating_sub(standby))
    }

    /// The router's own Prometheus exposition: tier counters plus one
    /// labelled series per shard (up/health/routed/role/log_seq/
    /// replication lag and the router-observed RTT histogram). Shard
    /// *engine* metrics are not re-exported here — scrape each engine's
    /// own `--metrics-listen` for those; this endpoint is the router's
    /// view of the tier.
    fn router_prom(&self, core: &RCore) -> String {
        let mut w = PromText::new();
        w.family(
            "freqywm_router_info",
            PromKind::Gauge,
            "Router tier metadata; value is always 1.",
        );
        w.sample(
            "freqywm_router_info",
            &[("shards", &self.backends.len().to_string())],
            1.0,
        );
        for (name, help, v) in [
            (
                "freqywm_router_clients_accepted_total",
                "Client connections accepted.",
                self.stats.accepted,
            ),
            (
                "freqywm_router_clients_rejected_total",
                "Client connections refused at the connection cap.",
                core.counters().rejected.load(Ordering::Relaxed),
            ),
            (
                "freqywm_router_forwarded_total",
                "Requests forwarded to a shard.",
                self.stats.forwarded,
            ),
            (
                "freqywm_router_refused_total",
                "Requests answered with a router-side error.",
                self.stats.refused,
            ),
            (
                "freqywm_router_inflight_failed_total",
                "Forwarded requests errored because their backend died.",
                self.stats.inflight_failed,
            ),
        ] {
            w.scalar(name, PromKind::Counter, help, v as f64);
        }
        w.scalar(
            "freqywm_router_clients_active",
            PromKind::Gauge,
            "Currently connected clients.",
            core.client_count() as f64,
        );
        w.scalar(
            "freqywm_router_draining",
            PromKind::Gauge,
            "1 while the router is draining.",
            if core.draining() { 1.0 } else { 0.0 },
        );
        let probes = self.standby_probes();
        let shard_labels: Vec<String> = (0..self.backends.len()).map(|i| i.to_string()).collect();
        w.family(
            "freqywm_router_shard_info",
            PromKind::Gauge,
            "Shard address and replication role; value is always 1.",
        );
        for (i, b) in self.backends.iter().enumerate() {
            w.sample(
                "freqywm_router_shard_info",
                &[
                    ("shard", &shard_labels[i]),
                    ("addr", &b.addr),
                    ("role", b.role.as_deref().unwrap_or("unknown")),
                ],
                1.0,
            );
        }
        type FlagGetter = fn(&BackendSlot) -> bool;
        let flags: [(&str, &str, FlagGetter); 4] = [
            ("freqywm_router_shard_up", "Backend connected.", |b| {
                b.conn.is_some()
            }),
            (
                "freqywm_router_shard_healthy",
                "Last probe answered successfully.",
                |b| b.healthy,
            ),
            (
                "freqywm_router_shard_failed_over",
                "Shard is served by a promoted standby.",
                |b| b.failed_over,
            ),
            (
                "freqywm_router_shard_standby_up",
                "Configured standby answered its last probe.",
                |b| b.standby.is_some(),
            ),
        ];
        for (name, help, get) in flags {
            w.family(name, PromKind::Gauge, help);
            for (i, b) in self.backends.iter().enumerate() {
                let v = if name == "freqywm_router_shard_standby_up" {
                    get(b) && probes[i].up
                } else {
                    get(b)
                };
                w.sample(
                    name,
                    &[("shard", &shard_labels[i])],
                    if v { 1.0 } else { 0.0 },
                );
            }
        }
        w.family(
            "freqywm_router_shard_routed_total",
            PromKind::Counter,
            "Requests forwarded to this shard.",
        );
        for (i, b) in self.backends.iter().enumerate() {
            w.sample(
                "freqywm_router_shard_routed_total",
                &[("shard", &shard_labels[i])],
                b.routed as f64,
            );
        }
        w.family(
            "freqywm_router_shard_log_seq",
            PromKind::Gauge,
            "Durable-log sequence the shard primary last reported.",
        );
        for (i, b) in self.backends.iter().enumerate() {
            if let Some(seq) = b.log_seq {
                w.sample(
                    "freqywm_router_shard_log_seq",
                    &[("shard", &shard_labels[i])],
                    seq as f64,
                );
            }
        }
        w.family(
            "freqywm_router_shard_standby_log_seq",
            PromKind::Gauge,
            "Durable-log sequence the shard standby last reported.",
        );
        for i in 0..self.backends.len() {
            if let Some(seq) = probes[i].log_seq {
                w.sample(
                    "freqywm_router_shard_standby_log_seq",
                    &[("shard", &shard_labels[i])],
                    seq as f64,
                );
            }
        }
        w.family(
            "freqywm_router_shard_replication_lag",
            PromKind::Gauge,
            "Log events the standby trails its primary by (primary log_seq - standby log_seq).",
        );
        for (i, label) in shard_labels.iter().enumerate() {
            if let Some(lag) = self.repl_lag(i, &probes) {
                w.sample(
                    "freqywm_router_shard_replication_lag",
                    &[("shard", label)],
                    lag as f64,
                );
            }
        }
        w.family(
            "freqywm_router_shard_rtt_seconds",
            PromKind::Histogram,
            "Router-observed request round-trip time per shard (send to response, \
             including the shard's own queueing and run time).",
        );
        for (i, b) in self.backends.iter().enumerate() {
            latency_to_prom(
                &mut w,
                "freqywm_router_shard_rtt_seconds",
                &[("shard", &shard_labels[i])],
                &b.latency.snapshot(),
            );
        }
        w.finish()
    }

    // ----- connectors -------------------------------------------------

    /// Dials shard `idx` on a throwaway thread; the result arrives via
    /// the channel + wake pipe. The reactor never blocks in connect(2).
    fn spawn_connector(&mut self, idx: usize) {
        self.backends[idx].connecting = true;
        let addr = self.backends[idx].addr.clone();
        let timeout = self.config.connect_timeout;
        let tx = self.connect_tx.clone();
        let waker = self.waker.clone();
        std::thread::spawn(move || {
            let result = connect_backend(&addr, timeout);
            let _ = tx.send((idx, result));
            waker.wake();
        });
    }

    fn drain_connector_results(&mut self, core: &mut RCore) {
        while let Ok((idx, result)) = self.connect_rx.try_recv() {
            self.backends[idx].connecting = false;
            match result {
                Ok(stream) if !core.draining() => self.install_backend(core, idx, stream),
                Ok(_dropped_during_drain) => {}
                Err(_) => self.schedule_reconnect(idx),
            }
        }
    }

    fn install_backend(&mut self, core: &mut RCore, idx: usize, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return self.schedule_reconnect(idx);
        }
        let _ = stream.set_nodelay(true);
        let fd = stream.as_raw_fd();
        if core
            .poller()
            .register(fd, HANDLER_TOKEN_BASE + idx as u64, Interest::READ)
            .is_err()
        {
            return self.schedule_reconnect(idx);
        }
        self.backends[idx].conn = Some(BackendConn {
            // A backend tail with no newline is a response truncated
            // mid-write — never a deliverable line.
            io: LineConn::new(stream, BACKEND_MAX_FRAME, false),
            inflight: VecDeque::new(),
        });
        // Backoff is NOT reset here: a crash-looping backend accepts
        // then dies before ever answering, and resetting on connect
        // would turn that into a tight dial loop. Only a successful
        // probe (or promote) response earns the reset.
        //
        // Authenticate, then (mid-failover) promote, then probe: the
        // probe response flips `healthy`.
        if let Some(token) = self.config.shard_auth_token.clone() {
            let hello = format!(
                "{{\"op\":\"hello\",\"token\":\"{}\"}}",
                json::escape(&token)
            );
            self.send_backend(core, idx, &hello, Pending::Hello);
        }
        if self.backends[idx].promoting.is_some() {
            self.send_backend(core, idx, "{\"op\":\"promote\"}", Pending::Promote);
        }
        self.send_backend(core, idx, "{\"op\":\"metrics\"}", Pending::Probe);
    }

    fn schedule_reconnect(&mut self, idx: usize) {
        let b = &mut self.backends[idx];
        b.next_attempt = Instant::now() + b.backoff;
        b.backoff = (b.backoff * 2).min(self.config.reconnect_max);
    }

    // ----- backend side -----------------------------------------------

    fn send_backend(&mut self, core: &mut RCore, idx: usize, line: &str, pending: Pending) {
        let Some(conn) = self.backends[idx].conn.as_mut() else {
            return;
        };
        conn.io.queue(line);
        conn.inflight.push_back((Instant::now(), pending));
        conn.io.flush();
        conn.io.last_activity = Instant::now();
        if conn.io.failed {
            self.fail_backend(core, idx);
        } else {
            self.update_backend_interest(core, idx);
        }
    }

    fn backend_ready(&mut self, core: &mut RCore, idx: usize, ev: Event) {
        if idx >= self.backends.len() {
            return;
        }
        let mut lines = Vec::new();
        {
            let Some(conn) = self.backends[idx].conn.as_mut() else {
                return;
            };
            if ev.readable {
                let mut oversized = false;
                conn.io.read_ready(|e| match e {
                    LineEvent::Line(line) => lines.push(line),
                    // A response that overflows the cap means the
                    // stream lost framing; resync via reconnect.
                    LineEvent::Oversized => oversized = true,
                });
                conn.io.failed |= oversized;
                conn.io.last_activity = Instant::now();
            }
            if ev.hangup {
                conn.io.eof = true;
            }
            if ev.writable && !conn.io.failed {
                conn.io.flush();
            }
        }
        for line in lines {
            self.backend_line(core, idx, line);
        }
        let dead = match self.backends[idx].conn.as_ref() {
            Some(conn) => conn.io.failed || conn.io.eof,
            None => false,
        };
        if dead {
            self.fail_backend(core, idx);
        } else {
            self.update_backend_interest(core, idx);
        }
    }

    fn backend_line(&mut self, core: &mut RCore, idx: usize, line: String) {
        let pending = match self.backends[idx].conn.as_mut() {
            Some(conn) => conn.inflight.pop_front(),
            None => None,
        };
        let pending = pending.map(|(sent, pending)| {
            self.backends[idx].latency.record(sent.elapsed());
            pending
        });
        match pending {
            None => {
                // A response with nothing in flight: the stream is out
                // of sync; reconnect to resync.
                if let Some(conn) = self.backends[idx].conn.as_mut() {
                    conn.io.failed = true;
                }
            }
            Some(Pending::Client { client, seq, .. }) => {
                self.resolve_client_slot(core, client, seq, line)
            }
            Some(Pending::Fanout { fanout }) => self.fanout_piece(core, fanout, idx, Some(line)),
            Some(Pending::Probe) => {
                // Health is earned by a *successful* probe response.
                // Any line used to flip `healthy`, so a backend
                // rejecting the router's hello (wrong token) oscillated
                // healthy on its own error replies.
                let parsed = json::parse(&line).ok();
                let ok = parsed
                    .as_ref()
                    .and_then(|v| v.get("ok"))
                    .and_then(Value::as_bool)
                    == Some(true);
                self.backends[idx].healthy = ok;
                if ok {
                    // …and a successful probe is also what proves the
                    // backend actually serves, so the reconnect backoff
                    // resets here, not on mere TCP accept.
                    self.backends[idx].backoff = self.config.reconnect_min;
                    // The probe is a metrics response: keep the shard's
                    // replication view (role, log_seq) fresh from it.
                    if let Some(m) = parsed.as_ref().and_then(|v| v.get("metrics")) {
                        self.note_shard_metrics(idx, m);
                    }
                }
            }
            Some(Pending::Hello) => {}
            Some(Pending::Promote) => self.finish_promotion(core, idx, line_ok(&line)),
        }
    }

    /// Updates the cached replication view (role, log_seq) of shard
    /// `idx` from a metrics object it reported — every probe and every
    /// metrics fanout keeps these fresh without extra traffic.
    fn note_shard_metrics(&mut self, idx: usize, metrics: &Value) {
        if let Some(role) = metrics.get("role").and_then(Value::as_str) {
            self.backends[idx].role = Some(role.to_string());
        }
        if let Some(seq) = metrics.get("log_seq").and_then(Value::as_u64) {
            self.backends[idx].log_seq = Some(seq);
        }
    }

    /// The `promote` ack arrived: on success the standby is the new
    /// primary — release the shard's parked traffic to it. On refusal
    /// (corrupt chain, bad auth) the parked requests cannot succeed;
    /// error them and leave the backend serving whatever it still can
    /// (reads on a still-follower engine), with errors scoped per
    /// request rather than per shard.
    fn finish_promotion(&mut self, core: &mut RCore, idx: usize, ok: bool) {
        self.backends[idx].promoting = None;
        let addr = self.backends[idx].addr.clone();
        if ok {
            self.backends[idx].healthy = true;
            self.backends[idx].backoff = self.config.reconnect_min;
            eprintln!(
                "{{\"event\":\"failover_promoted\",\"shard\":{idx},\"addr\":\"{}\",\"parked\":{}}}",
                json::escape(&addr),
                self.backends[idx].parked.len()
            );
            self.flush_parked(core, idx, None);
        } else {
            eprintln!(
                "{{\"event\":\"failover_promote_refused\",\"shard\":{idx},\"addr\":\"{}\"}}",
                json::escape(&addr)
            );
            self.flush_parked(
                core,
                idx,
                Some(format!(
                    "shard {idx} ({addr}) failover failed: promote refused"
                )),
            );
        }
    }

    /// Drains a shard's parked requests: forwards them in arrival order
    /// (`error: None`) or resolves each with `error`. If the connection
    /// dies mid-flush the remainder error too — a parked slot must
    /// never be dropped silently (the client would hang forever).
    fn flush_parked(&mut self, core: &mut RCore, idx: usize, error: Option<String>) {
        let parked: Vec<ParkedRequest> = self.backends[idx].parked.drain(..).collect();
        for p in parked {
            let lost = error.is_none() && self.backends[idx].conn.is_none();
            match (&error, lost) {
                (None, false) => {
                    self.backends[idx].routed += 1;
                    self.stats.forwarded += 1;
                    self.send_backend(
                        core,
                        idx,
                        &p.line,
                        Pending::Client {
                            client: p.client,
                            seq: p.seq,
                            id_part: p.id_part,
                        },
                    );
                }
                (None, true) => {
                    let msg = format!("shard {idx} ({}) connection lost", self.backends[idx].addr);
                    self.stats.refused += 1;
                    self.resolve_client_slot(
                        core,
                        p.client,
                        p.seq,
                        err_with_part(&p.id_part, &msg),
                    );
                }
                (Some(msg), _) => {
                    self.stats.refused += 1;
                    self.resolve_client_slot(core, p.client, p.seq, err_with_part(&p.id_part, msg));
                }
            }
        }
    }

    /// Tears down a backend connection: every in-flight request gets a
    /// protocol error (scoped to this shard's tenants — other shards
    /// are untouched), the fd is deregistered, and either a failover
    /// begins (standby configured) or a reconnect is scheduled with
    /// backoff. In-flight losses are counted (`inflight_failed`) so
    /// failover tests can assert errors ≤ in-flight at kill time.
    fn fail_backend(&mut self, core: &mut RCore, idx: usize) {
        let Some(mut conn) = self.backends[idx].conn.take() else {
            return;
        };
        let _ = core.poller().deregister(conn.io.fd());
        self.backends[idx].healthy = false;
        let addr = self.backends[idx].addr.clone();
        for (_sent, pending) in conn.inflight.drain(..) {
            match pending {
                Pending::Client {
                    client,
                    seq,
                    id_part,
                } => {
                    let msg = format!("shard {idx} ({addr}) connection lost");
                    self.stats.inflight_failed += 1;
                    self.resolve_client_slot(core, client, seq, err_with_part(&id_part, &msg));
                }
                Pending::Fanout { fanout } => self.fanout_piece(core, fanout, idx, None),
                Pending::Probe | Pending::Hello => {}
                // The promote ack died with the connection; `promoting`
                // stays set, so the next (re)connect re-issues it — the
                // op is idempotent on the engine.
                Pending::Promote => {}
            }
        }
        if !core.draining() {
            if self.backends[idx].promoting.is_none() {
                if let Some(standby) = self.backends[idx].standby.take() {
                    return self.begin_failover(idx, standby);
                }
            }
            self.schedule_reconnect(idx);
        }
    }

    /// The primary died with a standby configured: the standby address
    /// takes over the slot, a promotion window opens (new requests park
    /// instead of erroring), and the dial starts immediately. The dead
    /// primary's address is dropped — after promotion the standby *is*
    /// the shard; seeding a replacement standby is an operator action.
    fn begin_failover(&mut self, idx: usize, standby: String) {
        // The standby is about to become the primary: stop probing it
        // as a standby (its slot in the prober's address list empties).
        if let Some((state, _)) = &self.prober {
            state.addrs.lock().expect("prober addrs")[idx] = None;
            state.probes.lock().expect("prober probes")[idx] = StandbyProbe::default();
        }
        let old = std::mem::replace(&mut self.backends[idx].addr, standby);
        self.backends[idx].promoting = Some(Instant::now() + self.config.failover_timeout);
        self.backends[idx].failed_over = true;
        self.backends[idx].backoff = self.config.reconnect_min;
        self.backends[idx].next_attempt = Instant::now();
        eprintln!(
            "{{\"event\":\"failover_started\",\"shard\":{idx},\"dead\":\"{}\",\"standby\":\"{}\"}}",
            json::escape(&old),
            json::escape(&self.backends[idx].addr)
        );
        self.spawn_connector(idx);
    }

    /// Errors out parked requests whose failover window expired. The
    /// promotion itself keeps retrying — only the waiting clients give
    /// up, exactly as if the shard were down.
    fn tick_failovers(&mut self, core: &mut RCore) {
        let now = Instant::now();
        for idx in 0..self.backends.len() {
            let expired = self.backends[idx]
                .promoting
                .is_some_and(|deadline| now >= deadline)
                && !self.backends[idx].parked.is_empty();
            if expired {
                let msg = format!(
                    "shard {idx} ({}) failover timed out",
                    self.backends[idx].addr
                );
                self.flush_parked(core, idx, Some(msg));
            }
        }
    }

    fn update_backend_interest(&mut self, core: &mut RCore, idx: usize) {
        let Some(conn) = self.backends[idx].conn.as_mut() else {
            return;
        };
        let want = Interest {
            readable: true,
            writable: conn.io.buffered() > 0,
        };
        let token = HANDLER_TOKEN_BASE + idx as u64;
        if conn.io.set_interest(core.poller(), token, want).is_err() {
            self.fail_backend(core, idx);
        }
    }

    // ----- client side ------------------------------------------------

    fn handle_client_line(&mut self, core: &mut RCore, client: u64, line: &str) {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return;
        }
        let draining = core.draining();
        let Some(conn) = core.client_mut(client).map(|c| &mut c.state) else {
            return;
        };
        if draining {
            let (id, _) = freqywm_service::proto::plan(line);
            conn.push_ready(err_response(id.as_ref(), "router draining"));
            self.stats.refused += 1;
            return;
        }
        let req = match json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                conn.push_ready(err_response(None, &format!("bad json: {e}")));
                self.stats.refused += 1;
                return;
            }
        };
        let id = req.get("id").cloned();
        // Client-side auth gate, mirroring the engine Session's.
        if let Some(token) = &self.config.net.auth_token {
            if !conn.authed {
                let is_hello = req.get("op").and_then(Value::as_str) == Some("hello");
                if is_hello {
                    let presented = req.get("token").and_then(Value::as_str).unwrap_or("");
                    if token_eq(presented, token) {
                        conn.authed = true;
                        conn.push_ready(format!(
                            "{{\"ok\":true{},\"op\":\"hello\",\"authenticated\":true,\"router\":true}}",
                            id_echo(id.as_ref())
                        ));
                    } else {
                        conn.push_ready(err_response(id.as_ref(), "hello: bad auth token"));
                        self.stats.refused += 1;
                    }
                    return;
                }
                let presented = req.get("auth").and_then(Value::as_str);
                if !presented.is_some_and(|p| token_eq(p, token)) {
                    conn.push_ready(err_response(
                        id.as_ref(),
                        "authentication required: send {\"op\":\"hello\",\"token\":…} first",
                    ));
                    self.stats.refused += 1;
                    return;
                }
                // Per-request auth: this request proceeds, session
                // stays locked.
            }
        }
        match route_of(&req) {
            RouteInfo::Tenant(tenant) => {
                let shard = self.map.shard_of(&tenant);
                let line = ensure_trace(line, &req);
                self.forward(core, client, shard, &line, id.as_ref());
            }
            RouteInfo::TenantPair(a, b) => {
                let (sa, sb) = (self.map.shard_of(&a), self.map.shard_of(&b));
                if sa == sb {
                    let line = ensure_trace(line, &req);
                    self.forward(core, client, sa, &line, id.as_ref());
                } else {
                    let msg = format!(
                        "unroutable dispute: tenants {a:?} (shard {sa}) and {b:?} \
                         (shard {sb}) live on different shards"
                    );
                    conn.push_ready(err_response(id.as_ref(), &msg));
                    self.stats.refused += 1;
                }
            }
            RouteInfo::Broadcast => {
                // Broadcast ops fan out to every live shard; `trace`
                // and `history` must forward the client's own request
                // line (it carries filter/limit fields) where `metrics`
                // sends a canonical probe.
                let kind = match req.get("op").and_then(Value::as_str) {
                    Some("trace") => FanoutKind::Trace,
                    Some("history") => FanoutKind::History,
                    _ => FanoutKind::Metrics,
                };
                self.start_fanout(core, client, id.as_ref(), kind, line);
            }
            RouteInfo::Shutdown => {
                // Tier shutdown: drain the router AND take the backends
                // down; the ack lands once every live backend acked.
                // The fanout reserves the requester's response slot
                // FIRST — the drain closes settled clients, and the
                // requester must survive to receive the ack.
                self.start_fanout(core, client, id.as_ref(), FanoutKind::Shutdown, line);
                self.start_drain(core);
            }
            RouteInfo::Local => {
                conn.push_ready(format!(
                    "{{\"ok\":true{},\"op\":\"hello\",\"router\":true,\"shards\":{}}}",
                    id_echo(id.as_ref()),
                    self.map.len()
                ));
            }
            RouteInfo::Unroutable(msg) => {
                conn.push_ready(err_response(id.as_ref(), &msg));
                self.stats.refused += 1;
            }
        }
    }

    /// Forwards the raw request line to `shard`, reserving the client's
    /// next response slot. During a failover the request parks instead
    /// (released when the standby's promotion acks); a down shard with
    /// no failover in progress answers immediately with a protocol
    /// error — errors are scoped to the shard, never the tier.
    fn forward(
        &mut self,
        core: &mut RCore,
        client: u64,
        shard: usize,
        line: &str,
        id: Option<&Value>,
    ) {
        let id_part = id_echo(id);
        let Some(c) = core.client_mut(client) else {
            return;
        };
        let seq = c.state.push_pending();
        if let Some(deadline) = self.backends[shard].promoting {
            if Instant::now() < deadline && self.backends[shard].parked.len() < MAX_PARKED {
                self.backends[shard].parked.push_back(ParkedRequest {
                    client,
                    seq,
                    id_part,
                    line: line.to_string(),
                });
                return;
            }
            let msg = format!(
                "shard {shard} ({}) failover in progress",
                self.backends[shard].addr
            );
            self.resolve_client_slot(core, client, seq, err_with_part(&id_part, &msg));
            self.stats.refused += 1;
            return;
        }
        if self.backends[shard].conn.is_none() {
            let msg = format!("shard {shard} ({}) unavailable", self.backends[shard].addr);
            self.resolve_client_slot(core, client, seq, err_with_part(&id_part, &msg));
            self.stats.refused += 1;
            return;
        }
        self.backends[shard].routed += 1;
        self.stats.forwarded += 1;
        let pending = Pending::Client {
            client,
            seq,
            id_part,
        };
        self.send_backend(core, shard, line, pending);
    }

    fn start_fanout(
        &mut self,
        core: &mut RCore,
        client: u64,
        id: Option<&Value>,
        kind: FanoutKind,
        line: &str,
    ) {
        let id_part = id_echo(id);
        let Some(c) = core.client_mut(client) else {
            return;
        };
        let seq = c.state.push_pending();
        let connected: Vec<usize> = (0..self.backends.len())
            .filter(|&i| self.backends[i].conn.is_some())
            .collect();
        let fanout_id = self.next_fanout;
        self.next_fanout += 1;
        let request = match kind {
            FanoutKind::Metrics => "{\"op\":\"metrics\"}".to_string(),
            FanoutKind::Shutdown => "{\"op\":\"shutdown\"}".to_string(),
            // The shards need the client's filter/limit fields verbatim.
            FanoutKind::Trace | FanoutKind::History => line.to_string(),
        };
        self.fanouts.insert(
            fanout_id,
            Fanout {
                client,
                seq,
                id_part,
                kind,
                remaining: connected.len(),
                pieces: vec![None; self.backends.len()],
            },
        );
        for idx in connected {
            self.send_backend(core, idx, &request, Pending::Fanout { fanout: fanout_id });
        }
        self.try_finish_fanout(core, fanout_id);
    }

    fn fanout_piece(
        &mut self,
        core: &mut RCore,
        fanout_id: u64,
        shard: usize,
        line: Option<String>,
    ) {
        let Some(f) = self.fanouts.get_mut(&fanout_id) else {
            return;
        };
        if let Some(line) = line {
            f.pieces[shard] = json::parse(&line).ok();
        }
        f.remaining = f.remaining.saturating_sub(1);
        self.try_finish_fanout(core, fanout_id);
    }

    fn try_finish_fanout(&mut self, core: &mut RCore, fanout_id: u64) {
        let done = self
            .fanouts
            .get(&fanout_id)
            .is_some_and(|f| f.remaining == 0);
        if !done {
            return;
        }
        let f = self.fanouts.remove(&fanout_id).expect("checked above");
        let resp = match f.kind {
            FanoutKind::Shutdown => {
                // Honest ack: a backend that refused the shutdown op
                // (e.g. wrong --shard-auth-token), died before
                // answering, or had no live link to be sent it (down
                // or reconnecting) did NOT shut down — the router
                // still drains itself, but the client must not be told
                // the tier went down when it didn't.
                let unacked: Vec<String> = f
                    .pieces
                    .iter()
                    .enumerate()
                    .filter(|(_, piece)| {
                        piece
                            .as_ref()
                            .and_then(|v| v.get("ok"))
                            .and_then(Value::as_bool)
                            != Some(true)
                    })
                    .map(|(i, _)| i.to_string())
                    .collect();
                if unacked.is_empty() {
                    format!("{{\"ok\":true{},\"op\":\"shutdown\"}}", f.id_part)
                } else {
                    err_with_part(
                        &f.id_part,
                        &format!(
                            "router draining, but shutdown was not acknowledged by \
                             shard(s) {}",
                            unacked.join(", ")
                        ),
                    )
                }
            }
            FanoutKind::Trace => {
                // Merge the shards' span arrays into one timeline:
                // every span gains a "shard" field, and the whole list
                // is ordered by start time so interleaved stages from
                // different shards read chronologically.
                let mut spans: Vec<(u64, String)> = Vec::new();
                for (i, piece) in f.pieces.iter().enumerate() {
                    let Some(arr) = piece
                        .as_ref()
                        .and_then(|v| v.get("spans"))
                        .and_then(Value::as_arr)
                    else {
                        continue;
                    };
                    for span in arr {
                        if let Value::Obj(fields) = span {
                            let start = span
                                .get("start_us")
                                .and_then(Value::as_u64)
                                .unwrap_or(u64::MAX);
                            let mut fields = fields.clone();
                            fields.push(("shard".to_string(), Value::Num(i as f64)));
                            spans.push((start, json::write(&Value::Obj(fields))));
                        }
                    }
                }
                spans.sort_by_key(|(start, _)| *start);
                let rendered: Vec<String> = spans.into_iter().map(|(_, s)| s).collect();
                format!(
                    "{{\"ok\":true{},\"op\":\"trace\",\"router\":true,\"count\":{},\"spans\":[{}]}}",
                    f.id_part,
                    rendered.len(),
                    rendered.join(",")
                )
            }
            FanoutKind::History => {
                // Per-shard series, each the shard's own history
                // response tagged with its index — rates and samples
                // stay per-shard (summing histories across shards
                // would blur exactly the skew `top` wants to show).
                let mut series: Vec<String> = Vec::new();
                for (i, piece) in f.pieces.iter().enumerate() {
                    let Some(Value::Obj(fields)) = piece else {
                        continue;
                    };
                    let mut fields: Vec<(String, Value)> = fields
                        .iter()
                        .filter(|(k, _)| k != "ok" && k != "op" && k != "id")
                        .cloned()
                        .collect();
                    fields.insert(0, ("shard_index".to_string(), Value::Num(i as f64)));
                    series.push(json::write(&Value::Obj(fields)));
                }
                format!(
                    "{{\"ok\":true{},\"op\":\"history\",\"router\":true,\"series\":[{}]}}",
                    f.id_part,
                    series.join(",")
                )
            }
            FanoutKind::Metrics => {
                // Fresh metrics in hand: refresh each shard's cached
                // replication view before rendering the map.
                for i in 0..self.backends.len() {
                    if let Some(m) = f.pieces[i].as_ref().and_then(|v| v.get("metrics")).cloned() {
                        self.note_shard_metrics(i, &m);
                    }
                }
                let probes = self.standby_probes();
                let pieces: Vec<ShardMetricsPiece> = (0..self.backends.len())
                    .map(|i| ShardMetricsPiece {
                        index: i,
                        addr: self.backends[i].addr.clone(),
                        up: self.backends[i].conn.is_some(),
                        metrics: f.pieces[i].as_ref().and_then(|v| v.get("metrics").cloned()),
                    })
                    .collect();
                let shard_map: Vec<String> = self
                    .backends
                    .iter()
                    .enumerate()
                    .map(|(i, b)| {
                        let lat = b.latency.snapshot();
                        let standby = match &b.standby {
                            Some(s) => format!("\"{}\"", json::escape(s)),
                            None => "null".to_string(),
                        };
                        let role = match &b.role {
                            Some(r) => format!("\"{}\"", json::escape(r)),
                            None => "null".to_string(),
                        };
                        let num_or_null =
                            |v: Option<u64>| v.map_or("null".to_string(), |n| n.to_string());
                        format!(
                            concat!(
                                "{{\"shard\":{},\"addr\":\"{}\",\"up\":{},\"healthy\":{},",
                                "\"standby\":{},\"promoting\":{},\"failed_over\":{},",
                                "\"role\":{},\"log_seq\":{},\"standby_log_seq\":{},",
                                "\"repl_lag\":{},",
                                "\"routed\":{},\"latency\":{{\"count\":{},\"mean_us\":{:.0},",
                                "\"p50_us\":{},\"p99_us\":{}}}}}"
                            ),
                            i,
                            json::escape(&b.addr),
                            b.conn.is_some(),
                            b.healthy,
                            standby,
                            b.promoting.is_some(),
                            b.failed_over,
                            role,
                            num_or_null(b.log_seq),
                            num_or_null(probes.get(i).and_then(|p| p.log_seq)),
                            num_or_null(self.repl_lag(i, &probes)),
                            b.routed,
                            lat.count,
                            lat.mean_micros(),
                            lat.quantile_upper_micros(0.50),
                            lat.quantile_upper_micros(0.99),
                        )
                    })
                    .collect();
                format!(
                    concat!(
                        "{{\"ok\":true{},\"op\":\"metrics\",\"scheme\":\"jump\",",
                        "\"router\":{{\"clients_accepted\":{},\"clients_active\":{},",
                        "\"clients_rejected\":{},",
                        "\"forwarded\":{},\"refused\":{},\"inflight_failed\":{},",
                        "\"draining\":{}}},",
                        "\"shard_map\":[{}],\"metrics\":{}}}"
                    ),
                    f.id_part,
                    self.stats.accepted,
                    core.client_count(),
                    core.counters().rejected.load(Ordering::Relaxed),
                    self.stats.forwarded,
                    self.stats.refused,
                    self.stats.inflight_failed,
                    core.draining(),
                    shard_map.join(","),
                    aggregate_shard_metrics(&pieces),
                )
            }
        };
        self.resolve_client_slot(core, f.client, f.seq, resp);
    }

    fn resolve_client_slot(&mut self, core: &mut RCore, client: u64, seq: usize, resp: String) {
        // A miss: the client died before its response arrived.
        if let Some(c) = core.client_mut(client) {
            c.state.resolve(seq, resp);
            core.touch(client);
        }
    }

    /// Starts the core's drain (listeners close, client input freezes,
    /// clients close as they settle) and errors every parked request:
    /// with no reconnects or promotions during a drain they could never
    /// complete, and their clients must settle rather than hit the
    /// deadline.
    fn start_drain(&mut self, core: &mut RCore) {
        if core.draining() {
            return;
        }
        core.start_drain();
        for idx in 0..self.backends.len() {
            if !self.backends[idx].parked.is_empty() {
                self.flush_parked(core, idx, Some("router draining".to_string()));
            }
        }
    }
}

impl Handler for Router {
    type Client = ClientSlots;

    fn open(&mut self) -> ClientSlots {
        self.stats.accepted += 1;
        ClientSlots::default()
    }

    fn on_frame(&mut self, core: &mut RCore, client: u64, frame: LineEvent) {
        match frame {
            LineEvent::Line(line) => self.handle_client_line(core, client, &line),
            LineEvent::Oversized => {
                let resp = frame_too_large_response(core.config().max_frame);
                if let Some(c) = core.client_mut(client) {
                    c.state.push_ready(resp);
                }
            }
        }
    }

    /// Moves the maximal ready prefix of the client's slots into its
    /// write buffer.
    fn settle(&mut self, core: &mut RCore, client: u64) {
        let Some(c) = core.client_mut(client) else {
            return;
        };
        while let Some(CSlot::Ready(_)) = c.state.slots.front() {
            let Some(CSlot::Ready(resp)) = c.state.slots.pop_front() else {
                unreachable!("front checked above");
            };
            c.state.base += 1;
            c.io.queue(&resp);
        }
    }

    fn is_settled(client: &ClientSlots) -> bool {
        // Pending backend entries referencing a closed client stay in
        // their FIFOs (position is the correlation); their responses
        // are dropped at dispatch when the client lookup fails.
        client.slots.is_empty()
    }

    /// Backend shard `idx` polls under token `HANDLER_TOKEN_BASE + idx`.
    fn on_event(&mut self, core: &mut RCore, token: u64, ev: Event) {
        self.backend_ready(core, (token - HANDLER_TOKEN_BASE) as usize, ev);
    }

    fn tick(&mut self, core: &mut RCore) {
        self.drain_connector_results(core);
        if self.config.handle_signals && signal::drain_requested() {
            // Signal drain: router only. Backends stay up — the
            // shutdown op is the way to take the whole tier down.
            self.start_drain(core);
        }
        if !core.draining() {
            self.tick_reconnects();
            self.tick_probes(core);
        }
        self.tick_failovers(core);
    }

    /// Backend timers: reconnect attempts, idle probes and parked
    /// requests' failover deadlines, bounded by [`MAX_POLL`].
    fn timeout(&self) -> Option<Duration> {
        let now = Instant::now();
        let mut timeout = MAX_POLL;
        for b in &self.backends {
            if b.conn.is_none() && !b.connecting {
                timeout = timeout.min(b.next_attempt.saturating_duration_since(now));
            }
            if let Some(conn) = &b.conn {
                if conn.inflight.is_empty() {
                    let probe_at = conn.io.last_activity + self.config.probe_interval;
                    timeout = timeout.min(probe_at.saturating_duration_since(now));
                }
            }
            if let Some(deadline) = b.promoting {
                if !b.parked.is_empty() {
                    // Wake in time to error expired parked requests.
                    timeout = timeout.min(deadline.saturating_duration_since(now));
                }
            }
        }
        Some(timeout)
    }

    fn render_metrics(&self, core: &RCore) -> String {
        self.router_prom(core)
    }
}
