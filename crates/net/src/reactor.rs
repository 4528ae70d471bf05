//! The reactor core: one thread multiplexing a protocol listener, an
//! optional scrape listener, a wake pipe and every client connection
//! over a [`Poller`]. Both socket front-ends run on it — `freqywm
//! serve` (engine clients) and `freqywm router` (clients plus backend
//! links) — and differ only in the [`Handler`] they plug in.
//!
//! The core owns everything about a connection except what its lines
//! mean:
//!
//! * accept with the connection cap, counting accepts and refusals;
//! * per-client [`LineConn`] I/O: budgeted framed reads, the ordered
//!   write buffer, slow-reader eviction and poller interest;
//! * client ids: every accepted connection gets a fresh id that is
//!   also its poll token, so an event queued for a connection that
//!   closed earlier in the same batch finds nothing — even when a new
//!   connection already reuses its fd;
//! * the `GET /metrics` scrape lifecycle ([`HttpConn`]), rendering
//!   through [`Handler::render_metrics`];
//! * idle reaping, merged poll timeouts, and the drain: listeners
//!   close, input freezes, clients close as they settle, and whatever
//!   is left is closed at the deadline.
//!
//! Per loop iteration: readiness events (accepts, client reads and
//! writes, scrape connections, handler-owned fds), then
//! [`Handler::tick`], then every touched client settles — the handler
//! moves ready output into its write buffer, the core flushes and
//! decides close or interest — then idle reaping and drain progress.

use crate::config::NetConfig;
use crate::conn::LineConn;
use crate::framing::LineEvent;
use crate::http::HttpConn;
use crate::poller::{Event, Interest, Poller};
use freqywm_service::metrics::NetCounters;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Poll tokens at or above this belong to the handler (the router's
/// backend links); the core routes their events to
/// [`Handler::on_event`]. Client ids stay below it.
pub const HANDLER_TOKEN_BASE: u64 = 1 << 62;

const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKE: u64 = u64::MAX - 1;
const TOKEN_SCRAPE_LISTENER: u64 = u64::MAX - 2;

/// A scrape connection that has sent no complete request for this long
/// is reaped even with no idle timeout configured: a half-open HTTP
/// request is dead weight, never a client waiting on work.
const HTTP_IDLE_DEFAULT: Duration = Duration::from_secs(10);

/// Upper bound on one drain-time poll wait, so the drain re-checks
/// progress promptly.
const DRAIN_POLL: Duration = Duration::from_millis(100);

/// Wakes the reactor from any thread: one byte down the wake pipe.
/// Cheap to clone; a full pipe already guarantees a wakeup.
#[derive(Clone)]
pub struct Waker(Arc<UnixStream>);

impl Waker {
    pub fn wake(&self) {
        let _ = (&*self.0).write(&[1]);
    }

    /// The pipe's write end, for async-signal-safe wakes.
    pub fn as_raw_fd(&self) -> RawFd {
        self.0.as_raw_fd()
    }
}

/// One client connection: the core's line I/O plus the handler's
/// protocol state.
pub struct Client<S> {
    pub io: LineConn,
    pub state: S,
}

/// What a front-end supplies to the core.
pub trait Handler {
    /// Per-client protocol state.
    type Client;

    /// State for a freshly accepted client.
    fn open(&mut self) -> Self::Client;

    /// One frame read from client `id` (`Oversized`: the line exceeded
    /// `max_frame` and was discarded).
    fn on_frame(&mut self, core: &mut Core<'_, Self::Client>, id: u64, frame: LineEvent);

    /// Client `id` was touched this iteration: move whatever output is
    /// ready, in order, into its write buffer.
    fn settle(&mut self, core: &mut Core<'_, Self::Client>, id: u64);

    /// Nothing in flight and nothing owed: the client may close once
    /// its buffer is flushed (on EOF or drain) or be idle-reaped.
    fn is_settled(client: &Self::Client) -> bool;

    /// The client is gone (EOF, error, eviction, idle, drain).
    fn closed(&mut self, _client: Self::Client) {}

    /// A readiness event on a handler-owned fd (token at or above
    /// [`HANDLER_TOKEN_BASE`]).
    fn on_event(&mut self, _core: &mut Core<'_, Self::Client>, _token: u64, _ev: Event) {}

    /// Once per loop iteration, after readiness events.
    fn tick(&mut self, _core: &mut Core<'_, Self::Client>) {}

    /// The handler's own next deadline, merged with the core's.
    fn timeout(&self) -> Option<Duration> {
        None
    }

    /// The Prometheus exposition served on `GET /metrics`.
    fn render_metrics(&self, core: &Core<'_, Self::Client>) -> String;
}

enum CloseKind {
    /// Normal end of life (drained, EOF, or forced at drain deadline).
    Done,
    /// I/O error.
    Error,
    /// Write backpressure cap exceeded.
    SlowEvicted,
    /// Idle timeout.
    IdleTimedOut,
}

pub struct Core<'a, S> {
    config: NetConfig,
    counters: &'a NetCounters,
    poller: Poller,
    /// `None` once draining (accepting stopped, socket closed).
    listener: Option<TcpListener>,
    /// HTTP `GET /metrics` listener; also closed by the drain.
    scrape_listener: Option<TcpListener>,
    wake_rx: UnixStream,
    waker: Waker,
    clients: HashMap<u64, Client<S>>,
    /// Scrape connections, keyed from the same id space as `clients`.
    scrapes: HashMap<u64, HttpConn>,
    next_id: u64,
    /// Clients to settle at the end of this iteration.
    touched: Vec<u64>,
    /// Drain deadline once a drain started.
    draining: Option<Instant>,
}

impl<'a, S> Core<'a, S> {
    /// Registers the listeners and the wake pipe. Connection gauges
    /// land in `counters`.
    pub fn new(
        listener: TcpListener,
        scrape_listener: Option<TcpListener>,
        config: NetConfig,
        counters: &'a NetCounters,
    ) -> io::Result<Self> {
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let mut poller = Poller::new(config.backend)?;
        for (l, token) in [
            (Some(&listener), TOKEN_LISTENER),
            (scrape_listener.as_ref(), TOKEN_SCRAPE_LISTENER),
        ] {
            if let Some(l) = l {
                l.set_nonblocking(true)?;
                poller.register(l.as_raw_fd(), token, Interest::READ)?;
            }
        }
        poller.register(wake_rx.as_raw_fd(), TOKEN_WAKE, Interest::READ)?;
        Ok(Core {
            config,
            counters,
            poller,
            listener: Some(listener),
            scrape_listener,
            wake_rx,
            waker: Waker(Arc::new(wake_tx)),
            clients: HashMap::new(),
            scrapes: HashMap::new(),
            next_id: 1,
            touched: Vec::new(),
            draining: None,
        })
    }

    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    pub fn counters(&self) -> &NetCounters {
        self.counters
    }

    /// The poller, for handler-owned fds (tokens from
    /// [`HANDLER_TOKEN_BASE`] up).
    pub fn poller(&mut self) -> &mut Poller {
        &mut self.poller
    }

    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }

    pub fn client_mut(&mut self, id: u64) -> Option<&mut Client<S>> {
        self.clients.get_mut(&id)
    }

    /// Connected protocol clients (scrape connections excluded).
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Schedules client `id` to settle at the end of this iteration.
    pub fn touch(&mut self, id: u64) {
        self.touched.push(id);
    }

    pub fn draining(&self) -> bool {
        self.draining.is_some()
    }

    /// Stops accepting on both listeners and freezes client input;
    /// clients finish their in-flight work and close as they settle.
    /// Idempotent.
    pub fn start_drain(&mut self) {
        if self.draining.is_some() {
            return;
        }
        self.draining = Some(Instant::now() + self.config.drain_timeout);
        for listener in [self.listener.take(), self.scrape_listener.take()]
            .into_iter()
            .flatten()
        {
            let _ = self.poller.deregister(listener.as_raw_fd());
        }
        self.touched.extend(self.clients.keys().copied());
    }

    /// Runs the loop until a drain completes (every connection closed)
    /// or hits its deadline.
    pub fn run<H: Handler<Client = S>>(&mut self, handler: &mut H) -> io::Result<()> {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let timeout = match (self.timeout::<H>(), handler.timeout()) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            self.poller.wait(&mut events, timeout)?;
            for &ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept(false, handler),
                    TOKEN_SCRAPE_LISTENER => self.accept(true, handler),
                    TOKEN_WAKE => self.drain_wake(),
                    t if t >= HANDLER_TOKEN_BASE => handler.on_event(self, t, ev),
                    id if self.scrapes.contains_key(&id) => self.scrape_event(id, ev, handler),
                    id => self.client_event(id, ev, handler),
                }
            }
            handler.tick(self);
            while !self.touched.is_empty() {
                let mut ids = std::mem::take(&mut self.touched);
                ids.sort_unstable();
                ids.dedup();
                for id in ids {
                    self.settle(id, handler);
                }
            }
            self.reap_idle(handler);
            if let Some(deadline) = self.draining {
                if self.clients.is_empty() && self.scrapes.is_empty() {
                    return Ok(());
                }
                if Instant::now() >= deadline {
                    for id in self.clients.keys().copied().collect::<Vec<_>>() {
                        self.close(id, CloseKind::Done, handler);
                    }
                    for id in self.scrapes.keys().copied().collect::<Vec<_>>() {
                        self.close_scrape(id);
                    }
                    return Ok(());
                }
            }
        }
    }

    /// Accepts everything pending on one listener. Protocol clients
    /// are capped at `max_conns`; scrape connections share that cap
    /// with them, so a scrape storm cannot take more slots than any
    /// other connection flood could.
    fn accept<H: Handler<Client = S>>(&mut self, scrape: bool, handler: &mut H) {
        loop {
            let listener = if scrape {
                &self.scrape_listener
            } else {
                &self.listener
            };
            let Some(listener) = listener else {
                return;
            };
            let stream = match listener.accept() {
                Ok((stream, _addr)) => stream,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // WouldBlock: all taken. ECONNABORTED and friends:
                // transient, keep serving.
                Err(_) => return,
            };
            let open = self.clients.len() + if scrape { self.scrapes.len() } else { 0 };
            if open >= self.config.max_conns {
                self.counters.conn_rejected();
                continue; // dropped: peer sees an immediate close
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let id = self.next_id;
            if self
                .poller
                .register(stream.as_raw_fd(), id, Interest::READ)
                .is_err()
            {
                continue;
            }
            self.next_id += 1;
            self.counters.conn_accepted();
            if scrape {
                self.scrapes.insert(id, HttpConn::new(stream));
            } else {
                let io = LineConn::new(stream, self.config.max_frame, true);
                let state = handler.open();
                self.clients.insert(id, Client { io, state });
            }
        }
    }

    fn drain_wake(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            match (&self.wake_rx).read(&mut buf) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn client_event<H: Handler<Client = S>>(&mut self, id: u64, ev: Event, handler: &mut H) {
        let draining = self.draining.is_some();
        // A miss is a stale event for a client closed earlier in this
        // batch: ids are never reused.
        let Some(c) = self.clients.get_mut(&id) else {
            return;
        };
        let mut frames = Vec::new();
        if ev.readable && !c.io.eof && !draining {
            self.counters
                .add_bytes_in(c.io.read_ready(|frame| frames.push(frame)));
        } else if ev.hangup {
            // Input is being ignored (drain); a hangup still means the
            // peer is gone.
            c.io.eof = true;
        }
        if ev.writable && !c.io.failed {
            self.counters.add_bytes_out(c.io.flush());
        }
        for frame in frames {
            handler.on_frame(self, id, frame);
        }
        self.touched.push(id);
    }

    /// Lets the handler queue output, flushes, then applies lifecycle
    /// policy: close on error, evict past the write-buffer cap, close
    /// once settled after EOF or during a drain, else update interest.
    fn settle<H: Handler<Client = S>>(&mut self, id: u64, handler: &mut H) {
        if !self.clients.contains_key(&id) {
            return;
        }
        handler.settle(self, id);
        let draining = self.draining.is_some();
        let Some(c) = self.clients.get_mut(&id) else {
            return;
        };
        if !c.io.failed {
            self.counters.add_bytes_out(c.io.flush());
        }
        let kind = if c.io.failed {
            Some(CloseKind::Error)
        } else if c.io.buffered() > self.config.max_write_buffer {
            Some(CloseKind::SlowEvicted)
        } else if (c.io.eof || draining) && c.io.buffered() == 0 && H::is_settled(&c.state) {
            Some(CloseKind::Done)
        } else {
            let want = Interest {
                readable: !c.io.eof && !draining,
                writable: c.io.buffered() > 0,
            };
            c.io.set_interest(&mut self.poller, id, want)
                .err()
                .map(|_| CloseKind::Error)
        };
        if let Some(kind) = kind {
            self.close(id, kind, handler);
        }
    }

    fn close<H: Handler<Client = S>>(&mut self, id: u64, kind: CloseKind, handler: &mut H) {
        let Some(c) = self.clients.remove(&id) else {
            return;
        };
        let _ = self.poller.deregister(c.io.fd());
        match kind {
            CloseKind::SlowEvicted => self.counters.conn_evicted_slow(),
            CloseKind::IdleTimedOut => self.counters.conn_timed_out_idle(),
            CloseKind::Done | CloseKind::Error => {}
        }
        self.counters.conn_closed();
        handler.closed(c.state);
        // Dropping `c.io` closes the socket.
    }

    /// One readiness event on a scrape connection: read the request
    /// head, render, flush, close once the single response is out.
    fn scrape_event<H: Handler<Client = S>>(&mut self, id: u64, ev: Event, handler: &H) {
        // Out of the map while the handler renders, so the render sees
        // the whole core.
        let Some(mut conn) = self.scrapes.remove(&id) else {
            return;
        };
        if ev.readable && !conn.responded {
            let core = &*self;
            let n = conn.read_ready(|| handler.render_metrics(core));
            self.counters.add_bytes_in(n);
        } else if ev.hangup {
            conn.failed = true;
        }
        if ev.writable || conn.responded {
            self.counters.add_bytes_out(conn.flush());
        }
        let want = Interest {
            readable: !conn.responded,
            writable: conn.buffered() > 0,
        };
        let keep = !conn.failed
            && !conn.settled()
            && (want == conn.interest || self.poller.modify(conn.fd(), id, want).is_ok());
        if keep {
            conn.interest = want;
            self.scrapes.insert(id, conn);
        } else {
            let _ = self.poller.deregister(conn.fd());
            self.counters.conn_closed();
        }
    }

    fn close_scrape(&mut self, id: u64) {
        if let Some(conn) = self.scrapes.remove(&id) {
            let _ = self.poller.deregister(conn.fd());
            self.counters.conn_closed();
        }
    }

    fn http_idle(&self) -> Duration {
        self.config.idle_timeout.unwrap_or(HTTP_IDLE_DEFAULT)
    }

    fn reapable<H: Handler<Client = S>>(c: &Client<S>) -> bool {
        H::is_settled(&c.state) && c.io.buffered() == 0 && !c.io.failed
    }

    /// Closes scrape connections idle past their bound and — with an
    /// idle timeout configured — settled clients idle past it. A client
    /// waiting on work or with unflushed output is busy, not idle.
    fn reap_idle<H: Handler<Client = S>>(&mut self, handler: &mut H) {
        let now = Instant::now();
        let http_idle = self.http_idle();
        let expired: Vec<u64> = self
            .scrapes
            .iter()
            .filter(|(_, c)| now.duration_since(c.last_activity) >= http_idle)
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            self.counters.conn_timed_out_idle();
            self.close_scrape(id);
        }
        let Some(idle) = self.config.idle_timeout else {
            return;
        };
        let expired: Vec<u64> = self
            .clients
            .iter()
            .filter(|(_, c)| {
                Self::reapable::<H>(c) && now.duration_since(c.io.last_activity) >= idle
            })
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            self.close(id, CloseKind::IdleTimedOut, handler);
        }
    }

    /// The core's next deadline: drain progress and the earliest idle
    /// expiry. `None` (block until I/O) when neither applies — a fleet
    /// of idle connections costs zero wakeups.
    fn timeout<H: Handler<Client = S>>(&self) -> Option<Duration> {
        let now = Instant::now();
        let mut timeout = self
            .draining
            .map(|deadline| deadline.saturating_duration_since(now).min(DRAIN_POLL));
        let mut until = |at: Instant| {
            let d = at.saturating_duration_since(now);
            timeout = Some(timeout.map_or(d, |t| t.min(d)));
        };
        if let Some(idle) = self.config.idle_timeout {
            let clients = self.clients.values().filter(|c| Self::reapable::<H>(c));
            if let Some(earliest) = clients.map(|c| c.io.last_activity).min() {
                until(earliest + idle);
            }
        }
        if let Some(earliest) = self.scrapes.values().map(|c| c.last_activity).min() {
            until(earliest + self.http_idle());
        }
        timeout
    }
}
