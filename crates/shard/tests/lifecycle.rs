//! One connection-lifecycle suite for both socket front-ends. `freqywm
//! serve` and `freqywm router` run on the same reactor core, so every
//! case here runs twice — once against an engine behind
//! `serve_listener`, once against a router in front of one such engine
//! — and must hold for both.
#![cfg(unix)]

use freqywm_net::{serve_listener, NetConfig};
use freqywm_service::engine::{Engine, EngineConfig};
use freqywm_service::proto::json;
use freqywm_shard::{run_router, RouterConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FrontEnd {
    Serve,
    Router,
}

/// A running front-end: the protocol and scrape addresses clients see,
/// plus whatever stands behind them.
struct Tier {
    front: FrontEnd,
    addr: SocketAddr,
    metrics_addr: SocketAddr,
    server: JoinHandle<std::io::Result<()>>,
    /// The router's backend (router only).
    backend: Option<JoinHandle<std::io::Result<()>>>,
    engine: Arc<Engine>,
}

fn spawn_serve(
    engine: &Arc<Engine>,
    metrics: Option<TcpListener>,
    net: NetConfig,
) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let engine = Arc::clone(engine);
    let handle = std::thread::spawn(move || serve_listener(&engine, listener, metrics, net));
    (addr, handle)
}

/// Starts `front` with `net` as its client-facing configuration and a
/// scrape listener.
fn start(front: FrontEnd, net: NetConfig) -> Tier {
    let engine = Arc::new(Engine::start(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    }));
    let metrics = TcpListener::bind("127.0.0.1:0").expect("bind metrics");
    let metrics_addr = metrics.local_addr().unwrap();
    let (addr, server, backend) = match front {
        FrontEnd::Serve => {
            let (addr, server) = spawn_serve(&engine, Some(metrics), net);
            (addr, server, None)
        }
        FrontEnd::Router => {
            let (backend_addr, backend) = spawn_serve(&engine, None, NetConfig::default());
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
            let addr = listener.local_addr().unwrap();
            let mut config = RouterConfig::new(vec![backend_addr.to_string()]);
            config.net = net;
            let server = std::thread::spawn(move || run_router(listener, Some(metrics), config));
            (addr, server, Some(backend))
        }
    };
    let tier = Tier {
        front,
        addr,
        metrics_addr,
        server,
        backend,
        engine,
    };
    if front == FrontEnd::Router {
        tier.wait_for_backend();
    }
    tier
}

impl Tier {
    /// The router dials its backend asynchronously; wait until it is up
    /// so forwarded requests do not fail fast.
    fn wait_for_backend(&self) {
        let mut c = Client::connect(self.addr);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let m = json::parse(&c.request(r#"{"op":"metrics"}"#)).expect("metrics");
            let up = m.get("metrics").and_then(|m| m.get("shards_up")?.as_u64());
            if up == Some(1) {
                return;
            }
            assert!(Instant::now() < deadline, "backend never came up");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Sends `line` on a fresh connection and returns it with the
    /// response. Under a tight connection cap a slot frees only once
    /// the front-end has seen the previous holder close, so a refused
    /// connection (closed unanswered, `line` never read) is retried.
    fn admitted_request(&self, line: &str) -> (Client, String) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let mut c = Client::connect(self.addr);
            let _ = c.writer.write_all(format!("{line}\n").as_bytes());
            let mut resp = String::new();
            if c.reader.read_line(&mut resp).is_ok_and(|n| n > 0) {
                return (c, resp);
            }
            assert!(Instant::now() < deadline, "no connection slot freed");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Connections refused at the cap, as the front-end reports them.
    fn rejected(&self, c: &mut Client) -> u64 {
        let m = json::parse(&c.request(r#"{"op":"metrics"}"#)).expect("metrics");
        let counter = match self.front {
            FrontEnd::Serve => m.get("metrics").and_then(|m| m.get("net")?.get("rejected")),
            FrontEnd::Router => m.get("router").and_then(|r| r.get("clients_rejected")),
        };
        counter
            .and_then(json::Value::as_u64)
            .expect("rejected counter")
    }

    /// A `shutdown` op drains the front-end (and, through a router, its
    /// backend); every thread must exit cleanly.
    fn shut_down(self) -> (SocketAddr, SocketAddr) {
        let (_c, ack) = self.admitted_request(r#"{"op":"shutdown"}"#);
        assert!(ack.contains("\"op\":\"shutdown\""), "{ack}");
        self.server.join().unwrap().expect("front-end drains");
        if let Some(backend) = self.backend {
            backend.join().unwrap().expect("backend drains");
        }
        self.engine.shutdown();
        (self.addr, self.metrics_addr)
    }
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn request(&mut self, line: &str) -> String {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.recv()
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "connection closed while awaiting a response");
        line.trim_end().to_string()
    }
}

/// True once the peer closed the stream (EOF or reset) within 10 s.
fn closed_by_peer(stream: &mut TcpStream) -> bool {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 256];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return true,
            Ok(_) => continue,
            Err(e) => return e.kind() == std::io::ErrorKind::ConnectionReset,
        }
    }
}

fn over_cap_connection_is_refused_and_counted(front: FrontEnd) {
    let tier = start(
        front,
        NetConfig {
            max_conns: 1,
            ..NetConfig::default()
        },
    );
    let (mut held, _) = tier.admitted_request(r#"{"op":"metrics"}"#);
    let before = tier.rejected(&mut held);
    let mut extra = TcpStream::connect(tier.addr).expect("connect");
    assert!(closed_by_peer(&mut extra), "over-cap connection was served");
    assert_eq!(tier.rejected(&mut held), before + 1);
    drop(held);
    tier.shut_down();
}

fn oversized_frame_gets_one_error_and_connection_stays_usable(front: FrontEnd) {
    let tier = start(
        front,
        NetConfig {
            max_frame: 256,
            ..NetConfig::default()
        },
    );
    let mut c = Client::connect(tier.addr);
    let big = format!("{{\"op\":\"metrics\",\"pad\":\"{}\"}}", "x".repeat(4096));
    let r = c.request(&big);
    assert!(r.contains("\"ok\":false"), "{r}");
    assert!(r.contains("frame exceeds 256 bytes"), "{r}");
    let r = c.request(r#"{"op":"metrics","id":"after"}"#);
    assert!(
        r.contains("\"ok\":true") && r.contains("\"id\":\"after\""),
        "{r}"
    );
    tier.shut_down();
}

fn deeply_nested_json_is_bad_json_not_a_crash(front: FrontEnd) {
    let tier = start(front, NetConfig::default());
    let mut c = Client::connect(tier.addr);
    // ~200 KB, under the default 1 MiB frame cap, parsed before auth.
    let deep = "[".repeat(100_000) + &"]".repeat(100_000);
    let r = c.request(&deep);
    assert!(r.contains("\"ok\":false") && r.contains("bad json"), "{r}");
    let r = c.request(r#"{"op":"metrics","id":"after"}"#);
    assert!(
        r.contains("\"ok\":true") && r.contains("\"id\":\"after\""),
        "{r}"
    );
    tier.shut_down();
}

fn final_frame_without_newline_is_served_at_eof(front: FrontEnd) {
    let tier = start(front, NetConfig::default());
    let mut c = Client::connect(tier.addr);
    c.writer
        .write_all(br#"{"op":"metrics","id":"tail"}"#)
        .unwrap();
    c.writer.shutdown(std::net::Shutdown::Write).unwrap();
    let r = c.recv();
    assert!(
        r.contains("\"ok\":true") && r.contains("\"id\":\"tail\""),
        "{r}"
    );
    let mut rest = String::new();
    c.reader.read_to_string(&mut rest).expect("read to EOF");
    assert!(rest.is_empty(), "{rest}");
    tier.shut_down();
}

fn slow_reader_is_evicted(front: FrontEnd) {
    let tier = start(
        front,
        NetConfig {
            max_write_buffer: 64 * 1024,
            ..NetConfig::default()
        },
    );
    // Pumps requests and never reads a response: once its unread
    // output passes the cap the front-end must close it. `hello` is
    // answered by the front-end itself, so a router's backend never
    // sees the flood.
    let mut slow = TcpStream::connect(tier.addr).expect("connect");
    slow.set_nonblocking(true).unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match slow.write(b"{\"op\":\"hello\"}\n") {
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            // Reset / broken pipe: evicted.
            Err(_) => break,
        }
        assert!(Instant::now() < deadline, "slow reader never evicted");
    }
    // Everyone else is unaffected.
    let mut c = Client::connect(tier.addr);
    let r = c.request(r#"{"op":"metrics"}"#);
    assert!(r.contains("\"ok\":true"), "{r}");
    if front == FrontEnd::Serve {
        assert!(tier.engine.metrics().net.evicted_slow >= 1);
    }
    tier.shut_down();
}

fn idle_scrape_connection_is_reaped(front: FrontEnd) {
    let tier = start(
        front,
        NetConfig {
            idle_timeout: Some(Duration::from_millis(200)),
            ..NetConfig::default()
        },
    );
    // Half a request head, then silence.
    let mut scrape = TcpStream::connect(tier.metrics_addr).expect("connect metrics");
    scrape.write_all(b"GET /metr").unwrap();
    let started = Instant::now();
    assert!(closed_by_peer(&mut scrape), "idle scrape never reaped");
    assert!(started.elapsed() >= Duration::from_millis(150));
    tier.shut_down();
}

fn drain_closes_both_listeners(front: FrontEnd) {
    let tier = start(front, NetConfig::default());
    // A finished scrape first: the scrape side is live until the drain.
    let mut scrape = TcpStream::connect(tier.metrics_addr).expect("connect metrics");
    scrape.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
    let mut raw = String::new();
    scrape.read_to_string(&mut raw).expect("scrape");
    assert!(raw.starts_with("HTTP/1.1 200 OK"), "{raw}");
    let (addr, metrics_addr) = tier.shut_down();
    assert!(
        TcpStream::connect(addr).is_err(),
        "protocol listener survived"
    );
    assert!(
        TcpStream::connect(metrics_addr).is_err(),
        "scrape listener survived"
    );
}

/// Runs each case once per front-end, as `<case>::serve` and
/// `<case>::router`.
macro_rules! for_both_front_ends {
    ($($case:ident),* $(,)?) => {$(
        mod $case {
            #[test]
            fn serve() {
                super::$case(super::FrontEnd::Serve);
            }

            #[test]
            fn router() {
                super::$case(super::FrontEnd::Router);
            }
        }
    )*};
}

for_both_front_ends!(
    over_cap_connection_is_refused_and_counted,
    oversized_frame_gets_one_error_and_connection_stays_usable,
    deeply_nested_json_is_bad_json_not_a_crash,
    final_frame_without_newline_is_served_at_eof,
    slow_reader_is_evicted,
    idle_scrape_connection_is_reaped,
    drain_closes_both_listeners,
);
