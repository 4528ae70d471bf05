//! Loopback tests for the HTTP `GET /metrics` scrape endpoint riding
//! on the protocol reactor (`freqywm serve --metrics-listen`).
#![cfg(unix)]

use freqywm_net::{serve_listener, Backend, NetConfig};
use freqywm_obs::prom::parse_exposition;
use freqywm_service::engine::{Engine, EngineConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn start_server() -> (
    Arc<Engine>,
    SocketAddr,
    SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let engine = Arc::new(Engine::start(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    }));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind protocol");
    let metrics = TcpListener::bind("127.0.0.1:0").expect("bind metrics");
    let addr = listener.local_addr().unwrap();
    let metrics_addr = metrics.local_addr().unwrap();
    let config = NetConfig {
        backend: Backend::Auto,
        ..NetConfig::default()
    };
    let server_engine = Arc::clone(&engine);
    let handle =
        std::thread::spawn(move || serve_listener(&server_engine, listener, Some(metrics), config));
    (engine, addr, metrics_addr, handle)
}

/// One blocking HTTP request; returns `(status_line, headers, body)`.
fn http_get(addr: SocketAddr, request: &str) -> (String, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect metrics");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header terminator");
    let (status, headers) = head.split_once("\r\n").unwrap_or((head, ""));
    (status.to_string(), headers.to_string(), body.to_string())
}

fn proto_request(addr: SocketAddr, line: &str) -> String {
    let stream = TcpStream::connect(addr).expect("connect protocol");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(line.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("read response");
    resp.trim_end().to_string()
}

#[test]
fn scrape_endpoint_serves_parser_valid_exposition() {
    let (engine, addr, metrics_addr, handle) = start_server();

    // Some traffic so the exposition carries non-trivial counters.
    let reg = proto_request(
        addr,
        r#"{"op":"register","tenant":"scrape","secret_label":"scrape-test"}"#,
    );
    assert!(reg.contains("\"ok\":true"), "{reg}");
    let counts: Vec<String> = (0..60)
        .map(|i| format!("[\"tk{i:03}\",{}]", 4_000 / (i + 1) + 7 * (60 - i)))
        .collect();
    let embed = proto_request(
        addr,
        &format!(
            r#"{{"op":"embed","tenant":"scrape","counts":[{}]}}"#,
            counts.join(",")
        ),
    );
    assert!(embed.contains("\"ok\":true"), "{embed}");

    let (status, headers, body) =
        http_get(metrics_addr, "GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(headers.contains("text/plain; version=0.0.4"), "{headers}");
    let families = parse_exposition(&body).expect("valid exposition");
    let find = |name: &str| {
        families
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("missing family {name}: {body}"))
    };
    let completed = find("freqywm_jobs_completed_total");
    assert_eq!(completed.kind, "counter");
    assert_eq!(completed.samples[0].value, 1.0);
    // Histogram consistency (monotone `le`, cumulative buckets,
    // `_sum`/`_count`) is enforced by `parse_exposition` itself; here
    // we just confirm the family came through as one.
    let latency = find("freqywm_request_duration_seconds");
    assert_eq!(latency.kind, "histogram");
    assert_eq!(
        latency
            .samples
            .iter()
            .filter(|s| s.name.ends_with("_count"))
            .count(),
        1
    );
    assert!(find("freqywm_net_accepted_total").samples[0].value >= 3.0);

    // Wrong target / method get proper statuses; the server survives.
    let (status, _, _) = http_get(metrics_addr, "GET /nope HTTP/1.1\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    let (status, _, _) = http_get(metrics_addr, "POST /metrics HTTP/1.1\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 405 Method Not Allowed");
    let (status, _, body) = http_get(metrics_addr, "GET /metrics?x=1 HTTP/1.1\r\n\r\n");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("freqywm_uptime_seconds"), "{body}");

    // The drain closes the scrape listener along with the protocol one.
    let bye = proto_request(addr, r#"{"op":"shutdown"}"#);
    assert!(bye.contains("\"ok\":true"), "{bye}");
    handle.join().unwrap().unwrap();
    engine.shutdown();
}
