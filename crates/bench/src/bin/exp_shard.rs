//! Sharded-tier throughput: 1 vs 2 vs 4 local engine shards behind the
//! consistent-hash router, under a detect-heavy multi-tenant mix.
//!
//! Each configuration is a full in-process tier over real TCP: N
//! engines (2 workers each) behind `freqywm-net` reactors, one router
//! in front, C concurrent clients each cycling synchronous detects
//! across a pool of tenants (plus the occasional maintain, ~1:32, so
//! the mix is not read-only). Reported: requests/sec and the
//! client-observed p50/p99 round trip. Detects for different tenants
//! pipeline across shards, so throughput should scale with shard count
//! until the router thread or the client count saturates.
//!
//! ```sh
//! cargo run --release -p freqywm-bench --bin exp_shard
//! ```

use freqywm_bench::{
    json_obj, json_out_path, print_header, print_row, write_json_report, zipf_hist,
};
use freqywm_net::{serve_listener, NetConfig};
use freqywm_service::engine::{Engine, EngineConfig, ShardGate};
use freqywm_shard::{run_router, tenant_shard, RouterConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TENANTS: usize = 32;
const CLIENTS: usize = 8;
const DETECTS_PER_CLIENT: usize = 160;
const TOKENS: usize = 120;

fn counts_json(hist: &freqywm_data::histogram::Histogram) -> String {
    let entries: Vec<String> = hist
        .entries()
        .iter()
        .map(|(t, c)| format!("[\"{}\",{}]", t.as_str(), c))
        .collect();
    format!("[{}]", entries.join(","))
}

struct Tier {
    engines: Vec<Arc<Engine>>,
    backend_handles: Vec<std::thread::JoinHandle<std::io::Result<()>>>,
    router_handle: std::thread::JoinHandle<std::io::Result<()>>,
    router_addr: SocketAddr,
}

fn start_tier(shards: usize) -> Tier {
    let mut engines = Vec::new();
    let mut backend_handles = Vec::new();
    let mut addrs = Vec::new();
    for i in 0..shards {
        let engine = Arc::new(Engine::start(EngineConfig {
            workers: 2,
            queue_capacity: 8192,
            shard_gate: Some(ShardGate::new(format!("{i}/{shards}"), move |t| {
                tenant_shard(t, shards) == i
            })),
            ..EngineConfig::default()
        }));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind backend");
        addrs.push(listener.local_addr().unwrap().to_string());
        let server_engine = Arc::clone(&engine);
        backend_handles.push(std::thread::spawn(move || {
            serve_listener(&server_engine, listener, None, NetConfig::default())
        }));
        engines.push(engine);
    }
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind router");
    let router_addr = listener.local_addr().unwrap();
    let config = RouterConfig::new(addrs);
    let router_handle = std::thread::spawn(move || run_router(listener, None, config));
    Tier {
        engines,
        backend_handles,
        router_handle,
        router_addr,
    }
}

fn request(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, line: &str) -> String {
    writer.write_all(line.as_bytes()).unwrap();
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    resp
}

fn connect(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    (BufReader::new(stream.try_clone().unwrap()), stream)
}

fn bench_tier(shards: usize) -> (f64, f64, f64) {
    let tier = start_tier(shards);
    let (mut reader, mut writer) = connect(tier.router_addr);

    // Wait for every shard to come up, then onboard the tenant pool.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let m = request(&mut reader, &mut writer, "{\"op\":\"metrics\"}\n");
        if m.contains(&format!("\"shards_up\":{shards}")) {
            break;
        }
        assert!(Instant::now() < deadline, "tier never came up: {m}");
        std::thread::sleep(Duration::from_millis(20));
    }
    let hist = zipf_hist(0.6, TOKENS, 150_000);
    let counts = counts_json(&hist);
    for i in 0..TENANTS {
        let t = format!("bench-{i:03}");
        let r = request(
            &mut reader,
            &mut writer,
            &format!("{{\"op\":\"register\",\"tenant\":\"{t}\",\"secret_label\":\"shard-{t}\"}}\n"),
        );
        assert!(r.contains("\"ok\":true"), "register: {r}");
        let r = request(
            &mut reader,
            &mut writer,
            &format!("{{\"op\":\"embed\",\"tenant\":\"{t}\",\"z\":101,\"counts\":{counts}}}\n"),
        );
        assert!(r.contains("chosen_pairs"), "embed: {r}");
    }

    // Detect-heavy mix: each client cycles the tenant pool, with a
    // maintain every 32 requests.
    let started = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let counts = counts.clone();
            let addr = tier.router_addr;
            std::thread::spawn(move || {
                let (mut reader, mut writer) = connect(addr);
                let mut latencies = Vec::with_capacity(DETECTS_PER_CLIENT);
                for i in 0..DETECTS_PER_CLIENT {
                    let tenant = format!("bench-{:03}", (c * 7 + i) % TENANTS);
                    let line = if i % 32 == 31 {
                        format!(
                            "{{\"op\":\"maintain\",\"tenant\":\"{tenant}\",\"updates\":[[\"tok0\",3]]}}\n"
                        )
                    } else {
                        format!(
                            "{{\"op\":\"detect\",\"tenant\":\"{tenant}\",\"t\":2,\"k\":1,\"counts\":{counts}}}\n"
                        )
                    };
                    let t0 = Instant::now();
                    let r = request(&mut reader, &mut writer, &line);
                    assert!(r.contains("\"ok\":true"), "{r}");
                    latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let wall = started.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let q = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];
    let rps = (CLIENTS * DETECTS_PER_CLIENT) as f64 / wall;

    // Tier drain: one shutdown op takes everything down.
    let ack = request(&mut reader, &mut writer, "{\"op\":\"shutdown\"}\n");
    assert!(ack.contains("\"op\":\"shutdown\""), "{ack}");
    tier.router_handle.join().unwrap().expect("router");
    for h in tier.backend_handles {
        h.join().unwrap().expect("backend");
    }
    for e in tier.engines {
        e.shutdown();
    }
    (rps, q(0.50), q(0.99))
}

fn main() {
    println!(
        "# exp_shard — router tier over N local engine shards \
         ({TENANTS} tenants, {CLIENTS} clients × {DETECTS_PER_CLIENT} reqs, detect-heavy)"
    );
    let widths = [8usize, 10, 12, 12, 12];
    print_header(&["shards", "clients", "req/s", "p50 ms", "p99 ms"], &widths);
    let mut rows = Vec::new();
    for &shards in &[1usize, 2, 4] {
        let (rps, p50, p99) = bench_tier(shards);
        print_row(
            &[
                shards.to_string(),
                CLIENTS.to_string(),
                format!("{rps:.0}"),
                format!("{p50:.3}"),
                format!("{p99:.3}"),
            ],
            &widths,
        );
        rows.push(json_obj(&[
            ("shards", shards.to_string()),
            ("clients", CLIENTS.to_string()),
            ("req_per_sec", format!("{rps:.1}")),
            ("p50_ms", format!("{p50:.3}")),
            ("p99_ms", format!("{p99:.3}")),
        ]));
    }
    if let Some(path) = json_out_path() {
        write_json_report(&path, "exp_shard", &rows);
    }
}
