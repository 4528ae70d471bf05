//! Multi-process sharding end-to-end: the real `freqywm router` binary
//! in front of two real `freqywm serve --listen --shard-id --data-dir`
//! backends, 50 tenants of mixed embed/detect traffic, one backend
//! killed mid-flight, a tier drain, and post-mortem verification that
//! each shard's data-dir holds exactly its own tenants.
#![cfg(unix)]

use freqywm_shard::tenant_shard;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const TENANTS: usize = 50;
const THREADS: usize = 10;

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn request(&mut self, line: &str) -> String {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        let mut resp = String::new();
        let n = self.reader.read_line(&mut resp).expect("read response");
        assert!(n > 0, "server closed mid-request");
        resp.trim_end().to_string()
    }
}

fn counts_json(n: usize) -> String {
    let entries: Vec<String> = (0..n)
        .map(|i| format!("[\"tok{i:02}\",{}]", 2_000 / (i + 1) + 3 * (n - i)))
        .collect();
    format!("[{}]", entries.join(","))
}

fn read_announcement(child: &mut Child) -> SocketAddr {
    let stdout = child.stdout.take().expect("captured stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read announcement");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
        .parse()
        .expect("parse bound address");
    // Keep draining stdout (shard-map log lines etc.) so the child
    // never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        let _ = reader.read_to_string(&mut sink);
    });
    addr
}

fn spawn_backend(shard: usize, of: usize, data_dir: &str) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_freqywm"))
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--queue",
            "4096",
            "--data-dir",
            data_dir,
            "--shard-id",
            &format!("{shard}/{of}"),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn freqywm serve shard");
    let addr = read_announcement(&mut child);
    (child, addr)
}

fn spawn_router(shard_addrs: &[SocketAddr]) -> (Child, SocketAddr) {
    let mut args = vec![
        "router".to_string(),
        "--listen".to_string(),
        "127.0.0.1:0".to_string(),
    ];
    for a in shard_addrs {
        args.push("--shard".to_string());
        args.push(a.to_string());
    }
    let mut child = Command::new(env!("CARGO_BIN_EXE_freqywm"))
        .args(&args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn freqywm router");
    let addr = read_announcement(&mut child);
    (child, addr)
}

fn run_cli(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_freqywm"))
        .args(args)
        .output()
        .expect("run freqywm");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn tmp_dir(name: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("freqywm-router-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p.to_string_lossy().into_owned()
}

fn tenant_name(i: usize) -> String {
    format!("tenant-{i:03}")
}

/// Backends connect asynchronously; wait until the router reports every
/// shard live.
fn wait_until_shards_up(c: &mut Client, want: usize) {
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let m = c.request(r#"{"op":"metrics"}"#);
        if m.contains(&format!("\"shards_up\":{want}")) {
            return;
        }
        assert!(Instant::now() < deadline, "shards never came up: {m}");
        std::thread::sleep(Duration::from_millis(30));
    }
}

#[test]
fn two_shard_deployment_serves_50_tenants_survives_a_kill_and_drains() {
    let dir0 = tmp_dir("shard0");
    let dir1 = tmp_dir("shard1");
    let (mut backend0, addr0) = spawn_backend(0, 2, &dir0);
    let (mut backend1, addr1) = spawn_backend(1, 2, &dir1);
    let (mut router, router_addr) = spawn_router(&[addr0, addr1]);

    let mut admin = Client::connect(router_addr);
    wait_until_shards_up(&mut admin, 2);

    // 50 tenants of mixed traffic through concurrent client
    // connections — the workload never names a shard.
    let workers: Vec<_> = (0..THREADS)
        .map(|w| {
            std::thread::spawn(move || {
                let mut c = Client::connect(router_addr);
                for i in (w * TENANTS / THREADS)..((w + 1) * TENANTS / THREADS) {
                    let t = tenant_name(i);
                    let r = c.request(&format!(
                        "{{\"op\":\"register\",\"tenant\":\"{t}\",\"secret_label\":\"e2e-{t}\"}}"
                    ));
                    assert!(r.contains("\"ok\":true"), "register {t}: {r}");
                    let r = c.request(&format!(
                        "{{\"op\":\"embed\",\"tenant\":\"{t}\",\"z\":19,\"counts\":{}}}",
                        counts_json(40)
                    ));
                    assert!(r.contains("chosen_pairs"), "embed {t}: {r}");
                    let r = c.request(&format!(
                        "{{\"op\":\"detect\",\"tenant\":\"{t}\",\"t\":2,\"k\":1,\"counts\":{}}}",
                        counts_json(40)
                    ));
                    assert!(r.contains("\"ok\":true"), "detect {t}: {r}");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("tenant workload failed");
    }

    // Aggregated metrics see the whole fleet.
    let m = admin.request(r#"{"op":"metrics"}"#);
    assert!(m.contains(&format!("\"tenants\":{TENANTS}")), "{m}");
    assert!(m.contains("\"scheme\":\"jump\""), "{m}");
    assert!(m.contains("\"shard\":\"0/2\""), "{m}");
    assert!(m.contains("\"shard\":\"1/2\""), "{m}");

    // Kill shard 1 dead (SIGKILL — no drain). Errors must be scoped to
    // its tenants; shard 0 keeps serving.
    backend1.kill().expect("kill backend 1");
    backend1.wait().expect("reap backend 1");
    let on_shard = |s: usize| {
        (0..TENANTS)
            .map(tenant_name)
            .filter(move |t| tenant_shard(t, 2) == s)
    };
    let victim = on_shard(1).next().expect("some tenant on shard 1");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let r = admin.request(&format!(
            "{{\"op\":\"detect\",\"tenant\":\"{victim}\",\"t\":2,\"k\":1,\"counts\":{}}}",
            counts_json(40)
        ));
        if r.contains("\"ok\":false") {
            assert!(
                r.contains("shard 1") || r.contains("unavailable") || r.contains("connection lost"),
                "unexpected error shape: {r}"
            );
            break;
        }
        assert!(Instant::now() < deadline, "router never noticed the kill");
        std::thread::sleep(Duration::from_millis(50));
    }
    for t in on_shard(0).take(5) {
        let r = admin.request(&format!(
            "{{\"op\":\"detect\",\"tenant\":\"{t}\",\"t\":2,\"k\":1,\"counts\":{}}}",
            counts_json(40)
        ));
        assert!(
            r.contains("\"ok\":true"),
            "surviving shard broke for {t}: {r}"
        );
    }
    for t in on_shard(1).take(5) {
        let r = admin.request(&format!(
            "{{\"op\":\"detect\",\"tenant\":\"{t}\",\"t\":2,\"k\":1,\"counts\":{}}}",
            counts_json(40)
        ));
        assert!(
            r.contains("\"ok\":false"),
            "dead shard answered for {t}: {r}"
        );
    }

    // Tier drain through the router: the ack names shard 1, which was
    // dead and never received it; then EOF, and both live processes
    // exit 0.
    let ack = admin.request(r#"{"op":"shutdown"}"#);
    assert!(ack.contains("\"ok\":false"), "{ack}");
    assert!(ack.contains("not acknowledged by shard(s) 1\""), "{ack}");
    let mut rest = String::new();
    admin
        .reader
        .read_to_string(&mut rest)
        .expect("drain to EOF");
    assert!(rest.is_empty(), "data after shutdown ack: {rest}");
    let status = router.wait().expect("router exit");
    assert!(status.success(), "router exited with {status}");
    let status = backend0.wait().expect("backend 0 exit");
    assert!(status.success(), "backend 0 exited with {status}");
    assert!(
        TcpStream::connect(router_addr).is_err(),
        "router port still open after drain"
    );

    // Post-mortem isolation: each data-dir verifies and holds exactly
    // the tenants that hash to its shard — including the killed one
    // (registrations were fsync'd before their responses).
    let expect0 = on_shard(0).count();
    let expect1 = on_shard(1).count();
    assert_eq!(expect0 + expect1, TENANTS);
    for (dir, expect) in [(&dir0, expect0), (&dir1, expect1)] {
        let (code, log) = run_cli(&["ledger", "verify", "--data-dir", dir]);
        assert_eq!(code, 0, "{log}");
        assert!(log.contains("ledger OK"), "{log}");
        assert!(
            log.contains(&format!("tenants: {expect}")),
            "wrong tenant count in {dir}: {log}"
        );
    }

    // Cross-check with real requests: a shard-1 tenant is unknown to
    // shard 0's store, while shard 0's own tenants still detect.
    let reqs = format!("{}/crosscheck.jsonl", std::env::temp_dir().display());
    let t0 = on_shard(0).next().unwrap();
    std::fs::write(
        &reqs,
        format!(
            "{{\"op\":\"detect\",\"tenant\":\"{victim}\",\"counts\":{c}}}\n\
             {{\"op\":\"detect\",\"tenant\":\"{t0}\",\"t\":2,\"k\":1,\"counts\":{c}}}\n",
            c = counts_json(40)
        ),
    )
    .unwrap();
    let (code, log) = run_cli(&["batch", "--input", &reqs, "--data-dir", &dir0]);
    assert_eq!(code, 1, "{log}"); // the misplaced tenant fails
    let lines: Vec<&str> = log.trim().lines().collect();
    assert!(lines[0].contains("unknown tenant"), "{log}");
    assert!(lines[1].contains("\"ok\":true"), "{log}");

    let _ = std::fs::remove_dir_all(&dir0);
    let _ = std::fs::remove_dir_all(&dir1);
}

#[test]
fn sigterm_drains_the_router_but_leaves_backends_up() {
    let dir = tmp_dir("sigterm-shard0");
    let (mut backend, addr) = spawn_backend(0, 1, &dir);
    let (mut router, router_addr) = spawn_router(&[addr]);

    let mut c = Client::connect(router_addr);
    wait_until_shards_up(&mut c, 1);
    let r = c.request(r#"{"op":"register","tenant":"sig","secret_label":"sig"}"#);
    assert!(r.contains("\"ok\":true"), "{r}");

    // SIGTERM the router: graceful drain of the router tier only.
    let pid = router.id().to_string();
    let status = Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .expect("send SIGTERM");
    assert!(status.success());
    let mut rest = String::new();
    c.reader.read_to_string(&mut rest).expect("router closes");
    let status = router.wait().expect("router exit");
    assert!(status.success(), "router exited with {status} on SIGTERM");

    // The backend is untouched and still serves directly.
    let mut direct = Client::connect(addr);
    let r = direct.request(r#"{"op":"metrics"}"#);
    assert!(r.contains("\"tenants\":1"), "backend lost state: {r}");
    let ack = direct.request(r#"{"op":"shutdown"}"#);
    assert!(ack.contains("\"op\":\"shutdown\""), "{ack}");
    let status = backend.wait().expect("backend exit");
    assert!(status.success(), "backend exited with {status}");
    let _ = std::fs::remove_dir_all(&dir);
}
