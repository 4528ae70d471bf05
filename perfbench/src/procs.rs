//! Server processes: spawn `freqywm serve` / `freqywm router`, find
//! their ports, read their peak memory, shut them down and reap them.

use crate::loadgen::request;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const ANNOUNCE_TIMEOUT: Duration = Duration::from_secs(20);
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);
/// Niceness of every server process (see `spawn`).
const SERVER_NICE: &str = "10";

/// One spawned server process.
pub struct Server {
    pub name: String,
    pub child: Child,
    pub addr: SocketAddr,
    log_dir: PathBuf,
}

impl Server {
    /// Peak resident set (`VmHWM`) so far, in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// CPU time (user + system, all threads) used so far, in seconds,
    /// from `/proc/<pid>/stat` (in USER_HZ = 100 ticks). Time the
    /// hypervisor steals is not charged to the process.
    pub fn cpu_seconds(&self) -> Option<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id())).ok()?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = &stat[stat.rfind(')')? + 2..];
        let fields: Vec<&str> = rest.split(' ').collect();
        let utime: f64 = fields.get(11)?.parse().ok()?;
        let stime: f64 = fields.get(12)?.parse().ok()?;
        Some((utime + stime) / 100.0)
    }

    /// Waits for the process to exit, killing it after `EXIT_TIMEOUT`.
    /// Returns whether it exited cleanly on its own.
    pub fn reap(&mut self) -> bool {
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return false;
                }
            }
        }
    }

    /// The tail of the process's stderr, for error reports.
    pub fn stderr_tail(&self) -> String {
        let text = std::fs::read_to_string(self.log_dir.join(format!("{}.err", self.name)))
            .unwrap_or_default();
        let lines: Vec<&str> = text.lines().collect();
        lines[lines.len().saturating_sub(5)..].join("\n")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Spawns `freqywm <args>` with stdout and stderr in files under
/// `log_dir`, and waits for its `listening on <addr>` line.
fn spawn(bin: &Path, name: &str, args: &[String], log_dir: &Path) -> Result<Server, String> {
    let out_path = log_dir.join(format!("{name}.out"));
    let out = std::fs::File::create(&out_path).map_err(|e| format!("{name}: {e}"))?;
    let err = std::fs::File::create(log_dir.join(format!("{name}.err")))
        .map_err(|e| format!("{name}: {e}"))?;
    // The generator shares the host's cores with the servers; run the
    // servers at a lower priority so a waking generator thread sends on
    // time instead of queueing behind them.
    let mut cmd = Command::new("nice");
    cmd.args(["-n", SERVER_NICE])
        .arg(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err);
    crate::sys::kill_with_parent(&mut cmd);
    let child = cmd
        .spawn()
        .map_err(|e| format!("spawn nice {} {name}: {e}", bin.display()))?;
    let mut server = Server {
        name: name.to_string(),
        child,
        addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        log_dir: log_dir.to_path_buf(),
    };
    let deadline = Instant::now() + ANNOUNCE_TIMEOUT;
    loop {
        let text = std::fs::read_to_string(&out_path).unwrap_or_default();
        if let Some(addr) = text
            .lines()
            .find_map(|l| l.strip_prefix("listening on "))
            .and_then(|a| a.trim().parse().ok())
        {
            server.addr = addr;
            return Ok(server);
        }
        if Instant::now() > deadline || !matches!(server.child.try_wait(), Ok(None)) {
            return Err(format!(
                "{name} never announced its address: {}",
                server.stderr_tail()
            ));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// `freqywm serve --listen` on a durable data dir.
pub fn spawn_serve(
    bin: &Path,
    name: &str,
    data_dir: &Path,
    workers: usize,
    shard: Option<(usize, usize)>,
    log_dir: &Path,
) -> Result<Server, String> {
    let mut args: Vec<String> = [
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--workers",
        &workers.to_string(),
        "--queue",
        "8192",
        "--data-dir",
        &data_dir.to_string_lossy(),
        "--ledger-key",
        LEDGER_KEY,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if let Some((i, n)) = shard {
        args.push("--shard-id".to_string());
        args.push(format!("{i}/{n}"));
    }
    spawn(bin, name, &args, log_dir)
}

/// `freqywm router` over `shards`, waiting until every shard is up.
pub fn spawn_router(
    bin: &Path,
    name: &str,
    shards: &[SocketAddr],
    log_dir: &Path,
) -> Result<Server, String> {
    let mut args: Vec<String> = ["router", "--listen", "127.0.0.1:0"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    for s in shards {
        args.push("--shard".to_string());
        args.push(s.to_string());
    }
    let server = spawn(bin, name, &args, log_dir)?;
    let want = format!("\"shards_up\":{}", shards.len());
    let deadline = Instant::now() + ANNOUNCE_TIMEOUT;
    loop {
        if request(server.addr, r#"{"op":"metrics"}"#).is_ok_and(|m| m.contains(&want)) {
            return Ok(server);
        }
        if Instant::now() > deadline {
            return Err(format!("{name}: shards never came up"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Ledger HMAC key the servers run with (read back by the lost-update
/// audit).
pub const LEDGER_KEY: &str = "perfbench-ledger";

/// A private directory under the checkout for data dirs and logs,
/// removed on drop.
pub struct Scratch {
    pub root: PathBuf,
}

impl Scratch {
    pub fn create() -> Result<Scratch, String> {
        let root = std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(".bench_build")
            .join("perfbench-data")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        Ok(Scratch { root })
    }

    /// A fresh, empty subdirectory.
    pub fn dir(&self, name: &str) -> Result<PathBuf, String> {
        let d = self.root.join(name);
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).map_err(|e| format!("{}: {e}", d.display()))?;
        Ok(d)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leave no empty parent behind either.
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Filesystem type of the mount holding `path`, from
/// `/proc/self/mountinfo` (longest matching mount point).
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map(|(_, t)| t)
        .unwrap_or_else(|| "unknown".to_string())
}
