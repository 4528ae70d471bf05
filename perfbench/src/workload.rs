//! The three workloads: their inputs, their server shapes, and the
//! phases a run drives through them.

use crate::check::Outcome;
use crate::config::{self, WorkloadConfig};
use crate::gen::{self, Kind, Layout, Op, Pools, Tenant};
use crate::loadgen::{self, PhaseResult, Record};
use crate::procs::{self, Scratch, Server};
use crate::stats;
use freqywm::core::incremental::IncrementalWatermarker;
use freqywm::data::token::Token;
use freqywm::service::{DiskLog, DurableRegistry};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a phase waits for stragglers after its last due time.
const DRAIN: Duration = Duration::from_secs(10);
/// Detects a ladder rung needs for its p99 (ten beyond it).
const RUNG_DETECTS: f64 = 1000.0 * 1.15;
/// The capacity walk tries at most this many rungs, and starts no new
/// rung after `WALK_TIME`, so a run's length stays bounded when the
/// shared host slows down for a while.
const MAX_RUNGS: usize = 3;
const WALK_TIME: Duration = Duration::from_secs(20);
/// A rung whose last response comes more than this long after its last
/// due time left a backlog behind.
const MAX_DRAIN_S: f64 = 1.0;

/// The generated inputs of one workload.
pub struct Inputs {
    /// Tenants registered and embedded during set-up.
    pub setup: Vec<Tenant>,
    /// Tenants whose watermarks the timed phase maintains.
    pub write_tenants: Vec<Tenant>,
    pub pools: Pools,
    pub layout: Layout,
}

/// Builds a workload's inputs and references from the seed.
pub fn inputs(workload: &str, seed: u64, nproc: usize) -> Inputs {
    match workload {
        "verify" | "tier" => {
            let setup = gen::large_tenants(seed, nproc);
            let mut rng = gen::Rng::new(gen::sub_seed(seed, "suspects"));
            let detects = setup
                .iter()
                .flat_map(|t| gen::suspects(&mut rng, t))
                .map(Arc::new)
                .collect();
            Inputs {
                setup,
                write_tenants: Vec::new(),
                pools: Pools {
                    detects,
                    detect_share: 1.0,
                    ..Pools::default()
                },
                layout: Layout {
                    read: nproc.max(1),
                    write: 0,
                },
            }
        }
        "mixed" => {
            let read = gen::small_tenants(seed, "r", nproc);
            let write = gen::small_tenants(seed, "w", nproc);
            let mut rng = gen::Rng::new(gen::sub_seed(seed, "suspects"));
            let detects = read
                .iter()
                .flat_map(|t| gen::suspects(&mut rng, t))
                .map(Arc::new)
                .collect();
            let maintains = write
                .iter()
                .flat_map(|t| {
                    (0..gen::MAINTAIN_BATCHES)
                        .map(|_| Arc::new(gen::maintain_request(&mut rng, t)))
                        .collect::<Vec<_>>()
                })
                .collect();
            let fresh = gen::fresh_pool(seed, nproc, gen::FRESH_POOL)
                .into_iter()
                .map(|t| {
                    let counts = gen::counts_json(&t.hist);
                    Arc::new((t, counts))
                })
                .collect();
            let read_conns = (nproc / 2).max(1);
            let mut setup = read;
            setup.extend(write.iter().cloned());
            Inputs {
                setup,
                write_tenants: write,
                pools: Pools {
                    detects,
                    maintains,
                    fresh,
                    detect_share: 0.80,
                    maintain_share: 0.15,
                },
                layout: Layout {
                    read: read_conns,
                    write: nproc.saturating_sub(read_conns).max(1),
                },
            }
        }
        other => panic!("unknown workload {other:?}"),
    }
}

/// The servers of one set-up: `serve` for `verify`/`mixed`, a router
/// over two single-worker shards for `tier`.
pub struct Cluster {
    /// Where clients connect.
    pub front: SocketAddr,
    /// Engine processes (`serve`), each with its data dir.
    pub engines: Vec<(Server, PathBuf)>,
    pub router: Option<Server>,
}

impl Cluster {
    pub fn start(
        workload: &str,
        bin: &Path,
        scratch: &Scratch,
        tag: &str,
        nproc: usize,
    ) -> Result<Cluster, String> {
        let logs = scratch.dir(&format!("{tag}-logs"))?;
        if workload == "tier" {
            let mut engines = Vec::new();
            for i in 0..2 {
                let dir = scratch.dir(&format!("{tag}-shard{i}"))?;
                let s =
                    procs::spawn_serve(bin, &format!("shard{i}"), &dir, 1, Some((i, 2)), &logs)?;
                engines.push((s, dir));
            }
            let addrs: Vec<SocketAddr> = engines.iter().map(|(s, _)| s.addr).collect();
            let router = procs::spawn_router(bin, "router", &addrs, &logs)?;
            return Ok(Cluster {
                front: router.addr,
                engines,
                router: Some(router),
            });
        }
        let dir = scratch.dir(&format!("{tag}-serve"))?;
        let s = procs::spawn_serve(bin, "serve", &dir, nproc.max(1), None, &logs)?;
        Ok(Cluster {
            front: s.addr,
            engines: vec![(s, dir)],
            router: None,
        })
    }

    /// Sum of `VmHWM` over every server process, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.engines
            .iter()
            .map(|(s, _)| s)
            .chain(self.router.iter())
            .filter_map(Server::peak_rss_mb)
            .sum()
    }

    /// CPU seconds used so far by every server process together.
    pub fn cpu_seconds(&self) -> f64 {
        self.engines
            .iter()
            .map(|(s, _)| s)
            .chain(self.router.iter())
            .filter_map(Server::cpu_seconds)
            .sum()
    }

    /// Engine addresses (the router fans `metrics` out, but the
    /// per-engine numbers are what the layers need).
    pub fn engine_addrs(&self) -> Vec<SocketAddr> {
        self.engines.iter().map(|(s, _)| s.addr).collect()
    }

    /// Drains the tier with a `shutdown` op through its front and reaps
    /// every process. Returns an error if any did not exit cleanly.
    pub fn shutdown(mut self) -> Result<Vec<PathBuf>, String> {
        let ack = loadgen::request(self.front, r#"{"op":"shutdown"}"#);
        let mut clean = ack.is_ok();
        if let Some(r) = self.router.as_mut() {
            clean &= r.reap();
        }
        for (s, _) in self.engines.iter_mut() {
            clean &= s.reap();
        }
        let tails: Vec<String> = self
            .engines
            .iter()
            .map(|(s, _)| s)
            .chain(self.router.iter())
            .map(Server::stderr_tail)
            .filter(|t| !t.is_empty())
            .collect();
        let dirs = self.engines.iter().map(|(_, d)| d.clone()).collect();
        if clean {
            Ok(dirs)
        } else {
            Err(format!(
                "servers did not shut down cleanly: {}",
                tails.join(" | ")
            ))
        }
    }
}

/// Registers and embeds every set-up tenant, spread over the layout's
/// connections. Any answer other than the reference is an error.
pub fn run_setup(front: SocketAddr, inputs: &Inputs) -> Result<(), String> {
    let conns = inputs.layout.conns();
    let ops: Vec<Op> = inputs
        .setup
        .iter()
        .enumerate()
        .flat_map(|(i, t)| {
            gen::setup_requests(t).map(|r| Op {
                due_ns: 0,
                conn: i % conns,
                req: Arc::new(r),
            })
        })
        .collect();
    let result = loadgen::run_phase(&vec![front; conns], &ops, Duration::from_secs(60), None)
        .map_err(|e| format!("set-up: {e}"))?;
    match result.records.iter().find(|r| !r.outcome.is_ok()) {
        Some(r) => Err(format!(
            "set-up {} answered {:?}",
            r.kind().as_str(),
            r.outcome
        )),
        None => Ok(()),
    }
}

/// Highest ledger index set-up can have used: a register and an embed
/// per tenant.
pub fn setup_ledger_floor(inputs: &Inputs) -> u64 {
    (2 * inputs.setup.len()) as u64 - 1
}

/// Latency samples of one op kind, in ms; failed ops count as infinite,
/// since they miss every latency limit.
pub fn latencies_ms(records: &[Record], kind: Kind) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.kind() == kind)
        .map(|r| match (&r.outcome, r.latency_ns) {
            (Outcome::Ok { .. }, Some(ns)) => ns as f64 / 1e6,
            _ => f64::INFINITY,
        })
        .collect()
}

/// Generator p99 lateness over the sent ops, in ms.
pub fn late_p99_ms(records: &[Record]) -> Result<f64, String> {
    let late: Vec<f64> = records
        .iter()
        .filter_map(|r| r.late_ns)
        .map(|ns| ns as f64 / 1e6)
        .collect();
    stats::percentile(&late, 0.99)
}

/// Lateness limit at `rate_rps`: the stated share of the mean
/// inter-arrival time.
pub fn late_limit_ms(rate_rps: f64) -> f64 {
    config::lateness_share() * 1000.0 / rate_rps
}

/// Counts of op outcomes in a phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    pub refused: usize,
    pub timed_out: usize,
    pub wrong: usize,
}

impl Tally {
    pub fn of(records: &[Record]) -> Tally {
        let mut t = Tally {
            attempted: records.len(),
            ..Tally::default()
        };
        for r in records {
            match r.outcome {
                Outcome::Ok { .. } => {}
                Outcome::Refused(_) => t.refused += 1,
                Outcome::Failed(_) => t.failed += 1,
                Outcome::TimedOut => t.timed_out += 1,
                Outcome::Wrong(_) => t.wrong += 1,
            }
        }
        t
    }

    pub fn bad(&self) -> usize {
        self.failed + self.refused + self.timed_out + self.wrong
    }

    pub fn error_share(&self) -> f64 {
        self.bad() as f64 / self.attempted.max(1) as f64
    }
}

/// First wrong answer in a phase, if any.
pub fn first_wrong(records: &[Record]) -> Option<String> {
    records.iter().find_map(|r| match &r.outcome {
        Outcome::Wrong(why) => Some(why.clone()),
        _ => None,
    })
}

/// Runs one open-loop phase at `rate_rps` for `seconds`.
pub fn run_open_loop(
    front: SocketAddr,
    inputs: &Inputs,
    rate_rps: f64,
    seconds: f64,
    seed: u64,
    tag: &str,
    spans: Option<&freqywm::service::SpanRing>,
) -> Result<PhaseResult, String> {
    let ops = gen::schedule(&inputs.pools, inputs.layout, rate_rps, seconds, seed, tag);
    let addrs = vec![front; inputs.layout.conns()];
    loadgen::run_phase(&addrs, &ops, DRAIN, spans).map_err(|e| format!("phase {tag}: {e}"))
}

/// One rung of the capacity search.
#[derive(Debug, Clone)]
pub struct Rung {
    pub rate_rps: f64,
    pub passed: bool,
    /// Answered ops per second over the rung.
    pub served_rps: f64,
    pub detect_p99_ms: Option<f64>,
    pub why: String,
    pub records: Vec<Record>,
}

/// Seconds a rung at `rate` must last for its detect p99.
pub fn rung_seconds(rate: f64, detect_share: f64, floor_s: f64) -> f64 {
    (RUNG_DETECTS / (rate * detect_share)).max(floor_s)
}

/// Finds the ladder's highest rung that meets the detect p99 limit with
/// no failed op, no growing backlog and an on-time generator. The walk
/// starts at the workload's fixed start rung and steps one rung at a
/// time up while rungs pass, or down until one does, so a system whose
/// capacity has not moved costs two rungs. Each rung gets half of
/// `budget_s`, or longer if its detect p99 needs it. Returns every rung
/// tried, in order.
pub fn capacity_search(
    front: SocketAddr,
    inputs: &Inputs,
    cfg: &WorkloadConfig,
    budget_s: f64,
    seed: u64,
) -> Result<Vec<Rung>, String> {
    let ladder = &cfg.ladder;
    let mut i = ladder
        .iter()
        .rposition(|&r| r <= cfg.walk_start_rps)
        .unwrap_or(0);
    let started = Instant::now();
    let mut tried: Vec<Rung> = Vec::new();
    let mut probe = |i: usize| -> Result<Option<bool>, String> {
        if !tried.is_empty() && (tried.len() >= MAX_RUNGS || started.elapsed() >= WALK_TIME) {
            return Ok(None);
        }
        let rate = ladder[i];
        let secs = rung_seconds(rate, inputs.pools.detect_share, budget_s / 2.0);
        let phase = run_open_loop(front, inputs, rate, secs, seed, &format!("rung{i}"), None)?;
        let rung = judge_rung(cfg, rate, phase);
        let passed = rung.passed;
        tried.push(rung);
        // Let a rung's leftovers clear before the next one starts.
        std::thread::sleep(Duration::from_millis(200));
        Ok(Some(passed))
    };
    if probe(i)? == Some(true) {
        while i + 1 < ladder.len() && probe(i + 1)? == Some(true) {
            i += 1;
        }
    } else {
        while i > 0 && probe(i - 1)? == Some(false) {
            i -= 1;
        }
    }
    Ok(tried)
}

fn judge_rung(cfg: &WorkloadConfig, rate: f64, phase: PhaseResult) -> Rung {
    let records = phase.records;
    let answered = records.iter().filter(|r| r.latency_ns.is_some()).count();
    let served_rps = answered as f64 / phase.elapsed.as_secs_f64().max(1e-9);
    let detect = latencies_ms(&records, Kind::Detect);
    let p99 = stats::windowed_percentile(&detect, 0.99).map(|(v, _)| v);
    let tally = Tally::of(&records);
    // Reads and writes queue separately (their own connections), so
    // each class gets its own backlog test.
    let trace = |reads: bool| -> Vec<(f64, f64)> {
        records
            .iter()
            .filter(|r| (r.kind() == Kind::Detect) == reads)
            .filter_map(|r| Some((r.due_ns as f64 / 1e9, r.latency_ns? as f64 / 1e6)))
            .collect()
    };
    // Slack scales with the class's own latency: a write queued behind
    // a ~100 ms embed is normal service there, not a backlog.
    let grows = |t: Vec<(f64, f64)>| {
        if t.is_empty() {
            return false;
        }
        let typical = stats::median(&t.iter().map(|s| s.1).collect::<Vec<_>>());
        stats::backlog_grows(&t, typical.max(0.1 * cfg.p99_limit_ms))
    };
    let late = late_p99_ms(&records);
    let last_due_s = records.iter().map(|r| r.due_ns).max().unwrap_or(0) as f64 / 1e9;
    let drain_s = phase.elapsed.as_secs_f64() - last_due_s;
    let why = if tally.bad() > 0 {
        format!("{} ops failed", tally.bad())
    } else if drain_s > MAX_DRAIN_S {
        format!("backlog of {drain_s:.1} s left at the end of the rung")
    } else if let Err(e) = &p99 {
        e.clone()
    } else if p99.as_ref().is_ok_and(|p| *p > cfg.p99_limit_ms) {
        format!("detect p99 over {} ms", cfg.p99_limit_ms)
    } else if grows(trace(true)) || grows(trace(false)) {
        "backlog grows".to_string()
    } else if !late.as_ref().is_ok_and(|l| *l <= late_limit_ms(rate)) {
        "generator late".to_string()
    } else {
        String::new()
    };
    Rung {
        rate_rps: rate,
        passed: why.is_empty(),
        served_rps,
        detect_p99_ms: p99.ok(),
        why,
        records,
    }
}

/// Signed count updates of one maintain.
pub type Updates = Arc<Vec<(Token, i64)>>;

/// An acknowledged maintain: tenant, ledger index, updates.
pub type Acked = (String, u64, Updates);

/// Acknowledged maintains of a phase.
pub fn acked_maintains(records: &[Record]) -> Vec<Acked> {
    records
        .iter()
        .filter_map(|r| match (&r.outcome, &r.req.expect) {
            (
                Outcome::Ok {
                    ledger_index: Some(i),
                },
                gen::Expect::Maintain { updates },
            ) => Some((r.req.tenant.clone(), *i, Arc::clone(updates))),
            _ => None,
        })
        .collect()
}

/// Replays each write tenant's acknowledged maintains in ledger order
/// from its reference embed, and counts tenants whose stored watermark
/// (read back from the data dir, read-only) differs: updates that a
/// concurrent maintain overwrote.
pub fn lost_updates(
    data_dir: &Path,
    write_tenants: &[Tenant],
    acked: &[Acked],
) -> Result<usize, String> {
    let storage = DiskLog::open_read_only(data_dir).map_err(|e| e.to_string())?;
    let registry = DurableRegistry::open_read_only(procs::LEDGER_KEY.as_bytes(), Box::new(storage))
        .map_err(|e| format!("open {}: {e}", data_dir.display()))?;
    let mut by_tenant: BTreeMap<&str, Vec<(u64, &Updates)>> = BTreeMap::new();
    for (tenant, index, updates) in acked {
        by_tenant.entry(tenant).or_default().push((*index, updates));
    }
    let mut lost = 0;
    for t in write_tenants {
        let mut replay = IncrementalWatermarker::new(
            gen::maintain_params(t.reference.secrets.z),
            t.reference.secrets.clone(),
            t.reference.watermarked.clone(),
        );
        let mut mine = by_tenant.remove(t.name.as_str()).unwrap_or_default();
        mine.sort_by_key(|(i, _)| *i);
        for (_, updates) in mine {
            replay
                .apply_updates(updates, false)
                .map_err(|e| format!("replay of {}: {e}", t.name))?;
        }
        let stored = registry
            .latest_watermark(&t.name)
            .ok_or_else(|| format!("{} has no stored watermark", t.name))?;
        if &stored.secrets != replay.secrets() || &stored.watermarked != replay.histogram() {
            lost += 1;
        }
    }
    Ok(lost)
}

/// Sum of a numeric field over `metrics` responses, by JSON path.
pub fn metric_sum(responses: &[String], path: &[&str]) -> u64 {
    use freqywm::service::proto::json;
    responses
        .iter()
        .filter_map(|r| {
            let mut v = json::parse(r).ok()?;
            for key in path {
                v = v.get(key)?.clone();
            }
            v.as_u64()
        })
        .sum()
}

/// `metrics` responses of every engine in the cluster.
pub fn engine_metrics(cluster: &Cluster) -> Result<Vec<String>, String> {
    cluster
        .engine_addrs()
        .into_iter()
        .map(|a| loadgen::request(a, r#"{"op":"metrics"}"#).map_err(|e| format!("metrics: {e}")))
        .collect()
}
