//! `freqywm-perfbench --workload <verify|mixed|tier> --seed N --seconds S
//! --trace <0|1> --freqywm-bin PATH`
//!
//! Untraced (`--trace 0`): end-to-end metrics of the real binaries under
//! an open-loop schedule. Traced (`--trace 1`): per-layer metrics. The
//! last stdout line is one JSON object; the lines before it print every
//! metric by name with its unit and base count, and the run metadata.

use freqywm::service::proto::json::{self, Value};
use freqywm::service::SpanRing;
use freqywm_perfbench::check::check_ledger_indices;
use freqywm_perfbench::config::{self, WorkloadConfig, WORKLOADS};
use freqywm_perfbench::gen::{self, Kind, Op};
use freqywm_perfbench::layers::{self, metric, LayerMetric, ProbeInputs};
use freqywm_perfbench::loadgen::{self, Record};
use freqywm_perfbench::procs::{self, Scratch};
use freqywm_perfbench::stats::{median, percentile};
use freqywm_perfbench::workload::{self as wl, Cluster, Inputs, Tally};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The end-to-end metrics `BENCHMARK.json` bounds; the others are
/// printed only (see README.md for why).
const GATED: [&str; 3] = ["setup_s", "server_cpu_ms_per_op", "server_peak_rss_mb"];
/// Set-ups an untraced run makes only to time them; with the two that
/// serve its phases, `setup_s` is the median of five.
const TIMED_ONLY_SETUPS: usize = 3;
/// Round trips per block and blocks of the hop probes.
const RTT_REPS: usize = 100;
const RTT_BLOCKS: usize = 3;
/// Fresh vocabularies the traced `mixed` run replays through the
/// embed-side layers.
const PROBE_EMBEDS: usize = 8;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: HashMap<&str, &str> = HashMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let v = it.next().ok_or(format!("{k} needs a value"))?;
        flags.insert(k.as_str(), v.as_str());
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing {k}"));
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds < 1.0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
        bin: PathBuf::from(get("--freqywm-bin")?),
    })
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable".to_string())
}

fn print_meta(args: &Args, nproc: usize, fs: &str) {
    println!(
        "# meta {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"git_rev\":\"{}\",\"rustc\":\"{}\",\"profile\":\"{}\",\"data_dir_fs\":\"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        nproc,
        json::escape(&command_line("git", &["rev-parse", "HEAD"])),
        json::escape(&command_line("rustc", &["-V"])),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        json::escape(fs),
    );
}

/// One printed metric: name, value or refusal, unit, base.
fn print_metric(name: &str, value: Result<f64, String>, unit: &str, base: &str) {
    match value {
        Ok(v) => println!("{name:<34} {v:>14.4} {unit:<8} ({base})"),
        Err(why) => println!("{name:<34} {:>14} {unit:<8} ({base}; {why})", "n/a"),
    }
}

fn latency_metric(
    records: &[Record],
    kind: Kind,
    name: &str,
    p: f64,
) -> (String, Result<f64, String>, usize) {
    let lat = wl::latencies_ms(records, kind);
    let n = lat.len();
    (name.to_string(), percentile(&lat, p), n)
}

/// The tail `p` of an op kind or, when the run holds too few samples
/// for it, the highest of p90/p80/p75 that it does support, named by
/// the percentile actually reported.
fn tail_metric(records: &[Record], kind: Kind, p: f64) -> (String, Result<f64, String>, usize) {
    let name = |p: f64| format!("{}_p{}_ms", kind.as_str(), (p * 100.0).round());
    let wanted = latency_metric(records, kind, &name(p), p);
    if wanted.1.is_ok() {
        return wanted;
    }
    [0.90, 0.80, 0.75]
        .into_iter()
        .filter(|&q| q < p)
        .map(|q| latency_metric(records, kind, &name(q), q))
        .find(|m| m.1.is_ok())
        .unwrap_or(wanted)
}

fn result_json(correct: bool, tally: &Tally, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted,
        tally.bad(),
        body.join(",")
    )
}

fn finite(name: &str, v: f64) -> Result<f64, String> {
    if v.is_finite() {
        Ok(v)
    } else {
        Err(format!(
            "{name} is not finite: failed ops reach its percentile"
        ))
    }
}

/// Starts a cluster and runs set-up on it, timing both.
fn set_up(
    args: &Args,
    inputs: &Inputs,
    scratch: &Scratch,
    tag: &str,
    nproc: usize,
) -> Result<(Cluster, f64), String> {
    let t0 = Instant::now();
    let cluster = Cluster::start(&args.workload, &args.bin, scratch, tag, nproc)?;
    wl::run_setup(cluster.front, inputs)?;
    Ok((cluster, t0.elapsed().as_secs_f64()))
}

fn check_lateness(records: &[Record], rate: f64, what: &str) -> Result<f64, String> {
    let late = wl::late_p99_ms(records)?;
    let limit = wl::late_limit_ms(rate);
    if late > limit {
        return Err(format!(
            "invalid run: {what} generator p99 lateness {late:.3} ms exceeds {limit:.3} ms ({} of the {:.3} ms inter-arrival time)",
            config::lateness_share(),
            1000.0 / rate
        ));
    }
    Ok(late)
}

fn untraced(
    args: &Args,
    cfg: &WorkloadConfig,
    nproc: usize,
    scratch: &Scratch,
) -> Result<bool, String> {
    let inputs = wl::inputs(&args.workload, args.seed, nproc);
    // At least enough time for the detect p99 at the fixed rate.
    let fixed_s = wl::rung_seconds(
        cfg.rate_rps,
        inputs.pools.detect_share,
        args.seconds * cfg.fixed_share,
    );
    // Every set-up is timed: the first ones only for `setup_s`, the next
    // serves the fixed-rate phase and the last the capacity search, so
    // neither phase inherits the other's state and peak memory is that
    // of the fixed-rate phase alone.
    let mut setup_s = Vec::new();
    for k in 0..TIMED_ONLY_SETUPS {
        let (warm, s) = set_up(args, &inputs, scratch, &format!("setup{k}"), nproc)?;
        setup_s.push(s);
        warm.shutdown()?;
    }
    let (cluster, s) = set_up(args, &inputs, scratch, "fixed", nproc)?;
    setup_s.push(s);
    let cpu_before = cluster.cpu_seconds();
    let fixed = wl::run_open_loop(
        cluster.front,
        &inputs,
        cfg.rate_rps,
        fixed_s,
        args.seed,
        "fixed",
        None,
    )?;
    let cpu_ms_per_op = (cluster.cpu_seconds() - cpu_before) * 1e3 / fixed.records.len() as f64;
    let late = check_lateness(&fixed.records, cfg.rate_rps, "fixed-rate")?;
    let rss = cluster.peak_rss_mb();
    let fixed_dirs = cluster.shutdown()?;
    let (cluster, s) = set_up(args, &inputs, scratch, "capacity", nproc)?;
    setup_s.push(s);
    let rungs = wl::capacity_search(
        cluster.front,
        &inputs,
        cfg,
        args.seconds - fixed_s,
        args.seed,
    )?;
    let capacity_dirs = cluster.shutdown()?;

    // Lost updates and ledger order, per cluster.
    let rung_records: Vec<Record> = rungs.iter().flat_map(|r| r.records.clone()).collect();
    let mut lost = 0;
    let mut acked_total = 0;
    let mut ledger = Ok(());
    for (records, dirs) in [
        (&fixed.records, &fixed_dirs),
        (&rung_records, &capacity_dirs),
    ] {
        let acked = wl::acked_maintains(records);
        acked_total += acked.len();
        if !inputs.write_tenants.is_empty() {
            lost += wl::lost_updates(&dirs[0], &inputs.write_tenants, &acked)?;
        }
        ledger = ledger.and(check_ledger_indices(
            &acked.iter().map(|(_, i, _)| *i).collect::<Vec<_>>(),
            wl::setup_ledger_floor(&inputs),
        ));
    }
    let wrong = wl::first_wrong(&fixed.records)
        .or(wl::first_wrong(&rung_records))
        .or(ledger.err());

    println!(
        "# workload {} at {} req/s for {:.1} s, then capacity search over {:?}",
        cfg.name, cfg.rate_rps, fixed_s, cfg.ladder
    );
    for r in &rungs {
        println!(
            "# rung {:>7.1} req/s: {} (served {:.1} req/s, detect p99 {}){}",
            r.rate_rps,
            if r.passed { "pass" } else { "fail" },
            r.served_rps,
            r.detect_p99_ms
                .map(|p| format!("{p:.3} ms"))
                .unwrap_or_else(|| "n/a".into()),
            if r.why.is_empty() {
                String::new()
            } else {
                format!(": {}", r.why)
            }
        );
    }
    let capacity = rungs
        .iter()
        .filter(|r| r.passed)
        .max_by(|a, b| a.rate_rps.total_cmp(&b.rate_rps))
        .map(|r| r.served_rps)
        .ok_or_else(|| {
            let lowest = rungs
                .iter()
                .map(|r| r.rate_rps)
                .fold(f64::INFINITY, f64::min);
            format!("no rung tried met its limits: capacity is below {lowest} req/s")
        });

    let tally = Tally::of(&fixed.records);
    let ms = |r: (String, Result<f64, String>, usize)| {
        let value = r.1.and_then(|v| finite(&r.0, v));
        (r.0, value, "ms", format!("n={}", r.2))
    };
    let mut report = vec![(
        "setup_s".to_string(),
        Ok(median(&setup_s)),
        "s",
        format!("median of {} set-ups", setup_s.len()),
    )];
    report.push(ms(latency_metric(
        &fixed.records,
        Kind::Detect,
        "detect_p50_ms",
        0.50,
    )));
    report.push(ms(latency_metric(
        &fixed.records,
        Kind::Detect,
        "detect_p99_ms",
        0.99,
    )));
    if args.workload == "mixed" {
        report.push(ms(latency_metric(
            &fixed.records,
            Kind::Embed,
            "embed_p50_ms",
            0.50,
        )));
        report.push(ms(tail_metric(&fixed.records, Kind::Embed, 0.95)));
        report.push(ms(latency_metric(
            &fixed.records,
            Kind::Maintain,
            "maintain_p50_ms",
            0.50,
        )));
        report.push(ms(tail_metric(&fixed.records, Kind::Maintain, 0.99)));
    }
    let served: usize = rungs.iter().map(|r| r.records.len()).sum();
    report.push((
        "capacity_rps".to_string(),
        capacity,
        "req/s",
        format!("{} rungs, {served} ops", rungs.len()),
    ));
    report.push((
        "error_share".to_string(),
        Ok(tally.error_share()),
        "fraction",
        format!(
            "attempted={} failed={} refused={} timed_out={} wrong={}",
            tally.attempted, tally.failed, tally.refused, tally.timed_out, tally.wrong
        ),
    ));
    report.push((
        "server_peak_rss_mb".to_string(),
        Ok(rss),
        "MB",
        "sum of VmHWM".to_string(),
    ));
    report.push((
        "server_cpu_ms_per_op".to_string(),
        Ok(cpu_ms_per_op),
        "ms",
        format!(
            "server CPU over the fixed-rate phase / {} ops",
            fixed.records.len()
        ),
    ));
    let mut json_metrics = Vec::new();
    for (name, value, unit, base) in report {
        print_metric(&name, value.clone(), unit, &base);
        if GATED.contains(&name.as_str()) {
            json_metrics.push((name, value?, unit));
        }
    }
    print_metric(
        "loadgen.late_p99_ms",
        Ok(late),
        "ms",
        &format!("limit {:.3} ms", wl::late_limit_ms(cfg.rate_rps)),
    );
    print_metric(
        "engine.maintain_lost_updates",
        Ok(lost as f64),
        "count",
        &format!(
            "{} write tenants, {} acked maintains",
            inputs.write_tenants.len(),
            acked_total
        ),
    );
    if let Some(why) = &wrong {
        eprintln!("perfbench: wrong output: {why}");
    }
    println!("{}", result_json(wrong.is_none(), &tally, &json_metrics));
    Ok(wrong.is_none())
}

/// Polls the `trace` op on `front` until `stop`, keeping each
/// `queue_wait` span once.
fn poll_queue_waits(front: SocketAddr, stop: &AtomicBool) -> HashMap<(String, u64), f64> {
    let mut seen = HashMap::new();
    loop {
        let done = stop.load(Ordering::SeqCst);
        if let Ok(resp) = loadgen::request(front, r#"{"op":"trace","limit":4096}"#) {
            if let Ok(v) = json::parse(&resp) {
                for s in v.get("spans").and_then(Value::as_arr).unwrap_or(&[]) {
                    let field = |k: &str| s.get(k).and_then(Value::as_str).unwrap_or("");
                    if field("stage") != "queue_wait" {
                        continue;
                    }
                    let start = s.get("start_us").and_then(Value::as_u64).unwrap_or(0);
                    let dur = s.get("dur_us").and_then(Value::as_u64).unwrap_or(0);
                    seen.insert((field("trace").to_string(), start), dur as f64);
                }
            }
        }
        if done {
            return seen;
        }
        std::thread::sleep(Duration::from_millis(200));
    }
}

fn traced(
    args: &Args,
    cfg: &WorkloadConfig,
    nproc: usize,
    scratch: &Scratch,
) -> Result<bool, String> {
    let own = wl::inputs(&args.workload, args.seed, nproc);
    let other = |name: &str| {
        (args.workload != name && !(name == "verify" && args.workload == "tier"))
            .then(|| wl::inputs(name, args.seed, nproc))
    };
    let verify_other = other("verify");
    let mixed_other = other("mixed");
    let verify_in = verify_other.as_ref().unwrap_or(&own);
    let mixed_in = mixed_other.as_ref().unwrap_or(&own);
    let embeds: Vec<gen::Tenant> = if args.workload == "mixed" {
        own.pools
            .fresh
            .iter()
            .take(PROBE_EMBEDS)
            .map(|f| f.0.clone())
            .collect()
    } else {
        own.setup.clone()
    };
    let probes = ProbeInputs::new(&own, verify_in, mixed_in, &embeds);

    let (cluster, _) = set_up(args, &own, scratch, "traced", nproc)?;
    let before = wl::engine_metrics(&cluster)?;
    // Each half long enough for a queue-wait p99 over its jobs.
    let half = wl::rung_seconds(
        cfg.rate_rps,
        own.pools.detect_share,
        args.seconds * cfg.fixed_share / 2.0,
    );
    let plain = wl::run_open_loop(
        cluster.front,
        &own,
        cfg.rate_rps,
        half,
        args.seed,
        "fixed",
        None,
    )?;
    check_lateness(&plain.records, cfg.rate_rps, "untraced")?;
    let ring = SpanRing::new(1 << 16);
    let stop = AtomicBool::new(false);
    let (traced_phase, waits) = std::thread::scope(|scope| {
        let poller = scope.spawn(|| poll_queue_waits(cluster.front, &stop));
        let phase = wl::run_open_loop(
            cluster.front,
            &own,
            cfg.rate_rps,
            half,
            args.seed,
            "traced",
            Some(&ring),
        );
        stop.store(true, Ordering::SeqCst);
        (phase, poller.join().expect("trace poller panicked"))
    });
    let traced_phase = traced_phase?;
    let late = check_lateness(&traced_phase.records, cfg.rate_rps, "traced")?;
    let after = wl::engine_metrics(&cluster)?;

    // Hop probes: the same detect line straight to its engine and
    // through a router, one request outstanding.
    let hop = std::sync::Arc::clone(&own.pools.detects[0]);
    let direct = if args.workload == "tier" {
        cluster.engine_addrs()[freqywm::shard::tenant_shard(&hop.tenant, 2)]
    } else {
        cluster.front
    };
    let probe_router = match &cluster.router {
        Some(_) => None,
        None => Some(procs::spawn_router(
            &args.bin,
            "probe-router",
            &cluster.engine_addrs(),
            &scratch.dir("probe-router-logs")?,
        )?),
    };
    let via = cluster
        .router
        .as_ref()
        .or(probe_router.as_ref())
        .expect("a router")
        .addr;
    let op = Op {
        due_ns: 0,
        conn: 0,
        req: hop.clone(),
    };
    let (mut rtt_direct, mut rtt_router) = (Vec::new(), Vec::new());
    for _ in 0..RTT_BLOCKS {
        rtt_direct.extend(loadgen::round_trips(direct, &op, RTT_REPS)?);
        rtt_router.extend(loadgen::round_trips(via, &op, RTT_REPS)?);
    }
    let router_metrics = loadgen::request(via, r#"{"op":"metrics"}"#).map_err(|e| e.to_string())?;
    drop(probe_router);
    let dirs = cluster.shutdown()?;

    let acked =
        wl::acked_maintains(&[plain.records.clone(), traced_phase.records.clone()].concat());
    let lost = if own.write_tenants.is_empty() {
        0
    } else {
        wl::lost_updates(&dirs[0], &own.write_tenants, &acked)?
    };
    let all = [plain.records.clone(), traced_phase.records.clone()].concat();
    let wrong = wl::first_wrong(&all);

    // In-process layers, with the servers gone.
    let mut out: Vec<LayerMetric> = Vec::new();
    out.extend(layers::crypto(&probes));
    out.extend(layers::core(&probes));
    let engine_probe = layers::proto_and_engine(&probes, &hop);
    out.extend(engine_probe.metrics);
    out.extend(layers::prf_cache(&probes));
    out.extend(layers::persist(&probes, &scratch.dir("persist-probe")?));
    out.extend(layers::quota_and_obs());

    let delta =
        |path: &[&str]| wl::metric_sum(&after, path) as f64 - wl::metric_sum(&before, path) as f64;
    let hits = delta(&["metrics", "prf_cache", "hits"]);
    let lookups = hits + delta(&["metrics", "prf_cache", "misses"]);
    let jobs = delta(&["metrics", "submitted"]) as u64;
    out.push(metric(
        "prf_cache.hit_rate",
        hits / lookups.max(1.0),
        "ratio",
        lookups as u64,
        "lookups",
    ));
    let waits: Vec<f64> = waits.into_values().collect();
    out.push(metric(
        "engine.queue_wait_us.p50",
        percentile(&waits, 0.50)?,
        "us",
        waits.len() as u64,
        "jobs",
    ));
    out.push(metric(
        "engine.queue_wait_us.p99",
        percentile(&waits, 0.99)?,
        "us",
        waits.len() as u64,
        "jobs",
    ));
    out.push(metric(
        "engine.failed",
        delta(&["metrics", "failed"]),
        "count",
        jobs,
        "jobs",
    ));
    out.push(metric(
        "engine.rejected",
        delta(&["metrics", "rejected"]),
        "count",
        jobs,
        "jobs",
    ));
    out.push(metric(
        "quota.refused",
        delta(&["metrics", "quota_refused"]),
        "count",
        jobs,
        "jobs",
    ));
    out.push(metric(
        "engine.maintain_lost_updates",
        lost as f64,
        "count",
        own.write_tenants.len() as u64,
        "write tenants",
    ));
    let rtt_n = rtt_direct.len() as u64;
    out.push(metric(
        "net.hop_us",
        median(&rtt_direct) - engine_probe.in_process_us,
        "us",
        rtt_n,
        "round trips",
    ));
    out.push(metric(
        "net.evicted_slow",
        wl::metric_sum(&after, &["metrics", "net", "evicted_slow"]) as f64,
        "count",
        wl::metric_sum(&after, &["metrics", "net", "accepted"]),
        "connections",
    ));
    out.push(metric(
        "shard.hop_us",
        median(&rtt_router) - median(&rtt_direct),
        "us",
        rtt_n,
        "round trips",
    ));
    out.push(metric(
        "shard.inflight_failed",
        wl::metric_sum(
            std::slice::from_ref(&router_metrics),
            &["router", "inflight_failed"],
        ) as f64,
        "count",
        wl::metric_sum(&[router_metrics], &["router", "forwarded"]),
        "forwarded",
    ));
    let p50 = |r: &[Record]| percentile(&wl::latencies_ms(r, Kind::Detect), 0.50);
    let traced_detects = wl::latencies_ms(&traced_phase.records, Kind::Detect).len() as u64;
    out.push(metric(
        "obs.tracing_overhead_ms",
        p50(&traced_phase.records)? - p50(&plain.records)?,
        "ms",
        traced_detects,
        "traced detects",
    ));
    out.push(metric(
        "loadgen.late_p99_ms",
        late,
        "ms",
        traced_phase.records.len() as u64,
        "sends",
    ));

    println!(
        "# traced {}: {} spans recorded by the generator",
        cfg.name,
        ring.cursor()
    );
    for m in &out {
        print_metric(
            &m.name,
            Ok(m.value),
            m.unit,
            &format!("n={} {}", m.base, m.base_of),
        );
    }
    let tally = Tally::of(&all);
    if let Some(why) = &wrong {
        eprintln!("perfbench: wrong output: {why}");
    }
    let json_metrics: Vec<(String, f64, &str)> = out
        .iter()
        .map(|m| (m.name.clone(), m.value, m.unit))
        .collect();
    println!("{}", result_json(wrong.is_none(), &tally, &json_metrics));
    Ok(wrong.is_none())
}

fn main() {
    let code = match parse_args() {
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
        Ok(args) => {
            let run = || -> Result<bool, String> {
                if !args.bin.is_file() {
                    return Err(format!("no freqywm binary at {}", args.bin.display()));
                }
                let cfg = config::workload(&args.workload).expect("listed workloads have a config");
                let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
                let scratch = Scratch::create()?;
                print_meta(&args, nproc, &procs::fs_type(&scratch.root));
                if args.trace {
                    traced(&args, &cfg, nproc, &scratch)
                } else {
                    untraced(&args, &cfg, nproc, &scratch)
                }
            };
            match run() {
                Ok(true) => 0,
                Ok(false) => 1,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    1
                }
            }
        }
    };
    std::process::exit(code);
}
