//! In-process probes for the traced run: the same generated inputs,
//! replayed through each layer's public functions, timed from here.

use crate::gen::{self, Request, Tenant};
use crate::stats::median;
use crate::workload::Inputs;
use freqywm::core::detect::detect_histogram;
use freqywm::core::eligible::eligible_pairs;
use freqywm::core::incremental::IncrementalWatermarker;
use freqywm::core::select::select_pairs;
use freqywm::crypto::prf::{pair_modulus, DirectPrf, PrfProvider, Secret};
use freqywm::crypto::sha256::sha256;
use freqywm::service::job::JobKind;
use freqywm::service::proto::{self, Planned};
use freqywm::service::quota::{QuotaConfig, QuotaManager};
use freqywm::service::{
    DiskLog, DurableRegistry, Engine, EngineConfig, JobState, OpKind, PrfCache, PrfCacheConfig,
    Span, SpanRing, Stage,
};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One per-layer number with the count it rests on.
#[derive(Debug, Clone)]
pub struct LayerMetric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub base: u64,
    pub base_of: &'static str,
}

pub fn metric(
    name: &str,
    value: f64,
    unit: &'static str,
    base: u64,
    base_of: &'static str,
) -> LayerMetric {
    LayerMetric {
        name: name.to_string(),
        value,
        unit,
        base,
        base_of,
    }
}

/// Batches per ns-scale measurement; the median batch is reported.
const BATCHES: usize = 7;

/// Median over `BATCHES` batches of the mean time per call of `f` over
/// `calls` calls, in ns.
fn ns_per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let per_batch: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..calls {
                f(i);
            }
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&per_batch)
}

/// Median time of `f` over each item, `reps` rounds, in µs.
fn us_each<T>(items: &[T], reps: usize, mut f: impl FnMut(&T)) -> (f64, u64) {
    let mut samples = Vec::with_capacity(items.len() * reps);
    for _ in 0..reps {
        for it in items {
            let t0 = Instant::now();
            f(it);
            samples.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    let n = samples.len() as u64;
    (median(&samples), n)
}

fn tenant_of<'a>(tenants: &'a [Tenant], name: &str) -> &'a Tenant {
    tenants
        .iter()
        .find(|t| t.name == name)
        .unwrap_or_else(|| panic!("no tenant {name}"))
}

/// Histogram a detect line carries, recovered through the protocol
/// parser (so probes see exactly what the servers saw).
fn planned_job(line: &str) -> freqywm::service::JobSpec {
    match proto::plan(line).1 {
        Ok(Planned::Job(spec)) => spec,
        _ => panic!("not a job line: {line}"),
    }
}

fn suspect_of(req: &Request) -> freqywm::data::histogram::Histogram {
    match planned_job(&req.line).payload {
        freqywm::service::JobPayload::Detect {
            data: freqywm::service::JobData::Histogram(h),
            ..
        } => h,
        _ => panic!("not a detect with counts"),
    }
}

/// The inputs each probe replays.
pub struct ProbeInputs<'a> {
    /// The workload's detects and the tenants they target.
    pub detects: &'a [Arc<Request>],
    pub detect_tenants: &'a [Tenant],
    /// The workload's embed inputs.
    pub embeds: &'a [Tenant],
    /// Paper-scale and ~150-token detect lines, for the parser.
    pub large_detects: &'a [Arc<Request>],
    pub small_detects: &'a [Arc<Request>],
    /// `mixed`'s write tenants and maintains.
    pub write_tenants: &'a [Tenant],
    pub maintains: &'a [Arc<Request>],
}

impl<'a> ProbeInputs<'a> {
    pub fn new(
        own: &'a Inputs,
        verify: &'a Inputs,
        mixed: &'a Inputs,
        embeds: &'a [Tenant],
    ) -> Self {
        ProbeInputs {
            detects: &own.pools.detects,
            detect_tenants: &own.setup,
            embeds,
            large_detects: &verify.pools.detects,
            small_detects: &mixed.pools.detects,
            write_tenants: &mixed.write_tenants,
            maintains: &mixed.pools.maintains,
        }
    }
}

/// Stored pairs of the detect tenants, as (secret, tk_i, tk_j, z).
fn stored_pairs(tenants: &[Tenant]) -> Vec<(Secret, Vec<u8>, Vec<u8>, u64)> {
    tenants
        .iter()
        .flat_map(|t| {
            let s = &t.reference.secrets;
            s.pairs.iter().map(move |(a, b)| {
                (
                    s.secret.clone(),
                    a.as_bytes().to_vec(),
                    b.as_bytes().to_vec(),
                    s.z,
                )
            })
        })
        .collect()
}

pub fn crypto(p: &ProbeInputs) -> Vec<LayerMetric> {
    let pairs = stored_pairs(p.detect_tenants);
    let pm = ns_per_call(pairs.len(), |i| {
        let (s, a, b, z) = &pairs[i];
        black_box(pair_modulus(s, a, b, *z));
    });
    let block = [0x5au8; 64];
    let sha = ns_per_call(20_000, |_| {
        black_box(sha256(black_box(&block)));
    });
    vec![
        metric(
            "crypto.pair_modulus_ns",
            pm,
            "ns",
            (pairs.len() * BATCHES) as u64,
            "calls",
        ),
        metric(
            "crypto.sha256_64B_ns",
            sha,
            "ns",
            (20_000 * BATCHES) as u64,
            "calls",
        ),
    ]
}

pub fn core(p: &ProbeInputs) -> Vec<LayerMetric> {
    let suspects: Vec<_> = p
        .detects
        .iter()
        .map(|r| (tenant_of(p.detect_tenants, &r.tenant), suspect_of(r)))
        .collect();
    let mut pairs_total = 0usize;
    let (detect_us, detect_n) = us_each(&suspects, 3, |(t, h)| {
        let o = detect_histogram(h, &t.reference.secrets, &gen::detect_params(t));
        pairs_total += o.total_pairs;
        black_box(o);
    });
    let params = gen::generation_params();
    let mut eligible_total = 0usize;
    let mut eligible_sets = Vec::new();
    let (eligible_us, eligible_n) = us_each(p.embeds, 1, |t| {
        let e = eligible_pairs(&t.hist, &Secret::from_label(&t.label), params.z);
        eligible_total += e.len();
        eligible_sets.push(e);
    });
    let inputs: Vec<_> = p.embeds.iter().zip(&eligible_sets).collect();
    let (select_us, select_n) = us_each(&inputs, 1, |(t, e)| {
        black_box(select_pairs(&t.hist, e, &params));
    });
    let chosen: usize = p
        .embeds
        .iter()
        .map(|t| t.reference.report.chosen_pairs)
        .sum();
    let eligible_ref: usize = p
        .embeds
        .iter()
        .map(|t| t.reference.report.eligible_pairs)
        .sum();
    let maintains: Vec<_> = p
        .maintains
        .iter()
        .map(|r| (tenant_of(p.write_tenants, &r.tenant), r))
        .collect();
    let (maintain_us, maintain_n) = us_each(&maintains, 1, |(t, r)| {
        let gen::Expect::Maintain { updates } = &r.expect else {
            unreachable!("maintain pool holds maintains")
        };
        let mut m = IncrementalWatermarker::new(
            gen::maintain_params(t.reference.secrets.z),
            t.reference.secrets.clone(),
            t.reference.watermarked.clone(),
        );
        black_box(m.apply_updates(updates, false).expect("maintain probe"));
    });
    let n_embeds = p.embeds.len() as u64;
    vec![
        metric("core.detect_us", detect_us, "us", detect_n, "detects"),
        metric(
            "core.detect_pairs",
            pairs_total as f64 / detect_n as f64,
            "pairs",
            detect_n,
            "detects",
        ),
        metric("core.eligible_us", eligible_us, "us", eligible_n, "sweeps"),
        metric(
            "core.eligible_pairs",
            eligible_total as f64 / n_embeds as f64,
            "pairs",
            n_embeds,
            "sweeps",
        ),
        metric(
            "core.chosen_per_eligible",
            chosen as f64 / eligible_ref as f64,
            "ratio",
            eligible_ref as u64,
            "eligible pairs",
        ),
        metric("core.select_us", select_us, "us", select_n, "selections"),
        metric(
            "core.maintain_us",
            maintain_us,
            "us",
            maintain_n,
            "maintains",
        ),
    ]
}

/// Parser, renderer and engine-job times, plus the in-process cost of
/// `hop_line` (plan + run + render), which `net.hop_us` subtracts.
pub struct EngineProbe {
    pub metrics: Vec<LayerMetric>,
    pub in_process_us: f64,
}

pub fn proto_and_engine(p: &ProbeInputs, hop_line: &Request) -> EngineProbe {
    let plan_us = |reqs: &[Arc<Request>]| {
        us_each(reqs, 3, |r| {
            let _ = black_box(proto::plan(&r.line));
        })
    };
    let (large_us, large_n) = plan_us(p.large_detects);
    let (small_us, small_n) = plan_us(p.small_detects);
    let embed_lines: Vec<Request> = p
        .embeds
        .iter()
        .map(|t| gen::setup_requests(t)[1].clone())
        .collect();
    let (embed_plan_us, embed_plan_n) = us_each(&embed_lines, 3, |r| {
        let _ = black_box(proto::plan(&r.line));
    });

    let engine = Engine::start(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let register = |t: &Tenant, name: &str| {
        engine
            .register_tenant(name, Secret::from_label(&t.label))
            .expect("register in probe engine");
    };
    let run = |line: &str| -> (JobState, f64) {
        let spec = planned_job(line);
        let t0 = Instant::now();
        let state = engine.run(spec);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        assert!(
            matches!(state, JobState::Completed(_)),
            "probe job failed: {state:?}"
        );
        (state, us)
    };
    let mut registered = std::collections::BTreeSet::new();
    for t in p.detect_tenants.iter().chain(p.write_tenants) {
        if !registered.insert(t.name.as_str()) {
            continue;
        }
        register(t, &t.name);
        run(&gen::setup_requests(t)[1].line);
    }
    let mut embed_us = Vec::new();
    for (i, t) in p.embeds.iter().enumerate() {
        let name = format!("probe-embed-{i}");
        register(t, &name);
        let line = gen::setup_requests(t)[1].line.replace(
            &format!("\"tenant\":\"{}\"", t.name),
            &format!("\"tenant\":\"{name}\""),
        );
        embed_us.push(run(&line).1);
    }
    // Warm the cache the way a server's would be, then time.
    for r in p.detects {
        run(&r.line);
    }
    let mut detect_us = Vec::new();
    let mut render_us = Vec::new();
    for _ in 0..3 {
        for r in p.detects {
            let (state, us) = run(&r.line);
            detect_us.push(us);
            let t0 = Instant::now();
            black_box(proto::render_job_state(state, None));
            render_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    let maintain_us: Vec<f64> = p.maintains.iter().map(|r| run(&r.line).1).collect();

    let mut hop = Vec::new();
    for _ in 0..200 {
        let t0 = Instant::now();
        let spec = match proto::plan(&hop_line.line).1 {
            Ok(Planned::Job(spec)) => spec,
            _ => unreachable!("hop line is a job"),
        };
        let state = engine.run(spec);
        black_box(proto::render_job_state(state, None));
        hop.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    engine.shutdown();

    let n = |v: &Vec<f64>| v.len() as u64;
    EngineProbe {
        metrics: vec![
            metric(
                "proto.plan_us.detect_large",
                large_us,
                "us",
                large_n,
                "lines",
            ),
            metric(
                "proto.plan_us.detect_small",
                small_us,
                "us",
                small_n,
                "lines",
            ),
            metric(
                "proto.plan_us.embed",
                embed_plan_us,
                "us",
                embed_plan_n,
                "lines",
            ),
            metric(
                "proto.render_us",
                median(&render_us),
                "us",
                n(&render_us),
                "responses",
            ),
            metric(
                "engine.run_us.detect",
                median(&detect_us),
                "us",
                n(&detect_us),
                "jobs",
            ),
            metric(
                "engine.run_us.embed",
                median(&embed_us),
                "us",
                n(&embed_us),
                "jobs",
            ),
            metric(
                "engine.run_us.maintain",
                median(&maintain_us),
                "us",
                n(&maintain_us),
                "jobs",
            ),
        ],
        in_process_us: median(&hop),
    }
}

pub fn prf_cache(p: &ProbeInputs) -> Vec<LayerMetric> {
    let pairs = stored_pairs(p.detect_tenants);
    let cache = PrfCache::new(PrfCacheConfig::default());
    let view = |s: &Secret| cache.for_tag(s.cache_tag());
    for (s, a, b, z) in &pairs {
        view(s).pair_modulus(s, a, b, *z);
    }
    let hit = ns_per_call(pairs.len(), |i| {
        let (s, a, b, z) = &pairs[i];
        black_box(view(s).pair_modulus(s, a, b, *z));
    });
    let recompute = ns_per_call(pairs.len(), |i| {
        let (s, a, b, z) = &pairs[i];
        black_box(DirectPrf.pair_modulus(s, a, b, *z));
    });
    let lookups = (pairs.len() * BATCHES) as u64;
    vec![
        metric("prf_cache.hit_ns", hit, "ns", lookups, "lookups"),
        metric("prf_cache.recompute_ns", recompute, "ns", lookups, "calls"),
    ]
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Appends through a durable registry on a `DiskLog` in `dir`: the
/// workload's embed outputs, then maintained watermarks.
pub fn persist(p: &ProbeInputs, dir: &Path) -> Vec<LayerMetric> {
    let log = DiskLog::open(dir).expect("open probe log");
    let mut reg = DurableRegistry::open(crate::procs::LEDGER_KEY.as_bytes(), Box::new(log), 0)
        .expect("open probe registry");
    let mut clock = 1u64;
    let mut tick = || {
        clock += 1;
        clock
    };
    for t in p.embeds.iter().chain(p.write_tenants) {
        reg.register_tenant(&t.name, Secret::from_label(&t.label), tick())
            .expect("probe register");
    }
    let before = dir_bytes(dir);
    let mut us = Vec::new();
    for t in p.embeds.iter().chain(p.write_tenants) {
        let t0 = Instant::now();
        reg.record_watermark(
            &t.name,
            t.reference.secrets.clone(),
            t.reference.watermarked.clone(),
            tick(),
        )
        .expect("probe record");
        us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    for r in p.maintains {
        let t = tenant_of(p.write_tenants, &r.tenant);
        let gen::Expect::Maintain { updates } = &r.expect else {
            unreachable!("maintain pool holds maintains")
        };
        let latest = reg.latest_watermark(&t.name).expect("recorded above");
        let mut m = IncrementalWatermarker::new(
            gen::maintain_params(latest.secrets.z),
            latest.secrets.clone(),
            latest.watermarked.clone(),
        );
        m.apply_updates(updates, false).expect("probe maintain");
        let t0 = Instant::now();
        reg.replace_latest_watermark(&t.name, m.secrets().clone(), m.histogram().clone(), tick())
            .expect("probe replace");
        us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let appends = us.len() as u64;
    let bytes = dir_bytes(dir).saturating_sub(before);
    vec![
        metric("persist.append_us", median(&us), "us", appends, "appends"),
        metric(
            "persist.log_bytes_per_mutation",
            bytes as f64 / appends as f64,
            "B",
            appends,
            "appends",
        ),
    ]
}

pub fn quota_and_obs() -> Vec<LayerMetric> {
    let quota = QuotaManager::new(QuotaConfig::default());
    let calls = 20_000;
    let check = ns_per_call(calls, |i| {
        black_box(quota.check(black_box("v00"), JobKind::Detect, i as u64));
    });
    let ring = SpanRing::new(4096);
    let span = Span::ending_now("t-0000000000000000", "v00", OpKind::Detect, Stage::Run, 250);
    let record = ns_per_call(calls, |_| ring.record(black_box(&span)));
    let n = (calls * BATCHES) as u64;
    vec![
        metric("quota.check_ns", check, "ns", n, "checks"),
        metric("obs.span_record_ns", record, "ns", n, "records"),
    ]
}
