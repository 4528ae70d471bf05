//! Engine metrics and audit counters.
//!
//! Lock-free (`AtomicU64`) counters updated by workers on every job
//! transition, plus a power-of-two latency histogram. A
//! [`MetricsSnapshot`] is a plain value — cheap to take, serialisable
//! to JSON for the `metrics` protocol op.

use crate::job::JobKind;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Number of latency buckets: bucket `i` holds jobs whose run time in
/// microseconds is in `[2^(i-1), 2^i)` (bucket 0: `< 1 µs`), with the
/// last bucket open-ended (≥ ~34 s).
pub const LATENCY_BUCKETS: usize = 26;

#[derive(Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    total_micros: AtomicU64,
    count: AtomicU64,
}

impl LatencyHistogram {
    pub fn record(&self, d: Duration) {
        let micros = d.as_micros().min(u64::MAX as u128) as u64;
        let bucket = (64 - micros.leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.total_micros.fetch_add(micros, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> LatencySnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        LatencySnapshot {
            buckets,
            total_micros: self.total_micros.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time view of the latency histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LatencySnapshot {
    pub buckets: Vec<u64>,
    pub total_micros: u64,
    pub count: u64,
}

impl LatencySnapshot {
    pub fn mean_micros(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_micros as f64 / self.count as f64
        }
    }

    /// Upper bound (in µs) of the bucket containing quantile `q`.
    pub fn quantile_upper_micros(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return 1u64 << i;
            }
        }
        1u64 << (LATENCY_BUCKETS - 1)
    }
}

/// Connection-level gauges and counters, fed by whatever front-end is
/// serving the engine (the `freqywm-net` reactor; the stdin pipe leaves
/// them at zero). `active` is a gauge — incremented on accept,
/// decremented on close — everything else counts monotonically.
#[derive(Default)]
pub struct NetCounters {
    pub accepted: AtomicU64,
    pub active: AtomicU64,
    pub rejected: AtomicU64,
    pub evicted_slow: AtomicU64,
    pub timed_out_idle: AtomicU64,
    pub bytes_in: AtomicU64,
    pub bytes_out: AtomicU64,
}

impl NetCounters {
    pub fn conn_accepted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.active.fetch_add(1, Ordering::Relaxed);
    }

    /// Closes balance accepts; the gauge saturates at zero rather than
    /// wrapping if a front-end miscounts.
    pub fn conn_closed(&self) {
        let _ = self
            .active
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    pub fn conn_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    pub fn conn_evicted_slow(&self) {
        self.evicted_slow.fetch_add(1, Ordering::Relaxed);
    }

    pub fn conn_timed_out_idle(&self) {
        self.timed_out_idle.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_bytes_in(&self, n: u64) {
        self.bytes_in.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_bytes_out(&self, n: u64) {
        self.bytes_out.fetch_add(n, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> NetSnapshot {
        NetSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            active: self.active.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            evicted_slow: self.evicted_slow.load(Ordering::Relaxed),
            timed_out_idle: self.timed_out_idle.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time view of the connection counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetSnapshot {
    pub accepted: u64,
    pub active: u64,
    pub rejected: u64,
    pub evicted_slow: u64,
    pub timed_out_idle: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
}

/// Per-tenant per-op attribution, kept under one mutex: updates are a
/// handful of integer bumps on job completion (far off the PRF-sweep
/// hot path), and a plain map keeps snapshotting trivial.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantOps {
    pub embed: u64,
    pub detect: u64,
    pub maintain: u64,
    pub rejected: u64,
    /// Jobs that passed admission (quota + queue) for this tenant.
    pub admitted: u64,
    /// Jobs refused at admission because the tenant's sliding-window
    /// budget for the op class was already spent.
    pub quota_refused: u64,
    /// Sum of run latencies (µs) across this tenant's completed jobs,
    /// so `latency_sum / jobs` gives a per-tenant mean without a
    /// per-tenant histogram.
    pub latency_sum_us: u64,
}

/// One tenant's row in a [`MetricsSnapshot`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantOpsSnapshot {
    pub tenant: String,
    pub ops: TenantOps,
}

/// All engine counters.
pub struct Metrics {
    pub submitted: AtomicU64,
    pub completed: AtomicU64,
    pub failed: AtomicU64,
    pub timed_out: AtomicU64,
    pub rejected: AtomicU64,
    pub cancelled: AtomicU64,
    /// Jobs refused at admission by the per-tenant quota tier. Kept
    /// separate from `rejected` (queue-full/draining): a quota refusal
    /// is the tier working as designed, not backpressure.
    pub quota_refused: AtomicU64,
    pub embed_jobs: AtomicU64,
    pub detect_jobs: AtomicU64,
    pub maintain_jobs: AtomicU64,
    pub disputes: AtomicU64,
    /// Slow-request log lines dropped by the stderr rate limiter — a
    /// latency storm shows up here instead of flooding the log.
    pub slow_log_suppressed: AtomicU64,
    /// Storage writes that failed off the request path: quota
    /// checkpoints, plus the registry's failed periodic snapshots that
    /// the engine adds when it takes a snapshot. The request they rode
    /// on still stands, so the failure is counted instead of failing it.
    pub storage_errors: AtomicU64,
    /// Run time: dequeue → completion.
    pub latency: LatencyHistogram,
    /// Queue wait: enqueue → dequeue, recorded separately so a slow
    /// request can be attributed to a saturated queue vs a slow sweep.
    pub queue_wait: LatencyHistogram,
    pub net: NetCounters,
    per_tenant: Mutex<HashMap<String, TenantOps>>,
    started: Instant,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            quota_refused: AtomicU64::new(0),
            embed_jobs: AtomicU64::new(0),
            detect_jobs: AtomicU64::new(0),
            maintain_jobs: AtomicU64::new(0),
            disputes: AtomicU64::new(0),
            slow_log_suppressed: AtomicU64::new(0),
            storage_errors: AtomicU64::new(0),
            latency: LatencyHistogram::default(),
            queue_wait: LatencyHistogram::default(),
            net: NetCounters::default(),
            per_tenant: Mutex::new(HashMap::new()),
            started: Instant::now(),
        }
    }
}

macro_rules! bump {
    ($self:ident . $field:ident) => {
        $self.$field.fetch_add(1, Ordering::Relaxed)
    };
}

impl Metrics {
    pub fn job_submitted(&self) {
        bump!(self.submitted);
    }
    pub fn job_completed(&self, took: Duration) {
        bump!(self.completed);
        self.latency.record(took);
    }
    pub fn job_failed(&self) {
        bump!(self.failed);
    }
    pub fn job_timed_out(&self) {
        bump!(self.timed_out);
    }
    pub fn job_rejected(&self) {
        bump!(self.rejected);
    }
    pub fn job_cancelled(&self) {
        bump!(self.cancelled);
    }

    /// Attribute a completed job to its tenant.
    pub fn tenant_job(&self, tenant: &str, kind: JobKind, took: Duration) {
        let mut map = self.per_tenant.lock().expect("per-tenant poisoned");
        let row = map.entry(tenant.to_string()).or_default();
        match kind {
            JobKind::Embed => row.embed += 1,
            JobKind::Detect => row.detect += 1,
            JobKind::Maintain => row.maintain += 1,
        }
        row.latency_sum_us += took.as_micros().min(u64::MAX as u128) as u64;
    }

    /// Attribute a queue-full (or draining) rejection to its tenant.
    pub fn tenant_rejected(&self, tenant: &str) {
        let mut map = self.per_tenant.lock().expect("per-tenant poisoned");
        map.entry(tenant.to_string()).or_default().rejected += 1;
    }

    /// Count a job that cleared admission (quota and queue) for its
    /// tenant — the denominator of the per-tenant refusal rate.
    pub fn tenant_admitted(&self, tenant: &str) {
        let mut map = self.per_tenant.lock().expect("per-tenant poisoned");
        map.entry(tenant.to_string()).or_default().admitted += 1;
    }

    /// Count a quota refusal: bumps the engine-wide counter and the
    /// tenant's row. Deliberately does *not* touch `rejected` — quota
    /// refusals are budget enforcement, not queue pressure.
    pub fn quota_refused(&self, tenant: &str) {
        self.quota_refused.fetch_add(1, Ordering::Relaxed);
        let mut map = self.per_tenant.lock().expect("per-tenant poisoned");
        map.entry(tenant.to_string()).or_default().quota_refused += 1;
    }

    pub fn snapshot(&self, queue_depth: usize, tenants: usize) -> MetricsSnapshot {
        MetricsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            quota_refused: self.quota_refused.load(Ordering::Relaxed),
            embed_jobs: self.embed_jobs.load(Ordering::Relaxed),
            detect_jobs: self.detect_jobs.load(Ordering::Relaxed),
            maintain_jobs: self.maintain_jobs.load(Ordering::Relaxed),
            disputes: self.disputes.load(Ordering::Relaxed),
            slow_log_suppressed: self.slow_log_suppressed.load(Ordering::Relaxed),
            storage_errors: self.storage_errors.load(Ordering::Relaxed),
            latency: self.latency.snapshot(),
            queue_wait: self.queue_wait.snapshot(),
            net: self.net.snapshot(),
            queue_depth: queue_depth as u64,
            tenants: tenants as u64,
            uptime_s: self.started.elapsed().as_secs(),
            version: env!("CARGO_PKG_VERSION").to_string(),
            per_tenant: {
                let map = self.per_tenant.lock().expect("per-tenant poisoned");
                let mut rows: Vec<TenantOpsSnapshot> = map
                    .iter()
                    .map(|(tenant, ops)| TenantOpsSnapshot {
                        tenant: tenant.clone(),
                        ops: *ops,
                    })
                    .collect();
                rows.sort_by(|a, b| a.tenant.cmp(&b.tenant));
                rows
            },
            shard: None,
            role: None,
            log_seq: 0,
        }
    }
}

/// Plain-value snapshot of every counter, for audits and the protocol.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    pub submitted: u64,
    pub completed: u64,
    pub failed: u64,
    pub timed_out: u64,
    pub rejected: u64,
    pub cancelled: u64,
    /// Jobs refused at admission by the per-tenant quota tier.
    pub quota_refused: u64,
    pub embed_jobs: u64,
    pub detect_jobs: u64,
    pub maintain_jobs: u64,
    pub disputes: u64,
    /// Slow-log lines dropped by the stderr rate limiter.
    pub slow_log_suppressed: u64,
    /// Failed off-path storage writes (see [`Metrics::storage_errors`]).
    pub storage_errors: u64,
    pub latency: LatencySnapshot,
    pub queue_wait: LatencySnapshot,
    pub net: NetSnapshot,
    pub queue_depth: u64,
    pub tenants: u64,
    /// Seconds since the engine's metrics were created (engine start).
    pub uptime_s: u64,
    /// Build version (`CARGO_PKG_VERSION` of the service crate).
    pub version: String,
    /// Per-tenant per-op attribution, sorted by tenant id.
    pub per_tenant: Vec<TenantOpsSnapshot>,
    /// Shard label when this engine serves one partition of a sharded
    /// deployment (`freqywm serve --shard-id i/N`).
    pub shard: Option<String>,
    /// `"follower"` while replicating from a primary, `"primary"`
    /// otherwise — operators watch this flip on promotion.
    pub role: Option<String>,
    /// Durable-log sequence number the next event will carry. A
    /// follower is caught up when its `log_seq` equals the primary's.
    pub log_seq: u64,
}

impl MetricsSnapshot {
    /// Renders the snapshot as Prometheus text exposition (format
    /// 0.0.4): every counter/gauge under a `freqywm_` prefix, the two
    /// power-of-two latency histograms with explicit `le` bounds in
    /// seconds, and per-tenant op counters as labelled series. This is
    /// the body `GET /metrics` serves on `--metrics-listen`.
    pub fn to_prom(&self) -> String {
        use freqywm_obs::prom::{PromKind, PromText};
        let mut w = PromText::new();
        w.family(
            "freqywm_build_info",
            PromKind::Gauge,
            "Build metadata; value is always 1.",
        );
        w.sample("freqywm_build_info", &[("version", &self.version)], 1.0);
        if let Some(shard) = &self.shard {
            w.family(
                "freqywm_shard_info",
                PromKind::Gauge,
                "Shard label of this engine; value is always 1.",
            );
            w.sample("freqywm_shard_info", &[("shard", shard)], 1.0);
        }
        if let Some(role) = &self.role {
            w.family(
                "freqywm_role",
                PromKind::Gauge,
                "Replication role of this engine; value is always 1.",
            );
            w.sample("freqywm_role", &[("role", role)], 1.0);
            w.scalar(
                "freqywm_log_seq",
                PromKind::Gauge,
                "Durable-log sequence number the next event will carry.",
                self.log_seq as f64,
            );
        }
        w.scalar(
            "freqywm_uptime_seconds",
            PromKind::Gauge,
            "Seconds since engine start.",
            self.uptime_s as f64,
        );
        for (name, help, v) in [
            (
                "freqywm_jobs_submitted_total",
                "Jobs accepted into the queue.",
                self.submitted,
            ),
            (
                "freqywm_jobs_completed_total",
                "Jobs completed successfully.",
                self.completed,
            ),
            (
                "freqywm_jobs_failed_total",
                "Jobs that failed.",
                self.failed,
            ),
            (
                "freqywm_jobs_timed_out_total",
                "Jobs reaped at their deadline.",
                self.timed_out,
            ),
            (
                "freqywm_jobs_rejected_total",
                "Jobs refused at admission.",
                self.rejected,
            ),
            (
                "freqywm_jobs_cancelled_total",
                "Jobs cancelled at shutdown.",
                self.cancelled,
            ),
            (
                "freqywm_quota_refused_total",
                "Jobs refused at admission by the per-tenant quota tier.",
                self.quota_refused,
            ),
            (
                "freqywm_disputes_total",
                "Ownership disputes arbitrated.",
                self.disputes,
            ),
            (
                "freqywm_slow_log_suppressed_total",
                "Slow-request log lines dropped by the stderr rate limiter.",
                self.slow_log_suppressed,
            ),
            (
                "freqywm_storage_errors_total",
                "Storage writes that failed off the request path.",
                self.storage_errors,
            ),
        ] {
            w.scalar(name, PromKind::Counter, help, v as f64);
        }
        w.family(
            "freqywm_ops_total",
            PromKind::Counter,
            "Completed jobs by operation.",
        );
        for (op, v) in [
            ("embed", self.embed_jobs),
            ("detect", self.detect_jobs),
            ("maintain", self.maintain_jobs),
        ] {
            w.sample("freqywm_ops_total", &[("op", op)], v as f64);
        }
        w.scalar(
            "freqywm_queue_depth",
            PromKind::Gauge,
            "Jobs queued but not yet running.",
            self.queue_depth as f64,
        );
        w.scalar(
            "freqywm_tenants",
            PromKind::Gauge,
            "Registered tenants.",
            self.tenants as f64,
        );
        for (name, help, hist) in [
            (
                "freqywm_request_duration_seconds",
                "Job run time (dequeue to completion).",
                &self.latency,
            ),
            (
                "freqywm_queue_wait_seconds",
                "Time jobs spent queued before a worker picked them up.",
                &self.queue_wait,
            ),
        ] {
            w.family(name, PromKind::Histogram, help);
            latency_to_prom(&mut w, name, &[], hist);
        }
        for (name, help, v) in [
            (
                "freqywm_net_accepted_total",
                "Connections accepted.",
                self.net.accepted,
            ),
            (
                "freqywm_net_rejected_total",
                "Connections refused at the cap.",
                self.net.rejected,
            ),
            (
                "freqywm_net_evicted_slow_total",
                "Connections evicted for slow reading.",
                self.net.evicted_slow,
            ),
            (
                "freqywm_net_timed_out_idle_total",
                "Connections reaped idle.",
                self.net.timed_out_idle,
            ),
            (
                "freqywm_net_bytes_in_total",
                "Bytes read from clients.",
                self.net.bytes_in,
            ),
            (
                "freqywm_net_bytes_out_total",
                "Bytes written to clients.",
                self.net.bytes_out,
            ),
        ] {
            w.scalar(name, PromKind::Counter, help, v as f64);
        }
        w.scalar(
            "freqywm_net_active_connections",
            PromKind::Gauge,
            "Currently open client connections.",
            self.net.active as f64,
        );
        if !self.per_tenant.is_empty() {
            w.family(
                "freqywm_tenant_ops_total",
                PromKind::Counter,
                "Completed jobs by tenant and operation.",
            );
            for row in &self.per_tenant {
                for (op, v) in [
                    ("embed", row.ops.embed),
                    ("detect", row.ops.detect),
                    ("maintain", row.ops.maintain),
                ] {
                    w.sample(
                        "freqywm_tenant_ops_total",
                        &[("tenant", &row.tenant), ("op", op)],
                        v as f64,
                    );
                }
            }
            w.family(
                "freqywm_tenant_rejected_total",
                PromKind::Counter,
                "Rejected jobs by tenant.",
            );
            for row in &self.per_tenant {
                w.sample(
                    "freqywm_tenant_rejected_total",
                    &[("tenant", &row.tenant)],
                    row.ops.rejected as f64,
                );
            }
            w.family(
                "freqywm_tenant_admitted_total",
                PromKind::Counter,
                "Jobs that cleared admission, by tenant.",
            );
            for row in &self.per_tenant {
                w.sample(
                    "freqywm_tenant_admitted_total",
                    &[("tenant", &row.tenant)],
                    row.ops.admitted as f64,
                );
            }
            w.family(
                "freqywm_tenant_quota_refused_total",
                PromKind::Counter,
                "Jobs refused by the quota tier, by tenant.",
            );
            for row in &self.per_tenant {
                w.sample(
                    "freqywm_tenant_quota_refused_total",
                    &[("tenant", &row.tenant)],
                    row.ops.quota_refused as f64,
                );
            }
        }
        w.finish()
    }

    /// Renders the snapshot as a single JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let buckets: Vec<String> = self.latency.buckets.iter().map(|b| b.to_string()).collect();
        let wait_buckets: Vec<String> = self
            .queue_wait
            .buckets
            .iter()
            .map(|b| b.to_string())
            .collect();
        let shard_part = match &self.shard {
            Some(label) => format!("\"shard\":\"{}\",", crate::proto::json::escape(label)),
            None => String::new(),
        };
        let role_part = match &self.role {
            Some(role) => format!(
                "\"role\":\"{}\",\"log_seq\":{},",
                crate::proto::json::escape(role),
                self.log_seq
            ),
            None => String::new(),
        };
        let per_tenant: Vec<String> = self
            .per_tenant
            .iter()
            .map(|row| {
                format!(
                    concat!(
                        "\"{}\":{{\"embed\":{},\"detect\":{},\"maintain\":{},",
                        "\"rejected\":{},\"admitted\":{},\"quota_refused\":{},",
                        "\"latency_sum_us\":{}}}"
                    ),
                    crate::proto::json::escape(&row.tenant),
                    row.ops.embed,
                    row.ops.detect,
                    row.ops.maintain,
                    row.ops.rejected,
                    row.ops.admitted,
                    row.ops.quota_refused,
                    row.ops.latency_sum_us,
                )
            })
            .collect();
        format!(
            concat!(
                "{{\"version\":\"{}\",\"uptime_s\":{},",
                "\"submitted\":{},\"completed\":{},\"failed\":{},",
                "\"timed_out\":{},\"rejected\":{},\"cancelled\":{},",
                "\"quota_refused\":{},",
                "\"embed_jobs\":{},\"detect_jobs\":{},\"maintain_jobs\":{},",
                "\"disputes\":{},\"slow_log_suppressed\":{},\"storage_errors\":{},",
                "\"queue_depth\":{},\"tenants\":{},{}{}",
                "\"latency\":{{\"count\":{},\"mean_us\":{:.1},\"p50_us\":{},",
                "\"p95_us\":{},\"p99_us\":{},\"buckets_us_pow2\":[{}]}},",
                "\"queue_wait\":{{\"count\":{},\"mean_us\":{:.1},\"p50_us\":{},",
                "\"p95_us\":{},\"p99_us\":{},\"buckets_us_pow2\":[{}]}},",
                "\"per_tenant\":{{{}}},",
                "\"net\":{{\"accepted\":{},\"active\":{},\"rejected\":{},",
                "\"evicted_slow\":{},\"timed_out_idle\":{},",
                "\"bytes_in\":{},\"bytes_out\":{}}}}}"
            ),
            crate::proto::json::escape(&self.version),
            self.uptime_s,
            self.submitted,
            self.completed,
            self.failed,
            self.timed_out,
            self.rejected,
            self.cancelled,
            self.quota_refused,
            self.embed_jobs,
            self.detect_jobs,
            self.maintain_jobs,
            self.disputes,
            self.slow_log_suppressed,
            self.storage_errors,
            self.queue_depth,
            self.tenants,
            shard_part,
            role_part,
            self.latency.count,
            self.latency.mean_micros(),
            self.latency.quantile_upper_micros(0.50),
            self.latency.quantile_upper_micros(0.95),
            self.latency.quantile_upper_micros(0.99),
            buckets.join(","),
            self.queue_wait.count,
            self.queue_wait.mean_micros(),
            self.queue_wait.quantile_upper_micros(0.50),
            self.queue_wait.quantile_upper_micros(0.95),
            self.queue_wait.quantile_upper_micros(0.99),
            wait_buckets.join(","),
            per_tenant.join(","),
            self.net.accepted,
            self.net.active,
            self.net.rejected,
            self.net.evicted_slow,
            self.net.timed_out_idle,
            self.net.bytes_in,
            self.net.bytes_out,
        )
    }
}

/// One shard's contribution to a router-tier `metrics` aggregation.
#[derive(Debug, Clone)]
pub struct ShardMetricsPiece {
    /// Shard index in the consistent-hash map.
    pub index: usize,
    /// Backend address the router dials for this shard.
    pub addr: String,
    /// Whether the router currently holds a live connection.
    pub up: bool,
    /// The shard's `metrics` object as parsed JSON; `None` when the
    /// shard was unreachable (its counters are simply absent from the
    /// totals — aggregation degrades, it does not fail).
    pub metrics: Option<crate::proto::json::Value>,
}

/// Counter keys summed across shards into the `totals` object. Gauges
/// that sum meaningfully (`queue_depth`, `tenants`) are included;
/// latencies stay per-shard only.
const AGGREGATE_KEYS: &[&str] = &[
    "submitted",
    "completed",
    "failed",
    "timed_out",
    "rejected",
    "cancelled",
    "quota_refused",
    "embed_jobs",
    "detect_jobs",
    "maintain_jobs",
    "disputes",
    "slow_log_suppressed",
    "storage_errors",
    "queue_depth",
    "tenants",
];

/// Connection counters summed across shards into `totals.net`. These
/// live *nested* under each shard's `net` object, so the flat
/// [`AGGREGATE_KEYS`] walk cannot reach them — they get their own pass.
const NET_AGGREGATE_KEYS: &[&str] = &[
    "accepted",
    "active",
    "rejected",
    "evicted_slow",
    "timed_out_idle",
    "bytes_in",
    "bytes_out",
];

/// Merges per-shard metrics into the router's fleet view: summed
/// `totals` (flat job counters plus the nested `net` connection
/// counters) and the untouched per-shard objects (so nothing is lost
/// to the aggregation). Renders one JSON object.
pub fn aggregate_shard_metrics(pieces: &[ShardMetricsPiece]) -> String {
    use crate::proto::json;
    let mut totals: Vec<String> = AGGREGATE_KEYS
        .iter()
        .map(|key| {
            let sum: u64 = pieces
                .iter()
                .filter_map(|p| p.metrics.as_ref())
                .filter_map(|m| m.get(key).and_then(json::Value::as_u64))
                .sum();
            format!("\"{key}\":{sum}")
        })
        .collect();
    let net_totals: Vec<String> = NET_AGGREGATE_KEYS
        .iter()
        .map(|key| {
            let sum: u64 = pieces
                .iter()
                .filter_map(|p| p.metrics.as_ref())
                .filter_map(|m| m.get("net").and_then(|n| n.get(key)))
                .filter_map(json::Value::as_u64)
                .sum();
            format!("\"{key}\":{sum}")
        })
        .collect();
    totals.push(format!("\"net\":{{{}}}", net_totals.join(",")));
    let shards_up = pieces.iter().filter(|p| p.up).count();
    let per_shard: Vec<String> = pieces
        .iter()
        .map(|p| {
            format!(
                "{{\"shard\":{},\"addr\":\"{}\",\"up\":{},\"metrics\":{}}}",
                p.index,
                json::escape(&p.addr),
                p.up,
                p.metrics
                    .as_ref()
                    .map_or_else(|| "null".to_string(), json::write),
            )
        })
        .collect();
    format!(
        "{{\"shard_count\":{},\"shards_up\":{},\"totals\":{{{}}},\"per_shard\":[{}]}}",
        pieces.len(),
        shards_up,
        totals.join(","),
        per_shard.join(","),
    )
}

/// Appends one [`LatencySnapshot`] as a Prometheus histogram series
/// under an already-started family. Bucket `i` of the engine histogram
/// holds durations in `[2^(i-1), 2^i)` µs, so its upper bound is `2^i`
/// µs (rendered in seconds); the final engine bucket is open-ended and
/// maps to `+Inf` only. Shared by the engine exposition and the
/// router's per-backend RTT histograms.
pub fn latency_to_prom(
    w: &mut freqywm_obs::prom::PromText,
    name: &str,
    labels: &[(&str, &str)],
    hist: &LatencySnapshot,
) {
    let last = hist.buckets.len().saturating_sub(1);
    let bounds: Vec<f64> = (0..last).map(|i| (1u64 << i) as f64 / 1e6).collect();
    w.histogram(
        name,
        labels,
        &bounds,
        &hist.buckets[..last],
        hist.total_micros as f64 / 1e6,
        hist.count,
    );
}

/// One compact retention sample: the monotone counters (plus two
/// gauges) a rate or trend can be derived from, cheap enough to take
/// every `--retain-interval-ms` and keep hundreds of. Everything else
/// in [`MetricsSnapshot`] (histogram shapes, per-tenant rows) stays
/// point-in-time only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistorySample {
    pub submitted: u64,
    pub completed: u64,
    pub failed: u64,
    pub timed_out: u64,
    pub rejected: u64,
    pub quota_refused: u64,
    pub embed_jobs: u64,
    pub detect_jobs: u64,
    pub maintain_jobs: u64,
    pub slow_log_suppressed: u64,
    /// Gauge: queue depth at sample time.
    pub queue_depth: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    /// Gauge: durable-log sequence at sample time (replication lag is
    /// the primary/standby difference of this series).
    pub log_seq: u64,
    pub latency_sum_us: u64,
    pub latency_count: u64,
    pub queue_wait_sum_us: u64,
    pub queue_wait_count: u64,
}

impl HistorySample {
    pub fn from_snapshot(s: &MetricsSnapshot) -> HistorySample {
        HistorySample {
            submitted: s.submitted,
            completed: s.completed,
            failed: s.failed,
            timed_out: s.timed_out,
            rejected: s.rejected,
            quota_refused: s.quota_refused,
            embed_jobs: s.embed_jobs,
            detect_jobs: s.detect_jobs,
            maintain_jobs: s.maintain_jobs,
            slow_log_suppressed: s.slow_log_suppressed,
            queue_depth: s.queue_depth,
            bytes_in: s.net.bytes_in,
            bytes_out: s.net.bytes_out,
            log_seq: s.log_seq,
            latency_sum_us: s.latency.total_micros,
            latency_count: s.latency.count,
            queue_wait_sum_us: s.queue_wait.total_micros,
            queue_wait_count: s.queue_wait.count,
        }
    }

    /// Renders one `(t_ms, sample)` pair as a JSON object.
    pub fn to_json(&self, t_ms: u64) -> String {
        format!(
            concat!(
                "{{\"t_ms\":{},\"submitted\":{},\"completed\":{},\"failed\":{},",
                "\"timed_out\":{},\"rejected\":{},\"quota_refused\":{},",
                "\"embed_jobs\":{},",
                "\"detect_jobs\":{},\"maintain_jobs\":{},",
                "\"slow_log_suppressed\":{},\"queue_depth\":{},",
                "\"bytes_in\":{},\"bytes_out\":{},\"log_seq\":{},",
                "\"latency_sum_us\":{},\"latency_count\":{},",
                "\"queue_wait_sum_us\":{},\"queue_wait_count\":{}}}"
            ),
            t_ms,
            self.submitted,
            self.completed,
            self.failed,
            self.timed_out,
            self.rejected,
            self.quota_refused,
            self.embed_jobs,
            self.detect_jobs,
            self.maintain_jobs,
            self.slow_log_suppressed,
            self.queue_depth,
            self.bytes_in,
            self.bytes_out,
            self.log_seq,
            self.latency_sum_us,
            self.latency_count,
            self.queue_wait_sum_us,
            self.queue_wait_count,
        )
    }
}

/// Derived rates between two retained samples, as a JSON object: the
/// `history` op reports this over its full retained window, and
/// `freqywm top` recomputes it frame-to-frame from the raw series.
/// Counter resets saturate to zero (see `freqywm_obs::history`).
pub fn history_rates_json(older: (u64, &HistorySample), newer: (u64, &HistorySample)) -> String {
    use freqywm_obs::history::{counter_delta, rate_per_sec};
    let (t0, a) = older;
    let (t1, b) = newer;
    let window_s = (t1.saturating_sub(t0)) as f64 / 1000.0;
    let lat_sum = counter_delta(a.latency_sum_us, b.latency_sum_us);
    let lat_n = counter_delta(a.latency_count, b.latency_count);
    let wait_sum = counter_delta(a.queue_wait_sum_us, b.queue_wait_sum_us);
    let busy = lat_sum + wait_sum;
    format!(
        concat!(
            "{{\"window_s\":{:.3},\"submitted_per_s\":{:.3},",
            "\"completed_per_s\":{:.3},\"failed_per_s\":{:.3},",
            "\"rejected_per_s\":{:.3},\"quota_refused_per_s\":{:.3},",
            "\"bytes_in_per_s\":{:.1},",
            "\"bytes_out_per_s\":{:.1},",
            "\"mean_latency_us\":{:.1},\"queue_wait_share\":{:.4}}}"
        ),
        window_s,
        rate_per_sec((t0, a.submitted), (t1, b.submitted)),
        rate_per_sec((t0, a.completed), (t1, b.completed)),
        rate_per_sec((t0, a.failed), (t1, b.failed)),
        rate_per_sec((t0, a.rejected), (t1, b.rejected)),
        rate_per_sec((t0, a.quota_refused), (t1, b.quota_refused)),
        rate_per_sec((t0, a.bytes_in), (t1, b.bytes_in)),
        rate_per_sec((t0, a.bytes_out), (t1, b.bytes_out)),
        if lat_n == 0 {
            0.0
        } else {
            lat_sum as f64 / lat_n as f64
        },
        if busy == 0 {
            0.0
        } else {
            wait_sum as f64 / busy as f64
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_buckets_are_log2() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(0));
        h.record(Duration::from_micros(1));
        h.record(Duration::from_micros(3));
        h.record(Duration::from_micros(1000));
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.buckets[0], 1); // 0 µs
        assert_eq!(s.buckets[1], 1); // 1 µs
        assert_eq!(s.buckets[2], 1); // 2-3 µs
        assert_eq!(s.buckets[10], 1); // 512-1023 µs
    }

    #[test]
    fn quantiles_move_with_mass() {
        let h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record(Duration::from_micros(10));
        }
        h.record(Duration::from_millis(100));
        let s = h.snapshot();
        assert_eq!(s.quantile_upper_micros(0.5), 16);
        assert!(s.quantile_upper_micros(0.999) >= 65_536);
    }

    #[test]
    fn counters_and_json() {
        let m = Metrics::default();
        m.job_submitted();
        m.job_submitted();
        m.job_completed(Duration::from_micros(50));
        m.job_failed();
        m.storage_errors.fetch_add(2, Ordering::Relaxed);
        let snap = m.snapshot(7, 2);
        assert_eq!(snap.submitted, 2);
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.failed, 1);
        assert_eq!(snap.queue_depth, 7);
        let json = snap.to_json();
        assert!(json.contains("\"submitted\":2"));
        assert_eq!(snap.storage_errors, 2);
        assert!(json.contains("\"storage_errors\":2"));
        assert!(!json.contains("prf_cache"));
        assert!(json.contains("\"tenants\":2"));
        // Must be a single well-formed object (rudimentary check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn net_counters_gauge_and_json() {
        let m = Metrics::default();
        m.net.conn_accepted();
        m.net.conn_accepted();
        m.net.conn_closed();
        m.net.conn_rejected();
        m.net.conn_evicted_slow();
        m.net.conn_timed_out_idle();
        m.net.add_bytes_in(100);
        m.net.add_bytes_out(250);
        let snap = m.snapshot(0, 0);
        assert_eq!(snap.net.accepted, 2);
        assert_eq!(snap.net.active, 1);
        assert_eq!(snap.net.rejected, 1);
        assert_eq!(snap.net.evicted_slow, 1);
        assert_eq!(snap.net.timed_out_idle, 1);
        assert_eq!(snap.net.bytes_in, 100);
        assert_eq!(snap.net.bytes_out, 250);
        let json = snap.to_json();
        assert!(
            json.contains("\"net\":{\"accepted\":2,\"active\":1"),
            "{json}"
        );
        assert!(json.contains("\"bytes_out\":250"), "{json}");
        // The gauge saturates instead of wrapping.
        m.net.conn_closed();
        m.net.conn_closed();
        assert_eq!(m.net.snapshot().active, 0);
    }

    #[test]
    fn shard_label_in_json() {
        let m = Metrics::default();
        m.job_submitted();
        let mut snap = m.snapshot(0, 3);
        assert!(!snap.to_json().contains("\"shard\""));
        snap.shard = Some("1/4".into());
        let json = snap.to_json();
        assert!(json.contains("\"shard\":\"1/4\""), "{json}");
        let v = crate::proto::json::parse(&json).expect("well-formed");
        assert_eq!(v.get("shard").unwrap().as_str(), Some("1/4"));
    }

    #[test]
    fn aggregation_sums_counters_and_keeps_per_shard() {
        let piece = |i: usize, up: bool, metrics: Option<&str>| ShardMetricsPiece {
            index: i,
            addr: format!("127.0.0.1:770{i}"),
            up,
            metrics: metrics.map(|m| crate::proto::json::parse(m).unwrap()),
        };
        let agg = aggregate_shard_metrics(&[
            piece(
                0,
                true,
                Some(r#"{"completed":3,"tenants":2,"queue_depth":1}"#),
            ),
            piece(1, false, None),
            piece(
                2,
                true,
                Some(r#"{"completed":5,"tenants":4,"queue_depth":0}"#),
            ),
        ]);
        let parsed = crate::proto::json::parse(&agg).expect("well-formed: {agg}");
        assert_eq!(parsed.get("shard_count").unwrap().as_u64(), Some(3));
        assert_eq!(parsed.get("shards_up").unwrap().as_u64(), Some(2));
        let totals = parsed.get("totals").unwrap();
        assert_eq!(totals.get("completed").unwrap().as_u64(), Some(8));
        assert_eq!(totals.get("tenants").unwrap().as_u64(), Some(6));
        let per = parsed.get("per_shard").unwrap().as_arr().unwrap();
        assert_eq!(per.len(), 3);
        assert_eq!(
            per[1].get("metrics"),
            Some(&crate::proto::json::Value::Null)
        );
        assert_eq!(per[2].get("up").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn aggregation_sums_nested_net_counters() {
        // Regression: net counters are nested under each shard's `net`
        // object and used to be dropped from the router totals.
        let piece = |i: usize, metrics: &str| ShardMetricsPiece {
            index: i,
            addr: format!("127.0.0.1:770{i}"),
            up: true,
            metrics: Some(crate::proto::json::parse(metrics).unwrap()),
        };
        let agg = aggregate_shard_metrics(&[
            piece(
                0,
                r#"{"completed":3,"net":{"accepted":10,"active":2,"bytes_in":100,"bytes_out":700}}"#,
            ),
            piece(
                1,
                r#"{"completed":1,"net":{"accepted":4,"active":1,"bytes_in":50,"bytes_out":20}}"#,
            ),
            ShardMetricsPiece {
                index: 2,
                addr: "127.0.0.1:7702".into(),
                up: false,
                metrics: None,
            },
        ]);
        let parsed = crate::proto::json::parse(&agg).expect("well-formed");
        let net = parsed
            .get("totals")
            .unwrap()
            .get("net")
            .expect("totals.net");
        assert_eq!(net.get("accepted").unwrap().as_u64(), Some(14));
        assert_eq!(net.get("active").unwrap().as_u64(), Some(3));
        assert_eq!(net.get("bytes_in").unwrap().as_u64(), Some(150));
        assert_eq!(net.get("bytes_out").unwrap().as_u64(), Some(720));
        // Keys with no contributing shard still render as zero.
        assert_eq!(net.get("evicted_slow").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn queue_wait_split_and_build_info_in_json() {
        let m = Metrics::default();
        m.job_completed(Duration::from_micros(400));
        m.queue_wait.record(Duration::from_micros(30));
        m.queue_wait.record(Duration::from_micros(90));
        let snap = m.snapshot(0, 1);
        assert_eq!(snap.latency.count, 1);
        assert_eq!(snap.queue_wait.count, 2);
        assert_eq!(snap.version, env!("CARGO_PKG_VERSION"));
        let json = snap.to_json();
        assert!(json.contains("\"queue_wait\":{\"count\":2"), "{json}");
        assert!(json.contains("\"latency\":{\"count\":1"), "{json}");
        assert!(
            json.contains(&format!("\"version\":\"{}\"", env!("CARGO_PKG_VERSION"))),
            "{json}"
        );
        assert!(json.contains("\"uptime_s\":"), "{json}");
        let v = crate::proto::json::parse(&json).expect("well-formed");
        assert!(v.get("queue_wait").unwrap().get("p99_us").is_some());
    }

    #[test]
    fn prom_exposition_round_trips_through_the_parser() {
        let m = Metrics::default();
        for i in 0..40u64 {
            m.job_submitted();
            m.job_completed(Duration::from_micros(10 + i * 137));
            m.queue_wait.record(Duration::from_micros(3 + i));
        }
        m.job_failed();
        m.net.conn_accepted();
        m.net.add_bytes_in(1234);
        m.tenant_job("acme", JobKind::Detect, Duration::from_micros(90));
        m.tenant_job("zeta\"esc", JobKind::Embed, Duration::from_micros(50));
        m.slow_log_suppressed.fetch_add(7, Ordering::Relaxed);
        m.storage_errors.fetch_add(3, Ordering::Relaxed);
        let mut snap = m.snapshot(2, 2);
        snap.shard = Some("1/2".into());
        snap.role = Some("primary".into());
        snap.log_seq = 17;
        let text = snap.to_prom();
        // The in-repo parser validates HELP/TYPE pairing, monotone le
        // bounds, cumulative bucket counts and _sum/_count consistency.
        let families = freqywm_obs::prom::parse_exposition(&text)
            .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));
        let get = |name: &str| {
            families
                .iter()
                .find(|f| f.name == name)
                .unwrap_or_else(|| panic!("missing family {name}"))
        };
        assert_eq!(get("freqywm_jobs_submitted_total").samples[0].value, 40.0);
        assert_eq!(get("freqywm_jobs_failed_total").samples[0].value, 1.0);
        assert_eq!(
            get("freqywm_slow_log_suppressed_total").samples[0].value,
            7.0
        );
        assert_eq!(get("freqywm_storage_errors_total").samples[0].value, 3.0);
        assert!(families.iter().all(|f| !f.name.contains("prf_cache")));
        assert_eq!(get("freqywm_log_seq").samples[0].value, 17.0);
        assert_eq!(
            get("freqywm_role").samples[0].label("role"),
            Some("primary")
        );
        let hist = get("freqywm_request_duration_seconds");
        assert_eq!(hist.kind, "histogram");
        let count = hist
            .samples
            .iter()
            .find(|s| s.name == "freqywm_request_duration_seconds_count")
            .unwrap();
        assert_eq!(count.value, 40.0);
        let tenant_ops = get("freqywm_tenant_ops_total");
        assert!(tenant_ops
            .samples
            .iter()
            .any(|s| s.label("tenant") == Some("zeta\"esc") && s.label("op") == Some("embed")));
    }

    #[test]
    fn history_sample_json_and_window_rates() {
        let m = Metrics::default();
        m.job_submitted();
        m.job_completed(Duration::from_micros(100));
        let older = HistorySample::from_snapshot(&m.snapshot(0, 1));
        for _ in 0..10 {
            m.job_submitted();
            m.job_completed(Duration::from_micros(300));
            m.queue_wait.record(Duration::from_micros(100));
        }
        m.net.add_bytes_in(5000);
        let newer = HistorySample::from_snapshot(&m.snapshot(0, 1));
        let sample_json = newer.to_json(12_345);
        let v = crate::proto::json::parse(&sample_json).expect("well-formed");
        assert_eq!(v.get("t_ms").unwrap().as_u64(), Some(12_345));
        assert_eq!(v.get("completed").unwrap().as_u64(), Some(11));
        assert_eq!(v.get("bytes_in").unwrap().as_u64(), Some(5000));

        let rates = history_rates_json((1_000, &older), (3_000, &newer));
        let r = crate::proto::json::parse(&rates).expect("well-formed");
        assert_eq!(r.get("window_s").unwrap().as_f64(), Some(2.0));
        // 10 completions over 2 s.
        assert_eq!(r.get("completed_per_s").unwrap().as_f64(), Some(5.0));
        assert!(r.get("cache_hit_rate").is_none());
        // 10 × 300 µs run + 10 × 100 µs wait → wait share 0.25.
        assert_eq!(r.get("queue_wait_share").unwrap().as_f64(), Some(0.25));
        assert_eq!(r.get("mean_latency_us").unwrap().as_f64(), Some(300.0));
    }

    #[test]
    fn quota_refusals_count_apart_from_rejections() {
        let m = Metrics::default();
        m.tenant_admitted("acme");
        m.tenant_admitted("acme");
        m.quota_refused("greedy");
        m.quota_refused("greedy");
        m.quota_refused("greedy");
        let snap = m.snapshot(0, 2);
        assert_eq!(snap.quota_refused, 3);
        // The queue-pressure counter stays untouched by quota refusals.
        assert_eq!(snap.rejected, 0);
        let json = snap.to_json();
        let v = crate::proto::json::parse(&json).expect("well-formed");
        assert_eq!(v.get("quota_refused").unwrap().as_u64(), Some(3));
        let greedy = v.get("per_tenant").unwrap().get("greedy").expect("row");
        assert_eq!(greedy.get("quota_refused").unwrap().as_u64(), Some(3));
        assert_eq!(greedy.get("admitted").unwrap().as_u64(), Some(0));
        assert_eq!(greedy.get("rejected").unwrap().as_u64(), Some(0));
        let acme = v.get("per_tenant").unwrap().get("acme").expect("row");
        assert_eq!(acme.get("admitted").unwrap().as_u64(), Some(2));
        let text = snap.to_prom();
        let families = freqywm_obs::prom::parse_exposition(&text)
            .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));
        let refused = families
            .iter()
            .find(|f| f.name == "freqywm_quota_refused_total")
            .expect("scalar family");
        assert_eq!(refused.samples[0].value, 3.0);
        let per_tenant = families
            .iter()
            .find(|f| f.name == "freqywm_tenant_quota_refused_total")
            .expect("per-tenant family");
        assert!(per_tenant
            .samples
            .iter()
            .any(|s| s.label("tenant") == Some("greedy") && s.value == 3.0));
        // Router totals pick the counter up via the aggregate walk.
        assert!(AGGREGATE_KEYS.contains(&"quota_refused"));
        // And the retention tier derives a rate from it.
        let older = HistorySample::default();
        let newer = HistorySample::from_snapshot(&snap);
        let rates = history_rates_json((0, &older), (1_000, &newer));
        let r = crate::proto::json::parse(&rates).expect("well-formed");
        assert_eq!(r.get("quota_refused_per_s").unwrap().as_f64(), Some(3.0));
    }

    #[test]
    fn per_tenant_attribution_in_snapshot_and_json() {
        let m = Metrics::default();
        m.tenant_job("acme", JobKind::Detect, Duration::from_micros(120));
        m.tenant_job("acme", JobKind::Detect, Duration::from_micros(80));
        m.tenant_job("acme", JobKind::Embed, Duration::from_micros(1000));
        m.tenant_job("zeta", JobKind::Maintain, Duration::from_micros(5));
        m.tenant_rejected("zeta");
        let snap = m.snapshot(0, 2);
        assert_eq!(snap.per_tenant.len(), 2);
        assert_eq!(snap.per_tenant[0].tenant, "acme"); // sorted
        assert_eq!(snap.per_tenant[0].ops.detect, 2);
        assert_eq!(snap.per_tenant[0].ops.embed, 1);
        assert_eq!(snap.per_tenant[0].ops.latency_sum_us, 1200);
        assert_eq!(snap.per_tenant[1].ops.rejected, 1);
        let json = snap.to_json();
        let v = crate::proto::json::parse(&json).expect("well-formed");
        let acme = v.get("per_tenant").unwrap().get("acme").expect("acme row");
        assert_eq!(acme.get("detect").unwrap().as_u64(), Some(2));
        let zeta = v.get("per_tenant").unwrap().get("zeta").expect("zeta row");
        assert_eq!(zeta.get("rejected").unwrap().as_u64(), Some(1));
    }
}
