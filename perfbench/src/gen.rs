//! Seeded inputs, their reference answers, and open-loop schedules.
//!
//! Everything here is a pure function of the seed: the same seed gives
//! byte-identical request lines in the same order on the same
//! connections. References are computed in-process with the core
//! library before any server sees a request.

use freqywm::core::detect::detect_histogram;
use freqywm::core::generate::{GenerationOutput, Watermarker};
use freqywm::core::params::{DetectionParams, GenerationParams};
use freqywm::crypto::prf::Secret;
use freqywm::crypto::sha256::Sha256;
use freqywm::data::histogram::Histogram;
use freqywm::data::token::Token;
use freqywm::service::proto::json::escape;
use std::sync::Arc;

/// Paper-scale tenants of `verify` and `tier`: 1000 tokens, 1 M samples.
pub const LARGE_TENANTS: usize = 8;
pub const LARGE_TOKENS: usize = 1000;
pub const LARGE_SAMPLES: u64 = 1_000_000;
/// Read and write tenants of `mixed`: ~150-token histograms.
pub const SMALL_TENANTS: usize = 8;
pub const SMALL_TOKENS: usize = 150;
pub const SMALL_SAMPLES: u64 = 200_000;
/// Distinct paper-scale vocabularies the `mixed` embeds cycle through,
/// each under its own secret. One embed sweeps about 10^5 pairs
/// through the servers' 65 536-entry PRF cache, so by the time a
/// vocabulary comes round again its entries are long evicted: every
/// embed sweeps cold, and evicts the detects' working set as it goes.
pub const FRESH_POOL: usize = 16;
/// Suspects per tenant: perturbed watermarked copies, then originals.
pub const SUSPECTS_WATERMARKED: usize = 9;
pub const SUSPECTS_ORIGINAL: usize = 3;
/// Update batches per write tenant.
pub const MAINTAIN_BATCHES: usize = 16;
/// Detection tolerance sent with every detect. Exact: the embed shifts
/// most pairs by one or two, so any tolerance lets the original pass.
pub const DETECT_T: u64 = 0;
/// Arrivals per block of the op-mix deck (see `schedule`).
const MIX_BLOCK: usize = 20;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Derives an independent sub-seed for one named use of the run seed.
pub fn sub_seed(seed: u64, tag: &str) -> u64 {
    let mut h = Sha256::new();
    h.update(&seed.to_le_bytes());
    h.update(tag.as_bytes());
    let d = h.finalize();
    u64::from_le_bytes(d[..8].try_into().expect("digest has 32 bytes"))
}

/// A Zipf-shaped histogram with seeded jitter, `tokens` distinct tokens
/// named `{prefix}{rank}`.
pub fn zipf_histogram(
    rng: &mut Rng,
    prefix: &str,
    tokens: usize,
    samples: u64,
    alpha: f64,
) -> Histogram {
    let weights: Vec<f64> = (1..=tokens).map(|k| (k as f64).powf(-alpha)).collect();
    let norm: f64 = weights.iter().sum();
    Histogram::from_counts(weights.iter().enumerate().map(|(k, w)| {
        let jitter = 1.0 + 0.04 * (rng.unit() - 0.5);
        let c = (samples as f64 * w / norm * jitter).round().max(1.0) as u64;
        (Token::new(format!("{prefix}{k:04}")), c)
    }))
}

/// The counts array of a request line, in histogram order.
pub fn counts_json(hist: &Histogram) -> String {
    let mut out = String::with_capacity(hist.len() * 16);
    out.push('[');
    for (i, (t, c)) in hist.entries().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("[\"{}\",{c}]", escape(t.as_str())));
    }
    out.push(']');
    out
}

/// A tenant with its embed input and the reference embed output.
#[derive(Debug, Clone)]
pub struct Tenant {
    pub name: String,
    pub label: String,
    pub hist: Histogram,
    pub reference: GenerationOutput,
}

/// Embed parameters: the defaults, without free pairs (pairs the
/// original already satisfies), so an un-watermarked original does not
/// verify and detects see both verdicts. Embed lines carry the flag.
pub fn generation_params() -> GenerationParams {
    GenerationParams::default().with_exclude_free_pairs(true)
}

/// Parameters the engine's `maintain` job runs with for a watermark of
/// modulus base `z`.
pub fn maintain_params(z: u64) -> GenerationParams {
    GenerationParams::default().with_z(z)
}

fn make_tenant(name: String, label: String, hist: Histogram) -> Tenant {
    let reference = Watermarker::new(generation_params())
        .generate_histogram(&hist, Secret::from_label(&label))
        .unwrap_or_else(|e| panic!("reference embed of {name} failed: {e}"));
    Tenant {
        name,
        label,
        hist,
        reference,
    }
}

/// Builds tenants in parallel on up to `threads` threads (the reference
/// embeds dominate input preparation).
fn build_tenants(specs: Vec<(String, String, Histogram)>, threads: usize) -> Vec<Tenant> {
    let threads = threads.max(1);
    let mut slots: Vec<Option<Tenant>> = vec![None; specs.len()];
    std::thread::scope(|scope| {
        let chunks: Vec<_> = slots
            .chunks_mut(specs.len().div_ceil(threads).max(1))
            .zip(specs.chunks(specs.len().div_ceil(threads).max(1)))
            .collect();
        for (out, input) in chunks {
            scope.spawn(move || {
                for (slot, (name, label, hist)) in out.iter_mut().zip(input) {
                    *slot = Some(make_tenant(name.clone(), label.clone(), hist.clone()));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|t| t.expect("every tenant built"))
        .collect()
}

/// What a response must say. Detect and embed references come from the
/// core library; maintains carry their updates for the lost-update
/// replay.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    Register,
    Embed {
        chosen_pairs: usize,
        eligible_pairs: usize,
        total_change: u64,
    },
    Detect {
        accepted: bool,
        accepted_pairs: usize,
        present_pairs: usize,
        total_pairs: usize,
    },
    Maintain {
        updates: Arc<Vec<(Token, i64)>>,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    Register,
    Embed,
    Detect,
    Maintain,
}

impl Kind {
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Register => "register",
            Kind::Embed => "embed",
            Kind::Detect => "detect",
            Kind::Maintain => "maintain",
        }
    }
}

/// One request line (newline-terminated) with its expected answer.
#[derive(Debug, Clone)]
pub struct Request {
    pub kind: Kind,
    pub tenant: String,
    pub line: String,
    pub expect: Expect,
}

fn register_request(tenant: &str, label: &str) -> Request {
    Request {
        kind: Kind::Register,
        tenant: tenant.to_string(),
        line: format!(
            "{{\"op\":\"register\",\"tenant\":\"{}\",\"secret_label\":\"{}\"}}\n",
            escape(tenant),
            escape(label)
        ),
        expect: Expect::Register,
    }
}

fn embed_request(tenant: &str, counts: &str, reference: &GenerationOutput) -> Request {
    Request {
        kind: Kind::Embed,
        tenant: tenant.to_string(),
        line: format!(
            "{{\"op\":\"embed\",\"tenant\":\"{}\",\"exclude_free_pairs\":true,\"counts\":{counts}}}\n",
            escape(tenant)
        ),
        expect: Expect::Embed {
            chosen_pairs: reference.report.chosen_pairs,
            eligible_pairs: reference.report.eligible_pairs,
            total_change: reference.report.total_change,
        },
    }
}

/// Register + embed of a tenant, in that order.
pub fn setup_requests(t: &Tenant) -> [Request; 2] {
    [
        register_request(&t.name, &t.label),
        embed_request(&t.name, &counts_json(&t.hist), &t.reference),
    ]
}

/// Detect parameters of a suspect: accept when at least half of the
/// stored pairs verify within `DETECT_T`.
pub fn detect_params(t: &Tenant) -> DetectionParams {
    let k = t.reference.secrets.len().div_ceil(2).max(1);
    DetectionParams::default().with_t(DETECT_T).with_k(k)
}

/// A detect request for `suspect` against `t`, with the core library's
/// verdict as the expected answer.
pub fn detect_request(t: &Tenant, suspect: &Histogram) -> Request {
    let params = detect_params(t);
    let o = detect_histogram(suspect, &t.reference.secrets, &params);
    Request {
        kind: Kind::Detect,
        tenant: t.name.clone(),
        line: format!(
            "{{\"op\":\"detect\",\"tenant\":\"{}\",\"t\":{},\"k\":{},\"counts\":{}}}\n",
            escape(&t.name),
            params.t,
            params.k,
            counts_json(suspect)
        ),
        expect: Expect::Detect {
            accepted: o.accepted,
            accepted_pairs: o.accepted_pairs,
            present_pairs: o.present_pairs,
            total_pairs: o.total_pairs,
        },
    }
}

/// Light perturbation: about 3% of tokens move by one.
fn perturb(rng: &mut Rng, hist: &Histogram) -> Histogram {
    Histogram::from_counts(hist.entries().iter().map(|(t, c)| {
        let c = if rng.unit() < 0.03 {
            if rng.unit() < 0.5 || *c <= 1 {
                c + 1
            } else {
                c - 1
            }
        } else {
            *c
        };
        (t.clone(), c)
    }))
}

/// Suspects of a tenant: perturbed watermarked copies, which should
/// verify, then the un-watermarked original, which should not.
pub fn suspects(rng: &mut Rng, t: &Tenant) -> Vec<Request> {
    let mut out: Vec<Request> = (0..SUSPECTS_WATERMARKED)
        .map(|_| detect_request(t, &perturb(rng, &t.reference.watermarked)))
        .collect();
    out.extend((0..SUSPECTS_ORIGINAL).map(|_| detect_request(t, &perturb(rng, &t.hist))));
    out
}

/// A maintain request with small signed updates. Decrements only touch
/// tokens of count ≥ 1000, so no ordering of a run's maintains can drive
/// a count below zero.
pub fn maintain_request(rng: &mut Rng, t: &Tenant) -> Request {
    let entries = t.reference.watermarked.entries();
    let mut updates: Vec<(Token, i64)> = Vec::new();
    while updates.len() < 3 {
        let (tok, c) = &entries[rng.below(entries.len())];
        if updates.iter().any(|(u, _)| u == tok) {
            continue;
        }
        let d = if *c >= 1000 && rng.unit() < 0.4 {
            -1 - rng.below(2) as i64
        } else {
            1 + rng.below(4) as i64
        };
        updates.push((tok.clone(), d));
    }
    let body: Vec<String> = updates
        .iter()
        .map(|(t, d)| format!("[\"{}\",{d}]", escape(t.as_str())))
        .collect();
    Request {
        kind: Kind::Maintain,
        tenant: t.name.clone(),
        line: format!(
            "{{\"op\":\"maintain\",\"tenant\":\"{}\",\"updates\":[{}]}}\n",
            escape(&t.name),
            body.join(",")
        ),
        expect: Expect::Maintain {
            updates: Arc::new(updates),
        },
    }
}

/// Zipf exponent of tenant `i`: eight values spread evenly over
/// [0.7, 1.3], cycled. It is fixed per index, not drawn from the seed:
/// the exponent sets how many pairs a watermark stores and so what every
/// op costs, and runs with different seeds must cost the same to be
/// comparable.
fn alpha(i: usize) -> f64 {
    0.7 + 0.6 * (i % 8) as f64 / 7.0
}

/// The paper-scale tenants of `verify` and `tier`, α varied per tenant.
pub fn large_tenants(seed: u64, threads: usize) -> Vec<Tenant> {
    let mut rng = Rng::new(sub_seed(seed, "large"));
    let specs = (0..LARGE_TENANTS)
        .map(|i| {
            let a = alpha(i);
            let hist = zipf_histogram(&mut rng, &format!("v{i}-"), LARGE_TOKENS, LARGE_SAMPLES, a);
            (format!("v{i:02}"), format!("pb-{seed}-v{i}"), hist)
        })
        .collect();
    build_tenants(specs, threads)
}

/// Small tenants of `mixed`: `role` is "r" (read) or "w" (write).
pub fn small_tenants(seed: u64, role: &str, threads: usize) -> Vec<Tenant> {
    let mut rng = Rng::new(sub_seed(seed, role));
    let specs = (0..SMALL_TENANTS)
        .map(|i| {
            let a = alpha(i);
            let hist = zipf_histogram(
                &mut rng,
                &format!("{role}{i}-"),
                SMALL_TOKENS,
                SMALL_SAMPLES,
                a,
            );
            (
                format!("{role}{i:02}"),
                format!("pb-{seed}-{role}{i}"),
                hist,
            )
        })
        .collect();
    build_tenants(specs, threads)
}

/// The first `count` fresh paper-scale vocabularies `mixed` registers
/// and embeds.
pub fn fresh_pool(seed: u64, threads: usize, count: usize) -> Vec<Tenant> {
    let mut rng = Rng::new(sub_seed(seed, "fresh"));
    let specs = (0..count)
        .map(|i| {
            let a = alpha(i);
            let hist = zipf_histogram(&mut rng, &format!("f{i}-"), LARGE_TOKENS, LARGE_SAMPLES, a);
            (format!("f{i:02}"), format!("pb-{seed}-f{i}"), hist)
        })
        .collect();
    build_tenants(specs, threads)
}

/// One scheduled send.
#[derive(Debug, Clone)]
pub struct Op {
    /// Due time, nanoseconds after the phase starts.
    pub due_ns: u64,
    /// Index of the connection that carries it.
    pub conn: usize,
    pub req: Arc<Request>,
}

/// Which connections carry which traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Connections `0..read` carry detects.
    pub read: usize,
    /// Connections `read..read + write` carry register, embed, maintain.
    pub write: usize,
}

impl Layout {
    pub fn conns(&self) -> usize {
        self.read + self.write
    }
}

/// The request pools a workload draws from.
#[derive(Debug, Clone, Default)]
pub struct Pools {
    pub detects: Vec<Arc<Request>>,
    pub maintains: Vec<Arc<Request>>,
    /// Fresh vocabularies with their counts JSON, cycled through by
    /// the register+embed arrivals.
    pub fresh: Vec<Arc<(Tenant, String)>>,
    /// Share of arrivals that are detects, maintains; the rest embeds.
    pub detect_share: f64,
    pub maintain_share: f64,
}

/// An open-loop phase: Poisson arrivals at `rate_rps` for `seconds`,
/// each drawn from `pools`. `tag` names the phase; it keys the phase's
/// own random stream and prefixes the fresh tenants it registers.
pub fn schedule(
    pools: &Pools,
    layout: Layout,
    rate_rps: f64,
    seconds: f64,
    seed: u64,
    tag: &str,
) -> Vec<Op> {
    let mut rng = Rng::new(sub_seed(seed, tag));
    let mut ops = Vec::new();
    let mut t = 0.0f64;
    let mut fresh_n = 0usize;
    // Op kinds come from a deck of MIX_BLOCK arrivals holding the exact
    // shares, reshuffled each block: the mix, and with it the work per
    // op, is the same in every run, while the order stays random.
    let detects = (pools.detect_share * MIX_BLOCK as f64).round() as usize;
    let maintains = (pools.maintain_share * MIX_BLOCK as f64).round() as usize;
    let mut deck: Vec<Kind> = Vec::new();
    loop {
        t += -(1.0 - rng.unit()).ln() / rate_rps;
        if t >= seconds {
            break;
        }
        let due_ns = (t * 1e9) as u64;
        if deck.is_empty() {
            deck = (0..MIX_BLOCK)
                .map(|i| match i {
                    i if i < detects => Kind::Detect,
                    i if i < detects + maintains => Kind::Maintain,
                    _ => Kind::Embed,
                })
                .collect();
            for i in (1..deck.len()).rev() {
                deck.swap(i, rng.below(i + 1));
            }
        }
        let kind = deck.pop().expect("deck refilled above");
        if kind == Kind::Detect {
            let req = Arc::clone(&pools.detects[rng.below(pools.detects.len())]);
            let conn = rng.below(layout.read);
            ops.push(Op { due_ns, conn, req });
            continue;
        }
        let conn = layout.read + rng.below(layout.write);
        if kind == Kind::Maintain {
            let req = Arc::clone(&pools.maintains[rng.below(pools.maintains.len())]);
            ops.push(Op { due_ns, conn, req });
            continue;
        }
        let (vocab, counts) = &*pools.fresh[fresh_n % pools.fresh.len()];
        let name = format!("x{tag}-{fresh_n}");
        fresh_n += 1;
        ops.push(Op {
            due_ns,
            conn,
            req: Arc::new(register_request(&name, &vocab.label)),
        });
        ops.push(Op {
            due_ns,
            conn,
            req: Arc::new(embed_request(&name, counts, &vocab.reference)),
        });
    }
    ops
}

/// SHA-256 over every op's due time, connection and bytes, in order: two
/// schedules send the same stream exactly when their digests match.
pub fn stream_digest(ops: &[Op]) -> [u8; 32] {
    let mut h = Sha256::new();
    for op in ops {
        h.update(&op.due_ns.to_le_bytes());
        h.update(&(op.conn as u64).to_le_bytes());
        h.update(op.req.line.as_bytes());
    }
    h.finalize()
}
