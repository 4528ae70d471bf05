//! Engine integration tests: the full marketplace lifecycle
//! (register → embed → detect → dispute) through the service API, the
//! acceptance criteria for concurrent multi-tenant detection, engine
//! results equal to the core algorithms, and a thread-storm smoke test.

use freqywm_core::incremental::IncrementalWatermarker;
use freqywm_core::params::{DetectionParams, GenerationParams};
use freqywm_crypto::prf::Secret;
use freqywm_data::histogram::Histogram;
use freqywm_data::synthetic::{power_law_counts, power_law_dataset_seeded, PowerLawConfig};
use freqywm_data::token::Token;
use freqywm_service::engine::{Engine, EngineConfig};
use freqywm_service::job::{JobData, JobOutput, JobPayload, JobSpec, JobState};
use freqywm_service::ServiceError;
use std::sync::Arc;
use std::time::Duration;

fn zipf_hist(alpha: f64, tokens: usize, samples: usize) -> Histogram {
    Histogram::from_counts(power_law_counts(&PowerLawConfig {
        distinct_tokens: tokens,
        sample_size: samples,
        alpha,
    }))
}

fn embed(engine: &Engine, tenant: &str, hist: Histogram, params: GenerationParams) -> Histogram {
    let state = engine.run(JobSpec::new(JobPayload::Embed {
        tenant: tenant.to_string(),
        data: JobData::Histogram(hist),
        params,
    }));
    match state {
        JobState::Completed(JobOutput::Embed(out)) => out.watermarked,
        other => panic!("embed for {tenant} did not complete: {other:?}"),
    }
}

fn detect(
    engine: &Engine,
    tenant: &str,
    hist: &Histogram,
    params: DetectionParams,
) -> freqywm_core::detect::DetectionOutcome {
    let state = engine.run(JobSpec::new(JobPayload::Detect {
        tenant: tenant.to_string(),
        data: JobData::Histogram(hist.clone()),
        params,
    }));
    match state {
        JobState::Completed(JobOutput::Detect(out)) => out.outcome,
        other => panic!("detect for {tenant} did not complete: {other:?}"),
    }
}

#[test]
fn register_embed_detect_dispute_lifecycle() {
    let engine = Engine::start(EngineConfig {
        workers: 4,
        ..EngineConfig::default()
    });
    // Free-pair exclusion hardens the dispute protocol (Sec. V-D).
    let params = GenerationParams::default()
        .with_z(101)
        .with_exclude_free_pairs(true);

    // Register the honest owner, embed into its dataset.
    engine
        .register_tenant("owner", Secret::from_label("e2e-owner"))
        .unwrap();
    let original = zipf_hist(0.5, 400, 800_000);
    let owner_marked = embed(&engine, "owner", original.clone(), params);

    // A pirate steals the owner's watermarked copy and re-embeds.
    engine
        .register_tenant("pirate", Secret::from_label("e2e-pirate"))
        .unwrap();
    let _pirate_marked = embed(&engine, "pirate", owner_marked.clone(), params);

    // Detection: each tenant's mark verifies fully on its own copy.
    let owner_pairs = engine
        .registry()
        .require_watermark("owner")
        .unwrap()
        .secrets
        .len();
    let d = detect(
        &engine,
        "owner",
        &owner_marked,
        DetectionParams::default().with_t(0).with_k(owner_pairs),
    );
    assert!(d.accepted);
    assert_eq!(d.accepted_pairs, owner_pairs);
    // The original (pre-watermark) data does not fully verify.
    let d = detect(
        &engine,
        "owner",
        &original,
        DetectionParams::default().with_t(0).with_k(owner_pairs),
    );
    assert!(!d.accepted);

    // Dispute: the owner's mark survives re-watermarking, the pirate's
    // cannot pre-exist in the owner's earlier copy.
    let k = (owner_pairs / 4).max(1);
    let ruling = engine
        .dispute(
            "owner",
            "pirate",
            &DetectionParams::default().with_t(0).with_k(k),
        )
        .unwrap();
    assert_eq!(ruling.winner, "owner");
    assert!(ruling.decisive_protocol);
    assert_eq!(ruling.ledger_order, std::cmp::Ordering::Less);

    // The registration chain stayed intact through all of it.
    assert!(engine.registry().ledger().verify_chain().is_ok());
    assert_eq!(engine.registry().ledger().len(), 4); // 2 onboardings + 2 embeds

    // Unknown tenants surface typed errors.
    assert!(matches!(
        engine.dispute("owner", "ghost", &DetectionParams::default()),
        Err(ServiceError::UnknownTenant(_))
    ));
    engine.shutdown();
}

/// Acceptance criterion: ≥ 4 concurrent detect jobs over distinct
/// tenants with correct per-tenant verdicts.
#[test]
fn concurrent_detects_over_distinct_tenants() {
    const TENANTS: usize = 6;
    let engine = Engine::start(EngineConfig {
        workers: 4,
        ..EngineConfig::default()
    });
    let gen_params = GenerationParams::default().with_z(101);

    let mut marked = Vec::new();
    for t in 0..TENANTS {
        let tenant = format!("tenant-{t}");
        engine
            .register_tenant(&tenant, Secret::from_label(&format!("conc-{t}")))
            .unwrap();
        // Distinct data per tenant (different skew).
        let hist = zipf_hist(0.4 + 0.08 * t as f64, 200, 200_000);
        let wm = embed(&engine, &tenant, hist, gen_params);
        marked.push((tenant, wm));
    }

    // Submit all detects at once: every tenant checks its own copy AND
    // its right neighbour's copy (which must NOT fully verify under its
    // secret — per-tenant isolation).
    let mut own_ids = Vec::new();
    let mut cross_ids = Vec::new();
    for (i, (tenant, wm)) in marked.iter().enumerate() {
        let pairs = engine
            .registry()
            .require_watermark(tenant)
            .unwrap()
            .secrets
            .len();
        let strict = DetectionParams::default().with_t(0).with_k(pairs);
        own_ids.push((
            engine
                .submit(JobSpec::new(JobPayload::Detect {
                    tenant: tenant.clone(),
                    data: JobData::Histogram(wm.clone()),
                    params: strict,
                }))
                .unwrap(),
            pairs,
        ));
        let neighbour = &marked[(i + 1) % TENANTS].1;
        cross_ids.push(
            engine
                .submit(JobSpec::new(JobPayload::Detect {
                    tenant: tenant.clone(),
                    data: JobData::Histogram(neighbour.clone()),
                    params: strict,
                }))
                .unwrap(),
        );
    }

    for (id, pairs) in own_ids {
        let JobState::Completed(JobOutput::Detect(d)) = engine.wait(id) else {
            panic!("own-copy detect did not complete");
        };
        assert!(
            d.outcome.accepted,
            "tenant {} own copy must verify",
            d.tenant
        );
        assert_eq!(d.outcome.accepted_pairs, pairs);
    }
    for id in cross_ids {
        let JobState::Completed(JobOutput::Detect(d)) = engine.wait(id) else {
            panic!("cross-copy detect did not complete");
        };
        assert!(
            !d.outcome.accepted,
            "tenant {} must not fully verify a neighbour's copy",
            d.tenant
        );
    }
    engine.shutdown();
}

/// Batched re-detection: every engine detect returns exactly the core
/// `detect_histogram` outcome on the same input, run after run, and
/// the metrics carry no PRF-cache block (the engine computes every
/// modulus directly).
#[test]
fn batched_redetection_matches_core_detect() {
    let engine = Engine::start(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    });
    engine
        .register_tenant("acme", Secret::from_label("redetect-e2e"))
        .unwrap();
    let wm = embed(
        &engine,
        "acme",
        zipf_hist(0.6, 250, 250_000),
        GenerationParams::default().with_z(101),
    );
    let secrets = engine
        .registry()
        .require_watermark("acme")
        .unwrap()
        .secrets
        .clone();
    let original = zipf_hist(0.6, 250, 250_000);
    for (suspect, params) in [
        (&wm, DetectionParams::default().with_t(0).with_k(1)),
        (
            &wm,
            DetectionParams::default().with_t(0).with_k(secrets.len()),
        ),
        (
            &original,
            DetectionParams::default().with_t(0).with_k(secrets.len()),
        ),
        (&original, DetectionParams::default().with_t(3).with_k(1)),
    ] {
        let want = freqywm_core::detect::detect_histogram(suspect, &secrets, &params);
        for _ in 0..3 {
            assert_eq!(detect(&engine, "acme", suspect, params), want);
        }
    }
    let own = detect(
        &engine,
        "acme",
        &wm,
        DetectionParams::default().with_k(secrets.len()),
    );
    assert!(own.accepted && own.accepted_pairs == secrets.len());
    let m = engine.metrics();
    assert_eq!(m.detect_jobs, 13);
    assert!(!m.to_json().contains("prf_cache"));
    engine.shutdown();
}

/// Engine embed is the core `WM_Generate`: the report, the watermarked
/// histogram and the stored secret list equal a direct
/// `Watermarker::generate_histogram` call on the same input, for the
/// sequential and the threaded sweep, and for a re-embed over a
/// vocabulary that already carries a mark.
#[test]
fn embed_report_matches_core_generation() {
    use freqywm_core::generate::Watermarker;
    let engine = Engine::start(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    });
    let hist = zipf_hist(0.6, 150, 200_000);
    for (tenant, threads) in [("seq", 1usize), ("par", 3)] {
        let label = format!("embed-core-{tenant}");
        engine
            .register_tenant(tenant, Secret::from_label(&label))
            .unwrap();
        let params = GenerationParams::default()
            .with_z(101)
            .with_threads(threads);
        let mut input = hist.clone();
        for round in 0..2 {
            let want = Watermarker::new(params)
                .generate_histogram(&input, Secret::from_label(&label))
                .unwrap();
            let state = engine.run(JobSpec::new(JobPayload::Embed {
                tenant: tenant.to_string(),
                data: JobData::Histogram(input.clone()),
                params,
            }));
            let JobState::Completed(JobOutput::Embed(out)) = state else {
                panic!("embed {tenant} round {round} failed: {state:?}");
            };
            assert_eq!(out.report, want.report, "{tenant} round {round}");
            assert_eq!(out.watermarked, want.watermarked, "{tenant} round {round}");
            let stored = engine
                .registry()
                .require_watermark(tenant)
                .unwrap()
                .secrets
                .clone();
            assert_eq!(stored, want.secrets, "{tenant} round {round}");
            input = out.watermarked;
        }
    }
    engine.shutdown();
}

/// Engine disputes rule exactly as the core four-run `judge_dispute`
/// on the two registered watermarks.
#[test]
fn dispute_ruling_matches_core_judge() {
    use freqywm_core::judge::{judge_dispute, Claim};
    let engine = Engine::start(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    });
    for tenant in ["owner", "pirate"] {
        engine
            .register_tenant(tenant, Secret::from_label(&format!("judge-{tenant}")))
            .unwrap();
    }
    let gen = GenerationParams::default()
        .with_z(101)
        .with_exclude_free_pairs(true);
    let owned = embed(&engine, "owner", zipf_hist(0.6, 150, 150_000), gen);
    embed(&engine, "pirate", owned, gen);
    let claim = |tenant: &str| {
        let registry = engine.registry();
        let wm = registry.require_watermark(tenant).unwrap();
        Claim {
            histogram: wm.watermarked.clone(),
            secrets: wm.secrets.clone(),
        }
    };
    let params = DetectionParams::default().with_t(0).with_k(3);
    let want = judge_dispute(&claim("owner"), &claim("pirate"), &params);
    let got = engine.dispute("owner", "pirate", &params).unwrap();
    assert_eq!(got.ruling.verdict, want.verdict);
    assert_eq!(got.ruling.a_on_a, want.a_on_a);
    assert_eq!(got.ruling.a_on_b, want.a_on_b);
    assert_eq!(got.ruling.b_on_b, want.b_on_b);
    assert_eq!(got.ruling.b_on_a, want.b_on_a);
    engine.shutdown();
}

/// Token-stream jobs go through sharded histogram construction and
/// behave identically to pre-counted submissions.
#[test]
fn token_stream_jobs_match_histogram_jobs() {
    let engine = Engine::start(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    });
    engine
        .register_tenant("acme", Secret::from_label("tokens-e2e"))
        .unwrap();
    let data = power_law_dataset_seeded(
        &PowerLawConfig {
            distinct_tokens: 120,
            sample_size: 120_000,
            alpha: 0.6,
        },
        42,
    );
    let wm = embed(
        &engine,
        "acme",
        data.histogram(),
        GenerationParams::default().with_z(101),
    );
    // Detect over raw tokens of the watermarked histogram: materialise
    // token instances naively (order is irrelevant to counting).
    let mut tokens = Vec::new();
    for (t, c) in wm.entries() {
        tokens.extend(std::iter::repeat_with(|| t.clone()).take(*c as usize));
    }
    let state = engine.run(JobSpec::new(JobPayload::Detect {
        tenant: "acme".into(),
        data: JobData::Tokens(tokens),
        params: DetectionParams::default().with_t(0).with_k(1),
    }));
    let JobState::Completed(JobOutput::Detect(d)) = state else {
        panic!("token-stream detect did not complete: {state:?}");
    };
    assert!(d.outcome.accepted);
    assert_eq!(d.outcome.accepted_pairs, d.outcome.total_pairs);
    engine.shutdown();
}

/// Maintenance: updates flow through a maintain job, the refreshed
/// watermark verifies, and the ledger records the new fingerprint.
#[test]
fn maintain_job_repairs_watermark() {
    let engine = Engine::start(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    });
    engine
        .register_tenant("acme", Secret::from_label("maintain-e2e"))
        .unwrap();
    embed(
        &engine,
        "acme",
        zipf_hist(0.6, 200, 300_000),
        GenerationParams::default().with_z(101),
    );
    let ledger_before = engine.registry().ledger().len();

    // A day of drift: bump a spread of token counts.
    let updates: Vec<(freqywm_data::token::Token, i64)> = (0..200)
        .step_by(3)
        .map(|i| (freqywm_data::token::Token::new(format!("tk{i:05}")), 17))
        .collect();
    let state = engine.run(JobSpec::new(JobPayload::Maintain {
        tenant: "acme".into(),
        updates,
        replenish: true,
    }));
    let JobState::Completed(JobOutput::Maintain(m)) = state else {
        panic!("maintain did not complete: {state:?}");
    };
    assert!(m.report.intact + m.report.repaired + m.report.added > 0);

    // The refreshed mark verifies on the maintained histogram.
    let maintained = engine
        .registry()
        .require_watermark("acme")
        .unwrap()
        .watermarked
        .clone();
    let pairs = engine
        .registry()
        .require_watermark("acme")
        .unwrap()
        .secrets
        .len();
    let d = detect(
        &engine,
        "acme",
        &maintained,
        DetectionParams::default().with_t(0).with_k(pairs),
    );
    assert!(d.accepted, "maintained watermark must verify: {d:?}");
    // Maintenance re-registered the fingerprint.
    assert_eq!(engine.registry().ledger().len(), ledger_before + 1);
    assert!(engine.registry().ledger().verify_chain().is_ok());
    engine.shutdown();
}

/// Concurrent maintains on one tenant lose no update: replaying every
/// acknowledged batch in ledger order from the embed reproduces the
/// stored watermark exactly.
#[test]
fn concurrent_maintains_lose_no_update() {
    const WORKERS: usize = 4;
    const JOBS: usize = 48;
    let engine = Engine::start(EngineConfig {
        workers: WORKERS,
        queue_capacity: JOBS + 8,
        ..EngineConfig::default()
    });
    engine
        .register_tenant("acme", Secret::from_label("maintain-race"))
        .unwrap();
    embed(
        &engine,
        "acme",
        zipf_hist(0.6, 300, 300_000),
        GenerationParams::default().with_z(101),
    );
    let embedded = Arc::clone(engine.registry().require_watermark("acme").unwrap());

    // Each batch bumps a different spread of tokens.
    let batch = |j: usize| -> Vec<(Token, i64)> {
        (0..300)
            .skip(j % 7)
            .step_by(5 + j % 4)
            .map(|i| (Token::new(format!("tk{i:05}")), 1 + (j % 3) as i64))
            .collect()
    };
    let ids: Vec<_> = (0..JOBS)
        .map(|j| {
            let id = engine
                .submit(JobSpec::new(JobPayload::Maintain {
                    tenant: "acme".into(),
                    updates: batch(j),
                    replenish: j % 2 == 0,
                }))
                .expect("queue sized for every job");
            (j, id)
        })
        .collect();
    let mut acked: Vec<(u64, usize)> = ids
        .into_iter()
        .map(|(j, id)| match engine.wait(id) {
            JobState::Completed(JobOutput::Maintain(m)) => (m.ledger_index, j),
            other => panic!("maintain {j} did not complete: {other:?}"),
        })
        .collect();
    acked.sort_unstable();

    let mut replay = IncrementalWatermarker::new(
        GenerationParams::default().with_z(embedded.secrets.z),
        embedded.secrets.clone(),
        embedded.watermarked.clone(),
    );
    for &(_, j) in &acked {
        replay.apply_updates(&batch(j), j % 2 == 0).unwrap();
    }
    let registry = engine.registry();
    let stored = registry.require_watermark("acme").unwrap();
    assert_eq!(&stored.secrets, replay.secrets());
    assert_eq!(&stored.watermarked, replay.histogram());
    assert_eq!(stored.ledger_index, acked.last().unwrap().0);
    drop(registry);
    assert_eq!(engine.metrics().failed, 0);
    engine.shutdown();
}

/// Concurrency smoke test: N submitter threads firing jobs at the pool;
/// no deadlock, no lost jobs, every job reaches a terminal state and
/// the metrics ledger balances.
#[test]
fn thread_storm_loses_no_jobs() {
    const SUBMITTERS: usize = 8;
    const PER_THREAD: usize = 25;
    const TENANTS: usize = 4;
    let engine = Arc::new(Engine::start(EngineConfig {
        workers: 4,
        queue_capacity: SUBMITTERS * PER_THREAD + 16,
        ..EngineConfig::default()
    }));
    let mut marked = Vec::new();
    for t in 0..TENANTS {
        let tenant = format!("storm-{t}");
        engine
            .register_tenant(&tenant, Secret::from_label(&tenant))
            .unwrap();
        let wm = embed(
            &engine,
            &tenant,
            zipf_hist(0.5 + 0.05 * t as f64, 120, 80_000),
            GenerationParams::default().with_z(101),
        );
        marked.push((tenant, wm));
    }
    let marked = Arc::new(marked);

    let mut handles = Vec::new();
    for s in 0..SUBMITTERS {
        let engine = Arc::clone(&engine);
        let marked = Arc::clone(&marked);
        handles.push(std::thread::spawn(move || {
            let mut verdicts = Vec::with_capacity(PER_THREAD);
            for i in 0..PER_THREAD {
                let (tenant, wm) = &marked[(s + i) % TENANTS];
                let id = engine
                    .submit(JobSpec::new(JobPayload::Detect {
                        tenant: tenant.clone(),
                        data: JobData::Histogram(wm.clone()),
                        params: DetectionParams::default().with_t(0).with_k(1),
                    }))
                    .expect("queue sized for the storm");
                verdicts.push(id);
            }
            // Wait for own jobs; all must complete and accept.
            for id in verdicts {
                match engine.wait(id) {
                    JobState::Completed(JobOutput::Detect(d)) => {
                        assert!(d.outcome.accepted, "{}", d.tenant);
                    }
                    other => panic!("job lost or failed: {other:?}"),
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("submitter panicked");
    }

    let m = engine.metrics();
    let total = (SUBMITTERS * PER_THREAD) as u64 + TENANTS as u64; // + embeds
    assert_eq!(m.submitted, total);
    assert_eq!(m.completed, total);
    assert_eq!(m.failed, 0);
    assert_eq!(m.timed_out, 0);
    assert_eq!(m.queue_depth, 0);
    assert_eq!(m.detect_jobs, (SUBMITTERS * PER_THREAD) as u64);
    engine.shutdown();
}

/// `wait` delivers each result exactly once and prunes the result
/// table (a long-running engine's memory stays flat).
#[test]
fn wait_consumes_results() {
    let engine = Engine::start(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    });
    engine
        .register_tenant("acme", Secret::from_label("consume-e2e"))
        .unwrap();
    let id = engine
        .submit(JobSpec::new(JobPayload::Embed {
            tenant: "acme".into(),
            data: JobData::Histogram(zipf_hist(0.6, 100, 100_000)),
            params: GenerationParams::default().with_z(101),
        }))
        .unwrap();
    assert!(matches!(
        engine.wait(id),
        JobState::Completed(JobOutput::Embed(_))
    ));
    // Consumed: a second wait reports the id as unknown, and the
    // status table no longer holds it.
    assert!(matches!(engine.wait(id), JobState::Failed(_)));
    assert!(engine.status(id).is_none());
    engine.shutdown();
}

/// Backpressure and deadline semantics: a full queue rejects, an
/// expired queue deadline fails the job, and graceful shutdown drains.
#[test]
fn backpressure_deadlines_and_graceful_shutdown() {
    let engine = Engine::start(EngineConfig {
        workers: 1,
        queue_capacity: 2,
        ..EngineConfig::default()
    });
    engine
        .register_tenant("acme", Secret::from_label("bp-e2e"))
        .unwrap();
    // Big enough that one embed keeps the single worker busy for tens
    // of milliseconds — submits below are effectively instantaneous.
    let slow_hist = zipf_hist(0.5, 700, 2_000_000);
    let embed_spec = || {
        JobSpec::new(JobPayload::Embed {
            tenant: "acme".into(),
            data: JobData::Histogram(slow_hist.clone()),
            params: GenerationParams::default().with_z(101),
        })
    };

    // One embed occupies the worker…
    let first = engine.submit(embed_spec()).unwrap();
    // Wait for the worker to pick it up so the queue is empty again.
    for _ in 0..1_000 {
        match engine.status(first) {
            Some(JobState::Queued) => std::thread::sleep(Duration::from_millis(1)),
            _ => break,
        }
    }
    // …a zero-deadline detect sits in the queue long past its deadline…
    let expired = engine
        .submit(
            JobSpec::new(JobPayload::Detect {
                tenant: "acme".into(),
                data: JobData::Histogram(slow_hist.clone()),
                params: DetectionParams::default(),
            })
            .with_timeout(Duration::ZERO),
        )
        .unwrap();
    // …one more embed fills the 2-slot queue; the burst must bounce.
    let queued = engine.submit(embed_spec()).unwrap();
    let mut rejected = 0;
    for _ in 0..8 {
        if matches!(
            engine.submit(embed_spec()),
            Err(ServiceError::QueueFull { .. })
        ) {
            rejected += 1;
        }
    }
    assert!(rejected > 0, "a 2-slot queue must reject an 8-job burst");

    // Graceful shutdown processes everything still queued.
    engine.shutdown();
    assert!(matches!(
        engine.wait(first),
        JobState::Completed(JobOutput::Embed(_))
    ));
    assert!(engine.wait(queued).is_terminal());
    assert!(matches!(
        engine.wait(expired),
        JobState::Failed(ServiceError::DeadlineExceeded)
    ));
    // After shutdown, new submits are refused.
    assert!(matches!(
        engine.submit(embed_spec()),
        Err(ServiceError::ShuttingDown)
    ));
    let m = engine.metrics();
    assert_eq!(m.rejected as usize, rejected + 1); // + the post-shutdown submit
    engine.shutdown(); // idempotent
}
