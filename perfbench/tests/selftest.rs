//! Self-tests of the benchmark's own machinery: percentile refusal,
//! the backlog test, schedule determinism and the correctness gate.

use freqywm_perfbench::check::{check, check_ledger_indices, Outcome};
use freqywm_perfbench::gen::{self, Layout, Pools};
use freqywm_perfbench::loadgen;
use freqywm_perfbench::stats::{backlog_grows, percentile};
use freqywm_perfbench::workload::first_wrong;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn percentile_refuses_fewer_than_ten_samples_beyond() {
    let samples: Vec<f64> = (0..999).map(f64::from).collect();
    assert!(
        percentile(&samples, 0.99).is_err(),
        "999 samples leave 9 beyond p99"
    );
    let samples: Vec<f64> = (0..1000).map(f64::from).collect();
    // Nearest rank: the 990th of 1000 sorted samples.
    assert_eq!(percentile(&samples, 0.99), Ok(989.0));
    assert!(percentile(&samples[..19], 0.50).is_err());
    assert_eq!(percentile(&samples[..20], 0.50), Ok(9.0));
    assert!(percentile(&samples[..199], 0.95).is_err());
    assert!(percentile(&samples[..200], 0.95).is_ok());
}

#[test]
fn backlog_check_flags_growth_and_passes_steady_traces() {
    // Steady: latency hovers around 2 ms for 4 s.
    let steady: Vec<(f64, f64)> = (0..4000)
        .map(|i| (i as f64 / 1000.0, 2.0 + ((i * 7919) % 13) as f64 / 10.0))
        .collect();
    assert!(!backlog_grows(&steady, 1.0));
    // Overloaded: the queue builds for the whole rung, so latency climbs
    // with due time.
    let growing: Vec<(f64, f64)> = (0..4000)
        .map(|i| {
            let t = i as f64 / 1000.0;
            (t, 2.0 + 50.0 * t)
        })
        .collect();
    assert!(backlog_grows(&growing, 1.0));
}

fn small_pools(seed: u64) -> Pools {
    let read = gen::small_tenants(seed, "r", 1);
    let write = gen::small_tenants(seed, "w", 1);
    let mut rng = gen::Rng::new(gen::sub_seed(seed, "suspects"));
    Pools {
        detects: read
            .iter()
            .take(2)
            .flat_map(|t| gen::suspects(&mut rng, t))
            .map(Arc::new)
            .collect(),
        maintains: write
            .iter()
            .take(2)
            .map(|t| Arc::new(gen::maintain_request(&mut rng, t)))
            .collect(),
        fresh: write
            .into_iter()
            .take(2)
            .map(|t| {
                let counts = gen::counts_json(&t.hist);
                Arc::new((t, counts))
            })
            .collect(),
        detect_share: 0.80,
        maintain_share: 0.15,
    }
}

#[test]
fn same_seed_same_stream_different_seed_different_stream() {
    let layout = Layout { read: 1, write: 1 };
    let digest = |seed: u64| {
        let pools = small_pools(seed);
        gen::stream_digest(&gen::schedule(&pools, layout, 200.0, 2.0, seed, "fixed"))
    };
    assert_eq!(digest(7), digest(7));
    assert_ne!(digest(7), digest(8));
    // Both verdicts occur among the suspects, so detects are not a
    // constant answer.
    let pools = small_pools(7);
    let verdicts: Vec<bool> = pools
        .detects
        .iter()
        .map(|r| match r.expect {
            gen::Expect::Detect { accepted, .. } => accepted,
            _ => unreachable!(),
        })
        .collect();
    assert!(verdicts.contains(&true) && verdicts.contains(&false));
}

fn detect_response(req: &gen::Request, accepted_pairs_delta: usize) -> String {
    let gen::Expect::Detect {
        accepted,
        accepted_pairs,
        present_pairs,
        total_pairs,
    } = req.expect
    else {
        panic!("not a detect")
    };
    format!(
        "{{\"ok\":true,\"op\":\"detect\",\"tenant\":\"{}\",\"accepted\":{accepted},\"accepted_pairs\":{},\"present_pairs\":{present_pairs},\"total_pairs\":{total_pairs},\"accept_rate\":0.5}}",
        req.tenant,
        accepted_pairs + accepted_pairs_delta
    )
}

#[test]
fn wrong_response_fails_the_gate() {
    let pools = small_pools(3);
    let req = &pools.detects[0];
    assert!(check(&detect_response(req, 0), req).is_ok());
    assert!(matches!(
        check(&detect_response(req, 1), req),
        Outcome::Wrong(_)
    ));
    assert!(matches!(
        check(r#"{"ok":false,"error":"queue full"}"#, req),
        Outcome::Refused(_)
    ));
    assert!(check_ledger_indices(&[5, 7, 6], 4).is_ok());
    assert!(check_ledger_indices(&[5, 5], 4).is_err());
    assert!(check_ledger_indices(&[3], 4).is_err());
}

#[test]
fn wrong_response_over_the_wire_is_reported() {
    let pools = small_pools(5);
    let req = Arc::clone(&pools.detects[0]);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let served = Arc::clone(&req);
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        let mut line = String::new();
        for i in 0..2 {
            line.clear();
            reader.read_line(&mut line).expect("read");
            let resp = detect_response(&served, i);
            writer
                .write_all(format!("{resp}\n").as_bytes())
                .expect("write");
        }
    });
    let ops: Vec<gen::Op> = (0..2)
        .map(|i| gen::Op {
            due_ns: i * 1_000_000,
            conn: 0,
            req: Arc::clone(&req),
        })
        .collect();
    let result = loadgen::run_phase(&[addr], &ops, Duration::from_secs(5), None).expect("phase");
    server.join().expect("fake server");
    assert!(result.records[0].outcome.is_ok());
    assert!(matches!(result.records[1].outcome, Outcome::Wrong(_)));
    assert!(first_wrong(&result.records).is_some());
}
