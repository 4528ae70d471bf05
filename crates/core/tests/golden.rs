//! Golden vectors for Algorithm I and II on one fixed Zipf histogram.
//!
//! The expected values were computed with the original scalar SHA-256
//! and byte-at-a-time reduction. A faster PRF or a restructured sweep
//! must reproduce the eligible-pair count, the chosen pairs and the
//! detect verdicts exactly.

use freqywm_core::detect::detect_histogram;
use freqywm_core::eligible::eligible_pairs;
use freqywm_core::generate::Watermarker;
use freqywm_core::params::{DetectionParams, GenerationParams};
use freqywm_crypto::prf::Secret;
use freqywm_data::histogram::Histogram;
use freqywm_data::token::Token;

const Z: u64 = 131;

/// `f_r = 120 000 / r` for ranks `r = 1..=60`: a Zipf law with
/// exponent 1, in integer arithmetic so the input is exact everywhere.
fn zipf() -> Histogram {
    Histogram::from_counts((1..=60u64).map(|r| (Token::new(format!("golden-{r:03}")), 120_000 / r)))
}

fn secret() -> Secret {
    Secret::from_label("golden-owner")
}

#[test]
fn eligible_pair_count_is_pinned() {
    let eligible = eligible_pairs(&zipf(), &secret(), Z);
    assert_eq!(eligible.len(), 1439);
    // Order-sensitive fold over every (i, j, s, rm), so a single changed
    // modulus, remainder or position shows.
    let fold = eligible.iter().fold(0u64, |acc, p| {
        acc.wrapping_mul(1_000_003)
            .wrapping_add((p.i * 64 + p.j) as u64 * 1_000_000 + p.s * 1_000 + p.rm)
    });
    assert_eq!(fold, 3_730_905_088_085_240_356);
}

#[test]
fn chosen_pairs_and_detect_verdicts_are_pinned() {
    let hist = zipf();
    let generate = |threads| {
        Watermarker::new(GenerationParams::default().with_z(Z).with_threads(threads))
            .generate_histogram(&hist, secret())
            .expect("golden histogram watermarks")
    };
    let out = generate(1);
    let threaded = generate(3);
    assert_eq!(threaded.secrets, out.secrets);
    assert_eq!(threaded.watermarked, out.watermarked);
    let chosen: Vec<(&str, &str)> = out
        .secrets
        .pairs
        .iter()
        .map(|(a, b)| (a.as_str(), b.as_str()))
        .collect();
    println!("{chosen:?}");
    assert_eq!(chosen, GOLDEN_CHOSEN);
    assert_eq!(out.report.eligible_pairs, 1439);

    let params = DetectionParams::default().with_k(20);
    let on_wm = detect_histogram(&out.watermarked, &out.secrets, &params);
    assert!(on_wm.accepted);
    assert_eq!((on_wm.accepted_pairs, on_wm.total_pairs), (30, 30));
    // Free pairs verify on the original too, but too few for k = 20.
    let on_orig = detect_histogram(&hist, &out.secrets, &params);
    assert!(!on_orig.accepted);
    assert_eq!((on_orig.accepted_pairs, on_orig.total_pairs), (18, 30));
    let moduli: Vec<u64> = on_wm
        .verdicts
        .iter()
        .map(|v| v.s.expect("present"))
        .collect();
    assert_eq!(moduli, GOLDEN_MODULI);
}

const GOLDEN_CHOSEN: &[(&str, &str)] = &[
    ("golden-001", "golden-048"),
    ("golden-002", "golden-043"),
    ("golden-003", "golden-005"),
    ("golden-004", "golden-010"),
    ("golden-006", "golden-049"),
    ("golden-007", "golden-054"),
    ("golden-008", "golden-019"),
    ("golden-012", "golden-013"),
    ("golden-015", "golden-020"),
    ("golden-016", "golden-022"),
    ("golden-017", "golden-044"),
    ("golden-021", "golden-027"),
    ("golden-023", "golden-052"),
    ("golden-030", "golden-040"),
    ("golden-031", "golden-050"),
    ("golden-035", "golden-041"),
    ("golden-039", "golden-042"),
    ("golden-057", "golden-060"),
    ("golden-009", "golden-025"),
    ("golden-011", "golden-046"),
    ("golden-014", "golden-053"),
    ("golden-018", "golden-028"),
    ("golden-026", "golden-034"),
    ("golden-033", "golden-045"),
    ("golden-036", "golden-059"),
    ("golden-037", "golden-047"),
    ("golden-038", "golden-058"),
    ("golden-024", "golden-056"),
    ("golden-029", "golden-032"),
    ("golden-051", "golden-055"),
];

const GOLDEN_MODULI: &[u64] = &[
    50, 2, 8, 8, 2, 2, 45, 14, 8, 6, 71, 5, 5, 10, 10, 2, 3, 21, 27, 10, 3, 85, 7, 51, 3, 53, 32,
    34, 7, 13,
];
