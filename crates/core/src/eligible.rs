//! Eligible-pair generation (`Eligible`, Sec. III-B1).
//!
//! A candidate pair `(tk_i, tk_j)` (indices in rank order, `i < j`) is
//! *eligible* iff
//!
//! * `s_ij ≥ 2` (modulo 0 is undefined, modulo 1 trivial), and
//! * all four rank boundaries `u_i, l_i, u_j, l_j` are ≥ `⌈s_ij/2⌉`,
//!
//! which guarantees the modification rule can zero the pair's remainder
//! in either direction without inverting any ranking.
//!
//! Complexity: pairs whose tokens have a zero boundary are pruned
//! before hashing (tied tails — the dominant case on flat data), and
//! the inner digest `H(R ‖ tk_j)` is cached per token, so the O(n²)
//! sweep costs one outer SHA-256 per surviving pair.

use crate::params::WeightScheme;
use freqywm_crypto::prf::{digest_mod, Secret};
use freqywm_crypto::sha256::sha256_concat;
use freqywm_data::histogram::Histogram;

/// An eligible pair, in histogram-rank coordinates (`i < j`, so
/// `f_i ≥ f_j`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EligiblePair {
    /// Rank of the higher-frequency token.
    pub i: usize,
    /// Rank of the lower-frequency token.
    pub j: usize,
    /// The pair modulus `s_ij`.
    pub s: u64,
    /// Current remainder `(f_i − f_j) mod s_ij`.
    pub rm: u64,
}

impl EligiblePair {
    /// The cost the modification rule actually pays:
    /// `min(rm, s − rm)` split across the two tokens.
    pub fn effective_cost(&self) -> u64 {
        self.rm.min(self.s - self.rm)
    }

    /// Matching edge weight under the chosen scheme, with offset `t_big`.
    pub fn weight(&self, scheme: WeightScheme, t_big: i64) -> i64 {
        match scheme {
            WeightScheme::PaperRemainder => t_big - self.rm as i64,
            WeightScheme::EffectiveCost => t_big - self.effective_cost() as i64,
        }
    }
}

/// Computes `s_ij` for ranks `(i, j)` of `hist` using cached inner
/// digests (`inner[j] = H(R ‖ tk_j)`).
fn s_from_cached(hist: &Histogram, inner: &[[u8; 32]], i: usize, j: usize, z: u64) -> u64 {
    let tk_i = hist.entries()[i].0.as_bytes();
    digest_mod(&sha256_concat(&[tk_i, &inner[j]]), z)
}

/// Precomputes the inner digests `H(R ‖ tk_j)` for every token.
fn inner_digests(hist: &Histogram, secret: &Secret) -> Vec<[u8; 32]> {
    hist.entries()
        .iter()
        .map(|(t, _)| sha256_concat(&[secret.as_bytes(), t.as_bytes()]))
        .collect()
}

/// Enumerates all eligible pairs of `hist` under secret `secret` and
/// modulo base `z`. Pairs are returned in `(i, j)` lexicographic order.
pub fn eligible_pairs(hist: &Histogram, secret: &Secret, z: u64) -> Vec<EligiblePair> {
    eligible_pairs_parallel(hist, secret, z, 2, 1)
}

/// [`eligible_pairs`] with an additional modulus floor: pairs with
/// `s_ij < min_s` are rejected. Runs on the caller's thread.
pub fn eligible_pairs_with_min(
    hist: &Histogram,
    secret: &Secret,
    z: u64,
    min_s: u64,
) -> Vec<EligiblePair> {
    eligible_pairs_parallel(hist, secret, z, min_s, 1)
}

/// The eligible-pair sweep, split across `threads` scoped threads
/// (`threads <= 1` runs inline on the caller's thread). Pairs with
/// `s_ij < min_s` are rejected, and the result is in `(i, j)` order for
/// every thread count.
///
/// Two deliberate deviations from the paper's rule, both documented in
/// DESIGN.md:
///
/// * the lower boundary of the **last** token is capped at
///   `f_last − 1` instead of `f_last`, so no token can be erased from
///   the dataset entirely (a vanished token makes its pair
///   undetectable in a materialised dataset);
/// * `min_s > 2` lets the owner skip tiny moduli, whose pairs verify
///   trivially once the detection tolerance `t` reaches `s/2` (see the
///   false-positive discussion in EXPERIMENTS.md).
///
/// The sweep is embarrassingly parallel once the inner digests are
/// cached; threads are worth it from roughly 10⁶ candidate pairs (the
/// Chicago-Taxi regime, where the SHA sweep dominates Table II's
/// generation time).
pub fn eligible_pairs_parallel(
    hist: &Histogram,
    secret: &Secret,
    z: u64,
    min_s: u64,
    threads: usize,
) -> Vec<EligiblePair> {
    let min_s = min_s.max(2);
    let counts = hist.counts();
    let n = counts.len();
    if n < 2 || z < 2 {
        return Vec::new();
    }
    // A token with min-boundary `m` can only pair with `ceil(s/2) <= m`,
    // i.e. `s <= 2m`; `m == 0` rules the token out entirely (`s >= 2`
    // always needs `m >= 1`).
    let min_bound: Vec<u64> = hist
        .boundaries()
        .iter()
        .zip(&counts)
        .map(|(b, &c)| b.upper.min(b.lower.min(c.saturating_sub(1))))
        .collect();
    let candidates: Vec<usize> = (0..n).filter(|&i| min_bound[i] >= 1).collect();
    if candidates.len() < 2 {
        return Vec::new();
    }
    let inner = inner_digests(hist, secret);
    // Rows `a, a + stride, ...` of the candidate triangle; a strided
    // outer loop balances the triangular workload across threads.
    let rows = |first: usize, stride: usize| {
        let mut out = Vec::new();
        for a in (first..candidates.len()).step_by(stride) {
            let i = candidates[a];
            for &j in &candidates[a + 1..] {
                let s = s_from_cached(hist, &inner, i, j, z);
                // ceil(s/2) <= cap  <=>  s <= 2*cap (integer arithmetic,
                // avoiding overflow for cap = u64::MAX).
                if s < min_s || s.div_ceil(2) > min_bound[i].min(min_bound[j]) {
                    continue;
                }
                let rm = (counts[i] - counts[j]) % s;
                out.push(EligiblePair { i, j, s, rm });
            }
        }
        out
    };
    let threads = threads.clamp(1, candidates.len());
    if threads == 1 {
        return rows(0, 1);
    }
    let mut out: Vec<EligiblePair> = std::thread::scope(|scope| {
        let rows = &rows;
        let handles: Vec<_> = (0..threads)
            .map(|t| scope.spawn(move || rows(t, threads)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("eligibility worker panicked"))
            .collect()
    });
    out.sort_unstable_by_key(|p| (p.i, p.j));
    out
}

/// The paper's `r_max` (Sec. IV-A1): the largest frequency difference,
/// which upper-bounds the useful range of `z`.
pub fn r_max(hist: &Histogram) -> u64 {
    let counts = hist.counts();
    match (counts.first(), counts.last()) {
        (Some(&hi), Some(&lo)) => hi - lo,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freqywm_data::token::Token;

    fn secret() -> Secret {
        Secret::from_label("eligible-tests")
    }

    fn hist(counts: &[(&str, u64)]) -> Histogram {
        Histogram::from_counts(counts.iter().map(|(t, c)| (Token::new(*t), *c)))
    }

    #[test]
    fn uniform_has_no_eligible_pairs() {
        let h = hist(&[("a", 100), ("b", 100), ("c", 100), ("d", 100)]);
        assert!(eligible_pairs(&h, &secret(), 131).is_empty());
    }

    #[test]
    fn single_token_has_no_pairs() {
        let h = hist(&[("a", 100)]);
        assert!(eligible_pairs(&h, &secret(), 131).is_empty());
    }

    #[test]
    fn z_below_two_yields_nothing() {
        let h = hist(&[("a", 1000), ("b", 500), ("c", 100)]);
        assert!(eligible_pairs(&h, &secret(), 1).is_empty());
        assert!(eligible_pairs(&h, &secret(), 0).is_empty());
    }

    #[test]
    fn well_separated_tokens_are_eligible() {
        // Boundaries are in the hundreds; z = 11 keeps s small, so every
        // pair should pass the boundary rule (given s >= 2).
        let h = hist(&[("a", 10_000), ("b", 8_000), ("c", 6_000), ("d", 4_000)]);
        let pairs = eligible_pairs(&h, &secret(), 11);
        assert!(!pairs.is_empty());
        for p in &pairs {
            assert!(p.i < p.j);
            assert!(p.s >= 2 && p.s < 11);
            assert!(p.rm < p.s);
            let counts = h.counts();
            assert_eq!(p.rm, (counts[p.i] - counts[p.j]) % p.s);
        }
    }

    #[test]
    fn matches_public_prf() {
        // s values must agree with the crypto crate's pair_modulus using
        // the histogram-rank token order.
        let h = hist(&[("alpha", 900), ("beta", 500), ("gamma", 100)]);
        let s = secret();
        let pairs = eligible_pairs(&h, &s, 97);
        for p in pairs {
            let tki = &h.entries()[p.i].0;
            let tkj = &h.entries()[p.j].0;
            let expect = freqywm_crypto::prf::pair_modulus(&s, tki.as_bytes(), tkj.as_bytes(), 97);
            assert_eq!(p.s, expect);
        }
    }

    #[test]
    fn boundary_rule_excludes_tight_pairs() {
        // Adjacent counts differ by 1 -> boundaries 1 -> only s <= 2 pass.
        let h = hist(&[("a", 103), ("b", 102), ("c", 101), ("d", 100)]);
        let pairs = eligible_pairs(&h, &secret(), 1_000);
        for p in pairs {
            assert!(
                p.s <= 2,
                "pair ({}, {}) with s={} should be excluded",
                p.i,
                p.j,
                p.s
            );
        }
    }

    #[test]
    fn tied_tokens_never_pair() {
        let h = hist(&[("a", 500), ("b", 300), ("c", 300), ("d", 50)]);
        let pairs = eligible_pairs(&h, &secret(), 131);
        // Ranks 1 and 2 are tied (boundary 0): they may not appear.
        for p in pairs {
            assert!(p.i != 1 && p.j != 1 && p.i != 2 && p.j != 2);
        }
    }

    #[test]
    fn effective_cost_and_weights() {
        let p = EligiblePair {
            i: 0,
            j: 1,
            s: 100,
            rm: 70,
        };
        assert_eq!(p.effective_cost(), 30);
        assert_eq!(p.weight(WeightScheme::PaperRemainder, 1000), 930);
        assert_eq!(p.weight(WeightScheme::EffectiveCost, 1000), 970);
        let q = EligiblePair {
            i: 0,
            j: 1,
            s: 100,
            rm: 20,
        };
        assert_eq!(q.effective_cost(), 20);
    }

    #[test]
    fn r_max_is_extreme_difference() {
        let h = hist(&[("a", 1_000), ("b", 400), ("c", 37)]);
        assert_eq!(r_max(&h), 963);
        assert_eq!(r_max(&hist(&[])), 0);
        assert_eq!(r_max(&hist(&[("only", 5)])), 0);
    }

    #[test]
    fn min_modulus_filters_small_s() {
        let h = hist(&[
            ("a", 10_000),
            ("b", 8_000),
            ("c", 6_000),
            ("d", 4_000),
            ("e", 2_500),
        ]);
        let all = eligible_pairs(&h, &secret(), 257);
        let floored = eligible_pairs_with_min(&h, &secret(), 257, 50);
        assert!(floored.len() <= all.len());
        assert!(floored.iter().all(|p| p.s >= 50));
        // Every floored pair also appears in the unfloored set.
        for p in &floored {
            assert!(all.contains(p));
        }
    }

    #[test]
    fn last_token_never_driven_to_zero() {
        // Token "d" has f = 6; its paper lower-boundary would be 6
        // (remove everything). Our cap keeps at least one instance:
        // any pair involving the last token must have ceil(s/2) <= 5.
        let h = hist(&[("a", 5_000), ("b", 3_000), ("c", 1_000), ("d", 6)]);
        let pairs = eligible_pairs(&h, &secret(), 1_000);
        for p in pairs {
            if p.j == 3 {
                assert!(p.s.div_ceil(2) <= 5, "pair with last token has s={}", p.s);
            }
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let h = hist(&[
            ("a", 90_000),
            ("b", 81_500),
            ("c", 74_000),
            ("d", 66_000),
            ("e", 59_000),
            ("f", 52_500),
            ("g", 47_000),
            ("h", 41_000),
            ("i", 36_000),
            ("j", 31_000),
            ("k", 27_000),
            ("l", 23_000),
            ("m", 19_500),
            ("n", 16_000),
            ("o", 13_000),
        ]);
        for min_s in [2u64, 8] {
            let seq = eligible_pairs_with_min(&h, &secret(), 257, min_s);
            for threads in [1usize, 2, 4, 7] {
                let par = eligible_pairs_parallel(&h, &secret(), 257, min_s, threads);
                assert_eq!(par, seq, "threads={threads} min_s={min_s}");
            }
        }
    }

    #[test]
    fn parallel_degenerate_inputs() {
        let h = hist(&[("a", 5), ("b", 5)]);
        assert!(eligible_pairs_parallel(&h, &secret(), 131, 2, 4).is_empty());
        let h = hist(&[("only", 5)]);
        assert!(eligible_pairs_parallel(&h, &secret(), 131, 2, 4).is_empty());
        let h = hist(&[("a", 1000), ("b", 500)]);
        assert!(eligible_pairs_parallel(&h, &secret(), 1, 2, 4).is_empty());
    }

    #[test]
    fn pair_count_bounded_by_n_choose_2() {
        let h = hist(&[("a", 1000), ("b", 800), ("c", 500), ("d", 200), ("e", 90)]);
        let pairs = eligible_pairs(&h, &secret(), 7);
        assert!(pairs.len() <= 10);
        // Deterministic for a fixed secret.
        assert_eq!(pairs, eligible_pairs(&h, &secret(), 7));
    }
}
