//! Frequency histograms and rank boundaries (Sec. III-B1).
//!
//! `Preprocess(D_o)` builds the histogram: unique tokens sorted in
//! descending frequency order. For each rank `i` the paper defines
//!
//! * upper boundary `u_0 = ∞`, `u_i = f_{i−1} − f_i`,
//! * lower boundary `l_i = f_i − f_{i+1}`, `l_last = f_last`,
//!
//! i.e. how far a token's frequency may move without touching its
//! neighbours' frequencies — the eligibility rule checks the boundaries
//! against `⌈s_ij/2⌉` to guarantee the Ranking Constraint.

use crate::token::Token;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasher;

/// Movement allowance of one histogram entry. `upper == u64::MAX`
/// encodes the unbounded allowance of the top-ranked token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Boundaries {
    pub upper: u64,
    pub lower: u64,
}

/// Marks a vacant index slot.
const VACANT: u32 = u32::MAX;

/// A token-frequency histogram sorted descending by frequency
/// (ties broken by token text for determinism).
///
/// Lookups go through an open-addressed (linear probing) table of
/// ranks into `entries`, so the index holds no copy of any token. The
/// table is keyed by a per-histogram [`RandomState`]: suspect tokens
/// come off the network, and a fixed hash would let a sender aim
/// collisions at it.
#[derive(Clone)]
pub struct Histogram {
    entries: Vec<(Token, u64)>,
    /// Ranks into `entries`, `VACANT` where empty. Its length is a
    /// power of two above twice `entries.len()`.
    slots: Vec<u32>,
    hasher: RandomState,
}

impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl Eq for Histogram {}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("entries", &self.entries)
            .finish()
    }
}

impl Histogram {
    /// Builds a histogram by counting tokens.
    pub fn from_tokens<I>(tokens: I) -> Self
    where
        I: IntoIterator<Item = Token>,
    {
        let mut counts: HashMap<Token, u64> = HashMap::new();
        for t in tokens {
            *counts.entry(t).or_insert(0) += 1;
        }
        Self::from_counts(counts)
    }

    /// Builds a histogram from precomputed counts. Tokens with zero
    /// count are kept (a watermark may drive a count to zero and
    /// detection must still see the token). Panics on a repeated
    /// token; see [`Self::try_from_counts`].
    pub fn from_counts<I>(counts: I) -> Self
    where
        I: IntoIterator<Item = (Token, u64)>,
    {
        Self::try_from_counts(counts.into_iter().collect())
            .unwrap_or_else(|t| panic!("duplicate token in counts: {t}"))
    }

    /// Like [`Self::from_counts`], but a repeated token is returned as
    /// the error instead of panicking: the first one, in input order,
    /// that repeats an earlier entry.
    pub fn try_from_counts(entries: Vec<(Token, u64)>) -> Result<Self, Token> {
        assert!(
            entries.len() < VACANT as usize,
            "histogram too large to index"
        );
        let mut h = Histogram {
            slots: vec![VACANT; (entries.len() * 2 + 1).next_power_of_two()],
            hasher: RandomState::new(),
            entries,
        };
        // Index in input order, so the first repeat found is the first
        // in the input; the slots hold input positions until `rank`.
        for i in 0..h.entries.len() {
            match h.probe(h.entries[i].0.as_str()) {
                Ok(_) => return Err(h.entries.swap_remove(i).0),
                Err(vacant) => h.slots[vacant] = i as u32,
            }
        }
        h.rank();
        Ok(h)
    }

    /// Walks `key`'s probe sequence: `Ok(position)` of its entry, or
    /// `Err(slot)` at the vacancy that ends the walk.
    fn probe(&self, key: &str) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.hasher.hash_one(key) as usize & mask;
        loop {
            match self.slots[slot] {
                VACANT => return Err(slot),
                p if self.entries[p as usize].0.as_str() == key => return Ok(p as usize),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Sorts `entries` into rank order and rewrites the slots from old
    /// positions to the new ranks. A slot's place depends only on its
    /// token's hash, so the table needs no rehash. Tokens are distinct,
    /// which makes the order total and the unstable sort deterministic.
    fn rank(&mut self) {
        let n = self.entries.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        let e = &self.entries;
        order.sort_unstable_by(|&a, &b| {
            let ((ta, ca), (tb, cb)) = (&e[a as usize], &e[b as usize]);
            cb.cmp(ca).then_with(|| ta.cmp(tb))
        });
        let mut rank = vec![0u32; n];
        for (r, &p) in order.iter().enumerate() {
            rank[p as usize] = r as u32;
        }
        for s in self.slots.iter_mut().filter(|s| **s != VACANT) {
            *s = rank[*s as usize];
        }
        // Move each entry to its rank, one swap per entry placed.
        for i in 0..n {
            while rank[i] as usize != i {
                let r = rank[i] as usize;
                self.entries.swap(i, r);
                rank.swap(i, r);
            }
        }
    }

    /// Number of distinct tokens.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum of all frequencies (the dataset size).
    pub fn total(&self) -> u64 {
        self.entries.iter().map(|(_, c)| c).sum()
    }

    /// `(token, frequency)` pairs in rank order.
    pub fn entries(&self) -> &[(Token, u64)] {
        &self.entries
    }

    /// Frequency of `token`, if present.
    pub fn count(&self, token: &Token) -> Option<u64> {
        self.rank_of(token).map(|r| self.entries[r].1)
    }

    /// Rank (0 = most frequent) of `token`, if present.
    pub fn rank_of(&self, token: &Token) -> Option<usize> {
        self.probe(token.as_str()).ok()
    }

    /// The frequency vector in rank order.
    pub fn counts(&self) -> Vec<u64> {
        self.entries.iter().map(|(_, c)| *c).collect()
    }

    /// Tokens in rank order.
    pub fn tokens(&self) -> impl Iterator<Item = &Token> {
        self.entries.iter().map(|(t, _)| t)
    }

    /// Rank boundaries per entry (see module docs). Empty histogram
    /// yields an empty vector; a single entry gets `(∞, f)`.
    pub fn boundaries(&self) -> Vec<Boundaries> {
        let n = self.entries.len();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let f = self.entries[i].1;
            let upper = if i == 0 {
                u64::MAX
            } else {
                self.entries[i - 1].1 - f
            };
            let lower = if i + 1 == n {
                f
            } else {
                f - self.entries[i + 1].1
            };
            out.push(Boundaries { upper, lower });
        }
        out
    }

    /// Returns a histogram with the given signed count changes applied
    /// (and re-sorted). Panics if a change would drive a count negative
    /// or references an unknown token.
    pub fn with_changes(&self, changes: &[(Token, i64)]) -> Histogram {
        let mut h = self.clone();
        for (t, d) in changes {
            let r = h
                .rank_of(t)
                .unwrap_or_else(|| panic!("unknown token in change set: {t}"));
            let c = &mut h.entries[r].1;
            let next = (*c as i64)
                .checked_add(*d)
                .filter(|&v| v >= 0)
                .unwrap_or_else(|| panic!("change drives count of {t} negative"));
            *c = next as u64;
        }
        h.rank();
        h
    }

    /// Scales every count by `factor` (rounding to nearest), the
    /// detector's counter-move against sampling attacks (Sec. V-B).
    pub fn scaled(&self, factor: f64) -> Histogram {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive"
        );
        let mut h = self.clone();
        for (_, c) in &mut h.entries {
            *c = (*c as f64 * factor).round() as u64;
        }
        h.rank();
        h
    }

    /// Paired count vectors over the token union of `self` and `other`
    /// (self's rank order first, then tokens unique to `other`).
    /// Missing tokens count 0 — the input for any [`Similarity`] metric.
    ///
    /// [`Similarity`]: https://docs.rs/freqywm-stats
    pub fn paired_counts(&self, other: &Histogram) -> (Vec<u64>, Vec<u64>) {
        let mut a = Vec::with_capacity(self.len());
        let mut b = Vec::with_capacity(self.len());
        for (t, c) in &self.entries {
            a.push(*c);
            b.push(other.count(t).unwrap_or(0));
        }
        for (t, c) in &other.entries {
            if self.count(t).is_none() {
                a.push(0);
                b.push(*c);
            }
        }
        (a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tk(s: &str) -> Token {
        Token::new(s)
    }

    fn running_example() -> Histogram {
        // Figure 1 of the paper.
        Histogram::from_counts([
            (tk("Youtube"), 1098),
            (tk("Facebook"), 980),
            (tk("Google"), 674),
            (tk("Instagram"), 537),
            (tk("BBC"), 64),
            (tk("CNN"), 53),
            (tk("El Pais"), 53),
        ])
    }

    #[test]
    fn sorted_descending_with_deterministic_ties() {
        let h = running_example();
        let tokens: Vec<&str> = h.tokens().map(|t| t.as_str()).collect();
        assert_eq!(
            tokens,
            vec![
                "Youtube",
                "Facebook",
                "Google",
                "Instagram",
                "BBC",
                "CNN",
                "El Pais"
            ]
        );
    }

    #[test]
    fn counting_from_tokens() {
        let h = Histogram::from_tokens(["a", "b", "a", "c", "a", "b"].into_iter().map(Token::new));
        assert_eq!(h.count(&tk("a")), Some(3));
        assert_eq!(h.count(&tk("b")), Some(2));
        assert_eq!(h.count(&tk("c")), Some(1));
        assert_eq!(h.count(&tk("zzz")), None);
        assert_eq!(h.total(), 6);
        assert_eq!(h.rank_of(&tk("a")), Some(0));
    }

    #[test]
    fn boundaries_match_paper_rules() {
        let h = running_example();
        let b = h.boundaries();
        // u_0 = ∞
        assert_eq!(b[0].upper, u64::MAX);
        // l_0 = 1098 - 980
        assert_eq!(b[0].lower, 118);
        // u_1 = 1098 - 980, l_1 = 980 - 674
        assert_eq!(b[1].upper, 118);
        assert_eq!(b[1].lower, 306);
        // Tied tail: CNN and El Pais both 53 -> boundary 0 between them.
        assert_eq!(b[5].lower, 0);
        assert_eq!(b[6].upper, 0);
        // Last lower boundary = its own frequency.
        assert_eq!(b[6].lower, 53);
    }

    #[test]
    fn single_entry_boundaries() {
        let h = Histogram::from_counts([(tk("only"), 42)]);
        let b = h.boundaries();
        assert_eq!(
            b,
            vec![Boundaries {
                upper: u64::MAX,
                lower: 42
            }]
        );
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::from_counts(std::iter::empty::<(Token, u64)>());
        assert!(h.is_empty());
        assert!(h.boundaries().is_empty());
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn uniform_histogram_has_zero_interior_boundaries() {
        // The paper: uniform frequencies leave no eligible pairs.
        let h = Histogram::from_counts((0..10).map(|i| (tk(&format!("t{i}")), 100)));
        let b = h.boundaries();
        for (i, bi) in b.iter().enumerate() {
            if i > 0 {
                assert_eq!(bi.upper, 0);
            }
            if i + 1 < b.len() {
                assert_eq!(bi.lower, 0);
            }
        }
    }

    #[test]
    fn with_changes_applies_the_running_example() {
        let h = running_example();
        let w = h.with_changes(&[(tk("Youtube"), -23), (tk("Instagram"), 22)]);
        assert_eq!(w.count(&tk("Youtube")), Some(1075));
        assert_eq!(w.count(&tk("Instagram")), Some(559));
        // Ranking preserved.
        assert_eq!(w.rank_of(&tk("Youtube")), Some(0));
        assert_eq!(w.rank_of(&tk("Instagram")), Some(3));
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn with_changes_rejects_negative_counts() {
        running_example().with_changes(&[(tk("CNN"), -100)]);
    }

    #[test]
    #[should_panic(expected = "unknown token")]
    fn with_changes_rejects_unknown_token() {
        running_example().with_changes(&[(tk("nope"), 1)]);
    }

    #[test]
    fn scaled_rounds_counts() {
        let h = Histogram::from_counts([(tk("a"), 10), (tk("b"), 5)]);
        let s = h.scaled(10.0);
        assert_eq!(s.count(&tk("a")), Some(100));
        assert_eq!(s.count(&tk("b")), Some(50));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn scaled_rejects_nonpositive() {
        running_example().scaled(0.0);
    }

    #[test]
    fn paired_counts_over_union() {
        let a = Histogram::from_counts([(tk("x"), 5), (tk("y"), 3)]);
        let b = Histogram::from_counts([(tk("y"), 2), (tk("z"), 7)]);
        let (va, vb) = a.paired_counts(&b);
        // a's order: x(5), y(3); then b-only z.
        assert_eq!(va, vec![5, 3, 0]);
        assert_eq!(vb, vec![0, 2, 7]);
    }

    #[test]
    fn try_from_counts_names_the_first_repeat_in_input_order() {
        let counts = vec![(tk("b"), 1), (tk("a"), 2), (tk("a"), 3), (tk("b"), 4)];
        assert_eq!(Histogram::try_from_counts(counts), Err(tk("a")));
        let h = Histogram::try_from_counts(vec![(tk("b"), 1), (tk("a"), 2)]).unwrap();
        assert_eq!(h.rank_of(&tk("a")), Some(0));
    }

    #[test]
    #[should_panic(expected = "duplicate token")]
    fn from_counts_panics_on_a_repeat() {
        Histogram::from_counts([(tk("x"), 1), (tk("x"), 2)]);
    }

    #[test]
    fn equality_and_debug_ignore_the_index() {
        let a = running_example();
        let b = Histogram::from_counts(a.entries().iter().rev().cloned());
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(format!("{a:?}").starts_with("Histogram { entries: ["));
    }

    proptest! {
        #[test]
        fn boundaries_are_consistent(counts in proptest::collection::vec(0u64..1000, 1..50)) {
            let h = Histogram::from_counts(
                counts.iter().enumerate().map(|(i, &c)| (tk(&format!("t{i}")), c)),
            );
            let f = h.counts();
            let b = h.boundaries();
            for i in 0..f.len() {
                if i > 0 {
                    prop_assert_eq!(b[i].upper, f[i-1] - f[i]);
                    prop_assert_eq!(b[i].upper, b[i-1].lower);
                }
                if i + 1 == f.len() {
                    prop_assert_eq!(b[i].lower, f[i]);
                }
            }
            // Sorted descending.
            for w in f.windows(2) {
                prop_assert!(w[0] >= w[1]);
            }
        }

        /// Tokens drawn from a small alphabet, so inputs often repeat one.
        #[test]
        fn index_agrees_with_a_linear_scan(
            raw in proptest::collection::vec((0u8..40, 0u64..50), 0..60),
            changes in proptest::collection::vec((0u8..40, -30i64..30), 0..8),
        ) {
            let counts: Vec<(Token, u64)> =
                raw.iter().map(|&(t, c)| (tk(&format!("t{t}")), c)).collect();
            let first_repeat = (0..counts.len())
                .find(|&i| counts[..i].iter().any(|(t, _)| *t == counts[i].0))
                .map(|i| counts[i].0.clone());
            let h = match (Histogram::try_from_counts(counts.clone()), first_repeat) {
                (Err(t), Some(want)) => {
                    prop_assert_eq!(t, want);
                    return Ok(());
                }
                (Ok(h), None) => h,
                (got, want) => panic!("try_from_counts gave {got:?}, repeat {want:?}"),
            };
            prop_assert_eq!(h.len(), counts.len());
            for t in (0u8..45).map(|t| tk(&format!("t{t}"))) {
                let scan = h.entries().iter().position(|(u, _)| *u == t);
                prop_assert_eq!(h.rank_of(&t), scan);
                prop_assert_eq!(h.count(&t), scan.map(|r| h.entries()[r].1));
            }
            // Two builds (two hash keys) of the same counts are equal.
            prop_assert_eq!(&Histogram::from_counts(counts.clone()), &h);

            // Keep the changes that name a present token and never take
            // a count below zero, then compare with a rebuild.
            let mut expect = counts.clone();
            let mut applied = Vec::new();
            for (t, d) in changes {
                let t = tk(&format!("t{t}"));
                if let Some(e) = expect.iter_mut().find(|(u, _)| *u == t) {
                    if let Some(next) = e.1.checked_add_signed(d) {
                        e.1 = next;
                        applied.push((t, d));
                    }
                }
            }
            let changed = h.with_changes(&applied);
            prop_assert_eq!(&changed, &Histogram::from_counts(expect));
            for (t, _) in h.entries() {
                let scan = changed.entries().iter().position(|(u, _)| u == t);
                prop_assert_eq!(changed.rank_of(t), scan);
            }
        }

        #[test]
        fn total_preserved_by_counting(tokens in proptest::collection::vec(0u8..20, 0..200)) {
            let h = Histogram::from_tokens(tokens.iter().map(|t| tk(&format!("t{t}"))));
            prop_assert_eq!(h.total() as usize, tokens.len());
        }
    }
}
