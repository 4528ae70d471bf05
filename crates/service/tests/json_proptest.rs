//! Property tests for the protocol's JSON codec, which parses every
//! request line a socket front-end receives — before auth — so it must
//! survive arbitrary input.

use freqywm_service::proto::json::{self, Value};
use proptest::prelude::*;

/// SplitMix64: a tiny deterministic generator for building structured
/// values from one sampled seed (the vendored proptest has no
/// recursive strategies).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn string(&mut self) -> String {
        const SPECIAL: [char; 10] = [
            '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '/', '\u{7f}', ' ',
        ];
        (0..self.below(12))
            .map(|_| match self.below(4) {
                0 => SPECIAL[self.below(SPECIAL.len() as u64) as usize],
                1 => char::from_u32(0x80 + self.below(0xD800 - 0x80) as u32).unwrap(),
                2 => char::from_u32(0x1_0000 + self.below(0x1_0000) as u32).unwrap(),
                _ => (b'a' + self.below(26) as u8) as char,
            })
            .collect()
    }

    fn number(&mut self) -> f64 {
        match self.below(4) {
            0 => self.below(1 << 53) as f64,
            1 => -(self.below(1_000_000) as f64) / 8.0,
            2 => (self.next() as f64) * 1e-12,
            // Any finite bit pattern, extremes included.
            _ => loop {
                let f = f64::from_bits(self.next());
                if f.is_finite() {
                    break f;
                }
            },
        }
    }

    fn value(&mut self, depth: usize) -> Value {
        let kinds = if depth == 0 { 4 } else { 6 };
        match self.below(kinds) {
            0 => Value::Null,
            1 => Value::Bool(self.below(2) == 1),
            2 => Value::Num(self.number()),
            3 => Value::Str(self.string()),
            4 => Value::Arr((0..self.below(4)).map(|_| self.value(depth - 1)).collect()),
            _ => Value::Obj(
                (0..self.below(4))
                    .map(|_| (self.string(), self.value(depth - 1)))
                    .collect(),
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in collection::vec(0u8..=255, 0..256)) {
        let _ = json::parse(&String::from_utf8_lossy(&bytes));
    }

    /// Strings over JSON's own punctuation reach far deeper into the
    /// parser than uniform bytes do.
    #[test]
    fn json_shaped_strings_never_panic(s in "[\\[\\]{}\":,0-9.eE+\\-tfnrul\\\\ ]{0,96}") {
        let _ = json::parse(&s);
    }

    #[test]
    fn unbalanced_deep_nesting_is_an_error(depth in 0usize..20_000, open in 0u8..2) {
        let line = if open == 0 { "[" } else { "{\"k\":" }.repeat(depth);
        prop_assert!(json::parse(&line).is_err());
    }

    #[test]
    fn write_then_parse_round_trips(seed in 0u64..u64::MAX) {
        let value = Gen(seed).value(4);
        let text = json::write(&value);
        prop_assert_eq!(json::parse(&text), Ok(value), "{}", text);
    }
}
