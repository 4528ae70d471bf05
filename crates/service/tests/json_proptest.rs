//! Property tests for the protocol's JSON codec, which parses every
//! request line a socket front-end receives — before auth — so it must
//! survive arbitrary input.

use freqywm_service::proto::json::{self, Value};
use freqywm_service::proto::{plan, route_of};
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

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.below(options.len() as u64) as usize]
    }

    /// A request object as clients send it, with occasional wrong
    /// types, duplicate keys and bulk arrays under any op.
    fn request(&mut self) -> Value {
        const OPS: [&str; 16] = [
            "register",
            "embed",
            "detect",
            "maintain",
            "dispute",
            "quota",
            "metrics",
            "history",
            "trace",
            "hello",
            "shutdown",
            "replicate",
            "promote",
            "fly",
            "",
            "Detect",
        ];
        const KEYS: [&str; 10] = [
            "op", "tenant", "a", "b", "id", "trace", "counts", "tokens", "updates", "auth",
        ];
        let mut fields = Vec::new();
        for _ in 0..self.below(9) {
            let key = self.pick(&KEYS);
            let value = match (key, self.below(5)) {
                (_, 0) => self.value(2),
                ("op", _) => Value::Str(self.pick(&OPS).to_string()),
                ("counts" | "updates", _) => Value::Arr(
                    (0..self.below(5))
                        .map(|_| {
                            Value::Arr(vec![Value::Str(self.string()), Value::Num(self.number())])
                        })
                        .collect(),
                ),
                ("tokens", _) => Value::Arr(
                    (0..self.below(5))
                        .map(|_| Value::Str(self.string()))
                        .collect(),
                ),
                _ => Value::Str(self.string()),
            };
            fields.push((key.to_string(), value));
        }
        Value::Obj(fields)
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
        prop_assert!(json::parse_request(&line).is_err());
    }

    #[test]
    fn plan_never_panics_on_arbitrary_bytes(bytes in collection::vec(0u8..=255, 0..256)) {
        let _ = plan(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn plan_never_panics_on_json_shaped_strings(
        s in "[\\[\\]{}\":,0-9.eE+\\-tfnrul\\\\ ]{0,96}",
    ) {
        let _ = plan(&s);
        let _ = plan(&format!("{{\"op\":\"detect\",\"tenant\":\"t\",\"counts\":{s}}}"));
    }

    /// The request walk accepts exactly what the tree parser accepts,
    /// failing with the same message.
    #[test]
    fn request_walk_agrees_with_parse(s in "[\\[\\]{}\":,0-9.eE+\\-tfnrul\\\\ ]{0,96}") {
        let line = format!("{{\"counts\":{s}}}");
        for text in [&s, &line] {
            prop_assert_eq!(
                json::parse_request(text).err(),
                json::parse(text).err(),
                "{}",
                text
            );
        }
    }

    /// The router routes on the walked line's small object; that must
    /// decide exactly as the full tree would.
    #[test]
    fn walked_route_equals_tree_route(seed in 0u64..u64::MAX) {
        let line = json::write(&Gen(seed).request());
        let tree = json::parse(&line).expect("written JSON parses");
        let walked = json::parse_request(&line).expect("written JSON walks");
        prop_assert_eq!(route_of(walked.fields()), route_of(&tree), "{}", line);
        prop_assert_eq!(walked.get("id"), tree.get("id"), "{}", line);
        let cut = seed as usize % (line.len() + 1);
        if line.is_char_boundary(cut) {
            let cut = &line[..cut];
            prop_assert_eq!(json::parse_request(cut).err(), json::parse(cut).err(), "{}", cut);
        }
    }

    /// Every number the parser accepts is finite, so it renders back
    /// to JSON that parses again.
    #[test]
    fn accepted_numbers_are_finite_and_round_trip(
        s in "[0-9eE+.\\-]{1,10}",
        mantissa in 0u64..100_000,
        exp in 0i64..700,
    ) {
        let exponent = format!("{mantissa}e{}", exp - 350);
        for text in [s.as_str(), exponent.as_str()] {
            if let Ok(v) = json::parse(text) {
                let n = v.as_f64().expect("a number");
                prop_assert!(n.is_finite(), "{} -> {}", text, n);
                prop_assert_eq!(json::parse(&json::write(&v)), Ok(v), "{}", text);
            }
        }
    }

    /// Any value the writer renders parses back to itself.
    #[test]
    fn write_then_parse_round_trips(seed in 0u64..u64::MAX) {
        let value = Gen(seed).value(4);
        let text = json::write(&value);
        prop_assert_eq!(json::parse(&text), Ok(value), "{}", text);
    }
}
