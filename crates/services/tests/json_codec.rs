//! Differential tests for the workspace's JSON encoder.
//!
//! `serde_json::to_string`/`to_vec` write through `Serialize::write_json`
//! into one buffer, with numbers formatted in place by a shortest
//! round-trip float kernel. Every byte must equal what the tree encoder
//! they replaced produced: convert to a `Value` (a deep copy for a
//! `Value`), then render numbers with `format!`. That encoder survives
//! here only, as the [`oracle`].

use std::collections::BTreeMap;

use proptest::prelude::*;
use serde::Serialize;
use serde_json::{Map, Number, Value};

/// The clone-then-write encoder, as it was before the streaming writer.
mod oracle {
    use serde::Serialize;
    use serde_json::{Number, Value};

    pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
        let tree = value.to_value();
        let mut out = String::new();
        write(&mut out, &tree);
        out
    }

    pub fn float(v: f64) -> String {
        if !v.is_finite() {
            return "null".to_owned();
        }
        let text = format!("{v}");
        if text.contains(['.', 'e', 'E']) {
            text
        } else {
            text + ".0"
        }
    }

    fn number(out: &mut String, n: &Number) {
        if let Some(v) = n.as_u64() {
            out.push_str(&v.to_string());
        } else if let Some(v) = n.as_i64() {
            out.push_str(&v.to_string());
        } else {
            out.push_str(&float(n.as_f64().unwrap_or(f64::NAN)));
        }
    }

    fn escaped(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{08}' => out.push_str("\\b"),
                '\u{0c}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn write(out: &mut String, value: &Value) {
        match value {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => number(out, n),
            Value::String(s) => escaped(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write(out, item);
                }
                out.push(']');
            }
            Value::Object(map) => {
                out.push('{');
                for (i, (key, item)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escaped(out, key);
                    out.push(':');
                    write(out, item);
                }
                out.push('}');
            }
        }
    }
}

/// Floats worth pinning: signed zero, the subnormal floor, the switch
/// points of other formatters' exponent forms, the extremes, integral
/// floats, and an exact tie between two shortest candidates.
const FLOAT_LANDMARKS: &[f64] = &[
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    1e-7,
    1e-5,
    0.1,
    0.3,
    1e15,
    1e16,
    1e17,
    1e21,
    1e22,
    1e23,
    f64::MAX,
    f64::MIN,
    f64::MIN_POSITIVE,
    f64::EPSILON,
    1.0,
    -1.0,
    3.0,
    -42.0,
    123_456_789.0,
    9_007_199_254_740_992.0,
    1_125_899_906_842_624.0 + 0.25,
    1_125_899_906_842_624.0 + 0.75,
    2.0 / 3.0,
];

const INT_LANDMARKS: &[i64] = &[0, 1, -1, 9, 10, -10, 99, 100, i64::MIN, i64::MAX, 4_294_967_296];

/// Characters that exercise every escape branch and multi-byte UTF-8.
const CHARS: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{00}', '\u{01}', '\u{08}', '\u{0b}',
    '\u{0c}', '\u{1f}', '\u{7f}', 'é', 'ß', '中', '😀', '\u{2028}', '\u{fffd}',
];

/// Random `Value` trees up to a depth.
struct Trees {
    depth: u32,
}

fn random_float(rng: &mut TestRng) -> f64 {
    match rng.below(4) {
        0 => FLOAT_LANDMARKS[rng.below(FLOAT_LANDMARKS.len())],
        1 => (rng.below(2_000_001) as f64 - 1_000_000.0) * 0.5,
        2 => (rng.next_f64() - 0.5) * 10f64.powi(rng.below(40) as i32 - 20),
        _ => f64::from_bits(rng.next_u64()),
    }
}

fn random_string(rng: &mut TestRng) -> String {
    (0..rng.below(12)).map(|_| CHARS[rng.below(CHARS.len())]).collect()
}

fn random_tree(rng: &mut TestRng, depth: u32) -> Value {
    let kinds = if depth == 0 { 6 } else { 8 };
    match rng.below(kinds) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 1),
        2 => Value::from(INT_LANDMARKS[rng.below(INT_LANDMARKS.len())]),
        3 => match rng.below(3) {
            0 => Value::from(u64::MAX - rng.below(3) as u64),
            1 => Value::from(rng.next_u64()),
            _ => Value::from(rng.next_u64() as i64),
        },
        // Non-finite floats become `Value::Null`, as they always did.
        4 => Value::from(random_float(rng)),
        5 => Value::String(random_string(rng)),
        6 => Value::Array((0..rng.below(6)).map(|_| random_tree(rng, depth - 1)).collect()),
        _ => Value::Object(
            (0..rng.below(6)).map(|_| (random_string(rng), random_tree(rng, depth - 1))).collect(),
        ),
    }
}

impl Strategy for Trees {
    type Value = Value;

    fn generate(&self, rng: &mut TestRng) -> Value {
        random_tree(rng, self.depth)
    }
}

proptest! {
    #[test]
    fn value_trees_encode_as_the_tree_encoder_did(tree in Trees { depth: 4 }) {
        let expected = oracle::to_string(&tree);
        prop_assert_eq!(serde_json::to_string(&tree).unwrap(), expected.clone());
        prop_assert_eq!(serde_json::to_vec(&tree).unwrap(), expected.clone().into_bytes());
        // `Display` and the serde facade share the writer.
        prop_assert_eq!(tree.to_string(), expected.clone());
        // Through references, boxes and options too.
        prop_assert_eq!(serde_json::to_string(&&tree).unwrap(), expected.clone());
        prop_assert_eq!(serde_json::to_string(&Box::new(tree.clone())).unwrap(), expected.clone());
        prop_assert_eq!(serde_json::to_string(&Some(&tree)).unwrap(), expected);
    }

    #[test]
    fn typed_containers_encode_as_their_trees(
        floats in prop::collection::vec(-1e6f64..1e6, 0..40),
        ints in prop::collection::vec(i64::MIN..i64::MAX, 0..20),
        words in prop::collection::vec("[a-z\"\\\\ é]{0,8}", 0..8),
    ) {
        let halves: Vec<f64> = floats.iter().map(|v| v.trunc() / 2.0).collect();
        prop_assert_eq!(serde_json::to_string(&floats).unwrap(), oracle::to_string(&floats));
        prop_assert_eq!(serde_json::to_string(&halves).unwrap(), oracle::to_string(&halves));
        prop_assert_eq!(serde_json::to_string(&floats[..]).unwrap(), oracle::to_string(&floats[..]));
        prop_assert_eq!(serde_json::to_string(&ints).unwrap(), oracle::to_string(&ints));
        prop_assert_eq!(serde_json::to_string(&words).unwrap(), oracle::to_string(&words));
        let narrow: Vec<f32> = floats.iter().map(|&v| v as f32).collect();
        prop_assert_eq!(serde_json::to_string(&narrow).unwrap(), oracle::to_string(&narrow));
        let maybe: Vec<Option<i64>> =
            ints.iter().map(|&v| if v % 3 == 0 { None } else { Some(v) }).collect();
        prop_assert_eq!(serde_json::to_string(&maybe).unwrap(), oracle::to_string(&maybe));
        // Types without their own writer take the tree path and agree.
        let map: BTreeMap<String, Vec<f64>> =
            words.iter().map(|w| (w.clone(), floats.clone())).collect();
        prop_assert_eq!(serde_json::to_string(&map).unwrap(), oracle::to_string(&map));
        let pair = (words.clone(), ints.first().copied());
        prop_assert_eq!(serde_json::to_string(&pair).unwrap(), oracle::to_string(&pair));
    }
}

#[test]
fn scalars_and_fixed_shapes_encode_as_their_trees() {
    fn same<T: Serialize + ?Sized>(value: &T) {
        assert_eq!(serde_json::to_string(value).unwrap(), oracle::to_string(value));
    }
    same(&true);
    same(&false);
    same("quote \" backslash \\ bell \u{07} nul \u{0} é 😀");
    same(&String::from("tab\tnewline\n"));
    for &v in INT_LANDMARKS {
        same(&v);
        same(&(v as i32));
        same(&(v as u64));
        same(&(v as u8));
        same(&(v as isize));
        same(&(v as usize));
    }
    same(&u64::MAX);
    same(&[1.5f64, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0]);
    same(&[0u8; 0]);
    same(&Option::<f64>::None);
    same(&Some(f64::NAN));
    same(&Number::from(7u8));
    same(&Number::from(-7i8));
    same(&Number::from_f64(2.0).unwrap());
    same(&Value::Object(Map::new()));
    same(&vec![Value::Array(vec![]), Value::Object(Map::new()), Value::Null]);
}

/// The float path against `format!("{v}")`: landmarks, every power of two
/// and of ten in range with both neighbours, the tie class `m / 4` for odd
/// `m` in `[2^52, 2^53)` (ties between two shortest candidates break
/// upwards, like `core::fmt`), and seeded random bit patterns: 10^7 in an
/// optimised build, fewer in a debug one.
#[test]
fn floats_render_exactly_as_display_does() {
    let random = if cfg!(debug_assertions) { 200_000 } else { 10_000_000 };
    let mut rng = TestRng::from_name("floats_render_exactly_as_display_does");
    let mut corpus: Vec<f64> = FLOAT_LANDMARKS.to_vec();
    for bits in 0..2046u64 {
        // Normal powers of two, then the subnormal ones.
        corpus.push(f64::from_bits((bits + 1) << 52));
        if bits < 52 {
            corpus.push(f64::from_bits(1 << bits));
        }
    }
    for exp in -323..=308 {
        corpus.push(format!("1e{exp}").parse().unwrap());
    }
    for _ in 0..100_000 {
        let m = (1u64 << 52) | rng.next_u64() & ((1 << 52) - 1) | 1;
        corpus.push(m as f64 / 4.0);
    }
    let with_neighbours: Vec<f64> = corpus
        .iter()
        .flat_map(|v| {
            let bits = v.to_bits();
            [*v, f64::from_bits(bits.wrapping_add(1)), f64::from_bits(bits.wrapping_sub(1))]
        })
        .collect();

    let mut out = String::new();
    let mut check = |v: f64| {
        for v in [v, -v] {
            out.clear();
            v.write_json(&mut out);
            assert_eq!(out, oracle::float(v), "bits {:#018x}", v.to_bits());
        }
    };
    for &v in &with_neighbours {
        check(v);
    }
    for _ in 0..random {
        check(f64::from_bits(rng.next_u64()));
    }
}
