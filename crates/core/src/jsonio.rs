//! A minimal JSON value type, reader, and writers for durable state.
//!
//! The vendored `serde` is a marker-only stub (ROADMAP: "nothing
//! serializes yet"), so everything that persists is built as a [`Json`]
//! value and printed here: the control plane's [`crate::snapshot`]
//! files through the compact [`write()`], the `BENCH_*.json` artifacts
//! through [`write_pretty`]. The hand-rolled recursive-descent
//! [`parse`]r reads back exactly the JSON those writers emit: objects,
//! arrays, strings (no escapes beyond `\"`, `\\`, `\n`, `\t`),
//! numbers, booleans, and `null`.
//!
//! The CI bench-regression gate (`check_bench`) reads the
//! `BENCH_*.json` baselines through it too.
//!
//! ## Exactness
//!
//! Both writers emit finite `f64`s with Rust's shortest-round-trip
//! `Display`, and [`parse`] recovers them with `str::parse::<f64>()`
//! — so a finite float survives a write → parse cycle **bit for
//! bit**. Two deliberate gaps, handled by the schema layer rather
//! than here:
//!
//! * Non-finite floats have no JSON literal. The writers render them
//!   as `null`, and [`parse`] rejects numbers that overflow to
//!   infinity; callers that must round-trip `INFINITY` (e.g. an
//!   unset QoS degradation limit) encode a string sentinel instead.
//! * `u64` values above 2^53 (fingerprints are full 64-bit hashes) do
//!   not fit in [`Json::Num`]'s `f64` losslessly. Snapshots store
//!   them as fixed-width hex strings ([`Json::hex_u64`] /
//!   [`Json::as_hex_u64`]).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (f64 precision suffices for the bench artifacts).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object with `members` in the given order.
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// An array of scalar `items`, each converted with [`Into<Json>`].
    pub fn arr<T: Copy + Into<Json>>(items: &[T]) -> Json {
        Json::Arr(items.iter().map(|&x| x.into()).collect())
    }

    /// Member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Encode a full-width `u64` (fingerprints, warm keys) as a
    /// fixed-width hex string — `Json::Num` is an `f64` and would
    /// silently round anything above 2^53.
    pub fn hex_u64(value: u64) -> Json {
        Json::Str(format!("{value:016x}"))
    }

    /// Decode a [`Json::hex_u64`]-encoded value.
    pub fn as_hex_u64(&self) -> Option<u64> {
        match self {
            Json::Str(s) => u64::from_str_radix(s, 16).ok(),
            _ => None,
        }
    }

    /// Every scalar leaf under this value, keyed by its path
    /// (`algorithms[0].serial_ms`-style). Arrays index, objects dot.
    pub fn leaves(&self) -> BTreeMap<String, Json> {
        let mut out = BTreeMap::new();
        self.collect_leaves(String::new(), &mut out);
        out
    }

    fn collect_leaves(&self, path: String, out: &mut BTreeMap<String, Json>) {
        match self {
            Json::Obj(members) => {
                for (k, v) in members {
                    let sub = if path.is_empty() {
                        k.clone()
                    } else {
                        format!("{path}.{k}")
                    };
                    v.collect_leaves(sub, out);
                }
            }
            Json::Arr(items) => {
                for (i, v) in items.iter().enumerate() {
                    v.collect_leaves(format!("{path}[{i}]"), out);
                }
            }
            leaf => {
                out.insert(path, leaf.clone());
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(x) => write!(f, "{x}"),
            Json::Str(s) => write!(f, "{s:?}"),
            Json::Arr(items) => write!(f, "[{} items]", items.len()),
            Json::Obj(members) => write!(f, "{{{} members}}", members.len()),
        }
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

/// Counts are exact as `f64` up to 2^53; full-width hashes go through
/// [`Json::hex_u64`] instead, and debug builds reject anything larger.
impl From<u64> for Json {
    fn from(n: u64) -> Json {
        debug_assert!(n <= 1 << 53, "{n} is not exact as f64; use Json::hex_u64");
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::from(n as u64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

/// Serialize a [`Json`] value to a compact document the [`parse`]r
/// round-trips exactly: finite floats via shortest-round-trip
/// `Display` (integers without a trailing `.0`), strings with only
/// the four escapes the parser understands, non-finite floats as
/// `null` (see the module docs for the sentinel story).
pub fn write(value: &Json) -> String {
    let mut out = String::new();
    write_value(value, &mut out);
    out
}

/// Serialize a [`Json`] value as an indented, diff-friendly document
/// (the layout of the committed `BENCH_*.json` baselines), ending in a
/// newline. Objects print one member per line with a two-space
/// indent, arrays of scalars print inline (`[0, 2, 1]`), any other
/// non-empty array prints one item per line. Scalars are spelled
/// exactly as [`write()`] spells them, so [`parse`] inverts this too.
pub fn write_pretty(value: &Json) -> String {
    let mut out = String::new();
    write_pretty_value(value, 0, &mut out);
    out.push('\n');
    out
}

fn write_pretty_value(value: &Json, depth: usize, out: &mut String) {
    let (open, close, items): (char, char, Vec<(Option<&str>, &Json)>) = match value {
        Json::Obj(members) if !members.is_empty() => (
            '{',
            '}',
            members.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
        ),
        Json::Arr(items) if !items.is_empty() => {
            ('[', ']', items.iter().map(|v| (None, v)).collect())
        }
        _ => return write_value(value, out),
    };
    let multiline = open == '{'
        || items
            .iter()
            .any(|(_, v)| matches!(v, Json::Arr(_) | Json::Obj(_)));
    out.push(open);
    for (i, (key, item)) in items.into_iter().enumerate() {
        if multiline {
            out.push_str(if i > 0 { ",\n" } else { "\n" });
            out.push_str(&"  ".repeat(depth + 1));
        } else if i > 0 {
            out.push_str(", ");
        }
        if let Some(key) = key {
            write_string(key, out);
            out.push_str(": ");
        }
        write_pretty_value(item, depth + 1, out);
    }
    if multiline {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
}

/// Format one `f64` exactly as [`write()`] and [`write_pretty`] would
/// inside a document: shortest-round-trip digits for finite values,
/// `null` for NaN and the infinities. Use it where a human-readable
/// label must show the same digits as the artifact (e.g. the `δ=`
/// labels of the enumeration report) instead of a bare `{}`
/// placeholder.
pub fn fmt_f64(x: f64) -> String {
    let mut out = String::new();
    write_num(x, &mut out);
    out
}

fn write_value(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(x) => write_num(*x, out),
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (k, v)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(v, out);
            }
            out.push('}');
        }
    }
}

fn write_num(x: f64, out: &mut String) {
    use std::fmt::Write as _;
    if x.is_finite() {
        // Shortest round-trip: `{}` for f64 guarantees
        // `out.parse::<f64>() == x` bit for bit, and prints whole
        // values without a decimal point ("3").
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Nesting ceiling for the recursive-descent parser. Snapshot and
/// bench documents nest a handful of levels; anything deeper is a
/// malformed or adversarial input, and rejecting it with an error
/// beats overflowing the stack.
const MAX_DEPTH: usize = 512;

/// Parse a JSON document.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {} (found {:?})",
            b as char,
            *pos,
            bytes.get(*pos).map(|&c| c as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    // A literal that overflows to ±infinity is rejected: no writer
    // emits one (they print non-finite values as `null`), so accepting
    // it would break parse → write identity.
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|x| x.is_finite())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid or out-of-range number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    // Accumulate raw bytes and validate once at the closing quote:
    // pushing each byte as a `char` would re-encode bytes >= 0x80 and
    // mangle multi-byte UTF-8 sequences.
    let mut out: Vec<u8> = Vec::new();
    while *pos < bytes.len() {
        match bytes[*pos] {
            b'"' => {
                *pos += 1;
                return String::from_utf8(out)
                    .map_err(|e| format!("string is not valid UTF-8: {e}"));
            }
            b'\\' => {
                *pos += 1;
                let escaped = match bytes.get(*pos) {
                    Some(b'"') => b'"',
                    Some(b'\\') => b'\\',
                    Some(b'n') => b'\n',
                    Some(b't') => b'\t',
                    other => {
                        return Err(format!("unsupported escape {other:?} at byte {pos}"));
                    }
                };
                out.push(escaped);
                *pos += 1;
            }
            b => {
                out.push(b);
                *pos += 1;
            }
        }
    }
    Err("unterminated string".to_string())
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => return Err(format!("expected ',' or ']' (found {other:?})")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth + 1)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            other => return Err(format!("expected ',' or '}}' (found {other:?})")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not exact as f64")]
    fn counts_above_2_pow_53_are_rejected() {
        let _ = Json::from((1u64 << 53) + 1);
    }

    #[test]
    fn parses_the_bench_artifact_shape() {
        let doc = r#"{
  "experiment": "enumeration",
  "threads": 1,
  "algorithms": [
    { "name": "greedy", "serial_ms": 12.5, "identical": true },
    { "name": "exhaustive", "serial_ms": 80.25, "identical": true }
  ],
  "coarse_to_fine": { "meets_5x": true, "calls": 4040 }
}"#;
        let v = parse(doc).unwrap();
        assert_eq!(
            v.get("experiment"),
            Some(&Json::Str("enumeration".to_string()))
        );
        assert_eq!(v.get("threads").and_then(Json::as_f64), Some(1.0));
        let leaves = v.leaves();
        assert_eq!(
            leaves.get("algorithms[1].serial_ms"),
            Some(&Json::Num(80.25))
        );
        assert_eq!(
            leaves.get("coarse_to_fine.meets_5x"),
            Some(&Json::Bool(true))
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{\"a\": 1} junk").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn round_trips_empty_containers_and_null() {
        let v = parse("{\"a\": [], \"b\": {}, \"c\": null}").unwrap();
        assert_eq!(v.get("a"), Some(&Json::Arr(vec![])));
        assert_eq!(v.get("b"), Some(&Json::Obj(vec![])));
        assert_eq!(v.get("c"), Some(&Json::Null));
        // Null is a leaf.
        assert_eq!(v.leaves().get("c"), Some(&Json::Null));
    }

    #[test]
    fn negative_and_scientific_numbers() {
        let v = parse("[-1.5, 2e3, 0.000001]").unwrap();
        let leaves = v.leaves();
        assert_eq!(leaves.get("[0]"), Some(&Json::Num(-1.5)));
        assert_eq!(leaves.get("[1]"), Some(&Json::Num(2000.0)));
    }

    #[test]
    fn write_parse_round_trips_structures() {
        let doc = Json::Obj(vec![
            ("null".into(), Json::Null),
            ("flag".into(), Json::Bool(true)),
            ("n".into(), Json::Num(-12.75)),
            (
                "s".into(),
                Json::Str("line\nbreak\ttab \"quoted\" back\\slash".into()),
            ),
            (
                "arr".into(),
                Json::Arr(vec![Json::Num(1.0), Json::Obj(vec![]), Json::Arr(vec![])]),
            ),
        ]);
        assert_eq!(parse(&write(&doc)).unwrap(), doc);
    }

    #[test]
    fn write_parse_round_trips_awkward_floats_bit_for_bit() {
        let values = [
            0.1_f64,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            -f64::MAX,
            -0.0,
            1e-300,
            123_456_789.123_456_78,
            2f64.powi(60),
            // Subnormals: the smallest positive f64 and the largest
            // subnormal (all-ones mantissa, zero exponent).
            f64::from_bits(1),
            f64::from_bits(0x000F_FFFF_FFFF_FFFF),
            -f64::from_bits(1),
        ];
        for &x in &values {
            let doc = Json::Arr(vec![Json::Num(x)]);
            let back = parse(&write(&doc)).unwrap();
            let y = back.as_arr().unwrap()[0].as_f64().unwrap();
            assert_eq!(x.to_bits(), y.to_bits(), "{x:?} did not round-trip");
            // fmt_f64 must agree with the in-document spelling.
            assert_eq!(write(&Json::Num(x)), fmt_f64(x));
        }
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn negative_zero_keeps_its_sign_bit() {
        let back = parse(&write(&Json::Num(-0.0))).unwrap();
        assert_eq!(back.as_f64().unwrap().to_bits(), (-0.0_f64).to_bits());
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        let depth = 100_000;
        let mut doc = String::new();
        doc.push_str(&"[".repeat(depth));
        doc.push('1');
        doc.push_str(&"]".repeat(depth));
        let err = parse(&doc).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // A fat but legal document still parses.
        let legal = format!("{}1{}", "[".repeat(64), "]".repeat(64));
        assert!(parse(&legal).is_ok());
    }

    #[test]
    fn multi_byte_utf8_strings_round_trip() {
        for s in [
            "héllo",
            "δ=0.05",
            "日本語",
            "emoji 🦀 crab",
            "mixed π≈3.14159",
        ] {
            let doc = Json::Obj(vec![(s.to_string(), Json::Str(s.to_string()))]);
            let back = parse(&write(&doc)).unwrap();
            assert_eq!(back.get(s).and_then(Json::as_str), Some(s), "{s}");
        }
        // Raw multi-byte bytes inside an incoming document (not
        // produced by `write`) must decode, not be mangled byte-wise.
        let incoming = "{\"label\": \"δ grid\"}";
        let v = parse(incoming).unwrap();
        assert_eq!(v.get("label").and_then(Json::as_str), Some("δ grid"));
    }

    #[test]
    fn overflowing_numbers_are_rejected_and_underflow_is_kept() {
        for doc in ["[1e999]", "[-1e999]", "[1e999, -1e999]", "1e309"] {
            assert!(parse(doc).is_err(), "{doc} must not parse to infinity");
        }
        assert_eq!(parse("1e-999"), Ok(Json::Num(0.0)));
    }

    #[test]
    fn write_pretty_parse_round_trips_structures() {
        let doc = Json::obj(vec![
            ("empty_obj", Json::Obj(vec![])),
            ("empty_arr", Json::Arr(vec![])),
            (
                "rows",
                Json::Arr(vec![
                    Json::obj(vec![("a", 1u64.into()), ("b", Json::arr(&[0.5, -2.0]))]),
                    Json::obj(vec![("nested", Json::obj(vec![("c", Json::Null)]))]),
                ]),
            ),
            ("inline", Json::arr(&[0u64, 2, 1])),
            ("null", Json::Null),
            ("flag", true.into()),
            ("s", "say \"hi\", back\\slash\nnewline".into()),
        ]);
        let text = write_pretty(&doc);
        assert_eq!(parse(&text), Ok(doc));
        assert!(text.contains("\n  \"inline\": [0, 2, 1],\n"), "{text}");
        assert!(text.contains("\n  \"empty_obj\": {},\n"), "{text}");
        assert!(
            text.contains("\n  \"rows\": [\n    {\n      \"a\": 1,\n"),
            "{text}"
        );
        assert!(text.ends_with("\n}\n"), "{text}");
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        let doc = Json::Arr(vec![Json::Num(f64::INFINITY), Json::Num(f64::NAN)]);
        assert_eq!(write(&doc), "[null,null]");
    }

    #[test]
    fn hex_u64_round_trips_full_width_values() {
        for v in [
            0u64,
            1,
            u64::MAX,
            0xdead_beef_cafe_f00d,
            1 << 53,
            (1 << 53) + 1,
        ] {
            let j = Json::hex_u64(v);
            assert_eq!(j.as_hex_u64(), Some(v));
            let back = parse(&write(&j)).unwrap();
            assert_eq!(back.as_hex_u64(), Some(v));
        }
    }
}
