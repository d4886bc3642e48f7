//! Minimal hand-rolled JSON: a writer escape helper, a value tree, and a
//! parser covering the subset of RFC 8259 this workspace emits.
//!
//! The build environment is offline (no serde), so every document in the
//! workspace goes through this one codec: the benchmark report in
//! `eecs_bench::report` (which re-exports these types for compatibility),
//! the controller checkpoint in [`crate::checkpoint`], and the records
//! of [`crate::journal`] (sweep manifests, the serve journal and the
//! checkpoint store's record headers). [`Json::write`] prints integral
//! numbers as integers and everything else with `{:?}`, Rust's shortest
//! round-trip formatting, so an `f64` survives serialize → parse
//! bit-for-bit, which the checkpoint's replay guarantees depend on.
//! Decoders read counts, indices and checksums through
//! [`Json::as_u64`], the one exact integer accessor. Parsing is linear
//! in the input and bounded in depth ([`MAX_DEPTH`]).

use std::fmt::Write as _;

/// Appends `s` to `out` with JSON string escaping applied.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving member order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an exact non-negative integer: `Some` only for a
    /// finite integral number in `0..=2^53`, the range where every
    /// integer has exactly one `f64`. Callers narrow further with
    /// `try_from`, so `1e300`, `2^64` or `-1` never wrap or saturate.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && (0.0..=EXACT_INT_LIMIT).contains(n) => {
                Some(*n as u64)
            }
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

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

impl Json {
    /// Serializes this value back to JSON text.
    ///
    /// Numbers that are integral (and representable exactly as `i64`)
    /// print without a fractional part; everything else uses `{:?}`,
    /// Rust's shortest round-trip formatting. Either way
    /// `parse(&v.write()?)` restores every `f64` bit-for-bit — including
    /// `-0.0`, which keeps its sign and its `-0.0` spelling.
    ///
    /// # Errors
    ///
    /// Returns an error on NaN or infinite numbers, which JSON cannot
    /// represent; nothing in this module ever panics on data.
    pub fn write(&self) -> Result<String, String> {
        let mut out = String::new();
        self.write_into(&mut out)?;
        Ok(out)
    }

    /// Appends this value's JSON text to `out`. Same contract as
    /// [`Json::write`].
    ///
    /// # Errors
    ///
    /// Returns an error on NaN or infinite numbers; `out` may then hold a
    /// partial document and should be discarded.
    pub fn write_into(&self, out: &mut String) -> Result<(), String> {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(*n, out)?,
            Json::Str(s) => {
                out.push('"');
                escape_into(out, s);
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out)?;
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(out, key);
                    out.push_str("\":");
                    value.write_into(out)?;
                }
                out.push('}');
            }
        }
        Ok(())
    }
}

/// Largest `f64` below which every integral value is exactly one integer
/// (2^53); above it the `{:?}` spelling is already canonical.
const EXACT_INT_LIMIT: f64 = 9_007_199_254_740_992.0;

fn write_num(n: f64, out: &mut String) -> Result<(), String> {
    if !n.is_finite() {
        return Err(format!("JSON cannot represent non-finite number {n}"));
    }
    // `-0.0` must keep the `{:?}` spelling: printing it as the integer
    // `0` would drop the sign bit on the way back in.
    if n.fract() == 0.0 && n.abs() < EXACT_INT_LIMIT && !(n == 0.0 && n.is_sign_negative()) {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n:?}");
    }
    Ok(())
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so an unbounded depth lets a few kilobytes of `[`
/// overflow a worker thread's 2 MiB stack and abort the process. The
/// deepest document the workspace writes (a sweep merge or a journal
/// record wrapping a report) nests under 10 levels; 128 leaves ample
/// headroom while keeping the recursion far below any thread's stack.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') => self.nested(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E') | Some(b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            out.push(hex);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next delimiter in one go. Both
                    // delimiters are ASCII, so the run ends on a character
                    // boundary, and each byte is looked at once.
                    let end = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    let run = std::str::from_utf8(&self.bytes[self.pos..end])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(run);
                    self.pos = end;
                }
            }
        }
    }

    /// An array or object one level deeper, refused past [`MAX_DEPTH`].
    fn nested(&mut self) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = if self.peek() == Some(b'{') {
            self.object()
        } else {
            self.array()
        };
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a position-annotated message on malformed input, trailing
/// content, or nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_nesting_escapes_and_numbers() {
        let v = parse(r#"{"a": [1, -2.5e3, "x\"y\n", null, true], "b": {}}"#).unwrap();
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].as_num(), Some(1.0));
        assert_eq!(arr[1].as_num(), Some(-2500.0));
        assert_eq!(arr[2].as_str(), Some("x\"y\n"));
        assert_eq!(arr[3], Json::Null);
        assert_eq!(arr[4], Json::Bool(true));
        assert_eq!(v.get("b"), Some(&Json::Obj(Vec::new())));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn parser_bounds_nesting_depth() {
        let arrays = |d: usize| "[".repeat(d) + &"]".repeat(d);
        let objects = |d: usize| "{\"a\":".repeat(d - 1) + "{}" + &"}".repeat(d - 1);
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        // The error points at the first bracket past the limit.
        for (bomb, open_len) in [(arrays(MAX_DEPTH + 1), 1), (objects(MAX_DEPTH + 1), 5)] {
            let err = parse(&bomb).unwrap_err();
            let at = format!("at byte {}", MAX_DEPTH * open_len);
            assert!(
                err.contains("nesting deeper") && err.ends_with(&at),
                "{err}"
            );
        }
    }

    #[test]
    fn as_u64_accepts_only_exact_non_negative_integers() {
        let two_53 = 9_007_199_254_740_992.0;
        for (n, want) in [
            (0.0, Some(0)),
            (-0.0, Some(0)),
            (42.0, Some(42)),
            (two_53, Some(1u64 << 53)),
            (two_53 * 2.0, None),
            (1e300, None),
            (18_446_744_073_709_551_616.0, None),
            (-1.0, None),
            (1.5, None),
            (f64::NAN, None),
            (f64::INFINITY, None),
        ] {
            assert_eq!(Json::Num(n).as_u64(), want, "{n}");
        }
        assert_eq!(Json::Str("7".into()).as_u64(), None);
    }

    #[test]
    fn long_string_members_parse_in_linear_time() {
        let body = "x".repeat(1 << 20);
        // A plain run, an escape, a multi-byte character and the end.
        let doc = format!("{{\"s\": \"{body}\\u00e9é\\n\"}}");
        let started = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        let took = started.elapsed();
        assert_eq!(v.get("s").and_then(Json::as_str), Some(&*(body + "éé\n")));
        assert!(took.as_secs_f64() < 1.0, "1 MiB string took {took:?}");
    }

    #[test]
    fn escape_into_round_trips_through_the_parser() {
        let nasty = "weird \"quoted\"\tname\\path\nwith\u{1}ctrl";
        let mut doc = String::from("\"");
        escape_into(&mut doc, nasty);
        doc.push('"');
        assert_eq!(parse(&doc).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn writer_round_trips_every_shape() {
        let doc = r#"{"a":[1,-2500,"x\"y\n",null,true],"b":{},"c":-0.0,"d":0.125}"#;
        let v = parse(doc).unwrap();
        let text = v.write().unwrap();
        assert_eq!(parse(&text).unwrap(), v);
        // Encode → decode → encode is a fixed point.
        assert_eq!(parse(&text).unwrap().write().unwrap(), text);
    }

    #[test]
    fn writer_keeps_negative_zero_and_subnormals() {
        for v in [-0.0f64, 5e-324, f64::MIN_POSITIVE, -f64::MIN_POSITIVE] {
            let text = Json::Num(v).write().unwrap();
            let back = parse(&text).unwrap().as_num().unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{text}");
        }
    }

    #[test]
    fn writer_prints_integral_values_without_fraction() {
        assert_eq!(Json::Num(42.0).write().unwrap(), "42");
        assert_eq!(Json::Num(-7.0).write().unwrap(), "-7");
        assert_eq!(Json::Num(0.0).write().unwrap(), "0");
        assert_eq!(Json::Num(-0.0).write().unwrap(), "-0.0");
    }

    #[test]
    fn writer_rejects_non_finite_numbers() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(Json::Num(v).write().is_err(), "{v} must be rejected");
            // A nested non-finite number poisons the whole document.
            assert!(Json::Arr(vec![Json::Num(1.0), Json::Num(v)])
                .write()
                .is_err());
        }
    }

    #[test]
    fn f64_debug_format_survives_bit_exactly() {
        for v in [0.1f64, 1.0 / 3.0, 1e-300, 123456789.123456789, -0.0] {
            let text = format!("{v:?}");
            let back = parse(&text).unwrap().as_num().unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{text}");
        }
    }
}
