//! Offline stand-in for `serde_json` over the in-tree `serde` shim.
//!
//! Implements the entry points the workspace and `benchmark/` use —
//! [`to_vec`], [`from_slice`], [`from_str`], [`to_string_pretty`] — with
//! a real JSON printer and a recursive-descent parser, so the `repro`
//! binary's result dumps are genuine JSON documents and the benchmark
//! harness can read its spec and its runs back.

use serde::{Deserialize, Json, JsonError, Serialize};

pub type Error = JsonError;
pub type Result<T> = std::result::Result<T, Error>;

/// Serialize to compact JSON bytes.
pub fn to_vec<T: Serialize>(value: &T) -> Result<Vec<u8>> {
    let mut out = String::new();
    write_compact(&value.to_json(), &mut out);
    Ok(out.into_bytes())
}

/// Serialize to a human-readable, 2-space-indented JSON string.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_pretty(&value.to_json(), 0, &mut out);
    Ok(out)
}

/// Serialize to a compact JSON string.
pub fn to_string<T: Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_compact(&value.to_json(), &mut out);
    Ok(out)
}

/// Deserialize from JSON bytes.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| JsonError(format!("invalid utf-8 in JSON input: {e}")))?;
    from_str(text)
}

/// Deserialize from a JSON string.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(JsonError(format!(
            "trailing garbage at byte {} of JSON input",
            p.pos
        )));
    }
    T::from_json(&v)
}

// ----------------------------------------------------------------- printing

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_float(f: f64, out: &mut String) {
    if f.is_finite() {
        // `{:?}` prints the shortest representation that round-trips.
        out.push_str(&format!("{f:?}"));
    } else {
        // JSON has no NaN/Infinity; degrade to null like serde_json's
        // default float behavior.
        out.push_str("null");
    }
}

fn write_compact(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(n) => out.push_str(&n.to_string()),
        Json::UInt(n) => out.push_str(&n.to_string()),
        Json::Float(f) => write_float(*f, out),
        Json::Str(s) => write_escaped(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(k, out);
                out.push(':');
                write_compact(val, out);
            }
            out.push('}');
        }
    }
}

fn indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_pretty(v: &Json, depth: usize, out: &mut String) {
    match v {
        Json::Arr(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                indent(depth + 1, out);
                write_pretty(item, depth + 1, out);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            indent(depth, out);
            out.push(']');
        }
        Json::Obj(pairs) if !pairs.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in pairs.iter().enumerate() {
                indent(depth + 1, out);
                write_escaped(k, out);
                out.push_str(": ");
                write_pretty(val, depth + 1, out);
                if i + 1 < pairs.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            indent(depth, out);
            out.push('}');
        }
        other => write_compact(other, out),
    }
}

// ------------------------------------------------------------------ parsing

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError(format!(
                "expected `{}` at byte {} of JSON input",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Json::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
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
                        _ => {
                            return Err(JsonError(format!(
                                "expected `,` or `]` at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.value()?;
                    pairs.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => {
                            return Err(JsonError(format!(
                                "expected `,` or `}}` at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(JsonError(format!(
                "unexpected {:?} at byte {} of JSON input",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| JsonError(format!("invalid utf-8 in string: {e}")))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| JsonError("unterminated escape in JSON string".into()))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Combine UTF-16 surrogate pairs when present.
                            if (0xd800..0xdc00).contains(&cp)
                                && self.bytes[self.pos..].starts_with(b"\\u")
                            {
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if (0xdc00..0xe000).contains(&lo) {
                                    let combined = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                                    out.push(char::from_u32(combined).unwrap_or('\u{fffd}'));
                                } else {
                                    // High surrogate not followed by a low
                                    // surrogate: both escapes are lone and
                                    // unrepresentable as chars.
                                    out.push('\u{fffd}');
                                    out.push(char::from_u32(lo).unwrap_or('\u{fffd}'));
                                }
                            } else {
                                out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            }
                        }
                        other => {
                            return Err(JsonError(format!(
                                "invalid escape `\\{}` in JSON string",
                                other as char
                            )))
                        }
                    }
                }
                _ => return Err(JsonError("unterminated JSON string".into())),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        if self.pos + 4 > self.bytes.len() {
            return Err(JsonError("truncated \\u escape".into()));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| JsonError("invalid \\u escape".into()))?;
        self.pos += 4;
        u32::from_str_radix(hex, 16).map_err(|_| JsonError("invalid \\u escape".into()))
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| JsonError(format!("invalid number `{text}` in JSON input")))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    #[test]
    fn roundtrip_nested() {
        let mut m: BTreeMap<String, Vec<(u64, String)>> = BTreeMap::new();
        m.insert("a\"b".into(), vec![(u64::MAX, "x\ny".into())]);
        m.insert("empty".into(), vec![]);
        let bytes = super::to_vec(&m).unwrap();
        let back: BTreeMap<String, Vec<(u64, String)>> = super::from_slice(&bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn pretty_is_reparseable() {
        let v = vec![(1u32, -2.5f64), (3, 0.0)];
        let text = super::to_string_pretty(&v).unwrap();
        let back: Vec<(u32, f64)> = super::from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn parses_unicode_escapes() {
        let s: String = super::from_str(r#""aé😀b""#).unwrap();
        assert_eq!(s, "aé😀b");
    }

    #[test]
    fn surrogate_pair_and_lone_surrogate() {
        // A valid escaped surrogate pair combines to one astral char.
        let s: String = super::from_str(r#""😀""#).unwrap();
        assert_eq!(s, "😀");
        // High surrogate + non-low-surrogate escape takes the paired-escape
        // branch and must degrade to U+FFFD + the second escape, not panic.
        let s: String = super::from_str(r#""\ud800\u0041""#).unwrap();
        assert_eq!(s, "\u{fffd}A");
        // High surrogate followed by a literal char.
        let s: String = super::from_str(r#""\ud800x""#).unwrap();
        assert_eq!(s, "\u{fffd}x");
    }

    #[test]
    fn out_of_range_int_is_error_not_wraparound() {
        assert!(super::from_str::<u64>("-1").is_err());
        assert!(super::from_str::<u8>("300").is_err());
        assert!(super::from_str::<i8>("-200").is_err());
        assert_eq!(super::from_str::<u8>("255").unwrap(), 255);
    }

    #[test]
    fn trailing_comma_newtype_derives_transparently() {
        #[derive(serde::Serialize, serde::Deserialize, PartialEq, Debug)]
        struct Nt(u64);
        let text = super::to_string(&Nt(7)).unwrap();
        assert_eq!(text, "7");
        assert_eq!(super::from_str::<Nt>("7").unwrap(), Nt(7));
    }
}
