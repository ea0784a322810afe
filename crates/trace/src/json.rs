//! A small JSON emitter and recursive-descent parser (the workspace
//! depends on no JSON crate). Numbers keep their source token, so `u64`
//! values round-trip exactly (no `f64` detour). Repro files, the figures'
//! `JSON` rows and the scenario codec all read and write through it.

/// A parsed or to-be-emitted JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Number as its literal token (exact round-trip).
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn u64(v: u64) -> Json {
        Json::Num(v.to_string())
    }
    pub fn f64(v: f64) -> Json {
        // JSON has no NaN / infinity token; like serde_json, emit null.
        if !v.is_finite() {
            return Json::Null;
        }
        // Rust's shortest-round-trip Display; force a decimal point so
        // the token reads back as the same f64 unambiguously.
        let s = format!("{v}");
        if s.contains('.') {
            Json::Num(s)
        } else {
            Json::Num(format!("{s}.0"))
        }
    }
    pub fn str(v: &str) -> Json {
        Json::Str(v.to_string())
    }
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    pub fn arr(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(format!("expected array, got {other:?}")),
        }
    }
    pub fn u64_value(&self) -> Result<u64, String> {
        match self {
            Json::Num(tok) => tok.parse().map_err(|e| format!("bad u64 {tok:?}: {e}")),
            other => Err(format!("expected number, got {other:?}")),
        }
    }
    pub fn f64_value(&self) -> Result<f64, String> {
        match self {
            Json::Num(tok) => tok.parse().map_err(|e| format!("bad f64 {tok:?}: {e}")),
            other => Err(format!("expected number, got {other:?}")),
        }
    }
    pub fn get_u64(&self, key: &str) -> Result<u64, String> {
        self.get(key).ok_or(format!("missing {key}"))?.u64_value()
    }
    pub fn get_str(&self, key: &str) -> Result<&str, String> {
        match self.get(key).ok_or(format!("missing {key}"))? {
            Json::Str(s) => Ok(s),
            other => Err(format!("{key}: expected string, got {other:?}")),
        }
    }

    /// Pretty-prints with two-space indentation.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Renders on one line with no whitespace, as `serde_json::to_string`
    /// does (`tests/results_format.rs` holds the figures' rows to the
    /// bytes `serde_json` once wrote).
    pub fn render_line(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, None);
        out
    }

    /// `depth` is the pretty-printer's nesting level; `None` renders
    /// compactly.
    fn render_into(&self, out: &mut String, depth: Option<usize>) {
        let inner = depth.map(|d| d + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(tok) => out.push_str(tok),
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, inner);
                    item.render_into(out, inner);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, inner);
                    render_string(k, out);
                    out.push_str(if depth.is_some() { ": " } else { ":" });
                    v.render_into(out, inner);
                }
                if !fields.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }
}

/// Line break plus indentation when pretty-printing; nothing otherwise.
fn newline(out: &mut String, depth: Option<usize>) {
    if let Some(depth) = depth {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    let Some(&b) = bytes.get(*pos) else {
        return Err("unexpected end of input".to_string());
    };
    match b {
        b'n' => parse_keyword(bytes, pos, "null", Json::Null),
        b't' => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        b'f' => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        b'"' => Ok(Json::Str(parse_string(bytes, pos)?)),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    other => return Err(format!("expected , or ] in array, got {other:?}")),
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected : after key {key:?}"));
                }
                *pos += 1;
                fields.push((key, parse_value(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    other => return Err(format!("expected , or }} in object, got {other:?}")),
                }
            }
        }
        b'-' | b'0'..=b'9' => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *pos += 1;
            }
            let tok = std::str::from_utf8(&bytes[start..*pos])
                .map_err(|_| "invalid utf-8 in number".to_string())?;
            // Validate the token parses as a number at all.
            tok.parse::<f64>()
                .map_err(|e| format!("bad number {tok:?}: {e}"))?;
            Ok(Json::Num(tok.to_string()))
        }
        other => Err(format!("unexpected byte {:?} at {pos:?}", other as char)),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("expected {word:?} at byte {pos:?}"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos:?}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err("unterminated string".to_string());
        };
        *pos += 1;
        match b {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".to_string());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        *pos += 4;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|e| format!("bad \\u escape {hex:?}: {e}"))?;
                        out.push(char::from_u32(code).ok_or("surrogate \\u escape unsupported")?);
                    }
                    other => return Err(format!("unknown escape \\{}", other as char)),
                }
            }
            _ => {
                // Collect the full UTF-8 sequence starting at b.
                let start = *pos - 1;
                let len = utf8_len(b);
                let end = start + len;
                let chunk = bytes
                    .get(start..end)
                    .and_then(|c| std::str::from_utf8(c).ok())
                    .ok_or("invalid utf-8 in string")?;
                out.push_str(chunk);
                *pos = end;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// The name `value` has in `names` (how JSON spells an enum value).
///
/// # Panics
/// Panics if `names` lacks `value`: every variant must have a name.
pub fn name_of<T: PartialEq>(names: &[(&'static str, T)], value: T) -> &'static str {
    let named = names.iter().find(|(_, v)| *v == value);
    named.expect("every variant has a name").0
}

/// The value `name` spells in `names`; `what` words the error.
pub fn from_name<T: Copy>(names: &[(&str, T)], what: &str, name: &str) -> Result<T, String> {
    let named = names.iter().find(|(n, _)| *n == name);
    named
        .map(|&(_, value)| value)
        .ok_or_else(|| format!("unknown {what} {name:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_finite_floats_round_trip_as_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let row = Json::obj(vec![
                ("crash_fraction", Json::f64(v)),
                ("ok", Json::f64(0.5)),
            ]);
            for text in [row.render(), row.render_line()] {
                let back = Json::parse(&text).expect("emitted JSON parses back");
                assert_eq!(back, row, "{text}");
                assert_eq!(back.get("crash_fraction"), Some(&Json::Null));
            }
        }
        assert_eq!(
            Json::obj(vec![("a", Json::f64(2.0)), ("b", Json::Arr(vec![]))]).render_line(),
            r#"{"a":2.0,"b":[]}"#
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("{} extra").is_err());
    }
}
