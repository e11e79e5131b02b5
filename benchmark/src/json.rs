//! A JSON reader for `BENCHMARK.json` and result records (the workspace
//! has no serde). Values parse into [`whale_sim::JsonValue`], the type
//! the repo already renders reports with.

use whale_sim::JsonValue;

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing input at byte {}", p.i));
    }
    Ok(v)
}

/// Field `key` of an object value.
pub fn get<'a>(v: &'a JsonValue, key: &str) -> Option<&'a JsonValue> {
    match v {
        JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A numeric value of any JSON number flavour.
pub fn as_f64(v: &JsonValue) -> Option<f64> {
    match v {
        JsonValue::UInt(n) => Some(*n as f64),
        JsonValue::Int(n) => Some(*n as f64),
        JsonValue::Float(f) => Some(*f),
        _ => None,
    }
}

pub fn as_str(v: &JsonValue) -> Option<&str> {
    match v {
        JsonValue::Str(s) => Some(s),
        _ => None,
    }
}

pub fn as_array(v: &JsonValue) -> Option<&[JsonValue]> {
    match v {
        JsonValue::Array(a) => Some(a),
        _ => None,
    }
}

/// Nesting bound: input comes from files a user names, so recursion
/// depth must not be theirs to choose.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let ok = self.s[self.i..].starts_with(lit.as_bytes());
        if ok {
            self.i += lit.len();
        }
        ok
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.value_at(0)
    }

    fn value_at(&mut self, depth: usize) -> Result<JsonValue, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        self.ws();
        match self.s.get(self.i) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.eat("}") {
                    return Ok(JsonValue::Object(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    if !self.eat(":") {
                        return Err(format!("expected ':' at byte {}", self.i));
                    }
                    fields.push((key, self.value_at(depth + 1)?));
                    self.ws();
                    if self.eat("}") {
                        return Ok(JsonValue::Object(fields));
                    }
                    if !self.eat(",") {
                        return Err(format!("expected ',' or '}}' at byte {}", self.i));
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.eat("]") {
                    return Ok(JsonValue::Array(items));
                }
                loop {
                    items.push(self.value_at(depth + 1)?);
                    self.ws();
                    if self.eat("]") {
                        return Ok(JsonValue::Array(items));
                    }
                    if !self.eat(",") {
                        return Err(format!("expected ',' or ']' at byte {}", self.i));
                    }
                }
            }
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(_) if self.eat("true") => Ok(JsonValue::Bool(true)),
            Some(_) if self.eat("false") => Ok(JsonValue::Bool(false)),
            Some(_) if self.eat("null") => Ok(JsonValue::Null),
            Some(_) => self.number(),
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii subset");
        if let Ok(n) = text.parse::<u64>() {
            Ok(JsonValue::UInt(n))
        } else if let Ok(n) = text.parse::<i64>() {
            Ok(JsonValue::Int(n))
        } else {
            text.parse::<f64>()
                .map(JsonValue::Float)
                .map_err(|_| format!("bad number {text:?} at byte {start}"))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected string at byte {}", self.i));
        }
        let mut out = Vec::new();
        loop {
            let c = *self.s.get(self.i).ok_or("unterminated string")?;
            self.i += 1;
            match c {
                b'"' => break,
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        b'"' | b'\\' | b'/' => out.push(e),
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.i += 4;
                            // Surrogate pairs do not occur in the files
                            // this reads; a lone one becomes U+FFFD.
                            let ch = char::from_u32(hex).unwrap_or('\u{fffd}');
                            out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                }
                c => out.push(c),
            }
        }
        String::from_utf8(out).map_err(|_| "string is not UTF-8".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_what_the_renderer_writes() {
        let v = JsonValue::Object(vec![
            ("name".into(), JsonValue::str("a \"quoted\"\nline")),
            ("n".into(), JsonValue::UInt(7)),
            ("neg".into(), JsonValue::Int(-3)),
            ("x".into(), JsonValue::Float(1.25)),
            (
                "list".into(),
                JsonValue::Array(vec![JsonValue::Bool(true), JsonValue::Null]),
            ),
            ("empty".into(), JsonValue::Object(vec![])),
        ]);
        assert_eq!(parse(&v.to_json_string()).unwrap(), v);
        assert_eq!(parse(&v.to_json_pretty()).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "1 2",
            "\"abc",
            "nul",
            "{\"a\":}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
        let deep = "[".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"a": {"b": [1, 2.5, "s"]}, "e": 1e3}"#).unwrap();
        let b = as_array(get(get(&v, "a").unwrap(), "b").unwrap()).unwrap();
        assert_eq!(as_f64(&b[0]), Some(1.0));
        assert_eq!(as_f64(&b[1]), Some(2.5));
        assert_eq!(as_str(&b[2]), Some("s"));
        assert_eq!(as_f64(get(&v, "e").unwrap()), Some(1000.0));
        assert!(get(&v, "missing").is_none());
    }
}
