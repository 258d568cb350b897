//! Tiny hand-rolled JSON helpers (the workspace deliberately has no
//! serde dependency). Only what the exporters need: string escaping
//! and float formatting that always round-trips as valid JSON.

/// Escape `s` for embedding inside a JSON string literal (without the
/// surrounding quotes).
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Format an `f64` as a JSON number (`NaN`/`inf` — which JSON cannot
/// represent — become `0`).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Minimal recursive-descent JSON well-formedness checker. Used by the
/// Perfetto-export smoke tests to validate emitted documents without a
/// parser dependency. Returns the byte offset of the first error.
pub fn validate(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut pos = 0usize;
    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }
    fn value(b: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
        if depth > 128 {
            return Err(format!("nesting too deep at {pos}"));
        }
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => {
                *pos += 1;
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(());
                }
                loop {
                    skip_ws(b, pos);
                    string(b, pos)?;
                    skip_ws(b, pos);
                    if b.get(*pos) != Some(&b':') {
                        return Err(format!("expected ':' at {pos}"));
                    }
                    *pos += 1;
                    value(b, pos, depth + 1)?;
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("expected ',' or '}}' at {pos}")),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(());
                }
                loop {
                    value(b, pos, depth + 1)?;
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("expected ',' or ']' at {pos}")),
                    }
                }
            }
            Some(b'"') => string(b, pos),
            Some(b't') => lit(b, pos, b"true"),
            Some(b'f') => lit(b, pos, b"false"),
            Some(b'n') => lit(b, pos, b"null"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                let start = *pos;
                *pos += 1;
                while *pos < b.len()
                    && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
                {
                    *pos += 1;
                }
                if s_valid_number(&b[start..*pos]) {
                    Ok(())
                } else {
                    Err(format!("bad number at {start}"))
                }
            }
            _ => Err(format!("unexpected token at {pos}")),
        }
    }
    fn s_valid_number(n: &[u8]) -> bool {
        std::str::from_utf8(n)
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .is_some()
    }
    fn lit(b: &[u8], pos: &mut usize, want: &[u8]) -> Result<(), String> {
        if b.len() >= *pos + want.len() && &b[*pos..*pos + want.len()] == want {
            *pos += want.len();
            Ok(())
        } else {
            Err(format!("bad literal at {pos}"))
        }
    }
    fn string(b: &[u8], pos: &mut usize) -> Result<(), String> {
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at {pos}"));
        }
        *pos += 1;
        while let Some(&c) = b.get(*pos) {
            match c {
                b'"' => {
                    *pos += 1;
                    return Ok(());
                }
                b'\\' => match b.get(*pos + 1) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 2,
                    Some(b'u') => {
                        if b.len() < *pos + 6
                            || !b[*pos + 2..*pos + 6].iter().all(u8::is_ascii_hexdigit)
                        {
                            return Err(format!("bad \\u escape at {pos}"));
                        }
                        *pos += 6;
                    }
                    _ => return Err(format!("bad escape at {pos}")),
                },
                0x00..=0x1f => return Err(format!("raw control char at {pos}")),
                _ => *pos += 1,
            }
        }
        Err("unterminated string".to_string())
    }
    value(b, &mut pos, 0)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing data at {pos}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_and_rejects() {
        assert!(validate("{\"a\":[1,2.5,-3e2,true,null,\"x\\n\"]}").is_ok());
        assert!(validate("{}").is_ok());
        assert!(validate("{\"a\":}").is_err());
        assert!(validate("{\"a\":1,}").is_err());
        assert!(validate("[1 2]").is_err());
        assert!(validate("{\"a\":1} extra").is_err());
        assert!(validate("\"unterminated").is_err());
    }

    #[test]
    fn escapes_specials() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }

    #[test]
    fn nonfinite_numbers_stay_valid() {
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(1.5), "1.5");
    }
}
