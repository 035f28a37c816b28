//! A minimal JSON value and writer for the result line and the report.
//!
//! The vendored `serde_json` parses JSON (the tests and `--repeat` read
//! `BENCHMARK.json` with it) but serialises only types that derive the
//! shim's `Serialize`; the result line is assembled by name at run time,
//! so it is written from this small tree instead.

use std::fmt::Write;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Compact, single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            // `{}` on an f64 prints the shortest text that reads back to
            // the same value: every measured digit, nothing rounded.
            // JSON has no NaN or infinity; a metric that is either is a
            // bug worth seeing, and `null` fails the consumer loudly.
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_string(out, s),
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped_and_read_back_unchanged() {
        let nasty = "quote\" back\\slash \n\r\t bell\u{7} nul\u{0} snow\u{2603}";
        let text = Json::obj([("k\"ey", Json::str(nasty))]).render();
        assert!(!text.contains('\n') && !text.contains('\u{7}'), "one clean line: {text}");
        let parsed = serde_json::parse_value(&text).expect("writer output parses");
        let pairs = parsed.as_obj().expect("an object");
        assert_eq!(pairs[0].0, "k\"ey");
        assert_eq!(pairs[0].1.as_str(), Some(nasty));
    }

    #[test]
    fn numbers_keep_every_digit() {
        let x = 1_234.567_890_123_456_7_f64;
        let text = Json::obj([
            ("x", Json::Num(x)),
            ("max", Json::Int(u64::MAX)),
            ("nan", Json::Num(f64::NAN)),
        ])
        .render();
        assert_eq!(text, format!(r#"{{"x": {x}, "max": {}, "nan": null}}"#, u64::MAX));
        let parsed = serde_json::parse_value(&text).unwrap();
        assert_eq!(parsed.as_obj().unwrap()[0].1.as_f64(), Some(x));
    }

    #[test]
    fn nesting_and_booleans() {
        let v = Json::obj([
            ("correct", Json::Bool(true)),
            ("metrics", Json::obj([("a.b", Json::obj([("value", Json::Num(0.5))]))])),
            ("empty", Json::obj::<&str>([])),
        ]);
        assert_eq!(
            v.render(),
            r#"{"correct": true, "metrics": {"a.b": {"value": 0.5}}, "empty": {}}"#
        );
    }
}
