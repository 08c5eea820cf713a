//! The one JSON writer: a tiny deterministic value tree ([`Json`]) that
//! every machine-readable output in the workspace renders through — the
//! metrics report, both trace exports, and the three analysis reports
//! (`acidrain audit | replay | advise --json`).
//!
//! Rendering rules (stable — golden/CI material):
//! * objects keep insertion order; keys render as `"key": value` (one
//!   space after the colon);
//! * non-empty containers are one-entry-per-line with two-space indent,
//!   empty ones render `{}` / `[]`;
//! * strings are escaped per JSON (`"` `\` control chars);
//! * rates and fractional timestamps render with four decimals.

use std::fmt;

/// A deterministic JSON value: no nulls, objects preserve insertion
/// order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (counts, positions, fingerprints).
    Num(u64),
    /// A signed integer (gauges that may transiently dip below zero).
    Int(i64),
    /// A rate or fractional quantity, rendered with four decimals.
    Fixed(f64),
    /// A string, escaped at render time.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys render in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Shorthand string constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Shorthand number constructor (usize-friendly).
    pub fn num(n: impl Into<u64>) -> Json {
        Json::Num(n.into())
    }

    /// Render the value as pretty-printed JSON with a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = |out: &mut String, depth: usize| (0..depth).for_each(|_| out.push_str("  "));
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&n.to_string()),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Fixed(x) => out.push_str(&format!("{x:.4}")),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&json_escape(s));
                out.push('"');
            }
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, indent + 1);
                    item.write(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Obj(fields) => {
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    pad(out, indent + 1);
                    out.push('"');
                    out.push_str(&json_escape(key));
                    out.push_str("\": ");
                    value.write(out, indent + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

/// Pretty-printed JSON without a trailing newline.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, 0);
        f.write_str(&out)
    }
}

/// Build an object field (keeps call sites terse).
pub fn field(key: &str, value: Json) -> (String, Json) {
    (key.to_string(), value)
}

/// Escape a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_keep_insertion_order_and_layout() {
        let doc = Json::Obj(vec![
            field("schema_version", Json::Num(1)),
            field("kind", Json::str("static_audit")),
            field("apps", Json::Arr(Vec::new())),
        ])
        .render();
        assert!(doc.starts_with("{\n  \"schema_version\": 1,\n  \"kind\": \"static_audit\""));
        assert!(doc.contains("\"apps\": []"));
        assert!(doc.ends_with("}\n"));
    }

    #[test]
    fn rendering_is_deterministic_and_balanced() {
        let value = Json::Obj(vec![
            field("a", Json::num(3u64)),
            field("b", Json::Arr(vec![Json::str("x\\y\n"), Json::Bool(true)])),
            field("c", Json::Obj(Vec::new())),
            field("d", Json::Arr(vec![Json::Int(-2), Json::Fixed(0.25)])),
        ]);
        let a = value.render();
        assert_eq!(a, value.render());
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
        assert_eq!(a.matches('"').count() % 2, 0);
        assert!(a.contains("\"a\": 3"));
        assert!(a.contains("    -2,\n    0.2500\n"));
    }

    #[test]
    fn escaping_covers_control_characters() {
        assert_eq!(json_escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }
}
