//! Writing JSON. The value type and the parser are the workspace's own
//! (`reis_bench::artifacts`, which has a parser but no writer); this module
//! adds the constructors, accessors and the two renderings the result files
//! and `BENCHMARK.json` need.

use std::fmt::Write as _;

pub use reis_bench::artifacts::{parse, Json};

/// What the benchmark needs of [`Json`] beyond `get`.
pub trait JsonExt: Sized {
    /// An object from `(key, value)` pairs, in the order given.
    fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    fn str(text: impl Into<String>) -> Json {
        Json::Str(text.into())
    }

    /// The number, if this is one.
    fn as_f64(&self) -> Option<f64>;

    /// The string, if this is one.
    #[cfg(test)]
    fn as_str(&self) -> Option<&str>;

    /// The members, if this is an object.
    #[cfg(test)]
    fn as_object(&self) -> Option<&[(String, Json)]>;

    /// Compact single-line rendering.
    fn to_line(&self) -> String;

    /// Indented multi-line rendering with a trailing newline.
    fn to_pretty(&self) -> String;
}

impl JsonExt for Json {
    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    #[cfg(test)]
    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    #[cfg(test)]
    fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    fn to_line(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out, None, 0);
        out
    }

    fn to_pretty(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out, Some(2), 0);
        out.push('\n');
        out
    }
}

fn write_value(value: &Json, out: &mut String, indent: Option<usize>, depth: usize) {
    let newline = |out: &mut String, depth: usize| {
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * depth));
        }
    };
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => out.push_str(&format_number(*n)),
        Json::Str(s) => write_string(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, depth + 1);
                write_value(item, out, indent, depth + 1);
            }
            if !items.is_empty() {
                newline(out, depth);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (key, member)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(out, depth + 1);
                write_string(out, key);
                out.push_str(if indent.is_some() { ": " } else { ":" });
                write_value(member, out, indent, depth + 1);
            }
            if !pairs.is_empty() {
                newline(out, depth);
            }
            out.push('}');
        }
    }
}

/// Render a number with every digit it was measured with: integers without
/// a fraction, everything else by the shortest form that reads back to the
/// same `f64`. JSON has no NaN or infinity; those render as 0.
pub fn format_number(n: f64) -> String {
    if !n.is_finite() {
        "0".to_string()
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

fn write_string(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
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
    fn written_documents_read_back_identically() {
        let doc = Json::obj([
            ("workload", Json::str("bf_single")),
            ("seed", Json::Num(47.0)),
            ("smoke", Json::Bool(false)),
            ("note", Json::str("tab\t \"quoted\" \\ newline\n é")),
            ("nothing", Json::Null),
            (
                "metrics",
                Json::obj([
                    (
                        "wall_qps",
                        Json::obj([
                            ("value", Json::Num(541.2034871)),
                            ("unit", Json::str("1/s")),
                        ]),
                    ),
                    ("tiny", Json::Num(1.25e-7)),
                    ("negative", Json::Num(-3.5)),
                ]),
            ),
            ("blocks", Json::Arr(vec![Json::Num(1.0), Json::Arr(vec![])])),
            ("empty", Json::Obj(vec![])),
        ]);
        assert_eq!(parse(&doc.to_line()).unwrap(), doc);
        assert_eq!(parse(&doc.to_pretty()).unwrap(), doc);
        assert!(!doc.to_line().contains('\n'));
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(format_number(47.0), "47");
        assert_eq!(format_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(format_number(f64::NAN), "0");
        let parsed = parse("[1e3, -0.5, 12]").unwrap();
        assert_eq!(
            parsed,
            Json::Arr(vec![Json::Num(1000.0), Json::Num(-0.5), Json::Num(12.0)])
        );
    }
}
