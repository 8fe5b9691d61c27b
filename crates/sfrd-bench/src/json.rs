//! Minimal hand-rolled JSON emission for the machine-readable perf
//! snapshot (`BENCH_fig4.json`). The container vendors no serde, and the
//! bench schema is a dozen fields — a tiny value tree and an escaper are
//! all that is needed.

/// A JSON value tree.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// Unsigned integer (all our counters).
    U64(u64),
    /// Float, rendered with enough precision for wall times.
    F64(f64),
    /// String (escaped on render).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object builder.
    pub fn obj() -> Self {
        Json::Obj(Vec::new())
    }

    /// Add a field to an object (panics on non-objects).
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Self {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("field() on a non-object"),
        }
        self
    }

    /// Render with two-space indentation and a trailing newline — stable
    /// output so the committed snapshot diffs cleanly across PRs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => out.push_str(&n.to_string()),
            Json::F64(x) => {
                if x.is_finite() {
                    // 6 significant decimals: microsecond resolution on
                    // wall times, compact on ratios.
                    let s = format!("{x:.6}");
                    let s = s.trim_end_matches('0').trim_end_matches('.');
                    out.push_str(if s.is_empty() { "0" } else { s });
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}
impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::U64(n)
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::U64(n as u64)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Json::F64(x)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}
impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Self {
        Json::Arr(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structure() {
        let j = Json::obj()
            .field("schema", 1u64)
            .field("name", "fig4")
            .field("ok", true)
            .field("wall_s", 0.123456789f64)
            .field("rows", vec![Json::obj().field("bench", "sw"), Json::Null]);
        let s = j.render();
        assert!(s.contains("\"schema\": 1"));
        assert!(s.contains("\"wall_s\": 0.123457"));
        assert!(s.contains("\"bench\": \"sw\""));
        assert!(s.ends_with("}\n"));
    }

    #[test]
    fn escapes_strings() {
        let j = Json::Str("a\"b\\c\nd".to_string());
        assert_eq!(j.render(), "\"a\\\"b\\\\c\\nd\"\n");
    }

    #[test]
    fn trims_float_zeros() {
        assert_eq!(Json::F64(2.5).render(), "2.5\n");
        assert_eq!(Json::F64(3.0).render(), "3\n");
    }
}
