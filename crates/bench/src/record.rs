//! Flat benchmark records, and the one JSON emitter and one table printer
//! every benchmark family shares.
//!
//! A [`Record`] is an ordered list of named fields: one grid point (or one
//! fault-scenario row), or a document's header. Field order is output
//! order, so a family fixes its JSON schema by the order it builds its
//! records in. The JSON is hand-rolled because the workspace deliberately
//! has no external dependencies.

use std::fmt::Write as _;

/// One field value of a [`Record`].
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// An unsigned integer.
    Int(u64),
    /// A boolean.
    Bool(bool),
    /// A string, escaped per RFC 8259 on output.
    Str(String),
    /// A float printed with a fixed number of decimals.
    Fixed(f64, usize),
    /// JSON `null`: a measurement this run did not take.
    Null,
    /// A nested record, printed inline on one line.
    Obj(Record),
}

impl From<u64> for Value {
    fn from(x: u64) -> Self {
        Value::Int(x)
    }
}

impl From<usize> for Value {
    fn from(x: usize) -> Self {
        Value::Int(x as u64)
    }
}

impl From<bool> for Value {
    fn from(x: bool) -> Self {
        Value::Bool(x)
    }
}

impl From<&str> for Value {
    fn from(x: &str) -> Self {
        Value::Str(x.to_string())
    }
}

impl From<Record> for Value {
    fn from(x: Record) -> Self {
        Value::Obj(x)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(x: Option<T>) -> Self {
        x.map_or(Value::Null, Into::into)
    }
}

/// An ordered list of named fields. The accessors panic when a field is
/// missing or has another type: a family reading a field it never wrote is
/// a bug in the harness, not a measurement.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Record(Vec<(&'static str, Value)>);

impl Record {
    /// An empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a field, builder style.
    pub fn with(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        self.push(key, value);
        self
    }

    /// Appends a field.
    pub fn push(&mut self, key: &'static str, value: impl Into<Value>) {
        self.0.push((key, value.into()));
    }

    /// Appends every field of `other`, builder style.
    pub fn append(mut self, other: Record) -> Self {
        self.0.extend(other.0);
        self
    }

    /// Replaces the value of the existing field `key`, keeping its position.
    pub fn set(&mut self, key: &str, value: impl Into<Value>) {
        let slot = self
            .0
            .iter_mut()
            .find(|(k, _)| *k == key)
            .unwrap_or_else(|| panic!("no field {key:?} to set"));
        slot.1 = value.into();
    }

    /// The value of field `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// The integer field `key`.
    pub fn u64(&self, key: &str) -> u64 {
        self.opt_u64(key)
            .unwrap_or_else(|| panic!("field {key:?} is not an integer: {:?}", self.get(key)))
    }

    /// The integer field `key`, or `None` when it is absent or `null`.
    pub fn opt_u64(&self, key: &str) -> Option<u64> {
        match self.get(key) {
            Some(Value::Int(x)) => Some(*x),
            _ => None,
        }
    }

    /// The float field `key` at full precision (the decimals only apply on
    /// output), or `None` when it is absent or `null`.
    pub fn f64(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(Value::Fixed(x, _)) => Some(*x),
            _ => None,
        }
    }

    /// The boolean field `key`.
    pub fn flag(&self, key: &str) -> bool {
        match self.get(key) {
            Some(Value::Bool(x)) => *x,
            other => panic!("field {key:?} is not a boolean: {other:?}"),
        }
    }

    /// The string field `key`.
    pub fn str(&self, key: &str) -> &str {
        self.opt_str(key)
            .unwrap_or_else(|| panic!("field {key:?} is not a string: {:?}", self.get(key)))
    }

    /// The string field `key`, or `None` when it is absent or `null`.
    pub fn opt_str(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Value::Str(x)) => Some(x),
            _ => None,
        }
    }

    /// The nested record `key`, or `None` when it is absent or `null`.
    pub fn rec(&self, key: &str) -> Option<&Record> {
        match self.get(key) {
            Some(Value::Obj(x)) => Some(x),
            _ => None,
        }
    }
}

/// Writes `x` as a JSON string literal, escaping `"`, `\` and the control
/// characters as RFC 8259 requires.
fn write_str(s: &mut String, x: &str) {
    s.push('"');
    for c in x.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(s, "\\u{:04x}", u32::from(c));
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

fn write_value(s: &mut String, v: &Value) {
    match v {
        Value::Int(x) => {
            let _ = write!(s, "{x}");
        }
        Value::Bool(x) => {
            let _ = write!(s, "{x}");
        }
        Value::Str(x) => write_str(s, x),
        Value::Fixed(x, decimals) => {
            let _ = write!(s, "{x:.decimals$}");
        }
        Value::Null => s.push_str("null"),
        Value::Obj(r) => {
            s.push('{');
            for (i, (k, v)) in r.0.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "\"{k}\": ");
                write_value(s, v);
            }
            s.push('}');
        }
    }
}

/// Renders one benchmark document: the `header` fields, then the array
/// `list` with one object per row, every field on its own line.
pub fn to_json(header: &Record, list: &str, rows: &[Record]) -> String {
    let mut s = String::from("{\n");
    for (k, v) in &header.0 {
        let _ = write!(s, "  \"{k}\": ");
        write_value(&mut s, v);
        s.push_str(",\n");
    }
    let _ = writeln!(s, "  \"{list}\": [");
    for (i, row) in rows.iter().enumerate() {
        s.push_str("    {\n");
        for (j, (k, v)) in row.0.iter().enumerate() {
            let _ = write!(s, "      \"{k}\": ");
            write_value(&mut s, v);
            s.push_str(if j + 1 < row.0.len() { ",\n" } else { "\n" });
        }
        s.push_str(if i + 1 < rows.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    s.push_str("  ]\n}\n");
    s
}

/// One column of a terminal table: header, right-aligned width, and how a
/// row renders into it.
pub type Column = (&'static str, usize, fn(&Record) -> String);

/// Renders `rows` as a terminal table, one space between columns.
pub fn to_table(columns: &[Column], rows: &[Record]) -> String {
    let mut s = String::new();
    let mut line = |cells: Vec<String>| {
        for (i, ((_, width, _), cell)) in columns.iter().zip(cells).enumerate() {
            if i > 0 {
                s.push(' ');
            }
            let _ = write!(s, "{cell:>width$}");
        }
        s.push('\n');
    };
    line(columns.iter().map(|c| c.0.to_string()).collect());
    for r in rows {
        line(columns.iter().map(|c| (c.2)(r)).collect());
    }
    s
}

/// Nanoseconds as milliseconds with one decimal, `"-"` for a timing that
/// was not measured.
pub(crate) fn fmt_ms(ns: Option<u64>) -> String {
    ns.map_or_else(|| "-".into(), |ns| format!("{:.1}", ns as f64 / 1e6))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped_per_rfc_8259() {
        let row = Record::new().with("e", "say \"hi\" to C:\\tmp\nnow\u{1}");
        let json = to_json(&Record::new(), "rows", &[row]);
        assert!(
            json.contains(r#""e": "say \"hi\" to C:\\tmp\nnow\u0001""#),
            "{json}"
        );
    }

    #[test]
    fn documents_keep_field_order_indentation_and_precision() {
        let header = Record::new().with("benchmark", "x").with("c", 4u64);
        let rows = [
            Record::new()
                .with("n", 8usize)
                .with("t", Record::new().with("a", 1u64).with("b", 2u64))
                .with("r", Value::Fixed(2.0 / 3.0, 2))
                .with("o", Value::Fixed(0.0, 4))
                .with("none", None::<u64>)
                .with("ok", true),
            Record::new().with("n", 9usize),
        ];
        assert_eq!(
            to_json(&header, "points", &rows),
            "{\n  \"benchmark\": \"x\",\n  \"c\": 4,\n  \"points\": [\n    {\n      \"n\": 8,\n      \
             \"t\": {\"a\": 1, \"b\": 2},\n      \"r\": 0.67,\n      \"o\": 0.0000,\n      \
             \"none\": null,\n      \"ok\": true\n    },\n    {\n      \"n\": 9\n    }\n  ]\n}\n"
        );
    }
}
