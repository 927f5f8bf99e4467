//! JSON import/export of instances and schedules.
//!
//! Deserialization re-validates through the normal constructors, so a
//! hand-edited or corrupted file can never produce an invalid in-memory
//! instance. The format is a direct, versioned mirror of the model:
//!
//! ```json
//! { "version": 1, "kind": "uniform",
//!   "speeds": [2, 1], "setups": [3, 5],
//!   "jobs": [{ "class": 0, "size": 4 }] }
//! ```
//!
//! The build environment has no crates.io access, so this module ships its
//! own small JSON reader/writer (see [`json`]) instead of depending on
//! `serde`/`serde_json`. The on-disk format is unchanged.

use crate::error::InstanceError;
use crate::instance::{Job, UniformInstance, UnrelatedInstance};
use crate::schedule::Schedule;

use self::json::JsonValue;

/// Current on-disk format version.
pub const FORMAT_VERSION: u32 = 1;

/// Errors of the I/O layer.
#[derive(Debug)]
pub enum IoError {
    /// The JSON was syntactically invalid or of the wrong shape.
    Json(String),
    /// The decoded data failed instance validation.
    Invalid(InstanceError),
    /// Unknown `version` or `kind` field.
    Format(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Json(e) => write!(f, "json error: {e}"),
            IoError::Invalid(e) => write!(f, "invalid instance: {e}"),
            IoError::Format(s) => write!(f, "format error: {s}"),
        }
    }
}

impl std::error::Error for IoError {}

pub mod json {
    //! Minimal JSON value model, parser and writer — just enough for the
    //! instance/schedule format: objects, arrays, `u64` numbers (including
    //! `u64::MAX`, the `∞` sentinel) and strings.

    use std::collections::BTreeMap;
    use std::fmt::Write as _;

    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum JsonValue {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// An unsigned integer (the only number shape this format uses).
        Uint(u64),
        /// A (non-integer or negative) number, kept for error reporting.
        Float(f64),
        /// A string.
        Str(String),
        /// An array.
        Array(Vec<JsonValue>),
        /// An object (sorted keys; key order is irrelevant to this format).
        Object(BTreeMap<String, JsonValue>),
    }

    /// Maximum nesting depth accepted by [`parse`] (matches serde_json's
    /// default); deeper input is a parse error, not a stack overflow.
    const MAX_DEPTH: u32 = 128;

    /// Parses `text` into a [`JsonValue`].
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
        depth: u32,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!(
                    "expected '{}' at byte {}, found {:?}",
                    b as char,
                    self.pos,
                    self.peek().map(|c| c as char)
                ))
            }
        }

        fn literal(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, String> {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                Ok(value)
            } else {
                Err(format!("invalid literal at byte {}", self.pos))
            }
        }

        fn value(&mut self) -> Result<JsonValue, String> {
            match self.peek() {
                None => Err("unexpected end of input".to_string()),
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(JsonValue::Str(self.string()?)),
                Some(b't') => self.literal("true", JsonValue::Bool(true)),
                Some(b'f') => self.literal("false", JsonValue::Bool(false)),
                Some(b'n') => self.literal("null", JsonValue::Null),
                Some(b'-') | Some(b'0'..=b'9') => self.number(),
                Some(c) => {
                    Err(format!("unexpected character {:?} at byte {}", c as char, self.pos))
                }
            }
        }

        fn enter(&mut self) -> Result<(), String> {
            self.depth += 1;
            if self.depth > MAX_DEPTH {
                return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
            }
            Ok(())
        }

        fn object(&mut self) -> Result<JsonValue, String> {
            self.enter()?;
            self.expect(b'{')?;
            let mut map = BTreeMap::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                self.depth -= 1;
                return Ok(JsonValue::Object(map));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let val = self.value()?;
                map.insert(key, val);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        self.depth -= 1;
                        return Ok(JsonValue::Object(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                }
            }
        }

        fn array(&mut self) -> Result<JsonValue, String> {
            self.enter()?;
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                self.depth -= 1;
                return Ok(JsonValue::Array(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        self.depth -= 1;
                        return Ok(JsonValue::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut s = String::new();
            loop {
                match self.peek() {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(s);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b't') => s.push('\t'),
                            Some(b'r') => s.push('\r'),
                            Some(b'u') => {
                                if self.pos + 4 >= self.bytes.len() {
                                    return Err("truncated \\u escape".to_string());
                                }
                                let hex =
                                    std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                        .map_err(|_| "bad \\u escape".to_string())?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| "bad \\u escape".to_string())?;
                                s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                                self.pos += 4;
                            }
                            _ => return Err("bad escape".to_string()),
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 code point.
                        let rest = &self.bytes[self.pos..];
                        let text = std::str::from_utf8(rest)
                            .map_err(|_| "invalid utf-8 in string".to_string())?;
                        let c = text.chars().next().unwrap();
                        s.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        fn number(&mut self) -> Result<JsonValue, String> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            let mut is_float = false;
            if self.peek() == Some(b'.') {
                is_float = true;
                self.pos += 1;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            if matches!(self.peek(), Some(b'e') | Some(b'E')) {
                is_float = true;
                self.pos += 1;
                if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ascii");
            if !is_float && !text.starts_with('-') {
                if let Ok(u) = text.parse::<u64>() {
                    return Ok(JsonValue::Uint(u));
                }
            }
            text.parse::<f64>()
                .map(JsonValue::Float)
                .map_err(|_| format!("invalid number at byte {start}"))
        }
    }

    /// Serializes a `u64` array on one line: `[1, 2, 3]`.
    pub fn write_u64_array(out: &mut String, xs: &[u64]) {
        out.push('[');
        for (i, x) in xs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{x}");
        }
        out.push(']');
    }

    /// Serializes a `usize` array on one line.
    pub fn write_usize_array(out: &mut String, xs: &[usize]) {
        out.push('[');
        for (i, x) in xs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{x}");
        }
        out.push(']');
    }
}

/// Extraction helpers shared by the `*_from_json` parsers.
mod extract {
    use super::json::JsonValue;
    use super::IoError;

    pub fn object(
        v: &JsonValue,
    ) -> Result<&std::collections::BTreeMap<String, JsonValue>, IoError> {
        match v {
            JsonValue::Object(map) => Ok(map),
            _ => Err(IoError::Json("expected a JSON object".to_string())),
        }
    }

    pub fn field<'a>(
        map: &'a std::collections::BTreeMap<String, JsonValue>,
        name: &str,
    ) -> Result<&'a JsonValue, IoError> {
        map.get(name).ok_or_else(|| IoError::Json(format!("missing field '{name}'")))
    }

    pub fn uint(v: &JsonValue, what: &str) -> Result<u64, IoError> {
        match v {
            JsonValue::Uint(u) => Ok(*u),
            _ => Err(IoError::Json(format!("field '{what}' must be an unsigned integer"))),
        }
    }

    pub fn string(v: &JsonValue, what: &str) -> Result<String, IoError> {
        match v {
            JsonValue::Str(s) => Ok(s.clone()),
            _ => Err(IoError::Json(format!("field '{what}' must be a string"))),
        }
    }

    pub fn array<'a>(v: &'a JsonValue, what: &str) -> Result<&'a [JsonValue], IoError> {
        match v {
            JsonValue::Array(items) => Ok(items),
            _ => Err(IoError::Json(format!("field '{what}' must be an array"))),
        }
    }

    pub fn u64_vec(v: &JsonValue, what: &str) -> Result<Vec<u64>, IoError> {
        array(v, what)?.iter().map(|x| uint(x, what)).collect()
    }

    pub fn usize_vec(v: &JsonValue, what: &str) -> Result<Vec<usize>, IoError> {
        u64_vec(v, what)?
            .into_iter()
            .map(|u| {
                usize::try_from(u)
                    .map_err(|_| IoError::Json(format!("field '{what}' entry out of range")))
            })
            .collect()
    }

    pub fn u64_matrix(v: &JsonValue, what: &str) -> Result<Vec<Vec<u64>>, IoError> {
        array(v, what)?.iter().map(|row| u64_vec(row, what)).collect()
    }
}

fn check_header(
    map: &std::collections::BTreeMap<String, JsonValue>,
    expected_kind: &str,
) -> Result<(), IoError> {
    let version = extract::uint(extract::field(map, "version")?, "version")?;
    if version != u64::from(FORMAT_VERSION) {
        return Err(IoError::Format(format!("unsupported version {version}")));
    }
    let kind = extract::string(extract::field(map, "kind")?, "kind")?;
    if kind != expected_kind {
        return Err(IoError::Format(format!("expected kind '{expected_kind}', got '{kind}'")));
    }
    Ok(())
}

/// Shared field-by-field writer behind the pretty and NDJSON encodings —
/// one copy of the schema per instance kind, so a field change cannot
/// silently diverge between the two formats.
fn uniform_json(inst: &UniformInstance, pretty: bool) -> String {
    use std::fmt::Write as _;
    let (open, sep, pad) = if pretty { ("{\n  ", ",\n  ", " ") } else { ("{", ", ", "") };
    let mut out = String::new();
    let _ = write!(out, "{open}\"version\": {FORMAT_VERSION}{sep}\"kind\": \"uniform\"{sep}");
    out.push_str("\"speeds\": ");
    json::write_u64_array(&mut out, inst.speeds());
    out.push_str(sep);
    out.push_str("\"setups\": ");
    json::write_u64_array(&mut out, inst.setups());
    out.push_str(sep);
    out.push_str("\"jobs\": [");
    for (j, job) in inst.jobs().iter().enumerate() {
        if j > 0 {
            out.push(',');
            if !pretty {
                out.push(' ');
            }
        }
        if pretty {
            out.push_str("\n    ");
        }
        let _ = write!(out, "{{{pad}\"class\": {}, \"size\": {}{pad}}}", job.class, job.size);
    }
    if pretty && inst.n() > 0 {
        out.push_str("\n  ");
    }
    out.push_str(if pretty { "]\n}" } else { "]}" });
    out
}

/// Serializes a uniform instance to pretty JSON.
pub fn uniform_to_json(inst: &UniformInstance) -> String {
    uniform_json(inst, true)
}

/// Serializes a uniform instance to one compact JSON line (same schema as
/// [`uniform_to_json`], no newlines) — the NDJSON building block.
pub fn uniform_to_json_line(inst: &UniformInstance) -> String {
    uniform_json(inst, false)
}

/// Parses and validates a uniform instance from JSON.
pub fn uniform_from_json(text: &str) -> Result<UniformInstance, IoError> {
    let value = json::parse(text).map_err(IoError::Json)?;
    uniform_from_value(&value)
}

/// Parses and validates a uniform instance from an already-parsed
/// [`JsonValue`] (e.g. a sub-object of a larger request envelope).
pub fn uniform_from_value(value: &JsonValue) -> Result<UniformInstance, IoError> {
    let map = extract::object(value)?;
    check_header(map, "uniform")?;
    let speeds = extract::u64_vec(extract::field(map, "speeds")?, "speeds")?;
    let setups = extract::u64_vec(extract::field(map, "setups")?, "setups")?;
    let jobs = extract::array(extract::field(map, "jobs")?, "jobs")?
        .iter()
        .map(|j| {
            let obj = extract::object(j)?;
            let class = extract::uint(extract::field(obj, "class")?, "class")?;
            let size = extract::uint(extract::field(obj, "size")?, "size")?;
            let class = usize::try_from(class)
                .map_err(|_| IoError::Json("job class out of range".to_string()))?;
            Ok(Job::new(class, size))
        })
        .collect::<Result<Vec<Job>, IoError>>()?;
    UniformInstance::new(speeds, setups, jobs).map_err(IoError::Invalid)
}

/// Shared writer behind the unrelated-payload encodings (see
/// [`uniform_json`]). `kind` is `"unrelated"` or `"splittable"` — the
/// splittable model of Section 3.3 shares the unrelated instance data and
/// differs only in its solution space, so the two kinds share one schema.
fn unrelated_json(inst: &UnrelatedInstance, kind: &str, pretty: bool) -> String {
    use std::fmt::Write as _;
    let (open, sep) = if pretty { ("{\n  ", ",\n  ") } else { ("{", ", ") };
    let mut out = String::new();
    let _ = write!(out, "{open}\"version\": {FORMAT_VERSION}{sep}\"kind\": \"{kind}\"{sep}");
    let _ = write!(out, "\"m\": {}{sep}", inst.m());
    out.push_str("\"job_class\": ");
    json::write_usize_array(&mut out, inst.job_classes());
    out.push_str(sep);
    let matrix = |out: &mut String, name: &str, rows: &[&[u64]]| {
        let _ = write!(out, "\"{name}\": [");
        for (r, row) in rows.iter().enumerate() {
            if r > 0 {
                out.push(',');
                if !pretty {
                    out.push(' ');
                }
            }
            if pretty {
                out.push_str("\n    ");
            }
            json::write_u64_array(out, row);
        }
        if pretty && !rows.is_empty() {
            out.push_str("\n  ");
        }
        out.push(']');
    };
    let ptimes: Vec<&[u64]> = (0..inst.n()).map(|j| inst.ptimes_row(j)).collect();
    matrix(&mut out, "ptimes", &ptimes);
    out.push_str(sep);
    let setups: Vec<&[u64]> = (0..inst.num_classes()).map(|k| inst.setups_row(k)).collect();
    matrix(&mut out, "setups", &setups);
    out.push_str(if pretty { "\n}" } else { "}" });
    out
}

/// Serializes an unrelated instance to pretty JSON.
pub fn unrelated_to_json(inst: &UnrelatedInstance) -> String {
    unrelated_json(inst, "unrelated", true)
}

/// Serializes an unrelated instance to one compact JSON line (same schema
/// as [`unrelated_to_json`], no newlines) — the NDJSON building block.
pub fn unrelated_to_json_line(inst: &UnrelatedInstance) -> String {
    unrelated_json(inst, "unrelated", false)
}

/// Serializes an instance of the **splittable** model (Section 3.3's
/// substrate: same data as an unrelated instance, class workloads may be
/// split) to pretty JSON under `"kind": "splittable"`.
pub fn splittable_to_json(inst: &UnrelatedInstance) -> String {
    unrelated_json(inst, "splittable", true)
}

/// Serializes a splittable-model instance to one compact JSON line.
pub fn splittable_to_json_line(inst: &UnrelatedInstance) -> String {
    unrelated_json(inst, "splittable", false)
}

/// Parses and validates an unrelated instance from JSON.
pub fn unrelated_from_json(text: &str) -> Result<UnrelatedInstance, IoError> {
    let value = json::parse(text).map_err(IoError::Json)?;
    unrelated_from_value(&value)
}

/// Parses and validates a splittable-model instance from JSON.
pub fn splittable_from_json(text: &str) -> Result<UnrelatedInstance, IoError> {
    let value = json::parse(text).map_err(IoError::Json)?;
    splittable_from_value(&value)
}

fn unrelated_payload_from_value(
    value: &JsonValue,
    kind: &str,
) -> Result<UnrelatedInstance, IoError> {
    let map = extract::object(value)?;
    check_header(map, kind)?;
    let m = extract::uint(extract::field(map, "m")?, "m")?;
    let m = usize::try_from(m).map_err(|_| IoError::Json("m out of range".to_string()))?;
    let job_class = extract::usize_vec(extract::field(map, "job_class")?, "job_class")?;
    let ptimes = extract::u64_matrix(extract::field(map, "ptimes")?, "ptimes")?;
    let setups = extract::u64_matrix(extract::field(map, "setups")?, "setups")?;
    UnrelatedInstance::new(m, job_class, ptimes, setups).map_err(IoError::Invalid)
}

/// Parses and validates an unrelated instance from an already-parsed
/// [`JsonValue`].
pub fn unrelated_from_value(value: &JsonValue) -> Result<UnrelatedInstance, IoError> {
    unrelated_payload_from_value(value, "unrelated")
}

/// Parses and validates a splittable-model instance (`"kind":
/// "splittable"`, unrelated payload schema) from an already-parsed
/// [`JsonValue`].
pub fn splittable_from_value(value: &JsonValue) -> Result<UnrelatedInstance, IoError> {
    unrelated_payload_from_value(value, "splittable")
}

/// Serializes a schedule (assignment vector) to JSON.
pub fn schedule_to_json(sched: &Schedule) -> String {
    let mut out = String::new();
    json::write_usize_array(&mut out, sched.assignment());
    out
}

/// Parses a schedule from JSON. Validation against an instance happens at
/// evaluation time ([`crate::schedule::uniform_loads`] etc.).
pub fn schedule_from_json(text: &str) -> Result<Schedule, IoError> {
    let value = json::parse(text).map_err(IoError::Json)?;
    schedule_from_value(&value)
}

/// Parses a schedule from an already-parsed [`JsonValue`].
pub fn schedule_from_value(value: &JsonValue) -> Result<Schedule, IoError> {
    let v = extract::usize_vec(value, "schedule")?;
    Ok(Schedule::new(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::INF;

    #[test]
    fn uniform_roundtrip() {
        let inst =
            UniformInstance::new(vec![2, 1], vec![3, 5], vec![Job::new(0, 4), Job::new(1, 6)])
                .unwrap();
        let json = uniform_to_json(&inst);
        let back = uniform_from_json(&json).unwrap();
        assert_eq!(inst, back);
    }

    #[test]
    fn unrelated_roundtrip_with_infinities() {
        let inst = UnrelatedInstance::new(
            2,
            vec![0, 1],
            vec![vec![3, INF], vec![INF, 4]],
            vec![vec![1, 1], vec![2, 2]],
        )
        .unwrap();
        let json = unrelated_to_json(&inst);
        let back = unrelated_from_json(&json).unwrap();
        assert_eq!(inst, back);
    }

    #[test]
    fn corrupted_data_is_rejected_not_trusted() {
        // Speed 0 fails validation even though the JSON parses.
        let bad = r#"{"version":1,"kind":"uniform","speeds":[0],"setups":[],"jobs":[]}"#;
        assert!(matches!(uniform_from_json(bad), Err(IoError::Invalid(_))));
        // Wrong kind.
        let wrong = r#"{"version":1,"kind":"unrelated","speeds":[1],"setups":[],"jobs":[]}"#;
        assert!(matches!(uniform_from_json(wrong), Err(IoError::Format(_))));
        // Future version.
        let future = r#"{"version":9,"kind":"uniform","speeds":[1],"setups":[],"jobs":[]}"#;
        assert!(matches!(uniform_from_json(future), Err(IoError::Format(_))));
        // Garbage.
        assert!(matches!(uniform_from_json("{nope"), Err(IoError::Json(_))));
    }

    #[test]
    fn json_line_is_single_line_and_parses_back() {
        let u = UniformInstance::new(vec![2, 1], vec![3, 5], vec![Job::new(0, 4), Job::new(1, 6)])
            .unwrap();
        let line = uniform_to_json_line(&u);
        assert!(!line.contains('\n'), "{line}");
        assert_eq!(uniform_from_json(&line).unwrap(), u);
        let r = UnrelatedInstance::new(
            2,
            vec![0, 1],
            vec![vec![3, INF], vec![INF, 4]],
            vec![vec![1, 1], vec![2, 2]],
        )
        .unwrap();
        let line = unrelated_to_json_line(&r);
        assert!(!line.contains('\n'), "{line}");
        assert_eq!(unrelated_from_json(&line).unwrap(), r);
    }

    #[test]
    fn splittable_kind_roundtrips_and_is_not_confused_with_unrelated() {
        let inst = UnrelatedInstance::new(
            2,
            vec![0, 1],
            vec![vec![3, 5], vec![2, 4]],
            vec![vec![1, 1], vec![2, 2]],
        )
        .unwrap();
        let json = splittable_to_json(&inst);
        assert!(json.contains("\"kind\": \"splittable\""), "{json}");
        assert_eq!(splittable_from_json(&json).unwrap(), inst);
        // The kinds are distinct on the wire even though the payload is
        // shared: each parser rejects the other's tag.
        assert!(matches!(unrelated_from_json(&json), Err(IoError::Format(_))));
        assert!(matches!(splittable_from_json(&unrelated_to_json(&inst)), Err(IoError::Format(_))));
        let line = splittable_to_json_line(&inst);
        assert!(!line.contains('\n'));
        assert_eq!(splittable_from_json(&line).unwrap(), inst);
    }

    #[test]
    fn schedule_roundtrip() {
        let s = Schedule::new(vec![0, 2, 1]);
        let json = schedule_to_json(&s);
        assert_eq!(schedule_from_json(&json).unwrap(), s);
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_crash() {
        let deep = "[".repeat(100_000);
        assert!(matches!(uniform_from_json(&deep), Err(IoError::Json(_))));
        // At the limit boundary: 127 wrappers around a number still parse.
        let ok = format!("{}7{}", "[".repeat(127), "]".repeat(127));
        assert!(json::parse(&ok).is_ok());
    }

    #[test]
    fn inf_survives_the_text_format() {
        // u64::MAX is the ∞ sentinel; it must parse back exactly.
        let text = format!("[{}]", u64::MAX);
        let v = json::parse(&text).unwrap();
        assert_eq!(v, json::JsonValue::Array(vec![json::JsonValue::Uint(u64::MAX)]));
    }
}
