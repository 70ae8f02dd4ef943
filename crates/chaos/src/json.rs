//! Minimal hand-rolled JSON for schedule artifacts.
//!
//! The build environment carries no serde; this module implements
//! the small subset the chaos engine needs: objects, arrays,
//! strings and **integers only** — numbers are
//! parsed as `i128` so 64-bit seeds and salts survive a round trip
//! exactly (a float path would silently lose precision above 2^53),
//! and the writer never emits a fractional value.
//!
//! A schedule file is untrusted input: nesting deeper than the format
//! uses is a [`ParseError`], and an unknown key or an integer outside
//! its field's range is a [`SchemaError`] naming the key — never a
//! stack overflow, and never a key quietly ignored or a number
//! quietly truncated into a different scenario.

use crate::event::{ChaosEvent, FaultKind, Schedule, Workload};
use crate::expect::{self, Bound, Counter, Expectation};
use crate::invariant;

/// Deepest nesting the schedule format uses: the document, its
/// `expect` array, an expectation, and the counter it is compared
/// against.
const MAX_DEPTH: usize = 4;

/// A parsed JSON value (integer-only numbers).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// An integer (the only number form supported).
    Int(i128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

/// A parse failure with a byte offset for context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: &str) -> Result<T, ParseError> {
        Err(ParseError {
            at: self.pos,
            msg: msg.to_string(),
        })
    }

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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", b as char))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'[') => self.items(b']', Self::value).map(Json::Arr),
            Some(b'{') => self.items(b'}', Self::member).map(Json::Obj),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => self.err("expected a value"),
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
            return self.err("fractional numbers are not supported");
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        match text.parse::<i128>() {
            Ok(i) => Ok(Json::Int(i)),
            Err(_) => self.err("integer out of range"),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return self.err("truncated \\u escape");
                            }
                            let hex =
                                std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                    .ok()
                                    .and_then(|h| u32::from_str_radix(h, 16).ok());
                            match hex.and_then(char::from_u32) {
                                Some(c) => out.push(c),
                                None => return self.err("bad \\u escape"),
                            }
                            self.pos += 4;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(b) => {
                    // Multi-byte UTF-8 passes through verbatim.
                    let len = match b {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    if self.pos + len > self.bytes.len() {
                        return self.err("truncated utf-8");
                    }
                    match std::str::from_utf8(&self.bytes[self.pos..self.pos + len]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return self.err("invalid utf-8"),
                    }
                    self.pos += len;
                }
            }
        }
    }

    /// An array's items or an object's members, from the opening
    /// bracket through `close`: one level deeper, refused past
    /// [`MAX_DEPTH`] before anything inside is read.
    fn items<T>(
        &mut self,
        close: u8,
        item: fn(&mut Self) -> Result<T, ParseError>,
    ) -> Result<Vec<T>, ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return self.err(&format!("nested deeper than {MAX_DEPTH}"));
        }
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() != Some(close) {
            loop {
                items.push(item(self)?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => break,
                    _ => return self.err(&format!("expected ',' or '{}'", close as char)),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(items)
    }

    fn member(&mut self) -> Result<(String, Json), ParseError> {
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok((key, self.value()?))
    }
}

/// Parses a JSON document (integer-only numbers).
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing garbage after document");
    }
    Ok(v)
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes `v`. The document and its arrays open one line per entry;
/// anything nested deeper (an event, an expectation) stays on one
/// line, so a 60-event schedule is 60 lines.
fn write_value(v: &Json, indent: usize, out: &mut String) {
    let (open, close, items): (char, char, Vec<(Option<&str>, &Json)>) = match v {
        Json::Int(i) => return out.push_str(&i.to_string()),
        Json::Str(s) => return escape_into(s, out),
        Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
        Json::Obj(pairs) => (
            '{',
            '}',
            pairs.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
        ),
    };
    out.push(open);
    let inline = indent >= 2;
    for (i, (key, item)) in items.iter().enumerate() {
        if inline {
            out.push_str(if i == 0 { "" } else { ", " });
        } else {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&"  ".repeat(indent + 1));
        }
        if let Some(k) = key {
            escape_into(k, out);
            out.push_str(": ");
        }
        write_value(item, indent + 1, out);
    }
    if !items.is_empty() && !inline {
        out.push('\n');
        out.push_str(&"  ".repeat(indent));
    }
    out.push(close);
}

/// Pretty-prints a JSON value (two-space indent, trailing newline).
pub fn to_string(v: &Json) -> String {
    let mut out = String::new();
    write_value(v, 0, &mut out);
    out.push('\n');
    out
}

/// A value an artifact field holds.
pub(crate) trait Field: Sized {
    /// Its JSON form.
    fn to_json(&self) -> Json;
    /// The value `v` holds, if it is one of this type (an integer in
    /// range, a known name).
    fn from_json(v: &Json) -> Option<Self>;
}

macro_rules! int_fields {
    ($($t:ty),+) => {$(
        impl Field for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i128)
            }

            fn from_json(v: &Json) -> Option<Self> {
                match v {
                    Json::Int(i) => Self::try_from(*i).ok(),
                    _ => None,
                }
            }
        }
    )+};
}

int_fields!(u8, u16, u32, u64, usize, i32);

macro_rules! named_fields {
    ($($t:ty),+) => {$(
        impl Field for $t {
            fn to_json(&self) -> Json {
                Json::Str(self.name().into())
            }

            fn from_json(v: &Json) -> Option<Self> {
                match v {
                    Json::Str(s) => Self::from_name(s),
                    _ => None,
                }
            }
        }
    )+};
}

named_fields!(FaultKind, Workload);

impl Field for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }

    fn from_json(v: &Json) -> Option<Self> {
        match v {
            Json::Str(s) => Some(s.clone()),
            _ => None,
        }
    }
}

/// Whether a field is written: always, or when it differs from its
/// default.
pub(crate) fn differs<T: PartialEq>(value: &T, default: Option<T>) -> bool {
    default.as_ref() != Some(value)
}

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn counter_to_json(c: &Counter, f: &mut Vec<(&str, Json)>) {
    if let Some(slot) = c.slot {
        f.push(("slot", slot.to_json()));
    }
    f.push(("counter", c.name.to_json()));
}

fn expectation_to_json(e: &Expectation) -> Json {
    let mut f = Vec::new();
    counter_to_json(&e.counter, &mut f);
    match &e.bound {
        Bound::Min(v) => f.push(("min", v.to_json())),
        Bound::Max(v) => f.push(("max", v.to_json())),
        Bound::Eq(v) => f.push(("eq", v.to_json())),
        Bound::Below { times, than } => {
            if *times != 1 {
                f.push(("times", times.to_json()));
            }
            let mut b = Vec::new();
            counter_to_json(than, &mut b);
            f.push(("below", obj(b)));
        }
    }
    if let Some(why) = &e.why {
        f.push(("why", why.to_json()));
    }
    obj(f)
}

/// A field-level schema failure when decoding a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError(pub String);

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "schedule schema error: {}", self.0)
    }
}

impl std::error::Error for SchemaError {}

/// An object's fields, taken by name. Whatever is left untaken when
/// the reader is [`done`](Self::done) is a key the format does not
/// have.
pub(crate) struct Fields<'a> {
    ctx: String,
    rest: Vec<(&'a str, &'a Json)>,
}

impl<'a> Fields<'a> {
    fn of(v: &'a Json, ctx: String) -> Result<Self, SchemaError> {
        match v {
            Json::Obj(pairs) => Ok(Self {
                ctx,
                rest: pairs.iter().map(|(k, v)| (k.as_str(), v)).collect(),
            }),
            _ => Err(SchemaError(format!("{ctx}: not an object"))),
        }
    }

    pub(crate) fn bad(&self, key: &str, what: &str) -> SchemaError {
        SchemaError(format!("{}: '{key}' {what}", self.ctx))
    }

    fn take(&mut self, key: &str) -> Option<&'a Json> {
        let i = self.rest.iter().position(|(k, _)| *k == key)?;
        Some(self.rest.remove(i).1)
    }

    /// The field `key`, if the object has it.
    fn get<T: Field>(&mut self, key: &str) -> Result<Option<T>, SchemaError> {
        let Some(v) = self.take(key) else {
            return Ok(None);
        };
        let what = match v {
            Json::Int(i) => format!("cannot be {i}"),
            Json::Str(s) => format!("cannot be '{s}'"),
            _ => "cannot be a container".to_string(),
        };
        T::from_json(v)
            .map(Some)
            .ok_or_else(|| self.bad(key, &what))
    }

    /// The field `key`, or `default` when the object lacks it.
    pub(crate) fn or<T: Field>(&mut self, key: &str, default: Option<T>) -> Result<T, SchemaError> {
        match self.get(key)? {
            Some(v) => Ok(v),
            None => default.ok_or_else(|| self.bad(key, "is missing")),
        }
    }

    fn arr(&mut self, key: &str, required: bool) -> Result<&'a [Json], SchemaError> {
        match self.take(key) {
            None if !required => Ok(&[]),
            None => Err(self.bad(key, "is missing")),
            Some(Json::Arr(items)) => Ok(items),
            Some(_) => Err(self.bad(key, "is not an array")),
        }
    }

    fn done(self) -> Result<(), SchemaError> {
        match self.rest.first() {
            Some((k, _)) => Err(SchemaError(format!(
                "{}: unknown or repeated key '{k}'",
                self.ctx
            ))),
            None => Ok(()),
        }
    }
}

fn event_from_json(v: &Json, idx: usize) -> Result<ChaosEvent, SchemaError> {
    let mut f = Fields::of(v, format!("events[{idx}]"))?;
    let tag: String = f.or("type", None)?;
    let ev = ChaosEvent::from_fields(&tag, &mut f)?;
    f.done()?;
    Ok(ev)
}

fn counter_from_json(f: &mut Fields) -> Result<Counter, SchemaError> {
    let name: String = f.or("counter", None)?;
    let slot = f.get("slot")?;
    if !expect::known(&name) {
        return Err(f.bad("counter", &format!("names no counter row: '{name}'")));
    }
    if slot.is_some() && name.starts_with("plane.") {
        return Err(f.bad("slot", "is given for a session-wide plane row"));
    }
    Ok(Counter { slot, name })
}

fn expectation_from_json(v: &Json, idx: usize) -> Result<Expectation, SchemaError> {
    let mut f = Fields::of(v, format!("expect[{idx}]"))?;
    let counter = counter_from_json(&mut f)?;
    let times = f.get("times")?;
    let below = match f.take("below") {
        None => None,
        Some(b) => {
            let mut g = Fields::of(b, format!("expect[{idx}].below"))?;
            let than = counter_from_json(&mut g)?;
            g.done()?;
            Some(Bound::Below {
                times: times.unwrap_or(1),
                than,
            })
        }
    };
    if times.is_some() && below.is_none() {
        return Err(f.bad("times", "is given without 'below'"));
    }
    let bounds = [
        f.get("min")?.map(Bound::Min),
        f.get("max")?.map(Bound::Max),
        f.get("eq")?.map(Bound::Eq),
        below,
    ];
    let mut given = bounds.into_iter().flatten();
    let (Some(bound), None) = (given.next(), given.next()) else {
        return Err(f.bad("min|max|eq|below", "must be given exactly once"));
    };
    let why = f.get("why")?;
    f.done()?;
    Ok(Expectation {
        counter,
        bound,
        why,
    })
}

/// Serializes a schedule to its replayable JSON artifact form.
pub fn schedule_to_json(s: &Schedule) -> String {
    let mut f = Vec::new();
    if let Some(why) = &s.why {
        f.push(("why", why.to_json()));
    }
    f.push(("seed", s.seed.to_json()));
    f.push(("width", s.width.to_json()));
    f.push(("height", s.height.to_json()));
    f.push(("cache_budget", s.cache_budget.to_json()));
    f.push(("buffer_bound", s.buffer_bound.to_json()));
    if let Some(v) = &s.expect_violation {
        f.push(("expect_violation", v.to_json()));
    }
    let events = s.events.iter().map(|e| obj(e.to_fields()));
    f.push(("events", Json::Arr(events.collect())));
    if !s.expect.is_empty() {
        let expect = s.expect.iter().map(expectation_to_json);
        f.push(("expect", Json::Arr(expect.collect())));
    }
    to_string(&obj(f))
}

/// Parses a schedule back from its JSON artifact form.
pub fn schedule_from_json(text: &str) -> Result<Schedule, Box<dyn std::error::Error>> {
    let doc = parse(text)?;
    let mut f = Fields::of(&doc, "schedule".into())?;
    let events = f.arr("events", true)?.iter().enumerate();
    let events = events
        .map(|(i, e)| event_from_json(e, i))
        .collect::<Result<_, _>>()?;
    let expect = f.arr("expect", false)?.iter().enumerate();
    let expect = expect
        .map(|(i, e)| expectation_from_json(e, i))
        .collect::<Result<_, _>>()?;
    let expect_violation: Option<String> = f.get("expect_violation")?;
    if let Some(name) = expect_violation
        .as_deref()
        .filter(|n| !invariant::ALL.contains(n))
    {
        return Err(f
            .bad("expect_violation", &format!("names no invariant: '{name}'"))
            .into());
    }
    let s = Schedule {
        why: f.get("why")?,
        seed: f.or("seed", None)?,
        width: f.or("width", None)?,
        height: f.or("height", None)?,
        cache_budget: f.or("cache_budget", None)?,
        buffer_bound: f.or("buffer_bound", None)?,
        events,
        expect_violation,
        expect,
    };
    f.done()?;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_prints_scalars() {
        assert_eq!(parse(" -42 ").unwrap(), Json::Int(-42));
        assert_eq!(
            parse("18446744073709551615").unwrap(),
            Json::Int(u64::MAX as i128)
        );
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
    }

    #[test]
    fn rejects_floats_and_garbage() {
        assert!(parse("1.5").is_err());
        assert!(parse("1e9").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1,2] x").is_err());
        assert!(parse("true").is_err() && parse("[null]").is_err());
        assert_eq!(
            parse("{\"a\": [1, {}], \"b\": []}").unwrap(),
            Json::Obj(vec![
                ("a".into(), Json::Arr(vec![Json::Int(1), Json::Obj(vec![])])),
                ("b".into(), Json::Arr(vec![])),
            ])
        );
    }

    #[test]
    fn nesting_past_the_format_is_a_parse_error() {
        assert!(parse("[[[[1]]]]").is_ok());
        let err = parse("[[[[[1]]]]]").unwrap_err();
        assert_eq!((err.at, err.msg.as_str()), (4, "nested deeper than 4"));
        // Deep enough to overflow a recursive parser's stack.
        assert!(parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn full_u64_salt_survives_round_trip() {
        // 2^53 + 1 is exactly where an f64-based number path breaks.
        let salt = (1u64 << 53) + 1;
        let s = Schedule {
            events: vec![ChaosEvent::Draw {
                workload: Workload::Noise,
                x: -3,
                y: 7,
                w: 16,
                h: 16,
                salt,
            }],
            ..Schedule::base(u64::MAX)
        };
        let text = schedule_to_json(&s);
        let back = schedule_from_json(&text).unwrap();
        assert_eq!(back, s);
    }

    const BASE: &str =
        "\"seed\": 5, \"width\": 64, \"height\": 48, \"cache_budget\": 262144, \"buffer_bound\": 98304";

    fn refused(doc: &str) -> String {
        let err = schedule_from_json(doc).expect_err(doc);
        assert!(err.downcast_ref::<SchemaError>().is_some(), "{err}");
        err.to_string()
    }

    #[test]
    fn an_unknown_key_is_refused_by_name() {
        assert_eq!(
            schedule_from_json(&format!("{{{BASE}, \"events\": []}}")).unwrap(),
            Schedule::base(5)
        );
        // Artifacts from before the one-roster flush carry a shard
        // count, those from before the one-thread session a worker
        // count, and a misspelt expectation would replay as "all
        // invariants hold": none runs as something else.
        for (doc, key) in [
            (format!("{{{BASE}, \"shards\": 8, \"events\": []}}"), "shards"),
            (format!("{{{BASE}, \"workers\": 4, \"events\": []}}"), "workers"),
            (
                format!("{{{BASE}, \"expect_violaton\": \"convergence\", \"events\": []}}"),
                "expect_violaton",
            ),
            (format!("{{{BASE}, \"events\": [{{\"type\": \"quiesce\", \"slot\": 0}}]}}"), "slot"),
            (
                format!("{{{BASE}, \"events\": [], \"expect\": [{{\"counter\": \"plane.encodes\", \"min\": 1, \"mni\": 2}}]}}"),
                "mni",
            ),
        ] {
            let msg = refused(&doc);
            assert!(msg.contains(&format!("'{key}'")), "{msg}");
        }
        let msg = refused(&format!(
            "{{{BASE}, \"expect_violation\": \"convergance\", \"events\": []}}"
        ));
        assert!(msg.contains("convergance"), "{msg}");
        let msg = refused(&format!(
            "{{{BASE}, \"events\": [], \"expect\": [{{\"counter\": \"client.crc_failure\", \"min\": 1}}]}}"
        ));
        assert!(msg.contains("client.crc_failure"), "{msg}");
    }

    #[test]
    fn an_integer_outside_its_field_is_refused_by_name() {
        // 4294967360 = 2^32 + 64: an `as u32` cast reads 64.
        let doc = format!(
            "{{{BASE}, \"events\": [{{\"type\": \"attach\", \"viewport_w\": 4294967360, \"viewport_h\": 48}}]}}"
        );
        let msg = refused(&doc);
        assert!(
            msg.contains("'viewport_w'") && msg.contains("4294967360"),
            "{msg}"
        );
        for (fields, want) in [
            (
                "\"offset_ms\": -1, \"len_ms\": 10, \"rate_pct\": 5",
                "'offset_ms' cannot be -1",
            ),
            (
                "\"offset_ms\": 0, \"len_ms\": 10, \"rate_pct\": 256",
                "'rate_pct' cannot be 256",
            ),
        ] {
            let doc = format!(
                "{{{BASE}, \"events\": [{{\"type\": \"fault\", \"slot\": 0, \"kind\": \"loss\", {fields}}}]}}"
            );
            let msg = refused(&doc);
            assert!(msg.contains(want), "{msg}");
        }
    }

    #[test]
    fn every_event_kind_and_bound_round_trips_one_line_each() {
        let mut s = Schedule::base(9);
        s.why = Some("every shape the format has".into());
        s.expect_violation = Some("convergence".into());
        s.events = vec![
            ChaosEvent::Attach {
                viewport_w: 64,
                viewport_h: 48,
                version: 1,
            },
            ChaosEvent::Disconnect { slot: 0 },
            ChaosEvent::Reconnect { slot: 0 },
            ChaosEvent::Resize {
                slot: 0,
                viewport_w: 32,
                viewport_h: 24,
            },
            ChaosEvent::Fault {
                slot: 0,
                kind: FaultKind::Reorder,
                offset_ms: 5,
                len_ms: 250,
                rate_pct: 40,
            },
            ChaosEvent::CacheBudget { bytes: 65536 },
            ChaosEvent::Draw {
                workload: Workload::Scroll,
                x: 0,
                y: 0,
                w: 64,
                h: 48,
                salt: 1,
            },
            ChaosEvent::Flush {
                epochs: 3,
                step_ms: 40,
            },
            ChaosEvent::PoisonFlush { slot: 1 },
            ChaosEvent::SabotagePixel { slot: 0 },
            ChaosEvent::ServerCrash,
            ChaosEvent::Failover,
            ChaosEvent::Quiesce,
        ];
        let counter = |slot, name: &str| Counter {
            slot,
            name: name.into(),
        };
        let expect = |c, bound| Expectation {
            counter: c,
            bound,
            why: None,
        };
        s.expect = vec![
            expect(counter(Some(0), "client.crc_failures"), Bound::Min(1)),
            expect(counter(None, "server.degrade_steps"), Bound::Max(0)),
            expect(counter(Some(1), "link.segments_lost"), Bound::Eq(0)),
            Expectation {
                why: Some("the warm bill is under half the cold one".into()),
                ..expect(
                    counter(Some(0), "buffer.sent_bytes"),
                    Bound::Below {
                        times: 2,
                        than: counter(Some(1), "buffer.sent_bytes"),
                    },
                )
            },
            expect(
                counter(None, "plane.encodes"),
                Bound::Below {
                    times: 1,
                    than: counter(None, "plane.shared_sends"),
                },
            ),
        ];
        let text = schedule_to_json(&s);
        assert_eq!(schedule_from_json(&text).unwrap(), s);
        // Braces, one line per event and per expectation, and nothing
        // else.
        assert_eq!(
            text.lines().count(),
            2 + 7 + 2 + s.events.len() + 2 + s.expect.len()
        );
    }
}
