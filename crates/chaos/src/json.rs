//! Minimal hand-rolled JSON for schedule artifacts.
//!
//! The build environment carries no serde; this module implements
//! the small subset the chaos engine needs: objects, arrays,
//! strings, booleans, null and **integers only** — numbers are
//! parsed as `i128` so 64-bit seeds and salts survive a round trip
//! exactly (a float path would silently lose precision above 2^53),
//! and the writer never emits a fractional value.

use crate::event::{ChaosEvent, FaultKind, Schedule, Workload};

/// A parsed JSON value (integer-only numbers).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (the only number form supported).
    Int(i128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 && *i <= u64::MAX as i128 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) if *i >= i64::MIN as i128 && *i <= i64::MAX as i128 => Some(*i as i64),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v.as_slice()),
            _ => None,
        }
    }
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
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => self.err("expected a value"),
        }
    }

    fn literal(&mut self, word: &str, val: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(val)
        } else {
            self.err(&format!("expected '{word}'"))
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

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Parses a JSON document (integer-only numbers).
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
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

fn write_value(v: &Json, indent: usize, out: &mut String) {
    let pad = |n: usize, out: &mut String| {
        for _ in 0..n {
            out.push_str("  ");
        }
    };
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(i) => out.push_str(&i.to_string()),
        Json::Str(s) => escape_into(s, out),
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                pad(indent + 1, out);
                write_value(item, indent + 1, out);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            pad(indent, out);
            out.push(']');
        }
        Json::Obj(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (k, val)) in pairs.iter().enumerate() {
                pad(indent + 1, out);
                escape_into(k, out);
                out.push_str(": ");
                write_value(val, indent + 1, out);
                if i + 1 < pairs.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            pad(indent, out);
            out.push('}');
        }
    }
}

/// Pretty-prints a JSON value (two-space indent, trailing newline).
pub fn to_string(v: &Json) -> String {
    let mut out = String::new();
    write_value(v, 0, &mut out);
    out.push('\n');
    out
}

fn u64v(n: u64) -> Json {
    Json::Int(n as i128)
}

fn event_to_json(e: &ChaosEvent) -> Json {
    let mut pairs: Vec<(String, Json)> = vec![("type".into(), Json::Str(e.tag().into()))];
    match e {
        ChaosEvent::Attach {
            viewport_w,
            viewport_h,
        } => {
            pairs.push(("viewport_w".into(), u64v(*viewport_w as u64)));
            pairs.push(("viewport_h".into(), u64v(*viewport_h as u64)));
        }
        ChaosEvent::Disconnect { slot }
        | ChaosEvent::Reconnect { slot }
        | ChaosEvent::PoisonFlush { slot }
        | ChaosEvent::SabotagePixel { slot } => {
            pairs.push(("slot".into(), u64v(*slot as u64)));
        }
        ChaosEvent::Resize {
            slot,
            viewport_w,
            viewport_h,
        } => {
            pairs.push(("slot".into(), u64v(*slot as u64)));
            pairs.push(("viewport_w".into(), u64v(*viewport_w as u64)));
            pairs.push(("viewport_h".into(), u64v(*viewport_h as u64)));
        }
        ChaosEvent::Fault {
            slot,
            kind,
            offset_ms,
            len_ms,
            rate_pct,
        } => {
            pairs.push(("slot".into(), u64v(*slot as u64)));
            pairs.push(("kind".into(), Json::Str(kind.name().into())));
            pairs.push(("offset_ms".into(), u64v(*offset_ms as u64)));
            pairs.push(("len_ms".into(), u64v(*len_ms as u64)));
            pairs.push(("rate_pct".into(), u64v(*rate_pct as u64)));
        }
        ChaosEvent::CacheBudget { bytes } => {
            pairs.push(("bytes".into(), u64v(*bytes)));
        }
        ChaosEvent::Draw {
            workload,
            x,
            y,
            w,
            h,
            salt,
        } => {
            pairs.push(("workload".into(), Json::Str(workload.name().into())));
            pairs.push(("x".into(), Json::Int(*x as i128)));
            pairs.push(("y".into(), Json::Int(*y as i128)));
            pairs.push(("w".into(), u64v(*w as u64)));
            pairs.push(("h".into(), u64v(*h as u64)));
            pairs.push(("salt".into(), u64v(*salt)));
        }
        ChaosEvent::Flush { epochs, step_ms } => {
            pairs.push(("epochs".into(), u64v(*epochs as u64)));
            pairs.push(("step_ms".into(), u64v(*step_ms as u64)));
        }
        ChaosEvent::ServerCrash | ChaosEvent::Failover | ChaosEvent::Quiesce => {}
    }
    Json::Obj(pairs)
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

fn need_u64(obj: &Json, key: &str, ctx: &str) -> Result<u64, SchemaError> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| SchemaError(format!("{ctx}: missing or non-integer '{key}'")))
}

fn need_i64(obj: &Json, key: &str, ctx: &str) -> Result<i64, SchemaError> {
    obj.get(key)
        .and_then(Json::as_i64)
        .ok_or_else(|| SchemaError(format!("{ctx}: missing or non-integer '{key}'")))
}

fn event_from_json(obj: &Json, idx: usize) -> Result<ChaosEvent, SchemaError> {
    let ctx = format!("events[{idx}]");
    let tag = obj
        .get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| SchemaError(format!("{ctx}: missing 'type'")))?;
    Ok(match tag {
        "attach" => ChaosEvent::Attach {
            viewport_w: need_u64(obj, "viewport_w", &ctx)? as u32,
            viewport_h: need_u64(obj, "viewport_h", &ctx)? as u32,
        },
        "disconnect" => ChaosEvent::Disconnect {
            slot: need_u64(obj, "slot", &ctx)? as usize,
        },
        "reconnect" => ChaosEvent::Reconnect {
            slot: need_u64(obj, "slot", &ctx)? as usize,
        },
        "resize" => ChaosEvent::Resize {
            slot: need_u64(obj, "slot", &ctx)? as usize,
            viewport_w: need_u64(obj, "viewport_w", &ctx)? as u32,
            viewport_h: need_u64(obj, "viewport_h", &ctx)? as u32,
        },
        "fault" => {
            let kind_name = obj
                .get("kind")
                .and_then(Json::as_str)
                .ok_or_else(|| SchemaError(format!("{ctx}: missing 'kind'")))?;
            ChaosEvent::Fault {
                slot: need_u64(obj, "slot", &ctx)? as usize,
                kind: FaultKind::from_name(kind_name)
                    .ok_or_else(|| SchemaError(format!("{ctx}: unknown kind '{kind_name}'")))?,
                offset_ms: need_u64(obj, "offset_ms", &ctx)? as u32,
                len_ms: need_u64(obj, "len_ms", &ctx)? as u32,
                rate_pct: need_u64(obj, "rate_pct", &ctx)?.min(100) as u8,
            }
        }
        "cache_budget" => ChaosEvent::CacheBudget {
            bytes: need_u64(obj, "bytes", &ctx)?,
        },
        "draw" => {
            let wname = obj
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| SchemaError(format!("{ctx}: missing 'workload'")))?;
            ChaosEvent::Draw {
                workload: Workload::from_name(wname)
                    .ok_or_else(|| SchemaError(format!("{ctx}: unknown workload '{wname}'")))?,
                x: need_i64(obj, "x", &ctx)? as i32,
                y: need_i64(obj, "y", &ctx)? as i32,
                w: need_u64(obj, "w", &ctx)? as u32,
                h: need_u64(obj, "h", &ctx)? as u32,
                salt: need_u64(obj, "salt", &ctx)?,
            }
        }
        "flush" => ChaosEvent::Flush {
            epochs: need_u64(obj, "epochs", &ctx)? as u32,
            step_ms: need_u64(obj, "step_ms", &ctx)? as u32,
        },
        "poison_flush" => ChaosEvent::PoisonFlush {
            slot: need_u64(obj, "slot", &ctx)? as usize,
        },
        "sabotage_pixel" => ChaosEvent::SabotagePixel {
            slot: need_u64(obj, "slot", &ctx)? as usize,
        },
        "server_crash" => ChaosEvent::ServerCrash,
        "failover" => ChaosEvent::Failover,
        "quiesce" => ChaosEvent::Quiesce,
        other => return Err(SchemaError(format!("{ctx}: unknown event type '{other}'"))),
    })
}

/// Serializes a schedule to its replayable JSON artifact form.
pub fn schedule_to_json(s: &Schedule) -> String {
    let mut pairs: Vec<(String, Json)> = vec![
        ("seed".into(), u64v(s.seed)),
        ("width".into(), u64v(s.width as u64)),
        ("height".into(), u64v(s.height as u64)),
        ("workers".into(), u64v(s.workers as u64)),
        ("cache_budget".into(), u64v(s.cache_budget)),
        ("buffer_bound".into(), u64v(s.buffer_bound)),
    ];
    if let Some(v) = &s.expect_violation {
        pairs.push(("expect_violation".into(), Json::Str(v.clone())));
    }
    pairs.push((
        "events".into(),
        Json::Arr(s.events.iter().map(event_to_json).collect()),
    ));
    to_string(&Json::Obj(pairs))
}

/// Parses a schedule back from its JSON artifact form.
pub fn schedule_from_json(text: &str) -> Result<Schedule, Box<dyn std::error::Error>> {
    let doc = parse(text)?;
    let ctx = "schedule";
    let events_json = doc
        .get("events")
        .and_then(Json::as_arr)
        .ok_or_else(|| SchemaError(format!("{ctx}: missing 'events' array")))?;
    let mut events = Vec::with_capacity(events_json.len());
    for (i, e) in events_json.iter().enumerate() {
        events.push(event_from_json(e, i)?);
    }
    Ok(Schedule {
        seed: need_u64(&doc, "seed", ctx)?,
        width: need_u64(&doc, "width", ctx)? as u32,
        height: need_u64(&doc, "height", ctx)? as u32,
        workers: need_u64(&doc, "workers", ctx)? as usize,
        cache_budget: need_u64(&doc, "cache_budget", ctx)?,
        buffer_bound: need_u64(&doc, "buffer_bound", ctx)?,
        events,
        expect_violation: doc
            .get("expect_violation")
            .and_then(Json::as_str)
            .map(str::to_string),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_prints_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(
            parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
    }

    #[test]
    fn rejects_floats_and_garbage() {
        assert!(parse("1.5").is_err());
        assert!(parse("1e9").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1,2] x").is_err());
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

    #[test]
    fn an_old_artifacts_shards_key_is_ignored() {
        // Artifacts from before the one-roster flush carry a shard
        // count; unknown keys are ignored, so they replay as they are.
        let old = "{\"seed\": 5, \"width\": 64, \"height\": 48, \"workers\": 1, \"shards\": 8, \
                   \"cache_budget\": 262144, \"buffer_bound\": 98304, \"events\": []}";
        let s = Schedule::base(5);
        assert_eq!(schedule_from_json(old).unwrap(), s);
        assert!(!schedule_to_json(&s).contains("shards"));
    }

    #[test]
    fn every_event_kind_round_trips() {
        let mut s = Schedule::base(9);
        s.expect_violation = Some("convergence".into());
        s.events = vec![
            ChaosEvent::Attach {
                viewport_w: 64,
                viewport_h: 48,
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
        let text = schedule_to_json(&s);
        assert_eq!(schedule_from_json(&text).unwrap(), s);
    }
}
