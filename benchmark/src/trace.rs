//! In-memory span recorder. Spans are taken from the harness's side of
//! every call into a product layer; nothing inside the product is
//! instrumented. Each update has one root span (`update`) and the
//! layer spans are its children, possibly on another thread.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::time::Instant;

pub const ROOT: &str = "update";

/// A monotonic clock shared by every thread of a run, so spans taken
/// on the server thread and the viewer thread are on one time line.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub update: u32,
}

pub struct Recorder {
    pub on: bool,
    pub clock: Clock,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(clock: Clock) -> Self {
        Self {
            on: false,
            clock,
            spans: Vec::new(),
        }
    }

    /// The current time when recording, else 0 (no clock read).
    pub fn t(&self) -> u64 {
        if self.on {
            self.clock.ns()
        } else {
            0
        }
    }

    /// Closes a span opened at `start` and returns its end, which the
    /// caller may use as the start of the span that follows.
    pub fn span(&mut self, name: &'static str, start: u64, update: u32) -> u64 {
        if !self.on {
            return 0;
        }
        let end = self.clock.ns();
        self.spans.push(Span {
            name,
            start,
            end,
            update,
        });
        end
    }
}

pub struct Summary {
    /// Total nanoseconds per child span name.
    pub by_name: BTreeMap<&'static str, u64>,
    /// Sum of the root spans.
    pub root_ns: u64,
    /// Part of the root spans no child span (on any thread) covers.
    pub uncovered_ns: u64,
    pub updates: u64,
}

/// Per-layer totals and the share of each update its children leave
/// uncovered. A child's self time is its own duration (children have
/// no children of their own); the root's self time is what no child
/// covers, taken per update over the union of child intervals because
/// the viewer thread's spans overlap the server thread's.
pub fn summarize(spans: &[Span]) -> Summary {
    let mut by_update: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_update.entry(s.update).or_default().push(s);
    }
    let mut out = Summary {
        by_name: BTreeMap::new(),
        root_ns: 0,
        uncovered_ns: 0,
        updates: 0,
    };
    for group in by_update.values_mut() {
        let Some(root) = group.iter().find(|s| s.name == ROOT) else {
            continue;
        };
        let (rs, re) = (root.start, root.end);
        out.updates += 1;
        out.root_ns += re - rs;
        group.sort_by_key(|s| s.start);
        let (mut covered, mut edge) = (0u64, rs);
        for s in group.iter().filter(|s| s.name != ROOT) {
            *out.by_name.entry(s.name).or_default() += s.end - s.start;
            let (a, b) = (s.start.max(edge), s.end.min(re));
            if b > a {
                covered += b - a;
                edge = b;
            }
        }
        out.uncovered_ns += (re - rs) - covered;
    }
    out
}

/// Writes one JSON object per span: name, start and end in ns since
/// the run's clock started, the parent span's name (null for a root)
/// and the id of the update the span belongs to.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = if s.name == ROOT {
            "null".to_string()
        } else {
            format!("\"{ROOT}\"")
        };
        writeln!(
            w,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"update\":{}}}",
            s.name, s.start, s.end, parent, s.update
        )?;
    }
    w.flush()
}
