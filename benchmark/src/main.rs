//! The THINC benchmark: wall-clock update-to-pixel cost of the real
//! pipeline, five workloads, and a per-layer profile taken from
//! outside the product. See `benchmark/README.md`.

mod fanout;
mod inputs;
mod metrics;
mod replay;
mod rig;
mod socket;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use fanout::FanoutRig;
use inputs::Inputs;
use metrics::{Values, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use rig::{Pass, Rig};
use socket::SocketRig;
use stats::{median, percentile};
use trace::{summarize, Clock};

#[global_allocator]
static GLOBAL: stats::CountingAlloc = stats::CountingAlloc;

const DEFAULT_SEED: u64 = 2005;
/// Digests of every workload's generated request stream at the
/// default seed: `<workload> <fnv-1a 64, hex>` per line.
const INPUTS_LOCK: &str = include_str!("../inputs.lock");
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    Run(Opts),
    SelfTest,
    CheckRepeat(Opts),
    Manifest,
}

fn usage() -> ! {
    eprintln!(
        "usage: run.sh <workload> [--seed S] [--seconds T] [--trace]\n       run.sh --workload <name> --seed <n> --seconds <t> --trace <0|1>\n       run.sh --selftest | --check-repeat [--seed S] [--seconds T] | --manifest\nworkloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    std::process::exit(2)
}

fn parse_args() -> Mode {
    let mut o = Opts {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
    };
    let (mut selftest, mut repeat, mut manifest) = (false, false, false);
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--workload" => o.workload = value("--workload"),
            "--seed" => o.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--seconds" => o.seconds = value("--seconds").parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                o.trace = match args.peek().map(String::as_str) {
                    Some("0") | Some("1") => args.next().as_deref() == Some("1"),
                    _ => true,
                }
            }
            "--selftest" => selftest = true,
            "--check-repeat" => repeat = true,
            "--manifest" => manifest = true,
            name if !name.starts_with('-') && o.workload.is_empty() => {
                o.workload = name.to_string()
            }
            _ => usage(),
        }
    }
    if manifest {
        Mode::Manifest
    } else if selftest {
        Mode::SelfTest
    } else if repeat {
        Mode::CheckRepeat(o)
    } else if WORKLOADS.iter().any(|w| w.name == o.workload) && o.seconds > 0.0 {
        Mode::Run(o)
    } else {
        usage()
    }
}

/// Generates the inputs and builds a warmed rig. Returns the rig, the
/// inputs' digest (`None` unless asked for: hashing is not set-up) and
/// the set-up time in seconds.
fn setup(o: &Opts, clock: Clock, want_digest: bool) -> (Box<dyn Rig>, Option<u64>, f64) {
    let t = Instant::now();
    let inputs = inputs::generate(&o.workload, o.seed).expect("workload name was checked");
    let generated = t.elapsed();
    let digest = want_digest.then(|| inputs.digest());
    let t = Instant::now();
    let rig: Box<dyn Rig> = match inputs {
        Inputs::Socket(s) => Box::new(SocketRig::setup(s, clock, o.trace)),
        Inputs::Fanout(e) => Box::new(FanoutRig::setup(e, clock, o.trace)),
    };
    (rig, digest, (generated + t.elapsed()).as_secs_f64())
}

/// Whether the digest matches the pinned one. Only the default seed is
/// pinned; any other seed passes.
fn inputs_pinned(o: &Opts, digest: u64) -> bool {
    if o.seed != DEFAULT_SEED {
        println!(
            "inputs_digest = {digest:#018x} (seed {} is not pinned)",
            o.seed
        );
        return true;
    }
    let pinned = INPUTS_LOCK
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(name, _)| *name == o.workload)
        .and_then(|(_, hex)| u64::from_str_radix(hex.trim().trim_start_matches("0x"), 16).ok());
    if pinned == Some(digest) {
        println!("inputs_digest = {digest:#018x} (matches inputs.lock)");
        return true;
    }
    println!(
        "inputs_digest = {digest:#018x} DIFFERS from inputs.lock ({}): the generated request stream changed, \
         so these numbers are not comparable with earlier ones. If the change is intended, update benchmark/inputs.lock.",
        pinned.map_or("no entry".to_string(), |p| format!("{p:#018x}"))
    );
    false
}

fn per_pass(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

fn pass_means(passes: &[Pass]) -> String {
    passes
        .iter()
        .map(|p| format!("{:.4}", p.mean_ms()))
        .collect::<Vec<_>>()
        .join(" ")
}

fn per_update_ms(ns: u64, p: &Pass) -> f64 {
    ns as f64 / 1e6 / p.updates.max(1) as f64
}

struct Outcome {
    attempted: u64,
    failed: u64,
    inputs_ok: bool,
    values: Values,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.inputs_ok
    }
}

/// The untraced run: set up three times (the median is `setup_s`),
/// then whole passes on the last set-up until `--seconds` is spent.
fn run_end_to_end(o: &Opts) -> Outcome {
    let clock = Clock::start();
    let (mut rig, digest, first) = setup(o, clock, true);
    let mut setups = vec![first];
    for _ in 1..3 {
        rig.finish(0);
        let (next, _, secs) = setup(o, clock, false);
        rig = next;
        setups.push(secs);
    }
    let inputs_ok = inputs_pinned(o, digest.expect("digest was asked for"));

    let mut passes = vec![rig.pass()];
    let pass_s = passes[0].wall_ns as f64 / 1e9;
    let target = ((o.seconds / pass_s).round() as usize).clamp(3, 500);
    while passes.len() < target {
        passes.push(rig.pass());
    }
    rig.finish(0);

    let updates = passes[0].updates;
    println!(
        "passes = {} timed x {updates} updates (1 warm-up pass per set-up, {} set-ups)",
        passes.len(),
        setups.len()
    );
    println!(
        "wire_digest = {:#018x} (first timed pass)",
        passes[0].wire_digest
    );
    println!("pass means, ms/update: {}", pass_means(&passes));
    let kb: Vec<f64> = passes
        .iter()
        .map(|p| p.wire_bytes as f64 / 1024.0 / p.updates.max(1) as f64)
        .collect();
    if kb.iter().any(|&k| k != kb[0]) {
        println!("note: wire KB/update varies across passes: {:?}", kb);
    }
    let mut values = Values::new();
    values.insert("setup_s", median(&setups));
    values.insert("update_mean_ms", per_pass(&passes, Pass::mean_ms));
    values.insert(
        "update_p90_ms",
        per_pass(&passes, |p| percentile(&p.latencies_ms(), 0.90)),
    );
    values.insert(
        "server_ms_per_update",
        per_pass(&passes, |p| per_update_ms(p.server_ns, p)),
    );
    values.insert(
        "client_ms_per_update",
        per_pass(&passes, |p| per_update_ms(p.client_ns, p)),
    );
    // Exact at a given seed, so taken from one fixed pass.
    values.insert("wire_kb_per_update", kb[0]);
    values.insert("peak_rss_mb", stats::peak_rss_mb());
    Outcome {
        attempted: passes.iter().map(|p| p.updates).sum(),
        failed: passes.iter().map(|p| p.failed).sum(),
        inputs_ok,
        values,
    }
}

/// The traced run: one set-up, then passes with spans on and off in
/// turn (the first traced pass is also recorded for the replay
/// timers; the untraced ones price the tracing), then the replay.
fn run_traced(o: &Opts) -> Outcome {
    let clock = Clock::start();
    let (mut rig, digest, _) = setup(o, clock, true);
    let inputs_ok = inputs_pinned(o, digest.expect("digest was asked for"));
    rig.record_next_pass();
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        rig.set_trace(true);
        traced.push(rig.pass());
        rig.set_trace(false);
        plain.push(rig.pass());
    }
    let allocs = stats::alloc_totals();
    let traced_updates: u64 = traced.iter().map(|p| p.updates).sum();
    let result = rig.finish(traced_updates);

    let path = std::path::Path::new(OUT_DIR).join(format!("trace-{}.jsonl", o.workload));
    match trace::write_jsonl(&path, &result.spans) {
        Ok(()) => println!("trace = {} ({} spans)", path.display(), result.spans.len()),
        Err(e) => println!("trace not written to {}: {e}", path.display()),
    }
    println!(
        "wire_digest = {:#018x} (recorded pass)",
        traced[0].wire_digest
    );

    let sum = summarize(&result.spans);
    let unattributed_pct = 100.0 * sum.uncovered_ns as f64 / sum.root_ns.max(1) as f64;
    let wire_bytes: u64 = traced.iter().map(|p| p.wire_bytes).sum();
    println!(
        "\nlayer spans over {} traced updates (self time; children of `update`):",
        sum.updates
    );
    println!(
        "  {:<26} {:>12} {:>12} {:>8}",
        "span", "us/update", "ns/wire-byte", "share"
    );
    for (name, &ns) in &sum.by_name {
        println!(
            "  {:<26} {:>12.2} {:>12.3} {:>7.1}%",
            name,
            ns as f64 / 1e3 / sum.updates.max(1) as f64,
            ns as f64 / wire_bytes.max(1) as f64,
            100.0 * ns as f64 / sum.root_ns.max(1) as f64
        );
    }
    println!(
        "  {:<26} {:>12.2} {:>12} {:>7.1}%  (no layer span, on any thread)\n",
        "update (self)",
        sum.uncovered_ns as f64 / 1e3 / sum.updates.max(1) as f64,
        "",
        unattributed_pct
    );

    let mut values = result.layers;
    println!(
        "pass means, ms/update: traced {}; untraced {}",
        pass_means(&traced),
        pass_means(&plain)
    );
    let traced_ms = per_pass(&traced, Pass::mean_ms);
    let plain_ms = per_pass(&plain, Pass::mean_ms);
    let latencies: Vec<f64> = plain.iter().flat_map(Pass::latencies_ms).collect();
    values.insert(
        "alloc.count_per_update",
        allocs.0 as f64 / traced_updates.max(1) as f64,
    );
    values.insert(
        "alloc.kb_per_update",
        allocs.1 as f64 / 1024.0 / traced_updates.max(1) as f64,
    );
    values.insert(
        "bench.trace_overhead_pct",
        100.0 * (traced_ms - plain_ms) / plain_ms,
    );
    values.insert("bench.unattributed_pct", unattributed_pct);
    values.insert("bench.update_p50_ms", percentile(&latencies, 0.50));
    values.insert("bench.update_p99_ms", percentile(&latencies, 0.99));
    let all = traced.iter().chain(&plain);
    Outcome {
        attempted: all.clone().map(|p| p.updates).sum(),
        failed: all.map(|p| p.failed).sum(),
        inputs_ok,
        values,
    }
}

/// Prints every metric by name with its unit, then the result line.
fn report(o: &Opts, out: &Outcome) {
    let table: Vec<(&str, &str)> = if o.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut json = Vec::new();
    for (name, unit) in table {
        let v = out.values.get(name).copied();
        match v {
            Some(v) => println!("{name} = {v} {unit}"),
            None => println!("{name} = n/a ({unit}; this workload does not exercise it)"),
        }
        let v = v.unwrap_or(0.0);
        json.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "updates attempted = {}, failed = {}",
        out.attempted, out.failed
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        json.join(", ")
    );
}

fn run(o: &Opts) -> ExitCode {
    println!(
        "thinc-benchmark: workload {} seed {} seconds {} trace {} (nproc {})",
        o.workload,
        o.seed,
        o.seconds,
        o.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let out = if o.trace {
        run_traced(o)
    } else {
        run_end_to_end(o)
    };
    report(o, &out);
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A clean short run must report no failures; the same run with one
/// byte flipped on the wire must report some (and so exit nonzero).
fn selftest() -> ExitCode {
    let one_pass = |flip: Option<u64>| {
        let mut rig = Box::new(SocketRig::setup(
            inputs::desktop(DEFAULT_SEED, 40),
            Clock::start(),
            false,
        ));
        if let Some(offset) = flip {
            rig.flip_byte_after(offset);
        }
        let pass = rig.pass();
        rig.finish(0);
        pass
    };
    let clean = one_pass(None);
    println!(
        "selftest clean:   {} updates, {} failed",
        clean.updates, clean.failed
    );
    let damaged = one_pass(Some(clean.wire_bytes / 2));
    println!(
        "selftest damaged: {} updates, {} failed (one byte flipped mid-pass)",
        damaged.updates, damaged.failed
    );
    if clean.failed == 0 && damaged.failed > 0 {
        println!("selftest ok: a damaged stream is reported as failed updates, and a run with failed updates exits nonzero");
        ExitCode::SUCCESS
    } else {
        println!("selftest FAILED");
        ExitCode::FAILURE
    }
}

/// Metrics that must repeat exactly from run to run.
const EXACT: [&str; 7] = [
    "wire_kb_per_update",
    "wire_digest",
    "inputs_digest",
    "display.requests",
    "core.translator.commands",
    "core.buffer.messages",
    "protocol.wire.frames",
];

/// Runs this binary on one workload and returns its `name = value`
/// lines.
fn child_run(o: &Opts, workload: &str, trace: bool) -> Option<Vec<(String, String)>> {
    let exe = std::env::current_exe().ok()?;
    let output = std::process::Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &o.seed.to_string(),
            "--seconds",
            &o.seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&output.stdout);
    Some(
        text.lines()
            .filter_map(|l| l.split_once(" = "))
            .map(|(name, rest)| {
                (
                    name.trim().to_string(),
                    rest.split_whitespace().next().unwrap_or("").to_string(),
                )
            })
            .collect(),
    )
}

/// Every workload twice, untraced and traced: end-to-end metrics must
/// agree within their bounds, exact metrics must not differ at all.
fn check_repeat(o: &Opts) -> ExitCode {
    let mut ok = true;
    for w in &WORKLOADS {
        for trace in [false, true] {
            let (Some(a), Some(b)) = (child_run(o, w.name, trace), child_run(o, w.name, trace))
            else {
                println!("{} trace {}: a run failed", w.name, trace as u8);
                ok = false;
                continue;
            };
            for ((name, va), (_, vb)) in a.iter().zip(&b) {
                let exact = EXACT.contains(&name.as_str())
                    || name.starts_with("protocol.cache.")
                    || name.starts_with("core.plane.");
                let bound = END_TO_END.iter().find(|m| m.name == name).map(|m| m.bound);
                let verdict = if exact {
                    (va == vb).then_some("identical")
                } else if let (Some(bound), Ok(x), Ok(y)) =
                    (bound, va.parse::<f64>(), vb.parse::<f64>())
                {
                    ((x - y).abs() / x.min(y) <= bound).then_some("within bound")
                } else {
                    continue;
                };
                println!(
                    "{:<10} {:<28} {:>22} {:>22}  {}",
                    w.name,
                    name,
                    va,
                    vb,
                    verdict.unwrap_or("DIFFERS")
                );
                ok &= verdict.is_some();
            }
        }
    }
    println!("check-repeat {}", if ok { "ok" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    match parse_args() {
        Mode::Run(o) => run(&o),
        Mode::SelfTest => selftest(),
        Mode::CheckRepeat(o) => check_repeat(&o),
        Mode::Manifest => {
            print!("{}", metrics::manifest_json());
            ExitCode::SUCCESS
        }
    }
}
