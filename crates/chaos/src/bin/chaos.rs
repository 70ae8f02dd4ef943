//! The `chaos` CLI: generate, run, soak and replay chaos schedules
//! against the THINC virtual display stack.
//!
//! ```text
//! chaos gen    --seed N [--events N]            print a generated schedule as JSON
//! chaos run    --seed N [--events N] [--workers N] [--out FILE]
//!              [--schedule FILE]                run one seed (or a schedule file);
//!                                               on failure shrink and write a
//!                                               minimized repro artifact
//! chaos soak   [--seeds a,b,lo..hi] [--workers a,b,..] [--events N]
//!              [--out-dir DIR]                  run a seed x worker matrix
//!                                               (ranges are inclusive)
//! chaos replay FILE                             re-run a schedule artifact; exit 0
//!                                               iff the outcome matches its
//!                                               expect_violation field
//! ```
//!
//! Every run is virtual-time, seeded and deterministic: the same
//! invocation prints the same verdicts on any machine. An option the
//! subcommand does not take, or a value that does not parse, exits 2
//! with one diagnostic line before anything runs.

use thinc_chaos::event::Schedule;
use thinc_chaos::{generate, invariant, run, schedule_from_json, schedule_to_json, shrink};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let result = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(rest),
        Some("run") => cmd_run(rest),
        Some("soak") => cmd_soak(rest),
        Some("replay") => cmd_replay(rest),
        _ => Err(format!(
            "usage: chaos <gen|run|soak|replay> [options]; invariants: {}",
            invariant::ALL.join(", ")
        )),
    };
    std::process::exit(result.unwrap_or_else(|e| {
        eprintln!("{e}");
        2
    }));
}

/// A subcommand's `--name value` pairs, checked against the names it
/// takes (last wins).
struct Opts<'a>(Vec<(&'a str, &'a str)>);

impl<'a> Opts<'a> {
    /// Refuses a name the subcommand does not take and a name without
    /// a value: a mistyped or retired option never runs as a default.
    fn parse(args: &'a [String], known: &[&str]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(name) = it.next() {
            if !known.contains(&name.as_str()) {
                return Err(format!("unknown option {name:?} (takes {})", known.join(" ")));
            }
            let value = it.next().ok_or_else(|| format!("{name} needs a value"))?;
            pairs.push((name.as_str(), value.as_str()));
        }
        Ok(Self(pairs))
    }

    fn get(&self, name: &str) -> Option<&'a str> {
        self.0.iter().rev().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    fn num(&self, name: &str, default: u64) -> Result<u64, String> {
        self.get(name).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("{name} {v:?}: not a number"))
        })
    }

    /// A list of numbers and inclusive ranges: `1,7,100..400`.
    fn list(&self, name: &str, default: Vec<u64>) -> Result<Vec<u64>, String> {
        let Some(v) = self.get(name) else {
            return Ok(default);
        };
        let bad = || format!("{name} {v:?}: want numbers or ranges lo..hi, comma-separated");
        let mut out = Vec::new();
        for item in v.split(',') {
            let item = item.trim();
            let (lo, hi) = item.split_once("..").unwrap_or((item, item));
            let lo: u64 = lo.parse().map_err(|_| bad())?;
            let hi: u64 = hi.parse().map_err(|_| bad())?;
            if lo > hi {
                return Err(bad());
            }
            out.extend(lo..=hi);
        }
        Ok(out)
    }
}

/// Reads and parses a schedule artifact, mapping either failure to a
/// one-line diagnostic naming the path and the cause — the shared
/// front door for every subcommand that takes a schedule file, so a
/// missing or corrupt artifact is always a clean nonzero exit, never
/// a panic.
fn load_schedule(path: &str) -> Result<Schedule, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    schedule_from_json(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn cmd_gen(args: &[String]) -> Result<i32, String> {
    let o = Opts::parse(args, &["--seed", "--events"])?;
    let schedule = generate(o.num("--seed", 1)?, o.num("--events", 60)? as usize);
    println!("{}", schedule_to_json(&schedule));
    Ok(0)
}

/// Runs one schedule; on failure shrinks the first violated
/// invariant and writes the minimized artifact.
fn run_and_report(schedule: &Schedule, artifact: Option<&std::path::Path>) -> bool {
    let report = run(schedule);
    println!(
        "seed {} workers {}: {}",
        schedule.seed,
        schedule.workers,
        report.summary()
    );
    if report.passed() {
        return true;
    }
    for v in &report.violations {
        println!("  {v}");
    }
    let failing = report.violations[0].invariant.clone();
    eprintln!("shrinking against [{failing}]...");
    let minimal = shrink(schedule, &failing);
    eprintln!(
        "minimized to {} event(s): {:?}",
        minimal.events.len(),
        minimal.events.iter().map(|e| e.tag()).collect::<Vec<_>>()
    );
    let json = schedule_to_json(&minimal);
    match artifact {
        Some(path) => match std::fs::write(path, &json) {
            Ok(()) => eprintln!("repro artifact written to {}", path.display()),
            Err(e) => {
                eprintln!("could not write {}: {e}; artifact follows", path.display());
                println!("{json}");
            }
        },
        None => println!("{json}"),
    }
    false
}

fn cmd_run(args: &[String]) -> Result<i32, String> {
    let o = Opts::parse(args, &["--seed", "--events", "--workers", "--out", "--schedule"])?;
    let mut schedule = match o.get("--schedule") {
        Some(path) => load_schedule(path)?,
        None => generate(o.num("--seed", 1)?, o.num("--events", 60)? as usize),
    };
    schedule.workers = o.num("--workers", schedule.workers as u64)? as usize;
    let default_out = format!("chaos-repro-{}.json", schedule.seed);
    let out = o.get("--out").unwrap_or(&default_out);
    Ok(if run_and_report(&schedule, Some(std::path::Path::new(out))) { 0 } else { 1 })
}

fn cmd_soak(args: &[String]) -> Result<i32, String> {
    let o = Opts::parse(args, &["--seeds", "--workers", "--events", "--out-dir"])?;
    let seeds = o.list("--seeds", vec![1, 7, 42, 0xDEADBEEF])?;
    let workers = o.list("--workers", vec![1, 4])?;
    let events = o.num("--events", 60)? as usize;
    let out_dir = o.get("--out-dir").unwrap_or(".");
    let _ = std::fs::create_dir_all(out_dir);
    let mut failures = 0usize;
    let mut total = 0usize;
    for &seed in &seeds {
        for &w in &workers {
            total += 1;
            let mut schedule = generate(seed, events);
            schedule.workers = w as usize;
            let artifact =
                std::path::PathBuf::from(out_dir).join(format!("chaos-repro-{seed}-w{w}.json"));
            if !run_and_report(&schedule, Some(&artifact)) {
                failures += 1;
            }
        }
    }
    println!("soak: {}/{} runs passed", total - failures, total);
    Ok(if failures == 0 { 0 } else { 1 })
}

fn cmd_replay(args: &[String]) -> Result<i32, String> {
    let path = args.first().ok_or("usage: chaos replay <schedule.json>")?;
    let schedule = load_schedule(path)?;
    let report = run(&schedule);
    println!("{path}: {}", report.summary());
    let expected = schedule.expect_violation.as_deref();
    if report.matches(expected) {
        println!("outcome matches expectation ({})", expected.unwrap_or("all invariants hold"));
        return Ok(0);
    }
    for v in &report.violations {
        println!("  {v}");
    }
    eprintln!("outcome does NOT match expectation ({expected:?})");
    Ok(1)
}
