//! The `chaos` CLI: generate, run, soak, replay and emit chaos
//! schedules against the THINC virtual display stack.
//!
//! ```text
//! chaos gen    --seed N [--events N]            print a generated schedule as JSON
//! chaos run    --seed N [--events N] [--workers N] [--shards N] [--out FILE]
//!              [--schedule FILE]                run one seed (or a schedule file);
//!                                               on failure shrink and write a
//!                                               minimized repro artifact
//! chaos soak   [--seeds a,b,lo..hi] [--workers a,b,..] [--shards a,b,..] [--events N]
//!              [--out-dir DIR]                  run a seed x worker x shard matrix
//!                                               (ranges are inclusive)
//! chaos replay FILE                             re-run a schedule artifact; exit 0
//!                                               iff the outcome matches its
//!                                               expect_violation field
//! chaos emit   NAME                             print a checked-in exemplar schedule
//!                                               (quarantine | sabotage | length-stall |
//!                                               cache-rescale | crash-failover |
//!                                               resize-failover)
//! ```
//!
//! Every run is virtual-time, seeded and deterministic: the same
//! invocation prints the same verdicts on any machine.

use thinc_chaos::event::{ChaosEvent, Schedule, Workload};
use thinc_chaos::{generate, invariant, run, schedule_from_json, schedule_to_json, shrink};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("soak") => cmd_soak(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("emit") => cmd_emit(&args[1..]),
        _ => {
            eprintln!(
                "usage: chaos <gen|run|soak|replay|emit> [options]\n\
                 invariants: {}",
                invariant::ALL.join(", ")
            );
            2
        }
    };
    std::process::exit(code);
}

/// Pulls `--name value` out of an option list (last wins).
fn opt<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let mut found = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == name {
            found = it.next().map(String::as_str);
        }
    }
    found
}

fn opt_u64(args: &[String], name: &str, default: u64) -> u64 {
    opt(args, name).and_then(|v| v.parse().ok()).unwrap_or(default)
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

fn cmd_gen(args: &[String]) -> i32 {
    let seed = opt_u64(args, "--seed", 1);
    let events = opt_u64(args, "--events", 60) as usize;
    println!("{}", schedule_to_json(&generate(seed, events)));
    0
}

/// Runs one schedule; on failure shrinks the first violated
/// invariant and writes the minimized artifact.
fn run_and_report(schedule: &Schedule, artifact: Option<&std::path::Path>) -> bool {
    let report = run(schedule);
    println!(
        "seed {} workers {} shards {}: {}",
        schedule.seed,
        schedule.workers,
        schedule.shards,
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

fn cmd_run(args: &[String]) -> i32 {
    let mut schedule = match opt(args, "--schedule") {
        Some(path) => match load_schedule(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        },
        None => {
            let seed = opt_u64(args, "--seed", 1);
            let events = opt_u64(args, "--events", 60) as usize;
            generate(seed, events)
        }
    };
    schedule.workers = opt_u64(args, "--workers", schedule.workers as u64) as usize;
    schedule.shards = opt_u64(args, "--shards", schedule.shards as u64).max(1) as usize;
    let default_out = format!("chaos-repro-{}.json", schedule.seed);
    let out = opt(args, "--out").unwrap_or(&default_out);
    if run_and_report(&schedule, Some(std::path::Path::new(out))) {
        0
    } else {
        1
    }
}

fn cmd_soak(args: &[String]) -> i32 {
    // Items are numbers or inclusive ranges: `1,7,100..400`.
    let parse_list = |s: &str, default: Vec<u64>| -> Vec<u64> {
        let v: Vec<u64> = s
            .split(',')
            .filter_map(|p| {
                let p = p.trim();
                let (lo, hi) = p.split_once("..").unwrap_or((p, p));
                Some(lo.parse().ok()?..=hi.parse().ok()?)
            })
            .flatten()
            .collect();
        if v.is_empty() {
            default
        } else {
            v
        }
    };
    let seeds = parse_list(
        opt(args, "--seeds").unwrap_or(""),
        vec![1, 7, 42, 0xDEADBEEF],
    );
    let workers = parse_list(opt(args, "--workers").unwrap_or(""), vec![1, 4]);
    let shards = parse_list(opt(args, "--shards").unwrap_or(""), vec![1]);
    let events = opt_u64(args, "--events", 60) as usize;
    let out_dir = opt(args, "--out-dir").unwrap_or(".").to_string();
    let _ = std::fs::create_dir_all(&out_dir);
    let mut failures = 0usize;
    let mut total = 0usize;
    for &seed in &seeds {
        for &w in &workers {
            for &sh in &shards {
                total += 1;
                let mut schedule = generate(seed, events);
                schedule.workers = w as usize;
                schedule.shards = (sh as usize).max(1);
                let artifact = std::path::PathBuf::from(&out_dir)
                    .join(format!("chaos-repro-{seed}-w{w}-s{sh}.json"));
                if !run_and_report(&schedule, Some(&artifact)) {
                    failures += 1;
                }
            }
        }
    }
    println!("soak: {}/{} runs passed", total - failures, total);
    if failures == 0 {
        0
    } else {
        1
    }
}

fn cmd_replay(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!("usage: chaos replay <schedule.json>");
        return 2;
    };
    let schedule = match load_schedule(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let report = run(&schedule);
    println!("{path}: {}", report.summary());
    let ok = match schedule.expect_violation.as_deref() {
        None => report.passed(),
        Some(inv) => report.violated(inv),
    };
    if ok {
        println!(
            "outcome matches expectation ({})",
            schedule
                .expect_violation
                .as_deref()
                .unwrap_or("all invariants hold")
        );
        0
    } else {
        for v in &report.violations {
            println!("  {v}");
        }
        eprintln!(
            "outcome does NOT match expectation ({:?})",
            schedule.expect_violation
        );
        1
    }
}

fn cmd_emit(args: &[String]) -> i32 {
    let Some(name) = args.first().map(String::as_str) else {
        eprintln!(
            "usage: chaos emit <quarantine|sabotage|length-stall|cache-rescale|crash-failover|resize-failover>"
        );
        return 2;
    };
    let Some(schedule) = exemplar(name) else {
        eprintln!(
            "unknown exemplar {name:?} (quarantine | sabotage | length-stall | cache-rescale | crash-failover | resize-failover)"
        );
        return 2;
    };
    println!("{}", schedule_to_json(&schedule));
    0
}

/// The checked-in exemplar schedules under `crates/chaos/schedules/`
/// are regenerated from here, so the repo artifacts never drift from
/// the code that explains them.
fn exemplar(name: &str) -> Option<Schedule> {
    let attach = ChaosEvent::Attach {
        viewport_w: 64,
        viewport_h: 48,
    };
    let flush = ChaosEvent::Flush {
        epochs: 3,
        step_ms: 50,
    };
    let draw = |x: i32, y: i32, salt: u64| ChaosEvent::Draw {
        workload: Workload::Noise,
        x,
        y,
        w: 24,
        h: 16,
        salt,
    };
    let tile = |salt: u64| ChaosEvent::Draw {
        workload: Workload::Tile,
        x: ((salt % 4) * 16) as i32,
        y: 8,
        w: 16,
        h: 16,
        salt,
    };
    match name {
        // A poisoned flush quarantines exactly one client while the
        // other keeps converging: expected to PASS, with the
        // containment visible in the report.
        "quarantine" => Some(Schedule::base(0xC0).with_events(vec![
            attach.clone(),
            attach,
            draw(0, 0, 11),
            flush.clone(),
            ChaosEvent::PoisonFlush { slot: 1 },
            flush.clone(),
            draw(20, 12, 12),
            flush,
            ChaosEvent::Quiesce,
        ])),
        // A silent local pixel flip: expected to FAIL convergence —
        // the checked-in proof that the invariant checker catches a
        // real divergence.
        "sabotage" => {
            let mut s = Schedule::base(0x5A).with_events(vec![
                attach,
                draw(8, 8, 21),
                flush,
                ChaosEvent::SabotagePixel { slot: 0 },
                ChaosEvent::Quiesce,
            ]);
            s.expect_violation = Some(invariant::CONVERGENCE.to_string());
            Some(s)
        }
        // Regression guard for the framing-stall watchdog, shrunk by
        // the engine from soak seed 1234: corruption flips a frame's
        // length field without tripping the tag or CRC checks, so the
        // reader waits forever on a phantom frame and silently
        // swallows the final draw. Expected to PASS (before the
        // watchdog the client diverged by exactly the draw rect).
        "length-stall" => {
            let mut s = Schedule::base(1234).with_events(vec![
                attach.clone(),
                attach.clone(),
                attach.clone(),
                ChaosEvent::Disconnect { slot: 2 },
                ChaosEvent::Reconnect { slot: 2 },
                ChaosEvent::Fault {
                    slot: 2,
                    kind: thinc_chaos::FaultKind::Corruption,
                    offset_ms: 1,
                    len_ms: 312,
                    rate_pct: 43,
                },
                ChaosEvent::Fault {
                    slot: 2,
                    kind: thinc_chaos::FaultKind::Collapse,
                    offset_ms: 4,
                    len_ms: 217,
                    rate_pct: 15,
                },
                ChaosEvent::Quiesce,
                ChaosEvent::Fault {
                    slot: 2,
                    kind: thinc_chaos::FaultKind::Corruption,
                    offset_ms: 3,
                    len_ms: 64,
                    rate_pct: 32,
                },
                ChaosEvent::Draw {
                    workload: Workload::Solid,
                    x: 36,
                    y: 12,
                    w: 15,
                    h: 26,
                    salt: 16632385668536460075,
                },
                ChaosEvent::Flush {
                    epochs: 1,
                    step_ms: 28,
                },
            ]);
            s.workers = 3;
            Some(s)
        }
        // Regression guard for the rescale-drops-queued-fallbacks
        // fix: cached tiles, wire corruption provoking cache misses,
        // then a viewport resize racing the queued fallbacks.
        // Expected to PASS (it did not before the fix).
        "cache-rescale" => Some(Schedule::base(0xCA).with_events(vec![
            attach,
            tile(0),
            tile(1),
            flush.clone(),
            tile(0),
            ChaosEvent::Fault {
                slot: 0,
                kind: thinc_chaos::FaultKind::Corruption,
                offset_ms: 0,
                len_ms: 300,
                rate_pct: 30,
            },
            tile(1),
            tile(2),
            flush.clone(),
            ChaosEvent::Resize {
                slot: 0,
                viewport_w: 32,
                viewport_h: 24,
            },
            tile(3),
            flush.clone(),
            tile(0),
            flush,
            ChaosEvent::Quiesce,
        ])),
        // The warm-failover exercise, run on the sharded flush path:
        // a crash-instant takeover with undelivered buffers in the
        // image, then a stale-image failover from the previous
        // quiesce — both must redial every client and converge
        // byte-exact. Expected to PASS.
        "crash-failover" => {
            let mut s = Schedule::base(0xFA11).with_events(vec![
                attach.clone(),
                attach,
                tile(0),
                draw(4, 4, 41),
                flush.clone(),
                ChaosEvent::Quiesce,
                draw(28, 16, 42),
                ChaosEvent::ServerCrash,
                flush.clone(),
                tile(1),
                flush.clone(),
                ChaosEvent::Failover,
                flush,
                ChaosEvent::Quiesce,
            ]);
            s.shards = 2;
            Some(s)
        }
        // Regression guard for the viewport rule of the redial ladder,
        // shrunk by the engine from soak seed 123: a viewer resizes
        // after the last quiesce, then the server fails over to the
        // image taken at that quiesce, in which the viewer still has
        // its old viewport. The redial's hello re-announces the new
        // one before the token is judged, so the standby serves it at
        // 32x24. Expected to PASS (it diverged while the runner owned
        // the redial and skipped the hello).
        "resize-failover" => Some(Schedule::base(123).with_events(vec![
            attach.clone(),
            attach.clone(),
            attach,
            ChaosEvent::Draw {
                workload: Workload::Noise,
                x: 1,
                y: 7,
                w: 25,
                h: 31,
                salt: 17551922702912180007,
            },
            ChaosEvent::Quiesce,
            ChaosEvent::Resize {
                slot: 2,
                viewport_w: 32,
                viewport_h: 24,
            },
            ChaosEvent::Failover,
        ])),
        _ => None,
    }
}
