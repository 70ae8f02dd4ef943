//! Structure checks that run with the tests.
//!
//! The CI workflow gates many behaviours on a named test:
//! `cargo test -p PKG --lib NAME` or `--test TARGET NAME`. Cargo runs
//! zero tests and exits 0 when NAME matches nothing, so renaming or
//! deleting a gated test silently drops its gate. These checks read
//! `.github/workflows/ci.yml` and the source tree with `std::fs` and
//! fail when a gate names a test target that is not a file, or a
//! filter that no test function in its package can match.
//!
//! They also hold deletions: a name that must not come back. Each
//! needle is built with `concat!`, so this file does not match itself.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// One `cargo test` command of the workflow.
#[derive(Debug, Default)]
struct Invocation {
    line: usize,
    /// `-p` package, `None` for the root package.
    package: Option<String>,
    workspace: bool,
    /// `--test` targets.
    targets: Vec<String>,
    /// Name filters (before or after `--`).
    filters: Vec<String>,
}

/// Every `cargo test` command in `ci.yml`, one per line.
fn invocations(ci: &str) -> Vec<Invocation> {
    let mut out = Vec::new();
    for (i, line) in ci.lines().enumerate() {
        let Some(at) = line.find("cargo test").filter(|_| !line.trim_start().starts_with('#')) else {
            continue;
        };
        let mut inv = Invocation { line: i + 1, ..Invocation::default() };
        let mut tokens = line[at + "cargo test".len()..].split_whitespace();
        let mut harness = false;
        while let Some(token) = tokens.next() {
            match token {
                "--" => harness = true,
                "-p" | "--package" if !harness => inv.package = tokens.next().map(str::to_owned),
                "--test" if !harness => inv.targets.extend(tokens.next().map(str::to_owned)),
                "--workspace" if !harness => inv.workspace = true,
                flag if flag.starts_with('-') => {}
                filter => inv.filters.push(filter.to_owned()),
            }
        }
        out.push(inv);
    }
    out
}

/// `crates/NAME` for the package `thinc-NAME`; the root for the root
/// package.
fn package_root(inv: &Invocation) -> PathBuf {
    match &inv.package {
        Some(name) => {
            let dir = name.strip_prefix("thinc-").unwrap_or_else(|| panic!("unknown package {name}"));
            root().join("crates").join(dir)
        }
        None => root().to_path_buf(),
    }
}

/// The directories whose functions a filter of `inv` can match.
fn source_dirs(inv: &Invocation) -> Vec<PathBuf> {
    match (inv.workspace, &inv.package) {
        (true, _) => vec![root().join("crates"), root().join("src"), root().join("tests")],
        (false, Some(_)) => vec![package_root(inv)],
        (false, None) => vec![root().join("src"), root().join("tests")],
    }
}

/// Every file under `dir`, recursively.
fn files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            files(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// The identifiers that follow `keyword ` in `src` as a whole word.
fn declared(src: &str, keyword: &str, into: &mut BTreeSet<String>) {
    let pattern = format!("{keyword} ");
    let mut from = 0;
    while let Some(at) = src[from..].find(&pattern) {
        let start = from + at;
        from = start + pattern.len();
        let word_start = src[..start].chars().next_back().is_none_or(|c| !(c.is_alphanumeric() || c == '_'));
        let name: String =
            src[from..].chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
        if word_start && !name.is_empty() {
            into.insert(name);
        }
    }
}

/// Function names and module names (`mod` items, files and
/// directories) of the packages `inv` runs.
fn names(inv: &Invocation) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut all = Vec::new();
    for dir in source_dirs(inv) {
        files(&dir, &mut all);
    }
    let (mut fns, mut mods) = (BTreeSet::new(), BTreeSet::new());
    for file in all.iter().filter(|f| f.extension().is_some_and(|e| e == "rs")) {
        let src = fs::read_to_string(file).unwrap_or_default();
        declared(&src, "fn", &mut fns);
        declared(&src, "mod", &mut mods);
        let stem = file.file_stem().unwrap().to_string_lossy().into_owned();
        mods.insert(stem);
        if let Some(parent) = file.parent().and_then(Path::file_name) {
            mods.insert(parent.to_string_lossy().into_owned());
        }
    }
    (fns, mods)
}

/// Whether `filter` can match a test: a substring of some function
/// name, or a `module::...::name` path whose modules exist and whose
/// last segment, if any, is a substring of some function name.
fn matches(filter: &str, fns: &BTreeSet<String>, mods: &BTreeSet<String>) -> bool {
    let segments: Vec<&str> = filter.split("::").collect();
    let (last, path) = segments.split_last().expect("split yields one segment at least");
    path.iter().all(|m| mods.contains(*m)) && (last.is_empty() || fns.iter().any(|f| f.contains(last)))
}

fn workflow() -> String {
    fs::read_to_string(root().join(".github/workflows/ci.yml")).expect("read ci.yml")
}

#[test]
fn every_test_target_the_workflow_names_is_a_file() {
    let ci = workflow();
    let mut missing = Vec::new();
    let mut checked = 0;
    for inv in invocations(&ci) {
        for target in &inv.targets {
            let dir = package_root(&inv).join("tests");
            let found = dir.join(format!("{target}.rs")).is_file() || dir.join(target).join("main.rs").is_file();
            if !found {
                missing.push(format!("ci.yml:{}: --test {target} (no {}/{target}.rs)", inv.line, dir.display()));
            }
            checked += 1;
        }
    }
    assert!(checked >= 10, "only {checked} --test targets found: is ci.yml still parsed?");
    assert!(missing.is_empty(), "test targets gated in CI that do not exist:\n{}", missing.join("\n"));
}

#[test]
fn every_test_filter_the_workflow_names_matches_a_test_function() {
    let ci = workflow();
    let mut unmatched = Vec::new();
    let mut checked = 0;
    for inv in invocations(&ci) {
        if inv.filters.is_empty() {
            continue;
        }
        let (fns, mods) = names(&inv);
        for filter in &inv.filters {
            if !matches(filter, &fns, &mods) {
                let package = inv.package.as_deref().unwrap_or("the root package");
                unmatched.push(format!("ci.yml:{}: `{filter}` matches no fn in {package}", inv.line));
            }
            checked += 1;
        }
    }
    assert!(checked >= 25, "only {checked} filters found: is ci.yml still parsed?");
    assert!(
        unmatched.is_empty(),
        "CI gates on test names that match nothing (cargo would run 0 tests and pass):\n{}",
        unmatched.join("\n")
    );
}

#[test]
fn the_parser_reads_targets_and_filters_on_both_sides_of_the_separator() {
    let ci = "run: cargo test --release -p thinc-core --lib -- a b\n  cargo test --test scheduler_correctness c\n";
    let invs = invocations(ci);
    assert_eq!(invs.len(), 2);
    assert_eq!(invs[0].package.as_deref(), Some("thinc-core"));
    assert_eq!(invs[0].filters, ["a", "b"]);
    assert_eq!((invs[1].package.as_deref(), &invs[1].targets[..]), (None, &["scheduler_correctness".to_owned()][..]));
    assert_eq!(invs[1].filters, ["c"]);
    let fns: BTreeSet<String> = ["a_miss_repaints".to_owned()].into();
    let mods: BTreeSet<String> = ["scale".to_owned(), "session_of_one".to_owned()].into();
    assert!(matches("scale::", &fns, &mods));
    assert!(matches("session_of_one::a_miss", &fns, &mods));
    assert!(!matches("zoom::a_miss", &fns, &mods));
    assert!(!matches("a_hit", &fns, &mods));
}

/// Every line of `paths` that contains one of `needles`, as
/// `path:line: text`.
fn lines_naming(paths: &[PathBuf], needles: &[&str]) -> Vec<String> {
    lines_where(paths, |line| needles.iter().any(|n| line.contains(n)))
}

/// Every line of `paths` that contains one of `words` as a whole word,
/// as `path:line: text`.
fn lines_naming_words(paths: &[PathBuf], words: &[&str]) -> Vec<String> {
    lines_where(paths, |line| words.iter().any(|w| has_word(line, w)))
}

/// Every line of `paths` that `hit` holds for, as `path:line: text`.
fn lines_where(paths: &[PathBuf], hit: impl Fn(&str) -> bool) -> Vec<String> {
    let mut hits = Vec::new();
    for path in paths {
        let bytes = fs::read(path).unwrap_or_default();
        for (i, line) in String::from_utf8_lossy(&bytes).lines().enumerate() {
            if hit(line) {
                let shown = path.strip_prefix(root()).unwrap_or(path).display();
                hits.push(format!("{shown}:{}: {}", i + 1, line.trim()));
            }
        }
    }
    hits
}

#[test]
fn the_report_replays_schedules_and_figures_builds_no_session() {
    let figures = [root().join("crates/bench/src/bin/figures.rs")];
    assert!(figures[0].is_file(), "no {}", figures[0].display());
    let hits = lines_naming(&figures, &[concat!("Shared", "Session"), concat!("Sharded", "Manager")]);
    assert!(
        hits.is_empty(),
        "PR 39 made the telemetry report's hostile-WAN and failover sections and the fan-out figure \
         replay checked-in chaos schedules through thinc_chaos::run; figures builds a session by hand again:\n{}",
        hits.join("\n")
    );
}

#[test]
fn one_viewer_path_and_no_second_client() {
    let all = files_under(&["crates", "tests", "examples"]);
    assert!(all.len() >= 100, "only {} files under crates, tests and examples", all.len());
    let hits = lines_naming(&all, &[concat!("Headless", "Client"), concat!("Hardware", "Caps")]);
    assert!(
        hits.is_empty(),
        "PR 30 gave the harness one viewer, a StreamClient fed the wire through pump_wire; a \
         message-level second client or a second hardware capability set is back:\n{}",
        hits.join("\n")
    );
}

/// Whether `word` occurs in `line` with no identifier character
/// (letter, digit, `_`) on either side.
fn has_word(line: &str, word: &str) -> bool {
    let ident = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    line.match_indices(word).any(|(at, _)| {
        !ident(line[..at].chars().next_back()) && !ident(line[at + word.len()..].chars().next())
    })
}

/// Every file under the repository directories `dirs`.
fn files_under(dirs: &[&str]) -> Vec<PathBuf> {
    let mut all = Vec::new();
    for dir in dirs {
        assert!(root().join(dir).is_dir(), "no {dir}");
        files(&root().join(dir), &mut all);
    }
    all
}

#[test]
fn whole_words_are_told_from_longer_identifiers() {
    assert!(has_word("let fallbacks = 1;", "fallbacks"));
    assert!(has_word("fallbacks", "fallbacks"));
    assert!(!has_word("stats.raw_fallbacks += 1", "fallbacks"));
    assert!(!has_word("cold_fallbacks2", "fallbacks"));
    assert!(has_word("x.raw_fallbacks + fallbacks", "fallbacks"));
    assert!(has_word("    quarantined: bool,", "quarantined: bool"));
    assert!(!has_word("    not_quarantined: bool,", "quarantined: bool"));
}

#[test]
fn no_caller_side_framing() {
    let all = files_under(&["crates/chaos/src", "crates/bench/src", "tests", "examples"]);
    let hits = lines_naming(&all, &[concat!("Frame", "Encoder")]);
    assert!(
        hits.is_empty(),
        "PR 17 gave each viewer's end of the wire to its Delivery (per-viewer framing, uplink \
         dispatch and the redial ladder); a harness that builds its own frame encoder is growing \
         a second copy:\n{}",
        hits.join("\n")
    );
}

#[test]
fn no_replay_of_a_missed_frame() {
    // Whole words: `raw_fallbacks` and `cold_fallbacks` count other
    // things.
    let all = files_under(&["crates/core/src", "crates/chaos/src"]);
    let words = [
        concat!("fall", "backs"),
        concat!("fall", "backs_pending"),
        concat!("ship_", "fallbacks"),
        concat!("satisfy_", "cache_miss"),
    ];
    let hits = lines_naming_words(&all, &words);
    assert!(
        hits.is_empty(),
        "PR 37 answered a cache miss from the screen (the entry is forgotten and the view owed \
         as refresh debt); a queue of original payloads answering misses is back:\n{}",
        hits.join("\n")
    );
}

#[test]
fn one_phase_per_end() {
    let all = files_under(&["crates/client/src", "crates/core/src"]);
    let flags = [
        concat!("needs_", "refresh: bool"),
        concat!("resume_", "pending: bool"),
        concat!("hello_", "awaited: bool"),
        concat!("refresh_", "owed: bool"),
        concat!("delta_", "owed: bool"),
        concat!("quaran", "tined: bool"),
    ];
    let hits = lines_naming_words(&all, &flags);
    assert!(
        hits.is_empty(),
        "PR 41 gave each end of a viewer's connection one phase value (the client's Link beside \
         its display, the server's Phase per viewer) and one match over it, walked against \
         docs/PROTOCOL.md section 3; a boolean phase flag is back beside them:\n{}",
        hits.join("\n")
    );
}

#[test]
fn one_translating_video_driver_and_delivery_built_only_by_the_session() {
    // ThincServer forwards to its session: a translator call, or a
    // Delivery built or restored in server.rs, is a second façade
    // growing back (ServerConfig::session builds the session through
    // SharedSession's own constructors).
    let server = [root().join("crates/core/src/server.rs")];
    assert!(server[0].is_file(), "no {}", server[0].display());
    let needles = [concat!("Translator", "::"), concat!("Delivery::", "new("), concat!("Delivery::", "from_record(")];
    let hits = lines_naming(&server, &needles);
    assert!(
        hits.is_empty(),
        "a single-client server is a session of one, and every Delivery is built and restored by \
         SharedSession; server.rs translates or builds one itself:\n{}",
        hits.join("\n")
    );
    let translating: Vec<String> = files_under(&["crates/core/src"])
        .into_iter()
        .filter(|path| {
            let src = fs::read_to_string(path).unwrap_or_default();
            src.contains(concat!("impl Video", "Driver for")) && src.contains(concat!("self.trans", "lator."))
        })
        .map(|path| path.strip_prefix(root()).unwrap_or(&path).display().to_string())
        .collect();
    assert_eq!(
        translating,
        ["crates/core/src/session.rs"],
        "the session is the one VideoDriver that runs the translator"
    );
}

#[test]
fn one_flush_loop_and_one_flush_round() {
    // Following a flush plan replaces where an entry's parts and a
    // part's form come from, inside the one flush loop; a second
    // `.materialize()` or `split_raw(` call site in the buffer is a
    // second loop growing beside it (the property tests live in files
    // of their own). A lone viewer and a whole roster flush through one
    // round body, so the session begins a flush in one place.
    let buffer: Vec<PathBuf> = ["mod.rs", "wire.rs", "checkpoint.rs"]
        .iter()
        .map(|file| root().join("crates/core/src/buffer").join(file))
        .collect();
    let session = [root().join("crates/core/src/session.rs")];
    let rules = [
        (&buffer[..], concat!(".materi", "alize()")),
        (&buffer[..], concat!("split", "_raw(")),
        (&session[..], concat!(".begin", "_flush(")),
    ];
    for (paths, needle) in rules {
        for path in paths {
            assert!(path.is_file(), "no {}", path.display());
        }
        let definition = format!("fn {needle}");
        let calls = lines_where(paths, |line| line.contains(needle) && !line.contains(&definition));
        assert_eq!(
            calls.len(),
            1,
            "one call site of `{needle}` is one flush loop and one flush round; found:\n{}",
            calls.join("\n")
        );
    }
}

#[test]
fn the_core_declares_no_byte_codec_of_its_own() {
    let core = files_under(&["crates/core/src"]);
    let hits = lines_naming_words(&core, &[concat!("struct ", "Writer"), concat!("struct ", "Reader")]);
    assert!(
        hits.is_empty(),
        "a checkpoint is records declared with thinc_protocol::record!, written in the wire \
         codec's Field encodings; a byte writer or reader of the core's own is back:\n{}",
        hits.join("\n")
    );
}
