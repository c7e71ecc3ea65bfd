//! `lucid` — command-line front end for the LucidScript standardizer.
//!
//! ```text
//! lucid standardize --corpus DIR --data FILE --script FILE [options]
//! lucid batch       --corpus DIR --data FILE [--jobs N] [--memo] [--batch-out DIR]
//! lucid score       --corpus DIR --script FILE
//! lucid corpus-stats --corpus DIR
//! lucid trace       FILE.jsonl
//! lucid trace       --aggregate FILE.jsonl...
//! lucid why         FILE.audit.jsonl
//! lucid profile     FILE.jsonl [--out DIR]
//! lucid bench       [--quick] [--reps N] [--out FILE] [--compare BASELINE]
//! ```
//!
//! The corpus is a directory of `.py` files (straight-line pandas
//! scripts); `--data` is the CSV the scripts read, registered under its
//! base name so `pd.read_csv('<basename>')` resolves.

use lucidscript::core::config::SearchConfig;
use lucidscript::core::intent::IntentMeasure;
use lucidscript::core::standardizer::Standardizer;
use lucidscript::core::vocab::CorpusModel;
use lucidscript::frame::csv::read_csv;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
lucid — bottom-up data-preparation script standardization (EDBT 2025)

USAGE:
  lucid standardize --corpus <DIR> --data <CSV> --script <PY> [options]
  lucid batch        --corpus <DIR> --data <CSV> [--jobs <N>] [--memo] [options]
  lucid score        --corpus <DIR> --script <PY>
  lucid corpus-stats --corpus <DIR>
  lucid trace        <FILE.jsonl>
  lucid trace        --aggregate <FILE.jsonl>...
  lucid why          <FILE.audit.jsonl>
  lucid profile      <FILE.jsonl> [--out <DIR>]
  lucid bench        [--quick] [--reps <N>] [--out <FILE>] [--compare <BASELINE>]
  lucid bench        --telemetry-overhead [--quick] [--reps <N>] [--counting-only]

OPTIONS (standardize):
  --tau-j <0..1>      table-Jaccard intent threshold (default 0.9)
  --tau-m <0..100>    model-performance threshold in %, requires --target
  --target <COL>      label column for --tau-m
  --seq <N>           max transformations (default 16)
  --beam <K>          beam size (default 3)
  --sample <N>        row-sample D_IN during constraint checks
  --threads <N>       beam-expansion worker threads (0 = all cores, default 1)
  --no-cache          disable prefix-execution snapshot caching
  --fuel <N>          per-candidate fuel budget (ops; default unlimited)
  --max-cells <N>     per-candidate materialized-cell cap (default unlimited)
  --deadline-ms <N>   per-candidate wall-clock deadline in ms (default unlimited;
                      the only budget axis that can break deterministic replay)
  --trace <FILE>      write the search event log (JSONL) to FILE
  --trace-max-bytes <N>  rotate the trace file at N bytes (<FILE>.1 keeps the
                      previous segment; disk use stays around 2×N)
  --audit <FILE>      write the decision-provenance stream (JSONL) to FILE:
                      one record per explored candidate with its lineage and
                      terminal disposition; render it with `lucid why`
  --audit-max-bytes <N>  rotate the audit file at N bytes (same scheme as
                      --trace-max-bytes)
  --profile-out <DIR> write profile exports (flame.folded, percentiles.txt,
                      profile.json) into DIR after the search
  --telemetry <MODE>  allocator telemetry: off | counting (default) | full
                      (full adds per-phase peaks + allocation-size buckets)
  --stats-out <FILE>  write a metrics snapshot after the search (.prom/.txt
                      get Prometheus text exposition, anything else JSON)
  --stats-interval-ms <N>  with --stats-out, re-export the snapshot every
                      N ms while the search runs (final write on exit)
  --explain           print per-change explanations
  --json              emit the full report as JSON

OPTIONS (batch):
  standardizes every .py script of --corpus against that corpus in one
  process, sharing the statement interner and the prefix-cache store
  across searches. Accepts the standardize search knobs (--tau-j, --tau-m,
  --target, --seq, --beam, --sample, --threads, --no-cache, --fuel,
  --max-cells, --deadline-ms, --telemetry, --stats-out,
  --stats-interval-ms) plus:
  --jobs <N>          concurrent per-script searches (0 = all cores,
                      default 1); output is byte-identical at any value
  --memo              serve repeated/near-duplicate scripts from the
                      content-addressed full-result memo (keyed by script
                      hash x corpus fingerprint x config fingerprint)
  --batch-out <DIR>   write batch_report.json (deterministic), summary.txt,
                      and the standardized scripts under DIR/scripts/
  --trace-dir <DIR>   write one JSONL event log per executed search to DIR
  --audit-dir <DIR>   write one decision-provenance stream per script to DIR
                      (<name>.audit.jsonl; memo hits get a stub pointing at
                      their representative) plus a batch_audit.jsonl roll-up
  --explain           include per-change explanations in every script's
                      deterministic report entry
  --json              print the deterministic batch report as JSON

OPTIONS (bench):
  --quick             run the 1-workload smoke subset instead of the full suite
  --batch             also run the pinned batch suite (whole-corpus runs with
                      a jobs × memo sweep) and record its workloads in the
                      same entry; re-stamps the config fingerprint
  --kernels           also run the frame-kernel micro-suite (fillna, dummies,
                      astype, compare, arith, groupby, jaccard over 100k-row
                      synthetic columns) as kernel-* workloads in the same
                      entry; re-stamps the config fingerprint
  --reps <N>          repetitions per workload (default 5)
  --out <FILE>        trajectory file to append to (default BENCH_search.json;
                      with --compare, nothing is appended unless --out is given)
  --compare <BASELINE>  diff this run against the last entry of BASELINE and
                      exit non-zero when the noise-aware gate flags a phase
  --inject-slowdown <F>  multiply measured phase times by F (gate self-test)
  --inject-mem-regression <F>  multiply measured memory stats by F (gate self-test)
  --rel-threshold <F> gate: min relative median slowdown (default 0.5)
  --noise-mult <F>    gate: delta must exceed F × run-to-run spread (default 1.5)
  --abs-floor-ms <F>  gate: time deltas under F ms never fail (default 1.0)
  --abs-floor-bytes <F>  gate: memory deltas under F bytes never fail
                      (default 1048576 = 1 MiB)
  --telemetry-overhead  measure telemetry cost instead of appending: run each
                      workload with telemetry off/counting/full and fail when
                      counting exceeds 5% relative overhead and a 2 ms floor
                      (full mode, an opt-in diagnostic, gets 3x both bounds);
                      also measures the --audit stream: audit-off must match
                      the plain harness within noise, audit-on must stay under
                      30% relative or a 3 ms floor
  --counting-only     with --telemetry-overhead, skip the full-mode pass

`lucid trace` summarizes an event log written by `--trace`: the per-step
table, the Figure 7 phase totals, and cache/interpreter statistics; when
a rotated `<FILE>.1` segment exists it is folded back in front of the
current segment. `lucid trace --aggregate` merges several trace files
into one cross-search table with per-phase totals and memory peaks.
`lucid why` renders a decision-provenance stream written by `--audit`:
per-step ranking tables with score deltas, the pruned-candidate
graveyard grouped by disposition, the winner's lineage, the final-diff
line-to-candidate join, and the exact reconciliation of disposition
counts against the run's Timings counters.
`lucid profile` renders the profile record of a trace (or of a
`--profile-out` profile.json): collapsed-stack flamegraph text plus
p50/p90/p99/max phase percentiles; `--out` writes the files instead.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(err) => {
            eprintln!("error: {err}");
            if let CliError::Usage(_) = err {
                eprintln!("\n{USAGE}");
            }
            ExitCode::FAILURE
        }
    }
}

/// Why an invocation failed. Only a malformed command line earns the
/// usage text; an unreadable file, bad CSV or failed search is a fault of
/// the input, and the usage text would bury its message.
#[derive(Debug)]
enum CliError {
    /// Unknown command or flag, missing or malformed flag value.
    Usage(String),
    /// The command line was fine; running it failed.
    Failed(String),
}

impl CliError {
    fn message(&self) -> &str {
        match self {
            CliError::Usage(msg) | CliError::Failed(msg) => msg,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.message())
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::Failed(msg)
    }
}

#[cfg(test)]
impl PartialEq<&str> for CliError {
    fn eq(&self, other: &&str) -> bool {
        self.message() == *other
    }
}

/// A usage error for a flag whose value does not parse.
fn bad(name: &str) -> CliError {
    CliError::Usage(format!("bad --{name}"))
}

/// Boolean switches of the standardize/score/corpus-stats family.
const SWITCH_FLAGS: &[&str] = &["explain", "json", "no-cache"];
/// `--name value` flags of the standardize/score/corpus-stats family.
const VALUE_FLAGS: &[&str] = &[
    "corpus", "data", "script", "tau-j", "tau-m", "target", "seq", "beam", "sample", "threads",
    "trace", "trace-max-bytes", "audit", "audit-max-bytes", "profile-out", "fuel", "max-cells",
    "deadline-ms", "telemetry", "stats-out", "stats-interval-ms",
];
/// Switches of `lucid bench`.
const BENCH_SWITCH_FLAGS: &[&str] =
    &["quick", "telemetry-overhead", "counting-only", "batch", "kernels"];
/// `--name value` flags of `lucid bench`.
const BENCH_VALUE_FLAGS: &[&str] = &[
    "reps",
    "out",
    "compare",
    "inject-slowdown",
    "inject-mem-regression",
    "rel-threshold",
    "noise-mult",
    "abs-floor-ms",
    "abs-floor-bytes",
];
/// `--name value` flags of `lucid profile` (after the positional file).
const PROFILE_VALUE_FLAGS: &[&str] = &["out"];
/// Switches of `lucid batch`.
const BATCH_SWITCH_FLAGS: &[&str] = &["memo", "no-cache", "json", "explain"];
/// `--name value` flags of `lucid batch`: the standardize search knobs
/// minus the single-script/trace/profile ones, plus the batch fan-out.
const BATCH_VALUE_FLAGS: &[&str] = &[
    "corpus",
    "data",
    "jobs",
    "batch-out",
    "trace-dir",
    "audit-dir",
    "tau-j",
    "tau-m",
    "target",
    "seq",
    "beam",
    "sample",
    "threads",
    "fuel",
    "max-cells",
    "deadline-ms",
    "telemetry",
    "stats-out",
    "stats-interval-ms",
];

/// Tiny flag parser: `--name value` pairs plus boolean switches. Each
/// command supplies its own accepted-flag lists, and anything outside
/// them is rejected up front (a typo must not be silently swallowed as a
/// value pair, and `lucid score --reps 3` must not quietly parse).
struct Flags {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, CliError> {
        Flags::parse_with(args, SWITCH_FLAGS, VALUE_FLAGS)
    }

    fn parse_with(
        args: &[String],
        switch_flags: &[&str],
        value_flags: &[&str],
    ) -> Result<Flags, CliError> {
        let usage = |msg: String| Err(CliError::Usage(msg));
        let mut pairs = Vec::new();
        let mut switches = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return usage(format!("unexpected argument '{a}'"));
            };
            if switch_flags.contains(&name) {
                switches.push(name.to_string());
            } else if value_flags.contains(&name) {
                let Some(value) = it.next() else {
                    return usage(format!("--{name} requires a value"));
                };
                pairs.push((name.to_string(), value.clone()));
            } else {
                return usage(format!("unknown flag '--{name}'"));
            }
        }
        Ok(Flags { pairs, switches })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn require(&self, name: &str) -> Result<&str, CliError> {
        self.get(name)
            .ok_or_else(|| CliError::Usage(format!("--{name} is required")))
    }

    /// The parsed value of `--name`, or `default` when absent.
    fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        self.get(name)
            .map_or(Ok(default), |v| v.parse().map_err(|_| bad(name)))
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

fn run(args: &[String]) -> Result<ExitCode, CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::Usage("missing command".to_string()));
    };
    match command.as_str() {
        // Positional argument, not a flag pair.
        "trace" => return trace_report(&args[1..]).map(|()| ExitCode::SUCCESS),
        "why" => return why_report(&args[1..]).map(|()| ExitCode::SUCCESS),
        "profile" => return profile_report(&args[1..]).map(|()| ExitCode::SUCCESS),
        "bench" => {
            let flags = Flags::parse_with(&args[1..], BENCH_SWITCH_FLAGS, BENCH_VALUE_FLAGS)?;
            return bench(&flags);
        }
        "batch" => {
            let flags = Flags::parse_with(&args[1..], BATCH_SWITCH_FLAGS, BATCH_VALUE_FLAGS)?;
            return batch(&flags);
        }
        _ => {}
    }
    let flags = Flags::parse(&args[1..])?;
    match command.as_str() {
        "standardize" => standardize(&flags),
        "score" => score(&flags),
        "corpus-stats" => corpus_stats(&flags),
        other => Err(CliError::Usage(format!("unknown command '{other}'"))),
    }
    .map(|()| ExitCode::SUCCESS)
}

const TRACE_USAGE: &str = "usage: lucid trace <FILE.jsonl> | lucid trace --aggregate <FILE.jsonl>...";

/// `lucid trace <FILE.jsonl>`: parse a search event log and print the
/// per-step table plus the Figure 7 phase totals it reconstructs.
/// `lucid trace --aggregate <FILE>...` merges several logs into one
/// cross-search table. Both fold a rotated `<FILE>.1` segment back in
/// front of the current one when rotation split the log.
fn trace_report(rest: &[String]) -> Result<(), CliError> {
    if rest.first().map(String::as_str) == Some("--aggregate") {
        let files = &rest[1..];
        if files.is_empty() {
            return Err(CliError::Usage(TRACE_USAGE.to_string()));
        }
        let mut inputs = Vec::with_capacity(files.len());
        for path in files {
            let summary = lucidscript::obs::parse_trace(&read_trace_folding_rotation(path)?)?;
            let name = Path::new(path)
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or(path)
                .to_string();
            inputs.push((name, summary));
        }
        print!("{}", lucidscript::obs::aggregate_summaries(&inputs).render());
        return Ok(());
    }
    let [path] = rest else {
        return Err(CliError::Usage(TRACE_USAGE.to_string()));
    };
    let summary = lucidscript::obs::parse_trace(&read_trace_folding_rotation(path)?)?;
    print!("{}", summary.render());
    Ok(())
}

/// Reads a trace file, prepending its rotated `<path>.1` segment when
/// one exists — the rotation holds the *older* records, so the folded
/// stream replays in emission order.
fn read_trace_folding_rotation(path: &str) -> Result<String, String> {
    let current = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read trace '{path}': {e}"))?;
    let rotated = lucidscript::obs::rotated_path(Path::new(path));
    if !rotated.exists() {
        return Ok(current);
    }
    let mut text = std::fs::read_to_string(&rotated)
        .map_err(|e| format!("cannot read rotated trace '{}': {e}", rotated.display()))?;
    eprintln!(
        "note: folded rotated segment {} in front of {path}",
        rotated.display()
    );
    if !text.is_empty() && !text.ends_with('\n') {
        text.push('\n');
    }
    text.push_str(&current);
    Ok(text)
}

const WHY_USAGE: &str = "usage: lucid why <FILE.audit.jsonl>";

/// `lucid why <FILE.audit.jsonl>`: parse a decision-provenance stream
/// written by `--audit` and render the per-step ranking tables, the
/// pruned-candidate graveyard, the winner's lineage, the diff-line join,
/// and the Timings reconciliation verdict. Rotated `<FILE>.1` segments
/// fold back in front, as with `lucid trace`.
fn why_report(rest: &[String]) -> Result<(), CliError> {
    let [path] = rest else {
        return Err(CliError::Usage(WHY_USAGE.to_string()));
    };
    let summary = lucidscript::obs::parse_audit(&read_trace_folding_rotation(path)?)?;
    print!("{}", summary.render());
    Ok(())
}

/// `lucid profile <FILE.jsonl> [--out DIR]`: extract the profile record
/// of a trace (or read a standalone `profile.json`) and print the folded
/// flamegraph + percentile table — or write them into `--out`.
fn profile_report(rest: &[String]) -> Result<(), CliError> {
    let Some((path, flag_args)) = rest.split_first() else {
        return Err(CliError::Usage(
            "usage: lucid profile <FILE.jsonl> [--out <DIR>]".to_string(),
        ));
    };
    let flags = Flags::parse_with(flag_args, &[], PROFILE_VALUE_FLAGS)?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read profile source '{path}': {e}"))?;
    // A `--profile-out` profile.json is one pretty-printed record; a
    // trace is JSONL. Try the whole file first, then line-by-line.
    let report = match lucidscript::obs::ProfileReport::from_trace(&text.replace('\n', " "))? {
        Some(r) => r,
        None => lucidscript::obs::ProfileReport::from_trace(&text)?.ok_or_else(|| {
            format!(
                "'{path}' carries no profile record — searches emit one when run \
                 with --trace or --profile-out"
            )
        })?,
    };
    if let Some(dir) = flags.get("out") {
        let dir = PathBuf::from(dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create '{}': {e}", dir.display()))?;
        report
            .write_dir(&dir)
            .map_err(|e| format!("cannot write profile into '{}': {e}", dir.display()))?;
        println!(
            "wrote flame.folded, percentiles.txt, profile.json to {}",
            dir.display()
        );
        return Ok(());
    }
    println!("collapsed-stack flamegraph (self-time µs; feed to inferno/speedscope):");
    print!("{}", report.folded_text());
    println!();
    print!("{}", report.percentile_table());
    Ok(())
}

/// `lucid bench`: run the pinned workload suite, append a trajectory
/// entry, and (with `--compare`) gate against a baseline.
fn bench(flags: &Flags) -> Result<ExitCode, CliError> {
    let reps: usize = flags.parse_or("reps", 5)?;
    let inject = flags.parse_or("inject-slowdown", 1.0)?;
    let inject_mem = flags.parse_or("inject-mem-regression", 1.0)?;
    // Parsed up front so a typo fails before minutes of suite running.
    let gate_opts = lucidscript::bench::GateOptions {
        rel_threshold: flags.parse_or("rel-threshold", 0.5)?,
        noise_mult: flags.parse_or("noise-mult", 1.5)?,
        abs_floor_ms: flags.parse_or("abs-floor-ms", 1.0)?,
        abs_floor_bytes: flags.parse_or("abs-floor-bytes", (1u64 << 20) as f64)?,
    };
    let workloads = if flags.has("quick") {
        lucidscript::bench::quick_suite()
    } else {
        lucidscript::bench::suite()
    };
    if flags.has("telemetry-overhead") {
        let counting_only = flags.has("counting-only");
        eprintln!(
            "measuring telemetry overhead: {} workload(s) × {} rep(s) × {} mode(s)...",
            workloads.len(),
            reps,
            if counting_only { 2 } else { 3 }
        );
        let reports = lucidscript::bench::measure_overhead(&workloads, reps, counting_only)?;
        print!("{}", lucidscript::bench::overhead::render(&reports));
        const BUDGET_FRAC: f64 = 0.05;
        const BUDGET_FLOOR_MS: f64 = 2.0;
        let telemetry_ok = reports
            .iter()
            .all(|r| r.within_budget(BUDGET_FRAC, BUDGET_FLOOR_MS));
        if telemetry_ok {
            println!("telemetry overhead budget (counting 5% or 2 ms; full 3x): ok");
        } else {
            eprintln!("telemetry overhead budget (counting 5% or 2 ms; full 3x): EXCEEDED");
        }
        eprintln!(
            "measuring audit-stream overhead: {} workload(s) × {} rep(s) × 3 arm(s)...",
            workloads.len(),
            reps
        );
        let audit_reports = lucidscript::bench::measure_audit_overhead(&workloads, reps)?;
        print!("{}", lucidscript::bench::overhead::render_audit(&audit_reports));
        let audit_ok = audit_reports.iter().all(|r| {
            r.within_budget(
                lucidscript::bench::AUDIT_BUDGET_FRAC,
                lucidscript::bench::AUDIT_BUDGET_FLOOR_MS,
            )
        });
        if audit_ok {
            println!("audit overhead budget (off within noise; on 30% or 3 ms): ok");
        } else {
            eprintln!("audit overhead budget (off within noise; on 30% or 3 ms): EXCEEDED");
        }
        return Ok(if telemetry_ok && audit_ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    eprintln!(
        "running {} workload(s) × {} rep(s){}...",
        workloads.len(),
        reps,
        if inject != 1.0 || inject_mem != 1.0 {
            format!(" (injected: time ×{inject}, mem ×{inject_mem})")
        } else {
            String::new()
        }
    );
    let mut entry = lucidscript::bench::run_suite(&workloads, reps, inject, inject_mem)?;
    if flags.has("batch") {
        let batch = lucidscript::bench::batch_suite();
        eprintln!(
            "running {} batch workload(s) × {} rep(s)...",
            batch.len(),
            reps
        );
        lucidscript::bench::extend_with_batch(&mut entry, &batch, reps)?;
    }
    if flags.has("kernels") {
        eprintln!(
            "running {} kernel workload(s) × {} rep(s)...",
            lucidscript::bench::kernel_suite().len(),
            reps
        );
        lucidscript::bench::extend_with_kernels(&mut entry, reps);
    }
    for w in &entry.workloads {
        let total = w
            .phases
            .iter()
            .find(|p| p.name == "total_ms")
            .map_or(0.0, |p| p.median_ms);
        let memo = if w.counters.batch_scripts > 0 {
            format!(
                ", {} scripts, memo {}/{}",
                w.counters.batch_scripts,
                w.counters.memo_hits,
                w.counters.memo_hits + w.counters.memo_misses
            )
        } else {
            String::new()
        };
        eprintln!(
            "  {:<26} median total {:>8.2} ms  ({} candidates, {} steps{memo})",
            w.name, total, w.counters.explored, w.counters.search_steps
        );
    }
    let compare = flags.get("compare");
    // A gate run is a probe, not a measurement worth recording: only
    // append when the user names a destination (or on plain runs).
    let out = match (flags.get("out"), compare) {
        (Some(out), _) => Some(PathBuf::from(out)),
        (None, None) => Some(PathBuf::from("BENCH_search.json")),
        (None, Some(_)) => None,
    };
    if let Some(out) = out {
        lucidscript::bench::append_entry(&out, &entry)?;
        println!(
            "appended schema-v{} entry (commit {}, {}) to {}",
            entry.schema,
            entry.commit,
            entry.date,
            out.display()
        );
    }
    if let Some(baseline_path) = compare {
        let baseline = lucidscript::bench::load_baseline(Path::new(baseline_path))?;
        let cmp = lucidscript::bench::compare_entries(&entry, &baseline, &gate_opts);
        print!("{}", cmp.render());
        if cmp.regressed() {
            eprintln!("regression gate: FAILED");
            return Ok(ExitCode::FAILURE);
        }
        println!("regression gate: ok");
    }
    Ok(ExitCode::SUCCESS)
}

fn load_corpus(dir: &str) -> Result<Vec<String>, String> {
    let mut sources = Vec::new();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read corpus dir '{dir}': {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "py"))
        .collect();
    paths.sort();
    for p in paths {
        let src = std::fs::read_to_string(&p)
            .map_err(|e| format!("cannot read {}: {e}", p.display()))?;
        sources.push(src);
    }
    if sources.is_empty() {
        return Err(format!("no .py files in '{dir}'"));
    }
    Ok(sources)
}

fn read_script(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read script '{path}': {e}"))
}

fn intent_from(flags: &Flags) -> Result<IntentMeasure, CliError> {
    if let Some(tm) = flags.get("tau-m") {
        let tau: f64 = tm.parse().map_err(|_| bad("tau-m"))?;
        let target = flags.require("target")?;
        return Ok(IntentMeasure::model_perf(tau, target));
    }
    Ok(IntentMeasure::jaccard(flags.parse_or("tau-j", 0.9)?))
}

/// Builds the per-candidate resource budget from `--fuel`, `--max-cells`,
/// and `--deadline-ms`; every unset axis stays unlimited.
fn budget_from(flags: &Flags) -> Result<lucidscript::interp::Budget, CliError> {
    let axis = |name: &str| flags.parse_or(name, lucidscript::interp::budget::UNLIMITED);
    Ok(lucidscript::interp::Budget {
        fuel: axis("fuel")?,
        max_cells: axis("max-cells")?,
        deadline_ms: axis("deadline-ms")?,
    })
}

/// Parses `--telemetry off|counting|full` (None when the flag is absent,
/// leaving the process default — counting — in place).
fn telemetry_mode_from(
    flags: &Flags,
) -> Result<Option<lucidscript::obs::TelemetryMode>, CliError> {
    use lucidscript::obs::TelemetryMode;
    flags
        .get("telemetry")
        .map(|v| match v {
            "off" => Ok(TelemetryMode::Off),
            "counting" => Ok(TelemetryMode::Counting),
            "full" => Ok(TelemetryMode::Full),
            other => Err(CliError::Usage(format!(
                "bad --telemetry '{other}' (off|counting|full)"
            ))),
        })
        .transpose()
}

/// Parses the `--stats-out` / `--stats-interval-ms` pair: the snapshot
/// destination and the optional periodic re-export interval.
fn stats_export_from(flags: &Flags) -> Result<Option<(PathBuf, Option<u64>)>, CliError> {
    let interval: Option<u64> = flags
        .get("stats-interval-ms")
        .map(|v| {
            v.parse()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| bad("stats-interval-ms"))
        })
        .transpose()?;
    match flags.get("stats-out") {
        Some(path) => Ok(Some((PathBuf::from(path), interval))),
        None if interval.is_some() => Err(CliError::Usage(
            "--stats-interval-ms requires --stats-out".to_string(),
        )),
        None => Ok(None),
    }
}

/// Builds the `--trace` sink, honoring `--trace-max-bytes` rotation.
fn trace_sink_from(flags: &Flags) -> Result<Option<lucidscript::obs::TraceSink>, CliError> {
    let max_bytes: u64 = flags
        .get("trace-max-bytes")
        .map_or(Ok(u64::MAX), |v| {
            v.parse()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| bad("trace-max-bytes"))
        })?;
    let Some(path) = flags.get("trace") else {
        if flags.get("trace-max-bytes").is_some() {
            return Err(CliError::Usage("--trace-max-bytes requires --trace".to_string()));
        }
        return Ok(None);
    };
    Ok(lucidscript::obs::TraceSink::to_file_capped(path, max_bytes)
        .map(Some)
        .map_err(|e| format!("cannot create trace file '{path}': {e}"))?)
}

/// Builds the `--audit` sink, honoring `--audit-max-bytes` rotation —
/// the decision-provenance analog of [`trace_sink_from`].
fn audit_sink_from(flags: &Flags) -> Result<Option<lucidscript::obs::TraceSink>, CliError> {
    let max_bytes: u64 = flags
        .get("audit-max-bytes")
        .map_or(Ok(u64::MAX), |v| {
            v.parse()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| bad("audit-max-bytes"))
        })?;
    let Some(path) = flags.get("audit") else {
        if flags.get("audit-max-bytes").is_some() {
            return Err(CliError::Usage("--audit-max-bytes requires --audit".to_string()));
        }
        return Ok(None);
    };
    Ok(lucidscript::obs::TraceSink::to_file_capped(path, max_bytes)
        .map(Some)
        .map_err(|e| format!("cannot create audit file '{path}': {e}"))?)
}

/// Builds the [`SearchConfig`] shared by `standardize` and `batch` from
/// the common flag family. Flags a command does not accept (e.g. batch
/// has no `--trace`/`--profile-out`) simply stay at their defaults.
fn search_config_from(
    flags: &Flags,
    fleet: Option<std::sync::Arc<lucidscript::obs::Registry>>,
) -> Result<SearchConfig, CliError> {
    Ok(SearchConfig {
        intent: intent_from(flags)?,
        seq_len: flags.parse_or("seq", 16)?,
        beam_k: flags.parse_or("beam", 3)?,
        sample_rows: flags
            .get("sample")
            .map(|v| v.parse().map_err(|_| bad("sample")))
            .transpose()?,
        threads: flags.parse_or("threads", 1)?,
        prefix_cache: !flags.has("no-cache"),
        budget: budget_from(flags)?,
        trace: trace_sink_from(flags)?,
        audit: audit_sink_from(flags)?,
        profile_out: flags
            .get("profile-out")
            .map(|dir| {
                let dir = PathBuf::from(dir);
                std::fs::create_dir_all(&dir)
                    .map_err(|e| format!("cannot create profile dir '{}': {e}", dir.display()))?;
                Ok::<_, String>(dir)
            })
            .transpose()?,
        stats_registry: fleet,
        ..SearchConfig::default()
    })
}

fn standardize(flags: &Flags) -> Result<(), CliError> {
    let corpus = load_corpus(flags.require("corpus")?)?;
    let data_path = flags.require("data")?;
    let data = read_csv(data_path).map_err(|e| e.to_string())?;
    let basename = Path::new(data_path)
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or(data_path)
        .to_string();
    let script = read_script(flags.require("script")?)?;

    if let Some(mode) = telemetry_mode_from(flags)? {
        lucidscript::obs::alloc::set_mode(mode);
    }
    let stats_export = stats_export_from(flags)?;
    // The fleet registry outlives the search so the exporters can keep
    // snapshotting it; per-search registries merge into it at search end.
    let fleet = stats_export
        .as_ref()
        .map(|_| std::sync::Arc::new(lucidscript::obs::Registry::new()));

    let config = search_config_from(flags, fleet.clone())?;

    let mut standardizer = Standardizer::build(&corpus, basename.clone(), data.clone(), config)
        .map_err(|e| e.to_string())?;
    // Also register the full path so scripts referencing it verbatim work.
    standardizer.register_table(data_path, data);

    let reporter = match (&stats_export, &fleet) {
        (Some((path, Some(interval_ms))), Some(reg)) => Some(lucidscript::obs::StatsReporter::spawn(
            std::sync::Arc::clone(reg),
            path.clone(),
            std::time::Duration::from_millis(*interval_ms),
        )),
        _ => None,
    };

    let report = standardizer
        .standardize_source(&script)
        .map_err(|e| e.to_string())?;

    // Final (or only) stats snapshot, reflecting the merged end state.
    match (reporter, &stats_export, &fleet) {
        (Some(reporter), _, _) => reporter
            .stop()
            .map_err(|e| format!("cannot write stats snapshot: {e}"))?,
        (None, Some((path, _)), Some(reg)) => {
            lucidscript::obs::export::write_snapshot(reg, path)
                .map_err(|e| format!("cannot write stats snapshot: {e}"))?;
        }
        _ => {}
    }

    if flags.has("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    println!("{}", report.output_source);
    eprintln!(
        "# RE {:.3} -> {:.3} ({:+.1}%), intent {} = {:.3} (satisfied: {})",
        report.re_before,
        report.re_after,
        report.improvement_pct,
        report.intent_kind,
        report.intent_delta,
        report.intent_satisfied
    );
    if flags.has("explain") {
        for e in standardizer.explain(&report) {
            eprintln!("# [{}] {}", e.change, e.text);
        }
    }
    Ok(())
}

fn batch(flags: &Flags) -> Result<ExitCode, CliError> {
    let corpus_dir = flags.require("corpus")?;
    let scripts = lucidscript::corpus::batch::load_dir(Path::new(corpus_dir))?;
    let data_path = flags.require("data")?;
    let data = read_csv(data_path).map_err(|e| e.to_string())?;
    let basename = Path::new(data_path)
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or(data_path)
        .to_string();

    if let Some(mode) = telemetry_mode_from(flags)? {
        lucidscript::obs::alloc::set_mode(mode);
    }
    let stats_export = stats_export_from(flags)?;
    // As in `standardize`: per-search registries merge into the fleet
    // registry (via the per-batch roll-up) so exporters see the whole run.
    let fleet = stats_export
        .as_ref()
        .map(|_| std::sync::Arc::new(lucidscript::obs::Registry::new()));

    let config = search_config_from(flags, fleet.clone())?;
    let opts = lucidscript::core::batch::BatchOptions {
        jobs: flags.parse_or("jobs", 1)?,
        memo: flags.has("memo"),
        trace_dir: flags
            .get("trace-dir")
            .map(|dir| {
                let dir = PathBuf::from(dir);
                std::fs::create_dir_all(&dir)
                    .map_err(|e| format!("cannot create trace dir '{}': {e}", dir.display()))?;
                Ok::<_, String>(dir)
            })
            .transpose()?,
        audit_dir: flags
            .get("audit-dir")
            .map(|dir| {
                let dir = PathBuf::from(dir);
                std::fs::create_dir_all(&dir)
                    .map_err(|e| format!("cannot create audit dir '{}': {e}", dir.display()))?;
                Ok::<_, String>(dir)
            })
            .transpose()?,
        explain: flags.has("explain"),
    };

    let reporter = match (&stats_export, &fleet) {
        (Some((path, Some(interval_ms))), Some(reg)) => Some(lucidscript::obs::StatsReporter::spawn(
            std::sync::Arc::clone(reg),
            path.clone(),
            std::time::Duration::from_millis(*interval_ms),
        )),
        _ => None,
    };

    let report =
        lucidscript::core::batch::standardize_corpus(&scripts, &basename, data, config, &opts)
            .map_err(|e| e.to_string())?;

    match (reporter, &stats_export, &fleet) {
        (Some(reporter), _, _) => reporter
            .stop()
            .map_err(|e| format!("cannot write stats snapshot: {e}"))?,
        (None, Some((path, _)), Some(reg)) => {
            lucidscript::obs::export::write_snapshot(reg, path)
                .map_err(|e| format!("cannot write stats snapshot: {e}"))?;
        }
        _ => {}
    }

    if let Some(out_dir) = flags.get("batch-out") {
        let out_dir = PathBuf::from(out_dir);
        let scripts_dir = out_dir.join("scripts");
        std::fs::create_dir_all(&scripts_dir)
            .map_err(|e| format!("cannot create batch out dir '{}': {e}", out_dir.display()))?;
        std::fs::write(out_dir.join("batch_report.json"), report.deterministic_json())
            .map_err(|e| format!("cannot write batch_report.json: {e}"))?;
        std::fs::write(out_dir.join("summary.txt"), report.render())
            .map_err(|e| format!("cannot write summary.txt: {e}"))?;
        for script in &report.scripts {
            if let Ok(r) = &script.outcome {
                std::fs::write(scripts_dir.join(&script.name), &r.output_source)
                    .map_err(|e| format!("cannot write standardized '{}': {e}", script.name))?;
            }
        }
    }

    if flags.has("json") {
        // Deterministic view only: identical bytes for identical
        // (corpus, data, config) regardless of --jobs / --memo.
        println!("{}", report.deterministic_json());
    }
    eprint!("{}", report.render());

    let all_failed =
        !report.scripts.is_empty() && report.scripts.iter().all(|s| s.outcome.is_err());
    Ok(if all_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn score(flags: &Flags) -> Result<(), CliError> {
    let corpus = load_corpus(flags.require("corpus")?)?;
    let script = read_script(flags.require("script")?)?;
    let model = CorpusModel::build_from_sources(&corpus).map_err(|e| e.to_string())?;
    let module = lucidscript::pyast::parse_module(&script).map_err(|e| e.to_string())?;
    let dag = lucidscript::core::dag::build_dag(&lucidscript::core::lemma::lemmatize(&module));
    let re = lucidscript::core::entropy::relative_entropy(&dag, &model);
    println!("{re:.6}");
    Ok(())
}

fn corpus_stats(flags: &Flags) -> Result<(), CliError> {
    let corpus = load_corpus(flags.require("corpus")?)?;
    let model = CorpusModel::build_from_sources(&corpus).map_err(|e| e.to_string())?;
    println!("scripts:        {}", model.n_scripts);
    println!("unique atoms:   {}", model.n_unique_atoms());
    println!("unique 1-grams: {}", model.n_unique_unigrams());
    println!("unique edges:   {}", model.n_unique_edges());
    println!("total edges:    {}", model.total_edges);
    println!("top steps:");
    for &id in model.by_count().iter().take(10) {
        let (count, atom) = (model.atom_count_by_id(id), &model.atoms()[id as usize]);
        println!("  {count:>4}x  {atom}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_flags_are_rejected_not_swallowed() {
        let err = run(&argv(&["standardize", "--copus", "dir"])).unwrap_err();
        assert_eq!(err, "unknown flag '--copus'");
        let err = run(&argv(&["score", "--verbose"])).unwrap_err();
        assert_eq!(err, "unknown flag '--verbose'");
    }

    #[test]
    fn value_flags_require_a_value() {
        let err = run(&argv(&["standardize", "--corpus"])).unwrap_err();
        assert_eq!(err, "--corpus requires a value");
        let err = run(&argv(&["standardize", "--trace"])).unwrap_err();
        assert_eq!(err, "--trace requires a value");
    }

    #[test]
    fn batch_flags_are_disjoint_from_other_commands() {
        // Batch-only flags are unknown to `standardize`, and vice versa.
        let err = run(&argv(&["standardize", "--jobs", "2"])).unwrap_err();
        assert_eq!(err, "unknown flag '--jobs'");
        let err = run(&argv(&["standardize", "--memo"])).unwrap_err();
        assert_eq!(err, "unknown flag '--memo'");
        let err = run(&argv(&["batch", "--script", "s.py"])).unwrap_err();
        assert_eq!(err, "unknown flag '--script'");
        let err = run(&argv(&["batch", "--reps", "3"])).unwrap_err();
        assert_eq!(err, "unknown flag '--reps'");
    }

    #[test]
    fn batch_argument_errors_are_specific() {
        let err = run(&argv(&["batch", "--jobs"])).unwrap_err();
        assert_eq!(err, "--jobs requires a value");
        let err = run(&argv(&["batch", "--data", "d.csv"])).unwrap_err();
        assert_eq!(err, "--corpus is required");
        let err = run(&argv(&[
            "batch",
            "--corpus",
            "/nonexistent_lucid_batch_dir",
            "--data",
            "d.csv",
        ]))
        .unwrap_err();
        assert!(matches!(&err, CliError::Failed(m) if m.contains("/nonexistent_lucid_batch_dir")), "{err:?}");
    }

    #[test]
    fn only_command_line_errors_are_usage_errors() {
        for args in [
            &["standardize", "--copus", "dir"][..],
            &["bench", "--quick", "--noise-mult", "wide"],
            &["standardize", "--trace-max-bytes", "9"],
            &["bench", "--reps", "x"],
            &["batch", "--data", "d.csv"],
            &["why"],
            &[],
        ] {
            let err = run(&argv(args)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{args:?}: {err:?}");
        }
        let err = run(&argv(&["score", "--corpus", "/nonexistent_lucid_dir", "--script", "s.py"]))
            .unwrap_err();
        assert!(matches!(err, CliError::Failed(_)), "{err:?}");
    }

    #[test]
    fn positional_arguments_outside_trace_are_rejected() {
        let err = run(&argv(&["standardize", "stray"])).unwrap_err();
        assert_eq!(err, "unexpected argument 'stray'");
        let err = run(&argv(&[])).unwrap_err();
        assert_eq!(err, "missing command");
        let err = run(&argv(&["frobnicate"])).unwrap_err();
        assert_eq!(err, "unknown command 'frobnicate'");
    }

    #[test]
    fn threads_zero_parses_as_auto() {
        // `--threads 0` is valid (auto = all cores): parsing must get past
        // it and fail on the genuinely missing --corpus instead.
        let err =
            run(&argv(&["standardize", "--threads", "0", "--script", "s.py"])).unwrap_err();
        assert_eq!(err, "--corpus is required");
        // A non-numeric value is a parse error, reported as such.
        let err = run(&argv(&[
            "standardize",
            "--corpus",
            "/nonexistent_lucid_dir",
            "--threads",
            "many",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("corpus") || err.to_string().contains("threads"), "{err}");
    }

    #[test]
    fn no_cache_and_trace_flags_parse() {
        let flags = Flags::parse(&argv(&[
            "--no-cache",
            "--trace",
            "t.jsonl",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert!(flags.has("no-cache"));
        assert_eq!(flags.get("trace"), Some("t.jsonl"));
        assert_eq!(flags.get("threads"), Some("2"));
        assert!(!flags.has("json"));
        assert_eq!(flags.get("missing"), None);
    }

    #[test]
    fn budget_flags_parse_and_default_unlimited() {
        let flags = Flags::parse(&argv(&[
            "--fuel",
            "500000",
            "--max-cells",
            "1000000",
            "--deadline-ms",
            "250",
        ]))
        .unwrap();
        let budget = budget_from(&flags).unwrap();
        assert_eq!(budget.fuel, 500_000);
        assert_eq!(budget.max_cells, 1_000_000);
        assert_eq!(budget.deadline_ms, 250);
        // Unset axes stay unlimited.
        let flags = Flags::parse(&argv(&["--fuel", "9"])).unwrap();
        let budget = budget_from(&flags).unwrap();
        assert_eq!(budget.fuel, 9);
        assert_eq!(budget.max_cells, lucidscript::interp::budget::UNLIMITED);
        assert_eq!(budget.deadline_ms, lucidscript::interp::budget::UNLIMITED);
        assert!(budget_from(&Flags::parse(&[]).unwrap())
            .unwrap()
            .is_unlimited());
    }

    #[test]
    fn bad_budget_values_are_rejected() {
        let flags = Flags::parse(&argv(&["--fuel", "lots"])).unwrap();
        assert_eq!(budget_from(&flags).unwrap_err(), "bad --fuel");
        let flags = Flags::parse(&argv(&["--deadline-ms", "-1"])).unwrap();
        assert_eq!(budget_from(&flags).unwrap_err(), "bad --deadline-ms");
        let err = run(&argv(&["standardize", "--max-cells"])).unwrap_err();
        assert_eq!(err, "--max-cells requires a value");
    }

    #[test]
    fn per_command_flag_lists_stay_disjoint() {
        // Bench flags don't leak into standardize...
        let err = run(&argv(&["standardize", "--reps", "3"])).unwrap_err();
        assert_eq!(err, "unknown flag '--reps'");
        // ...and standardize flags don't leak into bench.
        let err = run(&argv(&["bench", "--corpus", "x"])).unwrap_err();
        assert_eq!(err, "unknown flag '--corpus'");
        let err = run(&argv(&["bench", "--reps"])).unwrap_err();
        assert_eq!(err, "--reps requires a value");
        let err = run(&argv(&["bench", "--reps", "three"])).unwrap_err();
        assert_eq!(err, "bad --reps");
        let err = run(&argv(&["bench", "--quick", "--inject-slowdown", "x"])).unwrap_err();
        assert_eq!(err, "bad --inject-slowdown");
    }

    #[test]
    fn profile_command_validates_its_arguments() {
        let err = run(&argv(&["profile"])).unwrap_err();
        assert!(matches!(&err, CliError::Usage(m) if m.contains("usage: lucid profile")), "{err:?}");
        let err = run(&argv(&["profile", "/nonexistent_lucid_profile.jsonl"])).unwrap_err();
        assert!(matches!(&err, CliError::Failed(m) if m.contains("cannot read profile source")), "{err:?}");
        let err = run(&argv(&["profile", "f.jsonl", "--json"])).unwrap_err();
        assert_eq!(err, "unknown flag '--json'");
    }

    #[test]
    fn profile_and_rotation_flags_parse() {
        // A temp path: creating the sink must not litter the cwd.
        let trace = std::env::temp_dir()
            .join(format!("lucid_flagparse_{}.jsonl", std::process::id()));
        let flags = Flags::parse(&argv(&[
            "--profile-out",
            "prof/",
            "--trace",
            trace.to_str().unwrap(),
            "--trace-max-bytes",
            "65536",
        ]))
        .unwrap();
        assert_eq!(flags.get("profile-out"), Some("prof/"));
        let sink = trace_sink_from(&flags);
        drop(sink);
        std::fs::remove_file(&trace).ok();
        // Rotation without a trace target is a user error.
        let flags = Flags::parse(&argv(&["--trace-max-bytes", "1024"])).unwrap();
        assert_eq!(
            trace_sink_from(&flags).unwrap_err(),
            "--trace-max-bytes requires --trace"
        );
        let flags = Flags::parse(&argv(&["--trace", "t", "--trace-max-bytes", "0"])).unwrap();
        assert_eq!(trace_sink_from(&flags).unwrap_err(), "bad --trace-max-bytes");
    }

    #[test]
    fn audit_flags_parse_and_rotation_stays_coupled() {
        // A temp path: creating the sink must not litter the cwd.
        let audit = std::env::temp_dir()
            .join(format!("lucid_auditparse_{}.jsonl", std::process::id()));
        let flags = Flags::parse(&argv(&[
            "--audit",
            audit.to_str().unwrap(),
            "--audit-max-bytes",
            "65536",
        ]))
        .unwrap();
        let sink = audit_sink_from(&flags);
        assert!(sink.is_ok());
        drop(sink);
        std::fs::remove_file(&audit).ok();
        // Rotation without an audit target is a user error.
        let flags = Flags::parse(&argv(&["--audit-max-bytes", "1024"])).unwrap();
        assert_eq!(
            audit_sink_from(&flags).unwrap_err(),
            "--audit-max-bytes requires --audit"
        );
        let flags = Flags::parse(&argv(&["--audit", "a", "--audit-max-bytes", "0"])).unwrap();
        assert_eq!(audit_sink_from(&flags).unwrap_err(), "bad --audit-max-bytes");
        // No flags: no sink.
        assert!(audit_sink_from(&Flags::parse(&[]).unwrap()).unwrap().is_none());
    }

    #[test]
    fn why_command_validates_its_argument() {
        let err = run(&argv(&["why"])).unwrap_err();
        assert_eq!(err, WHY_USAGE);
        let err = run(&argv(&["why", "a", "b"])).unwrap_err();
        assert_eq!(err, WHY_USAGE);
        let err = run(&argv(&["why", "/nonexistent_lucid_audit.jsonl"])).unwrap_err();
        assert!(matches!(&err, CliError::Failed(m) if m.contains("cannot read trace")), "{err:?}");
    }

    #[test]
    fn batch_audit_and_explain_flags_parse() {
        // --audit-dir needs a value; --explain is a switch.
        let err = run(&argv(&["batch", "--audit-dir"])).unwrap_err();
        assert_eq!(err, "--audit-dir requires a value");
        let flags = Flags::parse_with(
            &argv(&["--explain", "--audit-dir", "d/"]),
            BATCH_SWITCH_FLAGS,
            BATCH_VALUE_FLAGS,
        )
        .unwrap();
        assert!(flags.has("explain"));
        assert_eq!(flags.get("audit-dir"), Some("d/"));
        // The single-file --audit flag belongs to standardize, not batch.
        let err = run(&argv(&["batch", "--audit", "a.jsonl"])).unwrap_err();
        assert_eq!(err, "unknown flag '--audit'");
    }

    #[test]
    fn trace_command_validates_its_argument() {
        let err = run(&argv(&["trace"])).unwrap_err();
        assert_eq!(err, TRACE_USAGE);
        // Multiple files require the explicit --aggregate flag.
        let err = run(&argv(&["trace", "a", "b"])).unwrap_err();
        assert_eq!(err, TRACE_USAGE);
        let err = run(&argv(&["trace", "--aggregate"])).unwrap_err();
        assert_eq!(err, TRACE_USAGE);
        let err = run(&argv(&["trace", "/nonexistent_lucid_trace.jsonl"])).unwrap_err();
        assert!(matches!(&err, CliError::Failed(m) if m.contains("cannot read trace")), "{err:?}");
        let err =
            run(&argv(&["trace", "--aggregate", "/nonexistent_lucid_trace.jsonl"])).unwrap_err();
        assert!(matches!(&err, CliError::Failed(m) if m.contains("cannot read trace")), "{err:?}");
    }

    #[test]
    fn telemetry_mode_flag_parses_and_rejects_typos() {
        use lucidscript::obs::TelemetryMode;
        let none = Flags::parse(&[]).unwrap();
        assert_eq!(telemetry_mode_from(&none).unwrap(), None);
        for (value, mode) in [
            ("off", TelemetryMode::Off),
            ("counting", TelemetryMode::Counting),
            ("full", TelemetryMode::Full),
        ] {
            let flags = Flags::parse(&argv(&["--telemetry", value])).unwrap();
            assert_eq!(telemetry_mode_from(&flags).unwrap(), Some(mode));
        }
        let flags = Flags::parse(&argv(&["--telemetry", "verbose"])).unwrap();
        assert_eq!(
            telemetry_mode_from(&flags).unwrap_err(),
            "bad --telemetry 'verbose' (off|counting|full)"
        );
    }

    #[test]
    fn stats_export_flags_parse_and_stay_coupled() {
        assert_eq!(stats_export_from(&Flags::parse(&[]).unwrap()).unwrap(), None);
        let flags = Flags::parse(&argv(&["--stats-out", "s.prom"])).unwrap();
        assert_eq!(
            stats_export_from(&flags).unwrap(),
            Some((PathBuf::from("s.prom"), None))
        );
        let flags = Flags::parse(&argv(&[
            "--stats-out",
            "s.json",
            "--stats-interval-ms",
            "250",
        ]))
        .unwrap();
        assert_eq!(
            stats_export_from(&flags).unwrap(),
            Some((PathBuf::from("s.json"), Some(250)))
        );
        // The interval alone has nothing to write to.
        let flags = Flags::parse(&argv(&["--stats-interval-ms", "250"])).unwrap();
        assert_eq!(
            stats_export_from(&flags).unwrap_err(),
            "--stats-interval-ms requires --stats-out"
        );
        let flags =
            Flags::parse(&argv(&["--stats-out", "s", "--stats-interval-ms", "0"])).unwrap();
        assert_eq!(
            stats_export_from(&flags).unwrap_err(),
            "bad --stats-interval-ms"
        );
    }

    #[test]
    fn bench_telemetry_flags_parse() {
        let flags = Flags::parse_with(
            &argv(&["--telemetry-overhead", "--counting-only", "--quick"]),
            BENCH_SWITCH_FLAGS,
            BENCH_VALUE_FLAGS,
        )
        .unwrap();
        assert!(flags.has("telemetry-overhead"));
        assert!(flags.has("counting-only"));
        let err = run(&argv(&["bench", "--inject-mem-regression", "x"])).unwrap_err();
        assert_eq!(err, "bad --inject-mem-regression");
        let err = run(&argv(&["bench", "--abs-floor-bytes", "many"])).unwrap_err();
        assert_eq!(err, "bad --abs-floor-bytes");
        // Overhead flags stay out of the standardize family.
        let err = run(&argv(&["standardize", "--telemetry-overhead"])).unwrap_err();
        assert_eq!(err, "unknown flag '--telemetry-overhead'");
    }
}
