//! `lucid` — command-line front end for the LucidScript standardizer.
//!
//! ```text
//! lucid standardize --corpus DIR --data FILE --script FILE [options]
//! lucid batch       --corpus DIR --data FILE [--jobs N] [--memo] [--batch-out DIR]
//! lucid score       --corpus DIR --script FILE
//! lucid corpus-stats --corpus DIR
//! lucid trace       FILE.jsonl
//! lucid trace       --aggregate FILE.jsonl...
//! lucid why         FILE.jsonl
//! lucid profile     FILE.jsonl [--out DIR]
//! lucid bench       [--quick] [--kernels] [--reps N] [--out FILE] [--compare BASELINE]
//! ```
//!
//! The corpus is a directory of `.py` files (straight-line pandas
//! scripts); `--data` is the CSV the scripts read, registered under its
//! base name so `pd.read_csv('<basename>')` resolves.

use lucidscript::core::config::SearchConfig;
use lucidscript::core::error::CoreError;
use lucidscript::core::intent::IntentMeasure;
use lucidscript::core::standardizer::Standardizer;
use lucidscript::core::vocab::CorpusModel;
use lucidscript::frame::csv::read_csv;
use lucidscript::pyast::{parse_module, Module};
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
  lucid why          <FILE.jsonl>
  lucid profile      <FILE.jsonl> [--out <DIR>]
  lucid bench        [--quick] [--kernels] [--reps <N>] [--out <FILE>] [--compare <BASELINE>]
  lucid bench        --telemetry-overhead [--quick] [--reps <N>]

OPTIONS (standardize):
  --tau-j <0..1>      table-Jaccard intent threshold (default 0.9)
  --tau-m <0..100>    model-performance threshold in %, requires --target
  --target <COL>      label column for --tau-m
  --seq <N>           max transformations (default 16)
  --beam <K>          beam size (default 3)
  --sample <N>        row-sample D_IN during constraint checks
  --threads <N>       beam-expansion worker threads (0 = all cores, default 1)
  --fuel <N>          per-candidate fuel budget (ops; default unlimited)
  --max-cells <N>     per-candidate materialized-cell cap (default unlimited)
  --deadline-ms <N>   per-candidate wall-clock deadline in ms (default unlimited;
                      the only budget axis that can break deterministic replay)
  --trace <FILE>      write the trace (JSONL) to FILE: the search's per-step
                      measurements, then one record per candidate with its
                      lineage and terminal disposition; render it with
                      `lucid trace`, `lucid why` or `lucid profile`
  --stats-out <FILE>  write a metrics snapshot after the search (.prom/.txt
                      get Prometheus text exposition, anything else JSON)
  --explain           print per-change explanations
  --json              emit the full report as JSON

OPTIONS (batch):
  standardizes every .py script of --corpus against that corpus in one
  process, sharing the statement interner and the prefix-cache store
  across searches. Accepts the standardize search knobs (--tau-j, --tau-m,
  --target, --seq, --beam, --sample, --threads, --fuel, --max-cells,
  --deadline-ms, --stats-out) plus:
  --jobs <N>          concurrent per-script searches (0 = all cores,
                      default 1); output is byte-identical at any value
  --memo              run one search per group of structurally identical
                      scripts (equal lemmatized fingerprint) and serve its
                      result, or error, to the whole group
  --batch-out <DIR>   write batch_report.json (deterministic), summary.txt,
                      and the standardized scripts under DIR/scripts/
  --trace-dir <DIR>   write one trace per script to DIR (<name>.trace.jsonl;
                      memo hits get a stub pointing at their representative)
  --explain           include per-change explanations in every script's
                      deterministic report entry
  --json              print the deterministic batch report as JSON

OPTIONS (bench):
  records what the end-to-end benchmark (benchmark/) cannot: the
  allocator-attributed byte rows of the pinned searches and, with
  --kernels, frame-kernel wall times. Each workload row carries its
  parameters; the gate compares rows whose name and parameters match.
  --quick             run the 1-workload smoke subset instead of the full suite
  --kernels           also run the frame-kernel micro-suite (fillna, dummies,
                      astype, compare, arith, groupby, jaccard over 100k-row
                      synthetic columns) as kernel-* workloads in the same entry
  --reps <N>          repetitions per workload (default 5)
  --out <FILE>        trajectory file to append to (default BENCH_search.json;
                      with --compare, nothing is appended unless --out is given)
  --compare <BASELINE>  diff this run against the last entry of BASELINE and
                      exit non-zero when a row's median grows by more than 50%,
                      1.5x the run-to-run spread and its unit's floor (1 ms,
                      1 MiB), all three, or when a workload has no baseline
                      of the same name and parameters
  --telemetry-overhead  measure telemetry cost instead of appending: run each
                      workload with allocator counting off and on and fail
                      when counting exceeds 5% relative overhead and a 2 ms
                      floor; also measures --trace: trace-off must match the
                      plain harness within noise, trace-on must stay under
                      30% relative or a 3 ms floor. Every arm is wall time
                      around one standardization, arms interleaved rep by rep

`lucid trace`, `lucid why` and `lucid profile` are three views of one
trace file written by `--trace` (schema v8; files of earlier versions are
rejected by name).
`lucid trace` shows the per-step table, the Figure 7 phase totals, and
cache/interpreter statistics; `lucid trace --aggregate` merges several
trace files into one cross-search table with per-phase totals and memory
peaks (batch memo-hit stubs show as memo rows).
`lucid why` shows the decisions: per-step ranking tables with score
deltas, the pruned-candidate graveyard grouped by disposition, the
winner's lineage, the final-diff line-to-candidate join, and the exact
reconciliation of disposition counts against the same file's search_end
counters.
`lucid profile` shows the profile record: collapsed-stack flamegraph
text (search phases, then interpreter runs, statements and kernels) plus
count, sum and p50/p90/p99/max of every timed metric; `--out DIR` writes
them as flame.folded, percentiles.txt and profile.json (the record on
one line, itself readable as a one-record trace) instead.
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
const SWITCH_FLAGS: &[&str] = &["explain", "json"];
/// `--name value` flags of the standardize/score/corpus-stats family.
const VALUE_FLAGS: &[&str] = &[
    "corpus", "data", "script", "tau-j", "tau-m", "target", "seq", "beam", "sample", "threads",
    "trace", "fuel", "max-cells", "deadline-ms", "stats-out",
];
/// Switches of `lucid bench`.
const BENCH_SWITCH_FLAGS: &[&str] = &["quick", "kernels", "telemetry-overhead"];
/// `--name value` flags of `lucid bench`.
const BENCH_VALUE_FLAGS: &[&str] = &["reps", "out", "compare"];
/// `--name value` flags of `lucid profile` (after the positional file).
const PROFILE_VALUE_FLAGS: &[&str] = &["out"];
/// Switches of `lucid batch`.
const BATCH_SWITCH_FLAGS: &[&str] = &["memo", "json", "explain"];
/// `--name value` flags of `lucid batch`: the standardize search knobs
/// minus the single-script/trace/profile ones, plus the batch fan-out.
const BATCH_VALUE_FLAGS: &[&str] = &[
    "corpus",
    "data",
    "jobs",
    "batch-out",
    "trace-dir",
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
    "stats-out",
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

/// `lucid trace <FILE.jsonl>`: the measurement view of a trace — the
/// per-step table plus the Figure 7 phase totals it reconstructs.
/// `lucid trace --aggregate <FILE>...` merges several traces into one
/// cross-search table.
fn trace_report(rest: &[String]) -> Result<(), CliError> {
    if rest.first().map(String::as_str) == Some("--aggregate") {
        let files = &rest[1..];
        if files.is_empty() {
            return Err(CliError::Usage(TRACE_USAGE.to_string()));
        }
        let mut inputs = Vec::with_capacity(files.len());
        for path in files {
            let summary = read_trace(path)?;
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
    print!("{}", read_trace(path)?.render());
    Ok(())
}

/// Parses the trace at `path`; errors name the file.
fn read_trace(path: &str) -> Result<lucidscript::obs::TraceSummary, CliError> {
    lucidscript::obs::read_trace(Path::new(path)).map_err(|e| CliError::Failed(e.to_string()))
}

const WHY_USAGE: &str = "usage: lucid why <FILE.jsonl>";

/// `lucid why <FILE.jsonl>`: the decision view of a trace — per-step
/// ranking tables, the pruned-candidate graveyard, the winner's lineage,
/// the diff-line join, and the reconciliation against the same file's
/// `search_end` counters.
fn why_report(rest: &[String]) -> Result<(), CliError> {
    let [path] = rest else {
        return Err(CliError::Usage(WHY_USAGE.to_string()));
    };
    print!("{}", read_trace(path)?.render_why());
    Ok(())
}

/// `lucid profile <FILE.jsonl> [--out DIR]`: the profile view of a trace
/// (an `--out` profile.json is a one-record trace) — the folded
/// flamegraph + percentile table, or those files written into `--out`.
fn profile_report(rest: &[String]) -> Result<(), CliError> {
    let Some((path, flag_args)) = rest.split_first() else {
        return Err(CliError::Usage(
            "usage: lucid profile <FILE.jsonl> [--out <DIR>]".to_string(),
        ));
    };
    let flags = Flags::parse_with(flag_args, &[], PROFILE_VALUE_FLAGS)?;
    let report = read_trace(path)?.profile.ok_or_else(|| {
        format!(
            "'{path}' carries no profile record — searches emit one when run \
             with --trace"
        )
    })?;
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
    let workloads = if flags.has("quick") {
        lucidscript::bench::quick_suite()
    } else {
        lucidscript::bench::suite()
    };
    if flags.has("telemetry-overhead") {
        eprintln!(
            "measuring telemetry overhead: {} workload(s) × {} rep(s) × 2 arm(s)...",
            workloads.len(),
            reps
        );
        let reports = lucidscript::bench::measure_overhead(&workloads, reps)?;
        print!("{}", lucidscript::bench::overhead::render(&reports));
        const BUDGET_FRAC: f64 = 0.05;
        const BUDGET_FLOOR_MS: f64 = 2.0;
        let telemetry_ok = reports
            .iter()
            .all(|r| r.within_budget(BUDGET_FRAC, BUDGET_FLOOR_MS));
        if telemetry_ok {
            println!("telemetry overhead budget (counting 5% or 2 ms): ok");
        } else {
            eprintln!("telemetry overhead budget (counting 5% or 2 ms): EXCEEDED");
        }
        eprintln!(
            "measuring trace overhead: {} workload(s) × {} rep(s) × 3 arm(s)...",
            workloads.len(),
            reps
        );
        let trace_reports = lucidscript::bench::measure_trace_overhead(&workloads, reps)?;
        print!("{}", lucidscript::bench::overhead::render_trace(&trace_reports));
        let trace_ok = trace_reports.iter().all(|r| {
            r.within_budget(
                lucidscript::bench::TRACE_BUDGET_FRAC,
                lucidscript::bench::TRACE_BUDGET_FLOOR_MS,
            )
        });
        if trace_ok {
            println!("trace overhead budget (off within noise; on 30% or 3 ms): ok");
        } else {
            eprintln!("trace overhead budget (off within noise; on 30% or 3 ms): EXCEEDED");
        }
        return Ok(if telemetry_ok && trace_ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    // Read up front so a bad baseline fails before the suite runs.
    let compare = flags.get("compare");
    let baseline = compare
        .map(|path| lucidscript::bench::load_baseline(Path::new(path)))
        .transpose()?;
    eprintln!("running {} workload(s) × {reps} rep(s)...", workloads.len());
    let mut entry = lucidscript::bench::run_suite(&workloads, reps)?;
    if flags.has("kernels") {
        eprintln!(
            "running {} kernel workload(s) × {reps} rep(s)...",
            lucidscript::bench::kernel_suite().len()
        );
        lucidscript::bench::extend_with_kernels(&mut entry, reps);
    }
    for w in &entry.workloads {
        eprintln!("  {:<26} [{}] {}", w.name, w.params, w.headline());
    }
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
    if let Some(baseline) = baseline {
        let cmp = lucidscript::bench::compare_entries(
            &entry,
            &baseline,
            &lucidscript::bench::GateOptions::default(),
        );
        print!("{}", cmp.render());
        if cmp.regressed() {
            eprintln!("regression gate: FAILED");
            return Ok(ExitCode::FAILURE);
        }
        println!("regression gate: ok");
    }
    Ok(ExitCode::SUCCESS)
}

/// Reads every `.py` file of `dir`, in name order, into a corpus model.
/// Fails fast: one file that does not parse fails the command with an
/// error naming that file (`lucid batch` instead skips and reports it).
fn load_corpus(dir: &str) -> Result<CorpusModel, String> {
    let mut sources = Vec::new();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read corpus dir '{dir}': {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "py"))
        .collect();
    paths.sort();
    for p in &paths {
        let src = std::fs::read_to_string(p)
            .map_err(|e| format!("cannot read {}: {e}", p.display()))?;
        sources.push(src);
    }
    if sources.is_empty() {
        return Err(format!("no .py files in '{dir}'"));
    }
    CorpusModel::build_from_sources(&sources).map_err(|e| match e {
        CoreError::CorpusParse { index, error } => format!("{}: {error}", paths[index].display()),
        other => other.to_string(),
    })
}

/// Reads and parses the user's script; a parse error names the file, as
/// corpus errors do.
fn load_script(path: &str) -> Result<Module, String> {
    let source =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read script '{path}': {e}"))?;
    parse_module(&source).map_err(|e| format!("{path}: {e}"))
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

/// The `--stats-out` fleet registry: every search merges its metrics
/// into it, and [`write_stats`] exports it once the run ends.
fn stats_registry_from(flags: &Flags) -> Option<std::sync::Arc<lucidscript::obs::Registry>> {
    flags
        .get("stats-out")
        .map(|_| std::sync::Arc::new(lucidscript::obs::Registry::new()))
}

/// Writes the `--stats-out` snapshot of the fleet registry.
fn write_stats(flags: &Flags, fleet: Option<&lucidscript::obs::Registry>) -> Result<(), CliError> {
    if let (Some(path), Some(reg)) = (flags.get("stats-out"), fleet) {
        lucidscript::obs::export::write_snapshot(reg, Path::new(path))
            .map_err(|e| format!("cannot write stats snapshot: {e}"))?;
    }
    Ok(())
}

/// Builds the `--trace` sink.
fn trace_sink_from(flags: &Flags) -> Result<Option<lucidscript::obs::TraceSink>, CliError> {
    let Some(path) = flags.get("trace") else {
        return Ok(None);
    };
    Ok(lucidscript::obs::TraceSink::to_file(path)
        .map(Some)
        .map_err(|e| format!("cannot create trace file '{path}': {e}"))?)
}

/// Builds the [`SearchConfig`] shared by `standardize` and `batch` from
/// the common flag family. Flags a command does not accept (e.g. batch
/// has no `--trace`) simply stay at their defaults.
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
        budget: budget_from(flags)?,
        trace: trace_sink_from(flags)?,
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
    let script = load_script(flags.require("script")?)?;

    let fleet = stats_registry_from(flags);
    let config = search_config_from(flags, fleet.clone())?;

    let mut standardizer = Standardizer::from_model(corpus, basename.clone(), data.clone(), config)
        .map_err(|e| e.to_string())?;
    // Also register the full path so scripts referencing it verbatim work.
    standardizer.register_table(data_path, data);

    let report = standardizer
        .standardize(&script)
        .map_err(|e| e.to_string())?;
    write_stats(flags, fleet.as_deref())?;

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

    // Per-search registries merge into the fleet registry via the
    // per-batch roll-up, so the snapshot covers the whole run.
    let fleet = stats_registry_from(flags);
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
        explain: flags.has("explain"),
    };

    let report =
        lucidscript::core::batch::standardize_corpus(&scripts, &basename, data, config, &opts)
            .map_err(|e| e.to_string())?;
    write_stats(flags, fleet.as_deref())?;

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
    let model = load_corpus(flags.require("corpus")?)?;
    let module = load_script(flags.require("script")?)?;
    println!("{:.6}", model.re_of(&module));
    Ok(())
}

fn corpus_stats(flags: &Flags) -> Result<(), CliError> {
    let model = load_corpus(flags.require("corpus")?)?;
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
            &["bench", "--quick", "--rel-threshold", "0.1"],
            &["standardize", "--threads"],
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
        let flags = Flags::parse(&argv(&["--trace", "t.jsonl", "--threads", "2"])).unwrap();
        assert_eq!(flags.get("trace"), Some("t.jsonl"));
        assert_eq!(flags.get("threads"), Some("2"));
        assert!(!flags.has("json"));
        assert_eq!(flags.get("missing"), None);
        // Every search caches: there is no switch to turn the cache off.
        let err = Flags::parse(&argv(&["--no-cache"])).err().expect("rejected");
        assert_eq!(err, "unknown flag '--no-cache'");
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
    }

    #[test]
    fn profile_command_validates_its_arguments() {
        let err = run(&argv(&["profile"])).unwrap_err();
        assert!(matches!(&err, CliError::Usage(m) if m.contains("usage: lucid profile")), "{err:?}");
        let err = run(&argv(&["profile", "/nonexistent_lucid_profile.jsonl"])).unwrap_err();
        assert!(matches!(&err, CliError::Failed(m) if m.contains("cannot read trace")), "{err:?}");
        let err = run(&argv(&["profile", "f.jsonl", "--json"])).unwrap_err();
        assert_eq!(err, "unknown flag '--json'");
    }

    #[test]
    fn profile_and_rotation_flags_parse() {
        // A temp path: creating the sink must not litter the cwd.
        let trace = std::env::temp_dir()
            .join(format!("lucid_flagparse_{}.jsonl", std::process::id()));
        let flags = Flags::parse(&argv(&["--trace", trace.to_str().unwrap()])).unwrap();
        let sink = trace_sink_from(&flags).unwrap().expect("a sink");
        assert_eq!(sink.path(), Some(trace.as_path()));
        drop(sink);
        std::fs::remove_file(&trace).ok();
        // Profile exports come from the trace (`lucid profile --out`), and
        // a trace is one whole file: neither old flag parses.
        for flag in ["--profile-out", "--trace-max-bytes"] {
            let err = Flags::parse(&argv(&[flag, "1"])).err().expect("rejected");
            assert_eq!(err, format!("unknown flag '{flag}'").as_str());
        }
    }

    #[test]
    fn audit_flags_are_unknown() {
        // The decision records ride in the one --trace stream; the old
        // separate-stream flags are gone from every command.
        for args in [
            &["standardize", "--audit", "a.jsonl"][..],
            &["standardize", "--audit-max-bytes", "1024"],
            &["batch", "--audit-dir", "d/"],
        ] {
            let err = run(&argv(args)).unwrap_err();
            assert_eq!(err, format!("unknown flag '{}'", args[1]).as_str());
            assert!(matches!(err, CliError::Usage(_)));
        }
    }

    #[test]
    fn why_command_validates_its_argument() {
        let err = run(&argv(&["why"])).unwrap_err();
        assert_eq!(err, WHY_USAGE);
        let err = run(&argv(&["why", "a", "b"])).unwrap_err();
        assert_eq!(err, WHY_USAGE);
        let err = run(&argv(&["why", "/nonexistent_lucid_why.jsonl"])).unwrap_err();
        assert!(matches!(&err, CliError::Failed(m) if m.contains("cannot read trace")), "{err:?}");
    }

    #[test]
    fn batch_explain_and_trace_dir_flags_parse() {
        // --trace-dir needs a value; --explain is a switch.
        let err = run(&argv(&["batch", "--trace-dir"])).unwrap_err();
        assert_eq!(err, "--trace-dir requires a value");
        let flags = Flags::parse_with(
            &argv(&["--explain", "--trace-dir", "d/"]),
            BATCH_SWITCH_FLAGS,
            BATCH_VALUE_FLAGS,
        )
        .unwrap();
        assert!(flags.has("explain"));
        assert_eq!(flags.get("trace-dir"), Some("d/"));
        // The single-file --trace flag belongs to standardize, not batch.
        let err = run(&argv(&["batch", "--trace", "t.jsonl"])).unwrap_err();
        assert_eq!(err, "unknown flag '--trace'");
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
    fn removed_telemetry_knobs_are_unknown_flags() {
        // Allocator counting has one record path and no user knob; the
        // stats snapshot is written once at exit.
        for args in [
            &["standardize", "--telemetry", "full"][..],
            &["batch", "--telemetry", "off"],
            &["standardize", "--stats-interval-ms", "5"],
            &["batch", "--stats-interval-ms", "5"],
            &["bench", "--counting-only", "--telemetry-overhead"],
        ] {
            let err = run(&argv(args)).unwrap_err();
            assert_eq!(err, format!("unknown flag '{}'", args[1]).as_str());
            assert!(matches!(err, CliError::Usage(_)));
        }
    }

    #[test]
    fn removed_search_and_trace_knobs_are_unknown_flags() {
        // Every search caches, and a trace is one whole file.
        for args in [
            &["standardize", "--no-cache"][..],
            &["batch", "--no-cache"],
            &["standardize", "--trace-max-bytes", "65536"],
        ] {
            let err = run(&argv(args)).unwrap_err();
            assert_eq!(err, format!("unknown flag '{}'", args[1]).as_str());
            assert!(matches!(err, CliError::Usage(_)));
        }
    }

    #[test]
    fn stats_out_flag_parses_in_standardize_and_batch() {
        assert!(stats_registry_from(&Flags::parse(&[]).unwrap()).is_none());
        let flags = Flags::parse(&argv(&["--stats-out", "s.prom"])).unwrap();
        assert_eq!(flags.get("stats-out"), Some("s.prom"));
        assert!(stats_registry_from(&flags).is_some());
        let flags = Flags::parse_with(
            &argv(&["--stats-out", "s.json"]),
            BATCH_SWITCH_FLAGS,
            BATCH_VALUE_FLAGS,
        )
        .unwrap();
        assert!(stats_registry_from(&flags).is_some());
        let err = run(&argv(&["standardize", "--stats-out"])).unwrap_err();
        assert_eq!(err, "--stats-out requires a value");
    }

    #[test]
    fn bench_telemetry_flags_parse() {
        let flags = Flags::parse_with(
            &argv(&["--telemetry-overhead", "--quick", "--reps", "2"]),
            BENCH_SWITCH_FLAGS,
            BENCH_VALUE_FLAGS,
        )
        .unwrap();
        assert!(flags.has("telemetry-overhead"));
        assert!(flags.has("quick"));
        assert_eq!(flags.get("reps"), Some("2"));
        // The batch sweep, the injection hooks and the gate knobs are gone:
        // the gate rule is fixed.
        for flag in [
            "--batch",
            "--inject-slowdown",
            "--inject-mem-regression",
            "--rel-threshold",
            "--noise-mult",
            "--abs-floor-ms",
            "--abs-floor-bytes",
        ] {
            let err = run(&argv(&["bench", flag, "2"])).unwrap_err();
            assert_eq!(err, format!("unknown flag '{flag}'").as_str());
        }
        // Overhead flags stay out of the standardize family.
        let err = run(&argv(&["standardize", "--telemetry-overhead"])).unwrap_err();
        assert_eq!(err, "unknown flag '--telemetry-overhead'");
    }
}
