//! `stdbench`: the LucidScript-RS end-to-end and per-layer benchmark.
//!
//! ```text
//! stdbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, streams through shards
//! (set-up, timed standardization, verification of every output) in a
//! closed loop with one client for `--seconds`, and prints one JSON object
//! as the last line of standard output. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` reports the per-layer metrics from a traced run
//! and writes its spans to `.bench_out/`. See `README.md` next to this
//! crate.

// The program's instrumented allocator, as in the `lucid` binary, so the
// per-phase allocation counters in `Timings` are populated.
#[global_allocator]
static ALLOC: lucid_obs::LucidAlloc = lucid_obs::LucidAlloc;

mod host;
mod replay;
mod run;
mod spans;
mod stats;
mod verify;
mod workload;

use spans::Tracer;
use stats::{median, pct, percentile, samples_beyond};
use std::fmt::Write as _;
use workload::{Mode, Workload};

/// Where traced runs write their spans, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: stdbench --workload <search-titanic|exec-spaceship|batch-house> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("stdbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = bench(&args) {
        eprintln!("stdbench: {e}");
        std::process::exit(1);
    }
}

/// Metrics in output order: (name, value, unit).
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn bench(args: &Args) -> Result<(), String> {
    let w = Workload::by_name(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload {:?}; expected one of {:?}",
            args.workload,
            workload::NAMES
        )
    })?;
    let ticks_before = host::cpu_ticks();
    let mut tr = Tracer::new(args.trace);
    if args.trace {
        // Lemmatization runs inside the model build; time it on its own,
        // over the first shard's corpus.
        let inputs = workload::generate(&w, workload::shard_seed(args.seed, 0));
        for src in &inputs.corpus {
            let module = lucid_pyast::parse_module(src).map_err(|e| e.to_string())?;
            tr.span("core.lemma.lemmatize", || {
                lucid_core::lemma::lemmatize(&module)
            });
        }
    }
    let acc = run::stream(&w, args.seed, args.seconds, args.trace, &mut tr)?;
    let steal = host::steal_pct(ticks_before, host::cpu_ticks());

    let metrics = if args.trace {
        let path = write_spans(&tr, &w, args.seed)?;
        eprint!("{}", span_table(&tr));
        eprintln!("spans written to {path}");
        per_layer(&w, &tr, &acc, steal)
    } else {
        end_to_end(&acc)?
    };
    eprintln!(
        "{} seed {}: {} shards, {} samples, {}/{} failed{}",
        w.name,
        args.seed,
        acc.shards,
        acc.latencies_ms.len(),
        acc.failed,
        acc.attempted,
        acc.first_failure
            .as_ref()
            .map_or(String::new(), |f| format!(" (first: {f})"))
    );
    println!(
        "{{\"host\":{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"available_parallelism\":{},\"search_threads\":{},\"batch_jobs\":{},\"steal_pct\":{},\"speed_probe_ms\":{},\"process_cpu_s\":{},\"shards\":{},\"scripts\":{},\"setups\":{},\"output_digest\":\"{:016x}\"}}}}",
        w.name,
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        w.config().threads,
        match w.mode {
            Mode::Batch { jobs } => jobs.to_string(),
            Mode::Search { .. } => "null".to_string(),
        },
        steal,
        median(&acc.probe_ms),
        host::process_cpu_s(),
        acc.shards,
        acc.scripts,
        acc.setup_s.len(),
        acc.digest,
    );
    let correct = acc.failed == 0 && acc.attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        acc.attempted,
        acc.failed,
        render_metrics(&metrics)?
    );
    Ok(())
}

fn end_to_end(acc: &run::Acc) -> Result<Metrics, String> {
    let lat = &acc.latencies_ms;
    if samples_beyond(lat.len(), 90.0) < 10 {
        return Err(format!(
            "only {} latency samples; the p90 needs at least 10 beyond it",
            lat.len()
        ));
    }
    let gains = &acc.improvements;
    Ok(vec![
        ("setup_s", median(&acc.setup_s), "s"),
        ("scripts_per_s", acc.scripts as f64 / acc.timed_s, "1/s"),
        ("latency_p50_ms", percentile(lat, 50.0), "ms"),
        ("latency_p90_ms", percentile(lat, 90.0), "ms"),
        ("peak_heap_mib", median(&acc.heap_peaks_mib), "MiB"),
        (
            "re_improvement_pct",
            gains.iter().sum::<f64>() / gains.len().max(1) as f64,
            "%",
        ),
    ])
}

fn per_layer(w: &Workload, tr: &Tracer, acc: &run::Acc, steal: f64) -> Metrics {
    let agg = tr.aggregate();
    let us = |name: &str| agg.get(name).map_or(0.0, spans::SpanAgg::self_us_per_call);
    let t = &acc.timings;
    let replayed = &acc.replay;
    let searches = acc.searches.max(1) as f64;
    let per_search = |v: f64| v / searches;
    let rank_cluster_ms = (t.get_top_k_ms - t.check_execute_ms).max(0.0);
    let untraced = acc.scripts as f64 / acc.timed_s;
    let traced = acc.traced_scripts as f64 / acc.traced_s;
    vec![
        ("pyast.parse_us", us("pyast.parse"), "us"),
        ("core.lemma.lemmatize_us", us("core.lemma.lemmatize"), "us"),
        ("core.vocab.build_ms", us("core.vocab.build") / 1e3, "ms"),
        ("frame.read_csv_ms", us("frame.read_csv") / 1e3, "ms"),
        (
            "core.transform.enumerate_us",
            us("core.transform.enumerate"),
            "us",
        ),
        (
            "core.transform.candidates",
            replayed.candidates as f64 / replayed.beams.max(1) as f64,
            "count",
        ),
        ("core.ir.apply_us", us("core.ir.apply"), "us"),
        ("core.entropy.score_us", us("core.entropy.score"), "us"),
        ("core.kmeans.cluster_us", us("core.kmeans.cluster"), "us"),
        ("core.search.get_steps_ms", per_search(t.get_steps_ms), "ms"),
        (
            "core.search.rank_cluster_ms",
            per_search(rank_cluster_ms),
            "ms",
        ),
        (
            "core.search.check_execute_ms",
            per_search(t.check_execute_ms),
            "ms",
        ),
        (
            "core.search.verify_ms",
            per_search(t.verify_constraints_ms),
            "ms",
        ),
        (
            "core.search.get_steps_share_pct",
            pct(t.get_steps_ms, acc.search_ms),
            "%",
        ),
        (
            "core.search.rank_cluster_share_pct",
            pct(rank_cluster_ms, acc.search_ms),
            "%",
        ),
        (
            "core.search.check_execute_share_pct",
            pct(t.check_execute_ms, acc.search_ms),
            "%",
        ),
        (
            "core.search.verify_share_pct",
            pct(t.verify_constraints_ms, acc.search_ms),
            "%",
        ),
        ("interp.run_us", us("interp.run"), "us"),
        (
            "interp.exec_fail_pct",
            pct(replayed.exec_fails as f64, replayed.exec_runs as f64),
            "%",
        ),
        (
            "interp.prefix_cache_hit_pct",
            pct(
                t.prefix_cache_hits as f64,
                (t.prefix_cache_hits + t.prefix_cache_misses) as f64,
            ),
            "%",
        ),
        ("core.intent.evaluate_us", us("core.intent.evaluate"), "us"),
        ("ml.fit_ms", us("ml.fit") / 1e3, "ms"),
        (
            "core.batch.memo_hit_pct",
            pct(
                acc.memo_hits as f64,
                (acc.memo_hits + acc.memo_misses) as f64,
            ),
            "%",
        ),
        (
            "interp.pooled_cache_hit_pct",
            pct(
                acc.store_hits as f64,
                (acc.store_hits + acc.store_misses) as f64,
            ),
            "%",
        ),
        (
            "batch.cpu_busy_pct",
            pct(acc.cpu_s, acc.timed_s * w.jobs() as f64),
            "%",
        ),
        (
            "obs.alloc.bytes_enumerate",
            per_search(t.alloc_bytes_enumerate as f64),
            "bytes",
        ),
        (
            "obs.alloc.bytes_execute",
            per_search(t.alloc_bytes_execute as f64),
            "bytes",
        ),
        (
            "obs.alloc.bytes_total",
            per_search(t.alloc_bytes_total as f64),
            "bytes",
        ),
        (
            "obs.alloc.peak_live_bytes",
            t.peak_live_bytes as f64,
            "bytes",
        ),
        (
            "core.search.candidates_explored",
            per_search(acc.explored as f64),
            "count",
        ),
        (
            "core.search.candidates_deduped",
            per_search(t.candidates_deduped as f64),
            "count",
        ),
        (
            "core.search.pruned_monotonicity",
            per_search(t.pruned_monotonicity as f64),
            "count",
        ),
        ("trace.scripts_per_s", traced, "1/s"),
        ("trace.untraced_scripts_per_s", untraced, "1/s"),
        ("trace.overhead_pct", (untraced / traced - 1.0) * 100.0, "%"),
        ("host.steal_pct", steal, "%"),
        ("host.speed_probe_ms", median(&acc.probe_ms), "ms"),
    ]
}

fn render_metrics(metrics: &Metrics) -> Result<String, String> {
    let mut out = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
    Ok(out)
}

fn write_spans(tr: &Tracer, w: &Workload, seed: u64) -> Result<String, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/spans-{}-seed{seed}.jsonl", w.name);
    std::fs::write(&path, tr.to_jsonl()).map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(path)
}

fn span_table(tr: &Tracer) -> String {
    let mut out = format!(
        "{:<32} {:>9} {:>12} {:>12}\n",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, a) in tr.aggregate() {
        let _ = writeln!(
            out,
            "{name:<32} {:>9} {:>12.3} {:>12.3}",
            a.count,
            a.total_ns as f64 / 1e6,
            a.self_ns as f64 / 1e6
        );
    }
    out
}
