//! Set-up, the timed closed loop, and per-shard checks.
//!
//! A run streams through shards, each with its own corpus, `D_IN` and
//! scripts, until its time is up. Per shard: three set-ups (the set-up
//! samples), then every script standardized once (the timed part: one
//! `standardize_source` call per user script, or one `standardize_corpus`
//! call for the batch), then the untimed checks of every output. Every
//! script a run times is distinct, so a run averages over as many inputs as
//! its time allows.

use crate::host;
use crate::replay::{self, ReplayAcc};
use crate::spans::Tracer;
use crate::verify;
use crate::workload::{self, Inputs, Mode, Workload};
use lucid_core::batch::{standardize_corpus, BatchScript};
use lucid_core::report::Timings;
use lucid_core::vocab::CorpusModel;
use lucid_core::{StandardizeReport, Standardizer};
use lucid_frame::csv::read_csv_str;
use lucid_frame::DataFrame;
use lucid_obs::alloc;
use lucid_pyast::parse_module;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fewest latency samples a run collects, so the p90 has ten beyond it.
const MIN_SAMPLES: usize = 100;
/// Set-ups of each shard; `setup_s` is the median of all.
const SETUP_REPS: usize = 3;
/// Measurement stops here even if the other stopping conditions do not
/// hold, so the whole run ends well inside its 180 s limit.
const HARD_CAP: Duration = Duration::from_secs(120);

/// From generated inputs to a ready standardizer: corpus parse, the
/// `CorpusModel` build (which lemmatizes), CSV ingest, and the
/// interpreter set-up inside `Standardizer::from_model`.
pub fn setup(
    w: &Workload,
    inputs: &Inputs,
    tr: &mut Tracer,
) -> Result<(Standardizer, DataFrame), String> {
    let open = tr.enter("setup");
    let mut modules = Vec::with_capacity(inputs.corpus.len());
    for src in &inputs.corpus {
        let module = tr
            .span("pyast.parse", || parse_module(src))
            .map_err(|e| format!("corpus script does not parse: {e}"))?;
        modules.push(module);
    }
    let model = tr
        .span("core.vocab.build", || CorpusModel::build(&modules))
        .map_err(|e| format!("corpus model: {e}"))?;
    let data = tr
        .span("frame.read_csv", || read_csv_str(&inputs.csv))
        .map_err(|e| format!("D_IN csv: {e}"))?;
    let std = tr
        .span("core.standardizer.from_model", || {
            Standardizer::from_model(model, w.profile.file, data.clone(), w.config())
        })
        .map_err(|e| format!("standardizer: {e}"))?;
    tr.exit(open);
    Ok((std, data))
}

/// Everything a run observed.
#[derive(Default)]
pub struct Acc {
    /// Seconds per set-up, every shard.
    pub setup_s: Vec<f64>,
    /// Per-search latency of the untraced calls: the harness's wall time
    /// around each `standardize_source` call, or for the batch each
    /// executed search's own `timings.total_ms` (two searches share the
    /// cores there, and the batch call itself is too coarse to rank).
    pub latencies_ms: Vec<f64>,
    /// Scripts standardized and the wall seconds spent on them, untraced
    /// and traced (traced runs standardize every shard both ways).
    pub scripts: u64,
    pub timed_s: f64,
    pub traced_scripts: u64,
    pub traced_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Phase timings summed over every executed untraced search.
    pub timings: Timings,
    /// Executed untraced searches (memo-served batch scripts run none).
    pub searches: u64,
    pub explored: u64,
    /// Σ wall time of those searches: harness-measured per call, or
    /// `timings.total_ms` per batch search.
    pub search_ms: f64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub store_hits: u64,
    pub store_misses: u64,
    /// Process CPU seconds while the untraced calls ran.
    pub cpu_s: f64,
    /// Host speed probe before each shard, in ms.
    pub probe_ms: Vec<f64>,
    pub shards: u64,
    /// Per shard, the peak live heap from its first set-up to the end of
    /// its untraced standardization, in MiB.
    pub heap_peaks_mib: Vec<f64>,
    /// RE improvement of every output of the first `min_shards` shards:
    /// the same scripts in every run with this seed, however fast the host.
    pub improvements: Vec<f64>,
    /// FNV-1a over name, output source and `re_after` bits of those
    /// outputs, in order: equal seeds must give equal digests.
    pub digest: u64,
    pub replay: ReplayAcc,
}

impl Acc {
    fn fail(&mut self, calls: u64, why: String) {
        self.failed += calls;
        self.first_failure.get_or_insert(why);
    }

    fn search(&mut self, report: &StandardizeReport, wall_ms: f64) {
        self.timings.accumulate(&report.timings);
        self.searches += 1;
        self.explored += report.candidates_explored as u64;
        self.search_ms += wall_ms;
    }

    fn feed_digest(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.digest ^= u64::from(b);
            self.digest = self.digest.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

type Outcome = Result<Arc<StandardizeReport>, String>;

/// Runs shards until `seconds` have elapsed and at least `w.min_shards`
/// shards and [`MIN_SAMPLES`] latencies are in. The batch workload first
/// runs one untimed warm-up call: the first call pays page faults and
/// allocator growth for the pooled cache that a long-lived process pays
/// once. With `trace_run`, each shard's scripts are standardized untraced
/// and then traced, recording spans, and both results must match.
pub fn stream(
    w: &Workload,
    seed: u64,
    seconds: u64,
    trace_run: bool,
    tr: &mut Tracer,
) -> Result<Acc, String> {
    let mut acc = Acc {
        digest: 0xcbf2_9ce4_8422_2325,
        ..Acc::default()
    };
    if let Mode::Batch { .. } = w.mode {
        let inputs = workload::generate(w, workload::shard_seed(seed, 0));
        let mut quiet = Tracer::new(false);
        let (std, data) = setup(w, &inputs, &mut quiet)?;
        standardize_shard(w, &inputs, &std, &data, &mut quiet, &mut Acc::default());
    }
    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    for j in 0..workload::MAX_SHARDS {
        acc.probe_ms.push(host::speed_probe_ms());
        let inputs = workload::generate(w, workload::shard_seed(seed, j));
        run_shard(w, &inputs, j < w.min_shards, trace_run, tr, &mut acc)?;
        acc.shards += 1;
        let elapsed = start.elapsed();
        let enough = elapsed >= budget && acc.latencies_ms.len() >= MIN_SAMPLES;
        if acc.shards >= w.min_shards && (enough || elapsed >= HARD_CAP) {
            break;
        }
    }
    if acc.shards < w.min_shards {
        return Err(format!(
            "only {} of {} shards ran",
            acc.shards, w.min_shards
        ));
    }
    Ok(acc)
}

fn run_shard(
    w: &Workload,
    inputs: &Inputs,
    fixed: bool,
    trace_run: bool,
    tr: &mut Tracer,
    acc: &mut Acc,
) -> Result<(), String> {
    tr.set_recording(trace_run);
    alloc::reset_window_peak();
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous standardizer first so set-ups do not stack.
        drop(ready.take());
        let t0 = Instant::now();
        let built = setup(w, inputs, tr)?;
        acc.setup_s.push(t0.elapsed().as_secs_f64());
        ready = Some(built);
    }
    let (std, data) = ready.expect("SETUP_REPS is at least 1");

    tr.set_recording(false);
    let cpu0 = host::process_cpu_s();
    let t0 = Instant::now();
    let outcomes = standardize_shard(w, inputs, &std, &data, tr, acc);
    acc.timed_s += t0.elapsed().as_secs_f64();
    acc.cpu_s += host::process_cpu_s() - cpu0;
    acc.heap_peaks_mib
        .push(alloc::window_peak_bytes() as f64 / (1024.0 * 1024.0));
    acc.scripts += outcomes.len() as u64;
    tr.set_recording(trace_run);
    let mut traced = None;
    if trace_run {
        let open = tr.enter("run.shard");
        let t0 = Instant::now();
        let outcomes = standardize_shard(w, inputs, &std, &data, tr, acc);
        acc.traced_s += t0.elapsed().as_secs_f64();
        tr.exit(open);
        acc.traced_scripts += outcomes.len() as u64;
        traced = Some(outcomes);
        // Untimed: the first-step replay of every script.
        let interp = verify::interpreter(w, &data, std.config().sample_rows);
        for (_, src) in &inputs.scripts {
            replay::first_step(&std, &interp, src, tr, &mut acc.replay)?;
        }
    }

    // Untimed: the checks of every output. A traced run calls each script
    // twice, and the traced call must reproduce the untraced one.
    let calls = if trace_run { 2 } else { 1 };
    for (i, ((name, _), outcome)) in inputs.scripts.iter().zip(&outcomes).enumerate() {
        acc.attempted += calls;
        let checked = match outcome {
            Err(e) => Err(e.clone()),
            Ok(report) => {
                if fixed {
                    acc.improvements.push(report.improvement_pct);
                    acc.feed_digest(name.as_bytes());
                    acc.feed_digest(report.output_source.as_bytes());
                    acc.feed_digest(&report.re_after.to_bits().to_le_bytes());
                }
                match traced.as_ref().map(|t: &Vec<Outcome>| &t[i]) {
                    Some(Err(e)) => Err(format!("traced call failed: {e}")),
                    Some(Ok(again)) if !same_output(report, again) => {
                        Err("tracing changed the result".to_string())
                    }
                    _ => verify::verify(w, &std, &data, report, tr),
                }
            }
        };
        if let Err(e) = checked {
            acc.fail(calls, format!("{name}: {e}"));
        }
    }
    Ok(())
}

/// Decision-level identity of two results of the same script.
fn same_output(a: &StandardizeReport, b: &StandardizeReport) -> bool {
    a.output_source == b.output_source
        && a.re_after.to_bits() == b.re_after.to_bits()
        && a.intent_delta.to_bits() == b.intent_delta.to_bits()
        && a.applied == b.applied
}

/// Standardizes every script of a shard once, in input order. Latencies,
/// phase timings and batch counters are recorded for untraced calls only.
fn standardize_shard(
    w: &Workload,
    inputs: &Inputs,
    std: &Standardizer,
    data: &DataFrame,
    tr: &mut Tracer,
    acc: &mut Acc,
) -> Vec<Outcome> {
    let measured = !tr.recording();
    match w.mode {
        Mode::Search { .. } => inputs
            .scripts
            .iter()
            .map(|(_, src)| {
                let open = tr.enter("standardize");
                let t0 = Instant::now();
                let res = std.standardize_source(src);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                tr.exit(open);
                let res = res.map(Arc::new).map_err(|e| e.to_string());
                if let (true, Ok(report)) = (measured, &res) {
                    acc.latencies_ms.push(ms);
                    acc.search(report, ms);
                }
                res
            })
            .collect(),
        Mode::Batch { .. } => {
            let batch: Vec<BatchScript> = inputs
                .scripts
                .iter()
                .map(|(name, src)| BatchScript::new(name.clone(), src.clone()))
                .collect();
            let opts = w.batch_options().expect("batch workload has batch options");
            let config = std.config().clone();
            let res = tr.span("core.batch.standardize_corpus", || {
                standardize_corpus(&batch, w.profile.file, data.clone(), config, &opts)
            });
            let report = match res {
                Ok(report) => report,
                Err(e) => {
                    return batch
                        .iter()
                        .map(|_| Err(format!("batch failed: {e}")))
                        .collect()
                }
            };
            if measured {
                acc.memo_hits += report.memo_hits;
                acc.memo_misses += report.memo_misses;
                acc.store_hits += report.cache_store_hits;
                acc.store_misses += report.cache_store_misses;
                for script in &report.scripts {
                    if let (false, Ok(r)) = (script.memo_hit, &script.outcome) {
                        acc.latencies_ms.push(r.timings.total_ms);
                        acc.search(r, r.timings.total_ms);
                    }
                }
            }
            report.scripts.into_iter().map(|s| s.outcome).collect()
        }
    }
}
