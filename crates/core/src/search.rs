//! The online search framework (Section 5.2, Algorithms 1–3).
//!
//! Beam search over transformation sequences with five optimizations:
//! beams, k-means diversity, monotonicity, early/late execution checking,
//! and `D_IN` sampling (applied via the interpreter's row cap).
//!
//! Two execution-model knobs accelerate the search without changing its
//! results (see `DESIGN.md`, "Execution model & caching"):
//!
//! - [`SearchConfig::threads`] fans the apply→DAG→score work of
//!   `GetSteps` across scoped worker threads — for *all* beams of a step
//!   at once — and reassembles results in enumeration order, so ranking,
//!   clustering, and tie-breaking are byte-identical to the serial path.
//! - [`SearchConfig::prefix_cache`] routes every `CheckIfExecutes()` and
//!   verification run through an interpreter prefix cache: candidates
//!   sharing an immutable statement prefix (monotonicity guarantees the
//!   lines below the cursor never change) resume from a snapshot instead
//!   of re-running the prefix.

use crate::config::{Objective, SearchConfig};
use crate::dag::ScriptDag;
use crate::entropy;
use crate::ir::{Program, StmtInterner};
use crate::kmeans::kmeans;
use crate::provenance::{ExecFailure, Provenance};
use crate::report::{metric, Timings};
use crate::transform::{enumerate, Enumerated, TransformKind, Transformation};
use crate::vocab::CorpusModel;
use lucid_frame::DataFrame;
use lucid_interp::{ExecOutcome, InjectedPanic, Interpreter, InterpError, PrefixCache};
use lucid_obs::event::{
    KeptBeam, SearchEndEvent, SearchStartEvent, StepEvent, StmtSpanAgg, VerifyEvent,
    TRACE_SCHEMA_VERSION,
};
use lucid_obs::alloc::{self, Phase, PhaseGuard};
use lucid_obs::{Disposition, Registry};
use lucid_pyast::Module;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One in-progress transformation sequence: the paper's beam entry.
/// Under the interned IR both fields of any size are shared (`Program` is
/// a list of `Arc`'d statements, the DAG sits behind its own `Arc`), so
/// cloning a candidate — and therefore a whole beam — is pointer bumps.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Current script, as shared interned statements.
    pub program: Program,
    /// Its DAG (kept in sync with `program`).
    pub dag: Arc<ScriptDag>,
    /// Its relative-entropy score.
    pub re: f64,
    /// Monotonicity cursor: the smallest editable line.
    pub cursor: usize,
    /// Applied transformations, in order.
    pub applied: Vec<Transformation>,
    /// Stable provenance ID (0 = the input script). Minted serially in
    /// enumeration order by [`Provenance`], so it is identical across
    /// thread counts and never consulted by ranking.
    pub id: u64,
}

impl Candidate {
    fn from_module(
        module: &Module,
        interner: &StmtInterner,
        corpus: &CorpusModel,
        objective: Objective,
    ) -> Candidate {
        let program = Program::from_module(module, interner);
        let dag = Arc::new(program.full_dag());
        let re = score_dag(&dag, corpus, objective);
        Candidate {
            program,
            dag,
            re,
            cursor: 0,
            applied: Vec::new(),
            // Only the input script is built from a module; it always
            // carries the ledger's pre-minted ID 0.
            id: 0,
        }
    }
}

/// Scores a DAG under the configured objective.
fn score_dag(dag: &ScriptDag, corpus: &CorpusModel, objective: Objective) -> f64 {
    match objective {
        Objective::Edges => entropy::relative_entropy(dag, corpus),
        Objective::Atoms => entropy::relative_entropy_atoms(dag, corpus),
    }
}

/// Everything the search needs besides the candidate set.
pub struct SearchContext<'a> {
    /// The offline corpus model.
    pub corpus: &'a CorpusModel,
    /// Interpreter with `D_IN` registered (and sampling configured).
    pub interp: &'a Interpreter,
    /// Parameters.
    pub config: &'a SearchConfig,
    /// Output of the *input* script, for the intent constraint.
    pub base_output: &'a DataFrame,
}

/// State shared *between* searches standardizing scripts against the same
/// corpus and registered tables (batch mode, and any future long-lived
/// service): one content-addressed statement interner and one pooled
/// prefix-cache store.
///
/// Sharing is decision-invariant: the interner is content-addressed (the
/// same statement interns to the same facts regardless of who interned it
/// first), and a prefix-cache hit resumes a snapshot that is byte-for-byte
/// what re-execution would produce — the chain keys already fold the
/// interpreter's seed and sampling configuration. The one validity
/// precondition is the cache's: every search sharing this state must run
/// against the same registered-table configuration, which whole-corpus
/// batch satisfies by construction.
///
/// This is the **only** place batch-path code may construct an interner or
/// a prefix cache (`scripts/check.sh` grep-gates this); each search then
/// borrows the interner and takes a per-search [`PrefixCache::shared_view`]
/// so hit/miss/eviction counts stay attributed per search.
#[derive(Debug, Default)]
pub struct SharedSearchState {
    interner: StmtInterner,
    cache: Option<PrefixCache>,
}

impl SharedSearchState {
    /// Builds shared state matching `config`: a fresh interner, plus a
    /// pooled prefix-cache store when the config enables caching.
    pub fn for_config(config: &SearchConfig) -> Self {
        SharedSearchState {
            interner: StmtInterner::new(),
            cache: config
                .prefix_cache
                .then(|| PrefixCache::with_capacity(config.prefix_cache_capacity)),
        }
    }

    /// The shared statement interner.
    pub fn interner(&self) -> &StmtInterner {
        &self.interner
    }

    /// The owning view of the pooled prefix cache, when caching is on.
    /// Its per-view counters stay zero (this view never probes); use
    /// [`PrefixCache::store_hits`] and friends for pool totals.
    pub fn cache(&self) -> Option<&PrefixCache> {
        self.cache.as_ref()
    }
}

/// Execution environment for one search: the interpreter plus, when the
/// config enables it, a prefix cache. Without shared state the cache is
/// scoped to this search; with [`SearchConfig::shared`] set, it is a
/// per-search *view* of the pooled store (counts attributed to this
/// search, snapshots shared). Either way it never spans different
/// registered tables — the cache-validity invariant.
struct ExecEnv<'a> {
    interp: &'a Interpreter,
    cache: Option<PrefixCache>,
}

impl<'a> ExecEnv<'a> {
    fn new(interp: &'a Interpreter, config: &SearchConfig) -> ExecEnv<'a> {
        let cache = if config.prefix_cache {
            match config.shared.as_deref().and_then(SharedSearchState::cache) {
                Some(pooled) => Some(pooled.shared_view()),
                None => Some(PrefixCache::with_capacity(config.prefix_cache_capacity)),
            }
        } else {
            None
        };
        ExecEnv { interp, cache }
    }

    /// Full run (for output extraction), through the cache when enabled.
    /// Statement references carry their precomputed structural hashes, so
    /// neither the prefix-cache keys nor fault-plan decisions ever hash a
    /// statement again.
    fn run(&self, program: &Program) -> Result<ExecOutcome, InterpError> {
        let refs = program.stmt_refs();
        match &self.cache {
            Some(cache) => self.interp.run_shared_with_cache(&refs, cache),
            None => self.interp.run_shared(&refs),
        }
    }

    /// Fault-isolated run: a candidate that panics (an interpreter bug or
    /// an injected fault) is converted into a classified [`ExecFailure`]
    /// instead of unwinding into — and aborting — the search. The
    /// interpreter itself is immutable during candidate execution and the
    /// prefix cache's lock is poison-tolerant, which is what makes
    /// `AssertUnwindSafe` sound here.
    fn run_isolated(&self, program: &Program) -> Result<ExecOutcome, ExecFailure> {
        match catch_unwind(AssertUnwindSafe(|| self.run(program))) {
            Ok(Ok(outcome)) => Ok(outcome),
            Ok(Err(e)) => Err(ExecFailure::Error(e)),
            Err(payload) => Err(ExecFailure::Panic(panic_payload(payload))),
        }
    }

    /// Cumulative (hits, misses, evictions) of the prefix cache — zeros
    /// when caching is off. Sampled before/after each beam step to
    /// attribute cache traffic to steps in the event log.
    fn cache_counters(&self) -> (u64, u64, u64) {
        match &self.cache {
            Some(cache) => (cache.hits(), cache.misses(), cache.evictions()),
            None => (0, 0, 0),
        }
    }

    /// Peak retained snapshots (0 when caching is off).
    fn cache_peak(&self) -> u64 {
        self.cache.as_ref().map_or(0, PrefixCache::peak_snapshots)
    }

    /// This search's fit-memo (hits, misses) — zeros when caching is off.
    fn fit_memo_counters(&self) -> (u64, u64) {
        self.cache
            .as_ref()
            .map_or((0, 0), |cache| (cache.fit_hits(), cache.fit_misses()))
    }
}

/// Renders a caught panic payload. Handles the payload types candidate
/// code can actually raise — `&str`/`String` from `panic!`, and the
/// fault-injection hook's [`InjectedPanic`] marker — and reports anything
/// else opaquely rather than re-throwing.
fn panic_payload(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(injected) = payload.downcast_ref::<InjectedPanic>() {
        format!("injected panic: {}", injected.0)
    } else {
        "opaque panic payload".to_string()
    }
}

/// Per-beam-step measurements, accumulated by the phase helpers and then
/// recorded into the search registry (one histogram observation per step)
/// and the step's trace event. Keeping one struct per step is what lets
/// the event log and the `Timings` projection report the *same* measured
/// values. Drop counts live in the [`Provenance`] ledger, which hands
/// them over per step.
#[derive(Debug, Default)]
struct StepStats {
    get_steps_ms: f64,
    get_steps_cpu_ms: f64,
    get_top_k_ms: f64,
    check_execute_ms: f64,
    enumerated: usize,
    scored: usize,
    admitted: u64,
}

/// Converts a millisecond measurement into the integer nanoseconds the
/// registry histograms store.
fn ms_to_ns(ms: f64) -> u64 {
    (ms * 1e6).round() as u64
}

/// The search result.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The best valid candidate (the input script itself if nothing
    /// better survived the constraints).
    pub best: Candidate,
    /// Its intent evaluation against the input's output.
    pub intent: crate::intent::IntentEval,
    /// Number of candidate scripts scored.
    pub explored: usize,
    /// Phase timings (Figure 7's breakdown).
    pub timings: Timings,
    /// The candidate ledger. When the search is traced it holds every
    /// candidate's lineage and fate, and the caller writes it to the
    /// trace ([`Provenance::write`]) once the final diff is joined onto
    /// the selected lineage.
    pub ledger: Provenance,
}

/// Algorithm 1: the meta-level framework. Starts from the (lemmatized,
/// executable) input script and returns the most standard candidate that
/// satisfies all constraints, falling back to the input itself — this is
/// why LucidScript never *reduces* standardness (§6.3.1).
pub fn standardize_search(ctx: &SearchContext, input: &Module) -> SearchOutcome {
    let t_total = Instant::now();
    // Allocator window for this search; the delta is folded into the
    // registry at the end, next to the cache/interner counters.
    let mem_start = alloc::snapshot();
    // All timing/count facts of this search live in one registry; the
    // returned `Timings` is a projection of it, and the trace events carry
    // the same measured values — the two views cannot disagree.
    let reg = Registry::new();
    let h_get_steps = reg.histogram(metric::GET_STEPS);
    let h_get_steps_cpu = reg.histogram(metric::GET_STEPS_CPU);
    let h_get_top_k = reg.histogram(metric::GET_TOP_K);
    let h_check = reg.histogram(metric::CHECK_EXECUTE);
    let h_verify = reg.histogram(metric::VERIFY);
    let h_total = reg.histogram(metric::TOTAL);
    let c_steps = reg.counter(metric::STEPS);
    reg.counter(metric::THREADS)
        .set_max(ctx.config.resolved_threads() as u64);
    let trace = ctx.config.trace.as_ref();
    // A fresh epoch for the interpreter's span collector, so per-statement
    // aggregates describe this search only.
    if let Some(obs) = &ctx.interp.obs {
        obs.reset();
    }
    if let Some(sink) = trace {
        sink.emit(&SearchStartEvent::new(
            ctx.config.seq_len,
            ctx.config.beam_k,
            ctx.config.resolved_threads(),
            ctx.config.diversity,
            ctx.config.early_check,
            ctx.config.prefix_cache,
            match ctx.config.objective {
                Objective::Edges => "edges",
                Objective::Atoms => "atoms",
            },
        ));
    }

    let exec = ExecEnv::new(ctx.interp, ctx.config);
    // One interner per search — or the batch-shared one when present:
    // every candidate the search ever holds is a list of pointers into
    // this store, and each per-statement fact (hash, atom key, def/use
    // sets) is computed once per unique statement (per batch, when
    // shared). Interner counters are cumulative across sharing searches,
    // so this search's contribution is reported as a delta window.
    let owned_interner;
    let interner = match ctx.config.shared.as_deref() {
        Some(shared) => shared.interner(),
        None => {
            owned_interner = StmtInterner::new();
            &owned_interner
        }
    };
    let interner_hits_base = interner.intern_hits();
    let interner_dag_base = interner.dag_incremental_updates();
    let input_candidate =
        Candidate::from_module(input, interner, ctx.corpus, ctx.config.objective);
    // The candidate ledger. IDs are minted (serially, in enumeration
    // order), drops are counted and the protected set is maintained
    // whether or not the search is traced — beam-drop accounting branches
    // on it — so tracing never changes a search decision or a counter.
    let mut prov = Provenance::new(trace.is_some());
    prov.set_re(input_candidate.id, input_candidate.re);
    let mut beams: Vec<Candidate> = vec![input_candidate.clone()];
    let mut explored = 0usize;
    // Every candidate that ever made a beam. The intent constraint is
    // checked at the *end* (Section 5.2 item 4.3), so late steps may push
    // all current beams past τ; retaining per-step snapshots lets
    // verification fall back to the best earlier candidate instead of the
    // unmodified input.
    let mut finalists: Vec<Candidate> = Vec::new();

    for step in 0..ctx.config.seq_len {
        let mut stats = StepStats::default();
        let beams_in = beams.len();
        let cache_before = exec.cache_counters();
        let step_mem_before = alloc::snapshot();
        prov.cur_step = step;
        // Algorithm 2, line 2: C' = C. A pointer-bump copy under the
        // interned IR — no statement or DAG is duplicated.
        let mut next: Vec<Candidate> = beams.clone();
        // GetSteps for every beam of this step at once: ranking depends
        // only on the beams (never on `next`), so scoring all expansions
        // up front is equivalent to the per-beam interleaving — and lets
        // the work fan out across every (beam, transformation) pair.
        let ranked_per_beam =
            get_steps_all(&beams, ctx, interner, &mut explored, &mut stats, &mut prov);
        // Beam ranking allocates under the Score tag; the early execution
        // checks it triggers re-tag themselves Execute inside the
        // interpreter (innermost guard wins).
        let mem_score = PhaseGuard::enter(Phase::Score);
        for (cand, ranked) in beams.iter().zip(ranked_per_beam) {
            // GetTopKBeams / GetDiverseTopKBeams.
            let t1 = Instant::now();
            if ctx.config.diversity {
                get_diverse_top_k(cand, &ranked, ctx, &exec, &mut next, &mut stats, &mut prov);
            } else {
                let ranked: Vec<&Candidate> = ranked.iter().collect();
                get_top_k(&ranked, ctx, &exec, &mut next, &mut stats, usize::MAX, &mut prov);
            }
            stats.get_top_k_ms += t1.elapsed().as_secs_f64() * 1e3;
        }
        drop(mem_score);
        // Deduplicate identical scripts (different sequences can converge)
        // and cap at K — the ledger-aware twin of the old
        // sort/dedup_by/truncate, dropping what it removes.
        dedup_and_cap(&mut next, ctx.config.beam_k.max(1), &mut prov);
        let converged = next
            .iter()
            .zip(&beams)
            .all(|(a, b)| a.dag.atoms == b.dag.atoms)
            && next.len() == beams.len();
        beams = next;
        c_steps.add(1);
        h_get_steps.record_ns(ms_to_ns(stats.get_steps_ms));
        h_get_steps_cpu.record_ns(ms_to_ns(stats.get_steps_cpu_ms));
        h_get_top_k.record_ns(ms_to_ns(stats.get_top_k_ms));
        h_check.record_ns(ms_to_ns(stats.check_execute_ms));
        let drops = prov.take_counts();
        drops.record(&reg);
        if let Some(sink) = trace {
            let cache_after = exec.cache_counters();
            sink.emit(&StepEvent {
                v: TRACE_SCHEMA_VERSION,
                event: "step".to_string(),
                step,
                beams_in,
                enumerated: stats.enumerated,
                pruned_monotonicity: drops.pruned_monotonicity() as usize,
                scored: stats.scored,
                rejected_execution: drops.rejected_execution(),
                candidates_panicked: drops.candidates_panicked(),
                budget_trips_fuel: drops.budget_trips_fuel(),
                budget_trips_cells: drops.budget_trips_cells(),
                budget_trips_deadline: drops.budget_trips_deadline(),
                panic_payloads: drops.panic_payloads().to_vec(),
                candidates_deduped: drops.candidates_deduped(),
                admitted: stats.admitted,
                kept: beams
                    .iter()
                    .map(|c| KeptBeam {
                        re: c.re,
                        cursor: c.cursor,
                        lines: c.program.len(),
                        applied: c.applied.len(),
                    })
                    .collect(),
                cache_hits: cache_after.0 - cache_before.0,
                cache_misses: cache_after.1 - cache_before.1,
                cache_evictions: cache_after.2 - cache_before.2,
                alloc_bytes: alloc::snapshot().delta_since(&step_mem_before).total_bytes(),
                get_steps_ms: stats.get_steps_ms,
                get_top_k_ms: stats.get_top_k_ms,
                check_execute_ms: stats.check_execute_ms,
                converged,
            });
        }
        for cand in &beams {
            if !cand.applied.is_empty()
                && !finalists.iter().any(|f| f.dag.atoms == cand.dag.atoms)
            {
                // A finalist stays alive past the beams, so beam-drop
                // sites must not assign it a terminal fate.
                prov.protect(cand.id);
                finalists.push(cand.clone());
            }
        }
        // Verification scans finalists in ascending-RE order, so when the
        // pool overflows its bound we keep the lowest-RE entries: pruning
        // the high-RE tail only matters if *every* retained candidate
        // fails a constraint — the accepted trade-off for bounding memory
        // on long, slowly-converging searches.
        if finalists.len() > ctx.config.max_finalists {
            finalists.sort_by(|a, b| a.re.partial_cmp(&b.re).expect("finite RE"));
            // Evicted finalists lose their beam-drop protection; if still
            // in a beam they can be fated there, otherwise the search-end
            // sweep records them as out-ranked.
            for evicted in &finalists[ctx.config.max_finalists..] {
                prov.unprotect(evicted.id);
            }
            finalists.truncate(ctx.config.max_finalists);
        }
        if converged {
            break;
        }
    }

    // VerifyAllConstraints: execution (when late checking) + user intent.
    // Finalists are checked in ascending-RE order; the first valid one is
    // optimal among everything the search visited.
    let t2 = Instant::now();
    let mem_verify = PhaseGuard::enter(Phase::Verify);
    let n_finalists = finalists.len();
    let mut checked = 0usize;
    let mut verify_check_ms = 0.0f64;
    finalists.sort_by(|a, b| a.re.partial_cmp(&b.re).expect("finite RE"));
    let mut best: Option<(Candidate, crate::intent::IntentEval)> = None;
    for cand in finalists {
        // LucidScript guarantees it never *reduces* standardness
        // (§6.3.1): candidates no more standard than the input lose to
        // the input fallback.
        if cand.re >= input_candidate.re - 1e-12 {
            prov.drop(
                cand.id,
                Disposition::OutRanked {
                    at_step: prov.minted_at(cand.id),
                    score_gap: (cand.re - input_candidate.re).max(0.0),
                },
            );
            continue;
        }
        checked += 1;
        // One run yields both the execution check and the output. Under
        // late checking it is the candidate's first run, so its time is
        // CheckIfExecutes time.
        let t3 = Instant::now();
        let res = exec.run_isolated(&cand.program);
        if !ctx.config.early_check {
            verify_check_ms += t3.elapsed().as_secs_f64() * 1e3;
        }
        let outcome = match res {
            Ok(outcome) => outcome,
            Err(failure) => {
                prov.fail(cand.id, failure);
                continue;
            }
        };
        let Some(out_frame) = outcome.output_frame() else {
            prov.drop(cand.id, Disposition::FailedExecution);
            continue;
        };
        let eval = {
            let _k = ctx.interp.obs.as_deref().map(|c| c.span("kernel.jaccard"));
            ctx.config.intent.evaluate(ctx.base_output, out_frame)
        };
        if !eval.satisfied {
            prov.drop(cand.id, Disposition::RejectedIntent);
            continue;
        }
        prov.select(cand.id);
        best = Some((cand, eval));
        break;
    }
    let verify_ms = t2.elapsed().as_secs_f64() * 1e3;
    drop(mem_verify);
    h_check.record_ns(ms_to_ns(verify_check_ms));
    h_verify.record_ns(ms_to_ns(verify_ms));
    let drops = prov.take_counts();
    drops.record(&reg);
    if let Some(sink) = trace {
        sink.emit(&VerifyEvent {
            v: TRACE_SCHEMA_VERSION,
            event: "verify".to_string(),
            finalists: n_finalists,
            checked,
            rejected_execution: drops.rejected_execution(),
            candidates_panicked: drops.candidates_panicked(),
            budget_trips_fuel: drops.budget_trips_fuel(),
            budget_trips_cells: drops.budget_trips_cells(),
            budget_trips_deadline: drops.budget_trips_deadline(),
            panic_payloads: drops.panic_payloads().to_vec(),
            rejected_intent: drops.rejected_intent(),
            accepted: best.is_some(),
            check_execute_ms: verify_check_ms,
            verify_ms,
        });
    }

    // Lazily built fallback: `input_candidate` is moved only on the
    // fallback path, never cloned on the common path.
    let input_re = input_candidate.re;
    if best.is_none() {
        // Nothing beat the constraints: the input itself is the selection.
        prov.select(input_candidate.id);
    }
    let (best, intent) = match best {
        Some(found) => found,
        None => (
            input_candidate,
            crate::intent::IntentEval {
                delta: match ctx.config.intent {
                    crate::intent::IntentMeasure::Jaccard { .. } => 1.0,
                    crate::intent::IntentMeasure::ModelPerf { .. }
                    | crate::intent::IntentMeasure::Fairness { .. } => 0.0,
                },
                satisfied: true,
            },
        ),
    };
    let (hits, misses, evictions) = exec.cache_counters();
    reg.counter(metric::CACHE_HITS).add(hits);
    reg.counter(metric::CACHE_MISSES).add(misses);
    reg.counter(metric::CACHE_EVICTIONS).add(evictions);
    reg.counter(metric::CACHE_PEAK).set_max(exec.cache_peak());
    let (fit_hits, fit_misses) = exec.fit_memo_counters();
    reg.counter(metric::FIT_MEMO_HITS).add(fit_hits);
    reg.counter(metric::FIT_MEMO_MISSES).add(fit_misses);
    // Unique statements is a gauge over the interner (the batch-shared
    // total when sharing); hit/update counts are this search's delta
    // window, so per-search values sum consistently in fleet roll-ups.
    reg.counter(metric::UNIQUE_STMTS).set_max(interner.unique_stmts());
    reg.counter(metric::INTERN_HITS)
        .add(interner.intern_hits().saturating_sub(interner_hits_base));
    reg.counter(metric::DAG_INCREMENTAL).add(
        interner
            .dag_incremental_updates()
            .saturating_sub(interner_dag_base),
    );
    // Allocator attribution for this search's window. The total is
    // recorded as the sum of the same per-phase deltas, so "phase bytes
    // sum to the total" holds exactly even when concurrent searches
    // interleave their attributions into the process-global counters.
    let mem = alloc::snapshot().delta_since(&mem_start);
    reg.counter(metric::MEM_BYTES_ENUMERATE)
        .add(mem.phase_bytes[Phase::Enumerate as usize]);
    reg.counter(metric::MEM_BYTES_EXECUTE)
        .add(mem.phase_bytes[Phase::Execute as usize]);
    reg.counter(metric::MEM_BYTES_SCORE)
        .add(mem.phase_bytes[Phase::Score as usize]);
    reg.counter(metric::MEM_BYTES_VERIFY)
        .add(mem.phase_bytes[Phase::Verify as usize]);
    reg.counter(metric::MEM_BYTES_UNATTRIBUTED)
        .add(mem.phase_bytes[Phase::Unattributed as usize]);
    reg.counter(metric::MEM_BYTES_TOTAL).add(mem.total_bytes());
    reg.counter(metric::MEM_ALLOCS).add(mem.total_allocs());
    reg.counter(metric::MEM_PEAK_BYTES).set_max(alloc::peak_bytes());
    // Size classes populate only in `Full` telemetry mode; fold them as
    // pre-bucketed counts so the fleet roll-up can merge histograms.
    if mem.size_buckets.iter().any(|&n| n > 0) {
        let h_sizes = reg.histogram(metric::MEM_ALLOC_SIZE);
        for (idx, &n) in mem.size_buckets.iter().enumerate() {
            if n > 0 {
                h_sizes.add_bucket_count(idx, n);
            }
        }
    }
    h_total.record_ns(ms_to_ns(t_total.elapsed().as_secs_f64() * 1e3));
    let timings = Timings::from_registry(&reg);
    // Fleet roll-up: a long-lived process hands every search the same
    // process-wide registry; merging is measurement-only and happens
    // after all decisions are made.
    if let Some(fleet) = &ctx.config.stats_registry {
        fleet.merge(&reg);
    }
    // Profiling is measurement-only: the report is assembled after every
    // search decision is made, so output is byte-identical with it on or
    // off. Writes are best-effort, like trace emission — a full disk must
    // never fail a search.
    let profile = build_profile(ctx, &reg);
    if let (Some(dir), Some(p)) = (&ctx.config.profile_out, &profile) {
        let _ = std::fs::create_dir_all(dir);
        let _ = p.write_dir(dir);
    }
    if let Some(sink) = trace {
        sink.emit(&SearchEndEvent {
            v: TRACE_SCHEMA_VERSION,
            event: "search_end".to_string(),
            steps: timings.search_steps,
            explored,
            input_re,
            best_re: best.re,
            changed: !best.applied.is_empty(),
            get_steps_ms: timings.get_steps_ms,
            get_steps_cpu_ms: timings.get_steps_cpu_ms,
            get_top_k_ms: timings.get_top_k_ms,
            check_execute_ms: timings.check_execute_ms,
            verify_constraints_ms: timings.verify_constraints_ms,
            total_ms: timings.total_ms,
            threads: timings.threads,
            cache_hits: hits,
            cache_misses: misses,
            cache_evictions: evictions,
            cache_peak_snapshots: timings.prefix_cache_peak_snapshots,
            fit_memo_hits: timings.fit_memo_hits,
            fit_memo_misses: timings.fit_memo_misses,
            candidates_panicked: timings.candidates_panicked,
            budget_trips_fuel: timings.budget_trips_fuel,
            budget_trips_cells: timings.budget_trips_cells,
            budget_trips_deadline: timings.budget_trips_deadline,
            candidates_deduped: timings.candidates_deduped,
            pruned_monotonicity: timings.pruned_monotonicity,
            unique_stmts: timings.unique_stmts,
            intern_hits: timings.intern_hits,
            dag_incremental_updates: timings.dag_incremental_updates,
            alloc_bytes_enumerate: timings.alloc_bytes_enumerate,
            alloc_bytes_execute: timings.alloc_bytes_execute,
            alloc_bytes_score: timings.alloc_bytes_score,
            alloc_bytes_verify: timings.alloc_bytes_verify,
            alloc_bytes_unattributed: timings.alloc_bytes_unattributed,
            alloc_bytes_total: timings.alloc_bytes_total,
            alloc_count: timings.alloc_count,
            mem_peak_bytes: timings.peak_live_bytes,
            stmt_spans: stmt_span_aggregates(ctx.interp),
            spans_dropped: ctx.interp.obs.as_ref().map_or(0, |o| o.dropped()),
        });
        // The profile record trails search_end so a trace cut off at the
        // (potentially large) profile line still summarizes completely.
        if let Some(p) = &profile {
            sink.emit(&p.to_event());
        }
        sink.flush();
    }
    SearchOutcome {
        best,
        intent,
        explored,
        timings,
        ledger: prov,
    }
}

/// Assembles the search's [`ProfileReport`]: phase + per-statement
/// percentiles from the search registry merged with the interpreter
/// collector's per-span-name aggregates, plus the folded span tree.
/// `None` when no collector is attached (neither tracing nor profiling).
fn build_profile(ctx: &SearchContext, reg: &Registry) -> Option<lucid_obs::ProfileReport> {
    let obs = ctx.interp.obs.as_ref()?;
    let mut rows = reg.histogram_percentiles();
    rows.extend(obs.registry().histogram_percentiles());
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    Some(lucid_obs::ProfileReport::build(
        &obs.records(),
        rows,
        obs.dropped(),
    ))
}

/// Per-statement-kind interpreter aggregates from the interpreter's span
/// collector (empty when no collector is attached or it is disabled).
fn stmt_span_aggregates(interp: &Interpreter) -> Vec<StmtSpanAgg> {
    let Some(obs) = &interp.obs else {
        return Vec::new();
    };
    obs.registry()
        .snapshot()
        .histograms
        .into_iter()
        .filter(|h| h.name.starts_with("stmt.") || h.name == "interp.run")
        .map(|h| StmtSpanAgg {
            name: h.name,
            count: h.count,
            total_ms: h.sum_ms,
        })
        .collect()
}

/// `GetSteps()` for every beam of one search step: enumerate legal next
/// transformations from the corpus vocabularies, apply each, score by RE,
/// and return per-beam lists of the resulting candidates ranked best
/// (lowest RE) first, capped at `max_steps_ranked`.
///
/// With `threads > 1` the apply→DAG→score work fans out across scoped
/// worker threads over all (beam, transformation) pairs; results are
/// written into index-addressed slots and regrouped in enumeration order,
/// so the ranked lists — and therefore every downstream beam decision —
/// are identical to the serial path. Scoring is pure (no interpreter
/// involvement), which is what makes the fan-out safe.
fn get_steps_all(
    beams: &[Candidate],
    ctx: &SearchContext,
    interner: &StmtInterner,
    explored: &mut usize,
    stats: &mut StepStats,
    prov: &mut Provenance,
) -> Vec<Vec<Candidate>> {
    let t0 = Instant::now();
    // The whole of `GetSteps` — enumeration, apply, scoring, ranking —
    // is the "enumerate" slot of the allocator's phase attribution.
    let _mem = PhaseGuard::enter(Phase::Enumerate);
    // Enumeration order defines job identity; everything downstream keys
    // off the job index. Candidate IDs are minted here, on the serial
    // path, before any fan-out — pruned candidates first, then kept ones
    // — so IDs are identical at any thread count, traced or not.
    let mut jobs: Vec<(usize, Transformation, u64)> = Vec::new();
    for (beam_idx, cand) in beams.iter().enumerate() {
        let Enumerated { kept, pruned } =
            enumerate(&cand.dag, ctx.corpus, cand.cursor, &ctx.config.enum_opts);
        for t in &pruned {
            let id = prov.mint(cand.id, || t.describe());
            prov.drop(id, Disposition::PrunedMonotonicity);
        }
        jobs.extend(kept.into_iter().map(|t| {
            let id = prov.mint(cand.id, || t.describe());
            (beam_idx, t, id)
        }));
    }
    stats.enumerated += jobs.len();
    let workers = ctx.config.resolved_threads().min(jobs.len()).max(1);
    let (slots, cpu_ms) = if workers == 1 {
        let mut cpu_ms = 0.0;
        let slots = jobs
            .iter()
            .map(|(beam_idx, t, id)| {
                let t_job = Instant::now();
                // The same per-candidate isolation as the parallel path:
                // a panicking scorer drops its candidate instead of
                // aborting.
                let step = catch_unwind(AssertUnwindSafe(|| {
                    score_step(&beams[*beam_idx], t, ctx, interner, *id)
                }))
                .map_err(panic_payload);
                cpu_ms += t_job.elapsed().as_secs_f64() * 1e3;
                step
            })
            .collect();
        (slots, cpu_ms)
    } else {
        score_steps_parallel(beams, &jobs, ctx, interner, workers)
    };
    stats.get_steps_cpu_ms += cpu_ms;

    // Regroup by beam. Jobs were enumerated beam-major, so pushing in job
    // order reproduces the serial per-beam ordering exactly.
    let mut per_beam: Vec<Vec<Candidate>> = beams.iter().map(|_| Vec::new()).collect();
    for ((beam_idx, _, id), slot) in jobs.iter().zip(slots) {
        match slot {
            Ok(Some(scored)) => {
                *explored += 1;
                stats.scored += 1;
                prov.set_re(*id, scored.re);
                per_beam[*beam_idx].push(scored);
            }
            // The transformation failed to apply (splice out of range,
            // etc.).
            Ok(None) => prov.drop(*id, Disposition::FailedApply),
            Err(payload) => prov.fail(*id, ExecFailure::Panic(payload)),
        }
    }
    let cap = ctx.config.max_steps_ranked;
    for ranked in &mut per_beam {
        ranked.sort_by(|a, b| a.re.partial_cmp(&b.re).expect("finite"));
        if ranked.len() > cap {
            let cutoff_re = ranked[cap.saturating_sub(1)].re;
            for dropped in ranked.drain(cap..) {
                prov.drop(
                    dropped.id,
                    Disposition::OutRanked {
                        at_step: prov.cur_step,
                        score_gap: (dropped.re - cutoff_re).max(0.0),
                    },
                );
            }
        }
    }
    stats.get_steps_ms += t0.elapsed().as_secs_f64() * 1e3;
    per_beam
}

/// Applies and scores one enumerated transformation, yielding the
/// resulting candidate (`None` if it fails to apply). The apply is an
/// O(edit) splice of shared statements, and the DAG is derived
/// incrementally from the parent's — only edges at or after the edited
/// line are recomputed. Reads only the candidate, the corpus model, and
/// the (thread-safe) interner, so it fans out freely.
fn score_step(
    cand: &Candidate,
    t: &Transformation,
    ctx: &SearchContext,
    interner: &StmtInterner,
    id: u64,
) -> Option<Candidate> {
    let program = t.apply_ir(&cand.program, interner).ok()?;
    let dag = Arc::new(program.update_dag(&cand.dag, t.line, interner));
    let re = score_dag(&dag, ctx.corpus, ctx.config.objective);
    let mut applied = cand.applied.clone();
    let cursor = t.next_cursor(cand.cursor);
    applied.push(t.clone());
    Some(Candidate {
        program,
        dag,
        re,
        cursor,
        applied,
        id,
    })
}

/// One scoring job's result: the scored candidate (`None` when the
/// transformation failed to apply), or the payload of a caught panic.
type ScoreSlot = Result<Option<Candidate>, String>;

/// Fans `score_step` across scoped worker threads (work-stealing via an
/// atomic job counter, reassembly by job index — the same idiom the
/// bench runner uses). Each job runs under `catch_unwind`, so a panicking
/// candidate surfaces as a captured payload in its slot instead of
/// poisoning the scope and aborting the whole search. Returns the
/// index-aligned result slots and the summed per-worker CPU time.
fn score_steps_parallel(
    beams: &[Candidate],
    jobs: &[(usize, Transformation, u64)],
    ctx: &SearchContext,
    interner: &StmtInterner,
    workers: usize,
) -> (Vec<ScoreSlot>, f64) {
    let counter = AtomicUsize::new(0);
    let (tx, rx) = crossbeam::channel::unbounded();
    // A worker dying outside the isolated region is unreachable in
    // practice; the jobs it claimed simply never report, and are counted
    // as panicked below rather than aborting the search.
    let _ = crossbeam::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let counter = &counter;
            scope.spawn(move |_| {
                // Phase tags are thread-local; each worker re-tags itself
                // so its allocations land with the serial path's.
                let _mem = PhaseGuard::enter(Phase::Enumerate);
                loop {
                    let i = counter.fetch_add(1, Ordering::SeqCst);
                    if i >= jobs.len() {
                        break;
                    }
                    let (beam_idx, t, id) = &jobs[i];
                    let t_job = Instant::now();
                    let step = catch_unwind(AssertUnwindSafe(|| {
                        score_step(&beams[*beam_idx], t, ctx, interner, *id)
                    }))
                    .map_err(panic_payload);
                    let cpu_ms = t_job.elapsed().as_secs_f64() * 1e3;
                    // A send can only fail if the receiver is gone, i.e.
                    // the search is already unwinding; dropping the result
                    // is the graceful option either way.
                    let _ = tx.send((i, step, cpu_ms));
                }
                // Last flush point for this worker: guards are pure tag
                // swaps, so the thread's buffered allocator attribution
                // must be published before the scope joins it.
                alloc::flush_tls();
            });
        }
    });
    drop(tx);
    let mut slots: Vec<Option<ScoreSlot>> = jobs.iter().map(|_| None).collect();
    let mut cpu_ms = 0.0;
    for (i, step, job_ms) in rx {
        cpu_ms += job_ms;
        slots[i] = Some(step);
    }
    let slots = slots
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| {
                Err("scoring worker died outside candidate isolation".to_string())
            })
        })
        .collect();
    (slots, cpu_ms)
}

/// Algorithm 2: `GetTopKBeams` — walk the ranked steps, early-check
/// execution when `α` is on, and keep the K lowest-RE candidates in
/// `next`. `budget` caps how many steps may be *admitted* from this list
/// (used by the diversity wrapper to give each cluster K/M slots).
fn get_top_k(
    ranked: &[&Candidate],
    ctx: &SearchContext,
    exec: &ExecEnv,
    next: &mut Vec<Candidate>,
    stats: &mut StepStats,
    budget: usize,
    prov: &mut Provenance,
) {
    let k = ctx.config.beam_k.max(1);
    let mut admitted = 0usize;
    for (idx, step) in ranked.iter().enumerate() {
        if admitted >= budget {
            // The diversity wrapper's per-cluster slot cap: everything
            // still ranked in this cluster is cut, not out-scored.
            for later in &ranked[idx..] {
                prov.drop(later.id, Disposition::BeamCut { rank: budget });
            }
            break;
        }
        let worst = next
            .iter()
            .map(|c| c.re)
            .fold(f64::NEG_INFINITY, f64::max);
        if next.len() >= k && step.re >= worst {
            // Ranked ascending: nothing later can qualify either.
            for later in &ranked[idx..] {
                prov.drop(
                    later.id,
                    Disposition::OutRanked {
                        at_step: prov.cur_step,
                        score_gap: (later.re - worst).max(0.0),
                    },
                );
            }
            break;
        }
        // Different transformations can produce structurally-identical
        // scripts (e.g. deleting either of two equal lines). Interned
        // statements make spotting them a pointer walk — skip before
        // burning an execution check on a script already in `next`.
        if let Some(twin) = next.iter().find(|c| c.program.same_stmts(&step.program)) {
            prov.drop(step.id, Disposition::Deduped { against: twin.id });
            continue;
        }
        if ctx.config.early_check {
            let t0 = Instant::now();
            let res = exec.run_isolated(&step.program);
            stats.check_execute_ms += t0.elapsed().as_secs_f64() * 1e3;
            if let Err(failure) = res {
                prov.fail(step.id, failure);
                continue;
            }
        }
        next.push((*step).clone());
        dedup_and_cap(next, k, prov);
        admitted += 1;
        stats.admitted += 1;
    }
}

/// Sorts `next` by RE (stable — insertion order breaks ties, so a
/// carried-over protected candidate precedes an equal fresh one), drops
/// structural duplicates keeping the best-ranked copy, and caps at `k`.
/// Exactly the old `sort / dedup_by / truncate` semantics, with every
/// *unprotected* removal dropped through the ledger: structural twins as
/// [`Disposition::Deduped`] against the surviving copy, cap overflow as
/// [`Disposition::BeamCut`]. Protected candidates (the input, accepted
/// finalists) are still alive elsewhere, so removing them from the beam
/// is no drop at all — the dedup counter branches on the protected set,
/// never on whether fates are recorded, so counts match across traced
/// and untraced runs. Idempotent: safe both after each admission and as the
/// step-level re-cap across beams.
fn dedup_and_cap(next: &mut Vec<Candidate>, k: usize, prov: &mut Provenance) {
    next.sort_by(|a, b| a.re.partial_cmp(&b.re).expect("finite"));
    let mut i = 1;
    while i < next.len() {
        if next[i].dag.atoms == next[i - 1].dag.atoms {
            let removed = next.remove(i);
            if !prov.is_protected(removed.id) {
                prov.drop(
                    removed.id,
                    Disposition::Deduped {
                        against: next[i - 1].id,
                    },
                );
            }
        } else {
            i += 1;
        }
    }
    while next.len() > k {
        let dropped = next.pop().expect("len > k implies non-empty");
        if !prov.is_protected(dropped.id) {
            prov.drop(dropped.id, Disposition::BeamCut { rank: k });
        }
    }
}

/// Algorithm 3: `GetDiverseTopKBeams` — cluster the ranked steps with
/// k-means over transformation features, then admit K/M from each cluster
/// so the beams explore different parts of the space.
fn get_diverse_top_k(
    cand: &Candidate,
    ranked: &[Candidate],
    ctx: &SearchContext,
    exec: &ExecEnv,
    next: &mut Vec<Candidate>,
    stats: &mut StepStats,
    prov: &mut Provenance,
) {
    if ranked.is_empty() {
        return;
    }
    let m = ctx.config.diversity_clusters.max(1);
    let n_lines = cand.dag.atoms.len().max(1) as f64;
    let features: Vec<Vec<f64>> = ranked
        .iter()
        .map(|s| step_features(s, ctx.corpus, n_lines))
        .collect();
    let clustering = kmeans(&features, m, 25);
    let per_cluster = (ctx.config.beam_k / m.min(clustering.k.max(1))).max(1);
    for cluster in 0..clustering.k {
        // Members inherit the global ranking order (ascending RE).
        let members: Vec<&Candidate> = ranked
            .iter()
            .zip(&clustering.assignments)
            .filter(|(_, &a)| a == cluster)
            .map(|(s, _)| s)
            .collect();
        // Clusters partition the ranked list, so each candidate reaches
        // exactly one `get_top_k` call — single-fate holds.
        get_top_k(&members, ctx, exec, next, stats, per_cluster, prov);
    }
}

/// Feature vector describing a scored step — its last applied
/// transformation — for diversity clustering: kind, relative position,
/// resulting RE, atom popularity, and atom typical position. (The paper
/// clusters "updated vectors"; a compact feature set keeps clustering
/// O(candidates) instead of O(candidates × |V_E'|) — ablated in `bench`.)
fn step_features(step: &Candidate, corpus: &CorpusModel, n_lines: f64) -> Vec<f64> {
    let t = step
        .applied
        .last()
        .expect("a scored step applied a transformation");
    let (is_add, id) = match &t.kind {
        TransformKind::Add { atom } => (1.0, atom.id),
        TransformKind::Delete => (0.0, None),
    };
    let popularity =
        id.map_or(0.0, |id| corpus.atom_count_by_id(id) as f64 / corpus.n_scripts as f64);
    let rel_pos = t.line as f64 / n_lines;
    let typical = id.map_or(0.5, |id| corpus.rel_pos(id));
    vec![is_add * 4.0, rel_pos, step.re, popularity, typical]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intent::IntentMeasure;
    use lucid_frame::csv::read_csv_str;
    use lucid_pyast::{parse_module, print_module};

    fn titanic_like_table() -> DataFrame {
        let mut csv = String::from("Age,Fare,Survived\n");
        for i in 0..60 {
            let age = if i % 7 == 0 { String::new() } else { format!("{}", 18 + i % 50) };
            csv.push_str(&format!("{age},{}.5,{}\n", 5 + i % 60, i % 2));
        }
        read_csv_str(&csv).unwrap()
    }

    fn corpus_model() -> CorpusModel {
        CorpusModel::build_from_sources(&[
            "import pandas as pd\ndf = pd.read_csv('train.csv')\ndf = df.fillna(df.mean())\ndf = pd.get_dummies(df)\ny = df['Survived']\n",
            "import pandas as pd\ndf = pd.read_csv('train.csv')\ndf = df.fillna(df.mean())\ndf = df[df['Fare'] < 60]\ndf = pd.get_dummies(df)\ny = df['Survived']\n",
            "import pandas as pd\ndf = pd.read_csv('train.csv')\ndf = df.fillna(df.mean())\ndf = pd.get_dummies(df)\ny = df['Survived']\n",
        ])
        .unwrap()
    }

    fn context<'a>(
        corpus: &'a CorpusModel,
        interp: &'a Interpreter,
        config: &'a SearchConfig,
        base: &'a DataFrame,
    ) -> SearchContext<'a> {
        SearchContext {
            corpus,
            interp,
            config,
            base_output: base,
        }
    }

    fn run_search(input_src: &str, config: &SearchConfig) -> (SearchOutcome, f64) {
        run_search_with_faults(input_src, config, None)
    }

    /// [`run_search`] with a fault plan installed after the (clean) base
    /// run, so only candidate executions fault.
    fn run_search_with_faults(
        input_src: &str,
        config: &SearchConfig,
        faults: Option<lucid_interp::FaultPlan>,
    ) -> (SearchOutcome, f64) {
        let corpus = corpus_model();
        let mut interp = Interpreter::new();
        interp.register_table("train.csv", titanic_like_table());
        let input = crate::lemma::lemmatize(&parse_module(input_src).unwrap());
        let base = interp
            .run(&input)
            .expect("input executes")
            .output_frame()
            .expect("has output")
            .clone();
        interp.fault_plan = faults.map(Arc::new);
        let re_before =
            entropy::relative_entropy(&crate::dag::build_dag(&input), &corpus);
        let ctx = context(&corpus, &interp, config, &base);
        (standardize_search(&ctx, &input), re_before)
    }

    const NONSTANDARD: &str = "\
import pandas as pd
df = pd.read_csv('train.csv')
df = df.fillna(df.median())
y = df['Survived']
";

    #[test]
    fn search_improves_nonstandard_script() {
        let config = SearchConfig {
            seq_len: 6,
            intent: IntentMeasure::jaccard(0.3),
            ..Default::default()
        };
        let (outcome, re_before) = run_search(NONSTANDARD, &config);
        assert!(
            outcome.best.re < re_before,
            "RE should drop: {} -> {}",
            re_before,
            outcome.best.re
        );
        assert!(!outcome.best.applied.is_empty());
        assert!(outcome.intent.satisfied);
        let out_src = print_module(&outcome.best.program.to_module());
        // The common mean-imputation step should appear.
        assert!(
            out_src.contains("fillna(df.mean())") || out_src.contains("get_dummies"),
            "expected common steps in output:\n{out_src}"
        );
    }

    #[test]
    fn output_always_executes() {
        let config = SearchConfig {
            seq_len: 5,
            intent: IntentMeasure::jaccard(0.2),
            ..Default::default()
        };
        let corpus = corpus_model();
        let mut interp = Interpreter::new();
        interp.register_table("train.csv", titanic_like_table());
        let input = crate::lemma::lemmatize(&parse_module(NONSTANDARD).unwrap());
        let base = interp.run(&input).unwrap().output_frame().unwrap().clone();
        let ctx = context(&corpus, &interp, &config, &base);
        let outcome = standardize_search(&ctx, &input);
        assert!(interp.check_executes(&outcome.best.program.to_module()));
    }

    #[test]
    fn strict_intent_limits_changes() {
        let strict = SearchConfig {
            seq_len: 6,
            intent: IntentMeasure::jaccard(1.0),
            ..Default::default()
        };
        let (outcome_strict, _) = run_search(NONSTANDARD, &strict);
        let lenient = SearchConfig {
            seq_len: 6,
            intent: IntentMeasure::jaccard(0.1),
            ..Default::default()
        };
        let (outcome_lenient, _) = run_search(NONSTANDARD, &lenient);
        // A lenient τ can only do at least as well (lower or equal RE).
        assert!(outcome_lenient.best.re <= outcome_strict.best.re + 1e-9);
    }

    #[test]
    fn already_standard_script_is_left_alone_or_improved() {
        let standard = "\
import pandas as pd
df = pd.read_csv('train.csv')
df = df.fillna(df.mean())
df = pd.get_dummies(df)
y = df['Survived']
";
        let config = SearchConfig {
            seq_len: 4,
            intent: IntentMeasure::jaccard(0.9),
            ..Default::default()
        };
        let (outcome, re_before) = run_search(standard, &config);
        assert!(outcome.best.re <= re_before + 1e-9);
    }

    #[test]
    fn fallback_preserves_input_when_no_valid_move() {
        // An intent threshold of exactly 1.0 with a corpus pushing changes:
        // if nothing satisfies, the input comes back unchanged.
        let config = SearchConfig {
            seq_len: 2,
            beam_k: 1,
            diversity: false,
            intent: IntentMeasure::jaccard(1.0),
            ..Default::default()
        };
        let (outcome, re_before) = run_search(NONSTANDARD, &config);
        // Either unchanged, or changed while keeping Jaccard = 1.
        if outcome.best.applied.is_empty() {
            assert!((outcome.best.re - re_before).abs() < 1e-9);
        } else {
            assert!(outcome.intent.delta >= 1.0 - 1e-12);
        }
    }

    #[test]
    fn timings_are_populated() {
        let config = SearchConfig {
            seq_len: 3,
            intent: IntentMeasure::jaccard(0.5),
            ..Default::default()
        };
        let (outcome, _) = run_search(NONSTANDARD, &config);
        assert!(outcome.timings.total_ms > 0.0);
        assert!(outcome.timings.get_steps_ms > 0.0);
        assert!(outcome.explored > 0);
    }

    #[test]
    fn late_checking_also_yields_executable_output() {
        let config = SearchConfig {
            seq_len: 4,
            early_check: false,
            intent: IntentMeasure::jaccard(0.3),
            ..Default::default()
        };
        let corpus = corpus_model();
        let mut interp = Interpreter::new();
        interp.register_table("train.csv", titanic_like_table());
        let input = crate::lemma::lemmatize(&parse_module(NONSTANDARD).unwrap());
        let base = interp.run(&input).unwrap().output_frame().unwrap().clone();
        let ctx = context(&corpus, &interp, &config, &base);
        let outcome = standardize_search(&ctx, &input);
        assert!(interp.check_executes(&outcome.best.program.to_module()));
    }

    #[test]
    fn late_checking_runs_each_finalist_once() {
        // Verification under late checking must get the check and the
        // output from one run: one `interp.run` span per checked finalist.
        let sink = lucid_obs::TraceSink::in_memory();
        let config = SearchConfig {
            seq_len: 4,
            early_check: false,
            intent: IntentMeasure::jaccard(0.3),
            trace: Some(sink.clone()),
            ..Default::default()
        };
        let corpus = corpus_model();
        let mut interp = Interpreter::new();
        interp.register_table("train.csv", titanic_like_table());
        let input = crate::lemma::lemmatize(&parse_module(NONSTANDARD).unwrap());
        let base = interp.run(&input).unwrap().output_frame().unwrap().clone();
        let collector = Arc::new(lucid_obs::Collector::new(true));
        interp.obs = Some(collector.clone());
        let ctx = context(&corpus, &interp, &config, &base);
        let outcome = standardize_search(&ctx, &input);
        assert!(!outcome.best.applied.is_empty());
        let verify: serde_json::Value = sink
            .memory_lines()
            .unwrap()
            .iter()
            .find(|l| l.contains("\"event\":\"verify\""))
            .map(|l| serde_json::from_str(l).unwrap())
            .expect("verify record");
        let checked = verify.get("checked").and_then(|v| v.as_f64()).unwrap() as u64;
        assert!(checked > 0);
        assert_eq!(collector.registry().histogram_count("interp.run"), checked);
    }

    #[test]
    fn parallel_cached_search_is_byte_identical_to_serial() {
        // The golden determinism contract: fanning GetSteps across
        // threads and resuming execution checks from cached prefixes must
        // not change a single search decision.
        let serial = SearchConfig {
            seq_len: 6,
            intent: IntentMeasure::jaccard(0.3),
            threads: 1,
            prefix_cache: false,
            ..Default::default()
        };
        let (reference, _) = run_search(NONSTANDARD, &serial);
        for (threads, prefix_cache) in [(4, true), (2, false), (1, true), (0, true)] {
            let config = SearchConfig {
                threads,
                prefix_cache,
                ..serial.clone()
            };
            let (outcome, _) = run_search(NONSTANDARD, &config);
            assert_eq!(
                outcome.best.dag.atoms, reference.best.dag.atoms,
                "best script diverged at threads={threads} cache={prefix_cache}"
            );
            assert_eq!(
                print_module(&outcome.best.program.to_module()),
                print_module(&reference.best.program.to_module()),
                "printed output diverged at threads={threads} cache={prefix_cache}"
            );
            assert!(
                (outcome.best.re - reference.best.re).abs() < 1e-15,
                "RE diverged at threads={threads} cache={prefix_cache}"
            );
            assert_eq!(
                outcome.explored, reference.explored,
                "explored count diverged at threads={threads} cache={prefix_cache}"
            );
            assert_eq!(
                outcome.best.applied.len(),
                reference.best.applied.len(),
                "applied sequence diverged at threads={threads} cache={prefix_cache}"
            );
        }
    }

    #[test]
    fn cache_counters_and_thread_count_are_reported() {
        let config = SearchConfig {
            seq_len: 4,
            intent: IntentMeasure::jaccard(0.3),
            threads: 2,
            prefix_cache: true,
            ..Default::default()
        };
        let (outcome, _) = run_search(NONSTANDARD, &config);
        assert_eq!(outcome.timings.threads, 2);
        let probes = outcome.timings.prefix_cache_hits + outcome.timings.prefix_cache_misses;
        assert!(probes > 0, "execution checks never touched the cache");
        assert!(
            outcome.timings.prefix_cache_hits > 0,
            "beam siblings share prefixes; the cache should hit"
        );
        assert!(outcome.timings.get_steps_cpu_ms > 0.0);
        assert!(outcome.timings.search_steps > 0);
        assert!(
            outcome.timings.prefix_cache_peak_snapshots > 0,
            "a probed cache must have retained snapshots"
        );
        // With the cache off, counters stay zero.
        let cold = SearchConfig {
            prefix_cache: false,
            ..config.clone()
        };
        let (outcome, _) = run_search(NONSTANDARD, &cold);
        assert_eq!(outcome.timings.prefix_cache_hits, 0);
        assert_eq!(outcome.timings.prefix_cache_misses, 0);
    }

    #[test]
    fn candidates_that_keep_the_training_inputs_hit_the_fit_memo() {
        // The model trains on X/y taken before the edited `df` lines, so
        // every candidate editing those lines re-runs `fit` on the same
        // inputs: one training, then memo hits. The search's decisions
        // match the uncached run bit for bit.
        const FITS: &str = "\
import pandas as pd
from sklearn.linear_model import LogisticRegression
df = pd.read_csv('train.csv')
X = df[['Fare']]
y = df['Survived']
df = df.fillna(df.median())
model = LogisticRegression(max_iter=20)
model = model.fit(X, y)
acc = model.score(X, y)
";
        let config = SearchConfig {
            seq_len: 3,
            intent: IntentMeasure::jaccard(0.3),
            prefix_cache: true,
            ..Default::default()
        };
        let (cached, _) = run_search(FITS, &config);
        assert!(
            cached.timings.fit_memo_hits > 0,
            "candidates repeating a fit must hit the memo: {:?}",
            cached.timings
        );
        assert!(cached.timings.fit_memo_misses > 0);
        let (cold, _) = run_search(
            FITS,
            &SearchConfig {
                prefix_cache: false,
                ..config
            },
        );
        assert_eq!(
            (cold.timings.fit_memo_hits, cold.timings.fit_memo_misses),
            (0, 0)
        );
        assert_eq!(
            print_module(&cached.best.program.to_module()),
            print_module(&cold.best.program.to_module())
        );
        assert_eq!(cached.best.re.to_bits(), cold.best.re.to_bits());
        assert_eq!(cached.explored, cold.explored);
    }

    #[test]
    fn trace_records_every_step_and_agrees_with_timings() {
        let sink = lucid_obs::TraceSink::in_memory();
        let config = SearchConfig {
            seq_len: 4,
            intent: IntentMeasure::jaccard(0.3),
            trace: Some(sink.clone()),
            ..Default::default()
        };
        let (outcome, _) = run_search(NONSTANDARD, &config);
        let text = sink.memory_lines().unwrap().join("\n");
        let summary = lucid_obs::parse_trace(&text).unwrap();
        // One step record per executed beam step, plus start/verify/end.
        assert_eq!(summary.steps.len(), outcome.timings.search_steps);
        assert!(!summary.steps.is_empty());
        assert_eq!(summary.explored as usize, outcome.explored);
        assert_eq!(sink.errors(), 0);
        // The trace-derived Figure 7 totals must match the Timings
        // projection: both views read the same measurements (the only
        // slack is the ns rounding of the registry histograms).
        let t = &outcome.timings;
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-3 * (summary.steps.len() + 1) as f64;
        assert!(close(summary.totals.get_steps_ms, t.get_steps_ms));
        assert!(close(summary.totals.get_top_k_ms, t.get_top_k_ms));
        assert!(close(summary.totals.check_execute_ms, t.check_execute_ms));
        assert!(close(summary.totals.verify_constraints_ms, t.verify_constraints_ms));
        assert!(close(summary.totals.total_ms, t.total_ms));
        // Cache traffic attributed to steps sums to the search totals.
        assert_eq!(summary.cache_hits, t.prefix_cache_hits);
        assert_eq!(summary.cache_misses, t.prefix_cache_misses);
        assert_eq!(summary.cache_evictions, t.prefix_cache_evictions);
        // Every step kept at least one beam and scored candidates.
        for row in &summary.steps {
            assert!(row.kept >= 1);
            assert!(row.beams_in >= 1);
            assert!(row.enumerated >= row.scored);
        }
        // The render is well-formed (smoke; content tested in lucid-obs).
        assert!(summary.render().contains("GetSteps"));
    }

    #[test]
    fn tracing_does_not_change_search_decisions() {
        let plain = SearchConfig {
            seq_len: 5,
            intent: IntentMeasure::jaccard(0.3),
            ..Default::default()
        };
        let (reference, _) = run_search(NONSTANDARD, &plain);
        let traced = SearchConfig {
            trace: Some(lucid_obs::TraceSink::in_memory()),
            ..plain
        };
        let (outcome, _) = run_search(NONSTANDARD, &traced);
        assert_eq!(
            print_module(&outcome.best.program.to_module()),
            print_module(&reference.best.program.to_module())
        );
        assert_eq!(outcome.explored, reference.explored);
        assert_eq!(outcome.timings.search_steps, reference.timings.search_steps);
    }

    #[test]
    fn injected_panics_are_isolated_and_reconciled() {
        lucid_interp::silence_injected_panics();
        let corpus = corpus_model();
        let mut interp = Interpreter::new();
        interp.register_table("train.csv", titanic_like_table());
        let input = crate::lemma::lemmatize(&parse_module(NONSTANDARD).unwrap());
        let base = interp.run(&input).unwrap().output_frame().unwrap().clone();
        // Install the plan *after* the base run so the input executes clean.
        let plan = std::sync::Arc::new(lucid_interp::FaultPlan::new(
            42,
            1.0,
            vec![lucid_interp::FaultClass::Panic],
        ));
        interp.fault_plan = Some(plan.clone());
        let config = SearchConfig {
            seq_len: 3,
            intent: IntentMeasure::jaccard(0.3),
            ..Default::default()
        };
        let ctx = context(&corpus, &interp, &config, &base);
        let outcome = standardize_search(&ctx, &input);
        // Every candidate execution panics; the search must survive,
        // count each caught panic, and fall back to the input.
        assert!(outcome.best.applied.is_empty());
        assert!(outcome.timings.candidates_panicked > 0);
        assert_eq!(
            outcome.timings.candidates_panicked,
            plan.injected(lucid_interp::FaultClass::Panic),
            "search counters must reconcile with the injection plan"
        );
        assert_eq!(outcome.timings.budget_trips_total(), 0);
    }

    #[test]
    fn budget_tripped_candidates_are_pruned_and_counted() {
        let corpus = corpus_model();
        let mut interp = Interpreter::new();
        interp.register_table("train.csv", titanic_like_table());
        let input = crate::lemma::lemmatize(&parse_module(NONSTANDARD).unwrap());
        let base = interp.run(&input).unwrap().output_frame().unwrap().clone();
        // A starvation budget: every candidate execution trips Fuel, so
        // the search degrades gracefully to the input fallback.
        interp.budget = lucid_interp::Budget {
            fuel: 1,
            ..lucid_interp::Budget::unlimited()
        };
        let config = SearchConfig {
            seq_len: 3,
            intent: IntentMeasure::jaccard(0.3),
            ..Default::default()
        };
        let ctx = context(&corpus, &interp, &config, &base);
        let outcome = standardize_search(&ctx, &input);
        assert!(outcome.best.applied.is_empty());
        assert!(outcome.timings.budget_trips_fuel > 0);
        assert_eq!(outcome.timings.budget_trips_cells, 0);
        assert_eq!(outcome.timings.budget_trips_deadline, 0);
        assert_eq!(outcome.timings.candidates_panicked, 0);
    }

    #[test]
    fn beam_stepping_shares_statements_instead_of_copying() {
        // The interned-IR pin: hundreds of scored candidates must be
        // spanned by a handful of shared statements (input lines + corpus
        // atoms), every scored candidate must derive its DAG incrementally,
        // and the dedup counter must surface in `Timings`.
        let config = SearchConfig {
            seq_len: 5,
            intent: IntentMeasure::jaccard(0.3),
            ..Default::default()
        };
        let (outcome, _) = run_search(NONSTANDARD, &config);
        let t = &outcome.timings;
        assert!(t.unique_stmts > 0);
        assert!(
            (t.unique_stmts as usize) < outcome.explored,
            "candidate expansion must share statements, not copy them \
             (unique={} explored={})",
            t.unique_stmts,
            outcome.explored
        );
        assert!(
            t.intern_hits > 0,
            "beam expansion should re-intern existing statements"
        );
        assert!(
            t.dag_incremental_updates as usize >= outcome.explored,
            "every scored candidate derives its DAG incrementally \
             (updates={} explored={})",
            t.dag_incremental_updates,
            outcome.explored
        );
        // The dedup counter is wired through (the exact count depends on
        // the corpus; zero is legal, the field must round-trip).
        let _ = t.candidates_deduped;
    }

    #[test]
    fn model_perf_intent_works_end_to_end() {
        let config = SearchConfig {
            seq_len: 4,
            intent: IntentMeasure::model_perf(20.0, "Survived"),
            ..Default::default()
        };
        let (outcome, re_before) = run_search(NONSTANDARD, &config);
        assert!(outcome.best.re <= re_before + 1e-9);
        assert!(outcome.intent.satisfied);
    }

    /// Runs a traced search, writes its decision records the way the
    /// standardizer does (without a diff join), and returns (outcome,
    /// trace text).
    fn run_traced(config_base: &SearchConfig) -> (SearchOutcome, String) {
        run_traced_with_faults(config_base, None)
    }

    fn run_traced_with_faults(
        config_base: &SearchConfig,
        faults: Option<lucid_interp::FaultPlan>,
    ) -> (SearchOutcome, String) {
        let sink = lucid_obs::TraceSink::in_memory();
        let config = SearchConfig {
            trace: Some(sink.clone()),
            ..config_base.clone()
        };
        let (outcome, _) = run_search_with_faults(NONSTANDARD, &config, faults);
        outcome
            .ledger
            .clone()
            .write(&sink, outcome.best.id, outcome.best.re, &[]);
        let text = sink.memory_lines().unwrap().join("\n");
        (outcome, text)
    }

    /// The decision-record suite's inputs: an early-checked search, and a
    /// late-checked one whose verification runs panic and trip budgets
    /// (see [`faults_for`]).
    fn trace_cases() -> [SearchConfig; 2] {
        lucid_interp::silence_injected_panics();
        let early = SearchConfig {
            seq_len: 5,
            intent: IntentMeasure::jaccard(0.3),
            ..Default::default()
        };
        let late = SearchConfig {
            early_check: false,
            ..early.clone()
        };
        [early, late]
    }

    /// A fresh fault plan (counters at zero) for the late-checked case;
    /// none for the early-checked one.
    fn faults_for(config: &SearchConfig) -> Option<lucid_interp::FaultPlan> {
        use lucid_interp::FaultClass;
        (!config.early_check).then(|| {
            lucid_interp::FaultPlan::new(
                5,
                0.3,
                vec![
                    FaultClass::Panic,
                    FaultClass::BudgetFuel,
                    FaultClass::BudgetCells,
                    FaultClass::BudgetDeadline,
                    FaultClass::Value,
                ],
            )
        })
    }

    #[test]
    fn decision_records_reconcile_with_timings_exactly() {
        for config in trace_cases() {
            let (outcome, text) = run_traced_with_faults(&config, faults_for(&config));
            if !config.early_check {
                // The late case must exercise the failure drops.
                assert!(outcome.timings.candidates_panicked > 0, "no panic");
                assert!(outcome.timings.budget_trips_total() > 0, "no budget trip");
            }
            let summary = lucid_obs::parse_trace(&text).unwrap();
            assert_eq!(summary.skipped_lines, 0, "own stream must parse fully");
            // Every candidate has exactly one fate, the trailer's counts
            // match the records, and the counter-tied dispositions match
            // the search_end counters of the same stream.
            summary.reconcile().unwrap();
            // Those search_end counters are the search's own `Timings`.
            let t = &outcome.timings;
            assert_eq!(summary.candidates_deduped, t.candidates_deduped);
            assert_eq!(summary.pruned_monotonicity, t.pruned_monotonicity);
            assert_eq!(summary.candidates_panicked, t.candidates_panicked);
            assert_eq!(summary.budget_trips_fuel, t.budget_trips_fuel);
            assert_eq!(summary.budget_trips_cells, t.budget_trips_cells);
            assert_eq!(summary.budget_trips_deadline, t.budget_trips_deadline);
            // The lineage record runs from the input to the selection,
            // one hop per applied transformation.
            let ids = &summary.decisions.lineage.as_ref().unwrap().ids;
            assert_eq!(*ids, outcome.ledger.lineage_of(outcome.best.id).0);
            assert_eq!(ids.first(), Some(&0));
            assert_eq!(ids.last(), Some(&outcome.best.id));
            assert_eq!(ids.len(), outcome.best.applied.len() + 1);
        }
    }

    #[test]
    fn decision_bytes_identical_across_threads_and_cache() {
        let mut streams = Vec::new();
        for threads in [1usize, 2, 8] {
            for cache in [false, true] {
                let config = SearchConfig {
                    seq_len: 5,
                    intent: IntentMeasure::jaccard(0.3),
                    threads,
                    prefix_cache: cache,
                    ..Default::default()
                };
                let (_, text) = run_traced(&config);
                let decisions = lucid_obs::decision::decision_lines(&text).join("\n");
                streams.push((threads, cache, decisions));
            }
        }
        let (_, _, reference) = &streams[0];
        assert!(reference.contains("\"event\":\"decision_end\""));
        for (threads, cache, text) in &streams[1..] {
            assert_eq!(
                text, reference,
                "decision records diverged at threads={threads} cache={cache}"
            );
        }
    }

    #[test]
    fn tracing_does_not_perturb_decisions_or_counters() {
        for config in trace_cases() {
            let (plain, _) = run_search_with_faults(NONSTANDARD, &config, faults_for(&config));
            let (traced, text) = run_traced_with_faults(&config, faults_for(&config));
            assert_eq!(
                print_module(&traced.best.program.to_module()),
                print_module(&plain.best.program.to_module())
            );
            assert_eq!(traced.best.re, plain.best.re);
            assert_eq!(traced.explored, plain.explored);
            let (a, p) = (&traced.timings, &plain.timings);
            assert_eq!(a.candidates_deduped, p.candidates_deduped);
            assert_eq!(a.pruned_monotonicity, p.pruned_monotonicity);
            assert_eq!(a.candidates_panicked, p.candidates_panicked);
            assert_eq!(a.budget_trips_fuel, p.budget_trips_fuel);
            assert_eq!(a.budget_trips_cells, p.budget_trips_cells);
            assert_eq!(a.budget_trips_deadline, p.budget_trips_deadline);
            assert_eq!(a.search_steps, p.search_steps);
            assert_eq!(a.prefix_cache_hits, p.prefix_cache_hits);
            assert_eq!(a.prefix_cache_misses, p.prefix_cache_misses);
            assert_eq!(a.fit_memo_hits, p.fit_memo_hits);
            assert_eq!(a.fit_memo_misses, p.fit_memo_misses);
            // Untraced runs record no lineage but mint the same ID space:
            // the trailer's total covers every candidate either run
            // considered (`explored` counts only the scored subset).
            assert!(plain.ledger.metas().is_empty());
            assert_eq!(plain.ledger.total(), traced.ledger.total());
            let summary = lucid_obs::parse_trace(&text).unwrap();
            assert!(summary.decisions.end.unwrap().total >= plain.explored as u64);
        }
    }
}
