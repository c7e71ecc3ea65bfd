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
//!   `GetSteps` across the [`crate::pool`] workers — for *all* beams of a
//!   step at once — and gets results back in enumeration order, so ranking,
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
use crate::report::Timings;
use crate::transform::{enumerate, Enumerated, TransformKind, Transformation};
use crate::vocab::CorpusModel;
use lucid_frame::DataFrame;
use lucid_interp::{ExecOutcome, Interpreter, InterpError, PrefixCache};
use lucid_obs::event::{
    KeptBeam, SearchEndEvent, SearchStartEvent, StepEvent, StmtSpanAgg, VerifyEvent,
};
use lucid_obs::alloc::{self, AllocSnapshot, Phase, PhaseGuard};
use lucid_obs::{Disposition, Drops, Metric, Record, Registry};
use lucid_pyast::Module;
use std::panic::{catch_unwind, AssertUnwindSafe};
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
/// a prefix cache (`tests/batch.rs` fails if a batch search gets its own);
/// each search then borrows the interner and takes a per-search
/// [`PrefixCache::shared_view`] so hit/miss/eviction counts stay
/// attributed per search.
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
            Err(payload) => Err(ExecFailure::Panic(crate::pool::panic_payload(payload))),
        }
    }

    /// The cache's counters now (all zero when caching is off).
    fn counters(&self) -> CacheCounters {
        self.cache
            .as_ref()
            .map_or(CacheCounters::default(), |cache| CacheCounters {
                hits: cache.hits(),
                misses: cache.misses(),
                evictions: cache.evictions(),
                fit_hits: cache.fit_hits(),
                fit_misses: cache.fit_misses(),
                peak: cache.peak_snapshots(),
            })
    }
}

/// This search's execution-cache counters at one instant (prefix cache,
/// fit memo, store peak); two readings subtract into a phase's window.
#[derive(Debug, Clone, Copy, Default)]
struct CacheCounters {
    hits: u64,
    misses: u64,
    evictions: u64,
    fit_hits: u64,
    fit_misses: u64,
    peak: u64,
}

impl CacheCounters {
    /// The traffic between `earlier` and `self`. The peak is a gauge and
    /// stays `self`'s.
    fn delta_since(&self, earlier: &CacheCounters) -> CacheCounters {
        CacheCounters {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            fit_hits: self.fit_hits - earlier.fit_hits,
            fit_misses: self.fit_misses - earlier.fit_misses,
            peak: self.peak,
        }
    }
}

/// Per-beam-step measurements, recorded by the step's close-out into the
/// search registry (one histogram observation per step) and the step's
/// trace record: one struct per step is what lets the trace and the
/// `Timings` projection report the *same* measured values. Drop counts
/// live in the [`Provenance`] ledger, which hands them over per phase.
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
    /// RE of the input script, the score the search started from.
    pub input_re: f64,
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

/// The measurement windows a phase opens when it starts. The allocation
/// window feeds only the trace record, so an untraced search skips it.
struct PhaseWindow {
    cache: CacheCounters,
    mem: Option<AllocSnapshot>,
}

/// One search's state across its phases (beam steps, then verification).
struct Search<'s, 'a> {
    ctx: &'s SearchContext<'a>,
    exec: ExecEnv<'a>,
    interner: &'s StmtInterner,
    reg: Registry,
    prov: Provenance,
    beams: Vec<Candidate>,
    /// Every candidate that ever made a beam (see `keep_finalists`).
    finalists: Vec<Candidate>,
    stats: StepStats,
    explored: usize,
}

impl Search<'_, '_> {
    fn open_phase(&self) -> PhaseWindow {
        PhaseWindow {
            cache: self.exec.counters(),
            mem: self.ctx.config.trace.as_ref().map(|_| alloc::snapshot()),
        }
    }

    /// The one phase close-out: records the phase's histograms, cache
    /// window and drops into the registry and, when traced, emits the
    /// phase's record, which `record` builds from the same values.
    fn close_phase<R: Record>(
        &mut self,
        window: PhaseWindow,
        histograms: &[(Metric, f64)],
        record: impl FnOnce(CacheCounters, u64, Drops) -> R,
    ) {
        let alloc_bytes = window
            .mem
            .map_or(0, |mem| alloc::snapshot().delta_since(&mem).total_bytes());
        for &(metric, ms) in histograms {
            self.reg.histogram(metric).record_ns(ms_to_ns(ms));
        }
        let cache = self.exec.counters().delta_since(&window.cache);
        for (metric, n) in [
            (Metric::CacheHits, cache.hits),
            (Metric::CacheMisses, cache.misses),
            (Metric::CacheEvictions, cache.evictions),
            (Metric::FitMemoHits, cache.fit_hits),
            (Metric::FitMemoMisses, cache.fit_misses),
        ] {
            self.reg.counter(metric).add(n);
        }
        self.reg.counter(Metric::CachePeak).set_max(cache.peak);
        let drops = self.prov.take_counts();
        drops.record(&self.reg);
        if let Some(sink) = &self.ctx.config.trace {
            sink.emit(&record(cache, alloc_bytes, drops));
        }
    }

    /// One beam step (Algorithm 2, for every beam at once): `GetSteps`,
    /// then `GetTopKBeams` with early `CheckIfExecutes`, then dedup and
    /// the cap at K. Returns whether the beams converged.
    fn beam_step(&mut self, step: usize) -> bool {
        let window = self.open_phase();
        self.prov.cur_step = step;
        let beams = std::mem::take(&mut self.beams);
        // Algorithm 2, line 2: C' = C. A pointer-bump copy under the
        // interned IR — no statement or DAG is duplicated.
        let mut next: Vec<Candidate> = beams.clone();
        // GetSteps for every beam of this step at once: ranking depends
        // only on the beams (never on `next`), so scoring all expansions
        // up front is equivalent to the per-beam interleaving — and lets
        // the work fan out across every (beam, transformation) pair.
        let ranked_per_beam = self.get_steps_all(&beams);
        // Beam ranking allocates under the Score tag; the early execution
        // checks it triggers re-tag themselves Execute inside the
        // interpreter (innermost guard wins).
        let mem_score = PhaseGuard::enter(Phase::Score);
        for (cand, ranked) in beams.iter().zip(ranked_per_beam) {
            // GetTopKBeams / GetDiverseTopKBeams.
            let t1 = Instant::now();
            if self.ctx.config.diversity {
                self.get_diverse_top_k(cand, &ranked, &mut next);
            } else {
                let ranked: Vec<&Candidate> = ranked.iter().collect();
                self.get_top_k(&ranked, &mut next, usize::MAX);
            }
            self.stats.get_top_k_ms += t1.elapsed().as_secs_f64() * 1e3;
        }
        drop(mem_score);
        // Deduplicate identical scripts (different sequences can converge)
        // and cap at K — the ledger-aware twin of the old
        // sort/dedup_by/truncate, dropping what it removes.
        dedup_and_cap(&mut next, self.ctx.config.beam_k.max(1), &mut self.prov);
        let converged = next
            .iter()
            .zip(&beams)
            .all(|(a, b)| a.dag.atoms == b.dag.atoms)
            && next.len() == beams.len();
        self.reg.counter(Metric::Steps).add(1);
        let stats = std::mem::take(&mut self.stats);
        let times = [
            (Metric::GetSteps, stats.get_steps_ms),
            (Metric::GetStepsCpu, stats.get_steps_cpu_ms),
            (Metric::GetTopK, stats.get_top_k_ms),
            (Metric::CheckExecute, stats.check_execute_ms),
        ];
        self.close_phase(window, &times, |cache, alloc_bytes, drops| StepEvent {
            step,
            beams_in: beams.len(),
            enumerated: stats.enumerated,
            scored: stats.scored,
            drops,
            admitted: stats.admitted,
            kept: next
                .iter()
                .map(|c| KeptBeam {
                    re: c.re,
                    cursor: c.cursor,
                    lines: c.program.len(),
                    applied: c.applied.len(),
                })
                .collect(),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            alloc_bytes,
            get_steps_ms: stats.get_steps_ms,
            get_top_k_ms: stats.get_top_k_ms,
            check_execute_ms: stats.check_execute_ms,
            converged,
        });
        self.beams = next;
        self.keep_finalists();
        converged
    }

    /// Adds the step's new beams to the finalists. The intent constraint is
    /// checked at the *end* (Section 5.2 item 4.3), so late steps may push
    /// all current beams past τ; retaining per-step snapshots lets
    /// verification fall back to the best earlier candidate instead of the
    /// unmodified input.
    fn keep_finalists(&mut self) {
        let finalists = &mut self.finalists;
        for cand in &self.beams {
            if !cand.applied.is_empty()
                && !finalists.iter().any(|f| f.dag.atoms == cand.dag.atoms)
            {
                // A finalist stays alive past the beams, so beam-drop
                // sites must not assign it a terminal fate.
                self.prov.protect(cand.id);
                finalists.push(cand.clone());
            }
        }
        // Verification scans finalists in ascending-RE order, so when the
        // pool overflows its bound we keep the lowest-RE entries: pruning
        // the high-RE tail only matters if *every* retained candidate
        // fails a constraint — the accepted trade-off for bounding memory
        // on long, slowly-converging searches.
        let max = self.ctx.config.max_finalists;
        if finalists.len() > max {
            finalists.sort_by(|a, b| a.re.partial_cmp(&b.re).expect("finite RE"));
            // Evicted finalists lose their beam-drop protection; if still
            // in a beam they can be fated there, otherwise the search-end
            // sweep records them as out-ranked.
            for evicted in &finalists[max..] {
                self.prov.unprotect(evicted.id);
            }
            finalists.truncate(max);
        }
    }

    /// VerifyAllConstraints: execution (when checking late) and user
    /// intent. Finalists are checked in ascending-RE order; the first
    /// valid one is optimal among everything the search visited.
    fn verify(&mut self, input_re: f64) -> Option<(Candidate, crate::intent::IntentEval)> {
        let ctx = self.ctx;
        let mut finalists = std::mem::take(&mut self.finalists);
        let window = self.open_phase();
        let t2 = Instant::now();
        let mem_verify = PhaseGuard::enter(Phase::Verify);
        let n_finalists = finalists.len();
        let mut checked = 0usize;
        let mut verify_check_ms = 0.0f64;
        finalists.sort_by(|a, b| a.re.partial_cmp(&b.re).expect("finite RE"));
        let mut best = None;
        for cand in finalists {
            // LucidScript guarantees it never *reduces* standardness
            // (§6.3.1): candidates no more standard than the input lose to
            // the input fallback.
            if cand.re >= input_re - 1e-12 {
                self.prov.drop(
                    cand.id,
                    Disposition::OutRanked {
                        at_step: self.prov.minted_at(cand.id),
                        score_gap: (cand.re - input_re).max(0.0),
                    },
                );
                continue;
            }
            checked += 1;
            // One run yields both the execution check and the output. Under
            // late checking it is the candidate's first run, so its time is
            // CheckIfExecutes time.
            let t3 = Instant::now();
            let res = self.exec.run_isolated(&cand.program);
            if !ctx.config.early_check {
                verify_check_ms += t3.elapsed().as_secs_f64() * 1e3;
            }
            let outcome = match res {
                Ok(outcome) => outcome,
                Err(failure) => {
                    self.prov.fail(cand.id, failure);
                    continue;
                }
            };
            let Some(out_frame) = outcome.output_frame() else {
                self.prov.drop(cand.id, Disposition::FailedExecution);
                continue;
            };
            let eval = {
                let _k = ctx.interp.obs.as_deref().map(|c| c.span("kernel.jaccard"));
                ctx.config.intent.evaluate(ctx.base_output, out_frame)
            };
            if !eval.satisfied {
                self.prov.drop(cand.id, Disposition::RejectedIntent);
                continue;
            }
            self.prov.select(cand.id);
            best = Some((cand, eval));
            break;
        }
        let verify_ms = t2.elapsed().as_secs_f64() * 1e3;
        drop(mem_verify);
        let times = [
            (Metric::CheckExecute, verify_check_ms),
            (Metric::Verify, verify_ms),
        ];
        let accepted = best.is_some();
        self.close_phase(window, &times, |cache, alloc_bytes, drops| VerifyEvent {
            finalists: n_finalists,
            checked,
            drops,
            accepted,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            alloc_bytes,
            check_execute_ms: verify_check_ms,
            verify_ms,
        });
        best
    }

    /// `GetSteps()` for every beam of one search step: enumerate legal
    /// next transformations from the corpus vocabularies, apply each,
    /// score by RE, and return per-beam lists of the resulting candidates
    /// ranked best (lowest RE) first, capped at `max_steps_ranked`.
    ///
    /// With `threads > 1` the apply→DAG→score work fans out over all
    /// (beam, transformation) pairs through [`crate::pool::map_indexed`],
    /// which returns results in enumeration order, so the ranked lists —
    /// and therefore every downstream beam decision — are identical to
    /// the serial path. Scoring is pure (no interpreter involvement),
    /// which is what makes the fan-out safe; a panicking scorer drops its
    /// candidate instead of aborting the search.
    fn get_steps_all(&mut self, beams: &[Candidate]) -> Vec<Vec<Candidate>> {
        let (ctx, interner) = (self.ctx, self.interner);
        let t0 = Instant::now();
        // The whole of `GetSteps` — enumeration, apply, scoring, ranking —
        // is the "enumerate" slot of the allocator's phase attribution.
        let _mem = PhaseGuard::enter(Phase::Enumerate);
        // Enumeration order defines job identity; everything downstream
        // keys off the job index. Candidate IDs are minted here, on the
        // serial path, before any fan-out — pruned candidates first, then
        // kept ones — so IDs are identical at any thread count, traced or
        // not.
        let mut jobs: Vec<(usize, Transformation, u64)> = Vec::new();
        for (beam_idx, cand) in beams.iter().enumerate() {
            let Enumerated { kept, pruned } =
                enumerate(&cand.dag, ctx.corpus, cand.cursor, &ctx.config.enum_opts);
            for t in &pruned {
                let id = self.prov.mint(cand.id, || t.describe());
                self.prov.drop(id, Disposition::PrunedMonotonicity);
            }
            jobs.extend(kept.into_iter().map(|t| {
                let id = self.prov.mint(cand.id, || t.describe());
                (beam_idx, t, id)
            }));
        }
        self.stats.enumerated += jobs.len();
        let (slots, cpu_ms) =
            crate::pool::map_indexed(jobs.len(), ctx.config.resolved_threads(), |i| {
                let (beam_idx, t, id) = &jobs[i];
                score_step(&beams[*beam_idx], t, ctx, interner, *id)
            });
        self.stats.get_steps_cpu_ms += cpu_ms;

        // Regroup by beam. Jobs were enumerated beam-major, so pushing in
        // job order reproduces the serial per-beam ordering exactly.
        let mut per_beam: Vec<Vec<Candidate>> = beams.iter().map(|_| Vec::new()).collect();
        for ((beam_idx, _, id), slot) in jobs.iter().zip(slots) {
            match slot {
                Ok(Some(scored)) => {
                    self.explored += 1;
                    self.stats.scored += 1;
                    self.prov.set_re(*id, scored.re);
                    per_beam[*beam_idx].push(scored);
                }
                // The transformation failed to apply (splice out of range,
                // etc.).
                Ok(None) => self.prov.drop(*id, Disposition::FailedApply),
                Err(payload) => self.prov.fail(*id, ExecFailure::Panic(payload)),
            }
        }
        let cap = ctx.config.max_steps_ranked;
        for ranked in &mut per_beam {
            ranked.sort_by(|a, b| a.re.partial_cmp(&b.re).expect("finite"));
            if ranked.len() > cap {
                let cutoff_re = ranked[cap.saturating_sub(1)].re;
                for dropped in ranked.drain(cap..) {
                    self.prov.drop(
                        dropped.id,
                        Disposition::OutRanked {
                            at_step: self.prov.cur_step,
                            score_gap: (dropped.re - cutoff_re).max(0.0),
                        },
                    );
                }
            }
        }
        self.stats.get_steps_ms += t0.elapsed().as_secs_f64() * 1e3;
        per_beam
    }

    /// Algorithm 2: `GetTopKBeams` — walk the ranked steps, early-check
    /// execution when `α` is on, and keep the K lowest-RE candidates in
    /// `next`. `budget` caps how many steps may be *admitted* from this
    /// list (used by the diversity wrapper to give each cluster K/M
    /// slots).
    fn get_top_k(&mut self, ranked: &[&Candidate], next: &mut Vec<Candidate>, budget: usize) {
        let k = self.ctx.config.beam_k.max(1);
        let mut admitted = 0usize;
        for (idx, step) in ranked.iter().enumerate() {
            if admitted >= budget {
                // The diversity wrapper's per-cluster slot cap: everything
                // still ranked in this cluster is cut, not out-scored.
                for later in &ranked[idx..] {
                    self.prov
                        .drop(later.id, Disposition::BeamCut { rank: budget });
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
                    self.prov.drop(
                        later.id,
                        Disposition::OutRanked {
                            at_step: self.prov.cur_step,
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
                self.prov
                    .drop(step.id, Disposition::Deduped { against: twin.id });
                continue;
            }
            if self.ctx.config.early_check {
                let t0 = Instant::now();
                let res = self.exec.run_isolated(&step.program);
                self.stats.check_execute_ms += t0.elapsed().as_secs_f64() * 1e3;
                if let Err(failure) = res {
                    self.prov.fail(step.id, failure);
                    continue;
                }
            }
            next.push((*step).clone());
            dedup_and_cap(next, k, &mut self.prov);
            admitted += 1;
            self.stats.admitted += 1;
        }
    }

    /// Algorithm 3: `GetDiverseTopKBeams` — cluster the ranked steps with
    /// k-means over transformation features, then admit K/M from each
    /// cluster so the beams explore different parts of the space.
    fn get_diverse_top_k(
        &mut self,
        cand: &Candidate,
        ranked: &[Candidate],
        next: &mut Vec<Candidate>,
    ) {
        if ranked.is_empty() {
            return;
        }
        let config = self.ctx.config;
        let m = config.diversity_clusters.max(1);
        let n_lines = cand.dag.atoms.len().max(1) as f64;
        let features: Vec<Vec<f64>> = ranked
            .iter()
            .map(|s| step_features(s, self.ctx.corpus, n_lines))
            .collect();
        let clustering = kmeans(&features, m, 25);
        let per_cluster = (config.beam_k / m.min(clustering.k.max(1))).max(1);
        for cluster in 0..clustering.k {
            // Members inherit the global ranking order (ascending RE).
            let members: Vec<&Candidate> = ranked
                .iter()
                .zip(&clustering.assignments)
                .filter(|(_, &a)| a == cluster)
                .map(|(s, _)| s)
                .collect();
            // Clusters partition the ranked list, so each candidate
            // reaches exactly one `get_top_k` call — single-fate holds.
            self.get_top_k(&members, next, per_cluster);
        }
    }
}

/// Algorithm 1: the meta-level framework. Starts from the (lemmatized,
/// executable) input script and returns the most standard candidate that
/// satisfies all constraints, falling back to the input itself — this is
/// why LucidScript never *reduces* standardness (§6.3.1).
pub fn standardize_search(ctx: &SearchContext, input: &Module) -> SearchOutcome {
    let t_total = Instant::now();
    // Allocator window for this search; the delta is folded into the
    // registry at the end, next to the interner counters.
    let mem_start = alloc::snapshot();
    let trace = ctx.config.trace.as_ref();
    // A fresh epoch for the interpreter's span collector, so per-statement
    // aggregates describe this search only.
    if let Some(obs) = &ctx.interp.obs {
        obs.reset();
    }
    if let Some(sink) = trace {
        sink.emit(&SearchStartEvent {
            seq_len: ctx.config.seq_len,
            beam_k: ctx.config.beam_k,
            threads: ctx.config.resolved_threads(),
            diversity: ctx.config.diversity,
            early_check: ctx.config.early_check,
            prefix_cache: ctx.config.prefix_cache,
            objective: match ctx.config.objective {
                Objective::Edges => "edges",
                Objective::Atoms => "atoms",
            }
            .to_string(),
        });
    }
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
    let program = Program::from_module(input, interner);
    let dag = Arc::new(program.full_dag());
    let input_re = score_dag(&dag, ctx.corpus, ctx.config.objective);
    let input_candidate = Candidate {
        program,
        dag,
        re: input_re,
        cursor: 0,
        applied: Vec::new(),
        // The input always carries the ledger's pre-minted ID 0.
        id: 0,
    };
    let mut search = Search {
        ctx,
        exec: ExecEnv::new(ctx.interp, ctx.config),
        interner,
        // All timing/count facts of this search live in one registry; the
        // returned `Timings` is a projection of it, and the trace records
        // carry the same measured values — the two views cannot disagree.
        reg: Registry::new(),
        // The candidate ledger. IDs are minted (serially, in enumeration
        // order), drops are counted and the protected set is maintained
        // whether or not the search is traced — beam-drop accounting
        // branches on it — so tracing never changes a search decision or
        // a counter.
        prov: Provenance::new(trace.is_some()),
        beams: vec![input_candidate.clone()],
        finalists: Vec::new(),
        stats: StepStats::default(),
        explored: 0,
    };
    search
        .reg
        .counter(Metric::Threads)
        .set_max(ctx.config.resolved_threads() as u64);
    let h_total = search.reg.histogram(Metric::Total);
    search.prov.set_re(input_candidate.id, input_re);

    for step in 0..ctx.config.seq_len {
        if search.beam_step(step) {
            break;
        }
    }
    let best = search.verify(input_re);

    let Search {
        reg,
        mut prov,
        explored,
        ..
    } = search;
    // Lazily built fallback: `input_candidate` is moved only on the
    // fallback path, never cloned on the common path.
    let (best, intent) = best.unwrap_or_else(|| {
        // Nothing beat the constraints: the input itself is the selection.
        prov.select(input_candidate.id);
        let delta = match ctx.config.intent {
            crate::intent::IntentMeasure::Jaccard { .. } => 1.0,
            crate::intent::IntentMeasure::ModelPerf { .. }
            | crate::intent::IntentMeasure::Fairness { .. } => 0.0,
        };
        let intent = crate::intent::IntentEval {
            delta,
            satisfied: true,
        };
        (input_candidate, intent)
    });
    // Unique statements is a gauge over the interner (the batch-shared
    // total when sharing); hit/update counts are this search's delta
    // window, so per-search values sum consistently in fleet roll-ups.
    reg.counter(Metric::UniqueStmts).set_max(interner.unique_stmts());
    reg.counter(Metric::InternHits)
        .add(interner.intern_hits().saturating_sub(interner_hits_base));
    reg.counter(Metric::DagIncremental).add(
        interner
            .dag_incremental_updates()
            .saturating_sub(interner_dag_base),
    );
    // Allocator attribution for this search's window. The total is
    // recorded as the sum of the same per-phase deltas, so "phase bytes
    // sum to the total" holds exactly even when concurrent searches
    // interleave their attributions into the process-global counters.
    let mem = alloc::snapshot().delta_since(&mem_start);
    for phase in alloc::PHASES {
        reg.counter(phase.bytes_metric())
            .add(mem.phase_bytes[phase as usize]);
    }
    reg.counter(Metric::MemBytesTotal).add(mem.total_bytes());
    reg.counter(Metric::MemAllocs).add(mem.total_allocs());
    reg.counter(Metric::MemPeakBytes).set_max(alloc::peak_bytes());
    h_total.record_ns(ms_to_ns(t_total.elapsed().as_secs_f64() * 1e3));
    let timings = Timings::from_registry(&reg);
    // Fleet roll-up: a long-lived process hands every search the same
    // process-wide registry; merging is measurement-only and happens
    // after all decisions are made.
    if let Some(fleet) = &ctx.config.stats_registry {
        fleet.merge(&reg);
    }
    if let Some(sink) = trace {
        sink.emit(&SearchEndEvent {
            explored,
            input_re,
            best_re: best.re,
            changed: !best.applied.is_empty(),
            timings,
            stmt_spans: stmt_span_aggregates(ctx.interp),
            spans_dropped: ctx.interp.obs.as_ref().map_or(0, |o| o.dropped()),
        });
        // The profile record trails search_end so a trace cut off at the
        // (potentially large) profile line still summarizes completely.
        // Profiling is measurement-only: the report is assembled after
        // every search decision is made, so output is byte-identical with
        // tracing on or off.
        if let Some(p) = build_profile(ctx, &reg) {
            sink.emit(&p);
        }
        sink.flush();
    }
    SearchOutcome {
        best,
        intent,
        input_re,
        explored,
        timings,
        ledger: prov,
    }
}

/// Assembles the search's [`ProfileReport`]: phase + per-statement
/// percentiles from the search registry merged with the interpreter
/// collector's per-span-name aggregates, plus the folded span tree.
/// `None` when no collector is attached (the search is not traced).
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
        // The search_end record carries the search's own `Timings`.
        assert_eq!(summary.timings.prefix_cache_hits, t.prefix_cache_hits);
        assert_eq!(summary.timings.prefix_cache_misses, t.prefix_cache_misses);
        assert_eq!(summary.timings.prefix_cache_evictions, t.prefix_cache_evictions);
        assert_eq!(summary.timings, *t);
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
            let s = &summary.timings;
            assert_eq!(s.candidates_deduped, t.candidates_deduped);
            assert_eq!(s.pruned_monotonicity, t.pruned_monotonicity);
            assert_eq!(s.candidates_panicked, t.candidates_panicked);
            assert_eq!(s.budget_trips_fuel, t.budget_trips_fuel);
            assert_eq!(s.budget_trips_cells, t.budget_trips_cells);
            assert_eq!(s.budget_trips_deadline, t.budget_trips_deadline);
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
