//! The online search framework (Section 5.2, Algorithms 1–3).
//!
//! Beam search over transformation sequences with five optimizations:
//! beams, k-means diversity, monotonicity, early/late execution checking,
//! and `D_IN` sampling (applied via the interpreter's row cap).
//!
//! Two execution-model mechanisms accelerate the search without changing
//! its results (see `DESIGN.md`, "Execution model & caching"):
//!
//! - [`SearchConfig::threads`] fans the apply→DAG→score work of
//!   `GetSteps` across the [`crate::pool`] workers — for *all* beams of a
//!   step at once — and gets results back in enumeration order, so ranking,
//!   clustering, and tie-breaking are byte-identical to the serial path.
//! - Every `CheckIfExecutes()` and verification run goes through a view
//!   of the [`SharedSearchState`]'s prefix cache: candidates sharing an
//!   immutable statement prefix (monotonicity guarantees the lines below
//!   the cursor never change) resume from a snapshot instead of
//!   re-running the prefix.

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
use lucid_interp::{ExecOutcome, Interpreter, PrefixCache};
use lucid_obs::alloc::{self, AllocSnapshot};
use lucid_obs::event::{KeptBeam, SearchEndEvent, SearchStartEvent, StepEvent, VerifyEvent};
use lucid_obs::{Disposition, Drops, Metric, ProfileReport, Record, Registry, TraceSink};
use lucid_pyast::Module;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

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
    /// Where the search writes its trace records (`None`: untraced).
    pub trace: Option<&'a TraceSink>,
    /// The stores the search interns into and caches in, through views
    /// of its own.
    pub shared: &'a SharedSearchState,
}

/// The stores a search runs over: one content-addressed statement
/// interner and one prefix-cache store. A search is handed them in its
/// [`SearchContext`]; [`crate::Standardizer::standardize`] builds a fresh
/// state per call, and a batch builds one for all of its searches
/// against the same corpus and registered tables.
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
/// The search builds no store of its own (`tests/batch.rs` fails if a
/// batch search gets its own); it takes a [`StmtInterner::view`] and a
/// [`PrefixCache::view`] counting into its own registry, so hit,
/// DAG-update, miss and eviction counts stay attributed per search.
#[derive(Debug, Default)]
pub struct SharedSearchState {
    interner: StmtInterner,
    cache: PrefixCache,
}

impl SharedSearchState {
    /// The owning view of the shared statement interner. Its counters
    /// stay zero (searches intern through their own views).
    pub fn interner(&self) -> &StmtInterner {
        &self.interner
    }

    /// The owning view of the prefix cache. Its counters stay zero (this
    /// view never probes); the store's traffic is the sum of the
    /// searches' registries, which a batch rolls up into its `Timings`.
    pub fn cache(&self) -> &PrefixCache {
        &self.cache
    }
}

/// Per-beam-step candidate counts for the step's trace record. Times
/// live in the search registry's histograms and drop counts in the
/// [`Provenance`] ledger; each phase's close-out reads both as windows.
#[derive(Debug, Default)]
struct StepStats {
    enumerated: usize,
    scored: usize,
    admitted: u64,
}

/// The phase histograms a [`PhaseWindow`] reads, in the order of its
/// `times`: the four Figure 7 phases.
const PHASE_TIMES: [Metric; 4] = [
    Metric::GetSteps,
    Metric::GetTopK,
    Metric::CheckExecute,
    Metric::Verify,
];

/// The counters a [`PhaseWindow`] reads, in the order of its `counts`:
/// the prefix-cache traffic each phase's trace record reports.
const PHASE_COUNTS: [Metric; 3] = [
    Metric::CacheHits,
    Metric::CacheMisses,
    Metric::CacheEvictions,
];

/// Bound on accumulated finalists awaiting final verification; when
/// full, only the lowest-RE candidates are kept. Keeps step-convergent
/// searches from growing an unbounded verification queue.
const MAX_FINALISTS: usize = 256;

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

/// The measurement windows a phase opens when it starts: the
/// [`PHASE_COUNTS`] counter values, the [`PHASE_TIMES`] histogram sums in
/// ms, and allocated bytes. The allocation window feeds only the trace
/// record, so an untraced search skips it.
struct PhaseWindow {
    counts: [u64; 3],
    times: [f64; 4],
    mem: Option<AllocSnapshot>,
}

/// One search's state across its phases (beam steps, then verification).
struct Search<'s, 'a> {
    ctx: &'s SearchContext<'a>,
    /// The search's own interpreter: the context's, plus this search's
    /// prefix-cache view, its registry when traced, and the config's
    /// fault plan (see [`standardize_search`]).
    interp: Interpreter,
    interner: &'s StmtInterner,
    reg: Arc<Registry>,
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
            counts: PHASE_COUNTS.map(|m| self.reg.counter_value(m)),
            times: PHASE_TIMES.map(|m| self.reg.histogram_sum_ms(m)),
            mem: self.ctx.trace.map(|_| alloc::snapshot()),
        }
    }

    /// The one phase close-out: records the phase's drops into the
    /// registry and, when traced, emits the phase's record, which `record`
    /// builds from the same drops and the phase's [`PHASE_COUNTS`] and
    /// [`PHASE_TIMES`] windows.
    fn close_phase<R: Record>(
        &mut self,
        window: PhaseWindow,
        record: impl FnOnce([u64; 3], [f64; 4], u64, Drops) -> R,
    ) {
        let alloc_bytes = window
            .mem
            .map_or(0, |mem| alloc::snapshot().since(&mem).total_bytes());
        let mut times = PHASE_TIMES.map(|m| self.reg.histogram_sum_ms(m));
        for (now, then) in times.iter_mut().zip(window.times) {
            *now -= then;
        }
        let mut counts = PHASE_COUNTS.map(|m| self.reg.counter_value(m));
        for (now, then) in counts.iter_mut().zip(window.counts) {
            *now -= then;
        }
        let drops = self.prov.take_counts();
        drops.record(&self.reg);
        if let Some(sink) = self.ctx.trace {
            sink.emit(&record(counts, times, alloc_bytes, drops));
        }
    }

    /// One `CheckIfExecutes` run, timed as such.
    fn check_execute(&self, program: &Program) -> Result<ExecOutcome, ExecFailure> {
        let _t = self.reg.time(Metric::CheckExecute);
        self.run_isolated(program)
    }

    /// Fault-isolated run on the search's interpreter: a candidate that
    /// panics (an interpreter bug or an injected fault) is converted into
    /// a classified [`ExecFailure`] instead of unwinding into — and
    /// aborting — the search. Statement references carry their
    /// precomputed structural hashes, so neither the prefix-cache keys nor
    /// fault-plan decisions ever hash a statement again. The interpreter
    /// is immutable during candidate execution and the prefix cache's lock
    /// is poison-tolerant, which is what makes `AssertUnwindSafe` sound
    /// here.
    fn run_isolated(&self, program: &Program) -> Result<ExecOutcome, ExecFailure> {
        let run = || self.interp.run_shared(&program.stmt_refs());
        match catch_unwind(AssertUnwindSafe(run)) {
            Ok(Ok(outcome)) => Ok(outcome),
            Ok(Err(e)) => Err(ExecFailure::Error(e)),
            Err(payload) => Err(ExecFailure::Panic(crate::pool::panic_payload(payload))),
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
        // GetTopKBeams / GetDiverseTopKBeams for every beam, under one
        // timer. Beam ranking allocates under its Score tag; the early
        // execution checks it triggers re-tag themselves Execute inside
        // the interpreter (innermost guard wins).
        let top_k = self.reg.time(Metric::GetTopK);
        for (cand, ranked) in beams.iter().zip(ranked_per_beam) {
            if self.ctx.config.diversity {
                self.get_diverse_top_k(cand, &ranked, &mut next);
            } else {
                let ranked: Vec<&Candidate> = ranked.iter().collect();
                self.get_top_k(&ranked, &mut next, usize::MAX);
            }
        }
        drop(top_k);
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
        self.close_phase(
            window,
            |[cache_hits, cache_misses, cache_evictions],
             [steps_ms, top_k_ms, check_ms, _],
             alloc_bytes,
             drops| StepEvent {
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
                cache_hits,
                cache_misses,
                cache_evictions,
                alloc_bytes,
                get_steps_ms: steps_ms,
                get_top_k_ms: top_k_ms,
                check_execute_ms: check_ms,
                converged,
            },
        );
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
        if finalists.len() > MAX_FINALISTS {
            finalists.sort_by(|a, b| a.re.partial_cmp(&b.re).expect("finite RE"));
            // Evicted finalists lose their beam-drop protection; if still
            // in a beam they can be fated there, otherwise the search-end
            // sweep records them as out-ranked.
            for evicted in &finalists[MAX_FINALISTS..] {
                self.prov.unprotect(evicted.id);
            }
            finalists.truncate(MAX_FINALISTS);
        }
    }

    /// VerifyAllConstraints: execution (when checking late) and user
    /// intent. Finalists are checked in ascending-RE order; the first
    /// valid one is optimal among everything the search visited.
    fn verify(&mut self, input_re: f64) -> Option<(Candidate, crate::intent::IntentEval)> {
        let ctx = self.ctx;
        let mut finalists = std::mem::take(&mut self.finalists);
        let window = self.open_phase();
        let verify = self.reg.time(Metric::Verify);
        let n_finalists = finalists.len();
        let mut checked = 0usize;
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
            let res = if ctx.config.early_check {
                self.run_isolated(&cand.program)
            } else {
                self.check_execute(&cand.program)
            };
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
                let _t = self.reg.time(ctx.config.intent.metric());
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
        drop(verify);
        let accepted = best.is_some();
        self.close_phase(
            window,
            |[cache_hits, cache_misses, cache_evictions],
             [_, _, check_ms, verify_ms],
             alloc_bytes,
             drops| VerifyEvent {
                finalists: n_finalists,
                checked,
                drops,
                accepted,
                cache_hits,
                cache_misses,
                cache_evictions,
                alloc_bytes,
                check_execute_ms: check_ms,
                verify_ms,
            },
        );
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
        // The whole of `GetSteps` — enumeration, apply, scoring, ranking —
        // is one timer, and the "enumerate" slot of the allocator's phase
        // attribution.
        let _t = self.reg.time(Metric::GetSteps);
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
        let (slots, busy) =
            crate::pool::map_indexed(jobs.len(), ctx.config.resolved_threads(), |i| {
                let (beam_idx, t, id) = &jobs[i];
                score_step(&beams[*beam_idx], t, ctx, interner, *id)
            });
        self.reg.histogram(Metric::GetStepsCpu).record(busy);

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
                if let Err(failure) = self.check_execute(&step.program) {
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
    // All timing/count facts of this search live in one registry of its
    // own, which keeps spans when the search is traced. The returned
    // `Timings` is a projection of it, and the trace records carry the
    // same measured values — the two views cannot disagree.
    let trace = ctx.trace;
    let reg = Arc::new(match trace {
        Some(_) => Registry::traced(),
        None => Registry::new(),
    });
    let total = reg.time(Metric::Total);
    // Allocator window for this search; the delta is folded into the
    // registry at the end, next to the store gauges.
    let mem_start = alloc::snapshot();
    if let Some(sink) = trace {
        sink.emit(&SearchStartEvent {
            seq_len: ctx.config.seq_len,
            beam_k: ctx.config.beam_k,
            threads: ctx.config.resolved_threads(),
            diversity: ctx.config.diversity,
            early_check: ctx.config.early_check,
            objective: match ctx.config.objective {
                Objective::Edges => "edges",
                Objective::Atoms => "atoms",
            }
            .to_string(),
        });
    }
    // One interner view per search, over the store it is handed: every
    // candidate the search ever holds is a list of pointers into that
    // store, and each per-statement fact (hash, atom key, def/use sets)
    // is computed once per unique statement (per batch, when a batch
    // hands every search one store). The view counts this search's hits
    // and DAG updates into the search's registry.
    let interner = ctx.shared.interner().view(&reg);
    let program = Program::from_module(input, &interner);
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
    // The search's interpreter. Its prefix-cache view, over the store it
    // is handed (never spanning different registered tables: the
    // cache-validity invariant), counts into the search's registry. When
    // traced, the interpreter times its statements and kernels into the
    // same registry, so they nest under the search's phases. The fault
    // plan sits here only, so the user's input (run on the context's
    // interpreter) never faults.
    let mut interp = ctx.interp.clone();
    interp.cache = Some(ctx.shared.cache().view(&reg));
    interp.obs = trace.map(|_| Arc::clone(&reg));
    interp.fault_plan = ctx.config.fault_plan.clone();
    let mut search = Search {
        ctx,
        interp,
        interner: &interner,
        reg,
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
    // Unique statements and the snapshot peak are gauges over the stores
    // (shared by every search handed the same state); every count was
    // recorded into the registry where it happened.
    reg.counter(Metric::UniqueStmts).set_max(interner.unique_stmts());
    reg.counter(Metric::CachePeak)
        .set_max(ctx.shared.cache().peak_snapshots());
    // Allocator attribution for this search's window. The total is
    // recorded as the sum of the same per-phase deltas, so "phase bytes
    // sum to the total" holds exactly even when concurrent searches
    // interleave their attributions into the process-global counters.
    let mem = alloc::snapshot().since(&mem_start);
    for phase in alloc::PHASES {
        reg.counter(phase.bytes_metric())
            .add(mem.phase_bytes[phase as usize]);
    }
    reg.counter(Metric::MemBytesTotal).add(mem.total_bytes());
    reg.counter(Metric::MemAllocs).add(mem.total_allocs());
    reg.counter(Metric::MemPeakBytes).set_max(alloc::peak_bytes());
    drop(total);
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
        });
        // The profile record trails search_end so a trace cut off at the
        // (potentially large) profile line still summarizes completely.
        // Profiling is measurement-only: the report is assembled after
        // every search decision is made, so output is byte-identical with
        // tracing on or off.
        if let Some(profile) = ProfileReport::of(&reg) {
            sink.emit(&profile);
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

    /// A context over `config`'s trace sink and the stores of `shared`.
    fn context<'a>(
        corpus: &'a CorpusModel,
        interp: &'a Interpreter,
        config: &'a SearchConfig,
        base: &'a DataFrame,
        shared: &'a SharedSearchState,
    ) -> SearchContext<'a> {
        SearchContext {
            corpus,
            interp,
            config,
            base_output: base,
            trace: config.trace.as_ref(),
            shared,
        }
    }

    fn run_search(input_src: &str, config: &SearchConfig) -> (SearchOutcome, f64) {
        run_search_with_faults(input_src, config, None)
    }

    /// [`run_search`] with a fault plan in the config: only the search's
    /// own interpreter carries it, so the base run executes clean and
    /// only candidate executions fault.
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
        let config = SearchConfig {
            fault_plan: faults.map(Arc::new),
            ..config.clone()
        };
        let re_before =
            entropy::relative_entropy(&crate::dag::build_dag(&input), &corpus);
        let shared = SharedSearchState::default();
        let ctx = context(&corpus, &interp, &config, &base, &shared);
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
        let shared = SharedSearchState::default();
        let ctx = context(&corpus, &interp, &config, &base, &shared);
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
        let shared = SharedSearchState::default();
        let ctx = context(&corpus, &interp, &config, &base, &shared);
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
        let shared = SharedSearchState::default();
        let ctx = context(&corpus, &interp, &config, &base, &shared);
        let outcome = standardize_search(&ctx, &input);
        assert!(!outcome.best.applied.is_empty());
        let lines = sink.memory_lines().unwrap();
        let verify: serde_json::Value = lines
            .iter()
            .find(|l| l.contains("\"event\":\"verify\""))
            .map(|l| serde_json::from_str(l).unwrap())
            .expect("verify record");
        let checked = verify.get("checked").and_then(|v| v.as_f64()).unwrap() as u64;
        assert!(checked > 0);
        let profile = lucid_obs::parse_trace(&lines.join("\n"))
            .unwrap()
            .profile
            .expect("a traced search has a profile");
        let count = |name: &str| {
            profile
                .percentiles
                .iter()
                .find(|r| r.name == name)
                .map_or(0, |r| r.count)
        };
        assert_eq!(count("interp.run"), checked);
        // Every late check is one CheckIfExecutes observation.
        assert_eq!(count("search.check_execute"), checked);
    }

    #[test]
    fn parallel_search_is_byte_identical_to_serial() {
        // The golden determinism contract: fanning GetSteps across
        // threads must not change a single search decision. (That a
        // prefix-cache resume equals a cold run is pinned at the
        // interpreter, in `interp/tests/prefix_cache.rs`.)
        let serial = SearchConfig {
            seq_len: 6,
            intent: IntentMeasure::jaccard(0.3),
            threads: 1,
            ..Default::default()
        };
        let (reference, _) = run_search(NONSTANDARD, &serial);
        for threads in [4, 2, 0] {
            let config = SearchConfig {
                threads,
                ..serial.clone()
            };
            let (outcome, _) = run_search(NONSTANDARD, &config);
            assert_eq!(
                outcome.best.dag.atoms, reference.best.dag.atoms,
                "best script diverged at threads={threads}"
            );
            assert_eq!(
                print_module(&outcome.best.program.to_module()),
                print_module(&reference.best.program.to_module()),
                "printed output diverged at threads={threads}"
            );
            assert!(
                (outcome.best.re - reference.best.re).abs() < 1e-15,
                "RE diverged at threads={threads}"
            );
            assert_eq!(
                outcome.explored, reference.explored,
                "explored count diverged at threads={threads}"
            );
            assert_eq!(
                outcome.best.applied.len(),
                reference.best.applied.len(),
                "applied sequence diverged at threads={threads}"
            );
        }
    }

    #[test]
    fn cache_counters_and_thread_count_are_reported() {
        let config = SearchConfig {
            seq_len: 4,
            intent: IntentMeasure::jaccard(0.3),
            threads: 2,
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
        assert_eq!(summary.end.explored, outcome.explored);
        assert_eq!(sink.errors(), 0);
        // The step and verify records' phase windows, summed (the
        // fallback of a trace cut before search_end), must match the
        // Timings projection: both views read the same measurements (the
        // only slack is the ns rounding of the registry histograms).
        let t = &outcome.timings;
        let cut: Vec<&str> = text
            .lines()
            .filter(|line| !line.contains("\"event\":\"search_end\""))
            .collect();
        let fallback = lucid_obs::parse_trace(&cut.join("\n")).unwrap();
        assert!(!fallback.complete);
        let f = &fallback.end.timings;
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-3 * (summary.steps.len() + 1) as f64;
        assert!(close(f.get_steps_ms, t.get_steps_ms));
        assert!(close(f.get_top_k_ms, t.get_top_k_ms));
        assert!(close(f.check_execute_ms, t.check_execute_ms));
        assert!(close(f.verify_constraints_ms, t.verify_constraints_ms));
        assert_eq!(f.search_steps, t.search_steps);
        // The complete trace's Figure 7 rows are the search's own.
        assert_eq!(summary.figure7()[4], ("Total", t.total_ms));
        // The search_end record carries the search's own `Timings`.
        assert_eq!(summary.end.timings.prefix_cache_hits, t.prefix_cache_hits);
        assert_eq!(summary.end.timings.prefix_cache_misses, t.prefix_cache_misses);
        assert_eq!(summary.end.timings.prefix_cache_evictions, t.prefix_cache_evictions);
        assert_eq!(summary.end.timings, *t);
        // Every step kept at least one beam and scored candidates.
        for row in &summary.steps {
            assert!(!row.kept.is_empty());
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
        // The plan rides in the config: only the search's own interpreter
        // carries it, so the input executes clean.
        let plan = std::sync::Arc::new(lucid_interp::FaultPlan::new(
            42,
            1.0,
            vec![lucid_interp::FaultClass::Panic],
        ));
        let config = SearchConfig {
            seq_len: 3,
            intent: IntentMeasure::jaccard(0.3),
            fault_plan: Some(plan.clone()),
            ..Default::default()
        };
        let shared = SharedSearchState::default();
        let ctx = context(&corpus, &interp, &config, &base, &shared);
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
        let shared = SharedSearchState::default();
        let ctx = context(&corpus, &interp, &config, &base, &shared);
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
            let s = &summary.end.timings;
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
    fn decision_bytes_identical_across_threads() {
        let mut streams = Vec::new();
        for threads in [1usize, 2, 8] {
            let config = SearchConfig {
                seq_len: 5,
                intent: IntentMeasure::jaccard(0.3),
                threads,
                ..Default::default()
            };
            let (_, text) = run_traced(&config);
            let decisions = lucid_obs::decision::decision_lines(&text).join("\n");
            streams.push((threads, decisions));
        }
        let (_, reference) = &streams[0];
        assert!(reference.contains("\"event\":\"decision_end\""));
        for (threads, text) in &streams[1..] {
            assert_eq!(text, reference, "decision records diverged at threads={threads}");
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
