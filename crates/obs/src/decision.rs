//! Decision records: what a traced search decided, and the `lucid why`
//! view of them.
//!
//! The measurement records ([`crate::event`]) say what each beam step
//! cost; the decision records say what the search decided. Every
//! candidate the search ever minted gets one `cand` record carrying its
//! stable ID, its lineage (parent ID + the transformation that produced
//! it) and its terminal [`Disposition`], exactly one per candidate. A
//! `lineage` record names the selected chain, one `diff_line` record joins
//! each line of the final diff back to the candidate that introduced it,
//! and the `decision_end` trailer closes the stream. The trailer is the
//! last record a traced standardization writes, so a stream without it
//! was cut short.
//!
//! Decision records share the search's determinism contract: they carry
//! only structural data (IDs, REs, ops, ranks, never timestamps), IDs are
//! minted serially in enumeration order before any parallel fan-out, and
//! the records are byte-identical across thread counts, cache modes,
//! budgets, batch jobs and batch memoization. `lucid why` reconciles them
//! against the `search_end` counters of the same file.

use crate::event::TRACE_SCHEMA_VERSION;
use crate::summary::{int, text, TraceSummary};
use serde::Serialize;
use serde_json::Value;
use std::collections::BTreeMap;

/// The terminal fate of one candidate. Every candidate the search mints
/// receives exactly one disposition; the counter-tied variants (`Deduped`,
/// `PrunedMonotonicity`, `BudgetTripped`, `Panicked`) are recorded at the
/// same site that increments the matching `Timings` counter, which is what
/// makes the reconciliation in [`TraceSummary::reconcile`] exact.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Disposition {
    /// Survived every constraint and became the output script.
    Selected,
    /// Lost on score: never beat the K-th beam (or the final best) and no
    /// counter-tied cause applies. `score_gap` is its RE distance to
    /// whatever outranked it at drop time.
    OutRanked {
        /// Beam step at which the candidate was last alive.
        at_step: usize,
        /// RE distance to the candidate that outranked it (≥ 0).
        score_gap: f64,
    },
    /// Structurally identical to an already-admitted candidate.
    Deduped {
        /// ID of the candidate it duplicated.
        against: u64,
    },
    /// Enumeration refused the edit: it would touch a line below the
    /// monotonicity cursor.
    PrunedMonotonicity,
    /// Execution tripped a resource budget axis.
    BudgetTripped {
        /// The axis: `fuel`, `cells`, or `deadline`.
        kind: String,
    },
    /// Execution (or scoring) panicked and was isolated.
    Panicked,
    /// Dropped when the beam was cut back to K entries.
    BeamCut {
        /// The beam bound it fell off (the K in force at the cut).
        rank: usize,
    },
    /// The transformation failed to apply to its parent program.
    FailedApply,
    /// Execution failed with a typed (non-budget) interpreter error, or
    /// produced no output frame at verification.
    FailedExecution,
    /// Executed fine but failed the user-intent constraint.
    RejectedIntent,
}

impl Disposition {
    /// The snake_case kind tag used for grouping and counting.
    pub fn kind(&self) -> &'static str {
        match self {
            Disposition::Selected => "selected",
            Disposition::OutRanked { .. } => "out_ranked",
            Disposition::Deduped { .. } => "deduped",
            Disposition::PrunedMonotonicity => "pruned_monotonicity",
            Disposition::BudgetTripped { .. } => "budget_tripped",
            Disposition::Panicked => "panicked",
            Disposition::BeamCut { .. } => "beam_cut",
            Disposition::FailedApply => "failed_apply",
            Disposition::FailedExecution => "failed_execution",
            Disposition::RejectedIntent => "rejected_intent",
        }
    }

    /// The graveyard and reconciliation key: the kind, with budget trips
    /// split per axis so they line up with the per-axis counters.
    fn count_key(&self) -> String {
        match self {
            Disposition::BudgetTripped { kind } => format!("budget_{kind}"),
            other => other.kind().to_string(),
        }
    }

    /// Decodes a serialized disposition (an externally tagged enum: a
    /// bare string for unit variants, a one-key map for data variants).
    fn from_value(v: &Value) -> Option<Disposition> {
        match v {
            Value::String(name) => match name.as_str() {
                "Selected" => Some(Disposition::Selected),
                "PrunedMonotonicity" => Some(Disposition::PrunedMonotonicity),
                "Panicked" => Some(Disposition::Panicked),
                "FailedApply" => Some(Disposition::FailedApply),
                "FailedExecution" => Some(Disposition::FailedExecution),
                "RejectedIntent" => Some(Disposition::RejectedIntent),
                _ => None,
            },
            Value::Object(map) if map.len() == 1 => {
                let (name, inner) = map.iter().next()?;
                Some(match name.as_str() {
                    "OutRanked" => Disposition::OutRanked {
                        at_step: int(inner, "at_step") as usize,
                        score_gap: inner.get("score_gap").and_then(Value::as_f64)?,
                    },
                    "Deduped" => Disposition::Deduped {
                        against: int(inner, "against"),
                    },
                    "BudgetTripped" => Disposition::BudgetTripped {
                        kind: text(inner, "kind"),
                    },
                    "BeamCut" => Disposition::BeamCut {
                        rank: int(inner, "rank") as usize,
                    },
                    _ => return None,
                })
            }
            _ => None,
        }
    }
}

/// One candidate's identity, lineage, and fate (`"cand"`).
#[derive(Debug, Clone, Serialize)]
pub struct CandRecord {
    /// Always [`TRACE_SCHEMA_VERSION`].
    pub v: u64,
    /// Always `"cand"`.
    pub event: String,
    /// Stable, thread-count-independent candidate ID (0 = the input).
    pub id: u64,
    /// ID of the candidate this one was derived from (0 for the input).
    pub parent: u64,
    /// Beam step at which the candidate was minted (0 for the input).
    pub step: usize,
    /// The transformation applied to the parent (`"input"` for ID 0).
    pub op: String,
    /// Relative-entropy score, when the candidate was scored at all.
    pub re: Option<f64>,
    /// Terminal fate.
    pub disposition: Disposition,
}

impl CandRecord {
    /// Builds the record with the version and discriminator set.
    pub fn new(
        id: u64,
        parent: u64,
        step: usize,
        op: String,
        re: Option<f64>,
        disposition: Disposition,
    ) -> CandRecord {
        CandRecord {
            v: TRACE_SCHEMA_VERSION,
            event: "cand".to_string(),
            id,
            parent,
            step,
            op,
            re,
            disposition,
        }
    }

    fn from_value(v: &Value) -> Option<CandRecord> {
        Some(CandRecord::new(
            int(v, "id"),
            int(v, "parent"),
            int(v, "step") as usize,
            text(v, "op"),
            v.get("re").and_then(Value::as_f64),
            Disposition::from_value(v.get("disposition")?)?,
        ))
    }
}

/// The selected chain, input first (`"lineage"`).
#[derive(Debug, Clone, Serialize)]
pub struct LineageRecord {
    /// Always [`TRACE_SCHEMA_VERSION`].
    pub v: u64,
    /// Always `"lineage"`.
    pub event: String,
    /// Candidate IDs from the input (0) to the selected candidate.
    pub ids: Vec<u64>,
    /// The op that produced each entry (`ops[0] == "input"`).
    pub ops: Vec<String>,
}

impl LineageRecord {
    /// Builds the record with the version and discriminator set.
    pub fn new(ids: Vec<u64>, ops: Vec<String>) -> LineageRecord {
        LineageRecord {
            v: TRACE_SCHEMA_VERSION,
            event: "lineage".to_string(),
            ids,
            ops,
        }
    }

    fn from_value(v: &Value) -> Option<LineageRecord> {
        let ids = v.get("ids")?.as_array()?;
        let ops = v.get("ops")?.as_array()?;
        Some(LineageRecord::new(
            ids.iter()
                .filter_map(Value::as_f64)
                .map(|f| f as u64)
                .collect(),
            ops.iter()
                .filter_map(Value::as_str)
                .map(str::to_string)
                .collect(),
        ))
    }
}

/// One line of the final diff joined to the candidate that introduced it
/// (`"diff_line"`).
#[derive(Debug, Clone, Serialize)]
pub struct DiffLineRecord {
    /// Always [`TRACE_SCHEMA_VERSION`].
    pub v: u64,
    /// Always `"diff_line"`.
    pub event: String,
    /// `"+"` for an added line, `"-"` for a removed one.
    pub change: String,
    /// The line's atom key.
    pub atom: String,
    /// ID of the candidate whose minting transformation introduced this
    /// line (`None` when no chain op matches, e.g. a net effect of
    /// several edits).
    pub cand: Option<u64>,
    /// Position of that op in the selected chain (0-based).
    pub chain_index: Option<usize>,
    /// The op itself.
    pub op: Option<String>,
    /// `explain_diff`'s rationale tag for the change.
    pub rationale: String,
}

impl DiffLineRecord {
    fn from_value(v: &Value) -> Option<DiffLineRecord> {
        Some(DiffLineRecord {
            v: TRACE_SCHEMA_VERSION,
            event: "diff_line".to_string(),
            change: v.get("change")?.as_str()?.to_string(),
            atom: text(v, "atom"),
            cand: v.get("cand").and_then(Value::as_f64).map(|f| f as u64),
            chain_index: v
                .get("chain_index")
                .and_then(Value::as_f64)
                .map(|f| f as usize),
            op: v.get("op").and_then(Value::as_str).map(str::to_string),
            rationale: text(v, "rationale"),
        })
    }
}

/// The trailer (`"decision_end"`): how many `cand` and `diff_line`
/// records precede it and which candidate was selected. Written last,
/// so its presence proves the stream was not cut short.
#[derive(Debug, Clone, Serialize)]
pub struct DecisionEndRecord {
    /// Always [`TRACE_SCHEMA_VERSION`].
    pub v: u64,
    /// Always `"decision_end"`.
    pub event: String,
    /// Candidates minted (== number of `cand` records).
    pub total: u64,
    /// ID of the selected candidate (0 when the input fell back).
    pub selected: u64,
    /// Number of `diff_line` records.
    pub diff_lines: u64,
}

impl DecisionEndRecord {
    /// Builds the record with the version and discriminator set.
    pub fn new(total: u64, selected: u64, diff_lines: u64) -> DecisionEndRecord {
        DecisionEndRecord {
            v: TRACE_SCHEMA_VERSION,
            event: "decision_end".to_string(),
            total,
            selected,
            diff_lines,
        }
    }

    fn from_value(v: &Value) -> Option<DecisionEndRecord> {
        v.get("total")?;
        Some(DecisionEndRecord::new(
            int(v, "total"),
            int(v, "selected"),
            int(v, "diff_lines"),
        ))
    }
}

/// Batch mode: a script served entirely from the result memo
/// (`"memo_hit"`). Written as the single record of that script's trace
/// file, pointing at the representative whose traced search produced the
/// shared result.
#[derive(Debug, Clone, Serialize)]
pub struct MemoHitRecord {
    /// Always [`TRACE_SCHEMA_VERSION`].
    pub v: u64,
    /// Always `"memo_hit"`.
    pub event: String,
    /// The memoized script.
    pub script: String,
    /// The representative script whose result it shares.
    pub against: String,
}

impl MemoHitRecord {
    /// Builds the record with the version and discriminator set.
    pub fn new(script: String, against: String) -> MemoHitRecord {
        MemoHitRecord {
            v: TRACE_SCHEMA_VERSION,
            event: "memo_hit".to_string(),
            script,
            against,
        }
    }

    /// The line every view shows for a memo-hit stub.
    pub fn describe(&self) -> String {
        format!(
            "memo hit: '{}' served from the traced search of '{}'\n",
            self.script, self.against
        )
    }

    fn from_value(v: &Value) -> Option<MemoHitRecord> {
        Some(MemoHitRecord::new(
            v.get("script")?.as_str()?.to_string(),
            text(v, "against"),
        ))
    }
}

/// The decision records of one parsed stream.
#[derive(Debug, Clone, Default)]
pub struct Decisions {
    /// All `cand` records, in file (= ID) order.
    pub cands: Vec<CandRecord>,
    /// The selected chain, when present.
    pub lineage: Option<LineageRecord>,
    /// Final-diff join records.
    pub diff_lines: Vec<DiffLineRecord>,
    /// The trailer, when present.
    pub end: Option<DecisionEndRecord>,
    /// For a batch memo-hit stub: the script and its representative.
    pub memo_hit: Option<MemoHitRecord>,
}

impl Decisions {
    /// Folds one decision record into the set. Returns `false` when the
    /// record is malformed (the parser counts it as a skipped line).
    pub(crate) fn absorb(&mut self, event: &str, record: &Value) -> bool {
        match event {
            "cand" => CandRecord::from_value(record).map(|c| self.cands.push(c)),
            "lineage" => LineageRecord::from_value(record).map(|l| self.lineage = Some(l)),
            "diff_line" => DiffLineRecord::from_value(record).map(|d| self.diff_lines.push(d)),
            "decision_end" => DecisionEndRecord::from_value(record).map(|e| self.end = Some(e)),
            "memo_hit" => MemoHitRecord::from_value(record).map(|m| self.memo_hit = Some(m)),
            _ => None,
        }
        .is_some()
    }

    /// Disposition counts observed in the `cand` records, keyed by kind
    /// (budget trips split per axis as `budget_fuel`/`budget_cells`/
    /// `budget_deadline`).
    pub fn observed_counts(&self) -> BTreeMap<String, u64> {
        let mut counts = BTreeMap::new();
        for cand in &self.cands {
            *counts.entry(cand.disposition.count_key()).or_insert(0) += 1;
        }
        counts
    }
}

impl TraceSummary {
    /// The record of a batch memo-hit stub: a trace file holding only a
    /// `memo_hit` record, for a script that ran no search.
    pub fn memo_stub(&self) -> Option<&MemoHitRecord> {
        let d = &self.decisions;
        d.memo_hit
            .as_ref()
            .filter(|_| d.cands.is_empty() && !self.complete)
    }

    /// Checks the decision records against the trailer and the
    /// `search_end` counters of the same stream: the trailer must be
    /// present (it is written last) and its counts must match the
    /// records, candidate IDs must run 0, 1, 2, … in order, every
    /// counter-tied disposition count must equal its `search_end`
    /// counter, and exactly one candidate, the lineage's last, may be
    /// `Selected`. A memo-hit stub has nothing to reconcile.
    ///
    /// # Errors
    ///
    /// The first mismatch found, as text.
    pub fn reconcile(&self) -> Result<(), String> {
        let d = &self.decisions;
        if self.memo_stub().is_some() {
            return Ok(());
        }
        let Some(end) = &d.end else {
            return Err("missing decision_end trailer (stream cut short)".to_string());
        };
        if !self.complete {
            return Err("missing search_end record".to_string());
        }
        if end.total != d.cands.len() as u64 {
            return Err(format!(
                "trailer claims {} candidates, stream holds {}",
                end.total,
                d.cands.len()
            ));
        }
        if end.diff_lines != d.diff_lines.len() as u64 {
            return Err(format!(
                "trailer claims {} diff lines, stream holds {}",
                end.diff_lines,
                d.diff_lines.len()
            ));
        }
        if let Some((i, c)) = d.cands.iter().enumerate().find(|(i, c)| c.id != *i as u64) {
            return Err(format!("cand record {i} carries ID #{}", c.id));
        }
        let observed = d.observed_counts();
        for (key, counter) in [
            ("deduped", self.candidates_deduped),
            ("pruned_monotonicity", self.pruned_monotonicity),
            ("budget_fuel", self.budget_trips_fuel),
            ("budget_cells", self.budget_trips_cells),
            ("budget_deadline", self.budget_trips_deadline),
            ("panicked", self.candidates_panicked),
        ] {
            let seen = observed.get(key).copied().unwrap_or(0);
            if seen != counter {
                return Err(format!(
                    "disposition '{key}': {seen} records vs search_end counter {counter}"
                ));
            }
        }
        let selected: Vec<u64> = d
            .cands
            .iter()
            .filter(|c| c.disposition == Disposition::Selected)
            .map(|c| c.id)
            .collect();
        if selected != [end.selected] {
            return Err(format!(
                "trailer names #{} selected, Selected records are {selected:?}",
                end.selected
            ));
        }
        match &d.lineage {
            Some(l) if l.ids.last() == Some(&end.selected) => Ok(()),
            Some(_) => Err(format!(
                "lineage does not end at selected #{}",
                end.selected
            )),
            None => Err("missing lineage record".to_string()),
        }
    }

    /// Renders the `lucid why` view: selection summary, per-step ranking
    /// tables with score deltas, the pruned-alternative graveyard grouped
    /// by cause, the selected lineage, the final-diff join, and the
    /// reconciliation verdict.
    pub fn render_why(&self) -> String {
        if let Some(m) = self.memo_stub() {
            return m.describe();
        }
        let d = &self.decisions;
        let mut out = String::new();
        let selected = d.end.as_ref().map_or(0, |e| e.selected);
        let re_of = |id: u64| {
            d.cands
                .get(id as usize)
                .and_then(|c| c.re)
                .map_or("-".to_string(), |re| format!("{re:.6}"))
        };
        out.push_str(&format!(
            "decision provenance: {} candidates over {} step(s)\n",
            d.cands.len(),
            self.steps.len()
        ));
        out.push_str(&format!(
            "selected: #{selected}  re {} (input #0 re {})\n",
            re_of(selected),
            re_of(0)
        ));

        // Per-step ranking tables, best (lowest RE) first; unscored
        // candidates (pruned/failed before scoring) trail, by ID.
        let mut by_step: BTreeMap<usize, Vec<&CandRecord>> = BTreeMap::new();
        for cand in d.cands.iter().filter(|c| c.op != "input") {
            by_step.entry(cand.step).or_default().push(cand);
        }
        const MAX_ROWS: usize = 12;
        for (step, mut rows) in by_step {
            rows.sort_by(|a, b| match (a.re, b.re) {
                (Some(x), Some(y)) => x.total_cmp(&y),
                (Some(_), None) => std::cmp::Ordering::Less,
                (None, Some(_)) => std::cmp::Ordering::Greater,
                (None, None) => std::cmp::Ordering::Equal,
            });
            let best_re = rows.first().and_then(|c| c.re);
            out.push_str(&format!("\nstep {step} ({} candidates):\n", rows.len()));
            out.push_str(&format!(
                "  {:>6} {:>6} {:>10} {:>8}  {:<22} {}\n",
                "id", "parent", "re", "d-best", "disposition", "op"
            ));
            for cand in rows.iter().take(MAX_ROWS) {
                let re_s = cand.re.map_or("-".to_string(), |re| format!("{re:.4}"));
                let delta = match (cand.re, best_re) {
                    (Some(re), Some(best)) => format!("{:+.4}", re - best),
                    _ => "-".to_string(),
                };
                out.push_str(&format!(
                    "  {:>6} {:>6} {:>10} {:>8}  {:<22} {}\n",
                    format!("#{}", cand.id),
                    format!("#{}", cand.parent),
                    re_s,
                    delta,
                    describe_fate(&cand.disposition),
                    cand.op
                ));
            }
            if rows.len() > MAX_ROWS {
                out.push_str(&format!("  ... and {} more\n", rows.len() - MAX_ROWS));
            }
        }

        out.push_str("\ngraveyard (terminal dispositions):\n");
        for (kind, count) in d.observed_counts() {
            out.push_str(&format!("  {kind:<22} {count}\n"));
        }

        if let Some(lineage) = &d.lineage {
            out.push_str(&format!("\nlineage of selected #{selected}:\n"));
            for (id, op) in lineage.ids.iter().zip(&lineage.ops) {
                out.push_str(&format!("  #{id:<5} {op}\n"));
            }
        }

        if !d.diff_lines.is_empty() {
            out.push_str("\nfinal diff -> lineage:\n");
            for line in &d.diff_lines {
                let origin = match (line.cand, &line.op) {
                    (Some(id), Some(op)) => format!("#{id} ({op})"),
                    _ => "unmatched".to_string(),
                };
                out.push_str(&format!(
                    "  {} {}  <- {}  [{}]\n",
                    line.change, line.atom, origin, line.rationale
                ));
            }
        }

        match self.reconcile() {
            Ok(()) => out.push_str("\nreconciliation: ok\n"),
            Err(e) => out.push_str(&format!("\nreconciliation: MISMATCH — {e}\n")),
        }
        out
    }
}

/// The decision records of a JSONL trace, as written: the part of a
/// traced search's stream that is byte-identical across thread counts,
/// cache modes, budgets and batch settings (the measurement records carry
/// timings).
pub fn decision_lines(text: &str) -> Vec<&str> {
    text.lines()
        .filter(|line| {
            serde_json::from_str(line)
                .ok()
                .is_some_and(|record: Value| {
                    matches!(
                        record.get("event").and_then(Value::as_str),
                        Some("cand" | "lineage" | "diff_line" | "decision_end" | "memo_hit")
                    )
                })
        })
        .collect()
}

/// One-cell fate rendering for the step tables.
fn describe_fate(disposition: &Disposition) -> String {
    match disposition {
        Disposition::OutRanked { score_gap, .. } => format!("out_ranked(+{score_gap:.4})"),
        Disposition::Deduped { against } => format!("deduped(vs #{against})"),
        Disposition::BudgetTripped { kind } => format!("budget({kind})"),
        Disposition::BeamCut { rank } => format!("beam_cut(k={rank})"),
        other => other.kind().to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SearchEndEvent;
    use crate::sink::TraceSink;
    use crate::summary::parse_trace;

    fn sample_stream() -> String {
        let sink = TraceSink::in_memory();
        sink.emit(&SearchEndEvent {
            v: TRACE_SCHEMA_VERSION,
            event: "search_end".to_string(),
            candidates_deduped: 1,
            pruned_monotonicity: 1,
            budget_trips_fuel: 1,
            ..SearchEndEvent::default()
        });
        for c in [
            CandRecord::new(
                0,
                0,
                0,
                "input".to_string(),
                Some(2.5),
                Disposition::OutRanked {
                    at_step: 0,
                    score_gap: 1.25,
                },
            ),
            CandRecord::new(
                1,
                0,
                0,
                "+ line 1: df = df.fillna(df.mean())".to_string(),
                Some(1.25),
                Disposition::Selected,
            ),
            CandRecord::new(
                2,
                0,
                0,
                "+ line 0: import pandas as pd".to_string(),
                None,
                Disposition::PrunedMonotonicity,
            ),
            CandRecord::new(
                3,
                0,
                0,
                "- line 2".to_string(),
                Some(1.25),
                Disposition::Deduped { against: 1 },
            ),
            CandRecord::new(
                4,
                1,
                1,
                "- line 3".to_string(),
                Some(3.0),
                Disposition::BudgetTripped {
                    kind: "fuel".to_string(),
                },
            ),
        ] {
            sink.emit(&c);
        }
        sink.emit(&LineageRecord::new(
            vec![0, 1],
            vec![
                "input".to_string(),
                "+ line 1: df = df.fillna(df.mean())".to_string(),
            ],
        ));
        sink.emit(&DiffLineRecord {
            v: TRACE_SCHEMA_VERSION,
            event: "diff_line".to_string(),
            change: "+".to_string(),
            atom: "df = df.fillna(df.mean())".to_string(),
            cand: Some(1),
            chain_index: Some(0),
            op: Some("+ line 1: df = df.fillna(df.mean())".to_string()),
            rationale: "popularity".to_string(),
        });
        sink.emit(&DecisionEndRecord::new(5, 1, 1));
        sink.memory_lines().unwrap().join("\n")
    }

    #[test]
    fn round_trips_and_reconciles() {
        let summary = parse_trace(&sample_stream()).unwrap();
        let d = &summary.decisions;
        assert_eq!(d.cands.len(), 5);
        assert_eq!(summary.skipped_lines, 0);
        assert_eq!(d.lineage.as_ref().unwrap().ids, vec![0, 1]);
        assert_eq!(d.end.as_ref().unwrap().selected, 1);
        assert_eq!(d.diff_lines.len(), 1);
        assert_eq!(
            d.cands[4].disposition,
            Disposition::BudgetTripped {
                kind: "fuel".to_string()
            }
        );
        summary.reconcile().expect("reconciles");
        let counts = d.observed_counts();
        assert_eq!(counts.get("selected"), Some(&1));
        assert_eq!(counts.get("budget_fuel"), Some(&1));
        assert_eq!(counts.get("pruned_monotonicity"), Some(&1));
    }

    #[test]
    fn render_includes_tables_lineage_and_verdict() {
        let text = parse_trace(&sample_stream()).unwrap().render_why();
        assert!(
            text.contains("selected: #1  re 1.250000 (input #0 re 2.500000)"),
            "{text}"
        );
        assert!(text.contains("step 0"), "{text}");
        assert!(text.contains("graveyard"), "{text}");
        assert!(text.contains("deduped(vs #1)"), "{text}");
        assert!(text.contains("budget(fuel)"), "{text}");
        assert!(text.contains("final diff -> lineage"), "{text}");
        assert!(text.contains("reconciliation: ok"), "{text}");
    }

    #[test]
    fn reconcile_flags_counter_and_trailer_mismatches() {
        let mut summary = parse_trace(&sample_stream()).unwrap();
        summary.candidates_deduped = 7;
        let err = summary.reconcile().unwrap_err();
        assert!(err.contains("search_end counter 7"), "{err}");
        assert!(summary.render_why().contains("reconciliation: MISMATCH"));

        let mut summary = parse_trace(&sample_stream()).unwrap();
        summary.decisions.cands.pop();
        let err = summary.reconcile().unwrap_err();
        assert!(err.contains("trailer claims 5"), "{err}");

        let mut summary = parse_trace(&sample_stream()).unwrap();
        summary.decisions.diff_lines.clear();
        let err = summary.reconcile().unwrap_err();
        assert!(err.contains("trailer claims 1 diff lines"), "{err}");
    }

    #[test]
    fn every_strict_prefix_fails_reconciliation() {
        let full = sample_stream();
        let lines: Vec<&str> = full.lines().collect();
        for cut in 1..lines.len() {
            let summary = parse_trace(&lines[..cut].join("\n")).unwrap();
            assert!(
                summary.reconcile().is_err(),
                "prefix of {cut} lines reconciled"
            );
        }
    }

    #[test]
    fn memo_hit_stub_parses_and_renders() {
        let sink = TraceSink::in_memory();
        sink.emit(&MemoHitRecord::new(
            "dup.py".to_string(),
            "orig.py".to_string(),
        ));
        let summary = parse_trace(&sink.memory_lines().unwrap().join("\n")).unwrap();
        let hit = summary.decisions.memo_hit.as_ref().unwrap();
        assert_eq!(
            (hit.script.as_str(), hit.against.as_str()),
            ("dup.py", "orig.py")
        );
        summary.reconcile().expect("stub reconciles trivially");
        assert!(summary.render_why().contains("memo hit"));
    }

    #[test]
    fn malformed_decision_records_are_skipped_not_fatal() {
        let text = "{\"v\":3,\"event\":\"cand\",\"id\":0,\"parent\":0,\"step\":0,\"op\":\"input\",\"re\":1.0,\"disposition\":\"Selected\"}\n{\"v\":3,\"event\":\"cand\",\"id\":1,\"disposition\":\"Vanished\"}\n";
        let summary = parse_trace(text).unwrap();
        assert_eq!(summary.decisions.cands.len(), 1);
        assert_eq!(summary.skipped_lines, 1);
    }
}
