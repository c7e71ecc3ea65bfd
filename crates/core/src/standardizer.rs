//! The public façade: build once from a corpus + `D_IN`, then standardize
//! any number of user scripts.

use crate::config::SearchConfig;
use crate::entropy;
use crate::error::{CoreError, Result};
use crate::ir::Program;
use crate::lemma::lemmatize;
use crate::report::StandardizeReport;
use crate::search::{standardize_search, SearchContext, SearchOutcome, SharedSearchState};
use crate::vocab::CorpusModel;
use lucid_frame::DataFrame;
use lucid_interp::Interpreter;
use lucid_obs::{DiffLineRecord, TraceSink};
use lucid_pyast::{parse_module, print_module, Module};
use std::sync::Arc;

/// A ready-to-use script standardizer (offline phase already done).
#[derive(Debug, Clone)]
pub struct Standardizer {
    corpus: CorpusModel,
    interp: Interpreter,
    config: SearchConfig,
}

impl Standardizer {
    /// Runs the offline phase: parse + lemmatize the corpus, build the
    /// vocabularies and `Q(x)`, and register `D_IN` under `data_path`.
    ///
    /// # Errors
    ///
    /// Fails on corpus parse errors, an empty corpus, or invalid config.
    pub fn build(
        corpus_sources: &[impl AsRef<str>],
        data_path: impl Into<String>,
        data: DataFrame,
        config: SearchConfig,
    ) -> Result<Standardizer> {
        config.validate()?;
        let corpus = CorpusModel::build_from_sources(corpus_sources)?;
        let mut interp = Interpreter::new();
        configure_interp(&mut interp, &config);
        interp.register_table(data_path, data);
        Ok(Standardizer {
            corpus,
            interp,
            config,
        })
    }

    /// Builds from a pre-built corpus model (lets callers share one model
    /// across many standardizers/configs).
    ///
    /// # Errors
    ///
    /// Fails on invalid config.
    pub fn from_model(
        corpus: CorpusModel,
        data_path: impl Into<String>,
        data: DataFrame,
        config: SearchConfig,
    ) -> Result<Standardizer> {
        config.validate()?;
        let mut interp = Interpreter::new();
        configure_interp(&mut interp, &config);
        interp.register_table(data_path, data);
        Ok(Standardizer {
            corpus,
            interp,
            config,
        })
    }

    /// Registers an additional input table (multi-file `D_IN`).
    pub fn register_table(&mut self, path: impl Into<String>, data: DataFrame) {
        self.interp.register_table(path, data);
    }

    /// The corpus model (read access for stats/reporting).
    pub fn corpus(&self) -> &CorpusModel {
        &self.corpus
    }

    /// The active configuration.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// Replaces the configuration (e.g. for parameter sweeps).
    ///
    /// # Errors
    ///
    /// Fails on invalid config.
    pub fn set_config(&mut self, config: SearchConfig) -> Result<()> {
        config.validate()?;
        configure_interp(&mut self.interp, &config);
        self.config = config;
        Ok(())
    }

    /// The relative entropy of a script source w.r.t. this corpus.
    ///
    /// # Errors
    ///
    /// Fails on parse errors.
    pub fn score_source(&self, source: &str) -> Result<f64> {
        Ok(self.corpus.re_of(&parse_module(source)?))
    }

    /// Standardizes a parsed user script.
    ///
    /// # Errors
    ///
    /// Fails if the input script does not execute on `D_IN` (the paper
    /// treats the input as a working sketch).
    pub fn standardize(&self, user_script: &Module) -> Result<StandardizeReport> {
        self.standardize_with(
            user_script,
            self.config.trace.as_ref(),
            &SharedSearchState::default(),
        )
    }

    /// [`Standardizer::standardize`] writing to `trace` instead of the
    /// config's sink, over the stores of `shared`: a batch hands every
    /// search one state and each traced script a sink of its own.
    pub(crate) fn standardize_with(
        &self,
        user_script: &Module,
        trace: Option<&TraceSink>,
        shared: &SharedSearchState,
    ) -> Result<StandardizeReport> {
        let input = lemmatize(user_script);
        // The input is the user's working sketch, not a search candidate:
        // it runs on the standardizer's interpreter, which carries no
        // fault plan, though it is still budgeted.
        let base_outcome = self
            .interp
            .run(&input)
            .map_err(CoreError::InputNotExecutable)?;
        let base_output = base_outcome
            .output_frame()
            .cloned()
            .unwrap_or_default();
        let ctx = SearchContext {
            corpus: &self.corpus,
            interp: &self.interp,
            config: &self.config,
            base_output: &base_output,
            trace,
            shared,
        };
        let SearchOutcome {
            best,
            intent,
            input_re: re_before,
            explored,
            timings,
            ledger,
        } = standardize_search(&ctx, &input);

        let input_source = print_module(&input);
        let output_source = best.program.source();
        // The decision records close the trace, after every measurement
        // record: the final diff is joined onto the selected lineage first,
        // so the trailer can count the diff lines it follows.
        if let Some(sink) = trace {
            let diff_lines = diff_line_records(
                &self.corpus,
                &input,
                &best.program,
                &best.applied,
                &ledger.lineage_of(best.id).0,
            );
            ledger.write(sink, best.id, best.re, &diff_lines);
        }

        Ok(StandardizeReport {
            input_source,
            output_source,
            re_before,
            re_after: best.re,
            improvement_pct: entropy::improvement_pct(re_before, best.re),
            intent_delta: intent.delta,
            intent_kind: self.config.intent.kind().to_string(),
            intent_satisfied: intent.satisfied,
            applied: best.applied.iter().map(|t| t.describe()).collect(),
            candidates_explored: explored,
            timings,
        })
    }

    /// Explains a finished report's changes (§8 extension): prevalence,
    /// typical context, and rationale per added/removed step.
    pub fn explain(&self, report: &StandardizeReport) -> Vec<crate::explain::Explanation> {
        crate::explain::explain_diff(&self.corpus, &report.input_source, &report.output_source)
    }

    /// Standardizes raw source text.
    ///
    /// # Errors
    ///
    /// Parse errors plus everything [`Standardizer::standardize`] reports.
    pub fn standardize_source(&self, source: &str) -> Result<StandardizeReport> {
        let module = parse_module(source)?;
        self.standardize(&module)
    }
}

/// Joins the final diff against the selected chain, one `diff_line`
/// record per explained change: the chain is replayed over the interned
/// IR to learn the signed atom each op produced, then each explained
/// line ([`crate::explain::explain_atoms`] over the input's and the
/// output's atoms, with no re-parse) is matched to the first unconsumed
/// chain op with the same sign and atom. A matched line carries the ID of
/// the candidate whose minting transformation introduced it (chain index
/// `i` → lineage ID `i + 1`, since the lineage starts at the input);
/// unmatched lines (net effects of several edits) carry `None`.
fn diff_line_records(
    corpus: &CorpusModel,
    input: &Module,
    output: &Program,
    applied: &[crate::transform::Transformation],
    lineage: &[u64],
) -> Vec<DiffLineRecord> {
    use crate::ir::StmtInterner;
    use crate::transform::TransformKind;

    let interner = StmtInterner::new();
    let mut prog = Program::from_module(input, &interner);
    let in_atoms = prog.atoms();
    // (sign, atom, chain index, op description) per applied step.
    let mut chain: Vec<(char, Arc<str>, usize, String)> = Vec::new();
    for (i, t) in applied.iter().enumerate() {
        let (sign, atom) = match &t.kind {
            TransformKind::Add { atom } => ('+', Arc::clone(&atom.text)),
            TransformKind::Delete => (
                '-',
                prog.stmts()
                    .get(t.line)
                    .map_or_else(|| Arc::from(""), |info| Arc::clone(&info.atom)),
            ),
        };
        chain.push((sign, atom, i, t.describe()));
        match t.apply_ir(&prog, &interner) {
            Ok(next) => prog = next,
            // Unreachable for a chain the search actually applied; degrade
            // to partial lineage rather than dropping the whole join.
            Err(_) => break,
        }
    }
    let mut consumed = vec![false; chain.len()];
    let mut records = Vec::new();
    for e in crate::explain::explain_atoms(corpus, &in_atoms, &output.atoms()) {
        let hit = chain
            .iter()
            .enumerate()
            .find(|(ci, (sign, atom, _, _))| !consumed[*ci] && *sign == e.change && **atom == *e.step)
            .map(|(ci, (_, _, idx, op))| (ci, *idx, op.clone()));
        let (cand, chain_index, op) = match hit {
            Some((ci, idx, op)) => {
                consumed[ci] = true;
                (lineage.get(idx + 1).copied(), Some(idx), Some(op))
            }
            None => (None, None, None),
        };
        records.push(DiffLineRecord {
            change: e.change.to_string(),
            atom: e.step.clone(),
            cand,
            chain_index,
            op,
            rationale: format!("{:?}", e.rationale),
        });
    }
    records
}

/// Applies a config's interpreter-facing knobs: seed, sampling and the
/// per-run resource budget. The per-search parts (cache view, registry,
/// fault plan) go on each search's own interpreter instead.
fn configure_interp(interp: &mut Interpreter, config: &SearchConfig) {
    interp.seed = config.seed;
    interp.sample_rows = config.sample_rows;
    interp.budget = config.budget;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intent::IntentMeasure;
    use lucid_frame::csv::read_csv_str;

    fn data() -> DataFrame {
        let mut csv = String::from("Age,Fare,Survived\n");
        for i in 0..50 {
            let age = if i % 9 == 0 { String::new() } else { format!("{}", 20 + i % 40) };
            csv.push_str(&format!("{age},{},{}\n", 10 + i, i % 2));
        }
        read_csv_str(&csv).unwrap()
    }

    fn corpus() -> Vec<String> {
        vec![
            "import pandas as pd\ndf = pd.read_csv('train.csv')\ndf = df.fillna(df.mean())\ndf = pd.get_dummies(df)\ny = df['Survived']\n".to_string(),
            "import pandas as pd\ndf = pd.read_csv('train.csv')\ndf = df.fillna(df.mean())\ndf = df[df['Fare'] < 55]\ndf = pd.get_dummies(df)\ny = df['Survived']\n".to_string(),
            "import pandas as pd\ndf = pd.read_csv('train.csv')\ndf = df.fillna(df.mean())\ny = df['Survived']\n".to_string(),
        ]
    }

    fn build() -> Standardizer {
        let config = SearchConfig {
            seq_len: 6,
            intent: IntentMeasure::jaccard(0.5),
            ..Default::default()
        };
        Standardizer::build(&corpus(), "train.csv", data(), config).unwrap()
    }

    #[test]
    fn end_to_end_improvement() {
        let s = build();
        let report = s
            .standardize_source(
                "import pandas as pd\ndf = pd.read_csv('train.csv')\ndf = df.fillna(df.median())\ny = df['Survived']\n",
            )
            .unwrap();
        assert!(report.improvement_pct >= 0.0);
        assert!(report.re_after <= report.re_before);
        assert!(report.intent_satisfied);
        // Output must parse and execute.
        let module = parse_module(&report.output_source).unwrap();
        assert!(s.interp.check_executes(&module));
    }

    #[test]
    fn non_executable_input_is_rejected() {
        let s = build();
        let err = s
            .standardize_source("import pandas as pd\ndf = pd.read_csv('missing.csv')\n")
            .unwrap_err();
        assert!(matches!(err, CoreError::InputNotExecutable(_)));
        let err = s.standardize_source("x = undefined\n").unwrap_err();
        assert!(matches!(err, CoreError::InputNotExecutable(_)));
    }

    #[test]
    fn parse_errors_are_reported() {
        let s = build();
        assert!(matches!(
            s.standardize_source("df = ("),
            Err(CoreError::Parse(_))
        ));
        assert!(s.score_source("df = (").is_err());
    }

    #[test]
    fn score_source_matches_report_re() {
        let s = build();
        let src = "import pandas as pd\ndf = pd.read_csv('train.csv')\ndf = df.fillna(df.median())\ny = df['Survived']\n";
        let report = s.standardize_source(src).unwrap();
        let re = s.score_source(src).unwrap();
        assert!((re - report.re_before).abs() < 1e-12);
    }

    #[test]
    fn set_config_validates() {
        let mut s = build();
        let bad = SearchConfig {
            beam_k: 0,
            ..Default::default()
        };
        assert!(s.set_config(bad).is_err());
        let ok = SearchConfig {
            seq_len: 2,
            ..Default::default()
        };
        assert!(s.set_config(ok).is_ok());
        assert_eq!(s.config().seq_len, 2);
    }

    #[test]
    fn from_model_shares_corpus() {
        let model = CorpusModel::build_from_sources(&corpus()).unwrap();
        let s =
            Standardizer::from_model(model, "train.csv", data(), SearchConfig::default())
                .unwrap();
        assert_eq!(s.corpus().n_scripts, 3);
    }

    #[test]
    fn explanations_cover_the_diff() {
        let s = build();
        let report = s
            .standardize_source(
                "import pandas as pd\ndf = pd.read_csv('train.csv')\ndf = df.fillna(df.median())\ny = df['Survived']\n",
            )
            .unwrap();
        let explanations = s.explain(&report);
        if report.changed() {
            assert!(!explanations.is_empty());
            for e in &explanations {
                assert!(!e.text.is_empty());
                assert!((0.0..=1.0).contains(&e.prevalence));
            }
        }
    }

    /// Runs one traced standardization of the fixture's draft and returns
    /// the standardizer, the report and the parsed trace.
    fn traced_run(
        intent: IntentMeasure,
    ) -> (Standardizer, StandardizeReport, lucid_obs::TraceSummary) {
        let sink = lucid_obs::TraceSink::in_memory();
        let config = SearchConfig {
            seq_len: 4,
            intent,
            trace: Some(sink.clone()),
            ..Default::default()
        };
        let s = Standardizer::build(&corpus(), "train.csv", data(), config).unwrap();
        let report = s
            .standardize_source(
                "import pandas as pd\ndf = pd.read_csv('train.csv')\ndf = df.fillna(df.median())\ny = df['Survived']\n",
            )
            .unwrap();
        let summary = lucid_obs::parse_trace(&sink.memory_lines().unwrap().join("\n")).unwrap();
        (s, report, summary)
    }

    #[test]
    fn tracing_standardizer_profiles_one_nested_span_tree() {
        let (s, report, summary) = traced_run(IntentMeasure::jaccard(0.5));
        assert_eq!(summary.steps.len(), report.timings.search_steps);
        // The interpreter timed into the search's registry: per-statement
        // rows reached the profile record, and `lucid trace` prints them.
        let profile = summary
            .profile
            .as_ref()
            .expect("a traced search has a profile");
        assert!(
            profile
                .percentiles
                .iter()
                .any(|r| r.name == "stmt.assign" && r.sum_ns > 0),
            "expected stmt.* rows, got {:?}",
            profile.percentiles
        );
        assert!(summary
            .render()
            .contains("interpreter time by statement kind:"));
        // One tree: search phases, then the run, its statements and their
        // kernels.
        let stacks: Vec<&str> = profile.folded.iter().map(|f| f.stack.as_str()).collect();
        assert!(
            stacks.iter().any(|s| s.starts_with("search.total;")
                && s.contains(";search.check_execute;interp.run;stmt.")),
            "no search-rooted statement stack in {stacks:?}"
        );
        assert!(
            stacks.iter().any(|s| s
                .split(';')
                .collect::<Vec<_>>()
                .windows(2)
                .any(|w| w[0].starts_with("stmt.") && w[1].starts_with("kernel."))),
            "no kernel under a statement in {stacks:?}"
        );
        // The layers sum: self times add up to the root's duration
        // exactly when every span's children fit inside it (self time is
        // floored at zero), with 1 µs of rounding slack per span.
        let (self_us, spans) = profile
            .folded
            .iter()
            .filter(|f| f.stack.starts_with("search.total"))
            .fold((0, 0), |(us, n), f| (us + f.self_us, n + f.count));
        let total = profile
            .percentiles
            .iter()
            .find(|r| r.name == "search.total")
            .expect("search.total row");
        assert_eq!(total.count, 1);
        assert!(
            self_us <= total.sum_ns / 1000 + spans,
            "self times sum to {self_us} µs > search.total's {} ns",
            total.sum_ns
        );
        // The standardizer's own interpreter carries no registry: only
        // the search's interpreter times into one. Untraced runs count the
        // same: only times and allocated bytes may differ.
        assert!(s.interp.obs.is_none());
        let config = SearchConfig {
            trace: None,
            ..s.config().clone()
        };
        let quiet = Standardizer::build(&corpus(), "train.csv", data(), config).unwrap();
        let plain = quiet
            .standardize_source(
                "import pandas as pd\ndf = pd.read_csv('train.csv')\ndf = df.fillna(df.median())\ny = df['Survived']\n",
            )
            .unwrap();
        let counters = |t: &crate::report::Timings| crate::report::Timings {
            get_steps_ms: 0.0,
            get_top_k_ms: 0.0,
            check_execute_ms: 0.0,
            verify_constraints_ms: 0.0,
            total_ms: 0.0,
            get_steps_cpu_ms: 0.0,
            alloc_bytes_enumerate: 0,
            alloc_bytes_execute: 0,
            alloc_bytes_score: 0,
            alloc_bytes_verify: 0,
            alloc_bytes_unattributed: 0,
            alloc_bytes_total: 0,
            alloc_count: 0,
            peak_live_bytes: 0,
            ..*t
        };
        assert_eq!(counters(&report.timings), counters(&plain.timings));
    }

    #[test]
    fn intent_evaluations_are_timed_under_their_measure() {
        let (_, _, summary) = traced_run(IntentMeasure::model_perf(20.0, "Survived"));
        let rows = &summary
            .profile
            .expect("a traced search has a profile")
            .percentiles;
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"intent.model_performance"), "{names:?}");
        assert!(!names.contains(&"kernel.jaccard"), "{names:?}");
    }

    #[test]
    fn traced_run_maps_final_diff_lines_to_lineage() {
        let sink = lucid_obs::TraceSink::in_memory();
        let config = SearchConfig {
            seq_len: 6,
            intent: IntentMeasure::jaccard(0.5),
            trace: Some(sink.clone()),
            ..Default::default()
        };
        let s = Standardizer::build(&corpus(), "train.csv", data(), config).unwrap();
        let report = s
            .standardize_source(
                "import pandas as pd\ndf = pd.read_csv('train.csv')\ndf = df.fillna(df.median())\ny = df['Survived']\n",
            )
            .unwrap();
        assert!(report.changed(), "fixture must produce a diff");
        let lines = sink.memory_lines().unwrap();
        // One stream: measurement records first, the trailer last.
        assert!(lines[0].contains("\"event\":\"search_start\""));
        assert!(lines.last().unwrap().contains("\"event\":\"decision_end\""));
        let summary = lucid_obs::parse_trace(&lines.join("\n")).unwrap();
        summary.reconcile().unwrap();
        let d = &summary.decisions;
        let explanations = s.explain(&report);
        assert_eq!(
            d.diff_lines.len(),
            explanations.len(),
            "one diff_line record per explained change"
        );
        // Every final-diff line carries the lineage candidate whose
        // transformation introduced it — the chain replay covers the
        // whole diff for a plain add/replace run like this one.
        let lineage = &d.lineage.as_ref().unwrap().ids;
        for line in &d.diff_lines {
            let cand = line.cand.unwrap_or_else(|| {
                panic!("diff line {} {} unmatched", line.change, line.atom)
            });
            assert!(
                lineage.contains(&cand),
                "diff line joined to non-lineage candidate #{cand}"
            );
            assert!(line.op.is_some() && line.chain_index.is_some());
            assert!(!line.rationale.is_empty());
        }
        // And the rendering surfaces the join.
        let rendered = summary.render_why();
        assert!(rendered.contains("final diff -> lineage:"));
        assert!(rendered.contains("reconciliation: ok"));
    }

    #[test]
    fn bad_config_rejected_at_build() {
        let config = SearchConfig {
            intent: IntentMeasure::jaccard(-0.1),
            ..Default::default()
        };
        assert!(Standardizer::build(&corpus(), "t.csv", data(), config).is_err());
    }
}
