//! The public façade: build once from a corpus + `D_IN`, then standardize
//! any number of user scripts.

use crate::config::SearchConfig;
use crate::dag;
use crate::entropy;
use crate::error::{CoreError, Result};
use crate::lemma::lemmatize;
use crate::report::StandardizeReport;
use crate::search::{standardize_search, SearchContext, SearchOutcome};
use crate::vocab::CorpusModel;
use lucid_frame::DataFrame;
use lucid_interp::Interpreter;
use lucid_obs::{DiffLineRecord, TRACE_SCHEMA_VERSION};
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
        let module = lemmatize(&parse_module(source)?);
        Ok(entropy::relative_entropy(
            &dag::build_dag(&module),
            &self.corpus,
        ))
    }

    /// Standardizes a parsed user script.
    ///
    /// # Errors
    ///
    /// Fails if the input script does not execute on `D_IN` (the paper
    /// treats the input as a working sketch).
    pub fn standardize(&self, user_script: &Module) -> Result<StandardizeReport> {
        let input = lemmatize(user_script);
        // The input is the user's working sketch, not a search candidate:
        // it runs trusted (no fault injection), though still budgeted.
        let base_outcome = self
            .interp
            .run_trusted(&input)
            .map_err(CoreError::InputNotExecutable)?;
        let base_output = base_outcome
            .output_frame()
            .cloned()
            .unwrap_or_default();
        let input_dag = dag::build_dag(&input);
        let re_before = match self.config.objective {
            crate::config::Objective::Edges => {
                entropy::relative_entropy(&input_dag, &self.corpus)
            }
            crate::config::Objective::Atoms => {
                entropy::relative_entropy_atoms(&input_dag, &self.corpus)
            }
        };

        let ctx = SearchContext {
            corpus: &self.corpus,
            interp: &self.interp,
            config: &self.config,
            base_output: &base_output,
        };
        let SearchOutcome {
            best,
            intent,
            explored,
            timings,
            ledger,
        } = standardize_search(&ctx, &input);

        let input_source = print_module(&input);
        let output_source = print_module(&best.program.to_module());
        // The decision records close the trace, after every measurement
        // record: the final diff is joined onto the selected lineage first,
        // so the trailer can count the diff lines it follows.
        if let Some(sink) = &self.config.trace {
            let diff_lines = diff_line_records(
                &self.corpus,
                &input,
                &best.applied,
                &ledger.lineage_of(best.id).0,
                &input_source,
                &output_source,
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
/// IR to learn the signed atom each op produced, then each `explain_diff`
/// line is matched to the first unconsumed chain op with the same sign
/// and atom. A matched line carries the ID of the candidate whose minting
/// transformation introduced it (chain index `i` → lineage ID `i + 1`,
/// since the lineage starts at the input); unmatched lines (net effects
/// of several edits) carry `None`.
fn diff_line_records(
    corpus: &CorpusModel,
    input: &Module,
    applied: &[crate::transform::Transformation],
    lineage: &[u64],
    input_source: &str,
    output_source: &str,
) -> Vec<DiffLineRecord> {
    use crate::ir::{Program, StmtInterner};
    use crate::transform::TransformKind;

    let interner = StmtInterner::new();
    let mut prog = Program::from_module(input, &interner);
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
    for e in crate::explain::explain_diff(corpus, input_source, output_source) {
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
            v: TRACE_SCHEMA_VERSION,
            event: "diff_line".to_string(),
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

/// Applies a config's interpreter-facing knobs: seed, sampling, the
/// per-candidate resource budget, the (test-only) fault-injection plan,
/// and — when tracing or profiling is on — a span collector recording
/// per-statement interpreter time into the search's event log and
/// profile exports. Without a trace sink or profile directory the
/// collector is absent entirely, keeping runs on the zero-cost path.
fn configure_interp(interp: &mut Interpreter, config: &SearchConfig) {
    interp.seed = config.seed;
    interp.sample_rows = config.sample_rows;
    interp.budget = config.budget;
    interp.fault_plan = config.fault_plan.clone();
    interp.obs = (config.trace.is_some() || config.profile_out.is_some())
        .then(|| Arc::new(lucid_obs::Collector::new(true)));
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

    #[test]
    fn tracing_standardizer_logs_statement_spans() {
        let sink = lucid_obs::TraceSink::in_memory();
        let config = SearchConfig {
            seq_len: 4,
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
        let summary =
            lucid_obs::parse_trace(&sink.memory_lines().unwrap().join("\n")).unwrap();
        assert_eq!(summary.steps.len(), report.timings.search_steps);
        // The interpreter ran under the span collector: per-statement
        // aggregates made it into the search_end record.
        assert!(
            summary.stmt_spans.iter().any(|(name, ..)| name == "stmt.assign"),
            "expected stmt.* spans, got {:?}",
            summary.stmt_spans
        );
        // Untraced standardizers attach no collector at all.
        let quiet = build();
        assert!(quiet.interp.obs.is_none());
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
