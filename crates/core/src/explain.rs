//! Transformation explanations — the §8 extension the paper names as a
//! planned direction: "The explanation would inform the user about the
//! frequency of this operation in the corpus, its impact on the user
//! intent, and the rationale behind it."
//!
//! Given a finished [`crate::report::StandardizeReport`]-producing run, [`explain_diff`]
//! compares the input and output scripts line by line and attaches, to
//! each added or removed step: the step's corpus prevalence, the most
//! common predecessor/successor context it appears in, and the category
//! of rationale (adopting common practice / removing an out-of-the-
//! ordinary step).

use crate::ir::{Program, StmtInterner};
use crate::lemma::lemmatize;
use crate::vocab::CorpusModel;
use lucid_pyast::parse_module;
use serde::Serialize;
use std::collections::HashSet;
use std::sync::Arc;

/// Why a change was made.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Rationale {
    /// The step is common practice in the corpus and was missing.
    AdoptCommonPractice,
    /// The step is rare/unseen in the corpus (out of the ordinary).
    RemoveAnomalousStep,
    /// The step was replaced by a more common variant of the same stage
    /// (a removal paired with an addition, e.g. median → mean imputation).
    ReplaceWithCommonVariant,
}

/// One explained change.
#[derive(Debug, Clone, Serialize)]
pub struct Explanation {
    /// `+` for additions, `-` for removals.
    pub change: char,
    /// The step's source line.
    pub step: String,
    /// Fraction of corpus scripts containing the step.
    pub prevalence: f64,
    /// The most common step preceding it in the corpus, if any.
    pub typical_predecessor: Option<String>,
    /// Why the system suggests this change.
    pub rationale: Rationale,
    /// Human-readable sentence combining the above.
    pub text: String,
}

/// Explains the difference between an input script and a standardized
/// output, both as source text, against a corpus model.
///
/// Unparsable inputs produce an empty explanation list (there is nothing
/// reliable to say).
pub fn explain_diff(model: &CorpusModel, input: &str, output: &str) -> Vec<Explanation> {
    let (Ok(in_mod), Ok(out_mod)) = (parse_module(input), parse_module(output)) else {
        return Vec::new();
    };
    // Interned IR instead of a throwaway DAG build: both scripts usually
    // share most statements, so one interner memoizes the atom rendering
    // across them (and matches what the search itself ranked on).
    let interner = StmtInterner::new();
    let atoms =
        |module: &lucid_pyast::Module| Program::from_module(&lemmatize(module), &interner).atoms();
    explain_atoms(model, &atoms(&in_mod), &atoms(&out_mod))
}

/// Explains the difference between two lemmatized scripts given as their
/// statement atoms, in line order: [`explain_diff`] without the parse,
/// for callers that already hold both programs.
pub fn explain_atoms(
    model: &CorpusModel,
    in_atoms: &[Arc<str>],
    out_atoms: &[Arc<str>],
) -> Vec<Explanation> {
    let in_set: HashSet<&Arc<str>> = in_atoms.iter().collect();
    let out_set: HashSet<&Arc<str>> = out_atoms.iter().collect();

    let added: Vec<&Arc<str>> = out_atoms.iter().filter(|a| !in_set.contains(a)).collect();
    let removed: Vec<&Arc<str>> = in_atoms.iter().filter(|a| !out_set.contains(a)).collect();

    let mut out = Vec::new();
    for atom in &removed {
        let prevalence = model.atom_prevalence(atom);
        // A removal paired with an added step sharing a prefix (same verb
        // on the same frame, e.g. `df = df.fillna(...)`) is a replacement.
        let replaced = added.iter().any(|a| same_stage(atom, a));
        let rationale = if replaced {
            Rationale::ReplaceWithCommonVariant
        } else {
            Rationale::RemoveAnomalousStep
        };
        out.push(make_explanation('-', atom, prevalence, None, rationale, model));
    }
    for atom in &added {
        let prevalence = model.atom_prevalence(atom);
        let predecessor = typical_predecessor(model, atom);
        let replaced = removed.iter().any(|a| same_stage(a, atom));
        let rationale = if replaced {
            Rationale::ReplaceWithCommonVariant
        } else {
            Rationale::AdoptCommonPractice
        };
        out.push(make_explanation('+', atom, prevalence, predecessor, rationale, model));
    }
    out
}

fn make_explanation(
    change: char,
    step: &str,
    prevalence: f64,
    typical_predecessor: Option<String>,
    rationale: Rationale,
    model: &CorpusModel,
) -> Explanation {
    let pct = prevalence * 100.0;
    let text = match rationale {
        Rationale::AdoptCommonPractice => format!(
            "added `{step}`: used by {pct:.0}% of the {} corpus scripts{}",
            model.n_scripts,
            typical_predecessor
                .as_ref()
                .map(|p| format!(", typically after `{p}`"))
                .unwrap_or_default()
        ),
        Rationale::RemoveAnomalousStep => format!(
            "removed `{step}`: appears in only {pct:.0}% of corpus scripts (out of the ordinary)"
        ),
        Rationale::ReplaceWithCommonVariant => match change {
            '-' => format!(
                "replaced `{step}` ({pct:.0}% of corpus scripts) with a more common variant"
            ),
            _ => format!(
                "added `{step}` as the more common variant ({pct:.0}% of corpus scripts)"
            ),
        },
    };
    Explanation {
        change,
        step: step.to_string(),
        prevalence,
        typical_predecessor,
        rationale,
        text,
    }
}

/// Two atoms belong to the same preparation stage when they share the
/// statement head (target and method family), e.g. both `df = df.fillna(...)`.
fn same_stage(a: &str, b: &str) -> bool {
    let head = |s: &str| -> String {
        let lhs = s.split(" = ").next().unwrap_or(s);
        let method = s
            .split('.')
            .nth(1)
            .and_then(|m| m.split('(').next())
            .unwrap_or("");
        format!("{lhs}.{method}")
    };
    !a.is_empty() && !b.is_empty() && head(a) == head(b)
}

/// The corpus's most frequent predecessor of `atom` (highest-count edge
/// `(p, atom)`, ties to the lexically smallest `p`).
fn typical_predecessor(model: &CorpusModel, atom: &str) -> Option<String> {
    let to = model.atom_id(atom)?;
    let mut best: Option<(usize, u32)> = None;
    // IDs ascend in text order, so keeping only strictly greater counts
    // resolves ties to the smallest predecessor text.
    for from in 0..model.n_unique_atoms() as u32 {
        let count = model.edge_count(from, to);
        if count > 0 && best.is_none_or(|(c, _)| count > c) {
            best = Some((count, from));
        }
    }
    best.map(|(_, from)| model.atoms()[from as usize].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CorpusModel {
        CorpusModel::build_from_sources(&[
            "import pandas as pd\ndf = pd.read_csv('t.csv')\ndf = df.fillna(df.mean())\ndf = df[df['x'] < 80]\ndf = pd.get_dummies(df)\n",
            "import pandas as pd\ndf = pd.read_csv('t.csv')\ndf = df.fillna(df.mean())\ndf = pd.get_dummies(df)\n",
            "import pandas as pd\ndf = pd.read_csv('t.csv')\ndf = df.fillna(df.median())\ndf = pd.get_dummies(df)\n",
        ])
        .unwrap()
    }

    const INPUT: &str =
        "import pandas as pd\ndf = pd.read_csv('t.csv')\ndf = df.fillna(df.median())\ndf = df.head(3)\n";
    const OUTPUT: &str =
        "import pandas as pd\ndf = pd.read_csv('t.csv')\ndf = df.fillna(df.mean())\ndf = pd.get_dummies(df)\n";

    #[test]
    fn classifies_replacement_removal_and_adoption() {
        let ex = explain_diff(&model(), INPUT, OUTPUT);
        let by_step = |s: &str| {
            ex.iter()
                .find(|e| e.step.contains(s))
                .unwrap_or_else(|| panic!("no explanation for {s}"))
        };
        assert_eq!(
            by_step("median").rationale,
            Rationale::ReplaceWithCommonVariant
        );
        assert_eq!(
            by_step("df.mean()").rationale,
            Rationale::ReplaceWithCommonVariant
        );
        assert_eq!(by_step("head").rationale, Rationale::RemoveAnomalousStep);
        assert_eq!(
            by_step("get_dummies").rationale,
            Rationale::AdoptCommonPractice
        );
    }

    #[test]
    fn prevalence_and_predecessors_are_reported() {
        let ex = explain_diff(&model(), INPUT, OUTPUT);
        let dummies = ex.iter().find(|e| e.step.contains("get_dummies")).unwrap();
        assert!((dummies.prevalence - 1.0).abs() < 1e-12);
        assert!(dummies.typical_predecessor.is_some());
        assert!(dummies.text.contains("100%"));
        let mean = ex.iter().find(|e| e.step.contains("df.mean()")).unwrap();
        assert!((mean.prevalence - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn identical_scripts_have_no_explanations() {
        assert!(explain_diff(&model(), OUTPUT, OUTPUT).is_empty());
    }

    #[test]
    fn unparsable_inputs_yield_empty() {
        assert!(explain_diff(&model(), "df = (", OUTPUT).is_empty());
        assert!(explain_diff(&model(), OUTPUT, "df = (").is_empty());
    }

    #[test]
    fn same_stage_heuristic() {
        assert!(same_stage(
            "df = df.fillna(df.median())",
            "df = df.fillna(df.mean())"
        ));
        assert!(!same_stage(
            "df = df.fillna(df.median())",
            "df = pd.get_dummies(df)"
        ));
    }

    #[test]
    fn explanations_serialize() {
        let ex = explain_diff(&model(), INPUT, OUTPUT);
        let json = serde_json::to_string(&ex).unwrap();
        assert!(json.contains("rationale"));
    }
}
