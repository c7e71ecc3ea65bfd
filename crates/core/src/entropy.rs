//! The standardness objective: relative entropy (Definition 4.1).
//!
//! `RE(s, S) = Σ_x P(x) · log(P(x) / Q(x))` where `x` ranges over the edge
//! space, `P` is the script's edge distribution and `Q` the corpus's.
//!
//! The paper leaves the zero-support case implicit (a user edge absent
//! from `V_E'` would make `Q(x) = 0` and `RE` infinite); we apply add-one
//! (Laplace) smoothing to `Q` over `V_E' ∪ edges(s)`, documented in
//! DESIGN.md §6. `P` needs no smoothing since `0 · log 0 = 0`.

use crate::dag::ScriptDag;
use crate::vocab::{CorpusModel, OrderKey};

/// Relative entropy of a DAG w.r.t. the corpus model, in one integer
/// pass: each atom is keyed once ([`CorpusModel::order_key`]), edges
/// become key pairs, and a sort plus a run count yields the script's
/// distinct edges in lexicographic order of their text — the summation
/// order of the string-keyed definition kept in [`crate::oracle`], so
/// the float result is bit-identical to it. Corpus counts are looked up
/// by ID.
///
/// A script with no edges scores the worst-case divergence of a
/// one-unknown-edge script, keeping the measure total and monotone.
pub fn relative_entropy(dag: &ScriptDag, corpus: &CorpusModel) -> f64 {
    let total = dag.edge_positions.len();
    if total == 0 {
        // Defined fallback: divergence of a singleton unseen edge.
        return (1.0 / corpus.q(0, 1)).ln();
    }
    let keys: Vec<OrderKey> = dag.atoms.iter().map(|a| corpus.order_key(a)).collect();
    let mut edges: Vec<(OrderKey, OrderKey)> = dag
        .edge_positions
        .iter()
        .map(|&(i, j)| (keys[i], keys[j]))
        .collect();
    edges.sort_unstable();
    let terms = count_runs(&edges, |(from, to)| match (from.id(), to.id()) {
        (Some(a), Some(b)) => corpus.edge_count(a, b),
        _ => 0,
    });
    divergence(&terms, total, |count, extra| corpus.q(count, extra))
}

/// Ablation variant: relative entropy over the *atom* vocabulary `V_A`
/// instead of the edge vocabulary `V_E'`. The paper models `X` with edges
/// because they encode step order (Section 3); this variant drops order
/// information and is provided for the ablation benches.
pub fn relative_entropy_atoms(dag: &ScriptDag, corpus: &CorpusModel) -> f64 {
    let total = dag.atoms.len();
    if total == 0 {
        let q = 1.0 / (corpus.n_unique_atoms() as f64 + 1.0);
        return (1.0 / q).ln();
    }
    let mut keys: Vec<OrderKey> = dag.atoms.iter().map(|a| corpus.order_key(a)).collect();
    keys.sort_unstable();
    let terms = count_runs(&keys, |key| {
        key.id().map_or(0, |id| corpus.atom_count_by_id(id))
    });
    let corpus_total = corpus.total_atoms();
    divergence(&terms, total, |count, extra| {
        let space = corpus.n_unique_atoms() + extra;
        (count as f64 + 1.0) / (corpus_total as f64 + space as f64)
    })
}

/// Collapses a sorted slice into `(multiplicity, corpus count)` per
/// distinct element, in order.
fn count_runs<T: PartialEq>(sorted: &[T], corpus_count: impl Fn(&T) -> usize) -> Vec<(usize, usize)> {
    sorted
        .chunk_by(|a, b| a == b)
        .map(|run| (run.len(), corpus_count(&run[0])))
        .collect()
}

/// `Σ P · ln(P / Q)` over `(script count, corpus count)` terms, where `q`
/// maps a corpus count and the number of terms absent from the corpus
/// (the augmented sample space) to the smoothed corpus probability.
fn divergence(terms: &[(usize, usize)], total: usize, q: impl Fn(usize, usize) -> f64) -> f64 {
    let extra = terms.iter().filter(|&&(_, in_corpus)| in_corpus == 0).count();
    let mut re = 0.0;
    for &(count, in_corpus) in terms {
        let p = count as f64 / total as f64;
        re += p * (p / q(in_corpus, extra)).ln();
    }
    // Numerical floor: RE is non-negative analytically, but smoothing can
    // push Q mass above P for very standard scripts; clamp at zero.
    re.max(0.0)
}

/// The paper's effectiveness metric (§6.1.4):
/// `% improvement = (RE(s_u) − RE(ŝ_u)) / RE(s_u) × 100`.
/// Positive = the output is more standard. Zero-RE inputs (already perfectly
/// standard) improve by 0 by definition.
pub fn improvement_pct(re_before: f64, re_after: f64) -> f64 {
    if re_before <= f64::EPSILON {
        return 0.0;
    }
    (re_before - re_after) / re_before * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::CorpusModel;
    use lucid_pyast::parse_module;

    fn corpus_model() -> CorpusModel {
        let sources = [
            "import pandas as pd\ndf = pd.read_csv('t.csv')\ndf = df.fillna(df.mean())\ndf = pd.get_dummies(df)\n",
            "import pandas as pd\ndf = pd.read_csv('t.csv')\ndf = df.fillna(df.mean())\ndf = pd.get_dummies(df)\n",
            "import pandas as pd\ndf = pd.read_csv('t.csv')\ndf = df.dropna()\ndf = pd.get_dummies(df)\n",
        ];
        CorpusModel::build_from_sources(&sources).unwrap()
    }

    fn dag_of(src: &str) -> crate::dag::ScriptDag {
        crate::dag::build_dag(&crate::lemma::lemmatize(&parse_module(src).unwrap()))
    }

    #[test]
    fn corpus_majority_script_scores_lower_than_outlier() {
        let m = corpus_model();
        let standard = dag_of(
            "import pandas as pd\ndf = pd.read_csv('t.csv')\ndf = df.fillna(df.mean())\ndf = pd.get_dummies(df)\n",
        );
        let outlier = dag_of(
            "import pandas as pd\ndf = pd.read_csv('t.csv')\ndf = df.fillna(df.median())\ndf = df[df['Age'] > 99]\n",
        );
        let re_std = relative_entropy(&standard, &m);
        let re_out = relative_entropy(&outlier, &m);
        assert!(
            re_std < re_out,
            "standard {re_std} should be below outlier {re_out}"
        );
    }

    #[test]
    fn re_is_nonnegative_and_finite() {
        let m = corpus_model();
        for src in [
            "import pandas as pd\n",
            "x = 1\ny = x + 1\n",
            "import pandas as pd\ndf = pd.read_csv('t.csv')\n",
        ] {
            let re = relative_entropy(&dag_of(src), &m);
            assert!(re.is_finite());
            assert!(re >= 0.0);
        }
    }

    #[test]
    fn empty_script_gets_worst_case_score() {
        let m = corpus_model();
        let empty = dag_of("");
        let re = relative_entropy(&empty, &m);
        assert!(re > 0.0);
        assert!(re.is_finite());
    }

    #[test]
    fn adding_a_common_edge_reduces_re() {
        // Mirrors Example 4.6: adding the common next step brings P toward Q.
        let m = corpus_model();
        let before = dag_of("import pandas as pd\ndf = pd.read_csv('t.csv')\ndf = pd.get_dummies(df)\n");
        let after = dag_of(
            "import pandas as pd\ndf = pd.read_csv('t.csv')\ndf = df.fillna(df.mean())\ndf = pd.get_dummies(df)\n",
        );
        assert!(relative_entropy(&after, &m) < relative_entropy(&before, &m));
    }

    #[test]
    fn improvement_pct_sign_convention() {
        assert!((improvement_pct(2.0, 1.0) - 50.0).abs() < 1e-12);
        assert!(improvement_pct(1.0, 2.0) < 0.0);
        assert_eq!(improvement_pct(0.0, 0.0), 0.0);
    }

    #[test]
    fn atom_variant_orders_like_edge_variant_on_clear_cases() {
        let m = corpus_model();
        let standard = dag_of(
            "import pandas as pd\ndf = pd.read_csv('t.csv')\ndf = df.fillna(df.mean())\ndf = pd.get_dummies(df)\n",
        );
        let outlier = dag_of(
            "import pandas as pd\ndf = pd.read_csv('t.csv')\ndf = df[df['Weird'] < 1]\ndf = df.head(3)\n",
        );
        let re_std = relative_entropy_atoms(&standard, &m);
        let re_out = relative_entropy_atoms(&outlier, &m);
        assert!(re_std < re_out);
        assert!(re_std.is_finite() && re_std >= 0.0);
        // Degenerate empty DAG stays finite.
        assert!(relative_entropy_atoms(&dag_of(""), &m).is_finite());
    }

    #[test]
    fn unseen_edges_are_smoothed_not_infinite() {
        let m = corpus_model();
        let weird = dag_of("import pandas as pd\nz = pd.read_csv('other.csv')\nz2 = z.head(1)\n");
        let re = relative_entropy(&weird, &m);
        assert!(re.is_finite());
        assert!(re > 0.5);
    }
}
