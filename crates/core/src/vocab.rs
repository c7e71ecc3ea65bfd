//! Offline phase: vocabularies and the corpus distribution (Section 5.1).
//!
//! Every corpus atom gets a dense `u32` ID — its rank in lexicographic
//! order of atom text — and the per-atom and per-edge statistics the
//! search reads per candidate are ID-indexed tables, so scoring and
//! enumeration never hash or copy atom text per edge. DESIGN.md §18
//! explains the ID scheme and why it keeps RE bit-identical to the
//! string-keyed definition (which survives in [`crate::oracle`]).

use crate::dag::{self, ScriptDag};
use crate::error::{CoreError, Result};
use crate::lemma::lemmatize;
use lucid_pyast::Module;
use std::cmp::Reverse;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A cheap handle to an atom: its dense ID in the [`CorpusModel`] that
/// minted it (`None` for hand-built atoms outside any corpus) plus its
/// shared text. Cloning bumps a reference count; no text is copied. The
/// ID is only meaningful against the model that minted the handle, so
/// equality and hashing go by text alone: the ID is a cache of the text.
#[derive(Debug, Clone)]
pub struct Atom {
    /// Dense corpus ID, when the atom came from a corpus model.
    pub id: Option<u32>,
    /// The atom key (printable statement source).
    pub text: Arc<str>,
}

impl Atom {
    /// A handle for arbitrary atom text, not tied to any corpus.
    pub fn new(text: &str) -> Atom {
        Atom {
            id: None,
            text: Arc::from(text),
        }
    }

    /// The atom text.
    pub fn as_str(&self) -> &str {
        &self.text
    }
}

impl PartialEq for Atom {
    fn eq(&self, other: &Atom) -> bool {
        Arc::ptr_eq(&self.text, &other.text) || self.text == other.text
    }
}

impl Eq for Atom {}

impl Hash for Atom {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.text.hash(state);
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

/// Position of an atom in lexicographic text order relative to a corpus
/// model, as an integer wherever possible. A corpus atom with ID `r` gets
/// `rank = 2r + 1`; an atom the corpus never saw gets `rank = 2b`, where
/// `b` is the number of corpus atoms below it, and keeps its text as the
/// tiebreak among unseen atoms that fall between the same two corpus
/// atoms. Ordering keys therefore orders atoms exactly as their texts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct OrderKey<'a> {
    rank: u32,
    /// Empty for corpus atoms, so comparing two of them never reads text.
    unseen: &'a str,
}

impl OrderKey<'_> {
    /// The corpus ID, for an atom the corpus contains.
    pub fn id(&self) -> Option<u32> {
        (self.rank % 2 == 1).then_some(self.rank / 2)
    }
}

/// The corpus model built offline: `V_A`, `V_E'`, `Q(x)`, and placement
/// statistics used to configure add transformations, as ID-indexed
/// tables.
#[derive(Debug, Clone)]
pub struct CorpusModel {
    /// Atom vocabulary `V_A` in lexicographic order; an atom's ID is its
    /// index.
    atoms: Vec<Arc<str>>,
    /// Atom text → ID.
    ids: HashMap<Arc<str>, u32>,
    /// Corpus occurrences per atom ID.
    atom_counts: Vec<usize>,
    /// Mean relative position per atom ID.
    rel_pos: Vec<f64>,
    /// Edge vocabulary `V_E'` in CSR form: the out-edges of atom `a` sit
    /// at `edge_start[a]..edge_start[a + 1]` of `edge_to` (ascending
    /// target ID) and `edge_n` (corpus counts).
    edge_start: Vec<usize>,
    edge_to: Vec<u32>,
    edge_n: Vec<usize>,
    /// Successors per atom, same offsets as the edge table, most popular
    /// first with ties broken by text. This drives add-transformation
    /// placement ("a′ may follow a when edge (a, a′) ∈ V_E'", Section 5.2).
    successors: Vec<u32>,
    /// Atom IDs by corpus count (descending, ties by text): the
    /// positional-add ranking.
    by_count: Vec<u32>,
    /// Mean relative position (0 = first line, 1 = last line) per atom in
    /// corpus scripts — the n-gram placement statistic. Keys share the
    /// vocabulary's text.
    pub mean_rel_pos: HashMap<Arc<str>, f64>,
    /// 1-gram (invocation-level) vocabulary with counts.
    pub unigram_counts: HashMap<String, usize>,
    /// Number of corpus scripts.
    pub n_scripts: usize,
    /// Total edge occurrences across the corpus.
    pub total_edges: usize,
}

impl CorpusModel {
    /// Builds the model from already-parsed corpus modules. Scripts are
    /// lemmatized here, so callers can pass raw parses.
    ///
    /// # Errors
    ///
    /// Fails on an empty corpus.
    pub fn build(corpus: &[Module]) -> Result<CorpusModel> {
        if corpus.is_empty() {
            return Err(CoreError::EmptyCorpus);
        }
        // Statistics are gathered under first-seen indices, then re-keyed
        // by text rank once every atom is known.
        let mut first_seen: HashMap<Arc<str>, usize> = HashMap::new();
        let mut texts: Vec<Arc<str>> = Vec::new();
        let mut counts: Vec<usize> = Vec::new();
        let mut pos_sum: Vec<f64> = Vec::new();
        let mut edge_counts: HashMap<(usize, usize), usize> = HashMap::new();
        let mut unigram_counts = HashMap::new();
        let mut total_edges = 0usize;

        for module in corpus {
            let lem = lemmatize(module);
            let d = dag::build_dag(&lem);
            let n = d.atoms.len().max(1);
            let local: Vec<usize> = d
                .atoms
                .iter()
                .enumerate()
                .map(|(i, a)| {
                    let idx = *first_seen.entry(Arc::clone(a)).or_insert_with(|| {
                        texts.push(Arc::clone(a));
                        counts.push(0);
                        pos_sum.push(0.0);
                        texts.len() - 1
                    });
                    counts[idx] += 1;
                    pos_sum[idx] += i as f64 / n as f64;
                    idx
                })
                .collect();
            for stmt in &lem.stmts {
                for u in dag::stmt_unigrams(stmt) {
                    *unigram_counts.entry(u).or_insert(0) += 1;
                }
            }
            for &(i, j) in &d.edge_positions {
                *edge_counts.entry((local[i], local[j])).or_insert(0) += 1;
                total_edges += 1;
            }
        }

        // Order keys are `2·ID + 1`, so IDs must fit in 31 bits.
        assert!(texts.len() < 1 << 31, "corpus vocabulary exceeds 2^31 atoms");
        let mut order: Vec<usize> = (0..texts.len()).collect();
        order.sort_unstable_by(|&a, &b| texts[a].cmp(&texts[b]));
        let mut id_of = vec![0u32; texts.len()];
        for (id, &idx) in order.iter().enumerate() {
            id_of[idx] = id as u32;
        }
        let atoms: Vec<Arc<str>> = order.iter().map(|&i| Arc::clone(&texts[i])).collect();
        let atom_counts: Vec<usize> = order.iter().map(|&i| counts[i]).collect();
        let rel_pos: Vec<f64> = order
            .iter()
            .map(|&i| pos_sum[i] / counts[i] as f64)
            .collect();

        let mut edges: Vec<(u32, u32, usize)> = edge_counts
            .into_iter()
            .map(|((a, b), c)| (id_of[a], id_of[b], c))
            .collect();
        edges.sort_unstable();
        let mut edge_start = vec![0usize; atoms.len() + 1];
        for &(from, _, _) in &edges {
            edge_start[from as usize + 1] += 1;
        }
        for i in 0..atoms.len() {
            edge_start[i + 1] += edge_start[i];
        }
        let edge_to: Vec<u32> = edges.iter().map(|e| e.1).collect();
        let edge_n: Vec<usize> = edges.iter().map(|e| e.2).collect();
        let mut successors = Vec::with_capacity(edge_to.len());
        for a in 0..atoms.len() {
            // Popular successors first; ties broken lexically (IDs are
            // text ranks) for determinism.
            let mut out: Vec<(Reverse<usize>, u32)> = (edge_start[a]..edge_start[a + 1])
                .map(|k| (Reverse(edge_n[k]), edge_to[k]))
                .collect();
            out.sort_unstable();
            successors.extend(out.into_iter().map(|(_, to)| to));
        }
        let mut by_count: Vec<u32> = (0..atoms.len() as u32).collect();
        by_count.sort_by_key(|&id| (Reverse(atom_counts[id as usize]), id));
        let ids = atoms
            .iter()
            .enumerate()
            .map(|(id, a)| (Arc::clone(a), id as u32))
            .collect();
        let mean_rel_pos = atoms
            .iter()
            .zip(&rel_pos)
            .map(|(a, &p)| (Arc::clone(a), p))
            .collect();

        Ok(CorpusModel {
            atoms,
            ids,
            atom_counts,
            rel_pos,
            edge_start,
            edge_to,
            edge_n,
            successors,
            by_count,
            mean_rel_pos,
            unigram_counts,
            n_scripts: corpus.len(),
            total_edges,
        })
    }

    /// Parses and builds from raw sources.
    ///
    /// # Errors
    ///
    /// [`CoreError::CorpusParse`] naming the first source that does not
    /// parse, and the empty-corpus check.
    pub fn build_from_sources(sources: &[impl AsRef<str>]) -> Result<CorpusModel> {
        let modules: Vec<Module> = sources
            .iter()
            .enumerate()
            .map(|(index, s)| {
                lucid_pyast::parse_module(s.as_ref())
                    .map_err(|error| CoreError::CorpusParse { index, error })
            })
            .collect::<Result<_>>()?;
        Self::build(&modules)
    }

    /// Builds a *vote-weighted* model (§8: "scripts authored by domain
    /// experts could be weighted differently, e.g. using the vote counts
    /// of Kaggle scripts"): each script contributes to the vocabularies
    /// with integer multiplicity `weight`. `n_scripts` stays the number of
    /// distinct scripts so prevalence remains a fraction of scripts, while
    /// `Q(x)` shifts toward highly-voted practice.
    ///
    /// # Errors
    ///
    /// [`CoreError::CorpusParse`] naming the first weighted source that
    /// does not parse; fails on an empty or all-zero-weight corpus.
    pub fn build_weighted(sources: &[(impl AsRef<str>, usize)]) -> Result<CorpusModel> {
        let mut replicated: Vec<Module> = Vec::new();
        let mut distinct = 0usize;
        for (index, (src, weight)) in sources.iter().enumerate() {
            if *weight == 0 {
                continue;
            }
            let module = lucid_pyast::parse_module(src.as_ref())
                .map_err(|error| CoreError::CorpusParse { index, error })?;
            distinct += 1;
            for _ in 0..*weight {
                replicated.push(module.clone());
            }
        }
        let mut model = Self::build(&replicated)?;
        // Report distinct scripts, and rescale per-script atom counts so
        // prevalence stays within [0, 1] semantics on average.
        model.n_scripts = distinct;
        Ok(model)
    }

    /// Number of distinct edges (paper's "uniq. edges", Table 3).
    pub fn n_unique_edges(&self) -> usize {
        self.edge_to.len()
    }

    /// Number of distinct line-level atoms (paper's "uniq. n-grams").
    pub fn n_unique_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Number of distinct invocation-level atoms (paper's "uniq. 1-grams").
    pub fn n_unique_unigrams(&self) -> usize {
        self.unigram_counts.len()
    }

    /// The atom vocabulary in ID order (lexicographic by text).
    pub fn atoms(&self) -> &[Arc<str>] {
        &self.atoms
    }

    /// ID of a corpus atom.
    pub fn atom_id(&self, atom: &str) -> Option<u32> {
        self.ids.get(atom).copied()
    }

    /// The shared handle for the atom with ID `id`.
    pub fn handle(&self, id: u32) -> Atom {
        Atom {
            id: Some(id),
            text: Arc::clone(&self.atoms[id as usize]),
        }
    }

    /// The lexicographic [`OrderKey`] of any atom text.
    pub fn order_key<'a>(&self, atom: &'a str) -> OrderKey<'a> {
        match self.atom_id(atom) {
            Some(id) => OrderKey {
                rank: 2 * id + 1,
                unseen: "",
            },
            None => OrderKey {
                rank: 2 * self.atoms.partition_point(|a| **a < *atom) as u32,
                unseen: atom,
            },
        }
    }

    /// Corpus occurrences of an atom (0 if unseen).
    pub fn atom_count(&self, atom: &str) -> usize {
        self.atom_id(atom).map_or(0, |id| self.atom_count_by_id(id))
    }

    /// Corpus occurrences of the atom with ID `id`.
    pub fn atom_count_by_id(&self, id: u32) -> usize {
        self.atom_counts[id as usize]
    }

    /// Total atom occurrences across the corpus.
    pub fn total_atoms(&self) -> usize {
        self.atom_counts.iter().sum()
    }

    /// Corpus count of the edge `(from, to)` between two atom IDs.
    pub fn edge_count(&self, from: u32, to: u32) -> usize {
        let (lo, hi) = (self.edge_start[from as usize], self.edge_start[from as usize + 1]);
        self.edge_to[lo..hi]
            .binary_search(&to)
            .map_or(0, |k| self.edge_n[lo + k])
    }

    /// Every corpus edge as `(from, to, count)` in ID order.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, usize)> + '_ {
        (0..self.atoms.len()).flat_map(move |from| {
            (self.edge_start[from]..self.edge_start[from + 1])
                .map(move |k| (from as u32, self.edge_to[k], self.edge_n[k]))
        })
    }

    /// Successor IDs of an atom, most popular first.
    pub fn successors(&self, id: u32) -> &[u32] {
        &self.successors[self.edge_start[id as usize]..self.edge_start[id as usize + 1]]
    }

    /// Atom IDs by corpus count, descending (ties by text).
    pub fn by_count(&self) -> &[u32] {
        &self.by_count
    }

    /// Corpus probability of an edge seen `count` times, with add-one
    /// smoothing over an augmented space of `extra` unseen edges (see
    /// `entropy`).
    pub fn q(&self, count: usize, extra: usize) -> f64 {
        let space = self.n_unique_edges() + extra;
        (count as f64 + 1.0) / (self.total_edges as f64 + space as f64)
    }

    /// Fraction of corpus scripts containing the given atom.
    pub fn atom_prevalence(&self, atom: &str) -> f64 {
        self.atom_count(atom) as f64 / self.n_scripts as f64
    }

    /// Mean relative position of the atom with ID `id`.
    pub fn rel_pos(&self, id: u32) -> f64 {
        self.rel_pos[id as usize]
    }

    /// DAG of one script, lemmatized with this model's conventions.
    pub fn dag_of(&self, module: &Module) -> ScriptDag {
        dag::build_dag(&lemmatize(module))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucid_pyast::parse_module;

    fn id(m: &CorpusModel, atom: &str) -> u32 {
        m.atom_id(atom).unwrap_or_else(|| panic!("{atom} not in corpus"))
    }

    fn corpus() -> Vec<Module> {
        [
            "import pandas as pd\ndf = pd.read_csv('t.csv')\ndf = df.fillna(df.mean())\ndf = pd.get_dummies(df)\n",
            "import pandas as pd\ndf = pd.read_csv('t.csv')\ndf = df.fillna(df.mean())\ndf = df[df['x'] < 80]\ndf = pd.get_dummies(df)\n",
            "import pandas as pd\ntrain = pd.read_csv('t.csv')\ntrain = train.dropna()\ntrain = pd.get_dummies(train)\n",
        ]
        .iter()
        .map(|s| parse_module(s).unwrap())
        .collect()
    }

    #[test]
    fn builds_vocabularies_after_lemmatization() {
        let m = CorpusModel::build(&corpus()).unwrap();
        // `train` was lemmatized to `df`, so the read_csv atom is shared.
        assert_eq!(m.atom_count("df = pd.read_csv('t.csv')"), 3);
        assert_eq!(m.atom_count("df = df.fillna(df.mean())"), 2);
        assert_eq!(m.atom_count("df = df.dropna()"), 1);
        assert_eq!(m.atom_count("df = df.head(3)"), 0);
        assert_eq!(m.n_scripts, 3);
    }

    #[test]
    fn edge_counts_reflect_dataflow() {
        let m = CorpusModel::build(&corpus()).unwrap();
        let (from, to) = (id(&m, "df = pd.read_csv('t.csv')"), id(&m, "df = df.fillna(df.mean())"));
        assert_eq!(m.edge_count(from, to), 2);
        assert_eq!(m.edge_count(to, from), 0);
        assert!(m.total_edges >= 9);
        assert_eq!(m.edges().map(|(_, _, c)| c).sum::<usize>(), m.total_edges);
    }

    #[test]
    fn successors_sorted_by_popularity() {
        let m = CorpusModel::build(&corpus()).unwrap();
        let from = id(&m, "df = pd.read_csv('t.csv')");
        let succ = m.successors(from);
        assert_eq!(&*m.atoms()[succ[0] as usize], "df = df.fillna(df.mean())");
        assert_eq!(m.edge_count(from, succ[0]), 2);
        // Ties (count 1) follow text order, which is ID order.
        assert!(succ[1..].windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn q_smoothing_handles_unseen_edges() {
        let m = CorpusModel::build(&corpus()).unwrap();
        let q = m.q(0, 1);
        assert!(q > 0.0 && q < 0.2);
        let seen = m.edge_count(
            id(&m, "df = pd.read_csv('t.csv')"),
            id(&m, "df = df.fillna(df.mean())"),
        );
        assert!(m.q(seen, 1) > q);
    }

    #[test]
    fn prevalence_and_positions() {
        let m = CorpusModel::build(&corpus()).unwrap();
        assert!((m.atom_prevalence("df = pd.read_csv('t.csv')") - 1.0).abs() < 1e-12);
        assert!((m.atom_prevalence("df = df.dropna()") - 1.0 / 3.0).abs() < 1e-12);
        // read_csv sits early in scripts; get_dummies late.
        assert!(
            m.mean_rel_pos["df = pd.read_csv('t.csv')"]
                < m.mean_rel_pos["df = pd.get_dummies(df)"]
        );
    }

    #[test]
    fn empty_corpus_errors() {
        assert!(matches!(
            CorpusModel::build(&[]),
            Err(CoreError::EmptyCorpus)
        ));
    }

    #[test]
    fn build_from_sources_parses() {
        let m = CorpusModel::build_from_sources(&["import pandas as pd\n"]).unwrap();
        assert_eq!(m.n_scripts, 1);
        let err = CorpusModel::build_from_sources(&["import pandas as pd\n", "df = ("]).unwrap_err();
        assert!(matches!(err, CoreError::CorpusParse { index: 1, .. }), "{err:?}");
    }

    #[test]
    fn weighted_model_shifts_q_toward_votes() {
        let popular = "import pandas as pd\ndf = pd.read_csv('t.csv')\ndf = df.fillna(df.mean())\n";
        let unusual = "import pandas as pd\ndf = pd.read_csv('t.csv')\ndf = df.head(3)\n";
        let weighted =
            CorpusModel::build_weighted(&[(popular, 9usize), (unusual, 1usize)]).unwrap();
        let flat = CorpusModel::build_from_sources(&[popular, unusual]).unwrap();
        assert_eq!(weighted.n_scripts, 2);
        let q = |m: &CorpusModel| {
            let (from, to) = (id(m, "df = pd.read_csv('t.csv')"), id(m, "df = df.fillna(df.mean())"));
            m.q(m.edge_count(from, to), 0)
        };
        // Q mass on the highly-voted edge grows under vote weighting.
        assert!(q(&weighted) > q(&flat));
        // Zero-weight scripts are dropped entirely.
        let only = CorpusModel::build_weighted(&[(popular, 1usize), (unusual, 0usize)]).unwrap();
        assert_eq!(only.n_scripts, 1);
        assert!(only.atom_id("df = df.head(3)").is_none());
        // All-zero weights behave like an empty corpus.
        assert!(CorpusModel::build_weighted(&[(popular, 0usize)]).is_err());
    }

    #[test]
    fn table3_statistics_accessors() {
        let m = CorpusModel::build(&corpus()).unwrap();
        assert!(m.n_unique_atoms() >= 5);
        assert!(m.n_unique_edges() >= 5);
        assert!(m.n_unique_unigrams() >= 4);
    }

    #[test]
    fn ids_follow_text_order_and_index_every_table() {
        let m = CorpusModel::build(&corpus()).unwrap();
        assert!(m.atoms().windows(2).all(|w| w[0] < w[1]));
        for (id, text) in m.atoms().iter().enumerate() {
            assert_eq!(m.atom_id(text), Some(id as u32));
            assert_eq!(m.handle(id as u32).as_str(), &**text);
            assert_eq!(m.rel_pos(id as u32).to_bits(), m.mean_rel_pos[text].to_bits());
            assert_eq!(m.atom_count_by_id(id as u32), m.atom_count(text));
        }
        // The positional ranking is count-descending, ties by text.
        let counts: Vec<usize> = m.by_count().iter().map(|&id| m.atom_count(&m.atoms()[id as usize])).collect();
        assert!(counts.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(m.by_count().len(), m.n_unique_atoms());
    }

    #[test]
    fn handles_compare_by_text_whatever_minted_them() {
        use crate::transform::{TransformKind, Transformation};
        use std::collections::hash_map::DefaultHasher;
        let hash = |t: &Transformation| {
            let mut h = DefaultHasher::new();
            t.hash(&mut h);
            h.finish()
        };
        let m = CorpusModel::build(&corpus()).unwrap();
        let small = CorpusModel::build_from_sources(&[
            "import pandas as pd\ndf = pd.read_csv('t.csv')\ndf = df.abs()\ndf = df.dropna()\n",
        ])
        .unwrap();
        let text = "df = df.dropna()";
        // The same text under three different IDs (none, and one per model).
        assert_ne!(m.atom_id(text), small.atom_id(text));
        let adds = [Atom::new(text), m.handle(id(&m, text)), small.handle(id(&small, text))]
            .map(|atom| Transformation {
                kind: TransformKind::Add { atom },
                line: 2,
            });
        for a in &adds {
            for b in &adds {
                assert_eq!(a, b);
                assert_eq!(hash(a), hash(b));
            }
        }
        assert_ne!(Atom::new("df = df.head(3)"), m.handle(id(&m, text)));
    }

    #[test]
    fn order_keys_order_atoms_like_their_text() {
        let m = CorpusModel::build(&corpus()).unwrap();
        // Two unseen atoms between the same pair of corpus atoms share a
        // rank and fall back to their text; corpus atoms never read text.
        let probes = [
            "df = df.dropna()",
            "df = df.dropna(axis=0)",
            "df = df.dropna(axis=1)",
            "df = df.fillna(df.mean())",
            "a = 1",
            "zzz = 1",
            "df = pd.read_csv('t.csv')",
        ];
        for a in probes {
            for b in probes {
                assert_eq!(m.order_key(a).cmp(&m.order_key(b)), a.cmp(b), "{a} vs {b}");
            }
        }
        assert_eq!(m.order_key("df = df.dropna()").id(), m.atom_id("df = df.dropna()"));
        assert_eq!(m.order_key("df = df.dropna(axis=0)").id(), None);
        assert_eq!(
            m.order_key("df = df.dropna(axis=0)").rank,
            m.order_key("df = df.dropna(axis=1)").rank
        );
    }

    #[test]
    fn unigrams_are_counted_per_statement() {
        let m = CorpusModel::build(&corpus()).unwrap();
        // `pd.read_csv('t.csv')` is one 1-gram in each of the 3 scripts.
        assert_eq!(m.unigram_counts["pd.read_csv('t.csv')"], 3);
        assert_eq!(m.unigram_counts["df['x'] < 80"], 1);
        assert_eq!(m.unigram_counts["df['x']"], 1);
        assert!(!m.unigram_counts.contains_key("df"));
    }
}
