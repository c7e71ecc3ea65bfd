//! Add/delete transformations over script DAGs (Definition 3.4 and the
//! "Configuring Transformations" part of Section 5.2).

use crate::dag::ScriptDag;
use crate::error::{CoreError, Result};
use crate::ir::{Program, StmtInterner};
use crate::vocab::{Atom, CorpusModel};
use std::collections::HashSet;

/// What a transformation does.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TransformKind {
    /// Insert a corpus atom (a lemmatized statement) into the script.
    Add {
        /// Handle to the atom (printable statement source) to insert.
        atom: Atom,
    },
    /// Remove the statement at the transformation's line.
    Delete,
}

/// A transformation: type + what + where (Definition 3.4's
/// `f(type, a, {e'}, lineno)` — the edges are implied by the insertion
/// point, since data-flow edges are recomputed from the statement list).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Transformation {
    /// The operation.
    pub kind: TransformKind,
    /// Statement position: for `Delete`, the statement to remove; for
    /// `Add`, the position to insert *at* (existing statement moves down).
    pub line: usize,
}

impl Transformation {
    /// A human-readable one-line description.
    pub fn describe(&self) -> String {
        match &self.kind {
            TransformKind::Add { atom } => format!("+ line {}: {atom}", self.line + 1),
            TransformKind::Delete => format!("- line {}", self.line + 1),
        }
    }

    /// Applies the transformation to an interned [`Program`] as an
    /// O(edit) splice of shared-statement pointers; the module-cloning
    /// [`crate::oracle::apply`] stays as its test oracle.
    ///
    /// # Errors
    ///
    /// Fails if the line is out of range or an `Add` atom fails to parse
    /// (corpus atoms always parse; hand-built transformations might not).
    pub fn apply_ir(&self, program: &Program, interner: &StmtInterner) -> Result<Program> {
        match &self.kind {
            TransformKind::Delete => {
                if self.line >= program.len() {
                    return Err(CoreError::BadConfig(format!(
                        "delete at line {} of a {}-statement script",
                        self.line + 1,
                        program.len()
                    )));
                }
                Ok(program.with_removed(self.line))
            }
            TransformKind::Add { atom } => {
                if self.line > program.len() {
                    return Err(CoreError::BadConfig(format!(
                        "insert at line {} of a {}-statement script",
                        self.line + 1,
                        program.len()
                    )));
                }
                let info = interner.intern_atom(atom.as_str())?;
                Ok(program.with_inserted(self.line, info))
            }
        }
    }

    /// The smallest line index still editable after this transformation,
    /// under the paper's monotonicity rule (Section 5.2, item 3): a
    /// sequence may never go back and edit an earlier portion. `old` is
    /// the candidate's cursor before this transformation.
    ///
    /// The cursor constrains **adds** only. The rule's purpose is that a
    /// script which became non-executable can never be repaired by later
    /// transformations; with early checking, every beam candidate is
    /// executable, and a *delete* before the cursor cannot resurrect a
    /// dead script — it only lets the search remove earlier anomalous
    /// steps (e.g. a multi-line leakage block, §6.6) after later
    /// insertions. DESIGN.md §6 records this refinement.
    pub fn next_cursor(&self, old: usize) -> usize {
        match self.kind {
            // Deletes do not anchor anything; a delete before the cursor
            // shifts the protected region up by one line.
            TransformKind::Delete => {
                if self.line < old {
                    old.saturating_sub(1)
                } else {
                    old
                }
            }
            // After inserting at l ≥ cursor, the inserted statement sits
            // at l; inserting before the cursor (imports) shifts it down.
            TransformKind::Add { .. } => {
                if self.line < old {
                    old + 1
                } else {
                    self.line
                }
            }
        }
    }
}

/// Tunables for transformation enumeration.
#[derive(Debug, Clone)]
pub struct EnumOptions {
    /// Max successor candidates considered per existing atom.
    pub max_successors_per_atom: usize,
    /// Max position-based (n-gram) candidates from the global vocabulary.
    pub max_positional_atoms: usize,
}

impl Default for EnumOptions {
    fn default() -> Self {
        EnumOptions {
            max_successors_per_atom: 24,
            max_positional_atoms: 32,
        }
    }
}

/// The kept list of [`enumerate`]: the candidate transformations alone.
pub fn enumerate_transformations(
    dag: &ScriptDag,
    corpus: &CorpusModel,
    cursor: usize,
    opts: &EnumOptions,
) -> Vec<Transformation> {
    enumerate(dag, corpus, cursor, opts).kept
}

/// One enumeration pass: the candidates, and what the cursor refused.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Enumerated {
    /// Candidate transformations, in enumeration order, duplicate-free.
    pub kept: Vec<Transformation>,
    /// Edge-driven adds refused because their insertion point fell below
    /// the monotonicity cursor, in enumeration order, one entry per
    /// refusal (duplicates included). Position-driven adds clamp to the
    /// cursor instead of being refused, so they never appear here.
    pub pruned: Vec<Transformation>,
}

/// Enumerates candidate transformations for a (lemmatized) script, honoring
/// the monotonicity cursor: only positions ≥ `cursor` are produced.
///
/// * **Delete**: every deletable statement (imports and `read_csv` loads
///   are skipped — removing them can never produce an executable script
///   that still reads `D_IN`).
/// * **Add via edges (1-gram placement)**: for every atom `a` in the
///   script, each corpus successor `a'` with `(a, a') ∈ V_E'` may be
///   inserted right after `a`.
/// * **Add via relative position (n-gram placement)**: corpus atoms not
///   yet in the script may be inserted at their corpus-typical relative
///   position.
pub fn enumerate(
    dag: &ScriptDag,
    corpus: &CorpusModel,
    cursor: usize,
    opts: &EnumOptions,
) -> Enumerated {
    let mut pruned: Vec<Transformation> = Vec::new();
    let n = dag.atoms.len();
    let mut out = Vec::new();
    let add = |id: u32, line: usize| Transformation {
        kind: TransformKind::Add {
            atom: corpus.handle(id),
        },
        line,
    };
    // Only adds can repeat (deletes are one per line): dedup on
    // (atom ID, line).
    let mut seen: HashSet<(u32, usize)> = HashSet::new();
    let mut push_add = |id: u32, line: usize, out: &mut Vec<Transformation>| {
        if seen.insert((id, line)) {
            out.push(add(id, line));
        }
    };

    // Deletes — exempt from the cursor (see `Transformation::next_cursor`).
    for (i, atom) in dag.atoms.iter().enumerate() {
        if !is_protected(atom) {
            out.push(Transformation {
                kind: TransformKind::Delete,
                line: i,
            });
        }
    }

    // Script atoms keyed once; atoms the corpus never saw have no
    // successors and can never be proposed.
    let ids: Vec<Option<u32>> = dag.atoms.iter().map(|a| corpus.atom_id(a)).collect();
    let mut present: Vec<u32> = ids.iter().flatten().copied().collect();
    present.sort_unstable();
    let is_present = |id: u32| present.binary_search(&id).is_ok();
    // End of the import block: imports are always inserted there.
    let import_end = dag.atoms.iter().take_while(|a| is_import(a)).count();

    // Edge-driven adds.
    for (i, id) in ids.iter().enumerate() {
        let Some(id) = *id else {
            continue;
        };
        let insert_at = i + 1;
        for &next in corpus.successors(id).iter().take(opts.max_successors_per_atom) {
            // A preparation step never usefully repeats verbatim — and a
            // repeated `read_csv` would silently reset all prior work —
            // so atoms already present anywhere are not re-added.
            if is_present(next) {
                continue;
            }
            let line = if is_import(&corpus.atoms()[next as usize]) {
                import_end
            } else if insert_at < cursor {
                pruned.push(add(next, insert_at));
                continue;
            } else {
                insert_at
            };
            push_add(next, line, &mut out);
        }
    }

    // Position-driven adds for atoms missing from the script, most
    // frequent corpus atoms first.
    for &id in corpus.by_count().iter().take(opts.max_positional_atoms) {
        let atom = &corpus.atoms()[id as usize];
        // `read_csv` loads are never re-proposed; imports are fine (they
        // pin to the import block).
        if is_present(id) || atom.contains("read_csv(") {
            continue;
        }
        let line = if is_import(atom) {
            import_end
        } else {
            ((corpus.rel_pos(id) * n as f64).round() as usize).clamp(cursor.min(n), n)
        };
        push_add(id, line, &mut out);
    }

    Enumerated { kept: out, pruned }
}

/// Atoms the search never deletes: imports and `read_csv` loads (their
/// removal always kills executability or disconnects the script from
/// `D_IN`; pruning them here saves the execution check the paper's
/// monotonic search would spend discovering the same thing).
pub(crate) fn is_protected(atom: &str) -> bool {
    is_import(atom) || atom.contains("read_csv(")
}

/// Whether an atom is an import statement.
pub(crate) fn is_import(atom: &str) -> bool {
    atom.starts_with("import ") || atom.starts_with("from ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::apply;
    use crate::vocab::CorpusModel;
    use lucid_pyast::{print_module, Module};

    const SU: &str = "\
import pandas as pd
df = pd.read_csv('t.csv')
df = df.fillna(df.median())
df = pd.get_dummies(df)
";

    fn setup() -> (Module, ScriptDag, CorpusModel) {
        let corpus = CorpusModel::build_from_sources(&[
            "import pandas as pd\ndf = pd.read_csv('t.csv')\ndf = df.fillna(df.mean())\ndf = pd.get_dummies(df)\n",
            "import pandas as pd\ndf = pd.read_csv('t.csv')\ndf = df.fillna(df.mean())\ndf = df[df['x'] < 80]\ndf = pd.get_dummies(df)\n",
        ])
        .unwrap();
        let module = crate::lemma::lemmatize(&parse_module(SU).unwrap());
        let dag = crate::dag::build_dag(&module);
        (module, dag, corpus)
    }

    /// Kept and pruned lists, as `describe()` strings.
    fn described(e: &Enumerated) -> (Vec<String>, Vec<String>) {
        let d = |ts: &[Transformation]| ts.iter().map(Transformation::describe).collect();
        (d(&e.kept), d(&e.pruned))
    }

    #[test]
    fn enumeration_reports_cursor_pruning() {
        let (_, dag, corpus) = setup();
        let opts = EnumOptions::default();
        let open = enumerate(&dag, &corpus, 0, &opts);
        assert!(open.pruned.is_empty());
        // A cursor past the whole script prunes every edge-driven add that
        // the open cursor produced below it.
        let cursor = dag.atoms.len() + 1;
        let clamped = enumerate(&dag, &corpus, cursor, &opts);
        assert!(!clamped.pruned.is_empty());
        // Pruned edge-driven adds may re-enter through positional
        // placement (clamped to the cursor), so the list can only shrink
        // or stay the same size — never grow.
        assert!(clamped.kept.len() <= open.kept.len());
        // The kept-only projection returns the same list.
        assert_eq!(
            enumerate_transformations(&dag, &corpus, cursor, &opts),
            clamped.kept
        );
        for t in &clamped.pruned {
            assert!(matches!(t.kind, TransformKind::Add { .. }), "{t:?}");
            assert!(t.line < cursor, "{t:?}");
        }
    }

    #[test]
    fn enumeration_matches_the_string_oracle_kept_and_pruned() {
        let (_, dag, corpus) = setup();
        let opts = EnumOptions::default();
        for cursor in 0..=dag.atoms.len() + 1 {
            let got = enumerate(&dag, &corpus, cursor, &opts);
            let want = crate::oracle::enumerate(&dag, &corpus, cursor, &opts);
            assert_eq!(described(&got), described(&want), "cursor {cursor}");
            assert_eq!(got, want, "cursor {cursor}");
        }
    }

    #[test]
    fn apply_delete_removes_line() {
        let (module, ..) = setup();
        let t = Transformation {
            kind: TransformKind::Delete,
            line: 2,
        };
        let out = apply(&t, &module).unwrap();
        assert_eq!(out.stmts.len(), 3);
        assert!(!print_module(&out).contains("median"));
        // Out-of-range delete errors.
        let t = Transformation {
            kind: TransformKind::Delete,
            line: 99,
        };
        assert!(apply(&t, &module).is_err());
    }

    #[test]
    fn apply_add_inserts_line_and_renumbers() {
        let (module, ..) = setup();
        let t = Transformation {
            kind: TransformKind::Add {
                atom: Atom::new("df = df.dropna()"),
            },
            line: 2,
        };
        let out = apply(&t, &module).unwrap();
        assert_eq!(out.stmts.len(), 5);
        assert_eq!(lucid_pyast::print_stmt(&out.stmts[2]), "df = df.dropna()");
        for (i, s) in out.stmts.iter().enumerate() {
            assert_eq!(s.span().line as usize, i + 1);
        }
    }

    #[test]
    fn add_at_end_is_allowed() {
        let (module, ..) = setup();
        let t = Transformation {
            kind: TransformKind::Add {
                atom: Atom::new("y = df['Outcome']"),
            },
            line: 4,
        };
        assert_eq!(apply(&t, &module).unwrap().stmts.len(), 5);
        let t = Transformation {
            kind: TransformKind::Add {
                atom: Atom::new("y = 1"),
            },
            line: 6,
        };
        assert!(apply(&t, &module).is_err());
    }

    #[test]
    fn unparsable_atom_errors() {
        let (module, ..) = setup();
        let t = Transformation {
            kind: TransformKind::Add {
                atom: Atom::new("df = ("),
            },
            line: 1,
        };
        assert!(apply(&t, &module).is_err());
    }

    #[test]
    fn enumeration_respects_cursor_and_protection() {
        let (_, dag, corpus) = setup();
        let all = enumerate_transformations(&dag, &corpus, 0, &EnumOptions::default());
        // No deletes of imports/read_csv.
        for t in &all {
            if t.kind == TransformKind::Delete {
                assert!(t.line >= 2, "protected line deleted: {t:?}");
            }
        }
        // The cursor prunes earlier *non-import adds*; deletes and import
        // adds remain available.
        let late = enumerate_transformations(&dag, &corpus, 3, &EnumOptions::default());
        for t in &late {
            match &t.kind {
                TransformKind::Add { atom }
                    if !is_import(atom.as_str()) =>
                {
                    assert!(t.line >= 3, "cursor violated: {t:?}");
                }
                _ => {}
            }
        }
        assert!(late.len() <= all.len());
    }

    #[test]
    fn enumeration_proposes_corpus_successors() {
        let (_, dag, corpus) = setup();
        let all = enumerate_transformations(&dag, &corpus, 0, &EnumOptions::default());
        let has_mean_impute = all.iter().any(|t| {
            matches!(&t.kind, TransformKind::Add { atom } if atom.as_str() == "df = df.fillna(df.mean())")
        });
        assert!(has_mean_impute, "corpus edge successor not proposed");
        let has_outlier_filter = all.iter().any(|t| {
            matches!(&t.kind, TransformKind::Add { atom } if atom.as_str().contains("df['x'] < 80"))
        });
        assert!(has_outlier_filter, "positional add not proposed");
    }

    #[test]
    fn enumeration_is_duplicate_free() {
        let (_, dag, corpus) = setup();
        let all = enumerate_transformations(&dag, &corpus, 0, &EnumOptions::default());
        let set: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(set.len(), all.len());
    }

    #[test]
    fn next_cursor_is_monotone() {
        let t = Transformation {
            kind: TransformKind::Delete,
            line: 3,
        };
        // Deletes never advance the cursor; before the cursor they shift
        // the protected region up.
        assert_eq!(t.next_cursor(0), 0);
        assert_eq!(t.next_cursor(5), 4);
        assert_eq!(t.next_cursor(2), 2);
        let t = Transformation {
            kind: TransformKind::Add {
                atom: Atom::new("x = 1"),
            },
            line: 2,
        };
        assert_eq!(t.next_cursor(0), 2);
        // Import-style add before the cursor shifts the region down.
        assert_eq!(t.next_cursor(4), 5);
    }

    #[test]
    fn present_atoms_are_never_re_added() {
        let (_, dag, corpus) = setup();
        let all = enumerate_transformations(&dag, &corpus, 0, &EnumOptions::default());
        for t in &all {
            if let TransformKind::Add { atom } = &t.kind {
                assert!(
                    !dag.atoms.contains(&atom.text),
                    "re-added existing atom: {atom}"
                );
            }
        }
    }

    #[test]
    fn import_adds_pin_to_import_block() {
        let corpus = CorpusModel::build_from_sources(&[
            "import pandas as pd
import numpy as np
df = pd.read_csv('t.csv')
df['x'] = np.log1p(df['y'])
df = pd.get_dummies(df)
";
            3
        ])
        .unwrap();
        let module =
            crate::lemma::lemmatize(&parse_module("import pandas as pd
df = pd.read_csv('t.csv')
df = pd.get_dummies(df)
").unwrap());
        let dag = crate::dag::build_dag(&module);
        let all = enumerate_transformations(&dag, &corpus, 2, &EnumOptions::default());
        let np_import = all
            .iter()
            .find(|t| matches!(&t.kind, TransformKind::Add { atom } if atom.as_str() == "import numpy as np"))
            .expect("numpy import proposed");
        assert_eq!(np_import.line, 1, "import must land in the import block");
    }

    use lucid_pyast::parse_module;
}
