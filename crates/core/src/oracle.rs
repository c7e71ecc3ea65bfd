//! String-keyed reference implementations of the scoring path, kept only
//! as test oracles for the integer-keyed hot path (DESIGN.md §18), plus
//! the module-cloning [`apply`] that checks the interned IR's splice.
//!
//! Here an edge is a pair of atom texts, `V_E'` and the successor lists
//! are string maps rebuilt from the model's public view, RE sums over
//! string-sorted edges, and enumeration dedups whole transformations.
//! `entropy::{relative_entropy, relative_entropy_atoms}` and
//! `transform::enumerate` must agree with these bit for
//! bit and item for item (`tests/properties.rs`); nothing on the search
//! path calls them.

use crate::dag::ScriptDag;
use crate::error::{CoreError, Result};
use crate::transform::{
    is_import, is_protected, EnumOptions, Enumerated, TransformKind, Transformation,
};
use crate::vocab::{Atom, CorpusModel};
use lucid_pyast::{parse_module, Module, Span};
use std::collections::{HashMap, HashSet};

/// An edge key: an ordered pair of atom keys.
pub type EdgeKey = (String, String);

/// A DAG's edges as atom-text pairs (the units counted by `V_E'`).
pub fn edge_keys(dag: &ScriptDag) -> Vec<EdgeKey> {
    dag.edge_positions
        .iter()
        .map(|&(i, j)| (dag.atoms[i].to_string(), dag.atoms[j].to_string()))
        .collect()
}

/// Multiset of a script's edges.
pub fn edge_multiset(dag: &ScriptDag) -> HashMap<EdgeKey, usize> {
    let mut counts = HashMap::new();
    for e in edge_keys(dag) {
        *counts.entry(e).or_insert(0) += 1;
    }
    counts
}

/// The corpus edge vocabulary `V_E'` as a string map.
pub fn corpus_edge_counts(corpus: &CorpusModel) -> HashMap<EdgeKey, usize> {
    let text = |id: u32| corpus.atoms()[id as usize].to_string();
    corpus
        .edges()
        .map(|(from, to, count)| ((text(from), text(to)), count))
        .collect()
}

/// Corpus probability of an edge with add-one smoothing over an
/// augmented space of `extra_space` unseen edges.
pub fn q_smoothed(
    corpus: &CorpusModel,
    corpus_edges: &HashMap<EdgeKey, usize>,
    edge: &EdgeKey,
    extra_space: usize,
) -> f64 {
    let count = corpus_edges.get(edge).copied().unwrap_or(0);
    let space = corpus_edges.len() + extra_space;
    (count as f64 + 1.0) / (corpus.total_edges as f64 + space as f64)
}

/// Relative entropy of a script's edge counts w.r.t. the corpus model.
pub fn relative_entropy_of_counts(
    script_edges: &HashMap<EdgeKey, usize>,
    corpus: &CorpusModel,
) -> f64 {
    let corpus_edges = corpus_edge_counts(corpus);
    let total: usize = script_edges.values().sum();
    // The augmented sample space: corpus edges plus the script's unseen ones.
    let extra = script_edges
        .keys()
        .filter(|e| !corpus_edges.contains_key(*e))
        .count();
    if total == 0 {
        // Defined fallback: divergence of a singleton unseen edge.
        let q = q_smoothed(corpus, &corpus_edges, &(String::new(), String::new()), 1);
        return (1.0 / q).ln();
    }
    // Deterministic summation order: float addition is non-associative,
    // and hash-map iteration order varies between instances.
    let mut terms: Vec<(&EdgeKey, usize)> = script_edges.iter().map(|(e, &c)| (e, c)).collect();
    terms.sort();
    let mut re = 0.0;
    for (edge, count) in terms {
        let p = count as f64 / total as f64;
        let q = q_smoothed(corpus, &corpus_edges, edge, extra);
        re += p * (p / q).ln();
    }
    re.max(0.0)
}

/// String-keyed relative entropy of a DAG.
pub fn relative_entropy(dag: &ScriptDag, corpus: &CorpusModel) -> f64 {
    relative_entropy_of_counts(&edge_multiset(dag), corpus)
}

/// String-keyed relative entropy over the atom vocabulary `V_A` (the
/// ablation objective).
pub fn relative_entropy_atoms(dag: &ScriptDag, corpus: &CorpusModel) -> f64 {
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for a in &dag.atoms {
        *counts.entry(a).or_insert(0) += 1;
    }
    let total: usize = counts.values().sum();
    if total == 0 {
        let q = 1.0 / (corpus.n_unique_atoms() as f64 + 1.0);
        return (1.0 / q).ln();
    }
    let corpus_total: usize = corpus.atoms().iter().map(|a| corpus.atom_count(a)).sum();
    let extra = counts.keys().filter(|a| corpus.atom_count(a) == 0).count();
    let space = corpus.n_unique_atoms() + extra;
    let mut terms: Vec<(&str, usize)> = counts.into_iter().collect();
    terms.sort();
    let mut re = 0.0;
    for (atom, count) in terms {
        let p = count as f64 / total as f64;
        let q = (corpus.atom_count(atom) as f64 + 1.0) / (corpus_total as f64 + space as f64);
        re += p * (p / q).ln();
    }
    re.max(0.0)
}

/// The string-keyed enumerator: the same kept and pruned
/// transformations, in the same order, as `transform::enumerate`. Its
/// adds carry ID-less [`Atom`] handles.
pub fn enumerate(
    dag: &ScriptDag,
    corpus: &CorpusModel,
    cursor: usize,
    opts: &EnumOptions,
) -> Enumerated {
    let mut successors: HashMap<String, Vec<(String, usize)>> = HashMap::new();
    for ((from, to), count) in corpus_edge_counts(corpus) {
        successors.entry(from).or_default().push((to, count));
    }
    for v in successors.values_mut() {
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    }
    let atoms: Vec<String> = dag.atoms.iter().map(|a| a.to_string()).collect();
    let add = |atom: &str, line: usize| Transformation {
        kind: TransformKind::Add {
            atom: Atom::new(atom),
        },
        line,
    };

    let mut pruned = Vec::new();
    let n = atoms.len();
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    let mut push = |t: Transformation, out: &mut Vec<Transformation>| {
        if seen.insert(t.clone()) {
            out.push(t);
        }
    };
    for (i, atom) in atoms.iter().enumerate() {
        if !is_protected(atom) {
            push(
                Transformation {
                    kind: TransformKind::Delete,
                    line: i,
                },
                &mut out,
            );
        }
    }
    let present: HashSet<&String> = atoms.iter().collect();
    let import_end = atoms.iter().take_while(|a| is_import(a)).count();
    for (i, atom) in atoms.iter().enumerate() {
        let insert_at = i + 1;
        let Some(succs) = successors.get(atom) else {
            continue;
        };
        for (next_atom, _) in succs.iter().take(opts.max_successors_per_atom) {
            if present.contains(next_atom) {
                continue;
            }
            let line = if is_import(next_atom) {
                import_end
            } else if insert_at < cursor {
                pruned.push(add(next_atom, insert_at));
                continue;
            } else {
                insert_at
            };
            push(add(next_atom, line), &mut out);
        }
    }
    let mut by_count: Vec<(String, usize)> = corpus
        .atoms()
        .iter()
        .map(|a| (a.to_string(), corpus.atom_count(a)))
        .collect();
    by_count.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for (atom, _) in by_count.into_iter().take(opts.max_positional_atoms) {
        if present.contains(&atom) || atom.contains("read_csv(") {
            continue;
        }
        let line = if is_import(&atom) {
            import_end
        } else {
            let rel = corpus
                .mean_rel_pos
                .get(atom.as_str())
                .copied()
                .unwrap_or(0.5);
            ((rel * n as f64).round() as usize).clamp(cursor.min(n), n)
        };
        push(add(&atom, line), &mut out);
    }
    Enumerated { kept: out, pruned }
}

/// The module-cloning apply: `t` on a whole statement list, re-numbered
/// like `Module::renumber`. `Transformation::apply_ir` must produce the
/// same code (`tests/properties.rs`).
///
/// # Errors
///
/// Fails if the line is out of range or an `Add` atom fails to parse.
pub fn apply(t: &Transformation, module: &Module) -> Result<Module> {
    let mut stmts = module.stmts.clone();
    match &t.kind {
        TransformKind::Delete => {
            if t.line >= stmts.len() {
                return Err(CoreError::BadConfig(format!(
                    "delete at line {} of a {}-statement script",
                    t.line + 1,
                    stmts.len()
                )));
            }
            stmts.remove(t.line);
        }
        TransformKind::Add { atom } => {
            if t.line > stmts.len() {
                return Err(CoreError::BadConfig(format!(
                    "insert at line {} of a {}-statement script",
                    t.line + 1,
                    stmts.len()
                )));
            }
            let stmt = parse_module(atom.as_str())?
                .stmts
                .into_iter()
                .next()
                .ok_or_else(|| CoreError::BadConfig("empty atom".to_string()))?;
            stmts.insert(t.line, stmt.with_span(Span::synthetic()));
        }
    }
    let mut out = Module::new(stmts);
    out.renumber();
    Ok(out)
}
