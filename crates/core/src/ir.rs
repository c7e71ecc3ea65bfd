//! Interned program IR: candidates as shared-statement lists.
//!
//! The beam search materializes thousands of candidate scripts per run,
//! and every transformation touches exactly one statement — yet the
//! original representation deep-cloned a whole `Module` per candidate and
//! rebuilt the DAG from scratch. This module hash-conses statements into
//! a [`StmtInterner`] so a candidate is a [`Program`]: a `Vec<Arc<StmtInfo>>`
//! where applying a transformation is an O(edit) splice of pointer bumps,
//! and per-statement facts (structural hash, atom key, def/use sets) are
//! computed once per *unique* statement, ever.
//!
//! [`Program::update_dag`] rebuilds only the data-flow edges at or after
//! the edited index, reusing the parent's prefix edges; the legacy full
//! rebuild (`crate::dag::build_dag`) is kept as a debug-assert oracle so
//! every debug-mode test run cross-checks the incremental path.
//!
//! DESIGN.md §13 documents the IR and its hashing contract.

use crate::dag::{self, ScriptDag};
use crate::error::{CoreError, Result};
use lucid_interp::StmtRef;
use lucid_obs::{Counter, Metric, Registry};
use lucid_pyast::{Module, Span, Stmt};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// One interned statement plus every per-statement fact the search needs.
/// The stored statement is span-normalized; [`Program::to_module`]
/// re-numbers lines on materialization, matching `Module::renumber`.
#[derive(Debug)]
pub struct StmtInfo {
    /// The statement, with a synthetic span (position-independent).
    pub stmt: Stmt,
    /// [`lucid_interp::stmt_structural_hash`] of the statement — the
    /// shared ingredient of prefix-cache chain keys and fault-plan
    /// decisions, computed exactly once here.
    pub hash: u64,
    /// Line-level atom key (`dag::atom_key`, the printed source), shared
    /// with every DAG that contains the statement.
    pub atom: Arc<str>,
    /// Variables the statement defines (`dag::defined_vars`).
    pub defs: Vec<String>,
    /// Variables the statement reads (`dag::read_vars`), in read order —
    /// edge replay depends on this order matching `dag::dataflow_edges`.
    pub uses: Vec<String>,
}

impl StmtInfo {
    fn new(stmt: Stmt, hash: u64) -> StmtInfo {
        StmtInfo {
            atom: Arc::from(dag::atom_key(&stmt)),
            defs: dag::defined_vars(&stmt),
            uses: dag::read_vars(&stmt),
            stmt,
            hash,
        }
    }
}

/// Content-addressed, thread-safe statement store, seen through a view
/// that counts its traffic into a metrics registry: intern hits into
/// [`Metric::InternHits`] and incremental DAG updates into
/// [`Metric::DagIncremental`], through counter handles fetched once when
/// the view is built. One search owns one view; its scoring workers share
/// it by reference. Each search counts into its own registry, through a
/// [`StmtInterner::view`] of the store it is handed, so a statement
/// interned by any search of a batch is shared by all while each search's
/// hit and DAG-update counts stay its own. [`StmtInterner::new`] counts
/// into counters of its own.
///
/// Buckets are keyed by structural hash but membership is decided by
/// structural *equality*, so a (vanishingly unlikely) 64-bit collision
/// yields two distinct entries rather than a wrong merge.
#[derive(Debug, Default)]
pub struct StmtInterner {
    store: Arc<InternStore>,
    hits: Arc<Counter>,
    dag_updates: Arc<Counter>,
}

/// The statements every view of one interner shares.
#[derive(Debug, Default)]
struct InternStore {
    by_hash: Mutex<HashMap<u64, Vec<Arc<StmtInfo>>>>,
    /// Memo from corpus-atom source text to its interned statement, so
    /// repeated `Add` applications skip re-parsing the atom.
    by_atom: Mutex<HashMap<Arc<str>, Arc<StmtInfo>>>,
    unique: AtomicU64,
}

/// Locks recovering from poisoning: candidate scoring runs under
/// `catch_unwind`, and the interner must stay usable after a worker
/// panics (entries are only ever inserted whole, so the maps stay
/// consistent even if a panic unwound through a lock hold).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl StmtInterner {
    /// An empty interner.
    pub fn new() -> StmtInterner {
        StmtInterner::default()
    }

    /// Another view of the same store, counting its hits and DAG updates
    /// into `reg`.
    pub fn view(&self, reg: &Registry) -> StmtInterner {
        StmtInterner {
            store: Arc::clone(&self.store),
            hits: reg.counter(Metric::InternHits),
            dag_updates: reg.counter(Metric::DagIncremental),
        }
    }

    /// Interns a statement, returning the shared node. Identical code at
    /// different source positions interns to the same node.
    pub fn intern(&self, stmt: &Stmt) -> Arc<StmtInfo> {
        let norm = stmt.clone().with_span(Span::synthetic());
        let hash = lucid_interp::stmt_structural_hash(&norm);
        let mut map = lock(&self.store.by_hash);
        let bucket = map.entry(hash).or_default();
        if let Some(found) = bucket.iter().find(|info| info.stmt == norm) {
            let found = Arc::clone(found);
            drop(map);
            self.hits.add(1);
            return found;
        }
        let info = Arc::new(StmtInfo::new(norm, hash));
        bucket.push(Arc::clone(&info));
        drop(map);
        self.store.unique.fetch_add(1, Ordering::Relaxed);
        info
    }

    /// Interns a corpus atom by its source text, parsing it at most once
    /// per distinct text.
    ///
    /// # Errors
    ///
    /// Fails if the atom does not parse or parses to zero statements.
    pub fn intern_atom(&self, atom: &str) -> Result<Arc<StmtInfo>> {
        if let Some(found) = lock(&self.store.by_atom).get(atom) {
            self.hits.add(1);
            return Ok(Arc::clone(found));
        }
        let parsed = lucid_pyast::parse_module(atom)?;
        let stmt = parsed
            .stmts
            .into_iter()
            .next()
            .ok_or_else(|| CoreError::BadConfig("empty atom".to_string()))?;
        let info = self.intern(&stmt);
        // Corpus atoms are printed statements, so the memo key can
        // usually share the interned text instead of copying it.
        let key = if *info.atom == *atom {
            Arc::clone(&info.atom)
        } else {
            Arc::from(atom)
        };
        lock(&self.store.by_atom).insert(key, Arc::clone(&info));
        Ok(info)
    }

    /// Distinct statements interned so far, by every view of the store.
    pub fn unique_stmts(&self) -> u64 {
        self.store.unique.load(Ordering::Relaxed)
    }

    /// Intern requests answered by an existing node (including atom-memo
    /// hits that skipped the parser entirely), as counted in this view's
    /// registry.
    pub fn intern_hits(&self) -> u64 {
        self.hits.get()
    }

    /// DAGs derived incrementally via [`Program::update_dag`], as counted
    /// in this view's registry.
    pub fn dag_incremental_updates(&self) -> u64 {
        self.dag_updates.get()
    }
}

/// A candidate script as a list of shared statements. Cloning a `Program`
/// bumps one reference count per statement — no statement is ever copied.
#[derive(Debug, Clone)]
pub struct Program {
    stmts: Vec<Arc<StmtInfo>>,
}

impl Program {
    /// Interns every statement of a module.
    pub fn from_module(module: &Module, interner: &StmtInterner) -> Program {
        Program {
            stmts: module.stmts.iter().map(|s| interner.intern(s)).collect(),
        }
    }

    /// Number of statements.
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    /// Whether the program has no statements.
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }

    /// The shared statement nodes, in line order.
    pub fn stmts(&self) -> &[Arc<StmtInfo>] {
        &self.stmts
    }

    /// The statements' atom keys, in line order.
    pub fn atoms(&self) -> Vec<Arc<str>> {
        self.stmts.iter().map(|info| Arc::clone(&info.atom)).collect()
    }

    /// Materializes an owned `Module`, re-numbering spans exactly like
    /// `Module::renumber` (line `i + 1`, column 1). Only the final
    /// reporting path needs this; the search never does.
    pub fn to_module(&self) -> Module {
        Module::new(
            self.stmts
                .iter()
                .enumerate()
                .map(|(i, info)| info.stmt.clone().with_span(Span::new(i as u32 + 1, 1)))
                .collect(),
        )
    }

    /// The program's source text: each statement's atom (its printed
    /// form) plus a newline. Byte-identical to `print_module` of
    /// [`Program::to_module`], without materializing the module.
    pub fn source(&self) -> String {
        let mut out = String::new();
        for info in &self.stmts {
            out.push_str(&info.atom);
            out.push('\n');
        }
        out
    }

    /// Borrowed statement references with precomputed structural hashes,
    /// ready for `Interpreter::run_shared`.
    pub fn stmt_refs(&self) -> Vec<StmtRef<'_>> {
        self.stmts
            .iter()
            .map(|info| StmtRef {
                stmt: &info.stmt,
                hash: info.hash,
            })
            .collect()
    }

    /// Structural equality. Programs built over one interner share nodes,
    /// so this is usually a pointer walk; the statement comparison only
    /// runs across interners (or after a hash collision).
    pub fn same_stmts(&self, other: &Program) -> bool {
        self.stmts.len() == other.stmts.len()
            && self
                .stmts
                .iter()
                .zip(&other.stmts)
                .all(|(a, b)| Arc::ptr_eq(a, b) || (a.hash == b.hash && a.stmt == b.stmt))
    }

    /// A new program with `info` spliced in at `line` (pointer bumps only).
    pub fn with_inserted(&self, line: usize, info: Arc<StmtInfo>) -> Program {
        let mut stmts = self.stmts.clone();
        stmts.insert(line, info);
        Program { stmts }
    }

    /// A new program with the statement at `line` removed (pointer bumps
    /// only).
    pub fn with_removed(&self, line: usize) -> Program {
        let mut stmts = self.stmts.clone();
        stmts.remove(line);
        Program { stmts }
    }

    /// Builds the full DAG from cached per-statement facts — no printing,
    /// no AST walks. Bit-identical to `dag::build_dag` on the
    /// materialized module (debug-asserted).
    pub fn full_dag(&self) -> ScriptDag {
        let mut edges = Vec::new();
        let mut last_def: HashMap<&str, usize> = HashMap::new();
        replay_edges(&self.stmts, 0, &mut last_def, &mut edges);
        let out = ScriptDag {
            atoms: self.atoms(),
            edge_positions: edges,
        };
        debug_assert_eq!(
            out,
            dag::build_dag(&self.to_module()),
            "full_dag diverged from the legacy module rebuild"
        );
        out
    }

    /// Derives this program's DAG from its parent's, recomputing only
    /// edges whose target is at or after the edited index: an edge
    /// `(i, j)` with `i < j < edit` depends only on statements `0..=j`,
    /// which an edit at `edit` leaves untouched, so the parent's prefix
    /// edges carry over verbatim. The suffix is replayed from the cached
    /// def/use sets over a def-map rebuilt from the prefix.
    ///
    /// `parent` must be the DAG of the program this one was derived from
    /// by a single edit (insert or remove) at `edit` — debug builds
    /// cross-check the result against the legacy full rebuild.
    pub fn update_dag(&self, parent: &ScriptDag, edit: usize, interner: &StmtInterner) -> ScriptDag {
        interner.dag_updates.add(1);
        let mut edges: Vec<(usize, usize)> = parent
            .edge_positions
            .iter()
            .copied()
            .filter(|&(_, j)| j < edit)
            .collect();
        let mut last_def: HashMap<&str, usize> = HashMap::new();
        for (i, info) in self.stmts.iter().take(edit).enumerate() {
            for var in &info.defs {
                last_def.insert(var, i);
            }
        }
        replay_edges(&self.stmts, edit, &mut last_def, &mut edges);
        let out = ScriptDag {
            atoms: self.atoms(),
            edge_positions: edges,
        };
        debug_assert_eq!(
            out,
            dag::build_dag(&self.to_module()),
            "incremental DAG diverged from the legacy full rebuild"
        );
        out
    }
}

/// Replays `dag::dataflow_edges` from `start`, reading cached def/use
/// sets instead of walking ASTs. `last_def` must hold the latest
/// definition index of every variable defined before `start`. Edge order
/// matches the legacy builder exactly: targets ascending, and per target
/// in statement read order with duplicate sources collapsed.
fn replay_edges<'a>(
    stmts: &'a [Arc<StmtInfo>],
    start: usize,
    last_def: &mut HashMap<&'a str, usize>,
    edges: &mut Vec<(usize, usize)>,
) {
    let mut seen_from: Vec<usize> = Vec::new();
    for (j, info) in stmts.iter().enumerate().skip(start) {
        seen_from.clear();
        for var in &info.uses {
            if let Some(&i) = last_def.get(var.as_str()) {
                if i != j && !seen_from.contains(&i) {
                    seen_from.push(i);
                    edges.push((i, j));
                }
            }
        }
        for var in &info.defs {
            last_def.insert(var, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucid_pyast::{parse_module, print_module};

    const SRC: &str = "\
import pandas as pd
df = pd.read_csv('t.csv')
df = df.fillna(df.mean())
df = df[df['Age'] < 50]
y = df['Outcome']
";

    #[test]
    fn interning_shares_identical_statements() {
        let interner = StmtInterner::new();
        let module = parse_module("x = 1\ny = 2\nx = 1\n").unwrap();
        let prog = Program::from_module(&module, &interner);
        // Lines 1 and 3 are the same code at different spans.
        assert!(Arc::ptr_eq(&prog.stmts()[0], &prog.stmts()[2]));
        assert_eq!(interner.unique_stmts(), 2);
        assert_eq!(interner.intern_hits(), 1);
    }

    #[test]
    fn program_clone_is_pointer_bump() {
        let interner = StmtInterner::new();
        let module = parse_module(SRC).unwrap();
        let prog = Program::from_module(&module, &interner);
        let (unique, hits) = (interner.unique_stmts(), interner.intern_hits());
        let copy = prog.clone();
        // Cloning touched no interner state and copied no statements.
        assert_eq!(interner.unique_stmts(), unique);
        assert_eq!(interner.intern_hits(), hits);
        for (a, b) in prog.stmts().iter().zip(copy.stmts()) {
            assert!(Arc::ptr_eq(a, b));
        }
        assert!(prog.same_stmts(&copy));
    }

    #[test]
    fn to_module_matches_legacy_renumber() {
        let interner = StmtInterner::new();
        let module = parse_module(SRC).unwrap();
        let mut renumbered = module.clone();
        renumbered.renumber();
        let program = Program::from_module(&module, &interner);
        let out = program.to_module();
        assert_eq!(out, renumbered);
        assert_eq!(print_module(&out), print_module(&module));
        assert_eq!(program.source(), print_module(&module));
    }

    #[test]
    fn full_dag_matches_legacy_builder() {
        let interner = StmtInterner::new();
        let module = parse_module(SRC).unwrap();
        let prog = Program::from_module(&module, &interner);
        assert_eq!(prog.full_dag(), dag::build_dag(&module));
    }

    #[test]
    fn update_dag_agrees_with_full_rebuild() {
        let interner = StmtInterner::new();
        let module = parse_module(SRC).unwrap();
        let prog = Program::from_module(&module, &interner);
        let base = prog.full_dag();
        // Insert in the middle.
        let info = interner.intern_atom("df = df.dropna()").unwrap();
        let inserted = prog.with_inserted(3, info);
        let dag_inserted = inserted.update_dag(&base, 3, &interner);
        assert_eq!(dag_inserted, dag::build_dag(&inserted.to_module()));
        // Remove from the middle.
        let removed = prog.with_removed(2);
        let dag_removed = removed.update_dag(&base, 2, &interner);
        assert_eq!(dag_removed, dag::build_dag(&removed.to_module()));
        // Edit at the very end (nothing to replay).
        let appended = prog.with_inserted(5, interner.intern_atom("z = 1").unwrap());
        assert_eq!(
            appended.update_dag(&base, 5, &interner),
            dag::build_dag(&appended.to_module())
        );
        assert_eq!(interner.dag_incremental_updates(), 3);
    }

    #[test]
    fn atom_memo_skips_reparsing() {
        let interner = StmtInterner::new();
        let a = interner.intern_atom("df = df.dropna()").unwrap();
        let hits = interner.intern_hits();
        let b = interner.intern_atom("df = df.dropna()").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(interner.intern_hits(), hits + 1);
        assert!(interner.intern_atom("df = (").is_err());
        assert!(interner.intern_atom("").is_err());
    }

    #[test]
    fn same_stmts_is_structural() {
        let left = StmtInterner::new();
        let right = StmtInterner::new();
        let module = parse_module(SRC).unwrap();
        let a = Program::from_module(&module, &left);
        // Different interner → no shared pointers, still equal.
        let b = Program::from_module(&module, &right);
        assert!(a.same_stmts(&b));
        let shorter = a.with_removed(4);
        assert!(!a.same_stmts(&shorter));
        let swapped = shorter.with_inserted(4, right.intern_atom("y = df['Age']").unwrap());
        assert!(!a.same_stmts(&swapped));
    }
}
