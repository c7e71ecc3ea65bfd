//! DAG script representation (Section 3).
//!
//! After lemmatization, each statement becomes an **n-gram atom** (the
//! paper's line-level atoms; Definition 3.1 composes invocation-level atoms
//! into numbered line blocks — see Figure 2). **Edges** are data-flow
//! edges: statement *j* depends on statement *i* when *j* reads a variable
//! whose latest definition is *i*. **1-gram atoms** are the individual
//! operation invocations inside each line ([`stmt_unigrams`]); only the
//! corpus vocabulary counts them, so a script's DAG does not carry them.
//!
//! The standardness objective models the step space `X` with the edge
//! vocabulary `V_E'` because edges encode step order (Section 3, "From
//! Script to DAG").

use lucid_pyast::{Expr, Module, Stmt};
use std::collections::HashMap;
use std::sync::Arc;

/// A script's DAG view: atoms in line order and data-flow edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptDag {
    /// Line-level (n-gram) atom keys, in statement order. Shared handles:
    /// a candidate DAG points at its statements' interned text.
    pub atoms: Vec<Arc<str>>,
    /// Data-flow edges as (from, to) positions into `atoms`.
    pub edge_positions: Vec<(usize, usize)>,
}

/// Canonical key of a statement: its printed (lemmatized) source.
pub fn atom_key(stmt: &Stmt) -> String {
    lucid_pyast::print_stmt(stmt)
}

/// Builds the DAG for a (lemmatized) module.
pub fn build_dag(module: &Module) -> ScriptDag {
    ScriptDag {
        atoms: module.stmts.iter().map(|s| Arc::from(atom_key(s))).collect(),
        edge_positions: dataflow_edges(module),
    }
}

/// Variables a statement defines (writes).
pub fn defined_vars(stmt: &Stmt) -> Vec<String> {
    match stmt {
        Stmt::Import { module, alias, .. } => {
            vec![alias.clone().unwrap_or_else(|| module.clone())]
        }
        Stmt::FromImport { names, .. } => names
            .iter()
            .map(|(n, a)| a.clone().unwrap_or_else(|| n.clone()))
            .collect(),
        Stmt::Assign { target, .. } => target_vars(target),
        Stmt::ExprStmt { value, .. } => {
            // `df.dropna(inplace=True)` mutates its receiver.
            inplace_receiver(value).into_iter().collect()
        }
    }
}

fn target_vars(target: &Expr) -> Vec<String> {
    match target {
        Expr::Name(n) => vec![n.clone()],
        // `df['c'] = ...` and `df.loc[...] = ...` mutate the base variable.
        Expr::Subscript { value, .. } => match &**value {
            Expr::Name(n) => vec![n.clone()],
            Expr::Attribute { value: base, .. } => match &**base {
                Expr::Name(n) => vec![n.clone()],
                _ => vec![],
            },
            _ => vec![],
        },
        Expr::Tuple(items) | Expr::List(items) => {
            items.iter().flat_map(target_vars).collect()
        }
        _ => vec![],
    }
}

fn inplace_receiver(expr: &Expr) -> Option<String> {
    let Expr::Call { func, args } = expr else {
        return None;
    };
    let inplace = args.iter().any(|a| {
        a.name.as_deref() == Some("inplace") && matches!(a.value, Expr::Bool(true))
    });
    if !inplace {
        return None;
    }
    let Expr::Attribute { value, .. } = &**func else {
        return None;
    };
    match &**value {
        Expr::Name(n) => Some(n.clone()),
        _ => None,
    }
}

/// Variables a statement reads.
pub fn read_vars(stmt: &Stmt) -> Vec<String> {
    let mut out = Vec::new();
    match stmt {
        Stmt::Import { .. } | Stmt::FromImport { .. } => {}
        Stmt::Assign { target, value, .. } => {
            // Subscript targets read their base and index.
            if let Expr::Subscript { value: base, index } = target {
                out.extend(base.names());
                out.extend(index.names());
            }
            out.extend(value.names());
        }
        Stmt::ExprStmt { value, .. } => out.extend(value.names()),
    }
    out
}

/// Data-flow edges: `(i, j)` when statement `j` reads a variable whose
/// latest definition before `j` is statement `i`.
pub fn dataflow_edges(module: &Module) -> Vec<(usize, usize)> {
    let mut last_def: HashMap<String, usize> = HashMap::new();
    let mut edges = Vec::new();
    for (j, stmt) in module.stmts.iter().enumerate() {
        let mut seen_from: Vec<usize> = Vec::new();
        for var in read_vars(stmt) {
            if let Some(&i) = last_def.get(&var) {
                if i != j && !seen_from.contains(&i) {
                    seen_from.push(i);
                    edges.push((i, j));
                }
            }
        }
        for var in defined_vars(stmt) {
            last_def.insert(var, j);
        }
    }
    edges
}

/// Invocation-level 1-gram atoms of a single statement: every call,
/// subscript, and comparison sub-expression, in canonical printed form
/// and visit order.
pub fn stmt_unigrams(stmt: &Stmt) -> Vec<String> {
    let mut out = Vec::new();
    let mut visit = |e: &Expr| match e {
        Expr::Call { .. } | Expr::Subscript { .. } | Expr::Compare { .. } => {
            out.push(lucid_pyast::print_expr(e));
        }
        _ => {}
    };
    stmt.for_each_expr(&mut visit);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucid_pyast::parse_module;

    fn dag(src: &str) -> ScriptDag {
        build_dag(&parse_module(src).unwrap())
    }

    const PIPELINE: &str = "\
import pandas as pd
df = pd.read_csv('t.csv')
df = df.fillna(df.mean())
df = df[df['Age'] < 50]
y = df['Outcome']
";

    #[test]
    fn atoms_are_printed_lines() {
        let d = dag(PIPELINE);
        assert_eq!(d.atoms.len(), 5);
        assert_eq!(&*d.atoms[1], "df = pd.read_csv('t.csv')");
    }

    #[test]
    fn dataflow_edges_follow_definitions() {
        let d = dag(PIPELINE);
        // import→read_csv (pd), read_csv→fillna (df), fillna→filter (df),
        // filter→y (df).
        assert!(d.edge_positions.contains(&(0, 1)));
        assert!(d.edge_positions.contains(&(1, 2)));
        assert!(d.edge_positions.contains(&(2, 3)));
        assert!(d.edge_positions.contains(&(3, 4)));
        // No edge skipping the latest definition.
        assert!(!d.edge_positions.contains(&(1, 3)));
    }

    #[test]
    fn edge_keys_pair_atom_text() {
        let d = dag(PIPELINE);
        let keys = crate::oracle::edge_keys(&d);
        assert!(keys.contains(&(
            "df = pd.read_csv('t.csv')".to_string(),
            "df = df.fillna(df.mean())".to_string()
        )));
    }

    #[test]
    fn subscript_assignment_defines_and_reads_base() {
        let d = dag("import pandas as pd\ndf = pd.read_csv('t.csv')\ndf['x'] = df['y'] * 2\nz = df['x']\n");
        assert!(d.edge_positions.contains(&(1, 2)));
        assert!(d.edge_positions.contains(&(2, 3)));
    }

    #[test]
    fn inplace_call_defines_receiver() {
        let m = parse_module("df.dropna(inplace=True)\n").unwrap();
        assert_eq!(defined_vars(&m.stmts[0]), vec!["df".to_string()]);
        let m = parse_module("df.dropna()\n").unwrap();
        assert!(defined_vars(&m.stmts[0]).is_empty());
    }

    #[test]
    fn tuple_targets_define_all_names() {
        let m = parse_module("a, b = split(df)\n").unwrap();
        assert_eq!(
            defined_vars(&m.stmts[0]),
            vec!["a".to_string(), "b".to_string()]
        );
        assert_eq!(read_vars(&m.stmts[0]), vec!["split", "df"]);
    }

    #[test]
    fn unigrams_capture_invocations() {
        let m = parse_module("import pandas as pd\ndf = pd.read_csv('t.csv')\ndf = df[df['Age'] < 50]\n")
            .unwrap();
        let unigrams: Vec<String> = m.stmts.iter().flat_map(stmt_unigrams).collect();
        assert!(unigrams.contains(&"pd.read_csv('t.csv')".to_string()));
        assert!(unigrams.contains(&"df['Age']".to_string()));
        assert!(unigrams.contains(&"df['Age'] < 50".to_string()));
        assert!(unigrams.contains(&"df[df['Age'] < 50]".to_string()));
    }

    #[test]
    fn duplicate_reads_make_one_edge() {
        let d = dag("import pandas as pd\ndf = pd.read_csv('t.csv')\ndf = df[df['a'] > df['b']]\n");
        let from_1: Vec<_> = d
            .edge_positions
            .iter()
            .filter(|(i, j)| *i == 1 && *j == 2)
            .collect();
        assert_eq!(from_1.len(), 1);
    }

    #[test]
    fn empty_module_yields_empty_dag() {
        let d = dag("");
        assert!(d.atoms.is_empty());
        assert!(d.edge_positions.is_empty());
        let m = parse_module("").unwrap();
        assert!(m.stmts.iter().flat_map(stmt_unigrams).next().is_none());
    }
}
