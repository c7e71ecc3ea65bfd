//! The interpreter: registered tables, variable environment, execution of
//! statements, and outcome extraction.

use crate::budget::{Budget, BudgetKind, BudgetUsage, FaultPlan, UNLIMITED};
use crate::error::{InterpError, Result};
use crate::value::{FrameVal, ModuleKind, RtValue};
use lucid_frame::{DataFrame, Value};
use lucid_pyast::{Expr, Module, Stmt};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Executes straight-line scripts against in-memory tables.
///
/// One `Interpreter` holds the *input configuration* (registered tables,
/// seed, sampling). Each [`Interpreter::run`] starts from a fresh variable
/// environment, so the same interpreter can check many candidate scripts.
#[derive(Debug, Clone)]
pub struct Interpreter {
    tables: HashMap<String, DataFrame>,
    /// Seed for `sample`/`train_test_split` when the script does not pass
    /// `random_state`.
    pub seed: u64,
    /// If set, registered tables are row-sampled to at most this many rows
    /// at `read_csv` time — the paper's sampling optimization (§5.2, item 5).
    pub sample_rows: Option<usize>,
    /// Statement budget per run (straight-line scripts are short; this
    /// guards against pathological generated scripts).
    pub max_statements: usize,
    /// Per-run resource budget (fuel / cells / deadline). Unlimited by
    /// default; each axis trips a distinct [`InterpError::Budget`] kind.
    pub budget: Budget,
    /// Deterministic fault-injection plan, consulted before each statement
    /// of *untrusted* runs. `None` (the default) costs nothing;
    /// [`Interpreter::run_trusted`] ignores it entirely.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Optional span collector: when set (and enabled), every run records
    /// an `interp.run` root span with one `stmt.*` child per executed
    /// statement. `None` costs nothing on the hot path.
    pub obs: Option<Arc<lucid_obs::Collector>>,
}

impl Default for Interpreter {
    fn default() -> Self {
        Interpreter {
            tables: HashMap::new(),
            seed: 7,
            sample_rows: None,
            max_statements: 10_000,
            budget: Budget::unlimited(),
            fault_plan: None,
            obs: None,
        }
    }
}

/// A statement to execute plus its precomputed span-normalized structural
/// hash ([`crate::cache::stmt_structural_hash`]) — the unit of the
/// shared-statement execution path. The search's interned IR computes each
/// hash once per unique statement, ever; the `Module` entry points compute
/// them on the fly.
#[derive(Debug, Clone, Copy)]
pub struct StmtRef<'a> {
    /// The statement. Spans never influence execution.
    pub stmt: &'a Stmt,
    /// Structural hash feeding prefix-cache chain keys and the fault
    /// plan's decision key.
    pub hash: u64,
}

impl<'a> StmtRef<'a> {
    /// Borrows a statement, hashing it on the spot.
    pub fn of(stmt: &'a Stmt) -> StmtRef<'a> {
        StmtRef {
            stmt,
            hash: crate::cache::stmt_structural_hash(stmt),
        }
    }
}

fn module_refs(module: &Module) -> Vec<StmtRef<'_>> {
    module.stmts.iter().map(StmtRef::of).collect()
}

/// The result of a successful run.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Final variable bindings.
    pub vars: HashMap<String, RtValue>,
    /// The variable that last received a `DataFrame`.
    pub last_frame_var: Option<String>,
}

impl ExecOutcome {
    /// The script's output table: the `df` variable if it is a frame,
    /// otherwise the frame most recently assigned to any variable —
    /// the convention the paper's prototype uses to compare `D_OUT`.
    pub fn output_frame(&self) -> Option<&DataFrame> {
        if let Some(RtValue::Frame(f)) = self.vars.get("df") {
            return Some(&f.df);
        }
        let name = self.last_frame_var.as_ref()?;
        match self.vars.get(name) {
            Some(RtValue::Frame(f)) => Some(&f.df),
            _ => None,
        }
    }

    /// A variable's value, if bound.
    pub fn get(&self, name: &str) -> Option<&RtValue> {
        self.vars.get(name)
    }
}

/// Per-run mutable state (variables + step counter + budget meter), plus
/// the run's view of the execution cache: prefix snapshots for resume and
/// the fit memo that estimator `fit` calls consult.
pub(crate) struct RunState<'c> {
    pub vars: HashMap<String, RtValue>,
    pub last_frame_var: Option<String>,
    pub steps: usize,
    /// Fuel charged so far: one unit per evaluated expression node plus
    /// one per statement. Budget-independent (see [`Budget`]).
    pub fuel_used: u64,
    /// Cumulative cells bound into the environment so far.
    pub cells: u64,
    /// The execution cache this run goes through, if any: fits are
    /// memoized exactly when prefixes are.
    pub cache: Option<&'c crate::cache::PrefixCache>,
}

impl<'c> RunState<'c> {
    fn fresh(cache: Option<&'c crate::cache::PrefixCache>) -> Self {
        RunState {
            vars: HashMap::new(),
            last_frame_var: None,
            steps: 0,
            fuel_used: 0,
            cells: 0,
            cache,
        }
    }

    /// Charges `cost` fuel, tripping [`BudgetKind::Fuel`] past the cap.
    pub(crate) fn charge_fuel(&mut self, cost: u64, budget: &Budget) -> Result<()> {
        self.fuel_used = self.fuel_used.saturating_add(cost);
        if self.fuel_used > budget.fuel {
            return Err(InterpError::Budget(BudgetKind::Fuel));
        }
        Ok(())
    }

    fn usage(&self) -> BudgetUsage {
        BudgetUsage {
            fuel_used: self.fuel_used,
            cells: self.cells,
            steps: self.steps,
        }
    }
}

/// Cells a value materializes when bound: `rows × columns` for frames,
/// element count for series/masks, recursive for containers, 1 otherwise.
fn value_cells(v: &RtValue) -> u64 {
    match v {
        RtValue::Frame(f) => (f.df.n_rows() as u64).saturating_mul(f.df.n_cols() as u64),
        RtValue::Series(s) => s.col.len() as u64,
        RtValue::Mask(m) => m.len() as u64,
        RtValue::List(items) | RtValue::Tuple(items) => {
            items.iter().map(value_cells).fold(0, u64::saturating_add)
        }
        _ => 1,
    }
}

impl Interpreter {
    /// A fresh interpreter with no registered tables.
    pub fn new() -> Self {
        Interpreter::default()
    }

    /// Registers an in-memory table for `pd.read_csv(path)`.
    pub fn register_table(&mut self, path: impl Into<String>, df: DataFrame) {
        self.tables.insert(path.into(), df);
    }

    /// Looks up a registered table, applying the row-sampling cap.
    pub(crate) fn load_table(&self, path: &str) -> Result<DataFrame> {
        let df = self
            .tables
            .get(path)
            .ok_or_else(|| InterpError::FileNotFound(path.to_string()))?;
        match self.sample_rows {
            Some(cap) if df.n_rows() > cap => Ok(df.sample(cap, self.seed)?),
            _ => Ok(df.clone()),
        }
    }

    /// Executes a whole script from a fresh environment.
    ///
    /// # Errors
    ///
    /// Any Python-level error the script would raise (NameError, KeyError,
    /// TypeError, ...) surfaces as an [`InterpError`] — the signal
    /// LucidScript's execution constraint consumes.
    pub fn run(&self, module: &Module) -> Result<ExecOutcome> {
        self.run_with_usage(module).0
    }

    /// Like [`Interpreter::run`], but also reports the resources the run
    /// consumed — for successful *and* failed runs.
    pub fn run_with_usage(&self, module: &Module) -> (Result<ExecOutcome>, BudgetUsage) {
        let mut state = RunState::fresh(None);
        let res = self.run_inner(&module_refs(module), false, &mut state);
        Self::finish(res, state)
    }

    /// Runs a *trusted* script: the fault-injection plan (if any) is never
    /// consulted. The resource budget still applies. Used for the user's
    /// own input script, which is not a search candidate.
    pub fn run_trusted(&self, module: &Module) -> Result<ExecOutcome> {
        let mut state = RunState::fresh(None);
        let res = self.run_inner(&module_refs(module), true, &mut state);
        Self::finish(res, state).0
    }

    /// [`Interpreter::run`] over shared statements with precomputed
    /// structural hashes — the interned-IR hot path: no statement is
    /// cloned or re-hashed to derive cache keys or fault decisions.
    ///
    /// # Errors
    ///
    /// Exactly the errors [`Interpreter::run`] reports.
    pub fn run_shared(&self, stmts: &[StmtRef<'_>]) -> Result<ExecOutcome> {
        let mut state = RunState::fresh(None);
        let res = self.run_inner(stmts, false, &mut state);
        Self::finish(res, state).0
    }

    /// [`Interpreter::run_shared`] through the prefix cache.
    ///
    /// # Errors
    ///
    /// Exactly the errors [`Interpreter::run`] reports.
    pub fn run_shared_with_cache(
        &self,
        stmts: &[StmtRef<'_>],
        cache: &crate::cache::PrefixCache,
    ) -> Result<ExecOutcome> {
        let mut state = RunState::fresh(Some(cache));
        let res = self.run_inner(stmts, false, &mut state);
        Self::finish(res, state).0
    }

    fn finish(res: Result<()>, state: RunState<'_>) -> (Result<ExecOutcome>, BudgetUsage) {
        let usage = state.usage();
        match res {
            Ok(()) => (
                Ok(ExecOutcome {
                    vars: state.vars,
                    last_frame_var: state.last_frame_var,
                }),
                usage,
            ),
            Err(e) => (Err(e), usage),
        }
    }

    /// Like [`Interpreter::run`], but resumes from the longest cached
    /// statement prefix and snapshots every prefix it executes, so
    /// scripts sharing a prefix (beam-search candidates below the
    /// monotonicity cursor) pay for it once.
    ///
    /// Produces the same outcome as `run` for any script: execution is
    /// deterministic given the interpreter's configuration, snapshot
    /// columns are shared copy-on-write (never mutated in place), and the
    /// cache key covers seed and sampling. Estimator fits go through the
    /// cache's fit memo, which serves only bit-identical models. Statement
    /// budget accounting also matches — resumed statements count as if
    /// they had been executed.
    ///
    /// # Errors
    ///
    /// Exactly the errors [`Interpreter::run`] reports. Prefixes executed
    /// before the failing statement are still cached: candidates that
    /// fail late make their siblings cheaper.
    pub fn run_with_cache(
        &self,
        module: &Module,
        cache: &crate::cache::PrefixCache,
    ) -> Result<ExecOutcome> {
        let mut state = RunState::fresh(Some(cache));
        let res = self.run_inner(&module_refs(module), false, &mut state);
        Self::finish(res, state).0
    }

    /// The single governed execution loop behind every `run*` entry point:
    /// optional prefix-cache resume (through `state.cache`, which also
    /// carries the fit memo), statement cap, budget metering, fault
    /// injection (untrusted runs only), span recording.
    fn run_inner(
        &self,
        stmts: &[StmtRef<'_>],
        trusted: bool,
        state: &mut RunState<'_>,
    ) -> Result<()> {
        // Allocator attribution: every interpreter execution — candidate
        // checks, verification runs, the user's own script — counts as
        // the Execute phase, overriding any outer search-phase tag for
        // the duration of the run.
        let _mem = lucid_obs::alloc::PhaseGuard::enter(lucid_obs::alloc::Phase::Execute);
        let cache = state.cache;
        let keys = cache.map(|_| {
            crate::cache::prefix_keys_from_hashes(
                self.seed,
                self.sample_rows,
                stmts.iter().map(|s| s.hash),
            )
        });
        if let (Some(cache), Some(keys)) = (cache, keys.as_ref()) {
            // Longest cached prefix wins; each probe is cheap (hash lookup).
            let resumed = keys
                .iter()
                .enumerate()
                .rev()
                .find_map(|(i, key)| cache.get(*key).filter(|s| s.len == i + 1));
            cache.record_probe(resumed.is_some());
            if let Some(snapshot) = resumed {
                state.vars = snapshot.vars;
                state.last_frame_var = snapshot.last_frame_var;
                state.steps = snapshot.len;
                state.fuel_used = snapshot.fuel_used;
                state.cells = snapshot.cells;
                // Snapshots taken under a roomier budget can already be
                // over this run's caps — trip now, like the cold run would.
                if state.fuel_used > self.budget.fuel {
                    return Err(InterpError::Budget(BudgetKind::Fuel));
                }
                if state.cells > self.budget.max_cells {
                    return Err(InterpError::Budget(BudgetKind::Cells));
                }
            }
        }
        let started = (self.budget.deadline_ms != UNLIMITED).then(Instant::now);
        let root = self.obs.as_deref().map(|c| c.span("interp.run"));
        let faults = if trusted {
            None
        } else {
            self.fault_plan.as_deref()
        };
        for (i, sref) in stmts.iter().enumerate().skip(state.steps) {
            state.steps += 1;
            if state.steps > self.max_statements {
                return Err(InterpError::BudgetExhausted);
            }
            state.charge_fuel(1, &self.budget)?;
            if let Some(start) = started {
                if start.elapsed().as_millis() as u64 >= self.budget.deadline_ms {
                    return Err(InterpError::Budget(BudgetKind::Deadline));
                }
            }
            if let Some(plan) = faults {
                plan.check(i, sref.hash)?;
            }
            let _span = root.as_ref().map(|r| r.child(stmt_span_name(sref.stmt)));
            self.exec_stmt(sref.stmt, state)?;
            if state.cells > self.budget.max_cells {
                return Err(InterpError::Budget(BudgetKind::Cells));
            }
            if let (Some(cache), Some(keys)) = (cache, keys.as_ref()) {
                cache.put(
                    keys[i],
                    crate::cache::CachedPrefix {
                        vars: state.vars.clone(),
                        last_frame_var: state.last_frame_var.clone(),
                        len: state.steps,
                        fuel_used: state.fuel_used,
                        cells: state.cells,
                    },
                );
            }
        }
        Ok(())
    }

    /// Executes a script and reports only whether it runs — the paper's
    /// `CheckIfExecutes()`.
    pub fn check_executes(&self, module: &Module) -> bool {
        self.run(module).is_ok()
    }

    fn exec_stmt(&self, stmt: &Stmt, state: &mut RunState) -> Result<()> {
        match stmt {
            Stmt::Import { module, alias, .. } => {
                let kind = module_kind(module)?;
                let bind = alias.clone().unwrap_or_else(|| module.clone());
                state.vars.insert(bind, RtValue::Module(kind));
                Ok(())
            }
            Stmt::FromImport { module, names, .. } => {
                for (name, alias) in names {
                    let value = crate::sklearn::resolve_import(module, name)?;
                    let bind = alias.clone().unwrap_or_else(|| name.clone());
                    state.vars.insert(bind, value);
                }
                Ok(())
            }
            Stmt::Assign { target, value, .. } => self.exec_assign(target, value, state),
            Stmt::ExprStmt { value, .. } => {
                // Support the in-place mutation idiom
                // `df.dropna(inplace=True)` by assigning the method result
                // back to the receiver variable.
                if let Some((var, result)) = self.eval_inplace_method(value, state)? {
                    self.bind(var, result, state);
                    return Ok(());
                }
                self.eval(value, state)?;
                Ok(())
            }
        }
    }

    fn exec_assign(&self, target: &Expr, value: &Expr, state: &mut RunState) -> Result<()> {
        match target {
            Expr::Name(name) => {
                let v = self.eval(value, state)?;
                self.bind(name.clone(), v, state);
                Ok(())
            }
            // df['col'] = <series|scalar|mask>
            Expr::Subscript {
                value: recv,
                index,
            } => self.exec_subscript_assign(recv, index, value, state),
            Expr::Tuple(targets) => {
                let v = self.eval(value, state)?;
                let items = match v {
                    RtValue::Tuple(items) | RtValue::List(items) => items,
                    other => {
                        return Err(InterpError::TypeError(format!(
                            "cannot unpack {} into {} targets",
                            other.type_name(),
                            targets.len()
                        )))
                    }
                };
                if items.len() != targets.len() {
                    return Err(InterpError::ValueError(format!(
                        "expected {} values to unpack, got {}",
                        targets.len(),
                        items.len()
                    )));
                }
                for (t, item) in targets.iter().zip(items) {
                    match t {
                        Expr::Name(name) => self.bind(name.clone(), item, state),
                        other => {
                            return Err(InterpError::Unsupported(format!(
                                "unpack target {other:?}"
                            )))
                        }
                    }
                }
                Ok(())
            }
            other => Err(InterpError::Unsupported(format!(
                "assignment target {other:?}"
            ))),
        }
    }

    fn exec_subscript_assign(
        &self,
        recv: &Expr,
        index: &Expr,
        value: &Expr,
        state: &mut RunState,
    ) -> Result<()> {
        // `df.loc[rows, 'col'] = v`
        if let Expr::Attribute {
            value: base,
            attr,
        } = recv
        {
            if attr == "loc" {
                if let Expr::Name(var) = &**base {
                    return self.exec_loc_assign(var, index, value, state);
                }
            }
            return Err(InterpError::Unsupported(format!(
                "subscript assignment through attribute '{attr}'"
            )));
        }
        // `df['col'] = v`
        let Expr::Name(var) = recv else {
            return Err(InterpError::Unsupported(
                "subscript assignment on a non-variable".to_string(),
            ));
        };
        let col_name = match self.eval(index, state)? {
            RtValue::Scalar(Value::Str(s)) => s,
            other => {
                return Err(InterpError::TypeError(format!(
                    "column assignment index must be a string, got {}",
                    other.type_name()
                )))
            }
        };
        let new_val = self.eval(value, state)?;
        let mut fv = self.expect_frame_var(var, state)?;
        let column = crate::eval::to_column(&new_val, fv.df.n_rows())?;
        fv.df.set_column(&col_name, column)?;
        self.bind(var.clone(), RtValue::Frame(fv), state);
        Ok(())
    }

    fn exec_loc_assign(
        &self,
        var: &str,
        index: &Expr,
        value: &Expr,
        state: &mut RunState,
    ) -> Result<()> {
        let Expr::Tuple(parts) = index else {
            return Err(InterpError::Unsupported(
                "loc assignment requires df.loc[rows, column] = value".to_string(),
            ));
        };
        if parts.len() != 2 {
            return Err(InterpError::Unsupported(
                "loc assignment requires exactly [rows, column]".to_string(),
            ));
        }
        let rows = self.eval(&parts[0], state)?;
        let col = match self.eval(&parts[1], state)? {
            RtValue::Scalar(Value::Str(s)) => s,
            other => {
                return Err(InterpError::TypeError(format!(
                    "loc column must be a string, got {}",
                    other.type_name()
                )))
            }
        };
        let scalar = match self.eval(value, state)? {
            RtValue::Scalar(v) => v,
            RtValue::NoneVal => Value::Null,
            other => {
                return Err(InterpError::Unsupported(format!(
                    "loc assignment value must be a scalar, got {}",
                    other.type_name()
                )))
            }
        };
        let mut fv = self.expect_frame_var(var, state)?;
        let mask = match rows {
            RtValue::Mask(m) => m,
            RtValue::IndexList(ids) => {
                let wanted: std::collections::HashSet<usize> = ids.into_iter().collect();
                lucid_frame::BoolMask::new(
                    fv.index.iter().map(|i| wanted.contains(i)).collect(),
                )
            }
            other => {
                return Err(InterpError::TypeError(format!(
                    "loc rows must be a mask or index, got {}",
                    other.type_name()
                )))
            }
        };
        fv.df.loc_set(&mask, &col, &scalar)?;
        self.bind(var.to_string(), RtValue::Frame(fv), state);
        Ok(())
    }

    /// Detects `var.method(..., inplace=True)` expression statements and
    /// returns `(var, result_frame)` when the pattern applies.
    fn eval_inplace_method(
        &self,
        expr: &Expr,
        state: &mut RunState,
    ) -> Result<Option<(String, RtValue)>> {
        let Expr::Call { func, args } = expr else {
            return Ok(None);
        };
        let Expr::Attribute { value, .. } = &**func else {
            return Ok(None);
        };
        let Expr::Name(var) = &**value else {
            return Ok(None);
        };
        let inplace = args.iter().any(|a| {
            a.name.as_deref() == Some("inplace") && matches!(a.value, Expr::Bool(true))
        });
        if !inplace {
            return Ok(None);
        }
        let result = self.eval(expr, state)?;
        if matches!(result, RtValue::Frame(_) | RtValue::Series(_)) {
            Ok(Some((var.clone(), result)))
        } else {
            Ok(None)
        }
    }

    pub(crate) fn bind(&self, name: String, value: RtValue, state: &mut RunState) {
        state.cells = state.cells.saturating_add(value_cells(&value));
        if matches!(value, RtValue::Frame(_)) {
            state.last_frame_var = Some(name.clone());
        }
        state.vars.insert(name, value);
    }

    pub(crate) fn expect_frame_var(&self, var: &str, state: &RunState) -> Result<FrameVal> {
        match state.vars.get(var) {
            Some(RtValue::Frame(f)) => Ok(f.clone()),
            Some(other) => Err(InterpError::TypeError(format!(
                "'{var}' is a {}, expected DataFrame",
                other.type_name()
            ))),
            None => Err(InterpError::NameError(var.to_string())),
        }
    }
}

/// The span name a statement's execution records under.
fn stmt_span_name(stmt: &Stmt) -> &'static str {
    match stmt {
        Stmt::Import { .. } => "stmt.import",
        Stmt::FromImport { .. } => "stmt.from_import",
        Stmt::Assign { .. } => "stmt.assign",
        Stmt::ExprStmt { .. } => "stmt.expr",
    }
}

fn module_kind(module: &str) -> Result<ModuleKind> {
    let root = module.split('.').next().unwrap_or(module);
    match root {
        "pandas" => Ok(ModuleKind::Pandas),
        "numpy" => Ok(ModuleKind::Numpy),
        "sklearn" => Ok(ModuleKind::Sklearn),
        other => Err(InterpError::ImportError(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucid_frame::csv::read_csv_str;
    use lucid_pyast::parse_module;

    fn interp() -> Interpreter {
        let mut i = Interpreter::new();
        i.register_table(
            "t.csv",
            read_csv_str("a,b,y\n1,2.5,0\n2,,1\n3,4.5,0\n4,1.0,1\n").unwrap(),
        );
        i
    }

    fn run(src: &str) -> Result<ExecOutcome> {
        interp().run(&parse_module(src).unwrap())
    }

    #[test]
    fn imports_bind_modules() {
        let out = run("import pandas as pd\nimport numpy as np\n").unwrap();
        assert!(matches!(
            out.get("pd"),
            Some(RtValue::Module(ModuleKind::Pandas))
        ));
        assert!(matches!(
            out.get("np"),
            Some(RtValue::Module(ModuleKind::Numpy))
        ));
    }

    #[test]
    fn unknown_import_errors() {
        assert!(matches!(
            run("import torch\n"),
            Err(InterpError::ImportError(_))
        ));
    }

    #[test]
    fn read_csv_and_output_frame() {
        let out = run("import pandas as pd\ndf = pd.read_csv('t.csv')\n").unwrap();
        assert_eq!(out.output_frame().unwrap().shape(), (4, 3));
    }

    #[test]
    fn missing_file_errors() {
        assert!(matches!(
            run("import pandas as pd\ndf = pd.read_csv('nope.csv')\n"),
            Err(InterpError::FileNotFound(_))
        ));
    }

    #[test]
    fn name_error_on_undefined_variable() {
        assert!(matches!(
            run("x = undefined_thing\n"),
            Err(InterpError::NameError(_))
        ));
    }

    #[test]
    fn output_frame_prefers_df_then_last_assigned() {
        let out = run(
            "import pandas as pd\ntrain = pd.read_csv('t.csv')\nother = train.head(2)\n",
        )
        .unwrap();
        assert_eq!(out.output_frame().unwrap().n_rows(), 2);
        let out = run(
            "import pandas as pd\nother = pd.read_csv('t.csv')\ndf = other.head(1)\nz = other.head(3)\n",
        )
        .unwrap();
        // `df` wins even though `z` was assigned later.
        assert_eq!(out.output_frame().unwrap().n_rows(), 1);
    }

    #[test]
    fn column_assignment_and_tuple_unpack() {
        let out = run(
            "import pandas as pd\ndf = pd.read_csv('t.csv')\ndf['a2'] = df['a'] * 2\nx, y = 1, 2\n",
        )
        .unwrap();
        let frame = out.output_frame().unwrap();
        assert!(frame.has_column("a2"));
        assert!(matches!(out.get("y"), Some(RtValue::Scalar(Value::Int(2)))));
    }

    #[test]
    fn bad_unpack_errors() {
        assert!(run("x, y = 1, 2, 3\n").is_err());
        assert!(run("x, y = 5\n").is_err());
    }

    #[test]
    fn sampling_caps_loaded_tables() {
        let mut i = interp();
        i.sample_rows = Some(2);
        let out = i
            .run(&parse_module("import pandas as pd\ndf = pd.read_csv('t.csv')\n").unwrap())
            .unwrap();
        assert_eq!(out.output_frame().unwrap().n_rows(), 2);
    }

    #[test]
    fn check_executes_is_boolean() {
        let i = interp();
        assert!(i.check_executes(&parse_module("import pandas as pd\n").unwrap()));
        assert!(!i.check_executes(&parse_module("x = nope\n").unwrap()));
    }

    #[test]
    fn inplace_method_mutates_variable() {
        let out = run(
            "import pandas as pd\ndf = pd.read_csv('t.csv')\ndf.dropna(inplace=True)\n",
        )
        .unwrap();
        assert_eq!(out.output_frame().unwrap().n_rows(), 3);
    }

    #[test]
    fn runs_record_statement_spans_when_collector_enabled() {
        let mut i = interp();
        let obs = Arc::new(lucid_obs::Collector::new(true));
        i.obs = Some(Arc::clone(&obs));
        let module =
            parse_module("import pandas as pd\ndf = pd.read_csv('t.csv')\ndf.head(1)\n").unwrap();
        i.run(&module).unwrap();
        let reg = obs.registry();
        assert_eq!(reg.histogram_count("interp.run"), 1);
        assert_eq!(reg.histogram_count("stmt.import"), 1);
        assert_eq!(reg.histogram_count("stmt.assign"), 1);
        assert_eq!(reg.histogram_count("stmt.expr"), 1);
        // Cached runs record spans only for statements actually executed.
        let cache = crate::cache::PrefixCache::default();
        i.run_with_cache(&module, &cache).unwrap();
        i.run_with_cache(&module, &cache).unwrap();
        assert_eq!(reg.histogram_count("stmt.assign"), 2);
        // A disabled collector records nothing.
        let mut quiet = interp();
        let off = Arc::new(lucid_obs::Collector::disabled());
        quiet.obs = Some(Arc::clone(&off));
        quiet.run(&module).unwrap();
        assert_eq!(off.registry().histogram_count("interp.run"), 0);
    }

    #[test]
    fn fuel_budget_trips_with_distinct_kind() {
        let mut i = interp();
        i.budget.fuel = 3;
        let module = parse_module("import pandas as pd\ndf = pd.read_csv('t.csv')\n").unwrap();
        assert_eq!(
            i.run(&module).err(),
            Some(InterpError::Budget(crate::budget::BudgetKind::Fuel))
        );
        // Generous fuel: same script succeeds and reports usage.
        i.budget.fuel = 1_000;
        let (res, usage) = i.run_with_usage(&module);
        assert!(res.is_ok());
        assert!(usage.fuel_used > 2, "statements + expression nodes charge");
        assert!(usage.cells >= 12, "4x3 frame bound");
        assert_eq!(usage.steps, 2);
    }

    #[test]
    fn cells_budget_trips_with_distinct_kind() {
        let mut i = interp();
        i.budget.max_cells = 5;
        let module = parse_module("import pandas as pd\ndf = pd.read_csv('t.csv')\n").unwrap();
        assert_eq!(
            i.run(&module).err(),
            Some(InterpError::Budget(crate::budget::BudgetKind::Cells))
        );
    }

    #[test]
    fn zero_deadline_trips_and_unlimited_never_does() {
        let mut i = interp();
        i.budget.deadline_ms = 0;
        let module = parse_module("import pandas as pd\n").unwrap();
        assert_eq!(
            i.run(&module).err(),
            Some(InterpError::Budget(crate::budget::BudgetKind::Deadline))
        );
        i.budget.deadline_ms = crate::budget::UNLIMITED;
        assert!(i.run(&module).is_ok());
    }

    #[test]
    fn budget_accounting_matches_across_cache_modes() {
        let i = interp();
        let module = parse_module(
            "import pandas as pd\ndf = pd.read_csv('t.csv')\ndf = df.dropna()\n",
        )
        .unwrap();
        let (_, cold) = i.run_with_usage(&module);
        let cache = crate::cache::PrefixCache::default();
        let cached_usage = || {
            let mut state = RunState::fresh(Some(&cache));
            let res = i.run_inner(&module_refs(&module), false, &mut state);
            Interpreter::finish(res, state).1
        };
        let first = cached_usage();
        let resumed = cached_usage();
        assert!(cache.hits() > 0, "second run must resume from a snapshot");
        assert_eq!(cold, first);
        assert_eq!(cold, resumed);
    }

    #[test]
    fn fault_plan_fires_deterministically_and_only_when_untrusted() {
        use crate::budget::{FaultClass, FaultPlan};
        let mut i = interp();
        let module = parse_module("import pandas as pd\ndf = pd.read_csv('t.csv')\n").unwrap();
        i.fault_plan = Some(Arc::new(FaultPlan::new(
            42,
            1.0,
            vec![FaultClass::Value],
        )));
        let first = i.run(&module).err();
        assert!(matches!(first, Some(InterpError::ValueError(_))));
        assert_eq!(i.run(&module).err(), first, "decisions are deterministic");
        let plan = i.fault_plan.as_ref().unwrap();
        assert_eq!(plan.injected(FaultClass::Value), 2);
        // Trusted runs never consult the plan.
        assert!(i.run_trusted(&module).is_ok());
        assert_eq!(plan.injected(FaultClass::Value), 2);
    }

    #[test]
    fn sampling_cap_load_errors_instead_of_panicking() {
        // The sample guard (`n_rows > cap`) makes the inner sample
        // infallible; this pins the typed-error (not panic) contract of
        // the rewritten `load_table`.
        let mut i = interp();
        i.sample_rows = Some(0);
        let out = i.run(&parse_module("import pandas as pd\ndf = pd.read_csv('t.csv')\n").unwrap());
        match out {
            Ok(o) => assert_eq!(o.output_frame().unwrap().n_rows(), 0),
            Err(e) => assert!(matches!(e, InterpError::Frame(_))),
        }
    }

    #[test]
    fn loc_assignment_with_mask() {
        let out = run(
            "import pandas as pd\ndf = pd.read_csv('t.csv')\ndf.loc[df['a'] > 2, 'y'] = 9\n",
        )
        .unwrap();
        let y = out.output_frame().unwrap().column("y").unwrap();
        assert_eq!(y.get(3).unwrap(), Value::Int(9));
        assert_eq!(y.get(0).unwrap(), Value::Int(0));
    }

    #[test]
    fn loc_assignment_with_sampled_index() {
        let out = run(
            "import pandas as pd\ndf = pd.read_csv('t.csv')\nupd = df.sample(2).index\ndf.loc[upd, 'y'] = 5\n",
        )
        .unwrap();
        let y = out.output_frame().unwrap().column("y").unwrap();
        let fives = y.values().iter().filter(|v| **v == Value::Int(5)).count();
        assert_eq!(fives, 2);
    }
}
