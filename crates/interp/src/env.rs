//! The interpreter: registered tables, variable environment, execution of
//! statements, and outcome extraction.

use crate::budget::{Budget, BudgetKind, BudgetUsage, FaultPlan, UNLIMITED};
use crate::error::{InterpError, Result};
use crate::value::{FrameVal, ModuleKind, RtValue};
use lucid_frame::{DataFrame, Value};
use lucid_obs::{Metric, Registry, Timer};
use lucid_pyast::{Expr, Module, Stmt};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Statement budget per run (straight-line scripts are short; this
/// guards against pathological generated scripts).
const MAX_STATEMENTS: usize = 10_000;

/// Executes straight-line scripts against in-memory tables.
///
/// One `Interpreter` holds the *input configuration* (registered tables,
/// seed, sampling, budget). Each [`Interpreter::run`] starts from a fresh
/// variable environment, so the same interpreter can check many candidate
/// scripts. A search runs its candidates on its own clone, which also
/// carries the search's cache view, registry and fault plan.
#[derive(Debug, Clone)]
pub struct Interpreter {
    tables: HashMap<String, DataFrame>,
    /// Seed for `sample`/`train_test_split` when the script does not pass
    /// `random_state`.
    pub seed: u64,
    /// If set, registered tables are row-sampled to at most this many rows
    /// at `read_csv` time — the paper's sampling optimization (§5.2, item 5).
    pub sample_rows: Option<usize>,
    /// Per-run resource budget (fuel / cells / deadline). Unlimited by
    /// default; each axis trips a distinct [`InterpError::Budget`] kind.
    pub budget: Budget,
    /// Deterministic fault-injection plan, consulted before each statement
    /// of every run. `None` (the default) costs nothing. Only a search's
    /// own interpreter carries one, so the user's input never faults.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Optional registry (a traced search's own): when set, every run
    /// times `interp.run`, each executed statement its `stmt.*` row and
    /// each frame kernel its `kernel.*` row. `None` costs nothing on the
    /// hot path.
    pub obs: Option<Arc<Registry>>,
    /// The execution cache every run goes through (a search's own view):
    /// a run resumes from the longest cached statement prefix and
    /// snapshots every prefix it executes. The outcome, budget accounting
    /// included, is the uncached run's (see [`crate::cache`]). `None` runs
    /// cold.
    pub cache: Option<crate::cache::PrefixCache>,
    /// Trains a classifier at its `fit` and scores at its `score`: the
    /// eager model path, kept as the test oracle of the lazy one
    /// ([`crate::naive`]).
    #[cfg(test)]
    pub(crate) eager_models: bool,
}

impl Default for Interpreter {
    fn default() -> Self {
        Interpreter {
            tables: HashMap::new(),
            seed: 7,
            sample_rows: None,
            budget: Budget::unlimited(),
            fault_plan: None,
            obs: None,
            cache: None,
            #[cfg(test)]
            eager_models: false,
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

    /// A variable's value, if bound. A model `score` bound to a name and
    /// never read in the run comes back as its [`RtValue::Deferred`]
    /// handle: nothing is trained or scored outside a run.
    pub fn get(&self, name: &str) -> Option<&RtValue> {
        self.vars.get(name)
    }
}

/// Per-run mutable state: variables, step counter and budget meter.
pub(crate) struct RunState {
    pub vars: HashMap<String, RtValue>,
    pub last_frame_var: Option<String>,
    pub steps: usize,
    /// Fuel charged so far: one unit per evaluated expression node plus
    /// one per statement. Budget-independent (see [`Budget`]).
    pub fuel_used: u64,
    /// Cumulative cells bound into the environment so far.
    pub cells: u64,
}

impl RunState {
    fn fresh() -> Self {
        RunState {
            vars: HashMap::new(),
            last_frame_var: None,
            steps: 0,
            fuel_used: 0,
            cells: 0,
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
        let mut state = RunState::fresh();
        let res = self.run_inner(&module_refs(module), &mut state);
        Self::finish(res, state)
    }

    /// [`Interpreter::run`] over shared statements with precomputed
    /// structural hashes — the interned-IR hot path: no statement is
    /// cloned or re-hashed to derive cache keys or fault decisions.
    ///
    /// # Errors
    ///
    /// Exactly the errors [`Interpreter::run`] reports.
    pub fn run_shared(&self, stmts: &[StmtRef<'_>]) -> Result<ExecOutcome> {
        let mut state = RunState::fresh();
        let res = self.run_inner(stmts, &mut state);
        Self::finish(res, state).0
    }

    fn finish(res: Result<()>, state: RunState) -> (Result<ExecOutcome>, BudgetUsage) {
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

    /// The single governed execution loop behind every `run*` entry point:
    /// optional prefix-cache resume (through [`Interpreter::cache`]),
    /// statement cap, budget metering, fault injection, span recording.
    /// Prefixes executed before a failing statement are still cached:
    /// candidates that fail late make their siblings cheaper.
    fn run_inner(&self, stmts: &[StmtRef<'_>], state: &mut RunState) -> Result<()> {
        // Allocator attribution: every interpreter execution — candidate
        // checks, verification runs, the user's own script — counts as
        // the Execute phase, overriding any outer search-phase tag for
        // the duration of the run.
        let _mem = lucid_obs::alloc::PhaseGuard::enter(lucid_obs::alloc::Phase::Execute);
        let cache = self.cache.as_ref();
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
        let _run = self.time(Metric::InterpRun);
        for (i, sref) in stmts.iter().enumerate().skip(state.steps) {
            state.steps += 1;
            if state.steps > MAX_STATEMENTS {
                return Err(InterpError::BudgetExhausted);
            }
            state.charge_fuel(1, &self.budget)?;
            if let Some(start) = started {
                if start.elapsed().as_millis() as u64 >= self.budget.deadline_ms {
                    return Err(InterpError::Budget(BudgetKind::Deadline));
                }
            }
            if let Some(plan) = &self.fault_plan {
                plan.check(i, sref.hash)?;
            }
            let _stmt = self.time(stmt_metric(sref.stmt));
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

    /// Times `metric` into the attached registry; `None` (no clock read)
    /// when none is attached.
    pub(crate) fn time(&self, metric: Metric) -> Option<Timer> {
        self.obs.as_deref().map(|reg| reg.time(metric))
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
                // The value is evaluated once and dropped, so a deferred
                // score stays unforced — except for the in-place mutation
                // idiom `df.dropna(inplace=True)`, whose frame or series
                // result is assigned back to the receiver variable.
                let result = self.eval_lazy(value, state)?;
                if let Some(var) = inplace_receiver(value) {
                    if matches!(result, RtValue::Frame(_) | RtValue::Series(_)) {
                        self.bind(var.to_string(), result, state);
                    }
                }
                Ok(())
            }
        }
    }

    fn exec_assign(&self, target: &Expr, value: &Expr, state: &mut RunState) -> Result<()> {
        match target {
            Expr::Name(name) => {
                let v = self.eval_lazy(value, state)?;
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

/// The metric a statement's execution is timed under.
fn stmt_metric(stmt: &Stmt) -> Metric {
    match stmt {
        Stmt::Import { .. } => Metric::StmtImport,
        Stmt::FromImport { .. } => Metric::StmtFromImport,
        Stmt::Assign { .. } => Metric::StmtAssign,
        Stmt::ExprStmt { .. } => Metric::StmtExpr,
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

/// The receiver `var` of an expression statement
/// `var.method(..., inplace=True)`, if the statement has that shape.
fn inplace_receiver(expr: &Expr) -> Option<&str> {
    let Expr::Call { func, args } = expr else {
        return None;
    };
    let Expr::Attribute { value, .. } = &**func else {
        return None;
    };
    let Expr::Name(var) = &**value else {
        return None;
    };
    args.iter()
        .any(|a| a.name.as_deref() == Some("inplace") && matches!(a.value, Expr::Bool(true)))
        .then_some(var.as_str())
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
    fn runs_time_statements_when_a_registry_is_attached() {
        let mut i = interp();
        let reg = Arc::new(Registry::traced());
        i.obs = Some(Arc::clone(&reg));
        let module =
            parse_module("import pandas as pd\ndf = pd.read_csv('t.csv')\ndf.head(1)\n").unwrap();
        i.run(&module).unwrap();
        assert_eq!(reg.histogram_count(Metric::InterpRun), 1);
        assert_eq!(reg.histogram_count(Metric::StmtImport), 1);
        assert_eq!(reg.histogram_count(Metric::StmtAssign), 1);
        assert_eq!(reg.histogram_count(Metric::StmtExpr), 1);
        // Statements nest under their run.
        let spans = reg.spans();
        assert_eq!(spans[0].name, "interp.run");
        assert!(spans[1..].iter().all(|s| s.parent == Some(spans[0].id)));
        // Cached runs time only the statements actually executed.
        i.cache = Some(crate::cache::PrefixCache::default());
        i.run(&module).unwrap();
        i.run(&module).unwrap();
        assert_eq!(reg.histogram_count(Metric::StmtAssign), 2);
    }

    #[test]
    fn times_model_fits_and_predictions_when_a_registry_is_attached() {
        let script = |tail: &str| {
            parse_module(&format!(
                "import pandas as pd\n\
                 from sklearn.linear_model import LogisticRegression\n\
                 df = pd.read_csv('t.csv')\n\
                 X = df[['a']]\n\
                 y = df['y']\n\
                 model = LogisticRegression()\n\
                 model = model.fit(X, y)\n\
                 acc = model.score(X, y)\n\
                 {tail}\n"
            ))
            .unwrap()
        };
        let counts = |reg: &Registry| {
            (
                reg.histogram_count(Metric::KernelFit),
                reg.histogram_count(Metric::KernelPredict),
            )
        };
        // An unread `fit` plus `score` trains and predicts nothing.
        let mut i = interp();
        let reg = Arc::new(Registry::traced());
        i.obs = Some(Arc::clone(&reg));
        let out = i.run(&script("")).unwrap();
        assert!(matches!(out.get("acc"), Some(RtValue::Deferred(_))));
        assert_eq!(counts(&reg), (0, 0));
        // So does a `score` whose value a statement drops.
        i.run(&script("model.score(X, y)
model.score(X, y, inplace=True)"))
            .unwrap();
        assert_eq!(counts(&reg), (0, 0));
        // Reading `acc` trains once and scores once.
        i.run(&script("r = acc + 1")).unwrap();
        assert_eq!(counts(&reg), (1, 1));
        // `predict` trains too; the read score then reuses the weights.
        i.run(&script("p = model.predict(X)\nr = acc + 1")).unwrap();
        assert_eq!(counts(&reg), (2, 3));
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
        // An in-place call whose result is neither a frame nor a series is
        // evaluated once: it charges its keyword's node and no more.
        let fuel = |src: &str| i.run_with_usage(&parse_module(src).unwrap()).1.fuel_used;
        let head = "import pandas as pd\ndf = pd.read_csv('t.csv')\ny = df['a']\n";
        assert_eq!(fuel(&format!("{head}y.sum()\n")), 12);
        assert_eq!(fuel(&format!("{head}y.sum(inplace=True)\n")), 13);
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
        let mut i = interp();
        let module = parse_module(
            "import pandas as pd\ndf = pd.read_csv('t.csv')\ndf = df.dropna()\n",
        )
        .unwrap();
        let (_, cold) = i.run_with_usage(&module);
        let cache = crate::cache::PrefixCache::default();
        i.cache = Some(cache.clone());
        let first = i.run_with_usage(&module).1;
        let resumed = i.run_with_usage(&module).1;
        assert!(cache.hits() > 0, "second run must resume from a snapshot");
        assert_eq!(cold, first);
        assert_eq!(cold, resumed);
    }

    #[test]
    fn fault_plan_fires_deterministically() {
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
        let fives = lucid_frame::naive::naive_values(y)
            .iter()
            .filter(|v| **v == Value::Int(5))
            .count();
        assert_eq!(fives, 2);
    }
}
