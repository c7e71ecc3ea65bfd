//! Workspace-level property tests: invariants that must hold for *any*
//! script the generators produce.

use lucidscript::core::batch::{script_fingerprint, standardize_corpus, BatchOptions, BatchScript};
use lucidscript::core::config::SearchConfig;
use lucidscript::core::dag::{build_dag, ScriptDag};
use lucidscript::core::entropy::{relative_entropy, relative_entropy_atoms};
use lucidscript::core::intent::IntentMeasure;
use lucidscript::core::ir::{Program, StmtInterner};
use lucidscript::core::lemma::lemmatize;
use lucidscript::core::standardizer::Standardizer;
use lucidscript::core::oracle;
use lucidscript::core::transform::{
    enumerate, enumerate_transformations, EnumOptions, Transformation,
};
use lucidscript::core::vocab::CorpusModel;
use lucidscript::corpus::script_gen::generate_script;
use lucidscript::corpus::Profile;
use lucidscript::frame::groupby::{group_agg, AggFn};
use lucidscript::frame::jaccard::{row_jaccard, value_jaccard};
use lucidscript::frame::naive;
use lucidscript::frame::ops::{arith, compare, ArithOp, CmpOp, Operand};
use lucidscript::frame::{Column, DataFrame, Value};
use lucidscript::interp::{Budget, BudgetKind, Interpreter, InterpError, UNLIMITED};
use lucidscript::pyast::{parse_module, print_module, Module};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every generated script (any seed) parses, lemmatizes to a fixed
    /// point, and round-trips through the printer.
    #[test]
    fn generated_scripts_are_well_formed(seed in 0u64..10_000) {
        let profile = Profile::medical();
        let meta = generate_script(&profile, seed);
        let module = parse_module(&meta.source).expect("parses");
        let lem = lemmatize(&module);
        prop_assert!(lem.same_code(&lemmatize(&lem)), "lemmatization not idempotent");
        let printed = print_module(&lem);
        prop_assert!(parse_module(&printed).is_ok());
    }

    /// Relative entropy is finite and non-negative for any generated
    /// script against any generated corpus.
    #[test]
    fn re_is_total(seed in 0u64..5_000) {
        let profile = Profile::titanic();
        let corpus: Vec<String> = profile
            .generate_corpus(seed % 17)
            .into_iter()
            .take(10)
            .map(|s| s.source)
            .collect();
        let model = CorpusModel::build_from_sources(&corpus).expect("nonempty");
        let script = generate_script(&profile, seed);
        let dag = build_dag(&lemmatize(&parse_module(&script.source).expect("parses")));
        let re = relative_entropy(&dag, &model);
        prop_assert!(re.is_finite());
        prop_assert!(re >= 0.0);
    }

    /// Every enumerated transformation applies cleanly and the result
    /// still parses and prints.
    #[test]
    fn transformations_apply_cleanly(seed in 0u64..2_000) {
        let profile = Profile::medical();
        let corpus: Vec<String> = profile
            .generate_corpus(3)
            .into_iter()
            .take(12)
            .map(|s| s.source)
            .collect();
        let model = CorpusModel::build_from_sources(&corpus).expect("nonempty");
        let script = generate_script(&profile, seed);
        let module = lemmatize(&parse_module(&script.source).expect("parses"));
        let dag = build_dag(&module);
        let ts = enumerate_transformations(&dag, &model, 0, &EnumOptions::default());
        for t in ts.iter().take(40) {
            let out = oracle::apply(t, &module).expect("applies");
            let printed = print_module(&out);
            prop_assert!(parse_module(&printed).is_ok(), "unparsable after {t:?}");
        }
    }
}

proptest! {
    // Full standardization is expensive; a handful of cases suffices.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For any generated user script, standardization output executes and
    /// never reduces standardness.
    #[test]
    fn standardizer_invariants_hold(seed in 0u64..500) {
        let profile = Profile::medical();
        let data = profile.generate_data(seed, 0.1);
        let corpus: Vec<String> = profile
            .generate_corpus(seed ^ 1)
            .into_iter()
            .take(15)
            .map(|s| s.source)
            .collect();
        let config = SearchConfig {
            seq_len: 3,
            beam_k: 2,
            intent: IntentMeasure::jaccard(0.6),
            sample_rows: Some(120),
            ..SearchConfig::default()
        };
        let std = Standardizer::build(&corpus, profile.file, data.clone(), config)
            .expect("builds");
        let user = generate_script(&profile, seed ^ 2);
        let report = std.standardize_source(&user.source).expect("corpus scripts run");
        prop_assert!(report.improvement_pct >= -1e-9);
        let mut interp = Interpreter::new();
        interp.register_table(profile.file, data);
        let out = parse_module(&report.output_source).expect("parses");
        prop_assert!(interp.check_executes(&out));
    }
}

proptest! {
    // Full batch searches are expensive; a few seeds suffice.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// End-to-end memo semantics under perturbation: a byte-identical
    /// duplicate hits the memo, a perturbed variant misses and gets a
    /// fresh search whose result equals an independent single-script run.
    #[test]
    fn memo_miss_runs_a_fresh_identical_search(seed in 0u64..200) {
        let profile = Profile::medical();
        let data = profile.generate_data(seed % 13, 0.1);
        let base = generate_script(&profile, seed);
        let variant = format!("{}df = df.drop_duplicates()\n", base.source);
        let scripts = vec![
            BatchScript::new("base.py", base.source.clone()),
            BatchScript::new("dup.py", base.source.clone()),
            BatchScript::new("variant.py", variant.clone()),
        ];
        let config = SearchConfig {
            seq_len: 2,
            beam_k: 1,
            diversity: false,
            intent: IntentMeasure::jaccard(0.5),
            sample_rows: Some(120),
            ..SearchConfig::default()
        };
        let opts = BatchOptions { jobs: 1, memo: true, ..BatchOptions::default() };
        let report = standardize_corpus(&scripts, profile.file, data.clone(), config.clone(), &opts)
            .expect("batch runs");
        prop_assert_eq!(report.memo_hits, 1, "only the duplicate hits");
        prop_assert_eq!(report.memo_misses, 2, "base and variant each searched");
        prop_assert!(report.scripts[1].memo_hit);
        prop_assert!(!report.scripts[2].memo_hit);

        // The variant's fresh search equals an independent run against
        // the same corpus.
        let sources: Vec<String> = scripts.iter().map(|s| s.source.clone()).collect();
        let solo = Standardizer::build(&sources, profile.file, data, config)
            .expect("builds")
            .standardize_source(&variant)
            .expect("runs");
        let batch_variant = report.scripts[2].outcome.as_ref().expect("variant standardizes");
        prop_assert_eq!(&batch_variant.output_source, &solo.output_source);
        prop_assert!((batch_variant.re_after - solo.re_after).abs() < 1e-15);
    }
}

/// A generated script plus an interpreter that can run it, for the
/// budget properties below.
fn budgeted_setup(seed: u64) -> (Interpreter, Module) {
    let profile = Profile::medical();
    let mut interp = Interpreter::new();
    interp.register_table(profile.file, profile.generate_data(seed % 13, 0.05));
    interp.sample_rows = Some(120);
    let script = generate_script(&profile, seed);
    let module = lemmatize(&parse_module(&script.source).expect("parses"));
    (interp, module)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Remaining fuel is monotone: running one more statement never
    /// consumes less total fuel. (Checked via the reported usage of each
    /// statement prefix — `fuel_used` must be non-decreasing in prefix
    /// length, and so must `cells`.)
    #[test]
    fn fuel_consumption_is_monotone_across_statements(seed in 0u64..10_000) {
        let (interp, module) = budgeted_setup(seed);
        let mut prev = lucidscript::interp::BudgetUsage::default();
        for len in 0..=module.stmts.len() {
            let prefix = Module { stmts: module.stmts[..len].to_vec() };
            let (_, usage) = interp.run_with_usage(&prefix);
            prop_assert!(
                usage.fuel_used >= prev.fuel_used,
                "fuel shrank from {} to {} at prefix {len}",
                prev.fuel_used,
                usage.fuel_used
            );
            prop_assert!(usage.cells >= prev.cells);
            prev = usage;
        }
    }

    /// Cap monotonicity: if a run trips the cell budget at cap `C`, it
    /// trips at every cap below `C` too (cell accounting does not depend
    /// on the cap).
    #[test]
    fn cell_cap_trips_are_monotone(seed in 0u64..10_000) {
        let (mut interp, module) = budgeted_setup(seed);
        let (_, usage) = interp.run_with_usage(&module);
        if usage.cells == 0 {
            return Ok(());
        }
        // The smallest tripping cap is cells-1 (the check is `>`): verify
        // a sweep of caps at and below it all trip, and the exact-usage
        // cap does not.
        let tripping_cap = usage.cells - 1;
        for cap in [0, tripping_cap / 2, tripping_cap] {
            interp.budget = Budget { max_cells: cap, ..Budget::unlimited() };
            prop_assert_eq!(
                interp.run(&module).err(),
                Some(InterpError::Budget(BudgetKind::Cells)),
                "cap {} below usage {} must trip",
                cap,
                usage.cells
            );
        }
        interp.budget = Budget { max_cells: usage.cells, ..Budget::unlimited() };
        prop_assert!(!matches!(
            interp.run(&module).err(),
            Some(InterpError::Budget(BudgetKind::Cells))
        ));
    }

    /// An unlimited deadline never trips — by construction the clock is
    /// not even read.
    #[test]
    fn unlimited_deadline_never_trips(seed in 0u64..10_000) {
        let (mut interp, module) = budgeted_setup(seed);
        interp.budget = Budget { deadline_ms: UNLIMITED, ..Budget::unlimited() };
        prop_assert!(!matches!(
            interp.run(&module).err(),
            Some(InterpError::Budget(BudgetKind::Deadline))
        ));
    }

    /// Frame Jaccard measures are proper similarities: in [0, 1],
    /// symmetric, and 1 on identical frames.
    #[test]
    fn frame_jaccard_is_bounded_and_symmetric(seed in 0u64..10_000) {
        let profile = Profile::titanic();
        let a = profile.generate_data(seed % 31, 0.05);
        let b = profile.generate_data((seed / 31) % 29, 0.05);
        for j in [value_jaccard(&a, &b), row_jaccard(&a, &b)] {
            prop_assert!((0.0..=1.0).contains(&j), "out of range: {j}");
        }
        prop_assert_eq!(value_jaccard(&a, &b), value_jaccard(&b, &a));
        prop_assert_eq!(row_jaccard(&a, &b), row_jaccard(&b, &a));
        prop_assert!((value_jaccard(&a, &a) - 1.0).abs() < 1e-12);
        prop_assert!((row_jaccard(&a, &a) - 1.0).abs() < 1e-12);
    }
}

/// A random scalar, deliberately including the hostile cases: `Null`,
/// `NaN` (which the columnar layout canonicalizes to null), empty
/// strings, and values straddling the Int/Float key boundary.
fn arb_scalar() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Null),
        (-20i64..20).prop_map(Value::Int),
        prop_oneof![-100.0..100.0f64, Just(f64::NAN), Just(3.0)].prop_map(Value::Float),
        prop::sample::select(vec!["a", "b", "zz", ""]).prop_map(|s| Value::Str(s.to_string())),
        any::<bool>().prop_map(Value::Bool),
    ]
    .boxed()
}

/// A random column of exactly `n` rows, any dtype, ~half nulls. Small
/// domains on purpose: collisions (repeated categories, equal numbers)
/// are where dictionary codes and bitmap kernels can diverge from the
/// per-cell reference.
fn arb_col(n: usize) -> BoxedStrategy<Column> {
    use prop::collection::vec;
    use prop::option;
    prop_oneof![
        vec(option::of(-20i64..20), n..=n).prop_map(Column::from_ints),
        vec(option::of(prop_oneof![-100.0..100.0f64, Just(3.0)]), n..=n)
            .prop_map(Column::from_floats),
        vec(
            option::of(prop::sample::select(vec!["a", "b", "zz", ""]).prop_map(String::from)),
            n..=n
        )
        .prop_map(Column::from_strs),
        vec(option::of(any::<bool>()), n..=n).prop_map(Column::from_bools),
    ]
    .boxed()
}

/// A scalar-or-column right-hand side for the binary kernels (owned, so
/// it can flow through a strategy; borrowed into [`Operand`] per case).
#[derive(Debug, Clone)]
enum RhsSpec {
    Scalar(Value),
    Col(Column),
}

fn arb_rhs(n: usize) -> BoxedStrategy<RhsSpec> {
    prop_oneof![
        arb_scalar().prop_map(RhsSpec::Scalar),
        arb_col(n).prop_map(RhsSpec::Col),
    ]
    .boxed()
}

proptest! {
    // The typed bitmap/dictionary kernels must be *value-identical* to
    // the per-cell reference in `frame::naive` — same outputs on the
    // same inputs, same error on the same first offending row.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Column::fill_na` agrees with the per-cell reference on any
    /// column × any fill scalar, including dtype-mismatch errors.
    #[test]
    fn fillna_kernel_matches_naive(
        (col, fill) in (0usize..24).prop_flat_map(|n| (arb_col(n), arb_scalar()))
    ) {
        match (col.fill_na(&fill), naive::naive_fill_na(&col, &fill)) {
            (Ok(k), Ok(reference)) => prop_assert_eq!(k.values(), reference),
            (Err(k), Err(reference)) => prop_assert_eq!(k.to_string(), reference.to_string()),
            (k, reference) => panic!("kernel {k:?} disagrees with reference {reference:?}"),
        }
    }

    /// `ops::compare` agrees with the per-cell reference for every
    /// operator × column × scalar-or-column right-hand side.
    #[test]
    fn compare_kernel_matches_naive(
        (col, rhs, op) in (0usize..24).prop_flat_map(|n| (
            arb_col(n),
            arb_rhs(n),
            prop::sample::select(vec![CmpOp::Lt, CmpOp::Gt, CmpOp::Le, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne]),
        ))
    ) {
        let operand = match &rhs {
            RhsSpec::Scalar(v) => Operand::Scalar(v.clone()),
            RhsSpec::Col(c) => Operand::Column(c),
        };
        match (compare(&col, op, &operand), naive::naive_compare(&col, op, &operand)) {
            (Ok(k), Ok(reference)) => prop_assert_eq!(k.bits(), reference),
            (Err(k), Err(reference)) => prop_assert_eq!(k.to_string(), reference.to_string()),
            (k, reference) => panic!("kernel {k:?} disagrees with reference {reference:?}"),
        }
    }

    /// `ops::arith` agrees with the per-cell reference — including the
    /// string-concat special case, keep-int typing, NaN→null
    /// canonicalization, and the per-row error precedence.
    #[test]
    fn arith_kernel_matches_naive(
        (col, rhs, op) in (0usize..24).prop_flat_map(|n| (
            arb_col(n),
            arb_rhs(n),
            prop::sample::select(vec![
                ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div,
                ArithOp::FloorDiv, ArithOp::Mod, ArithOp::Pow,
            ]),
        ))
    ) {
        let operand = match &rhs {
            RhsSpec::Scalar(v) => Operand::Scalar(v.clone()),
            RhsSpec::Col(c) => Operand::Column(c),
        };
        match (arith(&col, op, &operand), naive::naive_arith(&col, op, &operand)) {
            (Ok(k), Ok(reference)) => prop_assert_eq!(k.values(), reference),
            (Err(k), Err(reference)) => prop_assert_eq!(k.to_string(), reference.to_string()),
            (k, reference) => panic!("kernel {k:?} disagrees with reference {reference:?}"),
        }
    }

    /// `DataFrame::get_dummies` (the dictionary-code fast path for
    /// string columns) produces exactly the reference categories, in
    /// order, with identical indicator bits.
    #[test]
    fn get_dummies_kernel_matches_naive(
        (col, drop_first) in (0usize..24).prop_flat_map(|n| (arb_col(n), any::<bool>()))
    ) {
        let df = DataFrame::from_columns(vec![("c", col.clone())]).expect("one column");
        let out = df.get_dummies(Some(&["c".to_string()]), drop_first).expect("encodes");
        let reference = naive::naive_get_dummies(&col, drop_first);
        prop_assert_eq!(out.n_cols(), reference.len());
        for (i, (name, dummy)) in out.iter().enumerate() {
            let (cat, bits) = &reference[i];
            prop_assert_eq!(name, format!("c_{cat}").as_str());
            let expected: Vec<Value> = bits.iter().map(|&b| Value::Int(b)).collect();
            prop_assert_eq!(dummy.values(), expected);
        }
    }

    /// `groupby::group_agg` agrees with the per-cell reference: same
    /// groups in first-seen order, same key values, same aggregates —
    /// for every aggregation function and any key/value dtype combo.
    #[test]
    fn groupby_kernel_matches_naive(
        (key, val, agg) in (1usize..24).prop_flat_map(|n| (
            arb_col(n),
            arb_col(n),
            prop::sample::select(vec![
                AggFn::Mean, AggFn::Sum, AggFn::Count, AggFn::Min, AggFn::Max, AggFn::Median,
            ]),
        ))
    ) {
        let df = DataFrame::from_columns(vec![("k", key), ("v", val)]).expect("two columns");
        let out = group_agg(&df, &["k"], "v", agg).expect("aggregates");
        let reference = naive::naive_group_agg(&df, &["k"], "v", agg).expect("aggregates");
        prop_assert_eq!(out.n_rows(), reference.len());
        let key_col = out.column("k").expect("key column");
        let agg_col = out.column("v").expect("agg column");
        for (i, (key_vals, aggregate)) in reference.iter().enumerate() {
            prop_assert_eq!(&key_col.get(i).expect("in bounds"), &key_vals[0]);
            prop_assert_eq!(&agg_col.get(i).expect("in bounds"), aggregate);
        }
    }

    /// The columnar Δ_J (pool-deduplicated string sets, typed numeric
    /// loops) equals the per-cell set construction bit-for-bit.
    #[test]
    fn value_jaccard_kernel_matches_naive(
        (a1, a2, b1, b2) in (1usize..16, 1usize..16).prop_flat_map(|(n, m)| (
            arb_col(n), arb_col(n), arb_col(m), arb_col(m),
        ))
    ) {
        let a = DataFrame::from_columns(vec![("x", a1), ("y", a2)]).expect("frame a");
        let b = DataFrame::from_columns(vec![("x", b1), ("y", b2)]).expect("frame b");
        prop_assert_eq!(value_jaccard(&a, &b), naive::naive_value_jaccard(&a, &b));
    }

    /// The hashed `drop_duplicates` keeps exactly the rows the per-row
    /// `ValueKey` reference keeps, over mixed dtypes, nulls, NaN (null),
    /// and signed zeros. Small domains make duplicates common.
    #[test]
    fn drop_duplicates_kernel_matches_naive(
        (a, b, c, zeros) in (0usize..24).prop_flat_map(|n| (
            arb_col(n),
            arb_col(n),
            arb_col(n),
            prop::collection::vec(prop::option::of(prop_oneof![
                Just(0.0f64), Just(-0.0), Just(f64::NAN), Just(1.5)
            ]), n..=n),
        ))
    ) {
        let df = DataFrame::from_columns(vec![
            ("a", a),
            ("b", b),
            ("c", c),
            ("z", Column::from_floats(zeros)),
        ])
        .expect("equal lengths");
        prop_assert_eq!(df.drop_duplicates(), naive::naive_drop_duplicates(&df));
        let single = df.select(&["z"]).expect("column z");
        prop_assert_eq!(single.drop_duplicates(), naive::naive_drop_duplicates(&single));
    }
}

/// A training set for the logistic-regression kernel: `n` rows × `d`
/// columns drawn from a small value set with ±0.0 and repeats, and labels
/// with up to four classes (multiclass trains one head per class).
fn arb_training_set() -> BoxedStrategy<(Vec<f64>, usize, usize, Vec<u32>)> {
    (1usize..23, 1usize..6, 1u32..5)
        .prop_flat_map(|(n, d, k)| {
            (
                prop::collection::vec(
                    prop_oneof![Just(0.0f64), Just(-0.0), -3.0..3.0f64, Just(1.0)],
                    n * d..=n * d,
                ),
                Just(n),
                Just(d),
                prop::collection::vec(0..k, n..=n),
            )
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The row-blocked gradient-descent kernel trains bit-identical
    /// weights to the one-row-at-a-time reference for any shape —
    /// `n % 4 != 0`, a single column, signed zeros, binary and
    /// one-vs-rest multiclass labels.
    #[test]
    fn blocked_logreg_kernel_matches_naive_bit_for_bit(
        (data, n, d, y) in arb_training_set(),
        epochs in 1usize..40,
    ) {
        let x = lucidscript::ml::matrix::Matrix::from_vec(n, d, data);
        let lr = lucidscript::ml::LogisticRegression { epochs, ..Default::default() };
        let kernel = lr.fit(&x, &y).expect("fits");
        let reference = lucidscript::ml::naive::naive_fit(&lr, &x, &y).expect("fits");
        prop_assert!(kernel.bit_eq(&reference), "{kernel:?} vs {reference:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Interning a script and converting back is lossless: the printed
    /// source is byte-identical to printing the original module.
    #[test]
    fn interned_programs_print_identically(seed in 0u64..10_000) {
        let profile = Profile::medical();
        let script = generate_script(&profile, seed);
        let module = lemmatize(&parse_module(&script.source).expect("parses"));
        let interner = StmtInterner::new();
        let program = Program::from_module(&module, &interner);
        prop_assert_eq!(print_module(&program.to_module()), print_module(&module));
    }

    /// The batch memo groups scripts by fingerprint, so the fingerprint
    /// must see through formatting: reformatting a script leaves it
    /// intact, while any structural edit moves it.
    #[test]
    fn script_fingerprint_ignores_formatting_but_not_structure(seed in 0u64..10_000) {
        let profile = Profile::medical();
        let script = generate_script(&profile, seed);
        let module = parse_module(&script.source).expect("parses");

        // Pure reformatting (added blank lines) parses to the same
        // structure and therefore the same script fingerprint.
        let respaced = format!("\n{}\n\n", script.source);
        prop_assert_eq!(
            script_fingerprint(&module),
            script_fingerprint(&parse_module(&respaced).expect("parses"))
        );
        // A structural change moves it.
        let extended = parse_module(&format!("{}df = df.drop_duplicates()\n", script.source))
            .expect("parses");
        prop_assert_ne!(script_fingerprint(&module), script_fingerprint(&extended));
    }

    /// The splice-based `apply_ir` agrees with the legacy module-cloning
    /// `apply` across random transformation sequences, and the
    /// incrementally-maintained DAG equals a full rebuild at every step.
    #[test]
    fn splice_apply_and_incremental_dag_match_legacy(seed in 0u64..2_000) {
        let profile = Profile::medical();
        let corpus: Vec<String> = profile
            .generate_corpus(3)
            .into_iter()
            .take(12)
            .map(|s| s.source)
            .collect();
        let model = CorpusModel::build_from_sources(&corpus).expect("nonempty");
        let script = generate_script(&profile, seed);
        let mut module = lemmatize(&parse_module(&script.source).expect("parses"));
        let interner = StmtInterner::new();
        let mut program = Program::from_module(&module, &interner);
        let mut dag = program.full_dag();
        for k in 0..4usize {
            let ts = enumerate_transformations(
                &build_dag(&module),
                &model,
                0,
                &EnumOptions::default(),
            );
            if ts.is_empty() {
                break;
            }
            let t = &ts[(seed as usize).wrapping_add(k.wrapping_mul(7)) % ts.len()];
            module = oracle::apply(t, &module).expect("legacy applies");
            program = t.apply_ir(&program, &interner).expect("ir applies");
            prop_assert!(
                program.to_module().same_code(&module),
                "diverged after {t:?}"
            );
            dag = program.update_dag(&dag, t.line, &interner);
            prop_assert_eq!(&dag, &build_dag(&program.to_module()), "dag after {:?}", t);
        }
        prop_assert!(interner.dag_incremental_updates() <= 4);
    }
}

/// Atom pool for random DAGs: every atom of `model`, plus unseen variants
/// that sort right after a corpus atom — several per corpus atom, so
/// groups of unseen atoms share a lower bound and only their text can
/// order them.
fn atom_pool(model: &CorpusModel) -> Vec<std::sync::Arc<str>> {
    let mut pool: Vec<std::sync::Arc<str>> = model.atoms().to_vec();
    for (i, atom) in model.atoms().iter().enumerate().step_by(3) {
        for suffix in ["0", "1", "a", &i.to_string()] {
            pool.push(format!("{atom}{suffix}").into());
        }
    }
    pool.push("a = 1".into());
    pool.push("zzz = 1".into());
    pool
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Integer-keyed RE (over edges and over atoms) equals the
    /// string-keyed oracle bit for bit on random corpora and random DAGs:
    /// repeated atoms and repeated edges, edge-free scripts, and unseen
    /// atoms sharing a lower bound.
    #[test]
    fn integer_re_matches_string_oracle_bit_for_bit(
        corpus_seed in 0u64..40,
        picks in proptest::collection::vec(0usize..10_000, 0..14),
        edge_picks in proptest::collection::vec((0usize..1_000, 0usize..1_000), 0..30),
    ) {
        let profile = if corpus_seed % 2 == 0 { Profile::titanic() } else { Profile::medical() };
        let corpus: Vec<String> = profile
            .generate_corpus(corpus_seed)
            .into_iter()
            .take(8)
            .map(|s| s.source)
            .collect();
        let model = CorpusModel::build_from_sources(&corpus).expect("nonempty");
        let pool = atom_pool(&model);
        let atoms: Vec<std::sync::Arc<str>> =
            picks.iter().map(|&p| pool[p % pool.len()].clone()).collect();
        let edge_positions = if atoms.is_empty() {
            Vec::new()
        } else {
            edge_picks.iter().map(|&(i, j)| (i % atoms.len(), j % atoms.len())).collect()
        };
        let dag = ScriptDag { atoms, edge_positions };
        prop_assert_eq!(
            relative_entropy(&dag, &model).to_bits(),
            oracle::relative_entropy(&dag, &model).to_bits(),
            "{:?}", dag
        );
        prop_assert_eq!(
            relative_entropy_atoms(&dag, &model).to_bits(),
            oracle::relative_entropy_atoms(&dag, &model).to_bits(),
            "{:?}", dag
        );
    }

    /// The same on real scripts: generated user scripts against generated
    /// corpora, through the interned IR the search uses.
    #[test]
    fn integer_re_matches_oracle_on_generated_scripts(seed in 0u64..5_000) {
        let profile = Profile::titanic();
        let corpus: Vec<String> = profile
            .generate_corpus(seed % 13)
            .into_iter()
            .take(10)
            .map(|s| s.source)
            .collect();
        let model = CorpusModel::build_from_sources(&corpus).expect("nonempty");
        let script = generate_script(&profile, seed);
        let module = lemmatize(&parse_module(&script.source).expect("parses"));
        let dag = Program::from_module(&module, &StmtInterner::new()).full_dag();
        prop_assert_eq!(
            relative_entropy(&dag, &model).to_bits(),
            oracle::relative_entropy(&dag, &model).to_bits()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The ID-keyed enumerator returns the string enumerator's kept and
    /// cursor-pruned transformations in the same order, along random
    /// transformation sequences.
    #[test]
    fn id_enumerator_matches_string_oracle(seed in 0u64..2_000, cursor_pick in 0usize..64) {
        let profile = if seed % 2 == 0 { Profile::medical() } else { Profile::titanic() };
        let corpus: Vec<String> = profile
            .generate_corpus(seed % 7)
            .into_iter()
            .take(12)
            .map(|s| s.source)
            .collect();
        let model = CorpusModel::build_from_sources(&corpus).expect("nonempty");
        let script = generate_script(&profile, seed);
        let module = lemmatize(&parse_module(&script.source).expect("parses"));
        let interner = StmtInterner::new();
        let mut program = Program::from_module(&module, &interner);
        let mut dag = program.full_dag();
        let opts = EnumOptions::default();
        for k in 0..3usize {
            let cursor = cursor_pick.wrapping_mul(k + 1) % (dag.atoms.len() + 2);
            let got = enumerate(&dag, &model, cursor, &opts);
            let want = oracle::enumerate(&dag, &model, cursor, &opts);
            let described = |ts: &[Transformation]| -> Vec<String> {
                ts.iter().map(|t| t.describe()).collect()
            };
            prop_assert_eq!(described(&got.kept), described(&want.kept), "kept, cursor {}", cursor);
            prop_assert_eq!(described(&got.pruned), described(&want.pruned), "pruned, cursor {}", cursor);
            // Handles compare by text, so ID-carrying and ID-less adds agree.
            prop_assert_eq!(&got, &want);
            let ts = got.kept;
            if ts.is_empty() {
                break;
            }
            let t = &ts[(seed as usize).wrapping_add(k * 7) % ts.len()];
            program = t.apply_ir(&program, &interner).expect("applies");
            dag = program.update_dag(&dag, t.line, &interner);
        }
    }
}

/// Unseen atoms that fall between the same two corpus atoms get the same
/// integer rank; their text must still order the edges exactly as the
/// string-keyed definition sums them.
#[test]
fn unseen_atoms_between_the_same_corpus_atoms_keep_text_order() {
    let model = CorpusModel::build_from_sources(&[
        "import pandas as pd\ndf = pd.read_csv('t.csv')\ndf = df.fillna(0)\ndf = pd.get_dummies(df)\n",
        "import pandas as pd\ndf = pd.read_csv('t.csv')\ndf = df.dropna()\ndf = pd.get_dummies(df)\n",
    ])
    .unwrap();
    // Three unseen atoms strictly between `df = df.dropna()` and
    // `df = df.fillna(0)`, listed out of text order.
    let unseen = ["df = df.ffill()", "df = df.dropna(how='all')", "df = df.dropna(axis=1)"];
    let lb = |a: &str| model.atoms().partition_point(|c| **c < *a);
    assert!(unseen.iter().all(|a| model.atom_id(a).is_none() && lb(a) == lb(unseen[0])));
    let known = "df = pd.read_csv('t.csv')";
    let atoms: Vec<std::sync::Arc<str>> = [known, unseen[0], unseen[1], unseen[2], "df = df.fillna(0)"]
        .iter()
        .map(|&a| a.into())
        .collect();
    // Edges into, out of and between the unseen atoms, one repeated.
    let dag = ScriptDag {
        atoms,
        edge_positions: vec![(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4), (2, 1), (3, 1), (2, 4)],
    };
    let re = relative_entropy(&dag, &model);
    assert_eq!(re.to_bits(), oracle::relative_entropy(&dag, &model).to_bits());
    // Ranks tie, so the keys fall back to text.
    let keys: Vec<_> = unseen.iter().map(|a| model.order_key(a)).collect();
    assert!(keys[2] < keys[1] && keys[1] < keys[0]);
}

/// A real traced standardization: measurement records, profile, decision
/// records and a final diff, built once per test process.
fn real_trace() -> &'static str {
    static TRACE: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    TRACE.get_or_init(|| {
        let profile = Profile::titanic();
        let corpus: Vec<String> = profile
            .generate_corpus(5)
            .into_iter()
            .map(|s| s.source)
            .collect();
        let sink = lucidscript::obs::TraceSink::in_memory();
        let config = SearchConfig {
            seq_len: 3,
            beam_k: 2,
            intent: IntentMeasure::jaccard(0.5),
            sample_rows: Some(100),
            trace: Some(sink.clone()),
            ..SearchConfig::default()
        };
        let std = Standardizer::build(&corpus, profile.file, profile.generate_data(5, 0.05), config)
            .expect("builds");
        std.standardize_source(&corpus[1]).expect("runs");
        sink.memory_lines().expect("memory sink").join("\n")
    })
}

/// Parses `text` and renders every view of it. The parser and the views
/// must be total: any input yields `Ok` or a typed `Err`, never a panic.
fn parse_and_render(
    text: &str,
) -> Result<lucidscript::obs::TraceSummary, lucidscript::obs::TraceError> {
    let summary = lucidscript::obs::parse_trace(text)?;
    let _ = summary.render();
    let _ = summary.render_why();
    let _ = summary.reconcile();
    if let Some(profile) = &summary.profile {
        let _ = profile.percentile_table();
        let _ = profile.folded_text();
    }
    let _ = lucidscript::obs::aggregate_summaries(&[("t".to_string(), summary.clone())]).render();
    Ok(summary)
}

/// Fragments of the trace grammar, to glue into near-records (record
/// openings come from [`trace_tokens`]).
const TRACE_GRAMMAR: &[&str] = &[
    "{", "}", "[", "]", ":", ",", "\n", " ", "\"", "null", "true", "false", "0", "1", "2", "3",
    "-1", "0.5", "1e308", "-1e308", "18446744073709551616", "\"v\"", "\"event\"", "\"cand\"",
    "\"lineage\"", "\"diff_line\"", "\"decision_end\"", "\"memo_hit\"", "\"search_start\"",
    "\"step\"", "\"verify\"", "\"search_end\"", "\"profile\"", "\"id\"", "\"parent\"", "\"op\"",
    "\"re\"", "\"disposition\"", "\"Selected\"", "\"OutRanked\"", "\"Deduped\"",
    "\"BudgetTripped\"", "\"BeamCut\"", "\"kind\"", "\"fuel\"", "\"at_step\"", "\"score_gap\"",
    "\"ids\"", "\"ops\"", "\"total\"", "\"selected\"", "\"diff_lines\"", "\"script\"",
    "\"against\"", "\"kept\"", "\"folded\"", "\"stack\"", "\"percentiles\"", "\"name\"",
    "\"stmt_spans\"", "\"panic_payloads\"", "\"timings\"", "\"drops\"", "\"\\u00e9\"",
    "\"µs\"", "\\",
];

/// The trace grammar plus record openings at this build's schema version
/// and at the earlier ones.
fn trace_tokens() -> Vec<String> {
    let version = lucidscript::obs::TRACE_SCHEMA_VERSION;
    TRACE_GRAMMAR
        .iter()
        .map(|t| t.to_string())
        .chain((2..=version).map(|v| format!("{{\"v\":{v},\"event\":")))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes (lossily decoded, as a reader of a corrupt file
    /// would) never panic the parser or its views.
    #[test]
    fn trace_parser_is_total_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512)
    ) {
        let _ = parse_and_render(&String::from_utf8_lossy(&bytes));
    }

    /// Token soup over the trace grammar (near-records with wrong types,
    /// huge and negative numbers, foreign versions, odd nesting) never
    /// panics the parser or its views.
    #[test]
    fn trace_parser_is_total_on_token_soup(
        tokens in prop::collection::vec(prop::sample::select(trace_tokens()), 0..160)
    ) {
        let _ = parse_and_render(&tokens.concat());
    }

    /// Real trace lines with soup spliced in: whatever survives parses,
    /// and the damaged stream never reconciles as if intact unless the
    /// splice left every record in place.
    #[test]
    fn damaged_real_traces_never_falsely_reconcile(
        cut in 0usize..10_000,
        tokens in prop::collection::vec(prop::sample::select(trace_tokens()), 1..12)
    ) {
        let lines: Vec<&str> = real_trace().lines().collect();
        let at = cut % lines.len();
        let mut damaged: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        damaged[at] = tokens.concat();
        if let Ok(summary) = parse_and_render(&damaged.join("\n")) {
            if summary.reconcile().is_ok() {
                // Only a harmless replacement may still reconcile: the
                // replaced line was not a record the reconciliation counts.
                let counted = !lucidscript::obs::decision::decision_lines(lines[at]).is_empty()
                    || lucidscript::obs::parse_trace(lines[at]).is_ok_and(|o| o.complete);
                prop_assert!(
                    !counted,
                    "line {} replaced by {:?} still reconciled",
                    at,
                    damaged[at]
                );
            }
        }
    }
}

/// Every prefix of a real trace, cut at a line boundary or inside a line,
/// parses (or fails with a typed error) and never reconciles: the trailer
/// is the last record, so only the whole stream is complete.
#[test]
fn every_truncation_of_a_real_trace_fails_reconciliation() {
    let full = real_trace();
    let summary = parse_and_render(full).expect("own trace parses");
    summary.reconcile().expect("the whole stream reconciles");
    assert!(!summary.decisions.diff_lines.is_empty(), "fixture must change the script");
    let lines: Vec<&str> = full.lines().collect();
    for cut in 0..lines.len() {
        let whole_lines = lines[..cut].join("\n");
        let line = lines[cut];
        let mid = line.char_indices().nth(line.chars().count() / 2).map_or(0, |(i, _)| i);
        for prefix in [whole_lines.clone(), format!("{whole_lines}\n{}", &line[..mid])] {
            match parse_and_render(&prefix) {
                Ok(s) => assert!(
                    s.reconcile().is_err(),
                    "prefix of {cut} lines (+{mid} bytes) reconciled"
                ),
                Err(e) => assert!(
                    matches!(e.kind, lucidscript::obs::TraceErrorKind::Empty { .. }),
                    "prefix of {cut} lines: {e}"
                ),
            }
        }
    }
}

/// Fragments of the pandas-script grammar for the parser's token soup:
/// keywords, operators, unbalanced brackets and quotes, odd whitespace
/// and indentation, and bracket runs deep enough to reach the nesting
/// limit.
const PY_TOKENS: &[&str] = &[
    "import", "pandas", "as", "pd", "df", "=", "pd.read_csv('d.csv')", ".", "(", ")", "[", "]",
    "{", "}", ":", ",", "'", "\"", "'a'", "\"b\"", "'''", "0", "1.5", "-", "+", "*", "/", "//",
    "%", "**", "==", "!=", "<", ">=", "<<", "&", "|", "^", "~", "+=", "and", "or", "not", "in",
    "is", "None", "True", "False", "lambda", "x", "if", "else", "for", "def", "return", "@",
    ";", "...", "\n", "\r\n", "\r", " ", "    ", "\t", "#", "\\", "1e308", "0x1F", "_", "é",
    "`", "$", "?", "((((((((((", "[[[[[[[[[[", "----------",
];

/// Fragments of CSV: separators, quotes (balanced, doubled and
/// unbalanced), line endings, and cells of every type the reader infers.
const CSV_TOKENS: &[&str] = &[
    ",", "\"", "\"\"", "\n", "\r\n", "\r", "a", "b", "1", "-2.5", "1e308", "NaN", "nan", "",
    " ", "True", "false", "null", "NA", "é", ";", "\t", "\"a,b\"", "\"x\ny\"",
    "18446744073709551616", "-9223372036854775809", "0x10", "inf", "-inf",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes (lossily decoded, as a reader of a corrupt script
    /// would) parse or fail with a typed error, and whatever parses
    /// prints; nothing panics.
    #[test]
    fn script_parser_is_total_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512)
    ) {
        if let Ok(module) = parse_module(&String::from_utf8_lossy(&bytes)) {
            let _ = print_module(&module);
        }
    }

    /// Token soup over the script grammar never panics the parser or the
    /// printer, including bracket runs past the nesting limit.
    #[test]
    fn script_parser_is_total_on_token_soup(
        tokens in prop::collection::vec(prop::sample::select(PY_TOKENS.to_vec()), 0..160)
    ) {
        if let Ok(module) = parse_module(&tokens.concat()) {
            let _ = print_module(&module);
        }
    }

    /// Arbitrary bytes read as CSV yield a frame or a typed error, never
    /// a panic.
    #[test]
    fn csv_reader_is_total_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512)
    ) {
        let _ = lucidscript::frame::csv::read_csv_str(&String::from_utf8_lossy(&bytes));
    }

    /// CSV token soup (ragged rows, stray quotes, mixed line endings,
    /// out-of-range numbers) yields a frame or a typed error.
    #[test]
    fn csv_reader_is_total_on_token_soup(
        tokens in prop::collection::vec(prop::sample::select(CSV_TOKENS.to_vec()), 0..160)
    ) {
        let _ = lucidscript::frame::csv::read_csv_str(&tokens.concat());
    }
}
