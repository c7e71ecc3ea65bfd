//! The prefix cache must be a pure optimization: every cached run yields
//! exactly the outcome of a cold run, including when cached prefixes
//! mutate frames, and the cache itself must observe its LRU bound.
//!
//! This file is the reference for the search's cache: the search runs
//! every candidate through a prefix cache, and
//! [`sibling_families_resume_like_cold_runs`] runs candidate families
//! built the way the beam builds them through one cache and each member
//! again on a cache-less interpreter.

use lucid_frame::csv::read_csv_str;
use lucid_frame::Value;
use lucid_interp::{Budget, BudgetUsage, ExecOutcome, Interpreter, PrefixCache, RtValue};
use lucid_pyast::parse_module;
use proptest::prelude::*;

fn interp() -> Interpreter {
    let mut i = Interpreter::new();
    i.register_table(
        "t.csv",
        read_csv_str("a,b,y\n1,2.5,0\n2,,1\n3,4.5,0\n4,1.0,1\n5,,0\n").unwrap(),
    );
    i
}

/// `interp` running every script through `cache`: a cache clone is
/// another handle to the same store and counters.
fn through(interp: &Interpreter, cache: &PrefixCache) -> Interpreter {
    let mut i = interp.clone();
    i.cache = Some(cache.clone());
    i
}

/// Asserts that running `src` through `cache` matches a cold run of the
/// same source on a fresh interpreter.
fn assert_cached_matches_cold(interp: &Interpreter, cache: &PrefixCache, src: &str) {
    let module = parse_module(src).expect("parses");
    let cold = interp.run(&module);
    let cached = through(interp, cache).run(&module);
    match (cold, cached) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.output_frame(), b.output_frame(), "output diverged for:\n{src}");
            assert_eq!(
                a.vars.keys().collect::<std::collections::BTreeSet<_>>(),
                b.vars.keys().collect::<std::collections::BTreeSet<_>>(),
                "bindings diverged for:\n{src}"
            );
        }
        (Err(a), Err(b)) => {
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "errors diverged for:\n{src}");
        }
        (cold, cached) => panic!(
            "cold and cached disagree on success for:\n{src}\ncold: {cold:?}\ncached: {cached:?}"
        ),
    }
}

#[test]
fn resumed_runs_match_cold_runs() {
    let interp = interp();
    let cache = PrefixCache::default();
    let prefix = "import pandas as pd\ndf = pd.read_csv('t.csv')\ndf = df.fillna(df.mean())\n";
    // Cold population pass, then a family of scripts sharing the prefix.
    assert_cached_matches_cold(&interp, &cache, prefix);
    assert_eq!(cache.misses(), 1);
    for suffix in [
        "df = df.head(2)\n",
        "df = df.head(3)\n",
        "df = df.drop('b', axis=1)\n",
        "df['a2'] = df['a'] * 2\n",
        "df = df.dropna()\ndf = pd.get_dummies(df)\n",
    ] {
        assert_cached_matches_cold(&interp, &cache, &format!("{prefix}{suffix}"));
    }
    // Every sibling resumed from the shared prefix.
    assert_eq!(cache.hits(), 5);
    assert_eq!(cache.misses(), 1);
}

#[test]
fn prefix_that_mutates_a_loaded_table_does_not_alias() {
    let interp = interp();
    let cache = PrefixCache::default();
    // The prefix mutates `df` (fillna + column write) after loading the
    // registered table. If snapshots shared storage with the registered
    // table or with each other, the second run would observe the first
    // run's suffix mutations.
    let prefix = "import pandas as pd\ndf = pd.read_csv('t.csv')\ndf['y'] = df['y'] * 10\n";
    let cached = through(&interp, &cache);
    let first = cached
        .run(&parse_module(&format!("{prefix}df['y'] = df['y'] + 1\n")).unwrap())
        .expect("runs");
    let second = cached.run(&parse_module(prefix).unwrap()).expect("runs");
    let first_y = first.output_frame().unwrap().column("y").unwrap();
    let second_y = second.output_frame().unwrap().column("y").unwrap();
    assert_eq!(first_y.get(1).unwrap(), lucid_frame::Value::Int(11));
    // The resumed sibling sees the prefix value, not the +1 suffix.
    assert_eq!(second_y.get(1).unwrap(), lucid_frame::Value::Int(10));
    // And the registered table itself is untouched for cold runs.
    let cold = interp
        .run(&parse_module("import pandas as pd\ndf = pd.read_csv('t.csv')\n").unwrap())
        .expect("runs");
    assert_eq!(
        cold.output_frame().unwrap().column("y").unwrap().get(1).unwrap(),
        lucid_frame::Value::Int(1)
    );
}

#[test]
fn failing_scripts_error_identically_and_cache_their_good_prefix() {
    let interp = interp();
    let cache = PrefixCache::default();
    let prefix = "import pandas as pd\ndf = pd.read_csv('t.csv')\n";
    // Fails at the last statement (unknown column).
    assert_cached_matches_cold(&interp, &cache, &format!("{prefix}df = df.drop('nope', axis=1)\n"));
    let misses = cache.misses();
    // A sibling still resumes from the good two-statement prefix.
    assert_cached_matches_cold(&interp, &cache, &format!("{prefix}df = df.head(2)\n"));
    assert!(cache.hits() >= 1, "good prefix of a failing run was not reused");
    assert_eq!(cache.misses(), misses);
}

#[test]
fn eviction_under_tiny_capacity_preserves_correctness() {
    let interp = interp();
    // Two slots: every run churns the cache, constantly evicting.
    let cache = PrefixCache::with_capacity(2);
    let prefix = "import pandas as pd\ndf = pd.read_csv('t.csv')\n";
    for n in 1..=4 {
        assert_cached_matches_cold(&interp, &cache, &format!("{prefix}df = df.head({n})\n"));
        assert!(cache.len() <= 2, "capacity bound violated");
    }
}

#[test]
fn different_sampling_configs_do_not_share_snapshots() {
    let mut a = interp();
    a.sample_rows = Some(2);
    let b = interp();
    let cache = PrefixCache::default();
    let module = parse_module("import pandas as pd\ndf = pd.read_csv('t.csv')\n").unwrap();
    let out_a = through(&a, &cache).run(&module).expect("runs");
    let out_b = through(&b, &cache).run(&module).expect("runs");
    assert_eq!(out_a.output_frame().unwrap().n_rows(), 2);
    // If the sampled snapshot leaked across configs, b would see 2 rows.
    assert_eq!(out_b.output_frame().unwrap().n_rows(), 5);
    assert_eq!(cache.misses(), 2);
}

/// A table a classifier can train on: numeric features (one with gaps), a
/// string column and a binary label.
fn model_table() -> lucid_frame::DataFrame {
    let mut csv = String::from("a,b,c,y\n");
    for i in 0..24 {
        let b = if i % 5 == 0 { String::new() } else { format!("{}.5", i % 7) };
        let c = ["x", "y", "z"][i % 3];
        csv.push_str(&format!("{},{b},{c},{}\n", i % 11, (i * 7 + 3) % 4 / 2));
    }
    read_csv_str(&csv).expect("valid csv")
}

/// The statements every family member starts with; edits land below
/// them, as the search's monotonicity cursor keeps them.
const HEAD: [&str; 3] = [
    "import pandas as pd",
    "from sklearn.linear_model import LogisticRegression",
    "df = pd.read_csv('m.csv')",
];

/// Corpus-style data-preparation statements. Some fail where they land
/// (a dropped or absent column), one mutates in place.
const DF_STMTS: [&str; 12] = [
    "df = df.fillna(df.mean())",
    "df = df.fillna(0)",
    "df['b'] = df['b'].fillna(df['b'].median())",
    "df['a2'] = df['a'] * 2",
    "df = df.dropna()",
    "df = df.head(18)",
    "df = df[df['a'] > 2]",
    "df = pd.get_dummies(df)",
    "df = df.drop('c', axis=1)",
    "df.fillna(0, inplace=True)",
    "df = df.drop('b', axis=1)",
    "df = df.drop('nope', axis=1)",
];

/// The corpus templates' model tail: fit, then a score bound to a name.
const MODEL_TAIL: [&str; 5] = [
    "X = df[['a']]",
    "y = df['y']",
    "model = LogisticRegression(max_iter=20)",
    "model = model.fit(X, y)",
    "acc = model.score(X, y)",
];

/// Statements that read the model: forcing the deferred score (its bits
/// land in `acc_read`) and predicting.
const MODEL_READS: [&str; 2] = ["acc_read = acc * 1.0", "pred = model.predict(X)"];

/// One beam edit: insert `stmt` before line `at`, or delete line `at`
/// (both taken modulo the editable range, below [`HEAD`]).
#[derive(Debug, Clone)]
enum Edit {
    Add { at: usize, stmt: &'static str },
    Delete { at: usize },
}

fn apply(program: &[&'static str], edit: &Edit) -> Vec<&'static str> {
    let mut out = program.to_vec();
    let editable = out.len() - HEAD.len();
    match *edit {
        Edit::Add { at, stmt } => out.insert(HEAD.len() + at % (editable + 1), stmt),
        Edit::Delete { at } if editable > 0 => {
            out.remove(HEAD.len() + at % editable);
        }
        Edit::Delete { .. } => {}
    }
    out
}

/// A family the way the beam grows one: the base, its one-edit siblings,
/// and each sibling extended by the next edit (a second beam step).
fn family(base: &[&'static str], edits: &[Edit]) -> Vec<Vec<&'static str>> {
    let mut members = vec![base.to_vec()];
    for (i, edit) in edits.iter().enumerate() {
        let child = apply(base, edit);
        if let Some(next) = edits.get(i + 1) {
            members.push(apply(&child, next));
        }
        members.push(child);
    }
    members
}

/// Deterministic Fisher–Yates under `seed` (xorshift64*).
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    seed |= 1;
    for i in (1..items.len()).rev() {
        seed ^= seed >> 12;
        seed ^= seed << 25;
        seed ^= seed >> 27;
        let j = (seed.wrapping_mul(0x2545_F491_4F6C_DD1D) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// A scalar's bits: floats by `to_bits`, other values by `Debug`.
fn bits(v: &Value) -> String {
    match v {
        Value::Float(f) => format!("F{:x}", f.to_bits()),
        other => format!("{other:?}"),
    }
}

/// What a cached run must share with the cold run of the same program:
/// the error text, or the output frame's bits, every binding's type and
/// every scalar binding's bits (a forced score among them); and the
/// resources the run consumed either way.
type Observed = (Result<(Vec<String>, Vec<String>), String>, BudgetUsage);

fn observe(interp: &Interpreter, src: &str) -> Observed {
    let (res, usage) = interp.run_with_usage(&parse_module(src).expect("parses"));
    let seen = res.map_err(|e| e.to_string()).map(|out: ExecOutcome| {
        let frame = out.output_frame().map_or_else(Vec::new, |df| {
            df.iter()
                .map(|(name, col)| {
                    let cells: Vec<String> = (0..df.n_rows())
                        .map(|i| col.get(i).map_or_else(|e| e.to_string(), |v| bits(&v)))
                        .collect();
                    format!("{name}: {}", cells.join(" "))
                })
                .collect()
        });
        let mut vars: Vec<String> = out
            .vars
            .iter()
            .map(|(name, v)| match v {
                RtValue::Scalar(s) => format!("{name} = {}", bits(s)),
                other => format!("{name}: {}", other.type_name()),
            })
            .collect();
        vars.sort();
        (frame, vars)
    });
    (seen, usage)
}

/// Runs `members` in `seed`'s shuffled order through one cache, then each
/// again on a cache-less interpreter, and requires equal observations.
/// Returns the cache's hit count.
fn assert_family_matches_cold(members: &[Vec<&'static str>], fuel: u64, seed: u64) -> u64 {
    let mut cold = Interpreter::new();
    cold.register_table("m.csv", model_table());
    cold.budget = Budget {
        fuel,
        ..Budget::unlimited()
    };
    let cache = PrefixCache::default();
    let cached = through(&cold, &cache);
    let mut order: Vec<String> = members.iter().map(|m| m.join("\n") + "\n").collect();
    shuffle(&mut order, seed);
    for src in &order {
        assert_eq!(
            observe(&cached, src),
            observe(&cold, src),
            "cached run diverged for:\n{src}"
        );
    }
    cache.hits()
}

fn edit() -> impl Strategy<Value = Edit> {
    let stmt = prop::sample::select(
        DF_STMTS
            .iter()
            .chain(&MODEL_TAIL)
            .chain(&MODEL_READS)
            .copied()
            .collect::<Vec<_>>(),
    );
    prop_oneof![
        (0usize..16, stmt).prop_map(|(at, stmt)| Edit::Add { at, stmt }),
        (0usize..16).prop_map(|at| Edit::Delete { at }),
    ]
}

/// A base program: [`HEAD`], some data preparation, and (mostly) the
/// model tail with its reads.
fn base() -> impl Strategy<Value = Vec<&'static str>> {
    (
        prop::collection::vec(prop::sample::select(DF_STMTS.to_vec()), 0..5),
        0usize..4,
    )
        .prop_map(|(body, tail)| {
            let mut program = HEAD.to_vec();
            program.extend(body);
            if tail > 0 {
                program.extend(MODEL_TAIL);
                program.extend(&MODEL_READS[..tail - 1]);
            }
            program
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sibling_families_resume_like_cold_runs(
        base in base(),
        edits in prop::collection::vec(edit(), 1..6),
        fuel in prop_oneof![Just(lucid_interp::UNLIMITED), 15u64..150],
        seed in any::<u64>(),
    ) {
        assert_family_matches_cold(&family(&base, &edits), fuel, seed);
    }
}

#[test]
fn a_model_script_family_resumes_like_cold_runs() {
    // The model trains on X/y taken before the edited `df` lines, so
    // every member editing those lines re-runs `fit` on the same inputs.
    let base = [
        "import pandas as pd",
        "from sklearn.linear_model import LogisticRegression",
        "df = pd.read_csv('m.csv')",
        "X = df[['a']]",
        "y = df['y']",
        "df = df.fillna(df.median())",
        "model = LogisticRegression(max_iter=20)",
        "model = model.fit(X, y)",
        "acc = model.score(X, y)",
    ];
    let edits = [
        Edit::Add {
            at: 2,
            stmt: "df = df.fillna(df.mean())",
        },
        Edit::Delete { at: 2 },
        Edit::Add {
            at: 6,
            stmt: "acc_read = acc * 1.0",
        },
        Edit::Add {
            at: 3,
            stmt: "df = pd.get_dummies(df)",
        },
        Edit::Add {
            at: 7,
            stmt: "pred = model.predict(X)",
        },
    ];
    let members = family(&base, &edits);
    assert!(members.iter().any(|m| m.contains(&"acc_read = acc * 1.0")));
    for seed in 0..4 {
        let hits = assert_family_matches_cold(&members, lucid_interp::UNLIMITED, seed);
        assert!(hits > 0, "siblings sharing prefixes never resumed");
    }
}
