//! The prefix cache must be a pure optimization: every cached run yields
//! exactly the outcome of a cold run, including when cached prefixes
//! mutate frames, and the cache itself must observe its LRU bound.

use lucid_frame::csv::read_csv_str;
use lucid_interp::{Interpreter, PrefixCache};
use lucid_pyast::parse_module;

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
