//! The three workloads and their seeded inputs.
//!
//! Every input the program sees is generated here from the workload seed
//! and handed over as text: corpus sources, user scripts and `D_IN` as CSV.

use lucid_core::batch::BatchOptions;
use lucid_core::intent::IntentMeasure;
use lucid_core::SearchConfig;
use lucid_corpus::script_gen::generate_script;
use lucid_corpus::Profile;
use lucid_frame::csv::write_csv_str;

/// Names accepted by `--workload`, in documentation order.
pub const NAMES: [&str; 3] = ["search-titanic", "exec-spaceship", "batch-house"];

/// Salt mixed into a shard's seed to derive its held-out user-script seed,
/// so user scripts never share a generator seed with the corpus.
const HELD_OUT_SALT: u64 = 0x4845_4c44_4f55_5431;
/// Salt for choosing which batch scripts get a byte-identical fork.
const FORK_SALT: u64 = 0x464f_524b_5345_4544;

/// How a workload drives the standardizer.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Per shard, one `Standardizer` and `users` held-out scripts
    /// standardized one at a time, in a closed loop with one client.
    Search { users: usize },
    /// Per shard, one `standardize_corpus` call over the whole corpus plus
    /// byte-identical forks of a quarter of it.
    Batch { jobs: usize },
}

/// One named workload: profile, `D_IN` size and search settings.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub profile: Profile,
    /// Rows of the generated `D_IN`.
    pub rows: usize,
    /// The paper's input sampling during constraint checks.
    pub sample_rows: Option<usize>,
    pub intent: IntentMeasure,
    pub mode: Mode,
    /// Shards every run completes, however fast the host: the fixed
    /// population behind `re_improvement_pct` and the output digest.
    pub min_shards: u64,
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        let w = match name {
            "search-titanic" => Workload {
                name: "search-titanic",
                profile: Profile::titanic(),
                rows: 260,
                sample_rows: Some(100),
                intent: IntentMeasure::jaccard(0.9),
                mode: Mode::Search { users: 8 },
                min_shards: 16,
            },
            "exec-spaceship" => Workload {
                name: "exec-spaceship",
                profile: Profile::spaceship(),
                rows: 2000,
                sample_rows: None,
                intent: IntentMeasure::model_perf(5.0, "Transported"),
                mode: Mode::Search { users: 5 },
                min_shards: 16,
            },
            "batch-house" => Workload {
                name: "batch-house",
                profile: Profile::house(),
                rows: 430,
                sample_rows: None,
                intent: IntentMeasure::jaccard(0.9),
                mode: Mode::Batch { jobs: 2 },
                min_shards: 8,
            },
            _ => return None,
        };
        Some(w)
    }

    /// The paper defaults (seq 16, K 3, diversity and early check on) with
    /// one search thread and this workload's intent and sampling.
    pub fn config(&self) -> SearchConfig {
        SearchConfig {
            intent: self.intent.clone(),
            sample_rows: self.sample_rows,
            threads: 1,
            ..SearchConfig::default()
        }
    }

    pub fn batch_options(&self) -> Option<BatchOptions> {
        match self.mode {
            Mode::Batch { jobs } => Some(BatchOptions {
                jobs,
                memo: true,
                ..BatchOptions::default()
            }),
            Mode::Search { .. } => None,
        }
    }

    /// Concurrent searches: the batch jobs, or 1 for the one-client loop.
    pub fn jobs(&self) -> usize {
        match self.mode {
            Mode::Batch { jobs } => jobs,
            Mode::Search { .. } => 1,
        }
    }
}

/// The generated inputs of one run.
pub struct Inputs {
    /// Corpus sources the standardizer is built from. For the batch
    /// workload this is every batch script, forks included, which is the
    /// corpus `standardize_corpus` builds internally.
    pub corpus: Vec<String>,
    /// `D_IN` as CSV text.
    pub csv: String,
    /// The scripts standardized, with display names.
    pub scripts: Vec<(String, String)>,
}

/// SplitMix64: a tiny, well-mixed seed derivation with no dependency.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Upper bound on shards per run; also the seed stride between runs.
pub const MAX_SHARDS: u64 = 1000;

/// Generator seed of shard `j` of the run with seed `s`: `s·1000 + j`, so
/// runs with different seeds share no input.
pub fn shard_seed(seed: u64, j: u64) -> u64 {
    seed.wrapping_mul(MAX_SHARDS).wrapping_add(j)
}

/// The inputs of one shard, all derived from its generator seed.
pub fn generate(w: &Workload, seed: u64) -> Inputs {
    let profile = &w.profile;
    let scale = w.rows as f64 / profile.n_rows_full as f64;
    let csv = write_csv_str(&profile.generate_data(seed, scale));
    let corpus: Vec<String> = profile
        .generate_corpus(seed)
        .into_iter()
        .map(|m| m.source)
        .collect();
    match w.mode {
        Mode::Search { users } => {
            let scripts = held_out_scripts(profile, seed, &corpus, users);
            Inputs {
                corpus,
                csv,
                scripts,
            }
        }
        Mode::Batch { .. } => {
            let mut scripts: Vec<(String, String)> = corpus
                .iter()
                .enumerate()
                .map(|(i, s)| (format!("script_{i:03}.py"), s.clone()))
                .collect();
            for i in fork_indices(corpus.len(), seed) {
                let (name, src) = scripts[i].clone();
                scripts.push((format!("{name}__fork"), src));
            }
            Inputs {
                corpus: scripts.iter().map(|(_, s)| s.clone()).collect(),
                csv,
                scripts,
            }
        }
    }
}

/// `n` user scripts from the held-out seed derived from `seed`. A script
/// whose source happens to equal a corpus script is skipped, so every user
/// script is absent from the corpus it is standardized against.
fn held_out_scripts(
    profile: &Profile,
    seed: u64,
    corpus: &[String],
    n: usize,
) -> Vec<(String, String)> {
    let base = splitmix64(seed ^ HELD_OUT_SALT);
    let mut out = Vec::with_capacity(n);
    for i in 0u64.. {
        if out.len() == n {
            break;
        }
        assert!(
            i < 100 * n as u64,
            "held-out generator keeps reproducing corpus scripts"
        );
        let source = generate_script(profile, base.wrapping_add(i)).source;
        if corpus.contains(&source) {
            continue;
        }
        out.push((format!("user_{:03}.py", out.len()), source));
    }
    out
}

/// A seeded choice of `len / 4` distinct script indices, ascending.
fn fork_indices(len: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..len).collect();
    let mut state = seed ^ FORK_SALT;
    for i in (1..len).rev() {
        state = splitmix64(state);
        let j = (state % (i as u64 + 1)) as usize;
        idx.swap(i, j);
    }
    let mut chosen: Vec<usize> = idx.into_iter().take(len / 4).collect();
    chosen.sort_unstable();
    chosen
}
