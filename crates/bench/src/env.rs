//! Experiment environment: scales, seeds, result output.

use lucid_corpus::Profile;
use lucid_frame::DataFrame;
use serde::Serialize;
use std::path::PathBuf;

/// Shared experiment configuration.
#[derive(Debug, Clone)]
pub struct ExpEnv {
    /// Master seed.
    pub seed: u64,
    /// Fast mode: subsample user scripts and scale down `D_IN`.
    pub fast: bool,
    /// Where JSON results land.
    pub results_dir: PathBuf,
    /// Per-binary override of how many user scripts to evaluate (sweep
    /// binaries lower this to keep grid experiments tractable).
    pub eval_override: Option<usize>,
}

impl Default for ExpEnv {
    fn default() -> Self {
        ExpEnv::from_os_env()
    }
}

impl ExpEnv {
    /// Reads `LUCID_FULL` / `LUCID_SEED` / `LUCID_RESULTS` from the
    /// process environment.
    pub fn from_os_env() -> ExpEnv {
        let fast = std::env::var("LUCID_FULL").map_or(true, |v| v != "1");
        let seed = std::env::var("LUCID_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(42);
        let results_dir = std::env::var("LUCID_RESULTS")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("results"));
        ExpEnv {
            seed,
            fast,
            results_dir,
            eval_override: None,
        }
    }

    /// Data scale for a profile (Sales is huge; everything is sampled in
    /// fast mode — the search additionally samples rows per §5.2 item 5).
    pub fn data_scale(&self, profile: &Profile) -> f64 {
        use lucid_corpus::profiles::ProfileKey;
        match (self.fast, profile.key) {
            (true, ProfileKey::Sales) => 0.002,
            (true, ProfileKey::Nlp) | (true, ProfileKey::Spaceship) => 0.02,
            (true, _) => 0.1,
            (false, ProfileKey::Sales) => 1.0,
            (false, _) => 1.0,
        }
    }

    /// How many user scripts to evaluate per dataset (leave-one-out uses
    /// the rest as corpus either way).
    pub fn scripts_per_dataset(&self, profile: &Profile) -> usize {
        let base = if self.fast {
            8.min(profile.n_scripts)
        } else {
            profile.n_scripts
        };
        match self.eval_override {
            Some(n) => n.min(profile.n_scripts),
            None => base,
        }
    }

    /// Row cap handed to the search's sampling optimization.
    pub fn sample_rows(&self) -> Option<usize> {
        Some(if self.fast { 400 } else { 2000 })
    }

    /// Generates `D_IN` for a profile.
    pub fn data_for(&self, profile: &Profile) -> DataFrame {
        profile.generate_data(self.seed, self.data_scale(profile))
    }

    /// Writes a JSON artifact under the results directory.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors — experiments should fail loudly.
    pub fn write_json<T: Serialize>(&self, name: &str, value: &T) {
        std::fs::create_dir_all(&self.results_dir).expect("create results dir");
        let path = self.results_dir.join(format!("{name}.json"));
        let json = serde_json::to_string_pretty(value).expect("serialize");
        std::fs::write(&path, json).expect("write results");
        println!("[results] wrote {}", path.display());
    }
}

/// Renders a simple aligned text table.
pub fn print_text_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_mode_scales_down() {
        let env = ExpEnv {
            seed: 1,
            fast: true,
            results_dir: PathBuf::from("/tmp/lucid_test_results"),
            eval_override: None,
        };
        let sales = Profile::sales();
        assert!(env.data_scale(&sales) < 0.01);
        assert_eq!(env.scripts_per_dataset(&sales), 8);
        let full = ExpEnv {
            fast: false,
            ..env.clone()
        };
        assert_eq!(full.data_scale(&sales), 1.0);
        assert_eq!(full.scripts_per_dataset(&sales), 26);
    }

    #[test]
    fn write_json_creates_files() {
        /// Removes the directory when the test ends, also on a panic.
        struct Cleanup(PathBuf);
        impl Drop for Cleanup {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
        let dir = Cleanup(
            std::env::temp_dir().join(format!("lucid_bench_env_test_{}", std::process::id())),
        );
        let env = ExpEnv {
            seed: 1,
            fast: true,
            results_dir: dir.0.clone(),
            eval_override: None,
        };
        env.write_json("probe", &vec![1u64, 2, 3]);
        let content = std::fs::read_to_string(dir.0.join("probe.json")).unwrap();
        assert!(content.contains('2'));
    }

    #[test]
    fn data_for_is_deterministic() {
        let env = ExpEnv {
            seed: 5,
            fast: true,
            results_dir: PathBuf::from("/tmp"),
            eval_override: None,
        };
        let p = Profile::medical();
        assert_eq!(env.data_for(&p), env.data_for(&p));
    }
}
