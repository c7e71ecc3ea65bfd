//! Helpers shared by the integration tests.

use std::ops::Deref;
use std::path::{Path, PathBuf};

/// A fresh directory under the system temp directory, removed with
/// everything in it when the guard drops: when the test ends, and also
/// when it panics.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `<temp>/<name>`, emptying what a killed earlier run left
    /// there.
    pub fn new(name: &str) -> TempDir {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        TempDir(dir)
    }
}

impl Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
