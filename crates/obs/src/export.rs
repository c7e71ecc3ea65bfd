//! Snapshot exporters: Prometheus-style text exposition, a JSON
//! snapshot, and a periodic [`StatsReporter`] ticker thread.
//!
//! Both exporters render a [`RegistrySnapshot`] — a point-in-time copy —
//! so they never hold registry locks while formatting or writing.
//! Files are written atomically (temp file + rename in the target
//! directory) so a scraper or tailer never reads a half-written
//! snapshot. The format is chosen by extension: `.prom` / `.txt` get
//! the Prometheus exposition, everything else JSON.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::metrics::{Registry, RegistrySnapshot};

/// Sanitizes a dot-path metric name into a Prometheus identifier:
/// `search.get_steps` → `lucid_search_get_steps`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("lucid_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

/// Renders a snapshot in the Prometheus text exposition format (v0.0.4
/// subset: `# TYPE` lines plus samples). Counters export as `counter`;
/// each histogram exports its count, sum, and max as three suffixed
/// gauges — the log₂ buckets are an in-process detail, consistent with
/// [`RegistrySnapshot`] dropping them.
pub fn prometheus_text(snapshot: &RegistrySnapshot) -> String {
    let mut out = String::new();
    for c in &snapshot.counters {
        let name = prom_name(&c.name);
        out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.value));
    }
    for h in &snapshot.histograms {
        let name = prom_name(&h.name);
        out.push_str(&format!(
            "# TYPE {name}_count counter\n{name}_count {}\n",
            h.count
        ));
        out.push_str(&format!(
            "# TYPE {name}_sum_ms gauge\n{name}_sum_ms {}\n",
            h.sum_ms
        ));
        out.push_str(&format!(
            "# TYPE {name}_max_ms gauge\n{name}_max_ms {}\n",
            h.max_ms
        ));
    }
    out
}

/// Renders a snapshot as pretty-printed JSON.
pub fn snapshot_json(snapshot: &RegistrySnapshot) -> String {
    serde_json::to_string_pretty(snapshot).unwrap_or_else(|_| "{}".to_string())
}

fn render_for(path: &Path, snapshot: &RegistrySnapshot) -> String {
    match path.extension().and_then(|e| e.to_str()) {
        Some("prom") | Some("txt") => prometheus_text(snapshot),
        _ => snapshot_json(snapshot),
    }
}

/// Writes a snapshot of `registry` to `path` (format by extension,
/// atomic rename). This is the on-demand path; [`StatsReporter`] calls
/// it on a timer.
pub fn write_snapshot(registry: &Registry, path: &Path) -> Result<(), String> {
    let body = render_for(path, &registry.snapshot());
    let tmp = tmp_sibling(path);
    let mut f =
        fs::File::create(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    f.write_all(body.as_bytes())
        .and_then(|()| f.flush())
        .map_err(|e| format!("write {}: {e}", tmp.display()))?;
    drop(f);
    fs::rename(&tmp, path).map_err(|e| format!("rename to {}: {e}", path.display()))
}

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "stats".into());
    name.push(".tmp");
    path.with_file_name(name)
}

/// A background thread that re-exports a registry snapshot to a file
/// every `interval`. Dropping the reporter (or calling [`stop`]) writes
/// one final snapshot and joins the thread, so the file always reflects
/// the registry's end state.
///
/// [`stop`]: StatsReporter::stop
#[derive(Debug)]
pub struct StatsReporter {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    registry: Arc<Registry>,
    path: PathBuf,
}

impl StatsReporter {
    /// Spawns the ticker. `interval` is clamped to ≥ 1 ms so a zero
    /// interval cannot spin.
    pub fn spawn(registry: Arc<Registry>, path: PathBuf, interval: Duration) -> StatsReporter {
        let interval = interval.max(Duration::from_millis(1));
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let thread_registry = Arc::clone(&registry);
        let thread_path = path.clone();
        let handle = std::thread::spawn(move || {
            // Ticks in small slices so stop latency stays ~10 ms even
            // with long intervals. Write errors are ignored here — the
            // final write in `stop()` surfaces them.
            let slice = Duration::from_millis(10).min(interval);
            let mut elapsed = Duration::ZERO;
            while !thread_stop.load(Ordering::Relaxed) {
                std::thread::sleep(slice);
                elapsed += slice;
                if elapsed >= interval {
                    elapsed = Duration::ZERO;
                    let _ = write_snapshot(&thread_registry, &thread_path);
                }
            }
        });
        StatsReporter {
            stop,
            handle: Some(handle),
            registry,
            path,
        }
    }

    /// Signals the ticker, joins it, and writes the final snapshot.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
            return write_snapshot(&self.registry, &self.path);
        }
        Ok(())
    }
}

impl Drop for StatsReporter {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Metric;

    fn sample_registry() -> Registry {
        let reg = Registry::new();
        reg.counter(Metric::Steps).add(7);
        reg.counter(Metric::MemBytesTotal).add(4096);
        reg.histogram(Metric::GetSteps).record_ns(2_000_000);
        reg
    }

    #[test]
    fn prometheus_text_sanitizes_names_and_lists_all_metrics() {
        let text = prometheus_text(&sample_registry().snapshot());
        assert!(text.contains("# TYPE lucid_search_steps counter"));
        assert!(text.contains("lucid_search_steps 7"));
        assert!(text.contains("lucid_mem_bytes_total 4096"));
        assert!(text.contains("lucid_search_get_steps_count 1"));
        assert!(text.contains("lucid_search_get_steps_sum_ms"));
        assert!(text.contains("lucid_search_get_steps_max_ms"));
        assert!(!text.contains('.'), "dots must be sanitized: {text}");
    }

    #[test]
    fn json_snapshot_round_trips_through_serde() {
        let json = snapshot_json(&sample_registry().snapshot());
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let counters = v.get("counters").and_then(|c| c.as_array()).unwrap();
        assert!(counters
            .iter()
            .any(|c| c.get("name").and_then(|n| n.as_str()) == Some("search.steps")));
    }

    #[test]
    fn write_snapshot_picks_format_by_extension() {
        let dir = std::env::temp_dir().join(format!("lucid-export-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let reg = sample_registry();

        let prom = dir.join("stats.prom");
        write_snapshot(&reg, &prom).unwrap();
        assert!(fs::read_to_string(&prom)
            .unwrap()
            .starts_with("# TYPE lucid_"));

        let json = dir.join("stats.json");
        write_snapshot(&reg, &json).unwrap();
        let parsed: serde_json::Value =
            serde_json::from_str(&fs::read_to_string(&json).unwrap()).unwrap();
        assert!(parsed.get("histograms").is_some());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reporter_writes_on_ticks_and_finalizes_on_stop() {
        let dir = std::env::temp_dir().join(format!("lucid-reporter-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("live.json");
        let reg = Arc::new(Registry::new());
        reg.counter(Metric::BatchScripts).add(1);

        let reporter = StatsReporter::spawn(
            Arc::clone(&reg),
            path.clone(),
            Duration::from_millis(5),
        );
        // Wait for at least one periodic write.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !path.exists() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(path.exists(), "reporter never ticked");

        reg.counter(Metric::BatchScripts).add(41);
        reporter.stop().unwrap();
        let v: serde_json::Value =
            serde_json::from_str(&fs::read_to_string(&path).unwrap()).unwrap();
        let counters = v.get("counters").and_then(|c| c.as_array()).unwrap();
        let tick = counters
            .iter()
            .find(|c| c.get("name").and_then(|n| n.as_str()) == Some("search.batch_scripts"))
            .unwrap();
        // The stop() write reflects the registry's end state.
        assert_eq!(tick.get("value").and_then(|x| x.as_f64()), Some(42.0));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn no_tmp_file_left_behind() {
        let dir = std::env::temp_dir().join(format!("lucid-export-tmp-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.json");
        write_snapshot(&Registry::new(), &path).unwrap();
        assert!(path.exists());
        assert!(!tmp_sibling(&path).exists());
        fs::remove_dir_all(&dir).ok();
    }
}
