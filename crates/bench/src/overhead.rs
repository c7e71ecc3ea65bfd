//! Telemetry and trace overhead harness — the proof that allocator
//! counting is cheap enough to leave on, and tracing cheap enough to
//! turn on.
//!
//! Every arm is timed the same way: wall time around one
//! `standardize_source` call, fastest rep kept (min-over-reps is the
//! standard low-noise statistic for overhead, since scheduler hiccups
//! only ever add time). The arms run interleaved rep by rep, rotating
//! which goes first, because the host's speed drifts between back-to-back
//! runs by more than the overheads being judged; arm-after-arm timing
//! would charge that drift to whichever arm ran in the slow stretch.
//!
//! The budget check is a disjunction — an arm passes when its relative
//! overhead is under the fraction OR its absolute delta is under the
//! floor — because on a fast workload a few milliseconds of timer noise
//! can exceed any percentage of a small base.
//!
//! The harness is itself measurement-only: it restores the allocator
//! counting setting it found, and the searches it runs are
//! byte-identical with counting on or off (pinned by the determinism
//! suite).

use crate::trajectory::Workload;
use lucid_obs::alloc;
use lucid_obs::TraceSink;
use std::time::Instant;

/// One workload's timings with allocator counting off and on (fastest
/// rep, ms).
#[derive(Debug, Clone)]
pub struct OverheadReport {
    /// Workload name.
    pub workload: String,
    /// Reps per arm.
    pub reps: usize,
    /// Fastest rep with counting off (the uninstrumented baseline).
    pub off_ms: f64,
    /// Fastest rep with counting on (the default).
    pub counting_ms: f64,
}

impl OverheadReport {
    /// Relative overhead of counting vs off (0.02 = +2%).
    pub fn counting_overhead(&self) -> f64 {
        rel_overhead(self.counting_ms, self.off_ms)
    }

    /// Whether counting is within budget: relative overhead under `frac`
    /// OR absolute delta under `floor_ms`.
    pub fn within_budget(&self, frac: f64, floor_ms: f64) -> bool {
        self.counting_ms - self.off_ms <= floor_ms || self.counting_overhead() <= frac
    }

    /// One table row: workload, per-arm ms, counting overhead.
    pub fn render_row(&self) -> String {
        format!(
            "{:<26} {:>9.2} {:>9.2} {:>+7.1}%\n",
            self.workload,
            self.off_ms,
            self.counting_ms,
            self.counting_overhead() * 100.0,
        )
    }
}

fn rel_overhead(mode_ms: f64, off_ms: f64) -> f64 {
    if off_ms > 0.0 {
        (mode_ms - off_ms) / off_ms
    } else {
        0.0
    }
}

/// Renders the counting overhead table.
pub fn render(reports: &[OverheadReport]) -> String {
    let mut out = format!(
        "{:<26} {:>9} {:>9} {:>8}\n",
        "workload", "off ms", "count ms", "count"
    );
    for r in reports {
        out.push_str(&r.render_row());
    }
    out
}

/// Measures every workload with allocator counting off and on.
///
/// # Errors
///
/// The first workload failure.
pub fn measure_overhead(
    workloads: &[Workload],
    reps: usize,
) -> Result<Vec<OverheadReport>, String> {
    let arms = [
        Arm::Shared { counting: false },
        Arm::Shared { counting: true },
    ];
    workloads
        .iter()
        .map(|w| {
            let best = fastest_interleaved(w, reps, &arms)?;
            Ok(OverheadReport {
                workload: w.name.to_string(),
                reps: reps.max(1),
                off_ms: best[0],
                counting_ms: best[1],
            })
        })
        .collect()
}

/// Pinned budget for tracing (`--trace`): relative overhead of trace-on
/// vs trace-off under this fraction OR the absolute delta under
/// [`TRACE_BUDGET_FLOOR_MS`]. A traced standardization serializes one
/// record per candidate on top of its step records, so its budget is
/// looser than the always-on allocator counting's — it is an opt-in
/// diagnostic.
pub const TRACE_BUDGET_FRAC: f64 = 0.30;

/// Absolute floor for the trace budget, ms — on sub-10 ms workloads a
/// few ms of timer noise can exceed any percentage of the base.
pub const TRACE_BUDGET_FLOOR_MS: f64 = 3.0;

/// One workload's trace-arm timings: the fastest rep's wall time around
/// the standardize call, in ms. Wall time, not `Timings::total_ms`: a
/// traced standardization writes its `search_end` and decision records
/// after the search clock stops, and those writes are part of the cost.
///
/// `baseline_ms` runs the plain harness shape (one untraced standardizer
/// reused across reps, as the telemetry arms and
/// [`crate::trajectory::run_workload`] do);
/// `off_ms` builds a fresh standardizer per rep with no sink; `on_ms`
/// attaches a fresh in-memory trace sink per rep. Baseline and off run
/// the same search code — candidate IDs are minted either way, fates are
/// not recorded — so off agreeing with baseline within noise is the
/// proof that carrying the trace machinery is free when `--trace` is
/// absent.
#[derive(Debug, Clone)]
pub struct TraceOverheadReport {
    /// Workload name.
    pub workload: String,
    /// Reps per arm.
    pub reps: usize,
    /// Fastest rep through the plain harness.
    pub baseline_ms: f64,
    /// Fastest rep through the trace harness, sink off.
    pub off_ms: f64,
    /// Fastest rep with an in-memory trace sink attached.
    pub on_ms: f64,
}

impl TraceOverheadReport {
    /// Relative overhead of trace-off vs the plain harness.
    pub fn off_overhead(&self) -> f64 {
        rel_overhead(self.off_ms, self.baseline_ms)
    }

    /// Relative overhead of trace-on vs trace-off.
    pub fn on_overhead(&self) -> f64 {
        rel_overhead(self.on_ms, self.off_ms)
    }

    /// Both arms within budget: trace-off within noise of the baseline
    /// (same disjunction, same pinned bounds — the two paths are meant to
    /// be the same code) and trace-on within the pinned trace budget of
    /// trace-off.
    pub fn within_budget(&self, frac: f64, floor_ms: f64) -> bool {
        let ok = |mode_ms: f64, base_ms: f64| {
            mode_ms - base_ms <= floor_ms || rel_overhead(mode_ms, base_ms) <= frac
        };
        ok(self.off_ms, self.baseline_ms) && ok(self.on_ms, self.off_ms)
    }

    /// One table row: workload, per-arm ms, per-arm overhead.
    pub fn render_row(&self) -> String {
        format!(
            "{:<26} {:>9.2} {:>9.2} {:>+7.1}% {:>9.2} {:>+7.1}%\n",
            self.workload,
            self.baseline_ms,
            self.off_ms,
            self.off_overhead() * 100.0,
            self.on_ms,
            self.on_overhead() * 100.0,
        )
    }
}

/// Renders the trace-arm overhead table.
pub fn render_trace(reports: &[TraceOverheadReport]) -> String {
    let mut out = format!(
        "{:<26} {:>9} {:>9} {:>8} {:>9} {:>8}\n",
        "workload", "base ms", "off ms", "off", "trace ms", "trace"
    );
    for r in reports {
        out.push_str(&r.render_row());
    }
    out
}

/// Measures every workload through the trace harness: baseline (plain
/// harness shape), trace-off, trace-on, all with allocator counting on.
///
/// # Errors
///
/// The first workload failure.
pub fn measure_trace_overhead(
    workloads: &[Workload],
    reps: usize,
) -> Result<Vec<TraceOverheadReport>, String> {
    let arms = [
        Arm::Shared { counting: true },
        Arm::Fresh { trace: false },
        Arm::Fresh { trace: true },
    ];
    workloads
        .iter()
        .map(|w| {
            let best = fastest_interleaved(w, reps, &arms)?;
            Ok(TraceOverheadReport {
                workload: w.name.to_string(),
                reps: reps.max(1),
                baseline_ms: best[0],
                off_ms: best[1],
                on_ms: best[2],
            })
        })
        .collect()
}

/// Where one arm's standardizer comes from.
#[derive(Clone, Copy)]
enum Arm {
    /// The workload's one untraced standardizer, reused across reps (the
    /// plain harness shape), run with allocator counting on or off.
    Shared { counting: bool },
    /// A standardizer built per rep, with a fresh in-memory trace sink or
    /// none, so a stream's length stays per-rep; counting on.
    Fresh { trace: bool },
}

/// Each arm's fastest wall time of `w`, in ms, around the standardize
/// call alone (building a fresh standardizer is not timed). Arms run
/// interleaved: rep `r` starts with arm `r mod arms.len()`. Restores the
/// counting setting it found, on error too.
fn fastest_interleaved(w: &Workload, reps: usize, arms: &[Arm]) -> Result<Vec<f64>, String> {
    let prev = alloc::set_counting(true);
    let result = time_arms(w, reps, arms);
    alloc::set_counting(prev);
    result
}

fn time_arms(w: &Workload, reps: usize, arms: &[Arm]) -> Result<Vec<f64>, String> {
    let (shared, script) = w.build(None)?;
    let mut best = vec![f64::INFINITY; arms.len()];
    for rep in 0..reps.max(1) {
        for k in 0..arms.len() {
            let i = (rep + k) % arms.len();
            let fresh;
            let std = match arms[i] {
                Arm::Shared { counting } => {
                    alloc::set_counting(counting);
                    &shared
                }
                Arm::Fresh { trace } => {
                    alloc::set_counting(true);
                    fresh = w.build(trace.then(TraceSink::in_memory))?.0;
                    &fresh
                }
            };
            let t0 = Instant::now();
            std.standardize_source(&script)
                .map_err(|e| format!("workload {}: {e}", w.name))?;
            best[i] = best[i].min(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(off: f64, counting: f64) -> OverheadReport {
        OverheadReport {
            workload: "w".to_string(),
            reps: 3,
            off_ms: off,
            counting_ms: counting,
        }
    }

    #[test]
    fn budget_is_relative_or_absolute() {
        // +2% on a 100 ms base: within a 5% budget.
        assert!(report(100.0, 102.0).within_budget(0.05, 2.0));
        // +20% on a 2 ms base: over the fraction but under the 2 ms floor.
        assert!(report(2.0, 2.4).within_budget(0.05, 2.0));
        // +20% on a 100 ms base: over both — out of budget.
        assert!(!report(100.0, 120.0).within_budget(0.05, 2.0));
    }

    #[test]
    fn overhead_fractions_handle_zero_base() {
        let r = report(0.0, 1.0);
        assert_eq!(r.counting_overhead(), 0.0);
        assert!(r.within_budget(0.05, 2.0));
    }

    #[test]
    fn render_lists_every_workload() {
        let table = render(&[report(10.0, 10.2), report(8.0, 8.1)]);
        assert!(table.contains("off ms"));
        assert_eq!(table.lines().count(), 3);
    }

    fn trace_report(baseline: f64, off: f64, on: f64) -> TraceOverheadReport {
        TraceOverheadReport {
            workload: "w".to_string(),
            reps: 3,
            baseline_ms: baseline,
            off_ms: off,
            on_ms: on,
        }
    }

    #[test]
    fn trace_budget_is_relative_or_absolute() {
        // +10% trace-on over a 100 ms base: within the 30% budget.
        assert!(trace_report(100.0, 100.5, 110.0)
            .within_budget(TRACE_BUDGET_FRAC, TRACE_BUDGET_FLOOR_MS));
        // +50% on a 4 ms base: over the fraction but under the 3 ms floor.
        assert!(trace_report(4.0, 4.1, 6.0)
            .within_budget(TRACE_BUDGET_FRAC, TRACE_BUDGET_FLOOR_MS));
        // +50% on a 100 ms base: over both — out of budget.
        assert!(!trace_report(100.0, 100.5, 150.0)
            .within_budget(TRACE_BUDGET_FRAC, TRACE_BUDGET_FLOOR_MS));
        // Trace-off drifting far from the baseline also fails: the two
        // paths are meant to be the same code.
        assert!(!trace_report(100.0, 150.0, 151.0)
            .within_budget(TRACE_BUDGET_FRAC, TRACE_BUDGET_FLOOR_MS));
    }

    #[test]
    fn trace_render_lists_every_workload() {
        let table = render_trace(&[
            trace_report(10.0, 10.1, 11.0),
            trace_report(8.0, 8.0, 8.5),
        ]);
        assert!(table.contains("trace ms"));
        assert_eq!(table.lines().count(), 3);
    }

    #[test]
    fn trace_arm_measures_a_real_workload() {
        // One tiny real search per arm: all three arms populate and the
        // harness does not error. Budget verdicts are asserted in
        // scripts/check.sh (a timing claim, not a unit-test claim).
        let w = crate::trajectory::quick_suite()[0];
        let reports = measure_trace_overhead(&[w], 1).unwrap();
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert!(r.baseline_ms > 0.0);
        assert!(r.off_ms > 0.0);
        assert!(r.on_ms > 0.0);
    }

    #[test]
    fn measure_overhead_restores_the_counting_setting_it_found() {
        let w = crate::trajectory::quick_suite()[0];
        let prev = alloc::set_counting(false);
        let reports = measure_overhead(&[w], 1).unwrap();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].off_ms > 0.0 && reports[0].counting_ms > 0.0);
        assert!(!alloc::set_counting(prev), "counting left switched on");
    }
}
