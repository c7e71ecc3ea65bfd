//! The one worker pool: run `n` independent jobs on up to `workers`
//! threads and keep index order.
//!
//! Both fan-outs of the paper's evaluation have this shape — scoring
//! every (beam, transformation) pair of a `GetSteps` call (Algorithms
//! 1–2), and running one search per script of a corpus (`lucid batch`,
//! the §6.1.3 leave-one-out sweeps) — so they share [`map_indexed`].
//! Results come back in job order whatever the scheduling, which is what
//! keeps every downstream decision byte-identical across worker counts.

use lucid_interp::InjectedPanic;
use lucid_obs::alloc::{self, PhaseGuard};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Runs `job(i)` for every `i` in `0..n` and returns the results in index
/// order, plus the summed wall time of the jobs.
///
/// With `workers.min(n) <= 1` the jobs run inline on the caller's thread.
/// Otherwise scoped workers take jobs from an atomic cursor; each enters
/// the caller's allocation phase and flushes its allocator buffer before
/// the scope joins, so attribution lands where the inline path puts it.
///
/// Every job runs under `catch_unwind`: a panicking job yields
/// `Err(payload)` in its own slot and the other jobs are unaffected.
pub fn map_indexed<T, F>(n: usize, workers: usize, job: F) -> (Vec<Result<T, String>>, Duration)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let run = |i: usize| {
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| job(i))).map_err(panic_payload);
        (out, t0.elapsed())
    };
    let mut busy = Duration::ZERO;
    if workers.min(n) <= 1 {
        let results = (0..n)
            .map(|i| {
                let (out, took) = run(i);
                busy += took;
                out
            })
            .collect();
        return (results, busy);
    }

    let phase = alloc::current_phase();
    let cursor = AtomicUsize::new(0);
    let mut done: Vec<(usize, Result<T, String>, Duration)> = Vec::with_capacity(n);
    let _ = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(n))
            .map(|_| {
                scope.spawn(|_| {
                    let _mem = PhaseGuard::enter(phase);
                    let mut mine = Vec::new();
                    loop {
                        // Relaxed: the cursor only hands out indices; the
                        // spawn publishes the jobs' inputs and the join
                        // publishes their results.
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let (out, took) = run(i);
                        mine.push((i, out, took));
                    }
                    alloc::flush_tls();
                    mine
                })
            })
            .collect();
        for handle in handles {
            // Jobs are isolated above; a worker can only die outside them
            // (allocation failure), and then the caller should see it.
            done.extend(
                handle
                    .join()
                    .unwrap_or_else(|payload| resume_unwind(payload)),
            );
        }
    });
    done.sort_unstable_by_key(|(i, _, _)| *i);
    let results = done
        .into_iter()
        .map(|(_, out, took)| {
            busy += took;
            out
        })
        .collect();
    (results, busy)
}

/// Renders a caught panic payload. Handles the payload types a job can
/// actually raise — `&str`/`String` from `panic!`, and the
/// fault-injection hook's [`InjectedPanic`] marker — and reports anything
/// else opaquely rather than re-throwing.
pub(crate) fn panic_payload(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(injected) = payload.downcast_ref::<InjectedPanic>() {
        format!("injected panic: {}", injected.0)
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucid_obs::alloc::Phase;

    fn squares(n: usize, workers: usize) -> Vec<usize> {
        let (out, _) = map_indexed(n, workers, |i| i * i);
        out.into_iter().map(|r| r.unwrap()).collect()
    }

    #[test]
    fn results_keep_index_order_at_any_worker_count() {
        let expected: Vec<usize> = (0..17).map(|i| i * i).collect();
        for workers in [1, 2, 64] {
            assert_eq!(squares(17, workers), expected, "workers={workers}");
        }
        for workers in [1, 2] {
            assert!(squares(0, workers).is_empty());
        }
    }

    #[test]
    fn a_panicking_job_fails_only_its_own_slot() {
        for workers in [1, 3] {
            let (out, _) = map_indexed(5, workers, |i| {
                if i == 2 {
                    panic!("job {i} exploded");
                }
                i
            });
            assert_eq!(
                out[2],
                Err("job 2 exploded".to_string()),
                "workers={workers}"
            );
            for i in [0, 1, 3, 4] {
                assert_eq!(out[i], Ok(i), "workers={workers}");
            }
        }
    }

    #[test]
    fn the_inline_path_runs_on_the_callers_thread() {
        let me = std::thread::current().id();
        let (out, _) = map_indexed(3, 1, |_| std::thread::current().id());
        assert!(out.into_iter().all(|id| id.unwrap() == me));
        // One job never spawns, whatever the worker count.
        let (out, _) = map_indexed(1, 8, |_| std::thread::current().id());
        assert_eq!(out[0], Ok(me));
    }

    #[test]
    fn jobs_see_the_callers_allocation_phase() {
        let _mem = PhaseGuard::enter(Phase::Verify);
        for workers in [1, 2] {
            let (out, _) = map_indexed(4, workers, |_| alloc::current_phase());
            assert!(
                out.into_iter().all(|p| p == Ok(Phase::Verify)),
                "workers={workers}"
            );
        }
    }
}
