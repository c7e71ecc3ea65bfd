//! Microbenchmark for the instrumented allocator (`obs::alloc`).
//!
//! Runs an allocation-heavy loop mirroring the search's churn — small
//! vectors and short strings — with allocator counting off and on, and
//! prints each arm's wall time and amortized cost per alloc/dealloc
//! pair. This is the raw per-allocation view behind the end-to-end
//! numbers from `lucid bench --telemetry-overhead`: counting should sit
//! within a few nanoseconds of off.
//!
//! ```sh
//! cargo run --release --example alloc_bench
//! ```

use lucidscript::obs::alloc::{self, Phase, PhaseGuard};
use std::time::Instant;

fn main() {
    let n = 2_000_000usize;
    let prev = alloc::set_counting(true);
    for (arm, counting) in [("off", false), ("counting", true)] {
        alloc::set_counting(counting);
        // Tag the loop like a search phase so attribution is exercised,
        // not just the on/off check.
        let _g = PhaseGuard::enter(Phase::Execute);
        let t = Instant::now();
        let mut sink = 0u64;
        for i in 0..n {
            let v: Vec<u8> = Vec::with_capacity(16 + (i & 63));
            sink = sink.wrapping_add(v.capacity() as u64);
            let s = format!("{i}");
            sink = sink.wrapping_add(s.len() as u64);
        }
        let el = t.elapsed();
        println!(
            "{:>9}: {:7.1} ms  ({:.1} ns/alloc-pair, sink {sink})",
            arm,
            el.as_secs_f64() * 1e3,
            el.as_nanos() as f64 / (2.0 * n as f64),
        );
    }
    alloc::set_counting(prev);
}
