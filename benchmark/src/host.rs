//! Host facts: CPU steal and process CPU time from `/proc`, and a speed
//! probe.
//!
//! On a shared VM the same work can take twice as long minutes apart, so
//! every run reports what the host was doing while it measured.

use std::fs;
use std::time::Instant;

/// The aggregate `cpu` line of `/proc/stat`, in clock ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    pub total: u64,
    pub steal: u64,
}

pub fn cpu_ticks() -> Option<CpuTicks> {
    let text = fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user, so it is left out of total.
    let total = fields.iter().take(8).sum();
    let steal = fields.get(7).copied().unwrap_or(0);
    Some(CpuTicks { total, steal })
}

/// Share of all CPU time the hypervisor stole between two readings.
pub fn steal_pct(before: Option<CpuTicks>, after: Option<CpuTicks>) -> f64 {
    match (before, after) {
        (Some(b), Some(a)) if a.total > b.total => {
            (a.steal - b.steal) as f64 / (a.total - b.total) as f64 * 100.0
        }
        _ => 0.0,
    }
}

/// User plus system CPU seconds of this process, all threads included
/// (`/proc/self/stat` fields 14 and 15, at the usual 100 ticks/s).
pub fn process_cpu_s() -> f64 {
    let Ok(text) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may hold spaces; fields resume after its ')'.
    let Some(rest) = text.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // `rest` starts at field 3 (state), so utime (14) is index 11.
    (tick(11) + tick(12)) as f64 / 100.0
}

/// A fixed CPU-bound reference task: 2^20 rounds of a SplitMix64 step
/// scattered over a 64 KiB table. Its time, taken before each shard, says
/// how fast the host runs at that moment. It is reported beside the
/// results so a slow run can be told apart from a slow program; nothing is
/// scaled by it.
pub fn speed_probe_ms() -> f64 {
    let t0 = Instant::now();
    let mut table = vec![0u64; 8192];
    let mut x: u64 = 0x5EED;
    for i in 0..(1u64 << 20) {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        table[(z as usize) & 8191] ^= z ^ i;
    }
    std::hint::black_box(&table);
    t0.elapsed().as_secs_f64() * 1e3
}
