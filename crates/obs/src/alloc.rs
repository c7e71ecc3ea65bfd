//! Memory telemetry: an instrumented [`GlobalAlloc`] wrapper with
//! thread-local phase attribution.
//!
//! [`LucidAlloc`] wraps the system allocator and, depending on the
//! global [`TelemetryMode`], records every allocation into a fixed set
//! of static atomics — per-phase byte and allocation-count totals, a
//! live-bytes gauge, monotonic and windowed peaks, and (in `Full` mode)
//! a log₂ size-class histogram. Phases mirror the paper's Figure 7
//! breakdown: enumerate / execute / score / verify, plus a catch-all
//! for allocations made outside any tagged region.
//!
//! Hard constraints, in order:
//!
//! 1. **The record path never allocates.** Only static atomics and a
//!    const-initialized thread-local cell block are touched, so the
//!    allocator cannot re-enter itself. Folding the raw counters into a
//!    [`Registry`](crate::Registry) (which *does* allocate) happens at
//!    search boundaries in `lucid-core`, via [`snapshot`] deltas.
//! 2. **The default mode is cheap enough to leave on.** `Counting`
//!    batches into the thread-local buffer and drains it at batch
//!    thresholds and measurement boundaries, so the per-allocation cost
//!    is a few plain (non-atomic) adds; the bench harness pins the
//!    end-to-end overhead budget.
//! 3. **Measurement only.** Nothing here influences allocation sizes,
//!    addresses, or ordering — the determinism suite must stay
//!    byte-identical with any [`TelemetryMode`] selected.
//! 4. **Thread-destruction safe.** Allocations during TLS teardown fall
//!    back to [`Phase::Unattributed`] instead of panicking.
//!
//! The counters are process-global: concurrent searches in one process
//! interleave their attributions. Per-search deltas therefore satisfy
//! "phase bytes sum to the total" *by construction* (the total is the
//! sum of the same per-phase deltas), which is the invariant the test
//! suite pins; exact per-search isolation requires a quiet process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};

use crate::metrics::HISTOGRAM_BUCKETS;
use crate::timings::Metric;

/// How much the instrumented allocator records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryMode {
    /// Pass-through: the wrapper delegates to [`System`] untouched.
    Off,
    /// Per-phase byte/allocation counters, live gauge, and peaks.
    Counting,
    /// Everything in `Counting`, plus per-phase peak tracking and the
    /// log₂ allocation-size histogram.
    Full,
}

impl TelemetryMode {
    fn from_u8(v: u8) -> TelemetryMode {
        match v {
            0 => TelemetryMode::Off,
            2 => TelemetryMode::Full,
            _ => TelemetryMode::Counting,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            TelemetryMode::Off => 0,
            TelemetryMode::Counting => 1,
            TelemetryMode::Full => 2,
        }
    }

    /// The mode's CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            TelemetryMode::Off => "off",
            TelemetryMode::Counting => "counting",
            TelemetryMode::Full => "full",
        }
    }
}

impl std::str::FromStr for TelemetryMode {
    type Err = String;

    fn from_str(s: &str) -> Result<TelemetryMode, String> {
        match s {
            "off" => Ok(TelemetryMode::Off),
            "counting" => Ok(TelemetryMode::Counting),
            "full" => Ok(TelemetryMode::Full),
            other => Err(format!(
                "unknown telemetry mode '{other}' (expected off|counting|full)"
            )),
        }
    }
}

/// The search phase an allocation is attributed to. The four named
/// phases match the Figure 7 breakdown; everything else (parsing,
/// corpus loading, report assembly) lands in `Unattributed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Outside any tagged region.
    Unattributed = 0,
    /// Candidate enumeration + scoring workers (`GetSteps`).
    Enumerate = 1,
    /// Candidate execution in the interpreter (`CheckIfExecutes`).
    Execute = 2,
    /// Beam ranking (`GetTopKBeams`).
    Score = 3,
    /// Final constraint verification (`VerifyConstraints`).
    Verify = 4,
}

/// Number of attribution slots (the four phases + unattributed).
pub const NUM_PHASES: usize = 5;

/// All phases, index-ordered; `PHASES[i] as usize == i`.
pub const PHASES: [Phase; NUM_PHASES] = [
    Phase::Unattributed,
    Phase::Enumerate,
    Phase::Execute,
    Phase::Score,
    Phase::Verify,
];

impl Phase {
    /// The registry counter a search adds this phase's allocated bytes
    /// to.
    pub fn bytes_metric(self) -> Metric {
        match self {
            Phase::Unattributed => Metric::MemBytesUnattributed,
            Phase::Enumerate => Metric::MemBytesEnumerate,
            Phase::Execute => Metric::MemBytesExecute,
            Phase::Score => Metric::MemBytesScore,
            Phase::Verify => Metric::MemBytesVerify,
        }
    }
}

static MODE: AtomicU8 = AtomicU8::new(1); // Counting by default.

/// Events (allocations + deallocations) a thread buffers before a
/// forced flush into the global atomics.
const FLUSH_EVERY: u32 = 64;
/// Net live-byte drift a thread buffers before a forced flush; the
/// global live/peak gauges lag true live by at most this much per
/// thread (plus whatever a single batch nets out), so a large spike
/// always flushes immediately.
const FLUSH_LIVE_SLACK: u64 = 32 * 1024;

/// Per-thread attribution buffer. In `Counting` mode the record path
/// writes only these plain cells — no atomics — and drains them into
/// the globals on batch thresholds and at every measurement boundary
/// ([`snapshot`], [`flush_tls`], the gauge getters), so windows
/// delimited by those boundaries are exact. Deliberately has no `Drop`:
/// a TLS destructor would be registered lazily from inside the
/// allocator hook, and registration itself may allocate. Search worker
/// threads call [`flush_tls`] right before the spawning scope joins
/// them; what a thread can strand at exit is bounded by one batch.
struct TlsBuf {
    phase: Cell<u8>,
    bytes: [Cell<u64>; NUM_PHASES],
    allocs: [Cell<u64>; NUM_PHASES],
    live: Cell<i64>,
    events: Cell<u32>,
}

impl TlsBuf {
    const fn new() -> TlsBuf {
        TlsBuf {
            phase: Cell::new(0),
            bytes: [
                Cell::new(0),
                Cell::new(0),
                Cell::new(0),
                Cell::new(0),
                Cell::new(0),
            ],
            allocs: [
                Cell::new(0),
                Cell::new(0),
                Cell::new(0),
                Cell::new(0),
                Cell::new(0),
            ],
            live: Cell::new(0),
            events: Cell::new(0),
        }
    }

    /// Drains every buffered count into the global atomics. Touches no
    /// allocator — safe to run from inside the allocation hook.
    fn flush(&self) {
        self.events.set(0);
        for i in 0..NUM_PHASES {
            let b = self.bytes[i].replace(0);
            if b > 0 {
                PHASE_BYTES[i].fetch_add(b, Ordering::Relaxed);
            }
            let a = self.allocs[i].replace(0);
            if a > 0 {
                PHASE_ALLOCS[i].fetch_add(a, Ordering::Relaxed);
            }
        }
        let delta = self.live.replace(0);
        if delta != 0 {
            let live = (LIVE_BYTES.fetch_add(delta, Ordering::Relaxed) + delta).max(0) as u64;
            if delta > 0 {
                raise_peak(&PEAK_BYTES, live);
                raise_peak(&WINDOW_PEAK_BYTES, live);
            }
        }
    }
}

thread_local! {
    static TLS_BUF: TlsBuf = const { TlsBuf::new() };
}

/// Flushes the calling thread's buffered attribution into the global
/// counters. Every read-side API calls this, so callers only need it
/// when inspecting the raw statics from the same thread in tests.
pub fn flush_tls() {
    let _ = TLS_BUF.try_with(TlsBuf::flush);
}

static PHASE_BYTES: [AtomicU64; NUM_PHASES] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];
static PHASE_ALLOCS: [AtomicU64; NUM_PHASES] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];
static PHASE_PEAK: [AtomicU64; NUM_PHASES] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
static WINDOW_PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static SIZE_BUCKETS: [AtomicU64; HISTOGRAM_BUCKETS] = [ZERO; HISTOGRAM_BUCKETS];

/// The process-wide telemetry mode (default: [`TelemetryMode::Counting`]).
pub fn mode() -> TelemetryMode {
    TelemetryMode::from_u8(MODE.load(Ordering::Relaxed))
}

/// Sets the process-wide telemetry mode, returning the previous one.
/// Purely a measurement knob — search results are identical in every
/// mode.
pub fn set_mode(mode: TelemetryMode) -> TelemetryMode {
    TelemetryMode::from_u8(MODE.swap(mode.as_u8(), Ordering::Relaxed))
}

fn current_phase_index() -> usize {
    // `try_with` instead of `with`: allocations can happen while this
    // thread's TLS is being destroyed, where access would panic.
    TLS_BUF
        .try_with(|b| b.phase.get() as usize)
        .unwrap_or(Phase::Unattributed as usize)
        .min(NUM_PHASES - 1)
}

/// RAII phase tag: allocations on this thread are attributed to `phase`
/// until the guard drops, which restores the previous tag (guards nest).
///
/// Guards are pure tag swaps — the interpreter enters one per candidate
/// execution, so they must stay a couple of TLS cell writes. Buffered
/// attribution is made globally visible by [`snapshot`] (same thread)
/// or [`flush_tls`]; a worker thread that tags phases and is then
/// joined must call [`flush_tls`] before it ends, or its last partial
/// batch stays invisible to the joining thread.
#[derive(Debug)]
pub struct PhaseGuard {
    prev: u8,
}

impl PhaseGuard {
    /// Tags the current thread with `phase`.
    pub fn enter(phase: Phase) -> PhaseGuard {
        let prev = TLS_BUF
            .try_with(|b| b.phase.replace(phase as u8))
            .unwrap_or(Phase::Unattributed as u8);
        PhaseGuard { prev }
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let _ = TLS_BUF.try_with(|b| b.phase.set(self.prev));
    }
}

/// The phase currently tagged on this thread.
pub fn current_phase() -> Phase {
    PHASES[current_phase_index()]
}

/// Raises `target` to `v` only when it actually advances. Peaks move
/// rarely, so the common case is one relaxed load instead of an
/// unconditional atomic-max (a CAS loop on most targets); the race
/// where two threads both see a stale value resolves inside
/// `fetch_max`, keeping the result exact.
#[inline]
fn raise_peak(target: &AtomicU64, v: u64) {
    if target.load(Ordering::Relaxed) < v {
        target.fetch_max(v, Ordering::Relaxed);
    }
}

/// The slow path shared by `Full` mode (whose per-phase peaks and size
/// buckets need the live gauge current at every allocation) and the
/// TLS-teardown fallback: write the global atomics directly.
fn note_alloc_direct(idx: usize, size: u64, full: bool) {
    PHASE_BYTES[idx].fetch_add(size, Ordering::Relaxed);
    PHASE_ALLOCS[idx].fetch_add(1, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    let live = live.max(0) as u64;
    raise_peak(&PEAK_BYTES, live);
    raise_peak(&WINDOW_PEAK_BYTES, live);
    if full {
        raise_peak(&PHASE_PEAK[idx], live);
        let bucket = (63 - size.max(1).leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        SIZE_BUCKETS[bucket].fetch_add(1, Ordering::Relaxed);
    }
}

/// Records one allocation of `size` bytes. Called by [`LucidAlloc`];
/// public so unit tests and benches can exercise the accounting without
/// installing the global allocator.
///
/// `Counting` mode — the always-on default — buffers into the thread's
/// [`TlsBuf`] and pays no atomics until a batch threshold or boundary
/// flush; `Full` mode takes the direct path so its per-allocation
/// gauges stay exact.
#[inline]
pub fn note_alloc(size: usize) {
    let mode = TelemetryMode::from_u8(MODE.load(Ordering::Relaxed));
    if mode == TelemetryMode::Off {
        return;
    }
    let size = size as u64;
    if mode == TelemetryMode::Full {
        note_alloc_direct(current_phase_index(), size, true);
        return;
    }
    let buffered = TLS_BUF.try_with(|b| {
        let idx = (b.phase.get() as usize).min(NUM_PHASES - 1);
        b.bytes[idx].set(b.bytes[idx].get() + size);
        b.allocs[idx].set(b.allocs[idx].get() + 1);
        let live = b.live.get() + size as i64;
        b.live.set(live);
        let events = b.events.get() + 1;
        b.events.set(events);
        if events >= FLUSH_EVERY || live.unsigned_abs() >= FLUSH_LIVE_SLACK {
            b.flush();
        }
    });
    if buffered.is_err() {
        // TLS teardown: attribute directly (and unattributed).
        note_alloc_direct(Phase::Unattributed as usize, size, false);
    }
}

/// Records one deallocation of `size` bytes (see [`note_alloc`]).
#[inline]
pub fn note_dealloc(size: usize) {
    let mode = TelemetryMode::from_u8(MODE.load(Ordering::Relaxed));
    if mode == TelemetryMode::Off {
        return;
    }
    if mode == TelemetryMode::Counting {
        let buffered = TLS_BUF.try_with(|b| {
            let live = b.live.get() - size as i64;
            b.live.set(live);
            let events = b.events.get() + 1;
            b.events.set(events);
            if events >= FLUSH_EVERY || live.unsigned_abs() >= FLUSH_LIVE_SLACK {
                b.flush();
            }
        });
        if buffered.is_ok() {
            return;
        }
    }
    // Live can transiently go negative when mode was toggled after the
    // matching allocation went uncounted; reads clamp at zero.
    LIVE_BYTES.fetch_sub(size as i64, Ordering::Relaxed);
}

/// Bytes currently live (allocated minus freed since counting began).
pub fn live_bytes() -> u64 {
    flush_tls();
    LIVE_BYTES.load(Ordering::Relaxed).max(0) as u64
}

/// High-water mark of [`live_bytes`] over the process lifetime.
pub fn peak_bytes() -> u64 {
    flush_tls();
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// High-water mark of [`live_bytes`] since the last
/// [`reset_window_peak`] — the per-rep peak the bench harness samples.
pub fn window_peak_bytes() -> u64 {
    flush_tls();
    WINDOW_PEAK_BYTES.load(Ordering::Relaxed)
}

/// Starts a new peak window at the current live level, returning the
/// previous window's peak.
pub fn reset_window_peak() -> u64 {
    WINDOW_PEAK_BYTES.swap(live_bytes(), Ordering::Relaxed)
}

/// Zeroes the per-phase peak gauges (tracked in `Full` mode only), so a
/// measurement window sees only its own high-water marks.
pub fn reset_phase_peaks() {
    for p in &PHASE_PEAK {
        p.store(0, Ordering::Relaxed);
    }
}

/// Point-in-time copy of every allocator counter. Totals are monotone
/// (bytes/allocs only grow), so two snapshots subtract into a window
/// via [`AllocSnapshot::delta_since`].
#[derive(Debug, Clone, Copy)]
pub struct AllocSnapshot {
    /// Bytes allocated per phase since process start.
    pub phase_bytes: [u64; NUM_PHASES],
    /// Allocation count per phase since process start.
    pub phase_allocs: [u64; NUM_PHASES],
    /// Per-phase live-bytes high-water marks (`Full` mode).
    pub phase_peak_bytes: [u64; NUM_PHASES],
    /// Live bytes at snapshot time.
    pub live_bytes: u64,
    /// Process-lifetime peak of live bytes.
    pub peak_bytes: u64,
    /// Peak since the last [`reset_window_peak`].
    pub window_peak_bytes: u64,
    /// Log₂ size-class counts (`Full` mode); bucket `i` holds
    /// allocations of `[2^i, 2^{i+1})` bytes.
    pub size_buckets: [u64; HISTOGRAM_BUCKETS],
}

/// Allocation activity between two snapshots.
#[derive(Debug, Clone, Copy)]
pub struct AllocDelta {
    /// Bytes allocated per phase inside the window.
    pub phase_bytes: [u64; NUM_PHASES],
    /// Allocations per phase inside the window.
    pub phase_allocs: [u64; NUM_PHASES],
    /// Size-class counts inside the window.
    pub size_buckets: [u64; HISTOGRAM_BUCKETS],
}

impl AllocDelta {
    /// Total bytes — defined as the sum of the per-phase deltas, so
    /// "phase bytes sum to the total" holds exactly by construction.
    pub fn total_bytes(&self) -> u64 {
        self.phase_bytes.iter().sum()
    }

    /// Total allocation count (sum of per-phase counts).
    pub fn total_allocs(&self) -> u64 {
        self.phase_allocs.iter().sum()
    }
}

impl AllocSnapshot {
    /// The activity between `earlier` and `self`.
    pub fn delta_since(&self, earlier: &AllocSnapshot) -> AllocDelta {
        let mut d = AllocDelta {
            phase_bytes: [0; NUM_PHASES],
            phase_allocs: [0; NUM_PHASES],
            size_buckets: [0; HISTOGRAM_BUCKETS],
        };
        for i in 0..NUM_PHASES {
            d.phase_bytes[i] = self.phase_bytes[i].wrapping_sub(earlier.phase_bytes[i]);
            d.phase_allocs[i] = self.phase_allocs[i].wrapping_sub(earlier.phase_allocs[i]);
        }
        for i in 0..HISTOGRAM_BUCKETS {
            d.size_buckets[i] = self.size_buckets[i].wrapping_sub(earlier.size_buckets[i]);
        }
        d
    }
}

/// Reads every counter at once, after flushing the calling thread's
/// buffer — so same-thread windows delimited by snapshots are exact.
pub fn snapshot() -> AllocSnapshot {
    flush_tls();
    AllocSnapshot {
        phase_bytes: std::array::from_fn(|i| PHASE_BYTES[i].load(Ordering::Relaxed)),
        phase_allocs: std::array::from_fn(|i| PHASE_ALLOCS[i].load(Ordering::Relaxed)),
        phase_peak_bytes: std::array::from_fn(|i| PHASE_PEAK[i].load(Ordering::Relaxed)),
        live_bytes: live_bytes(),
        peak_bytes: peak_bytes(),
        window_peak_bytes: window_peak_bytes(),
        size_buckets: std::array::from_fn(|i| SIZE_BUCKETS[i].load(Ordering::Relaxed)),
    }
}

/// The instrumented allocator. Install once per binary:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: lucid_obs::alloc::LucidAlloc = lucid_obs::alloc::LucidAlloc;
/// ```
///
/// Delegates every call to [`System`] and notes sizes on success; a
/// failed allocation (null return) is not counted.
#[derive(Debug, Default, Clone, Copy)]
pub struct LucidAlloc;

// SAFETY: all four methods delegate directly to `System`, which upholds
// the `GlobalAlloc` contract; the accounting hooks touch only atomics
// and a const-initialized TLS cell, so they never allocate or unwind.
unsafe impl GlobalAlloc for LucidAlloc {
    #[inline]
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    #[inline]
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_dealloc(layout.size());
        System.dealloc(ptr, layout);
    }

    #[inline]
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    #[inline]
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            note_dealloc(layout.size());
            note_alloc(new_size);
        }
        new_ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The counters are process-global statics; serialize the tests that
    // read deltas or toggle the mode so they don't observe each other.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn phase_guard_tags_nest_and_restore() {
        let _l = lock();
        assert_eq!(current_phase(), Phase::Unattributed);
        {
            let _g = PhaseGuard::enter(Phase::Enumerate);
            assert_eq!(current_phase(), Phase::Enumerate);
            {
                let _h = PhaseGuard::enter(Phase::Execute);
                assert_eq!(current_phase(), Phase::Execute);
            }
            assert_eq!(current_phase(), Phase::Enumerate);
        }
        assert_eq!(current_phase(), Phase::Unattributed);
    }

    #[test]
    fn notes_attribute_to_the_tagged_phase_and_sum_to_total() {
        let _l = lock();
        let prev = set_mode(TelemetryMode::Full);
        let before = snapshot();
        {
            let _g = PhaseGuard::enter(Phase::Score);
            note_alloc(1000);
            note_alloc(24);
        }
        note_alloc(8); // unattributed
        note_dealloc(24);
        let delta = snapshot().delta_since(&before);
        set_mode(prev);

        let score = Phase::Score as usize;
        assert_eq!(delta.phase_bytes[score], 1024);
        assert_eq!(delta.phase_allocs[score], 2);
        assert_eq!(delta.phase_bytes[Phase::Unattributed as usize], 8);
        assert_eq!(delta.total_bytes(), 1032);
        assert_eq!(delta.total_allocs(), 3);
        assert_eq!(
            delta.total_bytes(),
            delta.phase_bytes.iter().sum::<u64>(),
            "total is the sum of phase deltas by construction"
        );
        // Full mode populated size classes: 1000 → bucket 9, 24 → 4, 8 → 3.
        assert_eq!(delta.size_buckets[9], 1);
        assert_eq!(delta.size_buckets[4], 1);
        assert_eq!(delta.size_buckets[3], 1);
    }

    #[test]
    fn peak_tracks_live_high_water_and_windows_reset() {
        let _l = lock();
        let prev = set_mode(TelemetryMode::Counting);
        reset_window_peak();
        let base = live_bytes();
        note_alloc(1 << 20);
        assert!(live_bytes() >= base + (1 << 20));
        assert!(peak_bytes() >= live_bytes());
        assert!(window_peak_bytes() >= base + (1 << 20));
        note_dealloc(1 << 20);
        assert!(peak_bytes() >= live_bytes(), "peak never drops below live");
        let old_window = reset_window_peak();
        assert!(old_window >= base + (1 << 20));
        assert!(window_peak_bytes() <= old_window);
        set_mode(prev);
    }

    #[test]
    fn off_mode_counts_nothing() {
        let _l = lock();
        let prev = set_mode(TelemetryMode::Off);
        let before = snapshot();
        note_alloc(4096);
        note_dealloc(4096);
        let delta = snapshot().delta_since(&before);
        set_mode(prev);
        assert_eq!(delta.total_bytes(), 0);
        assert_eq!(delta.total_allocs(), 0);
    }

    #[test]
    fn counting_mode_skips_full_only_gauges() {
        let _l = lock();
        let prev = set_mode(TelemetryMode::Counting);
        let before = snapshot();
        {
            let _g = PhaseGuard::enter(Phase::Verify);
            note_alloc(512);
        }
        let delta = snapshot().delta_since(&before);
        set_mode(prev);
        assert_eq!(delta.phase_bytes[Phase::Verify as usize], 512);
        assert_eq!(delta.size_buckets.iter().sum::<u64>(), 0);
    }

    #[test]
    fn mode_parses_and_round_trips() {
        for mode in [
            TelemetryMode::Off,
            TelemetryMode::Counting,
            TelemetryMode::Full,
        ] {
            assert_eq!(mode.name().parse::<TelemetryMode>().unwrap(), mode);
            assert_eq!(TelemetryMode::from_u8(mode.as_u8()), mode);
        }
        assert!("verbose".parse::<TelemetryMode>().is_err());
    }

    #[test]
    fn guards_are_thread_local() {
        let _l = lock();
        let _g = PhaseGuard::enter(Phase::Enumerate);
        let other = std::thread::spawn(current_phase).join().unwrap();
        assert_eq!(other, Phase::Unattributed);
        assert_eq!(current_phase(), Phase::Enumerate);
    }
}
