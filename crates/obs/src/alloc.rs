//! Memory telemetry: an instrumented [`GlobalAlloc`] wrapper with
//! thread-local phase attribution.
//!
//! [`LucidAlloc`] wraps the system allocator and records every
//! allocation into a fixed set of static atomics — per-phase byte and
//! allocation-count totals, a live-bytes gauge, and monotonic, windowed
//! and per-phase peaks. Phases mirror the paper's Figure 7 breakdown:
//! enumerate / execute / score / verify, plus a catch-all for
//! allocations made outside any tagged region.
//!
//! Hard constraints, in order:
//!
//! 1. **The record path never allocates.** Only static atomics and a
//!    const-initialized thread-local cell block are touched, so the
//!    allocator cannot re-enter itself. Folding the raw counters into a
//!    [`Registry`](crate::Registry) (which *does* allocate) happens at
//!    search boundaries in `lucid-core`, via [`snapshot`] deltas.
//! 2. **Cheap enough to leave on.** There is one record path: it
//!    batches into the thread-local buffer and drains it at batch
//!    thresholds and measurement boundaries, so the per-allocation cost
//!    is a few plain (non-atomic) adds; the bench harness pins the
//!    end-to-end overhead budget against [`set_counting`]`(false)`, the
//!    uninstrumented baseline.
//! 3. **Measurement only.** Nothing here influences allocation sizes,
//!    addresses, or ordering — the determinism suite must stay
//!    byte-identical with counting on or off.
//! 4. **Thread-destruction safe.** Allocations during TLS teardown fall
//!    back to [`Phase::Unattributed`] instead of panicking.
//!
//! Byte and allocation totals are exact at every measurement boundary.
//! The peaks are flush-granular: they move only when a thread drains
//! its buffer, so they lag true live bytes by at most 32 KiB per
//! thread, and adding or removing a boundary (a [`snapshot`] call) can
//! move them by that much.
//!
//! The counters are process-global: concurrent searches in one process
//! interleave their attributions. Per-search deltas therefore satisfy
//! "phase bytes sum to the total" *by construction* (the total is the
//! sum of the same per-phase deltas), which is the invariant the test
//! suite pins; exact per-search isolation requires a quiet process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

use crate::timings::Metric;

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

static COUNTING: AtomicBool = AtomicBool::new(true);

/// Events (allocations + deallocations) a thread buffers before a
/// forced flush into the global atomics.
const FLUSH_EVERY: u32 = 64;
/// Net live-byte drift a thread buffers before a forced flush; the
/// global live/peak gauges lag true live by at most this much per
/// thread (plus whatever a single batch nets out), so a large spike
/// always flushes immediately.
const FLUSH_LIVE_SLACK: u64 = 32 * 1024;

/// Per-thread attribution buffer. The record path writes only these
/// plain cells — no atomics — and drains them into the globals on
/// batch thresholds and at every measurement boundary
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
    ///
    /// A batch that raised live bytes raises the process and window
    /// peaks to the new live level, and with them the peak of every
    /// phase that allocated in the batch.
    fn flush(&self) {
        self.events.set(0);
        let delta = self.live.replace(0);
        let mut live = 0;
        if delta != 0 {
            live = (LIVE_BYTES.fetch_add(delta, Ordering::Relaxed) + delta).max(0) as u64;
            if delta > 0 {
                raise_peak(&PEAK_BYTES, live);
                raise_peak(&WINDOW_PEAK_BYTES, live);
            }
        }
        for i in 0..NUM_PHASES {
            let b = self.bytes[i].replace(0);
            if b > 0 {
                PHASE_BYTES[i].fetch_add(b, Ordering::Relaxed);
                if delta > 0 {
                    raise_peak(&PHASE_PEAK[i], live);
                }
            }
            let a = self.allocs[i].replace(0);
            if a > 0 {
                PHASE_ALLOCS[i].fetch_add(a, Ordering::Relaxed);
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

/// Turns allocator counting on (the default) or off, returning the
/// previous setting. Off makes [`LucidAlloc`] a pass-through to
/// [`System`] — the uninstrumented baseline the overhead harness times
/// against. Purely a measurement switch: search results are identical
/// either way.
pub fn set_counting(on: bool) -> bool {
    COUNTING.swap(on, Ordering::Relaxed)
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

/// Records one allocation of `size` bytes. Called by [`LucidAlloc`];
/// public so unit tests and benches can exercise the accounting without
/// installing the global allocator.
///
/// Buffers into the thread's [`TlsBuf`] and pays no atomics until a
/// batch threshold or boundary flush.
#[inline]
pub fn note_alloc(size: usize) {
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    let size = size as u64;
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
        // TLS teardown: write the globals directly, unattributed.
        let idx = Phase::Unattributed as usize;
        PHASE_BYTES[idx].fetch_add(size, Ordering::Relaxed);
        PHASE_ALLOCS[idx].fetch_add(1, Ordering::Relaxed);
        let live = (LIVE_BYTES.fetch_add(size as i64, Ordering::Relaxed) + size as i64).max(0);
        for peak in [&PEAK_BYTES, &WINDOW_PEAK_BYTES, &PHASE_PEAK[idx]] {
            raise_peak(peak, live as u64);
        }
    }
}

/// Records one deallocation of `size` bytes (see [`note_alloc`]).
#[inline]
pub fn note_dealloc(size: usize) {
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    let buffered = TLS_BUF.try_with(|b| {
        let live = b.live.get() - size as i64;
        b.live.set(live);
        let events = b.events.get() + 1;
        b.events.set(events);
        if events >= FLUSH_EVERY || live.unsigned_abs() >= FLUSH_LIVE_SLACK {
            b.flush();
        }
    });
    if buffered.is_err() {
        // Live can transiently go negative when counting was switched on
        // after the matching allocation went uncounted; reads clamp at
        // zero.
        LIVE_BYTES.fetch_sub(size as i64, Ordering::Relaxed);
    }
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

/// Zeroes the per-phase peak gauges, so a measurement window sees only
/// its own high-water marks.
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
    /// Per-phase live-bytes high-water marks: the highest live level a
    /// flush reached while draining bytes of that phase.
    pub phase_peak_bytes: [u64; NUM_PHASES],
    /// Live bytes at snapshot time.
    pub live_bytes: u64,
    /// Process-lifetime peak of live bytes.
    pub peak_bytes: u64,
    /// Peak since the last [`reset_window_peak`].
    pub window_peak_bytes: u64,
}

/// Allocation activity between two snapshots.
#[derive(Debug, Clone, Copy)]
pub struct AllocDelta {
    /// Bytes allocated per phase inside the window.
    pub phase_bytes: [u64; NUM_PHASES],
    /// Allocations per phase inside the window.
    pub phase_allocs: [u64; NUM_PHASES],
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
        };
        for i in 0..NUM_PHASES {
            d.phase_bytes[i] = self.phase_bytes[i].wrapping_sub(earlier.phase_bytes[i]);
            d.phase_allocs[i] = self.phase_allocs[i].wrapping_sub(earlier.phase_allocs[i]);
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
    // read deltas or toggle counting so they don't observe each other.
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
        let prev = set_counting(true);
        let before = snapshot();
        {
            let _g = PhaseGuard::enter(Phase::Score);
            note_alloc(1000);
            note_alloc(24);
        }
        note_alloc(8); // unattributed
        note_dealloc(24);
        let delta = snapshot().delta_since(&before);
        set_counting(prev);

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
    }

    #[test]
    fn peak_tracks_live_high_water_and_windows_reset() {
        let _l = lock();
        let prev = set_counting(true);
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
        set_counting(prev);
    }

    #[test]
    fn phase_peaks_rise_at_the_flush_that_drains_the_phase() {
        let _l = lock();
        let prev = set_counting(true);
        flush_tls();
        reset_phase_peaks();
        let base = live_bytes();
        {
            let _g = PhaseGuard::enter(Phase::Verify);
            // Over the live slack: flushes at once.
            note_alloc(64 * 1024);
        }
        let snap = snapshot();
        let verify = snap.phase_peak_bytes[Phase::Verify as usize];
        assert!(
            verify >= base + 64 * 1024,
            "verify peak {verify} below live"
        );
        assert_eq!(snap.phase_peak_bytes[Phase::Score as usize], 0);
        note_dealloc(64 * 1024);
        // Freeing raises nothing.
        assert_eq!(snapshot().phase_peak_bytes[Phase::Verify as usize], verify);
        set_counting(prev);
    }

    #[test]
    fn counting_off_counts_nothing() {
        let _l = lock();
        let prev = set_counting(false);
        let before = snapshot();
        note_alloc(4096);
        note_dealloc(4096);
        let delta = snapshot().delta_since(&before);
        assert!(
            !set_counting(prev),
            "set_counting returns the previous setting"
        );
        assert_eq!(delta.total_bytes(), 0);
        assert_eq!(delta.total_allocs(), 0);
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
