//! Measuring instruments: a counting global allocator, the process CPU
//! clock, and order statistics.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, Ordering};

/// `System` plus live, peak, and cumulative byte counters that count only
/// inside [`count_heap`]. Outside it the allocator only forwards: shared
/// counters updated on every allocation by every thread cost time and
/// make it vary with how the cores share cache lines, so timed passes
/// run uncounted. The counters are statistics that publish no other
/// data, hence `Relaxed`.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
/// Live bytes since counting started; negative when blocks allocated
/// before are freed.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        let live = LIVE.fetch_add(bytes as isize, Ordering::Relaxed) + bytes as isize;
        PEAK.fetch_max(live, Ordering::Relaxed);
        ALLOCATED.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        LIVE.fetch_sub(bytes as isize, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged, so `System`'s guarantees carry over; the counters
// only observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System::alloc`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this layout.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` came from this allocator (i.e. `System`)
        // and the caller upholds `realloc`'s size contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        new
    }
}

/// Runs `f` with the heap counted; returns its result, the highest
/// growth of the live heap while it ran, and the bytes it allocated.
/// Call it from one thread at a time, with no other thread allocating;
/// threads `f` spawns and joins see the flag through the spawn and join
/// synchronisation, so `Relaxed` suffices.
pub fn count_heap<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ALLOCATED.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    let peak = PEAK.load(Ordering::Relaxed).max(0) as u64;
    (out, peak, ALLOCATED.load(Ordering::Relaxed))
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user + system time of every thread
/// of the process, exited threads included.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Process CPU seconds so far, at nanosecond resolution.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Mean of a non-empty sample.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The highest order statistic with at least ten samples above it, with
/// its percentile rank and the sample count; the maximum when fewer
/// than eleven samples exist.
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let index = if n < 11 { n - 1 } else { n - 11 };
    let percentile = 100.0 * (index + 1) as f64 / n as f64;
    (sorted[index], percentile, n)
}
