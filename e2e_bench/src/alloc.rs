//! A counting global allocator for the `peak_heap_mib.*` metrics.
//!
//! Counting is off except inside [`peak_bytes`]; with it off, every
//! allocation and free costs one relaxed load of [`MEASURING`] on top of
//! the system allocator. Only the thread that called [`peak_bytes`] is
//! counted, so parallel unit tests do not pollute each other's numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator with per-thread live/peak byte counting.
pub struct Counting;

/// Number of threads currently inside [`peak_bytes`]. A statistic gate
/// only: it publishes no data, so `Relaxed` suffices.
static MEASURING: AtomicUsize = AtomicUsize::new(0);

/// Per-thread counters: whether this thread is measuring, bytes live
/// since the measurement began (negative when it frees older blocks), and
/// the highest value `live` reached.
#[derive(Clone, Copy)]
struct Counters {
    on: bool,
    live: i64,
    peak: i64,
}

thread_local! {
    // Const-initialized and without a destructor, so reading it from
    // inside the allocator never allocates.
    static COUNTERS: Cell<Counters> = const {
        Cell::new(Counters { on: false, live: 0, peak: 0 })
    };
}

fn record(delta: i64) {
    if MEASURING.load(Ordering::Relaxed) == 0 {
        return;
    }
    let _ = COUNTERS.try_with(|c| {
        let mut v = c.get();
        if v.on {
            v.live += delta;
            v.peak = v.peak.max(v.live);
            c.set(v);
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting only reads
// sizes and touches a thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            record(layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            record(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` (every path above
        // forwards to it) with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        record(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            record(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

/// Runs `f` and returns its result with the largest number of bytes the
/// calling thread held allocated at once while `f` ran, counted from the
/// moment `f` started. The result stays allocated, so it counts too.
pub fn peak_bytes<R>(f: impl FnOnce() -> R) -> (R, u64) {
    COUNTERS.with(|c| {
        c.set(Counters {
            on: true,
            live: 0,
            peak: 0,
        })
    });
    MEASURING.fetch_add(1, Ordering::Relaxed);
    let r = f();
    MEASURING.fetch_sub(1, Ordering::Relaxed);
    let peak = COUNTERS.with(|c| {
        let v = c.get();
        c.set(Counters { on: false, ..v });
        v.peak
    });
    (r, peak.max(0) as u64)
}
