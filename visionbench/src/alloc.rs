//! Counting global allocator.
//!
//! Every allocation, growth and free is added to per-thread byte counters
//! (no shared cache line, so two workers allocating in parallel do not
//! contend). `allocated()` feeds the `*.alloc_bytes` layer metrics: read
//! it before and after a call on the same thread. `live()` is this
//! thread's allocated-minus-freed balance; `serve_churn` samples it per
//! pacing step for `service.heap_growth_bytes_per_s` (the service world
//! runs on one thread).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct Counting;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
    static FREED: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>, bytes: usize) {
    // `try_with`: allocations during thread teardown must not panic.
    let _ = counter.try_with(|c| c.set(c.get().wrapping_add(bytes as u64)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping only touches
// const-initialized thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCATED, layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCATED, layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREED, layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            bump(&ALLOCATED, new_size - layout.size());
        } else {
            bump(&FREED, layout.size() - new_size);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Bytes this thread has allocated so far (growth by `realloc` included).
pub fn allocated() -> u64 {
    ALLOCATED.with(Cell::get)
}

/// This thread's allocated-minus-freed byte balance.
pub fn live() -> i64 {
    ALLOCATED.with(Cell::get) as i64 - FREED.with(Cell::get) as i64
}

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set size of this process, MiB: `ru_maxrss`, the same
/// high-water mark as `VmHWM`.
pub fn peak_rss_mb() -> Option<f64> {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage` (two
    // `timeval`s and fourteen `long`s on 64-bit Linux).
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    // Linux reports `ru_maxrss` in KiB.
    (rc == 0).then(|| usage.maxrss as f64 / 1024.0)
}
