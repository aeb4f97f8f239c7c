//! A counting global allocator for allocation-budget tests: it tallies
//! the allocations (reallocations included) made on the calling thread
//! only, so other test threads never perturb a count. A test binary
//! installs it with `#[global_allocator]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, counting each allocation.
pub struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: the thread-local may already be gone while a thread
    // tears down, and the allocator must not panic then.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// thread-local counter neither allocates nor touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocations (including reallocations) `f` makes on this thread.
pub fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}
