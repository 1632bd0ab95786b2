//! A counting global allocator for the allocation pins: it wraps `System`
//! and charges each allocation and reallocation to the thread that made
//! it, and only while that thread runs inside [`counted`]. Tests in one
//! binary may therefore run side by side.
//!
//! Include it with `#[path = "support/counting_alloc.rs"] mod
//! counting_alloc;`: the module installs itself as the binary's
//! `#[global_allocator]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// `Some((allocations, reallocations))` while this thread counts.
    static COUNTS: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// Charges one allocation (or reallocation) to this thread if it counts.
fn charge(realloc: bool) {
    // `try_with`: the allocator also runs while a thread's locals are
    // torn down, when `COUNTS` is gone.
    let _ = COUNTS.try_with(|c| {
        if let Some((allocs, reallocs)) = c.get() {
            c.set(Some(if realloc {
                (allocs, reallocs + 1)
            } else {
                (allocs + 1, reallocs)
            }));
        }
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; counting touches only a thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(false);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge(true);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns the (allocations, reallocations) this thread
/// made inside it.
pub fn counted(f: impl FnOnce()) -> (usize, usize) {
    COUNTS.with(|c| c.set(Some((0, 0))));
    f();
    COUNTS.with(Cell::take).expect("counting was armed above")
}
