//! A counting global allocator for the allocation-budget tests
//! (`encode_alloc.rs`, `read_alloc.rs`, `ring_alloc.rs`, `sim_alloc.rs`).
//! The counters are process-wide, so a test binary that installs it holds one
//! `#[test]` only: a second test running beside it would be counted too.  So
//! would the test harness's own thread, which allocates a few times while a
//! test runs; a budget of single-threaded code reads the this-thread count
//! of [`counted`] instead.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Allocations of at least this many bytes are "large": far above every
/// name, manifest entry, frame header and coefficient table, far below a
/// block of the chunks measured.
pub const LARGE: usize = 64 * 1024;

static LARGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);
static SMALL_ALLOCS: AtomicUsize = AtomicUsize::new(0);
static SMALL_BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Every allocation and reallocation made by this thread.
    static THIS_THREAD: Cell<usize> = const { Cell::new(0) };
}

/// Forwards to [`System`], counting every allocation and reallocation by the
/// size asked for.
pub struct Counting;

impl Counting {
    fn note(size: usize) {
        // A const-initialised `Cell` has no destructor, so this never fails.
        let _ = THIS_THREAD.try_with(|n| n.set(n.get() + 1));
        if size >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Relaxed);
        } else {
            SMALL_ALLOCS.fetch_add(1, Relaxed);
            SMALL_BYTES.fetch_add(size, Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
#[expect(unsafe_code, reason = "a global allocator is an unsafe impl")]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: `ptr` and `layout` are the caller's, passed through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` are the caller's, passed through as is.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(large allocations, small allocations, small bytes, allocations on this
/// thread)` made while `f` runs: the first three by any thread of the
/// process (a buffer reallocated to a large size counts as a large
/// allocation), the last, of any size, by the thread that called `counted`.
pub fn counted(f: impl FnOnce()) -> (usize, usize, usize, usize) {
    let before = (
        LARGE_ALLOCS.load(Relaxed),
        SMALL_ALLOCS.load(Relaxed),
        SMALL_BYTES.load(Relaxed),
        THIS_THREAD.with(Cell::get),
    );
    f();
    (
        LARGE_ALLOCS.load(Relaxed) - before.0,
        SMALL_ALLOCS.load(Relaxed) - before.1,
        SMALL_BYTES.load(Relaxed) - before.2,
        THIS_THREAD.with(Cell::get) - before.3,
    )
}
