//! A counting global allocator for allocation-regression measurement.
//!
//! The cycle kernel's contract (docs/ARCHITECTURE.md, "Hot path") is
//! that a steady-state busy cycle performs **zero heap allocations**.
//! The `zero_alloc` integration test at the workspace root installs
//! [`CountingAlloc`] as its `#[global_allocator]` and asserts a zero
//! allocation delta across thousands of busy cycles (`build_cost`
//! uses it to bound what one machine build asks for). The benchmark
//! tracks the rate over time as `core.engine.allocs_per_kcycle`, with
//! its own counting allocator in `benchmark/src/alloc.rs`.
//!
//! The counters are process-global statics updated by whichever binary
//! installed the allocator; in a binary that did not install it they
//! simply stay at zero (and [`enabled`] reports `false`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that counts every allocation.
///
/// Install in a binary or test with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: mm_bench::alloc_probe::CountingAlloc =
///     mm_bench::alloc_probe::CountingAlloc;
/// ```
pub struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter updates are lock-free
// atomics and perform no allocation themselves.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as `System::alloc`; `layout` is forwarded
    // unchanged and the counter bump cannot allocate or unwind.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract, which
        // is exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System::alloc_zeroed`; forwarded rather
    // than left to the trait default (`alloc` + `memset`), which would
    // touch every page of a zero-initialised table the host would
    // otherwise map lazily.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: caller upholds `GlobalAlloc::alloc_zeroed`'s contract,
        // which is exactly `System::alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: same contract as `System::dealloc`; `ptr`/`layout` came
    // from `alloc`/`realloc` above, which defer to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: caller guarantees `ptr` was allocated by this
        // allocator with `layout`, i.e. by `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same contract as `System::realloc`; arguments are
    // forwarded unchanged and the counter bump cannot allocate.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: caller guarantees `ptr`/`layout` describe a live
        // `System` allocation and `new_size` is non-zero.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations counted so far (0 if the probe allocator is not
/// installed in this process).
#[must_use]
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes requested so far.
#[must_use]
pub fn bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

/// Is the probe live in this process? (Heuristic: a Rust process that
/// has reached `main` with the probe installed has allocated.)
#[must_use]
pub fn enabled() -> bool {
    allocations() > 0
}
