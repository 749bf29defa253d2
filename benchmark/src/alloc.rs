//! The binary's global allocator: `System`, plus a count of allocation
//! calls for `core.engine.allocs_per_kcycle`.
//!
//! `mm_bench::alloc_probe::CountingAlloc` is not used because it does
//! not forward `alloc_zeroed`: the default falls back to `alloc` +
//! `memset`, which commits every zeroed SDRAM page of every simulated
//! node at build time instead of leaving it to `calloc`'s lazily mapped
//! zero pages. Measured on the 2-core reference host that roughly
//! halves `sim_cycles_per_s` on `busy_mesh_64` (about 78k to 41k
//! cycles/s), triples set-up time and multiplies peak RSS — the
//! benchmark would describe a machine no `reproduce` or `mmctl` user
//! ever runs. This allocator changes nothing but the count.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A statistic only: it publishes no other data, so `Relaxed` suffices.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller already upholds; the counter
// bump neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as `alloc`; forwarded so zeroed memory stays `calloc`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`, that is
        // from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` allocation and
        // the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}
