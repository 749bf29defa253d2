//! Build-cost regression lock: what one more machine costs the host.
//!
//! `reproduce`, the artifact tests and every test that builds a machine
//! pay `MMachine::build` dozens of times, so it must cost what the
//! machine needs and nothing per process or per word of address space
//! (docs/ARCHITECTURE.md, "Build path"): the runtime image is assembled
//! once per process, and a node's SDRAM page table and cache slot table
//! start empty and grow with what is committed. This test counts what
//! the global allocator is asked for — requests and bytes, not wall
//! time — so it is exact and repeats on any host. Zero-filling the two
//! tables alone asks for 72 KiB per default node (64 KiB page table +
//! 8 KiB slot table): 144 KiB for the two-node machine measured here,
//! nearly twice the whole budget below.
//!
//! This file must stay a *single-test* binary: `#[global_allocator]` is
//! per-binary, and a concurrently-running sibling test would count its
//! own allocations into our window.

use m_machine::machine::{MMachine, MachineConfig};
use mm_bench::alloc_probe;

#[global_allocator]
static ALLOC: alloc_probe::CountingAlloc = alloc_probe::CountingAlloc;

/// Bytes one `MachineConfig::small()` build may request. Two 19 KiB
/// nodes with their LTLBs, queues and boot pages come to 57 KiB in 37
/// requests; the build that re-assembled the image and zero-filled the
/// tables asked for 284 KiB in 433.
const SMALL_BUILD_BYTES: u64 = 80 * 1024;
/// Allocator requests one such build may make.
const SMALL_BUILD_ALLOCATIONS: u64 = 60;

#[test]
fn one_more_machine_costs_what_it_holds() {
    assert!(alloc_probe::enabled());

    // The probe counts a growing `Vec` as one request of the new size
    // (`realloc` forwarded), not as allocate + copy + free.
    let mut v: Vec<u64> = Vec::with_capacity(4);
    v.extend([1, 2, 3, 4]);
    let (allocs, bytes) = (alloc_probe::allocations(), alloc_probe::bytes());
    v.reserve_exact(60);
    assert_eq!(alloc_probe::allocations() - allocs, 1);
    assert_eq!(alloc_probe::bytes() - bytes, 64 * 8);
    assert_eq!(v, [1, 2, 3, 4]);

    // The first build in a process also assembles the runtime image;
    // every later one shares it.
    let first = MMachine::build(MachineConfig::small()).expect("valid config");

    let (allocs, bytes) = (alloc_probe::allocations(), alloc_probe::bytes());
    let second = MMachine::build(MachineConfig::small()).expect("valid config");
    let allocs = alloc_probe::allocations() - allocs;
    let bytes = alloc_probe::bytes() - bytes;
    assert_eq!(second.node_count(), first.node_count());
    assert!(
        bytes <= SMALL_BUILD_BYTES,
        "one small build requested {bytes} bytes in {allocs} allocations"
    );
    assert!(
        allocs <= SMALL_BUILD_ALLOCATIONS,
        "one small build made {allocs} allocations ({bytes} bytes)"
    );
}
