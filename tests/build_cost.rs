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
//! The same counts pin the timed benchmark scenarios' builds: each
//! distinct program is assembled once per build, not once per node, and
//! assembling a line allocates nothing the program does not keep.
//!
//! This file must stay a *single-test* binary: `#[global_allocator]` is
//! per-binary, and a concurrently-running sibling test would count its
//! own allocations into our window.

use m_machine::machine::{MMachine, MachineConfig};
use mm_bench::alloc_probe;
use mm_bench::coherence::build_coherence_scenario;
use mm_bench::traffic::{build_traffic_scenario, TrafficPattern};
use mm_bench::workloads::{build_workload, WorkloadKind};

#[global_allocator]
static ALLOC: alloc_probe::CountingAlloc = alloc_probe::CountingAlloc;

/// Bytes one `MachineConfig::small()` build may request. Two 19 KiB
/// nodes with their LTLBs, queues and boot pages come to 57 KiB in 37
/// requests; the build that re-assembled the image and zero-filled the
/// tables asked for 284 KiB in 433.
const SMALL_BUILD_BYTES: u64 = 80 * 1024;
/// Allocator requests one such build may make.
const SMALL_BUILD_ALLOCATIONS: u64 = 60;

/// `(scenario, allocator requests, bytes)` one warm build of each
/// benchmark scenario below may ask for. Each builder assembles every
/// distinct program once and shares it across nodes, and the assembler
/// allocates nothing per line that the `Program` does not keep: the
/// builds ask for 135 requests / 205 447 B (sample sort), 166 / 326 388 B
/// (4×2×2 coherence) and 65 / 105 144 B (hotspot traffic). The builders
/// that assembled one program per node, with an assembler that made
/// three requests per line, asked for 4 746 / 1 143 712 B (four copies
/// of a 363-line program), 946 / 441 304 B (sixteen assemblies of two
/// sources) and 242 / 131 760 B (four copies of one program). One more
/// assembly per node, or one more allocation per source line, exceeds
/// these budgets.
const SCENARIO_BUDGETS: [(&str, u64, u64); 3] = [
    ("sample_sort", 160, 230_000),
    ("coherence_4x2x2", 180, 345_000),
    ("hotspot", 75, 112_000),
];

/// Run `f`, returning its value and the allocator requests and bytes
/// it asked for.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (allocs, bytes) = (alloc_probe::allocations(), alloc_probe::bytes());
    let v = f();
    (
        v,
        alloc_probe::allocations() - allocs,
        alloc_probe::bytes() - bytes,
    )
}

#[test]
fn one_more_machine_costs_what_it_holds() {
    assert!(alloc_probe::enabled());

    // The probe counts a growing `Vec` as one request of the new size
    // (`realloc` forwarded), not as allocate + copy + free.
    let mut v: Vec<u64> = Vec::with_capacity(4);
    v.extend([1, 2, 3, 4]);
    let ((), allocs, bytes) = counted(|| v.reserve_exact(60));
    assert_eq!(allocs, 1);
    assert_eq!(bytes, 64 * 8);
    assert_eq!(v, [1, 2, 3, 4]);

    // The first build in a process also assembles the runtime image;
    // every later one shares it.
    let first = MMachine::build(MachineConfig::small()).expect("valid config");
    let (second, allocs, bytes) =
        counted(|| MMachine::build(MachineConfig::small()).expect("valid config"));
    assert_eq!(second.node_count(), first.node_count());
    assert!(
        bytes <= SMALL_BUILD_BYTES,
        "one small build requested {bytes} bytes in {allocs} allocations"
    );
    assert!(
        allocs <= SMALL_BUILD_ALLOCATIONS,
        "one small build made {allocs} allocations ({bytes} bytes)"
    );

    let builds: [&dyn Fn() -> MMachine; 3] = [
        &|| build_workload(WorkloadKind::SampleSort, Some(1)),
        &|| build_coherence_scenario((4, 2, 2), 900, Some(1)),
        &|| build_traffic_scenario(TrafficPattern::Hotspot, 0, 6000, Some(1)),
    ];
    for (build, (name, max_allocs, max_bytes)) in builds.into_iter().zip(SCENARIO_BUDGETS) {
        // Warm: the first build of a scenario may grow what later
        // builds reuse.
        drop(build());
        let (m, allocs, bytes) = counted(build);
        drop(m);
        assert!(
            allocs <= max_allocs && bytes <= max_bytes,
            "one {name} build made {allocs} allocations ({bytes} bytes); \
             the budget is {max_allocs} ({max_bytes} bytes)"
        );
    }
}
