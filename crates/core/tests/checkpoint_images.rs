//! Pins the checkpoint bytes of four mid-run machines whose images
//! between them hold every shape the codec writes outside the §4.3
//! handlers (`coherence_image` pins those): thread records, register
//! files, bank and miss queues, staged responses, cache lines, LTLB
//! slots, in-flight packets of every kind, pending resends, and a fault
//! campaign's plan, cursor and pristine copies.
//!
//! Each image's length and FNV-1a-64 digest are constants, so a change
//! that moved a single checkpoint byte fails here. Each image must also
//! restore into a fresh build of its scenario and finish on the cycle
//! the uninterrupted run does.

mod common;

use common::fnv1a64;
use mm_bench::scaling::{build_busy_scenario, build_busy_scenario_full, RUN_LIMIT};
use mm_bench::traffic::{build_traffic_scenario, TrafficPattern};
use mm_bench::workloads::{build_workload, WorkloadKind};
use mm_core::machine::MMachine;
use mm_faults::{FaultPlanConfig, LinkFaultConfig, StallFaultConfig};

/// Checkpoint `build()` at `at`, check `image`'s pinned length and
/// digest, and require a restored copy to halt where the original does.
fn pin(build: impl Fn() -> MMachine, at: u64, check: impl Fn(&MMachine), len: usize, digest: u64) {
    let mut m = build();
    m.run_cycles(at);
    check(&m);
    let image = m.checkpoint();
    let mut restored = build();
    restored.restore(&image).expect("image restores");
    let halted = restored
        .run_until_halt(RUN_LIMIT)
        .expect("restored run halts");
    assert_eq!(m.run_until_halt(RUN_LIMIT).expect("halts"), halted);
    assert_eq!(m.stats(), restored.stats());
    assert_eq!(
        (image.len(), fnv1a64(&image)),
        (len, digest),
        "checkpoint bytes moved"
    );
}

/// The image CI pins by SHA-256 in `docs/checkpoint-2x1x1-at500.sha256`
/// (`mmctl snapshot --save … --dims 2x1x1 --iters 2000 --at 500`).
#[test]
fn busy_2x1x1_image_is_pinned() {
    let busy = || build_busy_scenario((2, 1, 1), 2000, Some(1));
    pin(busy, 500, |_| {}, 27_296, 0xa575_9de1_8f84_d294);
}

/// A heavy link campaign mid-run: resends waiting out their backoff,
/// pristine copies held for NACK repair, and the plan cursor past the
/// stall event.
#[test]
fn fault_campaign_image_is_pinned() {
    let plan = FaultPlanConfig {
        seed: 7,
        dram: vec![],
        links: vec![LinkFaultConfig {
            window: (0, 1_000_000),
            corrupt_pct: 25,
            drop_pct: 15,
            delay_pct: 20,
            delay_cycles: 11,
        }],
        stalls: vec![StallFaultConfig {
            node: 1,
            window: (200, 600),
        }],
    };
    let build = || {
        let faults = Some(plan.clone());
        build_busy_scenario_full((2, 1, 1), 200, Default::default(), faults).expect("valid config")
    };
    let check = |m: &MMachine| {
        let (resends, pristine) = m.held_messages();
        assert!(
            resends > 0 && pristine > 0,
            "{resends} resends, {pristine} copies"
        );
        assert!(m.fault_report().expect("armed").events_applied > 0);
    };
    pin(build, 700, check, 28_178, 0x5cf8_9c47_03b6_35bd);
}

/// Every node floods node 0: bounced messages are on their way back
/// (more have been returned than received back) while earlier
/// ones wait out their resend backoff.
#[test]
fn hotspot_traffic_image_is_pinned() {
    let build = || build_traffic_scenario(TrafficPattern::Hotspot, 0, 200, Some(1));
    let check = |m: &MMachine| {
        assert!(m.held_messages().0 > 0, "no resend pending");
        let stats = (0..m.node_count()).map(|i| m.node(i).net.stats());
        let (returned, back) = stats.fold((0, 0), |(r, b), s| {
            (r + s.returned_here, b + s.returns_received)
        });
        assert!(returned > back, "no returned message in flight");
    };
    pin(build, 170, check, 54_274, 0x8e72_76b6_7ab9_8c88);
}

/// A sample-sort kernel mid-run: node 0 has a miss waiting on the SDRAM,
/// staged responses, LTLB entries and dirty cache lines.
#[test]
fn kernel_image_is_pinned() {
    let build = || build_workload(WorkloadKind::SampleSort, Some(1));
    let check = |m: &MMachine| {
        let mem = m.node(0).mem.inspect();
        assert!(mem.misses > 0 && mem.staged > 0, "{mem:?}");
        assert!(mem.ltlb_entries > 0 && mem.dirty_lines > 0, "{mem:?}");
    };
    pin(build, 250, check, 54_446, 0x5f4b_c58e_79db_712c);
}
