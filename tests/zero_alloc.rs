//! Allocation-regression lock for the cycle kernel.
//!
//! The hot-path contract (docs/ARCHITECTURE.md, "Hot path"): once a
//! machine's queues and scratch buffers have reached their steady-state
//! capacity, a busy cycle — instructions issuing, writebacks and
//! C-Switch transfers landing, cache-hitting stores flowing through the
//! memory system — performs **zero heap allocations**. This test
//! installs a counting global allocator, warms a 2-node machine through
//! its boot transient (LTLB misses, event-handler bursts, buffer
//! growth), then asserts an exactly-zero allocation delta across
//! thousands of further busy cycles.
//!
//! This file must stay a *single-test* binary: `#[global_allocator]` is
//! per-binary, and a concurrently-running sibling test would count its
//! own allocations into our window.

use mm_bench::alloc_probe;
use mm_bench::scaling::{
    build_busy_scenario, build_busy_scenario_telemetry, load_busy_scenario, scenario_config,
    ALLOC_WARM_CYCLES, ALLOC_WINDOW_CYCLES,
};
use mm_bench::traffic::{build_traffic_scenario, TrafficPattern};
use mm_isa::reg::Reg;
use mm_telemetry::TelemetryConfig;

#[global_allocator]
static ALLOC: alloc_probe::CountingAlloc = alloc_probe::CountingAlloc;

/// Iterations far beyond the measured window, so the loop never halts
/// mid-measurement.
const ITERS: u64 = 1_000_000;

#[test]
fn steady_state_busy_cycles_allocate_nothing() {
    assert!(
        alloc_probe::enabled(),
        "the counting allocator must be installed in this binary"
    );

    // The busy scenario on a 2-node machine, both nodes running its
    // kernel: a dependent integer chain, a CC-register compare + branch
    // (C-Switch broadcast every iteration) and a store, here re-pointed
    // at the node's *own* home page (cache-hitting after warm-up, so the
    // memory pipeline runs every iteration without faulting).
    let mut cfg = scenario_config((2, 1, 1));
    // Robustness hooks in their default stance: no fault campaign
    // armed (the per-cycle fault hook is one branch) and the liveness
    // watchdog polling every epoch. Both must cost zero allocations,
    // so this window pins the "disabled hooks are free" contract.
    cfg.faults = None;
    cfg.watchdog_epochs = 4;
    cfg.watchdog_epoch_cycles = 256;
    let mut m = load_busy_scenario(cfg, ITERS).expect("even mesh");
    for i in 0..m.node_count() {
        let own = m.home_ptr(i, 0);
        m.set_user_reg(i, 0, 0, Reg::Int(8), own);
    }

    // Warm-up: boot transient (first-touch LTLB misses, handler
    // bursts) plus enough steady cycles for every queue, heap and
    // scratch buffer to reach its high-water capacity. Same window the
    // `busy_traffic` bench row reports `allocs_per_cycle` over, so the
    // committed benchmark number and this assertion measure the same
    // thing.
    m.run_cycles(ALLOC_WARM_CYCLES);

    // The measured window. Drain any allocator noise from the warm-up
    // call itself by snapshotting *after* it returns. Driven through
    // `run_until` (not `run_cycles`) so the watchdog's per-epoch
    // progress poll runs inside the window — a spinning workload makes
    // progress every epoch, so the poll must never trip and never
    // allocate.
    let before = alloc_probe::allocations();
    let _ = m.run_until(ALLOC_WINDOW_CYCLES, |_| false);
    let delta = alloc_probe::allocations() - before;

    // The workload must still be busy (we measured busy cycles, not an
    // idle tail) ...
    for i in 0..m.node_count() {
        assert_eq!(
            m.node(i).thread_state(0, 0),
            m_machine::sim::HState::Running,
            "node {i} halted inside the measured window"
        );
    }
    let stats = m.stats();
    assert!(
        stats.instructions > 10_000,
        "the measured window must have issued instructions"
    );
    // ... and allocation-free.
    assert_eq!(
        delta, 0,
        "steady-state busy cycles performed {delta} heap allocations"
    );

    // Phase 2: the same busy kernel with *remote* stores — the bench
    // suite's busy-traffic scenario on a 16-node mesh. Every iteration
    // of every node crosses the fabric (GTLB probe, message build,
    // dimension-order routing, remote store handler, reply), so this
    // window covers the full user-message path. Since message bodies
    // moved inline ([`mm_net::MsgBody`]) the path allocates nothing in
    // the steady state: user messages are no longer a tracked
    // exception, and this phase pins that at exactly zero.
    let mut busy = build_busy_scenario((4, 4, 1), ITERS, Some(1));
    busy.run_cycles(ALLOC_WARM_CYCLES);
    let before = alloc_probe::allocations();
    busy.run_cycles(ALLOC_WINDOW_CYCLES);
    let delta = alloc_probe::allocations() - before;
    for i in 0..busy.node_count() {
        assert_eq!(
            busy.node(i).thread_state(0, 0),
            m_machine::sim::HState::Running,
            "busy-traffic node {i} halted inside the measured window"
        );
    }
    assert_eq!(
        delta, 0,
        "steady-state busy-traffic (remote store) cycles performed \
         {delta} heap allocations"
    );

    // Phase 2b: the same busy-traffic scenario with telemetry sampling
    // *on*, streaming JSONL to a sink, at a deliberately small epoch so
    // the measured window crosses dozens of boundaries. This pins the
    // observability layer's allocation discipline (mm-telemetry crate
    // docs): the ring is pre-allocated, the counter snapshot is a flat
    // `Copy` struct, and each stream line is formatted into a
    // capacity-reserved buffer — so a window full of samples still
    // allocates exactly nothing.
    let sink = std::env::temp_dir().join("mm_zero_alloc_telemetry.jsonl");
    let telemetry = TelemetryConfig {
        enabled: true,
        epoch_cycles: 64,
        ring_epochs: 0,
        stream_path: Some(sink.clone()),
    };
    let mut tele = build_busy_scenario_telemetry((4, 4, 1), ITERS, Some(1), telemetry);
    tele.run_cycles(ALLOC_WARM_CYCLES);
    let epochs_before = tele.telemetry().expect("telemetry enabled").ring().len();
    let before = alloc_probe::allocations();
    tele.run_cycles(ALLOC_WINDOW_CYCLES);
    let delta = alloc_probe::allocations() - before;
    let epochs_sampled = tele.telemetry().expect("telemetry enabled").ring().len() - epochs_before;
    for i in 0..tele.node_count() {
        assert_eq!(
            tele.node(i).thread_state(0, 0),
            m_machine::sim::HState::Running,
            "telemetry-on busy node {i} halted inside the measured window"
        );
    }
    assert!(
        epochs_sampled >= 50,
        "the window must actually sample epochs (got {epochs_sampled})"
    );
    assert_eq!(
        delta, 0,
        "telemetry-on busy cycles performed {delta} heap allocations \
         across {epochs_sampled} sampled epochs"
    );
    let _ = std::fs::remove_file(&sink);

    // Phase 3: the §4.3 software-coherence scenario. Every ping-pong
    // round runs the whole protocol — fault records, fetch, invalidate,
    // recall, writeback, grant, replay — through the handlers' tables,
    // which keep their capacity once warm, so the window pins exact
    // zero on the firmware too.
    let mut coh = mm_bench::coherence::build_coherence_scenario((2, 1, 1), 256, Some(1));
    coh.run_cycles(ALLOC_WARM_CYCLES);
    let fetches_before = coh.stats().coherence.block_fetches;
    let before = alloc_probe::allocations();
    coh.run_cycles(ALLOC_WINDOW_CYCLES);
    let delta = alloc_probe::allocations() - before;
    for i in 0..coh.node_count() {
        assert_eq!(
            coh.node(i).thread_state(0, 0),
            m_machine::sim::HState::Running,
            "coherent_smooth node {i} halted inside the measured window"
        );
    }
    assert!(
        coh.stats().coherence.block_fetches > fetches_before + 20,
        "the coherence window must run protocol transactions"
    );
    assert_eq!(
        delta, 0,
        "warm coherent_smooth cycles performed {delta} heap allocations"
    );

    // Phase 4: a workload kernel's steady state. SpMV is the suite's
    // long-runner: every row sweep issues remote loads through the
    // LTLB-miss message path, so the window covers the send/dispatch/
    // reply machinery — not just the issue pipeline — at its high-water
    // capacity. This used to be a tracked exception (~737 per-message
    // allocations across 5000 cycles); with inline message bodies the
    // whole path is allocation-free and the window pins exact zero.
    let mut spmv =
        mm_bench::workloads::build_workload(mm_bench::workloads::WorkloadKind::Spmv, Some(1));
    spmv.run_cycles(12_000);
    let before = alloc_probe::allocations();
    spmv.run_cycles(ALLOC_WINDOW_CYCLES);
    let delta = alloc_probe::allocations() - before;
    for i in 0..spmv.node_count() {
        assert_eq!(
            spmv.node(i).thread_state(0, 0),
            m_machine::sim::HState::Running,
            "spmv node {i} halted inside the measured window"
        );
    }
    assert_eq!(
        delta, 0,
        "steady-state spmv cycles performed {delta} heap allocations"
    );

    // Phase 5: the return-to-sender path. Hotspot traffic floods node 0
    // until its queues overflow, so the window covers bounces, the
    // resend backoff and the credit path on top of clean delivery;
    // uniform traffic is the same network layer without bounces. Both
    // pass every packet through the fabric's slab, so a released slot
    // must be reused rather than the slab grown.
    for pattern in [TrafficPattern::Hotspot, TrafficPattern::Uniform] {
        let mut m = build_traffic_scenario(pattern, 0, ITERS, Some(1));
        m.run_cycles(ALLOC_WARM_CYCLES);
        let bounced = |m: &m_machine::machine::MMachine| m.node(0).net.stats().returned_here;
        let bounced_before = bounced(&m);
        let sent_before = m.stats().fabric.packets;
        let before = alloc_probe::allocations();
        m.run_cycles(ALLOC_WINDOW_CYCLES);
        let delta = alloc_probe::allocations() - before;
        assert_eq!(
            bounced(&m) > bounced_before,
            pattern == TrafficPattern::Hotspot,
            "only hotspot traffic bounces"
        );
        for i in 0..m.node_count() {
            assert_eq!(
                m.node(i).thread_state(0, 0),
                m_machine::sim::HState::Running,
                "{} traffic node {i} halted inside the measured window",
                pattern.name()
            );
        }
        assert!(
            m.stats().fabric.packets > sent_before + 1_000,
            "the {} window must carry traffic",
            pattern.name()
        );
        assert_eq!(
            delta,
            0,
            "steady-state {} traffic cycles performed {delta} heap allocations",
            pattern.name()
        );
    }
}
