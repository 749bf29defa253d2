//! The machines the benchmark times, through the dense-oracle
//! differential: the busy loop, the ping-pong plus remote store, the
//! three traffic patterns and the four kernels of
//! `mm_runtime::workloads`, each built by `mm_bench`'s own configuration
//! and loader with `trace` on. Dense `naive_step` loop and engine at
//! 1/2/4 workers must agree on every observable (halt cycle,
//! `MachineStats`, timeline), *and* the run must pass
//! the scenario's result check. The task-queue case additionally proves
//! the §3.2 protected-call and §2 full/empty-bit paths actually fire:
//! an exact protected-call count and nonzero sync-fault-retry and
//! coherence-packet counts are acceptance criteria, not decorations.
//! (The coherence ping-pong's differential is in `differential.rs`.)

mod common;

use common::differential;
use mm_bench::scaling::{load_busy_scenario, load_scenario, scenario_config, ROUNDS, RUN_LIMIT};
use mm_bench::traffic::{check_traffic, load_traffic_scenario, traffic_config, TrafficPattern};
use mm_bench::workloads::{check_workload, load_workload, workload_config, WorkloadKind};
use mm_core::machine::MMachine;

#[test]
fn busy_scenario_differential() {
    let m = differential(
        "busy",
        scenario_config((4, 2, 1)),
        |cfg| load_busy_scenario(cfg, 48).expect("even mesh"),
        RUN_LIMIT,
    );
    assert!(m.stats().messages > 0, "no remote store crossed the fabric");
}

#[test]
fn pingpong_scenario_differential() {
    // The benchmark's 2×1×1 machine, and two pairs so 4 workers shard.
    for dims in [(2, 1, 1), (2, 2, 1)] {
        let m = differential(
            &format!("ping-pong {dims:?}"),
            scenario_config(dims),
            |cfg| load_scenario(cfg, ROUNDS),
            RUN_LIMIT,
        );
        assert!(m.stats().messages > 0, "no ping crossed the fabric");
    }
}

fn kernel(kind: WorkloadKind) -> MMachine {
    let m = differential(
        kind.name(),
        workload_config(),
        |cfg| load_workload(cfg, kind),
        mm_bench::workloads::RUN_LIMIT,
    );
    check_workload(&m, kind);
    m
}

#[test]
fn sample_sort_differential_and_result() {
    let m = kernel(WorkloadKind::SampleSort);
    assert!(m.stats().messages > 0, "no key exchange crossed the fabric");
}

#[test]
fn matmul_differential_and_result() {
    let m = kernel(WorkloadKind::Matmul);
    assert!(m.stats().messages > 0, "B was never fetched remotely");
}

#[test]
fn spmv_differential_and_result() {
    let m = kernel(WorkloadKind::Spmv);
    assert!(m.stats().messages > 0, "no x entry was fetched remotely");
}

#[test]
fn task_queue_differential_exercises_protection_and_sync() {
    // `check_workload` pins the §3.2 path: exactly two protected calls
    // (entry + return) per claimed task across the machine.
    let m = kernel(WorkloadKind::TaskQueue);
    // The §2 path fired: takes of held or unpublished count words
    // sync-faulted and were retried by the firmware.
    assert!(
        m.stats().coherence.sync_retries > 0,
        "no full/empty contention — the lock never blocked anyone"
    );
    assert!(
        m.stats().fabric.coh_packets > 0,
        "queue stripes never migrated between nodes"
    );
}

/// Messages per node in the traffic differentials.
const TRAFFIC_COUNT: u64 = 24;

/// Run one pattern, `gap` delay-loop iterations between SENDs, through
/// the differential and its check; returns the machine-wide bounce
/// count.
fn traffic(pattern: TrafficPattern, gap: u32) -> u64 {
    let m = differential(
        &format!("{} gap {gap}", pattern.name()),
        traffic_config(),
        |cfg| load_traffic_scenario(cfg, pattern, gap, TRAFFIC_COUNT),
        mm_bench::traffic::RUN_LIMIT,
    );
    check_traffic(&m, pattern, TRAFFIC_COUNT);
    (0..m.node_count())
        .map(|i| m.node(i).net.stats().returned_here)
        .sum()
}

#[test]
fn traffic_uniform_differential() {
    // The benchmark's full rate, and a paced rate through the delay loop.
    for gap in [0, 2] {
        assert_eq!(
            traffic(TrafficPattern::Uniform, gap),
            0,
            "uniform traffic bounced at gap {gap}"
        );
    }
}

#[test]
fn traffic_hotspot_differential_and_backoff_counters() {
    // Everyone hammers node 0: queue-full bounces are expected and must
    // be deterministic across engines.
    assert!(
        traffic(TrafficPattern::Hotspot, 0) > 0,
        "hotspot never saturated node 0"
    );
}

#[test]
fn traffic_transpose_differential() {
    // (x, y) → (y, x): nodes 1 and 2 swap, the diagonal self-loops
    // through the fabric's loopback path.
    traffic(TrafficPattern::Transpose, 1);
}
