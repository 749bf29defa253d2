//! Host-memory regression lock for node storage.
//!
//! A node's SDRAM and cache lines are demand-committed
//! (docs/ARCHITECTURE.md, "Node memory footprint"): storage — and the
//! stretch of page or slot table that reaches it — is allocated only for
//! SDRAM pages made non-zero and cache lines filled. Eagerly zero-filled
//! arrays cost 24 MiB per default node and ≈ 1.2 MiB per node of the
//! trimmed 8×8×8 mesh — six times the first budget below and nineteen
//! times the second, which sits at twice the ≈ 16 MiB the mesh adds
//! so that a layout quietly growing per-node storage fails it.
//!
//! This file must stay a *single-test* binary: resident-set size is
//! per-process, and a concurrently-running sibling test would grow it
//! under our feet.
#![cfg(target_os = "linux")]

use m_machine::machine::{MMachine, MachineConfig};
use mm_bench::scaling::build_busy_scenario;

/// Peak resident-set size of this process so far, in MiB. The peak, not
/// the current size: it still shows what a dropped machine touched.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("VmHWM line");
    kib / 1024.0
}

#[test]
fn node_storage_is_committed_on_demand() {
    // The `reproduce` user's pattern: cold paper-sized machines (1 MW of
    // SDRAM per node) built back to back and dropped.
    let before = peak_rss_mib();
    for _ in 0..20 {
        let m = MMachine::build(MachineConfig::small()).expect("valid config");
        assert!(m.node_count() > 0);
    }
    let grew = peak_rss_mib() - before;
    assert!(
        grew <= 8.0,
        "20 small machines grew peak RSS by {grew:.1} MiB"
    );

    // The headline mesh: 512 nodes, every one awake every cycle, run to
    // halt so every page and cache line the workload touches is in.
    let before = peak_rss_mib();
    let mut m = build_busy_scenario((8, 8, 8), 100, Some(1));
    m.run_until_halt(1_000_000).expect("busy scenario halts");
    assert!(m.faulted_threads().is_empty());
    let grew = peak_rss_mib() - before;
    assert!(grew <= 32.0, "busy 8x8x8 grew peak RSS by {grew:.1} MiB");
}
