//! Telemetry stream ↔ end-of-run totals harness.
//!
//! Two properties back the observability layer's claims (mm-telemetry
//! crate docs, "Determinism"):
//!
//! 1. **Conservation** — after `telemetry_flush()`, the per-epoch
//!    deltas in the ring sum *exactly* (integer equality, no epsilon),
//!    column by column over the whole counter table, to the final
//!    `counter_snapshot()`, and that snapshot matches the end-of-run
//!    totals the machine keeps without telemetry (`MachineStats`,
//!    `MachinePerf`, the raw fabric counters). Holds at every epoch
//!    width, including widths that never divide the halt cycle evenly
//!    (the flush closes the partial epoch).
//! 2. **Non-interference** — telemetry only reads counters: a run with
//!    sampling on halts at the same cycle with bit-identical
//!    `MachineStats` as the same machine with sampling off.
//!
//! The busy-traffic scenario covers the issue/message/fabric counters,
//! the §4.3 coherence workload the `coh_*` family, a seeded fault
//! campaign the checksum and SECDED counters, and hotspot traffic the
//! §4.2 bounces.

use mm_bench::coherence::load_coherence_scenario;
use mm_bench::faults::campaign_plan;
use mm_bench::scaling::{build_busy_scenario_telemetry, load_busy_scenario, scenario_config};
use mm_bench::traffic::{load_traffic_scenario, traffic_config, TrafficPattern};
use mm_core::machine::{MMachine, MachineConfig, MachineStats};
use mm_telemetry::{ColumnKind, TelemetryConfig, COLUMNS, MAX_SHARDS, N_COUNTERS};
use proptest::prelude::*;

/// Run `m` to halt, flush, and assert the stream conserves every
/// counter (see [`assert_conserves`]). Returns (halt cycle, stats) for
/// cross-run comparisons.
fn assert_stream_conserves(m: &mut MMachine, label: &str) -> (u64, MachineStats) {
    let done = m.run_until_halt(500_000).expect("run halts");
    m.telemetry_flush();
    assert_conserves(m, label);
    (done, m.stats())
}

/// On a flushed machine, assert that every counter column's per-epoch
/// deltas sum exactly to the final `counter_snapshot()`, and that the
/// snapshot agrees with the end-of-run totals kept without telemetry:
/// `MachineStats`, `MachinePerf` and the raw fabric counters.
fn assert_conserves(m: &MMachine, label: &str) {
    assert!(m.faulted_threads().is_empty(), "{label}: faulted threads");
    let snap = m.counter_snapshot();
    let (stats, perf) = (m.stats(), m.perf());
    let tel = m.telemetry().expect("telemetry enabled");
    assert_eq!(tel.ring().dropped(), 0, "{label}: ring dropped epochs");
    let mut sums = [0u64; N_COUNTERS];
    let mut shard_steps = 0;
    for s in tel.ring().iter() {
        for (sum, d) in sums.iter_mut().zip(s.counters()) {
            *sum += d;
        }
        shard_steps += s.shard_steps.iter().sum::<u64>();
    }
    let counters = COLUMNS.iter().filter(|c| c.kind == ColumnKind::Counter);
    for ((c, sum), total) in counters.zip(sums).zip(snap.counters()) {
        assert_eq!(sum, total, "{label}: {} stream sum", c.name);
    }
    let (fab, coh) = (stats.fabric, stats.coherence);
    for (name, snapshot, total) in [
        ("cycles", snap.cycles, stats.cycles),
        ("instructions", snap.instructions, stats.instructions),
        ("issue_probes", snap.issue_probes, perf.issue_probes),
        ("node_steps", snap.node_steps, perf.node_steps),
        ("messages", snap.messages, stats.messages),
        ("fabric_packets", snap.fabric_packets, fab.packets),
        ("flit_hops", snap.flit_hops, m.fabric_flit_hops()),
        ("coh_packets", snap.coh_packets, fab.coh_packets),
        ("coh_misses", snap.coh_misses, coh.block_fetches),
        (
            "coh_invalidations",
            snap.coh_invalidations,
            coh.invalidations,
        ),
        ("coh_writebacks", snap.coh_writebacks, coh.writebacks),
        ("sync_retries", snap.sync_retries, coh.sync_retries),
        // The one shard bucket holds every node step.
        ("shard_steps", shard_steps, perf.node_steps),
    ] {
        assert_eq!(snapshot, total, "{label}: {name} end-of-run total");
    }

    // Stream shape: indices strictly increasing from 0, cycle coverage
    // contiguous from boot to halt.
    let mut prev_end = 0u64;
    for (k, s) in tel.ring().iter().enumerate() {
        assert_eq!(s.epoch, k as u64, "{label}: epoch indices");
        assert_eq!(s.start_cycle, prev_end, "{label}: contiguous coverage");
        assert!(s.end_cycle > s.start_cycle, "{label}: empty epoch emitted");
        assert!(
            usize::try_from(s.shards).unwrap() <= MAX_SHARDS,
            "{label}: shard count"
        );
        prev_end = s.end_cycle;
    }
    // `run_until_halt` drains 64 straggler cycles past the halt, so the
    // stream's last boundary is the *clock*, not the halt cycle.
    assert_eq!(
        prev_end, stats.cycles,
        "{label}: stream must cover the whole run"
    );
}

fn ring_only(epoch_cycles: u64) -> TelemetryConfig {
    TelemetryConfig {
        enabled: true,
        epoch_cycles,
        ring_epochs: 0,
        stream_path: None,
    }
}

/// `cfg` with ring-only telemetry.
fn sampled(mut cfg: MachineConfig, epoch_cycles: u64) -> MachineConfig {
    cfg.telemetry = ring_only(epoch_cycles);
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Conservation across random epoch widths (including widths that
    /// leave a partial final epoch) and run lengths.
    #[test]
    fn epoch_deltas_sum_to_totals_at_every_worker_count(
        epoch_cycles in 16u64..400,
        iters in 24u64..96,
    ) {
        let mut m = build_busy_scenario_telemetry((2, 2, 1), iters, None, ring_only(epoch_cycles));
        let (_, stats) = assert_stream_conserves(&mut m, &format!("busy e={epoch_cycles}"));
        prop_assert!(stats.instructions > 0);
        prop_assert!(stats.messages > 0, "busy scenario must cross the fabric");
    }
}

/// Conservation for the `coh_*` columns: the coherence workload's
/// protocol traffic (fetches, invalidations, writebacks, sync retries)
/// must land in the stream exactly once each.
#[test]
fn coherence_counters_conserve_through_the_stream() {
    let mut m = load_coherence_scenario(sampled(scenario_config((2, 2, 1)), 128), 6);
    let (_, stats) = assert_stream_conserves(&mut m, "coherent");
    assert!(stats.fabric.coh_packets > 0, "no protocol traffic sampled");
    assert!(stats.coherence.invalidations > 0, "no ping-pong sampled");
}

/// Conservation for the fault/recovery columns: a seeded campaign whose
/// DRAM upsets land in the lines the busy stores fill (checksum NACKs,
/// retransmissions, both SECDED outcomes), and hotspot traffic (§4.2
/// bounces).
#[test]
fn recovery_counters_conserve_through_the_stream() {
    let probe = MMachine::build(scenario_config((2, 2, 1))).expect("mesh builds");
    let va = probe.home_va(0, 0);
    let home = probe.node(0).mem.translate(va).expect("mapped");
    let mut plan = campaign_plan(5, 4);
    for d in &mut plan.dram {
        (d.window, d.addr) = ((1, 10), (home + 1, home + 12));
    }
    let mut cfg = sampled(scenario_config((2, 2, 1)), 256);
    cfg.faults = Some(plan);
    let mut m = load_busy_scenario(cfg, 32).expect("busy mesh loads");
    m.run_until_halt(500_000).expect("run halts");
    m.run_cycles(2_000); // every NACKed message is retransmitted
    m.telemetry_flush();
    assert_conserves(&m, "faults");
    let s = m.counter_snapshot();
    let nacked = s.crc_nacks.min(s.retransmits);
    let corrected = s.ecc_corrected.min(s.ecc_double_errors);
    assert!(nacked > 0 && corrected > 0, "faults: {s:?}");

    let cfg = sampled(traffic_config(), 64);
    let mut m = load_traffic_scenario(cfg, TrafficPattern::Hotspot, 0, 24);
    assert_stream_conserves(&mut m, "hotspot");
    assert!(m.counter_snapshot().bounces > 0, "hotspot");
}

/// Non-interference: sampling must not perturb the simulation. Same
/// halt cycle, bit-identical stats, with telemetry off / ring-only /
/// at a pathologically small epoch.
#[test]
fn telemetry_does_not_perturb_the_run() {
    let run = |telemetry: TelemetryConfig| -> (u64, MachineStats) {
        let mut m = build_busy_scenario_telemetry((2, 2, 1), 64, Some(2), telemetry);
        let done = m.run_until_halt(500_000).expect("run halts");
        m.telemetry_flush();
        (done, m.stats())
    };
    let off = run(TelemetryConfig::default());
    assert_eq!(off, run(TelemetryConfig::enabled()), "default epoch");
    assert_eq!(off, run(ring_only(1)), "one-cycle epochs");
    assert_eq!(off, run(ring_only(977)), "prime epoch width");
}
