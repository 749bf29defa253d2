//! Telemetry stream ↔ end-of-run totals harness.
//!
//! Two properties back the observability layer's claims (mm-telemetry
//! crate docs, "Determinism"):
//!
//! 1. **Conservation** — after `telemetry_flush()`, the per-epoch
//!    deltas in the ring sum *exactly* (integer equality, no epsilon)
//!    to the end-of-run totals: `MachineStats` for the architectural
//!    counters, `MachinePerf` for the host-side ones, and the raw
//!    fabric/coherence counters for the rest. Holds at every worker
//!    count and every epoch width, including widths that never divide
//!    the halt cycle evenly (the flush closes the partial epoch).
//! 2. **Non-interference** — telemetry only reads counters: a run with
//!    sampling on halts at the same cycle with bit-identical
//!    `MachineStats` as the same machine with sampling off.
//!
//! The busy-traffic scenario covers the issue/message/fabric counters;
//! the §4.3 coherence workload covers the `coh_*` family.

use mm_bench::coherence::load_coherence_scenario;
use mm_bench::scaling::{build_busy_scenario_telemetry, scenario_config};
use mm_core::machine::MMachine;
use mm_telemetry::{EpochSample, TelemetryConfig, MAX_SHARDS};
use proptest::prelude::*;

/// Column-wise sums over the flushed ring.
#[derive(Debug, Default, PartialEq, Eq)]
struct StreamSums {
    cycles: u64,
    instructions: u64,
    issue_probes: u64,
    node_steps: u64,
    messages: u64,
    fabric_packets: u64,
    flit_hops: u64,
    coh_packets: u64,
    coh_misses: u64,
    coh_invalidations: u64,
    coh_writebacks: u64,
    sync_retries: u64,
    shard_steps: u64,
}

fn sum_ring<'a>(samples: impl Iterator<Item = &'a EpochSample>) -> StreamSums {
    let mut t = StreamSums::default();
    for s in samples {
        t.cycles += s.end_cycle - s.start_cycle;
        t.instructions += s.instructions;
        t.issue_probes += s.issue_probes;
        t.node_steps += s.node_steps;
        t.messages += s.messages;
        t.fabric_packets += s.fabric_packets;
        t.flit_hops += s.flit_hops;
        t.coh_packets += s.coh_packets;
        t.coh_misses += s.coh_misses;
        t.coh_invalidations += s.coh_invalidations;
        t.coh_writebacks += s.coh_writebacks;
        t.sync_retries += s.sync_retries;
        t.shard_steps += s.shard_steps.iter().sum::<u64>();
    }
    t
}

/// Run `m` to halt, flush, and assert every stream column sums exactly
/// to the matching end-of-run total. Returns (halt cycle, stats) for
/// cross-run comparisons.
fn assert_stream_conserves(m: &mut MMachine, label: &str) -> (u64, mm_core::machine::MachineStats) {
    let done = m.run_until_halt(500_000).expect("run halts");
    m.telemetry_flush();
    assert!(m.faulted_threads().is_empty(), "{label}: faulted threads");

    let stats = m.stats();
    let perf = m.perf();
    let tel = m.telemetry().expect("telemetry enabled");
    assert_eq!(
        tel.ring().dropped(),
        0,
        "{label}: ring must hold every epoch"
    );
    let sums = sum_ring(tel.ring().iter());
    let expect = StreamSums {
        cycles: stats.cycles,
        instructions: stats.instructions,
        issue_probes: perf.issue_probes,
        node_steps: perf.node_steps,
        messages: stats.messages,
        fabric_packets: stats.fabric.packets,
        flit_hops: m.fabric_flit_hops(),
        coh_packets: stats.fabric.coh_packets,
        coh_misses: stats.coherence.block_fetches,
        coh_invalidations: stats.coherence.invalidations,
        coh_writebacks: stats.coherence.writebacks,
        sync_retries: stats.coherence.sync_retries,
        // Shard buckets partition node steps, whatever the shard count.
        shard_steps: perf.node_steps,
    };
    assert_eq!(sums, expect, "{label}: stream deltas must sum to totals");

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
    (done, stats)
}

fn ring_only(epoch_cycles: u64) -> TelemetryConfig {
    TelemetryConfig {
        enabled: true,
        epoch_cycles,
        ring_epochs: 0,
        stream_path: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Conservation at every worker count, across random epoch widths
    /// (including widths that leave a partial final epoch) and run
    /// lengths.
    #[test]
    fn epoch_deltas_sum_to_totals_at_every_worker_count(
        epoch_cycles in 16u64..400,
        iters in 24u64..96,
    ) {
        let mut reference: Option<(u64, mm_core::machine::MachineStats)> = None;
        for workers in [1usize, 2, 4] {
            let mut m = build_busy_scenario_telemetry((2, 2, 1), iters, Some(workers), ring_only(epoch_cycles));
            let (done, stats) =
                assert_stream_conserves(&mut m, &format!("busy w={workers} e={epoch_cycles}"));
            prop_assert!(stats.instructions > 0);
            prop_assert!(stats.messages > 0, "busy scenario must cross the fabric");
            // The stream rides the same engine-invariance guarantee as
            // the stats: every worker count sees the same run.
            match &reference {
                None => reference = Some((done, stats)),
                Some((d, s)) => {
                    prop_assert_eq!(*d, done, "halt cycle at {} workers", workers);
                    prop_assert_eq!(s, &stats, "stats at {} workers", workers);
                }
            }
        }
    }
}

/// Conservation for the `coh_*` columns: the coherence workload's
/// protocol traffic (fetches, invalidations, writebacks, sync retries)
/// must land in the stream exactly once each.
#[test]
fn coherence_counters_conserve_through_the_stream() {
    for workers in [1usize, 2, 4] {
        let mut cfg = scenario_config((2, 2, 1));
        cfg.engine.workers = Some(workers);
        cfg.telemetry = ring_only(128);
        let mut m = load_coherence_scenario(cfg, 6);
        let (_, stats) = assert_stream_conserves(&mut m, &format!("coherent w={workers}"));
        assert!(stats.fabric.coh_packets > 0, "no protocol traffic sampled");
        assert!(stats.coherence.invalidations > 0, "no ping-pong sampled");
    }
}

/// Non-interference: sampling must not perturb the simulation. Same
/// halt cycle, bit-identical stats, with telemetry off / ring-only /
/// at a pathologically small epoch.
#[test]
fn telemetry_does_not_perturb_the_run() {
    let run = |telemetry: TelemetryConfig| -> (u64, mm_core::machine::MachineStats) {
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
