//! Fault-injection harnesses: the seeded fault campaign and the
//! crash-recovery scenario (watchdog trip → checkpoint restore →
//! completed run). `mmctl campaign` runs both and writes
//! [`campaign_json`] to `BENCH_faults.json`, which CI byte-diffs.
//! Every entry point returns a [`MachineError`] instead of panicking,
//! so the operator tool stays panic-free.
//!
//! Both ride the busy-traffic scenario so the machinery under stress —
//! checksum NACKs, pristine-copy retransmission, SECDED scrubbing,
//! stall windows — is exercised by the same workload every other bench
//! row runs.

use crate::scaling::{build_busy_scenario_full, scenario_config, RUN_LIMIT};
use mm_core::machine::{FaultReport, MMachine};
use mm_core::MachineError;
use mm_faults::{DramFaultConfig, FaultPlanConfig, LinkFaultConfig, StallFaultConfig};
use mm_isa::{assemble, reg::Reg};
use mm_telemetry::{CounterSnapshot, TelemetryConfig};
use std::sync::Arc;

/// Cycles granted after halt so retransmit chains (retry backoff ×
/// retry cap) can drain before counters are read.
const DRAIN_CYCLES: u64 = 50_000;

/// The standard seeded campaign: a link window corrupting/dropping/
/// delaying a good fraction of all user packets, a couple of scheduled
/// DRAM upsets (one correctable, one double-bit), and a transient stall
/// window on node 0.
#[must_use]
pub fn campaign_plan(seed: u64, nodes: u32) -> FaultPlanConfig {
    FaultPlanConfig {
        seed,
        dram: vec![
            DramFaultConfig {
                flips: 2,
                double_every: 0,
                window: (500, 4_000),
                addr: (0, 1 << 12),
            },
            DramFaultConfig {
                flips: 1,
                double_every: 1,
                window: (1_000, 3_000),
                addr: (0, 1 << 12),
            },
        ],
        links: vec![LinkFaultConfig {
            window: (0, 1_000_000),
            corrupt_pct: 20,
            drop_pct: 10,
            delay_pct: 15,
            delay_cycles: 9,
        }],
        stalls: vec![StallFaultConfig {
            node: nodes.saturating_sub(1),
            window: (300, 900),
        }],
    }
}

/// One row of the fault-campaign table.
#[derive(Debug)]
pub struct FaultCampaignPoint {
    /// Mesh dimensions.
    pub dims: (u8, u8, u8),
    /// Node count.
    pub nodes: usize,
    /// Campaign seed.
    pub seed: u64,
    /// Final cycle of the first run.
    pub cycles: u64,
    /// What the campaign did (first run; the second must agree).
    pub report: FaultReport,
    /// The first run's final counters (the recovery columns: checksum
    /// NACKs, duplicate drops, SECDED outcomes).
    pub counters: CounterSnapshot,
    /// Two runs of the same plan produced identical `MachineStats`,
    /// fault reports and checksum-NACK counts.
    pub stats_match: bool,
    /// The run halted (every user thread finished despite the faults)
    /// with no thread left in a faulted state.
    pub completed: bool,
}

fn run_campaign_once(
    dims: (u8, u8, u8),
    iters: u64,
    plan: &FaultPlanConfig,
) -> Result<MMachine, MachineError> {
    let mut m =
        build_busy_scenario_full(dims, iters, TelemetryConfig::default(), Some(plan.clone()))?;
    m.run_until_halt(RUN_LIMIT)?;
    m.run_cycles(DRAIN_CYCLES);
    Ok(m)
}

/// Run the seeded campaign on `dims` twice and verify the two runs
/// agree bit-for-bit on stats and on what the campaign did: the plan
/// must replay deterministically.
///
/// # Errors
///
/// The mesh does not build (see [`build_busy_scenario_full`]) or a run
/// exceeds [`RUN_LIMIT`] cycles.
pub fn run_fault_campaign(
    dims: (u8, u8, u8),
    iters: u64,
    seed: u64,
) -> Result<FaultCampaignPoint, MachineError> {
    let nodes = usize::from(dims.0) * usize::from(dims.1) * usize::from(dims.2);
    #[allow(clippy::cast_possible_truncation)]
    let plan = campaign_plan(seed, nodes as u32);

    let first = run_campaign_once(dims, iters, &plan)?;
    let second = run_campaign_once(dims, iters, &plan)?;

    let stats_match = first.stats() == second.stats()
        && first.fault_report() == second.fault_report()
        && first.counter_snapshot().crc_nacks == second.counter_snapshot().crc_nacks;
    let completed = first.faulted_threads().is_empty() && second.faulted_threads().is_empty();
    Ok(FaultCampaignPoint {
        dims,
        nodes,
        seed,
        cycles: first.cycle(),
        report: first.fault_report().unwrap_or_default(),
        counters: first.counter_snapshot(),
        stats_match,
        completed,
    })
}

/// Outcome of the crash-recovery scenario.
#[derive(Debug)]
pub struct CrashRecoveryPoint {
    /// Mesh dimensions.
    pub dims: (u8, u8, u8),
    /// Cycle at which the periodic checkpoint was taken.
    pub checkpoint_at: u64,
    /// Checkpoint size in bytes.
    pub checkpoint_bytes: usize,
    /// Epoch boundary at which the watchdog aborted the hung run
    /// (`None`: the run halted without tripping).
    pub tripped_at: Option<u64>,
    /// The watchdog captured a diagnostic document before aborting.
    pub diagnostic_captured: bool,
    /// The restored run completed within [`RUN_LIMIT`] cycles.
    pub recovered: bool,
    /// The restored run's stats equal a reference run that never
    /// crashed (same plan, patient watchdog from the start).
    pub stats_match: bool,
}

/// Build the crash-recovery workload: one node grinding a finite
/// compute + local-store loop, the rest of the mesh idle. With the
/// grinding node as the machine's *only* progress source, a stall
/// window on it hangs the whole machine — exactly the hang signature
/// the watchdog exists for. (Remote-store workloads keep the §4.1
/// resend machinery carrying packets through a stall, which is real
/// forward progress and rightly keeps the watchdog quiet.)
fn build_recovery_scenario(
    dims: (u8, u8, u8),
    iters: u64,
    plan: &FaultPlanConfig,
) -> Result<MMachine, MachineError> {
    let mut cfg = scenario_config(dims);
    cfg.faults = Some(plan.clone());
    let mut m = MMachine::build(cfg)?;
    let grind = Arc::new(assemble(&format!(
        "loop:\n\
         \tadd r5, #1, r5\n\
         \tst r5, [r1]\n\
         \teq r5, #{iters}, gcc1\n\
         \tbrf gcc1, loop\n\
         \thalt\n"
    ))?);
    m.load_user_program(0, 0, &grind)?;
    m.set_user_reg(0, 0, 0, Reg::Int(1), m.home_ptr(0, 0));
    Ok(m)
}

/// The crash-recovery scenario: a long transient stall freezes the
/// only working node past the watchdog's patience; the watchdog aborts
/// with a diagnostic; the operator restores the last periodic
/// checkpoint with a raised patience and the run completes —
/// bit-identical to a run that never crashed.
///
/// # Errors
///
/// The mesh does not build, the checkpoint does not restore, or the
/// reference run fails to halt within [`RUN_LIMIT`] cycles. A
/// production run that never trips is not an error: it shows as
/// `tripped_at: None`.
pub fn run_crash_recovery(
    dims: (u8, u8, u8),
    iters: u64,
) -> Result<CrashRecoveryPoint, MachineError> {
    // A stall long enough to exhaust a 3-epoch × 512-cycle watchdog,
    // short enough that a patient run completes.
    let plan = FaultPlanConfig {
        seed: 0x00C0_FFEE,
        dram: vec![],
        links: vec![],
        stalls: vec![StallFaultConfig {
            node: 0,
            window: (2_000, 40_000),
        }],
    };
    // The production run: checkpoint at cycle 1000, hang, trip.
    let mut prod = build_recovery_scenario(dims, iters, &plan)?;
    prod.set_watchdog(3, 512);
    let checkpoint_at = 1_000;
    prod.run_cycles(checkpoint_at);
    let ckpt = prod.checkpoint();
    let tripped_at = match prod.run_until_halt(RUN_LIMIT) {
        Err(MachineError::WatchdogTripped { at, .. }) => Some(at),
        Ok(_) => None,
        Err(e) => return Err(e),
    };
    let diagnostic_captured = prod.last_diagnostic().is_some();

    // Recovery: restore the checkpoint into a fresh build with the
    // watchdog's patience raised past the stall window (here: disabled,
    // the most patient setting).
    let mut recovered = build_recovery_scenario(dims, iters, &plan)?;
    recovered.set_watchdog(0, 0);
    recovered.restore(&ckpt)?;
    let recovered_ok = recovered.run_until_halt(RUN_LIMIT).is_ok();
    recovered.run_cycles(DRAIN_CYCLES);

    // Reference: the same plan with a patient watchdog from the start.
    let mut reference = build_recovery_scenario(dims, iters, &plan)?;
    reference.run_until_halt(RUN_LIMIT)?;
    reference.run_cycles(DRAIN_CYCLES);

    Ok(CrashRecoveryPoint {
        dims,
        checkpoint_at,
        checkpoint_bytes: ckpt.len(),
        tripped_at,
        diagnostic_captured,
        recovered: recovered_ok,
        stats_match: recovered.stats() == reference.stats()
            && recovered.fault_report() == reference.fault_report(),
    })
}

/// The checks `mmctl campaign` holds the two runs to, one message per
/// failed check — empty when every check held.
#[must_use]
pub fn campaign_failures(p: &FaultCampaignPoint, r: &CrashRecoveryPoint) -> Vec<&'static str> {
    let faulted = p.report.packets_corrupted + p.report.packets_dropped > 0;
    [
        (p.stats_match, "fault campaign diverged between two runs"),
        (p.completed, "fault campaign left faulted threads"),
        (
            faulted && p.report.retransmits > 0,
            "campaign must fault packets and recover them",
        ),
        (
            r.tripped_at.is_some() && r.diagnostic_captured,
            "watchdog did not trip with a diagnostic",
        ),
        (
            r.recovered && r.stats_match,
            "crash-recovery round trip failed",
        ),
    ]
    .into_iter()
    .filter_map(|(ok, why)| (!ok).then_some(why))
    .collect()
}

/// The `BENCH_faults.json` document: counts only — no wall times, no
/// host descriptor — so every host writes the same bytes.
#[must_use]
pub fn campaign_json(p: &FaultCampaignPoint, r: &CrashRecoveryPoint) -> String {
    let dims = |d: (u8, u8, u8)| format!("{}x{}x{}", d.0, d.1, d.2);
    format!(
        "{{\n  \"fault_campaign\": {{\"dims\": \"{}\", \"seed\": {}, \"cycles\": {}, \
         \"packets_corrupted\": {}, \"packets_dropped\": {}, \"packets_delayed\": {}, \
         \"dram_flips\": {}, \"events_applied\": {}, \"crc_nacks\": {}, \"retransmits\": {}, \
         \"dup_drops\": {}, \"ecc_corrected\": {}, \"ecc_double_errors\": {}, \
         \"stats_match\": {}, \"completed\": {}}},\n  \
         \"crash_recovery\": {{\"dims\": \"{}\", \"checkpoint_at\": {}, \
         \"checkpoint_bytes\": {}, \"tripped_at\": {}, \"diagnostic_captured\": {}, \
         \"recovered\": {}, \"stats_match\": {}}}\n}}\n",
        dims(p.dims),
        p.seed,
        p.cycles,
        p.report.packets_corrupted,
        p.report.packets_dropped,
        p.report.packets_delayed,
        p.report.dram_flips,
        p.report.events_applied,
        p.counters.crc_nacks,
        p.report.retransmits,
        p.counters.dup_drops,
        p.counters.ecc_corrected,
        p.counters.ecc_double_errors,
        p.stats_match,
        p.completed,
        dims(r.dims),
        r.checkpoint_at,
        r.checkpoint_bytes,
        r.tripped_at
            .map_or_else(|| "null".to_owned(), |t| t.to_string()),
        r.diagnostic_captured,
        r.recovered,
        r.stats_match
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_smoke_is_deterministic_and_recovers() {
        let p = run_fault_campaign((2, 2, 1), 24, 7).expect("campaign runs");
        assert!(p.stats_match, "two runs of one plan diverged: {p:?}");
        assert!(p.completed, "campaign left faulted threads: {p:?}");
        assert!(
            p.report.packets_corrupted + p.report.packets_dropped > 0,
            "campaign faulted nothing: {p:?}"
        );
        assert!(p.counters.crc_nacks > 0, "no checksum NACK raised: {p:?}");
        assert!(p.report.retransmits > 0, "nothing retransmitted: {p:?}");
    }

    #[test]
    fn crash_recovery_round_trip() {
        let p = run_crash_recovery((2, 1, 1), 1_000).expect("recovery runs");
        assert!(p.diagnostic_captured, "no diagnostic on trip: {p:?}");
        assert!(p.tripped_at.is_some_and(|t| t > p.checkpoint_at));
        assert!(p.recovered, "restored run did not complete: {p:?}");
        assert!(p.stats_match, "recovered run diverged: {p:?}");
    }
}
