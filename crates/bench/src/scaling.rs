//! The two node-pair scenarios the benchmark, `mmctl` and the tests
//! run on arbitrary even-sized meshes.
//!
//! [`build_scenario`] is the idle-heavy one: every node pair
//! `(2k, 2k+1)` — one-hop x-neighbours — runs the paper's two
//! communication idioms simultaneously:
//!
//! * **Synchronizing ping-pong** (§2/§4.1): the even node SENDs a value
//!   into its partner's flag word with the store-and-set-full DIP; each
//!   side spins on `ld.fe`, whose failed preconditions become
//!   memory-synchronizing faults that the coherence firmware retries
//!   after a backoff — long idle stretches between short bursts.
//! * **Remote stores** (Fig. 7): each node fires a burst of plain
//!   stores at its partner's home page, exercising the LTLB-miss
//!   handler, the GTLB and the message fabric.
//!
//! [`build_busy_scenario`] is the opposite regime: every node computing
//! and remote-storing every cycle, so quiescence skipping cannot help
//! and the node phase dominates. Per-pair work is constant in both, so
//! simulated cycles stay flat as the mesh grows.

use mm_core::machine::{MMachine, MachineConfig};
use mm_core::MachineError;
use mm_isa::assemble;
use mm_isa::reg::Reg;
use mm_isa::word::Word;
use mm_telemetry::TelemetryConfig;
use std::sync::Arc;

/// Ping-pong round trips (and remote stores) per node pair.
pub const ROUNDS: u64 = 4;

/// Cycle budget for one scenario run.
pub const RUN_LIMIT: u64 = 500_000;

/// Warm-up cycles before the allocation window opens. Long enough for
/// boot, first faults, first LTLB/GTLB misses, and every queue and
/// buffer to reach its high-water mark — `VecDeque` growth in the
/// event queues is the last transient and it is done well before this.
pub const ALLOC_WARM_CYCLES: u64 = 20_000;

/// Width of the steady-state allocation window. The busy scenario's
/// loop period is a few hundred cycles, so 5 000 cycles covers many
/// full compute/store/message rounds on every node.
pub const ALLOC_WINDOW_CYCLES: u64 = 5_000;

/// The scenario's machine configuration: default node timing, but small
/// per-node SDRAM and page counts so a 512-node mesh fits in memory.
#[must_use]
pub fn scenario_config(dims: (u8, u8, u8)) -> MachineConfig {
    let nodes = u64::from(dims.0) * u64::from(dims.1) * u64::from(dims.2);
    let mut cfg = MachineConfig::with_dims(dims.0, dims.1, dims.2);
    cfg.local_pages = 2;
    // Direct-mapped LPT slots (vpn < 2·local_pages·N everywhere), so the
    // miss handler's linear probe never wraps the table.
    cfg.lpt_slots = (4 * nodes).max(64);
    // Shrink per-node SDRAM to what the boot layout needs (size-aligned
    // LPT, four local page frames, coherence-frame headroom) so a
    // 512-node mesh fits comfortably in host memory.
    let (_, lpt_end) = mm_runtime::image::lpt_layout(cfg.lpt_slots);
    let capacity = (lpt_end + 16 * 512).next_power_of_two().max(1 << 14);
    cfg.node.mem.sdram.capacity_words = capacity;
    // Keep any coherence frames inside the shrunken SDRAM.
    cfg.coherence.frame_base_ppn = capacity / 512 - 8;
    cfg.trace = false; // timelines would grow with the mesh
    cfg
}

/// Build the ping-pong + remote-store scenario on the serial engine.
///
/// # Panics
///
/// Panics if the mesh has an odd node count or a program fails to load
/// (both are scenario bugs).
#[must_use]
pub fn build_scenario(dims: (u8, u8, u8), rounds: u64) -> MMachine {
    let mut cfg = scenario_config(dims);
    cfg.engine.workers = Some(1);
    load_scenario(cfg, rounds)
}

/// Build `cfg` and load the ping (even node), pong (odd node) and
/// remote-store programs onto every node pair.
fn load_scenario(cfg: MachineConfig, rounds: u64) -> MMachine {
    let mut m = MMachine::build(cfg).expect("scenario config is valid");
    let n = m.node_count();
    assert!(
        n.is_multiple_of(2),
        "scenario pairs nodes; mesh must be even-sized"
    );
    let asm = |src: &str| Arc::new(assemble(src).expect("scenario program assembles"));
    let ping = asm(&format!(
        "loop:\n\
         \tadd r5, #1, r5\n\
         \tmov r5, mc1\n\
         \tsend r10, r11, #1\n\
         \tld.fe [r1], r6\n\
         \teq r5, #{rounds}, gcc1\n\
         \tbrf gcc1, loop\n\
         \thalt\n"
    ));
    let pong = asm(&format!(
        "loop:\n\
         \tld.fe [r1], r6\n\
         \tmov r6, mc1\n\
         \tsend r10, r11, #1\n\
         \teq r6, #{rounds}, gcc1\n\
         \tbrf gcc1, loop\n\
         \thalt\n"
    ));
    let mut store_src = String::new();
    for k in 0..rounds {
        store_src.push_str(&format!("st r2, [r8+#{k}]\n"));
    }
    store_src.push_str("halt\n");
    let store = asm(&store_src);
    let sync_dip = m.image().write_sync_dip;
    for i in 0..n {
        let partner = i ^ 1; // the x-neighbour (linear index is x-fastest)
                             // Slot 0: the synchronizing ping-pong.
        let prog = if i % 2 == 0 { &ping } else { &pong };
        m.load_user_program(i, 0, prog).expect("slot 0 loads");
        let own_flag = m.home_va(i, 1);
        let partner_flag = m.home_va(partner, 1);
        let own_ptr = m
            .make_ptr(mm_isa::Perm::ReadWrite, 0, own_flag)
            .expect("flag ptr");
        let partner_ptr = m
            .make_ptr(mm_isa::Perm::ReadWrite, 0, partner_flag)
            .expect("flag ptr");
        m.set_user_reg(i, 0, 0, Reg::Int(1), own_ptr);
        m.set_user_reg(i, 0, 0, Reg::Int(10), partner_ptr);
        m.set_user_reg(i, 0, 0, Reg::Int(11), sync_dip);
        // Slot 1: the remote-store burst at the partner's home page.
        m.load_user_program(i, 1, &store).expect("slot 1 loads");
        m.set_user_reg(i, 0, 1, Reg::Int(8), m.home_ptr(partner, 0));
        m.set_user_reg(i, 0, 1, Reg::Int(2), Word::from_u64(0xC0DE + i as u64));
    }
    m
}

/// Build the busy-traffic scenario: every node runs `iters` iterations
/// of a dependent integer chain plus one remote store to its partner's
/// home page — all nodes awake essentially every cycle, so quiescence
/// skipping cannot help and the node phase dominates.
///
/// # Panics
///
/// As [`build_busy_scenario_telemetry`].
#[must_use]
pub fn build_busy_scenario(dims: (u8, u8, u8), iters: u64, workers: Option<usize>) -> MMachine {
    build_busy_scenario_telemetry(dims, iters, workers, TelemetryConfig::default())
}

/// [`build_busy_scenario`] with a telemetry configuration.
///
/// # Panics
///
/// Panics where [`build_busy_scenario_full`] returns an error: a mesh
/// that does not build or has an odd node count.
#[must_use]
pub fn build_busy_scenario_telemetry(
    dims: (u8, u8, u8),
    iters: u64,
    workers: Option<usize>,
    telemetry: TelemetryConfig,
) -> MMachine {
    build_busy_scenario_full(dims, iters, workers, telemetry, None)
        .expect("busy scenario mesh is valid and even-sized")
}

/// [`build_busy_scenario_telemetry`] with an optional fault campaign
/// armed — the fault-injection harnesses and `mmctl run/snapshot/
/// campaign` all build their machines here so every consumer runs the
/// identical workload.
///
/// # Errors
///
/// [`MachineError::BadConfig`] if the mesh does not build or has an odd
/// node count (the scenario pairs nodes).
pub fn build_busy_scenario_full(
    dims: (u8, u8, u8),
    iters: u64,
    workers: Option<usize>,
    telemetry: TelemetryConfig,
    faults: Option<mm_faults::FaultPlanConfig>,
) -> Result<MMachine, MachineError> {
    let mut cfg = scenario_config(dims);
    cfg.engine.workers = workers;
    cfg.telemetry = telemetry;
    cfg.faults = faults;
    let mut m = MMachine::build(cfg)?;
    let n = m.node_count();
    if !n.is_multiple_of(2) {
        return Err(MachineError::BadConfig(format!(
            "the busy scenario pairs nodes, but the mesh has an odd count ({n})"
        )));
    }
    let busy = Arc::new(assemble(&format!(
        "loop:\n\
         \tadd r5, #1, r5\n\
         \tadd r6, r5, r6\n\
         \tadd r7, r6, r7\n\
         \tst r5, [r8]\n\
         \teq r5, #{iters}, gcc1\n\
         \tbrf gcc1, loop\n\
         \thalt\n"
    ))?);
    for i in 0..n {
        let partner = i ^ 1;
        m.load_user_program(i, 0, &busy)?;
        m.set_user_reg(i, 0, 0, Reg::Int(8), m.home_ptr(partner, 0));
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run to halt and return the final stats; the scenario must not
    /// fault.
    fn run(mut m: MMachine) -> mm_core::machine::MachineStats {
        m.run_until_halt(RUN_LIMIT).expect("scenario completes");
        assert!(
            m.faulted_threads().is_empty(),
            "scenario faulted: {:?}",
            m.faulted_threads()
        );
        m.stats()
    }

    #[test]
    fn two_by_two_scenario_completes() {
        let serial = run(build_scenario((2, 2, 1), 2));
        let mut cfg = scenario_config((2, 2, 1));
        cfg.engine.workers = Some(2);
        let parallel = load_scenario(cfg, 2);
        assert_eq!(parallel.workers(), 2);
        let parallel = run(parallel);
        assert!(serial.cycles > 0 && serial.cycles < RUN_LIMIT);
        assert!(serial.messages > 0, "scenario must exercise the fabric");
        assert_eq!(serial, parallel, "serial and parallel engines disagreed");
    }

    #[test]
    fn idle_heavy_paths_agree() {
        // A fixed horizon well past halt, so the idle tail is where the
        // engine fast-forwards and the dense loop steps every cycle.
        let mut engine = build_scenario((2, 1, 1), 2);
        engine.run_cycles(5_000);
        let mut dense = build_scenario((2, 1, 1), 2);
        for _ in 0..5_000 {
            dense.naive_step();
        }
        assert_eq!(
            dense.stats(),
            engine.stats(),
            "dense loop and engine disagreed"
        );
    }

    #[test]
    fn busy_traffic_engines_agree() {
        let serial = run(build_busy_scenario((2, 2, 1), 16, Some(1)));
        let parallel = build_busy_scenario((2, 2, 1), 16, Some(2));
        assert_eq!(parallel.workers(), 2);
        let parallel = run(parallel);
        assert!(serial.cycles > 0 && serial.cycles < RUN_LIMIT);
        assert_eq!(serial, parallel, "serial and parallel engines disagreed");

        let mut on =
            build_busy_scenario_telemetry((2, 2, 1), 16, Some(1), TelemetryConfig::enabled());
        on.run_until_halt(RUN_LIMIT).expect("scenario completes");
        on.telemetry_flush();
        assert!(
            on.telemetry().is_some_and(|t| !t.ring().is_empty()),
            "flush must close at least one epoch"
        );
        assert_eq!(
            on.stats(),
            serial,
            "telemetry sampling changed the simulation"
        );
    }
}
