//! Coherence-stress scenario: the first genuinely coherence-bound
//! workload.
//!
//! Every node pair `(2k, 2k+1)` shares one 8-word block homed at the
//! even node. The even node owns word 0, the odd node word 1, and both
//! run the [`coherent_smooth`] kernel: read the partner's word, fold it
//! into a smoothed sum, publish the own word — all in the same block,
//! so every store demands exclusivity and every read re-fetches. The
//! block ping-pongs through the full §4.3 protocol (fetch-write,
//! invalidate, recall, writeback, grant) for the whole run; unlike the
//! weak-scaling scenario, *every* remote byte moves through coherence
//! messages rather than the LTLB-miss remote-access handlers.
//!
//! [`run_coherence`] runs a mesh under the serial engine and the
//! parallel engine and diffs the two runs' [`MachineStats`] — protocol
//! traffic is cross-node by construction, so this is the sharded
//! engine's hardest determinism test.

use mm_core::machine::{MMachine, MachineConfig, MachineStats};
use mm_isa::reg::Reg;
use mm_isa::word::Word;
use mm_runtime::kernels::coherent_smooth;

/// Cycle budget for one coherence-stress run.
pub const RUN_LIMIT: u64 = 2_000_000;

/// One mesh's coherence-stress run.
#[derive(Debug, Clone)]
pub struct CoherencePoint {
    /// Mesh dimensions.
    pub dims: (u8, u8, u8),
    /// Node count.
    pub nodes: usize,
    /// Smoothing iterations per node.
    pub iters: u64,
    /// Cycles simulated (identical across engines when `stats_match`).
    pub cycles: u64,
    /// Did serial and parallel produce identical [`MachineStats`]?
    pub stats_match: bool,
    /// Coherence protocol packets that crossed the fabric.
    pub coh_packets: u64,
    /// Blocks granted by home handlers.
    pub block_fetches: u64,
    /// Sharer copies invalidated.
    pub invalidations: u64,
    /// Dirty blocks recalled and written back to their homes.
    pub writebacks: u64,
    /// Mean block-status miss latency: fault → faulted-access replay.
    pub miss_latency_avg: f64,
    /// Invalidations per thousand simulated cycles.
    pub invalidations_per_kcycle: f64,
}

/// Build the scenario: every pair's shared block is the first block of
/// the even node's home page; the odd node maps it coherently (all
/// blocks INVALID, §4.3 boot state for locally-cached remote pages).
///
/// # Panics
///
/// Panics if the mesh has an odd node count or a program fails to load.
#[must_use]
pub fn build_coherence_scenario(
    dims: (u8, u8, u8),
    iters: u64,
    workers: Option<usize>,
) -> MMachine {
    let mut cfg: MachineConfig = crate::scaling::scenario_config(dims);
    cfg.engine.workers = workers;
    let mut m = MMachine::build(cfg).expect("scenario config is valid");
    let n = m.node_count();
    assert!(
        n.is_multiple_of(2),
        "scenario pairs nodes; mesh must be even-sized"
    );
    let b = 0.25f64;
    for pair in 0..n / 2 {
        let (even, odd) = (2 * pair, 2 * pair + 1);
        let block_va = m.home_va(even, 0);
        m.map_coherent_page(odd, block_va);
        let ptr = m.home_ptr(even, 0);
        for (node, own, other) in [(even, 0usize, 1usize), (odd, 1, 0)] {
            let prog = coherent_smooth(own, other, iters);
            m.load_user_program(node, 0, &prog).expect("slot 0 loads");
            m.set_user_reg(node, 0, 0, Reg::Int(1), ptr);
            m.set_user_reg(node, 0, 0, Reg::Fp(15), Word::from_f64(b));
        }
    }
    m
}

/// Run one configured machine to halt and verify the result: for every
/// pair, the freshest copy of each node's word must equal `iters`.
fn run_checked(mut m: MMachine, iters: u64) -> MachineStats {
    m.run_until_halt(RUN_LIMIT)
        .expect("coherence scenario completes");
    m.run_cycles(256); // drain in-flight protocol messages
    assert!(
        m.faulted_threads().is_empty(),
        "scenario faulted: {:?}",
        m.faulted_threads()
    );
    let n = m.node_count();
    for pair in 0..n / 2 {
        let (even, odd) = (2 * pair, 2 * pair + 1);
        let base = m.home_va(even, 0);
        for off in [0u64, 1] {
            // The last writer's copy is authoritative; the partner may
            // hold a stale (invalidated) frame, so take the max of the
            // two local views.
            let a = m.node(even).mem.peek_va(base + off).expect("mapped").word;
            let b = m.node(odd).mem.peek_va(base + off).expect("mapped").word;
            let freshest = a.bits().max(b.bits());
            assert_eq!(
                freshest, iters,
                "pair {pair} word {off}: freshest copy {freshest} != {iters}"
            );
        }
    }
    m.stats()
}

/// Run the coherence-stress scenario on one mesh under the serial and
/// the parallel engine, verify both results, and diff their stats.
///
/// # Panics
///
/// Panics if a run exceeds [`RUN_LIMIT`] cycles, a thread faults, or a
/// pair's shared words end with the wrong values.
#[must_use]
pub fn run_coherence(dims: (u8, u8, u8), iters: u64, workers: Option<usize>) -> CoherencePoint {
    let serial = build_coherence_scenario(dims, iters, Some(1));
    let nodes = serial.node_count();
    let serial_stats = run_checked(serial, iters);
    let parallel_stats = run_checked(build_coherence_scenario(dims, iters, workers), iters);
    let coh = serial_stats.coherence;
    #[allow(clippy::cast_precision_loss)]
    CoherencePoint {
        dims,
        nodes,
        iters,
        cycles: serial_stats.cycles,
        stats_match: serial_stats == parallel_stats,
        coh_packets: serial_stats.fabric.coh_packets,
        block_fetches: coh.block_fetches,
        invalidations: coh.invalidations,
        writebacks: coh.writebacks,
        miss_latency_avg: coh.fetch_latency_cycles as f64 / coh.fetch_replays.max(1) as f64,
        invalidations_per_kcycle: coh.invalidations as f64 * 1e3
            / serial_stats.cycles.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_scenario_is_coherence_bound_and_engine_invariant() {
        let p = run_coherence((2, 2, 1), 8, Some(2));
        assert_eq!(p.nodes, 4);
        assert!(p.stats_match, "serial and parallel engines disagreed");
        assert!(p.coh_packets > 0, "no protocol traffic crossed the fabric");
        assert!(p.block_fetches > 0);
        assert!(p.invalidations > 0, "no ping-pong happened");
        assert!(p.miss_latency_avg > 0.0);
    }
}
