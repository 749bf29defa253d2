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
//! The scenario runs on [`scenario_config`]; [`load_coherence_scenario`]
//! loads it onto any configuration and [`check_coherence`] verifies a
//! finished run.

use crate::scaling::scenario_config;
use mm_core::machine::{MMachine, MachineConfig};
use mm_isa::reg::Reg;
use mm_isa::word::Word;
use mm_runtime::kernels::coherent_smooth;

/// Cycle budget for one coherence-stress run.
pub const RUN_LIMIT: u64 = 2_000_000;

/// Build the scenario on [`scenario_config`].
/// `_workers` is ignored: a machine steps on one host thread. The
/// argument stays only because `benchmark/` still passes it.
///
/// # Panics
///
/// As [`load_coherence_scenario`].
#[must_use]
pub fn build_coherence_scenario(
    dims: (u8, u8, u8),
    iters: u64,
    _workers: Option<usize>,
) -> MMachine {
    load_coherence_scenario(scenario_config(dims), iters)
}

/// Build `cfg` and load the scenario: every pair's shared block is the
/// first block of the even node's home page; the odd node maps it
/// coherently (all blocks INVALID, §4.3 boot state for locally-cached
/// remote pages).
///
/// # Panics
///
/// Panics if the mesh has an odd node count or a program fails to load.
#[must_use]
pub fn load_coherence_scenario(cfg: MachineConfig, iters: u64) -> MMachine {
    let mut m = MMachine::build(cfg).expect("scenario config is valid");
    let n = m.node_count();
    assert!(
        n.is_multiple_of(2),
        "scenario pairs nodes; mesh must be even-sized"
    );
    let b = 0.25f64;
    let progs = [coherent_smooth(0, 1, iters), coherent_smooth(1, 0, iters)];
    for pair in 0..n / 2 {
        let (even, odd) = (2 * pair, 2 * pair + 1);
        let block_va = m.home_va(even, 0);
        m.map_coherent_page(odd, block_va);
        let ptr = m.home_ptr(even, 0);
        for (node, prog) in [even, odd].into_iter().zip(&progs) {
            m.load_user_program(node, 0, prog).expect("slot 0 loads");
            m.set_user_reg(node, 0, 0, Reg::Int(1), ptr);
            m.set_user_reg(node, 0, 0, Reg::Fp(15), Word::from_f64(b));
        }
    }
    m
}

/// Verify a run of the scenario that halted and drained: for every
/// pair, the freshest copy of each node's word must equal `iters`.
///
/// # Panics
///
/// Panics if a pair's shared words end with the wrong values.
pub fn check_coherence(m: &MMachine, iters: u64) {
    for pair in 0..m.node_count() / 2 {
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
}
