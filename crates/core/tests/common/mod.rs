//! The dense-oracle harness the engine differentials share: the halt
//! predicate over the public API, `run_until_halt` re-implemented over
//! the dense `naive_step` loop, and [`differential`], which runs one
//! configured scenario densely and through the engine at every worker
//! count in [`WORKERS`] and asserts every observable equal; plus
//! [`fnv1a64`], the digest the checkpoint goldens pin.

// Each test binary compiles this module and uses a subset of it.
#![allow(dead_code)]

use mm_core::machine::{MMachine, MachineConfig, MachineStats};
use mm_core::timeline::Phase;
use mm_sim::{HState, NUM_CLUSTERS, USER_SLOTS};

/// Worker counts every differential runs (clamped to the node count).
pub const WORKERS: [usize; 3] = [1, 2, 4];

/// Cycles every [`differential`] keeps running past the drained halt:
/// an idle tail the engine fast-forwards and the dense loop steps.
pub const IDLE_TAIL: u64 = 2_000;

/// The halt predicate, over the public API: no user H-Thread running
/// anywhere, and at least one finished.
pub fn user_done(m: &MMachine) -> bool {
    let mut any = false;
    for i in 0..m.node_count() {
        for c in 0..NUM_CLUSTERS {
            for s in 0..USER_SLOTS {
                match m.node(i).thread_state(c, s) {
                    HState::Running => return false,
                    HState::Halted | HState::Faulted(_) => any = true,
                    HState::Idle => {}
                }
            }
        }
    }
    any
}

/// `run_until_halt` re-implemented over the dense debug loop, with the
/// same predicate and the same 64-cycle drain.
pub fn naive_run_until_halt(m: &mut MMachine, limit: u64) -> u64 {
    let start = m.cycle();
    let done = loop {
        assert!(m.cycle() - start < limit, "naive run did not halt");
        if user_done(m) {
            break m.cycle();
        }
        m.naive_step();
    };
    for _ in 0..64 {
        m.naive_step();
    }
    done
}

/// FNV-1a-64 of `bytes`: the digest the checkpoint goldens pin.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Observables of one run at one point in time.
struct Observed {
    stats: MachineStats,
    timeline: Vec<(u64, Phase)>,
}

fn observe(m: &MMachine) -> Observed {
    Observed {
        stats: m.stats(),
        timeline: m.timeline().events().to_vec(),
    }
}

fn assert_same(want: &Observed, got: &Observed, what: &str) {
    assert_eq!(want.stats, got.stats, "{what}: stats");
    assert_eq!(want.timeline, got.timeline, "{what}: timelines");
}

/// The three-way differential: `load(cfg)` with `trace` on, run to halt
/// by the dense loop and by the engine at every worker count in
/// [`WORKERS`], then through [`IDLE_TAIL`] more cycles. Halt cycle,
/// [`MachineStats`] and timeline must agree at both
/// points, the dense run must not fault or drop an event record, and
/// the dense machine is returned for the scenario's result check.
pub fn differential(
    name: &str,
    mut cfg: MachineConfig,
    load: impl Fn(MachineConfig) -> MMachine,
    limit: u64,
) -> MMachine {
    cfg.trace = true;
    let mut dense = load(cfg.clone());
    let done = naive_run_until_halt(&mut dense, limit);
    assert!(
        dense.faulted_threads().is_empty(),
        "{name}: faulted threads {:?}",
        dense.faulted_threads()
    );
    assert_eq!(
        dense.stats().coherence.unknown_events,
        0,
        "{name}: dropped records"
    );
    let at_halt = observe(&dense);
    for _ in 0..IDLE_TAIL {
        dense.naive_step();
    }
    let after_tail = observe(&dense);
    for workers in WORKERS {
        cfg.engine.workers = Some(workers);
        let mut m = load(cfg.clone());
        assert_eq!(
            m.workers(),
            workers.min(m.node_count()),
            "{name}: pool size"
        );
        let halted = m.run_until_halt(limit).expect("engine run halts");
        assert_eq!(done, halted, "{name}: halt cycle at {workers} workers");
        assert_same(
            &at_halt,
            &observe(&m),
            &format!("{name} at {workers} workers"),
        );
        m.run_cycles(IDLE_TAIL);
        assert_same(
            &after_tail,
            &observe(&m),
            &format!("{name} idle tail at {workers} workers"),
        );
    }
    dense
}
