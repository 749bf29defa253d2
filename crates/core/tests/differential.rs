//! Differential testing of the windowed cycle engine — serial *and*
//! parallel — against the dense `naive_step` loop.
//!
//! Identically-built, identically-loaded machines run the same random
//! workload three ways — stepped densely one cycle at a time, through
//! the serial engine's node-major windows, and through the sharded
//! parallel engine at several worker counts — and must agree on
//! *everything observable*: cycle count, aggregate [`MachineStats`], the
//! full phase timeline, every user thread's state and PC, and the
//! user-visible register files. This is the engines'
//! correctness argument in executable form: skipping a quiescent
//! component is a provable no-op, stepping a node through a whole window
//! before its neighbours and replaying what it sent is invisible, and
//! sharding nodes across worker threads behind the per-window merge
//! barrier changes nothing observable. The window cases below put a
//! window boundary under every cut the machine makes: run targets,
//! telemetry and watchdog epochs, fault-plan events, checkpoints,
//! resends falling due, and a zero hop latency (one-cycle windows).

mod common;

use common::{differential, naive_run_until_halt, user_done, WORKERS};
use mm_bench::coherence::{check_coherence, load_coherence_scenario};
use mm_bench::scaling::scenario_config;
use mm_bench::traffic::{load_traffic_scenario, traffic_config, TrafficPattern};
use mm_core::error::MachineError;
use mm_core::machine::{MMachine, MachineConfig};
use mm_faults::{splitmix64, DramFaultConfig, FaultPlanConfig, LinkFaultConfig, StallFaultConfig};
use mm_isa::assemble;
use mm_isa::reg::Reg;
use mm_sim::{NUM_CLUSTERS, USER_SLOTS};
use mm_telemetry::{TelemetryConfig, N_COUNTERS};
use proptest::prelude::*;
use std::sync::Arc;

/// The window width of `MachineConfig::small()`: hop latency 2, plus one.
const W: u64 = 3;

fn machine() -> MMachine {
    machine_with_workers(1)
}

/// A 2-node machine pinned to `workers` shard threads (clamped to the
/// node count, so 2 is the maximum that actually shards here).
fn machine_with_workers(workers: usize) -> MMachine {
    let mut cfg = MachineConfig::small();
    cfg.engine.workers = Some(workers);
    MMachine::build(cfg).expect("valid config")
}

/// One gene = one instruction-template choice with two parameters.
type Gene = (u8, u64, u64);

/// Expand a gene stream into a program: local ALU/FP work, local and
/// remote loads/stores (the LTLB-miss handler and Fig. 7 messages),
/// user-level SENDs, taken branches (fetch bubbles), and synchronizing
/// accesses (sync-fault retries through the coherence firmware).
/// Register conventions: `r1` = own home page, `r8` = the other node's
/// home page, `r10`/`r11` = raw target pointer + write DIP for SENDs.
fn program_from(genes: &[Gene]) -> String {
    let mut src = String::new();
    for (k, &(op, a, b)) in genes.iter().enumerate() {
        let off = a % 60;
        let imm = b % 1000;
        match op % 11 {
            0 => src.push_str(&format!("add r2, #{imm}, r2\n")),
            1 => src.push_str(&format!("mov #{imm}, r3\n")),
            2 => src.push_str("fadd f1, f2, f3\n"),
            3 => src.push_str(&format!("ld [r1+#{off}], r4\n")),
            4 => src.push_str(&format!("st r2, [r1+#{off}]\n")),
            5 => src.push_str(&format!("st r3, [r8+#{off}]\n")),
            6 => src.push_str(&format!("ld [r8+#{off}], r6\n")),
            7 => src.push_str(&format!("mov #{imm}, mc1\n send r10, r11, #1\n")),
            8 => src.push_str(&format!("brf r0, skip{k}\n add r2, #1, r2\nskip{k}:\n")),
            9 => src.push_str(&format!("st.af r2, [r1+#{off}]\n")),
            _ => src.push_str(&format!("ld.fe [r1+#{off}], r9\n")),
        }
    }
    src.push_str("halt\n");
    src
}

/// Load the same two programs onto both machines (node 0 and node 1,
/// slot 0) with identical register conventions.
fn load_workload(m: &mut MMachine, genes0: &[Gene], genes1: &[Gene]) {
    let progs = [
        Arc::new(assemble(&program_from(genes0)).expect("generated program assembles")),
        Arc::new(assemble(&program_from(genes1)).expect("generated program assembles")),
    ];
    for (node, prog) in progs.iter().enumerate() {
        let other = 1 - node;
        m.load_user_program(node, 0, prog).unwrap();
        m.set_user_reg(node, 0, 0, Reg::Int(1), m.home_ptr(node, 0));
        m.set_user_reg(node, 0, 0, Reg::Int(8), m.home_ptr(other, 0));
        let target = m.home_va(other, 1);
        let ptr = m
            .make_ptr(mm_isa::Perm::ReadWrite, 0, target)
            .expect("target ptr");
        m.set_user_reg(node, 0, 0, Reg::Int(10), ptr);
        let dip = m.image().write_dip;
        m.set_user_reg(node, 0, 0, Reg::Int(11), dip);
    }
}

/// Everything observable must match between the two machines.
fn assert_machines_agree(a: &MMachine, b: &MMachine) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.cycle(), b.cycle(), "clocks diverged");
    prop_assert_eq!(a.stats(), b.stats(), "MachineStats diverged");
    // PR 5 bugfix: class-0 records with unknown kinds used to vanish
    // silently; no workload this harness generates may drop any.
    prop_assert_eq!(a.stats().coherence.unknown_events, 0, "records dropped");
    prop_assert_eq!(
        a.timeline().events(),
        b.timeline().events(),
        "timelines diverged"
    );
    for i in 0..a.node_count() {
        for c in 0..NUM_CLUSTERS {
            for s in 0..USER_SLOTS {
                prop_assert_eq!(
                    a.node(i).thread_state(c, s),
                    b.node(i).thread_state(c, s),
                    "thread state diverged at node {} cluster {} slot {}",
                    i,
                    c,
                    s
                );
                prop_assert_eq!(
                    a.node(i).thread_pc(c, s),
                    b.node(i).thread_pc(c, s),
                    "thread PC diverged at node {} cluster {} slot {}",
                    i,
                    c,
                    s
                );
            }
        }
        for r in 0..16u8 {
            prop_assert_eq!(
                a.node(i).read_reg(0, 0, Reg::Int(r)).bits(),
                b.node(i).read_reg(0, 0, Reg::Int(r)).bits(),
                "register r{} diverged on node {}",
                r,
                i
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Fixed-horizon three-way differential: random two-node workloads
    /// (programs plus the message traffic they provoke) behave
    /// identically under the dense loop, the serial quiescence engine,
    /// and the parallel engine, even when threads block forever on
    /// synchronizing loads.
    #[test]
    fn engines_match_naive_over_fixed_horizon(
        genes0 in prop::collection::vec((0u8..11, 0u64..64, 0u64..1000), 1..12),
        genes1 in prop::collection::vec((0u8..11, 0u64..64, 0u64..1000), 1..12),
        horizon in 800u64..3000,
    ) {
        let mut dense = machine();
        load_workload(&mut dense, &genes0, &genes1);
        for _ in 0..horizon {
            dense.naive_step();
        }
        for workers in [1, 2] {
            let mut engine = machine_with_workers(workers);
            load_workload(&mut engine, &genes0, &genes1);
            engine.run_cycles(horizon);
            prop_assert_eq!(engine.workers(), workers, "pool size");
            assert_machines_agree(&dense, &engine)?;
        }
    }

    /// Halt-driven three-way differential: when the workload
    /// terminates, both engines' `run_until_halt` must report the exact
    /// halt cycle the dense loop observes (same predicate, evaluated
    /// cycle-by-cycle).
    #[test]
    fn engines_match_naive_halt_cycles(
        genes0 in prop::collection::vec((0u8..9, 0u64..64, 0u64..1000), 1..10),
        genes1 in prop::collection::vec((0u8..9, 0u64..64, 0u64..1000), 1..10),
    ) {
        // Templates 9/10 (synchronizing accesses) are excluded so the
        // workload always halts.
        let mut dense = machine();
        load_workload(&mut dense, &genes0, &genes1);
        let halted_dense = naive_run_until_halt(&mut dense, 100_000);
        for workers in [1, 2] {
            let mut engine = machine_with_workers(workers);
            load_workload(&mut engine, &genes0, &genes1);
            let halted = engine.run_until_halt(100_000).expect("engine run halts");
            prop_assert_eq!(halted_dense, halted, "halt cycles diverged");
            assert_machines_agree(&dense, &engine)?;
        }
    }

    /// The fixed-horizon workloads again, driven in random `run_cycles`
    /// chunks of 1..=2W+1 cycles: every chunk end cuts the window it
    /// falls in, and nothing observable may move.
    #[test]
    fn engines_match_naive_in_random_chunks(
        genes0 in prop::collection::vec((0u8..11, 0u64..64, 0u64..1000), 1..12),
        genes1 in prop::collection::vec((0u8..11, 0u64..64, 0u64..1000), 1..12),
        horizon in 800u64..3000,
        seed in any::<u64>(),
    ) {
        let mut dense = machine();
        load_workload(&mut dense, &genes0, &genes1);
        for _ in 0..horizon {
            dense.naive_step();
        }
        for workers in WORKERS {
            let mut engine = machine_with_workers(workers);
            load_workload(&mut engine, &genes0, &genes1);
            run_in_chunks(&mut engine, horizon, seed);
            assert_machines_agree(&dense, &engine)?;
        }
    }
}

/// Run `total` cycles as `run_cycles` calls of 1..=2W+1 cycles each,
/// the chunk lengths drawn from `seed`.
fn run_in_chunks(m: &mut MMachine, total: u64, seed: u64) {
    let (mut left, mut x) = (total, seed);
    while left > 0 {
        x = splitmix64(x);
        let chunk = (1 + x % (2 * W + 1)).min(left);
        m.run_cycles(chunk);
        left -= chunk;
    }
}

/// `run_until_halt` with one-cycle windows throughout (a `run_until`
/// predicate always runs W = 1): the cycle-by-cycle schedule a windowed
/// run must reproduce, down to node steps and telemetry epochs.
fn cycle_by_cycle_until_halt(m: &mut MMachine, limit: u64) -> Result<u64, MachineError> {
    let done = m.run_until(limit, user_done)?;
    let drained = m.run_until(64, |_| false);
    assert!(matches!(drained, Err(MachineError::Timeout { .. })));
    Ok(done)
}

/// Every telemetry epoch a machine sampled: its header and every
/// counter column (not the wall-clock fields or the rates derived from
/// them).
fn epochs(m: &MMachine) -> Vec<([u64; 3], [u64; N_COUNTERS])> {
    m.telemetry()
        .expect("telemetry enabled")
        .ring()
        .iter()
        .map(|s| ([s.epoch, s.start_cycle, s.end_cycle], s.counters()))
        .collect()
}

/// A fixed two-node workload with remote loads and stores, SENDs and
/// branches, repeated until it runs for a couple of thousand cycles:
/// enough cross-node traffic to land deliveries inside most windows.
fn chatty_genes() -> (Vec<Gene>, Vec<Gene>) {
    let (g0, g1) = chatty_round();
    (g0.repeat(12), g1.repeat(12))
}

fn chatty_round() -> (Vec<Gene>, Vec<Gene>) {
    let g0 = vec![
        (3, 5, 0),
        (7, 0, 17),
        (6, 2, 0),
        (5, 9, 0),
        (8, 0, 0),
        (6, 11, 0),
        (7, 0, 99),
        (4, 3, 0),
    ];
    let g1 = vec![
        (6, 1, 0),
        (7, 0, 3),
        (3, 4, 0),
        (5, 21, 0),
        (2, 0, 0),
        (6, 7, 0),
        (7, 0, 5),
    ];
    (g0, g1)
}

/// A loaded 2-node machine with `workers` shard threads, after `tweak`
/// adjusted its configuration.
fn chatty_machine(workers: usize, tweak: &dyn Fn(&mut MachineConfig)) -> MMachine {
    let mut cfg = MachineConfig::small();
    cfg.engine.workers = Some(workers);
    tweak(&mut cfg);
    let mut m = MMachine::build(cfg).expect("valid config");
    let (g0, g1) = chatty_genes();
    load_workload(&mut m, &g0, &g1);
    m
}

/// Telemetry epochs of one cycle and of a prime width, with the
/// watchdog armed on a prime epoch too: every boundary cuts a window.
/// The windowed engines must reproduce the dense run's halt cycle and
/// observables, and the cycle-by-cycle engine's epoch samples exactly.
#[test]
fn telemetry_and_watchdog_epochs_cut_windows() {
    for epoch_cycles in [1, 7] {
        let tweak = |cfg: &mut MachineConfig| {
            cfg.telemetry = TelemetryConfig {
                enabled: true,
                epoch_cycles,
                ring_epochs: 4096,
                stream_path: None,
            };
            cfg.watchdog_epochs = 1_000;
            cfg.watchdog_epoch_cycles = 5;
        };
        let mut dense = chatty_machine(1, &tweak);
        let done_dense = naive_run_until_halt(&mut dense, 100_000);
        let mut per_cycle = chatty_machine(1, &tweak);
        let done_ref = cycle_by_cycle_until_halt(&mut per_cycle, 100_000).expect("halts");
        assert_eq!(done_dense, done_ref, "epoch {epoch_cycles}: W = 1 halt");
        assert_machines_agree(&dense, &per_cycle).expect("W = 1 agrees with dense");
        assert!(epochs(&per_cycle).len() > 100 / epoch_cycles as usize);
        for workers in WORKERS {
            let mut m = chatty_machine(workers, &tweak);
            let done = m.run_until_halt(100_000).expect("halts");
            assert_eq!(done_dense, done, "epoch {epoch_cycles}, {workers} workers");
            assert_machines_agree(&dense, &m).expect("windowed run agrees with dense");
            assert_eq!(m.perf().node_steps, per_cycle.perf().node_steps);
            assert_eq!(
                epochs(&per_cycle),
                epochs(&m),
                "epoch {epoch_cycles}: samples at {workers} workers"
            );
        }
    }
}

/// A watchdog that trips: node 1's issue stage is stalled forever while
/// its thread still runs. Windowed engines must trip on the same epoch
/// boundary with the same strike count as cycle-by-cycle stepping.
#[test]
fn watchdog_trips_on_the_same_boundary() {
    let tweak = |cfg: &mut MachineConfig| {
        cfg.watchdog_epochs = 3;
        cfg.watchdog_epoch_cycles = 97;
        cfg.faults = Some(FaultPlanConfig {
            seed: 1,
            dram: vec![],
            links: vec![],
            stalls: vec![StallFaultConfig {
                node: 1,
                window: (40, u64::MAX),
            }],
        });
    };
    let mut per_cycle = chatty_machine(1, &tweak);
    let want = cycle_by_cycle_until_halt(&mut per_cycle, 100_000);
    assert!(
        matches!(want, Err(MachineError::WatchdogTripped { .. })),
        "{want:?}"
    );
    let mut dense = chatty_machine(1, &tweak);
    while dense.cycle() < per_cycle.cycle() {
        dense.naive_step();
    }
    assert_machines_agree(&dense, &per_cycle).expect("W = 1 agrees with dense");
    for workers in WORKERS {
        let mut m = chatty_machine(workers, &tweak);
        let got = m.run_until_halt(100_000);
        assert_eq!(format!("{want:?}"), format!("{got:?}"), "{workers} workers");
        assert_eq!(per_cycle.stats(), m.stats(), "{workers} workers");
        assert_eq!(per_cycle.timeline().events(), m.timeline().events());
    }
}

/// A campaign with a DRAM upset and a stall window opening at every
/// residue of the cycle mod W, over a link window that corrupts, drops
/// and delays packets (so deliveries take the checked path and NACKed
/// returns resend): each event lands at a window start.
#[test]
fn fault_events_at_every_residue_cut_windows() {
    let plan = FaultPlanConfig {
        seed: 0x5eed,
        dram: (0..W)
            .map(|r| DramFaultConfig {
                flips: 1,
                double_every: 0,
                window: (300 + 100 * r + r, 301 + 100 * r + r),
                addr: (0, 4096),
            })
            .collect(),
        links: vec![LinkFaultConfig {
            window: (0, 1_000_000),
            corrupt_pct: 15,
            drop_pct: 10,
            delay_pct: 15,
            delay_cycles: 4,
        }],
        stalls: (0..W)
            .map(|r| StallFaultConfig {
                node: u32::try_from(r % 2).expect("0 or 1"),
                window: (350 + 100 * r + r, 370 + 100 * r + r),
            })
            .collect(),
    };
    let residues: Vec<u64> = plan
        .dram
        .iter()
        .map(|d| d.window.0 % W)
        .chain(plan.stalls.iter().map(|s| s.window.0 % W))
        .collect();
    for r in 0..W {
        assert_eq!(residues.iter().filter(|&&x| x == r).count(), 2);
    }
    let tweak = |cfg: &mut MachineConfig| cfg.faults = Some(plan.clone());
    let mut dense = chatty_machine(1, &tweak);
    let done_dense = naive_run_until_halt(&mut dense, 200_000);
    let report = dense.fault_report().expect("campaign armed");
    assert_eq!(report.events_applied, 2 * W, "every event landed");
    assert!(report.packets_corrupted + report.packets_dropped > 0);
    for workers in WORKERS {
        let mut m = chatty_machine(workers, &tweak);
        let done = m.run_until_halt(200_000).expect("halts");
        assert_eq!(done_dense, done, "{workers} workers");
        assert_machines_agree(&dense, &m).expect("agrees with dense");
        assert_eq!(dense.fault_report(), m.fault_report(), "{workers} workers");
    }
}

/// A checkpoint taken one or two cycles into a window restores into a
/// twin that finishes exactly like the uninterrupted dense run — and
/// the image itself is byte-identical to one taken after cycle-by-cycle
/// stepping to the same cycle.
#[test]
fn checkpoint_mid_window_finishes_in_a_twin() {
    let none = |_: &mut MachineConfig| {};
    let mut dense = chatty_machine(1, &none);
    let done_dense = naive_run_until_halt(&mut dense, 100_000);
    for split in [100 * W + 1, 100 * W + 2, 157] {
        let mut per_cycle = chatty_machine(1, &none);
        let _ = per_cycle.run_until(split, |_| false);
        let image = per_cycle.checkpoint();
        for workers in WORKERS {
            let mut a = chatty_machine(workers, &none);
            a.run_cycles(split);
            assert_eq!(image, a.checkpoint(), "split {split}, {workers} workers");
            let mut twin = chatty_machine(workers, &none);
            twin.restore(&image).expect("restores");
            let done = twin.run_until_halt(100_000).expect("halts");
            assert_eq!(done_dense, done, "split {split}, {workers} workers");
            // The timeline is host-side and starts empty in the twin, so
            // everything else is compared.
            assert_eq!(dense.cycle(), twin.cycle());
            assert_eq!(dense.stats(), twin.stats());
            for i in 0..2 {
                for r in 0..16u8 {
                    assert_eq!(
                        dense.user_reg(i, 0, 0, r).unwrap().bits(),
                        twin.user_reg(i, 0, 0, r).unwrap().bits()
                    );
                }
            }
        }
    }
}

/// With a zero hop latency a packet can land the cycle after it was
/// sent: W = 1, every window a single cycle.
#[test]
fn zero_hop_latency_means_one_cycle_windows() {
    let tweak = |cfg: &mut MachineConfig| cfg.hop_latency = 0;
    let mut dense = chatty_machine(1, &tweak);
    let done_dense = naive_run_until_halt(&mut dense, 100_000);
    for workers in WORKERS {
        let mut m = chatty_machine(workers, &tweak);
        let done = m.run_until_halt(100_000).expect("halts");
        assert_eq!(done_dense, done, "{workers} workers");
        assert_machines_agree(&dense, &m).expect("agrees with dense");
    }
}

/// Every node floods node 0, whose two-message queues bounce most of
/// it. With a resend backoff shorter than a window (0, 1 and 2 cycles
/// against W = 3) returns arrive mid-window and their resends fall due
/// inside the window they arrive in; with a longer one (3, and the
/// default 32) backoffs end in the middle of later windows, where the
/// walk hands the messages back.
#[test]
fn returns_and_resends_land_inside_windows() {
    let build = |workers: usize, resend_delay: u64| -> MMachine {
        let mut cfg = traffic_config();
        cfg.trace = true;
        cfg.engine.workers = Some(workers);
        cfg.resend_delay = resend_delay;
        cfg.node.iface.msg_queue_capacity = 2;
        load_traffic_scenario(cfg, TrafficPattern::Hotspot, 0, 24)
    };
    for resend_delay in [0, 1, 2, W, 32] {
        let mut dense = build(1, resend_delay);
        let done_dense = naive_run_until_halt(&mut dense, 200_000);
        let returned: u64 = (0..dense.node_count())
            .map(|i| dense.node(i).net.stats().returned_here)
            .sum();
        assert!(returned > 10, "backoff {resend_delay}: {returned} returns");
        for workers in WORKERS {
            let mut m = build(workers, resend_delay);
            let done = m.run_until_halt(200_000).expect("halts");
            assert_eq!(
                done_dense, done,
                "backoff {resend_delay}, {workers} workers"
            );
            assert_machines_agree(&dense, &m).expect("agrees with dense");
        }
    }
}

/// 256 nodes, so 2 and 4 workers really split every window's walk into
/// 2 and 4 shards, with each node's partner 64 nodes away — across a
/// shard boundary — so every drain, delivery and trace record is merged
/// from several logs.
#[test]
fn multi_shard_windows_merge_in_node_order() {
    const NODES: usize = 256;
    let genes: [Gene; 7] = [
        (3, 5, 0),
        (5, 9, 0),
        (7, 0, 17),
        (0, 0, 3),
        (6, 2, 0),
        (8, 0, 0),
        (6, 30, 0),
    ];
    let prog = Arc::new(assemble(&program_from(&genes)).expect("assembles"));
    let build = |workers: usize| -> MMachine {
        let mut cfg = MachineConfig::with_dims(8, 8, 4);
        cfg.engine.workers = Some(workers);
        let mut m = MMachine::build(cfg).expect("valid config");
        for node in 0..NODES {
            let other = (node + 64) % NODES;
            m.load_user_program(node, 0, &prog).unwrap();
            m.set_user_reg(node, 0, 0, Reg::Int(1), m.home_ptr(node, 0));
            m.set_user_reg(node, 0, 0, Reg::Int(8), m.home_ptr(other, 0));
            let ptr = m
                .make_ptr(mm_isa::Perm::ReadWrite, 0, m.home_va(other, 1))
                .expect("target ptr");
            m.set_user_reg(node, 0, 0, Reg::Int(10), ptr);
            let dip = m.image().write_dip;
            m.set_user_reg(node, 0, 0, Reg::Int(11), dip);
        }
        m
    };
    let horizon = 700;
    let mut dense = build(1);
    for _ in 0..horizon {
        dense.naive_step();
    }
    for workers in WORKERS {
        let mut m = build(workers);
        assert_eq!(m.workers(), workers);
        run_in_chunks(&mut m, horizon, 11);
        assert_machines_agree(&dense, &m).expect("agrees with dense");
    }
}

/// A deterministic end-to-end differential: the Table-1 remote-read
/// scenario — dense loop vs. serial engine vs. parallel engine — down
/// to identical timelines.
#[test]
fn remote_read_scenario_is_cycle_exact() {
    let prog = Arc::new(assemble("ld [r1], r2\n add r2, #0, r3\n halt\n").unwrap());
    #[allow(clippy::type_complexity)]
    let run = |workers: Option<usize>| -> (
        u64,
        mm_core::machine::MachineStats,
        Vec<(u64, mm_core::timeline::Phase)>,
    ) {
        let mut m = match workers {
            Some(w) => machine_with_workers(w),
            None => machine(),
        };
        let va = m.home_va(1, 0);
        assert!(m
            .node_mut(1)
            .mem
            .poke_va(va, mm_mem::MemWord::new(mm_isa::word::Word::from_u64(41))));
        m.load_user_program(0, 0, &prog).unwrap();
        m.set_user_reg(0, 0, 0, Reg::Int(1), m.home_ptr(1, 0));
        let done = if workers.is_some() {
            m.run_until_halt(50_000).unwrap()
        } else {
            naive_run_until_halt(&mut m, 50_000)
        };
        assert_eq!(m.user_reg(0, 0, 0, 3).unwrap().bits(), 41);
        (done, m.stats(), m.timeline().events().to_vec())
    };
    let (done_n, stats_n, tl_n) = run(None);
    for workers in [1, 2] {
        let (done_e, stats_e, tl_e) = run(Some(workers));
        assert_eq!(done_n, done_e, "halt cycle ({workers} workers)");
        assert_eq!(stats_n, stats_e, "machine stats ({workers} workers)");
        assert_eq!(tl_n, tl_e, "timelines ({workers} workers)");
    }
}

/// The coherence ping-pong the benchmark times, run three ways — dense
/// loop, serial engine, parallel engine at 1, 2 and 4 workers — must be
/// bit-identical: every fetch, invalidation, recall and replay rides
/// fabric packets whose ordering the engines must reproduce exactly.
/// This is the protocol's determinism proof.
#[test]
fn coherence_workload_is_engine_and_worker_invariant() {
    const ITERS: u64 = 8;
    let dense = differential(
        "coherence",
        scenario_config((2, 2, 1)),
        |cfg| load_coherence_scenario(cfg, ITERS),
        mm_bench::coherence::RUN_LIMIT,
    );
    check_coherence(&dense, ITERS);
    assert!(
        dense.stats().fabric.coh_packets > 0,
        "workload must move protocol messages over the fabric"
    );
    assert!(dense.stats().coherence.invalidations > 0, "no ping-pong");
}

/// The parallel engine on an 8-node mesh at every worker count from
/// serial to one-node shards: identical observables throughout. The
/// 3-worker leg exercises a genuinely uneven partition (shards of 3, 3
/// and 2 nodes — `chunk = ceil(8/3) = 3`), 8 gives one-node shards,
/// and 16 clamps. This is the `N`-workers leg of the three-way
/// harness, with cross-pair traffic riding the fabric between shards.
#[test]
fn eight_node_mesh_is_worker_count_invariant() {
    let genes: [Gene; 6] = [
        (3, 5, 0),
        (5, 9, 0),
        (7, 0, 17),
        (0, 0, 3),
        (6, 2, 0),
        (8, 0, 0),
    ];
    const NODES: usize = 8;
    let build = |workers: usize| -> MMachine {
        let mut cfg = MachineConfig::with_dims(2, 2, 2);
        cfg.engine.workers = Some(workers);
        let mut m = MMachine::build(cfg).expect("valid config");
        // Pair the nodes (0↔1, 2↔3, …) with the standard conventions.
        let progs: Vec<Arc<mm_isa::instr::Program>> = (0..NODES)
            .map(|_| Arc::new(assemble(&program_from(&genes)).expect("assembles")))
            .collect();
        for (node, prog) in progs.iter().enumerate() {
            let other = node ^ 1;
            m.load_user_program(node, 0, prog).unwrap();
            m.set_user_reg(node, 0, 0, Reg::Int(1), m.home_ptr(node, 0));
            m.set_user_reg(node, 0, 0, Reg::Int(8), m.home_ptr(other, 0));
            let ptr = m
                .make_ptr(mm_isa::Perm::ReadWrite, 0, m.home_va(other, 1))
                .expect("target ptr");
            m.set_user_reg(node, 0, 0, Reg::Int(10), ptr);
            let dip = m.image().write_dip;
            m.set_user_reg(node, 0, 0, Reg::Int(11), dip);
        }
        m
    };
    let mut reference = build(1);
    let done_ref = reference.run_until_halt(100_000).expect("halts");
    for workers in [2, 3, 4, 8, 16] {
        let mut m = build(workers);
        assert_eq!(m.workers(), workers.min(NODES), "{workers} requested");
        let done = m.run_until_halt(100_000).expect("halts");
        assert_eq!(done_ref, done, "halt cycle at {workers} workers");
        assert_eq!(reference.stats(), m.stats(), "stats at {workers} workers");
        assert_eq!(
            reference.timeline().events(),
            m.timeline().events(),
            "timelines at {workers} workers"
        );
    }
}
