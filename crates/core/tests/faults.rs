//! Machine-level tests of the robustness layer: deterministic fault
//! campaigns (DRAM upsets, fabric corruption/drops/delays, stall
//! windows), checksum-NACK retransmission, the liveness watchdog, and
//! checkpoint/restore.
//!
//! The two load-bearing claims, in executable form:
//!
//! 1. **Recovery**: under an adversarial link campaign every user
//!    message still lands exactly once, uncorrupted — detection is the
//!    per-message checksum, repair is the §4.1 return-to-sender bounce
//!    machinery resending the pristine copy.
//! 2. **Bit-identity**: a campaign is a pure function of (plan, cycle,
//!    location) — engines and worker counts agree on everything — and
//!    restoring a checkpoint and continuing is indistinguishable from
//!    never having stopped.

use mm_core::error::MachineError;
use mm_core::machine::{MMachine, MachineConfig};
use mm_faults::{DramFaultConfig, Enc, FaultPlanConfig, LinkFaultConfig, StallFaultConfig};
use mm_isa::assemble;
use mm_isa::op::Priority;
use mm_isa::pointer::Perm;
use mm_isa::reg::Reg;
use mm_isa::word::Word;
use mm_net::message::{Message, MsgBody, NodeCoord, Packet, WireMeta};
use mm_sim::NUM_CLUSTERS;
use proptest::prelude::*;
use std::sync::Arc;

/// A 2-node machine with `workers` shard threads and an optional
/// campaign, loaded with a store/load ping workload on both nodes.
fn build_loaded(workers: usize, faults: Option<FaultPlanConfig>, genes: &[(u8, u64)]) -> MMachine {
    let mut cfg = MachineConfig::small();
    cfg.engine.workers = Some(workers);
    cfg.faults = faults;
    let mut m = MMachine::build(cfg).expect("valid config");
    let mut src = String::new();
    for &(op, a) in genes {
        let off = a % 48;
        match op % 5 {
            0 => src.push_str(&format!("add r2, #{}, r2\n", a % 500)),
            1 => src.push_str(&format!("ld [r1+#{off}], r4\n")),
            2 => src.push_str(&format!("st r2, [r1+#{off}]\n")),
            3 => src.push_str(&format!("st r2, [r8+#{off}]\n")),
            _ => src.push_str(&format!("ld [r8+#{off}], r6\n")),
        }
    }
    src.push_str("halt\n");
    let prog = Arc::new(assemble(&src).expect("generated program assembles"));
    for node in 0..2 {
        let other = 1 - node;
        m.load_user_program(node, 0, &prog).unwrap();
        m.set_user_reg(node, 0, 0, Reg::Int(1), m.home_ptr(node, 0));
        m.set_user_reg(node, 0, 0, Reg::Int(8), m.home_ptr(other, 0));
    }
    m
}

fn observables(m: &MMachine) -> (u64, mm_core::machine::MachineStats, Vec<u64>) {
    let mut regs = Vec::new();
    for node in 0..m.node_count() {
        for r in [2u8, 4, 6] {
            regs.push(m.user_reg(node, 0, 0, r).unwrap().bits());
        }
    }
    (m.cycle(), m.stats(), regs)
}

/// A heavy link campaign: a quarter of all user packets corrupted, a
/// chunk dropped or delayed, plus a stall window on the receiving node.
fn heavy_links(seed: u64) -> FaultPlanConfig {
    FaultPlanConfig {
        seed,
        dram: vec![],
        links: vec![LinkFaultConfig {
            window: (0, 1_000_000),
            corrupt_pct: 25,
            drop_pct: 15,
            delay_pct: 20,
            delay_cycles: 11,
        }],
        stalls: vec![StallFaultConfig {
            node: 1,
            window: (200, 600),
        }],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Checkpoint at an arbitrary point, restore into a freshly-built
    /// machine (possibly with a different worker count), continue both:
    /// every observable — and the *entire next checkpoint, byte for
    /// byte* — must match a run that never stopped.
    #[test]
    fn restore_then_continue_is_bit_identical(
        genes in prop::collection::vec((any::<u8>(), any::<u64>()), 8..24),
        split in 50u64..2_000,
        w_save in 1usize..=2,
        w_load in 1usize..=2,
    ) {
        let mut a = build_loaded(w_save, None, &genes);
        a.run_cycles(split);
        let bytes = a.checkpoint();
        let mut b = build_loaded(w_load, None, &genes);
        b.restore(&bytes).expect("checkpoint restores onto an identical build");
        let _ = a.run_until_halt(500_000);
        let _ = b.run_until_halt(500_000);
        prop_assert_eq!(observables(&a), observables(&b));
        prop_assert_eq!(a.checkpoint(), b.checkpoint(), "end-state checkpoints diverged");
    }

    /// One campaign, three drivers — serial engine, sharded engine,
    /// dense loop — agree on every architectural stat and on what the
    /// campaign did; and a mid-campaign checkpoint restores and
    /// continues bit-identically (the fault runtime — cursor, pristine
    /// copies, retry budgets — is part of machine state).
    #[test]
    fn fault_campaign_is_deterministic_and_checkpointable(
        genes in prop::collection::vec((any::<u8>(), any::<u64>()), 8..20),
        seed in any::<u64>(),
        split in 100u64..3_000,
    ) {
        let plan = heavy_links(seed);
        let mut one = build_loaded(1, Some(plan.clone()), &genes);
        let _ = one.run_until_halt(2_000_000);
        one.run_cycles(50_000);

        let mut two = build_loaded(2, Some(plan.clone()), &genes);
        let _ = two.run_until_halt(2_000_000);
        two.run_cycles(50_000);
        prop_assert_eq!(observables(&one), observables(&two));
        prop_assert_eq!(one.fault_report(), two.fault_report());

        let mut dense = build_loaded(1, Some(plan.clone()), &genes);
        while dense.cycle() < one.cycle() {
            dense.naive_step();
        }
        prop_assert_eq!(one.stats(), dense.stats());
        prop_assert_eq!(one.fault_report(), dense.fault_report());

        let mut saver = build_loaded(1, Some(plan.clone()), &genes);
        saver.run_cycles(split);
        let bytes = saver.checkpoint();
        let mut restored = build_loaded(2, Some(plan), &genes);
        restored.restore(&bytes).expect("mid-campaign checkpoint restores");
        let _ = saver.run_until_halt(2_000_000);
        saver.run_cycles(50_000);
        let _ = restored.run_until_halt(2_000_000);
        restored.run_cycles(50_000);
        prop_assert_eq!(observables(&saver), observables(&restored));
        prop_assert_eq!(saver.checkpoint(), restored.checkpoint());
    }
}

/// Under heavy corruption and flit loss, every remote store still lands
/// exactly once with its original value: the checksum catches in-flight
/// damage, the NACK rides the bounce path, and the sender retransmits
/// the pristine copy.
#[test]
fn campaign_recovers_every_store() {
    let mut cfg = MachineConfig::small();
    cfg.faults = Some(FaultPlanConfig {
        seed: 0xFA57_FA57,
        dram: vec![],
        links: vec![LinkFaultConfig {
            window: (0, 2_000_000),
            corrupt_pct: 40,
            drop_pct: 25,
            delay_pct: 10,
            delay_cycles: 17,
        }],
        stalls: vec![],
    });
    let mut m = MMachine::build(cfg).expect("valid config");
    let n_stores = 24u64;
    let mut src = String::new();
    for off in 0..n_stores {
        src.push_str(&format!("mov #{}, r2\n st r2, [r8+#{off}]\n", 1000 + off));
    }
    src.push_str("halt\n");
    let prog = Arc::new(assemble(&src).unwrap());
    m.load_user_program(0, 0, &prog).unwrap();
    m.set_user_reg(0, 0, 0, Reg::Int(8), m.home_ptr(1, 0));
    m.run_until_halt(2_000_000)
        .expect("faulted run still halts");
    m.run_cycles(100_000); // drain retransmit chains (backoff × retries)

    let base = m.home_va(1, 0);
    for off in 0..n_stores {
        let got = m.node(1).mem.peek_va(base + off).unwrap().word.bits();
        assert_eq!(got, 1000 + off, "store at offset {off} lost or corrupted");
    }
    let report = m.fault_report().expect("campaign armed");
    assert!(
        report.packets_corrupted + report.packets_dropped > 0,
        "campaign must actually have faulted packets: {report:?}"
    );
    assert!(report.retransmits > 0, "recovery must have retransmitted");
    let snap = m.counter_snapshot();
    assert!(snap.crc_nacks > 0, "receivers must have NACKed damage");
    assert_eq!(snap.retransmits, report.retransmits);
    assert!(m.faulted_threads().is_empty());
}

/// A scheduled double-bit DRAM upset is uncorrectable: the load
/// completes with an ErrVal guarded pointer (§3's poison value) and the
/// double-error counter ticks; a single-bit upset on the same word is
/// corrected and scrubbed silently.
#[test]
fn dram_double_error_yields_errval_single_corrects() {
    // The physical address under test, computed from a fault-free twin
    // build (the mapping is deterministic).
    let probe = MMachine::build(MachineConfig::small()).unwrap();
    let off = 5u64;
    let va = probe.home_va(0, 0) + off;
    let pa = probe
        .node(0)
        .mem
        .translate(va)
        .expect("home page is mapped");

    let run = |double_every: u32| {
        let mut cfg = MachineConfig::small();
        cfg.faults = Some(FaultPlanConfig {
            seed: 7,
            dram: vec![DramFaultConfig {
                flips: 1,
                double_every,
                window: (1, 2),
                addr: (pa, pa + 1),
            }],
            links: vec![],
            stalls: vec![],
        });
        let mut m = MMachine::build(cfg).unwrap();
        let prog = Arc::new(assemble(&format!("ld [r1+#{off}], r2\n halt\n")).unwrap());
        m.load_user_program(0, 0, &prog).unwrap();
        m.set_user_reg(0, 0, 0, Reg::Int(1), m.home_ptr(0, 0));
        m.run_until_halt(200_000).unwrap();
        m
    };

    // double_every = 1: the single scheduled upset hits two bits.
    let m = run(1);
    let loaded = m.user_reg(0, 0, 0, 2).unwrap();
    let p = loaded.pointer().expect("ErrVal is a guarded pointer");
    assert_eq!(p.perm(), Perm::ErrVal, "uncorrectable read must poison");
    let snap = m.counter_snapshot();
    assert!(snap.ecc_double_errors >= 1);
    assert_eq!(m.fault_report().unwrap().dram_flips, 1);

    // double_every = 0: one bit only — SECDED corrects and scrubs.
    let m = run(0);
    let loaded = m.user_reg(0, 0, 0, 2).unwrap();
    assert_eq!(loaded.bits(), 0, "corrected read returns the true value");
    assert!(loaded.pointer().is_err() || loaded.pointer().unwrap().perm() != Perm::ErrVal);
    let snap = m.counter_snapshot();
    assert!(snap.ecc_corrected >= 1);
    assert_eq!(snap.ecc_double_errors, 0);
}

/// A fatal stall window (never lifts) freezes a running thread; the
/// watchdog notices the progress-free epochs and aborts
/// deterministically, with the diagnostic snapshot captured first.
#[test]
fn watchdog_trips_on_fatal_stall_and_stays_quiet_otherwise() {
    let looped = Arc::new(assemble("loop:\n add r2, #1, r2\n brf r0, loop\n halt\n").unwrap());

    let mut cfg = MachineConfig::small();
    cfg.watchdog_epochs = 3;
    cfg.watchdog_epoch_cycles = 512;
    cfg.faults = Some(FaultPlanConfig {
        seed: 1,
        dram: vec![],
        links: vec![],
        stalls: vec![StallFaultConfig {
            node: 0,
            window: (100, u64::MAX),
        }],
    });
    let mut m = MMachine::build(cfg).unwrap();
    m.load_user_program(0, 0, &looped).unwrap();
    let err = m
        .run_until_halt(1_000_000)
        .expect_err("watchdog must abort");
    match err {
        MachineError::WatchdogTripped { epochs, at } => {
            assert_eq!(epochs, 3);
            assert!(
                at >= 100 + 3 * 512 - 512 && at % 512 == 0,
                "trip at an epoch boundary, got {at}"
            );
        }
        other => panic!("expected WatchdogTripped, got {other}"),
    }
    let diag = m.last_diagnostic().expect("diagnostic dumped on trip");
    assert!(diag.contains("\"reason\":\"watchdog\""));
    assert!(diag.contains("\"cycle\""));

    // Same spin loop, no stall: plenty of progress, so the same
    // watchdog stays silent for the whole (bounded) run.
    let mut cfg = MachineConfig::small();
    cfg.watchdog_epochs = 3;
    cfg.watchdog_epoch_cycles = 512;
    let mut m = MMachine::build(cfg).unwrap();
    m.load_user_program(0, 0, &looped).unwrap();
    let err = m
        .run_until(20_000, |_| false)
        .expect_err("pred never holds");
    assert!(
        matches!(err, MachineError::Timeout { .. }),
        "progressing run must time out, not trip: {err}"
    );
}

/// Checkpoints refuse to restore across configuration or plan
/// mismatches, and reject garbage, without panicking.
#[test]
fn restore_rejects_mismatches_and_garbage() {
    let m = MMachine::build(MachineConfig::small()).unwrap();
    let bytes = m.checkpoint();

    let mut wider = MMachine::build(MachineConfig::with_dims(4, 1, 1)).unwrap();
    let err = wider.restore(&bytes).expect_err("dims differ");
    assert!(err.to_string().contains("mesh"), "{err}");

    let mut armed_cfg = MachineConfig::small();
    armed_cfg.faults = Some(heavy_links(3));
    let mut armed = MMachine::build(armed_cfg).unwrap();
    let err = armed.restore(&bytes).expect_err("plan presence differs");
    assert!(err.to_string().contains("fault-campaign"), "{err}");

    let mut fresh = MMachine::build(MachineConfig::small()).unwrap();
    assert!(fresh.restore(b"junk").is_err());
    assert!(fresh.restore(&[]).is_err());
    // Truncated stream: valid header, cut body.
    let mut fresh = MMachine::build(MachineConfig::small()).unwrap();
    assert!(fresh.restore(&bytes[..bytes.len() / 2]).is_err());
}

/// A node outside `MachineConfig::small()`'s 2×1×1 mesh.
fn far() -> NodeCoord {
    NodeCoord::new(0, 4, 0)
}

/// A node inside `MachineConfig::small()`'s 2×1×1 mesh.
fn near() -> NodeCoord {
    NodeCoord::new(1, 0, 0)
}

/// A hand-encoded message from node 0 to `dest`.
fn message_to(dest: NodeCoord) -> Message {
    Message {
        priority: Priority::P1,
        src: NodeCoord::new(0, 0, 0),
        dest,
        dip: Word::ZERO,
        addr: Word::ZERO,
        body: MsgBody::new(),
        wire: WireMeta::default(),
    }
}

/// `clean` with the empty list whose eight-byte count sits at `at`
/// replaced by a one-item list holding what `item` encodes.
fn splice_one(clean: &[u8], at: usize, item: impl FnOnce(&mut Enc)) -> Vec<u8> {
    assert_eq!(clean[at..at + 8], [0; 8], "an empty list's count");
    let mut e = Enc::new();
    e.usize(1);
    item(&mut e);
    let mut bytes = clean[..at].to_vec();
    bytes.extend_from_slice(&e.finish());
    bytes.extend_from_slice(&clean[at + 8..]);
    bytes
}

/// Offset of the resend list's count in a fault-free machine's
/// checkpoint: the list is followed by each node's event counters (one
/// word per cluster) and halted flags (one byte per cluster × 6 slots),
/// three watchdog words and each node's wake-up deadline.
fn resend_count_at(m: &MMachine, clean: &[u8]) -> usize {
    let n = m.node_count();
    let tail = n * NUM_CLUSTERS * 8 + n * NUM_CLUSTERS * 6 + 3 * 8 + n * 8;
    clean.len() - tail - 8
}

/// Restore `bytes` into a fresh `small()` machine (with `faults` armed)
/// and expect a refusal naming `owner` and "outside the mesh".
fn assert_refused(bytes: &[u8], faults: Option<FaultPlanConfig>, owner: &str) {
    let mut cfg = MachineConfig::small();
    cfg.faults = faults;
    let mut fresh = MMachine::build(cfg).unwrap();
    let err = fresh.restore(bytes).expect_err(owner).to_string();
    assert!(
        err.contains(owner) && err.contains("outside the mesh"),
        "{owner}: {err}"
    );
}

/// A checkpoint whose pending resend is addressed outside the mesh is
/// refused at restore, instead of tripping the fabric's "outside mesh"
/// assert once the resend falls due.
#[test]
fn restore_refuses_out_of_mesh_resends() {
    let m = MMachine::build(MachineConfig::small()).unwrap();
    let clean = m.checkpoint();
    let at = resend_count_at(&m, &clean);
    let with_resend = |dest: NodeCoord| {
        splice_one(&clean, at, |e| {
            e.u64(50); // due
            e.usize(0); // node
            message_to(dest).encode(e);
        })
    };
    assert_refused(&with_resend(far()), None, "resend");
    // The same message addressed inside the mesh restores and goes out
    // when it falls due.
    let mut fresh = MMachine::build(MachineConfig::small()).unwrap();
    fresh
        .restore(&with_resend(near()))
        .expect("in-mesh resend restores");
    let before = fresh.stats().fabric.packets;
    fresh.run_cycles(60);
    assert_eq!(fresh.stats().fabric.packets, before + 1);
}

/// A message restored into a node's outbox, returned-message buffer or
/// coherence inbox with an endpoint outside the mesh is refused.
#[test]
fn restore_refuses_out_of_mesh_interface_traffic() {
    let m = MMachine::build(MachineConfig::small()).unwrap();
    let clean = m.checkpoint();
    // Node 0's interface state is the last part of its node state. On a
    // fresh machine it ends with three empty lists (returned messages,
    // outbox packets, coherence arrivals), nine statistics words, the
    // next sequence number and an empty dedup table.
    let mut e = Enc::new();
    m.node(0).net.save_state(&mut e);
    let net = e.finish();
    let start = clean
        .windows(net.len())
        .position(|w| w == net.as_slice())
        .expect("node 0's interface state is in the checkpoint");
    let end = start + net.len();
    let returned = |c| splice_one(&clean, end - 112, |e| message_to(c).encode(e));
    let outbox = |c| splice_one(&clean, end - 104, |e| Packet::User(message_to(c)).encode(e));
    let coh_in = |c| splice_one(&clean, end - 96, |e| message_to(c).encode(e));
    let splices: [&dyn Fn(NodeCoord) -> Vec<u8>; 3] = [&returned, &outbox, &coh_in];
    for splice in splices {
        assert_refused(&splice(far()), None, "node 0's interface");
        let mut fresh = MMachine::build(MachineConfig::small()).unwrap();
        fresh
            .restore(&splice(near()))
            .expect("in-mesh message restores");
    }
}

/// A coherence handler restored with a directory sharer, owner or queued
/// requester outside the mesh, a charged fetch homed there, or an
/// outbound message addressed there, is refused.
#[test]
fn restore_refuses_out_of_mesh_directory_state() {
    let m = MMachine::build(MachineConfig::small()).unwrap();
    let clean = m.checkpoint();
    // The coherence handlers end where the resend list starts. A fresh
    // handler is five empty lists (directory, waiting blocks, charged
    // actions, outbound messages, frames), the next frame and nine
    // statistics words: node 1's begins 120 bytes before the resends.
    let handler = resend_count_at(&m, &clean) - 120;
    let entry = |sharer: Option<NodeCoord>, owner: Option<NodeCoord>, queued: Option<NodeCoord>| {
        splice_one(&clean, handler, |e| {
            e.u64(0x40); // block
            e.usize(sharer.iter().count());
            sharer.iter().for_each(|c| e.u64(c.encode()));
            e.u8(u8::from(owner.is_some()));
            owner.iter().for_each(|c| e.u64(c.encode()));
            e.bool(false); // recalling
            e.bool(false); // grant pending
            e.usize(queued.iter().count());
            queued.iter().for_each(|c| {
                e.u64(c.encode());
                e.bool(true);
            });
        })
    };
    let sharer = |c| entry(Some(c), None, None);
    let owner = |c| entry(None, Some(c), None);
    let queued = |c| entry(None, None, Some(c));
    let send_fetch = |c: NodeCoord| {
        splice_one(&clean, handler + 16, |e| {
            e.u64(50); // ready
            e.u8(1); // Pending::SendFetch
            e.u64(0x40); // block
            e.bool(false); // write
            e.u64(c.encode()); // home
        })
    };
    let outbound = |c| splice_one(&clean, handler + 24, |e| message_to(c).encode(e));
    let splices: [&dyn Fn(NodeCoord) -> Vec<u8>; 5] =
        [&sharer, &owner, &queued, &send_fetch, &outbound];
    for splice in splices {
        assert_refused(&splice(far()), None, "node 1's coherence handler");
        let mut fresh = MMachine::build(MachineConfig::small()).unwrap();
        fresh
            .restore(&splice(near()))
            .expect("in-mesh state restores");
    }
}

/// A fault plan's pristine copy (the message a NACKed packet is resent
/// from) addressed outside the mesh is refused.
#[test]
fn restore_refuses_out_of_mesh_pristine_copies() {
    let mut cfg = MachineConfig::small();
    cfg.faults = Some(heavy_links(3));
    let m = MMachine::build(cfg).unwrap();
    let clean = m.checkpoint();
    // The pristine map is followed by seven fault-report words, three
    // watchdog words and each node's wake-up deadline.
    let at = clean.len() - m.node_count() * 8 - 3 * 8 - 7 * 8 - 8;
    let with_copy = |dest: NodeCoord| {
        splice_one(&clean, at, |e| {
            e.u64(NodeCoord::new(0, 0, 0).encode()); // source
            e.u64(1); // sequence number
            message_to(dest).encode(e);
            e.u32(0); // retries
        })
    };
    assert_refused(&with_copy(far()), Some(heavy_links(3)), "pristine copy");
    let mut cfg = MachineConfig::small();
    cfg.faults = Some(heavy_links(3));
    let mut fresh = MMachine::build(cfg).unwrap();
    fresh
        .restore(&with_copy(near()))
        .expect("in-mesh pristine copy restores");
}
