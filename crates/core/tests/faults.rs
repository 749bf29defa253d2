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

use mm_bench::scaling::build_busy_scenario;
use mm_core::error::MachineError;
use mm_core::machine::{MMachine, MachineConfig};
use mm_faults::{Ckpt, DramFaultConfig, Enc, FaultPlanConfig, LinkFaultConfig, StallFaultConfig};
use mm_isa::assemble;
use mm_isa::op::Priority;
use mm_isa::pointer::Perm;
use mm_isa::reg::Reg;
use mm_isa::word::Word;
use mm_net::fabric::NUM_DIRS;
use mm_net::message::{Message, MsgBody, NodeCoord, Packet, WireMeta};
use mm_sim::NUM_CLUSTERS;
use proptest::prelude::*;
use std::sync::Arc;

/// A 2-node machine with an optional campaign, loaded with a
/// store/load ping workload on both nodes.
fn build_loaded(faults: Option<FaultPlanConfig>, genes: &[(u8, u64)]) -> MMachine {
    let mut cfg = MachineConfig::small();
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
    /// machine, continue both:
    /// every observable — and the *entire next checkpoint, byte for
    /// byte* — must match a run that never stopped.
    #[test]
    fn restore_then_continue_is_bit_identical(
        genes in prop::collection::vec((any::<u8>(), any::<u64>()), 8..24),
        split in 50u64..2_000,
    ) {
        let mut a = build_loaded(None, &genes);
        a.run_cycles(split);
        let bytes = a.checkpoint();
        let mut b = build_loaded(None, &genes);
        b.restore(&bytes).expect("checkpoint restores onto an identical build");
        let _ = a.run_until_halt(500_000);
        let _ = b.run_until_halt(500_000);
        prop_assert_eq!(observables(&a), observables(&b));
        prop_assert_eq!(a.checkpoint(), b.checkpoint(), "end-state checkpoints diverged");
    }

    /// One campaign, two drivers — windowed engine, dense loop — agree
    /// on every architectural stat and on what the campaign did; and a
    /// mid-campaign checkpoint restores and
    /// continues bit-identically (the fault runtime — cursor, pristine
    /// copies, retry budgets — is part of machine state).
    #[test]
    fn fault_campaign_is_deterministic_and_checkpointable(
        genes in prop::collection::vec((any::<u8>(), any::<u64>()), 8..20),
        seed in any::<u64>(),
        split in 100u64..3_000,
    ) {
        let plan = heavy_links(seed);
        let mut one = build_loaded(Some(plan.clone()), &genes);
        let _ = one.run_until_halt(2_000_000);
        one.run_cycles(50_000);

        let mut dense = build_loaded(Some(plan.clone()), &genes);
        while dense.cycle() < one.cycle() {
            dense.naive_step();
        }
        prop_assert_eq!(one.stats(), dense.stats());
        prop_assert_eq!(one.fault_report(), dense.fault_report());

        let mut saver = build_loaded(Some(plan.clone()), &genes);
        saver.run_cycles(split);
        let bytes = saver.checkpoint();
        let mut restored = build_loaded(Some(plan), &genes);
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

    // A busy image cut anywhere is refused, never a panic.
    let busy = busy_image();
    for k in 0..64 {
        let cut = &busy[..busy.len() * k / 64];
        let err = busy_machine().restore(cut).expect_err("a cut image");
        assert!(
            matches!(err, MachineError::Checkpoint(_)),
            "cut at {}: {err}",
            cut.len()
        );
    }
}

/// The 2×1×1 busy scenario `mmctl snapshot --dims 2x1x1 --iters 2000`
/// runs.
fn busy_machine() -> MMachine {
    build_busy_scenario((2, 1, 1), 2000, Some(1))
}

/// [`busy_machine`]'s checkpoint at cycle 500.
fn busy_image() -> Vec<u8> {
    let mut m = busy_machine();
    m.run_cycles(500);
    m.checkpoint()
}

/// The running masks and user-thread tallies are derived from the
/// thread states: an image whose stored copies disagree is refused
/// instead of restoring a run that underflows a tally or never ends.
#[test]
fn restore_refuses_thread_tallies_that_disagree_with_the_states() {
    let clean = busy_image();
    busy_machine()
        .restore(&clean)
        .expect("the clean image restores");
    // Node 0's record starts at byte 64 with cluster 0's running mask;
    // its user-running tally sits at bytes 96..100.
    let mut no_user_running = clean.clone();
    no_user_running[96..100].fill(0);
    let mut cluster_stopped = clean;
    cluster_stopped[64] = 0;
    for bytes in [no_user_running, cluster_stopped] {
        let err = busy_machine()
            .restore(&bytes)
            .expect_err("tallies disagree");
        assert!(err.to_string().contains("thread tallies disagree"), "{err}");
    }
}

/// A node's event-record counts are the whole 3-word records in its event
/// queues: an image whose stored count disagrees is refused instead of
/// restoring a class that hides its records or drops every new one.
#[test]
fn restore_refuses_event_record_counts_that_disagree_with_the_queues() {
    let clean = busy_image();
    // Node 0's cluster-0 count follows its running mask and cursor.
    assert_eq!(clean[66..70], [0; 4], "no record queued");
    let mut bytes = clean;
    bytes[66] = 5;
    let err = busy_machine().restore(&bytes).expect_err("count disagrees");
    let err = err.to_string();
    assert!(err.contains("event-record counts"), "{err}");
    assert!(err.contains("0, [5, "), "the stored count shows: {err}");
}

/// A message queue's count is the number of message ends it holds: an
/// image whose stored count disagrees is refused instead of restoring a
/// queue that underflows on the next pop or bounces every delivery.
#[test]
fn restore_refuses_message_counts_that_disagree_with_the_queues() {
    let m = MMachine::build(MachineConfig::small()).unwrap();
    let clean = m.checkpoint();
    // Node 0's interface ends with the returned messages (`end - 112`),
    // after its credits word and its P1 and P0 queues (a word list, then
    // the count): the empty P0 queue's count is at `end - 140`.
    let at = net_end(&m, &clean) - 140;
    assert_eq!(clean[at - 8..at + 8], [0; 16], "an empty P0 queue");
    let mut bytes = clean;
    bytes[at] = 1;
    assert_refused_for(&bytes, "message count 1 disagrees with 0");
}

/// The slots that hold copies of derived values (a node's clock, the
/// fabric's flit-hop total) are refused unless they hold that value.
#[test]
fn restore_refuses_stored_copies_of_derived_values() {
    // Node 0's first clock slot follows its next request id and user
    // thread tallies; it holds the header's cycle.
    let busy = busy_image();
    assert_eq!(busy[104..112], 500u64.to_le_bytes());
    let mut bytes = busy;
    bytes[104] = 1;
    let err = busy_machine().restore(&bytes).expect_err("clock disagrees");
    assert!(err.to_string().contains("node clock"), "{err}");

    // The fabric's flit-hop total, its last word, is the sum of its
    // per-VC flit table; the handler count and node 0's handler follow.
    let m = MMachine::build(MachineConfig::small()).unwrap();
    let clean = m.checkpoint();
    let at = handler_at(&m, &clean) - 120 - 8 - 8;
    assert_eq!(clean[at..at + 8], [0; 8], "no flit has moved");
    let mut bytes = clean;
    bytes[at] = 3;
    assert_refused_for(&bytes, "flit-hop total");
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

/// A well-formed coherence message from node 0 to `dest`: an
/// invalidation (opcode 7), which carries no body.
fn coh_message_to(dest: NodeCoord) -> Message {
    Message {
        dip: Word::from_u64(7),
        ..message_to(dest)
    }
}

/// `clean` with the empty list whose eight-byte count sits at `at`
/// replaced by a one-item list holding what `item` encodes.
fn splice_one(clean: &[u8], at: usize, item: impl Fn(&mut Enc)) -> Vec<u8> {
    splice_many(clean, at, 1, item)
}

/// `clean` with the empty list whose eight-byte count sits at `at`
/// replaced by `count` copies of what `item` encodes.
fn splice_many(clean: &[u8], at: usize, count: usize, item: impl Fn(&mut Enc)) -> Vec<u8> {
    assert_eq!(clean[at..at + 8], [0; 8], "an empty list's count");
    let mut e = Enc::new();
    e.usize(count);
    for _ in 0..count {
        item(&mut e);
    }
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
            message_to(dest).save(e);
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

/// Offset just past node 0's interface state in a fresh machine's
/// checkpoint. That state is the last part of node 0's; on a fresh
/// machine it ends with three empty lists (returned messages, outbox
/// packets, coherence arrivals), nine statistics words, the next
/// sequence number and an empty dedup table.
fn net_end(m: &MMachine, clean: &[u8]) -> usize {
    let mut e = Enc::new();
    m.node(0).net.save_state(&mut e);
    let net = e.finish();
    let start = clean
        .windows(net.len())
        .position(|w| w == net.as_slice())
        .expect("node 0's interface state is in the checkpoint");
    start + net.len()
}

/// A message restored into a node's outbox, returned-message buffer or
/// coherence inbox with an endpoint outside the mesh is refused.
#[test]
fn restore_refuses_out_of_mesh_interface_traffic() {
    let m = MMachine::build(MachineConfig::small()).unwrap();
    let clean = m.checkpoint();
    let end = net_end(&m, &clean);
    let returned = |c| splice_one(&clean, end - 112, |e| message_to(c).save(e));
    let outbox = |c| splice_one(&clean, end - 104, |e| Packet::User(message_to(c)).save(e));
    let coh_in = |c| splice_one(&clean, end - 96, |e| coh_message_to(c).save(e));
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
    let outbound = |c| splice_one(&clean, handler + 24, |e| coh_message_to(c).save(e));
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

/// A coherence protocol message its handler cannot decode, restored
/// into a node's coherence inbox, the fabric's in-flight packets or a
/// handler's outbound queue, is refused: the handler would panic on it
/// at its next step. The garbles are an opcode no `CohOp` has and a
/// writeback without its block. The same message with a valid opcode
/// restores.
#[test]
fn restore_refuses_undecodable_coherence_messages() {
    let m = MMachine::build(MachineConfig::small()).unwrap();
    let clean = m.checkpoint();
    let coh_in_at = net_end(&m, &clean) - 96;
    let handler = handler_at(&m, &clean);
    // The fabric's state ends where the coherence handlers (a count,
    // then node 0's 120 bytes) begin. After its in-flight list come six
    // statistics words, the per-VC flit table and the flit-hop total.
    let vcs = m.node_count() * NUM_DIRS * 2;
    let in_flight_at = handler - 120 - 8 - (6 * 8 + 8 + vcs * 8 + 8) - 8;
    let coh_in = |msg: &Message| splice_one(&clean, coh_in_at, |e| msg.save(e));
    let fabric = |msg: &Message| {
        splice_one(&clean, in_flight_at, |e| {
            e.u64(50); // delivery cycle
            Packet::Coh(msg.clone()).save(e);
        })
    };
    let outbound = |msg: &Message| splice_one(&clean, handler + 24, |e| msg.save(e));
    type Splice<'a> = &'a dyn Fn(&Message) -> Vec<u8>;
    let splices: [(&str, Splice); 3] = [
        ("node 0's interface", &coh_in),
        ("the fabric", &fabric),
        ("node 1's coherence handler", &outbound),
    ];
    let no_opcode = message_to(near());
    let writeback_without_block = Message {
        dip: Word::from_u64(4),
        ..message_to(near())
    };
    for (owner, splice) in splices {
        for garbled in [&no_opcode, &writeback_without_block] {
            let mut fresh = MMachine::build(MachineConfig::small()).unwrap();
            let err = fresh
                .restore(&splice(garbled))
                .expect_err(owner)
                .to_string();
            assert!(
                err.contains(owner) && err.contains("undecodable coherence message"),
                "{owner}: {err}"
            );
        }
        let mut fresh = MMachine::build(MachineConfig::small()).unwrap();
        fresh
            .restore(&splice(&coh_message_to(near())))
            .expect("a decodable message restores");
    }
}

/// Offset of node 1's coherence handler in a fault-free `small()`
/// machine's checkpoint. A fresh handler is five empty lists (directory,
/// waiting blocks, charged actions, outbound messages, frames), the next
/// frame and nine statistics words: 120 bytes before the resends.
fn handler_at(m: &MMachine, clean: &[u8]) -> usize {
    resend_count_at(m, clean) - 120
}

/// Restore `bytes` into a fresh `small()` machine and expect a refusal
/// whose message contains `needle`.
fn assert_refused_for(bytes: &[u8], needle: &str) {
    let mut fresh = MMachine::build(MachineConfig::small()).unwrap();
    let err = fresh.restore(bytes).expect_err(needle).to_string();
    assert!(err.contains(needle), "{needle}: {err}");
}

/// A handler table listing one key twice — a directory block, a block's
/// sharer, a waiting block or a frame's vpn — is refused instead of
/// merged; the same list with the key once restores.
#[test]
fn restore_refuses_duplicate_coherence_keys() {
    let m = MMachine::build(MachineConfig::small()).unwrap();
    let clean = m.checkpoint();
    let handler = handler_at(&m, &clean);
    let vpn = m.home_va(1, 0) / 512;
    let lpt = m.node(1).mem.lpt().unwrap();
    let slot = lpt
        .find(m.node(1).mem.sdram(), vpn)
        .expect("home page mapped");
    let directory = |n| {
        splice_many(&clean, handler, n, |e| {
            e.u64(0x40); // block
            e.usize(0); // sharers
            e.u8(0); // no owner
            e.bool(false); // recalling
            e.bool(false); // grant pending
            e.usize(0); // queued
        })
    };
    let waiting = |n| {
        splice_many(&clean, handler + 8, n, |e| {
            e.u64(0x40); // block
            e.usize(0); // records
            e.bool(false); // read sent
            e.bool(true); // write sent
        })
    };
    let frames = |n| {
        let bytes = splice_many(&clean, handler + 32, n, |e| {
            e.u64(vpn);
            e.u64(slot);
        });
        with_next_frame(bytes, handler + 40 + 16 * n, 512 + n as u64)
    };
    let directory: &dyn Fn(usize) -> Vec<u8> = &directory;
    let sharers = |n| {
        splice_one(&clean, handler, |e| {
            e.u64(0x40); // block
            e.usize(n);
            (0..n).for_each(|_| e.u64(near().encode()));
            e.u8(0); // no owner
            e.bool(false); // recalling
            e.bool(false); // grant pending
            e.usize(0); // queued
        })
    };
    let lists = [
        (directory, "directory lists block 0x40 twice"),
        (&sharers, "block 0x40 lists a sharer twice"),
        (&waiting, "wait table lists block 0x40 twice"),
        (&frames, "frame table lists vpn"),
    ];
    for (list, needle) in lists {
        assert_refused_for(&list(2), needle);
        let mut fresh = MMachine::build(MachineConfig::small()).unwrap();
        fresh.restore(&list(1)).expect("one entry restores");
        assert_eq!(
            fresh.checkpoint(),
            list(1),
            "and checkpoints the same bytes"
        );
    }
}

/// `bytes` with the next-frame word at `at` set to page `ppn`.
fn with_next_frame(mut bytes: Vec<u8>, at: usize, ppn: u64) -> Vec<u8> {
    bytes[at..at + 8].copy_from_slice(&ppn.to_le_bytes());
    bytes
}

/// A restored frame table the node's memory cannot back is refused: a
/// slot other than the one holding that vpn's LPT entry, or a table
/// whose next frame lies past the SDRAM. Each would panic at the next
/// grant. The stored next frame must be the page the table implies.
#[test]
fn restore_refuses_frames_memory_cannot_back() {
    let m = MMachine::build(MachineConfig::small()).unwrap();
    let clean = m.checkpoint();
    let handler = handler_at(&m, &clean);
    let vpn = m.home_va(1, 0) / 512;
    let lpt = m.node(1).mem.lpt().unwrap();
    let slot = lpt
        .find(m.node(1).mem.sdram(), vpn)
        .expect("home page mapped");
    // One frame: the next frame word follows it, one page up.
    let splice_frame = |clean: &[u8], base: u64, vpn: u64, slot: u64| {
        let bytes = splice_one(clean, handler + 32, |e| {
            e.u64(vpn);
            e.u64(slot);
        });
        with_next_frame(bytes, handler + 56, base + 1)
    };
    let frame = |vpn: u64, slot: u64| splice_frame(&clean, 512, vpn, slot);
    for (v, s) in [
        (vpn + 1, slot),                    // another vpn's entry
        (vpn, slot + 1),                    // inside a slot
        (vpn, lpt.base - 4),                // before the table
        (vpn, lpt.base + lpt.size_words()), // past its end
        (vpn, 1 << 40),                     // past the SDRAM
    ] {
        assert_refused_for(&frame(v, s), "does not hold vpn");
    }
    let mut fresh = MMachine::build(MachineConfig::small()).unwrap();
    fresh
        .restore(&frame(vpn, slot))
        .expect("a real slot restores");

    // The next frame is the word after the (empty) frame list, and is
    // the first frame page: any other page is refused.
    let pages = m.node(1).mem.sdram().capacity() / 512;
    let next_frame = |ppn: u64| with_next_frame(clean.clone(), handler + 40, ppn);
    assert_eq!(next_frame(512), clean, "the default first frame page");
    for ppn in [513, pages - 1, pages, u64::MAX] {
        assert_refused_for(&next_frame(ppn), "next frame");
    }

    // Frames from the SDRAM's last page up: one frame uses it up.
    let mut cfg = MachineConfig::small();
    cfg.coherence.frame_base_ppn = pages - 1;
    let clean = MMachine::build(cfg.clone()).unwrap().checkpoint();
    let mut fresh = MMachine::build(cfg.clone()).unwrap();
    fresh.restore(&clean).expect("no frame yet restores");
    let full = splice_frame(&clean, pages - 1, vpn, slot);
    let err = MMachine::build(cfg).unwrap().restore(&full).unwrap_err();
    assert!(err.to_string().contains("lies past the SDRAM"), "{err}");
}

/// A charged tag-8 action is a grant its handler composed; any other
/// message there is refused, and a real one round-trips byte for byte.
#[test]
fn restore_refuses_charged_messages_other_than_grants() {
    let m = MMachine::build(MachineConfig::small()).unwrap();
    let clean = m.checkpoint();
    let handler = handler_at(&m, &clean);
    let charged = |msg: Message| {
        splice_one(&clean, handler + 16, |e| {
            e.u64(50); // ready
            e.u8(8); // a delayed grant
            msg.save(e);
        })
    };
    let grant = |write: bool| Message {
        priority: Priority::P1,
        src: near(),
        dest: NodeCoord::new(0, 0, 0),
        dip: Word::from_u64(if write { 6 } else { 5 }),
        addr: Word::from_u64(0x40),
        body: (0..9).map(|k| Word::from_raw(k * 3, k == 2)).collect(),
        wire: WireMeta::default(),
    };
    for write in [false, true] {
        let mut fresh = MMachine::build(MachineConfig::small()).unwrap();
        fresh
            .restore(&charged(grant(write)))
            .expect("a grant restores");
        assert_eq!(fresh.checkpoint(), charged(grant(write)));
    }
    let mut foreign = grant(true);
    foreign.src = NodeCoord::new(0, 0, 0);
    let mut fetch = grant(false);
    fetch.dip = Word::from_u64(2);
    fetch.body = MsgBody::new();
    let mut wide_mask = grant(false);
    wide_mask.body.set(8, Word::from_u64(0x100));
    let mut sealed = grant(true);
    sealed.wire.seq = 7;
    for msg in [message_to(near()), foreign, fetch, wide_mask, sealed] {
        assert_refused_for(&charged(msg), "is not a grant it composed");
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
            message_to(dest).save(e);
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
