//! # mm-bench — experiment harnesses for every table and figure
//!
//! Each public function reproduces one evaluation artifact of *The
//! M-Machine Multicomputer* on the full simulator and returns paper-vs-
//! measured data. The `reproduce` binary prints them (pinned byte
//! for byte by the `reproduce_golden` test); `benchmark/` times them;
//! the integration tests assert their shape.

#![warn(missing_docs)]

pub mod alloc_probe;
pub mod coherence;
pub mod faults;
pub mod scaling;
pub mod traffic;
pub mod workloads;

use mm_core::machine::{MMachine, MachineConfig};
use mm_core::timeline::{PacketKind, Phase};
use mm_isa::assemble;
use mm_isa::instr::Program;
use mm_isa::op::Priority;
use mm_isa::reg::Reg;
use mm_isa::word::Word;
use mm_mem::MemWord;
use mm_runtime::kernels::{stencil_kernel, tile_words};
use std::sync::Arc;

/// Cycles between thread start and the `UserHalted` trace event for a
/// `ld / add / halt` probe, beyond the load latency itself.
const READ_PROBE_OVERHEAD: u64 = 1;

fn machine() -> MMachine {
    MMachine::build(MachineConfig::small()).expect("valid config")
}

/// Assemble one of the fixed probe sources. The artifacts do this once
/// per call and load the program into every machine they build.
fn probe(src: &str) -> Arc<Program> {
    Arc::new(assemble(src).expect("probe assembles"))
}

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Access type label (paper row name).
    pub access: &'static str,
    /// Paper read cycles.
    pub read_paper: u64,
    /// Paper write cycles.
    pub write_paper: u64,
    /// Measured read cycles.
    pub read_measured: u64,
    /// Measured write cycles.
    pub write_measured: u64,
}

const READ_PROBE: &str = "ld [r1], r2\n add r2, #0, r3\n halt\n";
const WRITE_PROBE: &str = "st r2, [r1]\n halt\n";
/// A toucher for a different line of the pointer's page: warms the LTLB
/// and the DRAM row but not the line. ([`READ_PROBE`] warms the line.)
const WARM_PAGE: &str = "ld [r1+#64], r2\n add r2, #0, r3\n halt\n";

/// Measure a read latency on node 0 given a warmed machine: thread
/// start to the `UserHalted` trace event of the read probe in `slot`.
fn measure_read(m: &mut MMachine, slot: usize, read: &Arc<Program>, ptr: Word) -> u64 {
    m.load_user_program(0, slot, read).expect("user slot");
    m.set_user_reg(0, 0, slot, Reg::Int(1), ptr);
    let t0 = m.cycle();
    m.clear_timeline();
    m.run_until_halt(200_000).expect("probe finishes");
    let halt = m
        .timeline()
        .first_cycle(|p| matches!(p, Phase::UserHalted { node: 0, slot: s, .. } if *s == slot))
        .expect("halt recorded");
    halt - t0 - READ_PROBE_OVERHEAD
}

/// Measure a write's completion (last memory response at `home`).
fn measure_write(
    m: &mut MMachine,
    slot: usize,
    write: &Arc<Program>,
    ptr: Word,
    home: usize,
) -> u64 {
    m.load_user_program(0, slot, write).expect("user slot");
    m.set_user_reg(0, 0, slot, Reg::Int(1), ptr);
    m.set_user_reg(0, 0, slot, Reg::Int(2), Word::from_u64(0xBEEF));
    let t0 = m.cycle();
    m.run_until_halt(200_000).expect("probe finishes");
    m.run_cycles(600); // let the store land remotely
    m.node(home).stats().last_response_cycle - t0
}

/// Warm node `node`'s LTLB and DRAM row for the pointer's page — and,
/// with [`READ_PROBE`] rather than [`WARM_PAGE`] as the toucher, its
/// cache line — by running the toucher thread on that node.
fn warm(m: &mut MMachine, node: usize, slot: usize, ptr: Word, toucher: &Arc<Program>) {
    m.load_user_program(node, slot, toucher).expect("user slot");
    m.set_user_reg(node, 0, slot, Reg::Int(1), ptr);
    m.run_until_halt(200_000).expect("toucher finishes");
    m.run_cycles(64);
}

/// Reproduce **Table 1**: local and remote access times.
///
/// Measurement procedure mirrors the paper: "a read is completed when the
/// requested data has been written into the destination register. A write
/// is completed when the line containing the data has been fully loaded
/// into the cache"; remote rows run on a 2-node mesh with the remote node
/// otherwise idle.
#[must_use]
pub fn table1() -> Vec<Table1Row> {
    let (read_probe, write_probe) = (probe(READ_PROBE), probe(WRITE_PROBE));
    let warm_page = probe(WARM_PAGE);
    let mut rows = Vec::new();

    // --- Local cache hit (3 / 2): fully warmed. ---
    let (mut mr, mut mw) = (machine(), machine());
    let ptr = mr.home_ptr(0, 0);
    warm(&mut mr, 0, 0, ptr, &read_probe);
    let read = measure_read(&mut mr, 1, &read_probe, ptr);
    let ptrw = mw.home_ptr(0, 0);
    warm(&mut mw, 0, 0, ptrw, &read_probe);
    let write = measure_write(&mut mw, 1, &write_probe, ptrw, 0);
    rows.push(Table1Row {
        access: "Local Cache Hit",
        read_paper: 3,
        write_paper: 2,
        read_measured: read,
        write_measured: write,
    });

    // --- Local cache miss (13 / 19): LTLB + DRAM row warm, line cold. ---
    let (mut mr, mut mw) = (machine(), machine());
    let ptr = mr.home_ptr(0, 0);
    warm(&mut mr, 0, 0, ptr, &warm_page);
    let read = measure_read(&mut mr, 1, &read_probe, ptr);
    let ptrw = mw.home_ptr(0, 0);
    warm(&mut mw, 0, 0, ptrw, &warm_page);
    let write = measure_write(&mut mw, 1, &write_probe, ptrw, 0);
    rows.push(Table1Row {
        access: "Local Cache Miss",
        read_paper: 13,
        write_paper: 19,
        read_measured: read,
        write_measured: write,
    });

    // --- Local LTLB miss (61 / 67): cold machine, handler walks LPT. ---
    let mut mr = machine();
    let ptr = mr.home_ptr(0, 0);
    let read = measure_read(&mut mr, 0, &read_probe, ptr);
    let mut mw = machine();
    let wptr = mw.home_ptr(0, 0);
    let write = measure_write(&mut mw, 0, &write_probe, wptr, 0);
    rows.push(Table1Row {
        access: "Local LTLB Miss",
        read_paper: 61,
        write_paper: 67,
        read_measured: read,
        write_measured: write,
    });

    // --- Remote cache hit (138 / 74): remote node warm. ---
    let mut mr = machine();
    let rptr = mr.home_ptr(1, 0);
    warm(&mut mr, 1, 0, rptr, &read_probe);
    let read = measure_read(&mut mr, 0, &read_probe, rptr);
    let mut mw = machine();
    let rptrw = mw.home_ptr(1, 0);
    warm(&mut mw, 1, 0, rptrw, &read_probe);
    let write = measure_write(&mut mw, 0, &write_probe, rptrw, 1);
    rows.push(Table1Row {
        access: "Remote Cache Hit",
        read_paper: 138,
        write_paper: 74,
        read_measured: read,
        write_measured: write,
    });

    // --- Remote cache miss (154 / 90): remote LTLB warm, line cold. ---
    let mut mr = machine();
    let rptr = mr.home_ptr(1, 0);
    warm(&mut mr, 1, 0, rptr, &warm_page);
    let read = measure_read(&mut mr, 0, &read_probe, rptr);
    let mut mw = machine();
    let rptrw = mw.home_ptr(1, 0);
    warm(&mut mw, 1, 0, rptrw, &warm_page);
    let write = measure_write(&mut mw, 0, &write_probe, rptrw, 1);
    rows.push(Table1Row {
        access: "Remote Cache Miss",
        read_paper: 154,
        write_paper: 90,
        read_measured: read,
        write_measured: write,
    });

    // --- Remote LTLB miss (202 / 138): both nodes cold. ---
    let mut mr = machine();
    let rptr = mr.home_ptr(1, 0);
    let read = measure_read(&mut mr, 0, &read_probe, rptr);
    let mut mw = machine();
    let wptr = mw.home_ptr(1, 0);
    let write = measure_write(&mut mw, 0, &write_probe, wptr, 1);
    rows.push(Table1Row {
        access: "Remote LTLB Miss",
        read_paper: 202,
        write_paper: 138,
        read_measured: read,
        write_measured: write,
    });

    rows
}

/// One phase of a Fig. 9 timeline.
#[derive(Debug, Clone)]
pub struct Fig9Phase {
    /// Phase label (matching the figure's annotations).
    pub label: &'static str,
    /// Which node the phase occurs on.
    pub node: usize,
    /// Paper's cumulative cycle (remote read timeline).
    pub paper: u64,
    /// Measured cumulative cycle.
    pub measured: u64,
}

/// Reproduce **Fig. 9**: the remote read (or write) timeline.
#[must_use]
pub fn fig9(write: bool) -> Vec<Fig9Phase> {
    let read_probe = probe(READ_PROBE);
    let mut m = machine();
    let rptr = m.home_ptr(1, 0);
    // Warm the remote node so its handler's load hits (Fig. 9 assumes
    // handler data structures hit; the remote LTLB path is the 202 row).
    warm(&mut m, 1, 0, rptr, &read_probe);

    let prog = if write {
        probe(WRITE_PROBE)
    } else {
        read_probe
    };
    m.load_user_program(0, 0, &prog).expect("slot");
    m.set_user_reg(0, 0, 0, Reg::Int(1), rptr);
    m.set_user_reg(0, 0, 0, Reg::Int(2), Word::from_u64(1));
    let t0 = m.cycle();
    m.clear_timeline();
    m.run_until_halt(200_000).expect("finishes");
    m.run_cycles(600);

    let tl = m.timeline();
    let rel = |c: Option<u64>| c.map_or(0, |c| c.saturating_sub(t0));
    let mut phases = vec![
        Fig9Phase {
            label: if write { "STORE issues" } else { "LOAD issues" },
            node: 0,
            paper: 0,
            measured: 0,
        },
        Fig9Phase {
            label: "LTLB miss event enqueued",
            node: 0,
            paper: 4,
            measured: rel(
                tl.first_cycle(|p| matches!(p, Phase::EventEnqueued { node: 0, class: 1 }))
            ),
        },
        Fig9Phase {
            label: "handler sends message",
            node: 0,
            paper: 52,
            measured: rel(tl.first_cycle(|p| {
                matches!(
                    p,
                    Phase::PacketInjected {
                        node: 0,
                        priority: Priority::P0,
                        kind: PacketKind::Message
                    }
                )
            })),
        },
        Fig9Phase {
            label: "message received",
            node: 1,
            paper: 57,
            measured: rel(tl.first_cycle(|p| {
                matches!(
                    p,
                    Phase::PacketDelivered {
                        node: 1,
                        kind: PacketKind::Message,
                        ..
                    }
                )
            })),
        },
    ];
    if write {
        phases.push(Fig9Phase {
            label: "remote store completes",
            node: 1,
            paper: 74,
            measured: m.node(1).stats().last_response_cycle - t0,
        });
    } else {
        phases.push(Fig9Phase {
            label: "reply message sent",
            node: 1,
            paper: 86,
            measured: rel(tl.first_cycle(|p| {
                matches!(
                    p,
                    Phase::PacketInjected {
                        node: 1,
                        priority: Priority::P1,
                        kind: PacketKind::Message
                    }
                )
            })),
        });
        phases.push(Fig9Phase {
            label: "reply received",
            node: 0,
            paper: 91,
            measured: rel(tl.first_cycle(|p| {
                matches!(
                    p,
                    Phase::PacketDelivered {
                        node: 0,
                        priority: Priority::P1,
                        kind: PacketKind::Message
                    }
                )
            })),
        });
        phases.push(Fig9Phase {
            label: "data written to destination register",
            node: 0,
            paper: 138,
            measured: rel(tl.first_cycle(|p| matches!(p, Phase::UserHalted { node: 0, .. })))
                .saturating_sub(READ_PROBE_OVERHEAD),
        });
    }
    phases
}

/// One configuration of the Fig. 5 stencil experiment.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Stencil neighbours (6 = 7-point, 26 = 27-point).
    pub neighbours: usize,
    /// H-Threads used.
    pub threads: usize,
    /// Paper's static depth (where reported).
    pub depth_paper: Option<usize>,
    /// Our static depth.
    pub depth_measured: usize,
    /// Executed cycles on the simulator (cache warm).
    pub cycles: u64,
    /// Whether the numeric result matched the reference formula.
    pub correct: bool,
}

/// Reproduce **Fig. 5** (+ the §3.1 27-point claim): static depth and
/// executed cycles of the smoothing kernel on 1/2/4 H-Threads.
#[must_use]
pub fn fig5() -> Vec<Fig5Row> {
    let mut rows = Vec::new();
    for (neighbours, thread_counts) in [(6usize, vec![1usize, 2, 4]), (26, vec![1, 2, 4])] {
        // Touches every line of the tile; the same for every thread count.
        let mut warm_src = String::new();
        for off in (0..tile_words(neighbours)).step_by(8) {
            warm_src.push_str(&format!("ld [r1+#{off}], r2\n"));
        }
        warm_src.push_str("add r2, #0, r3\n halt\n");
        let warm_prog = probe(&warm_src);
        for &threads in &thread_counts {
            let kernel = stencil_kernel(neighbours, threads);
            let mut m = machine();
            let base = m.home_va(0, 0);
            let ptr = m.home_ptr(0, 0);

            // Tile values: neighbour i = i+1, r_c = 2, u_c = 10.
            let a = 0.5f64;
            let b = 0.25f64;
            let mut sum = 0.0;
            for i in 0..neighbours {
                let v = (i + 1) as f64;
                sum += v;
                m.node_mut(0)
                    .mem
                    .poke_va(base + i as u64, MemWord::new(Word::from_f64(v)));
            }
            m.node_mut(0)
                .mem
                .poke_va(base + neighbours as u64, MemWord::new(Word::from_f64(2.0)));
            m.node_mut(0).mem.poke_va(
                base + neighbours as u64 + 1,
                MemWord::new(Word::from_f64(10.0)),
            );
            let expect = 10.0 + a * 2.0 + b * sum;

            // Warm every line of the tile.
            m.load_user_program(0, 3, &warm_prog).expect("slot");
            m.set_user_reg(0, 0, 3, Reg::Int(1), ptr);
            m.run_until_halt(100_000).expect("warm finishes");
            m.run_cycles(64);

            // Launch the kernel as one V-Thread.
            m.load_vthread(0, 0, &kernel.programs).expect("vthread");
            for c in 0..threads {
                m.set_user_reg(0, c, 0, Reg::Int(1), ptr);
                m.set_user_reg(0, c, 0, Reg::Fp(14), Word::from_f64(a));
                m.set_user_reg(0, c, 0, Reg::Fp(15), Word::from_f64(b));
            }
            let t0 = m.cycle();
            m.run_until_halt(100_000).expect("kernel finishes");
            let cycles = (m.cycle() - t0).saturating_sub(64); // halt drain
            m.run_cycles(64);
            let got = m
                .node(0)
                .mem
                .peek_va(base + tile_words(neighbours) as u64 - 1)
                .expect("output mapped")
                .word
                .as_f64();

            let depth_paper = match (neighbours, threads) {
                (6, 1) => Some(12),
                (6, 2) => Some(8),
                (26, 1) => Some(36),
                (26, 4) => Some(17),
                _ => None,
            };
            rows.push(Fig5Row {
                neighbours,
                threads,
                depth_paper,
                depth_measured: kernel.static_depth,
                cycles,
                correct: (got - expect).abs() < 1e-9,
            });
        }
    }
    rows
}

/// Result of the Fig. 6 synchronization experiment.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// Loop iterations run.
    pub iterations: u64,
    /// Total cycles for the 2-H-Thread interlocked loop.
    pub pair_cycles: u64,
    /// Total cycles for the 4-H-Thread barrier loop.
    pub barrier4_cycles: u64,
}

/// Reproduce **Fig. 6**: CC-register loop synchronization cost.
#[must_use]
pub fn fig6(iterations: u64) -> Fig6Result {
    let mut m = machine();
    let pair = mm_runtime::barrier::fig6_loop_pair(iterations);
    m.load_vthread(0, 0, &pair).expect("vthread");
    let t0 = m.cycle();
    m.run_until_halt(1_000_000).expect("pair finishes");
    let pair_cycles = (m.cycle() - t0).saturating_sub(64);

    let mut m4 = machine();
    let quad = mm_runtime::barrier::barrier4_programs(iterations);
    m4.load_vthread(0, 0, &quad).expect("vthread");
    let t0 = m4.cycle();
    m4.run_until_halt(1_000_000).expect("barrier finishes");
    let barrier4_cycles = (m4.cycle() - t0).saturating_sub(64);

    Fig6Result {
        iterations,
        pair_cycles,
        barrier4_cycles,
    }
}

/// One point of the V-Thread interleaving experiment (Fig. 4 semantics).
#[derive(Debug, Clone)]
pub struct InterleaveRow {
    /// Resident V-Threads.
    pub vthreads: usize,
    /// Cycles to finish all of them.
    pub cycles: u64,
    /// FP operations per cycle achieved.
    pub throughput: f64,
}

/// Measure how interleaving V-Threads masks FP latency: each thread runs
/// a dependent chain of 48 `fadd`s; with more resident threads the
/// 3-cycle FP bubbles fill with other threads' work at zero switch cost.
#[must_use]
pub fn interleave() -> Vec<InterleaveRow> {
    let mut src = String::new();
    for _ in 0..48 {
        src.push_str("fadd f1, f2, f1\n");
    }
    src.push_str("halt\n");
    let prog = probe(&src);

    let mut rows = Vec::new();
    for vthreads in 1..=4usize {
        let mut m = machine();
        for slot in 0..vthreads {
            m.load_user_program(0, slot, &prog).expect("slot");
        }
        let t0 = m.cycle();
        m.run_until_halt(1_000_000).expect("finishes");
        let cycles = (m.cycle() - t0).saturating_sub(64);
        rows.push(InterleaveRow {
            vthreads,
            cycles,
            throughput: (vthreads as f64 * 48.0) / cycles as f64,
        });
    }
    rows
}

/// One point of the network latency sweep.
#[derive(Debug, Clone)]
pub struct NetworkRow {
    /// Hops to the destination.
    pub hops: u64,
    /// Delivery latency for a 3-word message.
    pub latency: u64,
}

/// Message latency vs. distance on an 8×1×1 mesh (pure fabric timing:
/// `2·hops + flits`, ≈5 cycles to a neighbour as in §4.2).
#[must_use]
pub fn network_sweep() -> Vec<NetworkRow> {
    use mm_net::fabric::{Fabric, FabricConfig};
    use mm_net::message::{Message, NodeCoord, Packet};
    let mut rows = Vec::new();
    for hops in 1..=7u64 {
        let mut f = Fabric::new(FabricConfig {
            dims: (8, 1, 1),
            hop_latency: 2,
            loopback_latency: 2,
        });
        let t = f.inject(
            0,
            Packet::User(Message {
                priority: Priority::P0,
                src: NodeCoord::new(0, 0, 0),
                dest: NodeCoord::new(hops as u8, 0, 0),
                dip: Word::ZERO,
                addr: Word::ZERO,
                body: [Word::ZERO].into(),
                wire: Default::default(),
            }),
        );
        rows.push(NetworkRow { hops, latency: t });
    }
    rows
}

/// The SDRAM page-mode ablation: local cache-miss latencies with page
/// mode on vs. off.
#[derive(Debug, Clone)]
pub struct PageModeAblation {
    /// Miss read latency with page mode (Table 1's 13).
    pub read_on: u64,
    /// Miss read latency with page mode disabled.
    pub read_off: u64,
}

/// Reproduce the design choice behind §2's "exploits the pipeline and
/// page mode of the external memory".
#[must_use]
pub fn page_mode_ablation() -> PageModeAblation {
    let (read_probe, warm_page) = (probe(READ_PROBE), probe(WARM_PAGE));
    let mut m = machine();
    let ptr = m.home_ptr(0, 0);
    warm(&mut m, 0, 0, ptr, &warm_page);
    let read_on = measure_read(&mut m, 1, &read_probe, ptr);

    let mut cfg = MachineConfig::small();
    cfg.node.mem.sdram.page_mode = false;
    let mut m = MMachine::build(cfg).expect("valid");
    let ptr = m.home_ptr(0, 0);
    warm(&mut m, 0, 0, ptr, &warm_page);
    let read_off = measure_read(&mut m, 1, &read_probe, ptr);

    PageModeAblation { read_on, read_off }
}

/// Throttling ablation: time to deliver a 24-message burst with plentiful
/// vs. scarce send credits.
#[derive(Debug, Clone)]
pub struct ThrottleAblation {
    /// Cycles with 16 credits.
    pub cycles_credits_16: u64,
    /// Cycles with 2 credits.
    pub cycles_credits_2: u64,
}

/// Reproduce the §4.1 return-to-sender throttling behaviour under a
/// message flood.
#[must_use]
pub fn throttle_ablation() -> ThrottleAblation {
    let mut src = String::new();
    for i in 0..24 {
        src.push_str(&format!("mov #{}, mc1\n send r10, r11, #1\n", i));
    }
    src.push_str("halt\n");
    let prog = probe(&src);
    let run = |credits: u32| -> u64 {
        let mut cfg = MachineConfig::small();
        cfg.node.iface.send_credits = credits;
        let mut m = MMachine::build(cfg).expect("valid");
        m.load_user_program(0, 0, &prog).expect("slot");
        let target = m.home_va(1, 3);
        let ptr = m.make_ptr(mm_isa::Perm::ReadWrite, 0, target).expect("ptr");
        m.set_user_reg(0, 0, 0, Reg::Int(10), ptr);
        let dip = m.image().write_dip;
        m.set_user_reg(0, 0, 0, Reg::Int(11), dip);
        let t0 = m.cycle();
        m.run_until_halt(1_000_000).expect("finishes");
        let _ = m.run_until(1_000_000, |m| m.node(1).net.stats().received == 24);
        m.cycle() - t0
    };
    ThrottleAblation {
        cycles_credits_16: run(16),
        cycles_credits_2: run(2),
    }
}
