//! Isolated layer drivers: each layer of the simulator exercised on its
//! own through its public functions, timed from outside. A driver
//! reports the median over `samples` samples of host time per
//! operation; the paired drivers (telemetry, dense loop, two workers)
//! interleave their two sides so slow drift cancels.

use crate::stats::summarize;
use crate::workloads::{table1_rel_err, Trace};
use mm_bench::coherence::build_coherence_scenario;
use mm_bench::scaling::{
    build_busy_scenario, build_busy_scenario_telemetry, build_scenario, ROUNDS,
};
use mm_isa::op::Priority;
use mm_isa::word::Word;
use mm_mem::lpt::Lpt;
use mm_mem::ltlb::{BlockStatus, LtlbEntry, PAGE_WORDS};
use mm_mem::memsys::{MemConfig, MemRequest, MemorySystem};
use mm_net::fabric::{Fabric, FabricConfig};
use mm_net::{
    GdtEntry, Gtlb, IfaceConfig, Message, MsgBody, NodeCoord, NodeNet, Packet, SendOutcome,
};
use mm_sched::{DeadlineLadder, ReadyQueue};
use mm_sim::{Node, NodeConfig, StepScratch};
use mm_telemetry::{CounterSnapshot, Telemetry, TelemetryConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// How hard the drivers work: the full pass takes a median of 11
/// samples of 10 000 operations; the quick pass (the package's
/// integration test) only checks that every driver runs.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    pub samples: usize,
    pub ops: u64,
    /// Divisor on the machine-sized drivers' run lengths.
    pub shrink: u64,
    /// Mesh of the build / checkpoint / two-worker driver.
    pub big_dims: (u8, u8, u8),
}

impl Effort {
    pub const FULL: Effort = Effort {
        samples: 11,
        ops: 10_000,
        shrink: 1,
        big_dims: (8, 8, 8),
    };
    pub const QUICK: Effort = Effort {
        samples: 3,
        ops: 500,
        shrink: 20,
        big_dims: (4, 4, 4),
    };
}

/// One driver's result; `None` = not measurable on this host.
pub type Measured = (&'static str, Option<f64>);

fn secs(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Median over `e.samples` samples of host nanoseconds per operation,
/// where `f(n)` performs `n` operations.
fn ns_per_op(e: Effort, mut f: impl FnMut(u64)) -> f64 {
    f(e.ops.min(1000)); // warm caches and grow buffers to steady state
    let samples: Vec<f64> = (0..e.samples)
        .map(|_| secs(|| f(e.ops)) * 1e9 / e.ops as f64)
        .collect();
    summarize(&samples).median
}

fn median_of(samples: usize, mut f: impl FnMut() -> f64) -> f64 {
    let v: Vec<f64> = (0..samples).map(|_| f()).collect();
    summarize(&v).median
}

/// A cheap deterministic sequence for seeded destinations and addresses.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }
}

fn program(src: &str) -> Arc<mm_isa::Program> {
    Arc::new(mm_isa::assemble(src).expect("driver program assembles"))
}

/// `Node::step_with` on a node running an endless dependent-chain loop,
/// and on one whose only threads are handlers blocked on empty queues —
/// the two cases `cycle_kernel` benches.
fn node_step(e: Effort) -> [Measured; 2] {
    let fresh = || Node::new(NodeConfig::default(), NodeCoord::new(0, 0, 0));
    let mut scratch = StepScratch::new();

    let mut busy = fresh();
    busy.load_program(
        0,
        0,
        program(
            "loop:\n add r5, #1, r5\n add r6, r5, r6\n add r7, r6, r7\n \
             eq r5, #0, gcc1\n brf gcc1, loop\n halt\n",
        ),
        0,
    );
    let mut now = 0;
    let busy_ns = ns_per_op(e, |n| {
        for _ in 0..n {
            black_box(busy.step_with(now, &mut scratch));
            now += 1;
        }
    });

    let mut blocked = fresh();
    let spin = program("loop:\n mov evq, r4\n br loop\n");
    for cluster in 0..4 {
        blocked.load_program(cluster, mm_sim::EVENT_SLOT, Arc::clone(&spin), 0);
    }
    let mut now = 0;
    let blocked_ns = ns_per_op(e, |n| {
        for _ in 0..n {
            black_box(blocked.step_with(now, &mut scratch));
            now += 1;
        }
    });
    [
        ("sim.node.step_busy_ns", Some(busy_ns)),
        ("sim.node.step_blocked_ns", Some(blocked_ns)),
    ]
}

/// `submit` + `step_into` until the response pops: on a warm line, and
/// on two lines one cache-size apart that evict each other every time.
fn memsys(e: Effort) -> [Measured; 2] {
    let cfg = MemConfig::default();
    let conflict_stride = cfg.cache.num_lines() * mm_mem::LINE_WORDS;
    let far_vpn = conflict_stride / PAGE_WORDS;
    let mut ms = MemorySystem::new(cfg);
    let lpt = Lpt::new(1024, 64);
    ms.set_lpt(lpt);
    for (vpn, ppn) in [(0, 16), (far_vpn, 17)] {
        let entry = LtlbEntry::uniform(vpn, ppn, BlockStatus::ReadWrite, 0);
        let slot = lpt.insert(ms.sdram_mut(), &entry).expect("LPT has room");
        assert!(ms.tlb_install(slot), "LTLB install");
    }
    let (mut responses, mut events) = (Vec::new(), Vec::new());
    let mut now = 0;
    let mut id = 0;
    let mut access = |ms: &mut MemorySystem, va: u64| {
        id += 1;
        ms.submit(MemRequest::load(id, va, 0))
            .expect("bank queue has room");
        responses.clear();
        while responses.is_empty() {
            ms.step_into(now, &mut responses, &mut events);
            now += 1;
        }
        assert!(events.is_empty(), "driver access raised {events:?}");
    };
    let hit_ns = ns_per_op(e, |n| {
        for _ in 0..n {
            access(&mut ms, 8);
        }
    });
    let miss_ns = ns_per_op(e, |n| {
        for i in 0..n {
            access(&mut ms, 8 + (i & 1) * conflict_stride);
        }
    });
    let cache = ms.cache_stats();
    assert!(
        cache.read_hits > 0 && cache.read_misses >= e.ops,
        "{cache:?}"
    );
    [
        ("mem.memsys.hit_ns_per_access", Some(hit_ns)),
        ("mem.memsys.miss_ns_per_access", Some(miss_ns)),
    ]
}

fn secded(e: Effort) -> Measured {
    let mut rng = Lcg(1);
    let ns = ns_per_op(e, |n| {
        for _ in 0..n {
            let data = rng.next() << 31 ^ rng.next();
            let check = mm_mem::secded::encode(black_box(data));
            black_box(mm_mem::secded::decode(data, check));
        }
    });
    ("mem.secded.codec_ns", Some(ns))
}

fn user_packet(src: NodeCoord, dest: NodeCoord) -> Packet {
    Packet::User(Message {
        priority: Priority::P0,
        src,
        dest,
        dip: Word::ZERO,
        addr: Word::ZERO,
        body: [Word::ZERO, Word::ZERO].into(),
        wire: Default::default(),
    })
}

/// 8×8×8 fabric, eight packets injected per cycle between seeded
/// endpoints, deliveries drained every cycle.
fn fabric(e: Effort) -> Measured {
    let mut f = Fabric::new(FabricConfig {
        dims: (8, 8, 8),
        hop_latency: 2,
        loopback_latency: 2,
    });
    let mut rng = Lcg(2);
    let mut coord = move || {
        let r = rng.next();
        NodeCoord::new((r & 7) as u8, (r >> 3 & 7) as u8, (r >> 6 & 7) as u8)
    };
    let mut out = Vec::new();
    let mut now = 0;
    let mut delivered = 0u64;
    let mut injected = 0u64;
    let ns = ns_per_op(e, |n| {
        for i in 0..n {
            f.inject(now, user_packet(coord(), coord()));
            injected += 1;
            if i % 8 == 7 {
                out.clear();
                f.deliveries_into(now, &mut out);
                delivered += out.len() as u64;
                now += 1;
            }
        }
        while !f.is_idle() {
            out.clear();
            f.deliveries_into(now, &mut out);
            delivered += out.len() as u64;
            now += 1;
        }
    });
    assert_eq!(delivered, injected, "fabric lost packets");
    ("net.fabric.inject_deliver_ns_per_packet", Some(ns))
}

/// A whole-machine page group over a 2×1×1 region: page 0 on node
/// (0,0,0), page 1 on node (1,0,0).
fn two_node_gdt() -> GdtEntry {
    GdtEntry::new(0, NodeCoord::new(0, 0, 0), (1, 0, 0), 1, 0)
}

/// SEND at node A → outbox → `deliver` at node B → B's handler pops the
/// words → B's credit reply back to A.
fn iface(e: Effort) -> Measured {
    let (a_at, b_at) = (NodeCoord::new(0, 0, 0), NodeCoord::new(1, 0, 0));
    let mut a = NodeNet::new(a_at, IfaceConfig::default());
    let mut b = NodeNet::new(b_at, IfaceConfig::default());
    a.gtlb_mut().add_entry(two_node_gdt());
    let dest_va = mm_net::GLOBAL_PAGE_WORDS; // page 1 → node B
    assert_eq!(a.gtlb().translate_quiet(dest_va), Some(b_at));
    let mut wire = Vec::new();
    let body = MsgBody::from_slice(&[Word::from_u64(7)]);
    let ns = ns_per_op(e, |n| {
        for _ in 0..n {
            let sent = a.send(Word::ZERO, Word::ZERO, dest_va, body, Priority::P0);
            assert!(matches!(sent, SendOutcome::Sent(_)), "{sent:?}");
            a.drain_outbox_into(&mut wire);
            for p in wire.drain(..) {
                b.deliver(p);
            }
            while b.pop_word(Priority::P0).is_some() {}
            b.drain_outbox_into(&mut wire);
            for p in wire.drain(..) {
                a.deliver(p);
            }
        }
    });
    let (sa, sb) = (a.stats(), b.stats());
    assert_eq!(
        (sa.sent, sa.credit_stalls, sb.returned_here),
        (sb.received, 0, 0)
    );
    ("net.iface.send_deliver_ns_per_msg", Some(ns))
}

fn gtlb(e: Effort) -> Measured {
    let mut g = Gtlb::new(16);
    for group in 0..8 {
        g.add_entry(GdtEntry::new(
            group * 64,
            NodeCoord::new(0, 0, 0),
            (2, 2, 2),
            6,
            0,
        ));
    }
    let mut rng = Lcg(3);
    let span = 8 * 64 * mm_net::GLOBAL_PAGE_WORDS;
    let ns = ns_per_op(e, |n| {
        for _ in 0..n {
            black_box(g.probe(rng.next() % span));
        }
    });
    assert_eq!(g.stats().unmapped, 0);
    ("net.gtlb.probe_ns", Some(ns))
}

/// One push and one pop per operation at a standing depth of 64 — the
/// memory system's response queue in steady state.
fn ready_queue(e: Effort) -> Measured {
    let mut q = ReadyQueue::with_capacity(128);
    let mut rng = Lcg(4);
    let mut now = 0u64;
    for i in 0..64 {
        q.push(i, i);
    }
    let ns = ns_per_op(e, |n| {
        for _ in 0..n {
            q.push(now + 64 + rng.next() % 8, now);
            now += 1;
            black_box(q.pop_due(u64::MAX));
        }
    });
    assert_eq!(q.len(), 64);
    ("sched.ready_queue.push_pop_ns", Some(ns))
}

fn ladder(e: Effort) -> [Measured; 2] {
    let mut l = DeadlineLadder::new(512);
    let mut rng = Lcg(5);
    for i in 0..512 {
        l.set_slot(i, 1000 + rng.next() % 1000);
    }
    let min_ns = ns_per_op(e, |n| {
        for _ in 0..n {
            black_box(black_box(&l).min_deadline());
        }
    });
    let set_ns = ns_per_op(e, |n| {
        for _ in 0..n {
            let r = rng.next();
            l.set_slot((r % 512) as usize, 1000 + (r >> 9) % 1000);
        }
    });
    [
        ("sched.ladder.min_deadline_ns", Some(min_ns)),
        ("sched.ladder.set_slot_ns", Some(set_ns)),
    ]
}

fn telemetry_sample(e: Effort) -> Measured {
    let mut t = Telemetry::new(TelemetryConfig::enabled()).expect("ring-only telemetry");
    let mut snap = CounterSnapshot::default();
    let ns = ns_per_op(e, |n| {
        for _ in 0..n {
            snap.cycles += 1024;
            snap.instructions += 4096;
            snap.node_steps += 512;
            t.sample(black_box(&snap));
        }
    });
    ("telemetry.sample_ns", Some(ns))
}

/// Busy 4×4×4 with telemetry sampling off vs on (default epoch, ring
/// only): five interleaved pairs, each side a freshly built machine so
/// that where the allocator happened to place one machine cannot pass
/// for telemetry cost.
fn telemetry_overhead(e: Effort) -> Measured {
    let window = 12_000 / e.shrink;
    let timed = |telemetry: TelemetryConfig| {
        let mut m = build_busy_scenario_telemetry((4, 4, 4), u64::MAX / 2, Some(1), telemetry);
        m.run_cycles(512); // past the boot transient
        (secs(|| m.run_cycles(window)), m.stats())
    };
    let ratio = median_of(5, || {
        let (off_s, off_stats) = timed(TelemetryConfig::default());
        let (on_s, on_stats) = timed(TelemetryConfig::enabled());
        assert_eq!(off_stats, on_stats, "telemetry changed the simulation");
        on_s / off_s
    });
    ("telemetry.overhead_pct", Some((ratio - 1.0) * 100.0))
}

/// The 512-node busy machine, used three ways: its build time, a
/// mid-run checkpoint/restore, and a two-worker twin run beside it.
fn big_machine(e: Effort) -> [Measured; 5] {
    let never_halts = u64::MAX / 2;
    let mut m = None;
    let build_s = secs(|| m = Some(build_busy_scenario(e.big_dims, never_halts, Some(1))));
    let mut serial = m.expect("just built");
    let nodes = serial.node_count() as f64;
    serial.run_cycles(300 / e.shrink.min(4));

    let mut image = Vec::new();
    let checkpoint_s = secs(|| image = serial.checkpoint());
    let restore_s = secs(|| serial.restore(&image).expect("own checkpoint restores"));
    let image_mib = image.len() as f64 / (1024.0 * 1024.0);
    drop(image);

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let speedup = (cores >= 2).then(|| {
        let mut twin = build_busy_scenario(e.big_dims, never_halts, Some(2));
        twin.run_cycles(serial.cycle());
        assert_eq!(
            twin.stats(),
            serial.stats(),
            "worker count changed the simulation"
        );
        let window = 1200 / e.shrink;
        // Three interleaved pairs of time(serial) / time(twin): above
        // 1 when two workers win.
        let ratio = median_of(3, || {
            let twin_s = secs(|| twin.run_cycles(window));
            secs(|| serial.run_cycles(window)) / twin_s
        });
        assert_eq!(
            twin.stats(),
            serial.stats(),
            "worker count changed the simulation"
        );
        ratio
    });
    [
        (
            "core.machine.build_ms_per_node",
            Some(build_s * 1e3 / nodes),
        ),
        ("core.snapshot.checkpoint_ms", Some(checkpoint_s * 1e3)),
        ("core.snapshot.restore_ms", Some(restore_s * 1e3)),
        ("core.snapshot.image_mib", Some(image_mib)),
        ("core.shard.w2_speedup", speedup),
    ]
}

fn image_and_assembler(e: Effort) -> [Measured; 2] {
    let samples = e.samples.min(5);
    let image_ms = median_of(samples, || {
        secs(|| {
            black_box(mm_runtime::image::RuntimeImage::build());
        }) * 1e3
    });
    let sources = [
        mm_runtime::image::LTLB_MISS_HANDLER,
        mm_runtime::image::MSG_P0_HANDLER,
        mm_runtime::image::MSG_P1_HANDLER,
    ];
    let instrs: usize = sources
        .iter()
        .map(|s| mm_isa::assemble(s).expect("handler assembles").len())
        .sum();
    let us_per_instr = median_of(e.samples, || {
        secs(|| {
            for s in sources {
                black_box(mm_isa::assemble(black_box(s)).expect("handler assembles"));
            }
        }) * 1e6
            / instrs as f64
    });
    [
        ("runtime.image.build_ms", Some(image_ms)),
        ("isa.assemble.us_per_instr", Some(us_per_instr)),
    ]
}

/// The engine leg of `mm_bench::scaling::idle_heavy_comparison`: the
/// 2×1×1 ping-pong run to a fixed horizon far past its completion, so
/// nearly every cycle is fast-forwarded.
fn idle_fast_forward(e: Effort) -> Measured {
    let horizon = 20_000_000 / e.shrink;
    let rate = median_of(e.samples.min(5), || {
        let mut m = build_scenario((2, 1, 1), ROUNDS);
        horizon as f64 / secs(|| m.run_cycles(horizon))
    });
    ("core.engine.idle_ff_cycles_per_s", Some(rate))
}

/// `naive_step` (every node, every cycle) against the quiescence engine
/// on the coherence ping-pong at one eighth of the workload's length.
fn dense_over_engine(e: Effort) -> Measured {
    let iters = 6000 / 8 / e.shrink;
    let build = || build_coherence_scenario((4, 2, 2), iters, Some(1));
    let mut engine = build();
    let engine_s = secs(|| {
        engine.run_until_halt(50_000_000).expect("ping-pong halts");
    });
    let mut dense = build();
    let cycles = engine.cycle();
    let dense_s = secs(|| {
        for _ in 0..cycles {
            dense.naive_step();
        }
    });
    assert_eq!(
        dense.stats(),
        engine.stats(),
        "dense loop and engine disagree"
    );
    ("core.engine.dense_over_engine", Some(dense_s / engine_s))
}

/// One pass over the eight paper-artifact functions (what `reproduce`
/// users wait for) and Table 1's error against the paper's own column.
/// No hardware reference exists: this is fidelity to the publication.
fn artifacts(e: Effort) -> [Measured; 2] {
    let mut rel_err = 0.0;
    let round_ms = median_of(e.samples.min(3), || {
        secs(|| {
            rel_err = table1_rel_err(&mm_bench::table1());
            black_box((
                mm_bench::fig9(false),
                mm_bench::fig9(true),
                mm_bench::fig5(),
            ));
            black_box((mm_bench::fig6(100), mm_bench::interleave()));
            black_box((mm_bench::network_sweep(), mm_bench::page_mode_ablation()));
            black_box(mm_bench::throttle_ablation());
        }) * 1e3
    });
    [
        ("bench.artifacts.round_ms", Some(round_ms)),
        ("bench.table1.rel_err", Some(rel_err)),
    ]
}

/// Run every driver, each as a `case` span under one `driver` span.
pub fn run_all(e: Effort, trace: &mut Trace) -> Vec<Measured> {
    let mut out: Vec<Measured> = Vec::new();
    let drivers: [&dyn Fn(Effort) -> Vec<Measured>; 14] = [
        &|e| node_step(e).to_vec(),
        &|e| memsys(e).to_vec(),
        &|e| vec![secded(e)],
        &|e| vec![fabric(e)],
        &|e| vec![iface(e)],
        &|e| vec![gtlb(e)],
        &|e| vec![ready_queue(e)],
        &|e| ladder(e).to_vec(),
        &|e| vec![telemetry_sample(e), telemetry_overhead(e)],
        &|e| big_machine(e).to_vec(),
        &|e| image_and_assembler(e).to_vec(),
        &|e| vec![idle_fast_forward(e)],
        &|e| vec![dense_over_engine(e)],
        &|e| artifacts(e).to_vec(),
    ];
    let all = trace.tracer.open("driver", 0);
    for (i, driver) in drivers.iter().enumerate() {
        let case = trace.tracer.open("case", i as u32);
        out.extend(driver(e));
        trace.tracer.close(case);
    }
    trace.tracer.close(all);
    out
}
