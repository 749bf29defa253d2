//! Property tests for the network crate: GTLB encoding and translation
//! invariants, minimal dimension-order routes, end-to-end queue
//! conservation under random traffic, and the fabric's in-flight slab
//! against the whole-packet queue it replaced.

use mm_faults::{Ckpt, Dec, Enc};
use mm_isa::op::Priority;
use mm_isa::word::Word;
use mm_net::fabric::{Fabric, FabricConfig, FabricStats, NUM_DIRS};
use mm_net::gtlb::{GdtEntry, GLOBAL_PAGE_WORDS};
use mm_net::iface::{IfaceConfig, NodeNet};
use mm_net::message::{Message, NodeCoord, Packet};
use mm_sched::ReadyQueue;
use proptest::prelude::*;

/// The node owning the group's very first page (wrap reference).
fn before_run_start(e: &GdtEntry, first_va: u64) -> NodeCoord {
    e.translate(first_va).unwrap()
}

/// The fabric as it was before in-flight packets moved into a slot
/// slab: the same routing, arbitration, statistics and checkpoint
/// format, with whole packets in the ready queue. The slab fabric must
/// be indistinguishable from it.
struct QueueFabric {
    cfg: FabricConfig,
    link_free: Vec<u64>,
    in_flight: ReadyQueue<Packet>,
    stats: FabricStats,
    link_flits: Vec<u64>,
    flit_hops: u64,
}

impl QueueFabric {
    fn new(cfg: FabricConfig) -> QueueFabric {
        let nodes = usize::from(cfg.dims.0) * usize::from(cfg.dims.1) * usize::from(cfg.dims.2);
        QueueFabric {
            link_free: vec![0; nodes * NUM_DIRS * 2],
            link_flits: vec![0; nodes * NUM_DIRS * 2],
            cfg,
            in_flight: ReadyQueue::new(),
            stats: FabricStats::default(),
            flit_hops: 0,
        }
    }

    fn inject_delayed(&mut self, now: u64, packet: Packet, extra: u64) -> u64 {
        let (src, dest) = (packet.src(), packet.dest());
        let flits = packet.wire_flits();
        let pri = packet.priority().index();
        let (dx, dy) = (usize::from(self.cfg.dims.0), usize::from(self.cfg.dims.1));
        let deliver_at = extra
            + if src == dest {
                now + self.cfg.loopback_latency + flits
            } else {
                let mut t_head = now;
                let route = Fabric::route(src, dest);
                for &(cur, dir) in &route {
                    let linear =
                        usize::from(cur.x) + dx * (usize::from(cur.y) + dy * usize::from(cur.z));
                    let link = (linear * NUM_DIRS + dir.index()) * 2 + pri;
                    let earliest = t_head + self.cfg.hop_latency;
                    let actual = earliest.max(self.link_free[link]);
                    self.stats.contention_cycles += actual - earliest;
                    t_head = actual;
                    self.link_free[link] = t_head + flits;
                    self.link_flits[link] += flits;
                }
                self.stats.hops += route.len() as u64;
                self.flit_hops += route.len() as u64 * flits;
                t_head + flits
            };
        self.stats.packets += 1;
        if matches!(packet, Packet::Coh(_)) {
            self.stats.coh_packets += 1;
        }
        self.stats.flits += flits;
        self.stats.total_latency += deliver_at - now;
        self.in_flight.push(deliver_at, packet);
        deliver_at
    }

    fn save_state(&self, e: &mut Enc) {
        e.usize(self.link_free.len());
        for &v in &self.link_free {
            e.u64(v);
        }
        let snap = self.in_flight.snapshot();
        e.usize(snap.len());
        for (at, p) in snap {
            e.u64(at);
            p.save(e);
        }
        let s = &self.stats;
        for v in [
            s.packets,
            s.flits,
            s.total_latency,
            s.contention_cycles,
            s.hops,
            s.coh_packets,
        ] {
            e.u64(v);
        }
        e.usize(self.link_flits.len());
        for &v in &self.link_flits {
            e.u64(v);
        }
        e.u64(self.flit_hops);
    }
}

/// One step of the slab model test.
#[derive(Debug, Clone)]
enum FabricOp {
    /// Advance the clock, then inject a packet (kind 0–3: user, credit,
    /// return, coherence) between two mesh nodes after `delay` cycles
    /// of router delay.
    Inject {
        advance: u64,
        src: u8,
        dest: u8,
        kind: u8,
        body: usize,
        p1: bool,
        delay: u64,
    },
    /// Advance the clock and take every due packet.
    Deliver { advance: u64 },
    /// Pop every due slot, inject `inject` more packets while the popped
    /// ones are still held (a window reading in place), then release.
    Window { advance: u64, inject: u8 },
    /// Checkpoint and restore into a fresh fabric.
    SaveLoad,
}

fn inject_op() -> impl Strategy<Value = FabricOp> {
    // Half the injections carry no router delay.
    let delay = (0u64..40).prop_map(|d| d.saturating_sub(20));
    (
        (0u64..4, 0u8..12, 0u8..12),
        (0u8..4, 0usize..10, any::<bool>()),
        delay,
    )
        .prop_map(
            |((advance, src, dest), (kind, body, p1), delay)| FabricOp::Inject {
                advance,
                src,
                dest,
                kind,
                body,
                p1,
                delay,
            },
        )
}

/// Injections four times as often as any other step, so the fabric
/// fills up between drains.
fn fabric_op() -> impl Strategy<Value = FabricOp> {
    prop_oneof![
        inject_op(),
        inject_op(),
        inject_op(),
        inject_op(),
        (0u64..12).prop_map(|advance| FabricOp::Deliver { advance }),
        (0u64..12).prop_map(|advance| FabricOp::Deliver { advance }),
        (0u64..12, 0u8..4).prop_map(|(advance, inject)| FabricOp::Window { advance, inject }),
        Just(FabricOp::SaveLoad),
    ]
}

const SLAB_DIMS: (u8, u8, u8) = (3, 2, 2);

fn slab_node(i: u8) -> NodeCoord {
    NodeCoord::new(i % 3, (i / 3) % 2, i / 6)
}

fn slab_packet(src: u8, dest: u8, kind: u8, body: usize, p1: bool, tag: u64) -> Packet {
    let msg = Message {
        priority: if p1 { Priority::P1 } else { Priority::P0 },
        src: slab_node(src),
        dest: slab_node(dest),
        dip: Word::from_u64(tag),
        addr: Word::from_u64(tag * 3),
        body: (0..body as u64).map(|w| Word::from_u64(tag + w)).collect(),
        wire: Default::default(),
    };
    match kind {
        0 => Packet::User(msg),
        1 => Packet::Credit {
            dest: msg.dest,
            from: msg.src,
        },
        2 => Packet::Return(msg),
        _ => Packet::Coh(msg),
    }
}

fn fabric_bytes(save: impl FnOnce(&mut Enc)) -> Vec<u8> {
    let mut e = Enc::new();
    save(&mut e);
    e.finish()
}

proptest! {
    /// Fig. 8 encoding round-trips for all field values.
    #[test]
    fn gdt_entry_encode_round_trip(
        vpage in 0u64..(1 << 42),
        sx in 0u8..8, sy in 0u8..8, sz in 0u8..8,
        ex in 0u8..4, ey in 0u8..4, ez in 0u8..4,
        glen in 0u8..16,
        ppn in 0u8..8,
    ) {
        let e = GdtEntry::new(vpage, NodeCoord::new(sx, sy, sz), (ex, ey, ez), glen, ppn);
        prop_assert_eq!(GdtEntry::decode(e.encode()), e);
        prop_assert!(e.encode() < (1u128 << 79), "fits the 79-bit Fig. 8 format");
    }

    /// Translation always lands inside the entry's 3-D region, and every
    /// address in the page-group translates.
    #[test]
    fn gdt_translation_stays_in_region(
        ex in 0u8..3, ey in 0u8..3, ez in 0u8..3,
        glen in 0u8..8,
        ppn in 0u8..4,
        page in 0u64..256,
    ) {
        let start = NodeCoord::new(1, 2, 3);
        let e = GdtEntry::new(0, start, (ex, ey, ez), glen, ppn);
        let va = page * GLOBAL_PAGE_WORDS;
        match e.translate(va) {
            Some(node) => {
                prop_assert!(page < e.group_pages());
                prop_assert!(u64::from(node.x - start.x) < (1 << ex));
                prop_assert!(u64::from(node.y - start.y) < (1 << ey));
                prop_assert!(u64::from(node.z - start.z) < (1 << ez));
            }
            None => prop_assert!(page >= e.group_pages()),
        }
    }

    /// Consecutive `2^ppn` pages map to the same node (block interleaving).
    #[test]
    fn pages_per_node_blocks_are_contiguous(
        ppn in 0u8..4,
        chunk in 0u64..16,
    ) {
        let e = GdtEntry::new(0, NodeCoord::new(0, 0, 0), (2, 2, 0), 10, ppn);
        let pages_per = 1u64 << ppn;
        let first = e.translate(chunk * pages_per * GLOBAL_PAGE_WORDS).unwrap();
        for k in 1..pages_per {
            let page = chunk * pages_per + k;
            prop_assert_eq!(e.translate(page * GLOBAL_PAGE_WORDS).unwrap(), first);
        }
    }

    /// Dimension-order routes are minimal (length = Manhattan distance)
    /// and uncontended latency is hops*hop_latency + flits.
    #[test]
    fn routes_are_minimal(
        sx in 0u8..4, sy in 0u8..4, sz in 0u8..4,
        dx in 0u8..4, dy in 0u8..4, dz in 0u8..4,
        body in 0usize..6,
    ) {
        let src = NodeCoord::new(sx, sy, sz);
        let dest = NodeCoord::new(dx, dy, dz);
        let route = Fabric::route(src, dest);
        prop_assert_eq!(route.len() as u64, src.hops_to(dest));

        prop_assume!(src != dest);
        let mut f = Fabric::new(FabricConfig { dims: (4, 4, 4), hop_latency: 2, loopback_latency: 2 });
        let t = f.inject(0, Packet::User(Message {
            priority: Priority::P0,
            src,
            dest,
            dip: Word::ZERO,
            addr: Word::ZERO,
            body: std::iter::repeat_n(Word::ZERO, body).collect(),
            wire: Default::default(),
        }));
        prop_assert_eq!(t, src.hops_to(dest) * 2 + 2 + body as u64);
    }

    /// The packed form puts every field exactly where Fig. 8 says:
    /// `[vpage:42 | start:16 | ext_z:3 | ext_y:3 | ext_x:3 |
    /// group_len:6 | pages_per_node:6]`, 79 bits total, vpage most
    /// significant — checked field by field against independent masks,
    /// not just by round-trip.
    #[test]
    fn gdt_entry_fields_land_at_fig8_positions(
        vpage in 0u64..(1 << 42),
        sx in 0u8..8, sy in 0u8..8, sz in 0u8..8,
        ex in 0u8..8, ey in 0u8..8, ez in 0u8..8,
        glen in 0u8..64,
        ppn in 0u8..64,
    ) {
        let start = NodeCoord::new(sx, sy, sz);
        let e = GdtEntry::new(vpage, start, (ex, ey, ez), glen, ppn);
        let bits = e.encode();
        prop_assert_eq!((bits & 63) as u8, ppn, "pages/node in bits 5:0");
        prop_assert_eq!(((bits >> 6) & 63) as u8, glen, "group length in bits 11:6");
        prop_assert_eq!(((bits >> 12) & 7) as u8, ex, "X extent in bits 14:12");
        prop_assert_eq!(((bits >> 15) & 7) as u8, ey, "Y extent in bits 17:15");
        prop_assert_eq!(((bits >> 18) & 7) as u8, ez, "Z extent in bits 20:18");
        prop_assert_eq!(
            ((bits >> 21) & 0xFFFF) as u64, start.encode(),
            "starting node in bits 36:21"
        );
        prop_assert_eq!(((bits >> 37) & ((1 << 42) - 1)) as u64, vpage, "vpage on top");
        prop_assert_eq!(bits >> 79, 0, "nothing above bit 78");
        prop_assert_eq!(GdtEntry::decode(bits), e);
    }

    /// Translation at the page-group's boundaries: the first and last
    /// word of the group map; one word past the end (and one before the
    /// start, for non-zero vpages) does not; the last page of one
    /// node's run and the first page of the next node's run land on
    /// different (adjacent-index) nodes.
    #[test]
    fn gtlb_translate_region_boundaries(
        vpage in 0u64..1024,
        ex in 0u8..3, ey in 0u8..3,
        ppn_log2 in 0u8..3,
        extra in 0u8..4,
    ) {
        // Group strictly larger than one node-run so a run boundary
        // exists inside it.
        let glen = ppn_log2 + 1 + extra;
        let e = GdtEntry::new(vpage, NodeCoord::new(0, 0, 0), (ex, ey, 0), glen, ppn_log2);
        let first = vpage * GLOBAL_PAGE_WORDS;
        let last = first + e.group_pages() * GLOBAL_PAGE_WORDS - 1;
        prop_assert!(e.translate(first).is_some(), "first word of the group");
        prop_assert!(e.translate(last).is_some(), "last word of the group");
        prop_assert_eq!(e.translate(last + 1), None, "one past the end");
        if vpage > 0 {
            prop_assert_eq!(e.translate(first - 1), None, "one before the start");
        }
        // Run boundary: pages k*2^ppn - 1 and k*2^ppn sit on different
        // nodes whenever the region has more than one node.
        let run = 1u64 << ppn_log2;
        let before = e.translate(first + (run * GLOBAL_PAGE_WORDS - 1)).unwrap();
        let after = e.translate(first + run * GLOBAL_PAGE_WORDS).unwrap();
        if e.region_nodes() > 1 {
            prop_assert!(before != after, "run boundary must switch nodes");
        } else {
            prop_assert_eq!(before, after, "single-node region never switches");
        }
        // Cyclic wrap: one full sweep of the region returns to the start
        // node when the group is long enough to wrap.
        let sweep = e.region_nodes() * run;
        if e.group_pages() > sweep {
            let wrapped = e.translate(first + sweep * GLOBAL_PAGE_WORDS).unwrap();
            prop_assert_eq!(wrapped, before_run_start(&e, first), "cyclic wrap");
        }
    }

    /// Under random traffic, every injected message is eventually either
    /// consumed or returned — nothing is lost or duplicated, and credits
    /// are conserved.
    #[test]
    fn traffic_conservation(
        sends in prop::collection::vec((0u8..2, 0u8..2, 0usize..3), 1..40),
    ) {
        let dims = (2u8, 2u8, 1u8);
        let mut fabric = Fabric::new(FabricConfig { dims, hop_latency: 2, loopback_latency: 2 });
        let mut nodes: Vec<NodeNet> = Vec::new();
        let cfg = IfaceConfig {
            msg_queue_capacity: 2, // force some returns
            send_credits: 64,
            ..IfaceConfig::default()
        };
        for y in 0..dims.1 {
            for x in 0..dims.0 {
                let mut n = NodeNet::new(NodeCoord::new(x, y, 0), cfg.clone());
                // Page p → node (p%2, (p/2)%2, 0), cyclic.
                n.gtlb_mut().add_entry(GdtEntry::new(
                    0, NodeCoord::new(0, 0, 0), (1, 1, 0), 8, 0,
                ));
                nodes.push(n);
            }
        }
        let idx = |c: NodeCoord| usize::from(c.y) * 2 + usize::from(c.x);

        let mut injected = 0u64;
        let mut staged = Vec::new();
        for (i, &(src, page, body)) in sends.iter().enumerate() {
            let n = &mut nodes[usize::from(src)];
            let out = n.send(
                Word::from_u64(i as u64),
                Word::from_u64(u64::from(page) * GLOBAL_PAGE_WORDS),
                u64::from(page) * GLOBAL_PAGE_WORDS,
                std::iter::repeat_n(Word::ZERO, body).collect(),
                Priority::P0,
            );
            prop_assert!(matches!(out, mm_net::iface::SendOutcome::Sent(_)));
            injected += 1;
            n.drain_outbox_into(&mut staged);
            for p in staged.drain(..) {
                fabric.inject(i as u64, p);
            }
        }

        // Pump until quiescent.
        let mut cycle = 0u64;
        let mut arrived = Vec::new();
        while !fabric.is_idle() {
            prop_assert!(cycle < 100_000, "network did not quiesce");
            arrived.clear();
            fabric.deliveries_into(cycle, &mut arrived);
            for p in &arrived {
                let d = idx(p.dest());
                nodes[d].deliver(p);
                nodes[d].drain_outbox_into(&mut staged);
                for out in staged.drain(..) {
                    fabric.inject(cycle, out);
                }
            }
            cycle += 1;
        }

        let consumed: u64 = nodes
            .iter()
            .map(|n| n.queue_len(Priority::P0) as u64)
            .sum();
        let returned: u64 = nodes.iter().map(|n| n.returned_len() as u64).sum();
        prop_assert_eq!(consumed + returned, injected, "messages lost or duplicated");
    }

    /// The slab fabric against the whole-packet queue it replaced, over
    /// random interleavings of injection (plain and delayed), owned
    /// delivery, in-place windows that inject while holding popped
    /// slots, and checkpoint round trips: the same `(cycle, packet)`
    /// deliveries, statistics, per-link flit counts and checkpoint
    /// bytes, and a slab never larger than the most packets ever held at
    /// once.
    #[test]
    fn slab_fabric_matches_the_packet_queue(ops in prop::collection::vec(fabric_op(), 1..120)) {
        let cfg = FabricConfig { dims: SLAB_DIMS, hop_latency: 2, loopback_latency: 2 };
        let mut slab = Fabric::new(cfg.clone());
        let mut model = QueueFabric::new(cfg.clone());
        let (mut now, mut tag, mut peak) = (0u64, 0u64, 0usize);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for op in ops {
            match op {
                FabricOp::Inject { advance, src, dest, kind, body, p1, delay } => {
                    now += advance;
                    tag += 1;
                    let p = slab_packet(src, dest, kind, body, p1, tag);
                    let at = if delay == 0 {
                        slab.inject(now, p.clone())
                    } else {
                        slab.inject_delayed(now, p.clone(), delay)
                    };
                    prop_assert_eq!(at, model.inject_delayed(now, p, delay));
                }
                FabricOp::Deliver { advance } => {
                    now += advance;
                    got.clear();
                    slab.deliveries_into(now, &mut got);
                    want.clear();
                    model.in_flight.drain_due_into(now, &mut want);
                    prop_assert_eq!(&got, &want, "deliveries at {}", now);
                }
                FabricOp::Window { advance, inject } => {
                    now += advance;
                    let mut held = Vec::new();
                    while let Some(slot) = slab.pop_due(now) {
                        let p = model.in_flight.pop_due(now);
                        prop_assert_eq!(slab.slab().get(slot as usize), p.as_ref(), "pop at {}", now);
                        held.push((slot, p.unwrap()));
                    }
                    prop_assert_eq!(model.in_flight.pop_due(now), None);
                    peak = peak.max(model.in_flight.len() + held.len());
                    for k in 0..inject {
                        tag += 1;
                        let p = slab_packet(k, (k + 7) % 12, k % 4, usize::from(k), k % 2 == 0, tag);
                        let at = slab.inject(now, p.clone());
                        prop_assert_eq!(at, model.inject_delayed(now, p, 0));
                        peak = peak.max(model.in_flight.len() + held.len());
                    }
                    // Held slots were not handed to the new injections.
                    for (slot, p) in &held {
                        prop_assert_eq!(&slab.slab()[*slot as usize], p);
                    }
                    for (slot, _) in held {
                        slab.release(slot);
                    }
                }
                FabricOp::SaveLoad => {
                    let bytes = fabric_bytes(|e| slab.save_state(e));
                    prop_assert_eq!(&bytes, &fabric_bytes(|e| model.save_state(e)));
                    let mut fresh = Fabric::new(cfg.clone());
                    let mut d = Dec::new(&bytes);
                    fresh.load_state(&mut d).expect("a saved fabric loads");
                    prop_assert_eq!(d.remaining(), 0);
                    slab = fresh;
                }
            }
            peak = peak.max(model.in_flight.len());
            prop_assert!(slab.slab().len() <= peak, "slab {} > peak {}", slab.slab().len(), peak);
            prop_assert_eq!(slab.stats(), model.stats);
            prop_assert_eq!(slab.link_flits(), &model.link_flits[..]);
            prop_assert_eq!(slab.flit_hops(), model.flit_hops);
            prop_assert_eq!(slab.next_delivery(), model.in_flight.next_ready());
            prop_assert_eq!(slab.is_idle(), model.in_flight.is_empty());
        }
        prop_assert_eq!(
            fabric_bytes(|e| slab.save_state(e)),
            fabric_bytes(|e| model.save_state(e))
        );
    }
}
