//! The bidirectional 3-D mesh fabric.
//!
//! Routing is dimension-order (X, then Y, then Z), which is deadlock-free
//! on a mesh; the two message priorities ride separate virtual channels so
//! replies can always drain past blocked requests (§4.1). Timing follows a
//! virtual cut-through model: the head flit advances one hop per
//! `hop_latency` cycles (waiting for the link's virtual channel to free),
//! and delivery completes when the tail flit arrives — a 3-word message to
//! a neighbour lands in 5 cycles, matching §4.2's "Message delivered to
//! remote node (5 cycles)".

use crate::message::{NodeCoord, Packet};
use mm_faults::{ckpt_struct, Ckpt, CkptError, Dec, Enc};
use mm_sched::ReadyQueue;
use std::borrow::Borrow;

/// A mesh direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// +X
    XPlus,
    /// −X
    XMinus,
    /// +Y
    YPlus,
    /// −Y
    YMinus,
    /// +Z
    ZPlus,
    /// −Z
    ZMinus,
}

/// Directions per node (the six mesh links).
pub const NUM_DIRS: usize = 6;

impl Dir {
    /// Dense index 0..6 for table-addressed per-link state.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Dir::XPlus => 0,
            Dir::XMinus => 1,
            Dir::YPlus => 2,
            Dir::YMinus => 3,
            Dir::ZPlus => 4,
            Dir::ZMinus => 5,
        }
    }
}

/// Fabric configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricConfig {
    /// Mesh dimensions (X, Y, Z).
    pub dims: (u8, u8, u8),
    /// Cycles for the head flit to cross one router + link.
    pub hop_latency: u64,
    /// Cycles for a loopback (self-addressed) delivery.
    pub loopback_latency: u64,
}

impl Default for FabricConfig {
    fn default() -> FabricConfig {
        FabricConfig {
            dims: (2, 1, 1),
            hop_latency: 2,
            loopback_latency: 2,
        }
    }
}

/// Fabric statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Packets injected.
    pub packets: u64,
    /// Total flits carried.
    pub flits: u64,
    /// Sum over packets of delivery latency (cycles).
    pub total_latency: u64,
    /// Cycles head flits spent blocked on busy links.
    pub contention_cycles: u64,
    /// Total hops traversed.
    pub hops: u64,
    /// Coherence protocol packets (subset of `packets`): every §4.3
    /// fetch/grant/invalidate/writeback crossing the fabric.
    pub coh_packets: u64,
}

ckpt_struct! { FabricStats { packets, flits, total_latency, contention_cycles, hops, coh_packets } }

/// The mesh interconnect.
#[derive(Debug, Clone)]
pub struct Fabric {
    cfg: FabricConfig,
    /// Per (node, outgoing direction, priority) cycle at which the link's
    /// virtual channel frees. Index-addressed (`linear node × Dir ×
    /// priority`) rather than hash-keyed: no hashing on the per-hop hot
    /// path, and iteration order is trivially deterministic.
    link_free: Vec<u64>,
    /// Every packet in flight, one slot each from injection until the
    /// receiver releases it (see [`Fabric::pop_due`]). A packet is
    /// written here once and read in place; only its slot number moves.
    slab: Vec<Packet>,
    /// Released slots, reused before the slab grows, so the slab never
    /// outgrows the peak number of packets in flight.
    free: Vec<u32>,
    /// Slots awaiting delivery, popped in `(deliver_at, injection
    /// order)` — the same order the old scan-and-sort produced, with an
    /// O(1) next-delivery deadline for the cycle engine. Heap sifts move
    /// a slot number, not a packet.
    in_flight: ReadyQueue<u32>,
    stats: FabricStats,
    /// Flits carried per (node, direction, priority) virtual channel,
    /// same indexing as `link_free`. Telemetry-only: kept outside
    /// `FabricStats` so the struct the differential harness compares
    /// bit-for-bit is untouched. Feeds the `mmctl` fabric heatmap.
    link_flits: Vec<u64>,
}

impl Fabric {
    /// An idle fabric.
    // analyze: cold (fabric construction, once per machine)
    #[must_use]
    pub fn new(cfg: FabricConfig) -> Fabric {
        let nodes = usize::from(cfg.dims.0) * usize::from(cfg.dims.1) * usize::from(cfg.dims.2);
        Fabric {
            link_free: vec![0; nodes * NUM_DIRS * 2],
            link_flits: vec![0; nodes * NUM_DIRS * 2],
            cfg,
            slab: Vec::new(),
            free: Vec::new(),
            in_flight: ReadyQueue::new(),
            stats: FabricStats::default(),
        }
    }

    /// Dense index of the (node, direction, priority) virtual channel.
    fn link_index(&self, node: NodeCoord, dir: Dir, pri: usize) -> usize {
        let linear = usize::from(node.x)
            + usize::from(self.cfg.dims.0)
                * (usize::from(node.y) + usize::from(self.cfg.dims.1) * usize::from(node.z));
        (linear * NUM_DIRS + dir.index()) * 2 + pri
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// Statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> FabricStats {
        self.stats
    }

    /// Total flit-hops carried over mesh links so far: the wrapping sum
    /// of [`Fabric::link_flits`] (a telemetry counter, kept out of
    /// [`FabricStats`] on purpose).
    #[must_use]
    pub fn flit_hops(&self) -> u64 {
        self.link_flits
            .iter()
            .fold(0, |sum, &f| sum.wrapping_add(f))
    }

    /// Flits carried per virtual channel, indexed `(linear node ×
    /// NUM_DIRS + direction) × 2 + priority` — the raw data behind the
    /// `mmctl` fabric heatmap.
    #[must_use]
    pub fn link_flits(&self) -> &[u64] {
        &self.link_flits
    }

    /// Number of virtual channels in the mesh (`nodes × NUM_DIRS × 2`).
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.link_free.len()
    }

    /// Total nodes in the mesh.
    #[must_use]
    pub fn node_count(&self) -> usize {
        usize::from(self.cfg.dims.0) * usize::from(self.cfg.dims.1) * usize::from(self.cfg.dims.2)
    }

    /// Is `c` a valid coordinate in this mesh?
    #[must_use]
    pub fn contains(&self, c: NodeCoord) -> bool {
        c.x < self.cfg.dims.0 && c.y < self.cfg.dims.1 && c.z < self.cfg.dims.2
    }

    /// The next dimension-order hop from `cur` toward `dest` (`cur` ≠
    /// `dest`): the outgoing direction and the neighbour it reaches.
    fn next_hop(cur: NodeCoord, dest: NodeCoord) -> (Dir, NodeCoord) {
        let mut next = cur;
        let dir = if cur.x != dest.x {
            if dest.x > cur.x {
                next.x += 1;
                Dir::XPlus
            } else {
                next.x -= 1;
                Dir::XMinus
            }
        } else if cur.y != dest.y {
            if dest.y > cur.y {
                next.y += 1;
                Dir::YPlus
            } else {
                next.y -= 1;
                Dir::YMinus
            }
        } else if dest.z > cur.z {
            next.z += 1;
            Dir::ZPlus
        } else {
            next.z -= 1;
            Dir::ZMinus
        };
        (dir, next)
    }

    /// The dimension-order route from `src` to `dest` (diagnostics and
    /// tests; the injection hot path walks `next_hop` directly
    /// without materializing the route).
    // analyze: cold (diagnostic/test view; injection uses next_hop)
    #[must_use]
    pub fn route(src: NodeCoord, dest: NodeCoord) -> Vec<(NodeCoord, Dir)> {
        let mut hops = Vec::new();
        let mut cur = src;
        while cur != dest {
            let (dir, next) = Self::next_hop(cur, dest);
            hops.push((cur, dir));
            cur = next;
        }
        hops
    }

    /// Inject a packet at cycle `now`; returns its delivery cycle.
    ///
    /// Injection order is the fabric's arbitration order: link
    /// virtual-channel reservations are resolved eagerly per call, so
    /// two packets contending for a link are serialized by who was
    /// injected first. Callers that collect packets out of order (the
    /// machine's window walk logs each node's sends) must inject them in
    /// a fixed order — the machine replays them cycle by cycle, by node
    /// index and delivery order.
    ///
    /// The packet is copied once, straight into its slab slot, so a
    /// caller that keeps its packets elsewhere (the machine's window
    /// log) lends them; owned packets are accepted too.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is outside the mesh.
    pub fn inject(&mut self, now: u64, packet: impl Borrow<Packet>) -> u64 {
        self.inject_delayed(now, packet, 0)
    }

    /// [`Fabric::inject`] with `extra` cycles of router delay tacked
    /// onto the delivery — the fault injector's delayed-packet path.
    /// `extra == 0` is exactly `inject`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is outside the mesh.
    pub fn inject_delayed(&mut self, now: u64, packet: impl Borrow<Packet>, extra: u64) -> u64 {
        let packet = packet.borrow();
        let src = packet.src();
        let dest = packet.dest();
        assert!(self.contains(src), "source {src} outside mesh");
        assert!(self.contains(dest), "destination {dest} outside mesh");
        let flits = packet.wire_flits();
        let pri = packet.priority().index();

        let deliver_at = extra
            + if src == dest {
                now + self.cfg.loopback_latency + flits
            } else {
                let mut t_head = now;
                let mut cur = src;
                let mut hops = 0u64;
                while cur != dest {
                    let (dir, next) = Self::next_hop(cur, dest);
                    let link = self.link_index(cur, dir, pri);
                    let free = self.link_free[link];
                    let earliest = t_head + self.cfg.hop_latency;
                    let actual = earliest.max(free);
                    self.stats.contention_cycles += actual - earliest;
                    t_head = actual;
                    self.link_free[link] = t_head + flits;
                    self.link_flits[link] += flits;
                    cur = next;
                    hops += 1;
                }
                self.stats.hops += hops;
                t_head + flits
            };

        self.stats.packets += 1;
        if matches!(packet, Packet::Coh(_)) {
            self.stats.coh_packets += 1;
        }
        self.stats.flits += flits;
        self.stats.total_latency += deliver_at - now;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = packet.clone();
                slot
            }
            None => {
                let slot =
                    u32::try_from(self.slab.len()).expect("fewer than 2^32 packets in flight");
                self.slab.push(packet.clone());
                slot
            }
        };
        self.in_flight.push(deliver_at, slot);
        deliver_at
    }

    /// Take the next packet due by cycle `now` out of the delivery order
    /// and return its slot, or `None` when nothing (further) is due.
    /// Slots pop in (time, inject order) — deterministic delivery, no
    /// per-cycle allocation or sort. The packet stays readable in place
    /// in [`Fabric::slab`] until the caller hands the slot back with
    /// [`Fabric::release`]; until then no injection can reuse it.
    pub fn pop_due(&mut self, now: u64) -> Option<u32> {
        self.in_flight.pop_due(now)
    }

    /// Every slot's packet, indexed by slot number. Only slots popped
    /// and not yet released (or still in flight) hold live packets.
    #[must_use]
    pub fn slab(&self) -> &[Packet] {
        &self.slab
    }

    /// Every packet in flight, in delivery order (a restore validates
    /// them).
    // analyze: cold (restore validation, never on the cycle path)
    pub fn in_flight(&self) -> impl Iterator<Item = &Packet> + '_ {
        let order = self.in_flight.snapshot();
        order
            .into_iter()
            .map(|(_, &slot)| &self.slab[slot as usize])
    }

    /// Hand a slot returned by [`Fabric::pop_due`] back for reuse, once
    /// its packet has been read for the last time.
    pub fn release(&mut self, slot: u32) {
        debug_assert!(
            (slot as usize) < self.slab.len(),
            "slot {slot} never allocated"
        );
        self.free.push(slot);
    }

    /// Append a copy of every packet due by cycle `now` to `out`, in
    /// (time, inject order), releasing their slots — the owned form of
    /// [`Fabric::pop_due`] for callers that keep the packets.
    pub fn deliveries_into(&mut self, now: u64, out: &mut Vec<Packet>) {
        while let Some(slot) = self.pop_due(now) {
            out.push(self.slab[slot as usize].clone());
            self.release(slot);
        }
    }

    /// Any packets still in flight?
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// Earliest pending delivery cycle, if any (lets run loops skip idle
    /// cycles). O(1): the in-flight queue keeps its minimum at the top.
    #[must_use]
    pub fn next_delivery(&self) -> Option<u64> {
        self.in_flight.next_ready()
    }

    /// The earliest cycle at which the fabric can do work — the next
    /// pending delivery. The fabric has no per-cycle internal state
    /// (link timing is resolved eagerly at injection), so this is the
    /// whole of its quiescence contract for the cycle engine.
    #[must_use]
    pub fn next_activity(&self) -> Option<u64> {
        self.next_delivery()
    }

    /// Serialize link reservations, in-flight packets (in delivery
    /// order), statistics and telemetry counters into a checkpoint
    /// stream. Configuration is not written — restore targets an
    /// identically-built fabric.
    pub fn save_state(&self, e: &mut Enc) {
        self.link_free.save(e);
        let snap = self.in_flight.snapshot();
        e.usize(snap.len());
        for (at, &slot) in snap {
            e.u64(at);
            self.slab[slot as usize].save(e);
        }
        self.stats.save(e);
        self.link_flits.save(e);
        self.flit_hops().save(e);
    }

    /// Restore state saved by [`Fabric::save_state`].
    ///
    /// # Errors
    ///
    /// [`CkptError`] on truncated input, a link-table size mismatch (the
    /// checkpoint came from a different mesh) or an in-flight packet
    /// with an endpoint outside this mesh.
    // analyze: cold (checkpoint restore, never on the cycle path)
    pub fn load_state(&mut self, d: &mut Dec<'_>) -> Result<(), CkptError> {
        let link_free = Vec::load(d)?;
        if link_free.len() != self.link_free.len() {
            return Err(CkptError(format!(
                "fabric link table mismatch: checkpoint has {} VCs, mesh has {}",
                link_free.len(),
                self.link_free.len()
            )));
        }
        self.link_free = link_free;
        // The slab is rebuilt in delivery order: slot i holds the i-th
        // packet to be delivered.
        let in_flight = Vec::<(u64, Packet)>::load(d)?;
        self.slab.clear();
        self.free.clear();
        let mut order = Vec::with_capacity(in_flight.len());
        for (i, (at, p)) in in_flight.into_iter().enumerate() {
            if !self.contains(p.src()) || !self.contains(p.dest()) {
                let (x, y, z) = self.cfg.dims;
                return Err(CkptError(format!(
                    "in-flight packet {i} runs {} -> {}, outside the {x}x{y}x{z} mesh",
                    p.src(),
                    p.dest()
                )));
            }
            let slot =
                u32::try_from(i).map_err(|_| CkptError("over 2^32 packets in flight".into()))?;
            order.push((at, slot));
            self.slab.push(p);
        }
        self.in_flight.restore(order);
        self.stats = FabricStats::load(d)?;
        let link_flits = Vec::load(d)?;
        if link_flits.len() != self.link_flits.len() {
            return Err(CkptError(format!(
                "fabric flit table mismatch: checkpoint has {} VCs, mesh has {}",
                link_flits.len(),
                self.link_flits.len()
            )));
        }
        self.link_flits = link_flits;
        d.copy_of("flit-hop total", self.flit_hops())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;
    use mm_isa::op::Priority;
    use mm_isa::word::Word;

    fn fabric(x: u8, y: u8, z: u8) -> Fabric {
        Fabric::new(FabricConfig {
            dims: (x, y, z),
            ..FabricConfig::default()
        })
    }

    fn msg(src: NodeCoord, dest: NodeCoord, body: usize, pri: Priority) -> Packet {
        Packet::User(Message {
            priority: pri,
            src,
            dest,
            dip: Word::from_u64(1),
            addr: Word::from_u64(2),
            body: std::iter::repeat_n(Word::ZERO, body).collect(),
            wire: Default::default(),
        })
    }

    /// The packets due by `now`, owned.
    fn due(f: &mut Fabric, now: u64) -> Vec<Packet> {
        let mut out = Vec::new();
        f.deliveries_into(now, &mut out);
        out
    }

    /// An in-flight fabric round-trips through the checkpoint codec and
    /// delivers the same packets at the same cycles.
    #[test]
    fn fabric_state_round_trips() {
        let mut f = fabric(3, 1, 1);
        let a = NodeCoord::new(0, 0, 0);
        f.inject(0, msg(a, NodeCoord::new(2, 0, 0), 1, Priority::P0));
        f.inject(0, msg(a, NodeCoord::new(1, 0, 0), 1, Priority::P0));
        let mut e = Enc::new();
        f.save_state(&mut e);
        let bytes = e.finish();
        let mut g = fabric(3, 1, 1);
        let mut d = Dec::new(&bytes);
        g.load_state(&mut d).expect("load");
        assert_eq!(d.remaining(), 0);
        assert_eq!(g.stats(), f.stats());
        assert_eq!(g.next_delivery(), f.next_delivery());
        assert_eq!(g.flit_hops(), f.flit_hops());
        let (df, dg) = (due(&mut f, 100), due(&mut g, 100));
        assert_eq!(df.len(), 2);
        assert_eq!(df, dg);
        assert!(f.is_idle() && g.is_idle());
        // A different mesh refuses the checkpoint.
        assert!(fabric(2, 1, 1).load_state(&mut Dec::new(&bytes)).is_err());
    }

    /// A checkpoint whose in-flight packet names a node outside the mesh
    /// is refused at load, not dropped or panicked on at delivery.
    #[test]
    fn load_refuses_out_of_mesh_packets() {
        let f = fabric(2, 1, 1);
        let mut e = Enc::new();
        f.save_state(&mut e);
        let clean = e.finish();
        // Splice one hand-encoded packet into the empty in-flight list:
        // its count follows the link table (a count, one word per VC).
        let at = 8 + 8 * f.link_count();
        let with_packet = |dest: NodeCoord| {
            let mut e = Enc::new();
            e.usize(1);
            e.u64(7);
            msg(NodeCoord::new(0, 0, 0), dest, 1, Priority::P0).save(&mut e);
            let mut bytes = clean[..at].to_vec();
            bytes.extend_from_slice(&e.finish());
            bytes.extend_from_slice(&clean[at + 8..]);
            bytes
        };
        let mut g = fabric(2, 1, 1);
        let err = g
            .load_state(&mut Dec::new(&with_packet(NodeCoord::new(0, 3, 0))))
            .expect_err("out-of-mesh packet");
        assert!(err.0.contains("outside the 2x1x1 mesh"), "{err:?}");
        // The same packet addressed inside the mesh loads.
        g.load_state(&mut Dec::new(&with_packet(NodeCoord::new(1, 0, 0))))
            .expect("in-mesh packet loads");
        assert_eq!(g.next_delivery(), Some(7));
    }

    /// Delayed injection shifts delivery without touching arbitration.
    #[test]
    fn inject_delayed_shifts_delivery() {
        let mut f = fabric(2, 1, 1);
        let a = NodeCoord::new(0, 0, 0);
        let b = NodeCoord::new(1, 0, 0);
        let t = f.inject_delayed(0, msg(a, b, 1, Priority::P0), 40);
        assert_eq!(t, 45, "5-cycle route + 40 router-fault cycles");
        assert_eq!(f.next_delivery(), Some(45));
    }

    #[test]
    fn neighbour_three_word_message_takes_five_cycles() {
        let mut f = fabric(2, 1, 1);
        let t = f.inject(
            0,
            msg(
                NodeCoord::new(0, 0, 0),
                NodeCoord::new(1, 0, 0),
                1,
                Priority::P0,
            ),
        );
        assert_eq!(t, 5, "paper §4.2: 5 cycles to a neighbour");
    }

    #[test]
    fn latency_scales_with_hops() {
        let mut f = fabric(4, 4, 4);
        let a = NodeCoord::new(0, 0, 0);
        let t1 = f.inject(0, msg(a, NodeCoord::new(1, 0, 0), 1, Priority::P0));
        let t3 = f.inject(0, msg(a, NodeCoord::new(3, 3, 3), 1, Priority::P1));
        assert_eq!(t1, 2 + 3);
        assert_eq!(t3, 9 * 2 + 3);
    }

    #[test]
    fn route_is_dimension_order_and_minimal() {
        let r = Fabric::route(NodeCoord::new(0, 2, 1), NodeCoord::new(2, 0, 3));
        assert_eq!(r.len(), 6);
        // X first, then Y, then Z.
        assert!(matches!(r[0].1, Dir::XPlus));
        assert!(matches!(r[1].1, Dir::XPlus));
        assert!(matches!(r[2].1, Dir::YMinus));
        assert!(matches!(r[3].1, Dir::YMinus));
        assert!(matches!(r[4].1, Dir::ZPlus));
        assert!(matches!(r[5].1, Dir::ZPlus));
    }

    #[test]
    fn contention_serializes_same_link() {
        let mut f = fabric(2, 1, 1);
        let a = NodeCoord::new(0, 0, 0);
        let b = NodeCoord::new(1, 0, 0);
        let t1 = f.inject(0, msg(a, b, 1, Priority::P0));
        let t2 = f.inject(0, msg(a, b, 1, Priority::P0));
        assert_eq!(t1, 5);
        assert!(t2 > t1, "second message must queue behind the first");
        assert!(f.stats().contention_cycles > 0);
    }

    #[test]
    fn priorities_do_not_block_each_other() {
        let mut f = fabric(2, 1, 1);
        let a = NodeCoord::new(0, 0, 0);
        let b = NodeCoord::new(1, 0, 0);
        let _ = f.inject(0, msg(a, b, 5, Priority::P0));
        let t_reply = f.inject(0, msg(a, b, 1, Priority::P1));
        assert_eq!(t_reply, 5, "P1 rides its own virtual channel");
    }

    #[test]
    fn deliveries_drain_in_order() {
        let mut f = fabric(3, 1, 1);
        let a = NodeCoord::new(0, 0, 0);
        // Both messages share the first link, so the second (shorter) one
        // queues behind the first: deliveries at 7 and 8.
        f.inject(0, msg(a, NodeCoord::new(2, 0, 0), 1, Priority::P0));
        f.inject(0, msg(a, NodeCoord::new(1, 0, 0), 1, Priority::P0));
        assert!(due(&mut f, 6).is_empty());
        assert!(!f.is_idle());
        let d7 = due(&mut f, 7);
        assert_eq!(d7.len(), 1);
        assert_eq!(d7[0].dest(), NodeCoord::new(2, 0, 0));
        let rest = due(&mut f, 100);
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].dest(), NodeCoord::new(1, 0, 0));
        assert!(f.is_idle());
    }

    #[test]
    fn loopback_supported() {
        let mut f = fabric(1, 1, 1);
        let a = NodeCoord::new(0, 0, 0);
        let t = f.inject(0, msg(a, a, 1, Priority::P0));
        assert_eq!(t, 2 + 3);
    }

    #[test]
    fn per_link_flit_counters_track_route_and_skip_loopback() {
        let mut f = fabric(3, 1, 1);
        let a = NodeCoord::new(0, 0, 0);
        // 1-word body → 4 wire flits, 2 hops: 8 flit-hops total.
        f.inject(0, msg(a, NodeCoord::new(2, 0, 0), 1, Priority::P0));
        let flits = f.stats().flits;
        assert_eq!(f.flit_hops(), 2 * flits);
        let busy: Vec<usize> = (0..f.link_count())
            .filter(|&i| f.link_flits()[i] > 0)
            .collect();
        assert_eq!(busy.len(), 2, "one VC per hop on the X route");
        assert_eq!(f.link_flits()[busy[0]], flits);
        // Loopback never touches a mesh link.
        f.inject(10, msg(a, a, 1, Priority::P0));
        assert_eq!(f.flit_hops(), 2 * flits);
    }

    #[test]
    fn next_delivery_hint() {
        let mut f = fabric(2, 1, 1);
        assert_eq!(f.next_delivery(), None);
        f.inject(
            0,
            msg(
                NodeCoord::new(0, 0, 0),
                NodeCoord::new(1, 0, 0),
                1,
                Priority::P0,
            ),
        );
        assert_eq!(f.next_delivery(), Some(5));
    }

    #[test]
    #[should_panic(expected = "outside mesh")]
    fn rejects_out_of_mesh() {
        let mut f = fabric(2, 1, 1);
        f.inject(
            0,
            msg(
                NodeCoord::new(0, 0, 0),
                NodeCoord::new(0, 5, 0),
                1,
                Priority::P0,
            ),
        );
    }
}
