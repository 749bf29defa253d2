//! The per-node network interface: register-mapped message queues, the
//! GTLB on the output side, and the return-to-sender throttling counter.
//!
//! "Arriving messages are queued in a register-mapped hardware FIFO
//! readable by a system-level message handler. Two network priorities are
//! provided" (§2). On the output side, a SEND first translates its
//! destination virtual address through the GTLB; the node's credit counter
//! implements the throttling protocol of §4.1.

use crate::gtlb::Gtlb;
use crate::message::{Message, MsgBody, NodeCoord, Packet};
use mm_faults::{ckpt_struct, Ckpt, CkptError, Dec, Enc};
use mm_isa::op::Priority;
use mm_isa::word::Word;
use std::borrow::Borrow;
use std::collections::{BTreeMap, VecDeque};

/// Interface configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IfaceConfig {
    /// Messages each priority queue can hold before returning to sender.
    pub msg_queue_capacity: usize,
    /// Initial send credits (= reserved return-buffer slots, §4.1).
    pub send_credits: u32,
    /// Cached GTLB entries.
    pub gtlb_capacity: usize,
}

impl Default for IfaceConfig {
    fn default() -> IfaceConfig {
        IfaceConfig {
            msg_queue_capacity: 16,
            send_credits: 16,
            gtlb_capacity: 16,
        }
    }
}

/// Result of a SEND attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Injected; the value is the fabric delivery cycle.
    Sent(u64),
    /// The credit counter is zero — "threads attempting to execute a SEND
    /// instruction will stall" (§4.1).
    NoCredit,
    /// The GTLB has no mapping for the destination address — the sending
    /// thread faults before the message leaves (§4.1 protection).
    Unmapped,
}

/// Interface statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IfaceStats {
    /// User messages sent.
    pub sent: u64,
    /// Messages accepted into the local queues.
    pub received: u64,
    /// SENDs stalled for lack of credit.
    pub credit_stalls: u64,
    /// Messages bounced back to their senders (queue full here).
    pub returned_here: u64,
    /// Our messages that came back and await software resend.
    pub returns_received: u64,
    /// Coherence protocol messages sent from this interface.
    pub coh_sent: u64,
    /// Coherence protocol messages accepted into the handler queue.
    pub coh_received: u64,
    /// Messages NACKed back to their senders on checksum mismatch
    /// (fault injection corrupted or truncated them in flight).
    pub crc_nacks: u64,
    /// Duplicate retransmissions dropped by the idempotent-receive
    /// window (the original was already applied).
    pub dup_drops: u64,
}

/// One sender's idempotent-receive window: every sequence number at or
/// below `floor` has been applied; `above` holds the (few, sorted)
/// applied sequence numbers past a gap. Gaps are real — a §4.1 bounce
/// retries out of order relative to later sends — but bounded by the
/// sender's credit allowance, so `above` stays small.
#[derive(Debug, Clone, Default)]
struct SrcWindow {
    floor: u64,
    above: Vec<u64>,
}

impl SrcWindow {
    /// Record `seq` as applied. Returns `false` (and records nothing)
    /// when it was already applied — a duplicate delivery.
    fn mark(&mut self, seq: u64) -> bool {
        if seq <= self.floor {
            return false;
        }
        match self.above.binary_search(&seq) {
            Ok(_) => false,
            Err(i) => {
                self.above.insert(i, seq);
                while self.above.first() == Some(&(self.floor + 1)) {
                    self.floor += 1;
                    self.above.remove(0);
                }
                true
            }
        }
    }
}

/// One priority's register-mapped FIFO, word-granular like the real
/// `Rnet` head register.
#[derive(Debug, Clone, Default)]
struct MsgQueue {
    words: VecDeque<(Word, bool)>, // (word, is-last-of-message)
    /// Whole messages queued: the last-word flags in `words`, counted.
    messages: usize,
}

ckpt_struct! {
    MsgQueue { words, messages }
    SrcWindow { floor, above }
    IfaceStats {
        sent, received, credit_stalls, returned_here, returns_received, coh_sent, coh_received,
        crc_nacks, dup_drops
    }
}

/// The node's network interface.
#[derive(Debug, Clone)]
pub struct NodeNet {
    coord: NodeCoord,
    cfg: IfaceConfig,
    gtlb: Gtlb,
    queues: [MsgQueue; 2],
    credits: u32,
    returned: VecDeque<Message>,
    outbox: Vec<Packet>,
    /// Arrived coherence protocol messages awaiting the node's class-0
    /// handler (§4.3). Unbounded: the resident handler drains it every
    /// cycle the node steps, so it never backs up the way the bounded
    /// user queues can; injection is throttled at the *sender* by the
    /// credit counter instead (P0 requests consume a credit like user
    /// SENDs).
    coh_in: VecDeque<Message>,
    stats: IfaceStats,
    /// Monotonic sequence number stamped on outgoing user messages.
    /// Always assigned (one increment per send); only ever *consulted*
    /// by the fault-armed checked delivery path.
    next_seq: u64,
    /// Per-sender idempotent-receive windows, keyed by encoded source
    /// coordinate. Empty (no allocation) until the first checked
    /// delivery records a sequence number.
    dedup: BTreeMap<u64, SrcWindow>,
}

// Staged sends accumulate in per-node outboxes while the machine's
// sharded engine steps nodes on worker threads; the interface (GTLB
// included) must therefore be sendable and fully node-owned.
const fn _assert_send<T: Send>() {}
const _: () = _assert_send::<NodeNet>();

impl NodeNet {
    /// A fresh interface for the node at `coord`.
    // analyze: cold (interface construction, once per node)
    #[must_use]
    pub fn new(coord: NodeCoord, cfg: IfaceConfig) -> NodeNet {
        NodeNet {
            coord,
            gtlb: Gtlb::new(cfg.gtlb_capacity),
            queues: [MsgQueue::default(), MsgQueue::default()],
            credits: cfg.send_credits,
            returned: VecDeque::new(),
            outbox: Vec::new(),
            coh_in: VecDeque::new(),
            stats: IfaceStats::default(),
            next_seq: 0,
            dedup: BTreeMap::new(),
            cfg,
        }
    }

    /// This node's coordinates.
    #[must_use]
    pub fn coord(&self) -> NodeCoord {
        self.coord
    }

    /// Statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> IfaceStats {
        self.stats
    }

    /// Remaining send credits.
    #[must_use]
    pub fn credits(&self) -> u32 {
        self.credits
    }

    /// The GTLB (system software installs GDT entries here).
    pub fn gtlb_mut(&mut self) -> &mut Gtlb {
        &mut self.gtlb
    }

    /// Shared GTLB access.
    #[must_use]
    pub fn gtlb(&self) -> &Gtlb {
        &self.gtlb
    }

    /// Attempt a user-level SEND: translate `addr_va` through the GTLB,
    /// check credits, stage the packet for injection. `addr` is the full
    /// destination-address *word* (normally a guarded pointer — the
    /// capability travels in the message, so Fig. 7's receive handler can
    /// store through it). The caller drains staged packets with
    /// [`NodeNet::drain_outbox_into`] and injects them into the fabric.
    pub fn send(
        &mut self,
        dip: Word,
        addr: Word,
        addr_va: u64,
        body: MsgBody,
        priority: Priority,
    ) -> SendOutcome {
        let Some(dest) = self.gtlb.probe(addr_va) else {
            return SendOutcome::Unmapped;
        };
        if priority == Priority::P0 {
            if self.credits == 0 {
                self.stats.credit_stalls += 1;
                return SendOutcome::NoCredit;
            }
            self.credits -= 1;
        }
        self.next_seq += 1;
        let msg = Message {
            priority,
            src: self.coord,
            dest,
            dip,
            addr,
            body,
            wire: crate::message::WireMeta {
                seq: self.next_seq,
                crc: 0,
            },
        };
        self.stats.sent += 1;
        self.outbox.push(Packet::User(msg));
        SendOutcome::Sent(0)
    }

    /// Re-inject a previously returned message (its buffer slot is still
    /// reserved, so no new credit is consumed).
    pub fn resend(&mut self, msg: Message) {
        self.outbox.push(Packet::User(msg));
    }

    /// Move the staged packets onto the end of `buf`, in staging order.
    /// Both vectors keep their allocations, so once `buf` has reached
    /// its high-water capacity neither side allocates.
    pub fn drain_outbox_into(&mut self, buf: &mut Vec<Packet>) {
        buf.append(&mut self.outbox);
    }

    /// Packets currently staged for injection.
    #[must_use]
    pub fn outbox_len(&self) -> usize {
        self.outbox.len()
    }

    /// Handle a packet delivered by the fabric. Acceptance of a
    /// credit-consuming (P0) message stages a credit reply; overflow
    /// stages a return-to-sender.
    ///
    /// Only P0 acceptances mint credits: the sender's counter was only
    /// decremented for P0 sends, so crediting P1 replies too (as this
    /// interface once did) leaked one phantom credit per reply and let a
    /// reply-heavy workload inflate its P0 burst budget past the
    /// reserved return-buffer space — defeating §4.1's throttling bound.
    ///
    /// The packet is read in place (the machine delivers straight out of
    /// the fabric's slab); only what the interface keeps is copied — a
    /// bounced message into the outbox, a coherence message into the
    /// handler queue, a returned one into the resend buffer. Owned
    /// packets are accepted too.
    pub fn deliver(&mut self, packet: impl Borrow<Packet>) {
        match packet.borrow() {
            Packet::User(msg) => {
                let pri = msg.priority.index();
                if self.queues[pri].messages >= self.cfg.msg_queue_capacity {
                    // No space: bounce the whole message back (§4.1). No
                    // credit moves — the message still occupies the
                    // return-buffer slot its send reserved, and exactly
                    // one credit comes back when a later resend is
                    // finally accepted.
                    self.stats.returned_here += 1;
                    self.outbox.push(Packet::Return(msg.clone()));
                    return;
                }
                self.stats.received += 1;
                let credit = msg.priority == Priority::P0;
                let last = 1 + msg.body.len();
                let q = &mut self.queues[pri];
                for (i, w) in msg.delivered_words().enumerate() {
                    q.words.push_back((w, i == last));
                }
                q.messages += 1;
                self.accept_credit(credit, msg.src);
            }
            Packet::Coh(msg) => {
                self.stats.coh_received += 1;
                let credit = msg.priority == Priority::P0;
                let src = msg.src;
                self.coh_in.push_back(msg.clone());
                self.accept_credit(credit, src);
            }
            Packet::Credit { .. } => {
                self.credits += 1;
            }
            Packet::Return(msg) => {
                self.stats.returns_received += 1;
                self.returned.push_back(msg.clone());
            }
        }
    }

    /// [`NodeNet::deliver`] with fault detection in front: a user
    /// message whose sealed checksum no longer matches its payload is
    /// NACKed straight back to the sender (no credit moves — exactly
    /// the §4.1 bounce contract, so the sender's existing resend
    /// machinery retransmits it), and a retransmission whose sequence
    /// number was already applied is dropped so a retry is never
    /// applied twice. Only the fault-armed machine calls this; the
    /// fault-free delivery path never pays for either check. Reads the
    /// packet in place, like [`NodeNet::deliver`].
    pub fn deliver_checked(&mut self, packet: impl Borrow<Packet>) {
        let packet = packet.borrow();
        if let Packet::User(msg) = packet {
            if !msg.crc_ok() {
                self.stats.crc_nacks += 1;
                self.outbox.push(Packet::Return(msg.clone()));
                return;
            }
            if msg.wire.seq != 0 {
                // Record only what will actually be applied: an
                // overflow bounce must stay replayable.
                let full =
                    self.queues[msg.priority.index()].messages >= self.cfg.msg_queue_capacity;
                if !full
                    && !self
                        .dedup
                        .entry(msg.src.encode())
                        .or_default()
                        .mark(msg.wire.seq)
                {
                    self.stats.dup_drops += 1;
                    return;
                }
            }
        }
        self.deliver(packet);
    }

    /// Stage the acceptance credit for a P0 message from `src` (or
    /// restore it directly on loopback).
    fn accept_credit(&mut self, credit: bool, src: NodeCoord) {
        if !credit {
            return;
        }
        if src != self.coord {
            // Acceptance reply increments the sender's counter.
            self.outbox.push(Packet::Credit {
                dest: src,
                from: self.coord,
            });
        } else {
            // Loopback: credit immediately.
            self.credits += 1;
        }
    }

    /// Stage a coherence protocol message for injection. P0 requests
    /// consume a send credit exactly like user SENDs (returns `false`
    /// when the counter is dry — the firmware retries next cycle); P1
    /// grants/invalidations bypass throttling like other replies.
    pub fn send_coh(&mut self, msg: Message) -> bool {
        if msg.priority == Priority::P0 {
            if self.credits == 0 {
                self.stats.credit_stalls += 1;
                return false;
            }
            self.credits -= 1;
        }
        self.stats.coh_sent += 1;
        self.outbox.push(Packet::Coh(msg));
        true
    }

    /// Pop one arrived coherence protocol message, if any.
    pub fn pop_coh(&mut self) -> Option<Message> {
        self.coh_in.pop_front()
    }

    /// Coherence protocol messages awaiting the class-0 handler.
    #[must_use]
    pub fn coh_pending(&self) -> usize {
        self.coh_in.len()
    }

    /// Is a word available on the priority-`pri` queue? (The scoreboard
    /// for the register-mapped `Rnet` head.)
    #[must_use]
    pub fn queue_ready(&self, pri: Priority) -> bool {
        !self.queues[pri.index()].words.is_empty()
    }

    /// Messages currently queued at priority `pri`.
    #[must_use]
    pub fn queue_len(&self, pri: Priority) -> usize {
        self.queues[pri.index()].messages
    }

    /// Words currently readable from the priority-`pri` queue.
    #[must_use]
    pub fn words_available(&self, pri: Priority) -> usize {
        self.queues[pri.index()].words.len()
    }

    /// Dequeue one word from the priority-`pri` queue (a read of `Rnet`).
    pub fn pop_word(&mut self, pri: Priority) -> Option<Word> {
        let q = &mut self.queues[pri.index()];
        let (w, last) = q.words.pop_front()?;
        if last {
            q.messages -= 1;
        }
        Some(w)
    }

    /// A returned message awaiting software resend, if any.
    pub fn pop_returned(&mut self) -> Option<Message> {
        self.returned.pop_front()
    }

    /// Number of returned messages awaiting resend.
    #[must_use]
    pub fn returned_len(&self) -> usize {
        self.returned.len()
    }

    /// Every node the queued traffic names — source and destination of
    /// each outbox packet, returned message and coherence arrival — so a
    /// restore can refuse one outside the mesh before it is sent.
    pub fn endpoints(&self) -> impl Iterator<Item = NodeCoord> + '_ {
        let messages = self.returned.iter().chain(&self.coh_in);
        self.outbox
            .iter()
            .flat_map(|p| [p.src(), p.dest()])
            .chain(messages.flat_map(|m| [m.src, m.dest]))
    }

    /// Every coherence protocol message the interface holds — staged in
    /// the outbox or arrived for the handler — so a restore can refuse
    /// one the handler could not decode.
    pub fn coh_messages(&self) -> impl Iterator<Item = &Message> + '_ {
        let staged = self.outbox.iter().filter_map(|p| match p {
            Packet::Coh(m) => Some(m),
            _ => None,
        });
        staged.chain(&self.coh_in)
    }

    /// Serialize the complete interface state (GTLB included) into a
    /// checkpoint stream. Configuration and coordinates are *not*
    /// written — restore targets an identically-built machine.
    // analyze: cold (checkpoint save, never on the cycle path)
    pub fn save_state(&self, e: &mut Enc) {
        self.gtlb.save_state(e);
        self.queues.save(e);
        self.credits.save(e);
        self.returned.save(e);
        self.outbox.save(e);
        self.coh_in.save(e);
        self.stats.save(e);
        self.next_seq.save(e);
        self.dedup.save(e);
    }

    /// Restore state saved by [`NodeNet::save_state`].
    ///
    /// # Errors
    ///
    /// [`CkptError`] on truncated or malformed input or a miscounted queue.
    // analyze: cold (checkpoint restore, never on the cycle path)
    pub fn load_state(&mut self, d: &mut Dec<'_>) -> Result<(), CkptError> {
        self.gtlb.load_state(d)?;
        (self.queues, self.credits, self.returned, self.outbox) = Ckpt::load(d)?;
        for q in &self.queues {
            let (stored, ends) = (q.messages, q.words.iter().filter(|w| w.1).count());
            if stored != ends {
                return Err(CkptError(format!(
                    "stored message count {stored} disagrees with {ends}"
                )));
            }
        }
        (self.coh_in, self.stats, self.next_seq, self.dedup) = Ckpt::load(d)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gtlb::{GdtEntry, GLOBAL_PAGE_WORDS};

    /// The packets `n` has staged, drained in staging order.
    fn drained(n: &mut NodeNet) -> Vec<Packet> {
        let mut out = Vec::new();
        n.drain_outbox_into(&mut out);
        out
    }

    fn iface_at(x: u8) -> NodeNet {
        let mut n = NodeNet::new(NodeCoord::new(x, 0, 0), IfaceConfig::default());
        // Pages 0..16 alternate between nodes (0,0,0) and (1,0,0).
        n.gtlb_mut()
            .add_entry(GdtEntry::new(0, NodeCoord::new(0, 0, 0), (1, 0, 0), 4, 0));
        n
    }

    #[test]
    fn send_translates_and_stages() {
        let mut n = iface_at(0);
        let out = n.send(
            Word::from_u64(9),
            Word::from_u64(GLOBAL_PAGE_WORDS),
            GLOBAL_PAGE_WORDS, // page 1 → node (1,0,0)
            [Word::from_u64(5)].into(),
            Priority::P0,
        );
        assert!(matches!(out, SendOutcome::Sent(_)));
        let pkts = drained(&mut n);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].dest(), NodeCoord::new(1, 0, 0));
        assert_eq!(n.credits(), IfaceConfig::default().send_credits - 1);
    }

    #[test]
    fn unmapped_send_faults() {
        let mut n = iface_at(0);
        let out = n.send(
            Word::ZERO,
            Word::ZERO,
            1000 * GLOBAL_PAGE_WORDS,
            MsgBody::new(),
            Priority::P0,
        );
        assert_eq!(out, SendOutcome::Unmapped);
        assert!(drained(&mut n).is_empty());
    }

    #[test]
    fn credits_run_out_and_replies_restore() {
        let cfg = IfaceConfig {
            send_credits: 2,
            ..IfaceConfig::default()
        };
        let mut n = NodeNet::new(NodeCoord::new(0, 0, 0), cfg);
        n.gtlb_mut()
            .add_entry(GdtEntry::new(0, NodeCoord::new(1, 0, 0), (0, 0, 0), 4, 0));
        assert!(matches!(
            n.send(Word::ZERO, Word::ZERO, 0, MsgBody::new(), Priority::P0),
            SendOutcome::Sent(_)
        ));
        assert!(matches!(
            n.send(Word::ZERO, Word::ZERO, 0, MsgBody::new(), Priority::P0),
            SendOutcome::Sent(_)
        ));
        assert_eq!(
            n.send(Word::ZERO, Word::ZERO, 0, MsgBody::new(), Priority::P0),
            SendOutcome::NoCredit
        );
        assert_eq!(n.stats().credit_stalls, 1);
        n.deliver(Packet::Credit {
            dest: NodeCoord::new(0, 0, 0),
            from: NodeCoord::new(1, 0, 0),
        });
        assert!(matches!(
            n.send(Word::ZERO, Word::ZERO, 0, MsgBody::new(), Priority::P0),
            SendOutcome::Sent(_)
        ));
    }

    #[test]
    fn p1_sends_bypass_throttling() {
        let cfg = IfaceConfig {
            send_credits: 0,
            ..IfaceConfig::default()
        };
        let mut n = NodeNet::new(NodeCoord::new(0, 0, 0), cfg);
        n.gtlb_mut()
            .add_entry(GdtEntry::new(0, NodeCoord::new(1, 0, 0), (0, 0, 0), 4, 0));
        assert!(matches!(
            n.send(Word::ZERO, Word::ZERO, 0, MsgBody::new(), Priority::P1),
            SendOutcome::Sent(_)
        ));
    }

    fn user_msg(src: NodeCoord, dest: NodeCoord, pri: Priority) -> Packet {
        Packet::User(Message {
            priority: pri,
            src,
            dest,
            dip: Word::from_u64(11),
            addr: Word::from_u64(22),
            body: [Word::from_u64(33)].into(),
            wire: Default::default(),
        })
    }

    #[test]
    fn delivery_enqueues_and_credits_sender() {
        let mut n = iface_at(1);
        n.deliver(user_msg(
            NodeCoord::new(0, 0, 0),
            NodeCoord::new(1, 0, 0),
            Priority::P0,
        ));
        assert!(n.queue_ready(Priority::P0));
        assert!(!n.queue_ready(Priority::P1));
        assert_eq!(n.queue_len(Priority::P0), 1);
        // Word order: DIP, addr, body; boundaries tracked.
        assert_eq!(n.pop_word(Priority::P0).unwrap().bits(), 11);
        assert_eq!(n.pop_word(Priority::P0).unwrap().bits(), 22);
        assert_eq!(n.queue_len(Priority::P0), 1, "message not done yet");
        assert_eq!(n.pop_word(Priority::P0).unwrap().bits(), 33);
        assert_eq!(n.queue_len(Priority::P0), 0);
        assert!(n.pop_word(Priority::P0).is_none());
        // A credit reply was staged for the sender.
        let out = drained(&mut n);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], Packet::Credit { .. }));
        assert_eq!(out[0].dest(), NodeCoord::new(0, 0, 0));
    }

    #[test]
    fn overflow_returns_to_sender() {
        let cfg = IfaceConfig {
            msg_queue_capacity: 1,
            ..IfaceConfig::default()
        };
        let mut n = NodeNet::new(NodeCoord::new(1, 0, 0), cfg);
        n.deliver(user_msg(
            NodeCoord::new(0, 0, 0),
            NodeCoord::new(1, 0, 0),
            Priority::P0,
        ));
        let _ = drained(&mut n);
        n.deliver(user_msg(
            NodeCoord::new(0, 0, 0),
            NodeCoord::new(1, 0, 0),
            Priority::P0,
        ));
        let out = drained(&mut n);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], Packet::Return(_)));
        assert_eq!(out[0].dest(), NodeCoord::new(0, 0, 0));
        assert_eq!(n.stats().returned_here, 1);
    }

    #[test]
    fn returned_messages_buffer_for_resend() {
        let mut n = iface_at(0);
        let m = Message {
            priority: Priority::P0,
            src: NodeCoord::new(0, 0, 0),
            dest: NodeCoord::new(1, 0, 0),
            dip: Word::ZERO,
            addr: Word::ZERO,
            body: MsgBody::new(),
            wire: Default::default(),
        };
        n.deliver(Packet::Return(m.clone()));
        assert_eq!(n.returned_len(), 1);
        let got = n.pop_returned().unwrap();
        assert_eq!(got, m);
        // Resend does not consume a fresh credit.
        let before = n.credits();
        n.resend(got);
        assert_eq!(n.credits(), before);
        assert_eq!(drained(&mut n).len(), 1);
    }

    /// Regression (PR 5 bugfix): accepting a P1 reply used to stage a
    /// credit for its sender even though P1 sends never spend one —
    /// every reply minted a phantom credit, inflating the sender's P0
    /// burst budget past its reserved return-buffer space and defeating
    /// the §4.1 throttling bound.
    #[test]
    fn p1_acceptance_mints_no_credit() {
        let mut n = iface_at(1);
        n.deliver(user_msg(
            NodeCoord::new(0, 0, 0),
            NodeCoord::new(1, 0, 0),
            Priority::P1,
        ));
        assert!(
            drained(&mut n).is_empty(),
            "a P1 reply spent no credit, so acceptance must mint none"
        );
        // P0 acceptance still credits.
        n.deliver(user_msg(
            NodeCoord::new(0, 0, 0),
            NodeCoord::new(1, 0, 0),
            Priority::P0,
        ));
        let out = drained(&mut n);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], Packet::Credit { .. }));
    }

    /// The loopback leg of the same regression: a self-addressed P1
    /// message used to increment the counter directly.
    #[test]
    fn p1_loopback_mints_no_credit() {
        let mut n = iface_at(0);
        let before = n.credits();
        n.deliver(user_msg(
            NodeCoord::new(0, 0, 0),
            NodeCoord::new(0, 0, 0),
            Priority::P1,
        ));
        assert_eq!(n.credits(), before, "loopback P1 must not credit");
    }

    /// A returned message's full round trip — send, bounce, buffered
    /// resend, eventual acceptance — must restore exactly one sender
    /// credit: the send's decrement reserves the return-buffer slot, the
    /// bounce moves no credit (the slot is now in use), the resend is
    /// free (the slot stays reserved), and the final acceptance credit
    /// releases it.
    #[test]
    fn return_resend_accept_restores_exactly_one_credit() {
        let mut a = iface_at(0);
        let mut b = NodeNet::new(
            NodeCoord::new(1, 0, 0),
            IfaceConfig {
                msg_queue_capacity: 1,
                ..IfaceConfig::default()
            },
        );
        let initial = a.credits();
        // A sends two messages (two credits spent).
        for _ in 0..2 {
            assert!(matches!(
                a.send(
                    Word::from_u64(9),
                    Word::from_u64(GLOBAL_PAGE_WORDS),
                    GLOBAL_PAGE_WORDS,
                    MsgBody::new(),
                    Priority::P0,
                ),
                SendOutcome::Sent(_)
            ));
        }
        assert_eq!(a.credits(), initial - 2);
        let sent = drained(&mut a);
        // B accepts the first (stages a credit), bounces the second.
        for p in sent {
            b.deliver(p);
        }
        let mut replies = drained(&mut b);
        assert_eq!(replies.len(), 2);
        assert!(matches!(replies[0], Packet::Credit { .. }));
        assert!(matches!(replies[1], Packet::Return(_)));
        assert_eq!(b.stats().returned_here, 1);
        // The bounce restores nothing by itself.
        let ret = replies.pop().unwrap();
        a.deliver(replies.pop().unwrap());
        assert_eq!(a.credits(), initial - 1, "one message still outstanding");
        a.deliver(ret);
        assert_eq!(a.stats().returns_received, 1);
        assert_eq!(
            a.credits(),
            initial - 1,
            "a bounced message still owns its reserved slot"
        );
        // Software resends (free), B has drained, acceptance credits.
        let msg = a.pop_returned().unwrap();
        a.resend(msg);
        assert_eq!(a.credits(), initial - 1, "resend consumes no new credit");
        while b.pop_word(Priority::P0).is_some() {}
        for p in drained(&mut a) {
            b.deliver(p);
        }
        for p in drained(&mut b) {
            a.deliver(p);
        }
        assert_eq!(
            a.credits(),
            initial,
            "the round trip restores exactly one credit"
        );
    }

    /// Coherence protocol messages share the credit counter: P0 fetches
    /// spend one and earn it back on acceptance; P1 grants are free.
    #[test]
    fn coherence_messages_share_the_throttle() {
        let mut a = iface_at(0);
        let mut b = iface_at(1);
        let initial = a.credits();
        let fetch = Message {
            priority: Priority::P0,
            src: a.coord(),
            dest: b.coord(),
            dip: Word::from_u64(2),
            addr: Word::from_u64(64),
            body: MsgBody::new(),
            wire: Default::default(),
        };
        assert!(a.send_coh(fetch));
        assert_eq!(a.credits(), initial - 1);
        for p in drained(&mut a) {
            b.deliver(p);
        }
        assert_eq!(b.coh_pending(), 1);
        assert!(b.pop_coh().is_some());
        for p in drained(&mut b) {
            a.deliver(p);
        }
        assert_eq!(a.credits(), initial, "acceptance credits the fetch");
        // P1 grants bypass the counter entirely.
        let mut dry = NodeNet::new(
            NodeCoord::new(0, 0, 0),
            IfaceConfig {
                send_credits: 0,
                ..IfaceConfig::default()
            },
        );
        let grant = Message {
            priority: Priority::P1,
            src: dry.coord(),
            dest: b.coord(),
            dip: Word::from_u64(5),
            addr: Word::from_u64(64),
            body: MsgBody::new(),
            wire: Default::default(),
        };
        assert!(dry.send_coh(grant));
        // And a dry counter refuses a P0 fetch.
        let fetch2 = Message {
            priority: Priority::P0,
            src: dry.coord(),
            dest: b.coord(),
            dip: Word::from_u64(2),
            addr: Word::from_u64(64),
            body: MsgBody::new(),
            wire: Default::default(),
        };
        assert!(!dry.send_coh(fetch2));
    }

    /// The checked delivery path: a corrupted sealed message NACKs home
    /// with no credit minted; the intact retransmit is applied once and
    /// a second copy of the same sequence number is dropped.
    #[test]
    fn checked_delivery_nacks_corruption_and_drops_duplicates() {
        let mut a = iface_at(0);
        let mut b = iface_at(1);
        assert!(matches!(
            a.send(
                Word::from_u64(9),
                Word::from_u64(GLOBAL_PAGE_WORDS),
                GLOBAL_PAGE_WORDS,
                [Word::from_u64(5)].into(),
                Priority::P0,
            ),
            SendOutcome::Sent(_)
        ));
        let mut pkts = drained(&mut a);
        let Packet::User(mut msg) = pkts.pop().unwrap() else {
            panic!("expected a user packet");
        };
        msg.seal_crc();
        let pristine = msg.clone();

        // In-flight corruption → NACK, nothing queued, no credit staged.
        let mut corrupted = msg.clone();
        corrupted.corrupt_payload(1, 7);
        b.deliver_checked(Packet::User(corrupted));
        assert_eq!(b.stats().crc_nacks, 1);
        assert!(!b.queue_ready(Priority::P0));
        let out = drained(&mut b);
        assert_eq!(out.len(), 1);
        let Packet::Return(nacked) = &out[0] else {
            panic!("expected a NACK return");
        };
        assert_eq!(nacked.wire.seq, pristine.wire.seq);

        // The retransmitted pristine copy is applied and credited…
        b.deliver_checked(Packet::User(pristine.clone()));
        assert_eq!(b.queue_len(Priority::P0), 1);
        assert_eq!(b.stats().received, 1);
        assert!(matches!(drained(&mut b)[..], [Packet::Credit { .. }]));

        // …and a duplicate of it is dropped without re-queueing.
        b.deliver_checked(Packet::User(pristine));
        assert_eq!(b.stats().dup_drops, 1);
        assert_eq!(b.queue_len(Priority::P0), 1);
        assert!(drained(&mut b).is_empty(), "duplicates mint no credit");
    }

    /// Out-of-order application (a bounced-then-resent message landing
    /// after its successors) must not confuse the dedup window.
    #[test]
    fn dedup_window_tolerates_out_of_order_gaps() {
        let mut w = SrcWindow::default();
        assert!(w.mark(2), "gap: seq 1 still in flight");
        assert!(w.mark(4));
        assert!(!w.mark(2), "already applied past the floor");
        assert!(w.mark(1), "late bounce retry fills the gap");
        assert_eq!(w.floor, 2, "floor advances through the filled run");
        assert!(w.mark(3));
        assert_eq!(w.floor, 4);
        assert!(w.above.is_empty());
        assert!(!w.mark(3), "below the floor after compaction");
    }

    /// Interface state round-trips through the checkpoint codec.
    #[test]
    fn iface_state_round_trips() {
        let mut n = iface_at(0);
        let _ = n.send(
            Word::from_u64(9),
            Word::from_u64(GLOBAL_PAGE_WORDS),
            GLOBAL_PAGE_WORDS,
            [Word::from_u64(5)].into(),
            Priority::P0,
        );
        n.deliver(user_msg(
            NodeCoord::new(1, 0, 0),
            NodeCoord::new(0, 0, 0),
            Priority::P0,
        ));
        let mut sealed = Message {
            priority: Priority::P0,
            src: NodeCoord::new(1, 0, 0),
            dest: NodeCoord::new(0, 0, 0),
            dip: Word::from_u64(1),
            addr: Word::from_u64(2),
            body: MsgBody::new(),
            wire: crate::message::WireMeta { seq: 3, crc: 0 },
        };
        sealed.seal_crc();
        n.deliver_checked(Packet::User(sealed));
        let mut e = Enc::new();
        n.save_state(&mut e);
        let bytes = e.finish();

        let mut m = iface_at(0);
        let mut d = Dec::new(&bytes);
        m.load_state(&mut d).expect("load");
        assert_eq!(d.remaining(), 0);
        let mut e1 = Enc::new();
        let mut e2 = Enc::new();
        n.save_state(&mut e1);
        m.save_state(&mut e2);
        assert_eq!(e1.finish(), e2.finish(), "re-save is byte-identical");
        assert_eq!(m.stats(), n.stats());
        assert_eq!(m.credits(), n.credits());
        assert_eq!(m.queue_len(Priority::P0), n.queue_len(Priority::P0));
    }

    #[test]
    fn priorities_have_separate_queues() {
        let mut n = iface_at(1);
        n.deliver(user_msg(
            NodeCoord::new(0, 0, 0),
            NodeCoord::new(1, 0, 0),
            Priority::P0,
        ));
        n.deliver(user_msg(
            NodeCoord::new(0, 0, 0),
            NodeCoord::new(1, 0, 0),
            Priority::P1,
        ));
        assert_eq!(n.queue_len(Priority::P0), 1);
        assert_eq!(n.queue_len(Priority::P1), 1);
    }
}
