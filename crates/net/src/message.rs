//! Messages and node coordinates.
//!
//! A message is "composed in the general registers of a cluster and
//! launched atomically using a user-level SEND instruction" (§2). Hardware
//! prepends the destination address and the dispatch instruction pointer
//! (DIP) to the body, so the receiver's register-mapped queue yields
//! `[DIP, dest-VA, body...]` — exactly the order Fig. 7's handler consumes.

use mm_faults::{ckpt_enum, ckpt_struct, Ckpt, CkptError, Dec, Enc};
use mm_isa::op::Priority;
use mm_isa::word::Word;
use std::fmt;

/// A node's position in the 3-D mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeCoord {
    /// X coordinate.
    pub x: u8,
    /// Y coordinate.
    pub y: u8,
    /// Z coordinate.
    pub z: u8,
}

impl NodeCoord {
    /// Construct from coordinates.
    #[must_use]
    pub fn new(x: u8, y: u8, z: u8) -> NodeCoord {
        NodeCoord { x, y, z }
    }

    /// Pack into the 15-bit `x | y<<5 | z<<10` form used in node-id words
    /// and the GTLB's 16-bit starting-node field.
    #[must_use]
    pub fn encode(self) -> u64 {
        u64::from(self.x) | (u64::from(self.y) << 5) | (u64::from(self.z) << 10)
    }

    /// Unpack from the encoded form.
    #[must_use]
    pub fn decode(bits: u64) -> NodeCoord {
        NodeCoord {
            x: (bits & 0x1F) as u8,
            y: ((bits >> 5) & 0x1F) as u8,
            z: ((bits >> 10) & 0x1F) as u8,
        }
    }

    /// Manhattan distance (= dimension-order hop count) to `other`.
    #[must_use]
    pub fn hops_to(self, other: NodeCoord) -> u64 {
        u64::from(self.x.abs_diff(other.x))
            + u64::from(self.y.abs_diff(other.y))
            + u64::from(self.z.abs_diff(other.z))
    }
}

impl fmt::Display for NodeCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{},{})", self.x, self.y, self.z)
    }
}

/// Checkpoint format: the packed word of [`NodeCoord::encode`].
impl Ckpt for NodeCoord {
    fn save(&self, e: &mut Enc) {
        e.u64(self.encode());
    }

    fn load(d: &mut Dec<'_>) -> Result<Self, CkptError> {
        d.u64().map(NodeCoord::decode)
    }
}

/// The longest message body on the wire: a user SEND carries at most
/// `mc1..=mc7`, and a §4.3 coherence data message carries 8 block words
/// plus one sync-mask word.
pub const MAX_BODY_WORDS: usize = 9;

/// A message body: a fixed-capacity inline word array. Messages travel
/// through per-cycle queues (outboxes, the fabric's in-flight heap, the
/// receiver FIFOs) by value, so keeping the body inline makes the whole
/// busy-traffic message path allocation-free — the old `Vec<Word>` body
/// was the last steady-state heap traffic on that path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgBody {
    len: u8,
    words: [Word; MAX_BODY_WORDS],
}

impl MsgBody {
    /// An empty body.
    #[must_use]
    pub const fn new() -> MsgBody {
        MsgBody {
            len: 0,
            words: [Word::ZERO; MAX_BODY_WORDS],
        }
    }

    /// A body holding a copy of `words`.
    ///
    /// # Panics
    ///
    /// Panics if `words` exceeds [`MAX_BODY_WORDS`].
    #[must_use]
    pub fn from_slice(words: &[Word]) -> MsgBody {
        assert!(words.len() <= MAX_BODY_WORDS, "message body too long");
        let mut b = MsgBody::new();
        b.words[..words.len()].copy_from_slice(words);
        #[allow(clippy::cast_possible_truncation)]
        {
            b.len = words.len() as u8;
        }
        b
    }

    /// Append a word.
    ///
    /// # Panics
    ///
    /// Panics if the body is already [`MAX_BODY_WORDS`] long.
    pub fn push(&mut self, w: Word) {
        assert!((self.len as usize) < MAX_BODY_WORDS, "message body full");
        self.words[self.len as usize] = w;
        self.len += 1;
    }

    /// Remove and return the last word, if any.
    pub fn pop(&mut self) -> Option<Word> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        Some(self.words[self.len as usize])
    }

    /// Overwrite word `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn set(&mut self, i: usize, w: Word) {
        assert!(i < self.len as usize, "message body index out of bounds");
        self.words[i] = w;
    }
}

impl Default for MsgBody {
    fn default() -> MsgBody {
        MsgBody::new()
    }
}

impl std::ops::Deref for MsgBody {
    type Target = [Word];
    fn deref(&self) -> &[Word] {
        &self.words[..self.len as usize]
    }
}

impl From<&[Word]> for MsgBody {
    fn from(words: &[Word]) -> MsgBody {
        MsgBody::from_slice(words)
    }
}

impl<const N: usize> From<[Word; N]> for MsgBody {
    fn from(words: [Word; N]) -> MsgBody {
        MsgBody::from_slice(&words)
    }
}

impl FromIterator<Word> for MsgBody {
    fn from_iter<I: IntoIterator<Item = Word>>(iter: I) -> MsgBody {
        let mut b = MsgBody::new();
        for w in iter {
            b.push(w);
        }
        b
    }
}

/// Checkpoint format: a length, then the words (hand-written: the
/// length is bounded by [`MAX_BODY_WORDS`]).
impl Ckpt for MsgBody {
    fn save(&self, e: &mut Enc) {
        e.usize(self.len());
        self.iter().for_each(|w| w.save(e));
    }

    fn load(d: &mut Dec<'_>) -> Result<Self, CkptError> {
        let n = d.usize()?;
        if n > MAX_BODY_WORDS {
            return Err(CkptError(format!("message body too long ({n})")));
        }
        (0..n).map(|_| Word::load(d)).collect()
    }
}

/// Fault-detection metadata riding the message header flit: a per-sender
/// sequence number (idempotent receive) and the checksum the sending
/// interface seals over the payload when a fault plan is armed (the
/// stand-in for a real fabric's per-flit CRC). Both are zero — and
/// never consulted — on fault-free configurations, so the wire format,
/// flit counts and all architectural statistics are unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireMeta {
    /// Per-sender message sequence number (assigned by the interface).
    pub seq: u64,
    /// Payload checksum sealed at injection (0 = unsealed).
    pub crc: u32,
}

/// A message as carried by the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Network priority (0 = requests, 1 = replies).
    pub priority: Priority,
    /// Sender.
    pub src: NodeCoord,
    /// Receiver.
    pub dest: NodeCoord,
    /// Dispatch instruction pointer (first word delivered).
    pub dip: Word,
    /// Destination virtual address (second word delivered).
    pub addr: Word,
    /// Body words (`mc1..=mc{len}` at the sender).
    pub body: MsgBody,
    /// Fault-detection metadata (sequence number + sealed checksum).
    pub wire: WireMeta,
}

impl Message {
    /// Words delivered into the receiver's queue, in order: DIP +
    /// address + body. Allocation-free — the receive path iterates
    /// straight into its register-mapped FIFO.
    pub fn delivered_words(&self) -> impl Iterator<Item = Word> + '_ {
        [self.dip, self.addr]
            .into_iter()
            .chain(self.body.iter().copied())
    }

    /// Length on the wire in flits (one word per flit: DIP + address +
    /// body; the routing header pipelines with the first flit).
    #[must_use]
    pub fn wire_flits(&self) -> u64 {
        2 + self.body.len() as u64
    }

    /// The checksum of the payload as it stands right now (priority,
    /// endpoints, sequence number, DIP, address, body).
    #[must_use]
    pub fn compute_crc(&self) -> u32 {
        let mut words = [0u64; 8 + 2 * MAX_BODY_WORDS];
        words[0] = self.priority.index() as u64;
        words[1] = self.src.encode();
        words[2] = self.dest.encode();
        words[3] = self.wire.seq;
        words[4] = self.dip.bits();
        words[5] = u64::from(self.dip.is_pointer());
        words[6] = self.addr.bits();
        words[7] = u64::from(self.addr.is_pointer());
        let mut n = 8;
        for w in self.body.iter() {
            words[n] = w.bits();
            words[n + 1] = u64::from(w.is_pointer());
            n += 2;
        }
        mm_faults::checksum(&words[..n])
    }

    /// Seal the current payload's checksum into the header.
    pub fn seal_crc(&mut self) {
        self.wire.crc = 0;
        self.wire.crc = self.compute_crc();
    }

    /// Does the sealed checksum match the payload? Unsealed messages
    /// (crc 0 — fault-free configurations) always verify.
    #[must_use]
    pub fn crc_ok(&self) -> bool {
        self.wire.crc == 0 || self.wire.crc == self.compute_crc()
    }

    /// Payload words a fault can corrupt: the address word plus the
    /// body (the DIP flit carries the routing header's own protection).
    #[must_use]
    pub fn payload_words(&self) -> u32 {
        1 + self.body.len() as u32
    }

    /// Flip `bit` of payload word `word_idx` (0 = address word,
    /// 1.. = body words) — an in-flight upset. The sealed checksum is
    /// deliberately left alone: that is what detection keys on.
    pub fn corrupt_payload(&mut self, word_idx: u32, bit: u8) {
        let mask = 1u64 << (bit % 54);
        if word_idx == 0 || self.body.is_empty() {
            self.addr = Word::from_raw(self.addr.bits() ^ mask, self.addr.is_pointer());
        } else {
            let i = (word_idx as usize - 1) % self.body.len();
            let w = self.body[i];
            self.body
                .set(i, Word::from_raw(w.bits() ^ mask, w.is_pointer()));
        }
    }

    /// Lose one flit in flight: truncate the last body word (or upset
    /// the address flit when there is no body). Also a checksum
    /// mismatch at the receiver.
    pub fn drop_flit(&mut self) {
        if self.body.pop().is_none() {
            self.corrupt_payload(0, 11);
        }
    }
}

ckpt_struct! {
    WireMeta { seq, crc }
    Message { priority, src, dest, dip, addr, body, wire }
}

/// What travels point-to-point: user messages, the two hardware control
/// packets of the return-to-sender throttling protocol (§4.1), and the
/// §4.3 software-coherence protocol messages exchanged by the resident
/// class-0 event handlers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Packet {
    /// An ordinary message, delivered to the receiver's message queue.
    User(Message),
    /// "The reply instructs the source processor to increment its
    /// counter" — sent by the receiving interface when a message is
    /// accepted; consumed silently by the sender's interface.
    Credit {
        /// Node being credited (the original sender).
        dest: NodeCoord,
        /// Node that accepted the message.
        from: NodeCoord,
    },
    /// "The reply contains the contents of the original message which are
    /// copied into the buffer and resent at a later time" — the receiver
    /// had no queue space.
    Return(Message),
    /// A software-coherence protocol message (§4.3): same wire format as
    /// a user message (DIP word + address word + body), but delivered to
    /// the receiving node's coherence-handler queue instead of the
    /// register-mapped user queues. Priority-0 coherence requests
    /// participate in send-credit throttling exactly like user sends;
    /// priority-1 grants/invalidations ride the reply channel.
    Coh(Message),
}

impl Packet {
    /// Destination node of this packet.
    #[must_use]
    pub fn dest(&self) -> NodeCoord {
        match self {
            Packet::User(m) | Packet::Coh(m) => m.dest,
            Packet::Credit { dest, .. } => *dest,
            Packet::Return(m) => m.src,
        }
    }

    /// Source node of this packet.
    #[must_use]
    pub fn src(&self) -> NodeCoord {
        match self {
            Packet::User(m) | Packet::Coh(m) => m.src,
            Packet::Credit { from, .. } => *from,
            Packet::Return(m) => m.dest,
        }
    }

    /// Flits on the wire.
    #[must_use]
    pub fn wire_flits(&self) -> u64 {
        match self {
            Packet::User(m) | Packet::Return(m) | Packet::Coh(m) => m.wire_flits(),
            Packet::Credit { .. } => 1,
        }
    }

    /// Control packets and returns travel at priority 1 so they can always
    /// drain ahead of new requests (§4.1 deadlock avoidance).
    #[must_use]
    pub fn priority(&self) -> Priority {
        match self {
            Packet::User(m) | Packet::Coh(m) => m.priority,
            Packet::Credit { .. } | Packet::Return(_) => Priority::P1,
        }
    }
}

ckpt_enum!(Packet, "packet" {
    0 => User(m),
    1 => Credit { dest, from },
    2 => Return(m),
    3 => Coh(m),
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coord_encode_round_trip() {
        for c in [
            NodeCoord::new(0, 0, 0),
            NodeCoord::new(31, 0, 7),
            NodeCoord::new(1, 2, 3),
        ] {
            assert_eq!(NodeCoord::decode(c.encode()), c);
        }
    }

    #[test]
    fn hops() {
        let a = NodeCoord::new(0, 0, 0);
        let b = NodeCoord::new(2, 1, 3);
        assert_eq!(a.hops_to(b), 6);
        assert_eq!(b.hops_to(a), 6);
        assert_eq!(a.hops_to(a), 0);
    }

    fn msg(body: usize) -> Message {
        Message {
            priority: Priority::P0,
            src: NodeCoord::new(0, 0, 0),
            dest: NodeCoord::new(1, 0, 0),
            dip: Word::from_u64(100),
            addr: Word::from_u64(200),
            body: std::iter::repeat_n(Word::from_u64(7), body).collect(),
            wire: WireMeta::default(),
        }
    }

    #[test]
    fn delivered_word_order_matches_fig7() {
        let m = msg(1);
        let words: Vec<Word> = m.delivered_words().collect();
        assert_eq!(words.len(), 3);
        assert_eq!(words[0].bits(), 100, "DIP first");
        assert_eq!(words[1].bits(), 200, "address second");
        assert_eq!(words[2].bits(), 7, "body last");
    }

    #[test]
    fn wire_flits() {
        assert_eq!(msg(1).wire_flits(), 3);
        assert_eq!(msg(0).wire_flits(), 2);
        let p = Packet::Credit {
            dest: NodeCoord::new(0, 0, 0),
            from: NodeCoord::new(1, 0, 0),
        };
        assert_eq!(p.wire_flits(), 1);
        assert_eq!(p.priority(), Priority::P1);
    }

    #[test]
    fn crc_detects_corruption_and_truncation() {
        let mut m = msg(3);
        assert!(m.crc_ok(), "unsealed messages always verify");
        m.seal_crc();
        assert!(m.crc_ok(), "sealed, untouched payload verifies");

        let mut corrupted = m.clone();
        corrupted.corrupt_payload(2, 17);
        assert!(!corrupted.crc_ok(), "payload bit flip breaks the seal");

        let mut dropped = m.clone();
        dropped.drop_flit();
        assert!(!dropped.crc_ok(), "flit truncation breaks the seal");

        let mut headless = msg(0);
        headless.seal_crc();
        headless.drop_flit();
        assert!(
            !headless.crc_ok(),
            "empty-body drop upsets the address flit"
        );
    }

    #[test]
    fn message_codec_round_trip() {
        let mut m = msg(4);
        m.wire.seq = 42;
        m.seal_crc();
        let mut e = Enc::new();
        m.save(&mut e);
        let buf = e.finish();
        let mut d = Dec::new(&buf);
        let back = Message::load(&mut d).expect("decode");
        assert_eq!(back, m);
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn packet_endpoints() {
        let m = msg(1);
        let p = Packet::User(m.clone());
        assert_eq!(p.dest(), m.dest);
        assert_eq!(p.src(), m.src);
        let r = Packet::Return(m.clone());
        assert_eq!(r.dest(), m.src, "returns go back to the sender");
        assert_eq!(r.src(), m.dest);
    }
}
