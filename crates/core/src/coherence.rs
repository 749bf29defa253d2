//! The software-coherence layer of §4.3, as a message-driven protocol.
//!
//! The paper builds coherence from LTLB block-status bits "plus fast
//! messages and handler threads": a block-status fault traps to the
//! class-0 event handler, which *sends a request message to the home
//! node*; "the home node logs the requesting node in a software managed
//! directory and sends the block back"; arriving data is copied into
//! local DRAM, the status bits are marked, and the faulted access is
//! replayed. This module implements exactly that shape as per-node
//! firmware (Rust handlers standing in for the event H-Thread, charging
//! configurable cycle costs — the documented substitution):
//!
//! * Every node owns a [`NodeCoh`] handler. It drains its own node's
//!   class-0 event records, consults its own GTLB for the faulting
//!   address's home, and SENDs a `FetchRead`/`FetchWrite` request
//!   *through the fabric* ([`mm_net::message::Packet::Coh`], priority 0,
//!   credit-throttled like any user SEND).
//! * The **home node's** handler services arriving fetches against a
//!   software directory it alone owns: it recalls a remote dirty owner
//!   (`Recall` → `Writeback`), invalidates sharers (`Invalidate`), and
//!   replies with a `GrantRead`/`GrantWrite` carrying the 8-word block
//!   (priority 1, so grants always drain past new requests).
//! * On grant arrival the **requesting node's** handler installs the
//!   block into a local DRAM frame, sets the status bits, and replays
//!   the faulted access (`firmware_restart`) — replay-on-arrival, so
//!   every mutation a handler performs touches only its own node.
//!
//! That last property is the point: coherence work lives inside each
//! node's own `step_shard` slice and parallelizes with zero cross-shard
//! `&mut` access. All inter-node coherence traffic is visible as fabric
//! packets ([`mm_net::fabric::FabricStats::coh_packets`]).
//!
//! Memory-synchronizing faults (the other class-0 event) are handled
//! here too: the faulted access is retried after a backoff, which gives
//! producer/consumer code the paper's "thread does not block until it
//! needs the data" behaviour. They never leave the node.

use mm_faults::{ckpt_enum, ckpt_struct, Ckpt, CkptError, Dec, Enc};
use mm_isa::op::{Priority, SyncPost, SyncPre};
use mm_isa::word::Word;
use mm_mem::ltlb::{BlockStatus, LtlbEntry, BLOCK_WORDS, PAGE_WORDS};
use mm_mem::{Block, MemWord};
use mm_net::message::{Message, NodeCoord};
use mm_sched::ReadyQueue;
use mm_sim::event::{decode_record, EventKind};
use mm_sim::Node;
use std::collections::VecDeque;

/// Cycle charges for the firmware coherence handlers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoherenceConfig {
    /// Handler occupancy charged per protocol activation (event-record
    /// or message decode + directory/status update) before its effect —
    /// a request send, a grant, a replay — is scheduled.
    pub handler_cycles: u64,
    /// Extra cycles the home handler spends per sharer invalidated on a
    /// write fetch (composing the invalidation messages delays the
    /// grant).
    pub invalidate_cycles: u64,
    /// Backoff before retrying a synchronizing fault.
    pub sync_retry_cycles: u64,
    /// First physical page each node uses for remote-block frames.
    pub frame_base_ppn: u64,
}

impl Default for CoherenceConfig {
    fn default() -> CoherenceConfig {
        CoherenceConfig {
            handler_cycles: 8,
            invalidate_cycles: 20,
            sync_retry_cycles: 16,
            frame_base_ppn: 512,
        }
    }
}

/// Coherence statistics (summed over nodes by
/// [`CoherenceEngine::stats`]). Every counter is architectural:
/// identical across the dense loop, the serial engine and the parallel
/// engine at any worker count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoherenceStats {
    /// Blocks granted by home nodes (read + write fetches serviced).
    pub block_fetches: u64,
    /// Sharer copies invalidated on write fetches.
    pub invalidations: u64,
    /// Dirty blocks written back to their home (recall round trips).
    pub writebacks: u64,
    /// Synchronizing-fault retries issued.
    pub sync_retries: u64,
    /// Class-0 event records whose descriptor held an unknown
    /// [`EventKind`] — previously dropped silently, now counted (the
    /// differential harness asserts this stays zero).
    pub unknown_events: u64,
    /// Block-status faults on addresses outside every GTLB page-group
    /// (the faulting thread cannot be restarted).
    pub unmapped_faults: u64,
    /// Replay records that failed `decode_record`. Incremented just
    /// before the deterministic panic — a corrupt record means the
    /// faulting thread would silently hang, which is never acceptable.
    pub replay_decode_errors: u64,
    /// Cycles between a block-status fault and its replay, summed over
    /// replays (miss latency = `fetch_latency_cycles / fetch_replays`).
    pub fetch_latency_cycles: u64,
    /// Faulted accesses replayed after a grant.
    pub fetch_replays: u64,
}

impl CoherenceStats {
    fn absorb(&mut self, o: &CoherenceStats) {
        self.block_fetches += o.block_fetches;
        self.invalidations += o.invalidations;
        self.writebacks += o.writebacks;
        self.sync_retries += o.sync_retries;
        self.unknown_events += o.unknown_events;
        self.unmapped_faults += o.unmapped_faults;
        self.replay_decode_errors += o.replay_decode_errors;
        self.fetch_latency_cycles += o.fetch_latency_cycles;
        self.fetch_replays += o.fetch_replays;
    }
}

// ====================================================================
// Protocol codec
// ====================================================================

/// Protocol operations, encoded in bits 3:0 of the message's DIP word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum CohOp {
    /// Requester → home: fetch a read-only copy (P0).
    FetchRead = 1,
    /// Requester → home: fetch an exclusive copy (P0).
    FetchWrite = 2,
    /// Home → remote owner: surrender the dirty block (P1).
    Recall = 3,
    /// Owner → home: the recalled block's data (P1).
    Writeback = 4,
    /// Home → requester: read-only data grant (P1).
    GrantRead = 5,
    /// Home → requester: exclusive data grant (P1).
    GrantWrite = 6,
    /// Home → sharer: drop your copy (P1).
    Invalidate = 7,
}

impl CohOp {
    fn from_bits(bits: u64) -> Option<CohOp> {
        match bits & 0xF {
            1 => Some(CohOp::FetchRead),
            2 => Some(CohOp::FetchWrite),
            3 => Some(CohOp::Recall),
            4 => Some(CohOp::Writeback),
            5 => Some(CohOp::GrantRead),
            6 => Some(CohOp::GrantWrite),
            7 => Some(CohOp::Invalidate),
            _ => None,
        }
    }

    fn priority(self) -> Priority {
        match self {
            CohOp::FetchRead | CohOp::FetchWrite => Priority::P0,
            _ => Priority::P1,
        }
    }

    fn carries_data(self) -> bool {
        matches!(
            self,
            CohOp::Writeback | CohOp::GrantRead | CohOp::GrantWrite
        )
    }
}

/// One decoded protocol message.
#[derive(Debug, Clone)]
struct CohMsg {
    op: CohOp,
    from: NodeCoord,
    block_va: u64,
    /// The 8-word block payload of data-bearing ops.
    data: Option<Block>,
}

/// Does this faulted access need an exclusive (writable) copy? Stores
/// do, and so does a synchronizing *load* (descriptor bits 8:7 ≠ 0): its
/// full/empty postcondition mutates the word, which a shared READ-ONLY
/// copy cannot absorb. Serving such a load with a read grant would either
/// silently drop the SetEmpty — letting two consumers take the same
/// full word — or livelock replaying against a never-writable copy.
fn record_needs_write(desc: Word) -> bool {
    let bits = desc.bits();
    bits & (1 << 4) != 0 || (bits >> 7) & 3 != 0
}

/// Compose a protocol message: DIP word = op descriptor, address word =
/// block VA, body = the 8 data words plus one sync-bit mask word for
/// data-bearing ops (tagged pointers ride the words' own tag bits).
fn encode_msg(
    op: CohOp,
    src: NodeCoord,
    dest: NodeCoord,
    block_va: u64,
    data: Option<&Block>,
) -> Message {
    debug_assert_eq!(op.carries_data(), data.is_some());
    let mut body = mm_net::MsgBody::new();
    if let Some(b) = data {
        for k in 0..BLOCK_WORDS as usize {
            body.push(b.word(k));
        }
        body.push(Word::from_u64(u64::from(b.sync)));
    }
    Message {
        priority: op.priority(),
        src,
        dest,
        dip: Word::from_u64(op as u64),
        addr: Word::from_u64(block_va),
        body,
        wire: Default::default(),
    }
}

/// Decode a protocol message; `None` for a malformed descriptor or a
/// data op with the wrong body length.
fn decode_msg(msg: &Message) -> Option<CohMsg> {
    let op = CohOp::from_bits(msg.dip.bits())?;
    let data = if op.carries_data() {
        if msg.body.len() != BLOCK_WORDS as usize + 1 {
            return None;
        }
        let mut b = Block::default();
        for (k, w) in msg.body[..BLOCK_WORDS as usize].iter().enumerate() {
            b.data[k] = w.bits();
            b.tags |= u8::from(w.is_pointer()) << k;
        }
        #[allow(clippy::cast_possible_truncation)]
        {
            b.sync = msg.body[BLOCK_WORDS as usize].bits() as u8;
        }
        Some(b)
    } else {
        if !msg.body.is_empty() {
            return None;
        }
        None
    };
    Some(CohMsg {
        op,
        from: msg.src,
        block_va: msg.addr.bits(),
        data,
    })
}

/// Refuse a restored coherence message `decode_msg` rejects, naming
/// `owner`: [`NodeCoh::step`] panics on one when it arrives.
// analyze: cold (restore validation)
pub(crate) fn refuse_undecodable<'a>(
    owner: &str,
    msgs: impl IntoIterator<Item = &'a Message>,
) -> Result<(), CkptError> {
    match msgs.into_iter().find(|m| decode_msg(m).is_none()) {
        Some(m) => Err(CkptError(format!(
            "{owner} holds an undecodable coherence message {} -> {} \
             (op word {:#x}, {} body words)",
            m.src,
            m.dest,
            m.dip.bits(),
            m.body.len()
        ))),
        None => Ok(()),
    }
}

// ====================================================================
// Per-node handler state
// ====================================================================

/// Directory state for one 8-word block, kept at (and only at) its home
/// node. The home's own copy is tracked like any other: boot leaves
/// every home block writable, so a fresh entry starts with the home as
/// exclusive owner.
#[derive(Debug, Clone)]
struct DirEntry {
    block: u64,
    /// Ascending, without repeats — the order the checkpoint lists them.
    sharers: Vec<NodeCoord>,
    owner: Option<NodeCoord>,
    /// A recall is in flight to a remote owner; fetches for the block
    /// queue in the directory until its writeback lands.
    recalling: bool,
    /// A composed grant for this block is still waiting out its
    /// invalidation charge inside this handler (a scheduled
    /// [`Pending::SendGrant`]). Further service of the block defers until
    /// it leaves: injecting a recall ahead of the grant would let the
    /// recall overtake it on the fabric and reach an "owner" that does
    /// not hold the data yet.
    grant_pending: bool,
}

impl DirEntry {
    /// A fresh entry: `home` the exclusive owner and only sharer.
    // analyze: cold (a block's first fetch; entries are never dropped)
    fn new(block: u64, home: NodeCoord) -> DirEntry {
        DirEntry {
            block,
            sharers: Vec::from([home]),
            owner: Some(home),
            recalling: false,
            grant_pending: false,
        }
    }

    /// Register `from` as a sharer.
    fn share(&mut self, from: NodeCoord) {
        if let Err(at) = self.sharers.binary_search(&from) {
            self.sharers.insert(at, from);
        }
    }

    /// Make `from` the exclusive owner and only sharer.
    fn make_owner(&mut self, from: NodeCoord) {
        self.sharers.clear();
        self.sharers.push(from);
        self.owner = Some(from);
    }

    /// The owner's writeback landed: it holds no copy any more.
    fn release_owner(&mut self) {
        if let Some(owner) = self.owner.take() {
            if let Ok(at) = self.sharers.binary_search(&owner) {
                self.sharers.remove(at);
            }
        }
        self.recalling = false;
    }
}

/// A fetch queued at the home behind an outstanding recall.
#[derive(Debug, Clone, Copy)]
struct QFetch {
    block: u64,
    from: NodeCoord,
    write: bool,
}

/// The home's software directory: an entry per block homed here that a
/// fetch has reached, sorted by block (entries are never dropped), and
/// the fetches queued behind recalls in arrival order. Both tables keep
/// their capacity, so a warm directory services fetches without
/// allocating.
#[derive(Debug, Clone, Default)]
struct Directory {
    entries: Vec<DirEntry>,
    queued: Vec<QFetch>,
}

impl Directory {
    fn get_mut(&mut self, block: u64) -> Option<&mut DirEntry> {
        let at = self
            .entries
            .binary_search_by_key(&block, |e| e.block)
            .ok()?;
        Some(&mut self.entries[at])
    }

    /// The entry for `block`, created with `home` as exclusive owner if
    /// absent.
    fn entry(&mut self, block: u64, home: NodeCoord) -> &mut DirEntry {
        let at = match self.entries.binary_search_by_key(&block, |e| e.block) {
            Ok(at) => at,
            Err(at) => {
                self.entries.insert(at, DirEntry::new(block, home));
                at
            }
        };
        &mut self.entries[at]
    }

    fn queue(&mut self, block: u64, from: NodeCoord, write: bool) {
        self.queued.push(QFetch { block, from, write });
    }

    /// The earliest fetch queued for `block`.
    fn pop_queued(&mut self, block: u64) -> Option<QFetch> {
        let at = self.queued.iter().position(|q| q.block == block)?;
        Some(self.queued.remove(at))
    }

    /// Each entry, then the fetches queued for its block.
    // analyze: cold (checkpoint codec)
    fn save(&self, e: &mut Enc) {
        e.usize(self.entries.len());
        for entry in &self.entries {
            entry.save(e);
            let queued = self.queued.iter().filter(|q| q.block == entry.block);
            let queued: Vec<_> = queued.map(|q| (q.from, q.write)).collect();
            queued.save(e);
        }
    }

    // analyze: cold (checkpoint codec)
    fn load(&mut self, d: &mut Dec<'_>) -> Result<(), CkptError> {
        self.entries.clear();
        self.queued.clear();
        for (mut entry, queued) in Vec::<(DirEntry, Vec<(NodeCoord, bool)>)>::load(d)? {
            entry.sharers.sort_unstable();
            if entry.sharers.windows(2).any(|w| w[0] == w[1]) {
                let block = entry.block;
                return Err(CkptError(format!("block {block:#x} lists a sharer twice")));
            }
            for (from, write) in queued {
                self.queue(entry.block, from, write);
            }
            self.entries.push(entry);
        }
        self.entries.sort_by_key(|e| e.block);
        if let Some(w) = self.entries.windows(2).find(|w| w[0].block == w[1].block) {
            return Err(CkptError(format!(
                "directory lists block {:#x} twice",
                w[0].block
            )));
        }
        Ok(())
    }
}

ckpt_struct! { DirEntry { block, sharers, owner, recalling, grant_pending } }

/// Requester-side request state of one block: which request modes are
/// already in flight, so repeat faults on the same block don't flood
/// the home.
#[derive(Debug, Clone, Copy)]
struct BlockWait {
    block: u64,
    read_sent: bool,
    write_sent: bool,
}

impl BlockWait {
    /// A fault needing `write` access arrived: does it need a request of
    /// its own? Not while one in flight covers it — a write fetch
    /// satisfies reads too. A needed request is marked in flight.
    fn request(&mut self, write: bool) -> bool {
        let covered = self.write_sent || (!write && self.read_sent);
        if !covered {
            if write {
                self.write_sent = true;
            } else {
                self.read_sent = true;
            }
        }
        !covered
    }
}

/// One faulted access awaiting a grant, replayed on its arrival.
#[derive(Debug, Clone, Copy)]
struct WaitRecord {
    block: u64,
    /// The fault cycle.
    at: u64,
    record: [Word; 3],
}

/// The requester side's fault state: the blocks with a fault awaiting a
/// grant (unordered), and their faulted records in fault order. Both
/// tables keep their capacity from one transaction to the next.
#[derive(Debug, Clone, Default)]
struct Waiting {
    blocks: Vec<BlockWait>,
    records: Vec<WaitRecord>,
}

impl Waiting {
    /// Queue a fault on `block`; returns the block's request state.
    fn add(&mut self, block: u64, at: u64, record: [Word; 3]) -> &mut BlockWait {
        self.records.push(WaitRecord { block, at, record });
        let k = match self.blocks.iter().position(|w| w.block == block) {
            Some(k) => k,
            None => {
                self.blocks.push(BlockWait {
                    block,
                    read_sent: false,
                    write_sent: false,
                });
                self.blocks.len() - 1
            }
        };
        &mut self.blocks[k]
    }

    /// Is a fault on `block` waiting for a grant?
    fn has(&self, block: u64) -> bool {
        self.blocks.iter().any(|w| w.block == block)
    }

    /// Remove and return the earliest record on `block` that a grant of
    /// the given mode satisfies: any record for a write grant, only those
    /// not needing an exclusive copy for a read grant.
    fn take(&mut self, block: u64, write: bool) -> Option<WaitRecord> {
        let at = self
            .records
            .iter()
            .position(|r| r.block == block && (write || !record_needs_write(r.record[0])))?;
        Some(self.records.remove(at))
    }

    /// After a grant on `block` has taken its records: clear the request
    /// modes it answered and forget the block if nothing is left waiting.
    fn settle(&mut self, block: u64, write: bool) {
        let Some(k) = self.blocks.iter().position(|w| w.block == block) else {
            return;
        };
        let w = &mut self.blocks[k];
        if write {
            w.write_sent = false;
        }
        w.read_sent = false;
        if !w.write_sent && !self.records.iter().any(|r| r.block == block) {
            self.blocks.swap_remove(k);
        }
    }

    /// Blocks ascending, each with its records in fault order.
    // analyze: cold (checkpoint codec)
    fn save(&self, e: &mut Enc) {
        let mut blocks = self.blocks.clone();
        blocks.sort_unstable_by_key(|w| w.block);
        e.usize(blocks.len());
        for w in &blocks {
            let records = self.records.iter().filter(|r| r.block == w.block);
            let records: Vec<_> = records.map(|r| (r.at, r.record)).collect();
            (w.block, records, w.read_sent, w.write_sent).save(e);
        }
    }

    // analyze: cold (checkpoint codec)
    fn load(&mut self, d: &mut Dec<'_>) -> Result<(), CkptError> {
        self.blocks.clear();
        self.records.clear();
        type Row = (u64, Vec<(u64, [Word; 3])>, bool, bool);
        for (block, records, read_sent, write_sent) in Vec::<Row>::load(d)? {
            if self.has(block) {
                return Err(CkptError(format!(
                    "wait table lists block {block:#x} twice"
                )));
            }
            let records = records.into_iter();
            self.records
                .extend(records.map(|(at, record)| WaitRecord { block, at, record }));
            self.blocks.push(BlockWait {
                block,
                read_sent,
                write_sent,
            });
        }
        Ok(())
    }
}

/// Per-vpn remote-frame LPT slot, ascending by vpn, so repeat faults
/// reuse the frame.
#[derive(Debug, Clone, Default)]
struct Frames(Vec<(u64, u64)>);

impl Frames {
    fn get(&self, vpn: u64) -> Option<u64> {
        let at = self.0.binary_search_by_key(&vpn, |f| f.0).ok()?;
        Some(self.0[at].1)
    }

    fn insert(&mut self, vpn: u64, slot: u64) {
        match self.0.binary_search_by_key(&vpn, |f| f.0) {
            Ok(at) => self.0[at].1 = slot,
            Err(at) => self.0.insert(at, (vpn, slot)),
        }
    }

    // analyze: cold (checkpoint codec)
    fn save(&self, e: &mut Enc) {
        self.0.save(e);
    }

    // analyze: cold (checkpoint codec)
    fn load(&mut self, d: &mut Dec<'_>) -> Result<(), CkptError> {
        self.0 = Vec::load(d)?;
        self.0.sort_unstable_by_key(|f| f.0);
        if let Some(w) = self.0.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(CkptError(format!(
                "frame table lists vpn {:#x} twice",
                w[0].0
            )));
        }
        Ok(())
    }
}

/// Read-only occupancy summary of one node's coherence handler — what
/// `mmctl snapshot` prints per node. Sizes only, no protocol state:
/// cheap to gather and stable across internal refactors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CohInspect {
    /// Blocks with a directory entry at this home.
    pub directory_blocks: usize,
    /// Sharer registrations across all directory entries.
    pub sharers: usize,
    /// Directory entries with a recall in flight.
    pub recalling: usize,
    /// Fetches queued at the home behind outstanding recalls.
    pub queued_fetches: usize,
    /// Requester-side blocks with faulted accesses awaiting a grant.
    pub waiting_blocks: usize,
    /// Faulted records queued across those blocks.
    pub waiting_records: usize,
    /// Charged firmware actions scheduled for future cycles.
    pub pending_actions: usize,
    /// Composed protocol messages awaiting injection.
    pub outbound_msgs: usize,
    /// Remote-block frames allocated on this node.
    pub frames: usize,
}

/// A charged firmware action scheduled for a future cycle, fired in
/// `(due, schedule order)`. Blocks ride packed ([`Block`]) and a delayed
/// grant as its parts, so every action fits the size asserted below:
/// the queue sifts whole entries on each push and pop.
#[derive(Debug, Clone)]
enum Pending {
    /// Replay a faulted access via `firmware_restart`.
    Replay([Word; 3]),
    /// Compose and queue a fetch request to `home`.
    SendFetch {
        block: u64,
        write: bool,
        home: NodeCoord,
    },
    /// Home side: service one fetch (`from` may be this node itself).
    Service {
        from: NodeCoord,
        block: u64,
        write: bool,
    },
    /// Owner side: surrender the block to `home`. `patience` counts the
    /// cycles left to wait for the ownership grant (and the store that
    /// motivated it) to land before surrendering unconditionally.
    ServiceRecall {
        block: u64,
        home: NodeCoord,
        patience: u64,
    },
    /// Home side: apply a recalled owner's data, then drain the queue.
    ServiceWriteback { block: u64, data: Block },
    /// Requester side: install a granted block and replay.
    ServiceGrant {
        block: u64,
        write: bool,
        data: Block,
    },
    /// Sharer side: drop the local copy.
    ServiceInvalidate { block: u64 },
    /// Home side: the home's own fault was serviced — flip the local
    /// status and complete/replay the waiting accesses (delayed behind
    /// the per-sharer invalidation charge).
    LocalGrant { block: u64, write: bool },
    /// Home side: a grant to `to` whose send waits out the per-sharer
    /// invalidation charge; its message is composed when it fires.
    SendGrant {
        to: NodeCoord,
        write: bool,
        block: u64,
        data: Block,
    },
}

const _: () = assert!(std::mem::size_of::<Pending>() <= 96);

/// Cycles a recalled owner waits for its ownership grant — and the
/// store that motivated it — to land before surrendering the block
/// unconditionally (the deadlock backstop for grants that legally never
/// dirty the block). Generous relative to the grant's worst-case delay
/// (per-sharer invalidation charges + fabric transit + a write miss).
const RECALL_PATIENCE: u64 = 256;

/// One node's coherence firmware: the Rust stand-in for its resident
/// class-0 event H-Thread. Owns the directory for blocks homed here,
/// the requester-side wait state for blocks fetched from elsewhere, and
/// the node's remote-block frame allocator. Touches nothing but its own
/// node — the property that lets the machine run it inside the sharded
/// node phase.
///
/// Field order is deliberate (`repr(C)`): every node step activates the
/// handler, and an idle activation reads only the two queue headers
/// that lead, from the start of a host cache line.
#[derive(Debug, Clone)]
#[repr(C, align(64))]
pub struct NodeCoh {
    pending: ReadyQueue<Pending>,
    /// Composed protocol messages awaiting injection (in order; a P0
    /// head with no send credit blocks the queue until credits return).
    outbound: VecDeque<Message>,
    directory: Directory,
    waiting: Waiting,
    frames: Frames,
    stats: CoherenceStats,
    cfg: CoherenceConfig,
    coord: NodeCoord,
}

// Five host cache lines per node.
const _: () = assert!(std::mem::size_of::<NodeCoh>() <= 320);

impl NodeCoh {
    // analyze: cold (constructor, once per node; every table starts empty)
    fn new(cfg: CoherenceConfig, coord: NodeCoord) -> NodeCoh {
        NodeCoh {
            pending: ReadyQueue::new(),
            outbound: VecDeque::new(),
            directory: Directory::default(),
            waiting: Waiting::default(),
            frames: Frames::default(),
            stats: CoherenceStats::default(),
            cfg,
            coord,
        }
    }

    /// This handler's accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CoherenceStats {
        self.stats
    }

    /// Occupancy summary for the inspector (sizes of every internal
    /// queue and table; no protocol state leaks out).
    // analyze: cold (inspector view)
    #[must_use]
    pub fn inspect(&self) -> CohInspect {
        let entries = &self.directory.entries;
        CohInspect {
            directory_blocks: entries.len(),
            sharers: entries.iter().map(|e| e.sharers.len()).sum(),
            recalling: entries.iter().filter(|e| e.recalling).count(),
            queued_fetches: self.directory.queued.len(),
            waiting_blocks: self.waiting.blocks.len(),
            waiting_records: self.waiting.records.len(),
            pending_actions: self.pending.len(),
            outbound_msgs: self.outbound.len(),
            frames: self.frames.0.len(),
        }
    }

    /// One handler activation at cycle `now`, immediately after `node`'s
    /// own step: drain fresh class-0 records, dispatch arrived protocol
    /// messages, fire due charged actions, and flush composed messages
    /// into the node's outbox (credit permitting). Returns whether any
    /// work happened (the node-phase progress bit).
    pub(crate) fn step(&mut self, now: u64, node: &mut Node) -> bool {
        let mut progressed = false;

        // 1. Fresh class-0 event records.
        while let Some(record) = node.pop_event_record(0) {
            progressed = true;
            let Some(kind) = EventKind::from_bits(record[0].bits()) else {
                // Previously `continue`d silently, losing the record and
                // hanging its thread with no trace; now it is at least
                // observable (and asserted zero by the harness).
                self.stats.unknown_events += 1;
                continue;
            };
            match kind {
                EventKind::SyncFault => {
                    self.stats.sync_retries += 1;
                    self.pending
                        .push(now + self.cfg.sync_retry_cycles, Pending::Replay(record));
                }
                EventKind::BlockStatus => self.block_fault(now, node, record),
                EventKind::LtlbMiss | EventKind::EccError => {
                    // Not ours (LTLB misses go to class 1; ECC errors are
                    // reported, not repaired).
                }
            }
        }

        // 2. Arrived protocol messages.
        while let Some(msg) = node.net.pop_coh() {
            progressed = true;
            let decoded = decode_msg(&msg)
                .unwrap_or_else(|| panic!("corrupt coherence message on {}: {msg:?}", self.coord));
            let action = match decoded.op {
                CohOp::FetchRead | CohOp::FetchWrite => Pending::Service {
                    from: decoded.from,
                    block: decoded.block_va,
                    write: decoded.op == CohOp::FetchWrite,
                },
                CohOp::Recall => Pending::ServiceRecall {
                    block: decoded.block_va,
                    home: decoded.from,
                    patience: RECALL_PATIENCE,
                },
                CohOp::Writeback => Pending::ServiceWriteback {
                    block: decoded.block_va,
                    data: decoded.data.expect("writeback carries data"),
                },
                CohOp::GrantRead | CohOp::GrantWrite => Pending::ServiceGrant {
                    block: decoded.block_va,
                    write: decoded.op == CohOp::GrantWrite,
                    data: decoded.data.expect("grant carries data"),
                },
                CohOp::Invalidate => Pending::ServiceInvalidate {
                    block: decoded.block_va,
                },
            };
            self.pending.push(now + self.cfg.handler_cycles, action);
        }

        // 3. Fire due charged actions (actions scheduled for `now`
        // during this pass fire in the same cycle, in schedule order).
        while let Some(action) = self.pending.pop_due(now) {
            progressed = true;
            self.fire(now, node, action);
        }

        // 4. Flush composed messages. Per-priority order is preserved,
        // but P1 replies may overtake a credit-starved P0 fetch at the
        // head — they ride a separate virtual channel in the fabric, and
        // holding grants hostage behind a throttled request is a
        // head-of-line deadlock (the credits that would unblock the
        // fetch often depend on exactly those replies being consumed).
        // Sendability is decided before the message is moved, so the
        // common (uncongested) path is clone-free front-pops.
        while let Some(front) = self.outbound.front() {
            if front.priority == Priority::P0 && node.net.credits() == 0 {
                break;
            }
            let msg = self.outbound.pop_front().expect("front exists");
            let sent = node.net.send_coh(msg);
            debug_assert!(sent, "pre-checked send cannot stall");
            progressed = true;
        }
        if !self.outbound.is_empty() {
            // Rare path: a P0 fetch is credit-blocked at the head. Let
            // the P1 replies behind it out (relative P1 order kept).
            let mut k = 1;
            while k < self.outbound.len() {
                if self.outbound[k].priority == Priority::P1 {
                    let msg = self.outbound.remove(k).expect("index in bounds");
                    let sent = node.net.send_coh(msg);
                    debug_assert!(sent, "P1 sends cannot stall");
                    progressed = true;
                } else {
                    k += 1;
                }
            }
        }

        progressed
    }

    /// The earliest future cycle this handler can do work on its own:
    /// the next charged action, or the next cycle while composed
    /// messages wait for credits. Arrived-but-undispatched protocol
    /// messages are covered by [`Node::next_activity`].
    pub(crate) fn next_activity(&self, now: u64) -> Option<u64> {
        let mut best = self.pending.next_ready().map(|t| t.max(now + 1));
        if !self.outbound.is_empty() {
            best = mm_sim::engine::earliest(best, Some(now + 1));
        }
        best
    }

    /// Handle one block-status fault record: find the home through this
    /// node's own GTLB and either service locally (this node is home) or
    /// request the block over the fabric.
    fn block_fault(&mut self, now: u64, node: &mut Node, record: [Word; 3]) {
        let write = record_needs_write(record[0]);
        let va = record[1].bits();
        let block = va & !(BLOCK_WORDS - 1);
        let Some(home) = node.net.gtlb_mut().probe(va) else {
            // No page-group covers this address, so no home node can
            // ever grant it: the faulting thread could never be
            // restarted. That is a system-software bug (a locally
            // mapped, INVALID-status frame for an address outside every
            // GDT entry), and dropping the record would hang the thread
            // silently — fail deterministically instead, mirroring the
            // undecodable-record policy.
            self.stats.unmapped_faults += 1;
            panic!(
                "coherence fault on {}: va {va:#x} is outside every GTLB \
                 page-group — the faulting thread can never be restarted",
                self.coord
            );
        };
        if !self.waiting.add(block, now, record).request(write) {
            return;
        }
        let action = if home == self.coord {
            Pending::Service {
                from: self.coord,
                block,
                write,
            }
        } else {
            Pending::SendFetch { block, write, home }
        };
        self.pending.push(now + self.cfg.handler_cycles, action);
    }

    /// Execute one due firmware action.
    fn fire(&mut self, now: u64, node: &mut Node, action: Pending) {
        match action {
            Pending::Replay(record) => self.replay(now, node, record),
            Pending::SendFetch { block, write, home } => {
                let op = if write {
                    CohOp::FetchWrite
                } else {
                    CohOp::FetchRead
                };
                self.outbound
                    .push_back(encode_msg(op, self.coord, home, block, None));
            }
            Pending::Service { from, block, write } => {
                self.service_fetch(now, node, from, block, write);
            }
            Pending::ServiceRecall {
                block,
                home,
                patience,
            } => {
                // A recall can overtake its own ownership grant: the home
                // marks the directory owner when it *services* a write
                // fetch, but the grant message leaves only after the
                // per-sharer invalidation charge, so a recall composed in
                // that window reaches a node that does not hold the data
                // yet — surrendering then would write garbage back over
                // the home's fresh copy. And even after the grant
                // installs, the store that motivated the FETCH-WRITE is
                // still replaying through the memory pipeline for a few
                // cycles; surrendering in *that* window loses the write
                // and (in a tight producer/consumer loop) livelocks the
                // pair in endless grant/recall rounds. So the owner
                // defers until the block is DIRTY — the replayed store
                // has landed — with bounded patience as the deadlock
                // backstop (a granted store can legally never dirty the
                // block, e.g. when its sync precondition fails on
                // replay).
                if patience > 0 && Self::block_status_of(node, block) != BlockStatus::Dirty {
                    self.pending.push(
                        now + 1,
                        Pending::ServiceRecall {
                            block,
                            home,
                            patience: patience - 1,
                        },
                    );
                    return;
                }
                // Patience expiry with the copy still INVALID would mean
                // the recall beat its own grant here — which the home's
                // grant_pending deferral plus same-route P1 FIFO ordering
                // makes impossible. Writing the never-granted frame back
                // would corrupt the home silently, so fail loudly if the
                // invariant ever breaks.
                assert!(
                    Self::block_status_of(node, block).readable(),
                    "recall on {} for block {block:#x}: patience expired with no \
                     granted copy — a recall overtook its grant",
                    self.coord
                );
                // Surrender the (dirty) copy: freshest data lives here.
                let data = node.mem.take_block(block).expect("block page mapped");
                Self::set_status(node, block, BlockStatus::Invalid);
                self.outbound.push_back(encode_msg(
                    CohOp::Writeback,
                    self.coord,
                    home,
                    block,
                    Some(&data),
                ));
            }
            Pending::ServiceWriteback { block, data } => {
                self.stats.writebacks += 1;
                node.mem.flush_block(block);
                let pa = node.mem.translate(block).expect("home page mapped");
                node.mem.poke_block(pa, &data);
                let Some(e) = self.directory.get_mut(block) else {
                    return;
                };
                e.release_owner();
                // Drain fetches queued behind the recall, re-entering the
                // service path (a queued write may install a new remote
                // owner that a later queued fetch must recall again).
                while !self.directory.get_mut(block).is_some_and(|e| e.recalling) {
                    let Some(q) = self.directory.pop_queued(block) else {
                        break;
                    };
                    self.service_fetch(now, node, q.from, block, q.write);
                }
            }
            Pending::ServiceGrant { block, write, data } => {
                let status = if write {
                    BlockStatus::ReadWrite
                } else {
                    BlockStatus::ReadOnly
                };
                self.install_block(node, block, status, &data);
                self.replay_waiting(now, node, block, write);
            }
            Pending::LocalGrant { block, write } => {
                // The directory may have moved on while this local grant
                // waited out its invalidation charge (a remote fetch
                // serviced in between can hand the block elsewhere).
                // Flipping the status anyway would fork a second
                // writable copy, so re-enter the service path instead —
                // the waiting records are still queued and will replay
                // when the re-service completes.
                let me = self.coord;
                let backed = self.directory.get_mut(block).is_some_and(|e| {
                    e.grant_pending = false;
                    if write {
                        e.owner == Some(me)
                    } else {
                        e.sharers.binary_search(&me).is_ok()
                    }
                });
                if !backed {
                    self.pending.push(
                        now,
                        Pending::Service {
                            from: me,
                            block,
                            write,
                        },
                    );
                    return;
                }
                node.mem.flush_block(block);
                let status = if write {
                    BlockStatus::ReadWrite
                } else {
                    BlockStatus::ReadOnly
                };
                Self::set_status(node, block, status);
                self.replay_waiting(now, node, block, write);
            }
            Pending::ServiceInvalidate { block } => {
                Self::set_status(node, block, BlockStatus::Invalid);
            }
            Pending::SendGrant {
                to,
                write,
                block,
                data,
            } => {
                if let Some(e) = self.directory.get_mut(block) {
                    e.grant_pending = false;
                }
                self.outbound.push_back(encode_msg(
                    grant_op(write),
                    self.coord,
                    to,
                    block,
                    Some(&data),
                ));
            }
        }
    }

    /// Home-side service of one fetch. `from == self.coord` is the home
    /// faulting on its own block (its copy was invalidated or downgraded
    /// by an earlier grant): same directory transitions, but the "grant"
    /// is a local status flip + replay instead of a message.
    fn service_fetch(
        &mut self,
        now: u64,
        node: &mut Node,
        from: NodeCoord,
        block: u64,
        write: bool,
    ) {
        let me = self.coord;
        let entry = self.directory.entry(block, me);
        if entry.grant_pending {
            // A grant for this block is still waiting out its
            // invalidation charge. Servicing now could compose a recall
            // that beats the grant onto the (same-route, same-priority)
            // fabric channel; defer until the grant has left, which
            // guarantees every recall arrives after the ownership it
            // revokes.
            self.pending
                .push(now + 1, Pending::Service { from, block, write });
            return;
        }
        if entry.recalling {
            self.directory.queue(block, from, write);
            return;
        }
        if let Some(owner) = entry.owner {
            if owner != me && owner != from {
                // The freshest copy is dirty at a remote owner: recall it
                // and queue this fetch behind the writeback.
                entry.recalling = true;
                self.directory.queue(block, from, write);
                self.outbound
                    .push_back(encode_msg(CohOp::Recall, me, owner, block, None));
                return;
            }
        }

        // Directory transition + invalidations/downgrades.
        let mut extra = 0;
        if write {
            for &s in &entry.sharers {
                if s == from {
                    continue;
                }
                if s == me {
                    Self::set_status(node, block, BlockStatus::Invalid);
                } else {
                    self.outbound
                        .push_back(encode_msg(CohOp::Invalidate, me, s, block, None));
                }
                self.stats.invalidations += 1;
                extra += self.cfg.invalidate_cycles;
            }
            entry.make_owner(from);
        } else {
            if entry.owner == Some(me) && from != me {
                // Downgrade the home's exclusive copy.
                Self::set_status(node, block, BlockStatus::ReadOnly);
            }
            entry.owner = None;
            entry.share(from);
        }
        self.stats.block_fetches += 1;

        if from == me {
            // Local grant: home DRAM already holds the freshest data
            // (any remote dirty copy came back through the recall path).
            // Status flip and replay happen *together* after the
            // invalidation charge — flipping early would open a window
            // in which the thread's next store lands before the stale
            // faulted one replays over it.
            //
            // The local grant holds `grant_pending` exactly like a
            // composed message grant: until it lands, further service of
            // the block defers. Without this, a second fetch drained in
            // the same cycle (e.g. queued behind the same writeback)
            // re-steals the block before the home's waiting accesses
            // complete — under contention the home's own stores starve
            // forever, never reaching memory (observed as the task-queue
            // producer's published stripe silently staying empty).
            entry.grant_pending = true;
            self.pending
                .push(now + extra, Pending::LocalGrant { block, write });
        } else {
            let data = node.mem.take_block(block).expect("block page mapped");
            if extra > 0 {
                // The handler composes the invalidations first. Mark the
                // block so no recall can be composed ahead of this grant.
                entry.grant_pending = true;
                let grant = Pending::SendGrant {
                    to: from,
                    write,
                    block,
                    data,
                };
                self.pending.push(now + extra, grant);
            } else {
                self.outbound
                    .push_back(encode_msg(grant_op(write), me, from, block, Some(&data)));
            }
        }
    }

    /// Complete or replay the waiting faulted accesses a grant
    /// satisfies: all of them for a write grant, loads only for a read
    /// grant (stores keep waiting for the exclusive copy).
    ///
    /// Faulted **stores** are completed *in place* by the firmware, in
    /// record order, in this very cycle — exactly as Fig. 7(b)'s
    /// remote-write handler performs its store directly. Replaying them
    /// through the memory pipeline instead would be a stale-write
    /// hazard: the thread that faulted was never blocked (stores don't
    /// stall the issue stage), so by grant time it may have stored a
    /// *newer* value to the same word; a pipelined replay of the old
    /// value would land afterwards and silently overwrite it. Faulted
    /// **loads** replay through the pipeline (`firmware_restart`) — they
    /// must route a value into the faulting thread's register, and that
    /// thread is provably blocked on the empty register, so no newer
    /// access can race the replay.
    fn replay_waiting(&mut self, now: u64, node: &mut Node, block: u64, write: bool) {
        if !self.waiting.has(block) {
            return;
        }
        while let Some(w) = self.waiting.take(block, write) {
            self.stats.fetch_latency_cycles += now.saturating_sub(w.at);
            self.stats.fetch_replays += 1;
            if w.record[0].bits() & (1 << 4) != 0 {
                self.complete_store(now, node, block, w.record);
            } else {
                self.pending.push(now, Pending::Replay(w.record));
            }
        }
        self.waiting.settle(block, write);
    }

    /// Complete one faulted store in firmware: apply its data and sync
    /// postcondition to the freshly granted block and mark it DIRTY. A
    /// failed sync *pre*condition downgrades the record to the
    /// synchronizing-fault path (pipeline retry after backoff), exactly
    /// as the memory system would have raised it.
    fn complete_store(&mut self, now: u64, node: &mut Node, block: u64, record: [Word; 3]) {
        let Some(req) = decode_record(record[0], record[1], record[2], 0) else {
            self.stats.replay_decode_errors += 1;
            panic!(
                "coherence store completion on {}: record {:?} does not decode — \
                 the faulting thread's store would be lost",
                self.coord, record
            );
        };
        let old = node
            .mem
            .peek_va(req.va)
            .expect("granted block page is mapped");
        let pre_ok = match req.pre {
            SyncPre::Any => true,
            SyncPre::Full => old.sync,
            SyncPre::Empty => !old.sync,
        };
        if !pre_ok {
            self.stats.sync_retries += 1;
            self.pending
                .push(now + self.cfg.sync_retry_cycles, Pending::Replay(record));
            return;
        }
        let sync = match req.post {
            SyncPost::Unchanged => old.sync,
            SyncPost::SetFull => true,
            SyncPost::SetEmpty => false,
        };
        let w = MemWord::with_sync(Word::from_raw(req.data.bits(), req.data_ptr_tag), sync);
        assert!(node.mem.poke_va(req.va, w), "granted block page is mapped");
        Self::set_status(node, block, BlockStatus::Dirty);
    }

    /// Replay one faulted access. A record that fails `decode_record`
    /// can never be restarted — its thread would hang silently — so it
    /// is surfaced as a stat and a deterministic panic instead of being
    /// dropped.
    fn replay(&mut self, now: u64, node: &mut Node, record: [Word; 3]) {
        let Some(req) = decode_record(record[0], record[1], record[2], 0) else {
            self.stats.replay_decode_errors += 1;
            panic!(
                "coherence replay on {}: record {:?} does not decode — \
                 the faulting thread can never be restarted",
                self.coord, record
            );
        };
        if node.firmware_restart(req).is_err() {
            // Bank queue full: retry next cycle.
            self.pending.push(now + 1, Pending::Replay(record));
        }
    }

    /// The block's status as recorded in this node's LTLB (falling back
    /// to the LPT), `Invalid` when the page is unmapped here.
    fn block_status_of(node: &Node, block_va: u64) -> BlockStatus {
        let vpn = block_va / PAGE_WORDS;
        let block = (block_va % PAGE_WORDS) / BLOCK_WORDS;
        if let Some(e) = node.mem.ltlb_probe(vpn) {
            return e.block_status(block);
        }
        node.mem
            .lpt()
            .and_then(|lpt| lpt.lookup(node.mem.sdram(), vpn))
            .map_or(BlockStatus::Invalid, |e| e.block_status(block))
    }

    /// Mark a block's status in this node's LTLB/LPT entry, dropping any
    /// cached line first and keeping the LPT copy coherent.
    fn set_status(node: &mut Node, block_va: u64, status: BlockStatus) {
        node.mem.flush_block(block_va);
        let vpn = block_va / PAGE_WORDS;
        let block = (block_va % PAGE_WORDS) / BLOCK_WORDS;
        if let Some(e) = node.mem.ltlb_entry_mut(vpn) {
            e.set_block_status(block, status);
            let e = *e;
            if let Some(lpt) = node.mem.lpt() {
                lpt.write_back(node.mem.sdram_mut(), &e);
            }
        } else if let Some(lpt) = node.mem.lpt() {
            let sdram = node.mem.sdram_mut();
            if let Some(mut e) = lpt.lookup(sdram, vpn) {
                e.set_block_status(block, status);
                lpt.write_back(sdram, &e);
            }
        }
    }

    /// The page the next remote-block frame takes (one per table entry).
    fn next_frame(&self) -> u64 {
        self.cfg.frame_base_ppn + self.frames.0.len() as u64
    }

    /// Ensure this node has a local frame for the block's page, copy the
    /// granted data in, and set the block's status bits. "If the virtual
    /// page containing the block is not mapped to a local physical page,
    /// a new page table entry is created and only the newly arrived
    /// block is marked valid" (§4.3).
    fn install_block(&mut self, node: &mut Node, block_va: u64, status: BlockStatus, data: &Block) {
        let vpn = block_va / PAGE_WORDS;

        // Drop any stale cached line (e.g. a read-only copy being
        // upgraded): the refill re-derives the writable bit from the new
        // block status.
        node.mem.flush_block(block_va);

        if node.mem.ltlb_probe(vpn).is_none() {
            let slot = match self.frames.get(vpn) {
                Some(slot) => slot,
                None => {
                    let lpt = node.mem.lpt().expect("booted node");
                    let ppn = self.next_frame();
                    let entry = LtlbEntry::uniform(vpn, ppn, BlockStatus::Invalid, 0);
                    let slot = lpt
                        .insert(node.mem.sdram_mut(), &entry)
                        .expect("LPT space for remote frame");
                    self.frames.insert(vpn, slot);
                    slot
                }
            };
            assert!(node.mem.tlb_install(slot));
        }

        let e = node.mem.ltlb_probe(vpn).expect("just installed");
        let base_pa = e.translate(block_va % PAGE_WORDS);
        node.mem.poke_block(base_pa, data);
        Self::set_status(node, block_va, status);
    }

    /// Install an all-INVALID local frame for the page holding `va` —
    /// the boot state of a locally-cached remote page (§4.3). First
    /// touches then take the coherent fetch path instead of the LTLB-miss
    /// remote-access path.
    fn map_coherent_page(&mut self, node: &mut Node, va: u64) {
        let vpn = va / PAGE_WORDS;
        if node.mem.ltlb_probe(vpn).is_some() || self.frames.get(vpn).is_some() {
            return;
        }
        let lpt = node.mem.lpt().expect("booted node");
        let ppn = self.next_frame();
        let entry = LtlbEntry::uniform(vpn, ppn, BlockStatus::Invalid, 0);
        let slot = lpt
            .insert(node.mem.sdram_mut(), &entry)
            .expect("LPT space for coherent frame");
        self.frames.insert(vpn, slot);
        assert!(node.mem.tlb_install(slot));
    }

    /// Serialize the handler's complete protocol state (directory, wait
    /// records, charged actions, composed messages, frame table, stats).
    /// Config and coordinates are not written — restore targets an
    /// identically-built machine.
    // analyze: cold (checkpoint codec)
    pub(crate) fn save_state(&self, e: &mut Enc) {
        self.directory.save(e);
        self.waiting.save(e);
        let pending = self.pending.snapshot();
        e.usize(pending.len());
        for (ready, p) in pending {
            e.u64(ready);
            save_pending(e, p, self.coord);
        }
        self.outbound.save(e);
        self.frames.save(e);
        self.next_frame().save(e);
        self.stats.save(e);
    }

    /// Every node this handler's protocol state names — directory
    /// sharers, owners and queued requesters, the peers of charged
    /// actions, and both ends of each composed message — so a restore
    /// can refuse one outside the mesh before a message goes to it.
    // analyze: cold (restore validation)
    pub(crate) fn endpoints(&self) -> Vec<NodeCoord> {
        let mut out = Vec::new();
        for entry in &self.directory.entries {
            out.extend(&entry.sharers);
            out.extend(entry.owner);
        }
        out.extend(self.directory.queued.iter().map(|q| q.from));
        for (_, p) in self.pending.snapshot() {
            match p {
                Pending::SendFetch { home: c, .. }
                | Pending::Service { from: c, .. }
                | Pending::ServiceRecall { home: c, .. }
                | Pending::SendGrant { to: c, .. } => out.push(*c),
                Pending::Replay(_)
                | Pending::ServiceWriteback { .. }
                | Pending::ServiceGrant { .. }
                | Pending::ServiceInvalidate { .. }
                | Pending::LocalGrant { .. } => {}
            }
        }
        out.extend(self.outbound().flat_map(|m| [m.src, m.dest]));
        out
    }

    /// The composed messages waiting to be sent, so a restore can refuse
    /// one the receiving handler could not decode.
    // analyze: cold (restore validation)
    pub(crate) fn outbound(&self) -> impl Iterator<Item = &Message> + '_ {
        self.outbound.iter()
    }

    /// Refuse a restored frame table `node`'s memory cannot back: a slot
    /// other than the one holding its vpn's LPT entry, or a next frame
    /// whose page lies past the SDRAM. Either would panic at the next
    /// grant that installs a frame.
    // analyze: cold (restore validation)
    pub(crate) fn refuse_bad_frames(&self, node: &Node) -> Result<(), CkptError> {
        let lpt = node.mem.lpt();
        for &(vpn, slot) in &self.frames.0 {
            if lpt.and_then(|lpt| lpt.find(node.mem.sdram(), vpn)) != Some(slot) {
                return Err(CkptError(format!(
                    "frame slot {slot:#x} on {} does not hold vpn {vpn:#x}'s LPT entry",
                    self.coord
                )));
            }
        }
        let words = node.mem.sdram().capacity();
        let next = self.next_frame();
        if next.checked_mul(PAGE_WORDS).is_none_or(|pa| pa >= words) {
            return Err(CkptError(format!(
                "next frame {next:#x} on {} lies past the SDRAM",
                self.coord
            )));
        }
        Ok(())
    }

    /// Restore state saved by [`NodeCoh::save_state`].
    // analyze: cold (checkpoint codec)
    pub(crate) fn load_state(&mut self, d: &mut Dec<'_>) -> Result<(), CkptError> {
        self.directory.load(d)?;
        self.waiting.load(d)?;
        let mut pending = Vec::new();
        for _ in 0..d.usize()? {
            let ready = d.u64()?;
            pending.push((ready, load_pending(d, self.coord)?));
        }
        self.pending.restore(pending);
        self.outbound = Ckpt::load(d)?;
        self.frames.load(d)?;
        d.copy_of("next frame", self.next_frame())?;
        self.stats = CoherenceStats::load(d)?;
        Ok(())
    }
}

/// The grant op of a read or write fetch.
fn grant_op(write: bool) -> CohOp {
    if write {
        CohOp::GrantWrite
    } else {
        CohOp::GrantRead
    }
}

ckpt_struct! {
    CoherenceStats {
        block_fetches, invalidations, writebacks, sync_retries, unknown_events, unmapped_faults,
        replay_decode_errors, fetch_latency_cycles, fetch_replays
    }
}

// Charged firmware actions: tags 0-7 are field lists; tag 8, a delayed
// grant, is written by hand as the message `coord` composes when it
// fires (tags are a checkpoint format: never renumber them).
ckpt_enum!(tags Pending {
    0 => Replay(rec),
    1 => SendFetch { block, write, home },
    2 => Service { from, block, write },
    3 => ServiceRecall { block, home, patience },
    4 => ServiceWriteback { block, data },
    5 => ServiceGrant { block, write, data },
    6 => ServiceInvalidate { block },
    7 => LocalGrant { block, write },
});

/// Write one charged action of the handler on `coord`.
// analyze: cold (checkpoint codec)
fn save_pending(e: &mut Enc, p: &Pending, coord: NodeCoord) {
    if let Pending::SendGrant {
        to,
        write,
        block,
        data,
    } = p
    {
        e.u8(8);
        encode_msg(grant_op(*write), coord, *to, *block, Some(data)).save(e);
    } else {
        p.save_tagged(e);
    }
}

/// Read one charged action of the handler on `coord`. A tag-8 message
/// must be a grant exactly as `coord` would compose it.
// analyze: cold (checkpoint codec)
fn load_pending(d: &mut Dec<'_>, coord: NodeCoord) -> Result<Pending, CkptError> {
    let tag = d.u8()?;
    if let Some(p) = Pending::load_tagged(tag, d)? {
        return Ok(p);
    }
    if tag != 8 {
        return Err(CkptError(format!("bad pending-action tag {tag}")));
    }
    let msg = Message::load(d)?;
    let grant = decode_msg(&msg).and_then(|c| {
        let write = match c.op {
            CohOp::GrantRead => false,
            CohOp::GrantWrite => true,
            _ => return None,
        };
        let data = c.data?;
        let to = msg.dest;
        let composed = encode_msg(c.op, coord, to, c.block_va, Some(&data));
        (composed == msg).then_some(Pending::SendGrant {
            to,
            write,
            block: c.block_va,
            data,
        })
    });
    grant.ok_or_else(|| {
        CkptError(format!(
            "charged message on {coord} is not a grant it composed: {msg:?}"
        ))
    })
}

// ====================================================================
// The machine-level engine: one handler per node
// ====================================================================

/// The machine's coherence firmware: one [`NodeCoh`] handler per node.
/// Unlike its pre-protocol ancestor this engine never holds `&mut`
/// access to remote nodes — the machine hands each shard its own slice
/// of handlers alongside its slice of nodes, and every inter-node
/// effect travels as a fabric packet.
#[derive(Debug, Clone)]
pub struct CoherenceEngine {
    nodes: Vec<NodeCoh>,
}

impl CoherenceEngine {
    /// One handler per node, in linear-index order.
    // analyze: cold (constructor, once per machine)
    #[must_use]
    pub fn new(cfg: CoherenceConfig, coords: &[NodeCoord]) -> CoherenceEngine {
        CoherenceEngine {
            nodes: coords.iter().map(|&c| NodeCoh::new(cfg, c)).collect(),
        }
    }

    /// Aggregate statistics over every node's handler.
    #[must_use]
    pub fn stats(&self) -> CoherenceStats {
        let mut s = CoherenceStats::default();
        for n in &self.nodes {
            s.absorb(&n.stats);
        }
        s
    }

    /// The per-node handlers, for the machine's sharded node phase.
    pub(crate) fn handlers_mut(&mut self) -> &mut [NodeCoh] {
        &mut self.nodes
    }

    /// Read-only view of the per-node handlers (inspector path).
    #[must_use]
    pub fn handlers(&self) -> &[NodeCoh] {
        &self.nodes
    }

    /// Install an all-INVALID coherent frame on `node` for the page
    /// holding `va` (experiment setup; see [`NodeCoh::map_coherent_page`]).
    pub(crate) fn map_coherent_page(&mut self, idx: usize, node: &mut Node, va: u64) {
        self.nodes[idx].map_coherent_page(node, va);
    }

    /// Serialize every handler, in node order.
    // analyze: cold (checkpoint codec)
    pub(crate) fn save_state(&self, e: &mut Enc) {
        e.usize(self.nodes.len());
        for n in &self.nodes {
            n.save_state(e);
        }
    }

    /// Restore state saved by [`CoherenceEngine::save_state`].
    // analyze: cold (checkpoint codec)
    pub(crate) fn load_state(&mut self, d: &mut Dec<'_>) -> Result<(), CkptError> {
        let n = d.usize()?;
        if n != self.nodes.len() {
            return Err(CkptError(format!(
                "coherence handler count mismatch: checkpoint has {n}, machine has {}",
                self.nodes.len()
            )));
        }
        for h in &mut self.nodes {
            h.load_state(d)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_sim::NodeConfig;

    fn node() -> Node {
        Node::new(NodeConfig::default(), NodeCoord::new(0, 0, 0))
    }

    #[test]
    fn codec_round_trips_every_op() {
        let src = NodeCoord::new(1, 2, 3);
        let dest = NodeCoord::new(0, 1, 0);
        let mut words = [MemWord::default(); BLOCK_WORDS as usize];
        words[0] = MemWord::with_sync(Word::from_u64(42), true);
        words[3] = MemWord::new(Word::from_raw(0x40, true));
        words[7] = MemWord::new(Word::from_i64(-1));
        let data = Block::pack(&words);
        for op in [
            CohOp::FetchRead,
            CohOp::FetchWrite,
            CohOp::Recall,
            CohOp::Writeback,
            CohOp::GrantRead,
            CohOp::GrantWrite,
            CohOp::Invalidate,
        ] {
            let payload = op.carries_data().then_some(&data);
            let msg = encode_msg(op, src, dest, 0x1238, payload);
            assert_eq!(msg.priority, op.priority());
            assert_eq!(msg.src, src);
            assert_eq!(msg.dest, dest);
            let back = decode_msg(&msg).expect("decodes");
            assert_eq!(back.op, op);
            assert_eq!(back.block_va, 0x1238);
            assert_eq!(back.from, src);
            if op.carries_data() {
                assert_eq!(back.data, Some(data));
            } else {
                assert!(back.data.is_none());
            }
        }
    }

    #[test]
    fn requests_are_throttled_replies_are_not() {
        assert_eq!(CohOp::FetchRead.priority(), Priority::P0);
        assert_eq!(CohOp::FetchWrite.priority(), Priority::P0);
        for op in [
            CohOp::Recall,
            CohOp::Writeback,
            CohOp::GrantRead,
            CohOp::GrantWrite,
            CohOp::Invalidate,
        ] {
            assert_eq!(op.priority(), Priority::P1);
        }
    }

    #[test]
    fn malformed_protocol_messages_rejected() {
        let a = NodeCoord::new(0, 0, 0);
        let mut msg = encode_msg(CohOp::Invalidate, a, a, 8, None);
        msg.dip = Word::from_u64(0); // no such op
        assert!(decode_msg(&msg).is_none());
        let mut short = encode_msg(CohOp::GrantRead, a, a, 8, Some(&Block::default()));
        short.body.pop();
        assert!(decode_msg(&short).is_none());
    }

    /// Regression (PR 5 bugfix): a replay record that fails
    /// `decode_record` used to be discarded silently, hanging the
    /// faulting thread forever. It must now fail deterministically.
    #[test]
    #[should_panic(expected = "does not decode")]
    fn corrupt_replay_record_panics_instead_of_hanging() {
        let mut coh = NodeCoh::new(CoherenceConfig::default(), NodeCoord::new(0, 0, 0));
        let mut n = node();
        // Descriptor bits 3:0 = 0: not a valid EventKind, so the record
        // cannot be rebuilt into a request.
        let corrupt = [Word::from_u64(0), Word::from_u64(64), Word::ZERO];
        coh.replay(0, &mut n, corrupt);
    }

    /// The stat is incremented before the panic fires, so a crashed run
    /// still shows the cause.
    #[test]
    fn corrupt_replay_record_counts_before_panicking() {
        let coh = std::sync::Mutex::new(NodeCoh::new(
            CoherenceConfig::default(),
            NodeCoord::new(0, 0, 0),
        ));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut n = node();
            let corrupt = [Word::from_u64(0), Word::from_u64(64), Word::ZERO];
            coh.lock().unwrap().replay(0, &mut n, corrupt);
        }));
        assert!(result.is_err(), "corrupt record must panic");
        let guard = match coh.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        assert_eq!(guard.stats.replay_decode_errors, 1);
    }

    /// Regression (PR 5 bugfix): unknown `EventKind` bits in a class-0
    /// record used to be `continue`d out of the queue silently, losing
    /// the record with no trace; the drain now counts the drop.
    #[test]
    fn unknown_event_kinds_are_counted_not_silently_dropped() {
        let mut coh = NodeCoh::new(CoherenceConfig::default(), NodeCoord::new(0, 0, 0));
        let mut n = node();
        // Descriptor kind 0xF is not a valid EventKind.
        let record = [Word::from_u64(0xF), Word::from_u64(0), Word::ZERO];
        assert!(EventKind::from_bits(record[0].bits()).is_none());
        assert!(n.push_event_record(0, record));
        assert!(coh.step(0, &mut n), "drain is observable work");
        assert_eq!(coh.stats.unknown_events, 1);
        assert_eq!(n.event_records_queued(0), 0, "record consumed");
        // A clean queue yields no further work.
        assert!(!coh.step(1, &mut n));
    }
}

/// The handler's tables against the `BTreeMap`/`BTreeSet`/`VecDeque`
/// state they replace, driven through the same protocol transitions:
/// fetches (with their invalidations and recalls), writebacks draining
/// the recall queue, faults, grants and frame allocation. Every answer,
/// every size and the checkpoint bytes must agree.
#[cfg(test)]
mod tables_vs_btree {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    const ME: NodeCoord = NodeCoord { x: 0, y: 0, z: 0 };

    fn node(i: u8) -> NodeCoord {
        NodeCoord::new(i % 2, i / 2, 0)
    }

    /// What the directory did with one fetch.
    #[derive(Debug, PartialEq, Eq)]
    enum Served {
        Deferred,
        Queued,
        Recall(NodeCoord),
        Granted(Vec<NodeCoord>),
    }

    #[derive(Debug, Clone, Default)]
    struct RefEntry {
        sharers: BTreeSet<NodeCoord>,
        owner: Option<NodeCoord>,
        recalling: bool,
        grant_pending: bool,
        queued: VecDeque<(NodeCoord, bool)>,
    }

    #[derive(Debug, Clone, Default)]
    struct RefWait {
        records: Vec<(u64, [Word; 3])>,
        read_sent: bool,
        write_sent: bool,
    }

    /// The BTree-based state, with the transitions as the handler made
    /// them before the tables.
    #[derive(Debug, Default)]
    struct Reference {
        directory: BTreeMap<u64, RefEntry>,
        waiting: BTreeMap<u64, RefWait>,
        frames: BTreeMap<u64, u64>,
    }

    impl Reference {
        fn fetch(&mut self, block: u64, from: NodeCoord, write: bool) -> Served {
            let e = self.directory.entry(block).or_insert_with(|| RefEntry {
                sharers: BTreeSet::from([ME]),
                owner: Some(ME),
                ..RefEntry::default()
            });
            if e.grant_pending {
                return Served::Deferred;
            }
            if e.recalling {
                e.queued.push_back((from, write));
                return Served::Queued;
            }
            if let Some(owner) = e.owner.filter(|&o| o != ME && o != from) {
                e.recalling = true;
                e.queued.push_back((from, write));
                return Served::Recall(owner);
            }
            let mut invalidated = Vec::new();
            if write {
                let sharers: Vec<NodeCoord> = e.sharers.iter().copied().collect();
                invalidated.extend(sharers.into_iter().filter(|&s| s != from));
                e.sharers.clear();
                e.sharers.insert(from);
                e.owner = Some(from);
            } else {
                e.owner = None;
                e.sharers.insert(from);
            }
            Served::Granted(invalidated)
        }

        fn writeback(&mut self, block: u64) -> Vec<Served> {
            let mut out = Vec::new();
            if let Some(e) = self.directory.get_mut(&block) {
                if let Some(owner) = e.owner.take() {
                    e.sharers.remove(&owner);
                }
                e.recalling = false;
            }
            #[allow(clippy::while_let_loop)]
            loop {
                let Some(e) = self.directory.get_mut(&block) else {
                    break;
                };
                if e.recalling {
                    break;
                }
                let Some((from, write)) = e.queued.pop_front() else {
                    break;
                };
                out.push(self.fetch(block, from, write));
            }
            out
        }

        fn fault(&mut self, block: u64, at: u64, record: [Word; 3]) -> bool {
            let write = record_needs_write(record[0]);
            let w = self.waiting.entry(block).or_default();
            w.records.push((at, record));
            let need = if write {
                !w.write_sent
            } else {
                !w.read_sent && !w.write_sent
            };
            if need {
                if write {
                    w.write_sent = true;
                } else {
                    w.read_sent = true;
                }
            }
            need
        }

        fn grant(&mut self, block: u64, write: bool) -> Vec<(u64, [Word; 3])> {
            let Some(mut w) = self.waiting.remove(&block) else {
                return Vec::new();
            };
            let mut taken = Vec::new();
            let mut kept = Vec::new();
            for (at, record) in w.records.drain(..) {
                if record_needs_write(record[0]) && !write {
                    kept.push((at, record));
                } else {
                    taken.push((at, record));
                }
            }
            w.records = kept;
            if write {
                w.write_sent = false;
            }
            w.read_sent = false;
            if !w.records.is_empty() || w.write_sent {
                self.waiting.insert(block, w);
            }
            taken
        }

        fn save(&self, e: &mut Enc) {
            e.usize(self.directory.len());
            for (block, entry) in &self.directory {
                e.u64(*block);
                e.usize(entry.sharers.len());
                for s in &entry.sharers {
                    e.u64(s.encode());
                }
                match entry.owner {
                    Some(o) => {
                        e.u8(1);
                        e.u64(o.encode());
                    }
                    None => e.u8(0),
                }
                e.bool(entry.recalling);
                e.bool(entry.grant_pending);
                e.usize(entry.queued.len());
                for (from, write) in &entry.queued {
                    e.u64(from.encode());
                    e.bool(*write);
                }
            }
            e.usize(self.waiting.len());
            for (block, w) in &self.waiting {
                e.u64(*block);
                e.usize(w.records.len());
                for (at, rec) in &w.records {
                    e.u64(*at);
                    rec.save(e);
                }
                e.bool(w.read_sent);
                e.bool(w.write_sent);
            }
            e.usize(self.frames.len());
            for (vpn, slot) in &self.frames {
                e.u64(*vpn);
                e.u64(*slot);
            }
        }
    }

    /// The tables, moved through the transitions exactly as the handler
    /// moves them.
    #[derive(Debug, Default)]
    struct Tables {
        directory: Directory,
        waiting: Waiting,
        frames: Frames,
    }

    impl Tables {
        fn fetch(&mut self, block: u64, from: NodeCoord, write: bool) -> Served {
            let e = self.directory.entry(block, ME);
            if e.grant_pending {
                return Served::Deferred;
            }
            if e.recalling {
                self.directory.queue(block, from, write);
                return Served::Queued;
            }
            if let Some(owner) = e.owner.filter(|&o| o != ME && o != from) {
                e.recalling = true;
                self.directory.queue(block, from, write);
                return Served::Recall(owner);
            }
            if write {
                let invalidated = e.sharers.iter().copied().filter(|&s| s != from);
                let invalidated = invalidated.collect();
                e.make_owner(from);
                Served::Granted(invalidated)
            } else {
                e.owner = None;
                e.share(from);
                Served::Granted(Vec::new())
            }
        }

        fn writeback(&mut self, block: u64) -> Vec<Served> {
            let mut out = Vec::new();
            let Some(e) = self.directory.get_mut(block) else {
                return out;
            };
            e.release_owner();
            while self.directory.get_mut(block).is_some_and(|e| !e.recalling) {
                let Some(q) = self.directory.pop_queued(block) else {
                    break;
                };
                out.push(self.fetch(block, q.from, q.write));
            }
            out
        }

        fn grant(&mut self, block: u64, write: bool) -> Vec<(u64, [Word; 3])> {
            let mut taken = Vec::new();
            if self.waiting.has(block) {
                while let Some(w) = self.waiting.take(block, write) {
                    taken.push((w.at, w.record));
                }
                self.waiting.settle(block, write);
            }
            taken
        }

        fn save(&self, e: &mut Enc) {
            self.directory.save(e);
            self.waiting.save(e);
            self.frames.save(e);
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Fetch {
            block: u64,
            from: u8,
            write: bool,
        },
        Writeback {
            block: u64,
        },
        /// A grant is charged (`true`) or leaves the handler.
        Charge {
            block: u64,
            on: bool,
        },
        Fault {
            block: u64,
            kind: u8,
            offset: u64,
        },
        Grant {
            block: u64,
            write: bool,
        },
        Frame {
            vpn: u64,
            slot: u64,
        },
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        let block = (0u64..4).prop_map(|b| 0x200 + b * 8);
        let fetch = (block.clone(), 0u8..4, any::<bool>())
            .prop_map(|(block, from, write)| Op::Fetch { block, from, write });
        let fault = (block.clone(), 0u8..3, 0u64..8).prop_map(|(block, kind, offset)| Op::Fault {
            block,
            kind,
            offset,
        });
        let op = prop_oneof![
            fetch.clone(),
            fetch,
            block.clone().prop_map(|block| Op::Writeback { block }),
            (block.clone(), any::<bool>()).prop_map(|(block, on)| Op::Charge { block, on }),
            fault.clone(),
            fault,
            (block, any::<bool>()).prop_map(|(block, write)| Op::Grant { block, write }),
            (0u64..6, 0u64..1024).prop_map(|(vpn, slot)| Op::Frame { vpn, slot }),
        ];
        prop::collection::vec(op, 1..120)
    }

    fn bytes(save: impl FnOnce(&mut Enc)) -> Vec<u8> {
        let mut e = Enc::new();
        save(&mut e);
        e.finish()
    }

    fn check(ops: &[Op]) {
        let (mut new, mut old) = (Tables::default(), Reference::default());
        for (at, op) in ops.iter().enumerate() {
            match *op {
                Op::Fetch { block, from, write } => {
                    let from = node(from);
                    assert_eq!(new.fetch(block, from, write), old.fetch(block, from, write));
                }
                Op::Writeback { block } => assert_eq!(new.writeback(block), old.writeback(block)),
                Op::Charge { block, on } => {
                    let old_entry = old.directory.get_mut(&block);
                    assert_eq!(old_entry.is_some(), new.directory.get_mut(block).is_some());
                    if let Some(e) = old_entry {
                        e.grant_pending = on;
                        new.directory.get_mut(block).unwrap().grant_pending = on;
                    }
                }
                Op::Fault {
                    block,
                    kind,
                    offset,
                } => {
                    // A load, a store, or a synchronizing load.
                    let desc = [0u64, 1 << 4, 1 << 7][kind as usize];
                    let record = [
                        Word::from_u64(desc),
                        Word::from_u64(block + offset),
                        Word::from_u64(at as u64),
                    ];
                    let write = record_needs_write(record[0]);
                    let asked = new.waiting.add(block, at as u64, record).request(write);
                    assert_eq!(asked, old.fault(block, at as u64, record));
                }
                Op::Grant { block, write } => {
                    assert_eq!(new.grant(block, write), old.grant(block, write));
                }
                Op::Frame { vpn, slot } => {
                    assert_eq!(new.frames.get(vpn), old.frames.get(&vpn).copied());
                    if new.frames.get(vpn).is_none() {
                        new.frames.insert(vpn, slot);
                        old.frames.insert(vpn, slot);
                    }
                }
            }
            let entries = &new.directory.entries;
            let sharers: usize = entries.iter().map(|e| e.sharers.len()).sum();
            let queued: usize = old.directory.values().map(|e| e.queued.len()).sum();
            let records: usize = old.waiting.values().map(|w| w.records.len()).sum();
            assert_eq!(entries.len(), old.directory.len());
            assert_eq!(
                sharers,
                old.directory.values().map(|e| e.sharers.len()).sum()
            );
            assert_eq!(new.directory.queued.len(), queued);
            assert_eq!(new.waiting.blocks.len(), old.waiting.len());
            assert_eq!(new.waiting.records.len(), records);
        }
        let saved = bytes(|e| new.save(e));
        assert_eq!(saved, bytes(|e| old.save(e)), "checkpoint bytes");
        let mut back = Tables::default();
        let mut d = Dec::new(&saved);
        back.directory.load(&mut d).expect("directory");
        back.waiting.load(&mut d).expect("waiting");
        back.frames.load(&mut d).expect("frames");
        assert_eq!(d.remaining(), 0);
        assert_eq!(bytes(|e| back.save(e)), saved, "restored tables re-save");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn tables_match_btree_state(ops in ops()) {
            check(&ops);
        }
    }
}
