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

use mm_faults::{CkptError, Dec, Enc};
use mm_isa::op::{Priority, SyncPost, SyncPre};
use mm_isa::word::Word;
use mm_mem::ltlb::{BlockStatus, LtlbEntry, BLOCK_WORDS, PAGE_WORDS};
use mm_mem::MemWord;
use mm_net::message::{Message, NodeCoord};
use mm_sched::ReadyQueue;
use mm_sim::event::{decode_record, EventKind};
use mm_sim::Node;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

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
    data: Option<[MemWord; BLOCK_WORDS as usize]>,
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
    data: Option<&[MemWord; BLOCK_WORDS as usize]>,
) -> Message {
    debug_assert_eq!(op.carries_data(), data.is_some());
    let mut body = mm_net::MsgBody::new();
    if let Some(words) = data {
        let mut sync_mask = 0u64;
        for (k, w) in words.iter().enumerate() {
            body.push(w.word);
            if w.sync {
                sync_mask |= 1 << k;
            }
        }
        body.push(Word::from_u64(sync_mask));
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
        let sync_mask = msg.body[BLOCK_WORDS as usize].bits();
        let mut words = [MemWord::default(); BLOCK_WORDS as usize];
        for (k, w) in words.iter_mut().enumerate() {
            *w = MemWord::with_sync(msg.body[k], sync_mask & (1 << k) != 0);
        }
        Some(words)
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

// ====================================================================
// Per-node handler state
// ====================================================================

/// Directory state for one 8-word block, kept at (and only at) its home
/// node. The home's own copy is tracked like any other: boot leaves
/// every home block writable, so a fresh entry starts with the home as
/// exclusive owner.
#[derive(Debug, Clone)]
struct DirEntry {
    sharers: BTreeSet<NodeCoord>,
    owner: Option<NodeCoord>,
    /// A recall is in flight to a remote owner; fetches queue in
    /// `queued` until its writeback lands.
    recalling: bool,
    /// A composed grant for this block is still waiting out its
    /// invalidation charge inside this handler (a scheduled
    /// [`Pending::SendMsg`]). Further service of the block defers until
    /// it leaves: injecting a recall ahead of the grant would let the
    /// recall overtake it on the fabric and reach an "owner" that does
    /// not hold the data yet.
    grant_pending: bool,
    queued: VecDeque<QFetch>,
}

impl DirEntry {
    fn new_at(home: NodeCoord) -> DirEntry {
        DirEntry {
            sharers: BTreeSet::from([home]),
            owner: Some(home),
            recalling: false,
            grant_pending: false,
            queued: VecDeque::new(),
        }
    }
}

/// A fetch queued at the home behind an outstanding recall.
#[derive(Debug, Clone, Copy)]
struct QFetch {
    from: NodeCoord,
    write: bool,
}

/// Requester-side per-block fault state: the faulted records awaiting a
/// grant, plus which request modes are already in flight (so repeat
/// faults on the same block don't flood the home).
#[derive(Debug, Clone, Default)]
struct BlockWait {
    /// `(fault cycle, record)` — replayed on grant arrival.
    records: Vec<(u64, [Word; 3])>,
    read_sent: bool,
    write_sent: bool,
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
/// `(due, schedule order)`.
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
    ServiceWriteback {
        block: u64,
        data: [MemWord; BLOCK_WORDS as usize],
    },
    /// Requester side: install a granted block and replay.
    ServiceGrant {
        block: u64,
        write: bool,
        data: [MemWord; BLOCK_WORDS as usize],
    },
    /// Sharer side: drop the local copy.
    ServiceInvalidate { block: u64 },
    /// Home side: the home's own fault was serviced — flip the local
    /// status and complete/replay the waiting accesses (delayed behind
    /// the per-sharer invalidation charge).
    LocalGrant { block: u64, write: bool },
    /// A composed message whose send was delayed by handler charges
    /// (e.g. a grant behind per-sharer invalidation work).
    SendMsg(Message),
}

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
#[derive(Debug, Clone)]
pub struct NodeCoh {
    cfg: CoherenceConfig,
    coord: NodeCoord,
    directory: BTreeMap<u64, DirEntry>,
    waiting: BTreeMap<u64, BlockWait>,
    pending: ReadyQueue<Pending>,
    /// Composed protocol messages awaiting injection (in order; a P0
    /// head with no send credit blocks the queue until credits return).
    outbound: VecDeque<Message>,
    /// Per-vpn remote-frame LPT slot, so repeat faults reuse the frame.
    frames: BTreeMap<u64, u64>,
    next_frame: u64,
    stats: CoherenceStats,
}

// Stepped from worker threads inside the sharded node phase.
const fn _assert_send<T: Send>() {}
const _: () = _assert_send::<NodeCoh>();

impl NodeCoh {
    fn new(cfg: CoherenceConfig, coord: NodeCoord) -> NodeCoh {
        NodeCoh {
            next_frame: cfg.frame_base_ppn,
            cfg,
            coord,
            directory: BTreeMap::new(),
            waiting: BTreeMap::new(),
            pending: ReadyQueue::new(),
            outbound: VecDeque::new(),
            frames: BTreeMap::new(),
            stats: CoherenceStats::default(),
        }
    }

    /// This handler's accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CoherenceStats {
        self.stats
    }

    /// Occupancy summary for the inspector (sizes of every internal
    /// queue and table; no protocol state leaks out).
    #[must_use]
    pub fn inspect(&self) -> CohInspect {
        CohInspect {
            directory_blocks: self.directory.len(),
            sharers: self.directory.values().map(|e| e.sharers.len()).sum(),
            recalling: self.directory.values().filter(|e| e.recalling).count(),
            queued_fetches: self.directory.values().map(|e| e.queued.len()).sum(),
            waiting_blocks: self.waiting.len(),
            waiting_records: self.waiting.values().map(|w| w.records.len()).sum(),
            pending_actions: self.pending.len(),
            outbound_msgs: self.outbound.len(),
            frames: self.frames.len(),
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
        let wait = self.waiting.entry(block).or_default();
        wait.records.push((now, record));
        let need_request = if write {
            !wait.write_sent
        } else {
            // A write fetch in flight will satisfy reads too.
            !wait.read_sent && !wait.write_sent
        };
        if !need_request {
            return;
        }
        if write {
            wait.write_sent = true;
        } else {
            wait.read_sent = true;
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
                node.mem.flush_block(block);
                let data = Self::read_block(node, block);
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
                for (k, w) in data.iter().enumerate() {
                    let pa = node
                        .mem
                        .translate(block + k as u64)
                        .expect("home page mapped");
                    node.mem.poke_phys(pa, *w);
                }
                if let Some(e) = self.directory.get_mut(&block) {
                    if let Some(owner) = e.owner.take() {
                        e.sharers.remove(&owner);
                    }
                    e.recalling = false;
                }
                // Drain fetches queued behind the recall, re-entering the
                // service path (a queued write may install a new remote
                // owner that a later queued fetch must recall again).
                #[allow(clippy::while_let_loop)]
                loop {
                    let Some(e) = self.directory.get_mut(&block) else {
                        break;
                    };
                    if e.recalling {
                        break;
                    }
                    let Some(q) = e.queued.pop_front() else { break };
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
                if let Some(e) = self.directory.get_mut(&block) {
                    e.grant_pending = false;
                }
                let backed = self.directory.get(&block).is_some_and(|e| {
                    if write {
                        e.owner == Some(me)
                    } else {
                        e.sharers.contains(&me)
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
            Pending::SendMsg(msg) => {
                if let Some(e) = self.directory.get_mut(&msg.addr.bits()) {
                    e.grant_pending = false;
                }
                self.outbound.push_back(msg);
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
        let entry = self
            .directory
            .entry(block)
            .or_insert_with(|| DirEntry::new_at(me));
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
            entry.queued.push_back(QFetch { from, write });
            return;
        }
        if let Some(owner) = entry.owner {
            if owner != me && owner != from {
                // The freshest copy is dirty at a remote owner: recall it
                // and queue this fetch behind the writeback.
                entry.recalling = true;
                entry.queued.push_back(QFetch { from, write });
                self.outbound
                    .push_back(encode_msg(CohOp::Recall, me, owner, block, None));
                return;
            }
        }

        // Directory transition + invalidations/downgrades.
        let mut extra = 0;
        if write {
            let sharers: Vec<NodeCoord> = entry.sharers.iter().copied().collect();
            for s in sharers {
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
            let e = self.directory.get_mut(&block).expect("entry exists");
            e.sharers.clear();
            e.sharers.insert(from);
            e.owner = Some(from);
        } else {
            if entry.owner == Some(me) && from != me {
                // Downgrade the home's exclusive copy.
                Self::set_status(node, block, BlockStatus::ReadOnly);
            }
            let e = self.directory.get_mut(&block).expect("entry exists");
            e.owner = None;
            e.sharers.insert(from);
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
            let e = self.directory.get_mut(&block).expect("entry exists");
            e.grant_pending = true;
            self.pending
                .push(now + extra, Pending::LocalGrant { block, write });
        } else {
            node.mem.flush_block(block);
            let data = Self::read_block(node, block);
            let op = if write {
                CohOp::GrantWrite
            } else {
                CohOp::GrantRead
            };
            let grant = encode_msg(op, me, from, block, Some(&data));
            if extra > 0 {
                // The handler composes the invalidations first. Mark the
                // block so no recall can be composed ahead of this grant.
                self.directory
                    .get_mut(&block)
                    .expect("entry exists")
                    .grant_pending = true;
                self.pending.push(now + extra, Pending::SendMsg(grant));
            } else {
                self.outbound.push_back(grant);
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
        let Some(mut wait) = self.waiting.remove(&block) else {
            return;
        };
        let mut kept = Vec::new();
        for (t0, record) in wait.records.drain(..) {
            let is_store = record[0].bits() & (1 << 4) != 0;
            if record_needs_write(record[0]) && !write {
                kept.push((t0, record));
                continue;
            }
            self.stats.fetch_latency_cycles += now.saturating_sub(t0);
            self.stats.fetch_replays += 1;
            if is_store {
                self.complete_store(now, node, block, record);
            } else {
                self.pending.push(now, Pending::Replay(record));
            }
        }
        wait.records = kept;
        if write {
            wait.write_sent = false;
        }
        wait.read_sent = false;
        if !wait.records.is_empty() || wait.write_sent {
            self.waiting.insert(block, wait);
        }
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

    /// Read the 8-word block from this node's own memory (used by the
    /// home for grants and by a recalled owner for writebacks).
    fn read_block(node: &Node, block_va: u64) -> [MemWord; BLOCK_WORDS as usize] {
        let mut data = [MemWord::default(); BLOCK_WORDS as usize];
        for (k, w) in data.iter_mut().enumerate() {
            *w = node
                .mem
                .peek_va(block_va + k as u64)
                .expect("block page mapped");
        }
        data
    }

    /// Mark a block's status in this node's LTLB/LPT entry, dropping any
    /// cached line first and keeping the LPT copy coherent.
    fn set_status(node: &mut Node, block_va: u64, status: BlockStatus) {
        node.mem.flush_block(block_va);
        let vpn = block_va / PAGE_WORDS;
        let block = (block_va % PAGE_WORDS) / BLOCK_WORDS;
        if let Some(e) = node.mem.ltlb_entry_mut(vpn) {
            e.set_block_status(block, status);
            if let Some(lpt) = node.mem.lpt() {
                let snapshot = node.mem.ltlb_probe(vpn).copied();
                if let Some(e) = snapshot {
                    lpt.write_back(node.mem.sdram_mut(), &e);
                }
            }
        } else if let Some(lpt) = node.mem.lpt() {
            let sdram = node.mem.sdram_mut();
            if let Some(mut e) = lpt.lookup(sdram, vpn) {
                e.set_block_status(block, status);
                lpt.write_back(sdram, &e);
            }
        }
    }

    /// Ensure this node has a local frame for the block's page, copy the
    /// granted data in, and set the block's status bits. "If the virtual
    /// page containing the block is not mapped to a local physical page,
    /// a new page table entry is created and only the newly arrived
    /// block is marked valid" (§4.3).
    fn install_block(
        &mut self,
        node: &mut Node,
        block_va: u64,
        status: BlockStatus,
        data: &[MemWord; BLOCK_WORDS as usize],
    ) {
        let vpn = block_va / PAGE_WORDS;

        // Drop any stale cached line (e.g. a read-only copy being
        // upgraded): the refill re-derives the writable bit from the new
        // block status.
        node.mem.flush_block(block_va);

        if node.mem.ltlb_probe(vpn).is_none() {
            let slot = match self.frames.get(&vpn) {
                Some(&slot) => slot,
                None => {
                    let lpt = node.mem.lpt().expect("booted node");
                    let ppn = self.next_frame;
                    self.next_frame += 1;
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
        for (k, w) in data.iter().enumerate() {
            node.mem.poke_phys(base_pa + k as u64, *w);
        }
        Self::set_status(node, block_va, status);
    }

    /// Install an all-INVALID local frame for the page holding `va` —
    /// the boot state of a locally-cached remote page (§4.3). First
    /// touches then take the coherent fetch path instead of the LTLB-miss
    /// remote-access path.
    fn map_coherent_page(&mut self, node: &mut Node, va: u64) {
        let vpn = va / PAGE_WORDS;
        if node.mem.ltlb_probe(vpn).is_some() || self.frames.contains_key(&vpn) {
            return;
        }
        let lpt = node.mem.lpt().expect("booted node");
        let ppn = self.next_frame;
        self.next_frame += 1;
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
    pub(crate) fn save_state(&self, e: &mut Enc) {
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
            for q in &entry.queued {
                e.u64(q.from.encode());
                e.bool(q.write);
            }
        }
        e.usize(self.waiting.len());
        for (block, w) in &self.waiting {
            e.u64(*block);
            e.usize(w.records.len());
            for (t0, rec) in &w.records {
                e.u64(*t0);
                encode_record_words(e, rec);
            }
            e.bool(w.read_sent);
            e.bool(w.write_sent);
        }
        let pending = self.pending.snapshot();
        e.usize(pending.len());
        for (ready, p) in pending {
            e.u64(ready);
            encode_pending(e, p);
        }
        e.usize(self.outbound.len());
        for m in &self.outbound {
            m.encode(e);
        }
        e.usize(self.frames.len());
        for (vpn, slot) in &self.frames {
            e.u64(*vpn);
            e.u64(*slot);
        }
        e.u64(self.next_frame);
        let s = &self.stats;
        for v in [
            s.block_fetches,
            s.invalidations,
            s.writebacks,
            s.sync_retries,
            s.unknown_events,
            s.unmapped_faults,
            s.replay_decode_errors,
            s.fetch_latency_cycles,
            s.fetch_replays,
        ] {
            e.u64(v);
        }
    }

    /// Every node this handler's protocol state names — directory
    /// sharers, owners and queued requesters, the peers of charged
    /// actions, and both ends of each composed message — so a restore
    /// can refuse one outside the mesh before a message goes to it.
    pub(crate) fn endpoints(&self) -> Vec<NodeCoord> {
        let mut out = Vec::new();
        for entry in self.directory.values() {
            out.extend(&entry.sharers);
            out.extend(entry.owner);
            out.extend(entry.queued.iter().map(|q| q.from));
        }
        for (_, p) in self.pending.snapshot() {
            match p {
                Pending::SendFetch { home: c, .. }
                | Pending::Service { from: c, .. }
                | Pending::ServiceRecall { home: c, .. } => out.push(*c),
                Pending::SendMsg(m) => out.extend([m.src, m.dest]),
                Pending::Replay(_)
                | Pending::ServiceWriteback { .. }
                | Pending::ServiceGrant { .. }
                | Pending::ServiceInvalidate { .. }
                | Pending::LocalGrant { .. } => {}
            }
        }
        out.extend(self.outbound.iter().flat_map(|m| [m.src, m.dest]));
        out
    }

    /// Restore state saved by [`NodeCoh::save_state`].
    pub(crate) fn load_state(&mut self, d: &mut Dec<'_>) -> Result<(), CkptError> {
        self.directory.clear();
        for _ in 0..d.usize()? {
            let block = d.u64()?;
            let mut sharers = BTreeSet::new();
            for _ in 0..d.usize()? {
                sharers.insert(NodeCoord::decode(d.u64()?));
            }
            let owner = match d.u8()? {
                0 => None,
                1 => Some(NodeCoord::decode(d.u64()?)),
                t => return Err(CkptError(format!("bad owner tag {t}"))),
            };
            let recalling = d.bool()?;
            let grant_pending = d.bool()?;
            let mut queued = VecDeque::new();
            for _ in 0..d.usize()? {
                queued.push_back(QFetch {
                    from: NodeCoord::decode(d.u64()?),
                    write: d.bool()?,
                });
            }
            self.directory.insert(
                block,
                DirEntry {
                    sharers,
                    owner,
                    recalling,
                    grant_pending,
                    queued,
                },
            );
        }
        self.waiting.clear();
        for _ in 0..d.usize()? {
            let block = d.u64()?;
            let mut records = Vec::new();
            for _ in 0..d.usize()? {
                let t0 = d.u64()?;
                records.push((t0, decode_record_words(d)?));
            }
            self.waiting.insert(
                block,
                BlockWait {
                    records,
                    read_sent: d.bool()?,
                    write_sent: d.bool()?,
                },
            );
        }
        let mut pending = Vec::new();
        for _ in 0..d.usize()? {
            let ready = d.u64()?;
            pending.push((ready, decode_pending(d)?));
        }
        self.pending.restore(pending);
        self.outbound.clear();
        for _ in 0..d.usize()? {
            self.outbound.push_back(Message::decode(d)?);
        }
        self.frames.clear();
        for _ in 0..d.usize()? {
            let vpn = d.u64()?;
            let slot = d.u64()?;
            self.frames.insert(vpn, slot);
        }
        self.next_frame = d.u64()?;
        self.stats = CoherenceStats {
            block_fetches: d.u64()?,
            invalidations: d.u64()?,
            writebacks: d.u64()?,
            sync_retries: d.u64()?,
            unknown_events: d.u64()?,
            unmapped_faults: d.u64()?,
            replay_decode_errors: d.u64()?,
            fetch_latency_cycles: d.u64()?,
            fetch_replays: d.u64()?,
        };
        Ok(())
    }
}

/// Encode one `[Word; 3]` event/replay record.
fn encode_record_words(e: &mut Enc, rec: &[Word; 3]) {
    for w in rec {
        mm_net::message::encode_word(e, *w);
    }
}

fn decode_record_words(d: &mut Dec<'_>) -> Result<[Word; 3], CkptError> {
    Ok([
        mm_net::message::decode_word(d)?,
        mm_net::message::decode_word(d)?,
        mm_net::message::decode_word(d)?,
    ])
}

/// Encode one 8-word block payload (value bits, pointer tag, sync bit).
fn encode_block_data(e: &mut Enc, data: &[MemWord; BLOCK_WORDS as usize]) {
    for w in data {
        e.u64(w.word.bits());
        e.bool(w.word.is_pointer());
        e.bool(w.sync);
    }
}

fn decode_block_data(d: &mut Dec<'_>) -> Result<[MemWord; BLOCK_WORDS as usize], CkptError> {
    let mut data = [MemWord::default(); BLOCK_WORDS as usize];
    for w in &mut data {
        let bits = d.u64()?;
        let ptr = d.bool()?;
        *w = MemWord::with_sync(Word::from_raw(bits, ptr), d.bool()?);
    }
    Ok(data)
}

/// Tagged codec for charged firmware actions (tags follow declaration
/// order; any change here is a checkpoint format change).
fn encode_pending(e: &mut Enc, p: &Pending) {
    match p {
        Pending::Replay(rec) => {
            e.u8(0);
            encode_record_words(e, rec);
        }
        Pending::SendFetch { block, write, home } => {
            e.u8(1);
            e.u64(*block);
            e.bool(*write);
            e.u64(home.encode());
        }
        Pending::Service { from, block, write } => {
            e.u8(2);
            e.u64(from.encode());
            e.u64(*block);
            e.bool(*write);
        }
        Pending::ServiceRecall {
            block,
            home,
            patience,
        } => {
            e.u8(3);
            e.u64(*block);
            e.u64(home.encode());
            e.u64(*patience);
        }
        Pending::ServiceWriteback { block, data } => {
            e.u8(4);
            e.u64(*block);
            encode_block_data(e, data);
        }
        Pending::ServiceGrant { block, write, data } => {
            e.u8(5);
            e.u64(*block);
            e.bool(*write);
            encode_block_data(e, data);
        }
        Pending::ServiceInvalidate { block } => {
            e.u8(6);
            e.u64(*block);
        }
        Pending::LocalGrant { block, write } => {
            e.u8(7);
            e.u64(*block);
            e.bool(*write);
        }
        Pending::SendMsg(msg) => {
            e.u8(8);
            msg.encode(e);
        }
    }
}

fn decode_pending(d: &mut Dec<'_>) -> Result<Pending, CkptError> {
    Ok(match d.u8()? {
        0 => Pending::Replay(decode_record_words(d)?),
        1 => Pending::SendFetch {
            block: d.u64()?,
            write: d.bool()?,
            home: NodeCoord::decode(d.u64()?),
        },
        2 => Pending::Service {
            from: NodeCoord::decode(d.u64()?),
            block: d.u64()?,
            write: d.bool()?,
        },
        3 => Pending::ServiceRecall {
            block: d.u64()?,
            home: NodeCoord::decode(d.u64()?),
            patience: d.u64()?,
        },
        4 => Pending::ServiceWriteback {
            block: d.u64()?,
            data: decode_block_data(d)?,
        },
        5 => Pending::ServiceGrant {
            block: d.u64()?,
            write: d.bool()?,
            data: decode_block_data(d)?,
        },
        6 => Pending::ServiceInvalidate { block: d.u64()? },
        7 => Pending::LocalGrant {
            block: d.u64()?,
            write: d.bool()?,
        },
        8 => Pending::SendMsg(Message::decode(d)?),
        t => return Err(CkptError(format!("bad pending-action tag {t}"))),
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
    pub(crate) fn save_state(&self, e: &mut Enc) {
        e.usize(self.nodes.len());
        for n in &self.nodes {
            n.save_state(e);
        }
    }

    /// Restore state saved by [`CoherenceEngine::save_state`].
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
        let mut data = [MemWord::default(); BLOCK_WORDS as usize];
        data[0] = MemWord::with_sync(Word::from_u64(42), true);
        data[7] = MemWord::new(Word::from_i64(-1));
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
                let got = back.data.expect("data");
                for k in 0..BLOCK_WORDS as usize {
                    assert_eq!(got[k].word, data[k].word);
                    assert_eq!(got[k].sync, data[k].sync);
                }
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
        let mut short = encode_msg(
            CohOp::GrantRead,
            a,
            a,
            8,
            Some(&[MemWord::default(); BLOCK_WORDS as usize]),
        );
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
