//! The node memory system: banked cache front-end, LTLB translation,
//! block-status checks, SDRAM fills and event generation.
//!
//! Requests arrive from the clusters over the M-Switch (modelled by the
//! per-bank input queues — consecutive addresses land in different banks,
//! §2), hits answer over the C-Switch after the pipelined bank latency,
//! and misses run through LTLB translation and block-status checks before
//! an SDRAM line fill. Anything the hardware cannot finish — LTLB miss,
//! block-status fault, synchronizing fault — becomes an asynchronous
//! *event* for the software handlers (§3.3).

use crate::cache::{Cache, CacheConfig, CacheStats, StoreOutcome, LINE_WORDS};
use crate::dram::{Block, MemWord, Sdram, SdramConfig, SdramStats};
use crate::lpt::Lpt;
use crate::ltlb::{BlockStatus, Ltlb, LtlbEntry, PAGE_WORDS};
use mm_faults::{ckpt_enum, ckpt_struct, Ckpt, CkptError, Dec, Enc};
use mm_isa::op::{SyncPost, SyncPre};
use mm_isa::pointer::{GuardedPointer, Perm};
use mm_isa::word::Word;
use mm_sched::SmallReadyQueue;
use std::collections::VecDeque;

/// Load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A read.
    Load,
    /// A write.
    Store,
}

/// A memory request as it leaves a cluster's memory unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Caller-assigned identifier, echoed in the response.
    pub id: u64,
    /// Load or store.
    pub kind: AccessKind,
    /// Virtual word address (physical when `phys` is set).
    pub va: u64,
    /// Store data (ignored for loads).
    pub data: Word,
    /// Whether the stored word carries the pointer tag.
    pub data_ptr_tag: bool,
    /// Synchronization-bit precondition.
    pub pre: SyncPre,
    /// Synchronization-bit postcondition.
    pub post: SyncPost,
    /// Opaque routing tag (the simulator packs the destination register
    /// address here so replies and event records can name it).
    pub tag: u64,
    /// Physical addressing: bypass translation and the cache with a fixed
    /// short latency. Used by system software whose data structures the
    /// paper assumes to cache-hit (§4.2).
    pub phys: bool,
}

impl MemRequest {
    /// A plain virtual-address load.
    #[must_use]
    pub fn load(id: u64, va: u64, tag: u64) -> MemRequest {
        MemRequest {
            id,
            kind: AccessKind::Load,
            va,
            data: Word::ZERO,
            data_ptr_tag: false,
            pre: SyncPre::Any,
            post: SyncPost::Unchanged,
            tag,
            phys: false,
        }
    }

    /// A plain virtual-address store.
    #[must_use]
    pub fn store(id: u64, va: u64, data: Word, tag: u64) -> MemRequest {
        MemRequest {
            id,
            kind: AccessKind::Store,
            va,
            data,
            data_ptr_tag: data.is_pointer(),
            pre: SyncPre::Any,
            post: SyncPost::Unchanged,
            tag,
            phys: false,
        }
    }
}

/// A completed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemResponse {
    /// The originating request.
    pub req: MemRequest,
    /// Loaded value (stores echo the stored value).
    pub value: Word,
    /// Cycle at which the result is architecturally visible (register
    /// written / line fully loaded).
    pub ready: u64,
}

/// Why the hardware punted to software.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemEventKind {
    /// No LTLB entry for the page: the software handler walks the LPT or
    /// discovers the page is remote (§4.2).
    LtlbMiss,
    /// The block's status bits forbid the access (§4.3).
    BlockStatusFault {
        /// The offending block's current status.
        status: BlockStatus,
    },
    /// A synchronizing load/store found the wrong full/empty state (§2).
    SyncFault {
        /// The synchronization bit's value at the time of the access.
        sync_was: bool,
    },
    /// SECDED detected an uncorrectable error in the fetched line.
    EccError,
}

/// An asynchronous event record destined for the event V-Thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemEvent {
    /// Cycle at which the event was enqueued.
    pub at: u64,
    /// What happened.
    pub kind: MemEventKind,
    /// The faulting request, preserved so the handler can complete or
    /// replay it ("the faulting operation and its operands are
    /// specifically identified in the event record", §3.3).
    pub req: MemRequest,
}

ckpt_enum!(AccessKind, "access kind" { 0 => Load, 1 => Store });

ckpt_struct! {
    MemRequest { id, kind, va, data, data_ptr_tag, pre, post, tag, phys }
    MemResponse { req, value, ready }
}

/// Occupancy of one memory system — counts only, for inspection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemInspect {
    /// Translated misses waiting on the SDRAM.
    pub misses: usize,
    /// Responses staged for a later cycle.
    pub staged: usize,
    /// Resident LTLB entries.
    pub ltlb_entries: usize,
    /// Dirty cache lines.
    pub dirty_lines: usize,
}

/// Latency and capacity configuration for the whole memory system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemConfig {
    /// Cache geometry.
    pub cache: CacheConfig,
    /// SDRAM geometry and timing.
    pub sdram: SdramConfig,
    /// LTLB entries.
    pub ltlb_entries: usize,
    /// Cycles from submission to a load hit's register write (paper: 3,
    /// "including switch traversal").
    pub read_hit_latency: u64,
    /// Cycles from submission to a store hit's completion (paper: 2).
    pub write_hit_latency: u64,
    /// Cycles to determine a miss (Fig. 9: "accesses the cache and
    /// misses (2 cycles)").
    pub miss_detect: u64,
    /// Cycles for the LTLB lookup + block-status check on the miss path.
    pub translate_latency: u64,
    /// Fixed latency of physical-addressed system accesses (the paper
    /// assumes handler data structures cache-hit, §4.2).
    pub phys_read_latency: u64,
    /// Fixed latency of physical-addressed system stores.
    pub phys_write_latency: u64,
    /// Depth of each bank's input queue; a full queue stalls the memory
    /// unit (structural hazard).
    pub bank_queue_depth: usize,
}

impl MemConfig {
    /// Can [`MemorySystem::new`] build this configuration? Checks the
    /// cache, SDRAM and LTLB geometry with the predicates their
    /// constructors assert.
    ///
    /// # Errors
    ///
    /// Why it cannot: the first geometry the configuration breaks.
    pub fn validate(&self) -> Result<(), String> {
        self.cache.validate()?;
        self.sdram.validate()?;
        Ltlb::validate_capacity(self.ltlb_entries)
    }
}

impl Default for MemConfig {
    fn default() -> MemConfig {
        MemConfig {
            cache: CacheConfig::default(),
            sdram: SdramConfig::default(),
            ltlb_entries: 64,
            read_hit_latency: 3,
            write_hit_latency: 2,
            miss_detect: 2,
            translate_latency: 1,
            phys_read_latency: 3,
            phys_write_latency: 2,
            bank_queue_depth: 4,
        }
    }
}

/// Aggregated statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemStats {
    /// Requests accepted.
    pub requests: u64,
    /// Responses produced.
    pub responses: u64,
    /// Events raised, by rough class.
    pub ltlb_miss_events: u64,
    /// Block-status fault events.
    pub block_status_events: u64,
    /// Synchronizing fault events.
    pub sync_fault_events: u64,
    /// Uncorrectable ECC events.
    pub ecc_events: u64,
    /// Requests rejected because a bank queue was full.
    pub bank_stalls: u64,
}

ckpt_struct! {
    MemStats {
        requests, responses, ltlb_miss_events, block_status_events, sync_fault_events, ecc_events,
        bank_stalls
    }
}

/// The latencies and queue depth the pipeline reads, copied out of
/// [`MemConfig`] so they sit with the system's other per-step fields.
#[derive(Debug, Clone)]
#[repr(C)]
struct MemTiming {
    bank_queue_depth: usize,
    read_hit_latency: u64,
    write_hit_latency: u64,
    miss_detect: u64,
    translate_latency: u64,
    phys_read_latency: u64,
    phys_write_latency: u64,
}

impl MemTiming {
    fn of(cfg: &MemConfig) -> MemTiming {
        MemTiming {
            bank_queue_depth: cfg.bank_queue_depth,
            read_hit_latency: cfg.read_hit_latency,
            write_hit_latency: cfg.write_hit_latency,
            miss_detect: cfg.miss_detect,
            translate_latency: cfg.translate_latency,
            phys_read_latency: cfg.phys_read_latency,
            phys_write_latency: cfg.phys_write_latency,
        }
    }
}

/// Banks whose input-queue headers sit inside the memory system — the
/// MAP's four; a geometry with more keeps the rest in a vector.
const INLINE_BANKS: usize = 4;

/// The per-bank input queues (M-Switch ports), FIFO per bank.
#[derive(Debug, Clone)]
struct BankQueues {
    near: [VecDeque<MemRequest>; INLINE_BANKS],
    far: Vec<VecDeque<MemRequest>>,
    count: usize,
}

impl BankQueues {
    fn new(count: usize) -> BankQueues {
        BankQueues {
            near: std::array::from_fn(|_| VecDeque::new()),
            far: (INLINE_BANKS..count).map(|_| VecDeque::new()).collect(),
            count,
        }
    }

    fn get(&self, bank: usize) -> &VecDeque<MemRequest> {
        match self.near.get(bank) {
            Some(q) => q,
            None => &self.far[bank - INLINE_BANKS],
        }
    }

    fn get_mut(&mut self, bank: usize) -> &mut VecDeque<MemRequest> {
        match self.near.get_mut(bank) {
            Some(q) => q,
            None => &mut self.far[bank - INLINE_BANKS],
        }
    }
}

/// The complete per-node memory system.
///
/// Field order is deliberate (`repr(C)`): what a step reads — the
/// queue headers, the latencies, the counters, then the cache's,
/// LTLB's and SDRAM's own headers — leads, and the configuration trails.
#[derive(Debug, Clone)]
#[repr(C)]
pub struct MemorySystem {
    // NOTE: ticked from worker threads by the machine's sharded engine —
    // keep every field owned (no `Rc`/`RefCell`); the assert below the
    // struct enforces `Send` at compile time.
    /// Requests queued across all banks (`O(1)` has-work check on the
    /// per-cycle fast path, which reads this line and the next only).
    bank_backlog: usize,
    miss_q: VecDeque<(u64, MemRequest)>,
    /// Completed requests staged until their ready cycle, popped in
    /// `(ready, completion order)` — no per-cycle scans; the first two
    /// inline.
    responses: SmallReadyQueue<MemResponse, 2>,
    timing: MemTiming,
    stats: MemStats,
    bank_q: BankQueues,
    cache: Cache,
    ltlb: Ltlb,
    sdram: Sdram,
    lpt: Option<Lpt>,
    cfg: MemConfig,
}

const fn _assert_send<T: Send>() {}
const _: () = _assert_send::<MemorySystem>();

impl MemorySystem {
    /// Build an idle memory system.
    #[must_use]
    pub fn new(cfg: MemConfig) -> MemorySystem {
        let banks = cfg.cache.banks as usize;
        MemorySystem {
            bank_backlog: 0,
            miss_q: VecDeque::new(),
            responses: SmallReadyQueue::new(),
            timing: MemTiming::of(&cfg),
            stats: MemStats::default(),
            bank_q: BankQueues::new(banks),
            cache: Cache::new(cfg.cache.clone()),
            ltlb: Ltlb::new(cfg.ltlb_entries),
            sdram: Sdram::new(cfg.sdram.clone()),
            lpt: None,
            cfg,
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Attach the node's LPT (done at boot). Needed for LTLB-eviction
    /// write-back and the `tlbwr` refill path.
    pub fn set_lpt(&mut self, lpt: Lpt) {
        self.lpt = Some(lpt);
    }

    /// The attached LPT, if booted.
    #[must_use]
    pub fn lpt(&self) -> Option<Lpt> {
        self.lpt
    }

    /// Statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Cache statistics snapshot.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// SDRAM statistics snapshot.
    #[must_use]
    pub fn sdram_stats(&self) -> SdramStats {
        self.sdram.stats()
    }

    /// Queue and table occupancy.
    #[must_use]
    pub fn inspect(&self) -> MemInspect {
        MemInspect {
            misses: self.miss_q.len(),
            staged: self.responses.len(),
            ltlb_entries: self.ltlb.iter().count(),
            dirty_lines: self.cache.dirty_lines(),
        }
    }

    /// Would a request for `va` be accepted right now? (The issue stage's
    /// structural-hazard check.)
    #[must_use]
    pub fn can_accept(&self, va: u64, phys: bool) -> bool {
        let bank = if phys { 0 } else { self.cache.bank_of(va) };
        self.bank_q.get(bank).len() < self.timing.bank_queue_depth
    }

    /// Submit a request during cycle `now`. Returns the request back if
    /// the target bank's queue is full (the memory unit must retry).
    ///
    /// # Errors
    ///
    /// The rejected request is returned unchanged.
    pub fn submit(&mut self, req: MemRequest) -> Result<(), MemRequest> {
        let bank = if req.phys {
            0 // physical accesses ride bank 0's port
        } else {
            self.cache.bank_of(req.va)
        };
        if self.bank_q.get(bank).len() >= self.timing.bank_queue_depth {
            self.stats.bank_stalls += 1;
            return Err(req);
        }
        self.stats.requests += 1;
        self.bank_backlog += 1;
        self.bank_q.get_mut(bank).push_back(req);
        Ok(())
    }

    /// Advance one cycle, draining completions into caller-owned scratch
    /// buffers: banks each retire one request, the miss engine services
    /// due misses, and every response whose ready cycle has arrived is
    /// appended to `responses` (in `(ready, completion order)`), and
    /// every event the step raised to `events`.
    ///
    /// The buffers are appended to, never reallocated by this call once
    /// they have reached their steady-state capacity, so the node's cycle
    /// kernel can recycle one pair of buffers across every cycle (and
    /// the machine's worker pool one pair per worker). A memory system
    /// belongs to exactly one node and shares no state with its
    /// siblings, so the sharded engine may tick different nodes' memory
    /// systems concurrently from worker threads.
    pub fn step_into(
        &mut self,
        now: u64,
        responses: &mut Vec<MemResponse>,
        events: &mut Vec<MemEvent>,
    ) {
        // Fast path: a fully idle memory system (the common case on a
        // large mesh) is three inline header reads, no queue traffic.
        if self.bank_backlog == 0 && self.miss_q.is_empty() && self.responses.is_empty() {
            return;
        }
        if self.bank_backlog > 0 {
            for bank in 0..self.bank_q.count {
                if let Some(req) = self.bank_q.get_mut(bank).pop_front() {
                    self.bank_backlog -= 1;
                    self.access(events, now, req);
                }
            }
        }
        while let Some(&(ready, req)) = self.miss_q.front() {
            if ready > now {
                break;
            }
            self.miss_q.pop_front();
            self.handle_miss(events, ready.max(now), req);
        }
        let popped = self.responses.drain_due_into(now, responses);
        self.stats.responses += popped as u64;
    }

    /// Are all queues drained (useful for run-to-idle loops)?
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.bank_backlog == 0 && self.miss_q.is_empty() && self.responses.is_empty()
    }

    /// The earliest future cycle (strictly after `now`) at which a
    /// [`MemorySystem::step_into`] can do work, assuming no new submissions:
    /// a queued bank request pops next cycle, a staged miss fires at its
    /// translate deadline, and a pipelined response surfaces at its
    /// ready cycle. `None` when fully idle — the cycle engine's license
    /// to skip this memory system entirely.
    #[must_use]
    pub fn next_activity(&self, now: u64) -> Option<u64> {
        let mut best: Option<u64> = None;
        let mut fold = |t: u64| best = Some(best.map_or(t, |b| b.min(t)));
        if self.bank_backlog > 0 {
            fold(now + 1);
        }
        // The miss queue pops front-to-back and deadlines are pushed with
        // monotonically non-decreasing `now` plus constant latencies, so
        // the front entry is the earliest; responses are a ready-ordered
        // queue with an O(1) minimum.
        if let Some(&(ready, _)) = self.miss_q.front() {
            fold(ready.max(now + 1));
        }
        if let Some(ready) = self.responses.next_ready() {
            fold(ready.max(now + 1));
        }
        best
    }

    fn respond(&mut self, req: MemRequest, value: Word, ready: u64) {
        self.responses
            .push(ready, MemResponse { req, value, ready });
    }

    fn raise(&mut self, events: &mut Vec<MemEvent>, at: u64, kind: MemEventKind, req: MemRequest) {
        match kind {
            MemEventKind::LtlbMiss => self.stats.ltlb_miss_events += 1,
            MemEventKind::BlockStatusFault { .. } => self.stats.block_status_events += 1,
            MemEventKind::SyncFault { .. } => self.stats.sync_fault_events += 1,
            MemEventKind::EccError => self.stats.ecc_events += 1,
        }
        events.push(MemEvent { at, kind, req });
    }

    /// Does the sync precondition hold for a word whose bit is `sync`?
    fn pre_ok(pre: SyncPre, sync: bool) -> bool {
        match pre {
            SyncPre::Any => true,
            SyncPre::Full => sync,
            SyncPre::Empty => !sync,
        }
    }

    fn post_sync(post: SyncPost, old: bool) -> bool {
        match post {
            SyncPost::Unchanged => old,
            SyncPost::SetFull => true,
            SyncPost::SetEmpty => false,
        }
    }

    /// First-stage (bank) access.
    fn access(&mut self, events: &mut Vec<MemEvent>, now: u64, req: MemRequest) {
        if req.phys {
            self.phys_access(events, now, req);
            return;
        }
        match req.kind {
            AccessKind::Load => match self.cache.read(req.va) {
                Some(mw) => {
                    if !Self::pre_ok(req.pre, mw.sync) {
                        self.raise(
                            events,
                            now + self.timing.miss_detect,
                            MemEventKind::SyncFault { sync_was: mw.sync },
                            req,
                        );
                        return;
                    }
                    if req.post != SyncPost::Unchanged {
                        match self
                            .cache
                            .set_sync(req.va, Self::post_sync(req.post, mw.sync))
                        {
                            StoreOutcome::Written => {}
                            _ => {
                                self.raise(
                                    events,
                                    now + self.timing.miss_detect,
                                    MemEventKind::BlockStatusFault {
                                        status: self.block_status_of(req.va),
                                    },
                                    req,
                                );
                                return;
                            }
                        }
                    }
                    self.respond(req, mw.word, now + self.timing.read_hit_latency);
                }
                None => self.enqueue_miss(now, req),
            },
            AccessKind::Store => {
                // Peek first: sync precondition applies to the old word.
                match self.cache.probe(req.va) {
                    Some(old) => {
                        if !Self::pre_ok(req.pre, old.sync) {
                            self.raise(
                                events,
                                now + self.timing.miss_detect,
                                MemEventKind::SyncFault { sync_was: old.sync },
                                req,
                            );
                            return;
                        }
                        let new = MemWord::with_sync(
                            Word::from_raw(req.data.bits(), req.data_ptr_tag),
                            Self::post_sync(req.post, old.sync),
                        );
                        match self.cache.write(req.va, new) {
                            StoreOutcome::Written => {
                                self.mark_dirty(req.va);
                                self.respond(req, req.data, now + self.timing.write_hit_latency);
                            }
                            StoreOutcome::NotWritable => {
                                self.raise(
                                    events,
                                    now + self.timing.miss_detect,
                                    MemEventKind::BlockStatusFault {
                                        status: self.block_status_of(req.va),
                                    },
                                    req,
                                );
                            }
                            StoreOutcome::Miss => self.enqueue_miss(now, req),
                        }
                    }
                    None => self.enqueue_miss(now, req),
                }
            }
        }
    }

    /// Physical accesses: fixed-latency, uncached backdoor used by system
    /// software (charged, but bypassing translation).
    fn phys_access(&mut self, events: &mut Vec<MemEvent>, now: u64, req: MemRequest) {
        match req.kind {
            AccessKind::Load => {
                let mw = self.sdram.probe(req.va);
                if !Self::pre_ok(req.pre, mw.sync) {
                    let kind = MemEventKind::SyncFault { sync_was: mw.sync };
                    self.raise(events, now, kind, req);
                    return;
                }
                if req.post != SyncPost::Unchanged {
                    let mut cell = mw;
                    cell.sync = Self::post_sync(req.post, mw.sync);
                    self.sdram.poke(req.va, cell);
                }
                self.respond(req, mw.word, now + self.timing.phys_read_latency);
            }
            AccessKind::Store => {
                let old = self.sdram.probe(req.va);
                if !Self::pre_ok(req.pre, old.sync) {
                    let kind = MemEventKind::SyncFault { sync_was: old.sync };
                    self.raise(events, now, kind, req);
                    return;
                }
                let cell = MemWord::with_sync(
                    Word::from_raw(req.data.bits(), req.data_ptr_tag),
                    Self::post_sync(req.post, old.sync),
                );
                self.sdram.poke(req.va, cell);
                self.respond(req, req.data, now + self.timing.phys_write_latency);
            }
        }
    }

    fn enqueue_miss(&mut self, now: u64, req: MemRequest) {
        self.miss_q.push_back((
            now + self.timing.miss_detect + self.timing.translate_latency,
            req,
        ));
    }

    /// Block status of `va` as recorded in the LTLB (for fault reporting).
    fn block_status_of(&self, va: u64) -> BlockStatus {
        self.ltlb
            .probe(va / PAGE_WORDS)
            .map_or(BlockStatus::Invalid, |e| {
                e.status_for_offset(va % PAGE_WORDS)
            })
    }

    /// Second-stage miss handling: translate, check, fill.
    fn handle_miss(&mut self, events: &mut Vec<MemEvent>, now: u64, req: MemRequest) {
        // The line may have been filled by an earlier miss to the same block.
        if self.cache.probe(req.va).is_some() {
            self.access(events, now, req);
            return;
        }
        let vpn = req.va / PAGE_WORDS;
        let offset = req.va % PAGE_WORDS;
        let Some(entry) = self.ltlb.lookup(vpn).copied() else {
            self.raise(events, now, MemEventKind::LtlbMiss, req);
            return;
        };
        let status = entry.status_for_offset(offset);
        // A synchronizing load mutates the word's full/empty bit, so like
        // a store it needs a writable copy: filling a READ-ONLY shared
        // block and silently dropping the SetEmpty postcondition would
        // let two consumers take the same full word (§2's atomicity is
        // exactly the pre/post pair executing against one copy).
        let allowed = match req.kind {
            AccessKind::Load if req.post == SyncPost::Unchanged => status.readable(),
            AccessKind::Load | AccessKind::Store => status.writable(),
        };
        if !allowed {
            self.raise(events, now, MemEventKind::BlockStatusFault { status }, req);
            return;
        }

        let pa = entry.translate(offset);
        let pa_line = pa & !(LINE_WORDS - 1);
        let va_line = req.va & !(LINE_WORDS - 1);
        let mut raw = [None; LINE_WORDS as usize];
        let (first, last) = self.sdram.read_into(now, pa_line, &mut raw);
        let mut line = [MemWord::default(); LINE_WORDS as usize];
        let mut ecc_fail = false;
        for (k, w) in raw.into_iter().enumerate() {
            match w {
                Some(mw) => line[k] = mw,
                None => ecc_fail = true,
            }
        }
        if ecc_fail {
            self.raise(events, now, MemEventKind::EccError, req);
            let err = GuardedPointer::new(Perm::ErrVal, 0, req.va & ((1 << 54) - 1))
                .map(Word::from_pointer)
                .unwrap_or(Word::ZERO);
            self.respond(req, err, first + 1);
            return;
        }

        let word_in_line = (req.va % LINE_WORDS) as usize;
        let fetched = line[word_in_line];

        // Sync precondition applies to the word as read from memory.
        if !Self::pre_ok(req.pre, fetched.sync) {
            self.raise(
                events,
                now,
                MemEventKind::SyncFault {
                    sync_was: fetched.sync,
                },
                req,
            );
            return;
        }

        let writable = status.writable();
        if let Some(victim) = self.cache.fill(va_line, pa_line, line, writable) {
            // Write the dirty victim back after the fill burst.
            self.sdram.write(last, victim.pa, &victim.data);
        }

        match req.kind {
            AccessKind::Load => {
                if req.post != SyncPost::Unchanged {
                    // The permission check above required a writable
                    // block, and the line was just filled with that flag
                    // — the postcondition cannot be dropped here.
                    let outcome = self
                        .cache
                        .set_sync(req.va, Self::post_sync(req.post, fetched.sync));
                    assert_eq!(
                        outcome,
                        StoreOutcome::Written,
                        "sync postcondition lost on miss fill at va {:#x}",
                        req.va
                    );
                }
                // Critical-word-first: the register is written one cycle
                // after the first burst word arrives.
                self.respond(req, fetched.word, first + 1);
            }
            AccessKind::Store => {
                let new = MemWord::with_sync(
                    Word::from_raw(req.data.bits(), req.data_ptr_tag),
                    Self::post_sync(req.post, fetched.sync),
                );
                let _ = self.cache.write(req.va, new);
                self.mark_dirty(req.va);
                // "A write is completed when the line containing the data
                // has been fully loaded into the cache" (Table 1).
                self.respond(req, req.data, last);
            }
        }
    }

    /// Record a write in the page's block-status bits (READ/WRITE → DIRTY,
    /// §4.3: "modifications to the data will automatically mark the block
    /// state dirty").
    fn mark_dirty(&mut self, va: u64) {
        let vpn = va / PAGE_WORDS;
        let block = (va % PAGE_WORDS) / crate::ltlb::BLOCK_WORDS;
        if let Some(e) = self.ltlb.find_mut(vpn) {
            if e.block_status(block) == BlockStatus::ReadWrite {
                e.set_block_status(block, BlockStatus::Dirty);
            }
        }
    }

    // ------------------------------------------------------------------
    // Privileged / firmware interfaces
    // ------------------------------------------------------------------

    /// Install the LPT entry at physical address `lpt_slot_addr` into the
    /// LTLB (the `tlbwr` operation). Evicted entries are written back to
    /// the LPT. Returns `false` if the slot does not hold a valid entry.
    pub fn tlb_install(&mut self, lpt_slot_addr: u64) -> bool {
        let Some(lpt) = self.lpt else { return false };
        let Some(entry) = lpt.read_entry(&self.sdram, lpt_slot_addr) else {
            return false;
        };
        if let Some(evicted) = self.ltlb.insert(entry) {
            lpt.write_back(&mut self.sdram, &evicted);
        }
        true
    }

    /// Direct LTLB probe (no stats).
    #[must_use]
    pub fn ltlb_probe(&self, vpn: u64) -> Option<&LtlbEntry> {
        self.ltlb.probe(vpn)
    }

    /// Mutable LTLB access for firmware coherence handlers.
    pub fn ltlb_entry_mut(&mut self, vpn: u64) -> Option<&mut LtlbEntry> {
        self.ltlb.find_mut(vpn)
    }

    /// Translate a virtual address using LTLB, then LPT. `None` if unmapped.
    #[must_use]
    pub fn translate(&self, va: u64) -> Option<u64> {
        let vpn = va / PAGE_WORDS;
        let offset = va % PAGE_WORDS;
        if let Some(e) = self.ltlb.probe(vpn) {
            return Some(e.translate(offset));
        }
        let lpt = self.lpt?;
        lpt.lookup(&self.sdram, vpn).map(|e| e.translate(offset))
    }

    /// Zero-time virtual read for loaders/firmware: cache first, then
    /// translated DRAM.
    #[must_use]
    pub fn peek_va(&self, va: u64) -> Option<MemWord> {
        if let Some(w) = self.cache.peek(va) {
            return Some(w);
        }
        self.translate(va).map(|pa| self.sdram.peek(pa))
    }

    /// Zero-time virtual write for loaders/firmware: updates the cached
    /// copy if present, else translated DRAM.
    pub fn poke_va(&mut self, va: u64, w: MemWord) -> bool {
        if self.cache.poke(va, w) {
            return true;
        }
        match self.translate(va) {
            Some(pa) => {
                self.sdram.poke(pa, w);
                true
            }
            None => false,
        }
    }

    /// Invalidate the cache line holding `va`, writing dirty data back to
    /// DRAM (coherence firmware; zero-time, the handler charges cycles).
    pub fn flush_block(&mut self, va: u64) {
        if let Some(victim) = self.cache.invalidate(va) {
            self.poke_block(victim.pa, &Block::pack(&victim.data));
        }
    }

    /// Flush the line holding block `va` as [`MemorySystem::flush_block`]
    /// does, then read the block from DRAM through one translation — what
    /// the coherence firmware puts in a grant or a writeback. `None` if
    /// the block's page is unmapped.
    pub fn take_block(&mut self, va: u64) -> Option<Block> {
        debug_assert_eq!(va % LINE_WORDS, 0, "block-aligned address");
        self.flush_block(va);
        let pa = self.translate(va)?;
        let mut b = Block::default();
        let (tags, sync) = self.sdram.peek_run(pa, &mut b.data);
        #[allow(clippy::cast_possible_truncation)]
        {
            (b.tags, b.sync) = (tags as u8, sync as u8);
        }
        Some(b)
    }

    /// Store block `b` at physical address `pa` (zero-time, fresh check
    /// bits, one DRAM page lookup).
    pub fn poke_block(&mut self, pa: u64, b: &Block) {
        self.sdram
            .poke_run(pa, &b.data, u64::from(b.tags), u64::from(b.sync));
    }

    /// Direct physical read (zero-time).
    #[must_use]
    pub fn peek_phys(&self, pa: u64) -> MemWord {
        self.sdram.peek(pa)
    }

    /// Direct physical write (zero-time).
    pub fn poke_phys(&mut self, pa: u64, w: MemWord) {
        self.sdram.poke(pa, w);
    }

    /// Mutable SDRAM handle (boot-time table construction).
    pub fn sdram_mut(&mut self) -> &mut Sdram {
        &mut self.sdram
    }

    /// Shared SDRAM handle.
    #[must_use]
    pub fn sdram(&self) -> &Sdram {
        &self.sdram
    }

    // ------------------------------------------------------------------
    // Checkpointing
    // ------------------------------------------------------------------

    /// Serialize the complete memory-system state (array contents, cache
    /// lines, LTLB, in-flight queues, stats). The configuration is *not*
    /// serialized: restore targets an identically-configured system.
    pub fn save_state(&self, e: &mut Enc) {
        self.sdram.save_state(e);
        self.cache.save_state(e);
        self.ltlb.save_state(e);
        self.lpt.save(e);
        e.usize(self.bank_q.count);
        for b in 0..self.bank_q.count {
            self.bank_q.get(b).save(e);
        }
        self.miss_q.save(e);
        self.responses.save(e);
        e.usize(0); // the event list: `raise` hands events to `step_into`'s caller
        self.stats.save(e);
    }

    /// Restore state produced by [`MemorySystem::save_state`] into a
    /// system built with the same configuration.
    ///
    /// # Errors
    ///
    /// Fails on truncation, malformed fields, or a geometry mismatch in
    /// any component.
    pub fn load_state(&mut self, d: &mut Dec) -> Result<(), CkptError> {
        self.sdram.load_state(d)?;
        self.cache.load_state(d)?;
        self.ltlb.load_state(d)?;
        self.lpt = Option::load(d)?;
        if let Some(Lpt { slots, .. }) = self.lpt.filter(|l| !l.slots.is_power_of_two()) {
            return Err(CkptError(format!("bad LPT slot count {slots}")));
        }
        let banks = d.usize()?;
        if banks != self.bank_q.count {
            return Err(CkptError(format!(
                "bank count mismatch: checkpoint {banks}, configured {}",
                self.bank_q.count
            )));
        }
        self.bank_backlog = 0;
        for bank in 0..banks {
            let q = VecDeque::load(d)?;
            self.bank_backlog += q.len();
            *self.bank_q.get_mut(bank) = q;
        }
        self.miss_q = Ckpt::load(d)?;
        self.responses = Ckpt::load(d)?;
        d.copy_of("memory-event count", 0usize)?;
        self.stats = MemStats::load(d)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the bytes of every request and response shape the codec
    /// writes: both access kinds, every sync pre- and postcondition, an
    /// attached LPT, and a request in a bank queue, the miss queue and
    /// the response stage.
    #[test]
    fn request_and_response_bytes_are_pinned() {
        let mut ms = MemorySystem::new(MemConfig::default());
        ms.set_lpt(Lpt::new(0x100, 16));
        let mut req = MemRequest::store(7, 0x48, Word::from_raw(0x1234, true), 0x99);
        req.pre = SyncPre::Full;
        req.post = SyncPost::SetEmpty;
        let load = MemRequest {
            pre: SyncPre::Empty,
            post: SyncPost::SetFull,
            phys: true,
            ..MemRequest::load(8, 0x50, 0x77)
        };
        ms.submit(req).expect("bank queue has room");
        ms.miss_q.push_back((12, load));
        let value = Word::from_u64(5);
        ms.responses.push(
            9,
            MemResponse {
                req,
                value,
                ready: 9,
            },
        );
        let mut e = Enc::new();
        ms.save_state(&mut e);
        let bytes = e.finish();
        let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(
            (bytes.len(), fnv),
            (1051, 0x656c_516b_8563_7ab7),
            "bytes moved"
        );
        let mut back = MemorySystem::new(MemConfig::default());
        back.load_state(&mut Dec::new(&bytes)).expect("loads");
        let mut again = Enc::new();
        back.save_state(&mut again);
        assert_eq!(again.finish(), bytes);
    }

    /// The memory-event slot holds an empty list, since every event
    /// reaches the node in the step that raised it: an image with an
    /// event there is refused.
    #[test]
    fn a_stored_memory_event_is_refused() {
        let ms = MemorySystem::new(MemConfig::default());
        let mut e = Enc::new();
        ms.save_state(&mut e);
        let mut bytes = e.finish();
        // The slot's count comes right before the statistics.
        let mut stats = Enc::new();
        ms.stats.save(&mut stats);
        let at = bytes.len() - stats.len() - 8;
        assert_eq!(bytes[at..at + 8], [0; 8], "an empty list");
        bytes[at] = 1;
        let err = MemorySystem::new(MemConfig::default())
            .load_state(&mut Dec::new(&bytes))
            .unwrap_err();
        assert!(err.0.contains("memory-event count"), "{err}");
    }
}
