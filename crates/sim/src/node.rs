//! The MAP node: four clusters, the synchronization (issue) stage,
//! M-/C-Switch plumbing, event queues and privileged operations.
//!
//! Every cycle, each cluster's synchronization stage "holds the next
//! instruction to be issued from each of the six V-Threads until all of
//! its operands are present and all of the required resources are
//! available... At every cycle this stage decides which instruction to
//! issue from those which are ready to run" (§3.2). Selection is
//! round-robin among ready H-Threads, so a lone thread issues every cycle
//! (fast single-thread execution) while multiple threads interleave with
//! zero switch cost.

use crate::config::{NodeConfig, EVENT_SLOT, EXCEPTION_SLOT, NUM_CLUSTERS, NUM_SLOTS};
use crate::event::{decode_record, format_event};
use crate::regfile::ThreadRegs;
use mm_faults::{ckpt_enum, ckpt_struct, Ckpt, CkptError, Dec, Enc};
use mm_isa::instr::{Instruction, IssueDesc, MemHazard, Program};
use mm_isa::op::{AluKind, BranchCond, CmpKind, FpKind, FpOp, IntOp, MemOp, MemSlotOp, Priority};
use mm_isa::pointer::{GuardedPointer, Perm};
use mm_isa::reg::{Dst, Reg, RegAddr, Src};
use mm_isa::word::Word;
use mm_mem::memsys::{AccessKind, MemEvent, MemRequest, MemResponse, MemorySystem};
use mm_net::iface::{NodeNet, SendOutcome};
use mm_net::message::NodeCoord;
use mm_sched::SmallReadyQueue;
use std::collections::VecDeque;
use std::sync::Arc;
use thread::Thread;

mod thread;

/// Why an H-Thread stopped with a synchronous fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// An address operand was not a tagged pointer.
    NotAPointer,
    /// The pointer's permission forbade the access.
    Permission,
    /// Pointer arithmetic escaped its segment.
    OutOfSegment,
    /// A privileged operation in a user thread slot.
    Privilege,
    /// SEND to an address outside every page-group.
    UnmappedSend,
    /// SEND with a DIP lacking Enter/Execute permission.
    BadDip,
    /// Integer division by zero.
    DivByZero,
    /// The PC ran off the end of the program.
    PcOutOfRange,
    /// Read of `rnet`/`evq` from the wrong thread slot or cluster.
    BadQueueAccess,
    /// Write to a global CC register in a pair not owned by this cluster.
    GccOwnership,
}

/// An H-Thread's run state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HState {
    /// No program loaded.
    Idle,
    /// Eligible for issue.
    Running,
    /// Executed `halt`.
    Halted,
    /// Stopped by a synchronous fault.
    Faulted(Fault),
}

/// A memoized "this thread cannot issue until a queue fills" proof.
///
/// Readiness of an instruction that reads queue registers is a
/// conjunction that includes `queue words available ≥ cumulative words
/// needed` for every queue operand, so whenever a queue still holds
/// fewer words than the instruction's total need, the instruction is
/// not ready *regardless of any other machine state*. The issue stage
/// caches that total (computed once, the first time the probe fails
/// with every non-queue condition satisfied) and skips the full
/// fetch-and-probe while the shortage persists. With the thread parked
/// on that proof (see [`IssueBlock`]), this is what makes the
/// permanently-resident event/message handler threads, which spend
/// most cycles blocked on `evq`/`rnet`, free to keep resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct QueueBlock {
    /// PC the proof was computed at (instructions are immutable, so the
    /// proof is valid whenever the thread sits at this PC).
    pc: u32,
    /// Total queue words the instruction consumes: `[NetIn, EvQ]`.
    needs: [u16; 2],
}

/// A memoized issue-block proof: the thread cannot issue until the
/// recorded condition changes.
///
/// A thread whose proof is set, or is found still holding, is *parked*:
/// its bit in the node's `parked` mask makes the issue stage pass over
/// it without reading its record, and a cluster whose running slots
/// are all parked is not scanned at all. Every event that could
/// break a proof unparks the slots it concerns (see
/// [`Node::step_with`]), and the next visit re-checks the proof — a
/// holding proof re-parks the thread, a broken one falls through to the
/// full probe. Skipping a parked thread is therefore exactly the
/// `continue` a visit would have taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IssueBlock {
    /// Blocked on queue-register words (see [`QueueBlock`]): valid
    /// while any needed queue still lacks words, whatever else changes.
    Queue(QueueBlock),
    /// Blocked on this thread's own register fullness, for an
    /// instruction whose readiness depends on nothing else (no memory
    /// op — which would add bank-queue and credit conditions — and no
    /// `mrestart`): valid while the `(cluster, slot)` register file's
    /// mutation counter is unchanged, since every path that can flip a
    /// fullness bit bumps it. Those paths all go through
    /// `Node::regs_mut`, which unparks the slot.
    Regs {
        /// PC the proof was computed at.
        pc: u32,
        /// [`ThreadRegs::version`] at probe time.
        version: u64,
    },
}

/// Outcome of probing one instruction for issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Probe {
    /// Every operand, destination, structural resource and queue word
    /// is available: the instruction issues.
    Ready,
    /// Not this cycle — with the proof to memoize, if the blocker is one
    /// an [`IssueBlock`] can describe.
    Blocked(Option<IssueBlock>),
}

/// The issue stage's visit order over one cluster: the slots set in a
/// mask (the running slots), starting at the round-robin cursor
/// and wrapping — i.e. `(rr + k) % NUM_SLOTS` for `k` in
/// `0..NUM_SLOTS`, restricted to the mask's slots. The mask is rotated
/// right by the cursor so that order is plain lowest-set-bit order, and
/// slots outside it cost no iteration at all.
#[derive(Debug, Clone, Copy)]
struct SlotScan {
    /// The mask rotated right by `rr` within its `NUM_SLOTS` bits.
    rotated: u32,
    rr: usize,
}

impl SlotScan {
    fn new(slots: u8, rr: usize) -> SlotScan {
        const MASK: u32 = (1 << NUM_SLOTS) - 1;
        debug_assert!(rr < NUM_SLOTS);
        let slots = u32::from(slots) & MASK;
        SlotScan {
            rotated: (slots >> rr | slots << (NUM_SLOTS - rr)) & MASK,
            rr,
        }
    }
}

impl Iterator for SlotScan {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.rotated == 0 {
            return None;
        }
        let k = self.rotated.trailing_zeros() as usize;
        self.rotated &= self.rotated - 1;
        let slot = self.rr + k;
        Some(if slot >= NUM_SLOTS {
            slot - NUM_SLOTS
        } else {
            slot
        })
    }
}

/// A scheduled local register write (a unit's writeback). The ready
/// cycle lives in the queue key, not the payload.
#[derive(Debug, Clone, Copy)]
struct PendingWrite {
    cluster: u8,
    slot: u8,
    reg: Reg,
    value: Word,
}

/// A C-Switch transfer in flight. Delivery cycle and issue-order
/// sequencing live in the queue key.
#[derive(Debug, Clone, Copy)]
struct CswTransfer {
    target: CswTarget,
    value: Word,
}

#[derive(Debug, Clone, Copy)]
enum CswTarget {
    Reg { cluster: u8, slot: u8, reg: Reg },
    GccBroadcast { slot: u8, reg: Reg },
}

/// Per-node statistics. Ordered by how often a step bumps them, so
/// the counters of a busy step share the struct's first lines.
#[derive(Debug, Clone, Default)]
#[repr(C)]
pub struct NodeStats {
    /// `step_with` invocations — a *host* perf counter like
    /// `issue_probes` (the quiescence engines skip provably-idle steps,
    /// so this measures how much of the walk each engine actually
    /// performed; steps per machine cycle is the awake fraction).
    pub steps: u64,
    /// Issue-stage candidates examined: running, un-stalled threads
    /// whose next instruction was fetched and readiness-checked. A
    /// *host* perf counter, not an architectural one — the quiescence
    /// engine skips provably-idle steps, so this (unlike the
    /// architectural counters) legitimately differs between the dense
    /// loop and the engines. The issue-path hit rate is `instructions /
    /// issue_probes`.
    pub issue_probes: u64,
    /// Instructions issued (whole 1–3-op instructions).
    pub instructions: u64,
    /// Integer operations executed (either integer unit).
    pub int_ops: u64,
    /// Memory operations (loads + stores + sends).
    pub mem_ops: u64,
    /// Loads issued.
    pub loads: u64,
    /// Stores issued.
    pub stores: u64,
    /// Messages sent.
    pub sends: u64,
    /// Taken branches.
    pub branches_taken: u64,
    /// Memory responses applied.
    pub responses: u64,
    /// Cycle of the most recent memory-response completion (benches use
    /// this to time store completion, which no register observes).
    pub last_response_cycle: u64,
    /// C-Switch transfers delivered.
    pub cswitch_transfers: u64,
    /// Event records dropped because a class queue was full.
    pub events_dropped: u64,
    /// Event records enqueued, per handler class (cluster).
    pub events_enqueued: [u64; NUM_CLUSTERS],
    /// FP operations executed.
    pub fp_ops: u64,
    /// Protected calls taken: `jmp` through an ENTER-permission guarded
    /// pointer (§3.2's protected entry points — DIP dispatches and
    /// user-level protected subsystem calls both land here).
    pub protected_calls: u64,
    /// Synchronous faults raised.
    pub faults: u64,
    /// Instructions issued per (cluster, slot).
    pub issued_per_slot: [[u64; NUM_SLOTS]; NUM_CLUSTERS],
}

/// The latencies and widths a step reads, copied out of [`NodeConfig`]
/// so they sit in the node's first lines rather than in the
/// configuration's.
#[derive(Debug, Clone)]
#[repr(C)]
struct Timing {
    int_latency: u64,
    branch_bubble: u64,
    cswitch_latency: u64,
    fp_latency: u64,
    fp_div_latency: u64,
    int_div_latency: u64,
    gprobe_latency: u64,
    cswitch_width: usize,
    event_queue_records: usize,
}

impl Timing {
    fn of(cfg: &NodeConfig) -> Timing {
        Timing {
            int_latency: cfg.int_latency,
            branch_bubble: cfg.branch_bubble,
            cswitch_latency: cfg.cswitch_latency,
            fp_latency: cfg.fp_latency,
            fp_div_latency: cfg.fp_div_latency,
            int_div_latency: cfg.int_div_latency,
            gprobe_latency: cfg.gprobe_latency,
            cswitch_width: cfg.cswitch_width,
            event_queue_records: cfg.event_queue_records,
        }
    }
}

/// Read-only pipeline/queue summary of one node — the per-node row
/// `mmctl snapshot` prints. Counts only (no register or program state),
/// and gathering one allocates nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeInspect {
    /// H-Threads currently eligible for issue, over all slots.
    pub running: usize,
    /// H-Threads that executed `halt`.
    pub halted: usize,
    /// H-Threads stopped by a synchronous fault.
    pub faulted: usize,
    /// Words queued in each handler class's event queue.
    pub event_words: [usize; NUM_CLUSTERS],
    /// Words queued in each cluster's exception queue.
    pub exc_words: [usize; NUM_CLUSTERS],
    /// Staged outbound packets awaiting fabric injection.
    pub outbox: usize,
    /// Inbound messages queued at priority 0 / priority 1.
    pub inbound: [usize; 2],
    /// Refused messages awaiting software resend.
    pub returned: usize,
    /// Coherence protocol messages awaiting handler dispatch.
    pub coh_pending: usize,
    /// Remaining send credits.
    pub credits: u32,
    /// Instructions issued so far (cumulative).
    pub instructions: u64,
    /// Node steps executed so far (cumulative).
    pub steps: u64,
}

/// Reusable buffers one [`Node::step_with`] call drains memory-system
/// completions into. Steady-state cycles never allocate: the buffers
/// are cleared (capacity kept) at the top of each step. The machine's
/// cycle engines thread one scratch through every serial step and one
/// per worker thread.
#[derive(Debug, Default)]
pub struct StepScratch {
    responses: Vec<MemResponse>,
    events: Vec<MemEvent>,
}

impl StepScratch {
    /// Fresh (empty) scratch buffers.
    #[must_use]
    pub fn new() -> StepScratch {
        StepScratch::default()
    }

    fn clear(&mut self) {
        self.responses.clear();
        self.events.clear();
    }
}

/// A complete MAP node.
///
/// Field order is deliberate (`repr(C)`): the engines walk hundreds of
/// nodes per simulated cycle, and at 512 nodes a node's per-step state
/// no longer stays in the host's L2 between visits, so every line a
/// step touches is a likely miss. The node is 12 KiB; what a step reads
/// is packed into the front of it:
///
/// 1. **Header**: the per-cluster `running`, `parked` and `halted`
///    masks and round-robin cursors, event-record counts, tallies, the
///    step's latencies (copied out of the configuration) and the
///    counters a busy step bumps ([`NodeStats`], busiest first), then
///    the writeback and C-Switch queues with their first entries inline.
/// 2. **Owned subsystems** ([`MemorySystem`], [`NodeNet`], the event
///    and exception queues), each led by its own per-step fields.
///    Header and subsystems are the node's hot block, 45 × 64 bytes at
///    most.
/// 3. **Thread records**: one 384-byte record per H-Thread slot, each
///    thread's control words, scoreboard and pointer tags in its first
///    64 bytes and its integer registers in the next 128 (see
///    `thread.rs`); a step reads only the running threads' records.
/// 4. **Cold tail**: the configuration and coordinates.
///
/// The node is not over-aligned: a 64-byte-aligned array goes through
/// `posix_memalign`, whose slack small allocations pin, and a machine
/// built after another then often could not reuse the freed array (see
/// ARCHITECTURE, "Node layout").
#[derive(Debug, Clone)]
#[repr(C)]
pub struct Node {
    // --- header -------------------------------------------------------
    /// Per-cluster bitmask of thread slots currently
    /// [`HState::Running`] — the issue stage iterates set bits only, so
    /// slots that are idle, halted or faulted are never touched, and an
    /// all-idle cluster costs one byte read in this header. Packed as
    /// four bytes so "anything runnable on this node?" is one `u32`
    /// load (the machine's watchdog asks it of every node).
    running: [u8; NUM_CLUSTERS],
    /// Per-cluster bitmask of running slots whose [`IssueBlock`] proof
    /// was set or last seen holding: the issue stage passes over them
    /// (testing the bit as it reaches each slot) and
    /// [`Node::next_activity`] scans `running & !parked` only. A slot's
    /// bit is cleared by every event that could break its proof, so a
    /// parked slot's proof always holds (checked after every step in
    /// debug builds). Host state only: never serialized, and emptied by
    /// a restore.
    parked: [u8; NUM_CLUSTERS],
    /// Per-cluster round-robin issue cursor.
    rr: [u8; NUM_CLUSTERS],
    /// Per-cluster bitmask of thread slots [`HState::Halted`] (the trace
    /// reads it after every step).
    halted: [u8; NUM_CLUSTERS],
    /// Whole 3-word event records queued per handler class.
    event_records: [u32; NUM_CLUSTERS],
    /// User-slot H-Threads currently [`HState::Running`] (maintained at
    /// every state transition, so halt predicates are O(1) per node).
    user_running: u32,
    /// User-slot H-Threads halted or faulted.
    user_finished: u32,
    /// First cycle at which the issue stage runs again — a fault-injected
    /// node-stall window (`u64::MAX` = fatal, the node never issues
    /// again). Memory, writebacks and deliveries continue; only
    /// instruction issue is gated. Zero when no fault is armed, so the
    /// healthy path pays one always-false compare per step.
    stall_all_until: u64,
    next_req_id: u64,
    timing: Timing,
    stats: NodeStats,
    /// Pending unit writebacks, applied in `(ready, issue order)`; the
    /// first four inline.
    local_writes: SmallReadyQueue<PendingWrite, 4>,
    /// C-Switch transfers in flight, delivered in `(ready, issue
    /// order)` — the ready-ordered replacement for the old per-cycle
    /// `sort_by_key` + in-order `remove` loop, with identical delivery
    /// order (see `mm_sched`); the first four inline.
    csw: SmallReadyQueue<CswTransfer, 4>,
    // --- owned subsystems ---------------------------------------------
    /// The memory system (public for boot/firmware access).
    pub mem: MemorySystem,
    /// The network interface (public for the machine pump).
    pub net: NodeNet,
    event_q: [VecDeque<Word>; NUM_CLUSTERS],
    exc_q: [VecDeque<Word>; NUM_CLUSTERS],
    // --- thread slots --------------------------------------------------
    /// Each H-Thread's record, `[cluster][slot]`: only running threads'
    /// records are read by a step.
    threads: [[Thread; NUM_SLOTS]; NUM_CLUSTERS],
    // --- cold tail ------------------------------------------------------
    cfg: NodeConfig,
    coord: NodeCoord,
}

// The node's hot block — the header and the subsystems' headers, all
// that precedes the thread records — is 45 × 64 bytes at most.
const _: () = assert!(std::mem::offset_of!(Node, threads) <= 45 * 64);

impl Node {
    /// Build an idle node at `coord`.
    #[must_use]
    pub fn new(cfg: NodeConfig, coord: NodeCoord) -> Node {
        Node {
            running: [0; NUM_CLUSTERS],
            parked: [0; NUM_CLUSTERS],
            rr: [0; NUM_CLUSTERS],
            halted: [0; NUM_CLUSTERS],
            event_records: [0; NUM_CLUSTERS],
            user_running: 0,
            user_finished: 0,
            stall_all_until: 0,
            next_req_id: 0,
            timing: Timing::of(&cfg),
            stats: NodeStats::default(),
            local_writes: SmallReadyQueue::new(),
            csw: SmallReadyQueue::new(),
            mem: MemorySystem::new(cfg.mem.clone()),
            net: NodeNet::new(coord, cfg.iface.clone()),
            event_q: std::array::from_fn(|_| VecDeque::new()),
            exc_q: std::array::from_fn(|_| VecDeque::new()),
            threads: std::array::from_fn(|_| std::array::from_fn(|_| Thread::new())),
            cfg,
            coord,
        }
    }

    /// This node's mesh coordinates.
    #[must_use]
    pub fn coord(&self) -> NodeCoord {
        self.coord
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &NodeConfig {
        &self.cfg
    }

    /// Statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// Maintain the cluster's runnable count and the node's user-thread
    /// tallies across an H-Thread state change. Every `state` write
    /// funnels through here (load, unload, fault, halt) so the O(1)
    /// issue-skip and halt-predicate counters can never drift from the
    /// per-thread states.
    fn account_state(&mut self, cluster: usize, slot: usize, old: HState, new: HState) {
        let runs = |s: HState| s == HState::Running;
        let finished = |s: HState| matches!(s, HState::Halted | HState::Faulted(_));
        let bit = 1u8 << slot;
        self.parked[cluster] &= !bit;
        self.halted[cluster] =
            self.halted[cluster] & !bit | if new == HState::Halted { bit } else { 0 };
        if runs(old) && !runs(new) {
            self.running[cluster] &= !(1u8 << slot);
        } else if !runs(old) && runs(new) {
            self.running[cluster] |= 1u8 << slot;
        }
        if slot < crate::config::USER_SLOTS {
            if runs(old) && !runs(new) {
                self.user_running -= 1;
            } else if !runs(old) && runs(new) {
                self.user_running += 1;
            }
            if finished(old) && !finished(new) {
                self.user_finished -= 1;
            } else if !finished(old) && finished(new) {
                self.user_finished += 1;
            }
        }
    }

    /// Load `program` into `(cluster, slot)` starting at instruction
    /// `entry`, and mark the H-Thread runnable.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range cluster/slot.
    pub fn load_program(&mut self, cluster: usize, slot: usize, program: Arc<Program>, entry: u32) {
        let t = &mut self.threads[cluster][slot].ctl;
        let old = t.state;
        t.program = Some(program);
        t.pc = entry;
        t.state = HState::Running;
        t.stall_until = 0;
        t.blocked = None;
        self.account_state(cluster, slot, old, HState::Running);
    }

    /// The H-Thread's state.
    #[must_use]
    pub fn thread_state(&self, cluster: usize, slot: usize) -> HState {
        self.threads[cluster][slot].ctl.state
    }

    /// The H-Thread's current PC.
    #[must_use]
    pub fn thread_pc(&self, cluster: usize, slot: usize) -> u32 {
        self.threads[cluster][slot].ctl.pc
    }

    /// Read a register (tests, loaders, result extraction).
    #[must_use]
    pub fn read_reg(&self, cluster: usize, slot: usize, reg: Reg) -> Word {
        self.threads[cluster][slot].regs.read(reg)
    }

    /// Write a register directly (boot-time setup).
    pub fn write_reg(&mut self, cluster: usize, slot: usize, reg: Reg, value: Word) {
        self.regs_mut(cluster, slot).write(reg, value);
    }

    /// The register file of `(cluster, slot)`, for a write or clear.
    /// Every register mutation goes through here: it may break the
    /// thread's [`IssueBlock::Regs`] proof, so the slot is unparked.
    fn regs_mut(&mut self, cluster: usize, slot: usize) -> &mut ThreadRegs {
        self.unpark(cluster, slot);
        &mut self.threads[cluster][slot].regs
    }

    /// Put `(cluster, slot)` back in the issue stage's scan: something
    /// its block proof depends on may have changed.
    fn unpark(&mut self, cluster: usize, slot: usize) {
        self.parked[cluster] &= !(1u8 << slot);
    }

    /// Are all user-slot H-Threads with programs finished (halted or
    /// faulted), with at least one having run? O(1): reads the
    /// transition-maintained tallies instead of scanning 24 slots.
    #[must_use]
    pub fn user_threads_done(&self) -> bool {
        self.user_running == 0 && self.user_finished > 0
    }

    /// User-slot H-Threads currently running (O(1), maintained at every
    /// state transition — the machine's halt predicate reads this once
    /// per node per cycle instead of scanning every thread slot).
    #[must_use]
    pub fn user_threads_running(&self) -> usize {
        self.user_running as usize
    }

    /// User-slot H-Threads halted or faulted (O(1)).
    #[must_use]
    pub fn user_threads_finished(&self) -> usize {
        self.user_finished as usize
    }

    /// Words waiting in the exception queue of `cluster`.
    #[must_use]
    pub fn exception_queue_len(&self, cluster: usize) -> usize {
        self.exc_q[cluster].len()
    }

    /// Queue/pipeline summary for the inspector (`mmctl snapshot`).
    #[must_use]
    pub fn inspect(&self) -> NodeInspect {
        let mut ni = NodeInspect {
            instructions: self.stats.instructions,
            steps: self.stats.steps,
            outbox: self.net.outbox_len(),
            inbound: [
                self.net.queue_len(Priority::P0),
                self.net.queue_len(Priority::P1),
            ],
            returned: self.net.returned_len(),
            coh_pending: self.net.coh_pending(),
            credits: self.net.credits(),
            ..NodeInspect::default()
        };
        for c in 0..NUM_CLUSTERS {
            for s in 0..NUM_SLOTS {
                match self.threads[c][s].ctl.state {
                    HState::Running => ni.running += 1,
                    HState::Halted => ni.halted += 1,
                    HState::Faulted(_) => ni.faulted += 1,
                    HState::Idle => {}
                }
            }
            ni.event_words[c] = self.event_q[c].len();
            ni.exc_words[c] = self.exc_q[c].len();
        }
        ni
    }

    /// Pop a whole 3-word event record from handler class `cluster`
    /// (used by firmware handlers that stand in for an event H-Thread;
    /// see the coherence layer in `mm-core`).
    pub fn pop_event_record(&mut self, cluster: usize) -> Option<[Word; 3]> {
        // Firmware pollers call this every node-step, nearly always on an
        // empty class: answer from the hot-header count without touching
        // the queue. Records are pushed and counted together and the
        // count only drops on a 3-word boundary, so it is
        // `ceil(len / 3)` — zero exactly when the queue is empty.
        if self.event_records[cluster] == 0 || self.event_q[cluster].len() < 3 {
            return None;
        }
        let q = &mut self.event_q[cluster];
        let rec = [
            q.pop_front().unwrap(),
            q.pop_front().unwrap(),
            q.pop_front().unwrap(),
        ];
        self.event_records[cluster] = self.event_records[cluster].saturating_sub(1);
        Some(rec)
    }

    /// Push a whole 3-word event record into handler class `cluster`'s
    /// queue (firmware/test injection — the mirror of
    /// [`Node::pop_event_record`]). Returns `false` (and drops the
    /// record, counting it) when the class queue is full, exactly like
    /// the hardware enqueue path.
    pub fn push_event_record(&mut self, cluster: usize, record: [Word; 3]) -> bool {
        if self.event_records[cluster] as usize >= self.timing.event_queue_records {
            self.stats.events_dropped += 1;
            return false;
        }
        self.event_q[cluster].extend(record);
        self.event_records[cluster] += 1;
        self.stats.events_enqueued[cluster] += 1;
        self.unpark(cluster, EVENT_SLOT);
        true
    }

    /// Re-submit a rebuilt memory request (firmware replay, the Rust-side
    /// equivalent of `mrestart`).
    ///
    /// # Errors
    ///
    /// Returns the request if the bank queue is full.
    pub fn firmware_restart(&mut self, mut req: MemRequest) -> Result<(), MemRequest> {
        req.id = self.fresh_id();
        self.mem.submit(req)
    }

    /// Whole event records waiting in handler class `class` (firmware
    /// pollers use this to decide whether a drain pass is needed).
    #[must_use]
    pub fn event_records_queued(&self, class: usize) -> usize {
        self.event_records[class] as usize
    }

    /// Bitmask of `cluster`'s thread slots that executed `halt` (bit
    /// `slot`), kept beside the running masks.
    #[must_use]
    pub fn halted_slots(&self, cluster: usize) -> u8 {
        self.halted[cluster]
    }

    /// The four per-cluster running masks packed into one word, so
    /// "anything runnable on this node?" is one load.
    /// Native byte order: the word is only ever tested against zero,
    /// bit-scanned, or compared to itself, never persisted.
    #[must_use]
    pub fn running_word(&self) -> u32 {
        u32::from_ne_bytes(self.running)
    }

    /// The earliest future cycle (strictly after `now`) at which this
    /// node can possibly make progress **without new external input**
    /// (no fabric delivery, no firmware poke, no register write).
    ///
    /// `None` means the node is provably inert: every scheduled
    /// writeback, C-Switch transfer and memory-system stage is drained,
    /// and no running thread is merely waiting out a branch bubble.
    /// Threads that are `Running` but blocked on operands do **not**
    /// produce a deadline — whatever eventually fills their scoreboard
    /// (a memory response, a C-Switch write, a network word) is either a
    /// scheduled deadline reported here or an external wake-up the
    /// machine-level scheduler tracks.
    ///
    /// Only meaningful immediately after a [`Node::step_with`] at `now` that
    /// reported no progress; a step that progressed may enable an issue
    /// on the very next cycle, which this accounting does not cover.
    #[must_use]
    pub fn next_activity(&self, now: u64) -> Option<u64> {
        use crate::engine::earliest;
        let mut best = self.mem.next_activity(now).map(|t| t.max(now + 1));
        if self.net.coh_pending() > 0 {
            // An arrived coherence protocol message awaits the node's
            // class-0 handler dispatch (run by the machine layer right
            // after the node's own step).
            best = earliest(best, Some(now + 1));
        }
        if let Some(r) = self.local_writes.next_ready() {
            best = earliest(best, Some(r.max(now + 1)));
        }
        if let Some(r) = self.csw.next_ready() {
            best = earliest(best, Some(r.max(now + 1)));
        }
        // A parked thread's branch deadline has passed: it was parked
        // at a visit, which only happens once `stall_until <= now`.
        for c in 0..NUM_CLUSTERS {
            let mut mask = self.running[c] & !self.parked[c];
            while mask != 0 {
                #[allow(clippy::cast_possible_truncation)]
                let slot = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let t = &self.threads[c][slot].ctl;
                if t.stall_until > now {
                    best = earliest(best, Some(t.stall_until));
                }
            }
        }
        // A fault-injected stall window gates the whole issue stage: a
        // ready thread that produced no progress this step will issue
        // the moment the window closes, so the engine must wake us then
        // (fatal windows never close — no deadline).
        if self.stall_all_until > now
            && self.stall_all_until != u64::MAX
            && self.running_word() != 0
        {
            best = earliest(best, Some(self.stall_all_until));
        }
        best
    }

    /// Gate the issue stage until cycle `until` (fault injection:
    /// a transient node stall; `u64::MAX` models a dead node). Memory,
    /// writebacks and network delivery continue — only instruction
    /// issue pauses.
    pub fn stall_issue_until(&mut self, until: u64) {
        self.stall_all_until = self.stall_all_until.max(until);
    }

    /// First cycle at which the issue stage may run again (0 = not
    /// stalled).
    #[must_use]
    pub fn issue_stalled_until(&self) -> u64 {
        self.stall_all_until
    }

    // ==================================================================
    // The cycle
    // ==================================================================

    /// Advance one cycle, draining memory completions through the
    /// caller's recycled [`StepScratch`] — the allocation-free kernel
    /// both cycle engines run. The machine-level pump handles fabric
    /// injection/delivery around this call.
    ///
    /// Touches only this node's own state (its clusters, its
    /// [`MemorySystem`], its [`NodeNet`] staging queues) plus the
    /// scratch, so disjoint nodes may be stepped concurrently from
    /// worker threads, each with its worker's scratch — the contract
    /// the machine's sharded engine relies on.
    ///
    /// Returns whether the node made *progress*: issued an instruction,
    /// applied a register write (local writeback, C-Switch transfer or
    /// memory response), raised a fault, or pushed event-queue words.
    /// When a step reports no progress, repeating it with no new
    /// external input is a provable no-op, so the cycle engine may put
    /// the node to sleep until [`Node::next_activity`] (or an external
    /// wake-up) — the quiescence invariant the `engine` module documents.
    ///
    /// A thread whose memoized issue-block proof holds is parked: the
    /// issue stage skips it until one of the events that could break
    /// its proof unparks it: a write or clear of its registers (memory
    /// responses, writebacks, C-Switch transfers, [`Node::write_reg`]),
    /// an event record pushed to its class, an exception record pushed
    /// to its cluster, network words waiting for the message handlers
    /// when the issue stage starts, or a run-state transition.
    pub fn step_with(&mut self, now: u64, scratch: &mut StepScratch) -> bool {
        self.stats.steps += 1;
        let mut progressed = false;

        // Phase 1: memory responses and events (submissions from earlier
        // cycles pop through the bank stage here).
        scratch.clear();
        self.mem
            .step_into(now, &mut scratch.responses, &mut scratch.events);
        progressed |= !scratch.responses.is_empty() || !scratch.events.is_empty();
        for r in scratch.responses.drain(..) {
            self.stats.responses += 1;
            self.stats.last_response_cycle = self.stats.last_response_cycle.max(r.ready);
            if r.req.kind == AccessKind::Load {
                if let Some(ra) = RegAddr::decode(r.req.tag) {
                    self.regs_mut(usize::from(ra.cluster), usize::from(ra.slot))
                        .write(ra.reg, r.value);
                }
            }
        }
        for ev in scratch.events.drain(..) {
            let (kind, words) = format_event(&ev);
            self.push_event_record(kind.handler_class(), words);
        }

        // Phase 2: local unit writebacks due this cycle, in (ready,
        // issue) order.
        while let Some(w) = self.local_writes.pop_due(now) {
            self.regs_mut(usize::from(w.cluster), usize::from(w.slot))
                .write(w.reg, w.value);
            progressed = true;
        }

        // Phase 3: C-Switch — up to `cswitch_width` transfers per
        // cycle, in (ready, issue) order straight off the ready queue
        // (delivery order identical to the old sort-then-scan loop).
        let mut delivered = 0;
        while delivered < self.timing.cswitch_width {
            let Some(t) = self.csw.pop_due(now) else {
                break;
            };
            match t.target {
                CswTarget::Reg { cluster, slot, reg } => {
                    self.regs_mut(usize::from(cluster), usize::from(slot))
                        .write(reg, t.value);
                }
                CswTarget::GccBroadcast { slot, reg } => {
                    for c in 0..NUM_CLUSTERS {
                        self.regs_mut(c, usize::from(slot)).write(reg, t.value);
                    }
                }
            }
            self.stats.cswitch_transfers += 1;
            delivered += 1;
            progressed = true;
        }

        // Phase 4: the synchronization stage issues at most one
        // instruction per cluster. (Branch bubbles are absolute
        // deadlines checked at issue, so nothing decrements here.) A
        // fault-injected stall window gates issue only — everything
        // above (memory, writebacks, switch traffic) keeps draining.
        // Deliveries reach the network interface from outside the node,
        // between steps, so waiting words unpark the message handlers
        // here rather than where they arrive.
        if self.net.words_available(Priority::P0) != 0 {
            self.unpark(2, EVENT_SLOT);
        }
        if self.net.words_available(Priority::P1) != 0 {
            self.unpark(3, EVENT_SLOT);
        }
        if now >= self.stall_all_until {
            for c in 0..NUM_CLUSTERS {
                progressed |= self.issue_cluster(now, c);
            }
        }
        debug_assert!(
            self.parked_proofs_hold(),
            "a parked thread's block proof no longer holds"
        );
        progressed
    }

    /// The parking invariant: every parked slot is running, and its
    /// memoized block proof still holds at its current PC.
    fn parked_proofs_hold(&self) -> bool {
        (0..NUM_CLUSTERS).all(|c| {
            let parked = self.parked[c];
            parked & !self.running[c] == 0
                && (0..NUM_SLOTS).all(|s| parked & (1 << s) == 0 || self.block_holds(c, s))
        })
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_req_id += 1;
        self.next_req_id
    }

    // ==================================================================
    // Issue
    // ==================================================================

    /// Returns whether the cluster did anything observable this cycle
    /// (issued an instruction or raised a fetch fault).
    ///
    /// Visits the cluster's running slots in round-robin order, passing
    /// over each whose parked bit is set when the scan reaches it, and
    /// returns at once if every running slot is parked. A visited
    /// thread whose memoized block proof still holds
    /// is parked again and skipped; one whose fresh probe fails with a
    /// proof to memoize is parked with it. The first ready thread
    /// issues and ends the scan.
    ///
    /// Nothing here walks the instruction: the probe reads the
    /// program's precomputed [`IssueDesc`], and the instruction itself
    /// is only touched by `execute`. `execute` needs `&mut self` while
    /// the instruction lives in the thread's shared [`Program`], so the
    /// `Arc` is *moved* out of the thread slot for the call and moved
    /// back after it — no clone, no refcount traffic. (`execute`, and
    /// the `fault`/halt paths under it, never look at `.program`.)
    fn issue_cluster(&mut self, now: u64, c: usize) -> bool {
        let running = self.running[c];
        if running & !self.parked[c] == 0 {
            return false;
        }
        let mut acted = false;
        // The parked bit is read at each visit, not once for the scan: a
        // fetch fault does not end the scan, and it unparks the
        // exception handler, which may still be ahead in it.
        for slot in SlotScan::new(running, usize::from(self.rr[c])) {
            if self.parked[c] & (1 << slot) != 0 {
                continue;
            }
            if now < self.threads[c][slot].ctl.stall_until {
                continue;
            }
            if self.block_holds(c, slot) {
                self.parked[c] |= 1 << slot;
                continue;
            }
            let t = &self.threads[c][slot].ctl;
            let Some(prog) = &t.program else {
                continue;
            };
            let pc = t.pc;
            self.stats.issue_probes += 1;
            let Some(&desc) = prog.issue_descs().get(pc as usize) else {
                self.fault(now, c, slot, Fault::PcOutOfRange);
                acted = true;
                continue;
            };
            if let Probe::Blocked(memo) = self.probe(c, slot, pc, desc) {
                if memo.is_some() {
                    self.threads[c][slot].ctl.blocked = memo;
                    self.parked[c] |= 1 << slot;
                }
                continue;
            }
            let t = &mut self.threads[c][slot].ctl;
            t.blocked = None;
            let prog = t.program.take().expect("probed through it above");
            self.execute(now, c, slot, &prog.instrs()[pc as usize]);
            self.threads[c][slot].ctl.program = Some(prog);
            #[allow(clippy::cast_possible_truncation)]
            {
                self.rr[c] = ((slot + 1) % NUM_SLOTS) as u8;
            }
            self.stats.instructions += 1;
            self.stats.issued_per_slot[c][slot] += 1;
            acted = true;
            break;
        }
        acted
    }

    /// The synchronization stage's readiness test for the instruction
    /// `desc` describes, sitting at `pc` of `(c, slot)`: one AND against
    /// the scoreboard word, then the structural hazards, then the queue
    /// occupancies.
    ///
    /// A failed probe also says what to memoize. If everything *but*
    /// queue words is in place, the shortage alone blocks the thread
    /// whatever else changes ([`IssueBlock::Queue`]); otherwise, if
    /// readiness involves nothing outside this thread's register file,
    /// only a change to that file can unblock it
    /// ([`IssueBlock::Regs`]).
    fn probe(&self, c: usize, slot: usize, pc: u32, desc: IssueDesc) -> Probe {
        let regs = &self.threads[c][slot].regs;
        // Room in the bank queue that the raw address in `vaddr` maps to?
        let restart_fits = |vaddr: Reg| self.mem.can_accept(regs.read(vaddr).bits(), false);
        let holds = regs.scoreboard() & desc.need == desc.need
            && desc.int_restart.is_none_or(restart_fits)
            && match desc.mem {
                MemHazard::None => true,
                MemHazard::Access(base) => match regs.read(base).pointer() {
                    Ok(p) => self.mem.can_accept(p.addr(), p.perm() == Perm::Physical),
                    Err(_) => true, // will fault at execute, not stall
                },
                MemHazard::SendCredit => self.net.credits() != 0,
                MemHazard::Restart(vaddr) => restart_fits(vaddr),
            };
        if !holds {
            return Probe::Blocked(desc.regs_only.then(|| IssueBlock::Regs {
                pc,
                version: regs.version(),
            }));
        }
        if desc.queue_words == [0, 0] {
            return Probe::Ready;
        }
        let block = QueueBlock {
            pc,
            needs: desc.queue_words.map(u16::from),
        };
        if self.queue_block_holds(c, slot, block) {
            Probe::Blocked(Some(IssueBlock::Queue(block)))
        } else {
            Probe::Ready
        }
    }

    /// Does `(c, slot)`'s memoized block proof still hold: the thread
    /// sits at the PC the proof was computed at, and the recorded
    /// condition (queue shortage / unchanged register file) persists?
    /// Then the full probe is provably a no-op.
    fn block_holds(&self, c: usize, slot: usize) -> bool {
        let thread = &self.threads[c][slot];
        match thread.ctl.blocked {
            Some(IssueBlock::Queue(b)) => {
                b.pc == thread.ctl.pc && self.queue_block_holds(c, slot, b)
            }
            Some(IssueBlock::Regs { pc, version }) => {
                pc == thread.ctl.pc && thread.regs.version() == version
            }
            None => false,
        }
    }

    /// Does the memoized queue-shortage proof still hold — i.e. does
    /// some queue the blocked instruction reads still hold fewer words
    /// than it needs? (`None` availability means the access will fault
    /// at issue rather than wait, so it never upholds a block.)
    fn queue_block_holds(&self, c: usize, slot: usize, b: QueueBlock) -> bool {
        for (idx, reg) in [(0, Reg::NetIn), (1, Reg::EvQ)] {
            if b.needs[idx] > 0 {
                if let Some(avail) = self.queue_words_available(c, slot, reg) {
                    if avail < usize::from(b.needs[idx]) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Is a queue-backed register readable from `(cluster, slot)`?
    fn queue_words_available(&self, c: usize, slot: usize, reg: Reg) -> Option<usize> {
        match reg {
            Reg::NetIn => {
                if slot != EVENT_SLOT || (c != 2 && c != 3) {
                    return None;
                }
                let pri = if c == 2 { Priority::P0 } else { Priority::P1 };
                Some(self.net.words_available(pri))
            }
            Reg::EvQ => match slot {
                EVENT_SLOT => Some(self.event_q[c].len()),
                EXCEPTION_SLOT => Some(self.exc_q[c].len()),
                _ => None,
            },
            _ => None,
        }
    }

    // ==================================================================
    // Execute
    // ==================================================================

    fn fault(&mut self, now: u64, c: usize, slot: usize, fault: Fault) {
        self.stats.faults += 1;
        let t = &mut self.threads[c][slot].ctl;
        let pc = t.pc;
        let old = t.state;
        t.state = HState::Faulted(fault);
        self.account_state(c, slot, old, HState::Faulted(fault));
        // Synchronous exception record for the exception V-Thread (§3.3).
        let desc = (fault as u64) | ((slot as u64) << 8) | ((c as u64) << 12);
        if self.exc_q[c].len() < 3 * self.timing.event_queue_records {
            self.exc_q[c].push_back(Word::from_u64(desc));
            self.exc_q[c].push_back(Word::from_u64(u64::from(pc)));
            self.exc_q[c].push_back(Word::from_u64(now));
            self.unpark(c, EXCEPTION_SLOT);
        }
    }

    fn read_src(&mut self, c: usize, slot: usize, src: &Src) -> Result<Word, Fault> {
        match src {
            Src::Imm(v) => Ok(Word::from_i64(*v)),
            Src::Reg(r) => self.read_reg_dyn(c, slot, *r),
        }
    }

    fn read_reg_dyn(&mut self, c: usize, slot: usize, reg: Reg) -> Result<Word, Fault> {
        match reg {
            Reg::NetIn => {
                if slot != EVENT_SLOT || (c != 2 && c != 3) {
                    return Err(Fault::BadQueueAccess);
                }
                let pri = if c == 2 { Priority::P0 } else { Priority::P1 };
                self.net.pop_word(pri).ok_or(Fault::BadQueueAccess)
            }
            Reg::EvQ => {
                let q = match slot {
                    EVENT_SLOT => &mut self.event_q[c],
                    EXCEPTION_SLOT => &mut self.exc_q[c],
                    _ => return Err(Fault::BadQueueAccess),
                };
                let w = q.pop_front().ok_or(Fault::BadQueueAccess)?;
                // Records are 3 words, pushed atomically: crossing a
                // 3-word boundary means one record fully consumed.
                if slot == EVENT_SLOT && q.len() % 3 == 0 {
                    self.event_records[c] = self.event_records[c].saturating_sub(1);
                }
                Ok(w)
            }
            r => Ok(self.threads[c][slot].regs.read(r)),
        }
    }

    /// Schedule a write of `value` to `dst`, visible after `latency`
    /// cycles. Local non-CC targets are cleared now and filled later;
    /// inter-cluster and CC-broadcast writes ride the C-Switch.
    fn schedule_write(
        &mut self,
        now: u64,
        c: usize,
        slot: usize,
        dst: Dst,
        value: Word,
        latency: u64,
    ) -> Result<(), Fault> {
        #[allow(clippy::cast_possible_truncation)]
        let (c8, slot8) = (c as u8, slot as u8);
        match dst {
            Dst::Local(reg) => {
                if let Reg::Gcc(n) = reg {
                    // Pair k is writable only by cluster k (§3.1).
                    if usize::from(n / 2) != c {
                        return Err(Fault::GccOwnership);
                    }
                    // The writer's own copy empties at issue, so its own
                    // dependent reads (e.g. the branch after a compare)
                    // wait for the broadcast to land.
                    self.regs_mut(c, slot).clear(reg);
                    self.csw.push(
                        now + latency + self.timing.cswitch_latency,
                        CswTransfer {
                            target: CswTarget::GccBroadcast { slot: slot8, reg },
                            value,
                        },
                    );
                    return Ok(());
                }
                self.regs_mut(c, slot).clear(reg);
                self.local_writes.push(
                    now + latency,
                    PendingWrite {
                        cluster: c8,
                        slot: slot8,
                        reg,
                        value,
                    },
                );
                Ok(())
            }
            Dst::Remote { cluster, reg } => {
                if matches!(reg, Reg::Gcc(_)) {
                    return Err(Fault::GccOwnership);
                }
                self.csw.push(
                    now + latency + self.timing.cswitch_latency,
                    CswTransfer {
                        target: CswTarget::Reg {
                            cluster,
                            slot: slot8,
                            reg,
                        },
                        value,
                    },
                );
                Ok(())
            }
        }
    }

    fn execute(&mut self, now: u64, c: usize, slot: usize, instr: &Instruction) {
        let mut next_pc: Option<u32> = None;
        let mut halted = false;

        let int_result = if let Some(op) = &instr.int_op {
            self.stats.int_ops += 1;
            self.exec_int(now, c, slot, op, &mut next_pc, &mut halted)
        } else {
            Ok(())
        };
        let mem_result = if int_result.is_ok() {
            if let Some(slot_op) = &instr.mem_op {
                match slot_op {
                    MemSlotOp::Int(op) => {
                        self.stats.int_ops += 1;
                        self.exec_int(now, c, slot, op, &mut next_pc, &mut halted)
                    }
                    MemSlotOp::Mem(op) => {
                        self.stats.mem_ops += 1;
                        self.exec_mem(now, c, slot, op)
                    }
                }
            } else {
                Ok(())
            }
        } else {
            Ok(())
        };
        let fp_result = if int_result.is_ok() && mem_result.is_ok() {
            if let Some(op) = &instr.fp_op {
                self.stats.fp_ops += 1;
                self.exec_fp(now, c, slot, op)
            } else {
                Ok(())
            }
        } else {
            Ok(())
        };

        if let Err(f) = int_result.and(mem_result).and(fp_result) {
            self.fault(now, c, slot, f);
            return;
        }

        let t = &mut self.threads[c][slot].ctl;
        if halted {
            let old = t.state;
            t.state = HState::Halted;
            self.account_state(c, slot, old, HState::Halted);
            return;
        }
        match next_pc {
            Some(target) => {
                t.pc = target;
                t.stall_until = now + self.timing.branch_bubble;
                self.stats.branches_taken += 1;
            }
            None => t.pc += 1,
        }
    }

    fn require_privilege(slot: usize) -> Result<(), Fault> {
        if slot >= crate::config::USER_SLOTS {
            Ok(())
        } else {
            Err(Fault::Privilege)
        }
    }

    #[allow(clippy::too_many_lines)]
    fn exec_int(
        &mut self,
        now: u64,
        c: usize,
        slot: usize,
        op: &IntOp,
        next_pc: &mut Option<u32>,
        halted: &mut bool,
    ) -> Result<(), Fault> {
        let lat = self.timing.int_latency;
        match op {
            IntOp::Alu { kind, a, b, dst } => {
                let va = self.read_src(c, slot, a)?;
                let vb = self.read_src(c, slot, b)?;
                let (x, y) = (va.as_i64(), vb.as_i64());
                let v = match kind {
                    AluKind::Add => x.wrapping_add(y),
                    AluKind::Sub => x.wrapping_sub(y),
                    AluKind::Mul => x.wrapping_mul(y),
                    AluKind::Div => {
                        if y == 0 {
                            return Err(Fault::DivByZero);
                        }
                        x.wrapping_div(y)
                    }
                    AluKind::And => x & y,
                    AluKind::Or => x | y,
                    AluKind::Xor => x ^ y,
                    #[allow(clippy::cast_possible_wrap, clippy::cast_sign_loss)]
                    AluKind::Shl => ((x as u64) << (y as u64 & 63)) as i64,
                    #[allow(clippy::cast_possible_wrap, clippy::cast_sign_loss)]
                    AluKind::Shr => ((x as u64) >> (y as u64 & 63)) as i64,
                    #[allow(clippy::cast_sign_loss)]
                    AluKind::Sra => x >> (y as u64 & 63),
                };
                let latency = if *kind == AluKind::Div {
                    self.timing.int_div_latency
                } else {
                    lat
                };
                self.schedule_write(now, c, slot, *dst, Word::from_i64(v), latency)
            }
            IntOp::Cmp { kind, a, b, dst } => {
                let va = self.read_src(c, slot, a)?.as_i64();
                let vb = self.read_src(c, slot, b)?.as_i64();
                let v = match kind {
                    CmpKind::Eq => va == vb,
                    CmpKind::Ne => va != vb,
                    CmpKind::Lt => va < vb,
                    CmpKind::Le => va <= vb,
                    CmpKind::Gt => va > vb,
                    CmpKind::Ge => va >= vb,
                };
                self.schedule_write(now, c, slot, *dst, Word::from_bool(v), lat)
            }
            IntOp::Mov { src, dst } => {
                let v = self.read_src(c, slot, src)?;
                self.schedule_write(now, c, slot, *dst, v, lat)
            }
            IntOp::Lea { base, offset, dst } => {
                let b = self.read_reg_dyn(c, slot, *base)?;
                let off = self.read_src(c, slot, offset)?.as_i64();
                let p = b.pointer().map_err(|_| Fault::NotAPointer)?;
                let q = p.offset(off).map_err(|_| Fault::OutOfSegment)?;
                self.schedule_write(now, c, slot, *dst, Word::from_pointer(q), lat)
            }
            IntOp::SetPtr {
                perm,
                log2_len,
                addr,
                dst,
            } => {
                Self::require_privilege(slot)?;
                let perm = Perm::from_bits((self.read_src(c, slot, perm)?.bits() & 0xF) as u8);
                let len = (self.read_src(c, slot, log2_len)?.bits() & 63) as u8;
                let a = self.read_src(c, slot, addr)?.bits();
                let p = GuardedPointer::new(perm, len, a & ((1 << 54) - 1))
                    .map_err(|_| Fault::OutOfSegment)?;
                self.schedule_write(now, c, slot, *dst, Word::from_pointer(p), lat)
            }
            IntOp::Branch { cond, target } => {
                let taken = match cond {
                    BranchCond::Always => true,
                    BranchCond::IfTrue(r) => self.read_reg_dyn(c, slot, *r)?.is_true(),
                    BranchCond::IfFalse(r) => !self.read_reg_dyn(c, slot, *r)?.is_true(),
                };
                if taken {
                    *next_pc = Some(*target);
                }
                Ok(())
            }
            IntOp::JmpReg { target } => {
                let w = self.read_reg_dyn(c, slot, *target)?;
                let p = w.pointer().map_err(|_| Fault::NotAPointer)?;
                p.check_execute().map_err(|_| Fault::Permission)?;
                *next_pc = Some(u32::try_from(p.addr()).map_err(|_| Fault::PcOutOfRange)?);
                if p.perm() == Perm::Enter {
                    self.stats.protected_calls += 1;
                }
                Ok(())
            }
            IntOp::Empty { regs } => {
                for r in regs {
                    self.regs_mut(c, slot).clear(*r);
                }
                Ok(())
            }
            IntOp::WrReg { addr, value } => {
                Self::require_privilege(slot)?;
                let a = self.read_src(c, slot, addr)?.bits();
                let v = self.read_src(c, slot, value)?;
                let ra = RegAddr::decode(a).ok_or(Fault::BadQueueAccess)?;
                self.csw.push(
                    now + lat + self.timing.cswitch_latency,
                    CswTransfer {
                        target: CswTarget::Reg {
                            cluster: ra.cluster,
                            slot: ra.slot,
                            reg: ra.reg,
                        },
                        value: v,
                    },
                );
                Ok(())
            }
            IntOp::GProbe { va, dst } => {
                Self::require_privilege(slot)?;
                let w = self.read_src(c, slot, va)?;
                let addr = if w.is_pointer() {
                    w.pointer().map_err(|_| Fault::NotAPointer)?.addr()
                } else {
                    w.bits()
                };
                let result = match self.net.gtlb_mut().probe(addr) {
                    Some(coord) => Word::from_u64(coord.encode()),
                    None => GuardedPointer::new(Perm::ErrVal, 0, addr & ((1 << 54) - 1))
                        .map(Word::from_pointer)
                        .unwrap_or(Word::ZERO),
                };
                self.schedule_write(now, c, slot, *dst, result, self.timing.gprobe_latency)
            }
            IntOp::TlbWr { entry_ptr } => {
                Self::require_privilege(slot)?;
                let a = self.read_reg_dyn(c, slot, *entry_ptr)?;
                let pa = if a.is_pointer() {
                    a.pointer().map_err(|_| Fault::NotAPointer)?.addr()
                } else {
                    a.bits()
                };
                let _ = self.mem.tlb_install(pa);
                Ok(())
            }
            IntOp::MRestart { desc, vaddr, data } => {
                Self::require_privilege(slot)?;
                let d = self.read_reg_dyn(c, slot, *desc)?;
                let va = self.read_reg_dyn(c, slot, *vaddr)?;
                let dat = self.read_reg_dyn(c, slot, *data)?;
                let id = self.fresh_id();
                let req = decode_record(d, va, dat, id).ok_or(Fault::BadQueueAccess)?;
                // Readiness checked bank space; a failure here is a bug.
                self.mem.submit(req).map_err(|_| Fault::BadQueueAccess)?;
                Ok(())
            }
            IntOp::NodeId { dst } => {
                let v = Word::from_u64(self.coord.encode());
                self.schedule_write(now, c, slot, *dst, v, lat)
            }
            IntOp::Halt => {
                *halted = true;
                Ok(())
            }
            IntOp::Nop => Ok(()),
        }
    }

    fn exec_mem(&mut self, _now: u64, c: usize, slot: usize, op: &MemOp) -> Result<(), Fault> {
        match op {
            MemOp::Load {
                base,
                offset,
                dst,
                pre,
                post,
            } => {
                self.stats.loads += 1;
                let b = self.read_reg_dyn(c, slot, *base)?;
                let p = b.pointer().map_err(|_| Fault::NotAPointer)?;
                let ea = p
                    .offset(i64::from(*offset))
                    .map_err(|_| Fault::OutOfSegment)?;
                let phys = ea.perm() == Perm::Physical;
                if !phys {
                    ea.check_read().map_err(|_| Fault::Permission)?;
                }
                // Destination scoreboard clears at issue; the response
                // fills it (§3.1).
                let (tcluster, reg) = match dst {
                    Dst::Local(r) => (c, *r),
                    Dst::Remote { cluster, reg } => (*cluster as usize, *reg),
                };
                if *dst == Dst::Local(reg) && !reg.is_queue() {
                    self.regs_mut(c, slot).clear(reg);
                }
                let tag = RegAddr {
                    slot: slot as u8,
                    cluster: tcluster as u8,
                    reg,
                }
                .encode();
                let id = self.fresh_id();
                let req = MemRequest {
                    id,
                    kind: AccessKind::Load,
                    va: ea.addr(),
                    data: Word::ZERO,
                    data_ptr_tag: false,
                    pre: *pre,
                    post: *post,
                    tag,
                    phys,
                };
                self.mem.submit(req).map_err(|_| Fault::BadQueueAccess)
            }
            MemOp::Store {
                src,
                base,
                offset,
                pre,
                post,
            } => {
                self.stats.stores += 1;
                let v = self.read_src(c, slot, src)?;
                let b = self.read_reg_dyn(c, slot, *base)?;
                let p = b.pointer().map_err(|_| Fault::NotAPointer)?;
                let ea = p
                    .offset(i64::from(*offset))
                    .map_err(|_| Fault::OutOfSegment)?;
                let phys = ea.perm() == Perm::Physical;
                if !phys {
                    ea.check_write().map_err(|_| Fault::Permission)?;
                }
                let id = self.fresh_id();
                let req = MemRequest {
                    id,
                    kind: AccessKind::Store,
                    va: ea.addr(),
                    data: v,
                    data_ptr_tag: v.is_pointer(),
                    pre: *pre,
                    post: *post,
                    tag: 0,
                    phys,
                };
                self.mem.submit(req).map_err(|_| Fault::BadQueueAccess)
            }
            MemOp::Send {
                dest,
                dip,
                len,
                priority,
            } => {
                self.stats.sends += 1;
                let d = self.read_reg_dyn(c, slot, *dest)?;
                let dp = self.read_reg_dyn(c, slot, *dip)?;
                let dest_ptr = d.pointer().map_err(|_| Fault::NotAPointer)?;
                let dip_ptr = dp.pointer().map_err(|_| Fault::BadDip)?;
                dip_ptr.check_execute().map_err(|_| Fault::BadDip)?;
                let mut body = mm_net::MsgBody::new();
                for i in 1..=*len {
                    body.push(self.threads[c][slot].regs.read(Reg::Mc(i)));
                }
                match self.net.send(dp, d, dest_ptr.addr(), body, *priority) {
                    SendOutcome::Sent(_) => Ok(()),
                    SendOutcome::NoCredit => Err(Fault::BadQueueAccess), // readiness bug
                    SendOutcome::Unmapped => Err(Fault::UnmappedSend),
                }
            }
        }
    }

    fn exec_fp(&mut self, now: u64, c: usize, slot: usize, op: &FpOp) -> Result<(), Fault> {
        let lat = self.timing.fp_latency;
        match op {
            FpOp::Alu { kind, a, b, dst } => {
                let x = self.read_src(c, slot, a)?.as_f64();
                let y = self.read_src(c, slot, b)?.as_f64();
                let (v, latency) = match kind {
                    FpKind::Add => (x + y, lat),
                    FpKind::Sub => (x - y, lat),
                    FpKind::Mul => (x * y, lat),
                    FpKind::Div => (x / y, self.timing.fp_div_latency),
                };
                self.schedule_write(now, c, slot, *dst, Word::from_f64(v), latency)
            }
            FpOp::Madd { a, b, c: cc, dst } => {
                let x = self.read_src(c, slot, a)?.as_f64();
                let y = self.read_src(c, slot, b)?.as_f64();
                let z = self.read_src(c, slot, cc)?.as_f64();
                self.schedule_write(now, c, slot, *dst, Word::from_f64(x.mul_add(y, z)), lat)
            }
            FpOp::Cmp { kind, a, b, dst } => {
                let x = self.read_src(c, slot, a)?.as_f64();
                let y = self.read_src(c, slot, b)?.as_f64();
                let v = match kind {
                    CmpKind::Eq => x == y,
                    CmpKind::Ne => x != y,
                    CmpKind::Lt => x < y,
                    CmpKind::Le => x <= y,
                    CmpKind::Gt => x > y,
                    CmpKind::Ge => x >= y,
                };
                self.schedule_write(now, c, slot, *dst, Word::from_bool(v), lat)
            }
            FpOp::Mov { src, dst } => {
                let v = self.read_src(c, slot, src)?;
                self.schedule_write(now, c, slot, *dst, v, lat)
            }
            FpOp::Itof { src, dst } => {
                #[allow(clippy::cast_precision_loss)]
                let v = self.read_src(c, slot, src)?.as_i64() as f64;
                self.schedule_write(now, c, slot, *dst, Word::from_f64(v), lat)
            }
            FpOp::Ftoi { src, dst } => {
                let x = self.read_src(c, slot, src)?.as_f64();
                #[allow(clippy::cast_possible_truncation)]
                let v = if x.is_nan() { 0 } else { x as i64 };
                self.schedule_write(now, c, slot, *dst, Word::from_i64(v), lat)
            }
            FpOp::Empty { regs } => {
                for r in regs {
                    self.regs_mut(c, slot).clear(*r);
                }
                Ok(())
            }
            FpOp::Nop => Ok(()),
        }
    }

    // ==================================================================
    // Checkpointing
    // ==================================================================

    /// Serialize the complete node state — thread control, register
    /// files, queues, subsystems and statistics. Programs themselves are
    /// **not** serialized (they are immutable and shared): restore
    /// targets a node with the same programs loaded in the same slots,
    /// and only presence is validated. Both node-clock slots hold `now`.
    pub fn save_state(&self, e: &mut Enc, now: u64) {
        for c in 0..NUM_CLUSTERS {
            (self.running[c], self.rr[c], self.event_records[c]).save(e);
        }
        (self.next_req_id, self.user_running, self.user_finished, now).save(e);
        self.stall_all_until.save(e);
        self.local_writes.save(e);
        self.csw.save(e);
        for thread in self.threads.iter().flatten() {
            let t = &thread.ctl;
            (t.program.is_some(), t.pc, t.state, t.stall_until).save(e);
            // The memoized issue-block proof rides along so the
            // restored run probes exactly when the original would
            // (keeps host counters like `issue_probes` identical).
            // `None` is tag 0 beside the proof kinds' own tags.
            match &t.blocked {
                Some(b) => _ = b.save_tagged(e),
                None => e.u8(0),
            }
            thread.regs.save_state(e);
        }
        self.event_q.save(e);
        self.exc_q.save(e);
        now.save(e);
        self.stats.save(e);
        self.mem.save_state(e);
        self.net.save_state(e);
    }

    /// Restore state produced by [`Node::save_state`] into a node built
    /// with the same configuration and the same programs loaded.
    ///
    /// The running masks and user-thread tallies are recomputed from the
    /// restored thread states, as the halted masks are, and the event-record
    /// counts from the event queues; an image whose stored copies disagree
    /// with those, or whose clocks are not `now`, is refused.
    ///
    /// # Errors
    ///
    /// Fails on truncation, malformed fields, a program-presence
    /// mismatch, a stored copy that disagrees, or a geometry mismatch
    /// in any subsystem.
    pub fn load_state(&mut self, d: &mut Dec, now: u64) -> Result<(), CkptError> {
        // Every running thread is visited afresh; those whose restored
        // proofs hold park again on that visit.
        self.parked = [0; NUM_CLUSTERS];
        let clusters = <[(u8, u8, u32); NUM_CLUSTERS]>::load(d)?;
        for (c, &(_, rr, _)) in clusters.iter().enumerate() {
            if usize::from(rr) >= NUM_SLOTS {
                return Err(CkptError(format!(
                    "bad round-robin cursor {rr} at cluster {c}"
                )));
            }
            self.rr[c] = rr;
        }
        let running = clusters.map(|(mask, ..)| mask);
        let (user_running, user_finished);
        (self.next_req_id, user_running, user_finished) = Ckpt::load(d)?;
        d.copy_of("node clock", now)?;
        self.stall_all_until = d.u64()?;
        self.local_writes = Ckpt::load(d)?;
        self.csw = Ckpt::load(d)?;
        for (c, s) in (0..NUM_CLUSTERS).flat_map(|c| (0..NUM_SLOTS).map(move |s| (c, s))) {
            let (has_program, pc, state, stall_until) = <(bool, _, _, _)>::load(d)?;
            let blocked = match d.u8()? {
                0 => None,
                tag => Some(
                    IssueBlock::load_tagged(tag, d)?
                        .ok_or_else(|| CkptError(format!("bad issue-block tag {tag}")))?,
                ),
            };
            let thread = &mut self.threads[c][s];
            let t = &mut thread.ctl;
            if has_program != t.program.is_some() {
                return Err(CkptError(format!(
                    "program presence mismatch at cluster {c} slot {s}: \
                     checkpoint {has_program}, target {}",
                    t.program.is_some()
                )));
            }
            t.pc = pc;
            t.state = state;
            t.stall_until = stall_until;
            t.blocked = blocked;
            thread.regs.load_state(d)?;
        }
        self.event_q = Ckpt::load(d)?;
        self.recount_threads();
        #[allow(clippy::cast_possible_truncation)]
        let records = self.event_q.each_ref().map(|q| q.len().div_ceil(3) as u32);
        let stored = (running, user_running, user_finished, clusters.map(|c| c.2));
        let derived = (self.running, self.user_running, self.user_finished, records);
        if stored != derived {
            return Err(CkptError(format!(
                "thread tallies disagree with the thread states, or event-record counts with the \
                 event queues: the image stores (running masks, user threads running, finished, \
                 records) {stored:?}, the states and queues give {derived:?}"
            )));
        }
        self.event_records = records;
        self.exc_q = Ckpt::load(d)?;
        d.copy_of("node clock", now)?;
        self.stats = NodeStats::load(d)?;
        self.mem.load_state(d)?;
        self.net.load_state(d)?;
        Ok(())
    }

    /// Recompute every mask and tally [`Node::account_state`] keeps
    /// from the thread states.
    fn recount_threads(&mut self) {
        (self.user_running, self.user_finished) = (0, 0);
        for (c, slots) in self.threads.iter().enumerate() {
            (self.running[c], self.halted[c]) = (0, 0);
            for (s, t) in slots.iter().enumerate() {
                let state = t.ctl.state;
                let bit = 1u8 << s;
                if state == HState::Running {
                    self.running[c] |= bit;
                }
                if state == HState::Halted {
                    self.halted[c] |= bit;
                }
                if s < crate::config::USER_SLOTS {
                    let finished = matches!(state, HState::Halted | HState::Faulted(_));
                    self.user_running += u32::from(state == HState::Running);
                    self.user_finished += u32::from(finished);
                }
            }
        }
    }
}

ckpt_enum!(Fault, "fault" {
    0 => NotAPointer,
    1 => Permission,
    2 => OutOfSegment,
    3 => Privilege,
    4 => UnmappedSend,
    5 => BadDip,
    6 => DivByZero,
    7 => PcOutOfRange,
    8 => BadQueueAccess,
    9 => GccOwnership,
});
ckpt_enum!(HState, "thread state" { 0 => Idle, 1 => Running, 2 => Halted, 3 => Faulted(f) });
ckpt_enum!(tags IssueBlock { 1 => Queue(b), 2 => Regs { pc, version } });

ckpt_struct! {
    QueueBlock { pc, needs }
    CswTransfer { target, value }
    NodeStats {
        instructions, int_ops, mem_ops, fp_ops, loads, stores, sends, protected_calls,
        branches_taken, faults, events_enqueued, events_dropped, issued_per_slot, cswitch_transfers,
        last_response_cycle, responses, issue_probes, steps
    }
}

/// Checkpoint format: a tag, then the target as a packed [`RegAddr`]
/// word (cluster 0 for a broadcast).
impl Ckpt for CswTarget {
    fn save(&self, e: &mut Enc) {
        let (tag, at) = match *self {
            CswTarget::Reg { cluster, slot, reg } => (0u8, RegAddr { slot, cluster, reg }),
            CswTarget::GccBroadcast { slot, reg } => (
                1,
                RegAddr {
                    slot,
                    cluster: 0,
                    reg,
                },
            ),
        };
        (tag, at).save(e);
    }

    fn load(d: &mut Dec<'_>) -> Result<Self, CkptError> {
        let broadcast = match d.u8()? {
            0 => false,
            1 => true,
            t => return Err(CkptError(format!("bad C-Switch target tag {t}"))),
        };
        let RegAddr { slot, cluster, reg } = Ckpt::load(d)?;
        Ok(if broadcast {
            CswTarget::GccBroadcast { slot, reg }
        } else {
            CswTarget::Reg { cluster, slot, reg }
        })
    }
}

/// Checkpoint format: the packed [`RegAddr`] word, then the value.
impl Ckpt for PendingWrite {
    fn save(&self, e: &mut Enc) {
        let (slot, cluster, reg) = (self.slot, self.cluster, self.reg);
        (RegAddr { slot, cluster, reg }, self.value).save(e);
    }

    fn load(d: &mut Dec<'_>) -> Result<Self, CkptError> {
        let (RegAddr { slot, cluster, reg }, value) = Ckpt::load(d)?;
        Ok(PendingWrite {
            cluster,
            slot,
            reg,
            value,
        })
    }
}

/// Advance `node` one cycle with a scratch of its own — the unit tests'
/// stepping helper (the cycle engines recycle theirs across steps).
#[cfg(test)]
pub(crate) fn step(node: &mut Node, now: u64) -> bool {
    node.step_with(now, &mut StepScratch::new())
}

#[cfg(test)]
mod issue_tests;
