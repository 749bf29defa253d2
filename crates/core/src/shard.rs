//! Node-major lookahead windows: the node phase of
//! [`MMachine`](crate::machine::MMachine), run serially or sharded
//! across a pool of worker threads.
//!
//! ## Why a window is safe
//!
//! §4.2's fabric cannot deliver a packet injected at cycle `t` before
//! `t + hop_latency + 1`: the head flit crosses at least one hop (a
//! loopback costs the same) and the tail is at least one flit behind
//! it. So over the `W = hop_latency + 1` cycles `[T, T + W)` every packet
//! any node can receive is already in flight at `T`, and each node's
//! steps in the window depend on nothing but its own state and those
//! packets. The machine pops the window's deliveries from the fabric
//! once, at `T` — slot numbers only: the walk reads each packet in place
//! in the fabric's slab, and the slots are released after the replay —
//! and [`step_shard`] steps each due node through *every*
//! cycle of the window before it moves on to the next node — the node's
//! state is fetched once per window instead of once per cycle, and the
//! machine's per-cycle bookkeeping is paid once per window. Between two
//! steps of a node the walk applies that node's deliveries of the cycle,
//! exactly where the per-cycle loop applied them: after every node's
//! step of the delivery cycle, before any node's next step.
//!
//! ## The log and its replay
//!
//! What a node does that reaches past itself is not applied during the
//! walk but recorded in the shard's [`WindowLog`], each record keyed by
//! its `(cycle, phase, node / delivery order)`: the packets drained from
//! its outbox after a step (phase 2), the packets each delivery staged
//! (phase 3), the messages a `Return` handed back for resending (phase 4)
//! and what the timeline's trace bookkeeping reads of it (phase 5). After
//! the walk, the driving thread replays the records cycle by cycle into
//! the fabric, the resend queue and the timeline in the per-cycle loop's
//! order — phase 2 by ascending node, phases 3 and 4 by the fabric's
//! delivery order, phase 5 by ascending node — so fabric link
//! arbitration, delivery timing and the timeline are exactly what the
//! per-cycle loop produced. The wake a delivery causes is the receiving
//! node's own slot and is applied in place.
//!
//! ## The ladder walk
//!
//! The only per-node scheduling state kept outside the nodes is the
//! machine's [`DeadlineLadder`]: the walk skips a whole [`BLOCK`]-node
//! block on one `u64` read when its ladder minimum lies past the window
//! and none of its nodes receives a packet in it, then visits a live
//! block's nodes in ascending order, touching a `Node` struct only when
//! the node is due inside the window or receives something. Each visited
//! node's slot is rewritten after every step, and raised slots are folded
//! into the block minimum with one 64-wide rebuild per visited block.
//!
//! ## Determinism argument
//!
//! The parallel engine is bit-identical to the serial engine (and hence
//! to the dense `naive_step` loop) for every worker count because:
//!
//! 1. **Node windows are independent.** [`step_shard`] mutates only the
//!    nodes and ladder slots of its own contiguous index range; shards
//!    are split at [`BLOCK`]-aligned boundaries, so two workers share no
//!    node, no slot, and not even a ladder `block_min` word — the
//!    interleaving of workers cannot be observed.
//! 2. **Both engines run the same loop.** The serial engine calls
//!    [`step_shard`] once over the whole ladder; the parallel engine
//!    calls it once per disjoint shard, one barrier per window. Same
//!    code, same per-node effects.
//! 3. **Everything that crosses nodes is replayed in one order.** Each
//!    shard's log is sorted by cycle and node, deliveries are indexed by
//!    their global delivery order, and the driving thread merges the
//!    shards' logs cycle by cycle in shard (= node) order — the order the
//!    serial walk's single log has. Each shard's user-thread *changes*
//!    are summed, and the cycles of their last changes maxed; `i64`
//!    addition and `max` commute, so the machine totals and the exact
//!    halt cycle are worker-count-invariant too.
//!
//! The differential harness (`crates/core/tests/differential.rs`)
//! checks this end to end: the dense loop vs. the serial engine vs. the
//! parallel engine at 2 and 4 workers must agree on stats, timelines,
//! halt cycles and register files, with windows cut at every boundary
//! the machine has.

use crate::coherence::NodeCoh;
use mm_net::message::{Message, Packet};
use mm_sched::{DeadlineLadder, LadderViewMut, AWAKE, INERT};
use mm_sim::engine::earliest;
use mm_sim::{Node, StepScratch, NUM_CLUSTERS, USER_SLOTS};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

pub(crate) use mm_sched::BLOCK;

/// A packet the fabric delivers inside the window, popped at its start.
/// The packet itself stays where the fabric put it, at index `slot` of
/// [`Window::packets`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Arrival {
    /// The delivery cycle.
    pub(crate) at: u64,
    /// Position in the window's delivery order — the fabric's
    /// `(deliver_at, injection)` pop order.
    pub(crate) j: u32,
    /// Destination node.
    pub(crate) node: u32,
    /// The packet's index in [`Window::packets`].
    pub(crate) slot: u32,
}

/// `node << 32 | index`: the key [`Window::by_node`] sorts arrivals by.
pub(crate) fn node_key(node: u32, index: usize) -> u64 {
    #[allow(clippy::cast_possible_truncation)]
    let index = index as u32;
    u64::from(node) << 32 | u64::from(index)
}

fn key_node(key: u64) -> usize {
    (key >> 32) as usize
}

fn key_index(key: u64) -> usize {
    (key & 0xffff_ffff) as usize
}

/// One window of the node phase, as a walk sees it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Window<'a> {
    /// First cycle (an active cycle).
    pub(crate) start: u64,
    /// One past the last cycle.
    pub(crate) end: u64,
    /// The walked nodes' arrivals, in delivery order.
    pub(crate) arrivals: &'a [Arrival],
    /// Where `arrivals`' packets are, by [`Arrival::slot`]: the fabric's
    /// slab for the serial walk, a shard's own copy for a worker's.
    pub(crate) packets: &'a [Packet],
    /// [`node_key`]s into `arrivals`, ascending: nodes ascending, each
    /// node's arrivals in delivery order.
    pub(crate) by_node: &'a [u64],
    /// Deliver through the checksum-checking path (link faults armed).
    pub(crate) checked: bool,
    /// Record phase-5 trace snapshots.
    pub(crate) trace: bool,
}

/// Packets `node`'s outbox held after its step at `at` (phase 2): the
/// range `from..to` of [`WindowLog::packets`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Drain {
    pub(crate) at: u64,
    pub(crate) node: u32,
    pub(crate) from: u32,
    pub(crate) to: u32,
}

/// What applying delivery `j` produced: the packets it staged (phase 3,
/// `packets`), and — on a node's first `Return` of the cycle — every
/// message the node handed back for resending (phase 4, `returned`).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Delivered {
    pub(crate) j: u32,
    pub(crate) packets: (u32, u32),
    pub(crate) returned: (u32, u32),
}

/// What phase 5's trace bookkeeping reads of a node after its step at
/// `at`: its event-enqueue counters and which user threads have halted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TraceSnap {
    pub(crate) at: u64,
    pub(crate) node: u32,
    pub(crate) events: [u64; NUM_CLUSTERS],
    /// Bit `cluster * USER_SLOTS + slot` set when that thread halted.
    halted: u32,
}

impl TraceSnap {
    pub(crate) fn of(at: u64, node: usize, n: &Node) -> TraceSnap {
        let mut halted = 0;
        for c in 0..NUM_CLUSTERS {
            let user = u32::from(n.halted_slots(c)) & ((1 << USER_SLOTS) - 1);
            halted |= user << (c * USER_SLOTS);
        }
        #[allow(clippy::cast_possible_truncation)]
        let node = node as u32;
        TraceSnap {
            at,
            node,
            events: n.stats().events_enqueued,
            halted,
        }
    }

    /// The halted user threads as `(cluster, slot)`, ascending.
    pub(crate) fn halted(&self) -> impl Iterator<Item = (usize, usize)> {
        let mut bits = self.halted;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                (bit / USER_SLOTS, bit % USER_SLOTS)
            })
        })
    }

    /// Would replaying `self` right after `prev` record nothing? (The
    /// counters and halted set are unchanged.)
    fn same_as(&self, prev: &TraceSnap) -> bool {
        self.events == prev.events && self.halted == prev.halted
    }
}

/// One shard's record of a window: every effect of its walk that
/// reaches past the stepping node, for the driving thread to replay
/// (see the [module docs](self)). Recycled window to window.
#[derive(Debug, Default)]
pub(crate) struct WindowLog {
    /// Packets staged by the shard's nodes, in walk order; drains and
    /// deliveries index into it.
    pub(crate) packets: Vec<Packet>,
    /// Messages returned to their senders, in walk order.
    pub(crate) returned: Vec<Message>,
    /// Phase-2 drains, sorted by `(at, node)` once the walk is done.
    pub(crate) drains: Vec<Drain>,
    /// One record per arrival of the window the shard walked, index for
    /// index (so in delivery order).
    pub(crate) delivered: Vec<Delivered>,
    /// Phase-5 snapshots, sorted by `(at, node)` once the walk is done.
    pub(crate) traces: Vec<TraceSnap>,
    /// The shard's summed changes to the user threads running and
    /// finished (a run only moves threads from the first to the second).
    pub(crate) running: i64,
    pub(crate) finished: i64,
    /// The last cycle at which a step changed either.
    pub(crate) last_change: Option<u64>,
    /// The last cycle any of the shard's nodes stepped at.
    pub(crate) last_step: Option<u64>,
}

impl WindowLog {
    /// Empty the log for a window with `arrivals` arrivals.
    fn clear(&mut self, arrivals: usize) {
        self.packets.clear();
        self.returned.clear();
        self.drains.clear();
        self.delivered.clear();
        self.delivered.resize(arrivals, Delivered::default());
        self.traces.clear();
        (self.running, self.finished, self.last_change) = (0, 0, None);
        self.last_step = None;
    }
}

/// The replay's read position in one shard's [`WindowLog`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ReplayCursor {
    pub(crate) drains: usize,
    pub(crate) traces: usize,
    /// Phase 3's and phase 4's positions in `delivered`.
    delivered: [usize; 2],
}

impl ReplayCursor {
    /// The record of delivery `j` for phase 3 (`returns` false) or
    /// phase 4 (true), with the log holding it. Each pass reads every
    /// log's records in delivery order, and every arrival was applied by
    /// exactly one shard, so the record is at the head of one cursor.
    pub(crate) fn delivered<'l>(
        logs: &'l [WindowLog],
        cursors: &mut [ReplayCursor],
        j: u32,
        returns: bool,
    ) -> (&'l WindowLog, Delivered) {
        let pass = usize::from(returns);
        for (log, cur) in logs.iter().zip(cursors.iter_mut()) {
            if let Some(&d) = log.delivered.get(cur.delivered[pass]).filter(|d| d.j == j) {
                cur.delivered[pass] += 1;
                return (log, d);
            }
        }
        unreachable!("delivery {j} was applied by no shard")
    }
}

fn len32(len: usize) -> u32 {
    u32::try_from(len).expect("a window logs fewer than 2^32 records")
}

/// The node phase of one window over one contiguous shard of the mesh:
/// every node due inside `[win.start, win.end)` or receiving a packet in
/// it is stepped through each of the window's cycles at which it is due
/// (its own compute/memory tick, then its coherence-handler activation),
/// with its arrivals applied between steps, its ladder slot rewritten
/// after every step, and every cross-node effect recorded in `log`. This
/// is the *single* implementation both engines run — the serial engine
/// passes the whole ladder, the parallel engine one disjoint
/// block-aligned shard per worker — so cycle-exactness across engines
/// holds by construction.
///
/// The coherence handler runs here, inside the shard, because it only
/// ever touches its own node: class-0 records are drained from the
/// node's own queues, protocol messages from the node's own coherence
/// inbox, and everything it sends stages in the node's own outbox, from
/// where the log carries it to the ordered replay behind the barrier.
pub(crate) fn step_shard(
    nodes: &mut [Node],
    coh: &mut [NodeCoh],
    mut ladder: LadderViewMut<'_>,
    base: usize,
    win: &Window<'_>,
    log: &mut WindowLog,
    scratch: &mut StepScratch,
) {
    let n = nodes.len();
    debug_assert_eq!(n, ladder.slots.len());
    debug_assert_eq!(n, coh.len());
    log.clear(win.arrivals.len());
    // Cursor into `win.by_node`: every key before it belongs to a node
    // already walked or skipped.
    let mut next = 0;
    for b in 0..ladder.block_min.len() {
        let lo = b * BLOCK;
        let hi = (lo + BLOCK).min(n);
        let receiving = win
            .by_node
            .get(next)
            .is_some_and(|&key| key_node(key) < base + hi);
        // Block skip: 64 nodes asleep past the window with nothing
        // arriving cost one word read.
        if ladder.block_min[b] >= win.end && !receiving {
            continue;
        }
        for k in lo..hi {
            let first = next;
            while win
                .by_node
                .get(next)
                .is_some_and(|&key| key_node(key) == base + k)
            {
                next += 1;
            }
            if ladder.slots[k] >= win.end && first == next {
                continue;
            }
            walk_node(
                &mut nodes[k],
                &mut ladder.slots[k],
                &mut coh[k],
                base + k,
                win,
                &win.by_node[first..next],
                log,
                scratch,
            );
        }
        // Slots were rewritten (some possibly raised): one 64-wide min
        // recompute restores the block skip's soundness.
        ladder.rebuild_block(b);
    }
    // The walk produced node-major order; the replay reads cycle-major.
    log.drains.sort_unstable_by_key(|d| (d.at, d.node));
    log.traces.sort_unstable_by_key(|s| (s.at, s.node));
}

/// One node's window: for each cycle, the step (if due) and its outbox
/// drain, then the node's deliveries of that cycle and the returns they
/// brought, then its trace snapshot — the per-cycle loop's phases 1–5
/// restricted to this node. `mine` holds the node's [`node_key`]s;
/// `slot` is the node's ladder slot, which the walk keeps current.
#[allow(clippy::too_many_arguments)]
fn walk_node(
    n: &mut Node,
    slot: &mut u64,
    coh: &mut NodeCoh,
    node: usize,
    win: &Window<'_>,
    mine: &[u64],
    log: &mut WindowLog,
    scratch: &mut StepScratch,
) {
    #[allow(clippy::cast_possible_truncation)]
    let node32 = node as u32;
    let mut mine = mine.iter().map(|&key| key_index(key)).peekable();
    // The node's last logged snapshot: an unchanged one would replay as
    // nothing, so it is not logged.
    let mut traced: Option<TraceSnap> = None;
    for now in win.start..win.end {
        let stepped = *slot <= now;
        if stepped {
            // User H-Thread states change only inside this step pair
            // (deliveries reach only the node's interface), so the
            // node's tally change is its counts after minus before.
            let (r0, f0) = (n.user_threads_running(), n.user_threads_finished());
            let mut progressed = n.step_with(now, scratch);
            progressed |= coh.step(now, n);
            // A node that made no progress at `now` may sleep until the
            // earlier of its own next activity and its handler's.
            *slot = if progressed {
                AWAKE
            } else {
                earliest(n.next_activity(now), coh.next_activity(now)).unwrap_or(INERT)
            };
            #[allow(clippy::cast_possible_wrap)]
            let (running, finished) = (
                n.user_threads_running() as i64 - r0 as i64,
                n.user_threads_finished() as i64 - f0 as i64,
            );
            // Only the host starts user threads, between runs: a step can
            // only move them from running to finished.
            debug_assert!(running <= 0 && finished == -running, "node {node} at {now}");
            if finished != 0 {
                log.running += running;
                log.finished += finished;
                log.last_change = log.last_change.max(Some(now));
            }
            log.last_step = log.last_step.max(Some(now));
            if n.net.outbox_len() > 0 {
                let from = len32(log.packets.len());
                n.net.drain_outbox_into(&mut log.packets);
                log.drains.push(Drain {
                    at: now,
                    node: node32,
                    from,
                    to: len32(log.packets.len()),
                });
            }
        }
        // This node's deliveries of `now`; each is external input, so
        // the node wakes.
        let mut first_return = None;
        while let Some(k) = mine.next_if(|&k| win.arrivals[k].at == now) {
            let packet = &win.packets[win.arrivals[k].slot as usize];
            if matches!(packet, Packet::Return(_)) && first_return.is_none() {
                first_return = Some(k);
            }
            if win.checked {
                n.net.deliver_checked(packet);
            } else {
                n.net.deliver(packet);
            }
            let from = len32(log.packets.len());
            n.net.drain_outbox_into(&mut log.packets);
            log.delivered[k] = Delivered {
                j: win.arrivals[k].j,
                packets: (from, len32(log.packets.len())),
                returned: (0, 0),
            };
            *slot = AWAKE;
        }
        // Returned messages leave for the backoff queue in the order the
        // per-cycle loop popped them: at the node's first `Return`.
        if let Some(k) = first_return {
            let from = len32(log.returned.len());
            while let Some(m) = n.net.pop_returned() {
                log.returned.push(m);
            }
            log.delivered[k].returned = (from, len32(log.returned.len()));
        }
        if stepped && win.trace {
            let snap = TraceSnap::of(now, node, n);
            if !traced.is_some_and(|prev| snap.same_as(&prev)) {
                log.traces.push(snap);
                traced = Some(snap);
            }
        }
        if *slot >= win.end && mine.peek().is_none() {
            // Asleep past the window with nothing more arriving.
            break;
        }
    }
}

/// A raw base pointer smuggled to a worker thread.
///
/// Soundness rests on the dispatch protocol in
/// [`WorkerPool::step_window`]: each worker receives a disjoint
/// `[start, start + len)` index range, touches only that range, and the
/// dispatching thread blocks until every worker has reported done
/// before using (or freeing) the underlying storage again.
struct ShardPtr<T>(*mut T);

impl<T> Clone for ShardPtr<T> {
    fn clone(&self) -> ShardPtr<T> {
        *self
    }
}
impl<T> Copy for ShardPtr<T> {}

// SAFETY: see the type-level comment — ranges are disjoint and the
// sender joins the per-window barrier before reusing the memory.
unsafe impl<T: Send> Send for ShardPtr<T> {}

/// The ladder's two arrays as raw base pointers (one pair per job).
/// Shard views are built from these inside the worker at block-aligned
/// offsets, so — like the node and handler slices — they are disjoint by
/// the dispatch protocol.
#[derive(Clone, Copy)]
struct LadderPtrs {
    slots: ShardPtr<u64>,
    block_min: ShardPtr<u64>,
}

/// A shard's own copy of its nodes' arrivals (in delivery order), their
/// packets and their keys, each arrival's `slot` and key indexing the
/// copy; recycled window to window.
#[derive(Debug, Default)]
struct ShardInput {
    arrivals: Vec<Arrival>,
    packets: Vec<Packet>,
    by_node: Vec<u64>,
}

impl ShardInput {
    fn window(&self, start: u64, end: u64, checked: bool, trace: bool) -> Window<'_> {
        Window {
            start,
            end,
            arrivals: &self.arrivals,
            packets: &self.packets,
            by_node: &self.by_node,
            checked,
            trace,
        }
    }
}

/// One window's work order for one worker.
struct Job {
    nodes: ShardPtr<Node>,
    coh: ShardPtr<NodeCoh>,
    ladder: LadderPtrs,
    start: usize,
    len: usize,
    window: (u64, u64),
    checked: bool,
    trace: bool,
    input: ShardInput,
    log: WindowLog,
    /// Recycled per-step drain buffers (memory responses/events), so
    /// steady-state parallel windows allocate nothing.
    scratch: StepScratch,
}

/// A worker's barrier report.
struct Done {
    worker: usize,
    input: ShardInput,
    log: WindowLog,
    scratch: StepScratch,
    /// The shard's panic payload, if it panicked — re-raised by the
    /// dispatcher once the barrier has fully drained.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// A persistent pool of shard workers, one OS thread each, driven by a
/// per-window dispatch/collect barrier. Spawned once at machine build
/// (never per window — a busy window is microseconds) and joined on
/// drop.
pub(crate) struct WorkerPool {
    jobs: Vec<Sender<Job>>,
    done_rx: Receiver<Done>,
    handles: Vec<JoinHandle<()>>,
    /// Per-worker arrival copies (ping-pong through `Job`/`Done`, so
    /// steady-state windows allocate nothing).
    inputs: Vec<ShardInput>,
    /// Recycled per-worker step scratch (same ping-pong discipline).
    scratches: Vec<StepScratch>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Spawn `workers` shard threads (callers pass a resolved count
    /// ≥ 2; a count of 1 should use the serial path and no pool).
    // analyze: cold (pool construction, once per machine)
    pub(crate) fn spawn(workers: usize) -> WorkerPool {
        let (done_tx, done_rx) = channel();
        let mut jobs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for k in 0..workers {
            let (tx, rx) = channel::<Job>();
            let done = done_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("mm-shard-{k}"))
                .spawn(move || worker_loop(k, &rx, &done))
                .expect("spawn shard worker");
            jobs.push(tx);
            handles.push(handle);
        }
        WorkerPool {
            jobs,
            done_rx,
            handles,
            inputs: (0..workers).map(|_| ShardInput::default()).collect(),
            scratches: Vec::new(),
        }
    }

    /// Worker threads in the pool.
    pub(crate) fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Run the node phase of window `win` in parallel: partition the
    /// nodes (with the matching coherence handlers, ladder slots and
    /// arrivals) into contiguous block-aligned per-worker chunks, walk
    /// them concurrently, one log per chunk in `logs`, and return how
    /// many chunks (leading logs) were filled — the logs are in
    /// ascending node order, so replaying them in index order is the
    /// serial walk's order.
    ///
    /// Chunks are rounded up to a [`BLOCK`] multiple so no ladder
    /// `block_min` word straddles two workers; on meshes smaller than
    /// `workers × BLOCK` some workers simply receive no chunk.
    ///
    /// Blocks until every dispatched worker reports back, so the raw
    /// slices handed out never outlive this call.
    pub(crate) fn step_window(
        &mut self,
        nodes: &mut [Node],
        coh: &mut [NodeCoh],
        ladder: &mut DeadlineLadder,
        win: &Window<'_>,
        logs: &mut [WindowLog],
    ) -> usize {
        let n = nodes.len();
        debug_assert_eq!(n, ladder.len());
        debug_assert_eq!(n, coh.len());
        if n == 0 {
            return 0;
        }
        let chunk = n.div_ceil(self.jobs.len()).next_multiple_of(BLOCK);
        let shards = n.div_ceil(chunk);
        // Each shard walks its own copy of its nodes' arrivals and their
        // packets, kept in delivery order so its log's records are too.
        for input in &mut self.inputs[..shards] {
            input.arrivals.clear();
            input.packets.clear();
            input.by_node.clear();
        }
        for a in win.arrivals {
            let input = &mut self.inputs[a.node as usize / chunk];
            input.by_node.push(node_key(a.node, input.arrivals.len()));
            input.arrivals.push(Arrival {
                slot: len32(input.packets.len()),
                ..*a
            });
            input.packets.push(win.packets[a.slot as usize].clone());
        }
        for input in &mut self.inputs[..shards] {
            input.by_node.sort_unstable();
        }
        let nodes_ptr = ShardPtr(nodes.as_mut_ptr());
        let coh_ptr = ShardPtr(coh.as_mut_ptr());
        let view = ladder.view_mut();
        let ladder_ptrs = LadderPtrs {
            slots: ShardPtr(view.slots.as_mut_ptr()),
            block_min: ShardPtr(view.block_min.as_mut_ptr()),
        };
        for (s, tx) in self.jobs.iter().enumerate().take(shards) {
            let start = s * chunk;
            tx.send(Job {
                nodes: nodes_ptr,
                coh: coh_ptr,
                ladder: ladder_ptrs,
                start,
                len: chunk.min(n - start),
                window: (win.start, win.end),
                checked: win.checked,
                trace: win.trace,
                input: std::mem::take(&mut self.inputs[s]),
                log: std::mem::take(&mut logs[s]),
                scratch: self.scratches.pop().unwrap_or_default(),
            })
            .expect("shard worker alive");
        }
        // Collect *every* outstanding shard before inspecting results:
        // even on a worker panic we must not unwind (freeing the node
        // array) while another worker still holds a slice into it.
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for _ in 0..shards {
            let done = self.done_rx.recv().expect("shard worker alive");
            panic = panic.or(done.panic);
            self.scratches.push(done.scratch);
            self.inputs[done.worker] = done.input;
            logs[done.worker] = done.log;
        }
        if let Some(payload) = panic {
            // Re-raise the worker's own panic (assertion text, node
            // index and all) now that no worker holds the raw slices.
            std::panic::resume_unwind(payload);
        }
        shards
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Disconnect the job channels; workers fall out of their recv
        // loop (no jobs are ever in flight here — `step_window` always
        // drains its own barrier before returning).
        self.jobs.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(worker: usize, rx: &Receiver<Job>, done: &Sender<Done>) {
    while let Ok(job) = rx.recv() {
        let Job {
            nodes,
            coh,
            ladder,
            start,
            len,
            window,
            checked,
            trace,
            input,
            mut log,
            mut scratch,
        } = job;
        let result = catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: the dispatcher hands each worker a disjoint
            // BLOCK-aligned [start, start + len) range of live,
            // len-checked arrays and blocks on the barrier until this
            // job's Done lands, so the slices alias nothing and never
            // dangle. `start` is a BLOCK multiple, so the block_min
            // window [start / BLOCK, …) is disjoint too.
            let nodes = unsafe { std::slice::from_raw_parts_mut(nodes.0.add(start), len) };
            // SAFETY: same dispatch protocol as `nodes` above — the
            // handler array is indexed 1:1 with the node array, so the
            // same disjoint window argument applies.
            let coh = unsafe { std::slice::from_raw_parts_mut(coh.0.add(start), len) };
            // SAFETY: the ladder's slots are also indexed 1:1 with the
            // node array, and its block minima at `start / BLOCK` with
            // `start` a BLOCK multiple, so both views are disjoint
            // between workers and outlive the barrier.
            let view = unsafe {
                LadderViewMut {
                    slots: std::slice::from_raw_parts_mut(ladder.slots.0.add(start), len),
                    block_min: std::slice::from_raw_parts_mut(
                        ladder.block_min.0.add(start / BLOCK),
                        len.div_ceil(BLOCK),
                    ),
                }
            };
            let win = input.window(window.0, window.1, checked, trace);
            step_shard(nodes, coh, view, start, &win, &mut log, &mut scratch);
        }));
        let report = match result {
            Ok(()) => Done {
                worker,
                input,
                log,
                scratch,
                panic: None,
            },
            Err(payload) => poisoned_done(worker, payload),
        };
        if done.send(report).is_err() {
            // The machine is gone; nothing left to report to.
            return;
        }
    }
}

/// The poisoned-shard report: the job's buffers were lost to the
/// unwinding closure, so the dispatcher gets fresh (empty, unallocated)
/// ones alongside the payload it will re-panic with.
// analyze: cold (panic path only; the replacement buffers never grow)
fn poisoned_done(worker: usize, payload: Box<dyn std::any::Any + Send>) -> Done {
    Done {
        worker,
        input: ShardInput::default(),
        log: WindowLog::default(),
        scratch: StepScratch::new(),
        panic: Some(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handlers(n: usize) -> Vec<NodeCoh> {
        use mm_net::message::NodeCoord;
        let cfg = crate::coherence::CoherenceConfig::default();
        crate::coherence::CoherenceEngine::new(cfg, &vec![NodeCoord::new(0, 0, 0); n])
            .handlers_mut()
            .to_vec()
    }

    fn nodes(n: usize) -> Vec<Node> {
        use mm_net::message::NodeCoord;
        (0..n)
            .map(|_| Node::new(mm_sim::NodeConfig::default(), NodeCoord::new(0, 0, 0)))
            .collect()
    }

    fn window(start: u64, end: u64) -> Window<'static> {
        Window {
            start,
            end,
            arrivals: &[],
            packets: &[],
            by_node: &[],
            checked: false,
            trace: true,
        }
    }

    /// A halting thread's walk: the slot stays awake while the node
    /// progresses and goes inert once it is drained, and the logged
    /// user-thread changes move the thread from running to finished
    /// exactly once, in the window of the step that halted it.
    #[test]
    fn walk_writes_slot_and_logs_tally_deltas() {
        let mut nodes = nodes(1);
        let mut coh = handlers(1);
        let prog = std::sync::Arc::new(mm_isa::assemble("halt\n").unwrap());
        nodes[0].load_program(0, 0, prog, 0);
        let mut ladder = DeadlineLadder::new(1);
        let mut scratch = StepScratch::new();
        let mut log = WindowLog::default();
        let mut deltas = (0, 0);
        for w in 0..16 {
            let win = window(w, w + 1);
            step_shard(
                &mut nodes,
                &mut coh,
                ladder.view_mut(),
                0,
                &win,
                &mut log,
                &mut scratch,
            );
            assert!((-1..=0).contains(&log.running), "window {w}");
            assert_eq!(log.finished, -log.running, "window {w}");
            let changed = log.finished != 0;
            assert_eq!(log.last_change, changed.then_some(w), "window {w}");
            deltas = (deltas.0 + log.running, deltas.1 + log.finished);
            if nodes[0].user_threads_running() > 0 {
                assert_eq!(ladder.slot(0), AWAKE, "window {w}");
            }
        }
        assert_eq!(deltas, (-1, 1));
        assert_eq!(nodes[0].user_threads_finished(), 1);
        assert_eq!(ladder.slot(0), INERT, "a drained node sleeps for good");
        assert_eq!(ladder.min_deadline(), INERT);
    }

    /// Machine-wide user-thread totals kept by summing the logged
    /// user-thread changes onto a recount stay equal to a fresh recount
    /// after every window, on a walk where only one of two nodes holds a
    /// thread, and reach the halt condition once that thread is done.
    #[test]
    fn walk_deltas_keep_user_totals_current() {
        let recount = |nodes: &[Node]| {
            nodes.iter().fold((0i64, 0i64), |(r, f), n| {
                (
                    r + i64::try_from(n.user_threads_running()).unwrap(),
                    f + i64::try_from(n.user_threads_finished()).unwrap(),
                )
            })
        };
        let mut nodes = nodes(2);
        let mut coh = handlers(2);
        let prog = std::sync::Arc::new(mm_isa::assemble("halt\n").unwrap());
        nodes[1].load_program(0, 0, prog, 0);
        let mut ladder = DeadlineLadder::new(2);
        let mut scratch = StepScratch::new();
        let mut log = WindowLog::default();
        let mut totals = recount(&nodes);
        assert_eq!(totals, (1, 0));
        let mut w = 0;
        while totals.0 > 0 && w < 32 {
            step_shard(
                &mut nodes,
                &mut coh,
                ladder.view_mut(),
                0,
                &window(w, w + 1),
                &mut log,
                &mut scratch,
            );
            totals = (totals.0 + log.running, totals.1 + log.finished);
            assert_eq!(totals, recount(&nodes), "window {w}");
            w += 1;
        }
        assert_eq!(totals, (0, 1), "halt condition reached");
        assert_eq!(nodes[0].user_threads_finished(), 0, "idle node untouched");
    }

    /// The workers must survive (and the machine must keep working
    /// after) many dispatch/collect barriers with fewer nodes than
    /// workers.
    #[test]
    fn pool_handles_more_workers_than_nodes() {
        let mut pool = WorkerPool::spawn(4);
        let mut nodes = nodes(1);
        let mut coh = handlers(1);
        let mut ladder = DeadlineLadder::new(1);
        let mut logs: Vec<WindowLog> = (0..4).map(|_| WindowLog::default()).collect();
        for w in 0..16 {
            ladder.wake(0);
            let shards = pool.step_window(
                &mut nodes,
                &mut coh,
                &mut ladder,
                &window(2 * w, 2 * w + 2),
                &mut logs,
            );
            assert_eq!(shards, 1, "window {w}");
            assert_eq!(logs[0].last_step, Some(2 * w), "window {w}");
            assert!(logs[0].drains.is_empty(), "an idle node stages nothing");
        }
        assert_eq!(nodes[0].stats().steps, 16, "one step per window");
    }

    /// Shards report their logs in ascending node order regardless of
    /// which worker finishes first — exercised across three real
    /// BLOCK-aligned chunks so the order actually has something to show.
    #[test]
    fn shard_logs_come_back_in_node_order() {
        let n = 3 * BLOCK + 2;
        let mut pool = WorkerPool::spawn(4);
        let mut nodes = nodes(n);
        let mut coh = handlers(n);
        let mut ladder = DeadlineLadder::new(n);
        let mut logs: Vec<WindowLog> = (0..4).map(|_| WindowLog::default()).collect();
        let shards = pool.step_window(&mut nodes, &mut coh, &mut ladder, &window(0, 3), &mut logs);
        assert_eq!(shards, 4);
        let traced: Vec<u32> = logs[..shards]
            .iter()
            .flat_map(|l| l.traces.iter().map(|s| s.node))
            .collect();
        let want: Vec<u32> = (0..len32(n)).collect();
        assert_eq!(traced, want, "one snapshot per node, ascending");
        // Nothing progressed, so every slot went inert and the ladder
        // reduction sees a fully quiescent machine.
        assert_eq!(ladder.min_deadline(), INERT);
    }

    /// The serial walk and the sharded walk leave identical ladders
    /// (slots and minima), trace logs, summed user-thread changes and
    /// last-change cycles from identical inputs, and the summed changes
    /// account for every loaded thread halting.
    #[test]
    fn serial_and_sharded_walks_agree() {
        let n = 2 * BLOCK + 17;
        let mut worker_pool = WorkerPool::spawn(3);
        let mut nodes_a = nodes(n);
        let mut nodes_b = nodes(n);
        let prog = std::sync::Arc::new(mm_isa::assemble("add r1, #1, r1\nhalt\n").unwrap());
        let loaded = [0, 1, BLOCK, BLOCK + 3, n - 1];
        for k in loaded {
            nodes_a[k].load_program(0, 0, std::sync::Arc::clone(&prog), 0);
            nodes_b[k].load_program(0, 0, std::sync::Arc::clone(&prog), 0);
        }
        let mut coh_a = handlers(n);
        let mut coh_b = handlers(n);
        let mut ladder_a = DeadlineLadder::new(n);
        let mut ladder_b = DeadlineLadder::new(n);
        let mut scratch = StepScratch::new();
        let mut log_a = WindowLog::default();
        let mut logs_b: Vec<WindowLog> = (0..3).map(|_| WindowLog::default()).collect();
        let mut total = (0, 0);
        for w in 0..6 {
            let win = window(3 * w, 3 * w + 3);
            step_shard(
                &mut nodes_a,
                &mut coh_a,
                ladder_a.view_mut(),
                0,
                &win,
                &mut log_a,
                &mut scratch,
            );
            let shards =
                worker_pool.step_window(&mut nodes_b, &mut coh_b, &mut ladder_b, &win, &mut logs_b);
            let snaps_b: Vec<TraceSnap> = logs_b[..shards]
                .iter()
                .flat_map(|l| l.traces.iter().copied())
                .collect();
            let mut snaps_a = log_a.traces.clone();
            snaps_a.sort_unstable_by_key(|s| (s.node, s.at));
            let mut snaps_b = snaps_b;
            snaps_b.sort_unstable_by_key(|s| (s.node, s.at));
            assert_eq!(snaps_a, snaps_b, "snapshots @ window {w}");
            let sum = |logs: &[WindowLog]| {
                logs.iter().fold((0, 0, None), |(r, f, c), l| {
                    (r + l.running, f + l.finished, c.max(l.last_change))
                })
            };
            let da = sum(std::slice::from_ref(&log_a));
            let db = sum(&logs_b[..shards]);
            assert_eq!(da, db, "user-thread changes @ window {w}");
            total = (total.0 + da.0, total.1 + da.1);
            for i in 0..n {
                assert_eq!(ladder_a.slot(i), ladder_b.slot(i), "slot {i} @ window {w}");
            }
            for b in 0..ladder_a.blocks() {
                assert_eq!(ladder_a.block_min(b), ladder_b.block_min(b), "block {b}");
            }
        }
        let halted = i64::try_from(loaded.len()).unwrap();
        assert_eq!(total, (-halted, halted), "every loaded thread halted");
    }
}
