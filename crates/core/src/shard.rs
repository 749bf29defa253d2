//! Node-major lookahead windows: the node phase of
//! [`MMachine`](crate::machine::MMachine), walked on one host thread.
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
//! walk but recorded in the window's [`WindowLog`], each record keyed by
//! its `(cycle, phase, node / delivery order)`: the packets drained from
//! its outbox after a step (phase 2), the packets each delivery staged
//! (phase 3), the messages a `Return` handed back for resending (phase 4)
//! and what the timeline's trace bookkeeping reads of it (phase 5). After
//! the walk, the machine replays the records cycle by cycle into
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
//! ## Replay order
//!
//! The windowed engine is bit-identical to the dense `naive_step` loop
//! because:
//!
//! 1. **A node's window reads only its own inputs.** [`step_shard`]
//!    steps a node through the window with nothing but its own state,
//!    its own ladder slot and the packets delivered to it, all of which
//!    were in flight at the window's start. So walking the nodes one
//!    after another gives each node the steps the per-cycle loop gave it.
//! 2. **Everything that crosses nodes is replayed in one order.** The
//!    log's drains and trace snapshots are sorted by cycle and node, and
//!    its delivery records sit at their arrival's index, so the replay
//!    applies them cycle by cycle in the per-cycle loop's phase order.
//!    The walk sums the user-thread *changes* and keeps the cycle of the
//!    last one, so the machine totals and the exact halt cycle are the
//!    ones the per-cycle loop reached.
//!
//! The differential harness (`crates/core/tests/differential.rs`)
//! checks this end to end: the dense loop and the windowed engine must
//! agree on stats, timelines, halt cycles and register files, with
//! windows cut at every boundary the machine has.

use crate::coherence::NodeCoh;
use mm_net::message::{Message, Packet};
use mm_sched::{DeadlineLadder, AWAKE, BLOCK, INERT};
use mm_sim::engine::earliest;
use mm_sim::{Node, StepScratch, NUM_CLUSTERS, USER_SLOTS};

/// A packet the fabric delivers inside the window, popped at its start.
/// The packet itself stays where the fabric put it, at index `slot` of
/// [`Window::packets`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Arrival {
    /// The delivery cycle.
    pub(crate) at: u64,
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
    /// The window's arrivals, in delivery order — the fabric's
    /// `(deliver_at, injection)` pop order.
    pub(crate) arrivals: &'a [Arrival],
    /// Where `arrivals`' packets are, by [`Arrival::slot`]: the
    /// fabric's slab.
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

/// What applying an arrival produced: the packets it staged (phase 3,
/// `packets`), and — on a node's first `Return` of the cycle — every
/// message the node handed back for resending (phase 4, `returned`).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Delivered {
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

/// The record of a window: every effect of the walk that reaches past
/// the stepping node, for the machine to replay (see the
/// [module docs](self)). Recycled window to window.
#[derive(Debug, Default)]
pub(crate) struct WindowLog {
    /// Packets staged by the nodes, in walk order; drains and
    /// deliveries index into it.
    pub(crate) packets: Vec<Packet>,
    /// Messages returned to their senders, in walk order.
    pub(crate) returned: Vec<Message>,
    /// Phase-2 drains, sorted by `(at, node)` once the walk is done.
    pub(crate) drains: Vec<Drain>,
    /// One record per arrival of the window, index for index (so in
    /// delivery order).
    pub(crate) delivered: Vec<Delivered>,
    /// Phase-5 snapshots, sorted by `(at, node)` once the walk is done.
    pub(crate) traces: Vec<TraceSnap>,
    /// The summed changes to the user threads running and finished (a
    /// run only moves threads from the first to the second).
    pub(crate) running: i64,
    pub(crate) finished: i64,
    /// The last cycle at which a step changed either.
    pub(crate) last_change: Option<u64>,
    /// The last cycle any node stepped at.
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

fn len32(len: usize) -> u32 {
    u32::try_from(len).expect("a window logs fewer than 2^32 records")
}

/// The node phase of one window over the whole mesh: every node due
/// inside `[win.start, win.end)` or receiving a packet in it is stepped
/// through each of the window's cycles at which it is due (its own
/// compute/memory tick, then its coherence-handler activation), with its
/// arrivals applied between steps, its ladder slot rewritten after every
/// step, and every cross-node effect recorded in `log`.
///
/// The coherence handler runs here, inside the walk, because it only
/// ever touches its own node: class-0 records are drained from the
/// node's own queues, protocol messages from the node's own coherence
/// inbox, and everything it sends stages in the node's own outbox, from
/// where the log carries it to the ordered replay.
pub(crate) fn step_shard(
    nodes: &mut [Node],
    coh: &mut [NodeCoh],
    ladder: &mut DeadlineLadder,
    win: &Window<'_>,
    log: &mut WindowLog,
    scratch: &mut StepScratch,
) {
    let n = nodes.len();
    debug_assert_eq!(n, ladder.len());
    debug_assert_eq!(n, coh.len());
    log.clear(win.arrivals.len());
    // Cursor into `win.by_node`: every key before it belongs to a node
    // already walked or skipped.
    let mut next = 0;
    for b in 0..ladder.blocks() {
        let lo = b * BLOCK;
        let hi = (lo + BLOCK).min(n);
        let receiving = win.by_node.get(next).is_some_and(|&key| key_node(key) < hi);
        // Block skip: 64 nodes asleep past the window with nothing
        // arriving cost one word read.
        if ladder.block_min(b) >= win.end && !receiving {
            continue;
        }
        for k in lo..hi {
            let first = next;
            while win.by_node.get(next).is_some_and(|&key| key_node(key) == k) {
                next += 1;
            }
            if ladder.slot(k) >= win.end && first == next {
                continue;
            }
            walk_node(
                &mut nodes[k],
                ladder.slot_mut(k),
                &mut coh[k],
                k,
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
                &mut ladder,
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
                &mut ladder,
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
}
