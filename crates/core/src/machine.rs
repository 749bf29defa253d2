//! The M-Machine: a 3-D mesh of MAP nodes under one clock.

use crate::coherence::{refuse_undecodable, CoherenceConfig, CoherenceEngine, CoherenceStats};
use crate::error::MachineError;
use crate::shard::{
    node_key, step_shard, Arrival, ReplayCursor, TraceSnap, Window, WindowLog, WorkerPool,
};
use crate::timeline::{PacketKind, Phase, Timeline};
use mm_faults::{
    ckpt_struct, Ckpt, CkptError, Dec, Enc, FaultKind, FaultPlan, FaultPlanConfig, PacketFault,
    ScheduledFault,
};
use mm_isa::instr::Program;
use mm_isa::pointer::{GuardedPointer, Perm};
use mm_isa::reg::Reg;
use mm_isa::word::Word;
use mm_net::fabric::{Fabric, FabricConfig, FabricStats};
use mm_net::message::{Message, NodeCoord, Packet};
use mm_runtime::image::{boot_node, BootSpec, RuntimeImage};
use mm_sched::DeadlineLadder;
use mm_sim::{EngineConfig, HState, Node, NodeConfig, StepScratch, NUM_CLUSTERS, USER_SLOTS};
use mm_telemetry::{CounterSnapshot, Telemetry, TelemetryConfig, MAX_SHARDS};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Checkpoint stream magic ("MMCKPT01" as bytes, sort of).
const CKPT_MAGIC: u64 = 0x4D4D_434B_5054_3031;
/// Checkpoint format version.
const CKPT_VERSION: u32 = 1;
/// Retransmissions a single message may suffer faults across before
/// the plan stops touching it — bounded retry, so an adversarial
/// `corrupt_pct: 100` campaign still makes forward progress.
const RETRY_CAP: u32 = 8;
/// Watchdog epoch width when the config leaves it zero.
const WATCHDOG_EPOCH_DEFAULT: u64 = 4096;
/// Cycles [`MMachine::run_until_halt`] runs past the halt so in-flight
/// responses, replies and credits land.
const HALT_DRAIN_CYCLES: u64 = 64;

/// Machine-wide configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Mesh dimensions (powers of two).
    pub dims: (u8, u8, u8),
    /// Per-node configuration.
    pub node: NodeConfig,
    /// Router hop latency.
    pub hop_latency: u64,
    /// Global (1024-word) pages owned per node.
    pub local_pages: u64,
    /// LPT slots per node.
    pub lpt_slots: u64,
    /// Hardware backoff before re-injecting a returned message. (The
    /// paper resends from software "at a later time"; we model the same
    /// net effect in the interface — DESIGN.md §7.)
    pub resend_delay: u64,
    /// Firmware coherence charges.
    pub coherence: CoherenceConfig,
    /// Record phase events into the timeline.
    pub trace: bool,
    /// Host-side engine configuration (worker threads for the parallel
    /// node phase). Purely a wall-clock knob: simulated results are
    /// bit-identical for every worker count.
    pub engine: EngineConfig,
    /// Streaming telemetry (per-epoch metrics ring + optional JSONL
    /// sink). Host-side and read-only: simulated results are
    /// bit-identical with telemetry on or off.
    pub telemetry: TelemetryConfig,
    /// Deterministic fault campaign (`None` = no hooks armed; the whole
    /// per-cycle cost is then one branch per phase). The plan is a pure
    /// function of the config and the node count, so dense/serial/
    /// parallel runs of one campaign stay bit-identical.
    pub faults: Option<FaultPlanConfig>,
    /// Liveness watchdog: abort [`MMachine::run_until`] after this many
    /// *consecutive* progress-free epochs while threads are still
    /// running. 0 disables the watchdog entirely (the default — no
    /// behavior change for existing configurations).
    pub watchdog_epochs: u64,
    /// Watchdog epoch width in cycles (0 picks the built-in default of
    /// 4096).
    pub watchdog_epoch_cycles: u64,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig::small()
    }
}

impl MachineConfig {
    /// A 2×1×1 machine — the smallest configuration with a remote node
    /// (what Table 1 and Fig. 9 measure).
    #[must_use]
    pub fn small() -> MachineConfig {
        MachineConfig {
            dims: (2, 1, 1),
            node: NodeConfig::default(),
            hop_latency: 2,
            local_pages: 8,
            lpt_slots: 256,
            resend_delay: 32,
            coherence: CoherenceConfig::default(),
            trace: true,
            engine: EngineConfig::default(),
            telemetry: TelemetryConfig::default(),
            faults: None,
            watchdog_epochs: 0,
            watchdog_epoch_cycles: 0,
        }
    }

    /// A machine with the given mesh dimensions.
    #[must_use]
    pub fn with_dims(x: u8, y: u8, z: u8) -> MachineConfig {
        MachineConfig {
            dims: (x, y, z),
            ..MachineConfig::small()
        }
    }
}

/// Aggregate statistics across the machine.
///
/// Every counter here is *architectural* — a function of the simulated
/// program, identical across the dense loop, the serial engine and the
/// parallel engine at any worker count (the differential harness
/// asserts exactly that). Host-side performance counters, which
/// legitimately depend on how the engine schedules work, live in
/// [`MachinePerf`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions issued, summed over nodes.
    pub instructions: u64,
    /// Messages sent, summed over nodes.
    pub messages: u64,
    /// Fabric counters.
    pub fabric: FabricStats,
    /// Coherence counters.
    pub coherence: CoherenceStats,
}

/// Host-side performance counters for the cycle kernel, aggregated
/// over nodes by [`MMachine::perf`]. Unlike [`MachineStats`] these are
/// *not* architectural: the quiescence engine probes fewer issue slots
/// than the dense loop because it skips provably-idle steps, so the
/// numbers differ (only) between scheduling strategies, never between
/// worker counts of the same engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct MachinePerf {
    /// Issue-stage candidates examined (running, un-stalled threads
    /// whose instruction was fetched and readiness-checked).
    pub issue_probes: u64,
    /// Node steps actually executed (`steps / (cycles * nodes)` is the
    /// awake fraction — how much of the dense loop's walk the
    /// quiescence engine skipped).
    pub node_steps: u64,
}

/// End-of-run counters of an armed fault campaign (what the campaign
/// did and what the recovery machinery absorbed). All architectural:
/// identical across engines and worker counts for one plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Scheduled events (DRAM flips, stall windows) applied so far.
    pub events_applied: u64,
    /// DRAM upset events landed (each may flip one or two bits).
    pub dram_flips: u64,
    /// User packets corrupted in flight.
    pub packets_corrupted: u64,
    /// User packets that lost a flit in flight.
    pub packets_dropped: u64,
    /// User packets delivered late.
    pub packets_delayed: u64,
    /// Pristine copies re-sent after a checksum NACK came back.
    pub retransmits: u64,
    /// Faults suppressed because the message already burned its retry
    /// budget (`RETRY_CAP` faults) — the liveness escape hatch.
    pub retries_capped: u64,
}

ckpt_struct! {
    FaultReport {
        events_applied, dram_flips, packets_corrupted, packets_dropped, packets_delayed,
        retransmits, retries_capped
    }
}

/// The machine-side runtime of an armed [`FaultPlan`]: the event
/// cursor, the per-cycle packet counters feeding the plan's pure
/// per-packet decision, and the pristine copies backing NACK-driven
/// retransmission. Fully serialized into checkpoints.
#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    /// Next unapplied index into `plan.events()`.
    cursor: usize,
    /// Any link window exists → user packets are CRC-sealed at
    /// injection and delivered through the checking path.
    link_armed: bool,
    /// Per-node `(cycle, packets injected that cycle)` — the
    /// deterministic `nth` fed to the plan's pure packet decision,
    /// reset by tag comparison so no per-cycle sweep is needed.
    inject_marks: Vec<(u64, u32)>,
    /// Pristine copies of messages a fault mutated, keyed by
    /// `(source coord encode, wire seq)`; the value counts faults that
    /// message has suffered so retries stay bounded. Entries persist
    /// for the run (bounded by faults injected, not messages sent).
    pristine: BTreeMap<(u64, u64), (Message, u32)>,
    report: FaultReport,
}

impl FaultState {
    fn new(plan: FaultPlan, nodes: usize) -> FaultState {
        FaultState {
            link_armed: plan.has_link_faults(),
            plan,
            cursor: 0,
            inject_marks: vec![(0, 0); nodes],
            pristine: BTreeMap::new(),
            report: FaultReport::default(),
        }
    }

    /// May this message be faulted (again)? Records the pristine copy on
    /// first fault; refuses once the per-message budget is spent.
    fn fault_budget(&mut self, msg: &Message) -> bool {
        if msg.wire.seq == 0 {
            return false;
        }
        let key = (msg.src.encode(), msg.wire.seq);
        let entry = self.pristine.entry(key).or_insert_with(|| (msg.clone(), 0));
        if entry.1 >= RETRY_CAP {
            self.report.retries_capped += 1;
            return false;
        }
        entry.1 += 1;
        true
    }

    /// A returned message is entering the resend path. A checksum
    /// mismatch means the fabric mangled it — substitute the pristine
    /// copy (the NACK-driven retransmission); an intact return is the
    /// ordinary §4.1 queue-full bounce and resends as-is.
    fn reclaim(&mut self, m: Message) -> Message {
        if m.wire.seq != 0 && !m.crc_ok() {
            if let Some((pristine, _)) = self.pristine.get(&(m.src.encode(), m.wire.seq)) {
                self.report.retransmits += 1;
                return pristine.clone();
            }
        }
        m
    }
}

/// Inject one of node `src`'s packets into the fabric through the armed
/// fault plan: seal a user message's checksum, then apply the plan's
/// pure per-packet decision (corrupt / drop a flit / delay). Free
/// function over split borrows so the machine's phase loops can call it
/// while iterating nodes.
fn inject_faulted(fabric: &mut Fabric, fs: &mut FaultState, now: u64, src: usize, mut p: Packet) {
    let mut delay = 0;
    if let Packet::User(msg) = &mut p {
        msg.seal_crc();
        let mark = &mut fs.inject_marks[src];
        if mark.0 != now {
            *mark = (now, 0);
        }
        let nth = mark.1;
        mark.1 += 1;
        #[allow(clippy::cast_possible_truncation)]
        let src32 = src as u32;
        match fs.plan.packet_fault(now, src32, nth) {
            PacketFault::None => {}
            PacketFault::Corrupt => {
                if fs.fault_budget(msg) {
                    let (w, b) = fs.plan.corrupt_site(now, src32, nth, msg.payload_words());
                    msg.corrupt_payload(w, b);
                    fs.report.packets_corrupted += 1;
                }
            }
            PacketFault::Drop => {
                if fs.fault_budget(msg) {
                    msg.drop_flit();
                    fs.report.packets_dropped += 1;
                }
            }
            PacketFault::Delay(d) => {
                fs.report.packets_delayed += 1;
                delay = d;
            }
        }
    }
    if delay > 0 {
        fabric.inject_delayed(now, p, delay);
    } else {
        fabric.inject(now, p);
    }
}

/// The machine's `(running, finished)` user H-Thread totals, counted
/// over the nodes' own tallies.
fn user_totals(nodes: &[Node]) -> (i64, i64) {
    nodes.iter().fold((0, 0), |(r, f), n| {
        #[allow(clippy::cast_possible_wrap)]
        (
            r + n.user_threads_running() as i64,
            f + n.user_threads_finished() as i64,
        )
    })
}

/// Record node `node`'s injection (`inject`) or delivery of `p` at
/// `now` in the timeline. Free function over split borrows so a
/// delivery can be traced while its packet is still in the fabric's
/// slab.
fn trace_packet(timeline: &mut Timeline, now: u64, node: usize, p: &Packet, inject: bool) {
    let kind = match p {
        Packet::User(_) => PacketKind::Message,
        Packet::Credit { .. } => PacketKind::Credit,
        Packet::Return(_) => PacketKind::Return,
        Packet::Coh(_) => PacketKind::Coherence,
    };
    let priority = p.priority();
    let phase = if inject {
        Phase::PacketInjected {
            node,
            priority,
            kind,
        }
    } else {
        Phase::PacketDelivered {
            node,
            priority,
            kind,
        }
    };
    timeline.record(now, phase);
}

/// The whole multicomputer.
#[derive(Debug)]
pub struct MMachine {
    cfg: MachineConfig,
    spec: BootSpec,
    image: RuntimeImage,
    nodes: Vec<Node>,
    fabric: Fabric,
    coherence: CoherenceEngine,
    timeline: Timeline,
    /// Returned messages in hardware backoff: `(due, node, message)`,
    /// scanned in vector order (the order is part of a checkpoint).
    resends: Vec<(u64, usize, Message)>,
    /// The earliest `due` in `resends` (`u64::MAX` when empty), so the
    /// scheduler and the window cut read one word.
    resend_due: u64,
    prev_events: Vec<[u64; NUM_CLUSTERS]>,
    halted_seen: Vec<[[bool; 6]; NUM_CLUSTERS]>,
    /// Every node's wake-up slot plus per-block minima: the walk's
    /// block skip and `next_work`'s reduction read these, not the nodes.
    ladder: DeadlineLadder,
    /// User H-Threads running machine-wide — the nodes' own tallies
    /// summed, kept current by the walk's per-step changes.
    user_running: i64,
    /// User H-Threads halted or faulted machine-wide (same upkeep).
    user_finished: i64,
    /// Recycled drain buffers for serial node steps (the worker pool
    /// carries its own, one per worker).
    step_scratch: StepScratch,
    /// The dense loop's outbox drain buffer, recycled cycle to cycle.
    dense_outbox: Vec<Packet>,
    /// The current window's deliveries, in delivery order (their packets
    /// stay in the fabric's slab until the replay is done).
    arrivals: Vec<Arrival>,
    /// The arrivals' keys sorted by destination node (see
    /// [`Window::by_node`]).
    by_node: Vec<u64>,
    /// One log per shard (one in all when serial), filled by the walk
    /// and emptied by the replay.
    logs: Vec<WindowLog>,
    /// Replay scratch: one cursor per log.
    cursors: Vec<ReplayCursor>,
    /// Shard workers for the parallel node phase (`None` = serial).
    worker_pool: Option<WorkerPool>,
    /// External node mutation may have invalidated the user-thread
    /// totals; the next `run_until` entry recounts them before its
    /// first predicate evaluation.
    user_counts_stale: bool,
    /// The epoch sampler (`None` when telemetry is disabled — the whole
    /// per-cycle cost is then one branch on this option).
    telemetry: Option<Telemetry>,
    /// Node-index width of one engine shard (the same block-aligned
    /// chunk `WorkerPool::step_window` dispatches), so telemetry can
    /// attribute per-node step counts to shards. Equal to the node
    /// count when the engine is serial.
    shard_chunk: usize,
    /// Directed mesh link × virtual-channel count — the constant
    /// denominator of telemetry's link-occupancy rate. Counts only
    /// links that physically exist (interior faces), not the edge
    /// channels `Fabric` allocates but never uses.
    mesh_links: u64,
    /// The armed fault campaign (`None` in fault-free configurations:
    /// every hook below degenerates to one branch).
    faults: Option<FaultState>,
    /// Consecutive progress-free watchdog epochs observed.
    watchdog_strikes: u64,
    /// Progress fingerprint at the last closed watchdog epoch.
    watchdog_last: u64,
    /// Next watchdog epoch boundary (cycle).
    watchdog_next: u64,
    /// The diagnostic document (reason + full state snapshot) dumped by
    /// the last watchdog trip or protocol-panic abort.
    last_diagnostic: Option<String>,
    cycle: u64,
}

impl MMachine {
    /// Build and boot a machine.
    ///
    /// # Errors
    ///
    /// [`MachineError::BadConfig`] when dimensions or sizes are not
    /// powers of two, the boot layout (LPT, page frames, home addresses)
    /// does not fit the configured node, or the node's memory geometry
    /// (cache lines, SDRAM banks and rows, LTLB entries) cannot be built.
    pub fn build(cfg: MachineConfig) -> Result<MMachine, MachineError> {
        let (x, y, z) = cfg.dims;
        let spec = BootSpec {
            dims: cfg.dims,
            local_pages: cfg.local_pages,
            lpt_slots: cfg.lpt_slots,
        };
        spec.validate(cfg.node.mem.sdram.capacity_words)
            .map_err(MachineError::BadConfig)?;
        cfg.node.mem.validate().map_err(MachineError::BadConfig)?;
        let image = RuntimeImage::build();
        #[allow(clippy::cast_possible_truncation)]
        let n = spec.total_nodes() as usize;
        // Reserved up front and booted in place: a node is 12 KiB, so
        // neither a growing vector nor a second move of the booted node
        // is free.
        let mut nodes = Vec::with_capacity(n);
        for zc in 0..z {
            for yc in 0..y {
                for xc in 0..x {
                    nodes.push(Node::new(cfg.node.clone(), NodeCoord::new(xc, yc, zc)));
                }
            }
        }
        // The loop above pushes x-fastest, matching linear_index order.
        // Every node is built before any is booted. The order matters
        // only to heap placement: with each node booted as soon as it
        // was built, under the benchmark's pinned glibc settings the next
        // machine's node array could not reuse the block the last one
        // freed, and `busy_mesh_64`'s peak RSS read 5.3 MiB, not 5.0.
        for node in &mut nodes {
            boot_node(node, spec.linear_index(node.coord()), &spec, &image);
        }
        let fabric = Fabric::new(FabricConfig {
            dims: cfg.dims,
            hop_latency: cfg.hop_latency,
            loopback_latency: cfg.hop_latency,
        });
        let coords: Vec<NodeCoord> = nodes.iter().map(mm_sim::Node::coord).collect();
        let workers = cfg.engine.resolved_workers(n);
        let shard_chunk = if workers > 1 {
            n.div_ceil(workers).next_multiple_of(crate::shard::BLOCK)
        } else {
            n.max(1)
        };
        let (xl, yl, zl) = (u64::from(x), u64::from(y), u64::from(z));
        // Directed interior links × 2 virtual channels per direction.
        let mesh_links = 2 * 2 * ((xl - 1) * yl * zl + xl * (yl - 1) * zl + xl * yl * (zl - 1));
        let telemetry = if cfg.telemetry.enabled {
            Some(
                Telemetry::new(cfg.telemetry.clone())
                    .map_err(|e| MachineError::BadConfig(format!("telemetry stream: {e}")))?,
            )
        } else {
            None
        };
        let faults = cfg.faults.clone().map(|fc| {
            #[allow(clippy::cast_possible_truncation)]
            let nodes32 = n as u32;
            FaultState::new(FaultPlan::build(fc, nodes32), n)
        });
        let wd_width = if cfg.watchdog_epoch_cycles == 0 {
            WATCHDOG_EPOCH_DEFAULT
        } else {
            cfg.watchdog_epoch_cycles
        };
        Ok(MMachine {
            coherence: CoherenceEngine::new(cfg.coherence, &coords),
            spec,
            image,
            nodes,
            fabric,
            timeline: Timeline::new(),
            resends: Vec::new(),
            resend_due: u64::MAX,
            prev_events: vec![[0; NUM_CLUSTERS]; n],
            halted_seen: vec![[[false; 6]; NUM_CLUSTERS]; n],
            // Everything starts awake; nodes prove themselves quiescent
            // on their first no-progress step.
            ladder: DeadlineLadder::new(n),
            user_running: 0,
            user_finished: 0,
            step_scratch: StepScratch::new(),
            dense_outbox: Vec::new(),
            arrivals: Vec::new(),
            by_node: Vec::new(),
            logs: (0..workers.max(1)).map(|_| WindowLog::default()).collect(),
            cursors: Vec::new(),
            worker_pool: (workers > 1).then(|| WorkerPool::spawn(workers)),
            user_counts_stale: true,
            telemetry,
            shard_chunk,
            mesh_links,
            faults,
            watchdog_strikes: 0,
            watchdog_last: 0,
            watchdog_next: wd_width,
            last_diagnostic: None,
            cycle: 0,
            cfg,
        })
    }

    /// Worker threads the engine runs the node phase on (1 = serial).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.worker_pool.as_ref().map_or(1, WorkerPool::workers)
    }

    /// Nodes in the machine.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// A node by linear index.
    #[must_use]
    pub fn node(&self, idx: usize) -> &Node {
        &self.nodes[idx]
    }

    /// Mutable node access (loaders, experiment setup).
    ///
    /// Conservatively wakes the node in the cycle engine: external
    /// mutation can unblock threads the scheduler had proven idle.
    pub fn node_mut(&mut self, idx: usize) -> &mut Node {
        self.wake_node(idx);
        // The caller may load/unload/halt threads behind our back.
        self.user_counts_stale = true;
        &mut self.nodes[idx]
    }

    /// The boot layout.
    #[must_use]
    pub fn spec(&self) -> &BootSpec {
        &self.spec
    }

    /// The runtime image (handler DIPs).
    #[must_use]
    pub fn image(&self) -> &RuntimeImage {
        &self.image
    }

    /// The current cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The recorded timeline.
    #[must_use]
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Clear the timeline (start of a measured experiment).
    pub fn clear_timeline(&mut self) {
        self.timeline.clear();
    }

    /// Aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> MachineStats {
        let mut s = MachineStats {
            cycles: self.cycle,
            fabric: self.fabric.stats(),
            coherence: self.coherence.stats(),
            ..MachineStats::default()
        };
        for n in &self.nodes {
            s.instructions += n.stats().instructions;
            s.messages += n.stats().sends;
        }
        s
    }

    /// Host-side cycle-kernel performance counters (issue-path probes
    /// and node steps), aggregated over nodes. See [`MachinePerf`] for
    /// why these live outside [`MachineStats`].
    #[must_use]
    pub fn perf(&self) -> MachinePerf {
        let mut p = MachinePerf::default();
        for n in &self.nodes {
            p.issue_probes += n.stats().issue_probes;
            p.node_steps += n.stats().steps;
        }
        p
    }

    /// Total flit-hops carried over mesh links (telemetry counter,
    /// outside [`FabricStats`]).
    #[must_use]
    pub fn fabric_flit_hops(&self) -> u64 {
        self.fabric.flit_hops()
    }

    /// Per-virtual-channel flit counters, indexed `(linear node ×
    /// NUM_DIRS + direction) × 2 + priority` — the inspector's heatmap
    /// data.
    #[must_use]
    pub fn fabric_link_flits(&self) -> &[u64] {
        self.fabric.link_flits()
    }

    /// Read-only per-node coherence handlers (inspector path).
    #[must_use]
    pub fn coherence_handlers(&self) -> &[crate::coherence::NodeCoh] {
        self.coherence.handlers()
    }

    /// The telemetry sampler, when enabled (ring access, Prometheus and
    /// JSONL re-serialization for inspectors).
    #[must_use]
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// One flat reading of every counter the telemetry stream reports
    /// (cumulative totals since boot). Public so the stream-vs-totals
    /// test harness and `mmctl` can take their own readings; gathering
    /// allocates nothing.
    #[must_use]
    pub fn counter_snapshot(&self) -> CounterSnapshot {
        let fabric = self.fabric.stats();
        let coherence = self.coherence.stats();
        let mut snap = CounterSnapshot {
            cycles: self.cycle,
            fabric_packets: fabric.packets,
            flit_hops: self.fabric.flit_hops(),
            links: self.mesh_links,
            coh_packets: fabric.coh_packets,
            coh_misses: coherence.block_fetches,
            coh_invalidations: coherence.invalidations,
            coh_writebacks: coherence.writebacks,
            sync_retries: coherence.sync_retries,
            ..CounterSnapshot::default()
        };
        let chunk = self.shard_chunk;
        snap.shards = u32::try_from(self.nodes.len().div_ceil(chunk).clamp(1, MAX_SHARDS))
            .expect("MAX_SHARDS fits u32");
        for (i, n) in self.nodes.iter().enumerate() {
            let st = n.stats();
            snap.instructions += st.instructions;
            snap.issue_probes += st.issue_probes;
            snap.node_steps += st.steps;
            snap.messages += st.sends;
            snap.shard_steps[(i / chunk).min(MAX_SHARDS - 1)] += st.steps;
            let ns = n.net.stats();
            snap.crc_nacks += ns.crc_nacks;
            snap.dup_drops += ns.dup_drops;
            snap.bounces += ns.returned_here;
            let ms = n.mem.sdram_stats();
            snap.ecc_corrected += ms.ecc_corrected;
            snap.ecc_double_errors += ms.ecc_double_errors;
        }
        if let Some(fs) = &self.faults {
            snap.retransmits = fs.report.retransmits;
        }
        snap
    }

    /// Sample an epoch if the clock has crossed the next boundary. One
    /// branch when telemetry is disabled; one comparison per processed
    /// cycle when enabled.
    #[inline]
    fn poll_telemetry(&mut self) {
        if let Some(t) = &self.telemetry {
            if self.cycle >= t.next_due() {
                let snap = self.counter_snapshot();
                if let Some(t) = &mut self.telemetry {
                    t.sample(&snap);
                }
            }
        }
    }

    /// Close the partial telemetry epoch in progress (if any cycles have
    /// elapsed since the last boundary) and flush the stream sink. Call
    /// at end of run so per-epoch deltas sum exactly to end-of-run
    /// stats. No-op when telemetry is disabled.
    pub fn telemetry_flush(&mut self) {
        if self.telemetry.is_some() {
            let snap = self.counter_snapshot();
            if let Some(t) = &mut self.telemetry {
                t.flush(&snap);
            }
        }
    }

    /// A read-write pointer to node `idx`'s `page`-th local global page.
    #[must_use]
    pub fn home_ptr(&self, idx: usize, page: u64) -> Word {
        Word::from_pointer(self.spec.data_ptr(idx as u64, page))
    }

    /// The virtual address of node `idx`'s `page`-th local global page.
    #[must_use]
    pub fn home_va(&self, idx: usize, page: u64) -> u64 {
        self.spec.home_va(idx as u64, page)
    }

    /// Load a single-H-Thread user program onto cluster 0 of `node` in
    /// user slot `slot`. The program is shared, not cloned: loading the
    /// same `Arc<Program>` on N nodes copies nothing but the pointer.
    ///
    /// # Errors
    ///
    /// [`MachineError::BadConfig`] for non-user slots.
    pub fn load_user_program(
        &mut self,
        node: usize,
        slot: usize,
        program: &Arc<Program>,
    ) -> Result<(), MachineError> {
        self.load_vthread(node, slot, std::slice::from_ref(program))
    }

    /// Load a V-Thread: up to four programs, one per cluster. Programs
    /// are shared by reference count — zero clones however many nodes
    /// they are loaded on.
    ///
    /// # Errors
    ///
    /// [`MachineError::BadConfig`] for non-user slots or too many
    /// programs.
    pub fn load_vthread(
        &mut self,
        node: usize,
        slot: usize,
        programs: &[Arc<Program>],
    ) -> Result<(), MachineError> {
        if slot >= USER_SLOTS {
            return Err(MachineError::BadConfig(format!(
                "slot {slot} is not a user slot"
            )));
        }
        if programs.len() > NUM_CLUSTERS {
            return Err(MachineError::BadConfig(
                "a V-Thread has at most four H-Threads".into(),
            ));
        }
        for (c, p) in programs.iter().enumerate() {
            self.nodes[node].load_program(c, slot, Arc::clone(p), 0);
            self.halted_seen[node][c][slot] = false;
        }
        self.wake_node(node);
        self.user_counts_stale = true;
        Ok(())
    }

    /// Read an integer register of a user H-Thread.
    ///
    /// # Errors
    ///
    /// [`MachineError::BadConfig`] on out-of-range indices.
    pub fn user_reg(
        &self,
        node: usize,
        cluster: usize,
        slot: usize,
        reg: u8,
    ) -> Result<Word, MachineError> {
        if node >= self.nodes.len() || cluster >= NUM_CLUSTERS || slot >= USER_SLOTS {
            return Err(MachineError::BadConfig("register coordinates".into()));
        }
        Ok(self.nodes[node].read_reg(cluster, slot, Reg::Int(reg)))
    }

    /// Write a register of a user H-Thread (experiment setup).
    pub fn set_user_reg(&mut self, node: usize, cluster: usize, slot: usize, reg: Reg, v: Word) {
        self.nodes[node].write_reg(cluster, slot, reg, v);
        self.wake_node(node);
    }

    /// Recount the user-thread totals from the nodes' own tallies.
    fn recount_user_threads(&mut self) {
        (self.user_running, self.user_finished) = user_totals(&self.nodes);
        self.user_counts_stale = false;
    }

    /// A pointer word for arbitrary experiment data.
    ///
    /// # Errors
    ///
    /// [`MachineError::BadConfig`] if the address does not fit.
    pub fn make_ptr(&self, perm: Perm, log2_len: u8, va: u64) -> Result<Word, MachineError> {
        GuardedPointer::new(perm, log2_len, va)
            .map(Word::from_pointer)
            .map_err(|e| MachineError::BadConfig(e.to_string()))
    }

    /// Install an all-INVALID coherent frame on `node` for the page
    /// holding `va` — the boot state of a locally-cached remote page
    /// (§4.3), under which first touches take the coherent block-fetch
    /// path (block-status fault → protocol messages) instead of the
    /// LTLB-miss remote-access path. Experiment/workload setup for
    /// coherence-bound scenarios.
    pub fn map_coherent_page(&mut self, node: usize, va: u64) {
        self.coherence
            .map_coherent_page(node, &mut self.nodes[node], va);
        self.wake_node(node);
    }

    /// Mark a node as requiring a step at the next processed cycle
    /// (external input may have unblocked it). O(1) in the ladder.
    fn wake_node(&mut self, idx: usize) {
        self.ladder.wake(idx);
    }

    /// The earliest cycle `>= now` at which any component can do work,
    /// or `None` when the whole machine is provably quiescent (every
    /// node asleep with no deadline — per-node deadlines fold in each
    /// node's coherence handler — no in-flight flits, no pending
    /// resends).
    ///
    /// The node reduction reads the ladder's block minima — one word
    /// per 64 nodes — instead of walking per-node structs: an awake
    /// node is slot value 0, so "any node due at `now`" and "earliest
    /// future node deadline" are the same min-fold.
    fn next_work(&self, now: u64) -> Option<u64> {
        use mm_sched::INERT;
        use mm_sim::engine::earliest;
        let md = self.ladder.min_deadline();
        if md <= now {
            // An awake node (slot 0) or a deadline already due.
            return Some(now);
        }
        let mut best = (md != INERT).then_some(md);
        // The fabric reports absolute deadlines; here `now` is the
        // *next* cycle to process (not one just processed, as in the
        // `next_activity` contract), so a deadline due exactly at `now` must
        // clamp to `now`, not `now + 1`.
        best = earliest(best, self.fabric.next_delivery().map(|t| t.max(now)));
        if self.resend_due != u64::MAX {
            best = earliest(best, Some(self.resend_due.max(now)));
        }
        // The next scheduled fault forces an active cycle: a
        // fast-forward must never jump over a DRAM upset or a stall
        // window opening.
        if let Some(fs) = &self.faults {
            if let Some(ev) = fs.plan.events().get(fs.cursor) {
                best = earliest(best, Some(ev.at.max(now)));
            }
        }
        best
    }

    /// Apply every scheduled fault due at or before `now`: DRAM bit
    /// flips land directly in the target node's SDRAM array (ECC left
    /// stale — that is the point), stall windows gate the node's issue
    /// stage. One branch per cycle when no campaign is armed.
    fn apply_due_faults(&mut self, now: u64) {
        let Some(fs) = &mut self.faults else { return };
        while let Some(&ScheduledFault { at, kind }) = fs.plan.events().get(fs.cursor) {
            if at > now {
                break;
            }
            fs.cursor += 1;
            fs.report.events_applied += 1;
            match kind {
                FaultKind::DramFlip {
                    node,
                    addr,
                    bit,
                    second_bit,
                } => {
                    let i = (node as usize).min(self.nodes.len() - 1);
                    let sdram = self.nodes[i].mem.sdram_mut();
                    let cap = sdram.capacity().max(1);
                    sdram.inject_bit_flip(addr % cap, u32::from(bit) % 64);
                    if let Some(b2) = second_bit {
                        sdram.inject_bit_flip(addr % cap, u32::from(b2) % 64);
                    }
                    fs.report.dram_flips += 1;
                }
                FaultKind::StallIssue { node, until } => {
                    let i = (node as usize).min(self.nodes.len() - 1);
                    self.nodes[i].stall_issue_until(until);
                    self.ladder.wake(i);
                }
            }
        }
    }

    /// The watchdog's architectural progress fingerprint: instructions
    /// issued plus fabric packets carried. Pure machine state, so the
    /// verdict is identical across engines and worker counts.
    fn progress_fingerprint(&self) -> u64 {
        let mut fp = self.fabric.stats().packets;
        for n in &self.nodes {
            fp += n.stats().instructions;
        }
        fp
    }

    /// Close every watchdog epoch the clock has crossed; trip after the
    /// configured number of consecutive progress-free epochs with
    /// threads still running. Cost when disabled: one comparison per
    /// processed cycle. A fast-forward may cross several boundaries at
    /// once; each counts (the machine provably did nothing in them).
    fn watchdog_poll(&mut self) -> Result<(), MachineError> {
        if self.cfg.watchdog_epochs == 0 || self.watchdog_next > self.cycle {
            return Ok(());
        }
        let width = self.watchdog_width();
        // One fingerprint sample covers every boundary the clock has
        // crossed since the last poll. Crossings are usually single:
        // `run_until` clamps fast-forwards at the next boundary. A
        // multi-epoch crossing happens only when cycles were run
        // through a non-polling driver (`run_cycles`, `naive_step`)
        // in between — then one comparison decides for the whole span,
        // which can only under-count stuck epochs, never invent them.
        let crossed = (self.cycle - self.watchdog_next) / width + 1;
        let boundary = self.watchdog_next + (crossed - 1) * width;
        self.watchdog_next = boundary + width;
        let fp = self.progress_fingerprint();
        let stuck = fp == self.watchdog_last && self.nodes.iter().any(|n| n.running_word() != 0);
        self.watchdog_last = fp;
        if !stuck {
            self.watchdog_strikes = 0;
            return Ok(());
        }
        self.watchdog_strikes += crossed;
        if self.watchdog_strikes >= self.cfg.watchdog_epochs {
            let epochs = self.watchdog_strikes;
            self.watchdog_strikes = 0;
            self.record_diagnostic("watchdog");
            return Err(MachineError::WatchdogTripped {
                epochs,
                at: boundary,
            });
        }
        Ok(())
    }

    /// Reconfigure the liveness watchdog on a live machine — the
    /// operator knob a recovery run uses to restore a checkpoint with
    /// more patience than the configuration that aborted the original.
    /// `epochs == 0` disables the watchdog; `epoch_cycles == 0` keeps
    /// the default epoch width. Strikes reset and the next epoch starts
    /// one (new) width from now.
    pub fn set_watchdog(&mut self, epochs: u64, epoch_cycles: u64) {
        self.cfg.watchdog_epochs = epochs;
        self.cfg.watchdog_epoch_cycles = epoch_cycles;
        self.watchdog_strikes = 0;
        self.watchdog_last = self.progress_fingerprint();
        self.watchdog_next = self.cycle + self.watchdog_width();
    }

    /// The watchdog epoch width in cycles (config, with the default
    /// applied).
    fn watchdog_width(&self) -> u64 {
        if self.cfg.watchdog_epoch_cycles == 0 {
            WATCHDOG_EPOCH_DEFAULT
        } else {
            self.cfg.watchdog_epoch_cycles
        }
    }

    /// Flush telemetry and capture the full inspectable state as the
    /// diagnostic document readable via [`MMachine::last_diagnostic`].
    fn record_diagnostic(&mut self, reason: &str) {
        self.telemetry_flush();
        let snap = self.snapshot_json();
        let mut doc = String::with_capacity(snap.len() + 48);
        doc.push_str("{\"reason\":\"");
        doc.push_str(reason);
        doc.push_str("\",\"snapshot\":");
        doc.push_str(&snap);
        doc.push('}');
        self.last_diagnostic = Some(doc);
    }

    /// A protocol invariant just panicked mid-cycle (bounded patience,
    /// unmapped coherent block): dump the diagnostic state to stderr so
    /// the abort is debuggable, then let the caller re-raise.
    fn dump_panic_diagnostic(&mut self) {
        self.record_diagnostic("panic");
        if let Some(doc) = &self.last_diagnostic {
            eprintln!(
                "mm-core: fatal protocol error at cycle {}; diagnostic state:\n{doc}",
                self.cycle
            );
        }
    }

    /// The diagnostic document (reason + full state snapshot) recorded
    /// by the last watchdog trip or protocol-panic abort, if any.
    #[must_use]
    pub fn last_diagnostic(&self) -> Option<&str> {
        self.last_diagnostic.as_deref()
    }

    /// End-of-run counters of the armed fault campaign (`None` when the
    /// configuration is fault-free).
    #[must_use]
    pub fn fault_report(&self) -> Option<FaultReport> {
        self.faults.as_ref().map(|f| f.report)
    }

    /// The widest window the fabric allows: a packet injected at `t`
    /// is delivered at `t + hop_latency + 1` at the earliest (one hop, or
    /// the equally long loopback, plus at least one flit), so nothing a
    /// node does inside `[t, t + W)` can reach another node inside it.
    fn window_width(&self) -> u64 {
        self.cfg.hop_latency.saturating_add(1)
    }

    /// Where the window starting at active cycle `t` must end: at most
    /// `width` cycles on, and never past a cycle on which all nodes have
    /// to agree on the clock — the run's `limit`, the next telemetry
    /// epoch or watchdog boundary, the next fault-plan event, or the
    /// cycle after a pending resend falls due (the resend is handed back
    /// at the end of its due cycle, which must be the window's last). A
    /// message returned inside the window cuts it the same way; see
    /// [`MMachine::step_window`].
    fn window_end(&self, t: u64, limit: u64, width: u64) -> u64 {
        let mut end = t.saturating_add(width).min(limit);
        if let Some(tm) = &self.telemetry {
            end = end.min(tm.next_due().max(t + 1));
        }
        if self.cfg.watchdog_epochs != 0 && self.watchdog_next >= t {
            end = end.min(self.watchdog_next.max(t + 1));
        }
        if let Some(fs) = &self.faults {
            if let Some(ev) = fs.plan.events().get(fs.cursor) {
                end = end.min(ev.at.max(t + 1));
            }
        }
        end.min(self.resend_due.max(t).saturating_add(1))
    }

    /// Run one window starting at active cycle `t` (`self.cycle` is `t`;
    /// see the `shard` module for the design): land the faults due at
    /// `t`, drain every delivery due before the window's end from the
    /// fabric, walk the due and receiving nodes through the whole window
    /// — sharded across the worker pool when there is one — and replay
    /// the walk's logs in the per-cycle loop's order. Leaves the clock
    /// one past the window's last active cycle, exactly where the
    /// per-cycle loop's clock would stand after it, and returns the
    /// first clock value (if any) at which the user-thread totals met
    /// the halt condition.
    ///
    /// Cycle-exact with [`MMachine::naive_step`] by construction: a
    /// skipped node's step would have been a no-op, and every skipped
    /// phase had no input.
    fn step_window(&mut self, t: u64, limit: u64, width: u64) -> Option<u64> {
        debug_assert_eq!(self.cycle, t, "a window starts at the current cycle");

        // 0. Land scheduled faults due at `t` (one branch when no
        // campaign is armed). `next_work` folds the next event in and
        // `window_end` cuts at it, so events only ever land here.
        self.apply_due_faults(t);
        let checked = self.faults.as_ref().is_some_and(|f| f.link_armed);
        let mut end = self.window_end(t, limit, width);

        // Every delivery of the window is already in flight. A message
        // returned inside the window enters the backoff queue the cycle
        // it arrives, so its resend falling due cuts the window too.
        let mut arrivals = std::mem::take(&mut self.arrivals);
        arrivals.clear();
        while let Some(at) = self.fabric.next_delivery() {
            let at = at.max(t);
            if at >= end {
                break;
            }
            while let Some(slot) = self.fabric.pop_due(at) {
                let packet = &self.fabric.slab()[slot as usize];
                if matches!(packet, Packet::Return(_)) {
                    end = end.min(at.saturating_add(self.cfg.resend_delay) + 1);
                }
                #[allow(clippy::cast_possible_truncation)]
                arrivals.push(Arrival {
                    at,
                    j: arrivals.len() as u32,
                    node: self.spec.linear_index(packet.dest()) as u32,
                    slot,
                });
            }
        }
        let mut by_node = std::mem::take(&mut self.by_node);
        by_node.clear();
        by_node.extend(arrivals.iter().map(|a| node_key(a.node, a.j as usize)));
        by_node.sort_unstable();

        // 1. The walk. A protocol panic (bounded patience, unmapped
        // coherent block) unwinds through here: dump the diagnostic
        // state first, then re-raise it unchanged.
        let win = Window {
            start: t,
            end,
            arrivals: &arrivals,
            packets: self.fabric.slab(),
            by_node: &by_node,
            checked,
            trace: self.cfg.trace,
        };
        let result = {
            let MMachine {
                worker_pool,
                nodes,
                coherence,
                ladder,
                step_scratch,
                logs,
                ..
            } = self;
            catch_unwind(AssertUnwindSafe(|| match worker_pool {
                Some(workers) => {
                    workers.step_window(nodes, coherence.handlers_mut(), ladder, &win, logs)
                }
                None => {
                    step_shard(
                        nodes,
                        coherence.handlers_mut(),
                        ladder.view_mut(),
                        0,
                        &win,
                        &mut logs[0],
                        step_scratch,
                    );
                    1
                }
            }))
        };
        let shards = match result {
            Ok(shards) => shards,
            Err(payload) => {
                self.dump_panic_diagnostic();
                resume_unwind(payload);
            }
        };

        // Inside a run user threads only halt or fault, so a window that
        // ends with none running met the halt condition (and the
        // per-cycle loop's predicate) one past its last change.
        let (mut running, mut finished) = (self.user_running, self.user_finished);
        let (mut last, mut changed) = (t, None);
        for log in &self.logs[..shards] {
            running += log.running;
            finished += log.finished;
            changed = changed.max(log.last_change);
            last = last.max(log.last_step.unwrap_or(t));
        }
        (self.user_running, self.user_finished) = (running, finished);
        let halt = changed
            .filter(|_| running == 0 && finished > 0)
            .map(|c| c + 1);
        debug_assert!(
            self.user_counts_stale || (running, finished) == user_totals(&self.nodes),
            "user-thread totals drifted from the nodes' tallies in window {t}..{end}"
        );

        // 2–5. Replay. Every cycle something arrived at, or a resend
        // fell due at, is active too. The replay still reads the
        // arrivals' packets, so their slots go back only after it.
        if self.replay_window(t, end, shards, &arrivals) {
            last = end - 1;
        }
        for a in &arrivals {
            self.fabric.release(a.slot);
        }
        if let Some(a) = arrivals.last() {
            last = last.max(a.at);
        }
        self.arrivals = arrivals;
        self.by_node = by_node;
        self.cycle = last + 1;
        halt
    }

    /// Replay the walk's logs into the fabric, the resend queue and the
    /// timeline, cycle by cycle in the per-cycle loop's phase order:
    ///
    /// 2. outbox drains after node steps, ascending node;
    /// 3. deliveries in the fabric's delivery order, each followed by
    ///    what it staged;
    /// 4. returned messages into the backoff queue, then — on the
    ///    window's last cycle, the only one a resend can fall due at —
    ///    the backoff scan;
    /// 5. trace bookkeeping, ascending node.
    ///
    /// Returns whether a resend fell due (which makes the last cycle
    /// active).
    fn replay_window(&mut self, start: u64, end: u64, shards: usize, arrivals: &[Arrival]) -> bool {
        let logs = std::mem::take(&mut self.logs);
        let mut cursors = std::mem::take(&mut self.cursors);
        let logs_used = &logs[..shards];
        cursors.clear();
        cursors.resize(shards, ReplayCursor::default());
        let mut next = 0;
        let mut resent = false;
        for now in start..end {
            for (log, cur) in logs_used.iter().zip(cursors.iter_mut()) {
                while let Some(d) = log.drains.get(cur.drains).filter(|d| d.at == now) {
                    for p in &log.packets[d.from as usize..d.to as usize] {
                        self.inject(now, d.node as usize, p);
                    }
                    cur.drains += 1;
                }
            }
            let first = next;
            while let Some(a) = arrivals.get(next).filter(|a| a.at == now) {
                if self.cfg.trace {
                    let p = &self.fabric.slab()[a.slot as usize];
                    trace_packet(&mut self.timeline, now, a.node as usize, p, false);
                }
                let (log, d) = ReplayCursor::delivered(logs_used, &mut cursors, a.j, false);
                for p in &log.packets[d.packets.0 as usize..d.packets.1 as usize] {
                    self.inject(now, a.node as usize, p);
                }
                next += 1;
            }
            for a in &arrivals[first..next] {
                let (log, d) = ReplayCursor::delivered(logs_used, &mut cursors, a.j, true);
                for m in &log.returned[d.returned.0 as usize..d.returned.1 as usize] {
                    let m = match &mut self.faults {
                        Some(fs) => fs.reclaim(m.clone()),
                        None => m.clone(),
                    };
                    self.push_resend(now, a.node as usize, m);
                }
            }
            if now + 1 == end {
                resent = self.apply_due_resends(now);
            }
            if self.cfg.trace {
                for (log, cur) in logs_used.iter().zip(cursors.iter_mut()) {
                    while let Some(snap) = log.traces.get(cur.traces).filter(|s| s.at == now) {
                        self.trace_snapshot(snap);
                        cur.traces += 1;
                    }
                }
            }
        }
        self.logs = logs;
        self.cursors = cursors;
        resent
    }

    /// The backoff scan: hand every resend due by `now` back to its
    /// node's interface and wake the node (the re-staged packet is
    /// drained when it steps). Under an armed campaign a returned message
    /// that failed its checksum was already swapped for its pristine copy
    /// on the way in. Returns whether any was due.
    fn apply_due_resends(&mut self, now: u64) -> bool {
        if self.resend_due > now {
            return false;
        }
        self.resend_due = u64::MAX;
        let mut k = 0;
        while k < self.resends.len() {
            if self.resends[k].0 <= now {
                let (_, i, m) = self.resends.swap_remove(k);
                self.nodes[i].net.resend(m);
                self.wake_node(i);
            } else {
                self.resend_due = self.resend_due.min(self.resends[k].0);
                k += 1;
            }
        }
        true
    }

    /// A message returned to node `node` at cycle `now` enters the
    /// hardware backoff.
    fn push_resend(&mut self, now: u64, node: usize, m: Message) {
        let due = now + self.cfg.resend_delay;
        self.resend_due = self.resend_due.min(due);
        self.resends.push((due, node, m));
    }

    /// Inject one of node `src`'s packets at cycle `now` (through the
    /// fault plan when one is armed), tracing the injection.
    fn inject(&mut self, now: u64, src: usize, p: &Packet) {
        if self.cfg.trace {
            trace_packet(&mut self.timeline, now, src, p, true);
        }
        match &mut self.faults {
            Some(fs) => inject_faulted(&mut self.fabric, fs, now, src, p.clone()),
            None => {
                self.fabric.inject(now, p);
            }
        }
    }

    /// Record a node's event enqueues and freshly-halted user threads
    /// since its last snapshot into the timeline.
    fn trace_snapshot(&mut self, snap: &TraceSnap) {
        let (now, i) = (snap.at, snap.node as usize);
        for class in 0..NUM_CLUSTERS {
            let count = snap.events[class];
            if count > self.prev_events[i][class] {
                self.timeline
                    .record(now, Phase::EventEnqueued { node: i, class });
                self.prev_events[i][class] = count;
            }
        }
        for (c, slot) in snap.halted() {
            if !self.halted_seen[i][c][slot] {
                self.halted_seen[i][c][slot] = true;
                self.timeline.record(
                    now,
                    Phase::UserHalted {
                        node: i,
                        cluster: c,
                        slot,
                    },
                );
            }
        }
    }

    /// Advance one cycle with the original dense loop: every node, the
    /// coherence firmware and the full fabric pump run unconditionally.
    /// Kept as a debug path for differential testing against the
    /// quiescence engine — both must produce identical [`MachineStats`],
    /// timelines and halt cycles. The two can be interleaved freely: the
    /// dense step leaves every node marked awake, which is always a
    /// sound (if conservative) scheduler state.
    pub fn naive_step(&mut self) {
        let now = self.cycle;

        // 0. Land scheduled faults due this cycle — the same hook, at
        // the same point in the cycle, as the quiescence engine's.
        self.apply_due_faults(now);
        let checked = self.faults.as_ref().is_some_and(|f| f.link_armed);

        // 1. Every node computes, then runs its coherence handler —
        // the same per-node pairing the engines' `step_shard` performs.
        // Protocol panics dump diagnostic state before re-raising.
        let result = {
            let MMachine {
                nodes,
                coherence,
                step_scratch,
                ..
            } = self;
            catch_unwind(AssertUnwindSafe(|| {
                let handlers = coherence.handlers_mut();
                for (n, coh) in nodes.iter_mut().zip(handlers.iter_mut()) {
                    n.step_with(now, step_scratch);
                    coh.step(now, n);
                }
            }))
        };
        if let Err(payload) = result {
            self.dump_panic_diagnostic();
            resume_unwind(payload);
        }

        // 2. Drain outboxes into the fabric.
        let mut staged = std::mem::take(&mut self.dense_outbox);
        for i in 0..self.nodes.len() {
            self.nodes[i].net.drain_outbox_into(&mut staged);
            for p in staged.drain(..) {
                self.inject(now, i, &p);
            }
        }

        // 3. Deliver due packets in place (responses may stage more
        // packets), the same pop-read-release path as the window's.
        while let Some(slot) = self.fabric.pop_due(now) {
            let p = &self.fabric.slab()[slot as usize];
            let d = self.spec.linear_index(p.dest()) as usize;
            if self.cfg.trace {
                trace_packet(&mut self.timeline, now, d, p, false);
            }
            if checked {
                self.nodes[d].net.deliver_checked(p);
            } else {
                self.nodes[d].net.deliver(p);
            }
            self.fabric.release(slot);
            self.nodes[d].net.drain_outbox_into(&mut staged);
            for out in staged.drain(..) {
                self.inject(now, d, &out);
            }
        }
        self.dense_outbox = staged;

        // 4. Returned messages: hardware backoff, then re-inject.
        for i in 0..self.nodes.len() {
            while let Some(m) = self.nodes[i].net.pop_returned() {
                let m = match &mut self.faults {
                    Some(fs) => fs.reclaim(m),
                    None => m,
                };
                self.push_resend(now, i, m);
            }
        }
        self.apply_due_resends(now);

        // 5. Trace bookkeeping: event enqueues and user-thread halts.
        if self.cfg.trace {
            for i in 0..self.nodes.len() {
                let snap = TraceSnap::of(now, i, &self.nodes[i]);
                self.trace_snapshot(&snap);
            }
        }

        self.cycle += 1;

        // Keep the engine's bookkeeping conservative after a dense
        // step: every node awake, the totals recounted.
        self.ladder.wake_all();
        self.recount_user_threads();
        self.poll_telemetry();
    }

    /// Run `cycles` machine cycles, fast-forwarding the clock over
    /// stretches in which every component is provably idle and stepping
    /// the rest in windows (see the `shard` module).
    pub fn run_cycles(&mut self, cycles: u64) {
        let target = self.cycle.saturating_add(cycles);
        let width = self.window_width();
        while self.cycle < target {
            match self.next_work(self.cycle) {
                Some(t) if t < target => {
                    self.cycle = t;
                    self.step_window(t, target, width);
                }
                _ => self.cycle = target,
            }
            // A fast-forward may cross several epoch boundaries at
            // once; they collapse into one wider sample.
            self.poll_telemetry();
        }
    }

    /// Run until `pred` holds, at most `limit` cycles.
    ///
    /// The engine evaluates `pred` after every *active* cycle and at
    /// fast-forward targets, so it steps one cycle per window: a
    /// predicate may read any machine state, and it sees every state
    /// the dense loop would have shown it. Machine state only changes on
    /// active cycles, so any predicate over machine state behaves
    /// exactly as under the dense loop; a predicate that depends on the
    /// clock value itself (`m.cycle()` arithmetic) may be observed later
    /// than a cycle-by-cycle evaluation would.
    ///
    /// # Errors
    ///
    /// [`MachineError::Timeout`] if the predicate never held;
    /// [`MachineError::WatchdogTripped`] if the liveness watchdog is
    /// enabled and saw running threads make zero progress for the
    /// configured number of consecutive epochs (the diagnostic state is
    /// captured first — see [`MMachine::last_diagnostic`]).
    pub fn run_until<F: Fn(&MMachine) -> bool>(
        &mut self,
        limit: u64,
        pred: F,
    ) -> Result<u64, MachineError> {
        self.run_loop(limit, Some(&pred))
    }

    /// The loop under [`MMachine::run_until`] (`pred` given, one-cycle
    /// windows) and [`MMachine::run_until_halt`] (`pred` absent: full
    /// windows, with the halt cycle read from the windows' summed
    /// user-thread changes). A window may run past the halt cycle `h`; the
    /// returned value is still `h`, and the clock is left at the
    /// window's end.
    fn run_loop(
        &mut self,
        limit: u64,
        pred: Option<&dyn Fn(&MMachine) -> bool>,
    ) -> Result<u64, MachineError> {
        // External mutation may have changed thread states; otherwise
        // the walk keeps the totals exact.
        if self.user_counts_stale {
            self.recount_user_threads();
        }
        let end = self.cycle.saturating_add(limit);
        // A window holding the halt must end inside the drain that
        // follows it.
        let width = if pred.is_some() {
            1
        } else {
            self.window_width().min(HALT_DRAIN_CYCLES)
        };
        let mut halted = None;
        loop {
            // The clock value the per-cycle loop would be checking now.
            let at = halted.unwrap_or(self.cycle);
            if at >= end {
                return Err(MachineError::Timeout { limit, at });
            }
            let done = match pred {
                Some(p) => p(self),
                None => halted.is_some() || (self.user_running == 0 && self.user_finished > 0),
            };
            if done {
                return Ok(at);
            }
            match self.next_work(self.cycle) {
                Some(t) if t < end => {
                    // Stop at a pending watchdog boundary before leaping
                    // to a far-future active cycle: the poll must close
                    // the epochs the machine provably slept through
                    // while the fingerprint is still frozen — the step
                    // at `t` would make progress and erase the hang.
                    if self.cfg.watchdog_epochs != 0
                        && self.watchdog_next > self.cycle
                        && t > self.watchdog_next
                    {
                        self.cycle = self.watchdog_next;
                    } else {
                        self.cycle = t;
                        let halt = self.step_window(t, end, width);
                        if pred.is_none() {
                            halted = halt;
                        }
                    }
                }
                _ => {
                    // A quiescent fast-forward stops at each watchdog
                    // boundary so a machine that is asleep forever with
                    // threads still running accrues one strike per
                    // epoch instead of leaping over them all.
                    let mut target = end;
                    if self.cfg.watchdog_epochs != 0 {
                        target = target.min(self.watchdog_next.max(self.cycle));
                    }
                    self.cycle = target;
                }
            }
            self.poll_telemetry();
            // The liveness watchdog closes any epoch boundary the clock
            // just crossed (active cycle or fast-forward alike) — unless
            // the halt came before the clock: the per-cycle loop returned
            // at the halt and never polled past it.
            if halted.is_none_or(|h| h == self.cycle) {
                self.watchdog_poll()?;
            }
        }
    }

    /// Run until every loaded user H-Thread on every node has halted or
    /// faulted, then drain in-flight work.
    ///
    /// # Errors
    ///
    /// [`MachineError::Timeout`] if user threads never finish.
    pub fn run_until_halt(&mut self, limit: u64) -> Result<u64, MachineError> {
        // Done when no user H-Thread anywhere is still running, and at
        // least one was loaded (nodes without user work don't count).
        // Each node maintains O(1) user-thread tallies at every state
        // transition; the walk folds each step's change in them into
        // machine totals, so the check reads two integers instead of
        // scanning anything — and a window reports the exact cycle the
        // totals first met it. False while any user H-Thread runs, true
        // once none run and at least one finished.
        let done = self.run_loop(limit, None)?;
        // Drain stragglers (in-flight responses, replies, credits) up to
        // the same cycle past the halt, however far past it the last
        // window ran.
        self.run_cycles(done + HALT_DRAIN_CYCLES - self.cycle);
        Ok(done)
    }

    /// Messages held outside the nodes and the fabric: resends waiting
    /// out their backoff, and the pristine copies a fault campaign keeps
    /// for checksum-NACK repair (0 without one).
    #[must_use]
    pub fn held_messages(&self) -> (usize, usize) {
        let pristine = self.faults.as_ref().map_or(0, |fs| fs.pristine.len());
        (self.resends.len(), pristine)
    }

    /// Serialize the complete simulated machine state — every node
    /// (registers, memories, queues, TLBs), the fabric, the coherence
    /// handlers, in-flight resends, the fault-campaign runtime and the
    /// watchdog — into one versioned binary checkpoint.
    ///
    /// Host-side state is deliberately *not* captured: the timeline,
    /// telemetry ring/sink, and loaded program text (programs are
    /// shared `Arc`s; [`MMachine::restore`] targets a machine built
    /// from the same config with the same programs loaded). Restoring
    /// a checkpoint into such a machine and continuing is bit-identical
    /// to never having stopped, at any worker count.
    #[must_use]
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut e = Enc::new();
        (CKPT_MAGIC, CKPT_VERSION, self.cfg.dims).save(&mut e);
        let c = &self.cfg;
        (c.local_pages, c.lpt_slots, c.hop_latency, c.resend_delay).save(&mut e);
        self.nodes.len().save(&mut e);
        let plan = self.faults.as_ref().map(|fs| fs.plan.config().clone());
        (plan, self.cycle).save(&mut e);
        for n in &self.nodes {
            n.save_state(&mut e, self.cycle);
        }
        self.fabric.save_state(&mut e);
        self.coherence.save_state(&mut e);
        self.resends.save(&mut e);
        self.prev_events.iter().for_each(|v| v.save(&mut e));
        self.halted_seen.iter().for_each(|v| v.save(&mut e));
        if let Some(fs) = &self.faults {
            fs.cursor.save(&mut e);
            fs.pristine.save(&mut e);
            fs.report.save(&mut e);
        }
        let watchdog = (
            self.watchdog_strikes,
            self.watchdog_last,
            self.watchdog_next,
        );
        watchdog.save(&mut e);
        // The engine's sleep schedule (one wake-up slot per node).
        // Host-side, but captured so a restored run steps each node at
        // exactly the cycles the original would have — keeping host
        // counters like `steps` and the fast-forward pattern identical.
        for i in 0..self.nodes.len() {
            self.ladder.slot(i).save(&mut e);
        }
        e.finish()
    }

    /// Restore a checkpoint taken by [`MMachine::checkpoint`] on an
    /// identically-configured machine (same dims, sizes, latencies,
    /// node count and fault plan — validated before anything is
    /// touched) with the same programs loaded.
    ///
    /// # Errors
    ///
    /// [`MachineError::Checkpoint`] on a magic/version/config mismatch
    /// (machine untouched) or a truncated/corrupt stream (machine
    /// state unspecified — rebuild before reuse).
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), MachineError> {
        let mut d = Dec::new(bytes);
        self.refuse_foreign_header(&mut d)?;
        // Validation done — load. From here on an error leaves the
        // machine partially restored.
        let n = self.nodes.len();
        self.cycle = d.u64()?;
        for node in &mut self.nodes {
            node.load_state(&mut d, self.cycle)?;
        }
        self.fabric.load_state(&mut d)?;
        self.coherence.load_state(&mut d)?;
        self.resends = Vec::load(&mut d)?;
        for (_, idx, m) in &self.resends {
            if *idx >= n {
                return Err(CkptError(format!("resend node {idx} out of range")).into());
            }
            if !self.fabric.contains(m.src) || !self.fabric.contains(m.dest) {
                return Err(CkptError(format!(
                    "resend {} -> {} runs outside the mesh",
                    m.src, m.dest
                ))
                .into());
            }
        }
        self.resend_due = self.resends.iter().map(|r| r.0).min().unwrap_or(u64::MAX);
        for v in self.prev_events.iter_mut() {
            *v = Ckpt::load(&mut d)?;
        }
        for v in self.halted_seen.iter_mut() {
            *v = Ckpt::load(&mut d)?;
        }
        if let Some(fs) = &mut self.faults {
            let cursor;
            (cursor, fs.pristine, fs.report) = Ckpt::load(&mut d)?;
            fs.cursor = usize::min(cursor, fs.plan.events().len());
            fs.inject_marks.fill((0, 0));
        }
        let watchdog = Ckpt::load(&mut d)?;
        (
            self.watchdog_strikes,
            self.watchdog_last,
            self.watchdog_next,
        ) = watchdog;
        let deadlines = (0..n).map(|_| d.u64()).collect::<Result<Vec<_>, _>>()?;
        if d.remaining() != 0 {
            return Err(MachineError::Checkpoint(format!(
                "{} trailing bytes after checkpoint payload",
                d.remaining()
            )));
        }
        self.refuse_bad_queued_traffic()?;
        for (node, coh) in self.nodes.iter().zip(self.coherence.handlers()) {
            coh.refuse_bad_frames(node)?;
        }
        // Reinstate the exact sleep schedule the checkpoint captured —
        // waking everything instead would step idle nodes the original
        // run never stepped — and recount the restored nodes' threads.
        self.timeline.clear();
        for (i, dl) in deadlines.into_iter().enumerate() {
            self.ladder.set_slot(i, dl);
        }
        self.recount_user_threads();
        self.last_diagnostic = None;
        Ok(())
    }

    /// Read a checkpoint's header and refuse one taken on a machine of
    /// another configuration or fault plan (hand-written: each field is
    /// checked against this machine as it is read).
    fn refuse_foreign_header(&self, d: &mut Dec<'_>) -> Result<(), MachineError> {
        if d.u64()? != CKPT_MAGIC {
            return Err(MachineError::Checkpoint("not a checkpoint stream".into()));
        }
        let ver = d.u32()?;
        if ver != CKPT_VERSION {
            return Err(MachineError::Checkpoint(format!(
                "checkpoint version {ver}, this build reads {CKPT_VERSION}"
            )));
        }
        let dims = <(u8, u8, u8)>::load(d)?;
        if dims != self.cfg.dims {
            return Err(MachineError::Checkpoint(format!(
                "checkpoint is for a {}x{}x{} mesh, this machine is {}x{}x{}",
                dims.0, dims.1, dims.2, self.cfg.dims.0, self.cfg.dims.1, self.cfg.dims.2
            )));
        }
        for (name, have, want) in [
            ("local_pages", d.u64()?, self.cfg.local_pages),
            ("lpt_slots", d.u64()?, self.cfg.lpt_slots),
            ("hop_latency", d.u64()?, self.cfg.hop_latency),
            ("resend_delay", d.u64()?, self.cfg.resend_delay),
        ] {
            if have != want {
                return Err(MachineError::Checkpoint(format!(
                    "config mismatch: checkpoint {name}={have}, machine has {want}"
                )));
            }
        }
        let n = d.usize()?;
        if n != self.nodes.len() {
            return Err(MachineError::Checkpoint(format!(
                "checkpoint has {n} nodes, machine has {}",
                self.nodes.len()
            )));
        }
        let plan = Option::<FaultPlanConfig>::load(d)?;
        if plan.is_some() != self.faults.is_some() {
            return Err(MachineError::Checkpoint(
                "fault-campaign presence differs between checkpoint and machine".into(),
            ));
        }
        if plan.as_ref() != self.faults.as_ref().map(|fs| fs.plan.config()) {
            return Err(MachineError::Checkpoint(
                "checkpoint was taken under a different fault plan".into(),
            ));
        }
        Ok(())
    }

    /// Refuse restored traffic that would panic once sent or handled: a
    /// node outside the mesh in a node's interface queues, a coherence
    /// handler's state or a fault plan's pristine copy (`Fabric::inject`
    /// asserts on one), and a coherence message the handler could not
    /// decode, in flight, in a node's interface (staged or arrived) or
    /// in a handler's outbound queue (`NodeCoh::step` panics on one).
    fn refuse_bad_queued_traffic(&self) -> Result<(), CkptError> {
        let outside = |owner: String, c: NodeCoord| {
            CkptError(format!("{owner} names node {c}, outside the mesh"))
        };
        let in_flight = self.fabric.in_flight().filter_map(|p| match p {
            Packet::Coh(m) => Some(m),
            _ => None,
        });
        refuse_undecodable("the fabric", in_flight)?;
        let handlers = self.coherence.handlers();
        for (i, (node, coh)) in self.nodes.iter().zip(handlers).enumerate() {
            let owner = format!("node {i}'s interface");
            if let Some(c) = node.net.endpoints().find(|&c| !self.fabric.contains(c)) {
                return Err(outside(owner, c));
            }
            refuse_undecodable(&owner, node.net.coh_messages())?;
            let owner = format!("node {i}'s coherence handler");
            if let Some(c) = coh
                .endpoints()
                .into_iter()
                .find(|&c| !self.fabric.contains(c))
            {
                return Err(outside(owner, c));
            }
            refuse_undecodable(&owner, coh.outbound())?;
        }
        let pristine = self.faults.iter().flat_map(|fs| fs.pristine.values());
        if let Some(c) = pristine
            .flat_map(|(m, _)| [m.src, m.dest])
            .find(|&c| !self.fabric.contains(c))
        {
            return Err(outside("a fault-plan pristine copy".into(), c));
        }
        Ok(())
    }

    /// Do any user threads sit in a faulted state?
    #[must_use]
    pub fn faulted_threads(&self) -> Vec<(usize, usize, usize, mm_sim::Fault)> {
        let mut out = Vec::new();
        for (i, n) in self.nodes.iter().enumerate() {
            for c in 0..NUM_CLUSTERS {
                for s in 0..USER_SLOTS {
                    if let HState::Faulted(f) = n.thread_state(c, s) {
                        out.push((i, c, s, f));
                    }
                }
            }
        }
        out
    }
}
