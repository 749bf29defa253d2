//! The seven workloads. Each is built only from public `mm-bench`
//! scenario builders and driven through `MMachine`'s public run
//! functions; one *repetition* builds the input from scratch (timed as
//! set-up), runs it to halt (the timed region), reads the statistics
//! and checks the result.

use crate::alloc;
use crate::spans::Tracer;
use mm_bench::coherence::build_coherence_scenario;
use mm_bench::scaling::build_busy_scenario;
use mm_bench::traffic::{build_traffic_scenario, TrafficPattern};
use mm_bench::workloads::{build_workload, run_workload, WorkloadKind, WorkloadPoint};
use mm_core::machine::{MMachine, MachineConfig};
use std::ops::{AddAssign, Index, IndexMut};
use std::time::{Duration, Instant};

/// Windows one traced single-machine run is cut into.
pub const WINDOWS: u64 = 64;

/// Cycle limit of one machine run: far above every workload's halt
/// cycle, so reaching it means the run hung.
const CYCLE_LIMIT: u64 = 50_000_000;

/// Cycles run after halt, outside the timed region, so in-flight
/// protocol traffic lands before results are read (as `mm-bench`'s own
/// checked runs do).
const DRAIN_CYCLES: u64 = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BusyMesh512,
    BusyMesh64,
    CoherencePingpong16,
    HotspotTraffic4,
    UniformTraffic4,
    KernelSuite4,
    PaperArtifacts,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::BusyMesh512,
        Workload::BusyMesh64,
        Workload::CoherencePingpong16,
        Workload::HotspotTraffic4,
        Workload::UniformTraffic4,
        Workload::KernelSuite4,
        Workload::PaperArtifacts,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BusyMesh512 => "busy_mesh_512",
            Workload::BusyMesh64 => "busy_mesh_64",
            Workload::CoherencePingpong16 => "coherence_pingpong_16",
            Workload::HotspotTraffic4 => "hotspot_traffic_4",
            Workload::UniformTraffic4 => "uniform_traffic_4",
            Workload::KernelSuite4 => "kernel_suite_4",
            Workload::PaperArtifacts => "paper_artifacts",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (also `BENCHMARK.json`'s
    /// `why`; the integration test keeps the two equal).
    pub fn why(self) -> &'static str {
        match self {
            Workload::BusyMesh512 => {
                "8x8x8 mesh, every node awake every cycle; the 512-node set exceeds the host \
                 LLC, so the pool walk, prefetching and node layout dominate"
            }
            Workload::BusyMesh64 => {
                "same program on 4x4x4: identical simulated work per step but a host-cache-\
                 resident set; an issue-stage gain shows here too, a layout gain does not"
            }
            Workload::CoherencePingpong16 => {
                "one block ping-pongs per node pair: coherence handler, mem miss/replay path, \
                 Coh packets and sleep/wake churn, all of which the busy rows bypass"
            }
            Workload::HotspotTraffic4 => {
                "every node floods node 0: return-to-sender bounces, resend backoff and the \
                 credit path do the work; memory and coherence do almost none"
            }
            Workload::UniformTraffic4 => {
                "the same network layer with zero bounces: clean inject/deliver, so a backoff-\
                 path gain that taxes the clean path shows as one row up, one row down"
            }
            Workload::KernelSuite4 => {
                "sample_sort, matmul, spmv and task_queue on 2x2x1: protected calls, full/empty \
                 retries, remote gathers; guards against tuning to the six-instruction busy loop"
            }
            Workload::PaperArtifacts => {
                "the eight paper-artifact functions per round: dozens of cold 1-2-node machines \
                 built, run briefly and dropped; dominated by build/assemble cost, not the loop"
            }
        }
    }

    /// What one "op" of `sim_cycles_per_op` is on this workload.
    pub fn op_unit(self) -> &'static str {
        match self {
            Workload::BusyMesh512 | Workload::BusyMesh64 | Workload::CoherencePingpong16 => {
                "loop iteration per node"
            }
            Workload::HotspotTraffic4 | Workload::UniformTraffic4 => "message per node",
            Workload::KernelSuite4 => "1000 instructions",
            Workload::PaperArtifacts => "artifact round (Fig. 6 scaled to 100 iterations)",
        }
    }

    /// The size constant the seed perturbs — loop iterations, messages
    /// per node, passes per kernel or Fig. 6 iterations — tuned so one
    /// repetition's timed region is 0.1–0.3 s on the 2-core reference
    /// host (see README, "Noise": many short repetitions, the best of
    /// each interleaved sample).
    fn base_size(self) -> u64 {
        match self {
            Workload::BusyMesh512 => 230,
            Workload::BusyMesh64 => 1500,
            Workload::CoherencePingpong16 => 900,
            Workload::HotspotTraffic4 => 6000,
            Workload::UniformTraffic4 => 14_000,
            Workload::KernelSuite4 => 3,
            Workload::PaperArtifacts => 100,
        }
    }

    /// Resolve the input sizes. `seed` perturbs the size constant by at
    /// most 3 % (the suite, whose pass counts are too small for 3 % to
    /// mean anything, gives its two short kernels a seeded extra pass
    /// each) so a change
    /// cannot be fitted to one exact run length; `quick` divides the
    /// sizes by twenty for the package's integration test.
    pub fn plan(self, seed: u64, quick: bool) -> Plan {
        let r = splitmix64(seed ^ (self as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // `base` scaled by a factor in [0.97, 1.03], in 1/1024 steps.
        let jitter = |base: u64| {
            let factor = 0.97 + 0.06 * (r % 1025) as f64 / 1024.0;
            ((base as f64 * factor).round() as u64).max(1)
        };
        let base = self.base_size();
        let size = jitter(if quick { (base / 20).max(2) } else { base });
        match self {
            Workload::BusyMesh512 => Plan::Busy {
                dims: (8, 8, 8),
                iters: size,
            },
            Workload::BusyMesh64 => Plan::Busy {
                dims: (4, 4, 4),
                iters: size,
            },
            Workload::CoherencePingpong16 => Plan::Coherence {
                dims: (4, 2, 2),
                iters: size,
            },
            Workload::HotspotTraffic4 => Plan::Traffic {
                pattern: TrafficPattern::Hotspot,
                count: size,
            },
            Workload::UniformTraffic4 => Plan::Traffic {
                pattern: TrafficPattern::Uniform,
                count: size,
            },
            Workload::KernelSuite4 => {
                // The two short kernels shift the instruction mix least.
                let passes = if quick { 1 } else { base };
                let passes = [passes + (r & 1), passes + (r >> 1 & 1), passes, passes];
                Plan::Suite {
                    passes,
                    reference: Box::new(WorkloadKind::ALL.map(|kind| run_workload(kind, Some(1)))),
                }
            }
            Workload::PaperArtifacts => Plan::Artifacts {
                fig6_iters: jitter(base),
            },
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A workload with its sizes resolved for one seed.
pub enum Plan {
    Busy {
        dims: (u8, u8, u8),
        iters: u64,
    },
    Coherence {
        dims: (u8, u8, u8),
        iters: u64,
    },
    Traffic {
        pattern: TrafficPattern,
        count: u64,
    },
    Suite {
        /// Back-to-back runs of each kernel per repetition, in
        /// `WorkloadKind::ALL` order.
        passes: [u64; 4],
        /// `mm-bench`'s own checked run of each kernel (it panics unless
        /// the kernel's result matches its host-side reference); every
        /// timed pass must reproduce its cycle and message counts.
        reference: Box<[WorkloadPoint; 4]>,
    },
    Artifacts {
        fig6_iters: u64,
    },
}

impl Plan {
    /// One machine per repetition (so a traced run can be cut into
    /// [`WINDOWS`] windows of a known halt cycle)?
    pub fn single_machine(&self) -> bool {
        matches!(
            self,
            Plan::Busy { .. } | Plan::Coherence { .. } | Plan::Traffic { .. }
        )
    }

    /// One line for the output header.
    pub fn describe(&self) -> String {
        match self {
            Plan::Busy { dims, iters } => format!("dims={dims:?} iters={iters}"),
            Plan::Coherence { dims, iters } => format!("dims={dims:?} iters={iters}"),
            Plan::Traffic { pattern, count } => {
                format!("pattern={} gap=0 count={count}", pattern.name())
            }
            Plan::Suite { passes, .. } => format!("passes={passes:?} (sort, matmul, spmv, taskq)"),
            Plan::Artifacts { fig6_iters } => format!("fig6_iters={fig6_iters}"),
        }
    }
}

/// Raw counters summed over a repetition's machines, read through the
/// crates' public `stats()` accessors at halt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum C {
    Cycles,
    /// Σ over machines of cycles × nodes: the dense loop's step count.
    NodeCycles,
    NodeSteps,
    Instructions,
    IssueProbes,
    Loads,
    Stores,
    Sends,
    ProtectedCalls,
    CswitchTransfers,
    MemRequests,
    BankStalls,
    LtlbMissEvents,
    BlockStatusEvents,
    SyncFaultEvents,
    ReadHits,
    ReadMisses,
    WriteHits,
    WriteMisses,
    CacheWritebacks,
    FabricPackets,
    FlitHops,
    FabricLatency,
    ContentionCycles,
    IfaceSent,
    IfaceReceived,
    CreditStalls,
    Returned,
    BlockFetches,
    Invalidations,
    CohWritebacks,
    SyncRetries,
    FetchLatencyCycles,
    FetchReplays,
}

const NUM_COUNTS: usize = C::FetchReplays as usize + 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts([u64; NUM_COUNTS]);

impl Default for Counts {
    fn default() -> Counts {
        Counts([0; NUM_COUNTS])
    }
}

impl Index<C> for Counts {
    type Output = u64;
    fn index(&self, c: C) -> &u64 {
        &self.0[c as usize]
    }
}

impl IndexMut<C> for Counts {
    fn index_mut(&mut self, c: C) -> &mut u64 {
        &mut self.0[c as usize]
    }
}

impl AddAssign for Counts {
    fn add_assign(&mut self, rhs: Counts) {
        for (a, b) in self.0.iter_mut().zip(rhs.0) {
            *a += b;
        }
    }
}

impl Counts {
    /// `num / den` as a float, 0 when the denominator is 0.
    pub fn ratio(&self, num: C, den: C) -> f64 {
        div(self[num], self[den])
    }

    fn of(m: &MMachine) -> Counts {
        let mut c = Counts::default();
        let stats = m.stats();
        let perf = m.perf();
        c[C::Cycles] = stats.cycles;
        c[C::NodeCycles] = stats.cycles * m.node_count() as u64;
        c[C::NodeSteps] = perf.node_steps;
        c[C::Instructions] = stats.instructions;
        c[C::IssueProbes] = perf.issue_probes;
        c[C::FabricPackets] = stats.fabric.packets;
        c[C::FlitHops] = m.fabric_flit_hops();
        c[C::FabricLatency] = stats.fabric.total_latency;
        c[C::ContentionCycles] = stats.fabric.contention_cycles;
        c[C::BlockFetches] = stats.coherence.block_fetches;
        c[C::Invalidations] = stats.coherence.invalidations;
        c[C::CohWritebacks] = stats.coherence.writebacks;
        c[C::SyncRetries] = stats.coherence.sync_retries;
        c[C::FetchLatencyCycles] = stats.coherence.fetch_latency_cycles;
        c[C::FetchReplays] = stats.coherence.fetch_replays;
        for i in 0..m.node_count() {
            let node = m.node(i);
            let ns = node.stats();
            c[C::Loads] += ns.loads;
            c[C::Stores] += ns.stores;
            c[C::Sends] += ns.sends;
            c[C::ProtectedCalls] += ns.protected_calls;
            c[C::CswitchTransfers] += ns.cswitch_transfers;
            let ms = node.mem.stats();
            c[C::MemRequests] += ms.requests;
            c[C::BankStalls] += ms.bank_stalls;
            c[C::LtlbMissEvents] += ms.ltlb_miss_events;
            c[C::BlockStatusEvents] += ms.block_status_events;
            c[C::SyncFaultEvents] += ms.sync_fault_events;
            let cs = node.mem.cache_stats();
            c[C::ReadHits] += cs.read_hits;
            c[C::ReadMisses] += cs.read_misses;
            c[C::WriteHits] += cs.write_hits;
            c[C::WriteMisses] += cs.write_misses;
            c[C::CacheWritebacks] += cs.writebacks;
            let is = node.net.stats();
            c[C::IfaceSent] += is.sent;
            c[C::IfaceReceived] += is.received;
            c[C::CreditStalls] += is.credit_stalls;
            c[C::Returned] += is.returned_here;
        }
        c
    }
}

pub fn div(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The architectural statistics of a repetition, as ordered
/// `(name, value)` pairs: what the goldens pin and what two repetitions
/// of one seed must agree on. Host-side `MachinePerf` counters are left
/// out on purpose — an engine change may legitimately move them.
pub type Fingerprint = Vec<(String, u64)>;

fn machine_fingerprint(m: &MMachine, into: &mut Fingerprint) {
    let s = m.stats();
    let (f, c) = (&s.fabric, &s.coherence);
    let fields = [
        ("cycles", s.cycles),
        ("instructions", s.instructions),
        ("messages", s.messages),
        ("fabric.packets", f.packets),
        ("fabric.flits", f.flits),
        ("fabric.total_latency", f.total_latency),
        ("fabric.contention_cycles", f.contention_cycles),
        ("fabric.hops", f.hops),
        ("fabric.coh_packets", f.coh_packets),
        ("coherence.block_fetches", c.block_fetches),
        ("coherence.invalidations", c.invalidations),
        ("coherence.writebacks", c.writebacks),
        ("coherence.sync_retries", c.sync_retries),
        ("coherence.unknown_events", c.unknown_events),
        ("coherence.unmapped_faults", c.unmapped_faults),
        ("coherence.replay_decode_errors", c.replay_decode_errors),
        ("coherence.fetch_latency_cycles", c.fetch_latency_cycles),
        ("coherence.fetch_replays", c.fetch_replays),
    ];
    if into.is_empty() {
        into.extend(fields.map(|(k, v)| (k.to_owned(), v)));
    } else {
        // A later machine of the same repetition: field-wise sums.
        for ((_, total), (_, v)) in into.iter_mut().zip(fields) {
            *total += v;
        }
    }
}

/// One window of a traced run: a slice of the timed region bracketed by
/// counter reads.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub wall_ns: u64,
    pub node_steps: u64,
    pub cycles: u64,
    pub allocs: u64,
}

/// What the traced pass records around the benchmark's calls.
pub struct Trace {
    pub tracer: Tracer,
    pub windows: Vec<Window>,
}

/// The outcome of one repetition.
pub struct Rep {
    /// Host seconds in build + program load + data placement.
    pub setup_s: f64,
    /// Host seconds in the timed region.
    pub run_s: f64,
    /// Simulated cycles in the timed region.
    pub sim_cycles: u64,
    /// Simulated cycles per unit of work ([`Workload::op_unit`]).
    pub cycles_per_op: f64,
    pub fingerprint: Fingerprint,
    pub counts: Counts,
    /// Why the repetition counts as failed, if it does.
    pub failure: Option<String>,
}

/// Run a loaded machine to halt; returns host seconds in the run calls.
///
/// Untraced, that is one `run_until_halt`. Traced with the halt cycle
/// known (from the untraced reference repetition), the same cycles are
/// run as [`WINDOWS`] `run_cycles` calls, each its own span with the
/// counters read either side; traced without it (the suite's many small
/// machines), the whole `run_until_halt` is the one window.
fn drive(
    m: &mut MMachine,
    trace: Option<&mut Trace>,
    halt_cycles: Option<u64>,
) -> Result<f64, String> {
    let Some(trace) = trace else {
        let t0 = Instant::now();
        let halted = m.run_until_halt(CYCLE_LIMIT);
        let run_s = t0.elapsed().as_secs_f64();
        return halted.map(|_| run_s).map_err(|e| e.to_string());
    };
    let window_cycles = halt_cycles.map_or(0, |total| total.div_ceil(WINDOWS));
    let mut run_ns = 0;
    let mut before = m.counter_snapshot();
    loop {
        let allocs = alloc::allocations();
        let index = u32::try_from(trace.windows.len()).expect("window count fits u32");
        let span = trace.tracer.open("window", index);
        let halted = match halt_cycles {
            Some(total) => {
                m.run_cycles(window_cycles.min(total - before.cycles));
                Ok(())
            }
            None => m.run_until_halt(CYCLE_LIMIT).map(drop),
        };
        let wall_ns = trace.tracer.close(span);
        let allocs = alloc::allocations() - allocs;
        halted.map_err(|e| e.to_string())?;
        let after = m.counter_snapshot();
        trace.windows.push(Window {
            wall_ns,
            node_steps: after.node_steps - before.node_steps,
            cycles: after.cycles - before.cycles,
            allocs,
        });
        run_ns += wall_ns;
        before = after;
        if halt_cycles.is_none_or(|total| before.cycles >= total) {
            break;
        }
    }
    Ok(run_ns as f64 / 1e9)
}

/// Run `f` inside a span named `name` (when tracing); returns its
/// result and the host nanoseconds it took.
fn spanned<T>(
    trace: &mut Option<&mut Trace>,
    name: &'static str,
    index: u32,
    f: impl FnOnce() -> T,
) -> (T, u64) {
    let span = trace.as_mut().map(|t| t.tracer.open(name, index));
    let t0 = Instant::now();
    let out = f();
    let ns = u64::try_from(t0.elapsed().as_nanos()).expect("shorter than 584 years");
    if let (Some(t), Some(span)) = (trace.as_mut(), span) {
        t.tracer.close(span);
    }
    (out, ns)
}

/// Checks common to every machine run: nothing faulted, no event record
/// was dropped by the coherence firmware.
fn machine_ok(m: &MMachine) -> Result<(), String> {
    let faulted = m.faulted_threads();
    if !faulted.is_empty() {
        return Err(format!("faulted threads: {faulted:?}"));
    }
    let unknown = m.stats().coherence.unknown_events;
    if unknown != 0 {
        return Err(format!("coherence.unknown_events = {unknown}"));
    }
    Ok(())
}

fn check_busy(m: &MMachine, iters: u64) -> Result<(), String> {
    // r5 counts 1..=iters, r6 sums r5, r7 sums r6 (wrapping registers).
    // The remote stores are fire-and-forget — the flooded event queue
    // drops some by design — so memory holds nothing to check.
    let n = u128::from(iters);
    let want = [
        (5u8, iters),
        (6, (n * (n + 1) / 2) as u64),
        (7, (n * (n + 1) * (n + 2) / 6) as u64),
    ];
    for node in 0..m.node_count() {
        for (reg, expect) in want {
            let got = m.user_reg(node, 0, 0, reg).map_err(|e| e.to_string())?;
            if got.bits() != expect {
                return Err(format!("node {node} r{reg} = {} != {expect}", got.bits()));
            }
        }
    }
    Ok(())
}

fn check_coherence(m: &MMachine, iters: u64) -> Result<(), String> {
    for pair in 0..m.node_count() / 2 {
        let (even, odd) = (2 * pair, 2 * pair + 1);
        let base = m.home_va(even, 0);
        for off in [0u64, 1] {
            // The last writer's copy is authoritative; the partner may
            // hold a stale (invalidated) frame.
            let view = |node: usize| m.node(node).mem.peek_va(base + off).map(|w| w.word.bits());
            let freshest = view(even).max(view(odd));
            if freshest != Some(iters) {
                return Err(format!("pair {pair} word {off}: {freshest:?} != {iters}"));
            }
        }
    }
    Ok(())
}

fn check_traffic(
    counts: &Counts,
    pattern: TrafficPattern,
    nodes: u64,
    count: u64,
) -> Result<(), String> {
    let want = nodes * count;
    if counts[C::IfaceSent] != want || counts[C::IfaceReceived] != want {
        return Err(format!(
            "sent {} received {} of {want} messages",
            counts[C::IfaceSent],
            counts[C::IfaceReceived]
        ));
    }
    // The clean-path row is only a clean-path row while nothing bounces.
    if pattern == TrafficPattern::Uniform && counts[C::Returned] != 0 {
        return Err(format!("uniform traffic bounced {}", counts[C::Returned]));
    }
    Ok(())
}

/// One build → run → check cycle of a single machine; returns the host
/// seconds the build took.
fn machine_rep(
    trace: &mut Option<&mut Trace>,
    halt_cycles: Option<u64>,
    build: impl FnOnce() -> MMachine,
    check: impl FnOnce(&MMachine, &Counts) -> Result<(), String>,
    into: &mut Rep,
) -> f64 {
    let (mut m, setup_ns) = spanned(trace, "setup", 0, build);
    let setup_s = setup_ns as f64 / 1e9;
    match drive(&mut m, trace.as_deref_mut(), halt_cycles) {
        Ok(run_s) => into.run_s += run_s,
        Err(e) => {
            into.failure.get_or_insert(e);
            return setup_s;
        }
    }
    spanned(trace, "check", 0, || {
        machine_fingerprint(&m, &mut into.fingerprint);
        into.sim_cycles += m.cycle();
        into.counts += Counts::of(&m);
        // Outside the timed region, the fingerprint and the counts.
        m.run_cycles(DRAIN_CYCLES);
        if let Err(e) = machine_ok(&m).and_then(|()| check(&m, &Counts::of(&m))) {
            into.failure.get_or_insert(e);
        }
        drop(m);
    });
    setup_s
}

/// Idle time before a timed set-up that would otherwise follow another
/// build immediately. Back-to-back builds recycle the same memory while
/// it may still sit in the host's (shared, 260 MiB) last-level cache, and
/// their time then follows the neighbours' cache use: the suite's
/// thirteen builds took 0.07–0.21 s from one quarter of an hour to the
/// next, 0.21–0.24 s with each started cold. The single-machine
/// workloads have a whole run between two builds and need no help.
const COLD_IDLE: Duration = Duration::from_millis(50);

/// Let [`COLD_IDLE`] go by, as an "idle" span when tracing. Spinning,
/// not sleeping: a sleeping core drops its clock, and the timed region
/// that follows the set-up then ran a third slower for minutes on end
/// (`paper_artifacts` at 20k instead of 30k cycles/s).
fn cold_idle(trace: &mut Option<&mut Trace>) {
    spanned(trace, "idle", 0, || {
        let t0 = Instant::now();
        while t0.elapsed() < COLD_IDLE {
            std::hint::spin_loop();
        }
    });
}

impl Plan {
    /// Run one repetition. `trace` is `Some` only in the traced pass;
    /// `halt_cycles` is the halt cycle a previous untraced repetition of
    /// the same plan reported.
    pub fn repetition(&self, mut trace: Option<&mut Trace>, halt_cycles: Option<u64>) -> Rep {
        let mut rep = Rep {
            setup_s: 0.0,
            run_s: 0.0,
            sim_cycles: 0,
            cycles_per_op: 0.0,
            fingerprint: Vec::new(),
            counts: Counts::default(),
            failure: None,
        };
        let trace = &mut trace;
        match *self {
            Plan::Busy { dims, iters } => {
                rep.setup_s = machine_rep(
                    trace,
                    halt_cycles,
                    || build_busy_scenario(dims, iters, Some(1)),
                    |m, _| check_busy(m, iters),
                    &mut rep,
                );
                rep.cycles_per_op = div(rep.sim_cycles, iters);
            }
            Plan::Coherence { dims, iters } => {
                rep.setup_s = machine_rep(
                    trace,
                    halt_cycles,
                    || build_coherence_scenario(dims, iters, Some(1)),
                    |m, _| check_coherence(m, iters),
                    &mut rep,
                );
                rep.cycles_per_op = div(rep.sim_cycles, iters);
            }
            Plan::Traffic { pattern, count } => {
                rep.setup_s = machine_rep(
                    trace,
                    halt_cycles,
                    || build_traffic_scenario(pattern, 0, count, Some(1)),
                    |m, c| check_traffic(c, pattern, m.node_count() as u64, count),
                    &mut rep,
                );
                rep.cycles_per_op = div(rep.sim_cycles, count);
            }
            Plan::Suite {
                passes,
                ref reference,
            } => {
                for (kind, (passes, want)) in WorkloadKind::ALL
                    .into_iter()
                    .zip(passes.into_iter().zip(reference.iter()))
                {
                    for pass in 0..passes {
                        // `setup_s` is each kernel's first build, cold.
                        if pass == 0 {
                            cold_idle(trace);
                        }
                        let setup_s = machine_rep(
                            trace,
                            None,
                            || build_workload(kind, Some(1)),
                            |m, c| check_kernel(m, c, want),
                            &mut rep,
                        );
                        if pass == 0 {
                            rep.setup_s += setup_s;
                        }
                    }
                }
                rep.cycles_per_op = 1e3 * rep.counts.ratio(C::Cycles, C::Instructions);
            }
            Plan::Artifacts { fig6_iters } => artifacts_rep(trace, fig6_iters, &mut rep),
        }
        rep
    }
}

/// A timed kernel pass must reproduce what `mm-bench`'s checked run of
/// the same builder measured (that run compares the kernel's output
/// with a host-side reference and panics on a mismatch).
fn check_kernel(m: &MMachine, counts: &Counts, want: &WorkloadPoint) -> Result<(), String> {
    let got = (
        m.stats().cycles,
        m.stats().messages,
        counts[C::ProtectedCalls],
        counts[C::SyncRetries],
    );
    // `mm-bench` reads its cycle count after the same drain.
    let expect = (
        want.cycles,
        want.messages,
        want.protected_calls,
        want.sync_retries,
    );
    if got == expect {
        Ok(())
    } else {
        Err(format!(
            "{}: (cycles, messages, protected calls, sync retries) {got:?} != verified run's {expect:?}",
            want.kind.name()
        ))
    }
}

/// Paper's Table 1 column, (read, write) per row, for `rel_err`.
pub fn table1_rel_err(rows: &[mm_bench::Table1Row]) -> f64 {
    let cell = |sim: u64, paper: u64| (sim as f64 - paper as f64).abs() / paper as f64;
    let sum: f64 = rows
        .iter()
        .map(|r| cell(r.read_measured, r.read_paper) + cell(r.write_measured, r.write_paper))
        .sum();
    sum / (2 * rows.len()) as f64
}

/// One pass over the eight artifact functions, each its own window when
/// tracing. Returns the reported simulated cycles as named cells.
fn artifact_round(
    trace: &mut Option<&mut Trace>,
    fig6_iters: u64,
    run_ns: &mut u64,
) -> Fingerprint {
    let mut cells: Fingerprint = Vec::new();
    let mut timed = |cells: &mut Fingerprint, f: &mut dyn FnMut(&mut Fingerprint)| {
        let index = trace.as_ref().map_or(0, |t| t.windows.len() as u32);
        let allocs = alloc::allocations();
        let ((), wall_ns) = spanned(trace, "window", index, || f(cells));
        *run_ns += wall_ns;
        if let Some(t) = trace.as_mut() {
            // The artifact machines are not reachable from outside, so
            // a window here has a wall time and nothing else.
            t.windows.push(Window {
                wall_ns,
                node_steps: 0,
                cycles: 0,
                allocs: alloc::allocations() - allocs,
            });
        }
    };
    timed(&mut cells, &mut |cells| {
        for r in mm_bench::table1() {
            cells.push((format!("table1.{}.read", r.access), r.read_measured));
            cells.push((format!("table1.{}.write", r.access), r.write_measured));
        }
    });
    for write in [false, true] {
        timed(&mut cells, &mut |cells| {
            let kind = if write { "write" } else { "read" };
            for p in mm_bench::fig9(write) {
                cells.push((format!("fig9.{kind}.{}", p.label), p.measured));
            }
        });
    }
    timed(&mut cells, &mut |cells| {
        for r in mm_bench::fig5() {
            let key = format!("fig5.n{}.t{}", r.neighbours, r.threads);
            cells.push((format!("{key}.correct"), u64::from(r.correct)));
            cells.push((format!("{key}.cycles"), r.cycles));
        }
    });
    timed(&mut cells, &mut |cells| {
        let r = mm_bench::fig6(fig6_iters);
        cells.push(("fig6.pair_cycles".to_owned(), r.pair_cycles));
        cells.push(("fig6.barrier4_cycles".to_owned(), r.barrier4_cycles));
    });
    timed(&mut cells, &mut |cells| {
        for r in mm_bench::interleave() {
            cells.push((format!("interleave.v{}.cycles", r.vthreads), r.cycles));
        }
    });
    timed(&mut cells, &mut |cells| {
        for r in mm_bench::network_sweep() {
            cells.push((format!("network.h{}.latency", r.hops), r.latency));
        }
    });
    timed(&mut cells, &mut |cells| {
        let r = mm_bench::page_mode_ablation();
        cells.push(("page_mode.read_on".to_owned(), r.read_on));
        cells.push(("page_mode.read_off".to_owned(), r.read_off));
    });
    timed(&mut cells, &mut |cells| {
        let r = mm_bench::throttle_ablation();
        cells.push(("throttle.credits_16".to_owned(), r.cycles_credits_16));
        cells.push(("throttle.credits_2".to_owned(), r.cycles_credits_2));
    });
    cells
}

fn check_artifacts(cells: &Fingerprint) -> Result<(), String> {
    let get = |key: &str| {
        cells
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("artifact cell {key} missing"))
    };
    // The two local-hit cells are pinned exactly by the repo's own
    // `table1_shape` test; the rest only have to be sane.
    if (
        get("table1.Local Cache Hit.read")?,
        get("table1.Local Cache Hit.write")?,
    ) != (3, 2)
    {
        return Err("Table 1 local cache hit is not 3 / 2 cycles".to_owned());
    }
    if let Some((k, _)) = cells
        .iter()
        .find(|(k, v)| *v == 0 && !k.ends_with("issues"))
    {
        return Err(format!("artifact cell {k} is 0"));
    }
    for h in 1..7 {
        if get(&format!("network.h{h}.latency"))? >= get(&format!("network.h{}.latency", h + 1))? {
            return Err("network latency is not monotone in hops".to_owned());
        }
    }
    if get("page_mode.read_on")? >= get("page_mode.read_off")? {
        return Err("page mode does not help".to_owned());
    }
    if get("throttle.credits_16")? >= get("throttle.credits_2")? {
        return Err("scarce credits do not throttle".to_owned());
    }
    Ok(())
}

fn artifacts_rep(trace: &mut Option<&mut Trace>, fig6_iters: u64, rep: &mut Rep) {
    // The artifact functions build their machines themselves, so their
    // set-up cannot be separated from outside. `setup_s` is the unit
    // they repeat dozens of times per round: one cold default machine.
    cold_idle(trace);
    let (machine, setup_ns) = spanned(trace, "setup", 0, || {
        MMachine::build(MachineConfig::small()).expect("default config is valid")
    });
    drop(machine);
    rep.setup_s = setup_ns as f64 / 1e9;
    let mut run_ns = 0;
    rep.fingerprint = artifact_round(trace, fig6_iters, &mut run_ns);
    rep.run_s = run_ns as f64 / 1e9;
    rep.failure = check_artifacts(&rep.fingerprint).err();
    // Reported simulated cycles: every cell but the `correct` flags.
    let cycles = |k: &str| !k.ends_with(".correct");
    let reported = rep.fingerprint.iter().filter(|(k, _)| cycles(k));
    rep.sim_cycles = reported.clone().map(|(_, v)| v).sum();
    rep.cycles_per_op = reported
        .map(|(k, v)| {
            let scale = if k.starts_with("fig6.") {
                100.0 / fig6_iters as f64
            } else {
                1.0
            };
            *v as f64 * scale
        })
        .sum();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn main_size(p: &Plan) -> u64 {
        match *p {
            Plan::Busy { iters, .. } | Plan::Coherence { iters, .. } => iters,
            Plan::Traffic { count, .. } => count,
            Plan::Artifacts { fig6_iters } => fig6_iters,
            Plan::Suite { .. } => unreachable!("not sized by one number"),
        }
    }

    #[test]
    fn seeds_perturb_sizes_by_at_most_three_percent() {
        for w in Workload::ALL {
            if w == Workload::KernelSuite4 {
                continue; // its plan runs machines; covered by tests/quick.rs
            }
            let base = w.base_size() as f64;
            let sizes: Vec<u64> = (0..50)
                .map(|seed| main_size(&w.plan(seed, false)))
                .collect();
            // Rounding to a whole count may add half a unit to the 3 %.
            assert!(
                sizes
                    .iter()
                    .all(|&s| (s as f64 - base).abs() <= 0.03 * base + 0.5),
                "{w:?} {sizes:?}"
            );
            assert_eq!(main_size(&w.plan(7, false)), main_size(&w.plan(7, false)));
            let mut distinct = sizes.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert!(distinct.len() >= 5, "{w:?}: seeds barely vary the size");
        }
    }

    #[test]
    fn names_round_trip_and_whys_fit_the_contract() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.why().len()
            );
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
