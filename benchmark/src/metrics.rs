//! The metric declarations — the one table `BENCHMARK.json` mirrors
//! (the integration test keeps the two equal) — and the derivation of
//! the per-layer metrics from what a traced run measured.

use crate::layers::Measured;
use crate::stats::{highest_supported_percentile, percentile};
use crate::workloads::{div, Counts, Window, C};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: measured with tracing off, on every workload.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median by which the metric may worsen before
    /// `compare` (and the PR driver) call it a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "sim_cycles_per_s",
        unit: "cycles/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "sim_cycles_per_op",
        unit: "cycles/op",
        better: Better::Lower,
        bound: 0.03,
    },
];

/// `(name, unit, better)` of every per-layer metric, in report order.
pub const PER_LAYER: [(&str, &str, Better); 66] = {
    use Better::{Higher, Lower};
    [
        // Exact counts read at halt; they repeat bit-for-bit.
        ("core.engine.node_steps", "count", Lower),
        ("core.engine.awake_fraction", "ratio", Lower),
        ("core.engine.sim_ipc", "instr/cycle", Higher),
        ("sim.node.instructions", "count", Lower),
        ("sim.node.issue_probes", "count", Lower),
        ("sim.node.issue_hit_rate", "ratio", Higher),
        ("sim.node.loads", "count", Lower),
        ("sim.node.stores", "count", Lower),
        ("sim.node.sends", "count", Lower),
        ("sim.node.protected_calls", "count", Lower),
        ("sim.node.cswitch_transfers", "count", Lower),
        ("mem.memsys.requests", "count", Lower),
        ("mem.memsys.bank_stalls", "count", Lower),
        ("mem.memsys.ltlb_miss_events", "count", Lower),
        ("mem.memsys.block_status_events", "count", Lower),
        ("mem.memsys.sync_fault_events", "count", Lower),
        ("mem.cache.read_hit_rate", "ratio", Higher),
        ("mem.cache.write_hit_rate", "ratio", Higher),
        ("mem.cache.writebacks", "count", Lower),
        ("net.fabric.packets", "count", Lower),
        ("net.fabric.flit_hops", "count", Lower),
        ("net.fabric.avg_latency_cycles", "cycles", Lower),
        ("net.fabric.contention_cycles", "cycles", Lower),
        ("net.iface.sent", "count", Lower),
        ("net.iface.credit_stalls", "count", Lower),
        ("net.iface.returned", "count", Lower),
        ("core.coherence.block_fetches", "count", Lower),
        ("core.coherence.invalidations", "count", Lower),
        ("core.coherence.writebacks", "count", Lower),
        ("core.coherence.sync_retries", "count", Lower),
        ("core.coherence.fetch_latency_avg_cycles", "cycles", Lower),
        // Host-time figures of the traced repetition.
        ("core.engine.host_ns_per_node_step", "ns", Lower),
        ("core.engine.sim_instr_per_s", "1/s", Higher),
        ("core.engine.window_ns_per_step_p50", "ns", Lower),
        ("core.engine.window_ns_per_step_p80", "ns", Lower),
        ("core.engine.allocs_per_kcycle", "1/kcycle", Lower),
        ("trace.overhead_pct", "%", Lower),
        // Isolated layer drivers.
        ("sim.node.step_busy_ns", "ns", Lower),
        ("sim.node.step_blocked_ns", "ns", Lower),
        ("mem.memsys.hit_ns_per_access", "ns", Lower),
        ("mem.memsys.miss_ns_per_access", "ns", Lower),
        ("mem.secded.codec_ns", "ns", Lower),
        ("net.fabric.inject_deliver_ns_per_packet", "ns", Lower),
        ("net.iface.send_deliver_ns_per_msg", "ns", Lower),
        ("net.gtlb.probe_ns", "ns", Lower),
        ("sched.ready_queue.push_pop_ns", "ns", Lower),
        ("sched.ladder.min_deadline_ns", "ns", Lower),
        ("sched.ladder.set_slot_ns", "ns", Lower),
        ("telemetry.sample_ns", "ns", Lower),
        ("telemetry.overhead_pct", "%", Lower),
        ("core.machine.build_ms_per_node", "ms", Lower),
        ("core.snapshot.checkpoint_ms", "ms", Lower),
        ("core.snapshot.restore_ms", "ms", Lower),
        ("core.snapshot.image_mib", "MiB", Lower),
        ("core.shard.w2_speedup", "ratio", Higher),
        ("runtime.image.build_ms", "ms", Lower),
        ("isa.assemble.us_per_instr", "us", Lower),
        ("core.engine.idle_ff_cycles_per_s", "cycles/s", Higher),
        ("core.engine.dense_over_engine", "ratio", Higher),
        ("bench.artifacts.round_ms", "ms", Lower),
        ("bench.table1.rel_err", "ratio", Lower),
        // Outside-in attribution of the traced repetition's wall time.
        ("est.share.sim_node", "ratio", Lower),
        ("est.share.mem", "ratio", Lower),
        ("est.share.net", "ratio", Lower),
        ("est.share.unattributed", "ratio", Lower),
        // Share of a repetition span its setup/window/check spans cover.
        ("trace.window_coverage", "ratio", Higher),
    ]
};

/// What a traced run measured, before derivation.
pub struct TracedRun<'a> {
    /// Counters of the traced repetition at halt.
    pub counts: &'a Counts,
    /// Its windows.
    pub windows: &'a [Window],
    /// Host seconds in its timed region.
    pub run_s: f64,
    /// Host seconds in the untraced reference repetition's timed region.
    pub untraced_run_s: f64,
    /// Whether the workload's machines are reachable from outside (the
    /// paper-artifact functions keep theirs to themselves).
    pub machine_visible: bool,
    pub drivers: &'a [Measured],
    /// Minimum share of a repetition span covered by its children.
    pub window_coverage: f64,
}

/// Every per-layer metric, in [`PER_LAYER`] order; `None` = not
/// measurable here.
pub fn per_layer(t: &TracedRun) -> Vec<(&'static str, Option<f64>)> {
    let c = t.counts;
    let seen = |v: f64| t.machine_visible.then_some(v);
    let count = |k: C| seen(c[k] as f64);
    let driver = |name: &str| {
        t.drivers
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| *v)
    };
    let wall_ns = t.run_s * 1e9;

    // Per-window host ns per node-step; the warm three quarters of the
    // windows carry the allocation figure.
    let per_step: Vec<f64> = t
        .windows
        .iter()
        .filter(|w| w.node_steps > 0)
        .map(|w| w.wall_ns as f64 / w.node_steps as f64)
        .collect();
    let pct = |p: u32| {
        let supported = highest_supported_percentile(per_step.len()).is_some_and(|top| top >= p);
        supported.then(|| percentile(&per_step, f64::from(p)))
    };
    let warm = &t.windows[t.windows.len() / 4..];
    let warm_cycles: u64 = warm.iter().map(|w| w.cycles).sum();
    let warm_allocs: u64 = warm.iter().map(|w| w.allocs).sum();

    // Outside-in attribution: counts × isolated per-operation costs.
    let reads = c[C::ReadHits] + c[C::ReadMisses];
    let writes = c[C::WriteHits] + c[C::WriteMisses];
    let hit_rate = div(c[C::ReadHits] + c[C::WriteHits], reads + writes);
    let share = |ops: u64, ns: Option<f64>| {
        ns.filter(|_| t.machine_visible && wall_ns > 0.0)
            .map(|ns| ops as f64 * ns / wall_ns)
    };
    let node_share = share(c[C::NodeSteps], driver("sim.node.step_busy_ns"));
    let mem_ns = driver("mem.memsys.hit_ns_per_access")
        .zip(driver("mem.memsys.miss_ns_per_access"))
        .map(|(hit, miss)| hit_rate * hit + (1.0 - hit_rate) * miss);
    let mem_share = share(c[C::MemRequests], mem_ns);
    let net_share = share(
        c[C::FabricPackets],
        driver("net.fabric.inject_deliver_ns_per_packet"),
    );
    let unattributed = node_share
        .zip(mem_share)
        .zip(net_share)
        .map(|((n, m), f)| 1.0 - n - m - f);

    let derived: Vec<(&'static str, Option<f64>)> = vec![
        ("core.engine.node_steps", count(C::NodeSteps)),
        (
            "core.engine.awake_fraction",
            seen(c.ratio(C::NodeSteps, C::NodeCycles)),
        ),
        (
            "core.engine.sim_ipc",
            seen(c.ratio(C::Instructions, C::Cycles)),
        ),
        ("sim.node.instructions", count(C::Instructions)),
        ("sim.node.issue_probes", count(C::IssueProbes)),
        (
            "sim.node.issue_hit_rate",
            seen(c.ratio(C::Instructions, C::IssueProbes)),
        ),
        ("sim.node.loads", count(C::Loads)),
        ("sim.node.stores", count(C::Stores)),
        ("sim.node.sends", count(C::Sends)),
        ("sim.node.protected_calls", count(C::ProtectedCalls)),
        ("sim.node.cswitch_transfers", count(C::CswitchTransfers)),
        ("mem.memsys.requests", count(C::MemRequests)),
        ("mem.memsys.bank_stalls", count(C::BankStalls)),
        ("mem.memsys.ltlb_miss_events", count(C::LtlbMissEvents)),
        (
            "mem.memsys.block_status_events",
            count(C::BlockStatusEvents),
        ),
        ("mem.memsys.sync_fault_events", count(C::SyncFaultEvents)),
        ("mem.cache.read_hit_rate", seen(div(c[C::ReadHits], reads))),
        (
            "mem.cache.write_hit_rate",
            seen(div(c[C::WriteHits], writes)),
        ),
        ("mem.cache.writebacks", count(C::CacheWritebacks)),
        ("net.fabric.packets", count(C::FabricPackets)),
        ("net.fabric.flit_hops", count(C::FlitHops)),
        (
            "net.fabric.avg_latency_cycles",
            seen(c.ratio(C::FabricLatency, C::FabricPackets)),
        ),
        ("net.fabric.contention_cycles", count(C::ContentionCycles)),
        ("net.iface.sent", count(C::IfaceSent)),
        ("net.iface.credit_stalls", count(C::CreditStalls)),
        ("net.iface.returned", count(C::Returned)),
        ("core.coherence.block_fetches", count(C::BlockFetches)),
        ("core.coherence.invalidations", count(C::Invalidations)),
        ("core.coherence.writebacks", count(C::CohWritebacks)),
        ("core.coherence.sync_retries", count(C::SyncRetries)),
        (
            "core.coherence.fetch_latency_avg_cycles",
            seen(c.ratio(C::FetchLatencyCycles, C::FetchReplays)),
        ),
        (
            "core.engine.host_ns_per_node_step",
            seen(wall_ns / c[C::NodeSteps].max(1) as f64),
        ),
        (
            "core.engine.sim_instr_per_s",
            seen(c[C::Instructions] as f64 / t.run_s),
        ),
        ("core.engine.window_ns_per_step_p50", pct(50)),
        ("core.engine.window_ns_per_step_p80", pct(80)),
        (
            "core.engine.allocs_per_kcycle",
            (warm_cycles > 0).then(|| warm_allocs as f64 * 1e3 / warm_cycles as f64),
        ),
        (
            "trace.overhead_pct",
            Some((t.run_s / t.untraced_run_s - 1.0) * 100.0),
        ),
    ];
    let tail: [(&'static str, Option<f64>); 5] = [
        ("est.share.sim_node", node_share),
        ("est.share.mem", mem_share),
        ("est.share.net", net_share),
        ("est.share.unattributed", unattributed),
        ("trace.window_coverage", Some(t.window_coverage)),
    ];
    let out: Vec<_> = derived
        .into_iter()
        .chain(t.drivers.iter().copied())
        .chain(tail)
        .collect();
    assert!(
        out.iter()
            .map(|(n, _)| *n)
            .eq(PER_LAYER.iter().map(|(n, _, _)| *n)),
        "derived metrics and PER_LAYER disagree"
    );
    out
}
