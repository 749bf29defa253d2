//! Node configuration: unit latencies, switch widths, queue depths —
//! plus the host-side [`EngineConfig`] (how the cycle engine maps the
//! simulated mesh onto worker threads).

use mm_mem::memsys::MemConfig;
use mm_net::iface::IfaceConfig;
use std::sync::OnceLock;

/// V-Thread slots resident on a MAP ("enough resources to hold the state
/// of six V-Threads", §3.2).
pub const NUM_SLOTS: usize = 6;
/// User thread slots (0..4).
pub const USER_SLOTS: usize = 4;
/// The event V-Thread's slot.
pub const EVENT_SLOT: usize = 4;
/// The exception V-Thread's slot.
pub const EXCEPTION_SLOT: usize = 5;
/// Clusters per MAP chip.
pub const NUM_CLUSTERS: usize = 4;

/// Per-node configuration.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Memory-system configuration. Note: the `mm-mem` latencies are
    /// measured from the bank-queue pop; the node pipeline adds one cycle
    /// of M-Switch traversal between issue and pop, so the architectural
    /// numbers (3-cycle load hit, etc.) hold end-to-end.
    pub mem: MemConfig,
    /// Network-interface configuration.
    pub iface: IfaceConfig,
    /// Integer ALU latency.
    pub int_latency: u64,
    /// FP add/sub/mul latency (pipelined).
    pub fp_latency: u64,
    /// FP divide latency.
    pub fp_div_latency: u64,
    /// Integer divide latency.
    pub int_div_latency: u64,
    /// Fetch bubble after a taken branch (stands in for the paper's
    /// branch delay slots, Fig. 6).
    pub branch_bubble: u64,
    /// Extra cycles for an inter-cluster register write (C-Switch hop).
    pub cswitch_latency: u64,
    /// C-Switch transfers per cycle ("up to four transfers per cycle", §2).
    pub cswitch_width: usize,
    /// GTLB probe latency (the `gprobe` privileged op).
    pub gprobe_latency: u64,
    /// Event-queue capacity per handler class, in records.
    pub event_queue_records: usize,
}

impl Default for NodeConfig {
    fn default() -> NodeConfig {
        NodeConfig {
            mem: MemConfig {
                // Shift hit/miss front-end latencies down by the one cycle
                // the node charges for issue→bank traversal (see above).
                read_hit_latency: 2,
                write_hit_latency: 1,
                miss_detect: 1,
                translate_latency: 1,
                phys_read_latency: 2,
                phys_write_latency: 1,
                ..MemConfig::default()
            },
            iface: IfaceConfig::default(),
            int_latency: 1,
            fp_latency: 3,
            fp_div_latency: 12,
            int_div_latency: 8,
            branch_bubble: 2,
            cswitch_latency: 1,
            cswitch_width: 4,
            gprobe_latency: 2,
            event_queue_records: 64,
        }
    }
}

/// Nodes a worker shard must hold before auto-detection adds another
/// worker thread: below this, barrier costs outweigh the parallel node
/// phase, so small meshes stay serial.
pub const MIN_NODES_PER_WORKER: usize = 8;

/// Host-execution configuration for the cycle engine: how the
/// simulation runs, not what it simulates. Simulated behaviour is
/// bit-identical for every worker count — the machine-level engine
/// replays cross-shard effects behind one barrier per window in
/// per-cycle, node-index order — so this knob trades host threads for
/// wall-clock only.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads for the parallel node phase. `None` auto-detects:
    /// host parallelism, capped so every worker keeps at least
    /// [`MIN_NODES_PER_WORKER`] nodes (small meshes resolve to serial).
    /// `Some(w)` forces `w`, clamped to `1..=nodes` — `Some(1)` is the
    /// serial engine, and `workers > nodes` degrades to one node per
    /// worker.
    pub workers: Option<usize>,
}

impl EngineConfig {
    /// Serial execution (`workers = 1`), the reference engine.
    #[must_use]
    pub fn serial() -> EngineConfig {
        EngineConfig { workers: Some(1) }
    }

    /// The worker count to actually run with on a `nodes`-node mesh.
    /// Always at least 1 and at most `nodes`.
    #[must_use]
    pub fn resolved_workers(&self, nodes: usize) -> usize {
        let cap = nodes.max(1);
        match self.workers {
            Some(w) => w.clamp(1, cap),
            None => host_parallelism()
                .min(nodes / MIN_NODES_PER_WORKER)
                .clamp(1, cap),
        }
    }
}

/// Host parallelism, probed once per process: the probe reads the
/// affinity mask and the cgroup CPU quota files, which cost more than
/// building a small machine and do not change under a running simulator.
fn host_parallelism() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    *AVAILABLE
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_workers_clamp_to_mesh() {
        let one = EngineConfig { workers: Some(8) };
        assert_eq!(
            one.resolved_workers(1),
            1,
            "workers > nodes degrades to serial"
        );
        assert_eq!(one.resolved_workers(4), 4);
        assert_eq!(one.resolved_workers(512), 8);
        assert_eq!(EngineConfig { workers: Some(0) }.resolved_workers(4), 1);
        assert_eq!(EngineConfig::serial().resolved_workers(512), 1);
    }

    #[test]
    fn auto_detection_keeps_small_meshes_serial() {
        let auto = EngineConfig::default();
        for nodes in [1, 2, 4, MIN_NODES_PER_WORKER - 1] {
            assert_eq!(auto.resolved_workers(nodes), 1, "{nodes} nodes");
        }
        let big = auto.resolved_workers(512);
        assert!((1..=512 / MIN_NODES_PER_WORKER).contains(&big));
    }

    #[test]
    fn defaults_match_paper_shape() {
        let c = NodeConfig::default();
        assert_eq!(NUM_SLOTS, 6);
        assert_eq!(USER_SLOTS, 4);
        assert_eq!(NUM_CLUSTERS, 4);
        assert_eq!(c.cswitch_width, 4);
        assert_eq!(c.mem.read_hit_latency + 1, 3, "3-cycle load hit end-to-end");
        assert_eq!(
            c.mem.write_hit_latency + 1,
            2,
            "2-cycle store hit end-to-end"
        );
    }
}
