//! Node configuration: unit latencies, switch widths, queue depths.

use mm_mem::memsys::MemConfig;
use mm_net::iface::IfaceConfig;

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

#[cfg(test)]
mod tests {
    use super::*;

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
