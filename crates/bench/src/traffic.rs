//! Synthetic fabric traffic generator: the three classic patterns
//! (uniform random-ish round-robin, hotspot, transpose) at configurable
//! injection rates, charting saturation throughput and the
//! return-to-sender backoff the M-Machine uses instead of deadlocking
//! (§4.2: a message that cannot be sunk is returned to its sender and
//! re-injected after a backoff).
//!
//! [`run_traffic`] runs one pattern under the serial and the parallel
//! engine and diffs their [`MachineStats`] — a fabric-determinism check
//! at injection rates the coherence workloads never reach.

use mm_core::machine::{MMachine, MachineConfig, MachineStats};
use mm_isa::pointer::Perm;
use mm_isa::reg::Reg;
use mm_isa::word::Word;
use mm_mem::MemWord;
use mm_runtime::workloads::{traffic_node, traffic_sink_off, TrafficDest};

/// Mesh every traffic pattern runs on (transpose needs the 2×2 face).
pub const TRAFFIC_DIMS: (u8, u8, u8) = (2, 2, 1);
const NODES: usize = 4;

/// Cycle budget for one traffic run.
pub const RUN_LIMIT: u64 = 2_000_000;

/// The injection pattern of one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficPattern {
    /// Round-robin over all nodes, offset by the sender — the uniform
    /// load every fabric chart starts from.
    Uniform,
    /// Everyone hammers node 0 — the saturation / backoff case.
    Hotspot,
    /// (x, y) → (y, x) on the 2×2 face — a permutation with no
    /// endpoint contention, isolating link contention.
    Transpose,
}

impl TrafficPattern {
    /// The BENCH row label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TrafficPattern::Uniform => "uniform",
            TrafficPattern::Hotspot => "hotspot",
            TrafficPattern::Transpose => "transpose",
        }
    }

    fn dest(self, me: usize) -> TrafficDest {
        match self {
            TrafficPattern::Uniform => TrafficDest::RoundRobin { start: me },
            TrafficPattern::Hotspot => TrafficDest::Fixed(0),
            TrafficPattern::Transpose => {
                let (x, y) = (me % 2, me / 2);
                TrafficDest::Fixed(y + 2 * x)
            }
        }
    }
}

/// One traffic row's run.
#[derive(Debug, Clone)]
pub struct TrafficPoint {
    /// Injection pattern.
    pub pattern: TrafficPattern,
    /// Idle cycles between injections.
    pub gap: u32,
    /// Node count.
    pub nodes: usize,
    /// Messages injected per node.
    pub count: u64,
    /// Cycles to drain the pattern.
    pub cycles: u64,
    /// Messages injected machine-wide (first sends only).
    pub injected: u64,
    /// Messages received machine-wide (includes re-injections).
    pub delivered: u64,
    /// Messages bounced back to their sender (§4.2 backoff).
    pub returned: u64,
    /// Cycles a sender stalled on exhausted credit.
    pub credit_stalls: u64,
    /// Deliveries per thousand simulated cycles — the saturation chart's
    /// y-axis.
    pub delivered_per_kcycle: f64,
    /// Did serial and parallel produce identical [`MachineStats`]?
    pub stats_match: bool,
}

fn poke(m: &mut MMachine, node: usize, va: u64, w: Word) {
    assert!(
        m.node_mut(node).mem.poke_va(va, MemWord::new(w)),
        "poke at unmapped va {va:#x} on node {node}"
    );
}

/// Build one traffic row's machine.
///
/// # Panics
///
/// Panics if a program fails to load (layout bug).
#[must_use]
pub fn build_traffic_scenario(
    pattern: TrafficPattern,
    gap: u32,
    count: u64,
    workers: Option<usize>,
) -> MMachine {
    let mut cfg = MachineConfig::with_dims(TRAFFIC_DIMS.0, TRAFFIC_DIMS.1, TRAFFIC_DIMS.2);
    cfg.engine.workers = workers;
    cfg.trace = false;
    let mut m = MMachine::build(cfg).expect("valid config");
    for me in 0..NODES {
        let prog = traffic_node(pattern.dest(me), NODES, gap, count);
        m.load_user_program(me, 0, &prog).unwrap();
        for d in 0..NODES {
            let sink = m.home_va(d, 0) + traffic_sink_off(me);
            let cap = m.make_ptr(Perm::ReadWrite, 0, sink).expect("sink cap");
            let slot = m.home_va(me, 1) + d as u64;
            poke(&mut m, me, slot, cap);
        }
        m.set_user_reg(me, 0, 0, Reg::Int(1), m.home_ptr(me, 1));
        m.set_user_reg(me, 0, 0, Reg::Int(11), m.image().write_dip);
    }
    m
}

struct TrafficRun {
    stats: MachineStats,
    injected: u64,
    delivered: u64,
    returned: u64,
    credit_stalls: u64,
}

fn run_one(pattern: TrafficPattern, gap: u32, count: u64, workers: Option<usize>) -> TrafficRun {
    let mut m = build_traffic_scenario(pattern, gap, count, workers);
    m.run_until_halt(RUN_LIMIT).expect("traffic drains");
    m.run_cycles(256); // drain in-flight bounces
    assert!(
        m.faulted_threads().is_empty(),
        "{}: faulted threads {:?}",
        pattern.name(),
        m.faulted_threads()
    );
    let iface =
        |f: fn(&mm_net::IfaceStats) -> u64| (0..NODES).map(|i| f(&m.node(i).net.stats())).sum();
    let injected: u64 = iface(|s| s.sent);
    assert_eq!(
        injected,
        NODES as u64 * count,
        "{}: not every SEND injected",
        pattern.name()
    );
    let stats = m.stats();
    assert_eq!(
        stats.coherence.unknown_events,
        0,
        "{}: dropped event records",
        pattern.name()
    );
    TrafficRun {
        stats,
        injected,
        delivered: iface(|s| s.received),
        returned: iface(|s| s.returned_here),
        credit_stalls: iface(|s| s.credit_stalls),
    }
}

/// Run one traffic row under both engines and diff their stats.
///
/// # Panics
///
/// Panics if the pattern fails to drain within [`RUN_LIMIT`] cycles, a
/// thread faults, or a SEND never injected.
#[must_use]
pub fn run_traffic(
    pattern: TrafficPattern,
    gap: u32,
    count: u64,
    workers: Option<usize>,
) -> TrafficPoint {
    let serial = run_one(pattern, gap, count, Some(1));
    let parallel = run_one(pattern, gap, count, workers);
    #[allow(clippy::cast_precision_loss)]
    TrafficPoint {
        pattern,
        gap,
        nodes: NODES,
        count,
        cycles: serial.stats.cycles,
        injected: serial.injected,
        delivered: serial.delivered,
        returned: serial.returned,
        credit_stalls: serial.credit_stalls,
        delivered_per_kcycle: serial.delivered as f64 / (serial.stats.cycles as f64 / 1e3),
        stats_match: serial.stats == parallel.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hotspot_saturates_and_uniform_does_not() {
        let hot = run_traffic(TrafficPattern::Hotspot, 0, 16, Some(2));
        assert!(hot.stats_match, "hotspot engines disagreed");
        assert_eq!(hot.injected, NODES as u64 * 16);
        assert!(hot.delivered > 0);
        let uni = run_traffic(TrafficPattern::Uniform, 8, 16, Some(2));
        assert!(uni.stats_match, "uniform engines disagreed");
        // A paced uniform pattern must not bounce: the fabric is below
        // saturation, so backoff counters stay at zero.
        assert_eq!(uni.returned, 0, "uniform at gap 8 bounced");
    }
}
