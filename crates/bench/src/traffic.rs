//! Synthetic fabric traffic generator: the three classic patterns
//! (uniform random-ish round-robin, hotspot, transpose) at configurable
//! injection rates, charting saturation throughput and the
//! return-to-sender backoff the M-Machine uses instead of deadlocking
//! (§4.2: a message that cannot be sunk is returned to its sender and
//! re-injected after a backoff).
//!
//! [`traffic_config`] is the scenario's machine, [`load_traffic_scenario`]
//! loads one pattern onto it and [`check_traffic`] verifies a finished
//! run.

use mm_core::machine::{MMachine, MachineConfig};
use mm_isa::pointer::Perm;
use mm_isa::reg::Reg;
use mm_isa::word::Word;
use mm_mem::MemWord;
use mm_net::IfaceStats;
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

fn poke(m: &mut MMachine, node: usize, va: u64, w: Word) {
    assert!(
        m.node_mut(node).mem.poke_va(va, MemWord::new(w)),
        "poke at unmapped va {va:#x} on node {node}"
    );
}

/// The traffic machine: default timing on [`TRAFFIC_DIMS`], no trace.
#[must_use]
pub fn traffic_config() -> MachineConfig {
    let mut cfg = MachineConfig::with_dims(TRAFFIC_DIMS.0, TRAFFIC_DIMS.1, TRAFFIC_DIMS.2);
    cfg.trace = false;
    cfg
}

/// Build one traffic row's machine on [`traffic_config`].
/// `_workers` is ignored: a machine steps on one host thread. The
/// argument stays only because `benchmark/` still passes it.
///
/// # Panics
///
/// As [`load_traffic_scenario`].
#[must_use]
pub fn build_traffic_scenario(
    pattern: TrafficPattern,
    gap: u32,
    count: u64,
    _workers: Option<usize>,
) -> MMachine {
    load_traffic_scenario(traffic_config(), pattern, gap, count)
}

/// Build `cfg` (a [`TRAFFIC_DIMS`] mesh) and load one pattern: every
/// node SENDs `count` messages, `gap` idle cycles apart, into its sink
/// word on the destination node.
///
/// # Panics
///
/// Panics if a program fails to load (layout bug).
#[must_use]
pub fn load_traffic_scenario(
    cfg: MachineConfig,
    pattern: TrafficPattern,
    gap: u32,
    count: u64,
) -> MMachine {
    let mut m = MMachine::build(cfg).expect("valid config");
    // One program per distinct destination: hotspot's four senders share one.
    let mut progs = Vec::with_capacity(NODES);
    for me in 0..NODES {
        let dest = pattern.dest(me);
        let i = match progs.iter().position(|(d, _)| *d == dest) {
            Some(i) => i,
            None => {
                progs.push((dest, traffic_node(dest, NODES, gap, count)));
                progs.len() - 1
            }
        };
        m.load_user_program(me, 0, &progs[i].1).unwrap();
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

/// Verify a finished run of `count` messages per node: every SEND was
/// injected, every message was accepted exactly once (a bounced one
/// after its resend) and no event record was dropped. When nothing
/// bounced, every sink must also hold the last payload its sender aimed
/// at it; a resend may land after a later payload, so a bouncing run
/// leaves no such order.
///
/// # Panics
///
/// Panics on any failure.
pub fn check_traffic(m: &MMachine, pattern: TrafficPattern, count: u64) {
    let name = pattern.name();
    let total =
        |f: fn(&IfaceStats) -> u64| -> u64 { (0..NODES).map(|i| f(&m.node(i).net.stats())).sum() };
    let want = NODES as u64 * count;
    assert_eq!(total(|s| s.sent), want, "{name}: not every SEND injected");
    assert_eq!(total(|s| s.received), want, "{name}: messages lost");
    assert_eq!(
        m.stats().coherence.unknown_events,
        0,
        "{name}: dropped event records"
    );
    if total(|s| s.returned_here) > 0 {
        return;
    }
    for me in 0..NODES {
        let dest = pattern.dest(me);
        for d in 0..NODES {
            // Payload `i` goes to `dest_at(i)`; the sink keeps the last.
            let dest_at = |i: u64| match dest {
                TrafficDest::Fixed(d) => d,
                TrafficDest::RoundRobin { start } => (start + i as usize) % NODES,
            };
            let Some(last) = (0..count).rev().find(|&i| dest_at(i) == d) else {
                continue;
            };
            let sink = m.home_va(d, 0) + traffic_sink_off(me);
            let got = m.node(d).mem.peek_va(sink).expect("sink mapped").word;
            assert_eq!(got.as_i64(), last as i64, "{name}: sink on {d} from {me}");
        }
    }
}
