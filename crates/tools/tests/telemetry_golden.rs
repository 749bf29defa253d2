//! The telemetry stream and its Prometheus rendering, byte for byte,
//! against `telemetry_golden.txt`, with host time (`wall_ns`,
//! `cycles_per_sec`, `mm_cycles_per_sec`) masked. Four serial machines
//! sample at 512-cycle epochs: busy traffic under a seeded fault plan,
//! §4.3 coherence, hotspot traffic (§4.2 bounces) and the task queue
//! (sync-fault retries). Every column must be non-zero in some run, so
//! a swapped or dropped field changes the golden. After a deliberate
//! format change, copy the file the failure names over the golden.

use mm_bench::coherence::load_coherence_scenario;
use mm_bench::faults::campaign_plan;
use mm_bench::scaling::{load_busy_scenario, scenario_config};
use mm_bench::traffic::{load_traffic_scenario, traffic_config, TrafficPattern};
use mm_bench::workloads::{load_workload, workload_config, WorkloadKind};
use mm_core::machine::{MMachine, MachineConfig};
use mm_isa::op::Priority;
use mm_isa::word::Word;
use mm_net::{Message, MsgBody, Packet, WireMeta};
use mm_telemetry::json::{parse, JsonValue};
use mm_telemetry::COLUMNS;
use mm_tools::render::prometheus_from_stream;
use std::path::Path;

const GOLDEN: &str = include_str!("telemetry_golden.txt");

/// Field prefixes whose values are host time.
const HOST_TIME: [&str; 3] = ["\"wall_ns\":", "\"cycles_per_sec\":", "mm_cycles_per_sec "];

/// `cfg` on the serial engine, sampling at 512-cycle epochs.
fn serial(mut cfg: MachineConfig) -> MachineConfig {
    cfg.engine.workers = Some(1);
    cfg.telemetry.enabled = true;
    cfg.telemetry.epoch_cycles = 512;
    cfg
}

fn halted(mut m: MMachine) -> MMachine {
    m.run_until_halt(2_000_000).expect("run halts");
    m
}

/// The busy scenario under campaign seed 5, every DRAM upset landing
/// beside a home page's first word before the first store fills its
/// line. After the halt, node 0's first message to its partner arrives
/// again (no fault path puts two copies in flight), and the run drains
/// every retransmission.
fn busy_faults() -> MMachine {
    let probe = MMachine::build(scenario_config((2, 2, 1))).expect("mesh builds");
    let va = probe.home_va(0, 0);
    let home = probe.node(0).mem.translate(va).expect("mapped");
    let mut cfg = serial(scenario_config((2, 2, 1)));
    let mut plan = campaign_plan(5, 4);
    for d in &mut plan.dram {
        (d.window, d.addr) = ((1, 10), (home + 1, home + 12));
    }
    cfg.faults = Some(plan);
    let mut m = halted(load_busy_scenario(cfg, 32).expect("busy mesh loads"));
    let mut replay = Message {
        priority: Priority::P0,
        src: m.node(0).coord(),
        dest: m.node(1).coord(),
        dip: Word::ZERO,
        addr: Word::ZERO,
        body: MsgBody::new(),
        wire: WireMeta { seq: 1, crc: 0 },
    };
    replay.seal_crc();
    m.node_mut(1).net.deliver_checked(Packet::User(replay));
    m.run_cycles(2_000);
    m
}

/// `text` with each host-time field's value replaced by `_`.
fn mask(text: &str) -> String {
    let field = |f: &str| match HOST_TIME.iter().find(|k| f.starts_with(*k)) {
        Some(k) => format!("{k}_"),
        None => f.to_owned(),
    };
    text.lines()
        .map(|line| line.split(',').map(field).collect::<Vec<_>>().join(",") + "\n")
        .collect()
}

#[test]
fn stream_and_prometheus_match_the_golden() {
    let coherence = load_coherence_scenario(serial(scenario_config((2, 2, 1))), 6);
    let hotspot = load_traffic_scenario(serial(traffic_config()), TrafficPattern::Hotspot, 0, 24);
    let task_queue = load_workload(serial(workload_config()), WorkloadKind::TaskQueue);
    let runs = [
        ("busy+faults", busy_faults()),
        ("coherence", halted(coherence)),
        ("hotspot", halted(hotspot)),
        ("task_queue", halted(task_queue)),
    ];
    let mut got = String::new();
    let mut totals = [0.0; COLUMNS.len()];
    for (name, mut m) in runs {
        m.telemetry_flush();
        assert!(m.faulted_threads().is_empty(), "{name}: faulted threads");
        let jsonl = m.telemetry().expect("telemetry enabled").ring_jsonl();
        for record in jsonl.lines().map(|line| parse(line).expect("a JSON line")) {
            for (total, c) in totals.iter_mut().zip(&COLUMNS) {
                let value = record.get(c.name).and_then(JsonValue::as_f64);
                *total += value.unwrap_or(0.0);
            }
        }
        let prom = prometheus_from_stream(&jsonl).expect("stream renders");
        got += &format!("## {name} jsonl\n{}", mask(&jsonl));
        got += &format!("## {name} prometheus\n{}", mask(&prom));
    }
    for (c, total) in COLUMNS.iter().zip(totals) {
        assert!(total > 0.0, "{} is zero in every run", c.name);
    }
    if got != GOLDEN {
        let actual = Path::new(env!("CARGO_TARGET_TMPDIR")).join("telemetry_golden.txt");
        std::fs::write(&actual, &got).expect("write the actual output");
        let same = GOLDEN.lines().zip(got.lines()).take_while(|(a, b)| a == b);
        let (line, actual) = (same.count() + 1, actual.display());
        panic!("differs from the golden at line {line}; the output is in {actual}");
    }
}
