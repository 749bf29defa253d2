//! Terminal renderers for `mmctl`: the snapshot inspector (per-node
//! pipeline/queue/directory table + per-link fabric heatmap), the
//! one-line epoch brief `mmctl tail` prints, and the JSONL→Prometheus
//! conversion.

use mm_core::snapshot::DIR_NAMES;
use mm_telemetry::json::{parse, JsonValue};
use std::fmt::Write as _;

/// Shade ramp for the heatmap, dimmest → brightest.
const SHADES: [char; 8] = ['.', ':', '-', '=', '+', '*', '#', '@'];

fn as_u64(v: &JsonValue, key: &str) -> u64 {
    v.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
}

/// Render a `snapshot_json` document as the inspector's text view.
///
/// # Errors
///
/// Malformed JSON or a document without the snapshot's `nodes`/`links`
/// shape.
pub fn render_snapshot(text: &str) -> Result<String, String> {
    let v = parse(text).map_err(|e| format!("snapshot is not JSON: {e}"))?;
    let nodes = v
        .get("nodes")
        .and_then(JsonValue::as_array)
        .ok_or("snapshot has no nodes array")?;
    let links = v
        .get("links")
        .and_then(JsonValue::as_array)
        .ok_or("snapshot has no links array")?;

    let mut out = String::new();
    let dims = v.get("dims").and_then(JsonValue::as_array);
    let dim = |k: usize| {
        dims.and_then(|d| d.get(k))
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
    };
    let _ = writeln!(
        out,
        "snapshot v{} @ cycle {} — {}x{}x{} mesh, {} workers",
        as_u64(&v, "v"),
        as_u64(&v, "cycle"),
        dim(0),
        dim(1),
        dim(2),
        as_u64(&v, "workers"),
    );
    if let Some(stats) = v.get("stats") {
        let _ = writeln!(
            out,
            "totals: {} instructions, {} messages, {} fabric packets \
             ({} coherence), {} flit-hops",
            as_u64(stats, "instructions"),
            as_u64(stats, "messages"),
            as_u64(stats, "fabric_packets"),
            as_u64(stats, "coh_packets"),
            as_u64(stats, "flit_hops"),
        );
    }

    // --- Per-node pipeline / queue / directory table. ---
    let _ = writeln!(
        out,
        "\n{:<5} {:>8} {:>4} {:>4} {:>4} {:>6} {:>6} {:>4} {:>4} {:>4} {:>7} {:>9} {:>9} {:>7} {:>7}",
        "node", "coord", "run", "hlt", "flt", "events", "excs", "out", "in0", "in1",
        "credits", "instrs", "steps", "dirblk", "cohpnd"
    );
    for n in nodes {
        let coord = n.get("coord").and_then(JsonValue::as_array);
        let c = |k: usize| {
            coord
                .and_then(|c| c.get(k))
                .and_then(JsonValue::as_u64)
                .unwrap_or(0)
        };
        let sum = |key: &str| {
            n.get(key)
                .and_then(JsonValue::as_array)
                .map_or(0, |a| a.iter().filter_map(JsonValue::as_u64).sum::<u64>())
        };
        let inbound = |k: usize| {
            n.get("inbound")
                .and_then(JsonValue::as_array)
                .and_then(|a| a.get(k))
                .and_then(JsonValue::as_u64)
                .unwrap_or(0)
        };
        let coh = n.get("coh");
        let _ = writeln!(
            out,
            "{:<5} {:>8} {:>4} {:>4} {:>4} {:>6} {:>6} {:>4} {:>4} {:>4} {:>7} {:>9} {:>9} {:>7} {:>7}",
            as_u64(n, "i"),
            format!("{},{},{}", c(0), c(1), c(2)),
            as_u64(n, "running"),
            as_u64(n, "halted"),
            as_u64(n, "faulted"),
            sum("event_words"),
            sum("exc_words"),
            as_u64(n, "outbox"),
            inbound(0),
            inbound(1),
            as_u64(n, "credits"),
            as_u64(n, "instructions"),
            as_u64(n, "steps"),
            coh.map_or(0, |c| as_u64(c, "dir_blocks")),
            coh.map_or(0, |c| as_u64(c, "pending_actions") + as_u64(c, "outbound_msgs")),
        );
    }

    // --- Per-link heatmap: flits per (node, direction), P0+P1 summed. ---
    let mut per_node: Vec<[u64; 6]> = vec![[0; 6]; nodes.len()];
    for l in links {
        let node = as_u64(l, "node") as usize;
        let dir = l.get("dir").and_then(JsonValue::as_str).unwrap_or("");
        let Some(d) = DIR_NAMES.iter().position(|&n| n == dir) else {
            return Err(format!("link record has unknown dir {dir:?}"));
        };
        if let Some(row) = per_node.get_mut(node) {
            row[d] += as_u64(l, "flits");
        }
    }
    let max = per_node.iter().flatten().copied().max().unwrap_or(0);
    let _ = writeln!(
        out,
        "\nfabric heatmap — flits per directed link (P0+P1), max {max}:"
    );
    let _ = writeln!(
        out,
        "{:<5} {}",
        "node",
        DIR_NAMES.map(|d| format!("{d:>8}")).join("")
    );
    for (i, row) in per_node.iter().enumerate() {
        if row.iter().all(|&f| f == 0) {
            continue;
        }
        let mut cells = String::new();
        for &f in row {
            if f == 0 {
                let _ = write!(cells, "{:>8}", "-");
            } else {
                // Shade by fraction of the busiest link.
                #[allow(
                    clippy::cast_precision_loss,
                    clippy::cast_possible_truncation,
                    clippy::cast_sign_loss
                )]
                let shade = SHADES
                    [(((f as f64 / max as f64) * (SHADES.len() - 1) as f64).round()) as usize];
                let _ = write!(cells, "{:>7}{shade}", f);
            }
        }
        let _ = writeln!(out, "{i:<5} {cells}");
    }
    if max == 0 {
        let _ = writeln!(out, "(no link carried a flit)");
    }
    Ok(out)
}

/// One-line rendering of a JSONL epoch record (`mmctl tail`).
#[must_use]
pub fn epoch_brief(line: &str) -> String {
    let Ok(v) = parse(line) else {
        return format!("?? unparseable: {line}");
    };
    let f = |k: &str| v.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
    format!(
        "epoch {:>4} [{:>8}..{:>8})  {:>12.0} c/s  instr {:>9}  hit {:.3}  occ {:.4}  msgs {:>6}  coh {:>5}",
        as_u64(&v, "epoch"),
        as_u64(&v, "start_cycle"),
        as_u64(&v, "end_cycle"),
        f("cycles_per_sec"),
        as_u64(&v, "instructions"),
        f("issue_hit_rate"),
        f("link_occupancy"),
        as_u64(&v, "messages"),
        as_u64(&v, "coh_packets"),
    )
}

/// Convert a telemetry JSONL stream to Prometheus text exposition:
/// counters summed over every record, gauges from the last record.
/// `mmctl prom` renders a stream file through it, and `mmctl run
/// --prom` the run's own ring.
///
/// # Errors
///
/// An empty stream or a malformed line.
pub fn prometheus_from_stream(text: &str) -> Result<String, String> {
    let mut records = Vec::new();
    for (k, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        records.push(parse(line).map_err(|e| format!("line {}: {e}", k + 1))?);
    }
    if records.is_empty() {
        return Err("telemetry stream is empty".into());
    }
    let sum = |key: &str| records.iter().map(|r| as_u64(r, key)).sum::<u64>();
    let cycles: u64 = records
        .iter()
        .map(|r| as_u64(r, "end_cycle").saturating_sub(as_u64(r, "start_cycle")))
        .sum();
    let mut out = String::new();
    for (name, help, v) in [
        (
            "mm_cycles_total",
            "Simulated cycles covered by the stream",
            cycles,
        ),
        (
            "mm_instructions_total",
            "Instructions issued",
            sum("instructions"),
        ),
        ("mm_messages_total", "User messages sent", sum("messages")),
        (
            "mm_fabric_packets_total",
            "Fabric packets injected",
            sum("fabric_packets"),
        ),
        (
            "mm_flit_hops_total",
            "Flit-hops carried by mesh links",
            sum("flit_hops"),
        ),
        (
            "mm_coh_packets_total",
            "Coherence protocol packets",
            sum("coh_packets"),
        ),
        (
            "mm_coh_misses_total",
            "Coherence block fetches",
            sum("coh_misses"),
        ),
        (
            "mm_coh_invalidations_total",
            "Sharer copies invalidated",
            sum("coh_invalidations"),
        ),
        (
            "mm_coh_writebacks_total",
            "Dirty blocks written back",
            sum("coh_writebacks"),
        ),
        (
            "mm_node_steps_total",
            "Node steps executed",
            sum("node_steps"),
        ),
        (
            "mm_ecc_corrected_total",
            "SECDED single-bit corrections",
            sum("ecc_corrected"),
        ),
        (
            "mm_ecc_double_errors_total",
            "Uncorrectable SECDED double-bit errors",
            sum("ecc_double_errors"),
        ),
        (
            "mm_crc_nacks_total",
            "Messages NACKed on checksum mismatch",
            sum("crc_nacks"),
        ),
        (
            "mm_dup_drops_total",
            "Duplicate retransmissions dropped",
            sum("dup_drops"),
        ),
        (
            "mm_retransmits_total",
            "Pristine-copy retransmissions",
            sum("retransmits"),
        ),
        (
            "mm_bounces_total",
            "Queue-full message bounces",
            sum("bounces"),
        ),
    ] {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {v}");
    }
    let Some(last) = records.last() else {
        return Err("telemetry stream is empty".into());
    };
    let g = |k: &str| last.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
    for (name, help, v) in [
        (
            "mm_cycles_per_sec",
            "Simulated cycles per wall second (last epoch)",
            g("cycles_per_sec"),
        ),
        (
            "mm_issue_hit_rate",
            "Issue-stage hit rate (last epoch)",
            g("issue_hit_rate"),
        ),
        (
            "mm_link_occupancy",
            "Mean fabric link occupancy (last epoch)",
            g("link_occupancy"),
        ),
    ] {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {v:.6}");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SNAPSHOT: &str = r#"{"v":1,"cycle":500,"dims":[2,1,1],"workers":1,
      "stats":{"cycles":500,"instructions":100,"messages":4,"fabric_packets":8,
               "coh_packets":0,"flit_hops":16,"issue_probes":200,"node_steps":1000},
      "nodes":[
        {"i":0,"coord":[0,0,0],"running":1,"halted":2,"faulted":0,
         "event_words":[0,0,0,0],"exc_words":[1,0,0,0],"outbox":0,"inbound":[0,0],
         "returned":0,"coh_pending":0,"credits":16,"instructions":80,"steps":500,
         "coh":{"dir_blocks":2,"sharers":3,"recalling":0,"queued_fetches":0,
                "waiting_blocks":0,"waiting_records":0,"pending_actions":1,
                "outbound_msgs":0,"frames":4}},
        {"i":1,"coord":[1,0,0],"running":0,"halted":3,"faulted":0,
         "event_words":[0,0,0,0],"exc_words":[0,0,0,0],"outbox":1,"inbound":[2,0],
         "returned":0,"coh_pending":0,"credits":14,"instructions":20,"steps":500,
         "coh":{"dir_blocks":0,"sharers":0,"recalling":0,"queued_fetches":0,
                "waiting_blocks":0,"waiting_records":0,"pending_actions":0,
                "outbound_msgs":0,"frames":4}}],
      "links":[{"node":0,"dir":"x+","pri":0,"flits":10},
               {"node":0,"dir":"x+","pri":1,"flits":2},
               {"node":1,"dir":"x-","pri":1,"flits":4}]}"#;

    #[test]
    fn snapshot_renders_nodes_and_heatmap() {
        let s = render_snapshot(SNAPSHOT).unwrap();
        assert!(s.contains("2x1x1 mesh"));
        assert!(s.contains("100 instructions"));
        // Node rows with per-cluster sums and directory occupancy.
        assert!(s.lines().any(|l| l.starts_with('0') && l.contains("80")));
        // Heatmap: node 0's x+ carries 12 flits (P0+P1 summed), max 12.
        assert!(s.contains("max 12"));
        assert!(
            s.contains("12@"),
            "busiest link gets the brightest shade:\n{s}"
        );
        assert!(s.contains("4"), "node 1 x- row present");
    }

    #[test]
    fn snapshot_rejects_garbage() {
        assert!(render_snapshot("nope").is_err());
        assert!(render_snapshot("{}").is_err());
        assert!(
            render_snapshot(r#"{"nodes":[],"links":[{"node":0,"dir":"q+","flits":1}]}"#).is_err()
        );
    }

    #[test]
    fn epoch_brief_compresses_a_record() {
        let line = r#"{"epoch":3,"start_cycle":768,"end_cycle":1024,"cycles_per_sec":5043.2,
            "instructions":217152,"issue_hit_rate":0.894661,"link_occupancy":0.008929,
            "messages":3072,"coh_packets":0}"#;
        let b = epoch_brief(&line.replace('\n', " "));
        assert!(b.contains("epoch    3"));
        assert!(b.contains("hit 0.895"));
        assert!(b.contains("msgs   3072"));
    }

    /// The metric names, sums and gauges `mmctl run --prom` exports.
    #[test]
    fn prometheus_from_stream_matches_export_names() {
        let jsonl = "{\"start_cycle\":0,\"end_cycle\":256,\"instructions\":100,\
                     \"messages\":3,\"fabric_packets\":6,\"flit_hops\":12,\"coh_packets\":0,\
                     \"coh_misses\":0,\"coh_invalidations\":0,\"coh_writebacks\":0,\
                     \"node_steps\":512,\"ecc_corrected\":2,\"ecc_double_errors\":0,\
                     \"crc_nacks\":3,\"dup_drops\":1,\"retransmits\":3,\"bounces\":4,\
                     \"cycles_per_sec\":5000.0,\"issue_hit_rate\":0.9,\
                     \"link_occupancy\":0.01}\n\
                     {\"start_cycle\":256,\"end_cycle\":512,\"instructions\":50,\
                     \"messages\":1,\"fabric_packets\":2,\"flit_hops\":4,\"coh_packets\":0,\
                     \"coh_misses\":0,\"coh_invalidations\":0,\"coh_writebacks\":0,\
                     \"node_steps\":512,\"ecc_corrected\":1,\"ecc_double_errors\":1,\
                     \"crc_nacks\":2,\"dup_drops\":0,\"retransmits\":2,\"bounces\":0,\
                     \"cycles_per_sec\":4800.0,\"issue_hit_rate\":0.8,\
                     \"link_occupancy\":0.02}\n";
        let p = prometheus_from_stream(jsonl).unwrap();
        assert!(p.contains("mm_cycles_total 512"));
        assert!(p.contains("mm_instructions_total 150"));
        assert!(p.contains("mm_ecc_corrected_total 3"));
        assert!(p.contains("mm_ecc_double_errors_total 1"));
        assert!(p.contains("mm_crc_nacks_total 5"));
        assert!(p.contains("mm_dup_drops_total 1"));
        assert!(p.contains("mm_retransmits_total 5"));
        assert!(p.contains("mm_bounces_total 4"));
        assert!(p.contains("mm_issue_hit_rate 0.800000"));
        assert!(p.contains("# TYPE mm_link_occupancy gauge"));
        assert!(prometheus_from_stream("").is_err());
    }
}
