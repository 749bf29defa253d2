//! Terminal renderers for `mmctl`: the snapshot inspector (per-node
//! pipeline/queue/directory table + per-link fabric heatmap), the
//! one-line epoch brief `mmctl tail` prints, and the JSONL→Prometheus
//! conversion.

use mm_core::snapshot::DIR_NAMES;
use mm_telemetry::json::{parse, JsonValue};
use mm_telemetry::{ColumnKind, COLUMNS};
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
/// `mm_cycles_total`, then one `mm_<name>_total` counter per counter
/// column summed over every record, then one `mm_<name>` gauge per rate
/// column from the last record, each in [`COLUMNS`] order.
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
    let Some(last) = records.last() else {
        return Err("telemetry stream is empty".into());
    };
    let cycles: u64 = records
        .iter()
        .map(|r| as_u64(r, "end_cycle").saturating_sub(as_u64(r, "start_cycle")))
        .sum();
    let mut out = String::new();
    let mut family = |name: &str, help: &str, kind: &str, value: &dyn std::fmt::Display| {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
        let _ = writeln!(out, "{name} {value}");
    };
    let cycles_help = "Simulated cycles covered by the stream";
    family("mm_cycles_total", cycles_help, "counter", &cycles);
    for c in COLUMNS.iter().filter(|c| c.kind == ColumnKind::Counter) {
        let sum: u64 = records.iter().map(|r| as_u64(r, c.name)).sum();
        family(&format!("mm_{}_total", c.name), c.help, "counter", &sum);
    }
    for c in COLUMNS.iter().filter(|c| c.kind == ColumnKind::Rate) {
        let gauge = last.get(c.name).and_then(JsonValue::as_f64).unwrap_or(0.0);
        let (name, help) = (format!("mm_{}", c.name), format!("{} (last epoch)", c.help));
        family(&name, &help, "gauge", &format_args!("{gauge:.6}"));
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

    /// One family per column: counters summed over the records, rates
    /// from the last record.
    #[test]
    fn prometheus_from_stream_matches_export_names() {
        // Column k holds k; every rate holds the record's `rate`.
        let record = |start: u64, rate: f64| {
            let mut line = format!("{{\"start_cycle\":{start},\"end_cycle\":{}", start + 256);
            for (k, c) in COLUMNS.iter().enumerate() {
                let _ = match c.kind {
                    ColumnKind::Counter => write!(line, ",\"{}\":{k}", c.name),
                    ColumnKind::Rate => write!(line, ",\"{}\":{rate}", c.name),
                };
            }
            line + "}\n"
        };
        let jsonl = record(0, 0.9) + &record(256, 0.8);
        let p = prometheus_from_stream(&jsonl).unwrap();
        assert!(p.starts_with("# HELP mm_cycles_total Simulated cycles covered by the stream\n"));
        assert!(p.contains("\nmm_cycles_total 512\n"));
        let counters = COLUMNS.iter().enumerate();
        for (k, c) in counters.filter(|(_, c)| c.kind == ColumnKind::Counter) {
            let family = format!(
                "# HELP mm_{0}_total {1}\n# TYPE mm_{0}_total counter\nmm_{0}_total {2}\n",
                c.name,
                c.help,
                2 * k
            );
            assert!(p.contains(&family), "{family}");
        }
        assert!(p.contains(
            "(last epoch)\n# TYPE mm_issue_hit_rate gauge\nmm_issue_hit_rate 0.800000\n"
        ));
        assert!(p.contains("\nmm_link_occupancy 0.800000\n"));
        assert!(prometheus_from_stream("").is_err());
    }
}
