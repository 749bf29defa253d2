//! Serializer for the metrics stream: JSON-lines, one record per epoch,
//! the format `docs/telemetry.schema.json` pins and CI validates
//! (`mmctl prom` and `mmctl run --prom` render Prometheus text from it).
//!
//! [`write_jsonl_line`] is called from the sampling hot path, so it
//! appends to a caller-owned buffer using only `core::fmt` — no heap
//! allocation as long as the buffer has capacity.

use crate::{EpochSample, MAX_SHARDS, STREAM_VERSION};
use std::fmt::Write as _;

/// Append one JSONL record (including the trailing newline) for `s` to
/// `out`: the header, every column of the table in
/// [`COLUMNS`](crate::COLUMNS) order, then the shard tail. This is the
/// order `docs/telemetry.schema.json` lists.
pub fn write_jsonl_line(s: &EpochSample, out: &mut String) {
    let _ = write!(
        out,
        "{{\"v\":{STREAM_VERSION},\"epoch\":{},\"start_cycle\":{},\"end_cycle\":{},\
         \"wall_ns\":{}",
        s.epoch, s.start_cycle, s.end_cycle, s.wall_ns,
    );
    s.write_columns(out);
    out.push_str(",\"shard_steps\":[");
    let shards = (s.shards as usize).clamp(1, MAX_SHARDS);
    for k in 0..shards {
        let _ = write!(out, "{}{}", if k == 0 { "" } else { "," }, s.shard_steps[k]);
    }
    out.push_str("]}\n");
}

/// Keys every JSONL record carries, in emission order.
#[cfg(test)]
pub(crate) fn jsonl_keys() -> Vec<&'static str> {
    let header = ["v", "epoch", "start_cycle", "end_cycle", "wall_ns"];
    let columns = crate::COLUMNS.iter().map(|c| c.name);
    header
        .into_iter()
        .chain(columns)
        .chain(["shard_steps"])
        .collect()
}

/// A two-shard sample whose `k`-th counter column holds `100 + k`,
/// with its rates derived over 4 links.
#[cfg(test)]
pub(crate) fn fixture() -> EpochSample {
    let mut s = EpochSample {
        epoch: 3,
        start_cycle: 12288,
        end_cycle: 16384,
        wall_ns: 2_000_000,
        shards: 2,
        ..EpochSample::default()
    }
    .with_counters(std::array::from_fn(|k| 100 + k as u64));
    s.shard_steps[..2].copy_from_slice(&[5000, 3192]);
    s.derive_rates(&crate::CounterSnapshot {
        links: 4,
        ..crate::CounterSnapshot::default()
    });
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, JsonValue};
    use crate::{ColumnKind, CounterSnapshot, COLUMNS};

    #[test]
    fn jsonl_line_parses_and_carries_every_field() {
        let s = fixture();
        let mut line = String::new();
        write_jsonl_line(&s, &mut line);
        assert!(line.ends_with('\n'));
        let v = parse(&line).expect("line is valid JSON");
        let JsonValue::Object(fields) = &v else {
            panic!("line is not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, jsonl_keys(), "emission order matches the table");
        assert_eq!(v.get("epoch").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("end_cycle").unwrap().as_u64(), Some(16384));
        let counters = COLUMNS.iter().filter(|c| c.kind == ColumnKind::Counter);
        for (c, want) in counters.zip(s.counters()) {
            assert_eq!(v.get(c.name).unwrap().as_u64(), Some(want), "{}", c.name);
        }
        let shard = v.get("shard_steps").unwrap();
        let JsonValue::Array(items) = shard else {
            panic!("shard_steps is not an array")
        };
        assert_eq!(items.len(), 2, "only the reported shards are emitted");
        assert_eq!(items[0].as_u64(), Some(5000));
        let hit_rate = 100.0 / 101.0; // instructions / issue_probes
        assert!((v.get("issue_hit_rate").unwrap().as_f64().unwrap() - hit_rate).abs() < 1e-6);
    }

    #[test]
    fn jsonl_line_fits_preallocated_capacity() {
        // Every integer at its widest; the rates at the widest their
        // formulas give over one wall nanosecond.
        let mut worst = EpochSample {
            epoch: u64::MAX,
            start_cycle: 0,
            end_cycle: u64::MAX,
            wall_ns: 1,
            shards: MAX_SHARDS as u32,
            shard_steps: [u64::MAX; MAX_SHARDS],
            ..EpochSample::default()
        }
        .with_counters([u64::MAX; crate::N_COUNTERS]);
        worst.derive_rates(&CounterSnapshot {
            links: 1,
            ..CounterSnapshot::default()
        });
        worst.start_cycle = u64::MAX;
        worst.wall_ns = u64::MAX;
        let mut line = String::new();
        write_jsonl_line(&worst, &mut line);
        assert!(
            line.len() < super::super::LINE_CAPACITY,
            "worst-case line ({} bytes) must fit the preallocated buffer",
            line.len()
        );
    }
}
