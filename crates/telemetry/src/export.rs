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
/// `out`. Field order is fixed and matches the committed schema.
pub fn write_jsonl_line(s: &EpochSample, out: &mut String) {
    let _ = write!(
        out,
        "{{\"v\":{STREAM_VERSION},\"epoch\":{},\"start_cycle\":{},\"end_cycle\":{},\
         \"wall_ns\":{},\"cycles_per_sec\":{:.1},\"instructions\":{},\"issue_probes\":{},\
         \"issue_hit_rate\":{:.6},\"node_steps\":{},\"messages\":{},\"fabric_packets\":{},\
         \"flit_hops\":{},\"link_occupancy\":{:.6},\"coh_packets\":{},\"coh_misses\":{},\
         \"coh_invalidations\":{},\"coh_writebacks\":{},\"sync_retries\":{},\
         \"ecc_corrected\":{},\"ecc_double_errors\":{},\"crc_nacks\":{},\"dup_drops\":{},\
         \"retransmits\":{},\"bounces\":{},\"shard_steps\":[",
        s.epoch,
        s.start_cycle,
        s.end_cycle,
        s.wall_ns,
        s.cycles_per_sec,
        s.instructions,
        s.issue_probes,
        s.issue_hit_rate,
        s.node_steps,
        s.messages,
        s.fabric_packets,
        s.flit_hops,
        s.link_occupancy,
        s.coh_packets,
        s.coh_misses,
        s.coh_invalidations,
        s.coh_writebacks,
        s.sync_retries,
        s.ecc_corrected,
        s.ecc_double_errors,
        s.crc_nacks,
        s.dup_drops,
        s.retransmits,
        s.bounces,
    );
    let shards = (s.shards as usize).clamp(1, MAX_SHARDS);
    for k in 0..shards {
        let _ = write!(out, "{}{}", if k == 0 { "" } else { "," }, s.shard_steps[k]);
    }
    out.push_str("]}\n");
}

/// Keys every JSONL record carries, in emission order (shared with the
/// schema validator tests and `mmctl`).
pub const JSONL_FIELDS: &[&str] = &[
    "v",
    "epoch",
    "start_cycle",
    "end_cycle",
    "wall_ns",
    "cycles_per_sec",
    "instructions",
    "issue_probes",
    "issue_hit_rate",
    "node_steps",
    "messages",
    "fabric_packets",
    "flit_hops",
    "link_occupancy",
    "coh_packets",
    "coh_misses",
    "coh_invalidations",
    "coh_writebacks",
    "sync_retries",
    "ecc_corrected",
    "ecc_double_errors",
    "crc_nacks",
    "dup_drops",
    "retransmits",
    "bounces",
    "shard_steps",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, JsonValue};

    fn sample() -> EpochSample {
        EpochSample {
            epoch: 3,
            start_cycle: 12288,
            end_cycle: 16384,
            wall_ns: 2_000_000,
            cycles_per_sec: 2_048_000.0,
            instructions: 900,
            issue_probes: 1000,
            issue_hit_rate: 0.9,
            node_steps: 8192,
            messages: 40,
            fabric_packets: 90,
            flit_hops: 260,
            link_occupancy: 0.002,
            coh_packets: 10,
            coh_misses: 4,
            coh_invalidations: 3,
            coh_writebacks: 2,
            sync_retries: 1,
            ecc_corrected: 5,
            ecc_double_errors: 1,
            crc_nacks: 7,
            dup_drops: 2,
            retransmits: 6,
            bounces: 8,
            shards: 2,
            shard_steps: {
                let mut a = [0; MAX_SHARDS];
                a[0] = 5000;
                a[1] = 3192;
                a
            },
        }
    }

    #[test]
    fn jsonl_line_parses_and_carries_every_field() {
        let mut line = String::new();
        write_jsonl_line(&sample(), &mut line);
        assert!(line.ends_with('\n'));
        let v = parse(&line).expect("line is valid JSON");
        let JsonValue::Object(fields) = &v else {
            panic!("line is not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, JSONL_FIELDS, "emission order matches the schema");
        assert_eq!(v.get("epoch").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("end_cycle").unwrap().as_u64(), Some(16384));
        let shard = v.get("shard_steps").unwrap();
        let JsonValue::Array(items) = shard else {
            panic!("shard_steps is not an array")
        };
        assert_eq!(items.len(), 2, "only the reported shards are emitted");
        assert_eq!(items[0].as_u64(), Some(5000));
        assert!((v.get("issue_hit_rate").unwrap().as_f64().unwrap() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn jsonl_line_fits_preallocated_capacity() {
        let worst = EpochSample {
            epoch: u64::MAX,
            start_cycle: u64::MAX,
            end_cycle: u64::MAX,
            wall_ns: u64::MAX,
            cycles_per_sec: 1e18,
            instructions: u64::MAX,
            issue_probes: u64::MAX,
            issue_hit_rate: 1.0,
            node_steps: u64::MAX,
            messages: u64::MAX,
            fabric_packets: u64::MAX,
            flit_hops: u64::MAX,
            link_occupancy: 1.0,
            coh_packets: u64::MAX,
            coh_misses: u64::MAX,
            coh_invalidations: u64::MAX,
            coh_writebacks: u64::MAX,
            sync_retries: u64::MAX,
            ecc_corrected: u64::MAX,
            ecc_double_errors: u64::MAX,
            crc_nacks: u64::MAX,
            dup_drops: u64::MAX,
            retransmits: u64::MAX,
            bounces: u64::MAX,
            shards: MAX_SHARDS as u32,
            shard_steps: [u64::MAX; MAX_SHARDS],
        };
        let mut line = String::new();
        write_jsonl_line(&worst, &mut line);
        assert!(
            line.len() < super::super::LINE_CAPACITY,
            "worst-case line ({} bytes) must fit the preallocated buffer",
            line.len()
        );
    }
}
