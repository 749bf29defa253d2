//! Machine state snapshots for the `mmctl` inspector.
//!
//! [`MMachine::snapshot_json`] serializes the machine's *inspectable*
//! state — per-node pipeline/queue occupancy, per-node coherence
//! handler occupancy, and the per-link fabric flit counters behind the
//! heatmap — as one JSON document. A cold debugging path: it allocates
//! freely and is never called from a run loop. `mmctl snapshot` renders
//! the document; `mmctl run --snapshot-out` dumps one after an
//! in-process run.

use crate::machine::MMachine;
use mm_net::fabric::NUM_DIRS;
use std::fmt::Write as _;

/// Snapshot format version (`"v"` in the document).
pub const SNAPSHOT_VERSION: u64 = 1;

/// Direction labels in `Dir::index` order, used for the `links`
/// records and the heatmap axes.
pub const DIR_NAMES: [&str; NUM_DIRS] = ["x+", "x-", "y+", "y-", "z+", "z-"];

impl MMachine {
    /// Serialize the inspectable machine state as one JSON document:
    ///
    /// ```json
    /// {"v":1, "cycle":…, "dims":[x,y,z], "workers":1,
    ///  "stats":{…machine totals…},
    ///  "nodes":[{"i":0, "coord":[0,0,0], …NodeInspect…, "coh":{…CohInspect…}}, …],
    ///  "links":[{"node":0, "dir":"x+", "pri":0, "flits":…}, …]}
    /// ```
    ///
    /// `links` carries only virtual channels that carried at least one
    /// flit, so idle meshes stay small. `workers` is always 1 (a machine
    /// steps on one host thread); version 1 readers expect the field.
    #[must_use]
    pub fn snapshot_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        let stats = self.stats();
        let perf = self.perf();
        let (x, y, z) = self.spec().dims;
        let _ = write!(
            out,
            "{{\"v\":{SNAPSHOT_VERSION},\"cycle\":{},\"dims\":[{x},{y},{z}],\"workers\":1,",
            self.cycle(),
        );
        let _ = write!(
            out,
            "\"stats\":{{\"cycles\":{},\"instructions\":{},\"messages\":{},\
             \"fabric_packets\":{},\"coh_packets\":{},\"flit_hops\":{},\
             \"issue_probes\":{},\"node_steps\":{}}},",
            stats.cycles,
            stats.instructions,
            stats.messages,
            stats.fabric.packets,
            stats.fabric.coh_packets,
            self.fabric_flit_hops(),
            perf.issue_probes,
            perf.node_steps,
        );
        out.push_str("\"nodes\":[");
        for i in 0..self.node_count() {
            if i > 0 {
                out.push(',');
            }
            let n = self.node(i);
            let c = n.coord();
            let ni = n.inspect();
            let ci = self.coherence_handlers()[i].inspect();
            let _ = write!(
                out,
                "{{\"i\":{i},\"coord\":[{},{},{}],\"running\":{},\"halted\":{},\
                 \"faulted\":{},\"event_words\":[{},{},{},{}],\"exc_words\":[{},{},{},{}],\
                 \"outbox\":{},\"inbound\":[{},{}],\"returned\":{},\"coh_pending\":{},\
                 \"credits\":{},\"instructions\":{},\"steps\":{},",
                c.x,
                c.y,
                c.z,
                ni.running,
                ni.halted,
                ni.faulted,
                ni.event_words[0],
                ni.event_words[1],
                ni.event_words[2],
                ni.event_words[3],
                ni.exc_words[0],
                ni.exc_words[1],
                ni.exc_words[2],
                ni.exc_words[3],
                ni.outbox,
                ni.inbound[0],
                ni.inbound[1],
                ni.returned,
                ni.coh_pending,
                ni.credits,
                ni.instructions,
                ni.steps,
            );
            let _ = write!(
                out,
                "\"coh\":{{\"dir_blocks\":{},\"sharers\":{},\"recalling\":{},\
                 \"queued_fetches\":{},\"waiting_blocks\":{},\"waiting_records\":{},\
                 \"pending_actions\":{},\"outbound_msgs\":{},\"frames\":{}}}}}",
                ci.directory_blocks,
                ci.sharers,
                ci.recalling,
                ci.queued_fetches,
                ci.waiting_blocks,
                ci.waiting_records,
                ci.pending_actions,
                ci.outbound_msgs,
                ci.frames,
            );
        }
        out.push_str("],\"links\":[");
        let flits = self.fabric_link_flits();
        let mut first = true;
        for (idx, &f) in flits.iter().enumerate() {
            if f == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let pri = idx % 2;
            let dir = (idx / 2) % NUM_DIRS;
            let node = idx / (2 * NUM_DIRS);
            let _ = write!(
                out,
                "{{\"node\":{node},\"dir\":\"{}\",\"pri\":{pri},\"flits\":{f}}}",
                DIR_NAMES[dir]
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::machine::{MMachine, MachineConfig};
    use std::sync::Arc;

    #[test]
    fn snapshot_covers_nodes_and_busy_links() {
        let mut m = MMachine::build(MachineConfig::with_dims(2, 1, 1)).unwrap();
        // A user send to node 1's address space lights up the X link.
        let target = m.home_va(1, 1) + 3;
        let prog = Arc::new(mm_isa::assemble("mov #42, mc1\n send r10, r11, #1\n halt\n").unwrap());
        m.load_user_program(0, 0, &prog).unwrap();
        let ptr = m.make_ptr(mm_isa::Perm::ReadWrite, 0, target).unwrap();
        m.set_user_reg(0, 0, 0, mm_isa::Reg::Int(10), ptr);
        let write_dip = m.image().write_dip;
        m.set_user_reg(0, 0, 0, mm_isa::Reg::Int(11), write_dip);
        m.run_until_halt(50_000).unwrap();
        let s = m.snapshot_json();
        // Well-formed JSON with the right shape (parse via the
        // dependency-free reader the inspector itself uses).
        let v = mm_telemetry::json::parse(&s).expect("snapshot is valid JSON");
        assert_eq!(v.get("v").unwrap().as_u64(), Some(1));
        let nodes = v.get("nodes").unwrap().as_array().unwrap();
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[1].get("i").unwrap().as_u64(), Some(1));
        assert!(nodes[0].get("instructions").unwrap().as_u64().unwrap() > 0);
        assert!(nodes[0].get("coh").unwrap().get("frames").is_some());
        // The send crossed the one X link, so at least one link record
        // exists and decodes to a real direction.
        let links = v.get("links").unwrap().as_array().unwrap();
        assert!(!links.is_empty(), "a send must light up a link");
        for l in links {
            let dir = l.get("dir").unwrap().as_str().unwrap();
            assert!(super::DIR_NAMES.contains(&dir));
            assert!(l.get("flits").unwrap().as_u64().unwrap() > 0);
        }
    }
}
