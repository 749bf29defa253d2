//! Seed-1 architectural statistics pinned per workload, in
//! `golden/<workload>.json` (`full` and `quick` sizes). Compiled in, so
//! a check needs no file access; `run --write-golden` rewrites a file
//! and the next build picks it up.

use crate::report::json_str;
use crate::workloads::{Fingerprint, Workload};
use mm_telemetry::json::JsonValue;
use std::path::PathBuf;

fn text(w: Workload) -> &'static str {
    match w {
        Workload::BusyMesh512 => include_str!("../golden/busy_mesh_512.json"),
        Workload::BusyMesh64 => include_str!("../golden/busy_mesh_64.json"),
        Workload::CoherencePingpong16 => include_str!("../golden/coherence_pingpong_16.json"),
        Workload::HotspotTraffic4 => include_str!("../golden/hotspot_traffic_4.json"),
        Workload::UniformTraffic4 => include_str!("../golden/uniform_traffic_4.json"),
        Workload::KernelSuite4 => include_str!("../golden/kernel_suite_4.json"),
        Workload::PaperArtifacts => include_str!("../golden/paper_artifacts.json"),
    }
}

fn section(quick: bool) -> &'static str {
    if quick {
        "quick"
    } else {
        "full"
    }
}

fn pinned(text: &str, quick: bool) -> Option<Fingerprint> {
    let v = mm_telemetry::json::parse(text).ok()?;
    let JsonValue::Object(members) = v.get(section(quick))? else {
        return None;
    };
    let fp: Option<Fingerprint> = members
        .iter()
        .map(|(k, v)| Some((k.clone(), v.as_u64()?)))
        .collect();
    fp.filter(|fp| !fp.is_empty())
}

/// Does `fingerprint` equal the pinned one? `None` when nothing is
/// pinned for this size yet.
pub fn matches(w: Workload, quick: bool, fingerprint: &Fingerprint) -> Option<bool> {
    pinned(text(w), quick).map(|p| &p == fingerprint)
}

fn render(fp: &Fingerprint) -> String {
    let rows: Vec<String> = fp
        .iter()
        .map(|(k, v)| format!("    {}: {v}", json_str(k)))
        .collect();
    format!("{{\n{}\n  }}", rows.join(",\n"))
}

/// Pin `fingerprint` as the golden of this workload and size, keeping
/// the other section of the file on disk.
pub fn write(w: Workload, quick: bool, fingerprint: &Fingerprint) -> std::io::Result<PathBuf> {
    let path: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "golden",
        &format!("{}.json", w.name()),
    ]
    .iter()
    .collect();
    let on_disk = std::fs::read_to_string(&path)?;
    let other = pinned(&on_disk, !quick).unwrap_or_default();
    let (full, quick_fp) = if quick {
        (&other, fingerprint)
    } else {
        (fingerprint, &other)
    };
    let body = format!(
        "{{\n  \"full\": {},\n  \"quick\": {}\n}}\n",
        render(full),
        render(quick_fp)
    );
    std::fs::write(&path, body)?;
    Ok(path)
}
