//! `mmctl` refuses a flag its subcommand does not know — a retired one
//! (`--workers`) or a typo — with exit 2, `unknown flag <name>` and the
//! usage text, before doing any work. Neither may fall back to a
//! default: `mmctl run --dim 4x4x4` once ran the default 2×2×1 mesh.

use std::process::Command;

/// Each subcommand with the arguments a real invocation gives it and a
/// misspelling of one of its own flags.
const CASES: [(&[&str], &str); 7] = [
    (&["analyze"], "--jsn"),
    (&["check", "stream.jsonl"], "--schem"),
    (&["tail", "stream.jsonl"], "--folow"),
    (&["snapshot", "--save", "unused.bin"], "--dim"),
    (&["prom", "stream.jsonl"], "--out"),
    (&["run", "--iters", "4"], "--dim"),
    (&["campaign"], "--sed"),
];

fn refused(args: &[&str], flag: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_mmctl"))
        .args(args)
        .args([flag, "2"])
        .output()
        .expect("mmctl runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} {flag}: {stderr}");
    assert!(
        stderr.contains(&format!("unknown flag {flag}")),
        "{args:?} {flag}: {stderr}"
    );
    assert!(stderr.contains("usage: mmctl"), "{args:?} {flag}: {stderr}");
}

#[test]
fn stale_workers_flag_is_refused_by_every_subcommand() {
    for (args, _) in CASES {
        refused(args, "--workers");
    }
}

#[test]
fn misspelled_flags_are_refused_by_every_subcommand() {
    for (args, typo) in CASES {
        refused(args, typo);
    }
}

/// A value that looks like a flag is still the value of the flag
/// before it, not a flag of its own.
#[test]
fn a_flag_value_is_not_mistaken_for_a_flag() {
    let dir = std::env::temp_dir().join(format!("mmctl-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_mmctl"))
        .current_dir(&dir)
        .args(["campaign", "--out", "--odd-name.json", "--seed", "7"])
        .output()
        .expect("mmctl runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let written = dir.join("--odd-name.json").exists();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(written, "--out's value names the written file");
}
