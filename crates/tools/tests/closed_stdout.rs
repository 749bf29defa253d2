//! `mmctl`'s exit-code contract when its reader goes away
//! (`mmctl run | head -1`): a quiet exit 0, never a panic on a write to
//! a closed pipe.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_ends_the_run_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mmctl"))
        .args(["run", "--dims", "2x1x1", "--iters", "2000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("mmctl starts");
    // Close the read end before mmctl has printed anything.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("mmctl exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}
