//! `reproduce`'s stdout, byte for byte, against the committed
//! `reproduce_golden.txt`: every printed paper constant and simulated
//! cycle count of Table 1, Figs. 4, 5, 6 and 9, the §4.2 hop sweep, the
//! §1/§5 model and both ablations.
//!
//! The binary runs twice, with no arguments and with `--telemetry`
//! (whose stream must not touch stdout). Only ROADMAP item 10(a), the
//! fidelity work that retunes modelled latencies, may regenerate the
//! golden, in a change that does nothing else:
//!
//! ```text
//! cargo run -p mm-bench --bin reproduce > crates/bench/tests/reproduce_golden.txt
//! ```

use std::path::Path;
use std::process::Command;

const GOLDEN: &str = include_str!("reproduce_golden.txt");

/// Run `reproduce` with `args` in `dir` and return its stdout.
fn reproduce(args: &[&str], dir: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("reproduce runs");
    assert!(
        out.status.success(),
        "reproduce {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

/// Panic at the first line where `got` departs from the golden.
fn assert_matches_golden(args: &[&str], got: &str) {
    if got == GOLDEN {
        return;
    }
    let (mut want_lines, mut got_lines) = (GOLDEN.lines(), got.lines());
    for line in 1.. {
        let (want, have) = (want_lines.next(), got_lines.next());
        if want != have || want.is_none() {
            panic!(
                "reproduce {args:?} differs from reproduce_golden.txt at line {line}:\n  \
                 golden: {want:?}\n  stdout: {have:?}"
            );
        }
    }
}

#[test]
fn reproduce_stdout_matches_the_golden() {
    // Run in a scratch directory under `target/`, where `--telemetry`
    // writes its stream.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("reproduce_golden");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let stream = dir.join("reproduce_telemetry.jsonl");
    let _ = std::fs::remove_file(&stream);
    for args in [&[][..], &["--telemetry"][..]] {
        assert_matches_golden(args, &reproduce(args, &dir));
    }
    assert!(stream.is_file(), "--telemetry wrote no stream");
}
