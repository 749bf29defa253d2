//! `mmctl`'s exit-code contract on meshes the busy scenario cannot run
//! on: a usage error (exit 2), never a panic (exit 101).

use std::process::Command;

#[test]
fn bad_meshes_exit_2_without_panicking() {
    for dims in ["3x1x1", "0x1x1", "1x1x1"] {
        for cmd in [&["run"][..], &["snapshot", "--save", "unused.bin"][..]] {
            let out = Command::new(env!("CARGO_BIN_EXE_mmctl"))
                .args(cmd)
                .args(["--dims", dims, "--iters", "4"])
                .output()
                .expect("mmctl runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(2),
                "{cmd:?} --dims {dims}: {stderr}"
            );
            assert!(
                !stderr.contains("panicked"),
                "{cmd:?} --dims {dims}: {stderr}"
            );
        }
    }
}
