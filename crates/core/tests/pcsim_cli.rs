//! The `pcsim` binary's process contract: usage errors exit 2 before
//! any work, and a reader that goes away early is not a crash.

use std::process::{Command, Stdio};

fn pcsim(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pcsim"));
    cmd.args(args);
    cmd
}

#[test]
fn a_repeated_flag_is_a_usage_error() {
    for args in [
        &["run", "matrix", "--mode", "seq", "--mode", "coupled"][..],
        &["run", "matrix", "--lockstep", "--lockstep"],
        &[
            "sweep",
            "--benches",
            "matrix",
            "--no-cache",
            "--benches",
            "fft",
        ],
    ] {
        let out = pcsim(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("given twice"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} did work");
    }
}

#[test]
fn a_closed_stdout_ends_quietly() {
    // The read end closes right after the spawn, long before the two
    // profiled runs finish and the first line is written.
    let mut child = pcsim(&["explain", "matrix", "--modes", "seq,coupled"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
