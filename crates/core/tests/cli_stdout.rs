//! CLI-level test of output to a closed stdout: a reader that goes away
//! early (`sega-dcim explore … | head -1`) must end the process quietly,
//! not with a `failed printing to stdout` panic.

use std::process::{Command, Stdio};

/// Runs `sega-dcim` with its stdout pipe closed before it prints anything
/// and returns (exit success, stderr).
fn run_with_closed_stdout(args: &[&str]) -> (bool, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sega-dcim"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sega-dcim");
    // Dropping the only read end makes every later write fail with EPIPE.
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("wait for sega-dcim");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn closed_stdout_is_a_quiet_exit() {
    for args in [
        &["explore", "--wstore", "65536", "--precision", "bf16"][..],
        &[
            "explore",
            "--wstore",
            "8192",
            "--precision",
            "int8",
            "--csv",
        ],
        &[
            "explore",
            "--wstore",
            "8192",
            "--precision",
            "int8",
            "--json",
        ],
    ] {
        let (success, stderr) = run_with_closed_stdout(args);
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert!(success, "{args:?} failed: {stderr}");
    }
}
