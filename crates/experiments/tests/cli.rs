//! `repro`'s exit status on a bad experiment id.

use std::process::Command;

/// Runs `repro` with `args`; an unknown id must fail before any experiment
/// runs: non-zero exit, nothing on stdout.
fn assert_rejected(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    assert!(!out.status.success(), "repro {args:?} exited {}", out.status);
    assert!(
        out.stdout.is_empty(),
        "repro {args:?} printed a report:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn an_unknown_id_is_an_error() {
    assert_rejected(&["bogus"]);
}

#[test]
fn an_unknown_id_after_a_known_one_runs_nothing() {
    assert_rejected(&["fig2", "bogus"]);
}
