//! `repro`'s experiment list: a misspelt name must fail the run, before
//! any world is generated, and a known one must run.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn unknown_experiment_exits_non_zero_before_any_world() {
    let out = repro(&["market", "scale-paralel"]);
    assert!(!out.status.success(), "exit status {:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"scale-paralel\""), "stderr: {stderr}");
    assert!(
        stderr.contains("scale-parallel"),
        "lists known names: {stderr}"
    );
    assert!(
        !stderr.contains("generating"),
        "generated a world: {stderr}"
    );
    assert!(out.stdout.is_empty(), "ran an experiment first");
}

#[test]
fn known_experiment_exits_zero() {
    let out = repro(&["market"]);
    assert!(out.status.success(), "exit status {:?}", out.status);
    assert!(String::from_utf8_lossy(&out.stdout).contains("E-MARKET"));
}
