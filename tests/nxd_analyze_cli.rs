//! `nxd-analyze`'s exit codes: 0 for the catalog, 1 for any diagnostic,
//! 2 for input it cannot read — never a panic.

use std::process::{Command, Output};

fn nxd_analyze(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nxd-analyze"))
        .args(args)
        .output()
        .expect("spawn nxd-analyze")
}

#[test]
fn non_ascii_hex_is_an_input_error_not_a_panic() {
    let out = nxd_analyze(&["message", "aé0"]);
    assert_eq!(out.status.code(), Some(2), "status {:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not a hex string"), "stderr: {stderr}");
}

#[test]
fn rules_lists_the_catalog_in_id_order() {
    let out = nxd_analyze(&["rules"]);
    assert_eq!(out.status.code(), Some(0), "status {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let ids: Vec<&str> = stdout
        .lines()
        .skip(1)
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let expected: Vec<String> = (1..=17).map(|n| format!("NXD{n:03}")).collect();
    assert_eq!(ids, expected);
}

#[test]
fn demo_exits_one_on_its_diagnostics() {
    let out = nxd_analyze(&["demo"]);
    assert_eq!(out.status.code(), Some(1), "status {:?}", out.status);
    assert!(String::from_utf8_lossy(&out.stdout).contains("NXD001"));
}
