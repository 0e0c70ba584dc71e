//! The `experiments` binary's usage errors: exit code 2, before any row
//! runs.

use std::process::Command;

fn experiments(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary runs")
}

#[test]
fn an_unknown_only_row_exits_2() {
    for mode in ["check-baselines", "write-baselines", "smoke"] {
        let out = experiments(&[mode, "--only", "nope", "--baselines", "no-such-dir"]);
        assert_eq!(out.status.code(), Some(2), "{mode}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("\"nope\""), "{mode}: {stderr}");
    }
}

#[test]
fn the_removed_options_are_usage_errors() {
    for args in [
        &["bench"][..],
        &["check-baselines", "--tolerance", "0.01"],
        &["check-baselines", "--check"],
        &["check-baselines", "--write-baselines"],
    ] {
        assert_eq!(experiments(args).status.code(), Some(2), "{args:?}");
    }
}
