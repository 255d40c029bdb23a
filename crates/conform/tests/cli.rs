//! The built `nonmask-run` binary end to end: `--list` is the protocol
//! registry, every listed protocol converges over sockets, and bad
//! arguments fail with one line on stderr, never a panic.

use std::process::{Command, Output};

use nonmask_protocols::registry::FAMILIES;

fn nonmask_run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nonmask-run"))
        .args(args)
        .output()
        .expect("nonmask-run starts")
}

fn listed() -> Vec<String> {
    let out = nonmask_run(&["--list"]);
    assert!(out.status.success());
    String::from_utf8(out.stdout)
        .expect("utf-8 listing")
        .lines()
        .map(str::to_owned)
        .collect()
}

#[test]
fn list_prints_exactly_the_registry_names() {
    let names: Vec<&str> = FAMILIES.iter().map(|(name, _)| *name).collect();
    assert_eq!(listed(), names);
}

#[test]
fn every_listed_protocol_converges_over_sockets_under_loss() {
    for name in listed() {
        let out = nonmask_run(&[&name, "--nodes", "4", "--loss", "0.2", "--seed", "3"]);
        assert!(
            out.status.success(),
            "{name} did not converge:\n{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn bad_arguments_fail_with_one_line_and_no_panic() {
    let cases: [&[&str]; 4] = [
        &["token-ring", "--bogus"],
        &["token-ring", "--nodes"],
        &["token-ring", "--nodes", "five"],
        &["token-ring", "--loss", "1.5"],
    ];
    for args in cases {
        let out = nonmask_run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
