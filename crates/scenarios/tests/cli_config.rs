//! `insomnia run` refuses non-finite numeric overrides up front instead of
//! simulating a day that completes no flow.

use std::process::Command;

fn run_with(set: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_insomnia"))
        .args(["run", "--scenario", "paper-default", "--quick", "--schemes", "soi", "--set", set])
        .output()
        .expect("spawn insomnia")
}

#[test]
fn nan_overrides_fail_validation() {
    for (set, field) in
        [("backhaul_mbps=nan", "backhaul"), ("mean_networks_in_range=nan", "networks in range")]
    {
        let out = run_with(set);
        assert!(!out.status.success(), "`--set {set}` exited {}", out.status);
        assert!(out.stdout.is_empty(), "`--set {set}` wrote a result record");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("invalid configuration"), "`--set {set}`: {stderr}");
        assert!(stderr.contains(field), "`--set {set}`: {stderr}");
    }
}
