//! `--help` and `-h` after every `insomnia` subcommand print the usage
//! text to stdout and exit 0, the same as a bare `insomnia --help`.

use std::process::Command;

fn insomnia(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_insomnia")).args(args).output().expect("spawn insomnia")
}

#[test]
fn every_subcommand_accepts_help() {
    let usage = insomnia(&["--help"]);
    assert!(usage.status.success());
    let usage = String::from_utf8(usage.stdout).unwrap();
    assert!(usage.starts_with("insomnia — "), "{usage}");

    for sub in ["list", "show", "run", "sweep", "compare", "profile"] {
        for flag in ["--help", "-h"] {
            let out = insomnia(&[sub, flag]);
            assert!(out.status.success(), "`insomnia {sub} {flag}` exited {}", out.status);
            assert_eq!(String::from_utf8(out.stdout).unwrap(), usage, "`insomnia {sub} {flag}`");
        }
    }
}
