//! The command line refuses what it cannot run: exit code 2, nothing on
//! stdout, and the usage line on stderr.

use std::process::Command;

const USAGE: &str = "Usage: servebench --workload <solve-mix|session-churn|bulk-ingest>";

#[test]
fn bad_command_lines_exit_2_with_usage_on_stderr() {
    let cases: &[(&[&str], &str)] = &[
        (&[], "missing --workload"),
        (&["--workload", "no-such-mix", "--seed", "1"], "unknown workload 'no-such-mix'"),
        (&["--workload", "solve-mix"], "missing --seed"),
        (&["--workload", "solve-mix", "--seed", "x"], "bad --seed 'x'"),
        (&["--workload", "solve-mix", "--seed", "1", "--seconds", "0"], "bad --seconds '0'"),
        (&["--workload", "solve-mix", "--seed", "1", "--trace", "2"], "bad --trace '2'"),
        (
            &["--workload", "solve-mix", "--seed", "1", "--verbose", "1"],
            "unknown argument '--verbose'",
        ),
        (&["--workload"], "--workload needs a value"),
    ];
    for (args, reason) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_servebench"))
            .args(*args)
            .output()
            .expect("run servebench");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(USAGE), "{args:?}: no usage line in {stderr:?}");
        assert!(stderr.contains(reason), "{args:?}: {stderr:?} does not say {reason:?}");
    }
}
