//! The `repro` binary driven end to end at the 96 × 400 cell.

use std::process::{Command, Output};

#[path = "../../../tests/common/pin.rs"]
mod pin;

use pin::Pin;

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

/// Recorded at `b06d608`, before `repro` parsed its flags through
/// `dgrid::cli`. The experiment may stand before, between or after the
/// flags.
#[test]
fn fig2_and_tree_print_the_pinned_bytes() {
    let cell = ["--nodes", "96", "--jobs", "400"];
    for (experiment, extra, want) in [
        ("fig2", &["--reps", "2"][..], (0x089d_797c_1e19_b81f, 872)),
        ("tree", &[], (0x905e_b5ee_d587_da0f, 317)),
    ] {
        let name = [experiment];
        for args in [
            [&name[..], &cell, extra].concat(),
            [&cell[..2], &name, &cell[2..], extra].concat(),
            [&cell[..], extra, &name].concat(),
        ] {
            let out = repro(&args);
            assert!(out.status.success(), "{args:?}: {:?}", out.status);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert_eq!(Pin::of(&out.stdout), want, "{stdout}");
        }
    }
}

/// A bad, missing or unknown flag, a count of 0 and an unknown experiment
/// each exit 2 with a first line naming what was wrong; none panics.
#[test]
fn bad_flags_and_experiments_name_themselves_and_exit_2() {
    for (args, first_line) in [
        (&["--nodes", "x"][..], "--nodes: \"x\" is not a number"),
        (&["tree", "--nodes"], "--nodes: value missing"),
        (&["--bogus", "1"], "unknown flag --bogus"),
        (&["--reps", "0"], "--reps: \"0\" is not at least 1"),
        (&["--threads", "0"], "--threads: \"0\" is not at least 1"),
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            stderr.lines().next(),
            Some(first_line),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
    // An unwritable `--json` is refused before any experiment runs.
    let out = repro(&[
        "hops",
        "--nodes",
        "32",
        "--jobs",
        "50",
        "--json",
        "/nonexistent/x.json",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "hops ran anyway");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("cannot create /nonexistent/x.json: "),
        "{stderr}"
    );
    let out = repro(&["fig9"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("unknown experiment \"fig9\" (known: fig2, hops,"));
    assert!(stderr.contains("faults, all)"), "{stderr}");
}
