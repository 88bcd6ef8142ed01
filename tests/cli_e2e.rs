//! The `dgrid` binary driven end to end, at the 96 × 400 cell EXPERIMENTS.md
//! records its `compare` tables at.

use std::process::{Command, Output};

fn dgrid(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dgrid"))
        .args(args)
        .output()
        .expect("spawn dgrid")
}

/// `dgrid compare --nodes 96 --jobs 400 <extra>`, which must exit 0.
fn compare(extra: &[&str]) -> Vec<u8> {
    let out = dgrid(&[&["compare", "--nodes", "96", "--jobs", "400"], extra].concat());
    assert!(out.status.success(), "compare {extra:?}: {:?}", out.status);
    out.stdout
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Recorded at `7198c56`, before `compare` learned `--replications`: one
/// replication keeps `--seed` itself and every byte of the table.
#[test]
fn compare_at_one_replication_prints_the_pinned_bytes() {
    let stdout = compare(&[]);
    assert_eq!(
        (fnv1a(&stdout), stdout.len()),
        (0x4074_3eaf_dc26_a30d, 879),
        "{}",
        String::from_utf8_lossy(&stdout)
    );
}

#[test]
fn replicated_compare_averages_new_seeds_the_same_at_any_thread_count() {
    let row = |out: &[u8]| {
        let table = String::from_utf8_lossy(out).into_owned();
        let row = table.lines().find(|l| l.starts_with("rn-tree "));
        row.expect("an rn-tree row").to_string()
    };
    let one_thread = compare(&["--replications", "4", "--threads", "1"]);
    assert_eq!(
        one_thread,
        compare(&["--replications", "4", "--threads", "2"])
    );
    assert_ne!(
        row(&one_thread),
        row(&compare(&[])),
        "--replications ignored"
    );
}

/// The stderr of an invocation that must exit 2 (a panic exits 101).
fn refused(args: &[&str]) -> String {
    let out = dgrid(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    String::from_utf8(out.stderr).expect("utf-8 stderr")
}

#[test]
fn file_and_flag_errors_name_themselves_and_exit_2() {
    let missing = refused(&["report", "--events", "/nonexistent"]);
    assert!(missing.contains("/nonexistent") && missing.lines().count() == 1);
    assert!(refused(&["run", "--nodes", "abc"]).starts_with("--nodes: \"abc\" is not a number\n"));
    assert!(refused(&["run", "--foo", "1"]).starts_with("unknown flag --foo\n"));
    let gone = refused(&["bench", "sweep"]);
    assert!(gone.contains("benchmark/Cargo.toml") && gone.contains("compare --replications"));
    assert_eq!(gone.lines().count(), 1);
}
