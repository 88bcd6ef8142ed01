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
